"""Circuits of the linear matroid on the defining forms.

A circuit is a minimal dependent subset of the forms; for lines in the
plane it is a concurrent triple or a quadruple with no concurrent triple,
so the circuits are read off the rank-two flats.  Its dependency
coefficients are projectively unique, and each circuit of size k yields the
degree k-1 generator f of the Orlik-Terao ideal obtained by dropping one
variable at a time from the product y_{i_1} ... y_{i_k}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrangement import Arrangement
from .exact import MPoly, kernel_basis, primitive_vector


@dataclass(frozen=True)
class Circuit:
    indices: tuple      # sorted 0-based line indices
    coeffs: tuple       # primitive integer dependency, first entry positive
    ambient: int        # number of lines d of the arrangement

    @property
    def size(self) -> int:
        return len(self.indices)


def size_bound(arr: Arrangement, max_size: int | None) -> int:
    """The largest size `enumerate_circuits(arr, max_size)` lists: max_size,
    or 4 when it is None (four vectors in a 3-space are dependent, so every
    circuit of a line arrangement has at most 4 lines), and at most d."""
    return min(arr.d, 4 if max_size is None else max_size)


def enumerate_circuits(arr: Arrangement, max_size: int | None = None) -> list:
    """All circuits of size <= `size_bound(arr, max_size)`, by increasing
    size, lexicographic within a size.  Two distinct lines are independent,
    so the circuits of size 3 are the concurrent triples, read off the
    rank-two flats; four forms in a 3-space are dependent, so the circuits
    of size 4 are the quadruples that hold no concurrent triple."""
    size = size_bound(arr, max_size)
    triples = sorted(t for f in arr.flats for t in combinations(f.lines, 3))
    subsets = triples if size >= 3 else []
    if size >= 4:
        concurrent = set(triples)
        subsets = subsets + [
            q for q in combinations(range(arr.d), 4)
            if not any(t in concurrent for t in combinations(q, 3))]
    found = []
    for subset in subsets:
        cols = [arr.forms[i] for i in subset]
        ker = kernel_basis([[col[r] for col in cols] for r in range(3)])
        # a circuit's kernel is a line off every coordinate hyperplane
        coeffs = primitive_vector(ker[0])
        if any(c == 0 for c in coeffs):
            raise ArithmeticError("circuit {%s} has a zero coefficient"
                                  % ",".join(str(i + 1) for i in subset))
        found.append(Circuit(indices=subset, coeffs=coeffs, ambient=arr.d))
    return found


def circuit_relation(c: Circuit) -> MPoly:
    """The Orlik-Terao generator of the circuit: sum over j of
    coeff_j * (product of the circuit variables with y_{i_j} omitted)."""
    total = MPoly.zero(c.ambient)
    for j, cj in enumerate(c.coeffs):
        expo = [0] * c.ambient
        for t, idx in enumerate(c.indices):
            if t != j:
                expo[idx] = 1
        total = total + MPoly.monomial(c.ambient, expo, cj)
    return total
