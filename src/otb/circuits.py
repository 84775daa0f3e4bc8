"""Circuits of the linear matroid on the defining forms.

A circuit is a minimal dependent subset of the forms; its dependency
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
    size, lexicographic within a size; subsets containing a known circuit
    are pruned."""
    found = []
    found_sets = []
    for k in range(3, size_bound(arr, max_size) + 1):
        for subset in combinations(range(arr.d), k):
            sset = set(subset)
            if any(c <= sset for c in found_sets):
                continue
            cols = [arr.forms[i] for i in subset]
            ker = kernel_basis([[col[r] for col in cols] for r in range(3)])
            if not ker:
                continue
            # no proper subset is dependent (it would contain an enumerated
            # circuit), so this is a circuit and the kernel is a line
            coeffs = primitive_vector(ker[0])
            if any(c == 0 for c in coeffs):
                raise AssertionError("circuit with a zero coefficient")
            found.append(Circuit(indices=subset, coeffs=coeffs, ambient=arr.d))
            found_sets.append(sset)
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
