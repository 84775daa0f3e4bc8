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

from .arrangement import Arrangement, cross
from .exact import MPoly, primitive_vector


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


def _dependency(forms) -> tuple:
    """A nonzero dependency sum_j c_j v_j = 0 of the forms v_j of a circuit,
    from 3 x 3 minors, det(a, b, c) = a . (b x c).

    Four vectors v_0..v_3 of Q^3 satisfy Cramer's rule
    sum_j (-1)^j det(v_{!=j}) v_j = 0, v_{!=j} the three others in order:
    coordinate k of the sum is the expansion along its first row of the
    4 x 4 determinant with rows ((v_j)_k)_j, ((v_j)_0)_j, ((v_j)_1)_j and
    ((v_j)_2)_j, which is zero, since its first row repeats a later one.
    For a circuit of four forms that is the dependency.  For three forms
    a, b, c and any w, it reads
    (w.(b x c)) a + (w.(c x a)) b + (w.(a x b)) c = det(a, b, c) w, and a
    concurrent triple has det(a, b, c) = 0.  With w = e_r the coefficients
    are coordinate r of the three cross products; distinct lines have
    b x c != 0, so some r gives a nonzero vector, the first is taken.  The
    dependencies of a circuit form a line, so `primitive_vector` of this
    one is that of any other, such as the vector of `kernel_basis`."""
    if len(forms) == 4:
        others = [[v for t, v in enumerate(forms) if t != j] for j in range(4)]
        return tuple((-1) ** j * sum(x * y for x, y in zip(a, cross(b, c)))
                     for j, (a, b, c) in enumerate(others))
    a, b, c = forms
    return next(v for v in zip(cross(b, c), cross(c, a), cross(a, b))
                if any(v))


def enumerate_circuits(arr: Arrangement, max_size: int | None = None) -> list:
    """All circuits of size <= `size_bound(arr, max_size)`, by increasing
    size, lexicographic within a size.  Two distinct lines are independent,
    so the circuits of size 3 are the concurrent triples, read off the
    rank-two flats; four forms in a 3-space are dependent, so the circuits
    of size 4 are the quadruples that hold no concurrent triple.  The
    coefficients of each are read off 3 x 3 minors (`_dependency`)."""
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
        # a circuit's dependencies form a line off every coordinate
        # hyperplane
        coeffs = primitive_vector(_dependency([arr.forms[i] for i in subset]))
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
