"""The Orlik-Terao algebra of a line arrangement.

For forms a_1..a_d the ideal I in Q[y_1..y_d] is generated by the circuit
relations; the algebra C(A) = R/I is also the image of the substitution
y_k -> l_k := (a_1*...*a_d)/a_k, which gives a Groebner-free membership
test: a homogeneous g lies in I iff g(l_1,...,l_d) expands to zero.

Graded slices of I are echelonized exactly in every degree; since the
circuit relations generate I, the complement of each echelon is a monomial
basis of C(A)_j, so its size is the exact Hilbert function.  These bases
carry the multiplication-by-variable maps that the Koszul strand
computations consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arrangement import Arrangement, poincare_polynomial
from .circuits import circuit_relation, enumerate_circuits
from .exact import MPoly, SparseReducer, monomials_of_degree, solve


# ---------------------------------------------------------------------------
# Presentation


def l_forms(arr: Arrangement) -> list:
    """l_i = (product of all forms) / (form i), degree d-1 in (x,y,z),
    computed by prefix/suffix products."""
    lins = [MPoly.linear_form(f) for f in arr.forms]
    d = len(lins)
    pre = [MPoly.constant(3, 1)]
    for q in lins:
        pre.append(pre[-1] * q)
    suf = [MPoly.constant(3, 1)]
    for q in reversed(lins):
        suf.append(suf[-1] * q)
    suf.reverse()
    return [pre[i] * suf[i + 1] for i in range(d)]


class GradedPiece:
    """Degree-j slice: ambient monomials of R_j, an exact echelon basis of
    I_j, and the complement monomial basis of C(A)_j."""

    def __init__(self, degree: int, monomials: list, index: dict,
                 reducer: SparseReducer):
        self.degree = degree
        self.monomials = monomials
        self.index = index
        self.reducer = reducer
        self.ideal_dim = reducer.rank
        self.quotient_cols = reducer.nonpivot_columns()
        self.quotient_basis = [monomials[c] for c in self.quotient_cols]
        self.quotient_index = {c: k for k, c in enumerate(self.quotient_cols)}

    @property
    def quotient_dim(self) -> int:
        return len(self.quotient_cols)

    def reduce_vector(self, vec: dict) -> dict:
        """Image in C(A)_j of a vector over ambient monomial indices, as a
        dict over quotient-basis positions."""
        res = self.reducer.reduce(vec)
        return {self.quotient_index[c]: v for c, v in res.items()}

    def times_variables(self, index: dict):
        """Each echelon row of I_j times each variable, as a sparse row over
        the degree-(j+1) monomial `index`; together they span R_1 I_j."""
        nvars = len(self.monomials[0])
        for row in self.reducer.pivot_rows.values():
            for s in range(nvars):
                shifted = {}
                for c, v in row.items():
                    m = list(self.monomials[c])
                    m[s] += 1
                    shifted[index[tuple(m)]] = v
                yield shifted


class OTPresentation:
    """Circuit generators, l-forms, and cached graded data."""

    def __init__(self, arr: Arrangement):
        self.arrangement = arr
        self.d = arr.d
        self.circuits = enumerate_circuits(arr)
        self.generators = [circuit_relation(c) for c in self.circuits]
        self.l = l_forms(arr)
        self._pieces: dict[int, GradedPiece] = {}
        self._mult: dict[int, list] = {}

    def graded_piece(self, j: int) -> GradedPiece:
        if j in self._pieces:
            return self._pieces[j]
        monos = monomials_of_degree(self.d, j)
        index = {m: k for k, m in enumerate(monos)}
        red = SparseReducer(len(monos))
        if j >= 2:
            for row in self.graded_piece(j - 1).times_variables(index):
                red.add(row)
            for g in self.generators:
                if g.degree() == j:
                    red.add({index[e]: c for e, c in g.terms.items()})
        piece = GradedPiece(j, monos, index, red)
        self._pieces[j] = piece
        return piece

    def multiplication_maps(self, q: int) -> list:
        """For each variable s, the map C(A)_q -> C(A)_{q+1} as a list of
        sparse columns (dict target-position -> coefficient), one column per
        quotient basis element of degree q."""
        if q in self._mult:
            return self._mult[q]
        src = self.graded_piece(q)
        dst = self.graded_piece(q + 1)
        maps = []
        for s in range(self.d):
            cols = []
            for m in src.quotient_basis:
                e = list(m)
                e[s] += 1
                cols.append(dst.reduce_vector({dst.index[tuple(e)]: Fraction(1)}))
            maps.append(cols)
        self._mult[q] = maps
        return maps


def substitution_quotient_dim(pres: OTPresentation, j: int) -> int:
    """dim C(A)_j, exact: the circuit relations generate I (Proudfoot-Speyer,
    "A broken circuit ring"), so the echelon of I_j built from them in
    `graded_piece` has the true rank and its complement is C(A)_j."""
    return pres.graded_piece(j).quotient_dim


# ---------------------------------------------------------------------------
# Terao Hilbert series


@dataclass(frozen=True)
class TeraoSeries:
    h_polynomial: tuple     # numerator over (1-t)^3
    coefficients: tuple     # Taylor coefficients through the requested degree


def terao_series(arr: Arrangement, upto: int) -> TeraoSeries:
    """Hilbert series of C(A): substitute t/(1-t) into the Poincare
    polynomial; returns the numerator h over (1-t)^3 and the expansion."""
    c = poincare_polynomial(arr).coefficients
    # numerator: sum c_k t^k (1-t)^(3-k); degree 3 coefficient cancels
    h = [0, 0, 0, 0]
    for k, ck in enumerate(c):
        # (1-t)^(3-k) expansion
        for i in range(3 - k + 1):
            h[k + i] += ck * comb(3 - k, i) * (-1) ** i
    if h[3] != 0:
        raise ArithmeticError("h-polynomial has degree > 2")
    hpoly = tuple(h[:3])
    coeffs = tuple(sum(hpoly[i] * comb(j - i + 2, 2)
                       for i in range(3) if j - i >= 0)
                   for j in range(upto + 1))
    return TeraoSeries(h_polynomial=hpoly, coefficients=coeffs)


# ---------------------------------------------------------------------------
# Membership by substitution


def membership(pres: OTPresentation, g: MPoly) -> bool:
    """Exact ideal membership: homogeneous g is in I iff its pullback under
    y_k -> l_k vanishes identically."""
    if g.nvars != pres.d:
        raise ValueError("polynomial lives in the wrong ring")
    if not g.is_homogeneous():
        raise ValueError("membership test is per-degree; g must be homogeneous")
    return g.compose(pres.l).is_zero()


# ---------------------------------------------------------------------------
# Jacobian ideal and the gradient map


def defining_polynomial(arr: Arrangement) -> MPoly:
    total = MPoly.constant(3, 1)
    for f in arr.forms:
        total = total * MPoly.linear_form(f)
    return total


def jacobian_containment(arr: Arrangement) -> bool:
    """Whether each partial of the defining polynomial lies in the span of
    the l_i (the degree d-1 slice of the ideal they generate)."""
    alpha = defining_polynomial(arr)
    ls = l_forms(arr)
    monos = monomials_of_degree(3, arr.d - 1)
    index = {m: k for k, m in enumerate(monos)}
    cols = []
    for l in ls:
        v = [Fraction(0)] * len(monos)
        for e, c in l.terms.items():
            v[index[e]] = c
        cols.append(v)
    m = [[col[r] for col in cols] for r in range(len(monos))]
    for axis in range(3):
        part = alpha.derivative(axis)
        b = [Fraction(0)] * len(monos)
        for e, c in part.terms.items():
            b[index[e]] = c
        if solve(m, b) is None:
            return False
    return True


def gradient_degree(arr: Arrangement) -> int:
    """Degree of the gradient map of the defining polynomial:
    (sum of the Mobius values of the rank-two flats) - d + 1."""
    return arr.sum_mu() - arr.d + 1
