"""Determinantal certificates from nets: the 2 x b matrix of linear forms
representing multiplication of the net pencil sections against the residual
sections, its 1-genericity, membership of its 2x2 minors in the Orlik-Terao
ideal, and the Eagon-Northcott count of linear syzygies it predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .arrangement import Arrangement
from .divisors import h0_fatpoints, net_split
from .exact import (BinaryForm, MPoly, SparseReducer, binary_gcd,
                    monomials_of_degree, mpoly_det, solve)
from .orlik_terao import OTPresentation, membership


@dataclass
class MultiplicationMatrix:
    entries: list        # 2 x b nested list of linear MPoly in y_1..y_d
    sigma: list          # the two pencil sections (degree m forms)
    tau: list            # the b residual sections (degree d-1-m forms)
    d: int

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def minors(self) -> list:
        """The 2x2 minors, quadrics in the y variables."""
        out = []
        for j1, j2 in combinations(range(self.ncols), 2):
            out.append(self.entries[0][j1] * self.entries[1][j2]
                       - self.entries[0][j2] * self.entries[1][j1])
        return out


def multiplication_matrix(pres: OTPresentation, cert) -> MultiplicationMatrix:
    """Entry (i,j) is the expansion of sigma_i * tau_j in the basis
    l_1..l_d of the degree-(d-1) sections, read as a linear form in y."""
    if not cert.is_net:
        raise ValueError("multiplication matrix needs a net certificate "
                         "(all weights one)")
    arr = pres.arrangement
    split = net_split(arr, cert)
    sa = h0_fatpoints(arr, split.A_div)
    if sa.dimension != 2:
        raise ValueError("not a pencil: h^0(A) = %d" % sa.dimension)
    # the products of two disjoint blocks of distinct lines share no
    # factor, so they are independent: a basis of the pencil
    sigma = []
    for b in cert.blocks[:2]:
        prod = MPoly.constant(3, 1)
        for i in b:
            prod = prod * MPoly.linear_form(arr.forms[i])
        sigma.append(prod)
    tau = h0_fatpoints(arr, split.B_div).basis
    # solve sigma_i * tau_j = sum c_k l_k exactly
    monos = monomials_of_degree(3, arr.d - 1)
    index = {mn: r for r, mn in enumerate(monos)}
    lmat = [[pres.l[k].terms.get(mn, Fraction(0)) for k in range(arr.d)]
            for mn in monos]
    entries = [[None] * len(tau) for _ in range(2)]
    for i, sg in enumerate(sigma):
        for j, t in enumerate(tau):
            prod = sg * t
            b = [Fraction(0)] * len(monos)
            for e, c in prod.terms.items():
                b[index[e]] = c
            coeffs = solve(lmat, b)
            if coeffs is None:
                raise ArithmeticError(
                    "pencil-times-residual product fell outside the span of "
                    "the l_k; this contradicts the section computation")
            entries[i][j] = MPoly.linear_form(coeffs)
    return MultiplicationMatrix(entries=entries, sigma=sigma, tau=tau, d=arr.d)


def _entry_to_binary(row0: MPoly, row1: MPoly, d: int) -> list:
    """Coefficients of lambda*row0 + mu*row1 per y variable, as MPoly(2) in
    (lambda, mu)."""
    out = []
    for k in range(d):
        e = [0] * d
        e[k] = 1
        c0 = row0.terms.get(tuple(e), Fraction(0))
        c1 = row1.terms.get(tuple(e), Fraction(0))
        out.append(MPoly(2, {(1, 0): c0, (0, 1): c1}))
    return out


def is_one_generic(g: MultiplicationMatrix) -> bool:
    """No generalized zero entry: for every point of the pencil P^1 the b
    combined entries stay linearly independent.  Decided exactly: the b x b
    minors of the coefficient matrix are binary forms; 1-generic iff their
    gcd is a nonzero constant."""
    b = g.ncols
    d = g.d
    pencil = [_entry_to_binary(g.entries[0][j], g.entries[1][j], d)
              for j in range(b)]          # b rows, d columns of MPoly(2)
    if b > d:
        return False
    minors = []
    for cols in combinations(range(d), b):
        sub = [[pencil[r][c] for c in cols] for r in range(b)]
        det = mpoly_det(sub)
        if not det.is_zero():
            minors.append(_mpoly2_to_binary(det, b))
    if not minors:
        return False
    return binary_gcd(minors).degree == 0


def _mpoly2_to_binary(p: MPoly, degree: int) -> BinaryForm:
    coeffs = [Fraction(0)] * (degree + 1)
    for (a, bq), c in p.terms.items():
        if a + bq != degree:
            raise ValueError("minor is not homogeneous of the pencil degree")
        coeffs[bq] = c
    return BinaryForm(coeffs)


def minors_in_ideal(pres: OTPresentation, g: MultiplicationMatrix) -> bool:
    """Every 2x2 minor must lie in the Orlik-Terao ideal."""
    return all(membership(pres, q) for q in g.minors() if not q.is_zero())


def minor_span_dimension(arr: Arrangement, g: MultiplicationMatrix) -> int:
    """Dimension of the span of the minors inside the quadric slice."""
    monos = monomials_of_degree(arr.d, 2)
    index = {m: k for k, m in enumerate(monos)}
    red = SparseReducer(len(monos))
    for q in g.minors():
        red.add({index[e]: c for e, c in q.terms.items()})
    return red.rank


@dataclass(frozen=True)
class ENPrediction:
    b: int
    betti: tuple      # beta_i = (i+1) * C(b, i+2), i = 0, 1, ...

    @property
    def linear_syzygies(self) -> int:
        return self.betti[1] if len(self.betti) > 1 else 0


def en_prediction(cert, d: int) -> ENPrediction:
    """Eagon-Northcott Betti numbers for the 2 x b matrix a (k,m)-net with
    k >= m produces, where b = km - C(m+1,2)."""
    if not cert.is_net:
        raise ValueError("prediction applies to nets")
    if cert.k < cert.m:
        raise ValueError("determinantal hypothesis fails: k < m")
    b = cert.k * cert.m - comb(cert.m + 1, 2)
    betti = []
    i = 0
    while True:
        v = (i + 1) * comb(b, i + 2)
        if v == 0:
            break
        betti.append(v)
        i += 1
    return ENPrediction(b=b, betti=tuple(betti))
