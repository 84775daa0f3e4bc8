"""Determinantal certificates from nets: the 2 x b matrix of linear forms
representing multiplication of the net pencil sections against the residual
sections, membership of its 2x2 minors in the Orlik-Terao ideal, and the
Eagon-Northcott count of linear syzygies it predicts.  The matrix is
1-generic by construction (Eisenbud's lemma on matrices of multiplied
sections; the proof is in `multiplication_matrix`), so nothing decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .arrangement import Arrangement
from .divisors import h0_fatpoints, net_split
from .exact import MPoly, SparseReducer, monomials_of_degree
from .orlik_terao import OTPresentation, l_forms, membership


@dataclass
class MultiplicationMatrix:
    entries: list        # 2 x b nested list of linear MPoly in y_1..y_d
    sigma: list          # the two pencil sections (degree m forms)
    tau: list            # the b residual sections (degree d-1-m forms)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def minors(self) -> list:
        """The 2x2 minors, quadrics in the y variables."""
        g = self.entries
        return [g[0][a] * g[1][b] - g[0][b] * g[1][a]
                for a, b in combinations(range(self.ncols), 2)]


def _point_off_others(forms: list, k: int) -> tuple:
    """An integer point of line k on no other line: a_k x (1, t, t^2) for
    the least t >= 0 that works.  For j != k, a_j . (a_k x q) =
    q . (a_j x a_k), a nonzero quadratic in t since the lines are distinct;
    so at most 2(d-1) values of t fail."""
    (a, b, c), t = forms[k], 0
    while True:
        p = (b * t * t - c * t, c - a * t * t, a * t - b)
        if all(sum(u * v for u, v in zip(f, p))
               for j, f in enumerate(forms) if j != k):
            return p
        t += 1


def _value(f: dict, p: tuple) -> int:
    """The integer polynomial {exponent: int} at the integer point p."""
    return sum(v * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]
               for e, v in f.items())


def multiplication_matrix(pres: OTPresentation, cert) -> MultiplicationMatrix:
    """Entry (i,j) is the expansion of sigma_i * tau_j in the basis
    l_1..l_d of the degree-(d-1) sections, read as a linear form in y.

    The expansion is read off by interpolation.  P_k is an integer point
    of line k on no other line, and l_m = prod_{j != m} a_j vanishes at
    P_k exactly when m != k; so sigma_i tau_j = sum_m c_m l_m at P_k gives
    c_k = sigma_i(P_k) tau_j(P_k) / l_k(P_k).  The same vanishing makes the
    l_k independent, so these c are the only candidates, and the identity
    itself is checked exactly, on integer coefficients.

    The matrix returned is 1-generic (Eisenbud, "Linear sections of
    determinantal varieties", Amer. J. Math. 110, 1988): no nonzero v and
    point (lambda : mu) of P^1 give sum_j v_j (lambda G_0j + mu G_1j) = 0.
    Suppose some did.  Each entry G_ij = sum_k c_k y_k is checked exactly
    below to satisfy sigma_i tau_j = sum_k c_k l_k, so reading y_k as l_k
    turns that vanishing combination into (lambda sigma_0 + mu sigma_1)
    (sum_j v_j tau_j) = 0 in Q[x, y, z], which has no zero divisors.  The
    first factor is nonzero: sigma_0 and sigma_1 are the products of two
    disjoint blocks of distinct lines, so they are not proportional.  The
    second is nonzero: the tau_j are the basis `h0_fatpoints` returns, so
    they are independent.
    """
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
    sg_ints, tau_ints, l_ints = (
        [{e: int(c) for e, c in f.terms.items()} for f in fs]
        for fs in (sigma, tau, l_forms(arr)))
    points = [_point_off_others(arr.forms, k) for k in range(arr.d)]
    at_l = [_value(l, p) for l, p in zip(l_ints, points)]
    at_sg, at_tau = ([[_value(f, p) for p in points] for f in fs]
                     for fs in (sg_ints, tau_ints))
    entries = [[None] * len(tau) for _ in range(2)]
    for i, (sg, vs) in enumerate(zip(sg_ints, at_sg)):
        for j, (t, vt) in enumerate(zip(tau_ints, at_tau)):
            coeffs = [Fraction(a * b, c) for a, b, c in zip(vs, vt, at_l)]
            # den * (sigma_i tau_j - sum_k c_k l_k) in integers must be zero
            den = lcm(*(c.denominator for c in coeffs))
            acc: dict = {}
            for e1, v1 in sg.items():
                for e2, v2 in t.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    acc[e] = acc.get(e, 0) + den * v1 * v2
            for c, l in zip(coeffs, l_ints):
                f = c.numerator * (den // c.denominator)
                for e, v in l.items() if f else ():
                    acc[e] = acc.get(e, 0) - f * v
            if any(acc.values()):
                raise ArithmeticError(
                    "pencil-times-residual product fell outside the span of "
                    "the l_k; this contradicts the section computation")
            entries[i][j] = MPoly.linear_form(coeffs)
    return MultiplicationMatrix(entries=entries, sigma=sigma, tau=tau)


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
    b = cert.k * cert.m - comb(cert.m + 1, 2)      # >= C(m, 2) >= 0
    return ENPrediction(b=b, betti=tuple((i + 1) * comb(b, i + 2)
                                         for i in range(b - 1)))
