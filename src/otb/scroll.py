"""Determinantal certificates from nets: the 2 x b matrix of linear forms
representing multiplication of the net pencil sections against the residual
sections, membership of its 2x2 minors in the Orlik-Terao ideal, and the
Eagon-Northcott count of linear syzygies it predicts.

The matrix is 1-generic (the proof is in `multiplication_matrix`), so its
ideal of 2x2 minors is prime of codimension b-1 and the Eagon-Northcott
complex resolves it minimally (Eisenbud, "Linear sections of determinantal
varieties", 1988; The Geometry of Syzygies, 2005, ch. 6).  So the C(b, 2)
minors are minimal generators, all quadrics, hence linearly independent:
`scroll-check` prints C(b, 2) as their span without computing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod

from .divisors import condition_rows, h0_fatpoints, net_split
from .exact import MPoly, SparseColumns, monomials_of_degree, proved_rank
from .orlik_terao import OTPresentation, membership


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


def _values(forms: list, p: tuple) -> list:
    """The value of each form at the integer point p."""
    return [sum(u * v for u, v in zip(f, p)) for f in forms]


def _point_off_others(forms: list, k: int) -> tuple:
    """An integer point of line k on no other line: a_k x (1, t, t^2) for
    the least t >= 0 that works.  For j != k, a_j . (a_k x q) =
    q . (a_j x a_k), a nonzero quadratic in t since the lines are distinct;
    so at most 2(d-1) values of t fail."""
    (a, b, c), t = forms[k], 0
    while True:
        p = (b * t * t - c * t, c - a * t * t, a * t - b)
        if all(v for j, v in enumerate(_values(forms, p)) if j != k):
            return p
        t += 1


def _value(f: dict, p: tuple) -> int:
    """The integer polynomial {exponent: int} at the integer point p."""
    return sum(v * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]
               for e, v in f.items())


def multiplication_matrix(pres: OTPresentation, cert) -> MultiplicationMatrix:
    """Entry (i,j) is the expansion of sigma_i * tau_j in the basis
    l_1..l_d of the degree-(d-1) sections, read as a linear form in y.

    sigma_i is the product of block i.  A base point of a net lies on one
    line of each block, so sigma_i vanishes there to order 1 = n_p: it is
    a section of A, and that is checked exactly on A's fat-point
    conditions.  Products of two disjoint blocks of distinct lines, sigma_0
    and sigma_1 are not proportional.  So, with them as the given cycles,
    one `proved_rank` of the conditions gives h^0(A) = columns - rank.

    The expansion is read off by interpolation.  P_k is an integer point
    of line k on no other line, and l_m = prod_{j != m} a_j vanishes at
    P_k exactly when m != k; so sigma_i tau_j = sum_m c_m l_m at P_k gives
    c_k = sigma_i(P_k) tau_j(P_k) / l_k(P_k).  The same vanishing makes the
    l_k independent, so these c are the only candidates.  The identity is
    checked in integers at the C(d+1, 2) points (a, b, n-a-b), a, b >= 0,
    n = d-1, with l_k read as the product of the other forms' values.  A
    form F of degree n vanishing there is zero: g = F(x, y, n-x-y) has
    degree <= n and n+1 zeros on the line x + y = n, so x + y - n divides
    it, and the quotient vanishes on the points for n-1, so is zero by
    induction.  So F vanishes on the plane x + y + z = n, and, being
    homogeneous, on the dense cone over it.

    The matrix returned is 1-generic (Eisenbud, "Linear sections of
    determinantal varieties", Amer. J. Math. 110, 1988): no nonzero v and
    point (lambda : mu) of P^1 give sum_j v_j (lambda G_0j + mu G_1j) = 0.
    Suppose some did.  Each entry G_ij = sum_k c_k y_k satisfies sigma_i
    tau_j = sum_k c_k l_k, as checked, so reading y_k as l_k turns that
    vanishing combination into (lambda sigma_0 + mu sigma_1) (sum_j v_j
    tau_j) = 0 in Q[x, y, z], which has no zero divisors.  The first factor
    is nonzero, since sigma_0 and sigma_1 are not proportional.  The second
    is nonzero: the tau_j are the basis `h0_fatpoints` returns, so they are
    independent.
    """
    if not cert.is_net:
        raise ValueError("multiplication matrix needs a net certificate "
                         "(all weights one)")
    arr = pres.arrangement
    forms, d = arr.forms, arr.d
    split = net_split(arr, cert)
    sigma = [prod((MPoly.linear_form(forms[i]) for i in b),
                  start=MPoly.constant(3, 1)) for b in cert.blocks[:2]]
    monos = monomials_of_degree(3, cert.m)
    rows = condition_rows(split.A_div, monos)
    conditions = SparseColumns([{r: row[c] for r, row in enumerate(rows)
                                 if row[c]} for c in range(len(monos))],
                               len(rows))
    sections = SparseColumns([{c: int(s.terms[e]) for c, e in enumerate(monos)
                               if e in s.terms} for s in sigma], len(monos))
    if not all(map(conditions.is_cycle, sections.columns())):
        raise ArithmeticError("a block product is not a section of the "
                              "pencil's class")
    h0 = len(monos) - proved_rank(conditions, sections)[0]
    if h0 != 2:
        raise ValueError("not a pencil: h^0(A) = %d" % h0)
    tau = h0_fatpoints(arr, split.B_div).basis
    # the points P_k, then the grid
    pts = [_point_off_others(forms, k) for k in range(d)] + [
        (a, b, d - 1 - a - b) for a in range(d) for b in range(d - a)]
    # l_k and sigma_i at each point are products of form values
    vals = [_values(forms, p) for p in pts]
    at_l = [[prod(v[:k]) * prod(v[k + 1:]) for k in range(d)] for v in vals]
    at_sg = [[prod(v[i] for i in b) for v in vals] for b in cert.blocks[:2]]
    at_tau = [[_value(f, p) for p in pts] for f in (
        {e: int(c) for e, c in t.terms.items()} for t in tau)]
    entries = [[None] * len(tau) for _ in range(2)]
    for i, vs in enumerate(at_sg):
        for j, vt in enumerate(at_tau):
            coeffs = [Fraction(vs[k] * vt[k], at_l[k][k]) for k in range(d)]
            den = lcm(*(c.denominator for c in coeffs))
            nums = [c.numerator * (den // c.denominator) for c in coeffs]
            # den * (sigma_i tau_j - sum_k c_k l_k) must vanish on the grid
            if any(den * s * t != sum(a * b for a, b in zip(nums, ls))
                   for s, t, ls in zip(vs[d:], vt[d:], at_l[d:])):
                raise ArithmeticError(
                    "pencil-times-residual product fell outside the span of "
                    "the l_k; this contradicts the section computation")
            entries[i][j] = MPoly.linear_form(coeffs)
    return MultiplicationMatrix(entries=entries, sigma=sigma, tau=tau)


def minors_in_ideal(pres: OTPresentation, g: MultiplicationMatrix) -> bool:
    """Every 2x2 minor must lie in the Orlik-Terao ideal."""
    return all(membership(pres, q) for q in g.minors() if not q.is_zero())


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
