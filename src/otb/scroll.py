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
from math import comb

from .arrangement import Arrangement
from .divisors import h0_fatpoints, net_split
from .exact import MPoly, SparseReducer, monomials_of_degree, solve
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
        out = []
        for j1, j2 in combinations(range(self.ncols), 2):
            out.append(self.entries[0][j1] * self.entries[1][j2]
                       - self.entries[0][j2] * self.entries[1][j1])
        return out


def multiplication_matrix(pres: OTPresentation, cert) -> MultiplicationMatrix:
    """Entry (i,j) is the expansion of sigma_i * tau_j in the basis
    l_1..l_d of the degree-(d-1) sections, read as a linear form in y.

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
    # solve sigma_i * tau_j = sum c_k l_k exactly
    monos = monomials_of_degree(3, arr.d - 1)
    index = {mn: r for r, mn in enumerate(monos)}
    ls = l_forms(arr)
    lmat = [[l.terms.get(mn, Fraction(0)) for l in ls] for mn in monos]
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
