"""Divisors on the blowup of the plane at the singular points of an
arrangement, and exact section counts via fat-point ideals.

A class m E_0 - sum a_p E_p is stored as the integer m together with the
multiplicities a_p on the rank-two flats.  The intersection pairing is
E_0^2 = 1, E_p^2 = -1, mixed products zero; the canonical class is
-3 E_0 + sum E_p.  Sections of a class with nonnegative coefficients are
the degree-m forms vanishing to order >= a_p at each p: the kernel of the
integer matrix of derivative conditions (redundant rows are harmless).
The basis is its reduced row echelon kernel in primitive integer
vectors, from `exact.primitive_kernel`: one echelon mod p and lifts to Q
with exact checks, and the exact elimination when a check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .arrangement import Arrangement
from .exact import MPoly, monomials_of_degree, primitive_kernel


class DivisorClass:
    """mE_0 - sum mults[p] E_p; componentwise arithmetic."""

    def __init__(self, m: int, mults: dict):
        self.m = int(m)
        self.mults = {p: int(v) for p, v in mults.items() if int(v) != 0}

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        out = dict(self.mults)
        for p, v in other.mults.items():
            out[p] = out.get(p, 0) + v
        return DivisorClass(self.m + other.m, out)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        out = dict(self.mults)
        for p, v in other.mults.items():
            out[p] = out.get(p, 0) - v
        return DivisorClass(self.m - other.m, out)

    def __rmul__(self, c: int) -> "DivisorClass":
        return DivisorClass(c * self.m, {p: c * v for p, v in self.mults.items()})

    def __eq__(self, other):
        return isinstance(other, DivisorClass) and self.m == other.m \
            and self.mults == other.mults

    def __repr__(self):
        return "DivisorClass(m=%d, %d points)" % (self.m, len(self.mults))


def canonical_class(arr: Arrangement) -> DivisorClass:
    return DivisorClass(-3, {p: -1 for p in arr.flats})


def pairing(d1: DivisorClass, d2: DivisorClass) -> int:
    total = d1.m * d2.m
    for p, v in d1.mults.items():
        total -= v * d2.mults.get(p, 0)
    return total


def riemann_roch_chi(arr: Arrangement, div: DivisorClass) -> int:
    """(D^2 - D.K)/2 + 1; integral for every integral class."""
    k = canonical_class(arr)
    num = pairing(div, div) - pairing(div, k)
    if num % 2:
        raise ArithmeticError("Riemann-Roch numerator is odd")
    return num // 2 + 1


def divisor_DA(arr: Arrangement) -> DivisorClass:
    """(d-1) E_0 - sum mu(p) E_p, the class cut out by the l_i."""
    return DivisorClass(arr.d - 1, {p: p.mu for p in arr.flats})


@dataclass
class SectionSpace:
    degree: int
    basis: list            # MPoly in (x, y, z), primitive integer vectors
    dimension: int
    conditions_shape: tuple  # (rows, cols) of the condition matrix
    how: str               # how the basis was proved: see primitive_kernel


def vanishing_condition_rows(point, order: int, monos: list) -> list:
    """Rows imposing vanishing to order >= `order` at the point on the
    space of forms spanned by `monos`, the `monomials_of_degree(3, degree)`
    of one degree: every partial derivative of total order < `order`,
    evaluated at a primitive representative, in integers.  Rows may be
    redundant; callers use ranks."""
    degree = sum(monos[0])
    powers = [[x ** j for j in range(degree + 1)] for x in point]
    rows = []
    for alpha in range(order):
        for a in range(alpha + 1):
            for b in range(alpha - a + 1):
                # d^t/dx^t x^e = perm(e, t) x^(e - t), one table per variable
                f0, f1, f2 = ([perm(e, t) * pw[e - t] if e >= t else 0
                               for e in range(degree + 1)]
                              for t, pw in zip((a, b, alpha - a - b), powers))
                rows.append([f0[e0] * f1[e1] * f2[e2]
                             for e0, e1, e2 in monos])
    return rows


def condition_rows(div: DivisorClass, monos: list) -> list:
    """The fat-point conditions of a class with all a_p >= 0 on the forms
    spanned by `monos`, its `monomials_of_degree(3, m)`: H^0 is their
    kernel."""
    return [row for p, v in sorted(div.mults.items(),
                                   key=lambda kv: kv[0].point)
            for row in vanishing_condition_rows(p.point, v, monos)]


def h0_fatpoints(arr: Arrangement, div: DivisorClass) -> SectionSpace:
    """Exact global sections of a class with m >= 0 and all a_p >= 0: the
    degree-m slice of the intersection of the fat-point ideals.  `how` is
    "exact" for a class with no conditions, and otherwise the proof level of
    `primitive_kernel`: "mod-p", "lifted k" (k primes) or "exact"."""
    if div.m < 0:
        raise ValueError("not a fat-point divisor: negative degree")
    for p, v in div.mults.items():
        if v < 0:
            raise ValueError("not a fat-point divisor: negative multiplicity "
                             "at %s" % (p.point,))
    monos = monomials_of_degree(3, div.m)
    rows = condition_rows(div, monos)
    if not rows:
        basis = [MPoly.monomial(3, m) for m in monos]
        return SectionSpace(div.m, basis, len(monos), (0, len(monos)),
                            "exact")
    vecs, how = primitive_kernel(rows)
    basis = [MPoly(3, {m: v for m, v in zip(monos, vec) if v})
             for vec in vecs]
    return SectionSpace(div.m, basis, len(basis), (len(rows), len(monos)),
                        how)


def h0_h1(arr: Arrangement, div: DivisorClass):
    """(h^0, h^1) with h^1 read off as h^0 - chi; valid because h^2 vanishes
    for the m >= -2 range in play (Serre duality against the canonical
    class)."""
    if div.m < -2:
        raise ValueError("h^2 is not forced to vanish for m < -2")
    sections = h0_fatpoints(arr, div)
    chi = riemann_roch_chi(arr, div)
    return sections.dimension, sections.dimension - chi


@dataclass
class NetSplit:
    A_div: DivisorClass
    B_div: DivisorClass


def net_split(arr: Arrangement, cert) -> NetSplit:
    """Split D_A = A + B along a verified multinet certificate: A has the
    base-locus multiplicities n_p, B is the residual."""
    a_div = DivisorClass(cert.m, {p: cert.n_p[p] for p in cert.Z})
    b_div = divisor_DA(arr) - a_div
    for p, v in b_div.mults.items():
        if v < 0:
            raise ValueError("residual divisor has negative multiplicity at "
                             "%s" % (p.point,))
    return NetSplit(A_div=a_div, B_div=b_div)
