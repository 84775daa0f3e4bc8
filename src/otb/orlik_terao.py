"""The Orlik-Terao algebra C(A) = Q[y_1..y_d]/I of a line arrangement, the
algebra of the reciprocals 1/a_k of its forms, in one presentation: the
circuit relations as rewriting rules into the monomials with
broken-circuit-free (nbc) support.

For a circuit i_0 < ... < i_k with coefficients c, the broken circuit is
the circuit minus its largest line; its monomial rewrites to
-sum_{t<k} (c_t/c_k) y^(C - {i_t}).  Each step moves one exponent to a
larger index, so rewriting terminates, and the nbc monomials of degree j
span C(A)_j.  `graded_piece` proves them independent: evaluated at
y_k = 1/a_k(P) for as many points P of F_p^3 as there are monomials, they
give a matrix of full rank mod p, which a primitive integer dependency over
Q would not.  One such rank at the highest degree asked for proves every
lower degree too (the proof is in `graded_piece`).  So they are a basis,
each piece's size is the exact Hilbert function, and normal forms, which
carry the multiplication maps and decide ideal membership, are unique.
A normal form is kept in integers: an integer dict over one positive
denominator, in lowest terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

import numpy as np

from .arrangement import Arrangement, poincare_polynomial
from .circuits import enumerate_circuits
from .exact import MODP_PRIMES, MPoly, draw_generic, modp_rank, seeded_rng


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


class OTPresentation:
    """Circuits as rewriting rules into the nbc basis, and the proved
    bases and normal forms per degree."""

    def __init__(self, arr: Arrangement):
        self.arrangement = arr
        self.d = arr.d
        self.circuits = enumerate_circuits(arr)
        # broken circuit -> (its largest line, [(i_t, -c_t sgn c_k)], |c_k|):
        # the rule y^B -> sum_t (-c_t/c_k) y^(C - {i_t}) over t < k
        self._rules = {}
        for c in self.circuits:
            top = c.coeffs[-1]
            sign = 1 if top > 0 else -1
            self._rules.setdefault(c.indices[:-1], (c.indices[-1], [
                (i, -sign * ct) for i, ct in zip(c.indices, c.coeffs[:-1])],
                abs(top)))
        self._sizes = sorted({len(b) for b in self._rules})
        self._rule_of_support: dict = {}
        self._pieces: dict[int, list] = {}
        self._proved = -1                # every degree <= it has a proved basis
        self._position: dict = {}        # nbc monomial -> index in its piece
        self._nf: dict = {}              # monomial -> (integer dict, den)
        self._mult: dict[int, list] = {}

    def _rule(self, support: tuple):
        """A rule whose broken circuit lies in `support`, increasing line
        indices, or None when the support is nbc."""
        if support not in self._rule_of_support:
            self._rule_of_support[support] = next(
                (self._rules[b] for k in self._sizes
                 for b in combinations(support, k) if b in self._rules), None)
        return self._rule_of_support[support]

    def graded_piece(self, j: int) -> list:
        """The degree-j monomials with nbc support, in `monomials_of_degree`
        order, proved a basis of C(A)_j by one evaluation rank mod p in
        degree j or above: only a j above every degree proved so far is
        ranked.

        One rank at degree N proves every degree below N.  No broken
        circuit contains the largest line d, since a broken circuit drops
        its circuit's largest line; so y_d times an nbc monomial of degree
        j-1 is an nbc monomial of degree j, and y_d maps the nbc monomials
        of degree j-1 injectively into those of degree j.  A relation among
        the former, times y_d, would be a relation among distinct nbc
        monomials of degree j.  So full rank in degree N proves them
        independent in every degree up to N, and a caller that knows its
        top degree asks for it first."""
        if j not in self._pieces:
            basis = self._nbc_monomials(j)
            if j > self._proved:
                self._prove_independent(basis, j)
                self._proved = j
            self._position.update((m, k) for k, m in enumerate(basis))
            self._pieces[j] = basis
        return self._pieces[j]

    def _nbc_monomials(self, j: int) -> list:
        """The degree-j monomials with nbc support, in `monomials_of_degree`
        order, generated directly: an exponent prefix is cut as soon as its
        support holds a broken circuit."""
        d, out = self.d, []

        def rec(prefix: tuple, support: tuple, remaining: int) -> None:
            i = len(prefix)
            if not remaining:
                out.append(prefix + (0,) * (d - i))
                return
            grown = support + (i,)
            nbc = self._rule(grown) is None
            if i == d - 1:
                if nbc:
                    out.append(prefix + (remaining,))
                return
            if nbc:
                for e in range(remaining, 0, -1):
                    rec(prefix + (e,), grown, remaining - e)
            rec(prefix + (0,), support, remaining)

        rec((), (), j)
        return out

    def _prove_independent(self, basis: list, j: int) -> None:
        """Raise GenericityError unless, at one of five seeded draws of
        K = len(basis) points P of F_p^3 off every line, the K x K matrix
        of the monomials at y_k = 1/a_k(P) has rank K mod p."""
        p, size = MODP_PRIMES[0], len(basis)
        forms = self.arrangement.forms
        expo = np.array(basis, dtype=np.int64)

        def full_rank(points) -> bool:
            values = [[sum(a * x for a, x in zip(f, pt)) % p for f in forms]
                      for pt in points]
            if any(0 in row for row in values):
                return False
            inv = np.array([[pow(v, -1, p) for v in row] for row in values],
                           dtype=np.int64)
            a = np.ones((size, size), dtype=np.int64)
            for k in range(self.d):
                powers = np.ones((size, j + 1), dtype=np.int64)
                for e in range(1, j + 1):
                    powers[:, e] = powers[:, e - 1] * inv[:, k] % p
                a = a * powers[:, expo[:, k]] % p
            return modp_rank(a, p) == size

        rng = seeded_rng("nbc-basis:%s:%d" % (self.arrangement.name or self.d,
                                              j))
        draw_generic(rng, lambda r: [[r.randrange(p) for _ in range(3)]
                                     for _ in range(size)], full_rank)

    def normal_form(self, terms: dict) -> tuple[dict, int]:
        """The image in C(A) of sum c * y^e over `terms` {e: c}, c an int or
        Fraction, all of one degree j, as (ints, den): an integer dict
        {position in graded_piece(j): v} over the positive denominator den,
        in lowest terms; that piece must be built."""
        return self._combine([(c.numerator, c.denominator, m)
                              for m, c in terms.items()])

    def _combine(self, parts) -> tuple[dict, int]:
        """The normal form of sum num/den * y^m over (num, den, m) in
        `parts`, as `normal_form` gives it."""
        nfs = [(num, den, self._monomial_nf(m)) for num, den, m in parts]
        den = lcm(*(e * d for _, e, (_, d) in nfs))
        out: dict = {}
        for num, e, (ints, d) in nfs:
            f = num * (den // (e * d))
            for pos, v in ints.items():
                out[pos] = out.get(pos, 0) + f * v
        out = {pos: v for pos, v in out.items() if v}
        g = gcd(den, *out.values())
        if g > 1:
            return {pos: v // g for pos, v in out.items()}, den // g
        return out, den

    def _monomial_nf(self, m: tuple) -> tuple[dict, int]:
        """The normal form of the monomial m, rewritten by the rule of a
        broken circuit in its support, computed once."""
        nf = self._nf.get(m)
        if nf is None:
            rule = self._rule(tuple(i for i, e in enumerate(m) if e))
            if rule is None:
                nf = {self._position[m]: 1}, 1
            else:
                top, steps, den = rule
                nf = self._combine([(c, den, _shift(m, i, top))
                                    for i, c in steps])
            self._nf[m] = nf
        return nf

    def multiplication_maps(self, q: int) -> list:
        """For each variable s, the map C(A)_q -> C(A)_{q+1} as a list of
        sparse columns (dict target-position -> Fraction), one column per
        basis monomial of degree q: the normal forms of y_s * m."""
        if q not in self._mult:
            self.graded_piece(q + 1)
            self._mult[q] = [[
                {pos: Fraction(v, den) for pos, v in ints.items()}
                for ints, den in (self._monomial_nf(m[:s] + (m[s] + 1,)
                                                    + m[s + 1:])
                                  for m in self.graded_piece(q))]
                for s in range(self.d)]
        return self._mult[q]


def _shift(m: tuple, i: int, k: int) -> tuple:
    """The exponent m with one unit moved from index i to index k."""
    e = list(m)
    e[i] -= 1
    e[k] += 1
    return tuple(e)


def substitution_quotient_dim(pres: OTPresentation, j: int) -> int:
    """dim C(A)_j, proved: the size of the nbc basis of `graded_piece`."""
    return len(pres.graded_piece(j))


# ---------------------------------------------------------------------------
# Terao Hilbert series


@dataclass(frozen=True)
class TeraoSeries:
    h_polynomial: tuple     # numerator over (1-t)^3
    coefficients: tuple     # Taylor coefficients through the requested degree


def terao_series(arr: Arrangement, upto: int) -> TeraoSeries:
    """Hilbert series of C(A), pi(A, t/(1-t)) by Terao's theorem, as
    h(t)/(1-t)^3 and its expansion.  With pi = (1, d, s, s - d + 1) and
    s = sum mu, h = sum c_k t^k (1-t)^(3-k) = 1 + (d-3) t + (s-2d+3) t^2;
    its t^3 coefficient -1 + d - s + (s - d + 1) is zero."""
    _, d, s, _ = poincare_polynomial(arr).coefficients
    hpoly = (1, d - 3, s - 2 * d + 3)
    coeffs = tuple(sum(hpoly[i] * comb(j - i + 2, 2)
                       for i in range(3) if j - i >= 0)
                   for j in range(upto + 1))
    return TeraoSeries(h_polynomial=hpoly, coefficients=coeffs)


# ---------------------------------------------------------------------------
# Membership by normal form


def membership(pres: OTPresentation, g: MPoly) -> bool:
    """Exact ideal membership: homogeneous g is in I iff its normal form in
    the proved nbc basis of its degree is zero."""
    if g.nvars != pres.d:
        raise ValueError("polynomial lives in the wrong ring")
    if not g.is_homogeneous():
        raise ValueError("membership test is per-degree; g must be homogeneous")
    if g.is_zero():
        return True
    pres.graded_piece(g.degree())
    return not pres.normal_form(g.terms)[0]


# ---------------------------------------------------------------------------
# Jacobian ideal and the gradient map


def defining_polynomial(arr: Arrangement) -> MPoly:
    total = MPoly.constant(3, 1)
    for f in arr.forms:
        total = total * MPoly.linear_form(f)
    return total


def jacobian_containment(arr: Arrangement) -> bool:
    """Whether each partial of the defining polynomial lies in the span of
    the l_i (the degree d-1 slice of the ideal they generate), checked on
    the product-rule witness d(alpha)/dx_t = sum_i a_i[t] l_i."""
    alpha = defining_polynomial(arr)
    ls = l_forms(arr)
    for t in range(3):
        witness = MPoly.zero(3)
        for form, l in zip(arr.forms, ls):
            witness = witness + l * form[t]
        if alpha.derivative(t) != witness:
            return False
    return True


def gradient_degree(arr: Arrangement) -> int:
    """Degree of the gradient map of the defining polynomial:
    (sum of the Mobius values of the rank-two flats) - d + 1."""
    return arr.sum_mu() - arr.d + 1
