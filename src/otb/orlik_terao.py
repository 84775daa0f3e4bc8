"""The Orlik-Terao algebra C(A) = Q[y_1..y_d]/I of a line arrangement, the
algebra of the reciprocals 1/a_k of its forms, in one presentation: the
circuit relations as rewriting rules into the monomials with
broken-circuit-free (nbc) support.

For a circuit i_0 < ... < i_k with coefficients c, the broken circuit is
the circuit minus its largest line; its monomial rewrites to
-sum_{t<k} (c_t/c_k) y^(C - {i_t}).  Each step moves one exponent to a
larger index, so rewriting terminates, and the nbc monomials of degree j
span C(A)_j.  `graded_piece` proves them a basis by Terao's count: their
number equals dim C(A)_j = [t^j] pi(A, t/(1-t)) (Terao, "Algebras
generated by reciprocals of linear forms", 2002), and a spanning set of
that size is a basis.  So each piece's size is the exact Hilbert function,
and normal forms, which carry the multiplication maps and decide ideal
membership, are unique.  A normal form is kept in integers: an integer
dict over one positive denominator, in lowest terms.

`ot-hilbert` proves the same dimensions without Terao's theorem, as an
independent check of it: `OTPresentation.prove_independent` evaluates the
nbc monomials at y_k = 1/a_k(P) over as many points P of F_p^3 as there are
monomials, and a matrix of full rank mod p proves them independent, which a
primitive integer dependency over Q would not allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm

import numpy as np

from .arrangement import Arrangement, poincare_polynomial
from .circuits import enumerate_circuits
from .exact import MODP_PRIMES, MPoly, draw_generic, modp_rank, seeded_rng


# ---------------------------------------------------------------------------
# Presentation


class OTPresentation:
    """Circuits as rewriting rules into the nbc basis, and the proved
    bases and normal forms per degree.  Building one does no work: the
    circuits and their rules are enumerated on first use, so a caller that
    needs only the arrangement and its Hilbert series (the Betti table
    where the quadric support is a proper part of A) enumerates none."""

    def __init__(self, arr: Arrangement):
        self.arrangement = arr
        self.d = arr.d
        self._rule_of_support: dict = {}
        self._nbc: dict[int, list] = {}      # degree -> its nbc monomials
        self._pieces: dict[int, list] = {}   # the same, counted by Terao
        self._independent = -1  # every degree <= it is proved independent
        self._position: dict = {}        # nbc monomial -> index in its piece
        self._nf: dict = {}              # monomial -> (integer dict, den)
        self._mult: dict[int, list] = {}

    @cached_property
    def circuits(self) -> list:
        return enumerate_circuits(self.arrangement)

    @cached_property
    def _rules(self) -> dict:
        """broken circuit -> (its largest line, [(i_t, -c_t sgn c_k)],
        |c_k|): the rule y^B -> sum_t (-c_t/c_k) y^(C - {i_t}) over t < k."""
        rules: dict = {}
        for c in self.circuits:
            top = c.coeffs[-1]
            sign = 1 if top > 0 else -1
            rules.setdefault(c.indices[:-1], (c.indices[-1], [
                (i, -sign * ct) for i, ct in zip(c.indices, c.coeffs[:-1])],
                abs(top)))
        return rules

    @cached_property
    def _sizes(self) -> list:
        return sorted({len(b) for b in self._rules})

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
        order, proved a basis of C(A)_j by Terao's count; ArithmeticError
        if their number is not [t^j] of `terao_series`.

        The circuit relations hold in C(A), so rewriting by them shows that
        the nbc monomials of degree j span C(A)_j, and Terao's theorem gives
        dim C(A)_j = [t^j] pi(A, t/(1-t)).  A spanning set of that size is a
        basis.  A missing circuit makes the count too large and a spurious
        one makes it too small, so the count catches both."""
        if j not in self._pieces:
            basis = self.nbc_monomials(j)
            expected = terao_series(self.arrangement, j).coefficients[j]
            if len(basis) != expected:
                raise ArithmeticError(
                    "%d nbc monomials of degree %d, but Terao's series "
                    "gives %d" % (len(basis), j, expected))
            self._position.update((m, k) for k, m in enumerate(basis))
            self._pieces[j] = basis
        return self._pieces[j]

    def nbc_monomials(self, j: int) -> list:
        """The degree-j monomials with nbc support, in `monomials_of_degree`
        order, generated directly and computed once: an exponent prefix is
        cut as soon as its support holds a broken circuit."""
        if j in self._nbc:
            return self._nbc[j]
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
        self._nbc[j] = out
        return out

    def prove_independent(self, j: int) -> None:
        """Prove the nbc monomials of every degree up to j independent
        without Terao's theorem, by one evaluation rank mod p in degree j,
        unless a degree >= j is proved already.  Raise GenericityError
        unless, at one of five seeded draws of K = len(basis) points P of
        F_p^3 off every line, the K x K matrix of the monomials at
        y_k = 1/a_k(P) has rank K mod p.

        One rank at degree N proves every degree below N.  No broken
        circuit contains the largest line d, since a broken circuit drops
        its circuit's largest line; so y_d times an nbc monomial of degree
        j-1 is an nbc monomial of degree j, and y_d maps the nbc monomials
        of degree j-1 injectively into those of degree j.  A relation among
        the former, times y_d, would be a relation among distinct nbc
        monomials of degree j.  So full rank in degree N proves them
        independent in every degree up to N, and a caller that knows its
        top degree asks for it first."""
        if j <= self._independent:
            return
        basis = self.nbc_monomials(j)
        p, size = MODP_PRIMES[0], len(basis)

        def full_rank(points) -> bool:
            a = _evaluation_matrix(self.arrangement.forms, basis, points, p)
            return a is not None and modp_rank(a, p) == size

        rng = seeded_rng("nbc-basis:%s:%d" % (self.arrangement.name or self.d,
                                              j))
        draw_generic(rng, lambda r: [[r.randrange(p) for _ in range(3)]
                                     for _ in range(size)], full_rank)
        self._independent = j

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


def _evaluation_matrix(forms: list, basis: list, points: list, p: int):
    """The monomials `basis` of degree j at y_k = 1/a_k(P) mod p, a row per
    point P, or None if some P is on a line mod p: the form values by one
    product in uint64 (three products of residues below 2**31 stay below
    2**64), the inverses by one vectorized Fermat power v^(p-2), and each
    monomial, as its j variables with repetition, by j gathers."""
    fm = np.array([[c % p for c in f] for f in forms], dtype=np.uint64)
    values = (np.array(points, dtype=np.uint64) @ fm.T % p).astype(np.int64)
    if not values.all():
        return None
    inv, power, e = np.ones_like(values), values, p - 2
    while e:
        if e & 1:
            inv = inv * power % p
        power = power * power % p
        e >>= 1
    j = sum(basis[0])
    factors = np.array([[k for k, x in enumerate(m) for _ in range(x)]
                        for m in basis], dtype=np.intp).reshape(len(basis), j)
    a = np.ones((len(points), len(basis)), dtype=np.int64)
    for r in range(j):
        a = a * inv[:, factors[:, r]] % p
    return a


def _shift(m: tuple, i: int, k: int) -> tuple:
    """The exponent m with one unit moved from index i to index k."""
    e = list(m)
    e[i] -= 1
    e[k] += 1
    return tuple(e)


def substitution_quotient_dim(pres: OTPresentation, j: int) -> int:
    """dim C(A)_j, proved without Terao's theorem: the number of nbc
    monomials of degree j, which span C(A)_j, proved independent by
    `OTPresentation.prove_independent`."""
    pres.prove_independent(j)
    return len(pres.nbc_monomials(j))


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
