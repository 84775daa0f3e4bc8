"""Exact rational arithmetic kernels: one exact elimination over Q, a mod-p
rank, multivariate polynomials, and gcd of binary forms.

Scalars are `fractions.Fraction`.  `SparseReducer` is the only elimination
over Q: it keeps sparse rows (dicts) in reduced row echelon form, and
`rank`, `rref`, `kernel_basis` and `solve` are read-outs of one reducer fed
a list of rows.  A reduced row echelon form is unique, so these read-outs do
not depend on how the reducer orders its work.  A word-sized prime fast path
(numpy elimination mod p) serves large rank computations.  A rank mod p is
a proved lower bound for the rank over Q; agreement at two independent
primes is evidence, not proof, that it is the rank.

No routine mutates its arguments; results are freshly allocated.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import numpy as np

# Primes for the modular fast path.  All well below 2**15.5 so that a
# product of two reduced entries fits comfortably in int64.
MODP_PRIMES = (32003, 31013, 30011, 28351, 27449)

SEED_NAMESPACE = "otb-2009"


class GenericityError(RuntimeError):
    """A deterministic redraw loop exhausted its attempts."""


def seeded_rng(tag: str) -> random.Random:
    """Deterministic RNG keyed by a purpose tag (stable across runs)."""
    return random.Random(f"{SEED_NAMESPACE}:{tag}")


def draw_generic(rng: random.Random, make, is_good):
    """Draw candidates until `is_good` accepts one; at most five draws."""
    for _ in range(5):
        x = make(rng)
        if is_good(x):
            return x
    raise GenericityError("genericity precondition failed after 5 draws")


# ---------------------------------------------------------------------------
# Integer vector normalization


def primitive_vector(vec) -> tuple:
    """Scale a rational vector to a primitive integer vector, first nonzero
    entry positive.  Raises on the zero vector."""
    fracs = [Fraction(v) for v in vec]
    if all(f == 0 for f in fracs):
        raise ValueError("cannot normalize the zero vector")
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


# ---------------------------------------------------------------------------
# Exact elimination over Q


class SparseReducer:
    """Incremental exact row echelon over Q with sparse rows (dicts).

    Maintains fully reduced pivot rows (pivot entry 1, pivot columns absent
    from every other stored row).  `add` reduces a row and absorbs a nonzero
    residue as a new pivot; `reduce` just computes the residue.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        row = {c: Fraction(v) for c, v in row.items() if v}
        for c in sorted(row):
            if c not in row:
                continue
            piv = self.pivot_rows.get(c)
            if piv is None:
                continue
            f = row.pop(c)
            for cc, vv in piv.items():
                if cc == c:
                    continue
                nv = row.get(cc, Fraction(0)) - f * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
        return row

    def add(self, row: dict) -> bool:
        """Reduce and, if independent from the span so far, insert. Returns
        True when the rank grew."""
        res = self.reduce(row)
        if not res:
            return False
        lead = min(res)
        inv = 1 / res[lead]
        newrow = {c: v * inv for c, v in res.items()}
        # keep stored rows reduced against the new pivot
        for piv in self.pivot_rows.values():
            f = piv.get(lead)
            if f:
                piv.pop(lead)
                for cc, vv in newrow.items():
                    if cc == lead:
                        continue
                    nv = piv.get(cc, Fraction(0)) - f * vv
                    if nv:
                        piv[cc] = nv
                    else:
                        piv.pop(cc, None)
        self.pivot_rows[lead] = newrow
        return True

    def nonpivot_columns(self) -> list[int]:
        pivs = self.pivot_rows
        return [c for c in range(self.ncols) if c not in pivs]


def _reduced(rows) -> SparseReducer:
    """A SparseReducer holding the reduced row echelon form of `rows`."""
    red = SparseReducer(len(rows[0]) if rows else 0)
    for row in rows:
        red.add({c: v for c, v in enumerate(row) if v})
    return red


def rank(rows) -> int:
    """Exact rank over Q of a list of rows."""
    return _reduced(rows).rank


def rref(rows):
    """Reduced row echelon form over Q.

    Returns (rref_rows, pivot_columns); zero rows are dropped.
    """
    red = _reduced(rows)
    pivots = sorted(red.pivot_rows)
    zero = Fraction(0)
    return ([[red.pivot_rows[c].get(j, zero) for j in range(red.ncols)]
             for c in pivots], pivots)


def kernel_basis(rows) -> list:
    """Basis of the right kernel: one vector per non-pivot column f, with
    entry 1 at f and zero at the other non-pivot columns.

    rank + (number of returned vectors) == number of columns.
    """
    red = _reduced(rows)
    vecs = []
    for f in red.nonpivot_columns():
        v = [Fraction(0)] * red.ncols
        v[f] = Fraction(1)
        for c, piv in red.pivot_rows.items():
            if f in piv:
                v[c] = -piv[f]
        vecs.append(v)
    return vecs


def solve(rows, b) -> list | None:
    """One solution of M x = b over Q, or None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    red = _reduced([list(row) + [v] for row, v in zip(rows, b)])
    if ncols in red.pivot_rows:
        return None
    x = [Fraction(0)] * ncols
    for c, piv in red.pivot_rows.items():
        x[c] = piv.get(ncols, Fraction(0))
    return x


# ---------------------------------------------------------------------------
# Modular fast path (numpy elimination mod a word-sized prime)


class BadPrime(ArithmeticError):
    """The chosen prime divides a denominator of the input matrix."""


def modp_matrix(rows, ncols: int, p: int) -> np.ndarray:
    """Reduce sparse rows {column: Fraction or int} mod p into an int64
    array with `ncols` columns."""
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, x in row.items():
            if isinstance(x, Fraction):
                den = x.denominator % p
                if den == 0:
                    raise BadPrime(p)
                a[i, c] = (x.numerator % p) * pow(den, p - 2, p) % p
            else:
                a[i, c] = x % p
    return a


def modp_rank(a: np.ndarray, p: int) -> int:
    """Rank mod p by row echelon on a copy; a proved lower bound for the
    rank over Q of any rational matrix that reduces to `a`."""
    a = a % p
    nr, nc = a.shape
    r = 0
    for c in range(nc):
        if r == nr:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        below = a[r + 1:, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            idx = r + 1 + nzb
            a[idx, c:] = (a[idx, c:] - np.outer(below[nzb], a[r, c:])) % p
        r += 1
    return r


def two_prime_rank(rank_at, what: str) -> int:
    """The rank `rank_at(p)` reports at the first two primes of MODP_PRIMES
    that do not raise BadPrime.  Each value is a proved lower bound for the
    rank over Q; their agreement is evidence, not proof, of equality."""
    got = []
    for p in MODP_PRIMES:
        try:
            got.append(rank_at(p))
        except BadPrime:
            continue
        if len(got) == 2:
            break
    if len(got) < 2:
        raise RuntimeError("ran out of primes for the %s" % what)
    if got[0] != got[1]:
        raise ArithmeticError("%s differs between primes" % what)
    return got[0]


# ---------------------------------------------------------------------------
# Multivariate polynomials (sparse, exact)


def monomials_of_degree(nvars: int, degree: int) -> list[tuple]:
    """All exponent vectors of total degree `degree`, graded-lex descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if nvars == 0:
        return [()] if degree == 0 else []
    rec((), degree, nvars)
    return out


def _grlex_key(expo: tuple) -> tuple:
    return (sum(expo), expo)


class MPoly:
    """Sparse multivariate polynomial over Q.

    terms maps exponent tuples (length nvars) to nonzero Fractions; graded
    lexicographic order is the canonical term order for printing/equality.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def linear_form(cls, coeffs) -> "MPoly":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return cls(n, terms)

    @classmethod
    def monomial(cls, nvars: int, expo, c=1) -> "MPoly":
        return cls(nvars, {tuple(expo): Fraction(c)})

    # -- ring operations

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, Fraction(0)) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        p = MPoly(self.nvars)
        p.terms = out
        return p

    def __neg__(self) -> "MPoly":
        p = MPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            c = Fraction(other)
            if not c:
                return MPoly(self.nvars)
            p = MPoly(self.nvars)
            p.terms = {e: v * c for e, v in self.terms.items()}
            return p
        out: dict = {}
        n = self.nvars
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e)
                v = c1 * c2 if v is None else v + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        p = MPoly(n)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def derivative(self, i: int) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        p = MPoly(self.nvars)
        p.terms = out
        return p

    def compose(self, polys: list) -> "MPoly":
        """Substitute variable i -> polys[i] (all in a common ring)."""
        if len(polys) != self.nvars:
            raise ValueError("need one substitute per variable")
        nvars = polys[0].nvars
        # cache powers per variable
        maxdeg = [0] * self.nvars
        for e in self.terms:
            for i, k in enumerate(e):
                maxdeg[i] = max(maxdeg[i], k)
        powers = []
        for i, q in enumerate(polys):
            cache = [MPoly.constant(nvars, 1)]
            for _ in range(maxdeg[i]):
                cache.append(cache[-1] * q)
            powers.append(cache)
        total = MPoly(nvars)
        for e, c in self.terms.items():
            term = MPoly.constant(nvars, c)
            for i, k in enumerate(e):
                if k:
                    term = term * powers[i][k]
            total = total + term
        return total

    def to_string(self) -> str:
        """Terms in descending graded-lex order, in x, y, z for up to three
        variables and y1, y2, ... otherwise."""
        if not self.terms:
            return "0"
        if self.nvars <= 3:
            names = ["x", "y", "z"][:self.nvars]
        else:
            names = ["y%d" % (i + 1) for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            body = "*".join(factors)
            if not body:
                parts.append((c, str(abs(c))))
                continue
            if abs(c) == 1:
                parts.append((c, body))
            else:
                parts.append((c, "%s*%s" % (abs(c), body)))
        pieces = []
        for i, (c, text) in enumerate(parts):
            if i == 0:
                pieces.append(("-" if c < 0 else "") + text)
            else:
                pieces.append((" - " if c < 0 else " + ") + text)
        return "".join(pieces)

    def __repr__(self):
        return "MPoly(%s)" % self.to_string()


def mpoly_det(rows: list) -> MPoly:
    """Determinant of a square MPoly matrix by Laplace expansion along the
    sparsest column; fine for the small structured matrices used here."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = rows[0][0].nvars
    if n == 1:
        return rows[0][0]

    def det(rs, cols):
        k = len(cols)
        if k == 1:
            return rs[0][cols[0]]
        # pick the column with the fewest nonzero entries
        best, best_nz = None, None
        for ci, c in enumerate(cols):
            nz = [ri for ri in range(k) if not rs[ri][c].is_zero()]
            if best_nz is None or len(nz) < len(best_nz):
                best, best_nz = ci, nz
                if len(nz) <= 1:
                    break
        if not best_nz:
            return MPoly.zero(nvars)
        c = cols[best]
        rest = cols[:best] + cols[best + 1:]
        total = MPoly.zero(nvars)
        for ri in best_nz:
            sub = rs[:ri] + rs[ri + 1:]
            minor = det(sub, rest)
            term = rs[ri][c] * minor
            if (ri + best) % 2 == 1:
                term = -term
            total = total + term
        return total

    return det(rows, list(range(n)))


# ---------------------------------------------------------------------------
# Binary forms in (lambda, mu) and their gcd


class BinaryForm:
    """Homogeneous form of degree b in two variables; coefficient k is the
    coefficient of lambda^(b-k) mu^k."""

    def __init__(self, coeffs):
        self.coeffs = [Fraction(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("binary form needs at least one coefficient")
        self.degree = len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, BinaryForm) and self.coeffs == other.coeffs

    def __repr__(self):
        return "BinaryForm(%s)" % (self.coeffs,)


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a: list, b: list):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _poly_trim(a):
        f = a[-1] / lb
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] -= f * bc
        _poly_trim(a)
        if not a:
            break
    return a


def _poly_gcd(a: list, b: list) -> list:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_trim(_poly_divmod(a, b))
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def binary_gcd(forms: list) -> BinaryForm:
    """Monic gcd of binary forms, tracking the common mu-power (the shared
    root at infinity that dehomogenization would drop)."""
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        raise ValueError("zero pencil")
    g: list = []
    mu_order = None
    for f in nonzero:
        # univariate in u = lambda: coefficient of u^(b-k) is coeffs[k]
        b = f.degree
        uni = [Fraction(0)] * (b + 1)
        for k, c in enumerate(f.coeffs):
            uni[b - k] = c
        _poly_trim(uni)
        ordmu = b - (len(uni) - 1)
        mu_order = ordmu if mu_order is None else min(mu_order, ordmu)
        g = uni if not g else _poly_gcd(g, uni)
    deg_u = len(g) - 1
    total = deg_u + mu_order
    coeffs = [Fraction(0)] * (total + 1)
    for j, c in enumerate(g):
        # term c * u^j -> c * lambda^j mu^(deg_u - j), times mu^mu_order
        coeffs[total - j] = c
    lead = next(c for c in coeffs if c)
    return BinaryForm([c / lead for c in coeffs])
