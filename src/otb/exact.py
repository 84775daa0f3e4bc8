"""Exact rational arithmetic kernels: one exact elimination over Q, ranks
proved at mod-p cost, and multivariate polynomials.

`SparseReducer` is the only elimination over Q, on Fraction or int input,
and `rank`, `rref` and `kernel_basis` are read-outs of one reducer fed
a list of rows; a reduced row echelon form is unique, so they do not
depend on how it works.

`proved_rank` proves the rank of a large sparse integer matrix at about the
cost of a numpy elimination mod a prime below 2**31, by two equal bounds,
reading the matrix through the read-outs that a Koszul strand or
`SparseColumns` supplies.  The rank mod p is a lower bound.  The number of
rows is an upper bound, and so is the number of columns minus the dimension
of a space of exactly verified kernel vectors: cycles the caller knows and
proves, plus vectors lifted from the kernel mod p by CRT and Wang's
rational reconstruction, each checked with one exact product (the
certificate style of Dumas, Saunders and Villard in LinBox).  The one dense
kernel mod p is an in-place LU, as in Dumas, Giorgi and Pernet's
FFLAS-FFPACK: the kernel at the first prime is read off the matrix's own LU
by one triangular solve, and each further prime factors only the square
block of the lift.  If the bounds do not meet, `SparseReducer` computes the
rank.

`primitive_kernel` reads the primitive integer vectors of `kernel_basis` of
an integer matrix, such as the fat-point conditions of `divisors`, off the
same LU and lift.  The mod-p layer takes integers only: a residue is x % p,
and `modp_matrix` raises TypeError on any other entry.  Lifted vectors are
integer dicts from the start; rationals become integers over their common
denominator in one place, `_over_denominator`, for `SparseReducer` and
`primitive_vector`.

No public routine mutates its arguments; results are freshly allocated.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

# The sixteen largest primes below 2**31: a product of two reduced entries
# stays below 2**62, so elimination mod p fits in int64.  The first prime
# gives a rank's lower bound; the others add residues when kernel vectors
# are lifted to Q (the lifts on b3 plus one to four generic lines use up to
# eight).
MODP_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
               2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
               2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
               2147483249)

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


def _over_denominator(row: dict) -> tuple[dict, int]:
    """(ints, den) with ints an integer dict and the sparse row {column: int
    or Fraction} equal to ints / den; zero entries are dropped."""
    if set(map(type, row.values())) <= {int}:
        return {c: v for c, v in row.items() if v}, 1
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator)
            for c, v in row.items() if v}, den


def _primitive_tuple(ints: dict, n: int) -> tuple:
    """The sparse integer vector `ints` with `n` entries divided by the gcd
    of its entries, first nonzero entry positive.  Raises on the zero
    vector."""
    if not ints:
        raise ValueError("cannot normalize the zero vector")
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    out = [0] * n
    for c, v in ints.items():
        out[c] = v // g
    return tuple(out)


def primitive_vector(vec) -> tuple:
    """Scale a rational vector to a primitive integer vector, first nonzero
    entry positive.  Raises on the zero vector."""
    vec = tuple(vec)
    return _primitive_tuple(_over_denominator(dict(enumerate(vec)))[0],
                            len(vec))


# ---------------------------------------------------------------------------
# Exact elimination over Q


def _clear(x: dict, c: int, piv: dict) -> tuple[dict, int]:
    """The integer row x cleared at column c by the stored row `piv` with
    pivot c, as D x - x[c] piv over gcd(D, x[c]) with D = piv[c], and the
    factor that multiplied x.  Pops x[c]; the result may be x itself."""
    a, big = x.pop(c), piv[c]
    g = gcd(a, big)
    a, big = a // g, big // g
    if big != 1:
        x = {cc: big * v for cc, v in x.items()}
    for cc, v in piv.items():
        if cc != c:
            nv = x.get(cc, 0) - a * v
            if nv:
                x[cc] = nv
            else:
                del x[cc]
    return x, big


def _primitive_part(x: dict) -> tuple[dict, int]:
    """x divided by the gcd of its entries, and that gcd."""
    g = gcd(*x.values())
    return (x if g < 2 else {c: v // g for c, v in x.items()}), g


class SparseReducer:
    """Incremental exact reduced row echelon form over Q, kept in integers.

    Each pivot row is a primitive integer dict whose positive pivot entry D
    stands for 1: the row of the reduced row echelon form is the stored row
    over D, and no stored row holds another's pivot column.  A row is
    cleared at a pivot column fraction-free, as in Bareiss's elimination
    (`_clear`), and its gcd divided out.  Values become Fractions only in
    the read-outs: `reduce` (the residue of a row), `rref` and
    `kernel_basis`.  `add` reduces a row and absorbs a nonzero residue as a
    new pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _residue(self, row: dict) -> tuple[dict, int, int]:
        """(res, num, den) with res a primitive integer dict and the residue
        of `row` equal to res * num / den; res is empty for a zero residue."""
        res, den = _over_denominator(row)
        for c in sorted(res):
            piv = self.pivot_rows.get(c)
            if piv is not None:
                res, big = _clear(res, c, piv)
                den *= big
        res, num = _primitive_part(res)
        return res, num, den

    def reduce(self, row: dict) -> dict:
        res, num, den = self._residue(row)
        return {c: Fraction(v * num, den) for c, v in res.items()}

    def add(self, row: dict) -> bool:
        """Reduce and, if independent from the span so far, insert. Returns
        True when the rank grew."""
        res = self._residue(row)[0]
        if not res:
            return False
        lead = min(res)
        if res[lead] < 0:
            res = {c: -v for c, v in res.items()}
        # keep stored rows reduced against the new pivot
        for c, piv in self.pivot_rows.items():
            if lead in piv:
                piv = _clear(piv, lead, res)[0]
                self.pivot_rows[c] = _primitive_part(piv)[0]
        self.pivot_rows[lead] = res
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
    return ([[Fraction(red.pivot_rows[c].get(j, 0), red.pivot_rows[c][c])
              for j in range(red.ncols)] for c in pivots], pivots)


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
                v[c] = Fraction(-piv[f], piv[c])
        vecs.append(v)
    return vecs


# ---------------------------------------------------------------------------
# Modular elimination and proved ranks


def modp_matrix(rows, ncols: int, p: int) -> np.ndarray:
    """Reduce sparse integer rows {column: int} mod p into an int64 array
    with `ncols` columns, each entry x % p taken before int64 (strand
    entries reach 56 bits).  Any other entry raises TypeError: numpy would
    store Fraction(1, 2) as 0, and a rank mod p is a lower bound only for
    an integer matrix that reduces to it."""
    vals = [x for row in rows for x in row.values()]
    if not set(map(type, vals)) <= {int}:
        raise TypeError("the mod-p layer takes integer entries only")
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    a[[i for i, row in enumerate(rows) for _ in row],
      [c for row in rows for c in row]] = [x % p for x in vals]
    return a


def _clear_below(a: np.ndarray, r: int, c: int, p: int, order: list,
                 stop: int) -> bool:
    """One step of the in-place LU mod p: swap into row r (and in `order`)
    the first of rows r..stop-1 nonzero at column c, False if none; it stays
    as a row of U, and each row below keeps at c its multiplier l, an entry
    of L, and loses l times row r from c+1 on.  Products of two reduced
    entries stay below p**2 < 2**62, inside int64."""
    nz = np.nonzero(a[r:stop, c])[0]
    if nz.size == 0:
        return False
    i = r + int(nz[0])
    if i != r:
        a[[r, i]] = a[[i, r]]
        order[r], order[i] = order[i], order[r]
    below = a[r + 1:, c]
    nzb = np.nonzero(below)[0]
    if nzb.size:
        idx = r + 1 + nzb
        mult = below[nzb] * pow(int(a[r, c]), -1, p) % p
        a[idx, c] = mult
        a[idx, c + 1:] = (a[idx, c + 1:] - np.outer(mult, a[r, c + 1:])) % p
    return True


def _echelon_mod_p(a: np.ndarray, p: int) -> tuple[list, list]:
    """Row echelon mod p of `a`, entries in [0, p), as an LU in place; the
    row order (original index of each row) and the pivot columns.  Row k <
    r holds U from the k-th pivot column c_k on, row i holds L[i, k] at c_k
    for k < min(i, r), and all else is 0: a[order] = L U mod p, L[k, k] = 1."""
    order, pivot_cols = list(range(len(a))), []
    for c in range(a.shape[1]):
        if len(pivot_cols) == len(a):
            break
        if _clear_below(a, len(pivot_cols), c, p, order, len(a)):
            pivot_cols.append(c)
    return order, pivot_cols


def modp_rank(a: np.ndarray, p: int) -> int:
    """Rank mod p by row echelon on a copy; a proved lower bound for the
    rank over Q of any integer matrix that reduces to `a`."""
    return len(_echelon_mod_p(a % p, p)[1])


def _lu_kernel(a: np.ndarray, pivots: list, at, p: int) -> np.ndarray:
    """Y with Y L_B = -L_T mod p, by one triangular solve on the LU that
    `_echelon_mod_p` left in `a`: L_B is L on the pivot rows, L_T on the
    rows at the positions `at`.  A row of Y on the pivot rows, in order,
    and 1 at its own row is in the left kernel of the matrix mod p."""
    lb = a[:len(pivots)][:, pivots]
    yt = (-a[np.ix_(at, pivots)] % p).T.copy()
    for k in range(len(pivots) - 1, 0, -1):
        yt[:k] -= np.outer(lb[k, :k], yt[k])
        yt[:k] %= p
    return yt.T


def _square_kernel(s: np.ndarray, r: int, p: int) -> np.ndarray | None:
    """X with X s_B = -s_T mod p, s_B the first r rows of `s`, or None when
    s_B is singular mod p: the LU of `_echelon_mod_p` in place, pivoting
    inside s_B only, then `_lu_kernel`."""
    order = list(range(r))
    if not all(_clear_below(s, c, c, p, order, r) for c in range(r)):
        return None
    return _lu_kernel(s, list(range(r)), list(range(r, len(s))),
                      p)[:, np.argsort(order)]


def _rational(u: int, m: int) -> tuple[int, int] | None:
    """Wang's rational reconstruction: the (n, d) with |n|, d <= sqrt(m/2),
    gcd(n, d) = 1 and n = u d mod m, or None when there is none."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 == 0 or t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _reconstruct(residues: list, m: int) -> list | None:
    """Each vector rebuilt over Q from its image mod m, as (ints, den): a
    list of integers and their common denominator.  None if an entry has no
    reconstruction.  Each entry is scaled by the denominators found so far
    in its vector, so an entry that shares them reconstructs at once, as an
    integer."""
    out = []
    for vec in residues:
        den, parts = 1, []
        for u in vec:
            if not u:
                parts.append((0, 1))
                continue
            x = _rational(u * den, m)
            if x is None:
                return None
            den *= x[1]
            parts.append((x[0], den))       # the entry is x[0] / den
        out.append(([n * (den // d) for n, d in parts], den))
    return out


class SparseColumns:
    """An integer matrix given by its sparse columns {row: int} over
    `nrows` rows, with the read-outs that `proved_rank` takes."""

    def __init__(self, cols: list, nrows: int):
        self.cols = cols
        self.nrows = nrows

    def residues(self, p: int) -> np.ndarray:
        return modp_matrix(self.cols, self.nrows, p)

    def is_cycle(self, vec: dict) -> bool:
        """Exact check that sum_k vec[k] * column k is the zero vector."""
        acc: dict = {}
        for k, z in vec.items():
            for row, w in self.cols[k].items():
                acc[row] = acc.get(row, 0) + z * w
        return not any(acc.values())

    def columns(self) -> list:
        return self.cols


def _lift_cycles(matrix, basis: list, prows: list, targets: list, p: int,
                 first: np.ndarray) -> tuple[list, int] | None:
    """Lift one kernel vector of `matrix` to Q for each free column in
    `targets`, each checked by `matrix.is_cycle`.  Returns the vectors, as
    integer dicts over their common denominators, and the number of primes
    combined, or None.

    The columns `basis` are a basis mod p of the column space, and their
    square block at the rows `prows` is invertible mod p (one
    `_echelon_mod_p` of the matrix or of its transpose gives both).  The
    vector of a free column f is 1 at f, 0 at the other free columns, and
    on `basis` the solution of that block, `first` (off the caller's LU) at
    p and `_square_kernel` at the other primes (skipping a prime where the
    block is singular), lifted by CRT and rational reconstruction.
    """
    r = len(basis)
    block = np.ix_(basis + targets, prows)
    residues, m, used = None, 1, 0
    for q in (p,) + tuple(x for x in MODP_PRIMES if x != p):
        x = (first if q == p
             else _square_kernel(matrix.residues(q)[block], r, q))
        if x is None:
            continue
        x = x.tolist()
        if residues is None:
            residues = x
        else:
            step = pow(m, -1, q)
            residues = [[u + m * ((y - u) * step % q) for u, y in zip(ru, ry)]
                        for ru, ry in zip(residues, x)]
        m *= q
        used += 1
        lifts = _reconstruct(residues, m)
        if lifts is None:
            continue
        vecs = [{f: den, **{k: v for k, v in zip(basis, ints) if v}}
                for f, (ints, den) in zip(targets, lifts)]
        if all(matrix.is_cycle(vec) for vec in vecs):
            return vecs, used
    return None


def proved_rank(matrix, cycles=None) -> tuple[int, str]:
    """Rank over Q of `matrix`, proved by two equal bounds, and how it was
    proved.  `matrix` is a `SparseColumns` or a Koszul strand: it has
    integer entries, `nrows` and three read-outs, `residues(p)` (its
    columns mod p as the rows of an int64 array), `is_cycle(vec)` (an exact
    check that a vector is in its kernel) and `columns()` (its sparse exact
    columns, read only by the fallback).  The columns of `cycles`, a matrix
    with the same read-outs, or None if there are none, are known kernel
    vectors, such as the columns of the map into a strand.  The caller
    proves them cycles (a Koszul engine by one commutation check of its
    maps per degree, `scroll` by checking its two sections exactly), and
    they are taken as given; only the lifted cycles are checked here.

    At p, the first prime of MODP_PRIMES, the residues of the columns,
    taken as rows, are factored once, as an LU in place; the rank mod p of
    an integer matrix is the lower bound.  If it equals `nrows`, the row
    count bounds it from above and the rank is proved.  Otherwise the upper
    bound is the number of columns minus the dimension of a space of
    exactly verified kernel vectors: the given cycles and, where they fall
    short of the kernel mod p, cycles lifted by `_lift_cycles`.  A kernel
    vector mod p is determined by its free coordinates (the columns that
    are not pivot rows), so one echelon of the cycles restricted to those
    both measures them against the kernel mod p and names the free columns
    left to lift, whose kernel mod p the LU gives; the known and lifted
    cycles then span the kernel mod p, and the bounds meet.
    Returns (rank, how) with how

      "mod-p"     the rank mod p meets the row count, or the given cycles
                  close the gap by themselves;
      "lifted k"  k lifted cycles were needed as well;
      "exact"     lifting failed, and `SparseReducer` computed the rank,
                  fed the rows of the matrix.
    """
    nrows, p = matrix.nrows, MODP_PRIMES[0]
    a = matrix.residues(p)
    order, pivots = _echelon_mod_p(a, p)
    r = len(pivots)
    if r == nrows:
        return nrows, "mod-p"
    free = sorted(order[r:])
    covered = (set(_echelon_mod_p(cycles.residues(p)[:, free], p)[1])
               if cycles is not None else set())
    if len(covered) == len(free):
        return r, "mod-p"
    targets = [f for j, f in enumerate(free) if j not in covered]
    first = _lu_kernel(a, pivots, np.argsort(order)[targets], p)
    if _lift_cycles(matrix, order[:r], pivots, targets, p, first):
        return r, "lifted %d" % len(targets)
    # by rows: the same rank, and far less fill on a wide strand
    cols = matrix.columns()
    rows: list = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    red = SparseReducer(len(cols))
    for row in rows:
        red.add(row)
    return red.rank, "exact"


def primitive_kernel(rows) -> tuple[list, str]:
    """`[primitive_vector(v) for v in kernel_basis(rows)]` for a nonempty
    integer matrix, at mod-p cost, and how it was proved.

    One `_echelon_mod_p` of the rows at the first prime p, A[order] = L U,
    gives the pivot columns mod p (the greedy column basis mod p) and pivot
    rows whose square block at them is invertible mod p.  For each free
    column f, `_lift_cycles` lifts the kernel vector that is 1 at f and 0
    at the other free columns, at p solved off U (U_B x = -U_F) by
    `_lu_kernel`, and checks it exactly.  The lifts are accepted only if
    each vanishes on the pivot columns after f.  Then every free column is
    a combination over Q of earlier columns, so rank_Q <= rank_p; an
    integer matrix has rank_Q >= rank_p; so the pivot columns mod p are the
    pivot columns over Q, and the lifted vectors are exactly the reduced
    row echelon kernel of `kernel_basis`.  Returns (vectors, how) with how

      "mod-p"     there is no free column: the kernel is zero;
      "lifted k"  the vectors were lifted with k primes;
      "exact"     the lift or the support check failed, and `kernel_basis`
                  computed the vectors.
    """
    p, ncols = MODP_PRIMES[0], len(rows[0])
    matrix = SparseColumns([{i: row[c] for i, row in enumerate(rows)
                             if row[c]} for c in range(ncols)], len(rows))
    a = matrix.residues(p).T.copy()
    order, pcols = _echelon_mod_p(a, p)
    pivots, r = set(pcols), len(pcols)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return [], "mod-p"
    u = a[:r, pcols + free]     # U_B and U_F, rows scaled to a unit diagonal
    inv = [pow(int(x), -1, p) for x in u.diagonal()]
    u = u * np.array(inv, dtype=np.int64).reshape(r, 1) % p
    first = _lu_kernel(u.T, list(range(r)), list(range(r, ncols)), p)
    lifted = _lift_cycles(matrix, pcols, order[:r], free, p, first)
    if lifted is not None:
        vecs, used = lifted
        if all(max(vec) == f for f, vec in zip(free, vecs)):
            return ([_primitive_tuple(vec, ncols) for vec in vecs],
                    "lifted %d" % used)
    return [primitive_vector(v) for v in kernel_basis(rows)], "exact"


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
            num, den = c.numerator, c.denominator
            coeff = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
            body = "*".join(name if k == 1 else "%s^%d" % (name, k)
                            for name, k in zip(names, e) if k)
            if not body:
                parts.append((num < 0, coeff))
            elif coeff == "1":
                parts.append((num < 0, body))
            else:
                parts.append((num < 0, coeff + "*" + body))
        out = "".join((" - " if neg else " + ") + text for neg, text in parts)
        return ("-" if parts[0][0] else "") + out[3:]

    def __repr__(self):
        return "MPoly(%s)" % self.to_string()
