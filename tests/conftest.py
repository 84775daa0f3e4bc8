import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, perm, prod
from pathlib import Path

import numpy as np
import pytest

from otb.analysis import Analysis
from otb.arrangement import Arrangement, ArrangementError, builtin, cross
from otb.circuits import Circuit, circuit_relation
from otb.divisors import vanishing_condition_rows
from otb.exact import (MPoly, SparseReducer, kernel_basis, modp_rank,
                       monomials_of_degree, primitive_vector, rank)
from otb.koszul import ReducedEngine, _Engine, quadric_support
from otb.orlik_terao import l_forms

BUILTINS = ("braid-a3", "ex-2-4", "9_3_1", "9_3_2", "b3")


def _random_forms(d: int, seed: int) -> list:
    """The coordinate triangle plus lines with entries in [-2, 2]: small
    coefficients, so the draws also meet in triple and quadruple points."""
    rng = random.Random("oracle:%d:%d" % (d, seed))
    forms = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    while len(forms) < d:
        cand = tuple(rng.randint(-2, 2) for _ in range(3))
        try:
            Arrangement(forms + [cand])
        except ArrangementError:
            continue
        forms.append(cand)
    return forms


# small inputs beyond the builtins, where every reference is cheap
ORACLE_FORMS = {
    "triangle": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "four-generic": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    # braid-a3 plus one generic line, d = 7
    "braid-a3+1": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1),
                   (0, 1, -1), (2, 2, 1)],
    **{"random-%d-%d" % (d, seed): _random_forms(d, seed)
       for d in (5, 6) for seed in (1, 2, 3)},
}


# the seed-0 inputs of the benchmark: b3 plus one or two generic lines, and
# braid-a3 plus one line at three draws
BENCH_FORMS = {name: [tuple(f) for f in forms]
               for workload in json.loads((Path(__file__).resolve().parent.parent
                                           / "bench" / "inputs_seed0.json")
                                          .read_text()).values()
               for name, forms in workload.items()}


@lru_cache(maxsize=None)
def analysis(name):
    """The shared Analysis of a builtin arrangement or of an ORACLE_FORMS or
    BENCH_FORMS input."""
    forms = ORACLE_FORMS.get(name) or BENCH_FORMS.get(name)
    if forms:
        return Analysis(Arrangement(forms, name=name))
    return Analysis(builtin(name))


class FullEngine(_Engine):
    """The Koszul complex on all d variables tensored with C(A), literally:
    the reference that the tests check `ReducedEngine` against.  At d = 9
    its strands exceed 10000 x 4500, so the program never runs it.  Its
    maps are `multiplication_maps(q)` times the lcm of that degree's
    denominators, as `ReducedEngine` keeps its own: one positive integer
    per strand, which changes no rank, kernel or cycle."""

    def __init__(self, pres):
        super().__init__(pres, pres.d)
        self._maps = {}

    def dim(self, q: int) -> int:
        # the proved nbc basis, in which the maps are written
        return len(self.pres.graded_piece(q)) if q >= 0 else 0

    def maps(self, q: int):
        if q not in self._maps:
            maps = self.pres.multiplication_maps(q)
            den = lcm(*(v.denominator for cols in maps for col in cols
                        for v in col.values()))
            self._maps[q] = [[{c: v.numerator * (den // v.denominator)
                               for c, v in col.items()} for col in cols]
                             for cols in maps]
        return self._maps[q]

    def _past_linear_strand(self, i: int, q: int) -> bool:
        return False


class OwnRow1Engine(ReducedEngine):
    """A's own Artinian reduction, by a theta of A, with every B_i of A
    ranked by `proved_rank`: the computation that reading row 1 off the
    quadric support and row 2 off Cohen-Macaulayness replaces, kept as its
    reference, and the engine whose theta, maps and strands the tests read
    where the program builds none of them."""

    def _by_theorem(self) -> bool:
        return False

    def _quadric_row1(self, i: int):
        return None


def by_theorem(arr) -> bool:
    """Whether the program reads the Betti table of `arr` off the theorem,
    with no reduction of its own: the quadric support is neither empty nor
    all of the arrangement."""
    return 0 < len(quadric_support(arr)) < arr.d


@lru_cache(maxsize=None)
def own_reduction(name):
    """A's own Artinian reduction of a builtin or test input: the shared
    engine where the program draws a theta of A, and `OwnRow1Engine`
    where it reads the table off the theorem."""
    an = analysis(name)
    if by_theorem(an.arrangement):
        return OwnRow1Engine(an.pres)
    return an.engine


@lru_cache(maxsize=None)
def oracle(name):
    """The full Koszul engine of a builtin: the reference for the Artinian
    reduction that every command runs."""
    return FullEngine(analysis(name).pres)


def compose(f, polys):
    """f with variable i replaced by polys[i] (all in one ring)."""
    if len(polys) != f.nvars:
        raise ValueError("need one substitute per variable")
    nvars = polys[0].nvars
    # cache powers per variable
    maxdeg = [max((e[i] for e in f.terms), default=0) for i in range(f.nvars)]
    powers = []
    for i, q in enumerate(polys):
        cache = [MPoly.constant(nvars, 1)]
        for _ in range(maxdeg[i]):
            cache.append(cache[-1] * q)
        powers.append(cache)
    total = MPoly(nvars)
    for e, c in f.terms.items():
        term = MPoly.constant(nvars, c)
        for i, k in enumerate(e):
            if k:
                term = term * powers[i][k]
        total = total + term
    return total


def substitution_membership(pres, g):
    """The membership oracle that does not use the circuits: homogeneous g
    lies in I iff g(l_1, ..., l_d) expands to zero, since C(A) is the image
    of y_k -> l_k = (a_1 * ... * a_d) / a_k."""
    return compose(g, l_forms(pres.arrangement)).is_zero()


def nbc_by_filter(pres, j) -> list:
    """The degree-j monomials with nbc support, found by filtering all
    C(d+j-1, j) monomials of degree j: the reference for their direct
    generation in `OTPresentation.graded_piece`."""
    return [m for m in monomials_of_degree(pres.d, j)
            if pres._rule(tuple(i for i, e in enumerate(m) if e)) is None]


def fraction_normal_form(pres, terms) -> dict:
    """The image of sum c * y^e over `terms` {e: c}, all of one degree, as
    {position in its nbc basis: Fraction}, by rewriting in Fractions with
    the rule y^B -> -sum_t (c_t/c_k) y^(C - {i_t}) of any broken circuit B
    in the support: the reference for the integer normal forms of
    `OTPresentation`, which pick one rule per support.  A step moves one
    exponent to a larger index, so the monomial it rewrites is the largest
    still to do, and each is rewritten once."""
    rules = {}
    for c in pres.circuits:
        top = Fraction(c.coeffs[-1])
        rules.setdefault(c.indices[:-1], (c.indices[-1], [
            (i, -ct / top) for i, ct in zip(c.indices, c.coeffs[:-1])]))
    work = {m: Fraction(c) for m, c in terms.items() if c}
    if not work:
        return {}
    position = {m: k for k, m in enumerate(
        pres.graded_piece(sum(next(iter(work)))))}
    out = {}
    while work:
        m = max(work)
        c = work.pop(m)
        support = {i for i, e in enumerate(m) if e}
        rule = next((r for b, r in rules.items() if support.issuperset(b)),
                    None)
        if rule is None:
            out[position[m]] = out.get(position[m], 0) + c
            continue
        top, steps = rule
        for i, ci in steps:
            e = list(m)
            e[i] -= 1
            e[top] += 1
            e = tuple(e)
            work[e] = work.get(e, 0) + c * ci
            if not work[e]:
                del work[e]
    return {pos: v for pos, v in out.items() if v}


def primitive_vector_by_fractions(vec) -> tuple:
    """`exact.primitive_vector` in Fraction arithmetic, with a gcd loop: the
    reference for the sparse integer rule that `exact` now uses."""
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


class FractionReducer:
    """Incremental exact row echelon over Q on rows of Fractions: the
    reference for `SparseReducer`, which keeps its rows in integers.

    Maintains fully reduced pivot rows (pivot entry 1, pivot columns absent
    from every other stored row).  `add` reduces a row and absorbs a nonzero
    residue as a new pivot; `reduce` just computes the residue.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict = {}

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
        res = self.reduce(row)
        if not res:
            return False
        lead = min(res)
        inv = 1 / res[lead]
        newrow = {c: v * inv for c, v in res.items()}
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

    def nonpivot_columns(self) -> list:
        return [c for c in range(self.ncols) if c not in self.pivot_rows]


def fraction_reduced(rows) -> FractionReducer:
    red = FractionReducer(len(rows[0]) if rows else 0)
    for row in rows:
        red.add({c: v for c, v in enumerate(row) if v})
    return red


def fraction_rref(rows):
    """`exact.rref` read off the Fraction reference."""
    red = fraction_reduced(rows)
    pivots = sorted(red.pivot_rows)
    return ([[red.pivot_rows[c].get(j, Fraction(0)) for j in range(red.ncols)]
             for c in pivots], pivots)


def fraction_kernel(rows) -> list:
    """`exact.kernel_basis` read off the Fraction reference."""
    red = fraction_reduced(rows)
    vecs = []
    for f in red.nonpivot_columns():
        v = [Fraction(0)] * red.ncols
        v[f] = Fraction(1)
        for c, piv in red.pivot_rows.items():
            if f in piv:
                v[c] = -piv[f]
        vecs.append(v)
    return vecs


def solve(rows, b):
    """One solution of M x = b over Q, or None if inconsistent: a read-out
    of `SparseReducer` fed the rows of [M | b]."""
    ncols = len(rows[0]) if rows else 0
    red = SparseReducer(ncols + 1)
    for row, v in zip(rows, b):
        red.add({c: x for c, x in enumerate(list(row) + [v]) if x})
    if ncols in red.pivot_rows:
        return None
    x = [Fraction(0)] * ncols
    for c, piv in red.pivot_rows.items():
        x[c] = Fraction(piv.get(ncols, 0), piv[c])
    return x


def fraction_solve(rows, b):
    """`solve` read off the Fraction reference."""
    ncols = len(rows[0]) if rows else 0
    red = fraction_reduced([list(row) + [v] for row, v in zip(rows, b)])
    if ncols in red.pivot_rows:
        return None
    x = [Fraction(0)] * ncols
    for c, piv in red.pivot_rows.items():
        x[c] = piv.get(ncols, Fraction(0))
    return x


class AmbientPiece:
    """Degree-j slice of I as an exact echelon over all monomials of R_j,
    fed R_1 * I_{j-1} and the circuit relations of degree j.  The circuits
    generate I, so the monomials off its pivots are a basis of C(A)_j: the
    reference for the nbc basis and its normal forms."""

    def __init__(self, monomials, reducer):
        self.monomials = monomials
        self.index = {m: k for k, m in enumerate(monomials)}
        self.reducer = reducer
        self.ideal_dim = reducer.rank
        cols = reducer.nonpivot_columns()
        self.quotient_basis = [monomials[c] for c in cols]
        self._position = {c: k for k, c in enumerate(cols)}

    def reduce_monomial(self, m) -> dict:
        """The image of the monomial m in C(A)_j, over quotient positions."""
        res = self.reducer.reduce({self.index[m]: 1})
        return {self._position[c]: v for c, v in res.items()}

    def times_variables(self, index):
        """Each echelon row times each variable, as a sparse row over the
        degree-(j+1) monomial `index`; together they span R_1 I_j."""
        for row in self.reducer.pivot_rows.values():
            for s in range(len(self.monomials[0])):
                shifted = {}
                for c, v in row.items():
                    m = list(self.monomials[c])
                    m[s] += 1
                    shifted[index[tuple(m)]] = v
                yield shifted


_AMBIENT: dict = {}


def ambient_piece(arr, j) -> AmbientPiece:
    """The exact echelon of I_j of the arrangement, built degree by degree."""
    key = (tuple(map(tuple, arr.forms)), j)
    if key not in _AMBIENT:
        monos = monomials_of_degree(arr.d, j)
        red = SparseReducer(len(monos))
        if j >= 2:
            index = {m: k for k, m in enumerate(monos)}
            for row in ambient_piece(arr, j - 1).times_variables(index):
                red.add(row)
            for c in circuits_by_kernels(arr, None):
                if c.size - 1 == j:
                    red.add({index[e]: v for e, v
                             in circuit_relation(c).terms.items()})
        _AMBIENT[key] = AmbientPiece(monos, red)
    return _AMBIENT[key]


def cubic_generators(arr) -> int:
    """The number of minimal cubic generators of I, dim I_3 - dim R_1 I_2,
    by the ambient echelons."""
    piece3 = ambient_piece(arr, 3)
    red = SparseReducer(len(piece3.monomials))
    for row in ambient_piece(arr, 2).times_variables(piece3.index):
        red.add(row)
    return piece3.ideal_dim - red.rank


def hilbert_burch_psi(arr):
    """The d x (d-1) bidiagonal matrix with entry (i, i) = a_i and
    (i+1, i) = -a_{i+1}."""
    lins = [MPoly.linear_form(f) for f in arr.forms]
    psi = [[MPoly.zero(3)] * (arr.d - 1) for _ in range(arr.d)]
    for j in range(arr.d - 1):
        psi[j][j], psi[j + 1][j] = lins[j], -lins[j + 1]
    return psi


def defining_polynomial(arr) -> MPoly:
    """alpha, the product of the forms."""
    total = MPoly.constant(3, 1)
    for f in arr.forms:
        total = total * MPoly.linear_form(f)
    return total


def derivative(f: MPoly, i: int) -> MPoly:
    """The partial derivative of f in its variable i."""
    out = MPoly(f.nvars)
    for e, c in f.terms.items():
        if e[i]:
            out.terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def jacobian_containment(arr) -> bool:
    """Whether each partial of alpha equals the product-rule witness
    sum_i a_i[t] l_i in the span of the l_i, computed: the reference for
    the proved `jacobian-check`."""
    alpha, ls = defining_polynomial(arr), l_forms(arr)
    for t in range(3):
        witness = MPoly.zero(3)
        for form, l in zip(arr.forms, ls):
            witness = witness + l * form[t]
        if derivative(alpha, t) != witness:
            return False
    return True


def gradient_degree(arr) -> int:
    """The degree of the gradient map of alpha, sum mu - d + 1
    (Dimca-Papadima): the reference for `gradient-degree`."""
    return arr.sum_mu() - arr.d + 1


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


def mpoly_string_by_fractions(f: MPoly) -> str:
    """`MPoly.to_string` as it read on Fractions: abs(c) and str(abs(c))."""
    if not f.terms:
        return "0"
    if f.nvars <= 3:
        names = ["x", "y", "z"][:f.nvars]
    else:
        names = ["y%d" % (i + 1) for i in range(f.nvars)]
    parts = []
    for e in sorted(f.terms, key=lambda e: (sum(e), e), reverse=True):
        c = f.terms[e]
        body = "*".join(name if k == 1 else "%s^%d" % (name, k)
                        for name, k in zip(names, e) if k)
        if not body:
            parts.append((c, str(abs(c))))
        elif abs(c) == 1:
            parts.append((c, body))
        else:
            parts.append((c, "%s*%s" % (abs(c), body)))
    out = "".join((" - " if c < 0 else " + ") + text for c, text in parts)
    return ("-" if parts[0][0] < 0 else "") + out[3:]


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


def is_one_generic(entries) -> bool:
    """Whether a 2 x b matrix of linear forms in y_1..y_d is 1-generic,
    decided by brute force: the reference for the lemma that makes every
    `multiplication_matrix` 1-generic.  For every point (lambda : mu) of
    P^1 the b combined entries must stay independent, so the b x b minors
    of their coefficient matrix, binary forms of degree b, must have a
    nonzero constant gcd."""
    b, d = len(entries[0]), entries[0][0].nvars
    if b > d:
        return False
    unit = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    # row j, column k: the y_k coefficient of lambda G_0j + mu G_1j
    pencil = [[MPoly(2, {(1, 0): entries[0][j].terms.get(e, 0),
                         (0, 1): entries[1][j].terms.get(e, 0)})
               for e in unit] for j in range(b)]
    minors = []
    for cols in combinations(range(d), b):
        det = mpoly_det([[row[c] for c in cols] for row in pencil])
        if not det.is_zero():
            coeffs = [Fraction(0)] * (b + 1)
            for (_, k), c in det.terms.items():
                coeffs[k] = c
            minors.append(BinaryForm(coeffs))
    return bool(minors) and binary_gcd(minors).degree == 0


def substitution_rank(arr, j):
    """Rank mod p = 32003 of the images of the degree-j monomials under y_k -> l_k,
    where y^e goes to prod_i a_i^(j - e_i): a lower bound for dim C(A)_j
    that does not use the circuits.  An image is an array whose (a, b)
    entry is its coefficient of x^a y^b z^(deg - a - b)."""
    p = 32003
    rows = []
    for e in monomials_of_degree(arr.d, j):
        img = np.ones((1, 1), dtype=np.int64)
        for form, k in zip(arr.forms, e):
            for _ in range(j - k):
                n = len(img) + 1
                out = np.zeros((n, n), dtype=np.int64)
                out[1:, :-1] += form[0] % p * img
                out[:-1, 1:] += form[1] % p * img
                out[:-1, :-1] += form[2] % p * img
                img = out % p
        rows.append(img.ravel())
    return modp_rank(np.array(rows), p)


def os2_relations(arr):
    """The pair index of wedge^2 Q^d and the echelon of the relations
    d(e_i e_j e_k) over the concurrent triples; A^2 is their quotient."""
    index = {t: k for k, t in enumerate(combinations(range(arr.d), 2))}
    relations = SparseReducer(len(index))
    for f in arr.flats:
        for (i, j, k) in combinations(f.lines, 3):
            relations.add({index[(j, k)]: 1, index[(i, k)]: -1,
                           index[(i, j)]: 1})
    return index, relations


def h1_by_quotient(arr, a) -> int:
    """dim H^1(A, a) for a nonzero sum-zero a, with A^2 the quotient of
    wedge^2 Q^d by the relations of `os2_relations`: the reference for the
    nbc basis of `OS2`."""
    index, relations = os2_relations(arr)
    images = SparseReducer(len(index))
    for j in range(arr.d):
        wedge = {index[(min(i, j), max(i, j))]: a[i] if i < j else -a[i]
                 for i in range(arr.d) if i != j}
        images.add(relations.reduce(wedge))
    return arr.d - images.rank - 1


def incidence_by_scan(arr) -> list:
    """(point, lines) for every rank-two flat, each point found as the
    meet of a pair of lines and its lines by testing every form on it: the
    reference for `compute_flats`, which reads the lines off the pairs."""
    points = {primitive_vector(cross(a, b))
              for a, b in combinations(arr.forms, 2)}
    return [(p, tuple(i for i, f in enumerate(arr.forms)
                      if sum(c * x for c, x in zip(f, p)) == 0))
            for p in sorted(points)]


def nested_components(comps) -> list:
    """The components whose span lies strictly inside the span of another,
    by exact ranks: the containment filter that `resonance_components`
    omits, since distinct components meet only in 0."""
    def rows(c):
        return [list(map(Fraction, v)) for v in c.vectors]

    return [c for c in comps
            if any(rank(rows(o)) > rank(rows(c))
                   and rank(rows(o) + rows(c)) == rank(rows(o))
                   for o in comps if o is not c)]


def count_identities(arr, cert) -> list:
    """The weighted count identities of a multinet that fail on `cert`:
    total weight k m, sum of n_p^2 = m^2, and for every line the sum of
    n_p over the base locus points on it = m.  `verify_multinet` proves
    them from its conditions (1) and (3); this checks them by counting."""
    k, m, n_p = cert.k, cert.m, cert.n_p
    failed = []
    if sum(cert.weights) != k * m:
        failed.append("total weight %d != k m" % sum(cert.weights))
    if sum(v * v for v in n_p.values()) != m * m:
        failed.append("sum n_p^2 != m^2")
    failed.extend("line %d: sum of n_p != m" % (i + 1) for i in range(arr.d)
                  if sum(n_p[f] for f in cert.Z if i in f.lines) != m)
    return failed


def leaders_by_dfs(d: int, edges) -> list:
    """leader[i], the smallest vertex of the component of i in the graph on
    range(d) with the given edges, by depth-first search: the reference for
    the union-find `resonance._joined`."""
    adj = {i: set() for i in range(d)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    leader = [None] * d
    for s in range(d):
        if leader[s] is None:
            leader[s] = s
            stack = [s]
            while stack:
                for nb in adj[stack.pop()]:
                    if leader[nb] is None:
                        leader[nb] = s
                        stack.append(nb)
    return leader


def connected_by_pairs(arr, blocks) -> bool:
    """Condition (4) of a multinet by its definition: in each block, the
    graph whose edges are the pairs of lines that meet off the base locus
    Z (the flats meeting two blocks) is connected.  The reference for
    `verify_multinet`, which joins the lines of each flat off Z instead."""
    block_of = {i: bi for bi, b in enumerate(blocks) for i in b}
    flat_of_pair = {pair: f for f in arr.flats
                    for pair in combinations(f.lines, 2)}
    edges = [(i, j) for b in blocks for i, j in combinations(b, 2)
             if len({block_of[t] for t in flat_of_pair[(i, j)].lines}) == 1]
    leader = leaders_by_dfs(arr.d, edges)
    return all(len({leader[i] for i in b}) == 1 for b in blocks)


def circuits_by_kernels(arr, max_size) -> list:
    """Circuits by the kernel of every subset of 3 or 4 forms, skipping the
    subsets that hold a circuit already found: the reference for
    `enumerate_circuits`, which reads them off the flats."""
    size = min(arr.d, 4 if max_size is None else max_size)
    found = []
    for k in range(3, size + 1):
        for subset in combinations(range(arr.d), k):
            if any(set(c.indices) <= set(subset) for c in found):
                continue
            ker = kernel_basis([[arr.forms[i][r] for i in subset]
                                for r in range(3)])
            if ker:
                found.append(Circuit(indices=subset,
                                     coeffs=primitive_vector(ker[0]),
                                     ambient=arr.d))
    return found


def vanishing_rows_by_formula(point, order: int, degree: int) -> list:
    """`vanishing_condition_rows` entry by entry: the derivative d^t of
    the monomial x^e at the point is prod perm(e_k, t_k) x_k^(e_k - t_k)."""
    monos = monomials_of_degree(3, degree)
    rows = []
    for alpha in range(order):
        for a in range(alpha + 1):
            for b in range(alpha - a + 1):
                ts = (a, b, alpha - a - b)
                rows.append([
                    prod(perm(e, t) * x ** (e - t)
                         for e, t, x in zip(m, ts, point))
                    if all(e >= t for e, t in zip(m, ts)) else 0
                    for m in monos])
    return rows


def vanishing_order(f, point):
    """ord_p(f) of a nonzero form in (x, y, z): the largest k at which every
    row of `vanishing_condition_rows(p, k, monomials of deg f)` annihilates
    f."""
    monos = monomials_of_degree(3, f.degree())
    coeffs = [f.terms.get(m, 0) for m in monos]
    k = 0
    while all(sum(r * c for r, c in zip(row, coeffs)) == 0
              for row in vanishing_condition_rows(point, k + 1, monos)):
        k += 1
    return k


@pytest.fixture
def braid():
    return analysis("braid-a3").arrangement


@pytest.fixture
def triangle():
    return Arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1)], name="triangle")
