import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import otb.exact
from otb.arrangement import builtin
from otb.exact import (MODP_PRIMES, MPoly, kernel_basis, modp_matrix,
                       modp_rank, monomials_of_degree, primitive_kernel,
                       primitive_vector, proved_rank, rank, rref,
                       seeded_rng, SparseColumns, SparseReducer,
                       draw_generic, GenericityError)
from otb.orlik_terao import OTPresentation

from conftest import (BinaryForm, FractionReducer, FullEngine, binary_gcd,
                      compose, derivative, fraction_kernel, fraction_rref,
                      fraction_solve, given_cycles_by_columns, mpoly_det,
                      mpoly_string_by_fractions, plant_non_commuting,
                      primitive_vector_by_fractions, solve)


# -- dense references, independent of SparseReducer


def bareiss_rank(rows) -> int:
    """Exact rank by fraction-free (Bareiss) elimination on integer rows."""
    a = []
    for row in rows:
        row = [Fraction(x) for x in row]
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        a.append([int(x * denom) for x in row])
    nr, nc = len(a), (len(a[0]) if a else 0)
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pval = a[r][c]
        for i in range(r + 1, nr):
            ival = a[i][c]
            # one-step fraction-free update; the division is exact (the
            # entries are minors of the original matrix)
            for j in range(c + 1, nc):
                a[i][j] = (pval * a[i][j] - ival * a[r][j]) // prev
            a[i][c] = 0
        prev = pval
        r += 1
    return r


def dense_rref(rows):
    """(rref rows, pivot columns) by plain dense Gauss-Jordan over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    nr, nc = len(a), (len(a[0]) if a else 0)
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def dense_kernel(rows, nc):
    red, pivots = dense_rref(rows)
    vecs = []
    for f in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        vecs.append(v)
    return vecs


def dense_solve(rows, b, nc):
    red, pivots = dense_rref([list(row) + [v] for row, v in zip(rows, b)])
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for row, c in zip(red, pivots):
        x[c] = row[nc]
    return x


def integer_columns(rows) -> list:
    """`rows` with each column times the lcm of its denominators: an
    integer matrix of the same rank, as the mod-p layer takes."""
    dens = [lcm(*(Fraction(x).denominator for x in col)) for col in zip(*rows)]
    return [[int(x * d) for x, d in zip(row, dens)] for row in rows]


def low_rank(rng, nr, nc, lo=-3, hi=3):
    """A random nr x nc integer matrix of rank at most min(nr, nc)."""
    r = rng.randint(0, min(nr, nc))
    a = [[rng.randint(lo, hi) for _ in range(r)] for _ in range(nr)]
    b = [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(r)]
    return [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)]
            for i in range(nr)]


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_proportional_rows():
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_transpose_random():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
              for _ in range(nc)] for _ in range(nr)]
        mt = [list(col) for col in zip(*m)]
        assert rank(m) == rank(mt) == bareiss_rank(m) == bareiss_rank(mt)


def test_rank_kernel_dimension_sum():
    rng = random.Random(12)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        assert rank(m) + len(kernel_basis(m)) == nc


def test_bareiss_matches_rref_on_structured_low_rank():
    # regression: the fraction-free update must rescale rows even when the
    # eliminated entry happens to be zero
    m = [[6, 2, -4, 3], [-4, -4, 2, -1], [0, -12, -6, 4], [2, 2, 8, 2]]
    assert bareiss_rank(m) == rank(m) == len(rref(m)[0]) == 3
    rng = random.Random(13)
    for _ in range(150):
        m = low_rank(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert bareiss_rank(m) == rank(m) == len(rref(m)[0])


def test_readouts_match_dense_gauss_jordan():
    # rref, kernel_basis and the test suite's `solve` (a read-out of the
    # reducer) against the dense reference, entry for entry and in order,
    # on random and structured low-rank matrices
    rng = random.Random(17)
    for trial in range(200):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 2:
            m = low_rank(rng, nr, nc)
        else:
            m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(nc)] for _ in range(nr)]
        assert rref(m) == dense_rref(m)
        assert kernel_basis(m) == dense_kernel(m, nc)
        consistent = [sum(Fraction(x) for x in row) for row in m]  # m * 1
        for b in (consistent, [rng.randint(-4, 4) for _ in range(nr)]):
            assert solve(m, b) == dense_solve(m, b, nc)
        assert solve(m, consistent) is not None


# -- the integer SparseReducer against the Fraction reference


def _scalars():
    """Small rationals, denominators up to 10**12 and entries around
    10**12, with zeros half the time."""
    big = 10 ** 12
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, big)),
        st.builds(Fraction, st.integers(big - 50, big + 50)
                  .map(lambda x: x * (-1) ** x), st.integers(1, 7)))


@st.composite
def sparse_rows(draw):
    """Rows of a random sparse rational matrix, some of them rational
    combinations of earlier rows, so that reductions cancel."""
    nc = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(_scalars(), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(nc)])
        else:
            rows.append(draw(st.lists(_scalars(), min_size=nc, max_size=nc)))
    return rows


def _assert_primitive_integer_rows(red):
    """Each stored row is a primitive integer dict with a positive pivot
    entry, and holds no other row's pivot column."""
    for c, piv in red.pivot_rows.items():
        assert all(type(v) is int and v for v in piv.values()), piv
        assert piv[c] > 0 and min(piv) == c and gcd(*piv.values()) == 1, piv
        assert not (set(piv) - {c}) & set(red.pivot_rows), piv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=sparse_rows(), data=st.data())
def test_sparse_reducer_matches_the_fraction_reference(rows, data):
    nc = len(rows[0])
    red, ref = SparseReducer(nc), FractionReducer(nc)
    for row in rows:
        sparse = {j: x for j, x in enumerate(row) if x}
        assert red.add(sparse) == ref.add(sparse)
        _assert_primitive_integer_rows(red)
        assert red.rank == ref.rank
        assert red.nonpivot_columns() == ref.nonpivot_columns()
    for _ in range(3):
        probe = data.draw(st.lists(_scalars(), min_size=nc, max_size=nc))
        sparse = {j: x for j, x in enumerate(probe) if x}
        assert red.reduce(sparse) == ref.reduce(sparse)
    assert rank(rows) == ref.rank
    assert rref(rows) == fraction_rref(rows)
    assert kernel_basis(rows) == fraction_kernel(rows)
    b = data.draw(st.lists(_scalars(), min_size=len(rows),
                           max_size=len(rows)))
    consistent = [sum(row) for row in rows]
    for rhs in (b, consistent):
        assert solve(rows, rhs) == fraction_solve(rows, rhs)
    assert solve(rows, consistent) is not None


def test_modp_rank_agrees_with_exact():
    rng = random.Random(14)
    for p in (32003, 31013, MODP_PRIMES[0]):
        for _ in range(40):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = integer_columns([[Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 4))
                                     for _ in range(nc)] for _ in range(nr)])
            sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
            exact = bareiss_rank(rows)
            assert modp_rank(modp_matrix(sparse, nc, p), p) == exact
    # at the largest prime, negative entries reduce to just below p, so the
    # products in the elimination come close to p**2 ~ 2**62; an int64
    # overflow would corrupt the rank, which shows on low-rank matrices
    p = max(MODP_PRIMES)
    for trial in range(60):
        nr, nc = rng.randint(2, 9), rng.randint(2, 9)
        if trial % 2:
            rows = low_rank(rng, nr, nc, -9, 9)
        else:
            rows = [[-rng.randint(1, 9) for _ in range(nc)]
                    for _ in range(nr)]
        a = modp_matrix([{j: x for j, x in enumerate(row) if x}
                         for row in rows], nc, p)
        assert trial % 2 or a.min() >= p - 9
        assert modp_rank(a, p) == bareiss_rank(rows)


@st.composite
def residue_matrices(draw):
    """(a, p): a random integer matrix, with zero columns, repeated rows and
    entries that vanish mod p, reduced mod p into [0, p)."""
    p = draw(st.sampled_from([7, MODP_PRIMES[0]]))
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from([p, -p, 2 * p]),
                      st.integers(-2 * p, 2 * p))
    rows = [draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    for c in draw(st.lists(st.integers(0, nc - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    for i in draw(st.lists(st.integers(0, nr - 1), max_size=2)):
        rows.append(list(rows[i]))
    return [[x % p for x in row] for row in rows], p


@settings(max_examples=200, deadline=None)
@given(case=residue_matrices())
def test_echelon_mod_p_leaves_an_lu(case):
    # P a = L U mod p, with L unit lower triangular at the pivots and U in
    # row echelon form; every other entry of the result is zero
    rows, p = case
    a = np.array(rows, dtype=np.int64)
    order, pivots = otb.exact._echelon_mod_p(a, p)
    nr, nc, r = len(rows), len(rows[0]), len(pivots)
    assert sorted(order) == list(range(nr))
    assert pivots == sorted(set(pivots))
    low = [[int(a[i, c]) for c in pivots[:min(i, r)]]
           + [int(i == k) for k in range(min(i, r), r)] for i in range(nr)]
    up = [[int(a[k, j]) if j >= c else 0 for j in range(nc)]
          for k, c in enumerate(pivots)]
    assert all(up[k][c] for k, c in enumerate(pivots))
    for i in range(nr):
        lu = [sum(low[i][k] * up[k][j] for k in range(r)) % p
              for j in range(nc)]
        assert lu == rows[order[i]], i
        kept = set(pivots[:min(i, r)]) | set(range(pivots[i] if i < r
                                                   else nc, nc))
        assert not any(a[i, j] for j in range(nc) if j not in kept), i


@settings(max_examples=200, deadline=None)
@given(case=residue_matrices())
@example(case=([[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 2, 3], [4, 5, 6]], 7))
def test_square_kernel_solves_its_block_or_finds_it_singular(case):
    # X s_B = -s_T mod p for the first r rows s_B, or None iff s_B is
    # singular mod p; pivoting inside s_B may permute its rows (the
    # example, by a 3-cycle)
    rows, p = case
    r = min(len(rows[0]), max(1, len(rows) - 2))
    rows = [row[:r] for row in rows]
    x = otb.exact._square_kernel(np.array(rows, dtype=np.int64), r, p)
    assert (x is None) == (modp_rank(np.array(rows[:r]), p) < r)
    if x is not None:
        assert x.shape == (len(rows) - r, r)
        for xi, target in zip(x.tolist(), rows[r:]):
            assert [(sum(v * row[j] for v, row in zip(xi, rows)) + t) % p
                    for j, t in enumerate(target)] == [0] * r


def test_modp_primes_are_distinct_primes_below_2_31():
    assert len(set(MODP_PRIMES)) == len(MODP_PRIMES) >= 3
    for p in MODP_PRIMES:
        assert 2 < p < 2 ** 31
        assert p % 2 and all(p % k for k in range(3, isqrt(p) + 1, 2)), p


# -- proved_rank against `rank`, the exact reducer


def columns(rows) -> list:
    """The columns of a matrix given by rows, as sparse dicts."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(len(rows[0]))]


def sparse_matrix(rng, nr: int, nc: int, shape: str) -> list:
    """Rows of a seeded random sparse integer matrix, each column of a
    rational one times its lcm: `tall` and `wide` have about a third of
    their entries nonzero, `deficient` is a product of two such factors
    through a smaller inner dimension."""
    def draw(r, c):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 if rng.random() < 0.35 else Fraction(0) for _ in range(c)]
                for _ in range(r)]
    if shape != "deficient":
        return integer_columns(draw(nr, nc))
    inner = rng.randint(1, min(nr, nc) - 1)
    a, b = draw(nr, inner), draw(inner, nc)
    return integer_columns([[sum(a[i][k] * b[k][j] for k in range(inner))
                             for j in range(nc)] for i in range(nr)])


def some_cycles(rng, rows) -> list:
    """Random combinations of part of an exact kernel basis, some of them
    repeated, each times the lcm of its denominators: integer cycles as a
    caller would know them, not independent."""
    basis = kernel_basis(rows)
    if not basis:
        return []
    part = rng.sample(basis, rng.randint(1, len(basis)))
    out = []
    for _ in range(len(part) + 1):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in part]
        vec = [sum(c * v[k] for c, v in zip(coeffs, part))
               for k in range(len(rows[0]))]
        den = lcm(*(x.denominator for x in vec))
        out.append({k: int(x * den) for k, x in enumerate(vec) if x})
    return out


SHAPES = {"tall": (14, 6), "wide": (6, 14), "deficient": (12, 12)}


@pytest.mark.parametrize("given", ["no-cycles", "cycles"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_proved_rank_matches_reducer(shape, given):
    rng = random.Random("proved:%s:%s" % (shape, given))
    for _ in range(15):
        nr, nc = (rng.randint(n // 2, n) for n in SHAPES[shape])
        rows = sparse_matrix(rng, nr, nc, shape)
        cycles = some_cycles(rng, rows) if given == "cycles" else []
        cols = columns(rows)
        r, how = proved_rank(SparseColumns(cols, nr),
                              SparseColumns(cycles, nc))
        assert r == rank(rows), (shape, rows)
        assert how == "mod-p" or how.startswith("lifted "), how


def test_sparse_columns_read_outs():
    # residues are `modp_matrix` of the columns; is_cycle is the exact
    # product, on integer kernel vectors, those perturbed, and random ones
    rng = random.Random("sparse-columns")
    answers = []
    for shape in sorted(SHAPES):
        rows = sparse_matrix(rng, *SHAPES[shape], shape)
        cols = columns(rows)
        matrix = SparseColumns(cols, len(rows))
        assert matrix.nrows == len(rows) and matrix.columns() is cols
        for p in MODP_PRIMES[:2]:
            assert np.array_equal(matrix.residues(p),
                                  modp_matrix(cols, len(rows), p))
        vecs = [dict(enumerate(primitive_vector(v)))
                for v in kernel_basis(rows)]
        vecs += [{**v, 0: v[0] + 1} for v in vecs]
        vecs += [{k: rng.randint(-4, 4) for k in range(len(cols))}]
        for vec in vecs:
            product = [sum(z * row[k] for k, z in vec.items())
                       for row in rows]
            answers.append(matrix.is_cycle(vec))
            assert answers[-1] == (not any(product)), (shape, vec)
    assert set(answers) == {True, False}


def test_proved_rank_needs_no_lift_with_the_whole_kernel():
    rng = random.Random(5)
    rows = sparse_matrix(rng, 10, 10, "deficient")
    cycles = [{k: x for k, x in enumerate(primitive_vector(v)) if x}
              for v in kernel_basis(rows)]
    assert proved_rank(SparseColumns(columns(rows), 10),
                       SparseColumns(cycles, 10)) == (
        rank(rows), "mod-p")


def needs_lifting():
    """A 5 x 7 integer matrix of rank 3 whose kernel vectors have
    fractional entries: without given cycles, proved_rank lifts four."""
    rng = random.Random(8)

    def draw(r, c):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(c)] for _ in range(r)]
    a, b = draw(5, 3), draw(3, 7)
    return integer_columns([[sum(a[i][k] * b[k][j] for k in range(3))
                             for j in range(7)] for i in range(5)])


def test_lifting_matrix_needs_lifting():
    rows = needs_lifting()
    assert rank(rows) == 3
    assert any(x.denominator > 1 for v in kernel_basis(rows) for x in v)
    assert proved_rank(SparseColumns(columns(rows), 5)) == (3, "lifted 4")


def _planted_engine(delta):
    """A fresh full engine of braid-a3 whose maps of degree 1 carry
    `delta` out of step with the others (`plant_non_commuting`)."""
    eng = FullEngine(OTPresentation(builtin("braid-a3")))
    real = eng.maps
    outer = plant_non_commuting(real(1), real(0), delta)
    eng.maps = lambda q: outer if q == 1 else real(q)
    return eng


def test_planted_non_cycle_raises():
    # the known cycles of B_2 are the columns of the map into it, proved by
    # the engine's commutation check before `proved_rank` takes them
    eng = _planted_engine(1)
    dims = [eng.dim(q) for q in range(3)]
    assert not given_cycles_by_columns(eng.nvars, 2, eng.maps(1),
                                       eng.maps(0), dims)
    with pytest.raises(ArithmeticError):
        eng.rank_of_differential(2, 1)
    # a true map plus a tiny error is caught as well
    eng = _planted_engine(Fraction(1, 10 ** 30))
    with pytest.raises(ArithmeticError):
        eng.rank_of_differential(2, 1)


def residues_of(vec, m) -> list:
    return [x.numerator * pow(x.denominator, -1, m) % m for x in vec]


_small_fractions = st.builds(Fraction, st.integers(-50, 50),
                             st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(vecs=st.lists(st.lists(_small_fractions, max_size=8), min_size=1,
                     max_size=3))
@example(vecs=[[Fraction(1, 3), Fraction(0), Fraction(-5, 2), Fraction(7),
                Fraction(5, 6)], [Fraction(0)], []])
def test_reconstruct_gives_integers_over_one_denominator(vecs):
    m = MODP_PRIMES[0] * MODP_PRIMES[1] * MODP_PRIMES[2]
    lifts = otb.exact._reconstruct([residues_of(v, m) for v in vecs], m)
    assert [[Fraction(n, den) for n in ints] for ints, den in lifts] == vecs
    for ints, den in lifts:
        assert den >= 1 and gcd(den, *ints) == 1


def test_reconstruct_is_none_below_the_bound():
    # scaled by the denominator 6 found before it, the last entry is
    # 600006/100003, past sqrt(p/2) for one prime p but not for two
    vec = [Fraction(1, 3), Fraction(0), Fraction(-5, 2), Fraction(7),
           Fraction(100001, 100003)]
    p, q = MODP_PRIMES[:2]
    assert otb.exact._reconstruct([residues_of(vec, p)], p) is None
    assert otb.exact._reconstruct([residues_of(vec, p * q)], p * q) == [
        ([200006, 0, -1500045, 4200126, 600006], 600018)]


def test_corrupted_lift_falls_back_to_the_same_rank(monkeypatch):
    rows = needs_lifting()
    cols = columns(rows)
    r, how = proved_rank(SparseColumns(cols, len(rows)))
    assert how.startswith("lifted ")
    reconstruct = otb.exact._reconstruct

    def corrupt(residues, m):
        lifts = reconstruct(residues, m)
        if lifts is not None:
            lifts[0][0][0] += 1              # one integer entry, den kept
        return lifts
    monkeypatch.setattr(otb.exact, "_reconstruct", corrupt)
    assert proved_rank(SparseColumns(cols, len(rows))) == (r, "exact")
    assert r == rank(rows)


def test_rank_drop_at_the_first_prime_still_gives_the_rational_rank():
    p = MODP_PRIMES[0]
    # det = p: rank 2 over Q, rank 1 mod p
    cols = [{0: p, 1: 1}, {1: 1}]
    assert modp_rank(modp_matrix(cols, 2, p), p) == 1
    assert proved_rank(SparseColumns(cols, 2))[0] == 2
    # the same inside a larger matrix whose other columns need lifting
    rows = needs_lifting()
    rows = [row + [0] for row in rows] + [[0] * 7 + [p]]
    cols = columns(rows)
    assert proved_rank(SparseColumns(cols, len(rows)))[0] == rank(rows)


def test_primitive_kernel_takes_integers_only():
    # numpy would store the residue of Fraction(1, 2) as 0; the rows are
    # reduced by `modp_matrix`, which refuses it
    with pytest.raises(TypeError):
        primitive_kernel([[Fraction(1, 2), 1]])


def test_kernel_identity_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_one_one():
    k = kernel_basis([[1, 1]])
    assert len(k) == 1
    assert primitive_vector(k[0]) == (1, -1)


def test_kernel_of_dependency_matrix():
    # forms x1, x2, x3, x1+x2+x3 as columns
    k = kernel_basis([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert len(k) == 1
    assert primitive_vector(k[0]) == (1, 1, 1, -1)


def test_solve_consistent_and_inconsistent():
    m = [[1, 2], [2, 4]]
    assert solve(m, [1, 2]) is not None
    assert solve(m, [1, 3]) is None


def test_primitive_vector():
    assert primitive_vector([Fraction(-2, 3), Fraction(4, 3)]) == (1, -2)
    assert primitive_vector([0, 6, -9]) == (0, 2, -3)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])


# entries are ints and Fractions, zeros among them, with denominators up to
# 10^12; a negative leading entry flips the sign of the whole vector
_entries = st.one_of(st.just(0), st.just(Fraction(0)),
                     st.integers(-10 ** 12, 10 ** 12),
                     st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                  max_denominator=10 ** 12))


@settings(max_examples=300, deadline=None)
@given(vec=st.lists(_entries, min_size=1, max_size=8))
@example(vec=[0, Fraction(0)])
@example(vec=[0, Fraction(-3, 10 ** 12), 6])
def test_primitive_vector_matches_the_fraction_loop(vec):
    if not any(vec):
        with pytest.raises(ValueError):
            primitive_vector(vec)
        return
    got = primitive_vector(vec)
    assert got == primitive_vector_by_fractions(vec)
    assert all(type(v) is int for v in got)


# -- binary forms (the gcd behind the tests' 1-genericity oracle)


def test_binary_gcd_lambda_power():
    g = binary_gcd([BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0])])
    assert g.coeffs == [1, 0]  # lambda


def test_binary_gcd_common_root():
    g = binary_gcd([BinaryForm([1, 0, -1]), BinaryForm([1, -1])])
    assert g.coeffs == [1, -1]  # lambda - mu


def test_binary_gcd_coprime():
    g = binary_gcd([BinaryForm([1, 0]), BinaryForm([0, 1])])
    assert g.degree == 0


def test_binary_gcd_mu_power():
    # mu^2 and mu*(lambda - mu): the shared root at infinity survives
    g = binary_gcd([BinaryForm([0, 0, 1]), BinaryForm([0, 1, -1])])
    assert g.degree == 1 and g.coeffs == [0, 1]


def test_binary_gcd_zero_pencil():
    with pytest.raises(ValueError, match="zero pencil"):
        binary_gcd([BinaryForm([0, 0]), BinaryForm([0])])


# -- polynomials


def test_mpoly_ring_distributivity_random():
    rng = random.Random(15)

    def rand_poly():
        p = MPoly.zero(3)
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            p = p + MPoly.monomial(3, e, Fraction(rng.randint(-4, 4)))
        return p

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_mpoly_compose_and_derivative():
    # f = x^2 y, substitute x -> u+v, y -> u
    f = MPoly.monomial(3, (2, 1, 0))
    u = MPoly.linear_form([1, 0])
    v = MPoly.linear_form([0, 1])
    g = compose(f, [u + v, u, MPoly.zero(2)])
    assert g == (u + v) * (u + v) * u
    assert derivative(f, 0) == MPoly.monomial(3, (1, 1, 0), 2)


def test_mpoly_det_small():
    x = MPoly.linear_form([1, 0, 0])
    y = MPoly.linear_form([0, 1, 0])
    d = mpoly_det([[x, y], [y, x]])
    assert d == x * x - y * y


_rationals = st.fractions(max_denominator=12) | st.integers(-10**30, 10**30)


@settings(max_examples=300, deadline=None)
@given(nvars=st.integers(1, 5), data=st.data())
def test_mpoly_string_matches_the_fraction_rendering(nvars, data):
    # zero, unit, integer and fractional coefficients of either sign, on
    # the constant term too, in both naming schemes (x, y, z and y1, y2, ...)
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars), _rationals, max_size=6))
    f = MPoly(nvars, terms)
    assert f.to_string() == mpoly_string_by_fractions(f)


def test_monomials_of_degree_count_and_order():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == 6
    assert ms[0] == (2, 0, 0) and ms[-1] == (0, 0, 2)


def test_sparse_reducer_rank_matches_dense():
    rng = random.Random(16)
    for _ in range(30):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        red = SparseReducer(nc)
        for row in rows:
            red.add({i: v for i, v in enumerate(row) if v})
        assert red.rank == bareiss_rank(rows)
        _assert_primitive_integer_rows(red)


def test_seeded_rng_deterministic():
    assert seeded_rng("t").random() == seeded_rng("t").random()


def test_draw_generic_exhausts():
    rng = seeded_rng("exhaust")
    with pytest.raises(GenericityError):
        draw_generic(rng, lambda r: 0, lambda x: False)
