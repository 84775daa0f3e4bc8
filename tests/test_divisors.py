import random

import numpy as np
import pytest

import otb.exact
from otb.divisors import (DivisorClass, divisor_DA, h0_fatpoints, h0_h1,
                          net_split, pairing, riemann_roch_chi,
                          vanishing_condition_rows)
from otb.exact import (MODP_PRIMES, MPoly, kernel_basis, modp_matrix,
                       modp_rank, monomials_of_degree, primitive_kernel,
                       primitive_vector, rank)
from otb.orlik_terao import terao_series
from otb.resonance import search_multinets
from otb.scroll import en_prediction

from conftest import (BUILTINS, ORACLE_FORMS, analysis, l_forms,
                      vanishing_order, vanishing_rows_by_formula)


def test_pairing_basis(braid):
    e0 = DivisorClass(1, {})
    p, q = braid.flats[0], braid.flats[1]
    ep, eq = DivisorClass(0, {p: -1}), DivisorClass(0, {q: -1})
    assert pairing(e0, e0) == 1
    assert pairing(ep, eq) == 0
    assert pairing(ep, ep) == -1
    assert pairing(e0, ep) == 0


def test_divisor_arithmetic(braid):
    p = braid.flats[0]
    d = 2 * (DivisorClass(1, {}) + DivisorClass(0, {p: -1}))
    assert d.m == 2 and d.mults[p] == -2


def test_condition_rows_read_vanishing_orders():
    # (x - z)^2 y: order 2 where only x - z vanishes, 1 where only y does
    x, y, z = (MPoly.linear_form(e)
               for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    f = (x - z) * (x - z) * y
    assert vanishing_order(f, (1, 1, 1)) == 2
    assert vanishing_order(f, (1, 0, 0)) == 1
    assert vanishing_order(f, (1, 0, 1)) == 3
    assert vanishing_order(f, (0, 1, 1)) == 0


def test_braid_DA(braid):
    da = divisor_DA(braid)
    assert da.m == 5
    assert sorted(da.mults.values(), reverse=True) == [2, 2, 2, 2, 1, 1, 1]
    assert pairing(da, da) == 6
    assert riemann_roch_chi(braid, da) == 6


def test_DA_ex_2_4():
    a = analysis("ex-2-4").arrangement
    da = divisor_DA(a)
    assert da.m == 3 and sorted(da.mults.values()) == [1] * 6


def test_DA_9_3_2():
    a = analysis("9_3_2").arrangement
    da = divisor_DA(a)
    assert da.m == 8
    assert sorted(da.mults.values(), reverse=True) == [2] * 9 + [1] * 9


def test_chi_zero_divisor(braid):
    assert riemann_roch_chi(braid, DivisorClass(0, {})) == 1


def test_chi_equals_d_on_corpus():
    # equivalent to the edge double count
    for name in BUILTINS:
        a = analysis(name).arrangement
        assert riemann_roch_chi(a, divisor_DA(a)) == a.d


def test_h0_DA_is_d_and_spans_l_basis():
    for name in BUILTINS:
        a = analysis(name).arrangement
        sec = h0_fatpoints(a, divisor_DA(a))
        assert sec.dimension == a.d
        monos = monomials_of_degree(3, a.d - 1)
        rows = [[p.terms.get(m, 0) for m in monos] for p in sec.basis]
        lrows = [[p.terms.get(m, 0) for m in monos] for p in l_forms(a)]
        assert rank(rows + lrows) == a.d == rank(lrows)


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_sections_of_t_da_are_the_hilbert_function(name):
    # a route to dim C(A)_t that does not pass through the nbc monomials:
    # products of t of the l_k vanish to order t mu_p at each p, so
    # dim C(A)_t <= h0(t D_A) <= columns - rank mod p of the conditions;
    # the outer two meet, so h0(t D_A) = dim C(A)_t
    a = analysis(name).arrangement
    series, p = terao_series(a, 3).coefficients, MODP_PRIMES[0]
    for t in (1, 2, 3):
        monos = monomials_of_degree(3, t * (a.d - 1))
        rows = [dict(enumerate(row)) for f in a.flats
                for row in vanishing_condition_rows(f.point, t * f.mu, monos)]
        free = len(monos) - modp_rank(modp_matrix(rows, len(monos), p), p)
        assert free == series[t], (name, t)


def test_h0_greater_equal_chi_on_corpus_divisors():
    for name in ("braid-a3", "9_3_1"):
        a = analysis(name).arrangement
        da = divisor_DA(a)
        for div in (da, DivisorClass(3, {p: 1 for p in a.flats if p.mu == 2})):
            h0 = h0_fatpoints(a, div).dimension
            assert h0 >= riemann_roch_chi(a, div)


def test_9_3_1_net_divisors():
    a = analysis("9_3_1").arrangement
    A = DivisorClass(3, {p: 1 for p in a.flats if p.mu == 2})
    sA = h0_fatpoints(a, A)
    assert sA.dimension == 2
    assert sA.conditions_shape == (9, 10)
    h0, h1 = h0_h1(a, A)
    assert (h0, h1) == (2, 1)
    B = divisor_DA(a) - A
    sB = h0_fatpoints(a, B)
    assert sB.dimension == 3
    assert sB.conditions_shape == (18, 21)
    # rank of the 18x21 simple-conditions matrix is full
    assert rank(_condition_rows(a, B)) == 18


def _condition_rows(a, div):
    monos = monomials_of_degree(3, div.m)
    rows = []
    for p, v in sorted(div.mults.items(), key=lambda kv: kv[0].point):
        rows.extend(vanishing_condition_rows(p.point, v, monos))
    return rows


def _reducer_kernel(rows):
    return [primitive_vector(v) for v in kernel_basis(rows)]


@pytest.mark.parametrize("m", [3, 6, 9, 12])
@pytest.mark.parametrize("mode", ["one", "mu"])
@pytest.mark.parametrize("name", ["9_3_1", "b3"])
def test_h0_basis_is_the_reducers_kernel_without_the_reducer(name, mode, m):
    # the h0 sweep of the benchmark: a_p = 1 or mu_p, four degrees
    a = analysis(name).arrangement
    div = DivisorClass(m, {p: 1 if mode == "one" else p.mu for p in a.flats})
    sec = h0_fatpoints(a, div)
    monos = monomials_of_degree(3, m)
    assert [tuple(f.terms.get(mo, 0) for mo in monos) for f in sec.basis] \
        == _reducer_kernel(_condition_rows(a, div))
    assert sec.how != "exact"


@pytest.mark.parametrize("m", [3, 6, 9, 12])
@pytest.mark.parametrize("mode", ["one", "mu"])
@pytest.mark.parametrize("name", ["9_3_1", "b3"])
def test_condition_rows_match_the_formula(name, mode, m):
    # the same 16 inputs: the tabled rows equal the entry-by-entry formula
    a = analysis(name).arrangement
    monos = monomials_of_degree(3, m)
    for p in a.flats:
        order = 1 if mode == "one" else p.mu
        assert vanishing_condition_rows(p.point, order, monos) == \
            vanishing_rows_by_formula(p.point, order, m), p.point


def _random_product_rows(seed) -> list:
    """Products of random factors, so that the rank is often short, with
    entries small or large enough to need several primes."""
    rng = random.Random(seed)
    nr, nc, k = rng.randint(1, 7), rng.randint(1, 9), rng.randint(1, 6)
    size = rng.choice((2, 300, 10 ** 6))
    left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(nr)]
    right = [[rng.randint(-size, size) * (rng.random() < 0.7)
              for _ in range(nc)] for _ in range(k)]
    return [[sum(x * y[c] for x, y in zip(row, right)) for c in range(nc)]
            for row in left]


@pytest.mark.parametrize("seed", range(60))
def test_primitive_kernel_matches_the_reducer_on_random_matrices(seed):
    rows = _random_product_rows(seed)
    vecs, how = primitive_kernel(rows)
    assert vecs == _reducer_kernel(rows)
    assert (how == "mod-p") == (not vecs)
    assert how != "exact"


# the h0 sweep of the benchmark, as (name, mode, m)
H0_SWEEP = [(name, mode, m) for name in ("9_3_1", "b3")
            for mode in ("one", "mu") for m in (3, 6, 9, 12)]


@pytest.mark.parametrize("case", H0_SWEEP + list(range(60)))
def test_primitive_kernel_reads_the_square_block_kernel_off_its_echelon(
        case, monkeypatch):
    # `primitive_kernel` hands `_lift_cycles` the kernel it read off the U
    # of its own echelon; `_square_kernel` on the block at the pivot rows,
    # at that prime, must give the same vectors
    if isinstance(case, int):
        rows = _random_product_rows(case)
    else:
        name, mode, m = case
        a = analysis(name).arrangement
        rows = _condition_rows(a, DivisorClass(
            m, {p: 1 if mode == "one" else p.mu for p in a.flats}))
    lift = otb.exact._lift_cycles
    checked = []

    def spy(matrix, basis, prows, targets, p, first):
        block = matrix.residues(p)[np.ix_(basis + targets, prows)]
        x = otb.exact._square_kernel(block, len(basis), p)
        assert x is not None and first.tolist() == x.tolist()
        checked.append(len(targets))
        return lift(matrix, basis, prows, targets, p, first)
    monkeypatch.setattr(otb.exact, "_lift_cycles", spy)
    vecs, how = primitive_kernel(rows)
    assert checked == ([len(vecs)] if vecs else [])
    assert how != "exact"


@pytest.mark.parametrize("rows", [[[MODP_PRIMES[0], 1]],
                                  [[MODP_PRIMES[0], 1, 1]],
                                  [[1, 0, 0], [0, MODP_PRIMES[0], 1]]])
def test_pivots_that_move_mod_p_fall_back_to_the_basis_over_q(rows):
    # a column that is a pivot over Q vanishes mod p, so the pivots mod p
    # sit later; the lifted vectors are cycles but fail the support check
    vecs, how = primitive_kernel(rows)
    assert vecs == _reducer_kernel(rows)
    assert how == "exact"


def test_a_kernel_past_one_prime_is_lifted_with_more():
    # entries far above sqrt(p / 2) need two and then three primes for
    # Wang's reconstruction
    for a, b, primes in ((1000003, 999983, 2),
                         (10 ** 12 + 39, 10 ** 12 - 11, 3)):
        rows = [[a, b, 0], [0, 0, 1]]
        assert primitive_kernel(rows) == ([(b, -a, 0)],
                                          "lifted %d" % primes)
    assert primitive_kernel([[1, 0], [0, 2]]) == ([], "mod-p")


def test_a_prime_with_a_singular_block_is_skipped(monkeypatch):
    # the pivot block [[1, 1], [1, 1 + p1]] has determinant p1: singular
    # only mod the second prime, which the lift skips; it needs three
    # primes, and the first prime's kernel is read off the echelon
    skipped = []
    solve = otb.exact._square_kernel

    def spy(s, r, q):
        x = solve(s, r, q)
        skipped.append((q, x is None))
        return x
    monkeypatch.setattr(otb.exact, "_square_kernel", spy)
    rows = [[1, 1, 5], [1, 1 + MODP_PRIMES[1], 7]]
    vecs, how = primitive_kernel(rows)
    assert vecs == [(10737418143, 2, -2147483629)] == _reducer_kernel(rows)
    assert how == "lifted 3"
    assert skipped == [(q, q == MODP_PRIMES[1]) for q in MODP_PRIMES[1:4]]


def test_9_3_1_pencil_lower_bound_matches():
    # the net's block products give two independent sections, and the
    # condition matrix caps the dimension at two: equality both ways
    a = analysis("9_3_1").arrangement
    cert = search_multinets(a, 3, 1)[0]
    from otb.exact import MPoly
    prods = []
    for b in cert.blocks:
        f = MPoly.constant(3, 1)
        for i in b:
            f = f * MPoly.linear_form(a.forms[i])
        prods.append(f)
    monos = monomials_of_degree(3, 3)
    rows = [[p.terms.get(m, 0) for m in monos] for p in prods]
    assert rank(rows) == 2


def test_net_split_braid(braid):
    cert = search_multinets(braid, 3, 1)[0]
    split = net_split(braid, cert)
    assert split.A_div.m == 2
    assert sorted(split.A_div.mults.values()) == [1, 1, 1, 1]
    assert all(p.mu == 2 for p in split.A_div.mults)
    assert split.B_div.m == 3
    assert sorted(split.B_div.mults.values()) == [1] * 7
    assert en_prediction(cert, braid.d).b == 3
    assert h0_fatpoints(braid, split.A_div).dimension == 2
    assert h0_fatpoints(braid, split.B_div).dimension == 3


def test_net_split_9_3_1():
    a = analysis("9_3_1").arrangement
    cert = search_multinets(a, 3, 1)[0]
    split = net_split(a, cert)
    assert en_prediction(cert, a.d).b == 3 \
        == h0_fatpoints(a, split.B_div).dimension
    assert h0_fatpoints(a, split.A_div).dimension == 2
    # base-locus Mobius count from the net numerology
    assert sum(p.mu for p in cert.Z) == a.d * cert.m - cert.m ** 2


def test_net_base_locus_mobius_count_braid(braid):
    cert = search_multinets(braid, 3, 1)[0]
    assert sum(p.mu for p in cert.Z) \
        == braid.d * cert.m - cert.m ** 2


def test_h0_rejects_negative():
    a = analysis("braid-a3").arrangement
    p = a.flats[0]
    with pytest.raises(ValueError, match="not a fat-point divisor"):
        h0_fatpoints(a, DivisorClass(2, {p: -1}))
    with pytest.raises(ValueError, match="not a fat-point divisor"):
        h0_fatpoints(a, DivisorClass(-1, {}))


def test_h0_no_conditions():
    a = analysis("braid-a3").arrangement
    sec = h0_fatpoints(a, DivisorClass(2, {}))
    assert sec.dimension == 6 and len(sec.basis) == 6


def test_rr_chi_parity_guard(braid):
    # chi is integral for every integral divisor class
    import random
    rng = random.Random(23)
    flats = braid.flats
    for _ in range(25):
        div = DivisorClass(rng.randint(-3, 6),
                           {p: rng.randint(-2, 3) for p in flats})
        riemann_roch_chi(braid, div)
