from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import otb.exact
import otb.koszul
from otb.analysis import Analysis
from otb.arrangement import Arrangement
from otb.exact import (MODP_PRIMES, GenericityError, SparseReducer,
                       modp_rank, proved_rank)
from otb.koszul import (FullEngine, ReducedEngine, _differential_columns,
                        b23_formula, betti_table, tor_dimension)
from otb.orlik_terao import terao_series

from conftest import (BUILTINS, ORACLE_FORMS, ambient_piece, analysis,
                      cubic_generators, oracle)


def test_braid_table_full():
    tb = betti_table(oracle("braid-a3"))
    assert tb.totals() == [1, 4, 5, 2]
    assert [tb.value(i, i + 1) for i in range(4)] == [0, 4, 2, 0]
    assert [tb.value(i, i + 2) for i in range(4)] == [0, 0, 3, 2]
    assert tb.projective_dimension == 3
    assert tb.regularity == 2


def test_braid_tor_values():
    eng = analysis("braid-a3").engine
    assert tor_dimension(eng, 2, 3) == 2
    assert tor_dimension(eng, 2, 4) == 3
    assert tor_dimension(eng, 0, 0) == 1
    assert tor_dimension(eng, 1, 2) == 4


def test_tor_validates_input():
    eng = analysis("braid-a3").engine
    with pytest.raises(ValueError):
        tor_dimension(eng, -1, 0)
    with pytest.raises(ValueError):
        tor_dimension(eng, 7, 8)
    with pytest.raises(ValueError):
        tor_dimension(eng, 2, 1)


def test_tor_beyond_regularity_short_circuits():
    # zero by the reduction's certificate, and by elimination in the oracle
    assert tor_dimension(analysis("braid-a3").engine, 1, 5) == 0
    assert tor_dimension(oracle("braid-a3"), 1, 5) == 0


def _assert_matches_oracle(an, full):
    """The reduced table equals the full Koszul complex's, and the full
    complex, which runs i up to d, has nothing beyond i = d-3."""
    red = betti_table(an.engine)
    expect = betti_table(full)
    assert red.entries == expect.entries
    assert all(i <= an.arrangement.d - 3 for (i, _) in expect.entries)
    assert red.certificate["colength"] == red.certificate["multiplicity"]


def test_reduced_agrees_with_full_on_small():
    for name in ("braid-a3", "ex-2-4"):
        _assert_matches_oracle(analysis(name), oracle(name))


@pytest.mark.parametrize("name", sorted(ORACLE_FORMS))
def test_reduced_matches_full_oracle(name):
    an = analysis(name)
    _assert_matches_oracle(an, FullEngine(an.pres))


def _strand_rank_by_reducer(eng, i: int, q: int) -> int:
    cols, nrows = _differential_columns(eng.nvars, i, eng.maps(q),
                                        eng.dim(q), eng.dim(q + 1))
    red = SparseReducer(nrows)
    for col in cols:
        red.add(col)
    return red.rank


@pytest.mark.parametrize("name", ["braid-a3", "ex-2-4", "9_3_1"])
def test_every_strand_rank_matches_the_reducer(name):
    engines = [analysis(name).engine]
    if name != "9_3_1":
        engines.append(oracle(name))
    for eng in engines:
        for i in range(1, eng.nvars + 1):
            for q in range(3):
                if eng.dim(q) and eng.dim(q + 1):
                    assert eng.rank_of_differential(i, q) == \
                        _strand_rank_by_reducer(eng, i, q), (name, i, q)


def _assert_no_fallback(eng):
    betti_table(eng, verify_regularity=True)
    assert eng.rank_proofs
    for key, how in eng.rank_proofs.items():
        assert how in ("mod-p", "linear strand") \
            or how.startswith("lifted "), (key, how)


@pytest.mark.parametrize("name", BUILTINS)
def test_no_builtin_strand_falls_back(name):
    eng = analysis(name).engine
    _assert_no_fallback(eng)


def test_no_strand_of_the_braid_plus_one_oracle_falls_back():
    an = analysis("braid-a3+1")
    _assert_no_fallback(an.engine)
    _assert_no_fallback(FullEngine(an.pres))


def _degree3_rank_by_reducer(pres, theta) -> int:
    """The exact reference for the rank of theta C_2 inside C_3: each
    product theta_i * m, m in the basis of C_2, as a vector over C_3, fed
    to one SparseReducer."""
    maps = pres.multiplication_maps(2)
    red = SparseReducer(len(pres.graded_piece(3)))
    for row in theta:
        for k in range(len(pres.graded_piece(2))):
            acc = {}
            for s, a in enumerate(row):
                for pos, v in maps[s][k].items():
                    acc[pos] = acc.get(pos, 0) + a * v
            red.add({pos: v for pos, v in acc.items() if v})
    return red.rank


def _accepted_theta(name) -> list:
    return [[Fraction(x) for x in row]
            for row in analysis(name).engine.certificate["theta"]]


def _h_vector(pres) -> tuple:
    return terao_series(pres.arrangement, 2).h_polynomial


@pytest.mark.parametrize("name", BUILTINS)
def test_degree3_rank_of_the_accepted_theta_matches_the_reducer(name):
    # the draw the engine accepted passes the one test again, and the exact
    # reference agrees that theta C_2 spans C_3
    pres = analysis(name).pres
    theta = _accepted_theta(name)
    eng = ReducedEngine(pres)
    assert eng._try_theta(theta, _h_vector(pres))
    assert eng.certificate == analysis(name).engine.certificate
    assert _degree3_rank_by_reducer(pres, theta) == len(pres.graded_piece(3))


@pytest.mark.parametrize("name", ["braid-a3", "ex-2-4"])
def test_degree3_rank_of_every_coordinate_theta_matches_the_reducer(name):
    # theta = (y_a, y_b, y_c) is never a regular sequence here: the
    # quotient keeps a nonzero degree-3 piece, so the rank is not full
    pres = analysis(name).pres
    eng = ReducedEngine(pres)
    cert = eng.certificate
    h = _h_vector(pres)
    d = pres.d
    c3 = len(pres.graded_piece(3))
    left = {}
    for triple in combinations(range(d), 3):
        theta = [[Fraction(int(j == a)) for j in range(d)] for a in triple]
        assert not eng._try_theta(theta, h), triple
        r = _degree3_rank_by_reducer(pres, theta)
        assert r < c3, triple
        left[triple] = c3 - r
    assert eng.certificate is cert
    if name == "braid-a3":
        # dims (1, 3, 5, 7) of the quotient by (y_1, y_2, y_3)
        assert left[(0, 1, 2)] == 7


def test_a_theta_of_rank_two_is_rejected():
    # the quotient has dimension d - rank theta in degree 1
    pres = analysis("9_3_1").pres
    eng = ReducedEngine(pres)
    t = _accepted_theta("9_3_1")
    theta = [t[0], t[1], [a + b for a, b in zip(t[0], t[1])]]
    assert not eng._try_theta(theta, _h_vector(pres))
    assert eng.certificate == analysis("9_3_1").engine.certificate


def test_a_short_degree3_rank_mod_p_rejects_every_draw(monkeypatch):
    # a rank mod p one short at the degree-3 matrix proves no vanishing in
    # degree 3: each of the five draws is rejected there, and no
    # certificate is ever installed
    pres = analysis("9_3_1").pres
    c2 = len(pres.graded_piece(2))
    c3 = len(pres.graded_piece(3))
    short = []
    seen = []

    def spy(a, p):
        r = modp_rank(a, p)
        if a.shape == (3 * c2, c3):
            short.append(p)
            return r - 1
        return r
    try_theta = ReducedEngine._try_theta

    def spy_try(self, theta, h):
        ok = try_theta(self, theta, h)
        seen.append((ok, self.certificate))
        return ok
    monkeypatch.setattr(otb.koszul, "modp_rank", spy)
    monkeypatch.setattr(ReducedEngine, "_try_theta", spy_try)
    with pytest.raises(GenericityError):
        ReducedEngine(pres)
    assert short == [MODP_PRIMES[0]] * 5
    assert seen == [(False, None)] * 5


def test_building_the_reduction_eliminates_nothing_over_c3(monkeypatch):
    pres = analysis("b3").pres
    c3 = len(pres.graded_piece(3))
    sizes = []
    init = SparseReducer.__init__

    def spy(self, ncols):
        sizes.append(ncols)
        init(self, ncols)
    monkeypatch.setattr(SparseReducer, "__init__", spy)
    ReducedEngine(pres)
    assert sizes and c3 not in sizes


def test_b3_lifts_exactly_its_linear_syzygies():
    # the cycles lifted for B_i: Wedge^i V (x) C_1 -> Wedge^{i-1} V (x) C_2
    # beyond those of the Koszul complex of V number b_{i,i+1}
    eng = analysis("b3").engine
    tb = betti_table(eng)
    proofs = eng.rank_proofs
    assert {i: proofs[(i, 1)] for i in (1, 2, 3)} == {
        1: "lifted 13", 2: "lifted 22", 3: "lifted 1"}
    assert [tb.value(i, i + 1) for i in (1, 2, 3, 4)] == [13, 22, 1, 0]
    # b_{4,5} = 0 ends the linear strand: B_5 and B_6 are not ranked
    assert {i: proofs[(i, 1)] for i in (4, 5, 6)} == {
        4: "mod-p", 5: "linear strand", 6: "linear strand"}
    assert all(how == "mod-p" for (i, q), how in proofs.items() if q != 1)


# the generic lines that bench/inputs.extended_forms adds to b3 with
# Random("b3+4:0"); each meets the others and b3 in double points only
B3_EXTRA = [(3, 4, -2), (4, 2, 1), (-4, 3, -2), (2, -1, 4)]


def _b3_plus(k: int) -> Analysis:
    forms = list(analysis("b3").arrangement.forms) + B3_EXTRA[:k]
    return Analysis(Arrangement(forms, name="b3+%d" % k))


def _forced_strands(eng) -> set:
    """After `betti_table`, the i of every B_i that the linear strand
    forced, each checked against the reducer."""
    betti_table(eng)
    forced = {key for key, how in eng.rank_proofs.items()
              if how == "linear strand"}
    for (i, q) in forced:
        assert q == 1
        assert eng.rank_of_differential(i, q) == \
            _strand_rank_by_reducer(eng, i, q), (i, q)
    return {i for (i, _) in forced}


# where row 1 ends, B_i is forced for i past the end and up to d - 3; on
# braid-a3 it ends at d - 3 = 3, and B_4 = 0 stays untagged
FORCED = {"9_3_1": {4, 5, 6}, "9_3_2": {3, 4, 5, 6}, "b3": {5, 6},
          "braid-a3+1": {4}, "random-6-1": {3}, "random-6-3": {3}}


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_linear_strand_ranks_match_the_reducer(name):
    assert _forced_strands(ReducedEngine(analysis(name).pres)) == \
        FORCED.get(name, set())


def test_linear_strand_ranks_of_b3_plus_a_line_match_the_reducer():
    assert _forced_strands(_b3_plus(1).engine) == {5, 6, 7}


def test_betti_on_b3_ranks_no_strand_past_the_linear_strand(monkeypatch):
    # B_i for i >= 5 maps Wedge^i V (x) C_1 with C(6, i) * 6 columns
    eng = ReducedEngine(analysis("b3").pres)
    shapes = []
    prove = otb.koszul.proved_rank

    def spy(cols, nrows, cycles):
        shapes.append((len(cols), nrows))
        return prove(cols, nrows, cycles)
    monkeypatch.setattr(otb.koszul, "proved_rank", spy)
    tb = betti_table(eng)
    h2 = eng.dim(2)
    assert shapes
    assert not {(comb(6, i) * 6, comb(6, i - 1) * h2)
                for i in (5, 6)} & set(shapes)
    assert (comb(6, 4) * 6, comb(6, 3) * h2) in shapes
    assert [tb.value(i, i + 2) for i in (4, 5)] == [85, 42]


def test_tor_23_alone_ranks_only_its_two_strands(monkeypatch):
    # scroll-check asks for b_{2,3} only: no stop is known yet, so exactly
    # the two strands of homology(2, 1) are ranked, and B_1 is not
    eng = ReducedEngine(analysis("9_3_1").pres)
    calls = []
    prove = otb.koszul.proved_rank

    def spy(cols, nrows, cycles):
        calls.append((len(cols), nrows))
        return prove(cols, nrows, cycles)
    monkeypatch.setattr(otb.koszul, "proved_rank", spy)
    assert tor_dimension(eng, 2, 3) == 2
    assert eng.rank_proofs == {(2, 1): "lifted 2", (3, 0): "mod-p"}
    assert len(calls) == 2


def test_b3_plus_four_lines_table_is_pinned():
    # d = 13: the table of the literal computation, every strand ranked
    tb = betti_table(_b3_plus(4).engine)
    assert [tb.value(i, i + 1) for i in range(1, 4)] == [13, 22, 1]
    assert [tb.value(i, i + 2) for i in range(1, 11)] == [
        112, 901, 3192, 6510, 8604, 7665, 4600, 1791, 410, 42]
    assert tb.totals() == [1, 125, 923, 3193, 6510, 8604, 7665, 4600, 1791,
                           410, 42]
    assert len(tb.entries) == 13


def test_proved_rank_builds_each_residue_matrix_once(monkeypatch):
    # a strand that lifts: its columns are reduced mod each prime tried once
    eng = analysis("b3").engine
    cols, nrows = _differential_columns(eng.nvars, 1, eng.maps(1), eng.dim(1),
                                        eng.dim(2))
    cycles, _ = _differential_columns(eng.nvars, 2, eng.maps(0), eng.dim(0),
                                      eng.dim(1))
    primes = []
    build = otb.exact.modp_matrix

    def spy(rows, ncols, p):
        if rows is cols:
            primes.append(p)
        return build(rows, ncols, p)
    monkeypatch.setattr(otb.exact, "modp_matrix", spy)
    assert proved_rank(cols, nrows, cycles)[1] == "lifted 13"
    assert primes == [MODP_PRIMES[0]]


def test_proved_rank_echelons_each_residue_matrix_once(monkeypatch):
    # the same strand: one echelon of its residue matrix and one of the
    # known cycles, which serves both the mod-p test and the lift
    eng = analysis("b3").engine
    cols, nrows = _differential_columns(eng.nvars, 1, eng.maps(1), eng.dim(1),
                                        eng.dim(2))
    cycles, _ = _differential_columns(eng.nvars, 2, eng.maps(0), eng.dim(0),
                                      eng.dim(1))
    shapes = []
    echelon = otb.exact._echelon_mod_p

    def spy(a, p):
        shapes.append(a.shape)
        return echelon(a, p)
    monkeypatch.setattr(otb.exact, "_echelon_mod_p", spy)
    assert proved_rank(cols, nrows, cycles)[1] == "lifted 13"
    assert len(shapes) == 2
    assert shapes[0] == (len(cols), nrows)
    assert shapes[1][0] == len(cycles)


def test_reduced_certificate_contents():
    tb = betti_table(analysis("9_3_1").engine)
    cert = tb.certificate
    assert cert["artinian_in_degree"] == 3
    assert cert["h_vector"] == (1, 6, 12)
    assert cert["colength"] == 19 == cert["multiplicity"]


def test_ex_2_4_table():
    tb = betti_table(oracle("ex-2-4"))
    assert tb.totals() == [1, 1]
    assert tb.entries == {(1, 3): 1}
    assert tb.projective_dimension == 1


def test_triangle_table(triangle):
    tb = betti_table(FullEngine(Analysis(triangle).pres))
    assert tb.entries == {}
    assert tb.totals() == [1]
    assert tb.projective_dimension == 0
    assert tb.regularity == 0


def test_projective_dimension_is_d_minus_3():
    for name in BUILTINS:
        tb = betti_table(analysis(name).engine)
        assert tb.projective_dimension == analysis(name).arrangement.d - 3


def test_strand3_vanishes():
    for name in BUILTINS:
        tb = betti_table(analysis(name).engine, verify_regularity=True)
        assert tb.strand3
        assert all(v == 0 for v in tb.strand3.values())


def _composite_is_zero(eng, i: int, s: int) -> bool:
    """d o d = 0 on the strand through Wedge^i V (x) C_s: each column of the
    map into it, pushed through the map out of it, is zero."""
    into, mid = _differential_columns(eng.nvars, i + 1, eng.maps(s - 1),
                                      eng.dim(s - 1), eng.dim(s))
    out, _ = _differential_columns(eng.nvars, i, eng.maps(s), eng.dim(s),
                                   eng.dim(s + 1))
    assert not into or mid == len(out)
    for col in into:
        acc = {}
        for k, c in col.items():
            for t, v in out[k].items():
                acc[t] = acc.get(t, 0) + c * v
        if any(acc.values()):
            return False
    return True


def test_strand_composite_zero_small():
    # d(d(x)) = 0 on explicitly constructed strands
    for name in ("braid-a3", "ex-2-4"):
        eng = oracle(name)
        for (i, s) in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert _composite_is_zero(eng, i, s), (name, i, s)
    eng = analysis("9_3_1").engine
    for (i, s) in ((1, 1), (2, 1), (3, 2)):
        assert _composite_is_zero(eng, i, s), (i, s)


def test_euler_characteristic_identity():
    # sum_i (-1)^i b_{i,j} t^j == h(t) * (1-t)^(d-3)
    for name in BUILTINS:
        a = analysis(name).arrangement
        tb = betti_table(analysis(name).engine)
        h = terao_series(a, 2).h_polynomial
        n = a.d - 3
        # expand h(t) * (1-t)^n
        from math import comb
        deg = n + 2
        expect = [0] * (deg + 1)
        for i, hi in enumerate(h):
            for k in range(n + 1):
                expect[i + k] += hi * comb(n, k) * (-1) ** k
        got = [0] * (deg + 1)
        got[0] = 1
        for (i, j), v in tb.entries.items():
            got[j] += v if i % 2 == 0 else -v
        assert got == expect, name


def test_b23_formula_braid():
    assert betti_table(analysis("braid-a3").engine).value(1, 3) == 0
    assert b23_formula(analysis("braid-a3").pres) == 2 \
        == tor_dimension(analysis("braid-a3").engine, 2, 3)


def test_b23_formula_on_quadratic_corpus():
    # wherever the ideal is quadratic the formula matches the elimination
    for name in BUILTINS:
        eng = analysis(name).engine
        if betti_table(eng).value(1, 3) == 0:
            assert b23_formula(analysis(name).pres) == tor_dimension(eng, 2, 3)


def test_b23_hypothesis_fails_on_9_3():
    assert betti_table(analysis("9_3_1").engine).value(1, 3) == 4
    assert betti_table(analysis("9_3_2").engine).value(1, 3) == 2


def test_b12_is_ideal_dimension():
    for name in BUILTINS:
        tb = betti_table(analysis(name).engine)
        assert tb.value(1, 2) == ambient_piece(analysis(name).arrangement,
                                               2).ideal_dim


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_b13_counts_the_cubic_generators(name):
    # b_{1,3} against dim I_3 - dim R_1 I_2 of the ambient echelons; 9_3_1
    # has 4 cubic generators and ex-2-4 one
    tb = betti_table(analysis(name).engine)
    assert tb.value(1, 3) == cubic_generators(analysis(name).arrangement)
    if name in ("9_3_1", "ex-2-4"):
        assert tb.value(1, 3) == {"9_3_1": 4, "ex-2-4": 1}[name]


def test_betti_render_layout():
    text = betti_table(analysis("braid-a3").engine).render_text()
    lines = text.splitlines()
    assert lines[0].split() == ["total", "1", "4", "5", "2"]
    assert lines[1].split() == ["0:", "1", "-", "-", "-"]
    assert lines[2].split() == ["1:", "-", "4", "2", "-"]
    assert lines[3].split() == ["2:", "-", "-", "3", "2"]


def test_betti_json_map():
    m = betti_table(analysis("braid-a3").engine).to_json_map()
    assert m["0,0"] == 1 and m["1,2"] == 4 and m["3,5"] == 2

