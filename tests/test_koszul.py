import random
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import otb.exact
import otb.koszul
import otb.orlik_terao
from otb.analysis import Analysis
from otb.arrangement import Arrangement, ArrangementError, cross
from otb.exact import (MODP_PRIMES, GenericityError, SparseColumns,
                       SparseReducer, modp_matrix, modp_rank, proved_rank)
from otb.koszul import (ReducedEngine, Strand, _differential_columns,
                        _Engine, b23_formula, betti_table, quadric_support,
                        tor_dimension)
from otb.orlik_terao import OTPresentation, terao_series

from conftest import (BENCH_FORMS, BUILTINS, ORACLE_FORMS, FullEngine,
                      OwnRow1Engine, ambient_piece, analysis, by_theorem,
                      cubic_generators, fraction_normal_form,
                      given_cycles_by_columns, oracle, own_reduction,
                      plant_non_commuting)


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


def _assert_matches_oracle(name, full):
    """The reduced table, and that of A's own reduction, equal the full
    Koszul complex's, and the full complex, which runs i up to d, has
    nothing beyond i = d-3."""
    expect = betti_table(full)
    for eng in (analysis(name).engine, own_reduction(name)):
        assert betti_table(eng).entries == expect.entries
    assert all(i <= analysis(name).arrangement.d - 3
               for (i, _) in expect.entries)
    cert = own_reduction(name).certificate
    assert cert["colength"] == cert["multiplicity"]


def test_reduced_agrees_with_full_on_small():
    for name in ("braid-a3", "ex-2-4"):
        _assert_matches_oracle(name, oracle(name))


@pytest.mark.parametrize("name", sorted(ORACLE_FORMS))
def test_reduced_matches_full_oracle(name):
    _assert_matches_oracle(name, FullEngine(analysis(name).pres))


def _small_engines(name) -> list:
    """A's own reduction of `name` and, for d <= 7, the full engine."""
    an = analysis(name)
    return [own_reduction(name)] + ([oracle(name)] if an.arrangement.d <= 7
                                    else [])


def _strands(eng) -> list:
    """(i, q) of every nonzero strand out of Wedge^i (x) C_q, q = 0..2."""
    return [(i, q) for i in range(1, eng.nvars + 1) for q in range(3)
            if eng.dim(q) and eng.dim(q + 1)]


def _strand_args(eng, i: int, q: int) -> tuple:
    return eng.nvars, i, eng.maps(q), eng.dim(q), eng.dim(q + 1)


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_strand_residues_are_those_of_its_columns(name):
    seen = 0
    for eng in _small_engines(name):
        for i, q in _strands(eng):
            cols, nrows = _differential_columns(*_strand_args(eng, i, q))
            strand = Strand(*_strand_args(eng, i, q))
            assert strand.nrows == nrows and strand.columns() == cols
            for p in MODP_PRIMES[:2]:
                a = strand.residues(p)
                assert a.dtype == np.int64
                assert np.array_equal(a, modp_matrix(cols, nrows, p)), (i, q)
            seen += 1
    assert seen or name == "triangle"


def _product_is_zero(cols, vec) -> bool:
    acc = {}
    for k, z in vec.items():
        for t, v in cols[k].items():
            acc[t] = acc.get(t, 0) + z * v
    return not any(acc.values())


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_strand_is_cycle_agrees_with_the_column_product(name):
    # random integer vectors, integer combinations of the columns of the
    # map into the strand (cycles, since d o d = 0), and those perturbed
    rng = random.Random("is-cycle:" + name)
    answers = set()
    for eng in _small_engines(name):
        for i, q in _strands(eng):
            strand = Strand(*_strand_args(eng, i, q))
            cols = strand.columns()
            vecs = [{k: rng.randint(-3, 3) for k in rng.sample(
                range(len(cols)), min(3, len(cols)))} for _ in range(3)]
            if i < eng.nvars and eng.dim(q - 1):
                into, _ = _differential_columns(
                    *_strand_args(eng, i + 1, q - 1))
                for _ in range(3):
                    vec = {}
                    for col in rng.sample(into, min(2, len(into))):
                        z = rng.randint(1, 3)
                        for k, v in col.items():
                            vec[k] = vec.get(k, 0) + z * v
                    vecs += [vec, {**vec, 0: vec.get(0, 0) + 1}]
            for vec in vecs:
                answer = strand.is_cycle(vec)
                assert answer == _product_is_zero(cols, vec), (i, q, vec)
                answers.add(answer)
    assert answers == {True, False} or name == "triangle"


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS))
                         + ("b3+1", "b3+2"))
def test_the_commutation_check_agrees_with_the_per_column_cycle_check(name):
    # in A's own reduction and, for d <= 7, the full engine, on every degree
    # q whose strands take known cycles: the maps commute and every column
    # of every map into Wedge^i (x) C_q is a cycle; with one map of degree q
    # planted out of step, the check raises and some column is no cycle
    seen = 0
    for eng in _small_engines(name):
        for q in sorted({q for i, q in _strands(eng)
                         if q and i < eng.nvars and eng.dim(q - 1)}):
            dims = [eng.dim(q - 1), eng.dim(q), eng.dim(q + 1)]
            outer, inner = eng.maps(q), eng.maps(q - 1)
            eng._check_commuting(q)
            planted = plant_non_commuting(outer, inner)
            stub = SimpleNamespace(
                nvars=eng.nvars, _commuting=set(),
                maps=lambda r: planted if r == q else eng.maps(r))
            with pytest.raises(ArithmeticError, match="not in the kernel"):
                _Engine._check_commuting(stub, q)
            for i in range(1, eng.nvars):
                assert given_cycles_by_columns(eng.nvars, i, outer, inner,
                                               dims), (name, i, q)
                assert not given_cycles_by_columns(eng.nvars, i, planted,
                                                   inner, dims), (name, i, q)
            seen += 1
    assert seen


def test_the_maps_are_checked_once_per_degree(monkeypatch):
    # a fresh full engine of braid-a3 ranks B_i for several i out of
    # degrees 1 and 2, and checks each degree's maps once
    checked = []
    check = _Engine._check_commuting

    def spy(self, q):
        if q not in self._commuting:
            checked.append(q)
        return check(self, q)
    monkeypatch.setattr(_Engine, "_check_commuting", spy)
    eng = FullEngine(OTPresentation(analysis("braid-a3").arrangement))
    betti_table(eng)
    assert sorted(checked) == [1, 2]
    assert len([k for k, how in eng.rank_proofs.items()
                if k[1] in (1, 2) and how != "koszul"]) > 2


def test_a_fraction_map_is_refused_by_the_mod_p_layer():
    # two variables, dims 1 and 1: B_1 is the column of the two maps; a
    # Fraction entry raises wherever it would become a residue
    p = MODP_PRIMES[0]
    strand = Strand(2, 1, [[{0: 1}], [{0: Fraction(-2, 3)}]], 1, 1)
    cols = strand.columns()
    for residues in (strand.residues,
                     lambda p: modp_matrix(cols, strand.nrows, p),
                     SparseColumns(cols, strand.nrows).residues):
        with pytest.raises(TypeError):
            residues(p)
    assert Strand(2, 1, [[{0: 1}], [{0: -2}]], 1, 1).residues(p).tolist() \
        == [[1], [p - 2]]


def _strand_rank_by_reducer(eng, i: int, q: int) -> int:
    """The exact rank of the strand, fed to the reducer row by row: on
    B_4 of the seed-0 b3+2 (560 columns, 1288 rows) that is about a hundred
    times faster than by its columns."""
    cols, _ = _differential_columns(eng.nvars, i, eng.maps(q),
                                    eng.dim(q), eng.dim(q + 1))
    rows: dict = {}
    for j, col in enumerate(cols):
        for r, v in col.items():
            rows.setdefault(r, {})[j] = v
    red = SparseReducer(len(cols))
    for r in sorted(rows):
        red.add(rows[r])
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
    # the engine of the quadric support too, where one was built
    betti_table(eng, verify_regularity=True)
    assert eng.rank_proofs
    sub = vars(eng).get("support_engine")
    for e in [eng] + ([sub] if sub else []):
        for key, how in e.rank_proofs.items():
            assert how in ("mod-p", "koszul", "linear strand", "quadrics") \
                or how.startswith("lifted "), (key, how)
    return sub


@pytest.mark.parametrize("name", BUILTINS)
def test_no_builtin_strand_falls_back(name):
    eng = analysis(name).engine
    _assert_no_fallback(eng)


def test_no_strand_of_the_braid_plus_one_oracle_falls_back():
    an = analysis("braid-a3+1")
    assert _assert_no_fallback(an.engine).rank_proofs
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
    # B_i: Wedge^i V (x) C_1 -> Wedge^{i-1} V (x) C_2.  B_1 and B_2 have
    # full row rank mod p (C(A) is generated in degree 1, and b_{1,3} = 0),
    # so the row count proves them; B_3 lifts its b_{3,4} = 1 cycle beyond
    # those of the Koszul complex of V
    eng = analysis("b3").engine
    tb = betti_table(eng)
    proofs = eng.rank_proofs
    assert {i: proofs[(i, 1)] for i in (1, 2, 3)} == {
        1: "mod-p", 2: "mod-p", 3: "lifted 1"}
    assert [tb.value(i, i + 1) for i in (1, 2, 3, 4)] == [13, 22, 1, 0]
    assert tb.value(1, 3) == 0
    # b_{3,4} = 1 ends the linear strand: B_4, B_5 and B_6 are not ranked
    assert {i: proofs[(i, 1)] for i in (4, 5, 6)} == {
        4: "linear strand", 5: "linear strand", 6: "linear strand"}
    assert all(how == "koszul" for (i, q), how in proofs.items() if q != 1)


@pytest.mark.parametrize("name, proofs", [
    ("9_3_1", {1: "mod-p", 2: "lifted 2"}),
    ("b3+2", {2: "quadrics", 3: "quadrics"})])
def test_b2_lifts_where_b13_is_positive(name, proofs):
    # b_{1,3} > 0 (4 cubic generators on 9_3_1; b3+2 is the seed-0 input of
    # the scale workload): B_2 falls short of full row rank, and lifts on
    # 9_3_1; on b3+2 its rank is forced by the quadric support, b3
    eng = ReducedEngine(analysis(name).pres)
    assert betti_table(eng).value(1, 3) > 0
    assert eng.rank_of_differential(2, 1) < eng.nvars * eng.dim(2)
    assert {i: eng.rank_proofs[(i, 1)] for i in proofs} == proofs


def _koszul_strands(eng) -> set:
    """After `betti_table`, the (i, 0) strands forced as Koszul maps, each
    checked against the reducer."""
    betti_table(eng)
    forced = {key for key, how in eng.rank_proofs.items() if how == "koszul"}
    for (i, q) in forced:
        assert q == 0
        assert eng.rank_of_differential(i, q) == comb(eng.nvars, i) == \
            _strand_rank_by_reducer(eng, i, q), (i, q)
    return forced


def _fresh_own_reduction(name) -> ReducedEngine:
    """A new engine with A's own theta, as `own_reduction` chooses it."""
    pres = analysis(name).pres
    return (OwnRow1Engine if by_theorem(pres.arrangement)
            else ReducedEngine)(pres)


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_koszul_strand_ranks_match_the_reducer(name):
    engines = [_fresh_own_reduction(name)]
    if analysis(name).arrangement.d <= 7:
        engines.append(FullEngine(analysis(name).pres))
    for eng in engines:
        forced = _koszul_strands(eng)
        # homology(i, 1) needs B_{i+1} out of C_0, for i up to nvars - 1
        assert {i for (i, _) in forced} == set(
            range(2, eng.nvars + 1)), (name, type(eng).__name__)


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(BENCH_FORMS)))
def test_a_strand_of_full_row_rank_mod_p_lifts_nothing(name, monkeypatch):
    # across every strand ranked for the table, `_lift_cycles` runs only
    # where the rank mod p is short of the row count
    eng = ReducedEngine(analysis(name).pres)
    lifts = []
    lift = otb.exact._lift_cycles
    prove = otb.koszul.proved_rank
    seen = []

    def spy_lift(*args):
        lifts.append(args)
        return lift(*args)

    def spy(matrix, cycles):
        del lifts[:]
        r, how = prove(matrix, cycles)
        p, nrows = MODP_PRIMES[0], matrix.nrows
        full = modp_rank(matrix.residues(p), p) == nrows
        if full:
            assert (r, how, lifts) == (nrows, "mod-p", []), (nrows, how)
        seen.append(full)
        return r, how
    monkeypatch.setattr(otb.exact, "_lift_cycles", spy_lift)
    monkeypatch.setattr(otb.koszul, "proved_rank", spy)
    betti_table(eng, verify_regularity=True)
    # ex-2-4 has no triple point: no strand is ranked
    assert any(seen) == bool(eng.support)


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_the_kernel_read_off_a_strand_echelon_is_the_square_block_kernel(
        name, monkeypatch):
    # at the first prime, `proved_rank` hands `_lift_cycles` the kernel it
    # read off the strand's own LU; `_square_kernel` on the block at the
    # pivot rows, at that prime, must give the same vectors
    lift = otb.exact._lift_cycles
    checked = []

    def spy(matrix, basis, prows, targets, p, first=None):
        cols = matrix.columns()
        at = {c: t for t, c in enumerate(prows)}
        square = [{at[c]: v for c, v in cols[k].items() if c in at}
                  for k in basis + targets]
        x = otb.exact._square_kernel(modp_matrix(square, len(basis), p),
                                     len(basis), p)
        assert first is not None and x is not None
        assert first.tolist() == x.tolist()
        checked.append(len(targets))
        return lift(matrix, basis, prows, targets, p, first)
    monkeypatch.setattr(otb.exact, "_lift_cycles", spy)
    engines = [ReducedEngine(analysis(name).pres)]
    if analysis(name).arrangement.d <= 7:
        engines.append(FullEngine(analysis(name).pres))
    for eng in engines:
        betti_table(eng, verify_regularity=True)
    lifted = sum(int(how.split()[1]) for eng in engines
                 for how in eng.rank_proofs.values()
                 if how.startswith("lifted"))
    assert sum(checked) == lifted


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_integer_maps_are_a_positive_multiple_of_the_fraction_maps(name):
    # the maps of A's own reduction in each degree are the induced maps
    # over Q, recomputed here by `reduce`, times one positive integer
    eng = own_reduction(name)
    pres = eng.pres
    theta = [[int(x) for x in row] for row in eng.certificate["theta"]]
    reducers = {}
    for q in (1, 2):
        reducers[q] = SparseReducer(len(pres.graded_piece(q)))
        for row in otb.koszul._theta_products(pres, theta, q):
            reducers[q].add(row)
    assert reducers[1].nonpivot_columns() == eng.kept_vars
    for q in (0, 1):
        src = reducers[q].nonpivot_columns() if q else [0]
        dst = {c: t for t, c in enumerate(reducers[q + 1].nonpivot_columns())}
        fracs = [[{dst[c]: v for c, v in reducers[q + 1].reduce(
                      dict(pres.multiplication_maps(q)[var][k])).items()}
                  for k in src] for var in eng.kept_vars]
        ints = eng.maps(q)
        scale = {Fraction(x, fracs[s][k][c])
                 for s, cols in enumerate(ints) for k, col in enumerate(cols)
                 for c, x in col.items()}
        assert len(scale) <= 1, (name, q)
        lam = scale.pop() if scale else 1
        assert lam > 0 and lam.denominator == 1
        assert ints == [[{c: lam * v for c, v in col.items()} for col in cols]
                        for cols in fracs]
        assert all(type(x) is int for cols in ints for col in cols
                   for x in col.values())


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(BENCH_FORMS)))
def test_theta_rows_are_positive_multiples_of_the_fraction_rows(name):
    # each integer row of theta C_{q-1} is its product over Q, rewritten in
    # Fractions, times one positive integer, for A's own theta
    eng = own_reduction(name)
    pres = eng.pres
    theta = [[int(x) for x in row] for row in eng.certificate["theta"]]
    for q in (1, 2, 3):
        rows = otb.koszul._theta_products(pres, theta, q)
        fracs = [fraction_normal_form(pres, {
                     m[:s] + (m[s] + 1,) + m[s + 1:]: a
                     for s, a in enumerate(row) if a})
                 for row in theta for m in pres.graded_piece(q - 1)]
        assert len(rows) == len(fracs), (name, q)
        for got, want in zip(rows, fracs):
            assert all(type(v) is int for v in got.values())
            assert got.keys() == want.keys()
            scale = {Fraction(v, want[c]) for c, v in got.items()}
            assert len(scale) <= 1, (name, q)
            assert all(lam > 0 and lam.denominator == 1 for lam in scale)


# the generic lines that bench/inputs.extended_forms adds to b3 with
# Random("b3+4:0"); each meets the others and b3 in double points only
B3_EXTRA = [(3, 4, -2), (4, 2, 1), (-4, 3, -2), (2, -1, 4)]


def _b3_plus(k: int) -> Analysis:
    forms = list(analysis("b3").arrangement.forms) + B3_EXTRA[:k]
    return Analysis(Arrangement(forms, name="b3+%d" % k))


def _forced_strands(eng, tag: str = "linear strand", own=None) -> set:
    """After `betti_table`, the i of every B_i forced with `tag`, each
    checked against the reducer on the same strand of `own`, A's own
    reduction, by default `eng` itself."""
    betti_table(eng)
    forced = {key for key, how in eng.rank_proofs.items() if how == tag}
    for (i, q) in forced:
        assert q == 1
        assert eng.rank_of_differential(i, q) == \
            _strand_rank_by_reducer(own or eng, i, q), (i, q)
    return {i for (i, _) in forced}


# where row 1 ends (its first entry <= 1), B_i is forced for i past the end
# and up to d - 3; on braid-a3 it ends at d - 3 = 3, and B_4 = 0 stays
# untagged.  Where the quadric support is not all of A, every B_i with
# C_2 != 0 is forced by it instead
FORCED = {"9_3_1": {4, 5, 6}, "9_3_2": {3, 4, 5, 6}, "b3": {4, 5, 6},
          "random-6-1": {3}, "random-6-3": {3}}
BY_QUADRICS = {"braid-a3+1": {1, 2, 3, 4}, "ex-2-4": {1},
               "four-generic": {1}, "random-5-2": {1, 2},
               "random-6-2": {1, 2, 3}}


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS)))
def test_linear_strand_ranks_match_the_reducer(name):
    eng = ReducedEngine(analysis(name).pres)
    own = own_reduction(name)
    assert _forced_strands(eng, own=own) == FORCED.get(name, set())
    assert _forced_strands(eng, "quadrics", own) == \
        BY_QUADRICS.get(name, set())


def test_linear_strand_ranks_of_b3_plus_a_line_match_the_reducer():
    # every B_i of b3+1 is forced by its quadric support, b3, where the
    # linear strand forces B_4 on
    an = _b3_plus(1)
    eng = an.engine
    assert _forced_strands(eng, "quadrics", OwnRow1Engine(an.pres)) == {
        1, 2, 3, 4, 5, 6, 7}
    assert _forced_strands(eng.support_engine) == {4, 5, 6}


def test_betti_on_b3_ranks_no_strand_past_the_linear_strand(monkeypatch):
    # B_i for i >= 4 maps Wedge^i V (x) C_1 with C(6, i) * 6 columns, past
    # b_{3,4} = 1
    eng = ReducedEngine(analysis("b3").pres)
    shapes = []
    prove = otb.koszul.proved_rank

    def spy(matrix, cycles):
        shapes.append((len(matrix.columns()), matrix.nrows))
        return prove(matrix, cycles)
    monkeypatch.setattr(otb.koszul, "proved_rank", spy)
    tb = betti_table(eng)
    h2 = eng.dim(2)
    assert shapes
    assert not {(comb(6, i) * 6, comb(6, i - 1) * h2)
                for i in (4, 5, 6)} & set(shapes)
    assert [tb.value(i, i + 2) for i in (4, 5)] == [85, 42]


def test_betti_on_b3_plus_two_ranks_no_560_column_strand(monkeypatch):
    # the seed-0 b3+2 of the scale workload: row 1 is read off its quadric
    # support b3, so only b3's strands are ranked, where b_{3,4} = 1 forces
    # B_4, and B_3 (120 columns) is the largest; the table is the one
    # computed with every strand of b3+2 up to B_4 ranked
    eng = ReducedEngine(analysis("b3+2").pres)
    shapes = []
    prove = otb.koszul.proved_rank

    def spy(matrix, cycles):
        shapes.append((matrix.nvars,
                       comb(matrix.nvars, matrix.i) * matrix.c_src))
        return prove(matrix, cycles)
    monkeypatch.setattr(otb.koszul, "proved_rank", spy)
    tb = betti_table(eng)
    assert {n for n, _ in shapes} == {6}
    assert max(c for _, c in shapes) == comb(6, 3) * 6 == 120
    assert tb.entries == {
        (1, 2): 13, (2, 3): 22, (3, 4): 1,
        **{(i, i + 2): v for i, v in enumerate(
            [38, 267, 784, 1190, 1072, 581, 176, 23], start=1)}}
    assert {eng.rank_proofs[(i, 1)] for i in range(1, 9)} == {"quadrics"}
    assert eng.support_engine.rank_proofs[(4, 1)] == "linear strand"


# the k with b_{k,k+1} = 1, where the stop ends the linear strand
ROW1_ONE = {"b3": [3], "b3+1": [3], "b3+2": [3], "random-5-2": [1]}


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS))
                         + tuple(sorted(BENCH_FORMS)))
def test_a_row1_entry_of_one_ends_the_linear_strand(name):
    # the theorem behind the stop, with the computation it replaces as the
    # oracle: where b_{k,k+1} = 1, B_{k+1} of A's own reduction, ranked by
    # the reducer, leaves b_{k+1,k+2} = 0
    tb = betti_table(analysis(name).engine)
    own = own_reduction(name)
    n = own.nvars
    ones = [k for k in range(1, n + 1) if tb.value(k, k + 1) == 1]
    assert ones == ROW1_ONE.get(name, [])
    for k in ones:
        assert comb(n, k + 1) * own.dim(1) \
            - _strand_rank_by_reducer(own, k + 1, 1) \
            - _strand_rank_by_reducer(own, k + 2, 0) == 0, k


def test_the_stop_forces_only_the_strands_past_its_entry():
    # b_{3,4} = 1 on b3: B_4 on is forced, not B_3, whose rank gave it
    eng = ReducedEngine(analysis("b3").pres)
    betti_table(eng)
    assert [eng._past_linear_strand(i, 1) for i in range(1, 7)] == \
        [False] * 3 + [True] * 3
    assert not any(eng._past_linear_strand(i, q) for i in range(1, 7)
                   for q in (0, 2))


def test_tor_23_alone_ranks_only_its_two_strands(monkeypatch):
    # scroll-check asks for b_{2,3} only: no stop is known yet, so only
    # the two strands of homology(2, 1) are touched, and B_1 is not; the
    # one out of C_0 is forced as a Koszul map, so one strand is ranked
    eng = ReducedEngine(analysis("9_3_1").pres)
    calls = []
    prove = otb.koszul.proved_rank

    def spy(matrix, cycles):
        calls.append((len(matrix.columns()), matrix.nrows))
        return prove(matrix, cycles)
    monkeypatch.setattr(otb.koszul, "proved_rank", spy)
    assert tor_dimension(eng, 2, 3) == 2
    assert eng.rank_proofs == {(2, 1): "lifted 2", (3, 0): "koszul"}
    assert len(calls) == 1


def test_b3_plus_four_lines_table_is_pinned():
    # d = 13: the table of the literal computation, every strand ranked
    tb = betti_table(_b3_plus(4).engine)
    assert [tb.value(i, i + 1) for i in range(1, 4)] == [13, 22, 1]
    assert [tb.value(i, i + 2) for i in range(1, 11)] == [
        112, 901, 3192, 6510, 8604, 7665, 4600, 1791, 410, 42]
    assert tb.totals() == [1, 125, 923, 3193, 6510, 8604, 7665, 4600, 1791,
                           410, 42]
    assert len(tb.entries) == 13


def _9_3_1_b2():
    """B_2 of 9_3_1, a strand that lifts, with its known cycles."""
    eng = analysis("9_3_1").engine
    return (Strand(eng.nvars, 2, eng.maps(1), eng.dim(1), eng.dim(2)),
            Strand(eng.nvars, 3, eng.maps(0), eng.dim(0), eng.dim(1)))


def test_proved_rank_builds_each_residue_matrix_once(monkeypatch):
    # a strand that lifts: its columns are reduced mod each prime tried once,
    # the first for the echelon and the next for the lift's square block
    strand, cycles = _9_3_1_b2()
    primes = []
    build = strand.residues

    def spy(p):
        primes.append(p)
        return build(p)
    monkeypatch.setattr(strand, "residues", spy)
    assert proved_rank(strand, cycles)[1] == "lifted 2"
    assert primes == list(MODP_PRIMES[:2])


def test_proved_rank_echelons_each_residue_matrix_once(monkeypatch):
    # the same strand: one echelon of its residue matrix and one of the
    # known cycles, which serves both the mod-p test and the lift
    strand, cycles = _9_3_1_b2()
    shapes = []
    echelon = otb.exact._echelon_mod_p

    def spy(a, p):
        shapes.append(a.shape)
        return echelon(a, p)
    monkeypatch.setattr(otb.exact, "_echelon_mod_p", spy)
    assert proved_rank(strand, cycles)[1] == "lifted 2"
    assert len(shapes) == 2
    assert shapes[0] == (len(strand.columns()), strand.nrows)
    assert shapes[1][0] == len(cycles.columns())


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



# ---------------------------------------------------------------------------
# Row 1 lives on the triple points


def _row1_matches_its_own_ranks(arr) -> ReducedEngine:
    """The table with row 1 read off the quadric support, and, where that
    is a proper part of A, row 2 off Cohen-Macaulayness, equals the one of
    A's own reduction with every B_i of A ranked: that reduction certifies
    a theta of A within the five draws, its entries and strand3 are the
    engine's, and for d <= 7 the full Koszul complex has the same entries;
    returns the engine."""
    eng = ReducedEngine(Analysis(arr).pres)
    own = OwnRow1Engine(Analysis(arr).pres)
    assert len(own.certificate["theta"]) == 3
    got = betti_table(eng, verify_regularity=True)
    want = betti_table(own, verify_regularity=True)
    assert (got.entries, got.strand3) == (want.entries, want.strand3)
    assert "quadrics" not in own.rank_proofs.values()
    if arr.d <= 7:
        assert betti_table(FullEngine(Analysis(arr).pres)).entries == \
            got.entries
    return eng


# the test inputs whose quadric support is neither empty nor all of A
BY_THEOREM = {"braid-a3+1", "random-5-2", "random-6-2", *BENCH_FORMS}


@pytest.mark.parametrize("name", BUILTINS + tuple(sorted(ORACLE_FORMS))
                         + tuple(sorted(BENCH_FORMS)))
def test_row1_of_the_quadric_support_is_that_of_the_arrangement(name):
    arr = analysis(name).arrangement
    eng = _row1_matches_its_own_ranks(arr)
    proper = 0 < len(eng.support) < arr.d
    assert proper == (name in BY_THEOREM) == by_theorem(arr)
    assert ("support_engine" in vars(eng)) == proper
    if proper:
        sub = eng.support_engine
        assert sub.pres.arrangement.forms == [arr.forms[k]
                                              for k in eng.support]
        assert sub.support == list(range(len(eng.support)))


def _added_line(rng, arr, through_double: bool):
    """A line through a double point of `arr`, or one through no point of
    `arr` at all, with small integer coefficients."""
    points = [f.point for f in arr.flats]
    if through_double:
        p = rng.choice([f.point for f in arr.flats if len(f.lines) == 2])
        return cross(p, [rng.randint(-3, 3) for _ in range(3)])
    form = [rng.randint(-4, 4) for _ in range(3)]
    if any(sum(a * x for a, x in zip(form, p)) == 0 for p in points):
        return None
    return form


@settings(max_examples=16, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(("braid-a3", "ex-2-4", "9_3_1", "b3")),
       kinds=st.lists(st.booleans(), min_size=1, max_size=3),
       rng=st.randoms(use_true_random=False))
def test_row1_on_added_lines_is_that_of_the_arrangement(name, kinds, rng):
    # generic lines leave the quadric support alone; a line through a
    # double point makes it a triple point and joins the support
    arr = analysis(name).arrangement
    for through_double in kinds:
        for _ in range(100):
            form = _added_line(rng, arr, through_double)
            try:
                grown = Arrangement(arr.forms + [form]) if form else None
            except ArrangementError:
                grown = None
            if grown:
                arr = grown
                break
    _row1_matches_its_own_ranks(arr)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_own_reduction_of_b3_plus_lines_agrees_with_the_theorem(k):
    # seed-0 b3+1..b3+4 (d = 10..13), whose quadric support is b3
    arr = _b3_plus(k).arrangement
    assert by_theorem(arr)
    _row1_matches_its_own_ranks(arr)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(("braid-a3", "9_3_1", "9_3_2", "b3")),
       k=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_own_reduction_with_generic_lines_agrees_with_the_theorem(name, k,
                                                                 seed):
    # every line of the builtin lies on a triple point, and a line through
    # no point of the arrangement adds none: the quadric support is the
    # builtin, a proper part of the grown arrangement
    arr = analysis(name).arrangement
    rng = random.Random(seed)
    while arr.d < analysis(name).arrangement.d + k:
        form = _added_line(rng, arr, False)
        try:
            arr = Arrangement(arr.forms + [form]) if form else arr
        except ArrangementError:
            pass
    assert quadric_support(arr) == list(range(analysis(name).arrangement.d))
    assert by_theorem(arr)
    _row1_matches_its_own_ranks(arr)


def _tried_thetas(monkeypatch) -> list:
    """(arrangement name, accepted) for every theta drawn."""
    tried = []
    try_theta = ReducedEngine._try_theta

    def spy(self, theta, h):
        ok = try_theta(self, theta, h)
        tried.append((self.pres.arrangement.name, ok))
        return ok
    monkeypatch.setattr(ReducedEngine, "_try_theta", spy)
    return tried


def test_betti_on_b3_plus_two_does_the_work_of_its_support_only(monkeypatch):
    # the seed-0 b3+2 of the scale workload: theta is drawn for its quadric
    # support b3 only, the circuits are enumerated once (b3's), and every
    # mod-p echelon is one of b3's own table; A proves no graded piece, so
    # it builds no product, map or strand
    def run(arr) -> tuple:
        shapes, circuits = [], []
        echelon = otb.exact._echelon_mod_p
        enumerate_circuits = otb.orlik_terao.enumerate_circuits

        def spy_echelon(a, p):
            shapes.append(a.shape)
            return echelon(a, p)

        def spy_circuits(a, *args):
            circuits.append(a.name)
            return enumerate_circuits(a, *args)
        with monkeypatch.context() as m:
            tried = _tried_thetas(m)
            m.setattr(otb.exact, "_echelon_mod_p", spy_echelon)
            m.setattr(otb.orlik_terao, "enumerate_circuits", spy_circuits)
            an = Analysis(arr)
            tb = betti_table(an.engine, verify_regularity=True)
        return an, tb, tried, sorted(shapes), circuits

    arr = Arrangement(BENCH_FORMS["b3+2"], name="b3+2")
    an, tb, tried, shapes, circuits = run(arr)
    sub = "b3+2:quadrics"
    assert {n for n, _ in tried} == {sub}
    assert [ok for _, ok in tried].count(True) == 1
    assert circuits == [sub]
    assert an.pres._pieces == {} and "circuits" not in vars(an.pres)
    assert an.engine.rank_proofs and all(
        how in ("koszul", "quadrics") for how in an.engine.rank_proofs.values())
    b = Arrangement([arr.forms[k] for k in an.engine.support], name=sub)
    assert run(b)[3] == shapes
    assert tb.certificate == {
        "cohen_macaulay": "Proudfoot and Speyer, A broken circuit ring, 2006",
        "h_vector": _h_vector(an.pres),
        "quadric_support": list(range(1, 10)),
        "quadric_support_certificate": an.engine.support_engine.certificate}
    assert "theta" in tb.certificate["quadric_support_certificate"]


def _engine_builds(monkeypatch) -> list:
    """The arrangements whose presentation or reduced engine is built."""
    built = []
    init_p, init_e = OTPresentation.__init__, ReducedEngine.__init__

    def spy_p(self, arr):
        built.append(("presentation", arr.d))
        init_p(self, arr)

    def spy_e(self, pres):
        built.append(("engine", pres.d))
        init_e(self, pres)
    monkeypatch.setattr(OTPresentation, "__init__", spy_p)
    monkeypatch.setattr(ReducedEngine, "__init__", spy_e)
    return built


def test_the_support_of_a_pencil_is_completed_to_rank_three(monkeypatch):
    # four lines through (0, 0, 1) span rank 2; the first other line, z,
    # completes them, and the last line is left out
    arr = Arrangement([(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                       (1, -1, 0), (1, 2, 3)], name="pencil+2")
    assert quadric_support(arr) == [0, 1, 2, 3, 4]
    built = _engine_builds(monkeypatch)
    eng = _row1_matches_its_own_ranks(arr)
    assert eng.support_engine.pres.d == 5
    assert built.count(("engine", 5)) == built.count(("presentation", 5)) == 1
    assert betti_table(eng).value(1, 2) == 3   # C(4 - 1, 2) quadrics


def test_no_triple_point_means_no_quadric_and_no_second_engine(monkeypatch):
    arr = analysis("ex-2-4").arrangement
    assert quadric_support(arr) == []
    built = _engine_builds(monkeypatch)
    tried = _tried_thetas(monkeypatch)
    maps = []
    multiplication_maps = OTPresentation.multiplication_maps

    def spy(self, q):
        maps.append(q)
        return multiplication_maps(self, q)
    monkeypatch.setattr(OTPresentation, "multiplication_maps", spy)
    eng = ReducedEngine(OTPresentation(arr))
    tb = betti_table(eng, verify_regularity=True)
    assert built == [("presentation", 4), ("engine", 4)]
    assert [tb.value(i, i + 1) for i in (1, 2)] == [0, 0]
    assert eng.rank_proofs[(1, 1)] == "quadrics"
    # it accepts one theta of its own, but ranks no strand, so it builds
    # no map
    assert {n for n, _ in tried} == {"ex-2-4"}
    assert [ok for _, ok in tried].count(True) == 1
    assert maps == [] and eng._maps == {}


@pytest.mark.parametrize("name", ["braid-a3", "9_3_1", "9_3_2", "b3"])
def test_every_line_on_a_triple_point_builds_no_second_engine(name,
                                                              monkeypatch):
    arr = analysis(name).arrangement
    assert quadric_support(arr) == list(range(arr.d))
    built = _engine_builds(monkeypatch)
    tried = _tried_thetas(monkeypatch)
    eng = ReducedEngine(OTPresentation(arr))
    betti_table(eng, verify_regularity=True)
    assert built == [("presentation", arr.d), ("engine", arr.d)]
    assert "quadrics" not in eng.rank_proofs.values()
    # it accepts one theta of its own
    assert {n for n, _ in tried} == {name}
    assert [ok for _, ok in tried].count(True) == 1


def test_the_exact_fallback_ranks_the_rows(monkeypatch):
    # B_2 and B_3 of the builtins with every lift refused: where a strand
    # lifts, the fallback gives the reducer's rank from the strand's rows,
    # all nrows of them
    fed = []
    add = SparseReducer.add

    def spy_add(self, row):
        fed.append(row)
        return add(self, row)
    exact = {}
    for name in BUILTINS:
        eng = analysis(name).engine
        for i in (2, 3):
            if i > eng.nvars:
                continue
            strand = Strand(*_strand_args(eng, i, 1))
            cycles = Strand(*_strand_args(eng, i + 1, 0))
            lifted = proved_rank(strand, cycles)
            if not lifted[1].startswith("lifted"):
                continue
            with monkeypatch.context() as m:
                m.setattr(otb.exact, "_lift_cycles", lambda *args: None)
                m.setattr(SparseReducer, "add", spy_add)
                del fed[:]
                exact[(name, i)] = proved_rank(strand, cycles)
                assert len(fed) == strand.nrows, (name, i)
            assert exact[(name, i)] == (
                _strand_rank_by_reducer(eng, i, 1), "exact") == \
                (lifted[0], "exact")
    assert set(exact) == {("9_3_1", 2), ("b3", 3)}
