import json
import random
from math import comb

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from otb.arrangement import (Arrangement, ArrangementError,
                             parse_arrangement, poincare_polynomial)
from otb.exact import seeded_rng

from conftest import (BENCH_FORMS, BUILTINS, ORACLE_FORMS, analysis,
                      incidence_by_scan)


def test_builtin_braid_forms(braid):
    assert braid.forms == [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                           (1, -1, 0), (1, 0, -1), (0, 1, -1)]


def test_builtin_9_3_2_forms():
    a = analysis("9_3_2").arrangement
    assert a.d == 9
    assert (2, 3, 3) in a.forms and (1, 2, 3) in a.forms


def test_duplicate_line_rejected():
    with pytest.raises(ArrangementError, match="duplicate line"):
        Arrangement([(1, 0, 0), (2, 0, 0), (0, 1, 0)])


def test_non_essential_rejected():
    # three concurrent lines only span a 2-dimensional space of forms
    with pytest.raises(ArrangementError, match="non-essential"):
        Arrangement([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_too_few_lines_rejected():
    with pytest.raises(ArrangementError):
        Arrangement([(1, 0, 0), (0, 1, 0)])


def test_parse_json_and_rational_normalization():
    src = json.dumps({"name": "t", "forms": [["1/2", 0, 0], [0, 1, 0],
                                             [0, 0, 1], [1, "2/3", 1]]})
    a = parse_arrangement(src)
    assert a.forms[0] == (1, 0, 0)
    assert a.forms[3] == (3, 2, 3)


def test_parse_malformed_rational():
    src = json.dumps({"forms": [["1/x", 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises(ArrangementError, match="malformed rational"):
        parse_arrangement(src)


def test_parse_unknown_builtin_message():
    with pytest.raises(ArrangementError):
        parse_arrangement("no-such-arrangement")


@pytest.mark.parametrize("doc, message", [
    ({"forms": [5, 6, 7]}, "exactly 3 coefficients"),
    ({"forms": 5}, "must be a list"),
    ({"forms": [[1, 0, 0], [0, 1, 0], "001"]}, "exactly 3 coefficients"),
    ({"forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "name": 7}, "string"),
    ({"forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]}, "zero"),
])
def test_parse_rejects_bad_shapes(doc, message):
    with pytest.raises(ArrangementError, match=message):
        parse_arrangement(json.dumps(doc))


def test_braid_flats(braid):
    triples = [f for f in braid.flats if f.mu == 2]
    doubles = [f for f in braid.flats if f.mu == 1]
    assert len(triples) == 4 and len(doubles) == 3
    assert {f.point for f in triples} == {(0, 0, 1), (0, 1, 0), (1, 0, 0),
                                          (1, 1, 1)}


def test_9_3_flat_counts():
    for name in ("9_3_1", "9_3_2"):
        a = analysis(name).arrangement
        mus = sorted(f.mu for f in a.flats)
        assert mus == [1] * 9 + [2] * 9


def test_b3_flat_counts():
    a = analysis("b3").arrangement
    mus = sorted(f.mu for f in a.flats)
    assert mus == [1] * 6 + [2] * 4 + [3] * 3


def test_added_generic_lines_make_double_points(braid):
    rng = seeded_rng("generic-lines")
    base = [list(f) for f in braid.forms]
    for _ in range(2):
        while True:
            cand = [rng.randint(-30, 30) for _ in range(3)]
            try:
                arr = Arrangement(base + [cand])
            except ArrangementError:
                continue
            break
        new_flats = {f.point: f for f in arr.flats}
        old_points = {f.point for f in Arrangement(base).flats}
        fresh = [f for p, f in new_flats.items() if p not in old_points]
        assert fresh and all(f.mu == 1 for f in fresh)
        base.append(cand)


def test_poincare_braid(braid):
    assert poincare_polynomial(braid).coefficients == (1, 6, 11, 6)
    assert str(poincare_polynomial(braid)) == "1+6t+11t^2+6t^3"


def test_poincare_9_3():
    for name in ("9_3_1", "9_3_2"):
        p = poincare_polynomial(analysis(name).arrangement)
        assert p.coefficients == (1, 9, 27, 19)
        assert p.projective_coefficients() == (1, 8, 19)


def test_poincare_triangle(triangle):
    assert poincare_polynomial(triangle).coefficients == (1, 3, 3, 1)


def test_poincare_b3_factors():
    # free with exponents 1, 3, 5
    p = poincare_polynomial(analysis("b3").arrangement).coefficients
    assert p == (1, 9, 23, 15)


def test_double_count_identity():
    for name in BUILTINS:
        a = analysis(name).arrangement
        assert comb(a.d, 2) == sum(comb(f.mu + 1, 2) for f in a.flats)


def test_b2_is_sum_mu():
    for name in BUILTINS:
        a = analysis(name).arrangement
        assert poincare_polynomial(a).coefficients[2] == a.sum_mu()


def test_poincare_divisible_by_one_plus_t():
    for name in BUILTINS:
        p = poincare_polynomial(analysis(name).arrangement)
        q = p.projective_coefficients()
        # (1 + t) * q == p
        c = p.coefficients
        assert q[0] == c[0] and q[0] + q[1] == c[1] \
            and q[1] + q[2] == c[2] and q[2] == c[3]


def test_flats_permutation_equivariant(braid):
    rng = random.Random(17)
    perm = list(range(braid.d))
    rng.shuffle(perm)
    shuffled = Arrangement([braid.forms[i] for i in perm])
    orig = {f.point: f.lines for f in braid.flats}
    for f in shuffled.flats:
        assert tuple(sorted(perm[i] for i in f.lines)) \
            == tuple(sorted(orig[f.point]))


@pytest.mark.parametrize("name", BUILTINS + tuple(ORACLE_FORMS)
                         + tuple(BENCH_FORMS))
def test_incidence_read_off_the_pairs_matches_the_scan(name):
    arr = analysis(name).arrangement
    assert [(f.point, f.lines) for f in arr.flats] == incidence_by_scan(arr)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=3,
                max_size=10))
def test_incidence_matches_the_scan_on_drawn_arrangements(forms):
    # small coefficients, so that many lines meet in triple points and more
    try:
        arr = Arrangement(forms)
    except ArrangementError:
        assume(False)
    assert [(f.point, f.lines) for f in arr.flats] == incidence_by_scan(arr)
