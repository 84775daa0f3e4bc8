import random

import pytest

import otb.circuits
from otb.arrangement import Arrangement, ArrangementError
from otb.circuits import circuit_relation, enumerate_circuits
from otb.cli import run
from otb.exact import MPoly, kernel_basis

from conftest import BUILTINS, ORACLE_FORMS, analysis, circuits_by_kernels


def test_braid_triples(braid):
    cs = enumerate_circuits(braid, 3)
    assert [(c.indices, c.coeffs) for c in cs] == [
        ((0, 1, 3), (1, -1, -1)),
        ((0, 2, 4), (1, -1, -1)),
        ((1, 2, 5), (1, -1, -1)),
        ((3, 4, 5), (1, -1, 1)),
    ]


def test_ex_2_4_single_circuit():
    a = analysis("ex-2-4").arrangement
    cs = enumerate_circuits(a, 4)
    assert len(cs) == 1
    assert cs[0].indices == (0, 1, 2, 3)
    assert cs[0].coeffs == (1, 1, 1, -1)


def test_triangle_has_no_circuits(triangle):
    assert enumerate_circuits(triangle, 3) == []


def test_four_generic_lines_single_quadruple_circuit():
    # a triangle plus one generic line: the only circuit has size 4
    from otb.arrangement import Arrangement
    a = Arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)])
    cs = enumerate_circuits(a, 4)
    assert len(cs) == 1 and cs[0].size == 4


def test_relation_ex_2_4():
    a = analysis("ex-2-4").arrangement
    c = enumerate_circuits(a, 4)[0]
    f = circuit_relation(c)
    # y2 y3 y4 + y1 y3 y4 + y1 y2 y4 - y1 y2 y3 (1-based variables)
    expect = (MPoly.monomial(4, (0, 1, 1, 1))
              + MPoly.monomial(4, (1, 0, 1, 1))
              + MPoly.monomial(4, (1, 1, 0, 1))
              - MPoly.monomial(4, (1, 1, 1, 0)))
    assert f == expect


def test_relation_braid_first_circuit(braid):
    c = enumerate_circuits(braid, 3)[0]      # x - y - (x-y) = 0
    f = circuit_relation(c)
    expect = (MPoly.monomial(6, (0, 1, 0, 1, 0, 0))
              - MPoly.monomial(6, (1, 0, 0, 1, 0, 0))
              - MPoly.monomial(6, (1, 1, 0, 0, 0, 0)))
    assert f == expect


def test_no_circuit_contains_another():
    for name in BUILTINS:
        cs = enumerate_circuits(analysis(name).arrangement, None)
        sets = [set(c.indices) for c in cs]
        for i, s in enumerate(sets):
            for j, t in enumerate(sets):
                assert i == j or not s < t


def test_circuit_forms_have_one_dimensional_kernel():
    # so the dependency coefficients are unique up to scale
    for name in BUILTINS:
        a = analysis(name).arrangement
        for c in enumerate_circuits(a, None):
            forms = [a.forms[i] for i in c.indices]
            ker = kernel_basis([[f[r] for f in forms] for r in range(3)])
            assert len(ker) == 1, c.indices


def test_coefficients_are_dependencies():
    for name in BUILTINS:
        a = analysis(name).arrangement
        for c in enumerate_circuits(a, None):
            for axis in range(3):
                total = sum(cf * a.forms[i][axis]
                            for cf, i in zip(c.coeffs, c.indices))
                assert total == 0


def test_triples_match_flats():
    # 3-circuits are exactly the concurrent triples
    for name in BUILTINS:
        a = analysis(name).arrangement
        triples = {c.indices for c in enumerate_circuits(a, 3)}
        from itertools import combinations
        expected = set()
        for f in a.flats:
            for t in combinations(f.lines, 3):
                expected.add(t)
        assert triples == expected


def test_all_coefficients_nonzero():
    for name in BUILTINS:
        for c in enumerate_circuits(analysis(name).arrangement, None):
            assert all(v != 0 for v in c.coeffs)


@pytest.mark.parametrize("name", BUILTINS + tuple(ORACLE_FORMS))
def test_circuits_match_the_kernel_oracle(name):
    a = analysis(name).arrangement
    for max_size in (None, 0, 1, 2, 3, 4):
        assert enumerate_circuits(a, max_size) \
            == circuits_by_kernels(a, max_size), max_size


def test_minor_coefficients_match_the_kernel_oracle_on_random_forms():
    # coefficients in [-2, 2] make many concurrent triples and quadruples
    rng = random.Random("circuits:random")
    compared = 0
    while compared < 60:
        forms = [[rng.randint(-2, 2) for _ in range(3)]
                 for _ in range(rng.randint(3, 8))]
        try:
            a = Arrangement(forms)
        except ArrangementError:
            continue
        assert enumerate_circuits(a, None) == circuits_by_kernels(a, None), \
            forms
        compared += 1


def test_zero_coefficient_is_a_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr(otb.circuits, "primitive_vector",
                        lambda v: (0,) * len(v))
    assert run(["circuits", "--builtin", "braid-a3"]) == 2
    assert "zero coefficient" in capsys.readouterr().err
