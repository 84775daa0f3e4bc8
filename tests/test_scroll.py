import dataclasses
import json
from fractions import Fraction
from math import comb

import pytest

import otb.cli
import otb.scroll
from otb.cli import run
from otb.divisors import h0_fatpoints, net_split
from otb.exact import MPoly, monomials_of_degree, rank
from otb.koszul import tor_dimension
from otb.orlik_terao import membership
from otb.resonance import search_multinets
from otb.scroll import en_prediction, minors_in_ideal, multiplication_matrix

from conftest import (BENCH_FORMS, BUILTINS, ORACLE_FORMS, analysis,
                      is_one_generic, l_forms, minor_span_dimension, solve)


def _gamma(name):
    a = analysis(name).arrangement
    cert = search_multinets(a, 3, 1)[0]
    return a, cert, multiplication_matrix(analysis(name).pres, cert)


def test_gamma_shape_braid():
    a, cert, g = _gamma("braid-a3")
    assert len(g.entries) == 2 and g.ncols == 3
    for row in g.entries:
        for e in row:
            assert e.degree() == 1 and e.nvars == 6


def test_gamma_shape_9_3_1():
    a, cert, g = _gamma("9_3_1")
    assert g.ncols == 3
    for row in g.entries:
        for e in row:
            assert e.degree() == 1


def test_one_generic_on_nets():
    for name in ("braid-a3", "9_3_1"):
        _, _, g = _gamma(name)
        assert is_one_generic(g.entries)


def test_one_generic_rejects_zero_entry():
    y1 = MPoly.linear_form([1, 0, 0, 0])
    y2 = MPoly.linear_form([0, 1, 0, 0])
    assert not is_one_generic([[y1, MPoly.zero(4)], [y2, y1]])


def test_one_generic_rejects_dependent_pencil_row():
    # at (1 : 1) the combined row is (y1+y2, y1+y2): dependent entries
    y1 = MPoly.linear_form([1, 0, 0, 0])
    y2 = MPoly.linear_form([0, 1, 0, 0])
    assert not is_one_generic([[y1, y2], [y2, y1]])


def test_one_generic_invariant_under_row_and_column_ops():
    from otb.exact import seeded_rng
    _, _, g = _gamma("braid-a3")
    rng = seeded_rng("rowops")
    for _ in range(5):
        # invertible 2x2 rational row operation
        while True:
            a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
            if a * d - b * c != 0:
                break
        r0 = [a * e1 + b * e2 for e1, e2 in zip(g.entries[0], g.entries[1])]
        r1 = [c * e1 + d * e2 for e1, e2 in zip(g.entries[0], g.entries[1])]
        cols = list(range(g.ncols))
        rng.shuffle(cols)
        assert is_one_generic([[r0[j] for j in cols], [r1[j] for j in cols]])



def _coefficients(f):
    return [f.terms.get(m, 0) for m in monomials_of_degree(3, f.degree())]


def test_lemma_premises_on_every_net_matrix():
    """Every Gamma that scroll-check builds is 1-generic by Eisenbud's
    lemma, given two premises pinned here: sigma_0 and sigma_1 are not
    proportional, and the tau_j are independent.  The oracle agrees, and
    rejects the matrix once its third column is the sum of the first two."""
    for name in ("braid-a3", "9_3_1"):
        an = analysis(name)
        nets = [c for k in (3, 4) for c in an.multinets(k, 1) if c.connected]
        assert nets, name
        for cert in nets:
            g = multiplication_matrix(an.pres, cert)
            assert rank([_coefficients(s) for s in g.sigma]) == 2, name
            assert rank([_coefficients(t) for t in g.tau]) == g.ncols, name
            assert is_one_generic(g.entries), name
            dependent = [row[:2] + [row[0] + row[1]] + row[3:]
                         for row in g.entries]
            assert not is_one_generic(dependent), name

def test_minors_in_ideal_and_span():
    a, _, g = _gamma("braid-a3")
    assert minors_in_ideal(analysis("braid-a3").pres, g)
    assert minor_span_dimension(a, g) == 3
    assert comb(7, 2) - len(analysis("braid-a3").pres.graded_piece(2)) == 4


def test_minors_in_ideal_9_3_1():
    a, _, g = _gamma("9_3_1")
    assert minors_in_ideal(analysis("9_3_1").pres, g)
    assert minor_span_dimension(a, g) == 3


def test_fixed_nonmember():
    pres = analysis("braid-a3").pres
    assert not membership(pres, MPoly.monomial(6, (2, 0, 0, 0, 0, 0)))


def test_sigma_entries_in_pencil():
    a, cert, g = _gamma("braid-a3")
    assert len(g.sigma) == 2 and len(g.tau) == 3
    assert all(s.degree() == cert.m for s in g.sigma)
    assert all(t.degree() == a.d - 1 - cert.m for t in g.tau)


def test_gamma_entry_identity():
    # sigma_i tau_j == sum_k coeff_k l_k identically
    a, cert, g = _gamma("braid-a3")
    ls = l_forms(a)
    for i in range(2):
        for j in range(g.ncols):
            form = g.entries[i][j]
            total = MPoly.zero(3)
            for k in range(a.d):
                e = [0] * a.d
                e[k] = 1
                c = form.terms.get(tuple(e), Fraction(0))
                if c:
                    total = total + c * ls[k]
            assert total == g.sigma[i] * g.tau[j]


@pytest.mark.parametrize("name", ["braid-a3", "9_3_1"])
def test_gamma_entries_match_the_solved_expansion(name):
    # the interpolated entries against sigma_i tau_j = sum_k c_k l_k solved
    # as a linear system in the coefficients of the l_k
    a, _, g = _gamma(name)
    monos = monomials_of_degree(3, a.d - 1)
    lmat = [[l.terms.get(m, 0) for l in l_forms(a)] for m in monos]
    for i in range(2):
        for j in range(g.ncols):
            prod = g.sigma[i] * g.tau[j]
            c = solve(lmat, [prod.terms.get(m, 0) for m in monos])
            assert g.entries[i][j] == MPoly.linear_form(c), (name, i, j)


def test_multiplication_matrix_checks_its_expansion(monkeypatch):
    # a planted residual section that is no section of B: interpolation
    # still yields coefficients, and the exact check must reject them
    real = otb.scroll.h0_fatpoints

    def planted(arr, div):
        sec = real(arr, div)
        if sec.dimension != 2:          # B, not the pencil A
            g = MPoly.linear_form((1, 2, 5))
            sec.basis = [g * g * g] + sec.basis[1:]
        return sec
    monkeypatch.setattr(otb.scroll, "h0_fatpoints", planted)
    a = analysis("braid-a3").arrangement
    with pytest.raises(ArithmeticError, match="outside the span"):
        multiplication_matrix(analysis("braid-a3").pres,
                              search_multinets(a, 3, 1)[0])


def test_multiplication_matrix_rejects_multinet():
    b = analysis("b3").arrangement
    cert = search_multinets(b, 3, 2)[0]
    with pytest.raises(ValueError, match="net"):
        multiplication_matrix(analysis("b3").pres, cert)


def test_en_prediction_values(braid):
    cert = search_multinets(braid, 3, 1)[0]
    en = en_prediction(cert, braid.d)
    assert en.b == 3
    assert en.betti == (3, 2)
    assert en.linear_syzygies == 2


def test_en_prediction_9_3_1():
    a = analysis("9_3_1").arrangement
    cert = search_multinets(a, 3, 1)[0]
    en = en_prediction(cert, a.d)
    assert en.b == 3 and en.linear_syzygies == 2


def test_en_prediction_4_3_parameters():
    # synthetic (4,3)-net parameters: b = 12 - 6 = 6
    class Fake:
        k, m = 4, 3
        is_net = True
    en = en_prediction(Fake(), 12)
    assert en.b == 6
    assert en.betti[0] == 15 and en.betti[1] == 2 * 20


def test_en_prediction_hypothesis_guard():
    class Fake:
        k, m = 3, 4
        is_net = True
    with pytest.raises(ValueError, match="k < m"):
        en_prediction(Fake(), 12)


def test_en_matches_computed_b23():
    for name in ("braid-a3", "9_3_1"):
        a = analysis(name).arrangement
        cert = search_multinets(a, 3, 1)[0]
        en = en_prediction(cert, a.d)
        b23 = tor_dimension(analysis(name).engine, 2, 3)
        assert en.linear_syzygies == b23


# -- the proofs of `multiplication_matrix` and `scroll-check` against their
# computations, on every connected net of the test inputs

NET_INPUTS = BUILTINS + tuple(sorted(ORACLE_FORMS)) + ("b3+1", "b3+2")


def _every_net():
    """(name, certificate) for every connected net that `scroll-check`
    reads on the builtins, `ORACLE_FORMS` and seed-0 b3+1..b3+2."""
    assert {"b3+1", "b3+2"} <= set(BENCH_FORMS)
    out = [(name, c) for name in NET_INPUTS
           for k in (3, 4) for c in analysis(name).multinets(k, 1)
           if c.connected]
    assert [name for name, _ in out] == ["braid-a3", "9_3_1"]
    return out


def _point_off_every_line(forms) -> tuple:
    return next((1, t, t * t) for t in range(1, 100)
                if all(sum(u * v for u, v in zip(f, (1, t, t * t)))
                       for f in forms))


def _evaluate(f, p):
    return sum(c * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]
               for e, c in f.terms.items())


def _expands(g, ls, i, j, coeffs) -> bool:
    """sigma_i tau_j == sum_k coeffs[k] l_k, by MPoly products."""
    total = MPoly.zero(3)
    for c, l in zip(coeffs, ls):
        total = total + l * c
    return total == g.sigma[i] * g.tau[j]


def _entry_coefficients(g, i, j, d) -> list:
    return [g.entries[i][j].terms.get(tuple(int(k == t) for t in range(d)),
                                      Fraction(0)) for k in range(d)]


def test_the_pencil_rank_is_h0_of_its_class(monkeypatch):
    # columns minus the one proved rank, with sigma_0 and sigma_1 as the
    # given cycles, against the lifted basis of `h0_fatpoints`
    prove = otb.scroll.proved_rank
    seen = []

    def spy(matrix, cycles):
        r = prove(matrix, cycles)
        seen.append((len(matrix.columns()) - r[0], cycles.columns()))
        return r
    monkeypatch.setattr(otb.scroll, "proved_rank", spy)
    for name, cert in _every_net():
        an = analysis(name)
        del seen[:]
        g = multiplication_matrix(an.pres, cert)
        split = net_split(an.arrangement, cert)
        h0 = h0_fatpoints(an.arrangement, split.A_div)
        assert [h for h, _ in seen] == [h0.dimension] == [2], name
        assert len(seen[0][1]) == len(g.sigma) == 2


def test_the_grid_check_agrees_with_the_l_forms_expansion(monkeypatch):
    # each entry expands sigma_i tau_j by the l_k of the MPoly oracle; and
    # with P_k moved off line k, so that c_k is read wrong, the grid check
    # raises exactly when the oracle finds an entry that no longer expands
    real = otb.scroll._point_off_others
    raised = 0
    for name, cert in _every_net():
        an = analysis(name)
        forms, d = an.arrangement.forms, an.arrangement.d
        ls = l_forms(an.arrangement)
        g = multiplication_matrix(an.pres, cert)
        for i in range(2):
            for j in range(g.ncols):
                assert _expands(g, ls, i, j, _entry_coefficients(g, i, j, d))
        off = _point_off_every_line(forms)
        for k in range(d):
            wrong = []
            for i in range(2):
                for j in range(g.ncols):
                    coeffs = _entry_coefficients(g, i, j, d)
                    coeffs[k] = Fraction(
                        _evaluate(g.sigma[i] * g.tau[j], off),
                        _evaluate(ls[k], off))
                    wrong.append(not _expands(g, ls, i, j, coeffs))
            with monkeypatch.context() as m:
                m.setattr(otb.scroll, "_point_off_others",
                          lambda fs, t: off if t == k else real(fs, t))
                try:
                    multiplication_matrix(an.pres, cert)
                    rejected = False
                except ArithmeticError as e:
                    assert "outside the span of the l_k" in str(e)
                    rejected = True
            assert rejected == any(wrong), (name, k)
            raised += rejected
    assert raised


def test_the_minor_span_is_the_eagon_northcott_count(capsys):
    # the SparseReducer span of the minors is C(b, 2), and `scroll-check`
    # prints that count
    for name, cert in _every_net():
        an = analysis(name)
        g = multiplication_matrix(an.pres, cert)
        assert minor_span_dimension(an.arrangement, g) == comb(g.ncols, 2)
        assert run(["scroll-check", "--builtin", name, "--format",
                    "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["results"]["checks"]
        assert [c["minor_span_dimension"] for c in checks] == [
            comb(g.ncols, 2)]


def _non_section(cert):
    """The certificate with the first lines of blocks 0 and 2 swapped:
    sigma_0 then misses every base point of its removed line that the
    added line does not pass through."""
    b0, b1, b2 = cert.blocks[:3]
    return dataclasses.replace(cert, blocks=(
        (b2[0],) + b0[1:], b1, (b0[0],) + b2[1:]) + cert.blocks[3:])


def test_a_planted_non_section_is_rejected():
    for name, cert in _every_net():
        with pytest.raises(ArithmeticError, match="not a section"):
            multiplication_matrix(analysis(name).pres, _non_section(cert))


def test_a_planted_non_section_is_a_verification_failure(monkeypatch,
                                                         capsys):
    real = otb.cli.multiplication_matrix
    monkeypatch.setattr(otb.cli, "multiplication_matrix",
                        lambda pres, cert: real(pres, _non_section(cert)))
    assert run(["scroll-check", "--builtin", "9_3_1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("verification failed: a block product is not "
                              "a section")


def test_a_planted_wrong_coefficient_is_a_verification_failure(monkeypatch,
                                                               capsys):
    real = otb.scroll._point_off_others
    off = _point_off_every_line(analysis("9_3_1").arrangement.forms)
    monkeypatch.setattr(otb.scroll, "_point_off_others",
                        lambda fs, k: off if k == 0 else real(fs, k))
    assert run(["scroll-check", "--builtin", "9_3_1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("verification failed: pencil-times-residual "
                              "product fell outside the span of the l_k")
