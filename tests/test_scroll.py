import pytest
from fractions import Fraction
from math import comb

import otb.scroll
from otb.exact import MPoly, monomials_of_degree, rank
from otb.koszul import tor_dimension
from otb.orlik_terao import membership
from otb.resonance import search_multinets
from otb.scroll import (en_prediction, minor_span_dimension, minors_in_ideal,
                        multiplication_matrix)

from conftest import analysis, is_one_generic, solve


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
    from otb.orlik_terao import l_forms
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
    from otb.orlik_terao import l_forms
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
