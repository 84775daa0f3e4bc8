from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import otb.koszul
import otb.orlik_terao
from otb.circuits import Circuit, circuit_relation, enumerate_circuits
from otb.cli import run
from otb.exact import (MODP_PRIMES, GenericityError, MPoly, modp_rank,
                       monomials_of_degree, seeded_rng)
from otb.koszul import ReducedEngine
from otb.orlik_terao import (OTPresentation, membership,
                             substitution_quotient_dim, terao_series)
from otb.resonance import search_multinets
from otb.scroll import multiplication_matrix

from conftest import (BUILTINS, ORACLE_FORMS, ambient_piece, analysis,
                      defining_polynomial, derivative,
                      evaluation_matrix_by_powers, fraction_normal_form,
                      gradient_degree, hilbert_burch_psi,
                      jacobian_containment, l_forms, mpoly_det,
                      nbc_by_filter, substitution_membership,
                      substitution_rank, vanishing_order)

REFERENCE_CASES = BUILTINS + tuple(sorted(ORACLE_FORMS))

HILBERT_BURCH_CASES = ("ex-2-4", "braid-a3", "9_3_1")


def test_ideal_dims_braid():
    pres = analysis("braid-a3").pres
    assert ambient_piece(pres.arrangement, 1).ideal_dim == 0
    assert ambient_piece(pres.arrangement, 2).ideal_dim == 4
    assert len(pres.graded_piece(2)) == 17


def test_ideal_dims_9_3_1():
    pres = analysis("9_3_1").pres
    assert ambient_piece(pres.arrangement, 2).ideal_dim == 9
    assert len(pres.graded_piece(1)) == 9
    assert len(pres.graded_piece(2)) == 36


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_nbc_basis_is_the_complement_of_the_ambient_echelon(name):
    pres = analysis(name).pres
    for j in range(5):
        assert pres.graded_piece(j) \
            == ambient_piece(pres.arrangement, j).quotient_basis, j


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_nbc_monomials_generated_directly_match_the_filter(name):
    pres = analysis(name).pres
    for j in range(6):
        assert pres.graded_piece(j) == nbc_by_filter(pres, j), j


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(REFERENCE_CASES), data=st.data())
def test_integer_normal_forms_match_the_fraction_rewrite(name, data):
    # a homogeneous sum with rational coefficients: its normal form is an
    # integer dict over a positive denominator, in lowest terms, equal to
    # the rewrite in Fractions
    pres = analysis(name).pres
    deg = data.draw(st.integers(2, 4), label="degree")
    pres.graded_piece(deg)
    monos = data.draw(st.lists(st.sampled_from(
        monomials_of_degree(pres.d, deg)), min_size=1, max_size=5,
        unique=True), label="monomials")
    terms = {m: data.draw(st.fractions(-6, 6, max_denominator=7),
                          label="coefficient") for m in monos}
    ints, den = pres.normal_form(terms)
    assert den > 0 and gcd(den, *ints.values()) == 1
    assert all(type(v) is int and v for v in ints.values())
    assert {pos: Fraction(v, den) for pos, v in ints.items()} \
        == fraction_normal_form(pres, terms)


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_multiplication_maps_are_the_reduced_columns(name):
    pres = analysis(name).pres
    for q in range(4):
        src = ambient_piece(pres.arrangement, q).quotient_basis
        dst = ambient_piece(pres.arrangement, q + 1)
        expect = [[dst.reduce_monomial(m[:s] + (m[s] + 1,) + m[s + 1:])
                   for m in src] for s in range(pres.d)]
        assert pres.multiplication_maps(q) == expect, q


def test_terao_series_braid():
    ts = terao_series(analysis("braid-a3").arrangement, 5)
    assert ts.h_polynomial == (1, 3, 2)
    assert ts.coefficients == (1, 6, 17, 34, 57, 86)


def test_terao_series_9_3():
    for name in ("9_3_1", "9_3_2"):
        ts = terao_series(analysis(name).arrangement, 3)
        assert ts.h_polynomial == (1, 6, 12)
        assert ts.coefficients[0] == 1
        assert ts.coefficients[1] == 9


def test_terao_degree_zero_always_one():
    for name in BUILTINS:
        assert terao_series(analysis(name).arrangement, 0).coefficients == (1,)


def test_hilbert_agreement_small():
    # the full corpus check lives in the acceptance suite; spot the small ones
    for name in ("braid-a3", "ex-2-4"):
        pres = analysis(name).pres
        ts = terao_series(pres.arrangement, 5)
        for j in range(6):
            assert len(pres.graded_piece(j)) == ts.coefficients[j]


def test_membership_of_circuit_relations():
    for name in ("braid-a3", "ex-2-4", "b3"):
        pres = analysis(name).pres
        for c in pres.circuits:
            assert membership(pres, circuit_relation(c))


def test_membership_rejects_square():
    pres = analysis("braid-a3").pres
    y1sq = MPoly.monomial(6, (2, 0, 0, 0, 0, 0))
    assert not membership(pres, y1sq)


@pytest.mark.parametrize("name", ["braid-a3", "9_3_1"])
def test_membership_matches_substitution_on_net_minors(name):
    # the two builtins that carry a net; an nbc monomial added to a member
    # is a non-member
    pres = analysis(name).pres
    net = search_multinets(pres.arrangement, 3, 1)[0]
    minors = [q for q in multiplication_matrix(pres, net).minors()
              if not q.is_zero()]
    assert minors
    off = MPoly.monomial(pres.d, pres.graded_piece(2)[-1])
    for q in minors:
        assert membership(pres, q) and substitution_membership(pres, q)
        assert not membership(pres, q + off)
        assert not substitution_membership(pres, q + off)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(("braid-a3", "ex-2-4", "b3")), data=st.data())
def test_membership_matches_substitution_on_drawn_sums(name, data):
    # sum of monomial * circuit relation, with or without one nbc monomial
    pres = analysis(name).pres
    deg = data.draw(st.integers(2, 3), label="degree")
    fitting = [c for c in pres.circuits if c.size - 1 <= deg]
    if not fitting:
        return
    g = MPoly.zero(pres.d)
    for _ in range(data.draw(st.integers(1, 3), label="terms")):
        c = data.draw(st.sampled_from(fitting), label="circuit")
        expo = [0] * pres.d
        for v in data.draw(st.lists(st.integers(0, pres.d - 1),
                                    min_size=deg - c.size + 1,
                                    max_size=deg - c.size + 1), label="vars"):
            expo[v] += 1
        coeff = data.draw(st.integers(-3, 3), label="coefficient")
        g = g + MPoly.monomial(pres.d, expo, coeff) * circuit_relation(c)
    member = data.draw(st.booleans(), label="member")
    if not member:
        basis = pres.graded_piece(deg)
        k = data.draw(st.integers(0, len(basis) - 1), label="nbc monomial")
        g = g + MPoly.monomial(pres.d, basis[k])
    assert membership(pres, g) == substitution_membership(pres, g) == member


def test_membership_requires_homogeneous():
    pres = analysis("braid-a3").pres
    g = MPoly.monomial(6, (1, 0, 0, 0, 0, 0)) + MPoly.constant(6, 1)
    with pytest.raises(ValueError, match="homogeneous"):
        membership(pres, g)


def test_hilbert_burch_verifies():
    for name in HILBERT_BURCH_CASES:
        a = analysis(name).arrangement
        psi = hilbert_burch_psi(a)
        assert len(psi) == a.d and len(psi[0]) == a.d - 1
        assert sum(not e.is_zero() for row in psi for e in row) \
            == 2 * (a.d - 1)


def test_hilbert_burch_column_dot_is_zero():
    for name in HILBERT_BURCH_CASES:
        a = analysis(name).arrangement
        psi = hilbert_burch_psi(a)
        ls = l_forms(a)
        for j in range(a.d - 1):
            total = MPoly.zero(3)
            for i in range(a.d):
                total = total + psi[i][j] * ls[i]
            assert total.is_zero(), (name, j)


def test_hilbert_burch_minor_signs():
    # minor deleting row i equals (-1)^(d-i) l_i
    for name in HILBERT_BURCH_CASES:
        a = analysis(name).arrangement
        psi = hilbert_burch_psi(a)
        ls = l_forms(a)
        for i in range(a.d):
            minor = mpoly_det([psi[r] for r in range(a.d) if r != i])
            sign = 1 if (a.d - 1 - i) % 2 == 0 else -1
            assert minor == (ls[i] if sign == 1 else -ls[i]), (name, i)


def test_jacobian_containment_all(capsys):
    # the computed containment, against the proved read-out of the CLI
    for name in BUILTINS:
        assert jacobian_containment(analysis(name).arrangement)
        assert run(["jacobian-check", "--builtin", name]) == 0
        assert capsys.readouterr().out == "jacobian ideal contained: True\n"


def test_euler_identity():
    for name in ("braid-a3", "9_3_1"):
        a = analysis(name).arrangement
        alpha = defining_polynomial(a)
        x, y, z = (MPoly.linear_form(e)
                   for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        total = (x * derivative(alpha, 0) + y * derivative(alpha, 1)
                 + z * derivative(alpha, 2))
        assert total == a.d * alpha


def test_gradient_degree_values():
    assert gradient_degree(analysis("braid-a3").arrangement) == 6
    assert gradient_degree(analysis("9_3_1").arrangement) == 19
    assert gradient_degree(analysis("b3").arrangement) == 15


def test_gradient_degree_triangle(triangle):
    assert gradient_degree(triangle) == 1


def test_gradient_degree_is_b2_minus_b1_plus_1(capsys):
    from otb.arrangement import poincare_polynomial
    for name in BUILTINS:
        a = analysis(name).arrangement
        c = poincare_polynomial(a).coefficients
        assert gradient_degree(a) == c[2] - c[1] + 1
        assert run(["gradient-degree", "--builtin", name]) == 0
        assert capsys.readouterr().out \
            == "gradient degree: %d\n" % gradient_degree(a)


def test_multiplicity_is_h_at_one():
    for name, mult in (("braid-a3", 6), ("9_3_1", 19), ("b3", 15)):
        h = terao_series(analysis(name).arrangement, 0).h_polynomial
        assert sum(h) == mult


def test_l_form_vanishing_orders():
    # ord_p(l_i) = number of lines through p other than line i
    for name in ("braid-a3", "9_3_1"):
        a = analysis(name).arrangement
        ls = l_forms(a)
        for f in a.flats:
            for i in range(a.d):
                expect = len(f.lines) - (1 if i in f.lines else 0)
                assert vanishing_order(ls[i], f.point) == expect


def test_hilbert_function_meets_substitution_rank():
    # the substitution rank is a lower bound for dim C(A)_j and the echelon
    # of the circuit relations an upper bound: equality proves both
    for name in BUILTINS:
        pres = analysis(name).pres
        for j in range(5):
            assert substitution_quotient_dim(pres, j) \
                == substitution_rank(pres.arrangement, j), (name, j)


def _drop_first_circuit(monkeypatch):
    """Present C(A) without its first circuit, a quadric."""
    monkeypatch.setattr(otb.orlik_terao, "enumerate_circuits",
                        lambda arr: enumerate_circuits(arr)[1:])


def test_substitution_rank_sees_a_dropped_generator(monkeypatch):
    # without one quadric 86 cubic monomials avoid the remaining broken
    # circuits, but the substitution rank, and Terao's count, see only 82
    _drop_first_circuit(monkeypatch)
    pres = OTPresentation(analysis("9_3_1").arrangement)
    broken = [c.indices[:-1] for c in pres.circuits]
    assert sum(not any(all(m[i] for i in b) for b in broken)
               for m in monomials_of_degree(pres.d, 3)) == 86
    assert substitution_rank(pres.arrangement, 3) == 82
    with pytest.raises(ArithmeticError, match="^86 .* 82$"):
        pres.graded_piece(3)


def test_a_dropped_circuit_makes_ot_hilbert_exit_2(monkeypatch, capsys):
    _drop_first_circuit(monkeypatch)
    assert run(["ot-hilbert", "--builtin", "9_3_1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("verification failed: ")


def test_a_short_evaluation_rank_exhausts_the_draws(monkeypatch):
    shapes = []

    def spy(a, p):
        shapes.append(a.shape)
        return a.shape[1] - 1
    monkeypatch.setattr(otb.orlik_terao, "modp_rank", spy)
    pres = OTPresentation(analysis("9_3_1").arrangement)
    with pytest.raises(GenericityError):
        pres.prove_independent(2)
    assert shapes == [(36, 36)] * 5


def _spy_ranks(monkeypatch, short=()):
    """Record the shape of every evaluation and theta rank; a rank of a
    shape in `short` comes out one short."""
    shapes = []

    def spy(a, p):
        shapes.append(a.shape)
        return modp_rank(a, p) - (a.shape in short)
    monkeypatch.setattr(otb.orlik_terao, "modp_rank", spy)
    monkeypatch.setattr(otb.koszul, "modp_rank", spy)
    return shapes


def test_ot_hilbert_ranks_only_its_top_degree(monkeypatch, capsys):
    shapes = _spy_ranks(monkeypatch)
    assert run(["ot-hilbert", "--builtin", "9_3_1", "--upto", "4"]) == 0
    assert "agree: True" in capsys.readouterr().out
    assert shapes == [(147, 147)]


@pytest.mark.parametrize("name", BUILTINS)
def test_a_fresh_reduction_ranks_degree_3_and_theta(name, monkeypatch):
    # the bases are proved by Terao's count, so only theta C_2 is ranked
    shapes = _spy_ranks(monkeypatch)
    pres = OTPresentation(analysis(name).arrangement)
    ReducedEngine(pres)
    c2, c3 = len(pres.graded_piece(2)), len(pres.graded_piece(3))
    assert shapes == [(3 * c2, c3)]


def test_a_lower_degree_after_a_higher_one_ranks_nothing(monkeypatch):
    shapes = _spy_ranks(monkeypatch)
    arr = analysis("9_3_1").arrangement
    pres = OTPresentation(arr)
    assert substitution_quotient_dim(pres, 2) == 36
    assert substitution_quotient_dim(pres, 4) == 147
    assert shapes == [(36, 36), (147, 147)]
    shapes.clear()
    pres = OTPresentation(arr)
    pres.prove_independent(4)
    assert substitution_quotient_dim(pres, 2) == 36
    assert shapes == [(147, 147)]
    # the counted bases rank nothing at all
    shapes.clear()
    assert [len(pres.graded_piece(j)) for j in (2, 5)] == [36, 231]
    assert shapes == []


def test_a_failed_top_rank_proves_no_lower_degree(monkeypatch):
    short = {(147, 147)}
    shapes = _spy_ranks(monkeypatch, short)
    pres = OTPresentation(analysis("9_3_1").arrangement)
    with pytest.raises(GenericityError):
        pres.prove_independent(4)
    assert shapes == [(147, 147)] * 5
    short.clear()
    shapes.clear()
    assert substitution_quotient_dim(pres, 2) == 36
    assert substitution_quotient_dim(pres, 4) == 147
    assert shapes == [(36, 36), (147, 147)]


@pytest.mark.parametrize("name", BUILTINS)
def test_the_evaluation_matrix_is_that_of_the_power_tables(name):
    # the vectorized build against one power table per variable, entry for
    # entry, at the program's first draw of points in each degree 0..5, and
    # with a point planted on a line mod p, where both give None
    arr, p = analysis(name).arrangement, MODP_PRIMES[0]
    pres = OTPresentation(arr)
    for j in range(6):
        basis = pres.nbc_monomials(j)
        rng = seeded_rng("nbc-basis:%s:%d" % (name, j))
        points = [[rng.randrange(p) for _ in range(3)] for _ in basis]
        built = otb.orlik_terao._evaluation_matrix(arr.forms, basis, points,
                                                   p)
        assert built.dtype == np.int64
        assert np.array_equal(
            built, evaluation_matrix_by_powers(arr.forms, basis, points, p))
        a, b, c = arr.forms[-1]
        points[-1] = [b % p, -a % p, 0] if (a, b) != (0, 0) else [1, 0, 0]
        assert otb.orlik_terao._evaluation_matrix(
            arr.forms, basis, points, p) is None
        assert evaluation_matrix_by_powers(arr.forms, basis, points,
                                           p) is None


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_the_evaluation_rank_still_proves_every_counted_basis(name):
    # Terao's count replaced the evaluation rank in `graded_piece`; ranked
    # on its own in each degree 0..4, it still proves the counted basis
    arr = analysis(name).arrangement
    for j in range(5):
        pres = OTPresentation(arr)
        pres.prove_independent(j)
        assert pres.nbc_monomials(j) == pres.graded_piece(j), j


def test_a_spurious_circuit_fails_the_count(monkeypatch):
    # a circuit that does not hold in C(A): lines 2, 5 and 8 of 9_3_1 are
    # not concurrent, and no broken circuit lies in {2, 5}, so the rule
    # for y_2 y_5 cuts the count below Terao's
    arr = analysis("9_3_1").arrangement
    assert not any({2, 5, 8} <= set(f.lines) for f in arr.flats)
    fake = Circuit(indices=(2, 5, 8), coeffs=(1, 1, 1), ambient=arr.d)
    monkeypatch.setattr(otb.orlik_terao, "enumerate_circuits",
                        lambda a: enumerate_circuits(a) + [fake])
    pres = OTPresentation(arr)
    with pytest.raises(ArithmeticError, match="^35 .* 36$"):
        pres.graded_piece(2)
