"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values.  All comparisons are exact integer equalities; Betti
ranks are exact rational arithmetic or mod-p lower bounds agreed at two
independent primes."""

import time
from math import comb

from otb.arrangement import poincare_polynomial
from otb.divisors import DivisorClass, divisor_DA, h0_fatpoints, h0_h1, \
    net_split
from otb.analysis import Analysis
from otb.koszul import b23_formula, betti_table, tor_dimension
from otb.orlik_terao import l_forms, terao_series
from otb.resonance import (is_neighborly, resonance_components,
                           search_multinets, verify_multinet)
from otb.scroll import en_prediction, minors_in_ideal, multiplication_matrix

from conftest import (BUILTINS, analysis, gradient_degree, hilbert_burch_psi,
                      is_one_generic, jacobian_containment, mpoly_det, oracle)

TABLE_BUDGET = 300.0      # seconds per Betti table
SUITE_BUDGET = 120.0      # seconds per property suite


def _table_rows(tb):
    return (tuple(tb.totals()),
            tuple(v for i in range(tb.d) if (v := tb.value(i, i + 1))),
            tuple(v for i in range(tb.d) if (v := tb.value(i, i + 2))))


def test_criterion_1_betti_tables():
    expected = {
        "braid-a3": ((1, 4, 5, 2), (4, 2), (3, 2)),
        "9_3_2": ((1, 11, 75, 156, 145, 66, 12), (9,),
                  (2, 75, 156, 145, 66, 12)),
        "9_3_1": ((1, 13, 77, 156, 145, 66, 12), (9, 2),
                  (4, 75, 156, 145, 66, 12)),
    }
    timings = {}
    for name, want in expected.items():
        t0 = time.monotonic()
        an = Analysis(analysis(name).arrangement)   # fresh: honest timing
        tb = betti_table(an.engine)
        dt = time.monotonic() - t0
        timings[name] = dt
        assert _table_rows(tb) == want, name
        assert dt < TABLE_BUDGET, "table for %s took %.1fs" % (name, dt)
    # the braid table is additionally confirmed by the full Koszul complex
    full = betti_table(oracle("braid-a3"))
    assert _table_rows(full) == expected["braid-a3"]
    print("ACCEPTANCE 1 PASS: Betti tables match (%s)" %
          ", ".join("%s %.1fs" % kv for kv in sorted(timings.items())))


def test_criterion_2_tor_and_b23():
    eng = analysis("braid-a3").engine
    t24 = tor_dimension(eng, 2, 4)
    assert t24 == 3
    formula = b23_formula(analysis("braid-a3").pres)
    t23 = tor_dimension(eng, 2, 3)
    assert formula == 2 == t23
    print("ACCEPTANCE 2 PASS: tor(2,4)=%d, b23 formula %d == tor(2,3)=%d"
          % (t24, formula, t23))


def test_criterion_3_hilbert_agreement():
    for name in BUILTINS:
        pres = analysis(name).pres
        ts = terao_series(pres.arrangement, 5)
        dims = tuple(len(pres.graded_piece(j)) for j in range(6))
        assert dims == ts.coefficients, name
    print("ACCEPTANCE 3 PASS: dim C(A)_j matches the Hilbert series for "
          "j <= 5 on all %d builtins" % len(BUILTINS))


def test_criterion_4_section_counts():
    for name in BUILTINS:
        a = analysis(name).arrangement
        assert h0_fatpoints(a, divisor_DA(a)).dimension == a.d, name
    a = analysis("9_3_1").arrangement
    A = DivisorClass(3, {p: 1 for p in a.flats if p.mu == 2})
    h0A, h1A = h0_h1(a, A)
    B = divisor_DA(a) - A
    h0B = h0_fatpoints(a, B).dimension
    assert (h0A, h1A, h0B) == (2, 1, 3)
    braid = analysis("braid-a3").arrangement
    cert = search_multinets(braid, 3, 1)[0]
    split = net_split(braid, cert)
    assert h0_fatpoints(braid, split.B_div).dimension \
        == en_prediction(cert, braid.d).b == 3
    print("ACCEPTANCE 4 PASS: h0(D_A)=d on all builtins; 9_3_1 h0(A)=2 "
          "h1(A)=1 h0(B)=3; braid residual bound 3")


def test_criterion_5_resonance():
    expected = {"braid-a3": (4, 1), "9_3_1": (9, 1), "9_3_2": (9, 0)}
    for name, want in expected.items():
        comps = resonance_components(analysis(name), 2)
        got = (sum(1 for c in comps if c.kind == "local"),
               sum(1 for c in comps if c.kind == "essential"))
        assert got == want, name
        for c in comps:
            assert len(c.oracle_values) == 2
            need = 1 if c.kind == "local" else c.provenance.k - 2
            assert all(v >= need for v in c.oracle_values)
        if name == "9_3_1":
            ess = next(c for c in comps if c.kind == "essential")
            cert = ess.provenance
            assert (cert.k, cert.m) == (3, 3) and cert.is_net
            assert is_neighborly(analysis(name).arrangement, cert.blocks)
    print("ACCEPTANCE 5 PASS: components 4+1 / 9+1 / 9+0, oracle-verified "
          "at 2 points each; the 9_3_1 essential comes from a neighborly "
          "(3,3)-net")


def test_criterion_6_b3_multinet():
    b = analysis("b3").arrangement
    blocks = [(0, 7, 8), (1, 5, 6), (2, 3, 4)]
    weights = [2, 2, 2, 1, 1, 1, 1, 1, 1]
    cert = verify_multinet(b, blocks, weights)   # raises on any identity
    assert (cert.k, cert.m) == (3, 4)
    s2 = sum(v * v for v in cert.n_p.values())
    assert s2 == 16 == cert.m ** 2
    assert sum(cert.weights) == cert.k * cert.m
    for i in range(b.d):
        assert sum(cert.n_p[f] for f in cert.Z if i in f.lines) == cert.m
    print("ACCEPTANCE 6 PASS: B3 weight-2 assignment is a (3,4)-multinet "
          "with sum n_p^2 = 16 = m^2")


def test_criterion_7_scroll_certificates():
    for name in ("braid-a3", "9_3_1"):
        a = analysis(name).arrangement
        pres = analysis(name).pres
        cert = search_multinets(a, 3, 1)[0]
        gamma = multiplication_matrix(pres, cert)
        assert (len(gamma.entries), gamma.ncols) == (2, 3), name
        assert is_one_generic(gamma.entries), name
        assert minors_in_ideal(pres, gamma), name
        en = en_prediction(cert, a.d)
        b23 = tor_dimension(analysis(name).engine, 2, 3)
        assert en.linear_syzygies == 2 == b23, name
    print("ACCEPTANCE 7 PASS: both nets give 1-generic 2x3 matrices with "
          "minors in the ideal and EN beta_1 = 2 = b_{2,3}")


def test_criterion_8_property_suites():
    suites = {}

    t0 = time.monotonic()
    for name in BUILTINS:
        a = analysis(name).arrangement
        assert comb(a.d, 2) == sum(comb(f.mu + 1, 2) for f in a.flats)
    suites["double-count"] = time.monotonic() - t0

    t0 = time.monotonic()
    for name in BUILTINS:
        a = analysis(name).arrangement
        tb = betti_table(analysis(name).engine)
        h = terao_series(a, 2).h_polynomial
        n = a.d - 3
        expect = [0] * (n + 3)
        for i, hi in enumerate(h):
            for kk in range(n + 1):
                expect[i + kk] += hi * comb(n, kk) * (-1) ** kk
        got = [0] * (n + 3)
        got[0] = 1
        for (i, j), v in tb.entries.items():
            got[j] += v if i % 2 == 0 else -v
        assert got == expect, name
    suites["euler-identity"] = time.monotonic() - t0

    t0 = time.monotonic()
    for name in BUILTINS:
        tb = betti_table(analysis(name).engine, verify_regularity=True)
        assert tb.strand3 and all(v == 0 for v in tb.strand3.values()), name
        assert set(tb.strand3) >= set(range(1, min(4, tb.d - 3) + 1))
    suites["strand3-vanishing"] = time.monotonic() - t0

    t0 = time.monotonic()
    for name in BUILTINS:
        # the maximal minors of psi are +-l_i
        a = analysis(name).arrangement
        psi, ls = hilbert_burch_psi(a), l_forms(a)
        for i in range(a.d):
            minor = mpoly_det([psi[r] for r in range(a.d) if r != i])
            assert minor == (ls[i] if (a.d - 1 - i) % 2 == 0 else -ls[i]), \
                name
    suites["hilbert-burch"] = time.monotonic() - t0

    t0 = time.monotonic()
    for name in BUILTINS:
        assert jacobian_containment(analysis(name).arrangement), name
    suites["jacobian"] = time.monotonic() - t0

    t0 = time.monotonic()
    for name in BUILTINS:
        a = analysis(name).arrangement
        c = poincare_polynomial(a).coefficients
        assert gradient_degree(a) == c[2] - c[1] + 1, name
    suites["gradient-degree"] = time.monotonic() - t0

    for label, dt in suites.items():
        assert dt < SUITE_BUDGET, "%s took %.1fs" % (label, dt)
    print("ACCEPTANCE 8 PASS: property suites green (%s)" %
          ", ".join("%s %.1fs" % kv for kv in sorted(suites.items())))
