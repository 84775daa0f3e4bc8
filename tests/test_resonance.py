import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otb.resonance
from otb.analysis import Analysis
from otb.arrangement import Arrangement, builtin, poincare_polynomial
from otb.exact import kernel_basis, primitive_vector, seeded_rng
from otb.resonance import (MultinetError, OS2, _joined, is_neighborly,
                           local_components, resonance_components,
                           search_multinets, verify_multinet)

from conftest import (BENCH_FORMS, BUILTINS, ORACLE_FORMS, analysis,
                      connected_by_pairs, count_identities, h1_by_quotient,
                      leaders_by_dfs, nested_components, os2_relations)

INPUTS = BUILTINS + tuple(ORACLE_FORMS) + tuple(BENCH_FORMS)


def test_os2_dimension_is_sum_mu():
    for name in BUILTINS:
        a = analysis(name).arrangement
        index, relations = os2_relations(a)
        assert OS2(a).dim2 == len(index) - relations.rank == a.sum_mu() \
            == poincare_polynomial(a).coefficients[2]


def _sum_zero_point(rng, d, support) -> list:
    """A nonzero point of the sum-zero hyperplane supported on `support`."""
    while True:
        a = [0] * d
        for i in support:
            a[i] = rng.randint(-3, 3)
        a[support[-1]] -= sum(a)
        if any(a):
            return a


@pytest.mark.parametrize("name", BUILTINS + tuple(ORACLE_FORMS))
def test_h1_matches_the_quotient_oracle(name):
    # 40 points of the whole hyperplane, then two on the lines of each flat
    arr = analysis(name).arrangement
    os2 = OS2(arr)
    rng = seeded_rng("h1-oracle:%s" % name)
    supports = [tuple(range(arr.d))] * 40 \
        + [f.lines for f in arr.flats for _ in range(2)]
    for support in supports:
        a = _sum_zero_point(rng, arr.d, support)
        assert os2.h1_dimension(a) == h1_by_quotient(arr, a), a


@pytest.mark.parametrize("name", BUILTINS)
def test_h1_takes_integers_and_fractions_alike(name):
    arr = analysis(name).arrangement
    os2 = OS2(arr)
    rng = seeded_rng("h1-fractions:%s" % name)
    for _ in range(10):
        a = _sum_zero_point(rng, arr.d, tuple(range(arr.d)))
        q = [Fraction(x, 3) for x in a]
        assert os2.h1_dimension(a) == os2.h1_dimension(q) \
            == h1_by_quotient(arr, a) == h1_by_quotient(arr, q), a


def test_h1_braid_net_point(braid):
    # net blocks {1,6} and {2,5} in the builtin ordering (1-based)
    a = [1, -1, 0, 0, -1, 1]
    assert OS2(braid).h1_dimension(a) == 1


def test_h1_braid_local_point(braid):
    flat = next(f for f in braid.flats if f.mu == 2)
    a = [0] * braid.d
    a[flat.lines[0]] = 1
    a[flat.lines[1]] = -1
    assert OS2(braid).h1_dimension(a) >= 1


def test_h1_zero_vector_rejected(braid):
    with pytest.raises(ValueError):
        OS2(braid).h1_dimension([0] * 6)


def test_h1_off_hyperplane_is_zero(braid):
    assert OS2(braid).h1_dimension([1, 0, 0, 0, 0, 0]) == 0


def test_h1_generic_position_vanishes():
    # five lines with only double points: generic a in the sum-zero
    # hyperplane has no resonance
    arr = Arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                       (1, 2, 3), (3, 5, 11)], name="generic5")
    assert all(f.mu == 1 for f in arr.flats)
    rng = seeded_rng("generic-h1")
    for _ in range(20):
        a = [rng.randint(-9, 9) for _ in range(4)]
        a.append(-sum(a))
        if not any(a):
            continue
        assert OS2(arr).h1_dimension(a) == 0


def test_local_components_counts():
    assert len(local_components(analysis("braid-a3").arrangement)) == 4
    assert len(local_components(analysis("9_3_2").arrangement)) == 9
    assert len(local_components(analysis("b3").arrangement)) == 7


def test_local_components_empty_for_generic(triangle):
    assert local_components(triangle) == []


def test_local_component_shape(braid):
    comp = local_components(braid)[0]
    assert comp.kind == "local"
    assert comp.projective_dimension == comp.provenance.mu - 1
    assert all(sum(v) == 0 for v in comp.vectors)


def test_neighborly_trivial_block():
    a = analysis("braid-a3").arrangement
    assert is_neighborly(a, [tuple(range(6))])


def test_neighborly_net_partitions():
    for name in ("braid-a3", "9_3_1"):
        a = analysis(name).arrangement
        cert = search_multinets(a, 3, 1)[0]
        assert is_neighborly(a, cert.blocks)


def test_neighborly_rejects_bad_input(braid):
    with pytest.raises(ValueError):
        is_neighborly(braid, [(0, 1), (1, 2), (3, 4, 5)])
    with pytest.raises(ValueError):
        is_neighborly(braid, [(0, 1), (2, 3)])


def test_not_neighborly_example(braid):
    # pairing lines that share a triple point with a third line elsewhere
    assert not is_neighborly(braid, [(0, 1), (2, 3), (4, 5)])


def test_verify_braid_net(braid):
    cert = verify_multinet(braid, [(0, 5), (1, 4), (2, 3)], [1] * 6)
    assert cert.k == 3 and cert.m == 2
    assert cert.is_net and cert.connected
    assert len(cert.Z) == 4 == cert.m ** 2
    assert all(v == 1 for v in cert.n_p.values())
    assert all(p.mu == 2 for p in cert.Z)


def test_verify_b3_multinet():
    # weight two on the three coordinate lines, one elsewhere
    b = analysis("b3").arrangement
    blocks = [(0, 7, 8), (1, 5, 6), (2, 3, 4)]
    weights = [2, 2, 2, 1, 1, 1, 1, 1, 1]
    cert = verify_multinet(b, blocks, weights)
    assert (cert.k, cert.m) == (3, 4)
    assert not cert.is_net and cert.connected
    assert sum(v * v for v in cert.n_p.values()) == 16 == cert.m ** 2
    assert sorted(cert.n_p.values()) == [1, 1, 1, 1, 2, 2, 2]
    assert sum(cert.weights) == cert.k * cert.m
    for i in range(b.d):
        assert sum(cert.n_p[f] for f in cert.Z if i in f.lines) == cert.m


def test_verify_rejects_bad_blocks(braid):
    with pytest.raises(MultinetError, match="condition"):
        verify_multinet(braid, [(0, 1), (2, 3), (4, 5)], [1] * 6)
    with pytest.raises(MultinetError, match="at least 3"):
        verify_multinet(braid, [(0, 1, 2), (3, 4, 5)], [1] * 6)
    with pytest.raises(MultinetError, match="partition"):
        verify_multinet(braid, [(0, 1), (1, 2), (3, 4, 5)], [1] * 6)
    with pytest.raises(MultinetError, match="positive"):
        verify_multinet(braid, [(0, 5), (1, 4), (2, 3)], [1, 1, 1, 1, 1, 0])


def test_search_braid_exactly_one_net(braid):
    nets = search_multinets(braid, 3, 1)
    assert len(nets) == 1
    assert nets[0].blocks == ((0, 5), (1, 4), (2, 3))


def test_search_9_3_1_exactly_one_net():
    nets = search_multinets(analysis("9_3_1").arrangement, 3, 1)
    assert len(nets) == 1
    cert = nets[0]
    assert (cert.k, cert.m) == (3, 3)
    assert len(cert.Z) == 9
    assert all(p.mu == 2 for p in cert.Z)


def test_search_9_3_2_empty():
    a = analysis("9_3_2").arrangement
    assert search_multinets(a, 3, 2) == []
    assert search_multinets(a, 4, 2) == []


def test_search_b3_finds_the_multinet():
    certs = search_multinets(analysis("b3").arrangement, 3, 2)
    assert len(certs) == 1
    cert = certs[0]
    assert (cert.k, cert.m) == (3, 4) and cert.connected
    assert sorted(cert.weights, reverse=True) == [2, 2, 2, 1, 1, 1, 1, 1, 1]
    # the doubled lines are the three lines lying in the biggest flats
    doubled = [i for i, w in enumerate(cert.weights) if w == 2]
    assert doubled == [0, 1, 2]


def test_search_b3_no_net():
    assert search_multinets(analysis("b3").arrangement, 3, 1) == []


def test_search_output_reverifies():
    for name, k, w in (("braid-a3", 3, 1), ("9_3_1", 3, 1), ("b3", 3, 2)):
        a = analysis(name).arrangement
        for cert in search_multinets(a, k, w):
            again = verify_multinet(a, cert.blocks, cert.weights)
            assert again.Z == cert.Z and again.n_p == cert.n_p


# b3 plus lines meeting every other line in a double point
GENERIC_LINES = [(-4, 2, 3), (1, 3, 7), (2, -5, 11), (3, 7, -13)]


def b3_plus(n):
    return Arrangement(list(builtin("b3").forms) + GENERIC_LINES[:n],
                       name="b3+%d" % n)


def brute_force_multinets(arr, k, max_weight):
    """The search without propagation: every primitive weight vector in
    lexicographic order, then every canonical k-coloring (line 0 in block
    0, blocks in order of first appearance) with equal block weights, each
    one checked by verify_multinet."""
    d = arr.d
    found = []
    for w in product(range(1, max_weight + 1), repeat=d):
        if gcd(*w) != 1 or sum(w) % k:
            continue
        m = sum(w) // k
        coloring = []
        totals = [0] * k

        def colorings():
            i = len(coloring)
            if i == d:
                if all(t == m for t in totals):
                    yield list(coloring)
                return
            for b in range(min(max(coloring, default=-1) + 2, k)):
                if totals[b] + w[i] <= m:
                    coloring.append(b)
                    totals[b] += w[i]
                    yield from colorings()
                    totals[b] -= w[i]
                    coloring.pop()

        for c in colorings():
            blocks = [[i for i in range(d) if c[i] == b] for b in range(k)]
            try:
                cert = verify_multinet(arr, blocks, w)
            except MultinetError:
                continue
            assert count_identities(arr, cert) == [], cert.describe()
            found.append(cert)
    return found


@pytest.mark.parametrize("w", [1, 2])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("name", BUILTINS)
def test_search_matches_brute_force(name, k, w):
    a = analysis(name).arrangement
    assert search_multinets(a, k, w) == brute_force_multinets(a, k, w)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("k", [3, 4])
def test_search_matches_brute_force_b3_plus_generic(n, k):
    # b3+1 has 10 lines, so no block weight exists at weight 1; b3+3 (12
    # lines) gives the brute force thousands of colorings to verify
    a = b3_plus(n)
    assert search_multinets(a, k, 1) == brute_force_multinets(a, k, 1) == []


@pytest.mark.parametrize("name", INPUTS)
def test_count_identities_hold_on_every_certificate(name):
    # verify_multinet does not count them: its conditions (1) and (3)
    # prove them, so every certificate it issues satisfies them
    an = analysis(name)
    for k in (3, 4):
        for w in (1, 2):
            for cert in an.multinets(k, w):
                assert count_identities(an.arrangement, cert) == [], \
                    cert.describe()


def test_connected_matches_the_pair_graph():
    # condition (4) by the union-find over the flats off Z against the
    # pair graph of its definition, on every certificate of the searches
    checked = 0
    for name in INPUTS:
        an = analysis(name)
        for k in (3, 4):
            for w in (1, 2):
                for cert in an.multinets(k, w):
                    assert cert.connected == connected_by_pairs(
                        an.arrangement, cert.blocks), (name, cert.describe())
                    checked += 1
    assert checked > 0


@st.composite
def _groupings(draw):
    """d lines split into k blocks, and groups of lines each inside one
    block, as the flats off Z are."""
    d = draw(st.integers(1, 12))
    block_of = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    blocks = [[i for i in range(d) if block_of[i] == b]
              for b in sorted(set(block_of))]
    groups = [sorted(draw(st.sets(st.sampled_from(b), min_size=1)))
              for b in draw(st.lists(st.sampled_from(blocks), max_size=10))]
    return d, blocks, groups


@settings(max_examples=300, deadline=None)
@given(_groupings())
def test_union_find_matches_the_dfs(grouping):
    # random groupings also reach the disconnected case, which no builtin
    # has: their weak multinets (weights up to 3) are all connected
    d, blocks, groups = grouping
    leader = leaders_by_dfs(d, [e for g in groups for e in combinations(g, 2)])
    joined = _joined(d, groups)
    assert joined == leader
    # the test of condition (4) in verify_multinet: k classes
    assert (len(set(joined)) == len(blocks)) \
        == all(len({leader[i] for i in b}) == 1 for b in blocks)


def test_weight_one_nets_are_weight_two_nets_and_a_direct_search():
    for name in BUILTINS:
        an = Analysis(builtin(name))
        for k in (3, 4):
            wide = an.multinets(k, 2)
            narrow = an.multinets(k, 1)
            assert all(c in wide for c in narrow)
            assert narrow == search_multinets(an.arrangement, k, 1)


def test_resonance_d13_in_seconds():
    arr = b3_plus(4)
    assert arr.d == 13
    assert all(f.mu == 1 for f in arr.flats if max(f.lines) >= 9)
    start = time.perf_counter()
    comps = resonance_components(Analysis(arr), 2)
    assert time.perf_counter() - start < 20
    assert sum(1 for c in comps if c.kind == "local") == 7
    assert sum(1 for c in comps if c.kind == "essential") == 0


def test_search_enumerates_nothing_with_fewer_classes_than_blocks(
        monkeypatch):
    # each class of lines joined through flats of fewer than k lines sits in
    # one block, so with fewer classes than k no coloring uses every block
    real, short = otb.resonance._partitions_with_block_weight, []

    def spy(leader, k, w, m):
        assert len(set(leader)) >= k, "entered with fewer classes than k"
        return real(leader, k, w, m)
    monkeypatch.setattr(otb.resonance, "_partitions_with_block_weight", spy)
    for a in [analysis(name).arrangement for name in BUILTINS] \
            + [b3_plus(n) for n in (1, 2)]:
        for k in (3, 4):
            leader = _joined(a.d, [f.lines for f in a.flats
                                   if len(f.lines) < k])
            short.append(len(set(leader)) < k)
            for w in (1, 2):
                search_multinets(a, k, w)
    assert any(short) and not all(short)


def test_search_guard():
    # the double points force all 20 lines into one block, so w = 1 leaves
    # one candidate; w = 3 still has 3**20 weight vectors to try
    forms = [(1, 0, -k) for k in range(18)] + [(0, 1, 0), (0, 1, -1)]
    big = Arrangement(forms, name="fan20")
    assert search_multinets(big, 3, 1) == search_multinets(big, 4, 1) == []
    with pytest.raises(ValueError, match="search space"):
        search_multinets(big, 4, 3)


# -- Cartan block test (Falk-Yuzvinsky): an independent reference for the
# multinet search.  The fibres of a net's pencil give affine blocks.


def symmetric_inertia(mat) -> tuple:
    """(positive, negative, zero) inertia of a symmetric rational matrix by
    exact congruence reduction."""
    a = [[Fraction(x) for x in row] for row in mat]
    pos = neg = zero = 0
    alive = list(range(len(a)))
    while alive:
        piv = next((i for i in alive if a[i][i] != 0), None)
        if piv is not None:
            v = a[piv][piv]
            if v > 0:
                pos += 1
            else:
                neg += 1
            alive = [i for i in alive if i != piv]
            for i in alive:
                f = a[i][piv] / v
                if f:
                    for j in alive:
                        a[i][j] -= f * a[piv][j]
            continue
        off = next(((i, j) for i in alive for j in alive
                    if j > i and a[i][j] != 0), None)
        if off is None:
            zero += len(alive)
            break
        i0, j0 = off
        # hyperbolic pair: inertia (+1, -1), then eliminate both rows
        pos += 1
        neg += 1
        b = a[i0][j0]
        alive = [i for i in alive if i not in (i0, j0)]
        for i in alive:
            ci, cj = a[i][i0], a[i][j0]
            if ci or cj:
                for j in alive:
                    a[i][j] -= (ci * a[j0][j] + cj * a[i0][j]) / b
    return pos, neg, zero


def cartan_blocks(arr, Z) -> list:
    """Form Q = J^t J - E from the point-line incidence of the base locus Z,
    split it into connected blocks on the lines meeting Z, and classify each
    block: (lines, "affine" | "finite" | "indefinite", kernel vector or
    None)."""
    if not Z:
        raise ValueError("Z must be nonempty")
    incident = [i for i in range(arr.d) if any(i in f.lines for f in Z)]
    q = [[sum(1 for f in Z if i in f.lines and j in f.lines) - 1
          for j in range(arr.d)] for i in range(arr.d)]
    seen, out = set(), []
    for start in incident:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for v in incident:
                if v not in comp and q[u][v] != 0:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        lines = tuple(sorted(comp))
        sub = [[q[i][j] for j in lines] for i in lines]
        _, neg, zero = symmetric_inertia(sub)
        kind, vec = "indefinite", None
        if neg == 0 and zero == 0:
            kind = "finite"
        elif neg == 0 and zero == 1:
            vec = primitive_vector(kernel_basis(sub)[0])
            if all(v > 0 for v in vec):
                kind = "affine"
            else:
                vec = None
        out.append((lines, kind, vec))
    return sorted(out)


def cartan_criterion(blocks) -> bool:
    """At least three blocks, all affine."""
    return len(blocks) >= 3 and all(kind == "affine" for _, kind, _ in blocks)


def test_cartan_braid(braid):
    blocks = cartan_blocks(braid, [f for f in braid.flats if f.mu == 2])
    assert cartan_criterion(blocks)
    assert blocks == [((0, 5), "affine", (1, 1)), ((1, 4), "affine", (1, 1)),
                      ((2, 3), "affine", (1, 1))]


def test_cartan_blocks_match_every_net():
    nets = {}
    for name in BUILTINS:
        a = analysis(name).arrangement
        for k in (3, 4):
            for cert in analysis(name).multinets(k, 1):
                blocks = cartan_blocks(a, list(cert.Z))
                assert cartan_criterion(blocks), name
                assert sorted(b for b, _, _ in blocks) \
                    == sorted(cert.blocks), name
                nets[name] = nets.get(name, 0) + 1
    assert nets == {"braid-a3": 1, "9_3_1": 1}


def test_cartan_single_double_point(braid):
    Z = [next(f for f in braid.flats if f.mu == 1)]
    assert not cartan_criterion(cartan_blocks(braid, Z))


def test_cartan_rejects_empty(braid):
    with pytest.raises(ValueError):
        cartan_blocks(braid, [])


def test_symmetric_inertia():
    assert symmetric_inertia([[2, -1], [-1, 2]]) == (2, 0, 0)
    assert symmetric_inertia([[1, -1], [-1, 1]]) == (1, 0, 1)
    assert symmetric_inertia([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]) \
        == (2, 0, 1)
    assert symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert symmetric_inertia([[0, 0], [0, 0]]) == (0, 0, 2)


def test_resonance_components_counts():
    expect = {"braid-a3": (4, 1), "9_3_1": (9, 1), "9_3_2": (9, 0),
              "b3": (7, 1)}
    for name, (nloc, ness) in expect.items():
        comps = resonance_components(analysis(name), 2)
        got = (sum(1 for c in comps if c.kind == "local"),
               sum(1 for c in comps if c.kind == "essential"))
        assert got == (nloc, ness), name


def test_resonance_components_oracle_values():
    comps = resonance_components(analysis("9_3_1"), 2)
    for c in comps:
        assert len(c.oracle_values) == 2
        assert all(v >= 1 for v in c.oracle_values)
        if c.kind == "essential":
            assert all(v >= c.provenance.k - 2 for v in c.oracle_values)


def test_essential_component_span():
    comps = resonance_components(analysis("braid-a3"), 2)
    ess = [c for c in comps if c.kind == "essential"]
    assert len(ess) == 1
    assert ess[0].projective_dimension == 1
    assert all(sum(v) == 0 for v in ess[0].vectors)


@pytest.mark.parametrize("name", INPUTS)
def test_no_component_lies_inside_another(name):
    # distinct components of R^1 meet only in 0, so the assembly keeps
    # every deduplicated span
    comps = resonance_components(analysis(name), 2)
    assert nested_components(comps) == []
