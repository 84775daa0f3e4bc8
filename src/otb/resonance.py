"""Degree-two Orlik-Solomon algebra in the nbc basis read off the flats,
the H^1 resonance oracle, neighborly partitions, multinets, and the
assembly of the first resonance variety.

The resonance variety is represented on the hyperplane sum(a) = 0 only (the
complex is exact off it).  Local components come from flats with three or
more lines; essential components come from verified multinet certificates,
and every reported component is confirmed by the H^1 oracle at two sample
points before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from .arrangement import Arrangement
from .exact import SparseReducer, draw_generic, rref, seeded_rng


class MultinetError(ValueError):
    """A multinet condition failed; the message names the condition and a
    witness (block pair, point, or line)."""


# ---------------------------------------------------------------------------
# Orlik-Solomon algebra in degrees <= 2


class OS2:
    """A^1 = Q^d and A^2 in its nbc basis.  By Brieskorn's lemma A^2 is the
    direct sum over the rank-two flats X of the local pieces A^2_X; with
    m = max X, the products e_i e_m for i in X - {m} are a basis of A^2_X,
    so dim A^2 is the sum of the Mobius values.  For i < j < m the relation
    d(e_i e_j e_m) = 0 rewrites e_i e_j as e_i e_m - e_j e_m."""

    def __init__(self, arr: Arrangement):
        self.arrangement = arr
        self.top = {}            # pair (i, j), i < j -> max of its flat
        basis = []               # (i, m) for the basis element e_i e_m
        for f in arr.flats:
            m = f.lines[-1]
            for pair in combinations(f.lines, 2):
                self.top[pair] = m
            basis.extend((i, m) for i in f.lines[:-1])
        self.position = {b: k for k, b in enumerate(basis)}
        self.dim2 = len(basis)

    def h1_dimension(self, a) -> int:
        """dim H^1(A, a) for a (of ints or Fractions) in the sum-zero
        hyperplane: the kernel of A^1 -> A^2 minus the image of A^0."""
        if not any(a):
            raise ValueError("a must be nonzero")
        if sum(a) != 0:
            # the complex is exact off the diagonal hyperplane
            return 0
        # rank of (a wedge -) from its columns sum_i a_i e_i e_j, nbc basis
        d = self.arrangement.d
        red = SparseReducer(self.dim2)
        for j in range(d):
            col: dict = {}
            for i in range(d):
                if i == j or not a[i]:
                    continue
                p, q, s = (i, j, a[i]) if i < j else (j, i, -a[i])
                m = self.top[(p, q)]
                k = self.position[(p, m)]
                col[k] = col.get(k, 0) + s
                if q != m:
                    k = self.position[(q, m)]
                    col[k] = col.get(k, 0) - s
            red.add(col)
        return d - red.rank - 1


# ---------------------------------------------------------------------------
# Components


@dataclass
class ResonanceComponent:
    kind: str                  # "local" | "essential"
    vectors: tuple             # spanning vectors, primitive integers
    projective_dimension: int
    provenance: object         # FlatPoint or MultinetCertificate
    oracle_values: tuple = ()  # observed H^1 dimensions at the sample points

    def span_key(self):
        red, _ = rref(self.vectors)
        return tuple(tuple(row) for row in red)


def local_components(arr: Arrangement) -> list:
    """One component per flat with mu >= 2: the sum-zero slice of the
    coordinate subspace of the lines through the flat."""
    out = []
    for f in arr.flats:
        if f.mu < 2:
            continue
        base = f.lines[0]
        vecs = []
        for i in f.lines[1:]:
            v = [0] * arr.d
            v[base] = 1
            v[i] = -1
            vecs.append(tuple(v))
        out.append(ResonanceComponent(
            kind="local", vectors=tuple(vecs),
            projective_dimension=f.mu - 1, provenance=f))
    return out


# ---------------------------------------------------------------------------
# Neighborly partitions


def is_neighborly(arr: Arrangement, partition) -> bool:
    """The neighborly-partition condition: for every rank-two flat Y
    and block pi, mu(Y) <= |Y meet pi| forces Y inside pi."""
    blocks = [frozenset(b) for b in partition]
    seen = set()
    for b in blocks:
        if b & seen:
            raise ValueError("blocks overlap")
        seen |= b
    if seen != set(range(arr.d)):
        raise ValueError("blocks do not cover every line")
    for f in arr.flats:
        y = frozenset(f.lines)
        mu = len(y) - 1
        for b in blocks:
            if mu <= len(y & b) and not y <= b:
                return False
    return True


# ---------------------------------------------------------------------------
# Multinets


@dataclass
class MultinetCertificate:
    blocks: tuple             # tuple of sorted tuples of line indices
    weights: tuple            # weight per line, positive integers
    k: int
    m: int
    Z: tuple                  # FlatPoints of the base locus
    n_p: dict                 # FlatPoint -> point weight
    connected: bool           # condition (4): full multinet vs weak

    @property
    def is_net(self) -> bool:
        return all(w == 1 for w in self.weights)

    def describe(self) -> str:
        kind = "net" if self.is_net else ("multinet" if self.connected
                                          else "weak multinet")
        return "(%d,%d)-%s, blocks %s" % (
            self.k, self.m, kind,
            " | ".join(",".join(str(i + 1) for i in b) for b in self.blocks))


def verify_multinet(arr: Arrangement, blocks, weights) -> MultinetCertificate:
    """Check the weak-multinet conditions: at least 3 blocks partitioning
    the lines, positive integer weights, (1) equal block weights m, and
    (3) at every flat of the base locus Z, the flats meeting two blocks,
    equal weight n_p from each block.  Condition (2) holds by the choice
    of Z, and the connectivity condition (4) is recorded on the certificate
    rather than enforced.  Failures raise MultinetError naming condition
    and witness.

    The weighted count identities are corollaries.  Two distinct lines
    meet in exactly one flat, which is in Z when the lines lie in
    different blocks.  The total weight is k blocks of weight m, so km.
    For blocks a != b, n_p^2 = (sum of w_i, i in a and p)(sum of w_j,
    j in b and p); summed over Z this counts each pair (i in a, j in b)
    once, so sum n_p^2 = m * m.  For a line i in block a and a block
    b != a, the flats of Z through i meet b in disjoint sets covering b,
    so the sum of n_p over them is the weight m of b."""
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    k = len(blocks)
    if k < 3:
        raise MultinetError("need at least 3 blocks, got %d" % k)
    covered = [i for b in blocks for i in b]
    if sorted(covered) != list(range(arr.d)):
        raise MultinetError("blocks are not a partition of the lines")
    w = list(weights)
    if len(w) != arr.d or any(int(x) <= 0 or int(x) != x for x in w):
        raise MultinetError("weights must assign a positive integer to "
                            "every line")
    w = [int(x) for x in w]
    block_of = {}
    for bi, b in enumerate(blocks):
        for i in b:
            block_of[i] = bi
    block_weights = [sum(w[i] for i in b) for b in blocks]
    m = block_weights[0]
    for bi, bw in enumerate(block_weights):
        if bw != m:
            raise MultinetError(
                "condition (1) fails: blocks 1 and %d have weights %d and %d"
                % (bi + 1, m, bw))
    # base locus: flats meeting at least two blocks.  Condition (2) -- all
    # cross-block intersections lie in Z -- holds by this construction.
    Z, off_z = [], []
    for f in arr.flats:
        (Z if len({block_of[i] for i in f.lines}) >= 2 else off_z).append(f)
    n_p = {}
    for f in Z:
        per_block = [sum(w[i] for i in f.lines if block_of[i] == bi)
                     for bi in range(k)]
        if len(set(per_block)) != 1:
            lo = per_block.index(min(per_block))
            hi = per_block.index(max(per_block))
            raise MultinetError(
                "condition (3) fails at %s: blocks %d and %d carry weights "
                "%d and %d" % (f.point, lo + 1, hi + 1,
                               per_block[lo], per_block[hi]))
        n_p[f] = per_block[0]
    # condition (4): within each block, the lines are connected by the
    # pairs that meet off Z.  A flat off Z meets only one block, so it lies
    # inside that block: joining the lines of each flat off Z joins exactly
    # the same-block pairs that meet off Z.  The classes refine the k
    # blocks, so every block is connected when there are k classes.
    connected = len(set(_joined(arr.d, (f.lines for f in off_z)))) == k
    return MultinetCertificate(blocks=blocks, weights=tuple(w), k=k, m=m,
                               Z=tuple(Z), n_p=n_p, connected=connected)


def _joined(d: int, groups) -> list:
    """leader[i]: the smallest line joined to line i when the lines of each
    group (a sequence of lines) are joined, by one union-find."""
    leader = list(range(d))

    def find(i):
        while leader[i] != i:
            leader[i] = leader[leader[i]]
            i = leader[i]
        return i

    for g in groups:
        for i in g[1:]:
            a, b = find(g[0]), find(i)
            leader[max(a, b)] = min(a, b)
    return [find(i) for i in range(d)]


def _partitions_with_block_weight(leader, k: int, w, m: int):
    """Canonical k-colorings (line 0 in block 0, blocks in order of first
    appearance) with every block weight exactly m, in which each line has
    the block of its leader."""
    d = len(leader)
    assignment = [0] * d
    totals = [0] * k

    def rec(i: int, used: int):
        if i == d:
            if used == k:
                yield tuple(assignment)
            return
        remaining = d - i
        if k - used > remaining:
            return
        if leader[i] != i:
            choices = (assignment[leader[i]],)
        else:
            choices = range(min(used + 1, k))
        for b in choices:
            if totals[b] + w[i] > m:
                continue
            assignment[i] = b
            totals[b] += w[i]
            yield from rec(i + 1, max(used, b + 1))
            totals[b] -= w[i]

    yield from rec(0, 0)


def search_multinets(arr: Arrangement, k: int, max_weight: int) -> list:
    """All weak-multinet certificates with k blocks and primitive weight
    vectors bounded by max_weight, up to block permutation.

    Candidates are the canonical k-colorings of the lines, pruned by one
    exact rule.  Condition (3) of `verify_multinet` compares the weights
    of all k blocks at every flat that meets two blocks, and weights are
    positive; so such a flat meets every block and has at least k lines.
    Hence a flat with fewer than k lines lies inside one block, and so does
    each class of lines joined through such flats (Falk-Yuzvinsky,
    "Multinets, resonance varieties, and pencils of plane curves").  The
    pruning drops only colorings that `verify_multinet` would reject, and
    keeps the enumeration order; every candidate is still verified.

    The search refuses to start when the weight vectors times the canonical
    colorings of the forced classes (the first class sits in block 0) could
    exceed 10**9 candidates.  With fewer classes than k, no coloring uses
    all k blocks, and there is nothing to search."""
    d = arr.d
    leader = _joined(d, [f.lines for f in arr.flats if len(f.lines) < k])
    classes = len(set(leader))
    if max_weight ** d * k ** (classes - 1) > 10 ** 9:
        raise ValueError("partition search space too large; restrict d, k "
                         "or max_weight")
    if classes < k:
        return []
    found = []
    for w in _weight_vectors(d, max_weight):
        total = sum(w)
        if total % k:
            continue
        m = total // k
        for coloring in _partitions_with_block_weight(leader, k, w, m):
            blocks = [[] for _ in range(k)]
            for i, b in enumerate(coloring):
                blocks[b].append(i)
            try:
                cert = verify_multinet(arr, blocks, w)
            except MultinetError:
                continue
            found.append(cert)
    return found


def _weight_vectors(d: int, max_weight: int):
    """Primitive vectors in [1, max_weight]^d, in lexicographic order."""
    for w in product(range(1, max_weight + 1), repeat=d):
        if gcd(*w) == 1:
            yield w


# ---------------------------------------------------------------------------
# Assembly of R^1


def _combination(vectors, rng) -> list:
    coeffs = [rng.randint(-7, 7) for _ in vectors]
    a = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                a[i] += c * x
    return a


def _sample_in_span(vectors, rng) -> list:
    """A nonzero random point of the span of `vectors`."""
    return draw_generic(rng, lambda r: _combination(vectors, r), any)


def resonance_components(an, max_weight: int) -> list:
    """Local components plus one essential component per multinet (full
    multinets with 3 or 4 blocks, from the Analysis `an`), deduplicated by
    span, each verified by the H^1 oracle at two distinct sample points."""
    arr = an.arrangement
    comps = list(local_components(arr))
    certs = [c for k in (3, 4) for c in an.multinets(k, max_weight)
             if c.connected]
    for cert in certs:
        us = []
        for b in cert.blocks:
            u = [0] * arr.d
            for i in b:
                u[i] = cert.weights[i]
            us.append(u)
        vecs = [tuple(a - b for a, b in zip(us[0], u)) for u in us[1:]]
        comps.append(ResonanceComponent(
            kind="essential", vectors=tuple(vecs),
            projective_dimension=cert.k - 2, provenance=cert))
    comps = _dedup_components(comps)
    rng = seeded_rng("resonance-oracle:%s" % (arr.name or arr.d))
    verified = []
    for comp in comps:
        need = 1 if comp.kind == "local" else comp.provenance.k - 2
        values = []
        seen_samples = set()
        while len(values) < 2:
            a = _sample_in_span(comp.vectors, rng)
            key = tuple(a)
            if key in seen_samples:
                continue
            seen_samples.add(key)
            h1 = an.os2.h1_dimension(a)
            if h1 < need:
                raise ArithmeticError(
                    "component rejected by H^1 oracle at %s (got %d, need "
                    ">= %d)" % (a, h1, need))
            values.append(h1)
        comp.oracle_values = tuple(values)
        verified.append(comp)
    return verified


def _dedup_components(comps: list) -> list:
    """Deduplicate by row space.  No span lies inside another: a local
    span (a flat with mu >= 2) is a component of R^1, and so is an
    essential span (a connected multinet; Falk-Yuzvinsky, "Multinets,
    resonance varieties, and pencils of plane curves"), and two distinct
    components meet only in 0 (Libgober-Yuzvinsky, "Cohomology of the
    Orlik-Solomon algebras and local systems")."""
    uniq = {}
    for c in comps:
        uniq.setdefault(c.span_key(), c)
    return list(uniq.values())
