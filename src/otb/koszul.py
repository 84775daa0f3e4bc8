"""Graded Betti numbers of the Orlik-Terao algebra by Koszul homology.

b_{i,j} = dim Tor_i(C(A), k)_j is the middle homology of the strand

    Wedge^{i+1} V (x) C_{j-i-1}  ->  Wedge^i V (x) C_{j-i}  ->  Wedge^{i-1} V (x) C_{j-i+1}

of the Koszul complex on the variables tensored with the algebra.

`ReducedEngine` computes it for every d.  It quotients C(A) by three
generic linear forms theta, with small integer coefficients, whose products
theta_r m are normal forms of sum_s theta_rs y_s m (normal forms are
linear), kept as integer rows, each a positive multiple of the product over
Q.  It accepts theta on one test: the quotient has
dimensions h = (1, d-3, h_2) in degrees 0..2, by exact echelons over Q
whose bases carry the induced maps, and theta C_2 spans C_3, by a rank mod
p equal to dim C_3 (a lower bound for the rank over Q).  Then rank theta =
3, the quotient is Artinian with colength sum(h) = h(1), the multiplicity,
and colength >= multiplicity, which holds for every linear system of
parameters, is an equality.  That forces the module to be Cohen-Macaulay
and the sequence to be regular, which transfers the graded Betti numbers
verbatim to the quotient, over the d-3 surviving variables.  So every
strand with j - i >= 3 is zero by the certificate itself.

Every strand rank that is computed is proved by `exact.proved_rank`: the
rank mod one prime bounds it from below, and the row count or exactly
verified cycles bound it from above.  The columns of the incoming
differential are cycles, since d o d = 0; where the rank mod p is short of
the row count and they fall short of the kernel mod p, kernel vectors are
lifted to Q and checked.  Each strand, and the incoming one, is handed
over as a `Strand`, built from the multiplication maps: its residues mod p
are the maps reduced once and scattered by index, and its cycle check
applies the differential through the maps.  Sparse columns
are built for the incoming strand only, as the known cycles to check, and
for the strand itself only if the exact fallback runs.  The mod-p layer
takes integers only, so an engine keeps its maps in integers: each
degree's maps over Q times the lcm of their denominators.  That scales
each strand by one positive integer, which changes no rank, kernel or
cycle, and makes every residue an x % p.

The strands Wedge^i V (x) C_0 -> Wedge^{i-1} V (x) C_1 are not ranked.  The
variables are a basis of C_1, so such a strand is the Koszul complex of
the polynomial ring on V in its first degree, injective with rank C(n, i)
for i <= n, the number of variables.

The reduced engine also stops at the end of the linear strand.  Its ideal
holds no linear forms (the quotient has dims (1, d-3, h_2, 0)), so for
k >= 1, b_{k,k+1} <= 1 implies b_{k+1,k+2} = 0; for b = 0 this is the
linear-strand argument of Eisenbud, The Geometry of Syzygies, 2005, ch. 7.
For b = 1, let F be the minimal free resolution of M = C/(theta) over S,
the polynomial ring on the kept variables, so F_i is generated in degrees
>= i+1 for i >= 1.  Let e be the one generator of F_k of degree k+1, and
g a generator of F_{k+1} of degree k+2.  Minimality leaves no constant
coefficients, so d(g) = l e for a linear form l.  d(e) != 0, or e would
lie in ker d = im d, inside m F_k.  So 0 = d(d(g)) = l d(e) in a free
module over a domain gives l = 0, and then d(g) = 0, against the
minimality of g.

Once homology(k, 1) has come out at most 1, B_i = Wedge^i V (x) C_1 ->
Wedge^{i-1} V (x) C_2 for i > k is exact at its source, so its rank is
C(d-3, i)(d-3) minus the rank into it, and row 2, b_{i-1,i+1} =
C(d-3, i-1) h_2 - rank B_i, follows without ranking B_i.

Row 1 lives on the triple points.  Let the quadric support B be the lines
through a point of multiplicity >= 3, with, if those all pass through one
point (so span rank 2 only), the first other line of A.  Rewriting in
degree 2 uses only the rules of 3-circuits, and the nbc monomials of degree
2 are a basis, so I(A)_2 is spanned by the 3-circuit relations.  Each
involves three lines through one point, all in B, and they are the
3-circuits of B, so I(A)_2 = I(B)_2 S_A; also I_1 = 0.
Tor_i(S/I, k)_{i+1} is the homology of Wedge^{i+1} V (x) S_0 -> Wedge^i V
(x) S_1 -> Wedge^{i-1} V (x) S_2/I_2, so b_{i,i+1} depends only on I_2
(Eisenbud, ch. 7).  S_A/(I_2) = S_B/(I_2) (x) k[y_{A - B}] is a flat
extension, so its graded Betti numbers are those over S_B, and a line of
A - B lies on no triple point of A, so adding it to B makes no quadric.
Both Artinian reductions keep their algebra's Betti numbers, so
b_{i,i+1}(A) is the b_{i,i+1} of the reduced engine of B, built on first use
when B is not all of A, and B_i of A is forced:

    rank B_i = C(n, i) n - C(n, i+1) - b_{i,i+1}(B),   n = d - 3.

With no triple point, I_2 = 0 and row 1 is zero, with no engine for B.
Row 2 then follows from the forced ranks, as past the end of the linear
strand.  `rank_proofs` records, per strand, "mod-p", "lifted k", "exact"
(the fallback elimination over Q), "koszul", "linear strand" or
"quadrics" (the last three forced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, lcm

import numpy as np

from .arrangement import Arrangement
from .exact import (MODP_PRIMES, SparseReducer, draw_generic, modp_matrix,
                    modp_rank, proved_rank, seeded_rng)
from .orlik_terao import OTPresentation, terao_series


# ---------------------------------------------------------------------------
# Strand matrices


def _differential_columns(nvars: int, i: int, maps, c_src: int, c_dst: int):
    """Columns of Wedge^i (x) C_q -> Wedge^{i-1} (x) C_{q+1}.

    maps[s][k] is the sparse column of multiplication by variable s on the
    k-th quotient basis element of degree q.
    """
    if i == 0 or c_src == 0:
        return [], 0
    subsets = list(combinations(range(nvars), i))
    target_index = {t: k for k, t in enumerate(combinations(range(nvars), i - 1))}
    cols = []
    for t_set in subsets:
        for k in range(c_src):
            # the faces of t_set are distinct, so no two terms share a row
            col: dict = {}
            for r, var in enumerate(t_set):
                base = target_index[t_set[:r] + t_set[r + 1:]] * c_dst
                for pos, v in maps[var][k].items():
                    col[base + pos] = -v if r % 2 else v
            cols.append(col)
    return cols, len(target_index) * c_dst


@lru_cache(maxsize=None)
def _faces(nvars: int, i: int) -> tuple:
    """The faces of the i-subsets T of range(nvars), in `combinations`
    order, and the number of (i-1)-subsets: per position r, the arrays of
    t_r and of the index of T - {t_r} over all T; per T, the list of
    (t_r, index of T - {t_r}, r odd)."""
    index = {t: k for k, t in enumerate(combinations(range(nvars), i - 1))}
    per_subset = [[(t[r], index[t[:r] + t[r + 1:]], r % 2) for r in range(i)]
                  for t in combinations(range(nvars), i)]
    per_position = [tuple(np.array([fs[r][j] for fs in per_subset],
                                   dtype=np.intp) for j in (0, 1))
                    for r in range(i)]
    return per_position, per_subset, len(index)


class Strand:
    """Wedge^i (x) C_q -> Wedge^{i-1} (x) C_{q+1} as the matrix that
    `exact.proved_rank` takes, read off the multiplication maps: column
    (T, k) holds (-1)^r maps[t_r][k] at the rows of T - {t_r}, the same
    entries as `_differential_columns`, which `columns` returns for the
    fallback.  `residues(p)` reduces the integer maps mod p once, by
    `modp_matrix`, and scatters them into the strand, one fancy index per
    position r; `is_cycle` applies the differential through the maps, face
    by face."""

    def __init__(self, nvars: int, i: int, maps, c_src: int, c_dst: int):
        self.nvars, self.i, self.maps = nvars, i, maps
        self.c_src, self.c_dst = c_src, c_dst
        self._per_position, self._per_subset, self._nfaces = _faces(nvars, i)
        self.nrows = self._nfaces * c_dst

    def residues(self, p: int) -> np.ndarray:
        """The columns mod p as the rows of an int64 array, equal to
        `modp_matrix(self.columns(), self.nrows, p)`: the faces of a
        subset are distinct, so each position r fills its own entries."""
        nsub = len(self._per_subset)
        out = np.zeros((nsub, self.c_src, self._nfaces, self.c_dst),
                       dtype=np.int64)
        if out.size:
            # the maps mod p, indexed [variable, k, pos]
            m = modp_matrix([col for cols in self.maps for col in cols],
                            self.c_dst, p).reshape(-1, self.c_src, self.c_dst)
            signed = (m, (-m) % p)
            subsets = np.arange(nsub)
            for r, (var, face) in enumerate(self._per_position):
                out[subsets, :, face, :] = signed[r % 2][var]
        return out.reshape(nsub * self.c_src, self.nrows)

    def is_cycle(self, vec: dict) -> bool:
        """Whether the integer vector {column: value} is in the kernel,
        exactly: sum_k vec[k] * column k through the maps."""
        acc: dict = {}
        get, maps, c_src, c_dst = acc.get, self.maps, self.c_src, self.c_dst
        for j, z in vec.items():
            t, k = divmod(j, c_src)
            for var, face, odd in self._per_subset[t]:
                base, w = face * c_dst, -z if odd else z
                for pos, v in maps[var][k].items():
                    row = base + pos
                    acc[row] = get(row, 0) + w * v
        return not any(acc.values())

    def columns(self) -> list:
        return _differential_columns(self.nvars, self.i, self.maps,
                                     self.c_src, self.c_dst)[0]


def _theta_products(pres: OTPresentation, theta, q: int) -> list:
    """theta_1, theta_2, theta_3 times each basis element m of C_{q-1}, as
    sparse integer vectors over the basis of C_q, each a positive multiple
    (its normal form's denominator) of the product over Q: normal forms are
    linear, so theta_r m is the normal form of sum_s theta_rs y_s m."""
    pres.graded_piece(q)  # normal_form needs the basis of C_q
    return [pres.normal_form({m[:s] + (m[s] + 1,) + m[s + 1:]: a
                              for s, a in enumerate(row) if a})[0]
            for row in theta for m in pres.graded_piece(q - 1)]


# ---------------------------------------------------------------------------
# The engines


class _Engine:
    """Strand ranks and homology over some polynomial ring, from a
    subclass's quotient dimensions `dim(q)`, integer multiplication maps
    `maps(q)` and `_past_linear_strand(i, q)`."""

    certificate: dict | None = None

    def __init__(self, pres: OTPresentation, nvars: int):
        self.pres = pres
        self.nvars = nvars
        self._rank_cache: dict = {}
        self.rank_proofs: dict = {}     # (i, q) -> how proved_rank proved it

    def rank_of_differential(self, i: int, q: int) -> int:
        """rank of Wedge^i (x) C_q -> Wedge^{i-1} (x) C_{q+1}, proved by
        `proved_rank`, with the columns of the map into Wedge^i (x) C_q as
        the known cycles (d o d = 0), or forced: for q = 0, since the
        variables are a basis of C_1, where row 1 is read off the quadric
        support, and where the linear strand has ended; `rank_proofs`
        records how."""
        key = (i, q)
        if key in self._rank_cache:
            return self._rank_cache[key]
        c_src, c_dst = self.dim(q), self.dim(q + 1)
        if i <= 0 or i > self.nvars or c_src == 0 or c_dst == 0:
            r = 0
        elif q == 0:
            # the Koszul map of the variables, a basis of C_1: injective
            r = comb(self.nvars, i)
            self.rank_proofs[key] = "koszul"
        elif q == 1 and (b := self._quadric_row1(i)) is not None:
            # b_{i,i+1} = b, the value on the quadric support
            r = (comb(self.nvars, i) * c_src
                 - self.rank_of_differential(i + 1, q - 1) - b)
            self.rank_proofs[key] = "quadrics"
        elif self._past_linear_strand(i, q):
            # b_{i,i+1} = 0: the strand is exact at Wedge^i (x) C_1
            r = (comb(self.nvars, i) * c_src
                 - self.rank_of_differential(i + 1, q - 1))
            self.rank_proofs[key] = "linear strand"
        else:
            cycles = None
            if i < self.nvars and self.dim(q - 1):
                cycles = Strand(self.nvars, i + 1, self.maps(q - 1),
                                self.dim(q - 1), c_src)
            r, self.rank_proofs[key] = proved_rank(
                Strand(self.nvars, i, self.maps(q), c_src, c_dst), cycles)
        self._rank_cache[key] = r
        return r

    def _quadric_row1(self, i: int) -> int | None:
        """b_{i,i+1} when it is known without ranking B_i, else None."""
        return None

    def homology(self, i: int, s: int) -> int:
        if i < 0 or i > self.nvars:
            return 0
        mid = comb(self.nvars, i) * self.dim(s)
        if mid == 0:
            return 0
        return (mid
                - self.rank_of_differential(i, s)
                - self.rank_of_differential(i + 1, s - 1))


class ReducedEngine(_Engine):
    """C(A) modulo three certified generic linear forms, over the
    polynomial ring on the surviving d-3 variables."""

    def __init__(self, pres: OTPresentation):
        super().__init__(pres, pres.d - 3)
        self._row1_end: int | None = None  # least i >= 1 with b_{i,i+1} <= 1
        self.support = quadric_support(pres.arrangement)
        self._build()

    def _build(self):
        pres = self.pres
        d = pres.d
        h = terao_series(pres.arrangement, 2).h_polynomial
        rng = seeded_rng("artinian-reduction:%s" % (pres.arrangement.name or d))
        draw_generic(rng,
                     lambda r: [[r.randint(-5, 5) for _ in range(d)]
                                for _ in range(3)],
                     lambda theta: self._try_theta(theta, h))

    def _try_theta(self, theta, h) -> bool:
        """Install the reduction by theta when the quotient has the h-vector
        h in degrees 0..2 and theta C_2 has rank dim C_3 mod p; False when
        this draw is not a certified linear system of parameters.  The rows
        of theta C_2 are integer rows, each a positive multiple of the
        product over Q, so they have its rank over Q, and their rank mod p
        is a lower bound for it at every p."""
        pres = self.pres
        # quotient C_q / (theta_1, theta_2, theta_3) C_{q-1} for q = 1, 2:
        # the non-pivot columns of an exact echelon are its basis
        reducers = {}
        dims = {0: 1}
        for q in (1, 2):
            red = SparseReducer(len(pres.graded_piece(q)))
            for row in _theta_products(pres, theta, q):
                red.add(row)
            reducers[q] = red
            dims[q] = red.ncols - red.rank
        if dims != dict(enumerate(h)):
            return False
        n3 = len(pres.graded_piece(3))
        p = MODP_PRIMES[0]
        if modp_rank(modp_matrix(_theta_products(pres, theta, 3), n3, p),
                     p) != n3:
            return False
        # C_1 has the basis y_1..y_d
        self.kept_vars = reducers[1].nonpivot_columns()
        self._dims = dims
        self.certificate = {
            "theta": [[str(x) for x in row] for row in theta],
            "h_vector": h,
            "colength": sum(h),
            "multiplicity": sum(h),
            "artinian_in_degree": 3,
        }
        # induced action of the surviving variables on the quotient, times
        # one positive integer per degree that clears its denominators
        self._maps = {}
        for q in (0, 1):
            maps = pres.multiplication_maps(q)
            src_positions = reducers[q].nonpivot_columns() if q else [0]
            dst_red = reducers[q + 1]
            dst_pos = {c: t for t, c in enumerate(dst_red.nonpivot_columns())}
            per_var = [[dst_red.reduce(dict(maps[var][k]))
                        for k in src_positions] for var in self.kept_vars]
            den = lcm(*(v.denominator for cols in per_var for col in cols
                        for v in col.values()))
            self._maps[q] = [[{dst_pos[c]: v.numerator * (den // v.denominator)
                               for c, v in col.items()} for col in cols]
                             for cols in per_var]
        # the quotient is zero in degree 3, so out of degree 2 they are zero
        self._maps[2] = [[{} for _ in range(dims[2])] for _ in self.kept_vars]
        return True

    def dim(self, q: int) -> int:
        if q < 0:
            return 0
        return self._dims.get(q, 0)

    def maps(self, q: int):
        return self._maps[q]

    @cached_property
    def support_engine(self) -> ReducedEngine:
        """The reduced engine of the quadric support B, built on first use;
        only asked for when B is neither empty nor all of A."""
        arr = self.pres.arrangement
        sub = Arrangement([arr.forms[k] for k in self.support],
                          name="%s:quadrics" % (arr.name or arr.d))
        return ReducedEngine(OTPresentation(sub))

    def _quadric_row1(self, i: int) -> int | None:
        """b_{i,i+1} read off the quadric support B (see the module
        docstring): 0 when B is empty, that of B's engine when B is a proper
        part of A, and None when B is all of A, whose B_i is ranked."""
        if len(self.support) == self.pres.d:
            return None
        return self.support_engine.homology(i, 1) if self.support else 0

    def homology(self, i: int, s: int) -> int:
        h = super().homology(i, s)
        if s == 1 and i >= 1 and h <= 1:
            self._row1_end = min(i, self._row1_end or i)
        return h

    def _past_linear_strand(self, i: int, q: int) -> bool:
        """Whether B_i = rank_of_differential(i, 1) is forced: its ideal
        holds no linear forms, so once b_{k,k+1} <= 1 has been proved, the
        linear strand has ended and b_{i,i+1} = 0 for every i > k (see the
        module docstring)."""
        return (q == 1 and self._row1_end is not None
                and i > self._row1_end)


def quadric_support(arr: Arrangement) -> list:
    """The lines of the quadric support B, in increasing order: those
    through a point of multiplicity >= 3 and, when there is one such point
    only, whose lines span rank 2, the first other line, which makes rank
    3; empty when no point has three lines.  Two such points P and Q give
    rank 3 already: at most one line through Q passes through P."""
    triple = [f.lines for f in arr.flats if len(f.lines) >= 3]
    support = sorted({k for lines in triple for k in lines})
    if len(triple) == 1:
        support.append(min(set(range(arr.d)) - set(support)))
        support.sort()
    return support


# ---------------------------------------------------------------------------
# Public results


@dataclass
class BettiTable:
    d: int
    entries: dict                    # (i, j) -> positive value
    projective_dimension: int
    regularity: int
    certificate: dict | None = None
    strand3: dict = field(default_factory=dict)

    def value(self, i: int, j: int) -> int:
        if (i, j) == (0, 0):
            return 1
        return self.entries.get((i, j), 0)

    def totals(self) -> list:
        out = [0] * (self.projective_dimension + 1)
        out[0] = 1
        for (i, _), v in self.entries.items():
            out[i] += v
        return out

    def render_text(self) -> str:
        ncols = self.projective_dimension + 1
        header = ["total"] + [str(t) for t in self.totals()]
        lines = [header]
        for r in range(self.regularity + 1):
            row = ["%d:" % r]
            for i in range(ncols):
                v = self.value(i, i + r)
                row.append(str(v) if v else "-")
            lines.append(row)
        widths = [max(len(line[c]) for line in lines) for c in range(ncols + 1)]
        return "\n".join(" ".join(s.rjust(w) for s, w in zip(line, widths))
                         for line in lines)

    def to_json_map(self) -> dict:
        out = {"0,0": 1}
        for (i, j) in sorted(self.entries):
            out["%d,%d" % (i, j)] = self.entries[(i, j)]
        return out


def tor_dimension(eng: _Engine, i: int, j: int) -> int:
    """dim Tor_i(C(A), k)_j.  Under the reduced engine the values with
    j - i >= 3 or i > d-3 are zero by its certificate, without
    elimination, row 1 is read off the quadric support when that is not
    all of A, and a strand past the end of the linear strand is forced
    once an earlier b_{k,k+1} <= 1 has been computed; no strand is ranked
    only to find that end."""
    if not (0 <= i <= eng.pres.d):
        raise ValueError("homological index out of range")
    if j < i:
        raise ValueError("internal degree below homological index")
    if i == 0:
        return 1 if j == 0 else 0
    return eng.homology(i, j - i)


def betti_table(eng: _Engine, verify_regularity: bool = False) -> BettiTable:
    """All graded Betti numbers b_{i,i+s}, s = 1, 2, for i up to the
    engine's number of variables, in increasing i: under the reduced
    engine, B_i is ranked only when the quadric support is all of A, and
    then only until row 1 has met its first entry <= 1; row 2 is read off
    the forced ranks.

    verify_regularity also records the strand-3 homology for
    i <= min(4, nvars).  Under the reduced engine these zeros are not a
    separate elimination: they follow from the certified dim (C/theta)_3 = 0.
    """
    entries = {}
    for i in range(1, eng.nvars + 1):
        for s in (1, 2):
            v = eng.homology(i, s)
            if v < 0:
                raise ArithmeticError("negative homology dimension at %s"
                                      % ((i, s),))
            if v:
                entries[(i, i + s)] = v
    table = BettiTable(
        d=eng.pres.d, entries=entries,
        projective_dimension=max((i for (i, _) in entries), default=0),
        regularity=max((j - i for (i, j) in entries), default=0),
        certificate=eng.certificate)
    if verify_regularity:
        for i in range(1, min(4, eng.nvars) + 1):
            table.strand3[i] = eng.homology(i, 3)
    return table


def b23_formula(pres: OTPresentation) -> int:
    """Closed form for the linear first syzygies when the ideal is generated
    by quadrics: 2*(C(d,3) - 1) - (d-3)*(sum mu + 1).  That hypothesis is
    b_{1,3} = 0 in the Betti table (generators in degree > 3 are excluded
    by 2-regularity)."""
    d = pres.d
    return 2 * (comb(d, 3) - 1) - (d - 3) * (pres.arrangement.sum_mu() + 1)
