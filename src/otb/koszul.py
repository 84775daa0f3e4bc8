"""Graded Betti numbers of the Orlik-Terao algebra by Koszul homology.

b_{i,j} = dim Tor_i(C(A), k)_j is the middle homology of the strand

    Wedge^{i+1} V (x) C_{j-i-1}  ->  Wedge^i V (x) C_{j-i}  ->  Wedge^{i-1} V (x) C_{j-i+1}

of the Koszul complex on the variables tensored with the algebra.

`ReducedEngine` computes it for every d.  It quotients C(A) by three
generic linear forms theta and accepts theta on one test: the quotient has
dimensions h = (1, d-3, h_2) in degrees 0..2, by exact echelons over Q
whose bases carry the induced maps, and theta C_2 spans C_3, by a rank mod
p equal to dim C_3 (a lower bound for the rank over Q).  Then rank theta =
3, the quotient is Artinian with colength sum(h) = h(1), the multiplicity,
and colength >= multiplicity, which holds for every linear system of
parameters, is an equality.  That forces the module to be Cohen-Macaulay
and the sequence to be regular, which transfers the graded Betti numbers
verbatim to the quotient, over the d-3 surviving variables.  So every
strand with j - i >= 3 is zero by the certificate itself.

Every strand rank that is computed, in both engines, is proved by
`exact.proved_rank`: the rank mod one prime bounds it from below, and
exactly verified cycles bound it from above.  The columns of the incoming
differential are cycles, since d o d = 0; where they fall short of the
kernel mod p, kernel vectors are lifted to Q and checked.

The reduced engine also stops at the end of the linear strand.  Its ideal
holds no linear forms (the quotient has dims (1, d-3, h_2, 0)), so
b_{k,k+1} = 0 implies b_{k+1,k+2} = 0 (Eisenbud, The Geometry of Syzygies,
2005).  Once homology(k, 1) has come out 0, B_i = Wedge^i V (x) C_1 ->
Wedge^{i-1} V (x) C_2 for i > k is exact at its source, so its rank is
C(d-3, i)(d-3) minus the rank into it, and row 2, b_{i-1,i+1} =
C(d-3, i-1) h_2 - rank B_i, follows without ranking B_i.  `rank_proofs`
records, per strand, "mod-p", "lifted k", "exact" (the fallback
elimination over Q) or "linear strand" (forced).

`FullEngine` is the Koszul complex on all d variables of C(A), literally.
At d = 9 its strands exceed 10000 x 4500, so the program never runs it;
the tests compare the reduced engine against it on small arrangements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from .exact import (MODP_PRIMES, BadPrime, SparseReducer, draw_generic,
                    modp_matrix, modp_rank, proved_rank, seeded_rng)
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


def _theta_products(pres: OTPresentation, theta, q: int) -> list:
    """theta_1, theta_2, theta_3 times each basis element of C_{q-1}, as
    sparse vectors over the basis of C_q."""
    maps = pres.multiplication_maps(q - 1)
    out = []
    for row in theta:
        for k in range(len(pres.graded_piece(q - 1))):
            col: dict = {}
            for s, a in enumerate(row):
                if not a:
                    continue
                for pos, v in maps[s][k].items():
                    nv = col.get(pos, Fraction(0)) + a * v
                    if nv:
                        col[pos] = nv
                    else:
                        col.pop(pos, None)
            out.append(col)
    return out


# ---------------------------------------------------------------------------
# The engines


class _Engine:
    """Shared shape: quotient dimensions per degree plus multiplication
    maps, over some polynomial ring; builds strands and homology."""

    certificate: dict | None = None

    def __init__(self, pres: OTPresentation, nvars: int):
        self.pres = pres
        self.nvars = nvars
        self._rank_cache: dict = {}
        self.rank_proofs: dict = {}     # (i, q) -> how proved_rank proved it

    def dim(self, q: int) -> int:
        raise NotImplementedError

    def maps(self, q: int):
        raise NotImplementedError

    def _past_linear_strand(self, i: int, q: int) -> bool:
        return False

    def rank_of_differential(self, i: int, q: int) -> int:
        """rank of Wedge^i (x) C_q -> Wedge^{i-1} (x) C_{q+1}, proved by
        `proved_rank`, with the columns of the map into Wedge^i (x) C_q as
        the known cycles (d o d = 0), or forced where the linear strand has
        ended; `rank_proofs` records how."""
        key = (i, q)
        if key in self._rank_cache:
            return self._rank_cache[key]
        c_src, c_dst = self.dim(q), self.dim(q + 1)
        if i <= 0 or i > self.nvars or c_src == 0 or c_dst == 0:
            r = 0
        elif self._past_linear_strand(i, q):
            # b_{i,i+1} = 0: the strand is exact at Wedge^i (x) C_1
            r = (comb(self.nvars, i) * c_src
                 - self.rank_of_differential(i + 1, q - 1))
            self.rank_proofs[key] = "linear strand"
        else:
            cols, nrows = _differential_columns(
                self.nvars, i, self.maps(q), c_src, c_dst)
            cycles = []
            if i < self.nvars and self.dim(q - 1):
                cycles, _ = _differential_columns(
                    self.nvars, i + 1, self.maps(q - 1), self.dim(q - 1),
                    c_src)
            r, self.rank_proofs[key] = proved_rank(cols, nrows, cycles)
        self._rank_cache[key] = r
        return r

    def homology(self, i: int, s: int) -> int:
        if i < 0 or i > self.nvars:
            return 0
        mid = comb(self.nvars, i) * self.dim(s)
        if mid == 0:
            return 0
        return (mid
                - self.rank_of_differential(i, s)
                - self.rank_of_differential(i + 1, s - 1))


class FullEngine(_Engine):
    """Koszul complex on all d variables tensored with C(A): the reference
    that the tests check `ReducedEngine` against."""

    def __init__(self, pres: OTPresentation):
        super().__init__(pres, pres.d)

    def dim(self, q: int) -> int:
        if q < 0:
            return 0
        # the proved nbc basis, in which the maps are written
        return len(self.pres.graded_piece(q))

    def maps(self, q: int):
        return self.pres.multiplication_maps(q)


class ReducedEngine(_Engine):
    """C(A) modulo three certified generic linear forms, over the
    polynomial ring on the surviving d-3 variables."""

    def __init__(self, pres: OTPresentation):
        super().__init__(pres, pres.d - 3)
        self._row1_zero: int | None = None  # least i >= 1 with b_{i,i+1} = 0
        self._build()

    def _build(self):
        pres = self.pres
        d = pres.d
        h = terao_series(pres.arrangement, 2).h_polynomial
        rng = seeded_rng("artinian-reduction:%s" % (pres.arrangement.name or d))
        draw_generic(rng,
                     lambda r: [[Fraction(r.randint(-5, 5)) for _ in range(d)]
                                for _ in range(3)],
                     lambda theta: self._try_theta(theta, h))

    def _try_theta(self, theta, h) -> bool:
        """Install the reduction by theta when the quotient has the h-vector
        h in degrees 0..2 and theta C_2 has rank dim C_3 mod p; False when
        this draw is not a certified linear system of parameters."""
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
        try:
            if modp_rank(modp_matrix(_theta_products(pres, theta, 3), n3, p),
                         p) != n3:
                return False
        except BadPrime:
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
        # induced action of the surviving variables on the quotient
        self._maps = {}
        for q in (0, 1):
            maps = pres.multiplication_maps(q)
            src_positions = reducers[q].nonpivot_columns() if q else [0]
            dst_red = reducers[q + 1]
            dst_pos = {c: t for t, c in enumerate(dst_red.nonpivot_columns())}
            per_var = []
            for var in self.kept_vars:
                cols = []
                for k in src_positions:
                    res = dst_red.reduce(dict(maps[var][k]))
                    cols.append({dst_pos[c]: v for c, v in res.items()})
                per_var.append(cols)
            self._maps[q] = per_var
        # the quotient is zero in degree 3, so out of degree 2 they are zero
        self._maps[2] = [[{} for _ in range(dims[2])] for _ in self.kept_vars]
        return True

    def dim(self, q: int) -> int:
        if q < 0:
            return 0
        return self._dims.get(q, 0)

    def maps(self, q: int):
        return self._maps[q]

    def homology(self, i: int, s: int) -> int:
        h = super().homology(i, s)
        if s == 1 and i >= 1 and h == 0:
            self._row1_zero = min(i, self._row1_zero or i)
        return h

    def _past_linear_strand(self, i: int, q: int) -> bool:
        """Whether B_i = rank_of_differential(i, 1) is forced: its ideal
        holds no linear forms, so once b_{k,k+1} = 0 has been proved, the
        linear strand has ended and b_{i,i+1} = 0 for every i > k."""
        return (q == 1 and self._row1_zero is not None
                and i > self._row1_zero)


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
        out = []
        for line in lines:
            out.append(" ".join(s.rjust(w) for s, w in zip(line, widths)))
        return "\n".join(out)

    def to_json_map(self) -> dict:
        out = {"0,0": 1}
        for (i, j) in sorted(self.entries):
            out["%d,%d" % (i, j)] = self.entries[(i, j)]
        return out


def tor_dimension(eng: _Engine, i: int, j: int) -> int:
    """dim Tor_i(C(A), k)_j.  Under the reduced engine the values with
    j - i >= 3 or i > d-3 are zero by its certificate, without
    elimination, and a strand past the end of the linear strand is forced
    once an earlier b_{k,k+1} = 0 has been computed; no strand is ranked
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
    engine, B_i is ranked only until row 1 has met its first zero, and
    row 2 past it is read off the forced ranks.

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
