"""Output checks for benchmark invocations.

Each check returns None when the output is right and a one-line reason when
it is not.  The Euler-characteristic and Riemann-Roch checks recompute their
reference values here from the forms alone (flats by cross products), so they
do not depend on either Koszul engine or on otb's divisor code.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm


def golden_bytes(stdout: str, golden_path) -> str | None:
    with open(golden_path, "r", encoding="utf-8") as fh:
        want = fh.read()
    if stdout == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(stdout, want)) if a != b),
              min(len(stdout), len(want)))
    return "differs from %s at byte %d" % (golden_path, at)


def golden_section(payload: dict, golden_path, section: str,
                   upto: int | None = None) -> str | None:
    """payload["results"] equals the golden report's section; with `upto`
    the golden ot_hilbert lists are cut to degrees 0..upto."""
    with open(golden_path, "r", encoding="utf-8") as fh:
        want = json.load(fh)["results"][section]
    if upto is not None:
        want = dict(want)
        for key in ("series_coefficients", "linear_algebra_dimensions"):
            want[key] = want[key][:upto + 1]
    if payload["results"] == want:
        return None
    return "%s differs from %s" % (section, golden_path)


def _primitive(vec) -> tuple:
    den = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * den) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    return tuple(-x for x in ints) if lead < 0 else tuple(ints)


def flats(forms) -> dict:
    """{primitive point: sorted line indices} over every point where two
    or more lines meet."""
    vecs = [[Fraction(str(c)) for c in f] for f in forms]
    out: dict = {}
    for i, j in combinations(range(len(vecs)), 2):
        a, b = vecs[i], vecs[j]
        pt = _primitive((a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                         a[0] * b[1] - a[1] * b[0]))
        out.setdefault(pt, set()).update((i, j))
    return {pt: sorted(lines) for pt, lines in out.items()}


def euler_characteristic(forms) -> list:
    """sum_i (-1)^i beta_{i,j} for j = 0..d: the coefficients of
    h(t) (1-t)^(d-3), where h(t)/(1-t)^3 = pi(A, t/(1-t)) is Terao's
    Hilbert series and pi = 1 + d t + b2 t^2 + b3 t^3."""
    d = len(forms)
    b2 = sum(len(lines) - 1 for lines in flats(forms).values())
    b = (1, d, b2, b2 - d + 1)
    h = [0] * 4
    for k, bk in enumerate(b):
        for e in range(3 - k + 1):
            h[k + e] += bk * comb(3 - k, e) * (-1) ** e
    out = [0] * (d + 1)
    for k, hk in enumerate(h):
        for e in range(d - 3 + 1):
            if k + e <= d:
                out[k + e] += hk * comb(d - 3, e) * (-1) ** e
    return out


def betti(payload: dict, forms) -> str | None:
    """Entries positive, totals consistent, strand 3 zero, and the
    alternating sums equal to the Euler characteristic of the forms."""
    res = payload["results"]
    table = {}
    for key, v in res["entries"].items():
        i, j = (int(x) for x in key.split(","))
        if not isinstance(v, int) or v <= 0:
            return "betti entry %s is %r" % (key, v)
        table[(i, j)] = v
    totals = [0] * (max(i for i, _ in table) + 1)
    for (i, _), v in table.items():
        totals[i] += v
    if totals != res["totals"]:
        return "betti totals %s do not sum the entries" % res["totals"]
    if any(res.get("strand3", {}).values()):
        return "nonzero strand 3: %s" % res["strand3"]
    want = euler_characteristic(forms)
    for j in range(max(len(want), max(j for _, j in table) + 1)):
        got = sum((-1) ** i * v for (i, jj), v in table.items() if jj == j)
        expect = want[j] if j < len(want) else 0
        if got != expect:
            return ("betti alternating sum in degree %d is %d, the Euler "
                    "characteristic gives %d" % (j, got, expect))
    return None


def resonance(payload: dict, forms) -> str | None:
    """Local components match the flats of multiplicity >= 3; every
    essential component's blocks and weights pass verify_multinet again and
    its oracle values reach k - 2."""
    from otb.arrangement import parse_arrangement
    from otb.resonance import MultinetError, verify_multinet
    arr = parse_arrangement(json.dumps({"forms": forms}))
    want_local = sorted(pt for pt, lines in flats(forms).items()
                        if len(lines) >= 3)
    comps = payload["results"]["components"]
    got_local = sorted(_primitive(c["flat"]) for c in comps
                       if c["kind"] == "local")
    if got_local != want_local:
        return "local components at %s, flats say %s" % (got_local, want_local)
    for comp in comps:
        if comp["kind"] == "local":
            if min(comp["oracle_h1"]) < 1:
                return "local component oracle %s" % comp["oracle_h1"]
            continue
        cert = comp["certificate"]
        try:
            again = verify_multinet(arr, [[i - 1 for i in b]
                                          for b in cert["blocks"]],
                                    cert["weights"])
        except MultinetError as e:
            return "essential component fails verify_multinet: %s" % e
        if (again.k, again.m) != (cert["k"], cert["m"]):
            return "certificate k, m %s re-verify as %s" % (
                (cert["k"], cert["m"]), (again.k, again.m))
        if min(comp["oracle_h1"]) < cert["k"] - 2:
            return "essential oracle %s below k-2 = %d" % (
                comp["oracle_h1"], cert["k"] - 2)
    return None


def h0(payload: dict, m: int, mults, expected: int) -> str | None:
    """dimension >= max(0, chi), chi by Riemann-Roch, and the dimension
    recorded for this input."""
    res = payload["results"]
    chi = (m + 1) * (m + 2) // 2 - sum(a * (a + 1) // 2 for a in mults)
    if res["chi"] != chi:
        return "chi %d, Riemann-Roch gives %d" % (res["chi"], chi)
    if res["dimension"] < max(0, chi):
        return "h0 %d below max(0, chi = %d)" % (res["dimension"], chi)
    if res["dimension"] != expected:
        return "h0 %d, recorded value %d" % (res["dimension"], expected)
    return None
