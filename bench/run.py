#!/usr/bin/env python3
"""Benchmark for otb: end-to-end CLI timings and, traced, per-layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding src/otb, golden/ and
bench/).  The load is a closed loop with one client: one `otb.cli.run(argv)`
at a time, each in a fresh interpreter (bench/child.py) with BLAS, OpenMP
and OTB_THREADS at 1.  One pass runs the workload's invocation list once;
passes repeat until the next one would end after S seconds.  Every output is
checked (bench/checks.py); a nonzero exit, an exception or a failed check
counts as a failed invocation.

The host's speed drifts by 10-30% between half-minute windows.  So every
REF_PERIOD_S the parent stops the child, times a fixed reference kernel and
resumes it; wall_s divides each invocation's time by the kernel's slowdown
against REF_NOMINAL_S, measured while that invocation ran.  The raw sum is
kept as raw_wall_s.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, from one
untraced and one traced pass.  The line before it is a JSON detail record:
per-invocation times, the generated inputs, and an environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = ROOT / "golden"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3        # import-only children at the start of a run
SETUP_EVERY_S = 1.5     # and one after each invocation longer than this
REF_PERIOD_S = 0.25     # child run time between reference kernel timings
REF_NOMINAL_S = 0.006   # about the kernel's median time on a 2.1 GHz Xeon
REF_MIN_SAMPLES = 4
CHILD_TIMEOUT_S = 60    # keeps a run with one hung child under 180 s
H0_DEGREES = (3, 6, 9, 12)


@dataclass
class Invocation:
    label: str
    kind: str
    argv: list
    check: Callable[[str], "str | None"]   # stdout -> None or a reason


def _json(check):
    return lambda stdout: check(json.loads(stdout))


def _write_arrangement(name: str, forms) -> str:
    path = WORK / "inputs" / ("%s.json" % name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"name": name.split("#")[0], "forms": forms}))
    return str(path)


# ---------------------------------------------------------------------------
# Workloads: seed -> (invocations, generated forms)


def golden_d9(seed: int):
    """The costly analyses of `report --all` on the d = 9 builtins, each
    checked against its section of the golden report."""
    from otb.arrangement import BUILTIN_FORMS
    import checks

    def section(name, sec, extra=None, upto=None):
        gold = GOLDEN / ("%s.json" % name)
        return _json(lambda p: checks.golden_section(p, gold, sec, upto)
                     or (extra(p, BUILTIN_FORMS[name]) if extra else None))

    invs = [
        Invocation("ot-hilbert:9_3_1", "ot-hilbert",
                   ["ot-hilbert", "--builtin", "9_3_1", "--upto", "4",
                    "--format", "json"],
                   section("9_3_1", "ot_hilbert", upto=4)),
        Invocation("betti:b3", "betti",
                   ["betti", "--builtin", "b3", "--verify-regularity",
                    "--format", "json"],
                   section("b3", "betti", checks.betti)),
        Invocation("resonance:b3", "resonance",
                   ["resonance", "--builtin", "b3", "--format", "json"],
                   section("b3", "resonance", checks.resonance)),
        Invocation("scroll-check:9_3_1", "scroll-check",
                   ["scroll-check", "--builtin", "9_3_1", "--format", "json"],
                   section("9_3_1", "scroll_check")),
    ]
    return invs, {}


def scale_b3plus(seed: int):
    """b3 plus one and two seeded generic lines (d = 10, 11)."""
    from otb.arrangement import BUILTIN_FORMS
    import checks
    from inputs import extended_forms
    forms = {n: extended_forms(BUILTIN_FORMS["b3"], k,
                               random.Random("%s:%d" % (n, seed)))
             for n, k in (("b3+1", 1), ("b3+2", 2))}
    invs = [
        Invocation("betti:b3+2", "betti",
                   ["betti", "--arrangement",
                    _write_arrangement("b3+2", forms["b3+2"]),
                    "--format", "json"],
                   _json(lambda p: checks.betti(p, forms["b3+2"]))),
        Invocation("resonance:b3+1", "resonance",
                   ["resonance", "--arrangement",
                    _write_arrangement("b3+1", forms["b3+1"]),
                    "--format", "json"],
                   _json(lambda p: checks.resonance(p, forms["b3+1"]))),
    ]
    return invs, forms


def small_exact(seed: int):
    """The small inputs: full reports, the full Koszul engine at d = 7, and
    dense exact kernels in the fat-point h0 sweep."""
    from otb.arrangement import BUILTIN_FORMS, builtin
    import checks
    from inputs import extended_forms
    invs = [Invocation("report:%s" % b, "report",
                       ["report", "--all", "--builtin", b],
                       lambda out, b=b: checks.golden_bytes(
                           out, GOLDEN / ("%s.json" % b)))
            for b in ("braid-a3", "ex-2-4")]
    forms = {}
    for i in range(3):
        name = "braid-a3+1#%d" % i
        forms[name] = extended_forms(BUILTIN_FORMS["braid-a3"], 1,
                                     random.Random("%s:%d" % (name, seed)))
        invs.append(Invocation(
            "betti:" + name, "betti",
            ["betti", "--arrangement", _write_arrangement(name, forms[name]),
             "--format", "json"],
            _json(lambda p, f=forms[name]: checks.betti(p, f))))
    expected = json.loads((BENCH / "expected_h0.json").read_text())
    for b in ("9_3_1", "b3"):
        flats = builtin(b).flats
        for mode in ("one", "mu"):
            mults = [1 if mode == "one" else f.mu for f in flats]
            for m in H0_DEGREES:
                key = "%s:%s:%d" % (b, mode, m)
                invs.append(Invocation(
                    "h0:" + key, "h0",
                    ["h0", "--builtin", b, "--m", str(m), "--mults",
                     ",".join(map(str, mults)), "--format", "json"],
                    _json(lambda p, m=m, a=mults, e=expected[key]:
                          checks.h0(p, m, a, e))))
    return invs, forms


WORKLOADS = {"golden-d9": golden_d9, "scale-b3plus": scale_b3plus,
             "small-exact": small_exact}


# ---------------------------------------------------------------------------
# Children


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OTB_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1")
    return env


def reference_s() -> float:
    """Time of a fixed pure-Python kernel of the kind otb spends its time on
    (Fraction arithmetic, dict updates); about 6 ms."""
    t = time.perf_counter()
    acc, row = Fraction(0), {}
    for i in range(1, 800):
        acc += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(i, 3)
        row[i % 61] = row.get(i % 61, 0) + acc.numerator % 1009
    return time.perf_counter() - t


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _unpaused(start: float, end: float, pauses) -> float:
    """end - start minus the parts of it the child spent stopped."""
    return end - start - sum(max(0.0, min(end, b) - max(start, a))
                             for a, b in pauses)


def spawn(argv, trace: bool = False, spans=None) -> dict:
    """Run one child; returns its record with setup_s, run_s, the reference
    kernel times taken while it ran (ref_s) and, on failure, error.

    Every REF_PERIOD_S the parent stops the child (SIGSTOP), times the
    reference kernel with both cores otherwise idle, and resumes it; the
    stopped intervals are taken out of the child's times."""
    spec = {"argv": argv, "trace": trace, "spans": spans}
    refs, pauses = [], []
    with open(WORK / "child.out", "w+") as out, \
            open(WORK / "child.err", "w+") as err:
        t_spawn = _clock()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            env=_child_env(), stdout=out, stderr=err)
        try:
            while True:
                try:
                    proc.wait(timeout=REF_PERIOD_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if _clock() - t_spawn > CHILD_TIMEOUT_S:
                    return {"error": "timed out after %d s" % CHILD_TIMEOUT_S}
                t_stop = _clock()
                proc.send_signal(signal.SIGSTOP)
                try:
                    refs.append(reference_s())
                finally:
                    proc.send_signal(signal.SIGCONT)
                    pauses.append((t_stop, _clock()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.send_signal(signal.SIGCONT)
                proc.wait()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().strip()
    try:
        rec = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child exited %d: %s"
                % (proc.returncode, stderr[-500:]), "ref_s": refs}
    rec["ref_s"] = refs
    rec["setup_s"] = _unpaused(t_spawn, rec["imported"], pauses)
    if "run_start" in rec:
        rec["run_s"] = _unpaused(rec["run_start"], rec["run_end"], pauses)
    if rec.get("error"):
        rec["error"] = rec["error"].strip().splitlines()[-1]
    elif argv is not None and rec["code"] != 0:
        rec["error"] = "exit code %d: %s" % (rec["code"], stderr[-300:])
    return rec


def run_pass(invs, trace: bool, probes: list) -> list:
    """One pass over invs.  After an invocation longer than SETUP_EVERY_S a
    set-up probe is appended to probes, so that set-up is sampled across
    the whole run and not only at its start."""
    out = []
    for inv in invs:
        spans = None
        if trace:
            spans = str(WORK / "spans"
                        / ("%s.json" % inv.label.replace(":", "_")))
        rec = spawn(inv.argv, trace, spans)
        if not rec.get("error"):
            try:
                rec["error"] = inv.check(rec["stdout"])
            except Exception as e:    # a malformed output fails its check
                rec["error"] = "check raised %s: %s" % (type(e).__name__, e)
        rec["label"], rec["kind"] = inv.label, inv.kind
        rec.pop("stdout", None)
        if rec.get("error"):
            print("FAILED %s: %s" % (inv.label, rec["error"]), file=sys.stderr)
        out.append(rec)
        if rec.get("run_s", 0) > SETUP_EVERY_S:
            probes.append(spawn(None))
    return out


# ---------------------------------------------------------------------------
# Metrics


def _medians(passes, key="run_s") -> dict:
    times: dict = {}
    for recs in passes:
        for r in recs:
            if key in r:
                times.setdefault(r["label"], []).append(r[key])
    return {label: statistics.median(v) for label, v in times.items()}


def _at_nominal_speed(recs) -> float:
    """Give each record with a run time its nominal_run_s: run_s divided by
    its slowdown, the median of the reference kernel times taken while it
    ran over REF_NOMINAL_S (the median over recs for an invocation too
    short to give REF_MIN_SAMPLES of them).  Returns that overall slowdown."""
    refs = [t for r in recs for t in r.get("ref_s", ())]
    overall = statistics.median(refs) / REF_NOMINAL_S if refs else 1.0
    for r in recs:
        own = r.get("ref_s", ())
        if "run_s" in r:
            slow = (statistics.median(own) / REF_NOMINAL_S
                    if len(own) >= REF_MIN_SAMPLES else overall)
            r["nominal_run_s"] = r["run_s"] / slow
    return overall


def end_to_end(passes, probes) -> dict:
    """wall_s sums each invocation's median run time at nominal host speed.
    Set-up, mostly process start-up and file reads, follows the reference
    kernel less closely, so setup_s stays raw.  Also returned: raw_wall_s
    and the run's host_slowdown."""
    recs = [r for p in passes for r in p] + probes
    slowdown = _at_nominal_speed(recs)
    return {
        "wall_s": sum(_medians(passes, "nominal_run_s").values()),
        "setup_s": statistics.median(r["setup_s"] for r in recs
                                     if "setup_s" in r),
        "peak_rss_mb": max(r.get("maxrss_kb", 0) for r in recs) / 1024.0,
        "raw_wall_s": sum(_medians(passes).values()),
        "host_slowdown": slowdown,
    }


def per_layer(untraced, traced) -> dict:
    """Span totals over the traced pass: <span>.self_s, .calls, .entries
    (summed per-call amounts), .builds (most calls in one invocation) and
    .yield (calls that returned / calls); plus trace.overhead_s, the
    traced pass's time minus the untraced pass's, at nominal host speed."""
    _at_nominal_speed(untraced + traced)
    out = {"trace.overhead_s": (
        sum(_medians([traced], "nominal_run_s").values())
        - sum(_medians([untraced], "nominal_run_s").values()))}
    for r in traced:
        for name, agg in r.get("spans", {}).items():
            for stat, field in (("self_s", "self_s"), ("calls", "calls"),
                                ("entries", "amount"), ("ok", "ok")):
                key = name + "." + stat
                out[key] = out.get(key, 0) + agg[field]
            out[name + ".builds"] = max(out.get(name + ".builds", 0),
                                        agg["calls"])
    for key in [k for k in out if k.endswith(".ok")]:
        name = key[:-3]
        calls = out[name + ".calls"]
        out[name + ".yield"] = out.pop(key) / calls if calls else 0.0
    return out


def layer_split(traced, top: int = 5) -> dict:
    """The largest self times of each traced invocation."""
    out = {}
    for r in traced:
        spans = sorted(r.get("spans", {}).items(),
                       key=lambda kv: -kv[1]["self_s"])[:top]
        out[r["label"]] = {n: round(a["self_s"], 4) for n, a in spans}
    return out


# ---------------------------------------------------------------------------
# Environment stamp


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "otb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_start": _loadavg()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that spawn() kills its child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not ((ROOT / "src" / "otb" / "cli.py").is_file()
            and spec_path.is_file()):
        print("error: no otb source tree (src/otb) or BENCHMARK.json under %s"
              % ROOT, file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    (WORK / "spans").mkdir(parents=True, exist_ok=True)

    t_start = time.monotonic()
    env = environment()
    invs, forms = WORKLOADS[args.workload](args.seed)

    probes = [spawn(None) for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        t_pass = time.monotonic()
        passes.append(run_pass(invs, False, probes))
        took = time.monotonic() - t_pass
        if args.trace or time.monotonic() - t_start + took > args.seconds:
            break
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "passes": len(passes)}
    if args.trace:
        traced = run_pass(invs, True, probes)
        values = per_layer(passes[0], traced)
        declared = spec["per_layer"]
        detail["layer_split"] = layer_split(traced)
        passes.append(traced)
    else:
        values = end_to_end(passes, probes)
        declared = spec["end_to_end"]
        detail.update((k, values[k]) for k in ("raw_wall_s", "host_slowdown"))
    records = [r for p in passes for r in p] + probes
    failed = sum(1 for r in records if r.get("error"))
    for r in probes:
        if r.get("error"):
            print("FAILED setup probe: %s" % r["error"], file=sys.stderr)
    medians = _medians(passes[:1] if args.trace else passes)
    by_kind: dict = {}
    for inv in invs:
        if inv.label in medians:
            key = inv.kind + "_s"
            by_kind[key] = by_kind.get(key, 0.0) + medians[inv.label]
    env["loadavg_end"] = _loadavg()
    detail.update(invocation_s=medians, by_kind_s=by_kind, inputs=forms,
                  env=env)
    print(json.dumps({"detail": detail}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
