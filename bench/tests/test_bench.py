"""Tests of the benchmark's own parts: output checks, span recorder, inputs.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import otb.cli  # noqa: E402
import otb.exact  # noqa: E402
import otb.koszul  # noqa: E402
import run  # noqa: E402
from otb.arrangement import BUILTIN_FORMS  # noqa: E402
from spans import Recorder  # noqa: E402


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert otb.cli.run(argv) == 0
    return buf.getvalue()


def test_golden_check_flags_a_one_byte_change():
    gold = ROOT / "golden" / "ex-2-4.json"
    out = cli_stdout(["report", "--all", "--builtin", "ex-2-4"])
    assert checks.golden_bytes(out, gold) is None
    at = out.index('"d": 4') + len('"d": ')
    bad = out[:at] + "5" + out[at + 1:]
    assert "at byte %d" % at in checks.golden_bytes(bad, gold)


def test_betti_check_flags_a_wrong_entry():
    forms = BUILTIN_FORMS["braid-a3"]
    payload = json.loads(cli_stdout(
        ["betti", "--builtin", "braid-a3", "--format", "json"]))
    assert checks.betti(payload, forms) is None
    res = payload["results"]
    res["entries"]["2,4"] += 1
    res["totals"][2] += 1          # totals stay consistent with the entries
    assert "alternating sum in degree 4" in checks.betti(payload, forms)


def test_h0_check_flags_a_wrong_dimension():
    res = {"results": {"dimension": 3, "chi": 2}}
    assert checks.h0(res, 4, [1] * 13, 3) is None
    assert "recorded value 4" in checks.h0(res, 4, [1] * 13, 4)


def test_recorder_spans_nest_and_self_times_sum_to_cli_run():
    rec = Recorder()
    rec.install()
    try:
        out = cli_stdout(["report", "--all", "--builtin", "ex-2-4"])
    finally:
        rec.uninstall()
    assert checks.golden_bytes(out, ROOT / "golden" / "ex-2-4.json") is None
    names = [rec.names[i] for i in rec.name]
    assert names[0] == "cli.run" and names.count("cli.run") == 1
    for i in range(1, len(names)):
        p = rec.parent[i]
        assert 0 <= p < i
        assert rec.start[p] <= rec.start[i] <= rec.end[i] <= rec.end[p]
    own = rec.self_times()
    assert min(own) >= 0
    assert sum(own) <= (rec.end[0] - rec.start[0]) * (1 + 1e-9)
    summary = rec.summary()
    assert summary["cli.run"]["calls"] == 1
    assert summary["orlik_terao.OTPresentation"]["calls"] >= 1


def test_recorder_rebinds_every_namespace_and_restores():
    orig = otb.exact.modp_rank
    rec = Recorder()
    rec.install()
    try:
        assert otb.koszul.modp_rank is otb.exact.modp_rank
        assert otb.exact.modp_rank is not orig
    finally:
        rec.uninstall()
    assert otb.koszul.modp_rank is orig and otb.exact.modp_rank is orig


def test_default_seed_inputs_are_recorded_and_generic():
    recorded = json.loads((BENCH / "inputs_seed0.json").read_text())
    for workload in ("scale-b3plus", "small-exact"):
        _, forms = run.WORKLOADS[workload](0)
        assert forms == recorded[workload]
        for name, fs in forms.items():
            base = len(BUILTIN_FORMS[name.split("+")[0]])
            for lines in checks.flats(fs).values():
                assert len(lines) == 2 or max(lines) < base, name


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "golden-d9", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
