import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import otb.cli
import otb.resonance
from otb.analysis import Analysis
from otb.arrangement import ArrangementError, parse_arrangement
from otb.cli import run
from otb.exact import GenericityError
from otb.koszul import ReducedEngine
from otb.orlik_terao import OTPresentation

from conftest import FullEngine, plant_non_commuting

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poincare_text(capsys):
    code, out, _ = _capture(capsys, ["poincare", "--builtin", "9_3_2"])
    assert code == 0
    assert out.strip() == "1+9t+27t^2+19t^3"


def test_betti_text_table_layout(capsys):
    code, out, _ = _capture(capsys, ["betti", "--builtin", "braid-a3"])
    assert code == 0
    assert [l.split() for l in out.strip().splitlines()] == [
        ["total", "1", "4", "5", "2"],
        ["0:", "1", "-", "-", "-"],
        ["1:", "-", "4", "2", "-"],
        ["2:", "-", "-", "3", "2"],
    ]


def test_unknown_builtin_usage_error(capsys):
    code, _, err = _capture(capsys, ["flats", "--builtin", "nope"])
    assert code == 1


def test_missing_source_usage_error(capsys):
    code, _, err = _capture(capsys, ["flats"])
    assert code == 1
    assert "usage error" in err


def test_missing_subcommand(capsys):
    code, _, err = _capture(capsys, [])
    assert code == 1
    assert err == ("usage error: missing subcommand, one of %s\n"
                   % ", ".join(otb.cli._COMMANDS))


def test_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as done:
        run(["--help"])
    assert done.value.code == 0
    listed = re.findall(r"^    (\S+)", capsys.readouterr().out, re.M)
    assert listed == list(otb.cli._COMMANDS)


def test_two_arrangement_sources_are_a_usage_error(tmp_path, capsys):
    path = tmp_path / "b3.json"
    path.write_text(json.dumps({"forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, out, err = _capture(capsys, ["betti", "--builtin", "b3",
                                       "--arrangement", str(path)])
    assert code == 1 and out == ""
    assert err == "usage error: give --builtin or --arrangement, not both\n"


@pytest.mark.parametrize("argv", [
    ["circuits", "--builtin", "b3", "--m", "3"],
    ["resonance", "--builtin", "b3", "--m", "1"]])
def test_an_option_prefix_is_a_usage_error(argv, capsys):
    # --m is h0's option; a prefix of --max-size or --max-weight is no alias
    code, out, err = _capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: unrecognized arguments: --m ")


def test_net_search_empty_exits_zero(capsys):
    code, out, _ = _capture(capsys, ["net-search", "--builtin", "9_3_2",
                                     "--k", "3"])
    assert code == 0
    assert "0 certificate(s)" in out


def test_net_search_json(capsys):
    code, out, _ = _capture(capsys, ["net-search", "--builtin", "braid-a3",
                                     "--k", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    certs = payload["results"]["certificates"]
    assert len(certs) == 1
    assert certs[0]["blocks"] == [[1, 6], [2, 5], [3, 4]]
    assert certs[0]["kind"] == "net"
    assert certs[0]["neighborly"] is True


def test_scroll_check_exit_zero(capsys):
    code, out, _ = _capture(capsys, ["scroll-check", "--builtin", "braid-a3"])
    assert code == 0
    assert "EN beta1=2 b23=2" in out


def test_jacobian_check(capsys):
    code, out, _ = _capture(capsys, ["jacobian-check", "--builtin", "9_3_1"])
    assert code == 0
    assert "True" in out


def test_gradient_degree_json(capsys):
    code, out, _ = _capture(capsys, ["gradient-degree", "--builtin",
                                     "braid-a3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["gradient_degree"] == 6
    assert payload["results"]["agree"] is True


def test_ot_hilbert(capsys):
    code, out, _ = _capture(capsys, ["ot-hilbert", "--builtin", "braid-a3",
                                     "--upto", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    res = payload["results"]
    assert res["agree"] is True
    assert res["series_coefficients"] == [1, 6, 17, 34, 57]


def test_h0_subcommand(capsys):
    arr_mults = ",".join(["1"] * 7)
    code, out, _ = _capture(capsys, ["h0", "--builtin", "braid-a3",
                                     "--m", "3", "--mults", arr_mults])
    assert code == 0
    assert out.startswith("h0 = 3")


def test_h0_needs_correct_mult_count(capsys):
    code, _, err = _capture(capsys, ["h0", "--builtin", "braid-a3",
                                     "--m", "3", "--mults", "1,1"])
    assert code == 1
    assert "7 comma-separated" in err


def test_h0_non_integer_mult_is_a_usage_error(capsys):
    code, out, err = _capture(capsys, ["h0", "--builtin", "braid-a3",
                                       "--m", "3", "--mults", "a,1,1,1,1,1,1"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: --mults needs 7 comma-separated")
    assert "invalid literal" not in err


def test_file_input(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(
        {"name": "tri+1", "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                    ["1/2", 1, 1]]}))
    code, out, _ = _capture(capsys, ["info", "--arrangement", str(path)])
    assert code == 0
    assert "4 lines" in out


def test_file_input_duplicate_line(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(
        {"forms": [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, _, err = _capture(capsys, ["info", "--arrangement", str(path)])
    assert code == 1
    assert "duplicate line" in err


def test_flats_json_shape(capsys):
    code, out, _ = _capture(capsys, ["flats", "--builtin", "ex-2-4",
                                     "--format", "json"])
    payload = json.loads(out)
    flats = payload["results"]["flats"]
    assert len(flats) == 6
    assert all(f["mu"] == 1 for f in flats)


def test_repeat_invocations_byte_identical(capsys):
    a = _capture(capsys, ["resonance", "--builtin", "braid-a3",
                          "--format", "json"])
    b = _capture(capsys, ["resonance", "--builtin", "braid-a3",
                          "--format", "json"])
    assert a == b


@pytest.mark.parametrize("name", ["braid-a3", "ex-2-4", "9_3_1", "9_3_2",
                                  "b3"])
def test_report_matches_golden(name, capsys):
    code, out, _ = _capture(capsys, ["report", "--all", "--builtin", name])
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, "%s.json" % name),
              encoding="utf-8") as fh:
        golden = fh.read()
    assert out == golden


def _source_env() -> dict:
    """The environment that runs `python -m otb` from this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_tool():
    # a source checkout runs the tool as `python -m otb`, which the README's
    # golden-regeneration loop uses
    done = subprocess.run([sys.executable, "-m", "otb", "report", "--all",
                           "--builtin", "ex-2-4"],
                          capture_output=True, env=_source_env(), check=True)
    with open(os.path.join(GOLDEN_DIR, "ex-2-4.json"), "rb") as fh:
        assert done.stdout == fh.read()


def test_a_valid_call_does_not_import_argparse():
    # argparse, and gettext with it, is imported only to build a parser,
    # for --help and usage errors
    code = ("import sys, otb.cli\n"
            "assert otb.cli.run(['circuits', '--builtin', 'braid-a3', "
            "'--max-size', '3']) == 0\n"
            "print('argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_source_env(), check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_closed_stdout_pipe_exits_one_without_a_traceback():
    # the reader is gone before the tool writes its 15 kB report
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "otb", "report", "--all",
                               "--builtin", "braid-a3"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_source_env(), timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert b"Traceback" not in done.stderr, done.stderr.decode()


# Each subcommand's options, valid, and argvs that each parser must treat
# alike: an invalid choice, an unknown option, h0 without --m, and values
# that argparse or `_int_at_least` reject (or, on a subcommand without the
# option, an unrecognized argument)
_VALID_OPTIONS = {
    "circuits": ["--max-size", "3"],
    "ot-hilbert": ["--upto", "2"],
    "betti": ["--verify-regularity"],
    "h0": ["--m", "3", "--mults", "1,1"],
    "net-search": ["--k", "3", "--max-weight", "2"],
    "resonance": ["--max-weight", "1"],
    "report": ["--all"],
}
_FAULTS = (["--builtin", "nope"], ["--bogus"], ["--m"], ["--max-size=--"],
           ["--upto", "-1"], ["--max-weight", "0"], ["--format", "xml"],
           ["--m", "3", "--", "x"], ["-h"], ["--max", "2"], ["--m", "1"])


class _Parsed(Exception):
    pass


def _outcome(parse, argv, capsys):
    """The Namespace that `parse(argv)` reaches, or its exit code and
    output."""
    try:
        return parse(argv)
    except _Parsed as stop:
        return stop.args[0]
    except SystemExit as done:
        return done.code, capsys.readouterr()


@pytest.mark.parametrize("name", sorted(otb.cli._COMMANDS))
def test_one_subcommand_parser_parses_as_the_full_parser(name, monkeypatch,
                                                          capsys):
    # a call naming one subcommand, through `run`, reaches the Namespace,
    # exit code, stdout and stderr of the full parser: the plain reader on
    # valid calls, the full parser itself on the rest
    build = otb.cli._build_parser

    def full(argv):
        try:
            return build().parse_args(argv)
        except otb.cli.UsageError as e:
            print("usage error: %s" % e, file=sys.stderr)
            return 1, capsys.readouterr()

    def stop(args):
        raise _Parsed(args)

    def one(argv):
        code = run(argv)
        return code, capsys.readouterr()

    monkeypatch.setattr(otb.cli, "_load_arrangement", stop)
    valid = [name, "--builtin", "b3"] + _VALID_OPTIONS.get(name, [])
    parsed = 0
    for argv in [valid, [name, "--builtin", "b3"]] + [
            valid + fault for fault in _FAULTS]:
        expected = _outcome(full, argv, capsys)
        assert _outcome(one, argv, capsys) == expected, argv
        parsed += isinstance(expected, argparse.Namespace)
    assert parsed >= 1


def _by_argparse(name, tokens):
    """What the full parser makes of subcommand `name` and `tokens`."""
    return otb.cli._build_parser().parse_args([name] + list(tokens))


_FLAGS = sorted({flag for options in otb.cli._OPTIONS.values()
                 for flag, _ in options})
_VALUES = ("b3", "nope", "text", "json", "xml", "0", "1", "3", " 3", "-1",
           "1,1", "", "x", "-", "-x", "--", "-h", "2 -1")
_values = st.sampled_from(_VALUES)
_tokens = st.lists(
    st.lists(st.sampled_from(_FLAGS), min_size=1, max_size=1)
    | st.tuples(st.sampled_from(_FLAGS), _values).map(list)
    | st.tuples(st.sampled_from(_FLAGS), _values)
    .map(lambda fv: ["%s=%s" % fv])
    | st.lists(st.sampled_from(("-h", "--help", "--", "-x", "x") + _VALUES),
               min_size=1, max_size=1),
    max_size=5).map(lambda pieces: sum(pieces, []))


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(otb.cli._COMMANDS)), tokens=_tokens)
@example(name="net-search", tokens=["--max-weight", "0"])
@example(name="info", tokens=["--arrangement", "-x"])
@example(name="info", tokens=["--format", "xml"])
@example(name="h0", tokens=["--mults", "1,1"])
@example(name="h0", tokens=["--m", "3", "--m", "4"])
def test_plain_reader_agrees_with_argparse(name, tokens):
    # own and other subcommands' flags, good and bad values, repeats, "="
    # spellings, negative numbers, -h and --: wherever the reader answers,
    # argparse answers the same; elsewhere argparse alone is asked
    args = otb.cli._read_plain(name, tokens)
    if args is not None:
        assert args == _by_argparse(name, tokens), tokens


def test_plain_reader_types_a_str_default(monkeypatch):
    # argparse passes a str default through the option's type; no option
    # of today's table has both, so one is planted
    monkeypatch.setitem(otb.cli._OPTIONS, "info", otb.cli._COMMON + (
        ("--n", {"type": otb.cli._int_at_least(0), "default": "7"}),))
    args = otb.cli._read_plain("info", [])
    assert args.n == 7 and args == _by_argparse("info", [])


@pytest.mark.parametrize("name", sorted(otb.cli._COMMANDS))
def test_a_valid_call_builds_no_parser(name, monkeypatch):
    def no_parser(self, *args, **kwargs):
        raise AssertionError("a valid call built an argparse parser")

    def stop(args):
        raise _Parsed(args)
    monkeypatch.setattr(otb.cli, "_load_arrangement", stop)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    argv = [name, "--builtin", "b3"] + _VALID_OPTIONS.get(name, [])
    with pytest.raises(_Parsed) as parsed:
        run(argv)
    monkeypatch.undo()
    assert parsed.value.args[0] == _by_argparse(name, argv[1:])


@pytest.mark.parametrize("doc", [{"forms": [5, 6, 7]}, {"forms": 5}])
def test_malformed_file_is_an_input_error(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _capture(capsys, ["info", "--arrangement", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("exc", [
    ArithmeticError("a given cycle is not in the kernel"),
    GenericityError("genericity precondition failed after 5 draws"),
    RecursionError("maximum recursion depth exceeded"),
])
def test_engine_failure_is_a_verification_failure(exc, monkeypatch, capsys):
    def fail(self):
        raise exc
    monkeypatch.setattr(Analysis, "engine", property(fail))
    code, out, err = _capture(capsys, ["betti", "--builtin", "braid-a3"])
    assert code == 2 and out == ""
    assert err == "verification failed: %s\n" % exc


def test_planted_non_cycle_is_a_verification_failure(monkeypatch, capsys):
    # a strand whose known cycles include a vector outside the kernel: the
    # maps of degree 1 planted out of step, so that they no longer commute
    maps = ReducedEngine.maps

    def planted(self, q):
        if q == 1:
            return plant_non_commuting(maps(self, 1), maps(self, 0))
        return maps(self, q)
    monkeypatch.setattr(ReducedEngine, "maps", planted)
    code, out, err = _capture(capsys, ["betti", "--builtin", "braid-a3"])
    assert code == 2 and out == ""
    assert err == "verification failed: a given cycle is not in the kernel\n"


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 2.27 GiB for an array with shape (17460, 17460) "
     "and data type int64", None),
    ("", "allocation failed"),
], ids=["numpy-message", "no-message"])
def test_out_of_memory_is_one_line_and_exit_3(message, shown, monkeypatch,
                                               capsys):
    def fail(self):
        raise MemoryError(message)
    monkeypatch.setattr(Analysis, "engine", property(fail))
    code, out, err = _capture(capsys, ["betti", "--builtin", "braid-a3"])
    assert code == 3 and out == ""
    assert err == "error: out of memory: %s\n" % (shown or message)


def test_report_builds_shared_objects_once(monkeypatch, capsys):
    counts = {"presentations": 0, "searches": 0, "reduced": 0, "full": 0}
    build = OTPresentation.__init__
    reduce = ReducedEngine.__init__
    full = FullEngine.__init__
    search = otb.resonance.search_multinets

    def counted_build(self, *args, **kwargs):
        counts["presentations"] += 1
        build(self, *args, **kwargs)

    def counted_reduce(self, *args, **kwargs):
        counts["reduced"] += 1
        reduce(self, *args, **kwargs)

    def counted_full(self, *args, **kwargs):
        counts["full"] += 1
        full(self, *args, **kwargs)

    def counted_search(*args, **kwargs):
        counts["searches"] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(OTPresentation, "__init__", counted_build)
    monkeypatch.setattr(ReducedEngine, "__init__", counted_reduce)
    monkeypatch.setattr(FullEngine, "__init__", counted_full)
    for name, module in list(sys.modules.items()):
        if name.startswith("otb") and \
                getattr(module, "search_multinets", None) is search:
            monkeypatch.setattr(module, "search_multinets", counted_search)
    code, _, _ = _capture(capsys, ["report", "--all", "--builtin",
                                   "braid-a3"])
    assert code == 0
    # net-search and resonance share the (k, weight 2) searches; scroll-check
    # runs its own (k, weight 1) ones; betti and scroll-check share the one
    # Artinian reduction, and the full Koszul engine is never built
    assert counts == {"presentations": 1, "searches": 4, "reduced": 1,
                      "full": 0}


def test_huge_exponent_is_an_input_error(tmp_path, capsys):
    # a few bytes that would stand for a 4001-digit coefficient
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(
        {"forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["1e4000", 1, 1]]}))
    start = time.perf_counter()
    code, out, err = _capture(capsys, ["info", "--arrangement", str(path)])
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exponent" in err


def test_form_past_the_size_cap_is_named(tmp_path, capsys):
    # each denominator has 3000 digits and prints; their product, which
    # normalizing the form makes, would not
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"forms": [
        [1, 0, 0], [0, 1, 0], [0, 0, 1],
        ["1/" + "7" * 3000, "1/" + "3" * 2999 + "1", 1]]}))
    code, out, err = _capture(capsys, ["info", "--arrangement", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: form 4: ") and err.count("\n") == 1
    assert "bits" in err


@pytest.mark.parametrize("size, count", [(0, 0), (3, 4), (9, 7)])
def test_circuits_label_names_the_bound_used(size, count, capsys):
    code, out, _ = _capture(capsys, ["circuits", "--builtin", "braid-a3",
                                     "--max-size", str(size)])
    assert code == 0
    assert out.splitlines()[0] == "%d circuits (size <= %d)" \
        % (count, min(size, 6))


@pytest.mark.parametrize("argv", [
    ["circuits", "--max-size=-1"],
    ["ot-hilbert", "--upto=-1"],
    ["net-search", "--max-weight=0"],
    ["resonance", "--max-weight=-2"],
])
def test_negative_numeric_option_is_a_usage_error(argv, capsys):
    code, out, err = _capture(capsys, argv + ["--builtin", "braid-a3"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "must be at least" in err


@pytest.mark.parametrize("argv", [
    ["circuits", "--max-size=--"],
    ["ot-hilbert", "--upto=--"],
    ["h0", "--m=--", "--mults=--"],
    ["resonance", "--max-weight=--"],
])
def test_double_dash_option_value_is_a_usage_error(argv, capsys):
    code, out, err = _capture(capsys, argv + ["--builtin", "braid-a3"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "expected one value" in err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=12)
_coefficients = (st.integers(-3, 3)
                 | st.sampled_from(["1/2", "-2/3", "1/0", "x", ""])
                 | _json_values)
_arrangement_docs = st.fixed_dictionaries(
    {"forms": st.lists(st.lists(_coefficients, min_size=2, max_size=4),
                       max_size=7)},
    optional={"name": _json_values}) | _json_values


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_arrangement_docs)
def test_fuzzed_arrangement_files_never_trace(doc, tmp_path, capsys):
    text = json.dumps(doc)
    try:
        parse_arrangement(text)
    except ArrangementError:
        pass
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    code, _, err = _capture(capsys, ["info", "--arrangement", str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err


_mults = (st.lists(st.integers(-2, 4), min_size=5, max_size=9)
          .map(lambda v: ",".join(map(str, v)))
          | st.text("0123456789,- x", max_size=12))
_option_argvs = (
    st.builds(lambda m, mults: ["h0", "--m=%d" % m, "--mults=" + mults],
              st.integers(-2, 6), _mults)
    | st.builds(lambda n: ["circuits", "--max-size=%s" % n],
                st.integers(-3, 8) | st.text("0123456789- x", max_size=4))
    | st.builds(lambda n: ["ot-hilbert", "--upto=%s" % n],
                st.integers(-3, 5) | st.text("0123456789- x", max_size=3)
                .filter(lambda t: not t.strip().isdigit())))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_option_argvs)
def test_fuzzed_numeric_options_never_trace(argv, capsys):
    # values stay small (--upto <= 5 on braid-a3) so each run is quick
    code, _, err = _capture(capsys, argv + ["--builtin", "braid-a3"])
    assert code in (0, 1)
    assert "Traceback" not in err
