"""Command line front end.

Exit codes: 0 on success, 2 when a verification-style check fails or the
arithmetic cannot certify a value (primes disagree, no generic draw), 1 on
usage or input errors.  Output is deterministic (fixed seeds, canonical
orders); `report --all` against a builtin reproduces the committed golden
files byte for byte.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .analysis import Analysis
from .arrangement import (Arrangement, ArrangementError, BUILTIN_FORMS,
                          builtin, parse_arrangement, poincare_polynomial)
from .circuits import circuit_relation, enumerate_circuits, size_bound
from .divisors import (DivisorClass, divisor_DA, h0_fatpoints, h0_h1,
                       pairing, riemann_roch_chi)
from .exact import SEED_NAMESPACE
from .koszul import b23_formula, betti_table, tor_dimension
from .orlik_terao import substitution_quotient_dim, terao_series
from .resonance import is_neighborly, resonance_components
from .scroll import (en_prediction, minor_span_dimension, minors_in_ideal,
                     multiplication_matrix)


class UsageError(Exception):
    pass


class _Namespace:
    """The parsed options of a call, as attributes; equal, as an
    argparse.Namespace is, to any object with the same attributes."""

    def __init__(self, **kwargs):
        self.__dict__.update(kwargs)

    def __eq__(self, other):
        return vars(self) == getattr(other, "__dict__", None)


def _Parser(**kwargs):
    """An argparse parser whose usage errors raise UsageError.  argparse,
    and with it gettext, is imported here, so that a valid call, which
    `_read_plain` reads without any parser, does not import it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            # no option prefixes: circuits --m 3 must not mean --max-size 3
            super().__init__(allow_abbrev=False, **kwargs)

        def error(self, message):
            raise UsageError(message)

        def parse_args(self, args=None, namespace=None):
            # argparse turns --opt=-- into [] where one value belongs
            ns = super().parse_args(args, namespace)
            for name, value in vars(ns).items():
                if isinstance(value, list):
                    self.error("argument --%s: expected one value"
                               % name.replace("_", "-"))
            return ns

    return Parser(**kwargs)


def _frac(x) -> str:
    return str(Fraction(x))


def _load_arrangement(args) -> Arrangement:
    if args.builtin and args.arrangement:
        raise UsageError("give --builtin or --arrangement, not both")
    if args.builtin:
        return builtin(args.builtin)
    if args.arrangement:
        try:
            with open(args.arrangement, "r", encoding="utf-8") as fh:
                return parse_arrangement(fh.read())
        except OSError as e:
            raise ArrangementError("cannot read %s: %s" % (args.arrangement, e))
    raise UsageError("need --builtin NAME or --arrangement FILE")


def _arrangement_meta(arr: Arrangement) -> dict:
    by_mu: dict = {}
    for f in arr.flats:
        by_mu[f.mu] = by_mu.get(f.mu, 0) + 1
    return {
        "name": arr.name,
        "d": arr.d,
        "forms": [[_frac(c) for c in f] for f in arr.forms],
        "flat_count": len(arr.flats),
        "flats_by_mu": {str(k): by_mu[k] for k in sorted(by_mu)},
    }


def _flat_dict(f) -> dict:
    return {"point": list(f.point),
            "lines": [i + 1 for i in f.lines],
            "mu": f.mu}


def _cert_dict(arr, cert) -> dict:
    return {
        "k": cert.k,
        "m": cert.m,
        "kind": ("net" if cert.is_net
                 else ("multinet" if cert.connected else "weak-multinet")),
        "blocks": [[i + 1 for i in b] for b in cert.blocks],
        "weights": list(cert.weights),
        "base_locus": [{"point": list(f.point), "n_p": cert.n_p[f]}
                       for f in cert.Z],
        "connected": cert.connected,
        "neighborly": is_neighborly(arr, cert.blocks),
        "identities": {
            "total_weight": sum(cert.weights),
            "km": cert.k * cert.m,
            "sum_np_sq": sum(v * v for v in cert.n_p.values()),
            "m_sq": cert.m * cert.m,
        },
    }


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the Analysis of the arrangement and
# returns (results dict, exit code, lines)


def _cmd_info(an, args):
    """the forms, and the rank-two flats by multiplicity"""
    arr = an.arrangement
    meta = _arrangement_meta(arr)
    lines = ["%s: %d lines, %d rank-two flats"
             % (arr.name or "arrangement", arr.d, len(arr.flats))]
    for f in arr.forms:
        lines.append("  " + " ".join(_frac(c) for c in f))
    lines.append("flats by multiplicity: " + ", ".join(
        "mu=%s: %s" % (k, v) for k, v in meta["flats_by_mu"].items()))
    return meta, 0, lines


def _cmd_flats(an, args):
    """the rank-two flats: points, lines and multiplicities"""
    arr = an.arrangement
    res = {"flats": [_flat_dict(f) for f in arr.flats]}
    lines = ["%d rank-two flats:" % len(arr.flats)]
    for f in arr.flats:
        lines.append("  (%s) lines %s mu=%d"
                     % (":".join(str(c) for c in f.point),
                        ",".join(str(i + 1) for i in f.lines), f.mu))
    return res, 0, lines


def _cmd_poincare(an, args):
    """the Poincare polynomial"""
    poly = poincare_polynomial(an.arrangement)
    res = {"coefficients": list(poly.coefficients),
           "projective": list(poly.projective_coefficients()),
           "text": str(poly)}
    return res, 0, [str(poly)]


def _cmd_circuits(an, args):
    """the circuits of the form matroid"""
    arr = an.arrangement
    size = size_bound(arr, args.max_size)
    cs = enumerate_circuits(arr, args.max_size)
    res = {"count": len(cs), "circuits": [
        {"lines": [i + 1 for i in c.indices],
         "coefficients": list(c.coeffs),
         "relation": circuit_relation(c).to_string()}
        for c in cs]}
    lines = ["%d circuits (size <= %d)" % (len(cs), size)]
    for c in cs:
        lines.append("  {%s}: %s" % (",".join(str(i + 1) for i in c.indices),
                                     list(c.coeffs)))
    return res, 0, lines


def _cmd_ot_hilbert(an, args):
    """the Orlik-Terao Hilbert function, by series and by rank"""
    pres = an.pres
    upto = args.upto
    ts = terao_series(an.arrangement, upto)
    pres.prove_independent(upto)  # one rank at the top degree proves the lower
    dims = [substitution_quotient_dim(pres, j) for j in range(upto + 1)]
    agree = tuple(dims) == ts.coefficients
    res = {"h_polynomial": list(ts.h_polynomial),
           "series_coefficients": list(ts.coefficients),
           "linear_algebra_dimensions": dims,
           "agree": agree}
    lines = ["h-polynomial: %s" % (list(ts.h_polynomial),),
             "series:       %s" % (list(ts.coefficients),),
             "linear alg:   %s" % (dims,),
             "agree: %s" % agree]
    return res, (0 if agree else 2), lines


def _cmd_betti(an, args):
    """the graded Betti table of the Orlik-Terao algebra"""
    table = betti_table(an.engine, verify_regularity=args.verify_regularity)
    res = {
        "totals": table.totals(),
        "entries": table.to_json_map(),
        "projective_dimension": table.projective_dimension,
        "regularity": table.regularity,
        "method": "artinian-reduction",
        "quadratic_only": table.value(1, 3) == 0,
        "b23_formula": b23_formula(an.pres),
        "reduction_certificate": table.certificate,
    }
    if table.strand3:
        res["strand3"] = {str(i): v for i, v in table.strand3.items()}
    lines = table.render_text().splitlines()
    if args.verify_regularity:
        lines.append("strand 3 homology (i<=%d): %s"
                     % (len(table.strand3), sorted(table.strand3.items())))
    return res, (2 if any(table.strand3.values()) else 0), lines


def _cmd_divisor_da(an, args):
    """chi, h0 and h1 of the divisor D_A on the blowup"""
    arr = an.arrangement
    da = divisor_DA(arr)
    h0, h1 = h0_h1(arr, da)
    chi = riemann_roch_chi(arr, da)
    res = {"m": da.m,
           "multiplicities": [{"point": list(p.point), "a": v}
                              for p, v in sorted(da.mults.items(),
                                                 key=lambda kv: kv[0].point)],
           "self_intersection": pairing(da, da),
           "chi": chi, "h0": h0, "h1": h1}
    ok = (h0 == arr.d)
    lines = ["D_A = %dE0 - sum a_p E_p; D_A^2 = %d; chi = %d; h0 = %d; h1 = %d"
             % (da.m, pairing(da, da), chi, h0, h1)]
    return res, (0 if ok else 2), lines


def _cmd_h0(an, args):
    """h0 of the fat-point class m E_0 - sum a_p E_p"""
    arr = an.arrangement
    flats = arr.flats
    bad = UsageError("--mults needs %d comma-separated integers (one per "
                     "canonical flat; see the flats subcommand)" % len(flats))
    try:
        mults = [int(x) for x in args.mults.split(",")] if args.mults else []
    except ValueError:
        raise bad from None
    if len(mults) != len(flats):
        raise bad
    div = DivisorClass(args.m, {p: a for p, a in zip(flats, mults)})
    sec = h0_fatpoints(arr, div)
    chi = riemann_roch_chi(arr, div)
    res = {"m": args.m, "mults": mults, "dimension": sec.dimension,
           "chi": chi, "h1": sec.dimension - chi,
           "conditions_shape": list(sec.conditions_shape),
           "basis": [p.to_string() for p in sec.basis]}
    lines = ["h0 = %d (chi = %d, conditions %dx%d)"
             % (sec.dimension, chi, *sec.conditions_shape)]
    return res, 0, lines


def _cmd_net_search(an, args):
    """net and multinet certificates"""
    ks = [args.k] if args.k else [3, 4]
    certs = []
    for k in ks:
        certs.extend(an.multinets(k, args.max_weight))
    res = {"k": ks, "max_weight": args.max_weight,
           "certificates": [_cert_dict(an.arrangement, c) for c in certs]}
    lines = ["%d certificate(s)" % len(certs)]
    for c in certs:
        lines.append("  " + c.describe())
    return res, 0, lines


def _cmd_resonance(an, args):
    """the local and essential components of the first resonance variety"""
    arr = an.arrangement
    comps = resonance_components(an, max_weight=args.max_weight)
    out = []
    for c in comps:
        entry = {"kind": c.kind,
                 "projective_dimension": c.projective_dimension,
                 "span": [list(v) for v in c.vectors],
                 "oracle_h1": list(c.oracle_values)}
        if c.kind == "local":
            entry["flat"] = list(c.provenance.point)
        else:
            entry["certificate"] = _cert_dict(arr, c.provenance)
        out.append(entry)
    nloc = sum(1 for c in comps if c.kind == "local")
    ness = len(comps) - nloc
    res = {"local": nloc, "essential": ness, "components": out}
    lines = ["%d local + %d essential components" % (nloc, ness)]
    for c in comps:
        lines.append("  %s P^%d, oracle h1 %s"
                     % (c.kind, c.projective_dimension, list(c.oracle_values)))
    return res, 0, lines


def _cmd_scroll_check(an, args):
    """the scroll certificates of the nets"""
    arr = an.arrangement
    nets = [c for k in (3, 4) for c in an.multinets(k, 1) if c.connected]
    b23 = tor_dimension(an.engine, 2, 3) if nets else None
    checks = []
    ok = True
    for cert in nets:
        gamma = multiplication_matrix(an.pres, cert)
        in_ideal = minors_in_ideal(an.pres, gamma)
        en = en_prediction(cert, arr.d)
        match = (en.linear_syzygies == b23)
        ok = ok and in_ideal and match
        checks.append({
            "certificate": _cert_dict(arr, cert),
            "gamma": [[e.to_string() for e in row] for row in gamma.entries],
            "shape": [2, gamma.ncols],
            "one_generic": True,      # by the lemma in multiplication_matrix
            "minors_in_ideal": in_ideal,
            "minor_span_dimension": minor_span_dimension(arr, gamma),
            "en_b": en.b,
            "en_betti": list(en.betti),
            "computed_b23": b23,
            "en_matches_b23": match,
        })
    res = {"nets": len(nets), "checks": checks, "all_ok": ok}
    lines = ["%d net(s)" % len(nets)]
    for ch in checks:
        lines.append("  gamma 2x%d one-generic=%s minors-in-ideal=%s "
                     "EN beta1=%d b23=%d"
                     % (ch["shape"][1], ch["one_generic"],
                        ch["minors_in_ideal"], ch["en_betti"][1],
                        ch["computed_b23"]))
    return res, (0 if ok else 2), lines


def _cmd_jacobian_check(an, args):
    """whether the Jacobian ideal lies in the span of the l_i

    It does for every arrangement, by the product rule: with alpha the
    product of the forms a_i and l_i = alpha / a_i, d(alpha)/dx_t =
    sum_i a_i[t] l_i for t = 0, 1, 2."""
    return {"jacobian_in_l_span": True}, 0, ["jacobian ideal contained: True"]


def _cmd_gradient_degree(an, args):
    """the degree of the gradient map

    The degree of the gradient map of the defining polynomial is
    sum mu - d + 1 (Dimca and Papadima, "Hypersurface complements, Milnor
    fibers and higher homotopy groups of arrangements", 2003).  With the
    Poincare polynomial (1, d, sum mu, sum mu - d + 1), that is b2 - b1 + 1:
    one number, so the two fields agree by construction."""
    _, b1, b2, _ = poincare_polynomial(an.arrangement).coefficients
    val = b2 - b1 + 1
    res = {"gradient_degree": val, "b2_minus_b1_plus_1": val, "agree": True}
    return res, 0, ["gradient degree: %d" % val]


def _cmd_report(an, args):
    """every analysis in one JSON payload (the golden files)"""
    results = {}
    code = 0
    for name, fn, extra in (
            ("info", _cmd_info, {}),
            ("flats", _cmd_flats, {}),
            ("poincare", _cmd_poincare, {}),
            ("circuits", _cmd_circuits, {"max_size": None}),
            ("ot_hilbert", _cmd_ot_hilbert, {"upto": 5}),
            ("betti", _cmd_betti, {"verify_regularity": True}),
            ("divisor_da", _cmd_divisor_da, {}),
            ("net_search", _cmd_net_search, {"k": None, "max_weight": 2}),
            ("resonance", _cmd_resonance, {"max_weight": 2}),
            ("scroll_check", _cmd_scroll_check, {}),
            ("jacobian_check", _cmd_jacobian_check, {}),
            ("gradient_degree", _cmd_gradient_degree, {}),
    ):
        sub = _Namespace(**extra)
        out, c, _ = fn(an, sub)
        results[name] = out
        code = max(code, c)
    return results, code, []


_COMMANDS = {
    "info": _cmd_info,
    "flats": _cmd_flats,
    "poincare": _cmd_poincare,
    "circuits": _cmd_circuits,
    "ot-hilbert": _cmd_ot_hilbert,
    "betti": _cmd_betti,
    "divisor-da": _cmd_divisor_da,
    "h0": _cmd_h0,
    "net-search": _cmd_net_search,
    "resonance": _cmd_resonance,
    "scroll-check": _cmd_scroll_check,
    "jacobian-check": _cmd_jacobian_check,
    "gradient-degree": _cmd_gradient_degree,
    "report": _cmd_report,
}


def _int_at_least(low: int):
    """An argparse type: an integer >= low (argparse's error message names
    the function, hence `integer`)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            import argparse
            raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                             % (low, value))
        return value
    return integer


# Each subcommand's options as (flag, add_argument keywords); the parsers
# and `_read_plain` both read them from here
_COMMON = (
    ("--builtin", {"choices": sorted(BUILTIN_FORMS),
                   "help": "use a named builtin arrangement"}),
    ("--arrangement", {"metavar": "FILE",
                       "help": 'JSON file {"name": ..., '
                               '"forms": [[q,q,q],...]}'}),
    ("--format", {"choices": ("text", "json"), "default": "text"}),
)
_EXTRA = {
    "circuits": (("--max-size", {"type": _int_at_least(0)}),),
    "ot-hilbert": (("--upto", {"type": _int_at_least(0), "default": 5}),),
    "betti": (("--verify-regularity", {"action": "store_true"}),),
    "h0": (("--m", {"type": int, "required": True}),
           ("--mults", {"default": "",
                        "help": "comma-separated multiplicities in "
                                "canonical flat order"})),
    "net-search": (("--k", {"type": int, "choices": (3, 4)}),
                   ("--max-weight", {"type": _int_at_least(1),
                                     "default": 1})),
    "resonance": (("--max-weight", {"type": _int_at_least(1),
                                    "default": 2}),),
    "report": (("--all", {"action": "store_true",
                          "help": "run every analysis (the golden-file "
                                  "payload)"}),),
}
_OPTIONS = {name: _COMMON + _EXTRA.get(name, ()) for name in _COMMANDS}


def _read_plain(name: str, tokens) -> _Namespace | None:
    """The Namespace that subcommand `name`'s parser makes of `tokens`, read
    straight from `_OPTIONS`; None unless every token is plain: each is one
    of the subcommand's flags, at most once, followed (unless a switch) by a
    value that does not start with "-" and that the option's type and
    choices accept (a type that raises anything rejects it), with every
    required option given."""
    options = dict(_OPTIONS[name])
    values = {}
    tokens = iter(tokens)
    for flag in tokens:
        kwargs = options.pop(flag, None)    # popped: a repeat is unknown
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            values[flag] = True
            continue
        text = next(tokens, "-")            # a missing value is not plain
        if text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except Exception:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[flag] = value
    for flag, kwargs in options.items():    # argparse's defaults
        if kwargs.get("required"):
            return None
        if kwargs.get("action") == "store_true":
            value = False
        else:
            value = kwargs.get("default")
            if isinstance(value, str):      # argparse types a str default
                value = kwargs.get("type", str)(value)
        values[flag] = value
    return _Namespace(command=name, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def _build_parser():
    parser = _Parser(prog="otb", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, fn in _COMMANDS.items():     # --help lists each first line
        p = sub.add_parser(name, help=fn.__doc__.partition("\n")[0])
        for flag, kwargs in _OPTIONS[name]:
            p.add_argument(flag, **kwargs)
    return parser


def _parse_args(argv) -> _Namespace:
    """The Namespace of `_build_parser().parse_args(argv)`; UsageError when
    argv names no subcommand.  A valid call with plain tokens builds no
    parser at all: `_read_plain` reads it from the option table, filling in
    defaults as argparse does.  The full parser serves the rest: usage
    errors, -h and --help, --version, no command or an unknown one."""
    if argv and argv[0] in _COMMANDS:
        args = _read_plain(argv[0], argv[1:])
        if args is not None:
            return args
    args = _build_parser().parse_args(argv)
    if not args.command:
        raise UsageError("missing subcommand, one of "
                         + ", ".join(_COMMANDS))
    return args


def run(argv) -> int:
    """Dispatch; prints the report to stdout and returns the exit code."""
    try:
        args = _parse_args(argv)
        arr = _load_arrangement(args)
        results, code, lines = _COMMANDS[args.command](Analysis(arr), args)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 1
    except ValueError as e:       # ArrangementError and bad option values
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as e:
        print("verification failed: %s" % e, file=sys.stderr)
        return 2
    if args.command == "report":
        payload = {
            "tool": "otb",
            "version": __version__,
            "seed": SEED_NAMESPACE,
            "arrangement": _arrangement_meta(arr),
            "results": results,
        }
        print(json.dumps(payload, indent=2))
        return code
    if args.format == "json":
        payload = {
            "tool": "otb",
            "version": __version__,
            "seed": SEED_NAMESPACE,
            "arrangement": {"name": arr.name, "d": arr.d},
            "command": args.command,
            "results": results,
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); point it at devnull
        # so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


# The objects alive once the imports are done (modules, functions, option
# tables) last as long as the process.  Frozen, they leave the collector's
# generations, so no collection during a call scans them again, whatever
# the imports left pending.
gc.freeze()

if __name__ == "__main__":
    main()
