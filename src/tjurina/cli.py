"""Command-line front end.

Subcommands:

* ``analyze``        full singularity report at a rational point
* ``classify``       the double-point algorithm (simple / A_n / mult >= 3)
* ``global-tjurina`` degree of the Jacobian scheme of a projective curve
* ``family``         closed-form vs live verification for x^a+y^a+x^b*y^c

Exit codes: 0 success, 1 a ``family`` mismatch, or stdout closed before
the output is written (``| head -1``; nothing on stderr), 2 malformed input
(expressions, points, flags, zero or constant curves), 3 analysis failure
(curve not reduced at the point, or an exponent outside the engine's packed
range), 4 point not on the curve (classify).  The ``warnings`` field of
``analyze --json`` and ``global-tjurina --json`` is always [].
JSON fields are exact: integers as numbers, non-integer rationals as
"p/q" strings; no floats.  Every ``--json`` document is written by
``_json_text``, which gives the bytes of ``json.dumps(doc, indent=2)``
without the json module's pure-Python indenting encoder, and refuses a
float with TypeError.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

try:  # json's own C string escaper, without loading the json package and its regexes
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

from . import __version__
from .exprio import ExprSyntaxError, parse_poly, render_poly
from .groebner import MonomialRangeError
from .lengths import INFINITE, StabilizationError
from .poly import Polynomial, translate_to_origin

if TYPE_CHECKING:
    from .analyzer import SingularityReport

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_ANALYSIS = 3
EXIT_OFF_CURVE = 4

# Each subcommand imports the engine it runs when it runs, so a process loads
# only its own subcommand's modules.  The engine names this module bound at
# import before stay readable as its attributes.
_ENGINE_NAMES = frozenset({
    "DoubleA", "SimplePoint", "SingularityReport", "analyze", "classify_double_point",
    "FamilyParams", "admissible_params", "min_tjurina", "predicted_gb", "verify_params",
    "global_tjurina",
})


def __getattr__(name):
    if name in _ENGINE_NAMES:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise _CliError(EXIT_BAD_INPUT, f"bad rational number {text!r}: {e}") from e


def _parse_point(text: str, dim: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != dim:
        raise _CliError(EXIT_BAD_INPUT, f"point must have {dim} comma-separated coordinates")
    return tuple(_parse_rational(p) for p in parts)


def _parse_curve(text: str, ambient: str) -> Polynomial:
    try:
        return parse_poly(text, ambient)
    except ExprSyntaxError as e:
        raise _CliError(EXIT_BAD_INPUT, f"cannot parse curve: {e}") from e


def _exact(v):
    """JSON encoding of an exact number: int stays int, fractions as 'p/q'."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


# How ``json.dumps`` writes a value of each scalar type (exact types only).
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for documents of values
    whose type is exactly str, int, bool or None, held in lists, tuples and
    dicts with str keys.  Any other value, a float for instance, raises
    TypeError."""
    parts: list[str] = []
    _encode(doc, "\n", parts)
    return "".join(parts)


def _encode(o, newline: str, parts: list[str]) -> None:
    scalar = _JSON_SCALARS.get(type(o))
    if scalar is not None:
        parts.append(scalar(o))
        return
    if isinstance(o, dict):
        items, bracket, close = o.items(), "{", "}"
    elif isinstance(o, (list, tuple)):
        items, bracket, close = o, "[", "]"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        parts.append(bracket + close)
        return
    inner = newline + "  "
    sep = bracket + inner
    for item in items:
        if bracket == "{":
            key, item = item
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts += (sep, encode_basestring_ascii(key), ": ")
        else:
            parts.append(sep)
        _encode(item, inner, parts)
        sep = "," + inner
    parts.append(newline + close)


def _report_document(curve_text: str, point, report: SingularityReport,
                     elapsed_ms: int) -> dict:
    return {
        "version": __version__,
        "curve": curve_text,
        "point": [_exact(c) for c in point],
        "multiplicity": report.multiplicity,
        "ordinary": report.ordinary,
        "tjurina": report.tjurina,
        "milnor": report.milnor,
        "symmetry_order": report.symmetry_order,
        "classification": str(report.classification),
        "trace_tjurina": [[r, a] for r, a in report.tjurina_trace.pairs],
        "trace_milnor": [[r, a] for r, a in report.milnor_trace.pairs],
        "warnings": [],
        "elapsed_ms": elapsed_ms,
    }


def _print_human_report(doc: dict, report: SingularityReport, curve: Polynomial, out,
                        with_trace: bool = False):
    point = ",".join(str(c) for c in doc["point"])
    print(f"curve: {doc['curve']}", file=out)
    print(f"point: ({point})", file=out)
    if not report.is_on_curve:
        print("the point is not on the curve", file=out)
        return
    print(f"multiplicity: {report.multiplicity}", file=out)
    if report.multiplicity == 1:
        g = translate_to_origin(curve, report.point)
        tangent = render_poly(g.homogeneous_component(1))
        print(f"smooth point, tangent: {tangent} = 0", file=out)
        return
    cls = report.classification
    if cls.kind == "A_n":
        print(f"{cls} (tau = {report.tjurina})", file=out)
    else:
        print(f"classification: {cls}", file=out)
    print(f"ordinary: {report.ordinary}", file=out)
    print(f"tjurina: {report.tjurina}", file=out)
    print(f"milnor: {report.milnor}", file=out)
    print(f"symmetry order: {report.symmetry_order}", file=out)
    if with_trace:
        print(f"trace tjurina: {list(report.tjurina_trace.pairs)}", file=out)
        print(f"trace milnor: {list(report.milnor_trace.pairs)}", file=out)


def cmd_analyze(args, out) -> int:
    from .analyzer import analyze

    point = _parse_point(args.point, 2)
    if args.curves_file:
        try:
            with open(args.curves_file, encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh]
        except OSError as e:
            raise _CliError(EXIT_BAD_INPUT, f"cannot read {args.curves_file}: {e}") from e
        texts = [ln for ln in lines if ln and not ln.startswith("#")]
        if not texts:
            raise _CliError(EXIT_BAD_INPUT, f"no curve in {args.curves_file}")
    elif args.curve:
        texts = [args.curve]
    else:
        raise _CliError(EXIT_BAD_INPUT, "one of --curve / --curves-file is required")
    curves = [_parse_curve(t, "affine2") for t in texts]
    if any(not c.degree() for c in curves):  # degree None (zero) or 0 (nonzero constant)
        raise _CliError(EXIT_BAD_INPUT, "a constant polynomial does not define a curve")

    results = []
    for curve in curves:
        t0 = time.monotonic()
        results.append((analyze(curve, point), int((time.monotonic() - t0) * 1000)))

    docs = [_report_document(t, point, rep, ms)
            for t, (rep, ms) in zip(texts, results)]
    if args.json:
        payload = docs[0] if len(docs) == 1 and not args.curves_file else docs
        print(_json_text(payload), file=out)
    else:
        for doc, curve, (rep, _ms) in zip(docs, curves, results):
            _print_human_report(doc, rep, curve, out, with_trace=args.trace)
    return EXIT_OK


def _projective_to_affine_chart(F: Polynomial, point) -> Polynomial:
    """Move a projective point to [0,0,1] and restrict to the chart x2 != 0.

    A coordinate swap brings a nonzero coordinate last, then the chart is
    translated so the point sits at the affine origin.
    """
    if not F.is_homogeneous() or F.is_zero():
        raise _CliError(EXIT_BAD_INPUT, "projective mode needs a nonzero homogeneous curve")
    if all(c == 0 for c in point):
        raise _CliError(EXIT_BAD_INPUT, "[0,0,0] is not a projective point")
    last = max(i for i, c in enumerate(point) if c != 0)
    perm = [0, 1, 2]
    perm[last], perm[2] = perm[2], perm[last]
    Fp = Polynomial(3, {(m[perm[0]], m[perm[1]], m[perm[2]]): c for m, c in F.terms()})
    pt = [point[perm[0]], point[perm[1]], point[perm[2]]]
    q0, q1 = pt[0] / pt[2], pt[1] / pt[2]
    aff = Polynomial(2, {(i, j): c for (i, j, _k), c in Fp.terms()})
    # chart x2 = 1 loses nothing of the local structure at the point
    return translate_to_origin(aff, (q0, q1))


def cmd_classify(args, out) -> int:
    from .analyzer import DoubleA, SimplePoint, classify_double_point

    if args.projective:
        curve = _parse_curve(args.curve, "projective3")
        point3 = _parse_point(args.point, 3)
        g = _projective_to_affine_chart(curve, point3)
    else:
        curve = _parse_curve(args.curve, "affine2")
        g = translate_to_origin(curve, _parse_point(args.point, 2))
    if g.constant_term() != 0:
        raise _CliError(EXIT_OFF_CURVE, "point is not on the curve")
    if g.is_zero():
        raise _CliError(EXIT_BAD_INPUT, "the zero polynomial does not define a curve")
    outcome = classify_double_point(g, (0, 0))

    if isinstance(outcome, SimplePoint):
        msg = f"simple point, tangent: {render_poly(outcome.tangent)} = 0"
        data = {"kind": "simple", "tangent": render_poly(outcome.tangent)}
    elif isinstance(outcome, DoubleA):
        msg = f"A_{outcome.n}"
        data = {"kind": "A_n", "n": outcome.n}
    else:
        msg = f"multiplicity >= 3 (m = {outcome.multiplicity})"
        data = {"kind": "multiplicity_at_least_3", "multiplicity": outcome.multiplicity}
    if args.json:
        print(_json_text({"version": __version__, "curve": args.curve,
                           "point": args.point, **data}), file=out)
    else:
        print(msg, file=out)
    return EXIT_OK


def cmd_global_tjurina(args, out) -> int:
    from .lengths import global_tjurina

    curve = _parse_curve(args.curve, "projective3")
    if not curve.is_homogeneous() or curve.is_zero() or curve.degree() < 2:
        raise _CliError(EXIT_BAD_INPUT, "need a nonzero homogeneous curve of degree >= 2")
    value, hf_values = global_tjurina(curve, with_trace=True)
    if args.json:
        doc = {"version": __version__, "curve": args.curve,
               "global_tjurina": None if value is INFINITE else value,
               "warnings": []}
        if args.trace:
            doc["hilbert_function"] = hf_values
        print(_json_text(doc), file=out)
    else:
        print("Infinite (curve is not reduced)" if value is INFINITE else value, file=out)
        if args.trace:
            print(f"hilbert function: {hf_values}", file=out)
    return EXIT_OK


def cmd_family(args, out) -> int:
    from .family import FamilyParams, admissible_params, min_tjurina, predicted_gb, verify_params

    if args.scan:
        if args.json:
            raise _CliError(EXIT_BAD_INPUT, "--scan prints text only; --json is not supported")
        if args.a is not None:
            a_values = [args.a]
        elif args.a_max is not None:
            a_values = list(range(2, args.a_max + 1))
        else:
            raise _CliError(EXIT_BAD_INPUT, "--scan needs --a or --a-max")
        if not a_values or a_values[0] < 2:  # an --a-max below 2 leaves nothing to check
            raise _CliError(EXIT_BAD_INPUT, "need a >= 2")
        mismatches = 0
        checked = 0
        for a in a_values:
            params = list(admissible_params(a))
            verified = [verify_params(p, check_gb=args.verify_gb) for p in params]
            live_min = None
            for p, v in zip(params, verified):
                checked += 1
                live_min = v.live_tau if live_min is None else min(live_min, v.live_tau)
                if not v.ok:
                    mismatches += 1
                    print(f"MISMATCH {p}: case {v.case.value}, formula {v.formula_tau}, "
                          f"live {v.live_tau}, gb_match {v.gb_match}, lt_match {v.lt_match}",
                          file=out)
            expect_min, argmin = min_tjurina(a)
            status = "ok" if live_min == expect_min else "MISMATCH"
            if live_min != expect_min:
                mismatches += 1
            print(f"a = {a}: min tau = {live_min} (expected {expect_min} "
                  f"at (b,c) = ({argmin.b},{argmin.c})) {status}", file=out)
        print(f"scan: {checked} tuples checked, {mismatches} mismatches", file=out)
        return EXIT_OK if mismatches == 0 else 1

    if args.a is None or args.b is None or args.c is None:
        raise _CliError(EXIT_BAD_INPUT, "single-tuple mode needs --a, --b and --c")
    try:
        p = FamilyParams(args.a, args.b, args.c)
    except ValueError as e:
        raise _CliError(EXIT_BAD_INPUT, str(e)) from e
    basis = predicted_gb(p)
    v = verify_params(p, check_gb=args.verify_gb, predicted=basis)
    if args.json:
        doc = {
            "version": __version__,
            "a": p.a, "b": p.b, "c": p.c,
            "case": v.case.value,
            "tjurina_formula": v.formula_tau,
            "tjurina_live": v.live_tau,
            "predicted_gb": [render_poly(g) for g in basis],
            "gb_match": v.gb_match,
            "lt_match": v.lt_match,
        }
        print(_json_text(doc), file=out)
    else:
        print(f"case: {v.case.value}", file=out)
        print("predicted groebner basis: "
              + ", ".join(render_poly(g) for g in basis), file=out)
        print(f"tjurina (formula): {v.formula_tau}", file=out)
        print(f"tjurina (live): {v.live_tau}", file=out)
        if args.verify_gb:
            print(f"gb match: {v.gb_match}", file=out)
            print(f"lt match: {v.lt_match}", file=out)
    return EXIT_OK if v.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tjurina",
        description="Exact invariants of plane curve singularities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if trace:
            p.add_argument("--trace", action="store_true", help="include traces")

    p = sub.add_parser("analyze", help="full report at a point")
    common(p, trace=True)
    p.add_argument("--curve", help="affine curve in x, y")
    p.add_argument("--curves-file", help="file with one curve expression per line")
    p.add_argument("--point", required=True, help="rational point, e.g. 0,0 or 1/2,-3")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="double-point algorithm at a point")
    common(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--projective", action="store_true",
                   help="curve in x0,x1,x2 and point a,b,c in P^2")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("global-tjurina", help="degree of the projective Jacobian scheme")
    common(p, trace=True)
    p.add_argument("--curve", required=True, help="homogeneous curve in x0, x1, x2")
    p.set_defaults(func=cmd_global_tjurina)

    p = sub.add_parser("family", help="x^a + y^a + x^b*y^c closed forms vs live engine")
    common(p)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--scan", action="store_true", help="verify all admissible (b, c)")
    p.add_argument("--a-max", type=int, help="with --scan: verify a = 2..a_max")
    p.add_argument("--verify-gb", action="store_true",
                   help="also compare the live Groebner basis with the closed form")
    p.set_defaults(func=cmd_family)
    return parser


# Built on the first call to ``main``, not at import, and reused by every
# later call in the process; each call parses into a fresh namespace.
_PARSER: argparse.ArgumentParser | None = None
# The subcommand parsers of ``_PARSER``, by name.
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)`` in one pass over the words, not two.

    An argv that opens with a subcommand goes straight to that subcommand's
    parser.  The top-level parser takes every other argv, and also one whose
    direct parse leaves words over or that holds a word opening with ``--=``
    (or ``-=`` on some Python versions), which it rejects as ambiguous among
    its own options; so its errors and exit codes stay its own.
    """
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is not None and not any(w.startswith(("--=", "-=")) for w in argv):
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None, out=None) -> int:
    global _PARSER, _COMMANDS
    out = out or sys.stdout
    if _PARSER is None:
        _PARSER = build_parser()
        (commands,) = [a for a in _PARSER._actions
                       if isinstance(a, argparse._SubParsersAction)]
        _COMMANDS = commands.choices
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head -1``): Python's SIGPIPE
        # recipe, so that the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _CliError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return e.code
    except (StabilizationError, MonomialRangeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
