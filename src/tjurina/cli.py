"""Command-line front end.

Subcommands:

* ``analyze``        full singularity report at a rational point
* ``classify``       the double-point algorithm (simple / A_n / mult >= 3)
* ``global-tjurina`` degree of the Jacobian scheme of a projective curve
* ``family``         closed-form vs live verification for x^a+y^a+x^b*y^c

Every option is written once, in ``_SUBCOMMANDS``.  ``main`` reads a plain
argv (exact names, each once, well-formed values) by that table alone, into
a plain namespace with the attributes argparse would give.  Any other argv
goes to the argparse parser built from the table for that call, which
alone rejects an argv; argparse is imported only then.
Each subcommand imports the engine it runs when it runs, so a process loads
only its own subcommand's modules.

Exit codes: 0 success, 1 a ``family`` mismatch, or stdout closed before
the output is written (``| head -1``; nothing on stderr), 2 malformed input
(expressions, points, flags, zero or constant curves, a curves file not in
UTF-8, an option the request would not read, as a repeated one, ``--curve``
with ``--curves-file``, ``analyze --json --trace`` or ``--a-max`` without
``--scan``), 3 analysis failure
(curve not reduced at the point, f with a non-isolated critical point off the
curve, or an exponent outside the engine's packed range), 4 point not on the
curve (classify).  A ``classify`` failure names the point given, or with
``--projective`` its point in the affine chart (x_k swapped with x2, x2 = 1).
The ``warnings`` field of ``analyze --json`` and ``global-tjurina --json`` is
always [].  JSON fields are exact: integers as numbers, non-integer rationals
as "p/q" strings; no floats.  Every ``--json`` document is written by
``_json_text``, as ``json.dumps(doc, indent=2)`` would.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING

try:  # json's own C string escaper, without loading the json package and its regexes
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

from . import __version__
from .exprio import ExprSyntaxError, _parse, _polynomial, render_poly
from .groebner import MonomialRangeError
from .lengths import INFINITE, StabilizationError

if TYPE_CHECKING:
    import argparse

    from .analyzer import SingularityReport, _Germ

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_ANALYSIS = 3
EXIT_OFF_CURVE = 4

class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise _CliError(EXIT_BAD_INPUT, f"bad rational number {text!r}: {e}") from e


def _parse_coordinate(text: str) -> Fraction:
    """``_parse_rational`` of one coordinate.  ASCII ``[+-]digits`` and
    ``[+-]digits/digits`` with a nonzero denominator are read by ``int``,
    which is cheaper than ``Fraction``'s regular expression; every other
    text, and a literal past ``int``'s digit limit, goes to
    ``_parse_rational``, so value and error text are the same."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num.startswith(("+", "-")) else num
    if text.isascii() and digits.isdigit() and (not slash or den.isdigit()):
        try:
            if not slash:
                return Fraction(int(num))
            if q := int(den):
                return Fraction(int(num), q)
        except ValueError:  # past int's digit limit
            pass
    return _parse_rational(text)


def _parse_point(text: str, dim: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != dim:
        raise _CliError(EXIT_BAD_INPUT, f"point must have {dim} comma-separated coordinates")
    return tuple(_parse_coordinate(p) for p in parts)


def _parse_curve(text: str, ambient: str) -> tuple[dict, int]:
    """The curve's integer term table and its denominator, as ``_parse``
    gives them: ``analyze`` and ``classify`` hand both to the germ as they
    are, and no coefficient becomes a Fraction on the way."""
    try:
        return _parse(text, ambient)
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


def _report_document(curve_text: str, report: SingularityReport, elapsed_ms: int) -> dict:
    return {
        "version": __version__,
        "curve": curve_text,
        "point": [_exact(c) for c in report.point],
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


def _print_human_report(curve_text: str, germ: _Germ, report: SingularityReport, out,
                        with_trace: bool = False):
    print(f"curve: {curve_text}", file=out)
    print(f"point: {germ.where()}", file=out)
    if not report.is_on_curve:
        print("the point is not on the curve", file=out)
        return
    print(f"multiplicity: {report.multiplicity}", file=out)
    if report.multiplicity == 1:
        tangent = render_poly(germ.tangent())
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
    from .analyzer import _analyze, _Germ

    if args.json and args.trace:
        raise _CliError(EXIT_BAD_INPUT, "--trace is for the text report; --json always "
                                        "carries both traces")
    point = _parse_point(args.point, 2)
    if args.curve is not None and args.curves_file is not None:
        raise _CliError(EXIT_BAD_INPUT, "give --curve or --curves-file, not both")
    if args.curves_file:
        try:
            with open(args.curves_file, encoding="utf-8-sig") as fh:  # a BOM is no curve text
                lines = [ln.strip() for ln in fh]
        except (OSError, UnicodeDecodeError) as e:
            raise _CliError(EXIT_BAD_INPUT, f"cannot read {args.curves_file}: {e}") from e
        texts = [ln for ln in lines if ln and not ln.startswith("#")]
        if not texts:
            raise _CliError(EXIT_BAD_INPUT, f"no curve in {args.curves_file}")
    elif args.curve:
        texts = [args.curve]
    else:
        raise _CliError(EXIT_BAD_INPUT, "one of --curve / --curves-file is required")
    curves = [_parse_curve(t, "affine2") for t in texts]
    if any(all(m == (0, 0) for m in table) for table, _ in curves):  # zero or a nonzero constant
        raise _CliError(EXIT_BAD_INPUT, "a constant polynomial does not define a curve")

    results = []
    for table, den in curves:
        t0 = time.monotonic()
        germ = _Germ(table, den, point)
        report = _analyze(germ)
        results.append((germ, report, int((time.monotonic() - t0) * 1000)))

    if args.json:
        docs = [_report_document(t, rep, ms) for t, (_, rep, ms) in zip(texts, results)]
        payload = docs[0] if len(docs) == 1 and not args.curves_file else docs
        print(_json_text(payload), file=out)
    else:
        for text, (germ, rep, _ms) in zip(texts, results):
            _print_human_report(text, germ, rep, out, with_trace=args.trace)
    return EXIT_OK


def _projective_to_affine_chart(table: dict, point) -> tuple[dict, tuple]:
    """The chart x2 = 1, after swapping a nonzero coordinate x_k with x2:
    the term table of the affine curve in the two other coordinates, and the
    point there.  The curve's denominator is unchanged."""
    if len({sum(m) for m in table}) != 1:  # zero, or not homogeneous
        raise _CliError(EXIT_BAD_INPUT, "projective mode needs a nonzero homogeneous curve")
    if all(c == 0 for c in point):
        raise _CliError(EXIT_BAD_INPUT, "[0,0,0] is not a projective point")
    k = max(i for i, c in enumerate(point) if c != 0)
    a, b = (2 if i == k else i for i in (0, 1))  # x_k is dropped, x2 takes its axis
    aff = {(m[a], m[b]): c for m, c in table.items()}  # homogeneous: no clash
    return aff, (point[a] / point[k], point[b] / point[k])


def cmd_classify(args, out) -> int:
    from .analyzer import DoubleA, OffCurveError, SimplePoint, _classify, _Germ

    ambient, dim = ("projective3", 3) if args.projective else ("affine2", 2)
    (table, den), point = _parse_curve(args.curve, ambient), _parse_point(args.point, dim)
    if args.projective:
        table, point = _projective_to_affine_chart(table, point)
    if not table:
        raise _CliError(EXIT_BAD_INPUT, "the zero polynomial does not define a curve")
    try:
        outcome = _classify(_Germ(table, den, point))
    except OffCurveError as e:
        raise _CliError(EXIT_OFF_CURVE, "point is not on the curve") from e

    if isinstance(outcome, SimplePoint):
        tangent = render_poly(outcome.tangent)
        msg = f"simple point, tangent: {tangent} = 0"
        data = {"kind": "simple", "tangent": tangent}
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

    curve = _polynomial(3, *_parse_curve(args.curve, "projective3"))
    try:
        value, hf_values = global_tjurina(curve, with_trace=True)
    except ValueError as e:  # a zero, inhomogeneous or linear curve
        raise _CliError(EXIT_BAD_INPUT, "need a nonzero homogeneous curve of degree >= 2") from e
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
        if (args.a is None) == (args.a_max is None) or args.b is not None or args.c is not None:
            raise _CliError(EXIT_BAD_INPUT, "--scan needs one of --a, --a-max, and no --b or --c")
        a_values = [args.a] if args.a is not None else list(range(2, args.a_max + 1))
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

    if args.a is None or args.b is None or args.c is None or args.a_max is not None:
        raise _CliError(EXIT_BAD_INPUT, "single-tuple mode needs --a, --b and --c, and no --a-max")
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


# Every option of every subcommand, written once: ``build_parser`` builds the
# argparse parser from this table, and ``_read_plain`` reads requests by it.
# An option's row is (dest, kind, required, help), its kind "flag", str or int.
_JSON = ("json", "flag", False, "machine-readable output")
_TRACE = ("trace", "flag", False, "include traces")
_SUBCOMMANDS = {
    "analyze": (cmd_analyze, "full report at a point", {
        "--json": _JSON, "--trace": _TRACE,
        "--curve": ("curve", str, False, "affine curve in x, y"),
        "--curves-file": ("curves_file", str, False, "file with one curve expression per line"),
        "--point": ("point", str, True, "rational point, e.g. 0,0 or 1/2,-3")}),
    "classify": (cmd_classify, "double-point algorithm at a point", {
        "--json": _JSON, "--curve": ("curve", str, True, None),
        "--point": ("point", str, True, None),
        "--projective": ("projective", "flag", False, "curve in x0,x1,x2 and point a,b,c in P^2")}),
    "global-tjurina": (cmd_global_tjurina, "degree of the projective Jacobian scheme", {
        "--json": _JSON, "--trace": _TRACE,
        "--curve": ("curve", str, True, "homogeneous curve in x0, x1, x2")}),
    "family": (cmd_family, "x^a + y^a + x^b*y^c closed forms vs live engine", {
        "--json": _JSON, "--a": ("a", int, False, None), "--b": ("b", int, False, None),
        "--c": ("c", int, False, None),
        "--scan": ("scan", "flag", False, "verify all admissible (b, c)"),
        "--a-max": ("a_max", int, False, "with --scan: verify a = 2..a_max"),
        "--verify-gb": ("verify_gb", "flag", False,
                        "also compare the live Groebner basis with the closed form")}),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Once(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            if getattr(namespace, self.dest) is not None:  # the first value would go unread
                raise argparse.ArgumentError(self, "may be given only once")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(prog="tjurina",
                                     description="Exact invariants of plane curve singularities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, (dest, kind, required, text) in options.items():
            if kind == "flag":
                p.add_argument(name, dest=dest, action="store_true", help=text)
            else:
                p.add_argument(name, dest=dest, action=_Once, type=None if kind is str else kind,
                               required=required, help=text)
        p.set_defaults(func=func)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """argparse's attributes for a plain argv, in a SimpleNamespace, else
    None.  Plain is an exact subcommand, then exact option names, each at
    most once, as ``--opt=value`` or ``--opt value``: no value empty or,
    given apart, opening with ``-``; no ``=`` on a flag; int values that
    ``int()`` reads; every required option."""
    spec = _SUBCOMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    func, _summary, options = spec
    values = {dest: False if kind == "flag" else None for dest, kind, _r, _h in options.values()}
    unread = dict(options)  # an option read once leaves it
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        if name not in unread:
            return None
        dest, kind, _required, _help = unread.pop(name)
        if kind == "flag":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(words, "")  # "" when the value is missing
            if value.startswith("-"):
                return None
        if not value:
            return None
        try:
            values[dest] = kind(value)  # str(value) is value
        except ValueError:
            return None
    if any(required for _d, _k, required, _h in unread.values()):
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv) or build_parser().parse_args(argv)
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
