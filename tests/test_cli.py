import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tjurina.cli import _CliError, _json_text, _parse_coordinate, _parse_rational, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# -- analyze -------------------------------------------------------------------


def test_analyze_json_report():
    code, out = run_cli("analyze", "--curve", "x^5-y^5", "--point", "0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tjurina"] == 16
    assert doc["milnor"] == 16
    assert doc["ordinary"] is True
    assert doc["symmetry_order"] == 4
    assert doc["multiplicity"] == 5
    assert doc["trace_tjurina"][-1][1] == 16
    assert isinstance(doc["elapsed_ms"], int)
    # round trip through the serializer is lossless
    assert json.loads(json.dumps(doc)) == doc


def test_analyze_human_a5():
    code, out = run_cli("analyze", "--curve", "y^2-x^6", "--point", "0,0")
    assert code == 0
    assert "A_5" in out
    assert "tau = 5" in out


def test_analyze_smooth_point_mentions_tangent():
    code, out = run_cli("analyze", "--curve", "y^2-x", "--point", "0,0")
    assert code == 0
    assert "smooth point" in out
    assert "tangent" in out


def test_analyze_json_off_the_curve_is_no_smooth_point():
    code, out = run_cli("analyze", "--curve=x^2+y^2-1", "--point=0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicity"] == 0
    assert doc["classification"] == "not on the curve"


def test_analyze_rational_point():
    code, out = run_cli("analyze", "--curve", "y^2-(x-1/2)^3", "--point", "1/2,0", "--json")
    assert code == 0
    assert json.loads(out)["tjurina"] == 2


def test_analyze_parse_error_exit_2():
    code, _ = run_cli("analyze", "--curve", "x^-2", "--point", "0,0")
    assert code == 2
    code, _ = run_cli("analyze", "--curve", "x+z", "--point", "0,0")
    assert code == 2
    code, _ = run_cli("analyze", "--curve", "x", "--point", "0")
    assert code == 2


@pytest.mark.parametrize("curve, offset", [
    ("x^2-y^3+" + "7" * 5000 + "*x^4", 8), ("x^2-y^3+x^" + "7" * 5000, 10)])
def test_analyze_overlong_literal_exit_2(curve, offset, capsys):
    # int() refuses literals over 4,300 digits; that is malformed input, not a crash
    code, out = run_cli("analyze", "--curve", curve, "--point", "0,0")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: cannot parse curve: integer literal of 5000 digits is too long "
        f"at offset {offset} (expected fewer digits)\n")


def test_analyze_nonreduced_exit_3():
    code, _ = run_cli("analyze", "--curve", "y^2", "--point", "0,0")
    assert code == 3


def test_stabilization_error_maps_to_exit_3(capsys):
    from tjurina import StabilizationError, analyze, classify_double_point, parse_poly

    curve, point = parse_poly("y^2"), (0, 0)
    for command, call in (("classify", classify_double_point), ("analyze", analyze)):
        with pytest.raises(StabilizationError) as info:
            call(curve, point)
        code, out = run_cli(command, "--curve", "y^2", "--point", "0,0")
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == f"error: {info.value}\n"


@pytest.mark.parametrize("curve", ["y^2", "x^2*y^2", "(y^2-x^3)^2"])
def test_nonreduced_curves_exit_3_at_the_proven_bound(curve, capsys):
    code, out = run_cli("analyze", "--curve", curve, "--point", "0,0")
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: curve not reduced at (0,0)") and "d^2 + 1" in err


def test_exponent_outside_the_packed_range_exits_3(capsys):
    code, out = run_cli("analyze", "--curve=y^2-x^99999999999", "--point=0,0")
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        "error: exponent 99999999998 outside the packed field range 0..1073741823\n")


def test_a_germ_past_the_packed_cut_that_does_not_close_exits_3(capsys):
    code, out = run_cli("analyze", "--curve=y^2+x^23200*y^2", "--point=0,0")
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: cut 538286402 = d^2 + 1 (d = 23201, ")
    assert "outside the packed field range" in err


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_tangent_with_a_long_coefficient_is_printed(command):
    # a 5,001-digit coefficient is past str(int)'s limit, not past the printer's
    code, out = run_cli(command, "--curve=10^5000*x+y^2", "--point=0,0")
    assert code == 0
    assert out.endswith(f"tangent: 1{'0' * 5000}*x = 0\n")


@pytest.mark.parametrize("command, curve", [
    ("analyze", "0"), ("analyze", "1"), ("analyze", "x-x"), ("classify", "0")])
def test_degenerate_curves_exit_2(command, curve, capsys):
    code, out = run_cli(command, "--curve", curve, "--point", "0,0")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "curve" in err and "Traceback" not in err


def test_analyze_curves_file_with_zero_line_exit_2(tmp_path, capsys):
    curves = tmp_path / "curves.txt"
    curves.write_text("x^5-y^5\n0\ny^2-x^3\n", encoding="utf-8")
    code, out = run_cli("analyze", "--curves-file", str(curves), "--point", "0,0", "--json")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: a constant polynomial does not define a curve\n"


def test_classify_constant_curve_is_off_curve():
    code, _ = run_cli("classify", "--curve", "1", "--point", "0,0")
    assert code == 4


def test_analyze_missing_curves_file_exit_2():
    code, _ = run_cli("analyze", "--curves-file", "/nonexistent/curves.txt",
                      "--point", "0,0")
    assert code == 2


def test_analyze_curves_file_in_order(tmp_path):
    curves = tmp_path / "curves.txt"
    curves.write_text(
        "# three curves\n"
        "x^5-y^5\n"
        "\n"
        "y^2-x^3\n"
        "x*y*(x-y)*(x+y)^2+x^6+y^6\n",
        encoding="utf-8")
    code, out = run_cli("analyze", "--curves-file", str(curves),
                        "--point", "0,0", "--json")
    assert code == 0
    docs = json.loads(out)
    assert [d["curve"] for d in docs] == [
        "x^5-y^5", "y^2-x^3", "x*y*(x-y)*(x+y)^2+x^6+y^6"]
    assert [d["tjurina"] for d in docs] == [16, 2, 15]


# -- points ----------------------------------------------------------------------


def _read(parse, text):
    try:
        value = parse(text)
    except _CliError as e:
        return e.code, e.message
    return type(value), value


_COORDINATE_EDGES = [
    "", "+", "-", "/", "3/", "/3", " 3/2", "3/2 ", "+3", "-0", "+0/7", "007/014",
    "0.5", "1e3", "1_000", "3/0", "0/0", "3/-2", "3/+2", "+-3", "--3", "3/2/5",
    "١", "3/٢", "²", "nan", "inf", "4" * 4300, "4" * 4301, "-" + "4" * 4301,
    "1/" + "7" * 4301, "7" * 4301 + "/3",
]


def test_point_coordinates_read_as_fraction_reads_them():
    # the int() reading of plain literals gives the same value or error text
    # as _parse_rational, whose Fraction(str) it skips
    rng = random.Random(4646)
    texts = list(_COORDINATE_EDGES)
    for _ in range(10000):  # any short text over a small alphabet
        texts.append("".join(rng.choice("0123456789+-/ ._e١") for _ in range(rng.randint(0, 7))))
    for _ in range(10000):  # mostly plain literals, some with a zero denominator
        text = rng.choice(["", "+", "-"]) + str(rng.randint(0, 10 ** rng.randint(0, 30)))
        if rng.random() < 0.6:
            text += "/" + str(rng.randint(0, 10 ** rng.randint(0, 30)))
        texts.append(text)
    for text in texts:
        assert _read(_parse_coordinate, text) == _read(_parse_rational, text), text


def test_plain_point_coordinates_skip_fraction_parsing(monkeypatch):
    from tjurina import cli
    monkeypatch.setattr(cli, "_parse_rational", lambda text: pytest.fail(text))
    assert cli._parse_point("-3/2,7", 2) == (Fraction(-3, 2), Fraction(7))
    assert cli._parse_point("0,+4/6,-0", 3) == (0, Fraction(2, 3), 0)


# -- classify ------------------------------------------------------------------


def test_classify_cusp_and_tacnode():
    code, out = run_cli("classify", "--curve", "y^2-x^3", "--point", "0,0")
    assert code == 0 and out.strip() == "A_2"
    code, out = run_cli("classify", "--curve", "y^2-x^4", "--point", "0,0")
    assert code == 0 and out.strip() == "A_3"


def test_classify_multiplicity_branch():
    code, out = run_cli("classify", "--curve", "x^5-y^5", "--point", "0,0")
    assert code == 0
    assert "multiplicity >= 3 (m = 5)" in out


def test_classify_simple_point():
    code, out = run_cli("classify", "--curve", "y-x^2", "--point", "0,0")
    assert code == 0
    assert "simple point" in out and "tangent" in out


def test_classify_off_curve_exit_4():
    code, _ = run_cli("classify", "--curve", "y^2-x^3+1", "--point", "0,0")
    assert code == 4


def test_classify_projective_chart():
    # y^2 z - x^3 in projective coordinates, cusp at [0:0:1]
    code, out = run_cli("classify", "--projective",
                        "--curve", "x1^2*x2-x0^3", "--point", "0,0,1")
    assert code == 0 and out.strip() == "A_2"
    # node of the nodal cubic sits at [1:0:0]: permuted chart
    code, out = run_cli("classify", "--projective",
                        "--curve", "x1^2*x0-x2^2*(x2+x0)", "--point", "1,0,0")
    assert code == 0 and out.strip() == "A_1"


@pytest.mark.parametrize("curve, point, tangent", [
    ("x0*x2-x1^2", "1,0,0", "x"), ("x1*x0-x2^2", "1,0,0", "y"),
    ("x2*x1-x0^2", "0,1,0", "y"), ("x0*x2-x1^2", "0,0,1", "x")])
def test_classify_projective_chart_axis_order(curve, point, tangent):
    # the chart swaps x_k (the last nonzero coordinate) with x2, then sets x2 = 1:
    # at k = 0 the chart's x is x2 and its y is x1, at k = 1 they are x0 and x2
    code, out = run_cli("classify", "--projective", f"--curve={curve}", f"--point={point}")
    assert (code, out) == (0, f"simple point, tangent: {tangent} = 0\n")


@pytest.mark.parametrize("argv, where", [
    (["--curve=y^2", "--point=0,0"], "(0,0)"), (["--curve=(y-1)^2", "--point=0,1"], "(0,1)"),
    (["--projective", "--curve=x1^2*x2", "--point=1,0,3"], "(1/3,0)")])
def test_classify_names_a_non_reduced_point(argv, where, capsys):
    # for --projective the point named is the point of the affine chart
    code, out = run_cli("classify", *argv)
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: curve not reduced at {where}: truncation sequence")


def test_classify_projective_off_curve_exit_4():
    code, _ = run_cli("classify", "--projective",
                      "--curve", "x1^2*x2-x0^3", "--point", "1,1,0")
    assert code == 4


# -- global-tjurina ----------------------------------------------------------------


def test_global_tjurina_command():
    code, out = run_cli("global-tjurina", "--curve", "x1^5-x2^5")
    assert code == 0 and out.strip() == "16"


def test_global_tjurina_smooth_conic():
    code, out = run_cli("global-tjurina", "--curve", "x0*x2-x1^2")
    assert code == 0 and out.strip() == "0"


def test_global_tjurina_nodal_cubic_with_trace():
    code, out = run_cli("global-tjurina", "--curve", "x1^2*x0-x2^2*(x2+x0)", "--trace")
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "hilbert function" in out


def test_global_tjurina_trace_runs_to_the_proven_window():
    # d = 4, and L = 13 is the degree of the lcm of LT(J)'s minimal generators:
    # the trace runs over degrees 0 .. max(3(d-1), L-2) = 11
    from tjurina import DEGREVLEX, leading_term_ideal, parse_poly

    from reference import checked_buchberger

    curve = "x1*x2^3-3*x0^4+2*x0^2*x2^2-2*x1^2*x2^2"
    f = parse_poly(curve, "projective3")
    lt = leading_term_ideal(checked_buchberger([f.partial_derivative(i) for i in range(3)],
                                               DEGREVLEX))
    L = sum(max(m[v] for m in lt.gens) for v in range(3))
    assert L - 2 > 3 * (4 - 1)
    code, out = run_cli("global-tjurina", "--curve", curve, "--json", "--trace")
    doc = json.loads(out)
    assert code == 0 and doc["global_tjurina"] == 3 and doc["warnings"] == []
    assert len(doc["hilbert_function"]) == L - 1 == 12
    code, out = run_cli("global-tjurina", "--curve", curve, "--trace")
    assert code == 0 and out == f"3\nhilbert function: {doc['hilbert_function']}\n"


def test_global_tjurina_rejects_nonhomogeneous():
    code, _ = run_cli("global-tjurina", "--curve", "x1^2-x2")
    assert code == 2


@pytest.mark.parametrize("curve", ["0", "x0"], ids=["zero", "linear"])
def test_global_tjurina_refuses_what_global_tjurina_refuses(curve, capsys):
    # the command leaves the checks to lengths.global_tjurina and maps its
    # ValueError to exit 2 (golden_cli.json pins x0^2+x1)
    code, out = run_cli("global-tjurina", f"--curve={curve}")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: need a nonzero homogeneous curve of degree >= 2\n"


# -- family --------------------------------------------------------------------------


def test_family_single_tuple():
    code, out = run_cli("family", "--a", "9", "--b", "7", "--c", "3", "--verify-gb")
    assert code == 0
    assert "case: B1" in out
    assert "tjurina (formula): 57" in out
    assert "tjurina (live): 57" in out
    assert "gb match: True" in out


def test_family_tau3():
    code, out = run_cli("family", "--a", "3", "--b", "2", "--c", "2")
    assert code == 0
    assert "tjurina (formula): 4" in out
    assert "tjurina (live): 4" in out


def test_family_builds_the_predicted_basis_once_per_request(monkeypatch):
    from tjurina import family

    # cmd_family imports predicted_gb from family when it runs
    calls = []
    real = family.predicted_gb
    counting = lambda p: calls.append(p) or real(p)  # noqa: E731
    monkeypatch.setattr(family, "predicted_gb", counting)
    for a, b, c in [(9, 7, 3), (10, 6, 5), (5, 4, 4), (4, 5, 1)]:
        calls.clear()
        code, out = run_cli("family", "--a", str(a), "--b", str(b), "--c", str(c),
                            "--verify-gb", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["gb_match"] is not False and doc["lt_match"] is True
        assert len(calls) == 1


def test_family_invalid_params_exit_2():
    code, _ = run_cli("family", "--a", "9", "--b", "4", "--c", "5")
    assert code == 2
    code, _ = run_cli("family", "--a", "9")
    assert code == 2


def test_family_scan_single_a_deterministic():
    code1, out1 = run_cli("family", "--scan", "--a", "6")
    code2, out2 = run_cli("family", "--scan", "--a", "6")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "min tau = 23" in out1
    assert "0 mismatches" in out1


@pytest.mark.parametrize("argv", [
    ("analyze", "--curve", "y^2-x^3", "--point", "0,0", "--threads", "2"),
    ("classify", "--curve", "y^2-x^3", "--point", "0,0", "--threads", "2"),
    ("global-tjurina", "--curve", "x0^3+x1^3+x2^3", "--threads", "2"),
    ("family", "--a", "5", "--b", "2", "--c", "2", "--threads", "2"),
    ("classify", "--curve", "y^2-x^3", "--point", "0,0", "--trace"),
    ("family", "--a", "5", "--b", "2", "--c", "2", "--trace"),
    ("family", "--scan", "--a", "3", "--json"),
    ("analyze", "--curve=y^2-x^5", "--curves-file=curves.txt", "--point=0,0"),
    ("family", "--scan", "--a", "3", "--a-max", "5"),
    ("family", "--scan", "--a", "3", "--b", "2"),
    ("family", "--a", "3", "--b", "6", "--c", "1", "--a-max", "9"),
    ("analyze", "--curve=x^3+y^4", "--point=0,0", "--json", "--trace"),
], ids=["analyze-threads", "classify-threads", "global-threads", "family-threads",
        "classify-trace", "family-trace", "family-scan-json", "analyze-curve-and-file",
        "family-scan-a-and-a-max", "family-scan-b", "family-tuple-a-max", "analyze-json-trace"])
def test_flags_nothing_reads_are_rejected(argv, capsys):
    # options that would change no output are usage errors, not silent no-ops
    try:
        code, out = run_cli(*argv)
    except SystemExit as e:
        code, out = e.code, ""
    assert code == 2 and out == ""
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("classify", "--curve=x", "--curve=y^2-x^3", "--point=0,0"),
    ("classify", "--curve=x", "--cur=y^2-x^3", "--point=0,0"),
    ("analyze", "--curve", "x^3-y^3", "--point=0,0", "--point=1,1"),
    ("family", "--a", "3", "--a", "4", "--b", "6", "--c", "1"),
], ids=["classify-curve", "classify-curve-abbreviated", "analyze-point", "family-a"])
def test_a_repeated_option_is_a_usage_error(argv, capsys):
    # the first value would go unread: exit 2 with the subcommand's usage line
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tjurina {argv[0]} ")
    assert "may be given only once" in err


def test_off_curve_milnor_failure_exits_3_and_says_so(capsys):
    # x^2+1 is reduced: at the off-curve point O only (f_x, f_y) = (2x) fails
    code, out = run_cli("analyze", "--curve=x^2+1", "--point=0,0")
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith(
        "error: point (0,0) is not on the curve, and f has a non-isolated critical point "
        "there: milnor: ")


def test_family_scan_a9_reports_min_55():
    code, out = run_cli("family", "--scan", "--a", "9")
    assert code == 0
    assert "min tau = 55" in out
    assert "0 mismatches" in out


def test_family_scan_range():
    code, out = run_cli("family", "--scan", "--a-max", "4")
    assert code == 0
    assert "a = 2" in out and "a = 4" in out


@pytest.mark.parametrize("bound", [("--a-max", "1"), ("--a-max", "0"), ("--a", "1")])
def test_family_scan_below_a_2_is_a_usage_error(bound, capsys):
    # an --a-max below 2 leaves nothing to check: a usage error, not an empty scan
    code, out = run_cli("family", "--scan", *bound)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: need a >= 2\n"


# -- argparse only for an argv the option table leaves to it -----------------------


@pytest.fixture
def counted_parser_builds(monkeypatch):
    """Count the builds of the argparse parser."""
    from tjurina import cli

    builds = []
    original = cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    return builds


SEQUENCE = [
    ("global-tjurina", "--curve", "x0*x1*x2*(x0+x1+x2)", "--json"),
    ("global-tjurina", "--curve", "x0*x1*x2*(x0+x1+x2)"),
    ("global-tjurina", "--curve", "x0*x1*x2*(x0+x1+x2)", "--trace"),
    ("global-tjurina", "--curve", "x0*x1*x2*(x0+x1+x2)"),
    ("analyze", "--curve", "y^2-x^5", "--point", "0,0", "--trace"),
    ("analyze", "--curve", "y^2-x^5", "--point", "0,0"),
    ("classify", "--curve", "x0^2*x2-x1^3", "--point", "0,0,1", "--projective", "--json"),
    ("classify", "--curve", "y^2-x^3", "--point", "0,0"),
    ("family", "--a", "5", "--b", "2", "--c", "2", "--verify-gb"),
    ("family", "--a", "5", "--b", "2", "--c", "2"),
]


def test_well_formed_requests_build_no_parser(counted_parser_builds):
    # well-formed requests are read by the option table alone; argparse is
    # built only for an argv the table leaves to it
    for argv in SEQUENCE * 3:
        run_cli(*argv)
    assert counted_parser_builds == []
    assert run_cli("classify", "--cur=y^2-x^3", "--point=0,0") == (0, "A_2\n")
    assert counted_parser_builds == [1]


def test_flags_do_not_leak_between_calls(counted_parser_builds):
    # each request once after other neighbours (in reverse), then in order
    lone = [run_cli(*argv) for argv in reversed(SEQUENCE)][::-1]
    assert counted_parser_builds == []
    assert [run_cli(*argv) for argv in SEQUENCE] == lone
    assert counted_parser_builds == []
    # the flags make a difference, so a leak would show
    assert len({out for _code, out in lone[:4]}) == 3


def test_rejected_arguments_leave_the_parser_working(counted_parser_builds, capsys):
    expected = run_cli(*SEQUENCE[0])
    for bad in (["analyze", "--bogus"], ["classify", "--curve", "x"], ["nonsense"], []):
        with pytest.raises(SystemExit) as info:
            run_cli(*bad)
        assert info.value.code == 2
        assert run_cli(*SEQUENCE[0]) == expected
    assert "usage: tjurina" in capsys.readouterr().err
    assert counted_parser_builds == [1] * 4  # one build for each rejected argv


# -- one parse per request ---------------------------------------------------------


GOLDEN_ARGVS = [row["argv"] for row in json.loads(
    (Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))]
FIXED_ARGVS = [
    [], ["-h"], ["--version"], ["nonsense"],
    ["ana", "--curve", "x", "--point", "0,0"],
    ["--json", "analyze", "--curve", "x", "--point", "0,0"],
    ["analyze", "--bogus"],
    ["analyze", "--curve", "x", "--point", "0,0", "extra"],
    ["classify", "--curve", "x", "--point", "0,0", "--version"],
    ["analyze", "-h"],
    ["family", "--a", "x"],
    ["analyze", "--curve", "-x^2+y^3", "--point", "0,0"],
    # the top-level parser finds these ambiguous before any subcommand runs
    ["analyze", "--=x", "--point", "0,0"],
    ["analyze", "-=x", "--point", "0,0"],
]
PARSE_CASES = GOLDEN_ARGVS + FIXED_ARGVS


def _parse_id(number, argv):
    return f"{number:02d}-{' '.join(argv)[:30]}"


# a golden row is numbered by its place in the file, a fixed case from 70 on,
# where the fixed cases began when the file held 70 rows: a row appended to
# the file renames no fixed case
PARSE_IDS = ([_parse_id(i, a) for i, a in enumerate(GOLDEN_ARGVS)]
             + [_parse_id(70 + i, a) for i, a in enumerate(FIXED_ARGVS)])


class _Parsed(Exception):
    """Stops ``main`` once it has parsed, carrying the namespace."""


def _stop_at_the_handlers(monkeypatch):
    """Give every subcommand a handler that raises _Parsed with its namespace."""
    from tjurina import cli

    def stop(args, out):
        raise _Parsed(args)

    for command, (_func, summary, options) in list(cli._SUBCOMMANDS.items()):
        monkeypatch.setitem(cli._SUBCOMMANDS, command, (stop, summary, options))


def _outcome_of(parse, argv):
    # the plain reader's namespace is not argparse's type: compare every attribute
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", vars(parse(list(argv))))
        except _Parsed as e:
            result = ("namespace", vars(e.args[0]))
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CASES, ids=PARSE_IDS)
def test_main_parses_like_the_top_level_parser(argv, monkeypatch):
    # main reads a plain argv by the option table and hands any other to the
    # parser; namespace, output and exit code must be those of the parser's
    # own parse
    from tjurina import cli

    _stop_at_the_handlers(monkeypatch)
    expected = _outcome_of(cli.build_parser().parse_args, argv)
    assert _outcome_of(main, argv) == expected


# every option of the four subcommands, with a value each accepts (None: a flag)
_PLAIN_OPTIONS = {
    "analyze": {"--json": None, "--trace": None, "--curve": "y^2-x^5",
                "--curves-file": "curves.txt", "--point": "0,0"},
    "classify": {"--json": None, "--curve": "y^2-x^3", "--point": "1/2,-3",
                 "--projective": None},
    "global-tjurina": {"--json": None, "--trace": None, "--curve": "x0^3+x1^3+x2^3"},
    "family": {"--json": None, "--a": "5", "--b": "2", "--c": "4", "--scan": None,
               "--a-max": "6", "--verify-gb": None},
}
_REQUIRED = {"analyze": {"--point"}, "classify": {"--curve", "--point"},
             "global-tjurina": {"--curve"}, "family": set()}
# abbreviations (--cur is ambiguous in analyze), unknown options and words
# the top-level parser answers itself
_OTHER_NAMES = ["--poi", "--cur", "--a-m", "--bogus", "--", "-h", "--help", "--version", "-x"]
_ODD_VALUES = ["", "-x^2+y^3", "-3", " 7", "+7", "7_0", "\u0667", "0x7", "x", "0,0", "a=b",
               "analyze"]


def _words(name, value, form):
    if form == "bare":
        return [name]
    return [f"{name}={value}"] if form == "=" else [name, value]


@st.composite
def _argvs(draw):
    """An argv of options of one subcommand, each at most once, in a drawn
    order and form, a required one at times left out, a value or a flag at
    times made odd, and up to two more word groups (repeats, other names)
    dropped in anywhere; returned with whether it is plain."""
    command = draw(st.sampled_from([*_PLAIN_OPTIONS] * 3 + ["ana", "nonsense", "-h", "--version"]))
    options = _PLAIN_OPTIONS.get(command, _PLAIN_OPTIONS["analyze"])
    required = _REQUIRED.get(command, set())
    chosen = set(draw(st.lists(st.sampled_from(sorted(options)), unique=True)))
    if draw(st.integers(0, 3)):
        chosen |= required
    plain = command in _PLAIN_OPTIONS and required <= chosen
    words = []
    for name in draw(st.permutations(sorted(chosen))):
        value, form = options[name], "bare" if options[name] is None else draw(st.sampled_from("=_"))
        if not draw(st.integers(0, 4)):
            value, form, plain = draw(st.sampled_from(_ODD_VALUES)), form if value else "=", False
        words += _words(name, value, form)
    extras = draw(st.lists(st.tuples(
        st.sampled_from(sorted(options) * 2 + _OTHER_NAMES),
        st.sampled_from(_ODD_VALUES + [v for v in options.values() if v]),
        st.sampled_from(["bare", "=", "_"]),
        st.integers(0, len(words))), max_size=2))
    for name, value, form, at in extras:
        words[at:at] = _words(name, value, form)
    return [command, *words], plain and not extras


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(_argvs())
def test_the_plain_reader_parses_like_argparse(drawn):
    # the option table reads a plain argv itself and hands every other one to
    # argparse: same namespace, or same exit code and output
    from tjurina import cli

    argv, plain = drawn
    if plain:
        assert cli._read_plain(argv) is not None
    with pytest.MonkeyPatch.context() as monkeypatch:
        _stop_at_the_handlers(monkeypatch)
        assert _outcome_of(main, argv) == _outcome_of(cli.build_parser().parse_args, argv)


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["tjurina", "classify", "--curve=y^2-x^3", "--point=0,0"])
    assert main() == 0
    assert capsys.readouterr().out == "A_2\n"


def test_python_m_tjurina_runs_the_cli():
    import tjurina

    src = str(Path(tjurina.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    argv = ["analyze", "--curve=x^3-y^3+x^4", "--point=0,0", "--json"]
    proc = subprocess.run([sys.executable, "-m", "tjurina", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert (doc["multiplicity"], doc["ordinary"], doc["tjurina"], doc["milnor"]) == (3, True, 4, 4)
    code, out = run_cli(*argv)
    elapsed = re.compile(r'"elapsed_ms": \d+')
    assert code == 0 and elapsed.sub("", proc.stdout) == elapsed.sub("", out)


def _closed_early(argv, lines):
    """Run ``python -m tjurina`` unbuffered with stdout a pipe that is closed
    once ``lines`` lines are read, as ``| head`` does: (exit code, stderr)."""
    import tjurina

    src = str(Path(tjurina.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen([sys.executable, "-m", "tjurina", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=120), err


# The close must come before the last write.  A --json document leaves in one
# write, so that pipe is closed at once, long before the child has started up;
# a scan prints a line per tuple and computes the next one before it writes.
# Its 411 tuples for a = 2..12 outlast a reader that is descheduled after its
# first line; the 98 for a = 2..6 were sometimes all written before the close.
@pytest.mark.parametrize("argv, lines", [
    (["global-tjurina", "--curve=x0*x1*(x0+x1)*(x0-x1+x2)", "--json", "--trace"], 0),
    (["family", "--scan", "--a-max", "12"], 0),
    (["family", "--scan", "--a-max", "12"], 1),
])
def test_closed_stdout_exits_1_without_a_traceback(argv, lines):
    assert _closed_early(argv, lines) == (1, "")


# -- json output -----------------------------------------------------------------------


_json_strings = st.text() | st.text(alphabet='"\\/\x00\x08\t\n\x1f\x7f a\u00e9\u2028\U0001f600')
_json_ints = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
_json_documents = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_strings,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_json_strings, children, max_size=4)),
    max_leaves=20)


@given(_json_documents)
def test_json_writer_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_json_writer_rejects_floats():
    with pytest.raises(TypeError):
        _json_text({"tjurina": [1, 0.5]})
