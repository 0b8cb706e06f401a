"""The germ of a curve at a rational point, checked against the explicit route.

A germ keeps a positive integer multiple of the translate, packs it and its
gradient once under the local order, and hands the packed reducers to the
local lengths.  The explicit route builds the rational translate with
``translate_to_origin``, its partials as polynomials, and runs
``local_length_at_origin`` on them: both must give the same numbers, traces
and errors."""

import io
import random
from fractions import Fraction

import pytest

from tjurina import (
    DoubleA,
    MonomialOrder,
    MultiplicityAtLeastThree,
    SimplePoint,
    StabilizationError,
    analyze,
    classify_double_point,
    local_length_at_origin,
    local_milnor,
    local_tjurina,
    parse_poly,
    render_poly,
    translate_to_origin,
)
from tjurina.analyzer import OffCurveError, _Germ
from tjurina.cli import main
from tjurina.exprio import _parse
from tjurina.groebner import _integer_reducer, _words
from tjurina.poly import Polynomial

P = parse_poly
LOCAL = _words(MonomialOrder("local"), 2)


def _coefficient(rng, rational):
    c = rng.choice([-3, -2, -1, 1, 2, 5])
    return Fraction(c, rng.choice([1, 2, 3, 4, 7])) if rational else c


def _random_case(rng, rational):
    """A curve f and a point at which its translate is a random germ g of
    order 0..3 (nonconstant), with int or Fraction coefficients; a third of
    the points are the origin."""
    order = rng.randint(0, 3)
    while True:
        terms = {}
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(0, 4)
            j = rng.randint(max(0, order - i), 4)
            terms[(i, j)] = _coefficient(rng, rational)
        g = Polynomial(2, terms)
        if g.degree():
            break
    if rng.randint(0, 2):
        point = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    else:
        point = (0, 0)
    return translate_to_origin(g, (-point[0], -point[1])), point


def _cases(seed, count=40):
    rng = random.Random(seed)
    return [_random_case(rng, rational) for _ in range(count) for rational in (False, True)]


def _explicit(f, point):
    """The rational translate and its two partials, as polynomials."""
    g = translate_to_origin(f, point)
    return g, g.partial_derivative(0), g.partial_derivative(1)


def _reference_length(gens):
    """(length, trace), or the message of the StabilizationError."""
    try:
        return local_length_at_origin(gens)
    except StabilizationError as e:
        return str(e)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_germ_keeps_a_positive_integer_multiple_of_the_translate(seed):
    for f, point in _cases(seed):
        germ = _Germ.of(f, point)
        g, _, _ = _explicit(f, point)
        assert germ.scale > 0 and all(type(c) is int for _, c in germ.h.terms())
        assert germ.h == g.scale(germ.scale), (f, point)
        assert germ.m == g.min_degree()
    # the germ keeps no degree: each local run reads its own (_local_length)
    assert _Germ.__slots__ == ("point", "h", "scale", "m")


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_the_packed_germ_is_the_integer_reducer_of_the_translate_and_its_partials(seed):
    # as test_packed_gradient_* checks for degrevlex: the one packing under the
    # local order equals the gate's reducer of each explicit polynomial; the
    # first is the Euler remainder m*g - x*g_x - y*g_y, or g itself when
    # m = 0 or that remainder is zero
    x, y = P("x"), P("y")
    for f, point in _cases(seed):
        g, gx, gy = _explicit(f, point)
        packed = _Germ.of(f, point).packed()
        assert packed[1:] == [_integer_reducer(h, LOCAL) for h in (gx, gy)
                              if not h.is_zero()], (f, point)
        m = g.min_degree()
        r = g.scale(m) - x * gx - y * gy
        first = g if m == 0 or r.is_zero() else r
        assert packed[0] == _integer_reducer(first, LOCAL), (f, point)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_analyze_and_classify_match_the_explicit_lengths(seed):
    for f, point in _cases(seed):
        g, gx, gy = _explicit(f, point)
        mu = _reference_length([gx, gy])
        tau = _reference_length([g, gx, gy])
        failed = [f"{name}: {e}" for name, e in (("tjurina", tau), ("milnor", mu))
                  if isinstance(e, str)]
        if failed:
            with pytest.raises(StabilizationError) as info:
                analyze(f, point)
            assert str(info.value).endswith(": " + "; ".join(failed)), (f, point)
        else:
            report = analyze(f, point)
            assert (report.milnor, report.milnor_trace) == mu, (f, point)
            assert (report.tjurina, report.tjurina_trace) == tau, (f, point)
        m = g.min_degree()
        if m == 0:
            with pytest.raises(OffCurveError):
                classify_double_point(f, point)
        elif m == 1:
            assert classify_double_point(f, point) == SimplePoint(g.homogeneous_component(1))
        elif m >= 3:
            assert classify_double_point(f, point) == MultiplicityAtLeastThree(m)
        elif isinstance(tau, str):
            with pytest.raises(StabilizationError, match="curve not reduced at") as info:
                classify_double_point(f, point)
            assert str(info.value).endswith(": " + tau)
        else:
            assert classify_double_point(f, point) == DoubleA(tau[0]), (f, point)
        if not isinstance(tau, str):
            assert local_tjurina(f, point) == tau
        if not isinstance(mu, str):
            assert local_milnor(f, point) == mu


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_the_germ_of_the_parsed_table_is_the_germ_of_the_polynomial(seed):
    # the CLI hands _parse's integer table and its denominator to the germ:
    # the same multiple h, scale and m as the public route from parse_poly
    kinds = set()
    for f, point in _cases(seed):
        text = render_poly(f)
        table, den = _parse(text, "affine2")
        germ, reference = _Germ(table, den, point), _Germ.of(P(text), point)
        assert (germ.h, germ.scale, germ.m) == \
            (reference.h, reference.scale, reference.m), (text, point)
        kinds.add((not any(point), den > 1))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


# -- no partials, no rationals between the Taylor shift and the local run --------


def test_no_request_builds_a_partial_derivative(monkeypatch):
    def refused(self, v):
        raise AssertionError(f"partial {v} of {self} built")

    monkeypatch.setattr(Polynomial, "partial_derivative", refused)
    point = (Fraction(-1, 3), Fraction(1, 2))
    f = P("(y-1/2)^2-(x+1/3)^5")
    assert analyze(f, point).tjurina == 4
    assert classify_double_point(f, point) == DoubleA(4)
    assert (local_tjurina(f, point)[0], local_milnor(f, point)[0]) == (4, 4)
    for argv in (["analyze", "--curve=x^3-y^3+x^4", "--point=0,0", "--json"],
                 ["analyze", "--curve=y-x^2", "--point=1/2,1/4"],
                 ["classify", "--curve=y^2-x^3+x^4", "--point=0,0"],
                 ["family", "--a", "5", "--b", "3", "--c", "3", "--verify-gb"],
                 ["family", "--a", "4", "--b", "6", "--c", "1", "--verify-gb"]):
        assert main(argv, out=io.StringIO()) == 0, argv


def test_a_singular_request_makes_no_fraction(monkeypatch):
    # the Taylor shift reads the coordinates' numerators and denominators and
    # works in integers, and the local runs take its integer multiple as it is
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    f = P("(y-1/2)^2-(x+1/3)^5+(x+1/3)^3*(y-1/2)^3")
    point = (Fraction(-1, 3), Fraction(1, 2))
    monkeypatch.setattr(Fraction, "__new__", counted)
    for request in (analyze, classify_double_point, local_tjurina, local_milnor):
        made.clear()
        request(f, point)
        assert made == [], request.__name__


def test_a_rational_point_classify_request_builds_no_fraction_for_the_curve(monkeypatch):
    # the text's coefficients go to the germ as integers over one denominator;
    # the point's two coordinates are the only Fractions of the request, each
    # built from the integers of its literal
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    text = render_poly(P("(y+1/3)^2-(x-3/2)^7+5/7*(x-3/2)^4*(y+1/3)^2"))
    monkeypatch.setattr(Fraction, "__new__", counted)
    out = io.StringIO()
    assert main(["classify", f"--curve={text}", "--point=3/2,-1/3", "--json"], out=out) == 0
    assert '"n": 6' in out.getvalue()
    assert made == [(3, 2), (-1, 3)]


# -- edges the integer route keeps ----------------------------------------------------


def test_a_long_pure_power_lowers_the_cut_before_it_needs_its_floor():
    # d^2 + 1 = 4,900,000,001 lies beyond the packed range, but mu's run closes
    # its staircase at degree 69999 before any reduction, and tau's truncation
    # of f runs under that cut
    out = io.StringIO()
    assert main(["analyze", "--curve=x^70000+y^2", "--point=0,0"], out=out) == 0
    assert "tjurina: 69999\nmilnor: 69999\n" in out.getvalue()
    out = io.StringIO()
    assert main(["classify", "--curve=x^70000+y^2", "--point=0,0"], out=out) == 0
    assert out.getvalue() == "A_69999\n"


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_an_exponent_outside_the_packed_range_names_the_partials_exponent(command, capsys):
    # the germ packs f and its gradient together, the gradient's terms checked
    # first, so both requests name the same exponent
    out = io.StringIO()
    assert main([command, "--curve=y^2-x^99999999999", "--point=0,0"], out=out) == 3
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "error: exponent 99999999998 outside the packed field range 0..1073741823\n")


_NOT_REDUCED = ("truncation sequence still growing at r = {r} = d^2 + 1 (d = {d}, the largest "
                "generator degree); a scheme zero-dimensional at the origin stabilizes by "
                "r = d^2 (proven bound), so this one is not (alphas = {alphas})")


def test_a_non_reduced_curve_at_a_rational_point_names_the_point(capsys):
    tau = _NOT_REDUCED.format(r=5, d=2, alphas=[1, 2, 3, 4, 5])
    mu = _NOT_REDUCED.format(r=2, d=1, alphas=[1, 2])
    out = io.StringIO()
    assert main(["analyze", "--curve=(y-1/2)^2", "--point=0,1/2"], out=out) == 3
    assert capsys.readouterr().err == \
        f"error: curve not reduced at (0,1/2): tjurina: {tau}; milnor: {mu}\n"
    assert main(["classify", "--curve=(y-1/2)^2", "--point=0,1/2"], out=out) == 3
    assert capsys.readouterr().err == f"error: curve not reduced at (0,1/2): {tau}\n"
    assert out.getvalue() == ""


def test_a_smooth_tangent_at_a_rational_point_stays_exact():
    out = io.StringIO()
    assert main(["classify", "--curve=3*y-1/2*x^2", "--point=1/3,1/54", "--json"], out=out) == 0
    assert '"tangent": "-1/3*x+3*y"' in out.getvalue()
    out = io.StringIO()
    assert main(["analyze", "--curve=y-x^2", "--point=1/2,1/4"], out=out) == 0
    assert out.getvalue().endswith("smooth point, tangent: -x+y = 0\n")


# -- the two germs whose run starts from f, not its Euler remainder --------------------


@pytest.mark.parametrize("text", ["x^2+y^2+1", "1/2*x^2+2/3*y^2-3/5"])
def test_off_the_curve_the_run_starts_from_the_unit_f(text):
    # m = 0: -x*f_x - y*f_y vanishes at O and no longer generates f, so
    # (x^2 + y^2, x, y) would read tau 1 where (f) is the unit ideal
    f = P(text)
    report = analyze(f, (0, 0))
    assert (report.tjurina, report.milnor) == (0, 1)
    assert report.classification.kind == "off_curve"
    assert local_tjurina(f, (0, 0))[0] == 0
    assert local_milnor(f, (0, 0))[0] == 1


@pytest.mark.parametrize("cubic, node", [("x^3-y^3", "x*y"),
                                         ("1/2*x^3-2/3*y^3", "1/2*x^2-3*y^2")])
def test_a_homogeneous_germ_starts_from_f_as_its_euler_remainder_is_zero(cubic, node):
    f = P(cubic)
    report = analyze(f, (0, 0))
    assert (report.tjurina, report.milnor) == (4, 4)
    assert local_tjurina(f, (0, 0))[0] == 4
    assert classify_double_point(P(node), (0, 0)) == DoubleA(1)
