import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tjurina import (
    Classification,
    DoubleA,
    MultiplicityAtLeastThree,
    SimplePoint,
    StabilizationError,
    analyze,
    classify_double_point,
    embedding_dimension,
    is_ordinary,
    is_slci,
    k_symmetry_order,
    local_milnor,
    local_tjurina,
    multiplicity_at,
    nodes_only_check,
    parse_poly,
)
from tjurina.lengths import INFINITE, TruncationTrace
from tjurina.poly import Polynomial, translate_to_origin

from reference import (VERTICAL, binary_form_resultant, line_restriction_length,
                       local_length_oracle, monomials_of_degree)

P = parse_poly
O = (0, 0)


def jacobian_gens(f, point=O):
    from tjurina import translate_to_origin
    g = translate_to_origin(f, point)
    return [g, g.partial_derivative(0), g.partial_derivative(1)]


# -- multiplicity and ordinariness ----------------------------------------------


def test_multiplicity_examples():
    assert multiplicity_at(P("x^5-y^5"), O) == 5
    assert multiplicity_at(P("y^2-x^3"), O) == 2
    assert multiplicity_at(P("y-x^2"), O) == 1
    assert multiplicity_at(P("x+y-3"), O) == 0  # off the curve


def test_multiplicity_translates_the_point():
    assert multiplicity_at(P("y^2-(x-1)^3"), (1, 0)) == 2


def test_is_ordinary_examples():
    assert is_ordinary(P("x^5-y^5"), O)
    assert not is_ordinary(P("x*y*(x-y)*(x+y)^2+x^6+y^6"), O)
    assert not is_ordinary(P("y^2-x^3"), O)
    with pytest.raises(ValueError):
        is_ordinary(P("y-x^2"), O)


# -- local Tjurina and Milnor numbers ----------------------------------------------


def test_local_tjurina_quintics():
    assert local_tjurina(P("x^5-y^5"), O)[0] == 16
    assert local_tjurina(P("x*y*(x-y)*(x+y)^2+x^6+y^6"), O)[0] == 15


def test_local_tjurina_four_term_curve():
    assert local_tjurina(P("x^9+y^9+x^5*y^7+x^7*y^4"), O)[0] == 59


def test_local_tjurina_zero_iff_smooth_or_off_curve():
    assert local_tjurina(P("y-x^2"), O)[0] == 0
    assert local_tjurina(P("x+y-1"), O)[0] == 0


def test_local_tjurina_error_on_nonreduced():
    with pytest.raises(StabilizationError, match="not reduced"):
        local_tjurina(P("y^2"), O)


def test_local_milnor_examples():
    for m in (2, 3, 5):
        assert local_milnor(P(f"x^{m}-y^{m}"), O)[0] == (m - 1) ** 2
    for n in (1, 3, 6):
        assert local_milnor(P(f"y^2-x^{n + 1}"), O)[0] == n
    assert local_milnor(P("y-x^2"), O)[0] == 0


def test_tau_le_mu_on_random_singular_curves():
    rng = random.Random(2025)
    checked = 0
    while checked < 50:
        terms = {}
        for m in monomials_of_degree(2, 2):
            terms[m] = rng.randint(-3, 3)
        f = Polynomial(2, terms)
        # add a few higher-order terms
        extra = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, 5)
            j = rng.randint(0, 5)
            if i + j >= 3:
                extra[(i, j)] = rng.randint(-3, 3)
        f = f + Polynomial(2, extra)
        if f.is_zero() or f.min_degree() is None or f.min_degree() < 2:
            continue
        try:
            tau, _ = local_tjurina(f, O)
            mu, _ = local_milnor(f, O)
        except StabilizationError:
            continue  # hit a non-reduced sample; draw again
        assert tau <= mu, f
        checked += 1


# -- symmetry order ------------------------------------------------------------------


def test_k_symmetry_fat_point_like_schemes():
    assert k_symmetry_order([P("x^4"), P("y^4")]) == 4
    assert k_symmetry_order([P("x^2"), P("x*y"), P("y^2")]) == 2


def test_k_symmetry_none_for_curvilinear():
    assert k_symmetry_order([P("y"), P("x^5")]) is None


def test_k_symmetry_requires_zero_dimensional_scheme():
    with pytest.raises(ValueError):
        k_symmetry_order([P("x^2"), P("x*y")])


def test_k_symmetry_of_ordinary_jacobian_is_m_minus_1():
    for m in (3, 4, 5):
        gens = jacobian_gens(P(f"x^{m}-y^{m}"))
        assert k_symmetry_order(gens) == m - 1


def test_k_symmetry_catches_irrational_special_slopes():
    # level-2 coefficients share only the irrational roots of t^2 - 2, which
    # a gcd over Q still detects (no sampling would)
    g1 = P("y^2-2*x^2")
    g2 = P("y^2-2*x^2+x^3")
    assert k_symmetry_order([g1, g2, P("x^4"), P("y^4")]) is None


def test_symmetry_order_is_decided_at_the_point():
    # the factor squared at x = 1 makes the global Jacobian scheme
    # one-dimensional but leaves the scheme at O unchanged
    far, near = P("(x^3-y^3)*(x-1)^2"), P("x^3-y^3")
    r_far, r_near = analyze(far, O), analyze(near, O)
    assert r_far.symmetry_order == 2
    assert ((r_far.tjurina, r_far.milnor, r_far.symmetry_order)
            == (r_near.tjurina, r_near.milnor, r_near.symmetry_order) == (4, 4, 2))
    assert k_symmetry_order(jacobian_gens(far)) == 2


def _random_form(rng, degree):
    while True:
        terms = {m: c for m in monomials_of_degree(2, degree) if (c := rng.randint(-3, 3))}
        if terms:
            return Polynomial(2, terms)


def _line_form(line):
    """The linear form vanishing on a line through O: x for VERTICAL,
    q*y - p*x for the slope p/q."""
    if line is VERTICAL:
        return P("x")
    t = Fraction(line)
    return Polynomial(2, {(0, 1): t.denominator, (1, 0): -t.numerator})


def test_symmetry_order_matches_line_restrictions():
    # a line the level-k forms all vanish on meets the scheme in length > k,
    # and with no such line every line meets it in length exactly k.  x^(k+2)
    # and y^(k+2) make the scheme zero-dimensional, as k_symmetry_order asks,
    # and leave the level-k forms as they are
    rng = random.Random(1313)
    slopes = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    outcomes = set()
    for i in range(300):
        k = rng.randint(1, 4)
        planted = (None, VERTICAL, rng.choice(slopes))[i % 3]
        gens = []
        for _ in range(rng.randint(1, 3)):
            order = k + (rng.random() < 0.3)
            if planted is not None and order == k:
                init = _line_form(planted) * _random_form(rng, k - 1)
            else:
                init = _random_form(rng, order)
            gens.append(init + _random_form(rng, order + rng.randint(1, 2)))
        if min(g.min_degree() for g in gens) != k:
            continue
        got = k_symmetry_order(gens + [P(f"x^{k + 2}"), P(f"y^{k + 2}")])
        outcomes.add(got)
        if planted is not None:
            longer = line_restriction_length(gens, planted)
            assert longer is INFINITE or longer > k, (gens, planted)
            assert got is None, gens
        elif got == k:
            for line in [VERTICAL] + slopes:
                assert line_restriction_length(gens, line) == k, (gens, line)
        else:
            assert got is None
    assert outcomes >= {None, 1, 2, 3, 4}


def test_k_symmetry_rejects_schemes_not_zero_dimensional_at_the_origin():
    with pytest.raises(ValueError, match="at the origin"):
        k_symmetry_order([P("y^2-x^3")])
    with pytest.raises(ValueError, match="at the origin"):
        k_symmetry_order([P("x^2"), P("x*y")])


# -- slci -----------------------------------------------------------------------------


def test_is_slci_examples():
    assert is_slci(P("x^4-y^4"), O)
    assert not is_slci(P("y^2-x^4"), O)  # g_x vanishes to order 3 != 1
    assert is_slci(P("x^5-y^5+x^6"), O)
    with pytest.raises(ValueError):
        is_slci(P("y-x"), O)


def test_is_slci_matches_the_resultant_of_the_initial_partials():
    # slci iff both partials have order m - 1 and their initial forms have a
    # nonzero resultant; planted repeated lines make the partials share one
    rng = random.Random(2718)
    seen = set()
    for i in range(200):
        m = rng.randint(2, 5)
        init = _random_form(rng, m)
        if i % 2:
            line = _random_form(rng, 1)
            init = line * line * _random_form(rng, m - 2)
        g = init + _random_form(rng, m + 1) + _random_form(rng, m + rng.randint(2, 3))
        point = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
        f = translate_to_origin(g, (-point[0], -point[1]))  # g moved to the point
        gx, gy = (init.partial_derivative(v) for v in (0, 1))
        expected = (not gx.is_zero() and not gy.is_zero()
                    and gx.degree() == gy.degree() == m - 1
                    and binary_form_resultant(gx, gy) != 0)
        seen.add(expected)
        assert is_slci(f, point) == expected, (g, point)
    assert seen == {True, False}


def test_is_slci_true_at_ordinary_points():
    f = P("x*y*(x+y)+x^9")  # ordinary triple point
    assert is_ordinary(f, O)
    assert is_slci(f, O)


def test_is_slci_is_is_ordinary_at_singular_points():
    # by Euler's relation m*h = x*h_x + y*h_y, the initial form h is
    # squarefree exactly when h_x and h_y share no line: a line dividing h,
    # h_x and h_y divides h twice.  Half the samples plant a repeated factor,
    # a line or a quadratic form, whose lines may be complex.
    rng = random.Random(3141)
    seen = {True: 0, False: 0}
    for i in range(240):
        m = rng.randint(2, 6)
        init = _random_form(rng, m)
        if i % 2:
            factor = _random_form(rng, rng.randint(1, m // 2))
            init = factor * factor * _random_form(rng, m - 2 * factor.degree())
        g = init + _random_form(rng, m + 1) + _random_form(rng, m + rng.randint(2, 3))
        point = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
        f = translate_to_origin(g, (-point[0], -point[1]))  # g moved to the point
        answer = is_ordinary(f, point)
        assert is_slci(f, point) == answer, (g, point)
        seen[answer] += 1
    assert min(seen.values()) >= 40, seen


def test_slci_milnor_schemes_are_symmetric():
    # a symmetric local complete intersection meets every line in length k,
    # so the Milnor generators of an ordinary m-point are (m-1)-symmetric
    for expr, m in [("x^4-y^4", 4), ("x*y*(x+y)+x^9", 3), ("x^5-y^5+x^7*y", 5)]:
        f = P(expr)
        assert is_slci(f, O)
        gens = [f.partial_derivative(0), f.partial_derivative(1)]
        assert k_symmetry_order(gens) == m - 1, expr


# -- the double point algorithm ---------------------------------------------------------


def test_classify_simple_point_carries_tangent():
    out = classify_double_point(P("y^2-x"), O)
    assert isinstance(out, SimplePoint)
    assert out.tangent == P("-x")


def test_classify_nodes_and_cusps():
    assert classify_double_point(P("y^2-x^2+x^3"), O) == DoubleA(1)
    assert classify_double_point(P("y^2-x^3"), O) == DoubleA(2)
    assert classify_double_point(P("y^2-x^4"), O) == DoubleA(3)


def test_classify_a_n_ladder():
    for n in range(1, 13):
        assert classify_double_point(P(f"y^2-x^{n + 1}"), O) == DoubleA(n)


def test_classify_high_multiplicity():
    out = classify_double_point(P("x^5-y^5"), O)
    assert out == MultiplicityAtLeastThree(5)


def test_classify_requires_point_on_curve():
    with pytest.raises(ValueError):
        classify_double_point(P("y^2-x^3+1"), O)


def test_off_curve_error_is_a_value_error_raised_off_the_curve():
    import tjurina
    from tjurina.analyzer import OffCurveError

    assert tjurina.OffCurveError is OffCurveError and issubclass(OffCurveError, ValueError)
    for curve, point in (("y^2-x^3+1", O), ("1", O), ("y-x^2", (1, 2))):
        with pytest.raises(OffCurveError, match=r"^point \(.*\) is not on the curve$"):
            classify_double_point(P(curve), point)


@pytest.mark.parametrize("point", [(0, 0, 0), (1,)])
@pytest.mark.parametrize("func", [analyze, local_tjurina, classify_double_point, translate_to_origin])
def test_a_point_in_the_plane_has_two_coordinates(func, point):
    with pytest.raises(ValueError,
                       match=f"^a point in the plane has 2 coordinates, got {len(point)}$"):
        func(P("y^2-x^3"), point)


@pytest.mark.parametrize("curve, point", [("y^2", (0, 0)), ("(y-1)^2", (0, 1))])
def test_classify_names_a_non_reduced_double_point(curve, point):
    # the failure names the point, as local_tjurina's does
    with pytest.raises(StabilizationError) as info:
        classify_double_point(P(curve), point)
    assert str(info.value).startswith(f"curve not reduced at ({point[0]},{point[1]}): ")
    with pytest.raises(StabilizationError) as tau_info:
        local_tjurina(P(curve), point)
    assert str(info.value) == str(tau_info.value)


def test_each_local_length_names_its_own_failure():
    # the Jacobian length fails on a non-reduced curve, the Milnor length on
    # a non-isolated critical point; each text names the point
    f = P("x*(y-1)^2")
    tail = ("truncation sequence still growing at r = {} = d^2 + 1 (d = {}, the largest "
            "generator degree); a scheme zero-dimensional at the origin stabilizes by "
            "r = d^2 (proven bound), so this one is not (alphas = {})")
    with pytest.raises(StabilizationError) as info:
        local_milnor(f, (0, 1))
    assert str(info.value) == ("non-isolated critical point at (0,1): "
                               + tail.format(5, 2, [1, 3, 4, 5, 6]))
    with pytest.raises(StabilizationError) as info:
        local_tjurina(f, (0, 1))
    assert str(info.value) == ("curve not reduced at (0,1): "
                               + tail.format(10, 3, [1, *range(3, 12)]))


def test_classify_away_from_origin():
    assert classify_double_point(P("y^2-(x-2)^5"), (2, 0)) == DoubleA(4)


@pytest.mark.parametrize("e", [3, 4, 5])
def test_contact_curves_are_a_2e2_minus_1(e):
    # two smooth branches with contact e^2 meet in an A_{2e^2-1} point; e = 5
    # (A_49) needs truncation orders far past 4 * degree
    import io
    import json
    from tjurina.cli import main
    expr = f"(y-x^{e})*(y-x^{e}-y^{e})"
    f, n = P(expr), 2 * e * e - 1
    assert local_tjurina(f, O)[0] == n
    assert classify_double_point(f, O) == DoubleA(n)
    report = analyze(f, O)
    assert (report.tjurina, report.milnor) == (n, n)
    assert report.classification == Classification("A_n", n)
    out = io.StringIO()
    assert main(["classify", "--curve", expr, "--point", "0,0", "--json"], out=out) == 0
    assert json.loads(out.getvalue())["n"] == n


# -- embedding dimension -------------------------------------------------------------


def test_embedding_dimension_values():
    assert embedding_dimension([P("y"), P("x^7")]) == 1
    assert embedding_dimension([P("x^2"), P("x*y"), P("y^2")]) == 2
    assert embedding_dimension([P("x"), P("y")]) == 0
    assert embedding_dimension([P("1")]) == 0


def test_embedding_dimension_matches_the_oracle():
    # max(0, alpha_2 - 1), on ideals zero-dimensional at the origin or not
    # (a common factor through O, or a single generator)
    rng = random.Random(2222)
    monos = [m for t in range(4) for m in monomials_of_degree(2, t)]
    for _ in range(200):
        gens = [Polynomial(2, {m: rng.randint(-3, 3) for m in rng.sample(monos, rng.randint(1, 4))})
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            factor = Polynomial(2, {(1, 0): rng.randint(-2, 2), (0, 1): rng.randint(1, 2)})
            gens = [g * factor for g in gens]
        assert embedding_dimension(gens) == max(0, local_length_oracle(gens, 2) - 1), gens
    assert embedding_dimension([]) == 2 and embedding_dimension([P("1")]) == 0
    with pytest.raises(ValueError, match="2 variables"):
        embedding_dimension([P("x"), parse_poly("x0*x2", "projective3")])


def test_embedding_dimension_builds_no_standard_basis(monkeypatch):
    # dim m/(m^2 + J) is read off the linear parts: no Groebner run
    from tjurina import groebner, lengths

    def refused(*args, **kwargs):
        raise AssertionError("a standard basis was built")

    monkeypatch.setattr(groebner, "_buchberger", refused)
    monkeypatch.setattr(lengths, "_buchberger", refused)
    assert embedding_dimension(jacobian_gens(P("y^2-x^5"))) == 1
    assert embedding_dimension([P("x^2+x*y"), P("y^3-x*y"), P("2*x-3*y+x^2")]) == 1
    assert embedding_dimension([P("x+y^2"), P("y-x^3")]) == 0
    assert embedding_dimension(jacobian_gens(P("x^3-y^3"))) == 2


def test_curvilinearity_certificate_for_a_n():
    for n in range(2, 8):
        f = P(f"y^2-x^{n + 1}")
        gens = jacobian_gens(f)
        assert embedding_dimension(gens) == 1
        assert local_tjurina(f, O)[0] == n


# -- nodes-only criterion ---------------------------------------------------------------


def test_nodes_only_check_values():
    assert nodes_only_check(3, 0, 1)
    assert nodes_only_check(4, 0, 3)
    assert not nodes_only_check(4, 0, 4)


def test_nodes_only_check_validates():
    with pytest.raises(ValueError):
        nodes_only_check(2, 5, 0)  # C(1,2) - 5 < 0
    with pytest.raises(ValueError):
        nodes_only_check(0, 0, 0)


# -- lower bound: non-nodes exceed C(m, 2) ------------------------------------------------


@pytest.mark.parametrize("expr", [
    "y^2-x^3",                     # cusp
    "y^2-x^4",                     # tacnode
    "y^2-x^5",                     # A_4
    "x*y^2+x^4+y^4",               # non-ordinary triple point
    "x*y*(x-y)*(x+y)^2+x^6+y^6",   # non-ordinary quintuple point
])
def test_non_nodal_tjurina_exceeds_binomial(expr):
    from math import comb
    f = P(expr)
    m = multiplicity_at(f, O)
    tau, _ = local_tjurina(f, O)
    assert tau > comb(m, 2)


# -- the aggregated report -----------------------------------------------------------------


def test_analyze_ordinary_quintic():
    r = analyze(P("x^5-y^5"), O)
    assert r.multiplicity == 5
    assert r.is_on_curve
    assert r.ordinary is True
    assert (r.tjurina, r.milnor) == (16, 16)
    assert r.symmetry_order == 4
    assert r.classification == Classification("ordinary", 5)


def test_analyze_a4():
    r = analyze(P("y^2-x^5"), O)
    assert r.multiplicity == 2
    assert (r.tjurina, r.milnor) == (4, 4)
    assert r.classification == Classification("A_n", 4)
    assert str(r.classification) == "A_4"


def test_analyze_smooth():
    r = analyze(P("y-x^2"), O)
    assert r.multiplicity == 1
    assert (r.tjurina, r.milnor) == (0, 0)
    assert r.ordinary is None
    assert r.symmetry_order is None
    assert r.classification == Classification("smooth")


def test_analyze_node_renders_as_node():
    r = analyze(P("y^2-x^2+x^3"), O)
    assert str(r.classification) == "node (A_1)"


def test_analyze_off_curve():
    r = analyze(P("x+y-1"), O)
    assert not r.is_on_curve
    assert r.multiplicity == 0
    assert (r.tjurina, r.milnor) == (0, 0)


def test_analyze_off_curve_is_classified_as_off_the_curve():
    # multiplicity 0 is no smooth point, whatever mu is there
    for text in ("x+y-1", "x^2+y^2-1", "x^2+y^2+1"):
        r = analyze(P(text), O)
        assert r.multiplicity == 0
        assert r.classification == Classification("off_curve")
        assert str(r.classification) == "not on the curve"


def test_analyze_nonreduced_reports_both_failures():
    with pytest.raises(StabilizationError, match="curve not reduced"):
        analyze(P("y^2"), O)


def test_analyze_homogeneous_lines_have_tau_equal_mu():
    # unions of distinct rational lines: Jacobian and Milnor schemes coincide
    for expr in ["x*y", "x*y*(x-y)", "x*y*(x-y)*(x+2*y)", "x^5-y^5"]:
        r = analyze(P(expr), O)
        assert r.tjurina == r.milnor == (r.multiplicity - 1) ** 2


def test_analytic_invariance_smoke():
    # y -> y + x^2 is a coordinate change, so tau is preserved
    for n in range(1, 11):
        base, _ = local_tjurina(P(f"y^2-x^{n + 1}"), O)
        moved, _ = local_tjurina(P(f"(y+x^2)^2-x^{n + 1}"), O)
        assert base == moved == n


# -- mu's and tau's local runs: pinned failure texts -----------------------------

_OFF_CURVE_MILNOR_FAILS = (
    "point (0,0) is not on the curve, and f has a non-isolated critical point there: "
    "milnor: truncation sequence still growing at r = {r} = d^2 + 1 (d = {d}, the largest "
    "generator degree); a scheme zero-dimensional at the origin stabilizes by r = d^2 "
    "(proven bound), so this one is not (alphas = {alphas})")


def test_analyze_reports_a_milnor_failure_alone():
    # (f_x, f_y) = (2x) is not zero-dimensional at O, but tau (= 0) is, from scratch;
    # the curves are reduced, and O is off them, so the failure is not "not reduced"
    for text, r, d, alphas in [("x^2+1", 2, 1, [1, 2]), ("(x+y)^2+1", 2, 1, [1, 2]),
                               ("x^2*y^2+1", 10, 3, [1, 3, 6, 8, 10, 12, 14, 16, 18, 20])]:
        with pytest.raises(StabilizationError) as info:
            analyze(P(text), O)
        assert str(info.value) == _OFF_CURVE_MILNOR_FAILS.format(r=r, d=d, alphas=alphas)


def test_analyze_refuses_a_nonzero_constant_and_local_tjurina_the_zero_polynomial():
    with pytest.raises(ValueError) as info:
        analyze(P("3"), O)
    assert str(info.value) == "a nonzero constant defines the empty curve"
    with pytest.raises(ValueError) as info:
        local_tjurina(Polynomial.zero(2), O)
    assert str(info.value) == "the zero polynomial does not define a curve"


def test_analyze_checks_f_own_term_against_the_packed_fields():
    # x^(2^30): its partial x^(2^30 - 1) fits the fields of the local order,
    # f itself does not
    from tjurina.groebner import MonomialRangeError
    with pytest.raises(MonomialRangeError) as info:
        analyze(P("x^1073741824"), O)
    assert str(info.value) == "exponent 1073741824 outside the packed field range 0..1073741823"
    assert any(entry.name == "_packed_gradient" for entry in info.traceback)


# -- germs of degree d >= 23,171, whose bound d^2 + 1 is past the packed cut 2^29 --


@pytest.mark.parametrize("text, tau, mu", [
    ("x^2*y+y^4+x^23200", 5, 5),          # mu's leads x*y, x^2 hold no power of y
    ("x*y^2+x^23200", 23201, 23201),      # the staircase closes at degree 23,201
])
def test_a_large_degree_germ_closes_below_the_clamped_cut(text, tau, mu):
    report = analyze(P(text), O)
    assert (report.tjurina, report.milnor) == (tau, mu)
    # tau's ideal holds mu's, so its staircase closes no later, below the clamp
    assert report.tjurina_trace.stabilized_at <= report.milnor_trace.stabilized_at


@pytest.mark.parametrize("text, n", [
    ("y^2-x^23200", 23199),
    ("y^2+x^3*y+x^23200", 5),  # the leads y, x^2*y, x^3*y hold no power of x
])
def test_a_large_degree_double_point_is_classified(text, n):
    assert classify_double_point(P(text), O) == DoubleA(n=n)


def test_a_long_double_point_is_classified_without_per_degree_tables():
    # the length is the area of the closed staircase, O(leading monomials);
    # only a trace that is read counts one alpha per degree (up to 999,999)
    import tracemalloc
    f = P("y^2+x^1000000")
    tracemalloc.start()
    try:
        assert classify_double_point(f, O) == DoubleA(n=999999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_a_read_trace_counts_its_pairs_from_the_basis():
    # local_tjurina returns the trace of its run; its pairs are counted when
    # first read, one per degree up to the stabilization index and one more:
    # the ideal is (y, x^999), so alpha_r = min(r, 999)
    n, trace = local_tjurina(P("y^2+x^1000"), O)
    assert (n, trace.stabilized_at) == (999, 999)
    assert trace.pairs == tuple((r, min(r, 999)) for r in range(1, 1001))
    assert trace == TruncationTrace(trace.pairs, 999) and trace.value == n


def test_a_large_degree_germ_that_does_not_close_is_a_range_error(monkeypatch):
    # y^2*(1+x^23200) is not reduced, but no cut the packed words hold proves
    # it: a range error naming d^2 + 1, raised before any count is read
    from tjurina import lengths
    from tjurina.groebner import MonomialRangeError
    counted = []
    real = lengths._standard_counts
    monkeypatch.setattr(lengths, "_standard_counts",
                        lambda lms, R: counted.append(R) or real(lms, R))
    with pytest.raises(MonomialRangeError) as info:
        analyze(P("y^2+x^23200*y^2"), O)
    assert str(info.value) == (
        "cut 538286402 = d^2 + 1 (d = 23201, the largest generator degree) outside the "
        "packed field range: the truncation sequence is still growing at r = 536870912, "
        "the largest cut the packed words hold, so its length is undecided")
    assert counted == []


def _lying_lengths(monkeypatch, tau_shift, mu_shift):
    """Make ``analyze``'s local runs read off by the given shifts: both of
    ``_run_lengths``, and the one length a germ runs, tau from scratch."""
    from tjurina import analyzer
    runs, length = analyzer._run_lengths, analyzer._Germ.length

    def lying_runs(germ):
        tau, tau_trace, mu, mu_trace = runs(germ)
        return tau + tau_shift, tau_trace, mu + mu_shift, mu_trace

    def lying_length(germ, jacobian):
        value, trace = length(germ, jacobian)
        return value + (tau_shift if jacobian else mu_shift), trace

    monkeypatch.setattr(analyzer, "_run_lengths", lying_runs)
    monkeypatch.setattr(analyzer._Germ, "length", lying_length)


def test_analyze_raises_when_tau_exceeds_mu(monkeypatch):
    # a real check, not an assert: it raises under python -O too
    _lying_lengths(monkeypatch, tau_shift=1, mu_shift=0)
    with pytest.raises(AssertionError) as info:
        analyze(P("x^3+y^4"), O)
    assert str(info.value) == "Tjurina number 7 exceeds Milnor number 6"


def test_analyze_raises_where_the_scratch_tau_exceeds_the_closed_mu(monkeypatch):
    # an ordinary point of multiplicity m >= 5 runs tau alone, from scratch,
    # and tau <= mu checks it against the closed mu = (m-1)^2
    _lying_lengths(monkeypatch, tau_shift=2, mu_shift=0)
    with pytest.raises(AssertionError) as info:
        analyze(P("x^5+y^5+x^3*y^3"), O)
    assert str(info.value) == "Tjurina number 17 exceeds Milnor number 16"


def test_analyze_raises_where_mu_is_below_m_minus_1_squared(monkeypatch):
    # Fulton: mu = I_O(f_x, f_y) > (m-1)^2 at a non-ordinary point of
    # multiplicity m >= 2.  Lowering both lengths of x^3+y^4 keeps tau <= mu:
    # only that bound fires
    _lying_lengths(monkeypatch, tau_shift=-3, mu_shift=-3)
    with pytest.raises(AssertionError) as info:
        analyze(P("x^3+y^4"), O)
    assert str(info.value) == "mu = 3 <= (m-1)^2 = 4 at a non-ordinary point of multiplicity 3"


def test_analyze_raises_where_mu_falls_to_m_minus_1_squared_at_a_non_ordinary_point(
        monkeypatch):
    # (m-1)^2 itself is the ordinary value: the gcd found x^3 not squarefree
    _lying_lengths(monkeypatch, tau_shift=-2, mu_shift=-2)
    with pytest.raises(AssertionError) as info:
        analyze(P("x^3+y^4"), O)
    assert str(info.value) == "mu = 4 <= (m-1)^2 = 4 at a non-ordinary point of multiplicity 3"


def _lines_form(rng, m):
    """A squarefree binary form of degree m: distinct rational lines, and an
    irreducible quadratic (two complex lines) in every other draw."""
    lines = [VERTICAL] + sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)})
    quadratic = m >= 2 and rng.random() < 0.5
    form = P("x^2+x*y+y^2") if quadratic else P("1")
    for line in rng.sample(lines, m - 2 * quadratic):
        form = form * _line_form(line)
    return form.scale(rng.choice([-3, -2, -1, 1, 2, 3]))


def _non_ordinary_form(rng, m, i):
    """A binary form of degree m with a repeated linear factor: x^m, y^m
    (one partial vanishes), or a squared line times any form."""
    if i % 3 == 0:
        return P(f"x^{m}")
    if i % 3 == 1:
        return P(f"y^{m}")
    line = _lines_form(rng, 1)
    rest = _random_form(rng, m - 2) if m > 2 else P("1")
    return line * line * rest


def test_analyze_reads_ordinariness_off_mu_as_the_gcd_does():
    # mu = (m-1)^2 exactly when the initial form is squarefree, so the
    # report's ordinariness, symmetry order and mu agree with is_ordinary's
    # gcd.  A non-ordinary point runs mu and tau each from its own
    # generators: every alpha_r of both traces is the Macaulay matrix's
    rng = random.Random(4646)
    seen = {True: set(), False: set()}
    for i in range(150):
        m = 2 + i % 5
        planted = i % 2 == 0
        init = _lines_form(rng, m) if planted else _non_ordinary_form(rng, m, i // 2)
        g = (init + P(f"x^{m + 1}+y^{m + 1}") + _random_form(rng, m + 1)
             + _random_form(rng, m + 2))
        point = O if i % 4 < 2 else (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                     rng.randint(-2, 2))
        f = translate_to_origin(g, (-point[0], -point[1]))  # g moved to the point
        r = analyze(f, point)
        assert r.multiplicity == m, (g, point)
        assert r.ordinary == is_ordinary(f, point) == planted, (g, point)
        assert r.symmetry_order == (m - 1 if planted else None), (g, point)
        assert (r.milnor == (m - 1) ** 2) == planted, (g, point)
        assert r.milnor >= (m - 1) ** 2, (g, point)
        if not planted:
            gens = jacobian_gens(f, point)
            for trace, ideal in ((r.milnor_trace, gens[1:]), (r.tjurina_trace, gens)):
                assert [a for _, a in trace.pairs] == \
                    [local_length_oracle(ideal, r_) for r_, _ in trace.pairs], (g, point)
        seen[planted].add((m, point == O))
    assert seen[True] == seen[False] == {(m, at_o) for m in range(2, 7) for at_o in (True, False)}


def test_a_non_ordinary_point_runs_mu_then_tau_from_their_own_generators(monkeypatch):
    # two local runs where no closed form holds (m <= 1 too): mu's from the
    # packed partials, then tau's from all three reducers; each run reads
    # its bound off the reducers it is given
    from tjurina import analyzer
    runs = []
    real = analyzer._local_length
    monkeypatch.setattr(analyzer, "_local_length",
                        lambda reducers: runs.append(list(reducers)) or real(reducers))
    for expr, point in [("x^3+y^4", O), ("(x-1)^3+(y+2)^4", (1, -2)), ("y^2-x^5", O),
                        ("x*y*(x-y)*(x+y)^2+x^6+y^6", O), ("y-x^2", O), ("x^2+y^2+1", O)]:
        runs.clear()
        r = analyze(P(expr), point)
        packed = analyzer._Germ.of(P(expr), point).packed()
        assert len(packed) == 3 and r.ordinary is not True, expr
        assert runs == [packed[1:], packed], expr


def test_analyze_runs_one_gcd_at_every_point_of_multiplicity_at_least_2(monkeypatch):
    from tjurina import analyzer
    calls = []
    real = analyzer.squarefree_binary_form
    monkeypatch.setattr(analyzer, "squarefree_binary_form",
                        lambda form: calls.append(form) or real(form))
    # off the curve and at a smooth point there is no tangent cone to test
    analyze(P("x^2+y^2+1"), O)
    analyze(P("y-x^2"), O)
    assert calls == []
    for expr, point, report in [("x^5+y^5+x^3*y^3", O, (True, 16, 4)),
                                ("x^5+y^6", O, (False, 20, None)),
                                ("(x-1)^3+(y+2)^4", (1, -2), (False, 6, None)),
                                ("x^2-y^2+x^3", O, (True, 1, 1))]:
        calls.clear()
        r = analyze(P(expr), point)
        assert (r.ordinary, r.milnor, r.symmetry_order) == report, expr
        assert len(calls) == 1, expr
    # is_ordinary and is_slci ask the same gcd
    calls.clear()
    assert is_ordinary(P("x^4-y^4+x^5"), O) and is_slci(P("x^4-y^4+x^5"), O)
    assert len(calls) == 2


def _ordinary_germ(rng, m, at_origin):
    """A curve with an ordinary m-fold point, at O or at a rational point,
    and that point: a squarefree initial form plus terms of degree m + 1 up
    to 2m + 1, moved there."""
    g = _lines_form(rng, m)
    for k in range(m + 1, 2 * m + 2):
        if rng.random() < 0.6:
            g = g + _random_form(rng, k)
    point = O if at_origin else (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                 rng.randint(-2, 2))
    return translate_to_origin(g, (-point[0], -point[1])), point


def test_an_ordinary_point_reports_what_the_runs_give():
    # the closed form mu = (m-1)^2 and its tangent-cone trace equal what the
    # local runs it replaces read off the standard basis; so do tau and its
    # trace, the closed ones at m <= 4 and the scratch run's at m >= 5
    from tjurina.analyzer import _Germ, _run_lengths
    rng = random.Random(4747)
    seen = set()
    for i in range(168):
        m, at_origin = 2 + i % 6, i % 12 < 6
        f, point = _ordinary_germ(rng, m, at_origin)
        r = analyze(f, point)
        assert r.milnor_trace.basis is None, (f, point)
        assert (r.tjurina_trace.basis is None) == (m <= 4), (f, point)
        tau, tau_trace, mu, mu_trace = _run_lengths(_Germ.of(f, point))
        # at m >= 5 the report's tau is the same scratch run as _run_lengths'
        assert (r.tjurina, r.milnor) == (tau, mu), (f, point)
        assert mu == (m - 1) ** 2 and (m >= 5 or tau == mu), (f, point)
        assert r.tjurina_trace == tau_trace and r.milnor_trace == mu_trace, (f, point)
        assert (r.multiplicity, r.ordinary, r.symmetry_order) == (m, True, m - 1)
        assert r.classification == (Classification("A_n", tau) if m == 2 else Classification(
            "ordinary", m)), (f, point)
        if i % 7 == 0:  # every alpha_r against the Macaulay matrix
            gens = jacobian_gens(f, point)
            for r_, alpha in r.milnor_trace.pairs:
                assert local_length_oracle(gens[1:], r_) == alpha, (f, point, r_)
            for r_, alpha in r.tjurina_trace.pairs:
                assert local_length_oracle(gens, r_) == alpha, (f, point, r_)
            seen.add((m, at_origin, "oracle"))
        seen.add((m, at_origin))
    assert seen == {(m, at_o, *tag) for m in range(2, 8) for at_o in (True, False)
                    for tag in ((), ("oracle",))}


@pytest.mark.parametrize("expr, point, pairs", [
    ("x^2-y^2+x^3", O, ((1, 1), (2, 1))),
    ("(x-1)^3-(y+2)^3+(x-1)^4", (1, -2), ((1, 1), (2, 3), (3, 4), (4, 4))),
    ("x^4-y^4+x^5", O, ((1, 1), (2, 3), (3, 6), (4, 8), (5, 9), (6, 9))),
])
def test_the_closed_form_trace_at_an_ordinary_point(expr, point, pairs):
    r = analyze(P(expr), point)
    m = len(pairs) // 2 + 1
    assert r.tjurina_trace == r.milnor_trace == TruncationTrace(pairs, 2 * m - 3)
    assert r.milnor_trace.basis is None
    assert (r.tjurina, r.milnor, r.symmetry_order) == ((m - 1) ** 2, (m - 1) ** 2, m - 1)
    if m == 2:
        assert r.classification == Classification("A_n", 1)
        assert str(r.classification) == "node (A_1)"
    else:
        assert r.classification == Classification("ordinary", m)


def test_a_large_ordinary_point_builds_its_trace_only_when_read(monkeypatch):
    # mu's closed trace at x^N+y^N is read off the staircase of (x^(N-1),
    # y^(N-1)) when first read: 2N-2 pairs, about 26 MB at N = 10^5, of
    # which analyze alone builds none (the gcd's coefficient lists are ~3 MB)
    import tracemalloc
    from tjurina import lengths
    counted = []
    real = lengths._standard_counts
    monkeypatch.setattr(lengths, "_standard_counts",
                        lambda lms, R: counted.append(R) or real(lms, R))
    n = 100_000
    f = P(f"x^{n}+y^{n}")
    tracemalloc.start()
    try:
        r = analyze(f, O)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted == [] and peak < 8_000_000, peak
    assert (r.ordinary, r.milnor, r.milnor_trace.stabilized_at) == (True, (n - 1) ** 2, 2 * n - 3)
    assert len(r.milnor_trace.pairs) == 2 * n - 2 and counted == [2 * n - 2]
    assert r.milnor_trace.value == (n - 1) ** 2 and r.milnor_trace.basis is None


def test_analyze_runs_one_gcd_and_no_length_at_an_ordinary_point_of_multiplicity_at_most_4(
        monkeypatch):
    from tjurina import analyzer
    gcds, runs = [], []
    gcd, run = analyzer.squarefree_binary_form, analyzer._local_length
    monkeypatch.setattr(analyzer, "squarefree_binary_form",
                        lambda form: gcds.append(form) or gcd(form))
    monkeypatch.setattr(analyzer, "_local_length",
                        lambda *args, **kwargs: runs.append(args) or run(*args, **kwargs))

    def counts(expr, point=O):
        gcds.clear()
        runs.clear()
        r = analyze(P(expr), point)
        return r.ordinary, r.milnor, len(gcds), len(runs)

    assert counts("x^4-y^4+x^5") == (True, 9, 1, 0)
    assert counts("(x-1)^3-(y+2)^3+(x-1)^4", (1, -2)) == (True, 4, 1, 0)
    # m = 5: the gcd, then tau alone, run from scratch
    assert counts("x^5+y^5+x^3*y^3") == (True, 16, 1, 1)
    # non-ordinary at m = 3: the one gcd, then both runs, and never a second gcd
    assert counts("x^3+y^4") == (False, 6, 1, 2)


def test_analyze_off_curve_where_mu_is_one():
    r = analyze(P("x^2+y^2+1"), O)
    assert (r.tjurina, r.milnor) == (0, 1)
    assert r.tjurina_trace.pairs == ((1, 0), (2, 0))
    assert r.milnor_trace.pairs == ((1, 1), (2, 1))
    assert r.tjurina_trace.stabilized_at == r.milnor_trace.stabilized_at == 1


def test_analyze_smooth_point_continues_the_unit_ideal():
    # f_y = 1: each run's basis is the unit ideal and its cut is lowered to 0
    r = analyze(P("y-x^2"), O)
    assert (r.tjurina, r.milnor) == (0, 0)
    assert r.tjurina_trace.pairs == r.milnor_trace.pairs == ((1, 0), (2, 0))
    for basis in (r.milnor_trace.basis, r.tjurina_trace.basis):
        assert basis.cut == 0 and basis.leading_monomials() == ((0, 0),)


@pytest.mark.parametrize("expr, tau, mu, tau_pairs, mu_pairs", [
    # quasi-homogeneous: f lies in (f_x, f_y)
    ("x^3+y^4", 6, 6, ((1, 1), (2, 3), (3, 5), (4, 6), (5, 6)), None),
    ("x^2*y+y^4", 5, 5, ((1, 1), (2, 3), (3, 4), (4, 5), (5, 5)), None),
    ("x^3+y^7+x*y^5", 11, 12,
     ((1, 1), (2, 3), (3, 5), (4, 7), (5, 9), (6, 10), (7, 11), (8, 11)),
     ((1, 1), (2, 3), (3, 5), (4, 7), (5, 9), (6, 10), (7, 11), (8, 12), (9, 12))),
])
def test_analyze_tau_and_mu_fixtures(expr, tau, mu, tau_pairs, mu_pairs):
    r = analyze(P(expr), O)
    assert (r.multiplicity, r.tjurina, r.milnor) == (3, tau, mu)
    assert r.tjurina_trace.pairs == tau_pairs
    assert r.milnor_trace.pairs == (mu_pairs or tau_pairs)
    assert r.tjurina_trace.stabilized_at == len(tau_pairs) - 1
    assert (r.symmetry_order, r.ordinary, str(r.classification)) == \
        (None, False, "non-ordinary multiple point (m = 3)")


def test_analyze_nonreduced_curve_at_a_rational_point():
    # (x-1)^2 ((y-2/3)^2 + (x-1)) doubles the line x = 1: both lengths fail
    with pytest.raises(StabilizationError) as info:
        analyze(P("(y-2/3)^2*(x-1)^2+(x-1)^3"), (1, Fraction(2, 3)))
    assert str(info.value) == (
        "curve not reduced at (1,2/3): tjurina: truncation sequence still growing at "
        "r = 17 = d^2 + 1 (d = 4, the largest generator degree); a scheme "
        "zero-dimensional at the origin stabilizes by r = d^2 (proven bound), so this "
        "one is not (alphas = [1, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, "
        "20]); milnor: truncation sequence still growing at r = 10 = d^2 + 1 (d = 3, the "
        "largest generator degree); a scheme zero-dimensional at the origin stabilizes "
        "by r = d^2 (proven bound), so this one is not (alphas = [1, 3, 5, 7, 8, 9, 10, "
        "11, 12, 13])")


def test_analyze_packs_each_partial_once(monkeypatch):
    # one packing of the germ per analyze, which every local run reads: at
    # this ordinary quintic, tau's run from the packed Euler remainder of f
    # and the packed partials; no generator passes through _integer_reducer
    import tjurina.analyzer as A
    from tjurina import groebner, lengths
    packings = []
    packed_gradient = groebner._packed_gradient

    def counted(f, words, with_f=False):
        packings.append((f, with_f))
        return packed_gradient(f, words, with_f)

    def refused(p, words):
        raise AssertionError(f"{p} packed again")

    monkeypatch.setattr(A, "_packed_gradient", counted)
    for module in (groebner, lengths):
        monkeypatch.setattr(module, "_integer_reducer", refused)
    f = P("x^5+y^5+x^3*y^3")
    r = analyze(f, O)
    assert (r.tjurina, r.milnor) == (15, 16)
    assert packings == [(f, True)]


def test_each_request_translates_the_curve_once(monkeypatch):
    # one germ per point: every per-point helper moves the curve to the origin
    # once, and the human report reads a smooth point's tangent from the germ
    # analyze built, without translating again
    import io

    import tjurina.analyzer as A
    from tjurina import cli, poly
    calls = []
    translate = poly._integer_translate

    def counted(table, den, point):
        calls.append(point)
        return translate(table, den, point)

    # so the count sees every translation, the public one included
    assert not hasattr(cli, "_integer_translate") and not hasattr(cli, "translate_to_origin")
    for module in (A, poly):
        monkeypatch.setattr(module, "_integer_translate", counted)
    f = P("(x-1)^3-(y-1)^3+(x-1)^4")
    for helper in (A.multiplicity_at, A.is_ordinary, A.local_tjurina, A.local_milnor,
                   A.is_slci, A.classify_double_point, A.analyze):
        calls.clear()
        helper(f, (1, 1))
        assert calls == [(1, 1)], helper.__name__
    calls.clear()
    out = io.StringIO()
    assert cli.main(["analyze", "--curve=y-x^2", "--point=1,1"], out=out) == 0
    assert out.getvalue().endswith("smooth point, tangent: -2*x+y = 0\n")
    assert len(calls) == 1
    # classify hands the parsed point, or the point of its projective chart, to
    # the engine, which translates once (the affine request translated twice)
    for argv, answer in ((["classify", "--curve=y-x^2", "--point=1,1"], "-2*x+y"),
                         (["classify", "--projective", "--curve=x1^2*x2-x0^3",
                           "--point=1,1,1"], "-3*x+2*y")):
        calls.clear()
        out = io.StringIO()
        assert cli.main(argv, out=out) == 0
        assert out.getvalue() == f"simple point, tangent: {answer} = 0\n"
        assert len(calls) == 1, argv


_TAU_ABOVE_MU = """
import tjurina.analyzer as A
from tjurina import parse_poly
from tjurina.lengths import TruncationTrace

if __debug__:
    raise SystemExit("not running under -O")
trace = TruncationTrace(((1, 1), (2, 1)), stabilized_at=1)
A._local_length = lambda reducers: (4 if len(reducers) == 2 else 5, trace)
try:
    A.analyze(parse_poly("y^2-x^3"), (0, 0))
except AssertionError as e:
    print("raised:", e)
"""


def test_analyze_invariant_checks_survive_optimize():
    import tjurina
    env = dict(os.environ, PYTHONPATH=str(Path(tjurina.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _TAU_ABOVE_MU], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: Tjurina number 5 exceeds Milnor number 4\n"
