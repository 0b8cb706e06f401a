import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from tjurina import (
    DEGREVLEX,
    INFINITE,
    MonomialIdeal,
    Polynomial,
    StabilizationError,
    analyze,
    buchberger,
    global_tjurina,
    hilbert_function,
    leading_term_ideal,
    local_length_at_origin,
    parse_poly,
    staircase_length,
    translate_to_origin,
)
from tjurina.groebner import _buchberger, _words
from tjurina.lengths import (
    _LOCAL,
    _projective_dimension_at_most_points,
    _standard_counts,
)
from tjurina.poly import monomial_divides

from reference import (VERTICAL, checked_buchberger, checked_continuation, continued_length,
                       line_restriction_length, local_length_oracle, monomials_of_degree)

P = parse_poly


def _staircase_by_enumeration(gens, box=40):
    """Independent oracle: walk the whole bounding box and count."""
    count = 0
    for m in itertools.product(range(box), repeat=2):
        if not any(monomial_divides(g, m) for g in gens):
            count += 1
    return count


def test_staircase_grid():
    assert staircase_length(MonomialIdeal(2, [(4, 0), (0, 4)])) == 16


def test_staircase_b1_cell_is_57():
    gens = [(6, 3), (7, 2), (9, 0), (0, 9), (2, 8)]
    assert _staircase_by_enumeration(gens) == 57
    assert staircase_length(MonomialIdeal(2, gens)) == 57


def test_staircase_infinite_without_pure_powers():
    assert staircase_length(MonomialIdeal(2, [(1, 0)])) is INFINITE
    assert staircase_length(MonomialIdeal(2, [])) is INFINITE


def test_staircase_matches_enumeration_on_random_ideals():
    rng = random.Random(42)
    for _ in range(30):
        gens = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(2, 6))]
        gens += [(rng.randint(1, 8), 0), (0, rng.randint(1, 8))]
        mi = MonomialIdeal(2, gens)
        assert staircase_length(mi) == _staircase_by_enumeration(list(mi.gens))


def test_staircase_three_variables():
    # staircases are counted in the plane only; three variables raise
    for gens in ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], [(1, 0, 0)], []):
        with pytest.raises(ValueError, match="2 variables"):
            staircase_length(MonomialIdeal(3, gens))
    assert staircase_length(MonomialIdeal(2, [(0, 0)])) == 0  # the unit ideal


def test_fat_point_length_is_binomial():
    from math import comb
    for k in range(1, 8):
        power = MonomialIdeal(2, [(i, k - i) for i in range(k + 1)])
        assert staircase_length(power) == comb(k + 1, 2)


def test_monomial_schemes_between_fat_point_and_grid_are_symmetric():
    from math import comb
    from tjurina import k_symmetry_order
    rng = random.Random(606)
    for _ in range(20):
        k = rng.randint(2, 6)
        gens = [Polynomial.monomial(2, (k, 0)), Polynomial.monomial(2, (0, k))]
        for _ in range(rng.randint(0, 4)):
            d = rng.randint(k, k + 2)
            i = rng.randint(0, d)
            gens.append(Polynomial.monomial(2, (i, d - i)))
        assert k_symmetry_order(gens) == k
        length, _ = local_length_at_origin(gens)
        assert comb(k + 1, 2) <= length <= k * k


# -- local length at the origin -------------------------------------------------


def test_local_length_curvilinear():
    val, trace = local_length_at_origin([P("y^2-x^6"), P("2*y"), P("6*x^5")])
    assert val == 5
    assert trace.pairs[-1][1] == trace.pairs[-2][1] == 5


def test_local_length_of_the_nonordinary_quintic():
    f = P("x*y*(x-y)*(x+y)^2+x^6+y^6")
    val, _ = local_length_at_origin([f, f.partial_derivative(0), f.partial_derivative(1)])
    assert val == 15


def test_local_length_unit_ideal():
    val, _ = local_length_at_origin([P("y-x^2"), P("-2*x"), P("1")])
    assert val == 0


def test_local_length_kills_far_components():
    # scheme = origin (length 1) plus a fat point at (1, 0); truncation sees only O
    far = [P("x*(x-1)^2"), P("y")]
    val, _ = local_length_at_origin(far)
    assert val == 1


def test_local_length_requires_nonzero_generator():
    with pytest.raises(ValueError):
        local_length_at_origin([P("0")])


def test_local_length_diverges_on_positive_dimension():
    with pytest.raises(StabilizationError):
        local_length_at_origin([P("y^2")])


def _jacobian(f):
    return [f, f.partial_derivative(0), f.partial_derivative(1)]


@pytest.mark.parametrize("expr", ["y^2", "x^2*y^2", "(y^2-x^3)^2"])
def test_stabilization_error_names_the_proven_bound(expr):
    f = P(expr)
    d = f.degree()
    with pytest.raises(StabilizationError) as info:
        local_length_at_origin(_jacobian(f))
    message = str(info.value)
    assert f"r = {d * d + 1} = d^2 + 1 (d = {d}," in message
    assert "(proven bound)" in message


def _growing(bound, d, alphas):
    return (f"truncation sequence still growing at r = {bound} = d^2 + 1 (d = {d}, the largest "
            "generator degree); a scheme zero-dimensional at the origin stabilizes by r = d^2 "
            f"(proven bound), so this one is not (alphas = {alphas})")


@pytest.mark.parametrize("expr, tjurina, milnor", [
    ("(x^2-y^3)^2",
     _growing(37, 6, [1, 3, 6, 9, *range(11, 76, 2)]),
     _growing(26, 5, [1, 3, 6, 9, *range(11, 54, 2)])),
    ("(y^2-x^3)^2*(x+y)",
     _growing(50, 7, [1, 3, 6, 10, 13, 16, *range(18, 105, 2)]),
     _growing(37, 6, [1, 3, 6, 10, 13, 16, *range(18, 79, 2)])),
    ("(x^2+y^5)^2*(x-y)^2",
     _growing(145, 12, [1, 3, 6, 10, 15, 19, 23, 27, 31, *range(34, 440, 3)]),
     _growing(122, 11, [1, 3, 6, 10, 15, 19, 23, 27, 31, *range(34, 371, 3)])),
])
def test_stabilization_messages_of_non_reduced_curves(expr, tjurina, milnor):
    # the whole sequence up to d^2 + 1 is part of the message, so this pins
    # every count of the run at the proven bound
    with pytest.raises(StabilizationError) as info:
        analyze(P(expr), (0, 0))
    assert str(info.value) == f"curve not reduced at (0,0): tjurina: {tjurina}; milnor: {milnor}"


def test_a_stabilization_error_lists_at_most_a_thousand_alphas():
    # x^32: mu fails at r = 962 and lists every alpha; tau, from scratch,
    # fails at r = 1025 and lists the first 1000.  Both ideals are (x^31).
    alphas = list(itertools.accumulate(min(t + 1, 31) for t in range(1025)))
    with pytest.raises(StabilizationError) as info:
        analyze(P("x^32"), (0, 0))
    assert str(info.value) == (
        "curve not reduced at (0,0): "
        f"tjurina: {_growing(1025, 32, str(alphas[:1000])[:-1] + ', ...]')}; "
        f"milnor: {_growing(962, 31, alphas[:962])}")


def test_a_stabilization_error_stays_short_for_a_large_bound():
    # x^1000 has the bound 10^6 + 1: the text once listed every alpha (21.7
    # MB), and counting them was most of the time
    start = time.perf_counter()
    with pytest.raises(StabilizationError) as info:
        analyze(P("x^1000"), (0, 0))
    elapsed = time.perf_counter() - start
    text = str(info.value)
    assert len(text) < 16_000 and text.endswith(", 499500, 500499, ...])")
    assert elapsed < 0.5


def test_the_cut_is_clamped_to_the_packed_range_from_degree_23171(monkeypatch):
    # (y^2, x^(d-1)*y) is not zero-dimensional at O.  Up to d = 23,170 the bound
    # d^2 + 1 fits the packed cut 2^29 and proves it; from d = 23,171 the run
    # starts at 2^29 and, still growing there, proves nothing
    from tjurina import lengths
    from tjurina.groebner import MonomialRangeError
    with pytest.raises(StabilizationError, match="r = 536848901 = d"):
        local_length_at_origin([P("y^2"), P("x^23169*y")])
    real = lengths._standard_counts
    monkeypatch.setattr(lengths, "_standard_counts",
                        lambda lms, R: real(lms, R) if R <= 10**6 else pytest.fail(f"R = {R}"))
    for gens, bound in [(["y^2", "x^23170*y"], 536895242),
                        # y and x^600000000: the clamp drops x's power, so the
                        # staircase cannot close at degree 600,000,000
                        (["y", "x^600000000"], 360000000000000001),
                        # the clamp drops every generator
                        (["x^600000000"], 360000000000000001)]:
        with pytest.raises(MonomialRangeError) as info:
            local_length_at_origin([P(g) for g in gens])
        assert str(info.value).startswith(f"cut {bound} = d^2 + 1 "), gens
    # a staircase closing below the clamp certifies its length (Nakayama)
    assert local_length_at_origin([P("y+x^23171"), P("x^5")])[0] == 5


@pytest.mark.parametrize("expr, n, doubles", [
    # d = 6: R starts at 14, the sequence stabilizes at 17, so R doubles
    ("(y-x^3)*(y-x^3-y^3)", 17, True),
    # two smooth branches with contact k, an A_{2k-1} point
    *[(f"(y-2*x^2+x^3)*(y-2*x^2+x^3-3*x^{k}+x^{k + 1})", 2 * k - 1, False)
      for k in range(2, 8)],
])
def test_trace_matches_oracle_with_and_without_doubling(expr, n, doubles):
    gens = _jacobian(P(expr))
    d = max(g.degree() for g in gens)
    val, trace = local_length_at_origin(gens)
    assert val == n
    # R starts at 2d + 2; a trace that runs past it needed a larger R
    assert (trace.pairs[-1][0] > 2 * d + 2) == doubles
    for r, alpha in trace.pairs:
        assert local_length_oracle(gens, r) == alpha, (r, alpha)


def test_trace_is_monotone_and_ends_on_repeat():
    f = P("x^5-y^5")
    val, trace = local_length_at_origin([f, f.partial_derivative(0), f.partial_derivative(1)])
    alphas = trace.alphas()
    assert all(a <= b for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] == alphas[-2] == val == 16
    assert all(a < alphas[-1] for a in alphas[:-2])
    assert trace.stabilized_at == trace.pairs[-1][0] - 1


# -- the Macaulay oracle -----------------------------------------------------------


def test_oracle_basic_values():
    assert local_length_oracle([P("y"), P("x^5")], 6) == 5
    assert local_length_oracle([P("x^8"), P("y^8")], 20) == 64
    assert local_length_oracle([P("1")], 3) == 0


def test_oracle_matches_trace_on_random_origin_primary_ideals():
    rng = random.Random(777)
    for _ in range(25):
        p, q = rng.randint(2, 5), rng.randint(2, 5)
        gens = [Polynomial.monomial(2, (p, 0)), Polynomial.monomial(2, (0, q))]
        extra = {}
        for _ in range(rng.randint(1, 6)):
            m = (rng.randint(0, 5), rng.randint(0, 5))
            if sum(m) > 0:
                extra[m] = rng.randint(-4, 4)
        g = Polynomial(2, extra)
        if not g.is_zero():
            gens.append(g)
        val, trace = local_length_at_origin(gens)
        for r, alpha in trace.pairs:
            assert local_length_oracle(gens, r) == alpha
        # origin-primary: the untruncated staircase already gives the length
        gb = buchberger(gens)
        assert staircase_length(leading_term_ideal(gb)) == val
        # stabilization is genuine: two steps past the trace it has not moved
        assert local_length_oracle(gens, trace.pairs[-1][0] + 2) == val


def test_standard_counts_and_closing_degree_match_enumeration():
    rng = random.Random(8181)
    for _ in range(300):
        lms = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:  # pure powers, so that the staircase can close
            lms += [(rng.randint(0, 9), 0), (0, rng.randint(0, 9))]
        by_degree = [sum(1 for m in monomials_of_degree(2, t)
                         if not any(monomial_divides(g, m) for g in lms)) for t in range(20)]
        R = rng.randint(1, 20)
        assert _standard_counts(lms, R) == by_degree[:R], (lms, R)
        # the least degree with no standard monomial, when one is below 20, is
        # the cut a local run on the monomials lowers 20 to; duplicate and
        # redundant monomials among them do not reach its minimal basis
        words = _words(_LOCAL, 2)
        gb = _buchberger([(words.pack(m), 1, ()) for m in lms], words, 20)
        assert gb.cut == (by_degree.index(0) if 0 in by_degree else 20), lms
        assert set(gb.leading_monomials()) == MonomialIdeal(2, lms).gens, lms


def _counts_by_enumeration(lms, R):
    return [sum(1 for m in monomials_of_degree(2, t)
                if not any(monomial_divides(g, m) for g in lms)) for t in range(R)]


@pytest.mark.parametrize("lms, R", [
    ([(3, 5), (8, 1), (12, 0)], 7),        # R cuts inside the run of height 5
    ([(3, 5), (8, 1), (12, 0)], 10),       # ... and inside the run of height 1
    ([(4, 2), (0, 9)], 6),                 # no pure power of x: the last run never ends
    ([(4, 2), (7, 0)], 9),                 # first run (columns 0..3) unbounded
    ([(2, 3)], 12),                        # first run unbounded, last run of height 3
    ([], 1), ([], 9),                      # the empty set: every monomial counts
    ([(0, 0)], 1), ([(0, 0)], 9),          # the unit ideal: none does
    ([(0, 0), (3, 1)], 5),
])
def test_standard_counts_by_runs_match_enumeration(lms, R):
    assert _standard_counts(lms, R) == _counts_by_enumeration(lms, R)


def test_standard_counts_by_runs_on_long_runs():
    # a few corners far apart, so every run spans many columns, and R cutting
    # anywhere, inside a run or past the last one
    rng = random.Random(9090)
    for _ in range(3000):
        corners = sorted(rng.sample(range(0, 25), rng.randint(0, 4)))
        heights = sorted(rng.sample(range(0, 25), len(corners)), reverse=True)
        lms = list(zip(corners, heights))
        R = rng.randint(1, 45)
        assert _standard_counts(lms, R) == _counts_by_enumeration(lms, R), (lms, R)


def _random_curves(rng, count):
    """Seeded plane curves, each with three rational points: one where the
    curve has a point of multiplicity 1 to 4 by construction, the origin and
    one more.  Every third curve is non-reduced, a square times a curve."""
    def local(low, high, terms):
        table = {}
        for _ in range(terms):
            t = rng.randint(low, high)
            i = rng.randint(0, t)
            table[i, t - i] = rng.choice((-3, -2, -1, 1, 2, 5))
        return Polynomial(2, table)

    for index in range(count):
        point = (Fraction(rng.randint(-2, 2), rng.randint(1, 3)), Fraction(rng.randint(-1, 2)))
        h = local(rng.choice((1, 2, 2, 3, 3, 4)), 6, rng.randint(2, 5))
        if index % 3 == 2:
            h = local(1, 2, 2) ** 2 * local(0, 3, 2)
        if h.is_zero() or h.degree() == 0:
            continue
        f = translate_to_origin(h, (-point[0], -point[1]))
        yield f, [point, (0, 0), (rng.randint(-1, 1), Fraction(1, 2))]


def test_tau_continued_from_mu_matches_tau_from_scratch():
    # (f_x, f_y) lies inside (f, f_x, f_y): continuing mu's basis with f gives
    # tau's value and trace, and the leading monomials of a fresh run
    rng = random.Random(20261018)
    continued = 0
    for f, points in _random_curves(rng, 150):
        for point in points:
            g = translate_to_origin(f, point)
            gx, gy = g.partial_derivative(0), g.partial_derivative(1)
            try:
                _, mu_trace = local_length_at_origin([gx, gy])
            except StabilizationError:
                continue
            fresh = local_length_at_origin([g, gx, gy])
            tau, trace = continued_length([g], mu_trace.basis)
            assert (tau, trace.pairs, trace.stabilized_at) == \
                (fresh[0], fresh[1].pairs, fresh[1].stabilized_at), (f, point)
            base, c = mu_trace.basis, mu_trace.basis.cut
            continued += c > 0
            gb = checked_continuation([g], base)
            if g.min_degree() >= c:
                assert gb is base  # f truncates to zero under the cut
            every = [h for h in (gx, gy, g) if not h.is_zero() and h.min_degree() < c]
            if every:
                below = checked_buchberger(every, _LOCAL, cut=c).leading_monomials()
                assert tuple(m for m in gb.leading_monomials() if sum(m) < c) == below
            # the sum closes by degree c, so one degree more shows its whole staircase
            above = checked_buchberger([gx, gy, g], _LOCAL, cut=c + 1)
            assert gb.leading_monomials() == above.leading_monomials(), (f, point)
    assert continued >= 50  # continued past the unit ideal (55 at this seed)


def test_a_length_takes_its_generators_alone():
    # a basis is continued only inside the local lengths (``_local_length``),
    # whose caller meets its degree precondition; a public base whose
    # generators were of larger degree than the new ones once raised a false
    # StabilizationError here: the length of (y, x^10) is 10
    import inspect

    y = P("y")
    tau, trace = local_length_at_origin([y, P("x^10")])
    assert tau == 10 and trace.stabilized_at == 10
    assert list(inspect.signature(local_length_at_origin).parameters) == ["gens"]
    with pytest.raises(TypeError):
        local_length_at_origin([y], base=trace.basis)


# -- Hilbert functions ---------------------------------------------------------------


def _p3(s):
    return parse_poly(s, "projective3")


def test_hilbert_function_values():
    gens = [_p3("x1^4"), _p3("x2^4")]
    assert hilbert_function(gens, 3) == 10
    assert hilbert_function(gens, 8) == 16
    assert hilbert_function([_p3("x0"), _p3("x1"), _p3("x2")], 1) == 0


def test_slice_dims_match_a_per_degree_count():
    from tjurina.lengths import _slice_dims
    rng = random.Random(3141)
    ideals = [MonomialIdeal(3, []), MonomialIdeal(3, [(0, 0, 0)])]
    for _ in range(60):
        ideals.append(MonomialIdeal(3, [tuple(rng.randint(0, 5) for _ in range(3))
                                        for _ in range(rng.randint(1, 6))]))
    for lt in ideals:
        t_max = rng.randint(0, 12)
        expected = [sum(1 for m in monomials_of_degree(3, t)
                        if not any(monomial_divides(g, m) for g in lt.gens))
                    for t in range(t_max + 1)]
        assert _slice_dims(lt, t_max) == expected


def test_slice_dims_by_runs_on_long_equal_height_runs():
    # blocks of one height over long runs of columns (a few generators with
    # large x0, x1 exponents), cut by a t_max that falls inside a run
    from tjurina.lengths import _slice_dims
    rng = random.Random(2718)
    for _ in range(150):
        gens = [(0, 0, rng.randint(1, 6))]
        gens += [(rng.randint(0, 14), rng.randint(0, 14), rng.randint(0, 5))
                 for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.7:  # pure powers, so the staircase is finite
            gens += [(rng.randint(4, 16), 0, 0), (0, rng.randint(4, 16), 0)]
        lt = MonomialIdeal(3, gens)
        t_max = rng.randint(0, 30)
        expected = [sum(1 for m in monomials_of_degree(3, t)
                        if not any(monomial_divides(g, m) for g in lt.gens))
                    for t in range(t_max + 1)]
        assert _slice_dims(lt, t_max) == expected, (sorted(lt.gens), t_max)


def test_hilbert_function_validates():
    with pytest.raises(ValueError):
        hilbert_function([_p3("x0+x1^2")], 2)
    with pytest.raises(ValueError):
        hilbert_function([parse_poly("x")], 1)


def test_hilbert_function_stabilizes_over_three_degrees():
    f = _p3("x1^5-x2^5")
    parts = [f.partial_derivative(i) for i in range(3) if not f.partial_derivative(i).is_zero()]
    d = 5
    tail = [hilbert_function(parts, t) for t in range(3 * (d - 1) - 2, 3 * (d - 1) + 1)]
    assert tail[0] == tail[1] == tail[2] == 16


# -- the global Tjurina number ---------------------------------------------------------


@pytest.mark.parametrize("gens, expected", [
    ([(2, 0, 0), (0, 2, 0)], True),   # (x0^2, x1^2): the point (0:0:1)
    ([(0, 0, 0)], True),              # the unit ideal: the empty scheme
    ([(1, 1, 0)], False),             # (x0*x1): two lines
    ([(0, 0, 1)], False),             # (x2): a line
    ([], False),                      # the zero ideal: the whole plane
], ids=["x0^2,x1^2", "unit", "x0*x1", "x2", "zero"])
def test_projective_dimension_at_most_points(gens, expected):
    assert _projective_dimension_at_most_points(MonomialIdeal(3, gens)) is expected


def test_global_tjurina_of_line_arrangements():
    for d in range(2, 7):
        assert global_tjurina(_p3(f"x1^{d}-x2^{d}")) == (d - 1) ** 2


def test_global_tjurina_nodal_cubic():
    assert global_tjurina(_p3("x1^2*x0-x2^2*(x2+x0)")) == 1
    # cross-check at the node [1:0:0], chart x0 = 1 with (x, y) = (x1, x2)
    from tjurina import local_tjurina
    affine = parse_poly("x^2-y^2*(y+1)")
    assert local_tjurina(affine, (0, 0))[0] == 1


def test_global_tjurina_smooth_conic():
    assert global_tjurina(_p3("x0*x2-x1^2")) == 0


def test_global_tjurina_infinite_for_nonreduced():
    assert global_tjurina(_p3("x0^2*x1^2")) is INFINITE


def _random_ternary_form(rng, d):
    """A sparse form of degree d: two to six terms, coefficients in -3..3."""
    monomials = list(monomials_of_degree(3, d))
    return Polynomial(3, {m: rng.choice((-3, -2, -1, 1, 2, 3))
                          for m in rng.sample(monomials, rng.randint(2, 6))})


def test_global_tjurina_reads_a_proven_window():
    # with L the degree of the lcm of LT(J)'s minimal generators, the Hilbert
    # function is constant from degree L - 2 on, through 6d and beyond
    rng = random.Random("proven window")
    finite = beyond = 0
    for _ in range(60):
        d = rng.randint(3, 7)
        f = _random_ternary_form(rng, d)
        parts = [f.partial_derivative(i) for i in range(3)]
        value, hf = global_tjurina(f, with_trace=True)
        if value is INFINITE:
            # a non-reduced curve: the Jacobian scheme is a curve, and HF grows
            assert hf == []
            assert hilbert_function(parts, 6 * d + 1) > hilbert_function(parts, 6 * d), f
            continue
        lt = leading_term_ideal(checked_buchberger(parts, DEGREVLEX))
        L = sum(max(m[v] for m in lt.gens) for v in range(3))
        assert len(hf) == max(3 * (d - 1), L - 2) + 1, f
        assert set(hf[L - 2:]) == {value}, f
        assert hilbert_function(parts, 6 * d) == value, f
        finite += 1
        beyond += L - 2 > 3 * (d - 1)
    assert finite >= 40 and beyond >= 10


def test_global_tjurina_validates():
    with pytest.raises(ValueError):
        global_tjurina(_p3("x0"))
    with pytest.raises(ValueError):
        global_tjurina(parse_poly("x^2+y^2"))


def test_global_matches_local_for_line_arrangements():
    from tjurina import local_tjurina
    for d in range(2, 9):
        proj = global_tjurina(_p3(f"x1^{d}-x2^{d}"))
        # the only singular point is [1:0:0]; chart x0 = 1
        local, _ = local_tjurina(parse_poly(f"x^{d}-y^{d}"), (0, 0))
        assert proj == local == (d - 1) ** 2


def test_global_matches_sum_of_locals_on_four_node_curve():
    from tjurina import local_tjurina
    # circle x^2 + y^2 = 25 and hyperbola x y = 12 meet transversally in the
    # four rational points (3,4), (4,3), (-3,-4), (-4,-3); the union is a
    # quartic whose only singularities are those four nodes
    F = _p3("(x1^2+x2^2-25*x0^2)*(x1*x2-12*x0^2)")
    f = parse_poly("(x^2+y^2-25)*(x*y-12)")
    nodes = [(3, 4), (4, 3), (-3, -4), (-4, -3)]
    locals_sum = 0
    for pt in nodes:
        tau, _ = local_tjurina(f, pt)
        assert tau == 1
        locals_sum += tau
    assert global_tjurina(F) == locals_sum == 4


def _primitive(v):
    g = math.gcd(*v)
    v = tuple(c // g for c in v)
    return v if next(c for c in v if c) > 0 else tuple(-c for c in v)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _arrangement_with_a_triple_point(rng, d):
    """d distinct lines (coefficient vectors), three of them through one
    point; the other lines are drawn at random and may meet in more."""
    while True:
        point = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(point):
            break
    lines = set()
    while len(lines) < d:
        line = tuple(rng.randint(-3, 3) for _ in range(3))
        if len(lines) < 3:
            line = _cross(point, line)  # a line through the point
        if any(line):
            lines.add(_primitive(line))
    return sorted(lines)


def _sum_of_local_tjurina(F, points):
    """The local Tjurina numbers of F at the given projective points, each
    taken in the affine chart of a coordinate that does not vanish there."""
    from tjurina import local_tjurina
    total = 0
    for point in points:
        k = next(k for k in range(3) if point[k])
        i, j = (v for v in range(3) if v != k)
        f = Polynomial(2, {(m[i], m[j]): c for m, c in F.terms()})
        tau, _ = local_tjurina(f, (Fraction(point[i], point[k]), Fraction(point[j], point[k])))
        total += tau
    return total


@pytest.mark.parametrize("d", range(3, 8))
def test_global_matches_sum_of_locals_on_line_arrangements(d):
    # the singular points of a line arrangement are where two lines meet
    rng = random.Random(f"arrangement:{d}")
    for _ in range(3):
        lines = _arrangement_with_a_triple_point(rng, d)
        F = _p3("1")
        for line in lines:
            F = F * Polynomial(3, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line)))
        points = {_primitive(_cross(u, v)) for u, v in itertools.combinations(lines, 2)}
        assert len(points) < d * (d - 1) // 2  # the triple point
        assert global_tjurina(F) == _sum_of_local_tjurina(F, points), lines


def test_global_tjurina_builds_no_partial(monkeypatch):
    # the Jacobian enters the integer core packed (groebner._packed_gradient)
    def refuse(self, var_index):
        raise AssertionError("global_tjurina built a partial derivative")

    monkeypatch.setattr(Polynomial, "partial_derivative", refuse)
    assert global_tjurina(_p3("x1^2*x2-x0^3")) == 2
    assert global_tjurina(_p3("x0^3+x1^3+x2^3")) == 0
    assert global_tjurina(_p3("1/2*x0*(x1-x2)^2*(x0+x1+x2)"), with_trace=True) == (INFINITE, [])
    assert global_tjurina(_p3("x0*x1*x2*(x0-x1)*(x0-x2)*(x1-x2)")) == 19


@pytest.mark.parametrize("d", range(3, 8))
def test_global_tjurina_agrees_with_the_hilbert_function_of_the_partials(d):
    # two gates into the integer core: global_tjurina packs the gradient,
    # hilbert_function packs the partials as polynomials; both read the
    # same value at the last degree of the read-out
    rng = random.Random(f"two gates:{d}")
    for _ in range(3):
        F = _p3("1")
        for line in _arrangement_with_a_triple_point(rng, d):
            F = F * Polynomial(3, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line)))
        value, hf = global_tjurina(F, with_trace=True)
        parts = [F.partial_derivative(v) for v in range(3)]
        assert hf[-1] == value
        assert hilbert_function(parts, len(hf) - 1) == value, F


@pytest.mark.parametrize("curve, points, tau", [
    ("x1^2*x2-x0^3", [(0, 0, 1)], 2),  # cuspidal cubic
    ("(x0*x2-x1^2)*x0", [(0, 0, 1)], 3),  # conic and a tangent line: A_3
    ("(x0*x2-x1^2)*x1", [(1, 0, 0), (0, 0, 1)], 2),  # conic and a secant line
    ("(x0*x1-x2^2)*(x0*x1+x2^2)", [(1, 0, 0), (0, 1, 0)], 6),  # two tangent conics
    ("(x0*x2-x1^2)*x0*x1", [(0, 0, 1), (1, 0, 0)], 7),  # D_6 and a node
])
def test_global_matches_sum_of_locals_at_rational_singular_points(curve, points, tau):
    F = _p3(curve)
    assert global_tjurina(F) == _sum_of_local_tjurina(F, points) == tau


# -- line restrictions -------------------------------------------------------------


def test_line_restriction_examples():
    gens = [P("x^3"), P("y^3")]
    assert line_restriction_length(gens, 1) == 3
    assert line_restriction_length([P("y"), P("x^5")], VERTICAL) == 1
    assert line_restriction_length([P("y"), P("x^5")], 0) == 5


def test_line_restriction_infinite_when_all_vanish():
    assert line_restriction_length([P("y")], 0) is INFINITE
    assert line_restriction_length([P("x")], VERTICAL) is INFINITE


def test_line_restriction_rejects_float_slopes():
    with pytest.raises(TypeError):
        line_restriction_length([P("x")], 0.5)
