import random
from fractions import Fraction

import pytest

from tjurina import parse_poly, squarefree_binary_form
from tjurina.binforms import (
    _dehomogenize, _integer_gcd, _primitive, common_factor_degree, upoly_derivative,
)
from tjurina.poly import Polynomial

from reference import (
    binary_form_resultant, discriminant, fraction_euclid_gcd, monomials_of_degree,
    sylvester_resultant,
)

P = parse_poly


def test_resultant_of_distinct_lines_is_nonzero():
    assert binary_form_resultant(P("x"), P("y")) != 0
    assert binary_form_resultant(P("x^4"), P("y^4")) != 0


def test_resultant_zero_on_shared_factor():
    assert binary_form_resultant(P("x+y"), P("x+y")) == 0
    assert binary_form_resultant(P("x*(x-y)"), P("y*(x-y)")) == 0
    # the shared factor may be x itself (both dehomogenizations drop degree)
    assert binary_form_resultant(P("x*y"), P("x*(x+y)")) == 0


def test_resultant_rejects_bad_input():
    with pytest.raises(ValueError):
        binary_form_resultant(P("0"), P("x"))
    with pytest.raises(ValueError):
        binary_form_resultant(P("x+y^2"), P("x"))


def test_squarefree_examples():
    assert squarefree_binary_form(P("x^5-y^5"))
    assert not squarefree_binary_form(P("x*y*(x-y)*(x+y)^2"))
    assert not squarefree_binary_form(P("y^4"))
    assert not squarefree_binary_form(P("x^2*y"))
    assert not squarefree_binary_form(P("x*y^2"))
    assert squarefree_binary_form(P("x"))
    assert squarefree_binary_form(P("x*y*(x+y)"))


def test_a_square_of_an_axis_is_read_off_the_exponents(monkeypatch):
    # x^2 or y^2 dividing the form decides it before the dense list of its
    # m + 1 coefficients is built, so a huge degree costs nothing; so does a
    # form of two terms that neither divides, x^i*y^j*(a*x^k + b*y^k) with
    # i, j <= 1 and ab != 0, whose k lines are distinct and off both axes:
    # every tangent cone x^a + y^a + x^b*y^c has at O is one
    from tjurina import analyze, binforms, is_ordinary
    read = []
    dehomogenize = binforms._dehomogenize
    monkeypatch.setattr(binforms, "_dehomogenize", lambda g: read.append(g) or dehomogenize(g))
    assert not squarefree_binary_form(P("x^7*y"))
    assert not squarefree_binary_form(P("x*y^9"))
    assert read == []
    assert not is_ordinary(P("x^1073741824"), (0, 0))
    assert squarefree_binary_form(P("x^7-2*x*y^6"))
    assert squarefree_binary_form(P("x*y^5+3*x^6"))
    assert analyze(P("x^100000+y^100000"), (0, 0)).ordinary
    assert read == []
    # the other forms are still read, and a non-form still refused
    assert squarefree_binary_form(P("x*y")) and len(read) == 1
    for bad in (P("x^2+x^3"), P("y^2*(1+x)"), P("0"), P("x0^2*x1", "projective3")):
        with pytest.raises(ValueError):
            squarefree_binary_form(bad)


def test_discriminant_normalization():
    # disc(t^2 + bt + c) = b^2 - 4c
    assert discriminant([Fraction(3), Fraction(2), Fraction(1)]) == -8
    assert discriminant([0, 0, 1]) == 0
    assert discriminant([5, 1]) == 1


def test_sylvester_matches_known_values():
    # res(t^2 - 1, t - 2) = value of t^2 - 1 at 2 (monic divisor)
    assert sylvester_resultant([-1, 0, 1], [-2, 1]) == 3
    assert sylvester_resultant([1], [7, 0, 0, 1]) == 1


def _random_form(rng, degree, max_den=1):
    while True:
        terms = {}
        for (i, j) in monomials_of_degree(2, degree):
            c = rng.randint(-4, 4)
            if max_den > 1:
                c = Fraction(c, rng.randint(1, max_den))
            if c:
                terms[(i, j)] = c
        if terms:
            return Polynomial(2, terms)


def test_resultant_agrees_with_gcd_on_random_forms():
    rng = random.Random(20240917)
    seen = set()
    for i in range(50):
        g = _random_form(rng, rng.randint(1, 6))
        h = _random_form(rng, rng.randint(1, 6))
        if i % 2:  # plant a shared factor: x itself, or a random one
            common = P("x") if i % 4 == 1 else _random_form(rng, rng.randint(1, 2))
            g, h = g * common, h * common
        vanishes = binary_form_resultant(g, h) == 0
        seen.add(vanishes)
        assert vanishes == (common_factor_degree([g, h]) > 0), (g, h)
    assert seen == {True, False}


def test_common_factor_degree_counts_shared_lines():
    assert common_factor_degree([P("x^2*y"), P("x^3*(x+y)")]) == 2
    assert common_factor_degree([P("(x-y)^2*(x+y)"), P("(x-y)*(x+y)^2"), P("x-y")]) == 1
    assert common_factor_degree([P("x*y"), P("y^2-2*x^2")]) == 0
    assert common_factor_degree([P("y^2-2*x^2"), P("(y^2-2*x^2)*x")]) == 2
    assert common_factor_degree([P("x^3-y^3")]) == 3
    with pytest.raises(ValueError):
        common_factor_degree([P("x"), P("0")])
    with pytest.raises(ValueError, match="no binary form"):
        common_factor_degree([])


def test_squarefree_agrees_with_gcd_of_derivative():
    rng = random.Random(987)
    for _ in range(50):
        g = _random_form(rng, rng.randint(1, 6))
        # squarefree iff gcd(g, g_x, g_y) is constant, decided via resultant
        gx, gy = g.partial_derivative(0), g.partial_derivative(1)
        if g.degree() == 1:
            assert squarefree_binary_form(g)
            continue
        expected = binary_form_resultant(gx, gy) != 0 if (not gx.is_zero() and not gy.is_zero()) else False
        assert squarefree_binary_form(g) == expected, g


def _random_factor_form(rng):
    """A product of linear and quadratic factors, with the axis factors x,
    x^2 and y^k and repeated non-axis factors drawn often."""
    factors = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("x", "x2", "yk", "line", "quad"))
        if kind == "x":
            factors.append(P("x"))
        elif kind == "x2":
            factors.append(P("x^2"))
        elif kind == "yk":
            factors.append(P(f"y^{rng.randint(1, 3)}"))
        elif kind == "line":
            a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
            factors.append(Polynomial(2, {(1, 0): a, (0, 1): b}) ** rng.randint(1, 3))
        else:
            c, d = rng.choice((-2, -1, 1, 2)), rng.randint(1, 4)
            quad = Polynomial(2, {(2, 0): 1, (1, 1): c, (0, 2): d})
            factors.append(quad ** rng.randint(1, 2))
    g = factors[0]
    for f in factors[1:]:
        g = g * f
    return g


def _squarefree_by_discriminant(g):
    """The discriminant route: factor out x^e, then disc(g(1, y)) != 0."""
    min_x = min(m[0] for m, _ in g.terms())
    if min_x >= 2:
        return False
    if min_x == 1:
        g = Polynomial(2, {(i - 1, j): c for (i, j), c in g.terms()})
    u = _dehomogenize(g)[1]
    return len(u) - 1 < 1 or discriminant(u) != 0


def test_squarefree_gcd_route_matches_discriminant_route():
    rng = random.Random(60606)
    forms = [_random_factor_form(rng) for _ in range(150)]
    forms += [_random_form(rng, rng.randint(1, 7)) for _ in range(150)]
    # rational coefficients (denominators up to 12), degrees up to 12
    forms += [_random_factor_form(rng).scale(Fraction(rng.randint(1, 9), rng.randint(1, 12)))
              for _ in range(50)]
    forms += [_random_form(rng, rng.randint(1, 12), max_den=12) for _ in range(50)]
    # divisible by x^2 or y^2
    forms += [_random_form(rng, rng.randint(0, 6), max_den=12) * P(rng.choice(("x^2", "y^2")))
              for _ in range(40)]
    # binomials x^i*y^j*(a*x^k + b*y^k), decided by their two terms
    forms += [Polynomial(2, {(i + k, j): Fraction(rng.choice((-5, -2, 1, 7)), rng.randint(1, 12)),
                             (i, j + k): Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 12))})
              for k in range(1, 13) for i in (0, 1) for j in (0, 1)]
    # pure powers c*x^m and c*y^m, whose other partial is zero
    forms += [Polynomial(2, {(m, 0) if axis == "x" else (0, m):
                             Fraction(rng.choice((-5, -1, 1, 3)), rng.randint(1, 12))})
              for axis in "xy" for m in range(1, 13)]
    seen = set()
    for g in forms:
        expected = _squarefree_by_discriminant(g)
        seen.add(expected)
        assert squarefree_binary_form(g) == expected, g
    assert seen == {True, False}


def _random_upoly(rng, degree, rational):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12) if rational else 1)
              for _ in range(degree)]
    return coeffs + [Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.randint(1, 12) if rational else 1)]


def _upoly_mul(u, v):
    w = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            w[i + j] += a * b
    return w


def test_upoly_gcd_matches_fraction_euclid():
    rng = random.Random(41414)
    cases = []
    for _ in range(300):
        rational = rng.random() < 0.5
        common = _random_upoly(rng, rng.randint(0, 3), rational)
        if rng.random() < 0.3:  # a repeated factor
            common = _upoly_mul(common, common)
        u = _upoly_mul(common, _random_upoly(rng, rng.randint(0, 4), rational))
        v = _upoly_mul(common, _random_upoly(rng, rng.randint(0, 4), rational))
        cases.append((u, v))
        # coprime pairs: x - a against x - b; constants against anything
        a, b = rng.sample(range(-6, 7), 2)
        cases.append(([-a, 1], [Fraction(-b, 3), Fraction(1, 3)]))
        cases.append(([Fraction(rng.randint(1, 9), 7)], u))
        cases.append((u, upoly_derivative(u)))
    cases += [([], []), ([], [2, 4]), ([Fraction(1, 2), 0, 3], [])]
    constant = 0
    for u, v in cases:
        expected = fraction_euclid_gcd(u, v) if (u or v) else []
        # the kernel's gcd is primitive and integral, up to a unit: made monic here
        a = _integer_gcd(_primitive(u), _primitive(v))
        got = [Fraction(c, a[-1]) for c in a]
        assert got == expected, (u, v)
        assert all(type(c) is Fraction for c in got)
        constant += len(got) == 1
    assert 0 < constant < len(cases)
