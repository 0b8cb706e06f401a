import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tjurina import (
    DEGREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    parse_poly,
    render_poly,
    translate_to_origin,
)

from reference import evaluate, monomials_of_degree

P = parse_poly


def coeffs():
    return st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    )


def polys(nvars=2, max_deg=4, max_terms=6):
    mono = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return st.lists(st.tuples(mono, coeffs()), max_size=max_terms).map(
        lambda ts: Polynomial(nvars, ts))


def homogeneous_polys(nvars=3, degree=3):
    monos = list(monomials_of_degree(nvars, degree))
    return st.lists(st.sampled_from(monos), min_size=1, max_size=5).flatmap(
        lambda ms: st.tuples(*[coeffs() for _ in ms]).map(
            lambda cs: Polynomial(nvars, list(zip(ms, cs)))))


# -- construction and basic structure ---------------------------------------


def test_zero_polynomial_has_no_degree():
    z = Polynomial.zero(2)
    assert z.is_zero()
    assert z.degree() is None
    assert z.min_degree() is None


def test_coefficients_normalize_to_lowest_terms():
    f = Polynomial(2, {(1, 0): Fraction(4, 2)})
    assert f.coefficient((1, 0)) == 2
    g = Polynomial(2, [((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2))])
    assert g == 1


def test_zero_coefficients_are_dropped():
    f = Polynomial(2, {(1, 1): 1, (2, 0): 0})
    assert len(f) == 1


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})


# -- ring laws ----------------------------------------------------------------


@given(polys(), polys(), polys())
def test_addition_associative(f, g, h):
    assert (f + g) + h == f + (g + h)


@given(polys(), polys(), polys())
def test_multiplication_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(polys(), polys())
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@given(polys())
def test_additive_inverse(f):
    assert f - f == Polynomial.zero(2)


@given(polys(), st.integers(0, 4))
def test_power_matches_repeated_product(f, n):
    expected = Polynomial.constant(2, 1)
    for _ in range(n):
        expected = expected * f
    assert f ** n == expected


# -- derivatives --------------------------------------------------------------


def test_partial_derivative_examples():
    f = P("x^9+y^9+x^7*y^3")
    assert f.partial_derivative(0) == P("9*x^8+7*x^6*y^3")
    assert Polynomial.constant(2, 5).partial_derivative(0).is_zero()
    assert P("y^2-x^6").partial_derivative(1) == P("2*y")


def test_partial_derivative_index_out_of_range():
    with pytest.raises(ValueError):
        P("x").partial_derivative(2)


@given(polys(), polys())
def test_leibniz_rule(f, g):
    for v in (0, 1):
        lhs = (f * g).partial_derivative(v)
        rhs = f * g.partial_derivative(v) + g * f.partial_derivative(v)
        assert lhs == rhs


@given(homogeneous_polys(nvars=3, degree=4))
def test_euler_relation(f):
    # d*f = sum_i x_i * d_i f for homogeneous f of degree d
    d = 4
    total = Polynomial.zero(3)
    for i in range(3):
        total = total + Polynomial.variable(3, i) * f.partial_derivative(i)
    assert total == f.scale(d)


# -- homogeneous components ----------------------------------------------------


def test_homogeneous_component_of_the_quintic_pair():
    f = P("x*y*(x-y)*(x+y)^2+x^6+y^6")
    assert f.homogeneous_component(5) == P("x*y*(x-y)*(x+y)^2")
    assert f.homogeneous_component(4).is_zero()
    assert P("x^2+y^3").homogeneous_component(5).is_zero()


@given(polys())
def test_components_reassemble(f):
    total = Polynomial.zero(2)
    d = f.degree()
    if d is not None:
        for k in range(d + 1):
            total = total + f.homogeneous_component(k)
    assert total == f


# -- translation ---------------------------------------------------------------


def test_translate_examples():
    assert translate_to_origin(P("y^2-(x-1)^3"), (1, 0)) == P("y^2-x^3")
    f = P("x^4*y-3*x+y^2")
    assert translate_to_origin(f, (0, 0)) == f
    assert translate_to_origin(P("x^2+y^2-1"), (1, 0)) == P("x^2+2*x+y^2")


@given(polys(max_deg=3), st.integers(-3, 3), st.integers(-3, 3))
def test_translate_evaluates_correctly(f, p, q):
    g = translate_to_origin(f, (p, q))
    assert g.coefficient((0, 0)) == evaluate(f, (p, q))
    # translating back is the inverse
    assert translate_to_origin(g, (-p, -q)) == f


# -- monomial orders -------------------------------------------------------------


def test_grlex_compares_degree_first():
    assert GRLEX.key((0, 3)) > GRLEX.key((2, 0))
    assert GRLEX.key((2, 1)) > GRLEX.key((1, 2))


def test_lex_ignores_degree():
    assert LEX.key((1, 0)) > LEX.key((0, 9))


def test_degrevlex_vs_grlex_in_three_vars():
    # classical separating example: x z vs y^2 with x > y > z
    a, b = (1, 0, 1), (0, 2, 0)
    assert GRLEX.key(a) > GRLEX.key(b)
    assert DEGREVLEX.key(b) > DEGREVLEX.key(a)


def test_local_order_leads_with_the_lowest_degree():
    local = MonomialOrder("local")
    assert local.key((1, 0)) > local.key((0, 1)) > local.key((2, 0))
    assert local.key((0, 0)) > local.key((1, 0))
    assert P("x-x^2+y^3").leading_monomial(local) == (1, 0)


def test_precedence_permutation():
    # an order takes no variable precedence: a problem in another variable
    # order is stated on renamed variables
    with pytest.raises(TypeError):
        MonomialOrder("grlex", (1, 0))
    with pytest.raises(TypeError):
        MonomialOrder("lex", precedence=(1, 0))
    assert MonomialOrder.__slots__ == ("kind",)


@pytest.mark.parametrize("kind", ["grlex", "lex", "degrevlex"])
@pytest.mark.parametrize("nvars", [2, 3])
def test_natural_precedence_key_matches_identity_precedence(kind, nvars):
    # the keys are those the identity precedence (0, 1, ..., n-1) gave,
    # written out term by term, so the packed words and bases are unchanged
    prec = range(nvars)
    identity = {"lex": lambda m: tuple(m[i] for i in prec),
                "grlex": lambda m: (sum(m),) + tuple(m[i] for i in prec),
                "degrevlex": lambda m: (sum(m),) + tuple(-m[i] for i in reversed(prec))}[kind]
    for d in range(7):
        for m in monomials_of_degree(nvars, d):
            assert MonomialOrder(kind).key(m) == identity(m)
            assert MonomialOrder("local").key(m) == (-d,) + m


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder("degree")
    with pytest.raises(ValueError):
        MonomialOrder("Local")
    assert [MonomialOrder(k).kind for k in ("grlex", "lex", "degrevlex", "local")] \
        == ["grlex", "lex", "degrevlex", "local"]


def test_leading_monomial():
    f = P("y^2-x^3")
    assert f.leading_monomial(GRLEX) == (3, 0)
    assert f.leading_coefficient(GRLEX) == -1
    assert f.monic().leading_coefficient(GRLEX) == 1


@given(st.tuples(st.integers(0, 5), st.integers(0, 5)),
       st.tuples(st.integers(0, 5), st.integers(0, 5)),
       st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_orders_are_multiplicative_total_orders(m, n, t):
    from tjurina.poly import monomial_mul, monomial_divides
    for order in (GRLEX, LEX, DEGREVLEX):
        km, kn = order.key(m), order.key(n)
        # totality with equality only for equal monomials
        assert (km == kn) == (m == n)
        # compatibility with multiplication
        assert (km < kn) == (order.key(monomial_mul(m, t)) < order.key(monomial_mul(n, t)))
        # divisibility implies order (so 1 is the least monomial: well-order)
        if monomial_divides(m, n):
            assert km <= kn


# -- structural equality and hashing ----------------------------------------------


@given(polys())
def test_hash_is_structural(f):
    g = Polynomial(2, dict(f.terms()))
    assert f == g
    assert hash(f) == hash(g)


def test_repr_writes_coefficients_past_the_int_digit_limit():
    # str(int) refuses more than 4,300 digits; the repr writes them in full
    assert repr(Polynomial(2, {(1, 0): 10 ** 5000})) == f"Polynomial(1{'0' * 5000}*x)"
    assert repr(P("-3/4*x*y^2+2-y")) == "Polynomial(-3/4*x*y^2-y+2)"
    assert repr(Polynomial(4, {(1, 0, 0, 2): Fraction(2, 3), (0,) * 4: -1})) \
        == "Polynomial(2/3*x0*x3^2-1)"


def test_evaluate_is_exact():
    # the reference the translation tests compare constant terms with
    f = P("1/3*x^2+y")
    assert evaluate(f, (Fraction(1, 2), Fraction(-1, 12))) == 0
    assert evaluate(f, (Fraction(1, 2), 0)) == Fraction(1, 12)
    assert evaluate(P("x^2*y-3"), (2, 5)) == 17
    with pytest.raises(ValueError):
        evaluate(f, (1, 2, 3))


# -- exact translation and the trusted constructor -------------------------------


def _assert_stored_validly(f):
    """The table is what the validating constructor would store: exponent
    tuples of the right length, nonzero coefficients, integral ones as int."""
    for m, c in f.terms():
        assert type(m) is tuple and len(m) == f.nvars
        assert all(type(e) is int and e >= 0 for e in m)
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    assert f == Polynomial(f.nvars, list(f.terms()))


def _random_rational_poly(rng, max_deg, nterms, nvars=2):
    terms = []
    for _ in range(nterms):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        while sum(mono) > max_deg:
            mono = tuple(e // 2 for e in mono)
        terms.append((mono, Fraction(rng.randint(-40, 40), rng.randint(1, 12))))
    return Polynomial(nvars, terms)


def _naive_translate(f, p, q):
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    total = Polynomial.zero(2)
    for (i, j), c in f.terms():
        total = total + ((x + p) ** i * (y + q) ** j).scale(c)
    return total


def test_translate_matches_naive_expansion_at_large_rational_points():
    rng = random.Random(4242)
    for _ in range(40):
        f = _random_rational_poly(rng, rng.randint(0, 12), rng.randint(0, 9))
        p = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 7))
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 7))
        if rng.random() < 0.2:
            p = 0
        g = translate_to_origin(f, (p, q))
        assert g == _naive_translate(f, p, q)
        assert g.coefficient((0, 0)) == evaluate(f, (p, q))
        assert translate_to_origin(g, (-p, -q)) == f
        _assert_stored_validly(g)


def _dense_rational_poly(rng, degree):
    return Polynomial(2, {(i, d - i): Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                          for d in range(degree + 1) for i in range(d + 1)})


_SHIFT_POINTS = [(0, Fraction(-7, 3)), (Fraction(5, 2), 0), (Fraction(-3, 4), Fraction(2, 5)), (3, -2)]


@pytest.mark.parametrize("point", _SHIFT_POINTS)
def test_translate_matches_naive_expansion_on_degree_60_rows(point):
    rng = random.Random(60)
    x_row = Polynomial(2, {(i, 0): Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(61)})
    y_row = Polynomial(2, {(0, j): rng.randint(-9, 9) for j in range(61)})
    for f in (x_row, y_row, P("y^2-x^61")):
        g = translate_to_origin(f, point)
        assert g == _naive_translate(f, *point)
        assert translate_to_origin(g, (-point[0], -point[1])) == f
        _assert_stored_validly(g)


@pytest.mark.parametrize("point", _SHIFT_POINTS)
def test_translate_matches_naive_expansion_on_dense_degree_10(point):
    rng = random.Random(10)
    for _ in range(3):
        f = _dense_rational_poly(rng, 10)
        assert len(f) > 60
        g = translate_to_origin(f, point)
        assert g == _naive_translate(f, *point)
        _assert_stored_validly(g)


@pytest.mark.parametrize("point", _SHIFT_POINTS)
def test_translate_matches_naive_expansion_on_sparse_high_degree_monomials(point):
    # rows and columns with one nonzero coefficient take the binomial-row
    # path of the Taylor shift; rows with two or more take Horner's rule
    rng = random.Random(61)
    sparse = [Polynomial(2, {(rng.randint(0, 45), rng.randint(0, 45)):
                             Fraction(rng.choice((-7, -2, 1, 3, 11)), rng.randint(1, 5))
                             for _ in range(rng.randint(1, 4))})
              for _ in range(4)]
    for f in (P("x^60*y^60"), P("x^47"), P("-3*y^52"), P("x^37*y^2-5/3*x^3*y^41"),
              P("2*x^40*y^40+x^40*y^3+x^2*y^40"), *sparse):
        g = translate_to_origin(f, point)
        assert g == _naive_translate(f, *point)
        assert translate_to_origin(g, (-point[0], -point[1])) == f
        _assert_stored_validly(g)


def test_translate_zero_polynomial():
    zero = Polynomial.zero(2)
    for point in _SHIFT_POINTS:
        assert translate_to_origin(zero, point).is_zero()


def test_translate_rejects_float_points():
    f = P("y^2-x^3")
    for point in ((0.5, 0), (0, 0.25)):
        with pytest.raises(TypeError):
            translate_to_origin(f, point)


def test_trusted_constructor_sites_store_valid_tables():
    from tjurina.groebner import _integer_reducer, _monic, _words

    rng = random.Random(777)
    for _ in range(60):
        nvars = rng.choice((2, 3))
        f = _random_rational_poly(rng, 8, rng.randint(1, 8), nvars)
        for v in range(nvars):
            d = f.partial_derivative(v)
            _assert_stored_validly(d)
            expected = Polynomial(nvars, [((*m[:v], m[v] - 1, *m[v + 1:]), c * m[v])
                                          for m, c in f.terms() if m[v]])
            assert d == expected
        if nvars == 2:
            _assert_stored_validly(translate_to_origin(
                f, (Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-3, 3))))
        ambient = "affine2" if nvars == 2 else "projective3"
        parsed = parse_poly(render_poly(f), ambient)
        _assert_stored_validly(parsed)
        assert parsed == f
        if not f.is_zero():
            for order in (GRLEX, LEX, DEGREVLEX):
                words = _words(order, nvars)
                reducer = words.unpack_reducer(_integer_reducer(f, words))
                lm, lc, tail = reducer
                g = _monic(nvars, reducer)
                _assert_stored_validly(g)
                assert g == Polynomial(nvars, [(lm, 1), *((m, Fraction(c, lc)) for m, c in tail)])
                assert g == f.monic(order)


# -- the product of two term tables -------------------------------------------------


def _collision_table(rng, nvars, fractions):
    """Up to six terms with exponents 0 and 1 and coefficients of one scale
    times +-1 or 2 (a Fraction scale with ``fractions``), so that the
    products of two such tables collide, and often cancel."""
    scale = Fraction(rng.randint(1, 3), rng.choice((2, 3, 5))) if fractions else 1
    return {tuple(rng.randint(0, 1) for _ in range(nvars)): scale * rng.choice((-1, 1, 2))
            for _ in range(rng.randint(1, 6))}


def _cancelled(f, g, table):
    """The exponents that some pair of terms reaches but the product lacks:
    their sum came back to zero, so the product deleted the entry."""
    sums = {tuple(a + b for a, b in zip(m1, m2)) for m1 in f for m2 in g}
    return sums - set(table)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_product_table_matches_the_reference_product(nvars):
    # 2 and 3 variables add exponents field by field, 1 and 4 take the
    # general path; both argument orders, since the shorter table leads
    from tjurina.poly import _product_table

    from reference import product_table
    rng = random.Random(f"product:{nvars}")
    cancelling = 0
    for _ in range(300):
        f = _collision_table(rng, nvars, fractions=True)
        g = _collision_table(rng, nvars, fractions=rng.random() < 0.5)
        expected = product_table(f, g)
        for table in (_product_table(f, g), _product_table(g, f)):
            assert table == expected, (f, g)
            assert all(type(m) is tuple and len(m) == nvars for m in table)
        cancelling += bool(_cancelled(f, g, expected))
    assert cancelling >= 10  # the deleting branch runs on every path


@pytest.mark.parametrize("f, g, ambient, gone", [
    ("x+y", "x-y", "affine2", (1, 1)),
    ("1/2*x0+1/3*x1", "2/3*x0-4/9*x1", "projective3", (1, 1, 0)),
    ("x0*x2-x1^2", "x0*x2+x1^2", "projective3", (1, 2, 1)),
])
def test_product_table_deletes_a_coefficient_that_cancels(f, g, ambient, gone):
    from tjurina.poly import _product_table

    from reference import product_table
    f, g = P(f, ambient)._terms, P(g, ambient)._terms
    table = _product_table(f, g)
    assert table == product_table(f, g)
    assert _cancelled(f, g, table) == {gone}
