import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from tjurina import (
    AMBIENTS,
    DEGREVLEX,
    GRLEX,
    LEX,
    ExprSyntaxError,
    Polynomial,
    parse_poly,
    render_poly,
)
from tjurina import exprio


def test_parse_direct_literal():
    f = parse_poly("x^9+y^9+x^7*y^3")
    assert len(f) == 3
    assert f.coefficient((7, 3)) == 1


def test_parse_expands_products():
    f = parse_poly("x*y*(x-y)*(x+y)^2+x^6+y^6")
    assert f.homogeneous_component(5) == parse_poly("x^4*y+x^3*y^2-x^2*y^3-x*y^4")


def test_parse_rationals_and_unary_minus():
    assert parse_poly("-x^2+3/4") == Polynomial(2, {(2, 0): -1, (0, 0): Fraction(3, 4)})
    assert parse_poly("-(x-y)") == parse_poly("y-x")
    assert parse_poly("3/4*x") == Polynomial(2, {(1, 0): Fraction(3, 4)})


def test_parse_projective_ambient():
    f = parse_poly("x0*x2-x1^2", "projective3")
    assert f.nvars == 3
    assert f.coefficient((1, 0, 1)) == 1


def test_negative_exponent_rejected_at_minus_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_poly("x^-2")
    assert exc.value.offset == 2


def test_unknown_variable_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_poly("x+z")
    with pytest.raises(ExprSyntaxError):
        parse_poly("x0+x1", "affine2")
    with pytest.raises(ExprSyntaxError):
        parse_poly("x+y", "projective3")


def test_zero_denominator_rejected():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_poly("1/0+x")
    assert exc.value.offset == 2


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_poly("2x")
    with pytest.raises(ExprSyntaxError):
        parse_poly("x y")


def test_unbalanced_parentheses():
    with pytest.raises(ExprSyntaxError):
        parse_poly("(x+y")
    with pytest.raises(ExprSyntaxError):
        parse_poly("x+y)")


def test_nonliteral_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_poly("x^(2)")
    with pytest.raises(ExprSyntaxError):
        parse_poly("x^y")


def test_offsets_stay_in_range():
    for bad in ["", "x+", "1/", "x*", "(", "x^"]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse_poly(bad)
        assert 0 <= exc.value.offset <= len(bad)


def test_render_examples():
    assert render_poly(Polynomial.zero(2)) == "0"
    assert render_poly(parse_poly("y^2-x^3")) == "-x^3+y^2"
    assert render_poly(parse_poly("x-1")) == "x-1"
    assert render_poly(parse_poly("-3/4*x*y^2+2")) == "-3/4*x*y^2+2"
    # past the 4,300 digits str(int) allows; such a literal does not parse back
    big = 10 ** 5000
    f = Polynomial(2, {(1, 0): Fraction(-big, 3), (0, 1): Fraction(7, big + 1), (0, 0): big})
    ones = "1" + "0" * 4999
    assert render_poly(f) == f"-{ones}0/3*x+7/{ones}1*y+{ones}0"
    with pytest.raises(ExprSyntaxError):
        parse_poly(render_poly(f))


def test_render_strictly_decreasing_under_any_order():
    f = parse_poly("x^2*y+x*y^2+x^3+y^3+x+1")
    for order in (GRLEX, LEX, DEGREVLEX):
        rendered = render_poly(f, order)
        assert parse_poly(rendered) == f


def _random_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = tuple(rng.randint(0, 4) for _ in range(nvars))
        num = rng.randint(-30, 30)
        den = rng.randint(1, 9)
        terms[mono] = terms.get(mono, 0) + Fraction(num, den)
    return Polynomial(nvars, terms)


def _canonical_tokens(f, order):
    """The tokens of render_poly(f, order): a sign between terms (and before
    a negative first one), and each nonconstant term as one monomial token."""
    tokens = []
    for m in sorted(f.terms_dict(), key=order.key, reverse=True):
        c = f.coefficient(m)
        if c < 0 or tokens:
            tokens.append("-" if c < 0 else "+")
        body = render_poly(Polynomial.monomial(f.nvars, m, abs(c)))
        tokens += [body] if any(m) else exprio._FINE.findall(body)
    return tokens


def test_round_trip_on_200_random_polynomials():
    # rational coefficients in both ambients: every canonical text is read a
    # monomial token per term, and _parse gives the least common denominator
    rng = random.Random(31415)
    for i in range(200):
        nvars, ambient = ((2, "affine2"), (3, "projective3"))[i % 2]
        f = _random_poly(rng, nvars)
        for order in (GRLEX, LEX, DEGREVLEX):
            text = render_poly(f, order)
            assert parse_poly(text, ambient) == f
            if not f.is_zero():
                assert exprio._tokens(ambient).findall(text) == _canonical_tokens(f, order), text
            table, den = exprio._parse(text, ambient)
            assert den == lcm(*(Fraction(c).denominator for _, c in f.terms()))
            assert table == {m: c * den for m, c in f.terms()}


@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=255), max_size=30))
def test_parser_is_total(text):
    try:
        parse_poly(text)
    except ExprSyntaxError as e:
        assert 0 <= e.offset <= len(text)


def test_deep_nesting_errors_instead_of_crashing():
    deep = "(" * 5000 + "x" + ")" * 5000
    with pytest.raises(ExprSyntaxError):
        parse_poly(deep)
    nested_ok = "(" * 50 + "x" + ")" * 50
    assert parse_poly(nested_ok) == parse_poly("x")


def test_fuzz_ten_thousand_byte_strings():
    rng = random.Random(2718281828)
    pool = "xy012 3456789+-*^/()#\t\\.,;abz\x00\xff²é"
    for _ in range(10_000):
        s = "".join(rng.choice(pool) for _ in range(rng.randint(0, 24)))
        try:
            parse_poly(s)
        except ExprSyntaxError as e:
            assert 0 <= e.offset <= len(s)


def _random_expression(rng, names, depth):
    """(text, value): a random expression over ``names`` and the Polynomial it
    denotes, built with the Polynomial operators.  Covers parentheses, ``^`` on
    sums and on literals, unary minus, ``p/q`` literals, canonical monomials
    with rational coefficients and spacing."""
    nvars = len(names)
    sp = lambda: rng.choice(("", "", " ", "\t"))  # noqa: E731
    kind = rng.choice(("int", "frac", "var", "var", "monomial")) if depth == 0 else rng.choice(
        ("var", "sum", "sum", "product", "product", "power", "neg"))
    if kind == "int":
        n = rng.choice((0, 1, 2, 3, 7, 12, 10**20))
        return str(n), Polynomial.constant(nvars, n)
    if kind == "frac":
        p, q = rng.randint(0, 30), rng.randint(1, 9)
        if rng.random() < 0.3:
            e = rng.randint(0, 3)
            return f"{p}/{q}^{e}", Polynomial.constant(nvars, Fraction(p, q) ** e)
        return f"{p}/{q}", Polynomial.constant(nvars, Fraction(p, q))
    if kind == "monomial":  # as render_poly prints one: a monomial token
        expo = [rng.choice((0, 0, 1, 2, 5)) for _ in names]
        expo[rng.randrange(nvars)] += 1
        value = Polynomial.monomial(nvars, expo, Fraction(rng.randint(1, 30), rng.choice((1, 2, 9))))
        return render_poly(value), value
    if kind == "var":
        i = rng.randrange(nvars)
        v = Polynomial.variable(nvars, i)
        if rng.random() < 0.4:
            e = rng.randint(0, 5)
            return f"{names[i]}{sp()}^{sp()}{e}", v ** e
        return names[i], v
    if kind == "neg":
        text, value = _random_expression(rng, names, depth - 1)
        return f"(-{sp()}({text}))", -value
    if kind == "power":
        text, value = _random_expression(rng, names, depth - 1)
        e = rng.choice((0, 1, 2, 2, 3))
        return f"({text})^{e}", value ** e
    parts = [_random_expression(rng, names, depth - 1) for _ in range(rng.randint(2, 4))]
    if kind == "product":
        value = Polynomial.constant(nvars, 1)
        for _, v in parts:
            value = value * v
        return f"{sp()}*{sp()}".join(f"({t})" for t, _ in parts), value
    signs = [rng.choice("+-") for _ in parts]
    text = "-" if signs[0] == "-" else rng.choice(("", "+"))
    value = Polynomial.zero(nvars)
    for n, ((t, v), s) in enumerate(zip(parts, signs)):
        if n:
            text += f"{sp()}{s}{sp()}"
        text += f"({t})"
        value = value + v if s == "+" else value - v
    return text, value


def test_parse_matches_polynomial_arithmetic_on_random_trees():
    rng = random.Random(1618)
    for i in range(400):
        ambient = ("affine2", "projective3")[i % 2]
        text, value = _random_expression(rng, AMBIENTS[ambient], rng.randint(0, 4))
        parsed = parse_poly(text, ambient)
        assert parsed == value, text
        # integral rationals are stored as int, as the validating constructor does
        assert all(type(c) is int or c.denominator != 1 for _, c in parsed.terms()), text
        # _parse's denominator is the least common one, also after unreduced
        # p/q literals, products and sums whose terms merge or cancel
        table, den = exprio._parse(text, ambient)
        assert den == lcm(*(Fraction(c).denominator for _, c in value.terms())), text
        assert table == {m: c * den for m, c in value.terms()}, text


# Every ``ExprSyntaxError`` the parser raises, keyed by its raise site; each
# (offset, message, expected) triple is part of the CLI's error contract.
_NEST = "(" * 201 + "x" + ")" * 201
_LONG = "7" * 5000  # past int()'s default limit of 4,300 digits
ERROR_TABLE = [
    ("illegal character", "x+y#2", "affine2", (3, "unexpected character '#'", "digit, variable or operator")),
    ("illegal character", "y²", "affine2", (1, "unexpected character '²'", "digit, variable or operator")),
    ("illegal character", "x\x0b+y", "affine2", (1, "unexpected character '\\x0b'", "digit, variable or operator")),
    ("illegal character", "_x", "affine2", (0, "unexpected character '_'", "digit, variable or operator")),
    ("illegal character", "x^2_", "affine2", (3, "unexpected character '_'", "digit, variable or operator")),
    ("illegal character", "x^-2#", "affine2", (4, "unexpected character '#'", "digit, variable or operator")),
    ("exponent", "x^", "affine2", (2, "exponent must be a non-negative integer literal", "non-negative integer")),
    ("exponent", "x^-2", "affine2", (2, "exponent must be a non-negative integer literal", "non-negative integer")),
    ("exponent", "(x+y)^y", "affine2", (6, "exponent must be a non-negative integer literal", "non-negative integer")),
    ("denominator", "3/x", "affine2", (2, "fraction denominator must be an integer literal", "positive integer")),
    ("denominator", "1/ -2", "affine2", (3, "fraction denominator must be an integer literal", "positive integer")),
    ("zero denominator", "1/0+x", "affine2", (2, "fraction has zero denominator", "nonzero integer")),
    ("unknown variable", "x+z", "affine2", (2, "unknown variable 'z'", "x, y")),
    ("unknown variable", "x0+x", "projective3", (3, "unknown variable 'x'", "x0, x1, x2")),
    ("unknown variable", "x_1*y", "affine2", (0, "unknown variable 'x_1'", "x, y")),
    ("missing )", "(x+y", "affine2", (4, "expected ')'", ")")),
    ("missing )", "(x*(y-1)", "affine2", (8, "expected ')'", ")")),
    ("nesting", _NEST, "affine2", (200, "parentheses nested deeper than 200", "flatter expression")),
    ("trailing input", "x y", "affine2", (2, "unexpected 'y' after expression", "end of input or operator")),
    ("trailing input", "2x", "affine2", (1, "unexpected 'x' after expression", "end of input or operator")),
    ("trailing input", "x^2^3", "affine2", (3, "unexpected '^' after expression", "end of input or operator")),
    ("trailing input", "1/2/3", "affine2", (3, "unexpected '/' after expression", "end of input or operator")),
    ("no operand", "", "affine2", (0, "unexpected end of input", "number, variable or '('")),
    ("no operand", "  \t", "affine2", (3, "unexpected end of input", "number, variable or '('")),
    ("no operand", "x+  ", "affine2", (4, "unexpected end of input", "number, variable or '('")),
    ("no operand", "x+*y", "affine2", (2, "unexpected '*'", "number, variable or '('")),
    ("no operand", ")", "affine2", (0, "unexpected ')'", "number, variable or '('")),
    ("long literal", "x^2-y^3+" + _LONG + "*x^4", "affine2",
     (8, "integer literal of 5000 digits is too long", "fewer digits")),
    ("long literal", "x^2-y^3+x^" + _LONG, "affine2",
     (10, "integer literal of 5000 digits is too long", "fewer digits")),
    ("long literal", "x0*1/" + _LONG, "projective3",
     (5, "integer literal of 5000 digits is too long", "fewer digits")),
]


@pytest.mark.parametrize("site, text, ambient, triple", ERROR_TABLE,
                         ids=[f"{row[0]}:{row[1][:12]!r}" for row in ERROR_TABLE])
def test_syntax_error_contract(site, text, ambient, triple):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_poly(text, ambient)
    assert (exc.value.offset, exc.value.message, exc.value.expected) == triple


def test_error_table_has_a_row_for_every_raise_site():
    import inspect
    import re

    from tjurina import exprio

    sites = re.findall(r"raise (?:self\.error|ExprSyntaxError)\(", inspect.getsource(exprio))
    assert len(sites) == len({row[0] for row in ERROR_TABLE}) == 10


def test_monomial_terms_are_folded_without_table_products(monkeypatch):
    from tjurina import exprio, translate_to_origin

    calls = []
    for name in ("_product_table", "_power_table"):
        real = getattr(exprio, name)
        monkeypatch.setattr(exprio, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    f = parse_poly("y^2-x^61")
    text = render_poly(translate_to_origin(f, (Fraction(-3, 2), Fraction(1, 2))))
    assert "(" not in text and len(text) > 1000
    shifted = parse_poly(text)
    assert translate_to_origin(shifted, (Fraction(3, 2), Fraction(-1, 2))) == f
    assert parse_poly("-3/4*x^2*2*y*x^0*5/3^2") == Polynomial(2, {(2, 1): Fraction(-25, 6)})
    assert calls == []
    # the counter does see the products of parenthesised factors
    assert parse_poly("2*(x+1)^2*y*(y-1)") == parse_poly("2*x^2*y^2+4*x*y^2+2*y^2-2*x^2*y-4*x*y-2*y")
    assert calls == ["_power_table", "_product_table"]


@pytest.mark.parametrize("text, table, den", [
    ("1/2*x+1/3*y", {(1, 0): 3, (0, 1): 2}, 6),
    ("6/4*x", {(1, 0): 3}, 2),                        # a p/q literal not in lowest terms
    ("1/6*x+1/3*x", {(1, 0): 1}, 2),                  # two terms merge into x/2
    ("1/2*x-1/2*x+y", {(0, 1): 1}, 1),                # two terms cancel
    ("(1/2*x+1/2)*2", {(1, 0): 1, (0, 0): 1}, 1),     # a product
])
def test_parse_gives_the_least_common_denominator(text, table, den):
    assert exprio._parse(text, "affine2") == (table, den)


@pytest.mark.parametrize("text, terms", [
    ("y*x", {(1, 1): 1}),                    # out of ambient order
    ("x*x^2", {(3, 0): 1}),                  # a variable twice
    ("x*3/4", {(1, 0): Fraction(3, 4)}),     # the coefficient last
    ("3 * x ^ 2", {(2, 0): 3}),              # spaced
    ("2/3^2*x", {(1, 0): Fraction(4, 9)}),   # (2/3)^2*x: ^ binds the literal p/q
    ("3^2*y", {(0, 1): 9}),                  # a power of the coefficient
])
def test_other_spellings_of_a_monomial_take_the_fine_tokens(text, terms):
    tokens = exprio._tokens("affine2").findall(text)
    assert text.replace(" ", "") not in tokens and len(tokens) > 1
    assert parse_poly(text) == Polynomial(2, terms)


# Errors at or inside what would be one monomial token keep the fine tokens'
# message and offset: (text, ambient, whether the error lies inside a
# monomial token, the last one, or else only fine tokens are read).
_LONG_4301 = "7" * 4301  # one digit past int()'s default limit
MONOMIAL_ERRORS = [
    ("2x", "affine2", False, (1, "unexpected 'x' after expression", "end of input or operator")),
    ("x^2^3", "affine2", False, (3, "unexpected '^' after expression", "end of input or operator")),
    ("x0", "affine2", False, (0, "unknown variable 'x0'", "x, y")),
    ("2/0*x", "affine2", True, (2, "fraction has zero denominator", "nonzero integer")),
    ("1/0*x^" + _LONG_4301, "affine2", True, (2, "fraction has zero denominator", "nonzero integer")),
    ("x^2+" + _LONG_4301 + "*x*y", "affine2", True,
     (4, "integer literal of 4301 digits is too long", "fewer digits")),
    ("x^2-1/" + _LONG_4301 + "*x*y", "affine2", True,
     (6, "integer literal of 4301 digits is too long", "fewer digits")),
    ("x^2+3*x*y^" + _LONG_4301, "affine2", True,
     (10, "integer literal of 4301 digits is too long", "fewer digits")),
    ("3/4*x0*x2^" + _LONG_4301, "projective3", True,
     (10, "integer literal of 4301 digits is too long", "fewer digits")),
]


@pytest.mark.parametrize("text, ambient, inside, triple", MONOMIAL_ERRORS,
                         ids=[row[0][:12] for row in MONOMIAL_ERRORS])
def test_errors_in_a_monomial_keep_the_fine_tokens_message_and_offset(text, ambient, inside,
                                                                       triple):
    tokens = exprio._tokens(ambient).findall(text)
    assert (tokens != exprio._FINE.findall(text)) == inside
    assert not inside or exprio._FINE.fullmatch(tokens[-1]) is None
    with pytest.raises(ExprSyntaxError) as exc:
        parse_poly(text, ambient)
    assert (exc.value.offset, exc.value.message, exc.value.expected) == triple
