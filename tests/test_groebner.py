import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tjurina import (
    DEGREVLEX,
    GRLEX,
    LEX,
    MonomialIdeal,
    MonomialOrder,
    Polynomial,
    buchberger,
    is_zero_dimensional,
    leading_term_ideal,
    parse_poly,
)
from tjurina.groebner import _integer_reducer, _normal_form, _s_pair, _words
from tjurina.poly import monomial_divides, monomial_mul

import reference
from reference import checked_buchberger, checked_continuation, continued_length, divide, \
    lcm_word, local_basis, local_length_oracle, monomials_of_degree, s_polynomial

P = parse_poly


class _Precedence:
    """An order passed in from outside the package: ``order`` read on the
    variables listed in ``prec``, most significant first.  The package's
    own orders keep the natural variable order, but ``_Words`` packs any
    order whose key is linear, reading its weight rows off ``key``."""

    def __init__(self, order, prec):
        self.order, self.prec = order, prec

    def key(self, m):
        return self.order.key(tuple(m[i] for i in self.prec))


# -- division -----------------------------------------------------------------
#
# ``divide`` is the plain rational division of tests/reference.py; the core's
# division is ``_normal_form`` on reducers packed by ``_integer_reducer``.


def _core_remainder(f, basis, order=GRLEX):
    """The core's remainder of f by ``basis``: both packed through the gate,
    reduced by ``_normal_form``, unpacked (primitive, integral)."""
    words = _words(order, f.nvars)
    leads = [_integer_reducer(b, words) for b in basis]
    table = {}
    if not f.is_zero():
        lm, lc, tail = _integer_reducer(f, words)
        table = dict(((lm, lc), *tail))
    rem = _normal_form(table, leads, words)
    return Polynomial(f.nvars, {words.exponents(m): c for m, c in rem.items()})


def _proportional(p, q, order=GRLEX):
    """p is a nonzero rational multiple of q (both zero counts)."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return p == q.scale(Fraction(p.leading_coefficient(order)) / q.leading_coefficient(order))


def test_divide_monomial_cases():
    q, r = divide(P("x^7"), [P("x^6")])
    assert r.is_zero() and q[0] == P("x")
    q, r = divide(P("y"), [P("x")])
    assert r == P("y") and q[0].is_zero()
    q, r = divide(P("0"), [P("x"), P("y^2-x")])
    assert r.is_zero() and len(q) == 2 and all(p.is_zero() for p in q)
    assert _core_remainder(P("x^7"), [P("x^6")]).is_zero()
    assert _core_remainder(P("3/2*y"), [P("x")]) == P("y")
    assert _core_remainder(P("0"), [P("x"), P("y^2-x")]).is_zero()


def test_divide_reconstructs_input():
    f = P("x^3*y^2-x*y+7")
    basis = [P("x*y-1"), P("y^2-x")]
    quots, rem = divide(f, basis)
    total = rem
    for q, b in zip(quots, basis):
        total = total + q * b
    assert total == f
    lt = [b.leading_monomial(GRLEX) for b in basis]
    for m, _ in rem.terms():
        assert not any(monomial_divides(l, m) for l in lt)
    assert _proportional(_core_remainder(f, basis), rem)


def test_divide_table_identity_for_b1():
    # f = (x/b) f1 + (1 - a/b) f3 + f4 with remainder zero, at (a,b,c)=(9,7,3)
    f = P("x^9+y^9+x^7*y^3")
    basis = [P("7*x^6*y^3+9*x^8"), P("3*x^7*y^2+9*y^8"), P("x^9"), P("y^9"), P("x^2*y^8")]
    _, rem = divide(f, basis)
    assert rem.is_zero()
    assert _core_remainder(f, basis).is_zero()


def test_divide_requires_sane_basis():
    for f in (P("x"), P("0")):
        with pytest.raises(ValueError, match="^division basis must be nonempty"):
            divide(f, [])
    with pytest.raises(ValueError):
        divide(P("x"), [P("0")])


# -- the one gate into the integer core ---------------------------------------

X02 = parse_poly("x0*x2", "projective3")
LOCAL = MonomialOrder("local")
GATE = "^expected a nonzero polynomial in {} variables$"


# divide-*: the divisors and the dividend of a core division (``_normal_form``)
# enter through ``_integer_reducer``; s-*: the partners of an S-pair enter
# through ``buchberger``, which drops zero generators, or through the gate
@pytest.mark.parametrize("call, nvars", [
    # x0*x2 packed with 2-variable words would read as x
    (lambda: _integer_reducer(X02, _words(GRLEX, 2)), 2),
    (lambda: _integer_reducer(P("0"), _words(GRLEX, 2)), 2),
    (lambda: _integer_reducer(P("x"), _words(GRLEX, 3)), 3),
    (lambda: buchberger([P("x^2*y"), X02]), 2),
    (lambda: local_basis([X02, P("x")], 4), 3),
    (lambda: _integer_reducer(P("0"), _words(LOCAL, 2)), 2),
    (lambda: _integer_reducer(Polynomial.zero(3), _words(DEGREVLEX, 3)), 3),
    (lambda: buchberger([X02, P("x^2-y")]), 3),
    (lambda: buchberger([P("x"), parse_poly("x0", "projective3")]), 2),
], ids=["divide-basis-ring", "divide-basis-zero", "divide-dividend-ring",
        "s-second-ring", "s-first-ring", "s-first-zero", "s-second-zero",
        "buchberger-first-ring", "buchberger-x-x0"])
def test_gate_refuses_zero_and_other_rings(call, nvars):
    # one message for a zero polynomial and for one from another ring
    with pytest.raises(ValueError, match=GATE.format(nvars)):
        call()


def test_divide_is_deterministic_in_basis_order():
    f = P("x^2*y")
    q1, r1 = divide(f, [P("x"), P("y")])
    assert q1[0] == P("x*y") and q1[1].is_zero() and r1.is_zero()
    q2, r2 = divide(f, [P("y"), P("x")])
    assert q2[0] == P("x^2") and q2[1].is_zero() and r2.is_zero()


def _random_poly(rng, nvars, max_deg, n_terms):
    monos = [m for d in range(max_deg + 1) for m in monomials_of_degree(nvars, d)]
    return Polynomial(nvars, {m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
                              for m in rng.sample(monos, n_terms)})


@pytest.mark.parametrize("order", [GRLEX, LEX, DEGREVLEX], ids=["grlex", "lex", "degrevlex"])
def test_divide_random_rational_bases(order):
    rng = random.Random(20230214)
    for _ in range(40):
        nvars = rng.choice((2, 3))
        basis = [_random_poly(rng, nvars, rng.randint(1, 3), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
        f = _random_poly(rng, nvars, 5, rng.randint(1, 8))
        quots, rem = divide(f, basis, order)
        total = rem
        for q, b in zip(quots, basis):
            total = total + q * b
        assert total == f
        lms = [b.leading_monomial(order) for b in basis]
        for m, _ in rem.terms():
            assert not any(monomial_divides(lm, m) for lm in lms)
        # no quotient term produces a monomial above LM(f)
        top = order.key(f.leading_monomial(order))
        for q, lm in zip(quots, lms):
            for m, _ in q.terms():
                assert order.key(monomial_mul(m, lm)) <= top
        # the core takes the same first divisors, so its remainder is the
        # reference one up to a nonzero rational factor
        assert _proportional(_core_remainder(f, basis, order), rem, order)


# -- S-polynomials ---------------------------------------------------------------
#
# ``s_polynomial`` is the rational one of tests/reference.py; the core's is
# ``_s_pair`` on packed reducers, an integer multiple of it.


def _core_s_pair(g, h, order=GRLEX):
    words = _words(order, g.nvars)
    a, b = _integer_reducer(g, words), _integer_reducer(h, words)
    s = _s_pair(a, b, lcm_word(words, a[0], b[0]), words)
    return Polynomial(g.nvars, {words.exponents(m): c for m, c in s.items()})


def test_s_polynomial_scaled_identity():
    # bc * S(f_x, f_y) = ac x^a - ab y^a for the family member (9, 7, 3)
    f1 = P("7*x^6*y^3+9*x^8")
    f2 = P("3*x^7*y^2+9*y^8")
    s = s_polynomial(f1, f2)
    assert s.scale(7 * 3) == P("27*x^9-63*y^9")
    # the reducers are 7x^6y^3+9x^8 and x^7y^2+3y^8: lcm(7, 1) = 7 times S
    assert _core_s_pair(f1, f2) == s.scale(7)


def test_s_polynomial_of_monomials_vanishes():
    assert s_polynomial(P("x^9"), P("y^9")).is_zero()
    f = P("x^2*y-x")
    assert s_polynomial(f, f).is_zero()
    assert _core_s_pair(P("x^9"), P("y^9")).is_zero()
    assert _core_s_pair(f, f.scale(Fraction(-3, 2))).is_zero()


def test_s_polynomial_rejects_zero():
    # an S-pair's partners are packed reducers, and the gate refuses zero
    with pytest.raises(ValueError):
        _integer_reducer(P("0"), _words(GRLEX, 2))


# -- Buchberger -------------------------------------------------------------------


def test_cuspidal_family_basis():
    n = 5
    f = P(f"y^2-x^{n + 1}")
    gb = checked_buchberger([f, f.partial_derivative(0), f.partial_derivative(1)])
    assert set(gb.generators) == {P("y"), P(f"x^{n}")}


def test_b1_family_basis_matches_table():
    f = P("x^9+y^9+x^7*y^3")
    gb = checked_buchberger([f, f.partial_derivative(0), f.partial_derivative(1)])
    expected = {
        P("x^6*y^3+9/7*x^8"),   # f_x made monic
        P("x^7*y^2+3*y^8"),     # f_y made monic
        P("x^9"),
        P("y^9"),
        P("x^2*y^8"),
    }
    assert set(gb.generators) == expected


def test_already_reduced_singleton():
    gb = checked_buchberger([P("x^2")])
    assert gb.generators == (P("x^2"),)
    assert gb.reduced


def test_buchberger_rejects_all_zero():
    with pytest.raises(ValueError):
        checked_buchberger([P("0"), P("0")])


@pytest.mark.parametrize("order, cut, gens, lms", [
    # lex: y^3 sorts before x*y although it has the higher degree
    ("lex", None, ["x*y^2+y^4", "y^3", "x*y"], {(1, 1), (0, 3)}),
    # local degree order in Q[x,y]/m^6: x^2 sorts before its divisor x
    ("local", 6, ["x^2+y^3", "x"], {(1, 0), (0, 3)}),
])
def test_minimal_leading_monomials_form_an_antichain(order, cut, gens, lms):
    from tjurina.lengths import _LOCAL
    mono_order = LEX if order == "lex" else _LOCAL
    gb = checked_buchberger([P(g) for g in gens], mono_order, cut=cut)
    found = gb.leading_monomials()
    assert gb.reduced is (cut is None)
    assert set(found) == lms and len(found) == len(lms)
    assert not any(a != b and monomial_divides(a, b) for a in found for b in found)


def _scaled_generator_sets(rng, arities, count):
    """Seeded rational generator sets with negative, non-monic and
    large-denominator coefficients, each paired with a copy in which every
    generator is scaled by a random nonzero rational."""
    coeffs = [-7, -1, 2, 5, Fraction(-3, 4), Fraction(1, 3 ** 40), Fraction(-2 ** 50, 7)]
    for _ in range(count):
        nvars = rng.choice(arities)
        monos = [m for d in range(1, 4) for m in monomials_of_degree(nvars, d)]
        gens = [Polynomial(nvars, {m: rng.choice(coeffs) for m in rng.sample(monos, rng.randint(1, 3))})
                for _ in range(rng.randint(2, 3))]
        scaled = [g.scale(Fraction(rng.choice((-1, 1)) * rng.randint(1, 3 ** 30),
                                   rng.randint(1, 5 ** 20))) for g in gens]
        yield gens, scaled


@pytest.mark.parametrize("order", [GRLEX, LEX, DEGREVLEX], ids=["grlex", "lex", "degrevlex"])
def test_basis_is_invariant_under_scaling_generators(order):
    rng = random.Random(5150)
    for gens, scaled in _scaled_generator_sets(rng, (2, 3), 20):
        gb, other = checked_buchberger(gens, order), checked_buchberger(scaled, order)
        assert (other.order, other.generators, other.reduced) == \
            (gb.order, gb.generators, gb.reduced)
        assert all(g.leading_coefficient(order) == 1 for g in gb.generators)


def test_local_basis_is_invariant_under_scaling_generators():
    from tjurina.lengths import _LOCAL
    rng = random.Random(5151)
    for gens, scaled in _scaled_generator_sets(rng, (2,), 25):
        for cut in (3, 5, 8):
            if all(g.min_degree() >= cut for g in gens):
                continue  # the cut kills every generator
            lms = checked_buchberger(gens, _LOCAL, cut=cut).leading_monomials()
            assert checked_buchberger(scaled, _LOCAL, cut=cut).leading_monomials() == lms


def test_generators_reduce_to_zero_against_basis():
    gens = [P("x^3*y-2*x+1"), P("y^2-x"), P("x^2*y^2-y")]
    gb = checked_buchberger(gens)
    for g in gens:
        _, rem = divide(g, list(gb.generators))
        assert rem.is_zero()


def test_random_ideal_combinations_reduce_to_zero():
    # any polynomial combination of the generators lies in the ideal, so it
    # must reduce to zero against the basis
    rng = random.Random(9001)
    gens = [P("x^2*y-1"), P("x*y^2-x"), P("y^3-x^2")]
    gb = checked_buchberger(gens)
    basis = list(gb.generators)
    for _ in range(25):
        combo = Polynomial.zero(2)
        for g in gens:
            h = Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
            combo = combo + h * g
        _, rem = divide(combo, basis)
        assert rem.is_zero()


def test_reduced_basis_is_unique_under_shuffles():
    rng = random.Random(1234)
    gens = [P("x^2+y"), P("x*y-1"), P("y^3-x*y+2"), P("x^3-y^2")]
    reference = checked_buchberger(gens).generators
    for _ in range(50):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert checked_buchberger(shuffled).generators == reference


def test_basis_sorted_by_decreasing_leading_monomial():
    gb = checked_buchberger([P("y^2-x^6"), P("2*y"), P("6*x^5")])
    keys = [GRLEX.key(g.leading_monomial(GRLEX)) for g in gb.generators]
    assert keys == sorted(keys, reverse=True)


def _random_homogeneous(rng, nvars, degree):
    terms = {}
    for m in monomials_of_degree(nvars, degree):
        if rng.random() < 0.5:
            c = rng.randint(-5, 5)
            if c:
                terms[m] = c
    return Polynomial(nvars, terms)


def test_euler_membership_for_random_homogeneous():
    # f lies in the ideal of its partials (Euler relation), so f reduces to 0
    rng = random.Random(55)
    done = 0
    while done < 20:
        f = _random_homogeneous(rng, 3, rng.randint(1, 5))
        if f.is_zero():
            continue
        parts = [f.partial_derivative(i) for i in range(3)]
        parts = [p for p in parts if not p.is_zero()]
        gb = checked_buchberger(parts)
        _, rem = divide(f, list(gb.generators))
        assert rem.is_zero()
        done += 1


# -- leading term ideals -----------------------------------------------------------


def test_leading_term_ideal_examples():
    f = P("x^9+y^9+x^7*y^3")
    gb = checked_buchberger([f, f.partial_derivative(0), f.partial_derivative(1)])
    assert leading_term_ideal(gb) == MonomialIdeal(2, [(6, 3), (7, 2), (9, 0), (0, 9), (2, 8)])

    gb = checked_buchberger([P("y"), P("x^4")])
    assert leading_term_ideal(gb) == MonomialIdeal(2, [(0, 1), (4, 0)])


def test_leading_term_ideal_refuses_a_basis_under_a_cut():
    from tjurina.lengths import local_length_at_origin
    _, trace = local_length_at_origin([P("x^2"), P("y^3")])
    with pytest.raises(ValueError) as info:
        leading_term_ideal(trace.basis)
    assert str(info.value) == "leading term ideal requires a reduced basis"


def test_reprs_write_every_coefficient():
    assert repr(MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])) == "MonomialIdeal(y^3, x^2, x*y)"
    assert repr(MonomialIdeal(3, [(1, 0, 2), (0, 0, 0)])) == "MonomialIdeal(1)"
    # past the 4,300 digits str(int) allows
    gb = buchberger([Polynomial(2, {(1, 0): 1, (0, 1): 10 ** 5000})])
    assert repr(gb).endswith(f"generators=(Polynomial(x+1{'0' * 5000}*y),), reduced=True)")


def test_monomial_ideal_minimalizes():
    mi = MonomialIdeal(2, [(2, 0), (2, 1), (0, 3), (1, 3)])
    assert mi.gens == frozenset({(2, 0), (0, 3)})
    assert MonomialIdeal(2, []).gens == frozenset()


def test_is_zero_dimensional():
    assert is_zero_dimensional(MonomialIdeal(2, [(6, 3), (7, 2), (9, 0), (0, 9), (2, 8)]))
    assert not is_zero_dimensional(MonomialIdeal(2, [(1, 0)]))
    assert not is_zero_dimensional(MonomialIdeal(2, []))
    assert is_zero_dimensional(MonomialIdeal(2, [(0, 0)]))  # unit ideal


def _plane_ideals(rng, count, factor_through_origin):
    """Seeded plane ideals: pure powers x^p, y^q plus sparse extras, and in
    half of them every generator times a common linear factor, which passes
    through the origin or not as asked."""
    for index in range(count):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        a = rng.randint(-2, 2)
        b = rng.choice([b for b in range(-2, 3) if a * b != 1])  # independent pair
        x_p, y_q = Polynomial.monomial(2, (p, 0)), Polynomial.monomial(2, (0, q))
        gens = [x_p + y_q.scale(a), y_q + x_p.scale(b)]
        for _ in range(rng.randint(0, 2)):
            extra = Polynomial(2, {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-3, 3)
                                   for _ in range(rng.randint(1, 4))})
            if not extra.is_zero() and extra.min_degree() > 0:
                gens.append(extra)
        if index % 2:
            factor = Polynomial(2, {(0, 0): 0 if factor_through_origin else rng.choice((-1, 1, 2)),
                                    (1, 0): rng.randint(-2, 2), (0, 1): rng.randint(1, 2)})
            gens = [g * factor for g in gens]
        yield gens


def test_local_leading_monomials_do_not_depend_on_the_cut():
    # above the stable degree the cut changes nothing: lowering it where the
    # staircase closes, and reducing only leading terms, give one answer
    from tjurina.lengths import _LOCAL, local_length_at_origin
    rng = random.Random(7007)
    for gens in _plane_ideals(rng, 30, factor_through_origin=False):
        _, trace = local_length_at_origin(gens)
        d = max(g.degree() for g in gens)
        lms = checked_buchberger(gens, _LOCAL, cut=d * d + 1).leading_monomials()
        for R in range(trace.stabilized_at + 1, d * d + 1):
            assert checked_buchberger(gens, _LOCAL, cut=R).leading_monomials() == lms, (gens, R)


@pytest.mark.parametrize("through_origin", [True, False])
def test_local_counts_under_a_cut_match_the_oracle(through_origin):
    # every count below the cut is the oracle's, also where a factor through
    # the origin makes the ideal not zero-dimensional there, so that the
    # staircase never closes
    from tjurina.lengths import _LOCAL, _standard_counts
    rng = random.Random(7008)
    for gens in _plane_ideals(rng, 30, factor_through_origin=through_origin):
        for R in range(1, 9):
            if all(g.min_degree() >= R for g in gens):
                continue  # the cut kills every generator
            lms = checked_buchberger(gens, _LOCAL, cut=R).leading_monomials()
            assert sum(_standard_counts(lms, R)) == local_length_oracle(gens, R), (gens, R)


def test_a_local_order_needs_a_cut():
    # below no cut the local order is no well-order: x - x^2 reduces x^2 to
    # x^3, x^4, ... without end, so buchberger refuses both calls at once and
    # points to the local lengths, whose run truncates under a cut
    from tjurina.lengths import _LOCAL
    for order in (_LOCAL, _Precedence(_LOCAL, (1, 0))):
        with pytest.raises(ValueError, match="^buchberger runs under global orders only; "
                                             ".*local_length_at_origin"):
            buchberger([P("x-x^2"), P("x*y+y^3")], order)
    assert checked_buchberger([P("x-x^2"), P("x*y+y^3")], _LOCAL, cut=6).leading_monomials() \
        == ((1, 0), (0, 3))


def test_the_local_order_pickles_to_the_same_words():
    import pickle

    from tjurina.groebner import _words
    from tjurina.lengths import _LOCAL
    copy = pickle.loads(pickle.dumps(_LOCAL))
    assert copy == _LOCAL == MonomialOrder("local") and hash(copy) == hash(_LOCAL)
    assert _words(copy, 2) is _words(_LOCAL, 2) and _words(copy, 2).local


def test_buchberger_has_no_verify_switch():
    import inspect

    from tjurina import groebner

    assert list(inspect.signature(buchberger).parameters) == ["gens", "order"]
    assert not hasattr(groebner, "VERIFY_BASES")
    with pytest.raises(TypeError):
        buchberger([P("x")], GRLEX, verify=True)
    # only the local lengths run under a cut or continue a basis (``_buchberger``)
    with pytest.raises(TypeError):
        buchberger([P("x")], GRLEX, cut=4)
    base = local_basis([P("x^2"), P("y^3")], 8)
    with pytest.raises(TypeError):
        buchberger([P("x*y")], GRLEX, base=base)


@pytest.mark.parametrize("continued, cut, start", [(False, 10, 10), (True, None, 10),
                                                    (True, 12, 10), (True, 7, 7)],
                         ids=["no-base", "base-cut-none", "base-cut-larger", "base-cut-smaller"])
def test_checked_buchberger_checks_under_the_cut_the_run_started_with(monkeypatch, continued,
                                                                     cut, start):
    # x^2*y leads alone, so the base keeps its cut 10; x^3 and y^4 then
    # close the staircase in degree 5, below every starting cut
    from tjurina.lengths import _LOCAL
    first, seen = [P("x^2*y+y^5")], []
    monkeypatch.setattr(reference, "verify_reduced_basis", lambda gb, cut=None: seen.append(cut))
    gens = [P("x^3"), P("y^4")]
    if continued:
        base = local_basis(first, 10)
        gb = checked_continuation(gens, base, cut)
    else:
        base, gb = None, checked_buchberger(gens + first, _LOCAL, cut)
    assert seen == [start] and gb.cut == 5 and (base is None or base.cut == 10)


def test_a_continued_run_pairs_only_the_new_elements(monkeypatch):
    # the base's own pairs were treated by the run that built it
    from tjurina import groebner
    from tjurina.lengths import _LOCAL
    gens = [P("x^3+x*y^3"), P("x^2*y+y^5")]
    base = checked_buchberger(gens, _LOCAL, cut=30)
    pairs = []
    s_pair = groebner._s_pair

    def counted(a, b, top, words):
        pairs.append((a, b))
        return s_pair(a, b, top, words)

    monkeypatch.setattr(groebner, "_s_pair", counted)
    gb = checked_continuation([P("x^2+y^3")], base)
    old = set(base._leads)
    assert pairs and all(a not in old or b not in old for a, b in pairs)
    fresh = checked_buchberger(gens + [P("x^2+y^3")], _LOCAL, cut=30)
    assert gb.leading_monomials() == fresh.leading_monomials() == ((2, 0), (0, 4))


def test_the_staircase_is_read_only_once_both_axes_hold_a_leading_monomial(monkeypatch):
    from tjurina import groebner
    calls = []
    closing_degree = groebner._closing_degree

    def counted(corners):
        calls.append(tuple(c[:2] for c in corners))
        return closing_degree(corners)

    monkeypatch.setattr(groebner, "_closing_degree", counted)
    # (x*y + y^4, y^3): no pure power of x ever leads, so the staircase never closes
    local_basis([P("x*y+y^4"), P("y^3")], 10)
    assert calls == []
    assert local_basis([P("x^2"), P("y^3")], 10).cut == 4
    assert calls == [((0, 3), (2, 0))]


@pytest.mark.parametrize("case", sorted(reference.PLANE_RULE_CASES))
def test_the_plane_rule_cases_match_the_oracle(case):
    # each case of the plane pair rule, as its inputs enter: the counts of
    # the leading monomials below the final cut are the oracle's, and the
    # final cut is the first degree the oracle's alphas repeat at
    from itertools import accumulate

    from tjurina.lengths import _LOCAL, _standard_counts
    rng, cut = random.Random(f"plane-rule:{case}"), 9
    for _ in range(6):
        gens = reference.plane_rule_ideal(rng, case, _LOCAL)
        gb = checked_buchberger(gens, _LOCAL, cut=cut)
        alphas = [0] + [local_length_oracle(gens, r) for r in range(1, min(gb.cut + 1, cut) + 1)]
        counts = accumulate(_standard_counts(gb.leading_monomials(), len(alphas) - 1))
        assert alphas == [0, *counts], gens
        repeat = next((r for r in range(len(alphas) - 1) if alphas[r + 1] == alphas[r]), cut)
        assert gb.cut == repeat, gens


def test_an_euler_remainder_on_the_mu_staircase_matches_the_oracle():
    # tau continues mu's basis with f's Euler remainder, here -x^3*y^2 plus
    # terms of degree 6 and 7, whose leading monomial the base corner x^3
    # divides: the input keeps one pair to it and forms no other
    from itertools import accumulate

    from tjurina.lengths import _LOCAL, _standard_counts, local_length_at_origin
    x, y = P("x"), P("y")
    rng = random.Random(3907)
    for _ in range(6):
        f = P("x^4+y^5+x^3*y^2")
        for _ in range(3):
            d = rng.randint(6, 7)
            i = rng.randint(0, d)
            f += Polynomial(2, {(i, d - i): rng.choice((1, -1, 2))})
        fx, fy = f.partial_derivative(0), f.partial_derivative(1)
        _, trace = local_length_at_origin([fx, fy])
        euler = 4 * f - x * fx - y * fy
        lm = euler.leading_monomial(_LOCAL)
        assert lm == (3, 2) and any(monomial_divides(c, lm)
                                    for c in trace.basis.leading_monomials())
        gb = checked_continuation([euler], trace.basis)
        alphas = [0] + [local_length_oracle([f, fx, fy], r) for r in range(1, gb.cut + 2)]
        counts = accumulate(_standard_counts(gb.leading_monomials(), gb.cut + 1))
        assert alphas == [0, *counts] and alphas[-1] == alphas[-2], f
        assert all(a < b for a, b in zip(alphas[:-2], alphas[1:-1])), f


def _packing_orders():
    from tjurina.lengths import _LOCAL
    for nvars in (2, 3):
        for kind in ("grlex", "lex", "degrevlex"):
            yield pytest.param(MonomialOrder(kind), nvars, id=f"{kind}-{nvars}")
            prec = (1, 0) if nvars == 2 else (2, 0, 1)
            yield pytest.param(_Precedence(MonomialOrder(kind), prec), nvars,
                               id=f"{kind}-precedence-{''.join(map(str, prec))}")
        yield pytest.param(_LOCAL, nvars, id=f"local-{nvars}")


@pytest.mark.parametrize("order, nvars", _packing_orders())
def test_packed_words_agree_with_exponent_tuples(order, nvars, request):
    from tjurina.groebner import _words
    words = _words(order, nvars)
    rng = random.Random(request.node.callspec.id)
    half = 1 << words.bits - 1  # a product of two exponents below half stays in range
    monos = [tuple(rng.randint(0, 6) for _ in range(nvars)) for _ in range(150)]
    monos += [tuple(rng.choice((0, 1, half - 1, rng.randrange(half))) for _ in range(nvars))
              for _ in range(50)]
    for m in monos:
        assert words.exponents(words.pack(m)) == m
    for m, n in zip(monos, monos[1:] + monos[:1]):
        w, v = words.pack(m), words.pack(n)
        assert w + v == words.pack(monomial_mul(m, n))
        assert (w < v) == (order.key(m) < order.key(n)) and (w == v) == (m == n)
        assert (not (v - w) & words.over) == monomial_divides(m, n)


def test_packing_rejects_an_order_key_that_is_not_linear():
    class MaxFirst:  # a monomial order, but max(m) is not linear in m
        @staticmethod
        def key(m):
            return (max(m), *m)

    with pytest.raises(ValueError, match="not linear"):
        checked_buchberger([P("x^2+y"), P("x*y")], MaxFirst())


def test_packed_words_reject_exponents_outside_the_fields():
    from tjurina.groebner import MonomialRangeError, _words
    from tjurina.lengths import _LOCAL
    words = _words(LEX, 2)
    top = (1 << words.bits) - 1
    assert words.exponents(words.pack((top, 0))) == (top, 0)
    with pytest.raises(MonomialRangeError):
        words.pack((top + 1, 0))
    with pytest.raises(MonomialRangeError):
        checked_buchberger([Polynomial(2, {(0, top + 1): 1, (1, 0): 1})], GRLEX)
    # a product made during the reduction leaves the field range
    with pytest.raises(MonomialRangeError):
        _normal_form({words.pack((1, top // 2 + 1)): 1},
                     [_integer_reducer(Polynomial(2, {(1, 0): 1, (0, top // 2 + 1): -1}), words)],
                     words)
    with pytest.raises(MonomialRangeError):
        checked_buchberger([Polynomial(2, {(1, 0): 1, (0, top // 2 + 1): -1}),
                            Polynomial(2, {(2, 1): 1})], LEX)
    with pytest.raises(MonomialRangeError):
        _words(_LOCAL, 2).floor(1 << 40)


def test_an_s_polynomial_outside_the_fields_raises_in_the_s_pair():
    # the tail x^536870921 of the second generator times the cofactor
    # x^536870922 has the exponent 2^30 + 19, past the grlex fields
    from tjurina.groebner import MonomialRangeError
    with pytest.raises(MonomialRangeError) as info:
        buchberger([P("x^536870922*y"), P("y^536870922+x^536870921")])
    assert str(info.value) == ("a product has an exponent outside the packed field range "
                               "0..1073741823")
    assert info.traceback[-1].name == "_s_pair"


def test_first_divisor_memo_rescans_appended_reducers():
    # a word none of the first n reducers divides is looked up again in the
    # reducers appended after them; a hit is kept
    from tjurina.groebner import _integer_reducer, _normal_form, _words
    words = _words(GRLEX, 2)

    def reducer(text):
        return _integer_reducer(P(text), words)

    x2y = words.pack((2, 1))
    leads, memo = [reducer("y^2-x")], {}
    assert _normal_form({x2y: 3}, leads, words, memo=memo) == {x2y: 1}
    assert memo[x2y] == ~1
    leads.append(reducer("x*y-1"))
    assert _normal_form({x2y: 3}, leads, words, memo=memo) == {words.pack((1, 0)): 1}
    assert memo[x2y] == 1 and memo[words.pack((1, 0))] == ~2


@pytest.mark.parametrize("order, nvars", _packing_orders())
def test_leading_monomials_are_read_before_the_generators_are_built(order, nvars, request):
    # the stored leading monomials are those of the generators built later,
    # in the same order, and building them changes no length
    from tjurina.lengths import _LOCAL
    rng = random.Random(request.node.callspec.id)
    for gens, _ in _scaled_generator_sets(rng, (nvars,), 12):
        for cut in ((3, 5, 8) if order is _LOCAL else (None,)):
            if cut is not None and all(g.min_degree() >= cut for g in gens):
                continue  # the cut kills every generator
            gb = buchberger(gens, order) if cut is None else local_basis(gens, cut, order)
            lms, size = gb.leading_monomials(), len(gb)
            assert "generators" not in vars(gb)
            assert lms == tuple(g.leading_monomial(order) for g in gb.generators)
            assert len(gb) == size == len(gb.generators)


def _count_calls(monkeypatch):
    """Wrap ``_monic``, ``_normal_form`` and ``GroebnerBasis.generators`` in
    groebner with counters.  A ``_normal_form`` call with a ``head`` is an
    inter-reduction while the generators are being built, and a refresh of
    a stale tail inside ``buchberger`` otherwise."""
    from functools import cached_property
    from tjurina import groebner
    counts = {"monic": 0, "interreduce": 0, "refresh": 0}
    building = []
    monic, normal_form = groebner._monic, groebner._normal_form
    generators = groebner.GroebnerBasis.__dict__["generators"].func

    def counted_monic(*args, **kwargs):
        counts["monic"] += 1
        return monic(*args, **kwargs)

    def counted_normal_form(*args, **kwargs):
        if kwargs.get("head") is not None:
            counts["interreduce" if building else "refresh"] += 1
        return normal_form(*args, **kwargs)

    def counted_generators(self):
        building.append(self)
        try:
            return generators(self)
        finally:
            building.pop()

    prop = cached_property(counted_generators)
    prop.__set_name__(groebner.GroebnerBasis, "generators")
    monkeypatch.setattr(groebner, "_monic", counted_monic)
    monkeypatch.setattr(groebner, "_normal_form", counted_normal_form)
    monkeypatch.setattr(groebner.GroebnerBasis, "generators", prop)
    return counts


def test_leading_monomial_readers_build_no_generators(monkeypatch):
    # the lengths and the Hilbert read-out need only leading monomials
    from tjurina import global_tjurina, hilbert_function, local_length_at_origin
    from tjurina.analyzer import embedding_dimension
    from tjurina.family import FamilyParams, verify_params
    counts = _count_calls(monkeypatch)
    F = parse_poly("x0*x1*x2*(x0-x1)*(x0-x2)*(x1-x2)", "projective3")
    parts = [F.partial_derivative(v) for v in range(3)]
    f = P("x^5+y^5+x^3*y^3")
    gens = [f, f.partial_derivative(0), f.partial_derivative(1)]
    assert global_tjurina(F) == 19
    assert hilbert_function(parts, 6) == 19
    assert local_length_at_origin(gens)[0] == 15  # tjurina_formula of (5, 3, 3)
    assert embedding_dimension(gens) == 2
    assert verify_params(FamilyParams(4, 5, 1), check_gb=True).lt_match
    assert counts["monic"] == counts["interreduce"] == 0


@pytest.mark.parametrize("cut", [None, 6])
def test_generators_are_built_once(monkeypatch, cut):
    counts = _count_calls(monkeypatch)
    f = P("x^5+y^5+x^3*y^3")
    gens = [f, f.partial_derivative(0), f.partial_derivative(1)]
    gb = buchberger(gens) if cut is None else local_basis(gens, cut)
    assert counts["monic"] == 0
    assert gb.generators is gb.generators
    assert counts["monic"] == len(gb) > 1
    # a monomial element has no tail to inter-reduce
    tails = sum(1 for _, _, tail in gb._leads if tail)
    assert counts["interreduce"] == (tails if cut is None else 0) and tails > 0


# -- stale tails refreshed during global runs ----------------------------------

# Reduced global bases of seeded ideals under grlex, lex and degrevlex, in 2
# and 3 variables, homogeneous and not, and of the Jacobian ideals of two line
# arrangements.  Recorded once from the engine before it refreshed stale tails
# during a run: the reduced basis is unique, so the refresh must reproduce it
# term for term.  A case whose id says "precedence" was recorded under an order
# that read the variables in another precedence (p0, p1, ...); it is stated in
# the natural order on renamed variables, each exponent vector m written as
# (m[p0], m[p1], ...) in its generators, basis and leading monomials.
GLOBAL_BASES = json.loads((Path(__file__).parent / "global_bases.json").read_text(encoding="utf-8"))


def _fixture_order(case):
    return MonomialOrder(case["order"])


def _fixture_polys(case, key):
    return [Polynomial(case["nvars"], {tuple(m): Fraction(c) for m, c in terms})
            for terms in case[key]]


@pytest.mark.parametrize("case", GLOBAL_BASES, ids=[case["id"] for case in GLOBAL_BASES])
def test_global_bases_match_recorded_fixtures(case):
    # checked_buchberger also checks that each basis passes Buchberger's criterion
    gb = checked_buchberger(_fixture_polys(case, "gens"), _fixture_order(case))
    assert [list(m) for m in gb.leading_monomials()] == case["leading"]
    assert list(gb.generators) == _fixture_polys(case, "basis")


def test_global_runs_refresh_stale_tails_and_runs_under_a_cut_do_not(monkeypatch):
    from tjurina import local_length_at_origin
    counts = _count_calls(monkeypatch)
    for case in GLOBAL_BASES:
        buchberger(_fixture_polys(case, "gens"), _fixture_order(case))
    assert counts["refresh"] > len(GLOBAL_BASES) // 2 and counts["interreduce"] == 0
    counts["refresh"] = 0
    for case in GLOBAL_BASES:
        gens = _fixture_polys(case, "gens")
        for cut in (5, 9) if case["nvars"] == 2 else ():
            if any(g.min_degree() < cut for g in gens):
                gb = local_basis(gens, cut)
                assert gb.generators and not gb.reduced
    f = P("x^5+y^5+x^3*y^3")
    assert local_length_at_origin([f, f.partial_derivative(0), f.partial_derivative(1)])[0] == 15
    assert counts["refresh"] == counts["interreduce"] == 0


def test_reduce_tail_returns_a_monomial_element_as_it_is(monkeypatch):
    from tjurina import groebner
    calls = []
    monkeypatch.setattr(groebner, "_normal_form", lambda *args, **kwargs: calls.append(args))
    words = groebner._words(GRLEX, 2)
    monomial = groebner._integer_reducer(P("3*x^2*y"), words)
    leads = [groebner._integer_reducer(P("x*y-1"), words), monomial]
    assert groebner._reduce_tail(monomial, leads, words, {}) is monomial and calls == []


def test_refresh_keeps_a_tail_nothing_divides_and_reduces_one_a_later_element_divides():
    from tjurina import groebner
    words = groebner._words(GRLEX, 2)
    # y^2 divides no term of x^2 + y: the refreshed reducer is an equal one
    leads = [groebner._integer_reducer(p, words) for p in (P("2*x^2+3*y"), P("y^2+x"))]
    before, stale = list(leads), {0}
    groebner._refresh(0, leads, words, {}, stale)
    assert leads == before and stale == set()
    # y^2 + x, a later element, divides the tail of x^3 + 2*y^2: x^3 - 2*x
    leads = [groebner._integer_reducer(p, words) for p in (P("x^3+2*y^2"), P("y^2+x"))]
    groebner._refresh(0, leads, words, {}, {0})
    assert leads[0] == groebner._integer_reducer(P("x^3-2*x"), words)


def test_bases_compare_by_identity():
    from tjurina import GroebnerBasis
    assert "__eq__" not in vars(GroebnerBasis) and "__hash__" not in vars(GroebnerBasis)
    f = P("x^5+y^5+x^3*y^3")
    gens = [f, f.partial_derivative(0), f.partial_derivative(1)]
    first, second = buchberger(gens), buchberger(gens)
    assert first is not second and first != second and len({first, second}) == 2
    assert first.generators == second.generators and first == first


# -- local bases under a cut, pinned before the pair update changed -------------

# Seeded plane ideals under the local degree order with a cut, both fresh and
# continued from a base (``_buchberger``'s ``base``, through
# ``checked_continuation``), and the mu and tau traces of seeded curves (tau
# continuing mu's basis through ``_local_length``), recorded once from the
# engine whose pair update scanned for the chain criterion at every pop.  Only
# leading monomials, the final cut and the traces are read under a cut, so
# those are pinned.
LOCAL_BASES = json.loads((Path(__file__).parent / "local_bases.json").read_text(encoding="utf-8"))


def _plane_polys(tables):
    return [Polynomial(2, {tuple(m): Fraction(c) for m, c in terms}) for terms in tables]


def _local_run(gens, cut, base=None):
    from tjurina.lengths import _LOCAL
    gens = _plane_polys(gens)
    gb = checked_buchberger(gens, _LOCAL, cut) if base is None else \
        checked_continuation(gens, base, cut)
    return gb, ([list(m) for m in gb.leading_monomials()], gb.cut)


def _local_trace(gens, base=None):
    """The trace of the length of ``gens`` (continuing ``base``), or None
    when the length fails."""
    from tjurina.lengths import StabilizationError, local_length_at_origin
    try:
        _, trace = local_length_at_origin(gens) if base is None else \
            continued_length(gens, base)
    except StabilizationError:
        return None
    return trace


def _recorded_trace(gens, base=None):
    trace = _local_trace(gens, base)
    if trace is None:
        return "StabilizationError", None
    return [list(p) for p in trace.pairs], trace.basis


@pytest.mark.parametrize("case", LOCAL_BASES, ids=[case["id"] for case in LOCAL_BASES])
def test_local_bases_match_recorded_fixtures(case):
    # checked_buchberger also checks that each basis passes Buchberger's criterion
    if case["kind"] == "fresh":
        _, out = _local_run(case["gens"], case["cut"])
        assert out == (case["leading"], case["final_cut"])
    elif case["kind"] == "continued":
        base, out = _local_run(case["base_gens"], case["base_cut"])
        assert out == (case["base_leading"], case["base_final_cut"])
        gb, out = _local_run(case["gens"], case["cut"], base=base)
        assert out == (case["leading"], case["final_cut"])
        assert (gb is base) == case["returned_base"]
    else:
        (f,) = _plane_polys([case["curve"]])
        parts = [g for g in (f.partial_derivative(0), f.partial_derivative(1)) if not g.is_zero()]
        mu, basis = _recorded_trace(parts)
        assert mu == case["mu_trace"]
        tau, _ = _recorded_trace([f], base=basis) if basis is not None else \
            _recorded_trace([f] + parts)
        assert tau == case["tau_trace"]


def _bench_pool_reports(monkeypatch):
    """``analyze`` on every request of the benchmark's ordinary_batch and
    an_ladder pools (``bench/workloads.py``), at its point."""
    import importlib.util
    import sys
    from tjurina import analyze
    path = Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks it up
    spec.loader.exec_module(workloads)
    for request in workloads.ordinary_pool() + workloads.ladder_pool():
        options = dict(arg[2:].split("=", 1) for arg in request.argv if "=" in arg)
        yield analyze(P(options["curve"]), tuple(map(Fraction, options["point"].split(","))))


def test_every_trace_stabilizes_at_its_runs_final_cut(monkeypatch):
    # the run lowers its cut to the degree where the staircase closes, the
    # first degree with no standard monomial; the unit ideal's closes at 0
    traces = []
    for case in LOCAL_BASES:
        if case["kind"] == "trace":
            (f,) = _plane_polys([case["curve"]])
            parts = [g for g in (f.partial_derivative(0), f.partial_derivative(1))
                     if not g.is_zero()]
            mu = _local_trace(parts)
            tau = _local_trace([f], base=mu.basis) if mu else _local_trace([f] + parts)
            traces += [t for t in (mu, tau) if t is not None]
    for report in _bench_pool_reports(monkeypatch):
        traces += [report.milnor_trace, report.tjurina_trace]
    assert len(traces) > 400
    for trace in traces:
        assert trace.stabilized_at == max(trace.basis.cut, 1), trace


# -- the Gebauer-Moeller pair update --------------------------------------------


def _record_entries_and_pairs(monkeypatch):
    """Wrap ``_integer_reducer``, ``_normal_form`` and ``_s_pair`` in groebner:
    the leading words of the elements in the order they enter a run (input
    generators, then nonzero remainders), and the leading-word pairs of
    every S-polynomial formed."""
    from tjurina import groebner
    entries, pairs = [], []
    integer_reducer, normal_form, s_pair = \
        groebner._integer_reducer, groebner._normal_form, groebner._s_pair

    def counted_integer_reducer(p, words):
        reducer = integer_reducer(p, words)
        entries.append(reducer[0])
        return reducer

    def counted_normal_form(*args, **kwargs):
        rem = normal_form(*args, **kwargs)
        if rem and kwargs.get("head") is None:
            entries.append(next(iter(rem)))
        return rem

    def counted_s_pair(a, b, top, words):
        pairs.append((a[0], b[0]))
        return s_pair(a, b, top, words)

    monkeypatch.setattr(groebner, "_integer_reducer", counted_integer_reducer)
    monkeypatch.setattr(groebner, "_normal_form", counted_normal_form)
    monkeypatch.setattr(groebner, "_s_pair", counted_s_pair)
    return entries, pairs


def test_retired_elements_form_no_new_pairs(monkeypatch):
    # family (2, 2, 1) under grlex: f_x's leading word x*y divides f's x^2*y,
    # and the remainder x divides x*y, so neither f nor f_x pairs with a later
    # element; the chain-criterion engine formed 6 S-pairs here
    from tjurina.groebner import _words
    entries, pairs = _record_entries_and_pairs(monkeypatch)
    f = P("x^2+y^2+x^2*y")
    gb = buchberger([f, f.partial_derivative(0), f.partial_derivative(1)], GRLEX)
    assert gb.leading_monomials() == ((1, 0), (0, 1))
    assert 0 < len(pairs) < 6
    over = _words(GRLEX, 2).over
    for a, b in pairs:
        g, h = sorted((entries.index(a), entries.index(b)))
        # no element that entered between g and h divides g's leading word
        assert all((entries[g] - w) & over for w in entries[g + 1:h]), (g, h)


def test_a_queued_pair_made_redundant_by_a_new_leading_word_is_never_reduced(monkeypatch):
    # the pair (x^3*y, x*y^3) is queued when the second generator enters; the
    # third one's leading word x^2*y^2 divides its lcm x^3*y^3, and the lcms
    # with either side, x^3*y^2 and x^2*y^3, are proper divisors of it
    from tjurina.groebner import _words
    entries, pairs = _record_entries_and_pairs(monkeypatch)
    gb = checked_buchberger([P("x^3*y+y^3"), P("x*y^3+x^3"), P("x^2*y^2+x^2+y^2")], GRLEX)
    assert gb.leading_monomials() == ((1, 2), (0, 3), (2, 0))
    words = _words(GRLEX, 2)
    first, second = words.pack((3, 1)), words.pack((1, 3))
    assert entries[:3] == [first, second, words.pack((2, 2))]
    assert pairs and {first, second} not in [set(p) for p in pairs]


def test_leading_term_ideal_adopts_the_minimal_leading_monomials():
    # the trusted constructor gives the ideal the public one builds
    for case in GLOBAL_BASES:
        gb = buchberger(_fixture_polys(case, "gens"), _fixture_order(case))
        lt = leading_term_ideal(gb)
        public = MonomialIdeal(gb.nvars, gb.leading_monomials())
        assert lt == public and hash(lt) == hash(public) and lt.nvars == public.nvars
        assert lt.gens == frozenset(gb.leading_monomials())


def test_an_input_that_repeats_a_leading_word_changes_no_leading_monomial_or_length():
    # x + y^3 and x + y^4 repeat the leading word of x + y^2 under the local
    # order: the generic update pairs each with the element it retires, and
    # the chain criterion drops its other pairs, so only tails can differ
    gb = local_basis([P("x+y^2"), P("y^5+x*y"), P("x+y^3"), P("x+y^4")], 8)
    assert gb.leading_monomials() == ((1, 0), (0, 2))
    # an input given twice is the same case: its S-pair with the copy
    # cancels, and neither basis nor length changes
    from tjurina.lengths import local_length_at_origin
    g, h = P("x^2+y^3"), P("x*y+y^4")
    assert buchberger([g, g, h]).generators == buchberger([g, h]).generators
    twice, trace_twice = local_length_at_origin([g, g, h])
    once, trace_once = local_length_at_origin([g, h])
    assert twice == once
    assert trace_twice.basis.leading_monomials() == trace_once.basis.leading_monomials()


# -- packing a polynomial into an integer reducer ---------------------------------


def _reducer_by_the_formula(p, words):
    """The primitive integer reducer by the plain formula: clear the common
    denominator of all coefficients, divide out their gcd, make the leading
    coefficient positive."""
    from math import gcd, lcm
    ms, cs = zip(*p.terms())
    den = lcm(*(Fraction(c).denominator for c in cs))
    cs = [int(c * den) for c in cs]
    g = gcd(*cs)
    terms = sorted(zip(map(words.pack, ms), cs), reverse=True)
    if terms[0][1] < 0:
        g = -g
    terms = [(m, c // g) for m, c in terms]
    return terms[0][0], terms[0][1], tuple(terms[1:])


@pytest.mark.parametrize("fractions", [False, True], ids=["int-only", "fractions"])
def test_integer_reducer_matches_the_formula(fractions):
    from tjurina.groebner import _integer_reducer, _words
    from tjurina.lengths import _LOCAL
    rng = random.Random(4242 + fractions)
    for _ in range(400):
        nvars = rng.choice((2, 3))
        order = rng.choice((GRLEX, LEX, DEGREVLEX, _LOCAL) if nvars == 2 else (GRLEX, LEX, DEGREVLEX))
        words = _words(order, nvars)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            c = rng.choice((-12, -6, -3, -1, 1, 2, 4, 9, 30))
            if fractions and rng.random() < 0.5:
                c = Fraction(c, rng.choice((2, 3, 4, 9)))
            terms[tuple(rng.randint(0, 5) for _ in range(nvars))] = c
        p = Polynomial(nvars, terms)
        if p.is_zero():
            continue
        assert _integer_reducer(p, words) == _reducer_by_the_formula(p, words), (p, order)
    if fractions:
        # _norm_coeff keeps a Fraction subclass as it is (the constructor's
        # sums would give plain Fractions)
        class Ratio(Fraction):
            pass

        words = _words(GRLEX, 2)
        p = Polynomial._from_valid(2, {(2, 0): Ratio(3, 4), (0, 1): Ratio(-5, 6), (0, 0): 2})
        assert _integer_reducer(p, words) == _reducer_by_the_formula(p, words)



# -- packing the gradient of a polynomial -------------------------------------------


def _gradient_by_the_partials(f, words):
    from tjurina.groebner import _integer_reducer
    parts = (f.partial_derivative(v) for v in range(f.nvars))
    return [_integer_reducer(p, words) for p in parts if not p.is_zero()]


@pytest.mark.parametrize("fractions", [False, True], ids=["int-only", "fractions"])
def test_packed_gradient_matches_the_reducers_of_the_partials(fractions):
    from tjurina.groebner import _packed_gradient, _words
    rng = random.Random(f"gradient:{fractions}")
    for _ in range(200):
        order = rng.choice((GRLEX, LEX, DEGREVLEX))
        words = _words(order, 3)
        f = _random_homogeneous(rng, 3, rng.randint(1, 7))
        if fractions:
            f = Polynomial(3, {m: Fraction(c, rng.choice((1, 2, 3, 4, 9)))
                               for m, c in f.terms()})
        assert _packed_gradient(f, words) == _gradient_by_the_partials(f, words), (f, order)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_packed_gradient_of_a_cone_drops_its_two_zero_partials(d):
    from tjurina.groebner import _packed_gradient, _words
    words = _words(DEGREVLEX, 3)
    f = Polynomial(3, {(d, 0, 0): Fraction(-3, 4)})
    gradient = _packed_gradient(f, words)
    assert gradient == _gradient_by_the_partials(f, words)
    assert gradient == [(words.pack((d - 1, 0, 0)), 1, ())]


def test_packed_gradient_of_a_constant_or_zero_is_empty():
    from tjurina.groebner import _packed_gradient, _words
    words = _words(DEGREVLEX, 3)
    assert _packed_gradient(Polynomial(3, {(0, 0, 0): 5}), words) == []
    assert _packed_gradient(Polynomial.zero(3), words) == []


def test_packed_gradient_refuses_another_ring():
    from tjurina.groebner import _packed_gradient, _words
    with pytest.raises(ValueError, match="expected a nonzero polynomial in 3 variables"):
        _packed_gradient(P("x^2*y"), _words(DEGREVLEX, 3))


def test_packed_gradient_range_errors_are_those_of_the_partials():
    from tjurina.groebner import MonomialRangeError, _packed_gradient, _words
    words = _words(DEGREVLEX, 3)
    top = (1 << words.bits) - 1
    # x0^(top+1): f leaves the fields, but its one partial does not
    f = Polynomial(3, {(top + 1, 0, 0): 2, (0, top, 0): 1})
    assert _packed_gradient(f, words) == _gradient_by_the_partials(f, words)
    assert _packed_gradient(f, words)[0][0] == words.pack((top, 0, 0))
    # an exponent outside the fields in some partial: the first bad term of
    # the first partial that has one names the error
    for table in ({(0, top + 2, 1): 1, (1, 0, 0): 1},     # the partial in x0 is in range
                  {(top + 1, 1, 0): 1, (1, 1, 1): 1},     # x0^(top+1) in the partial in x1
                  {(2, 0, 0): 1, (top + 5, 0, top + 3): -1}):
        f = Polynomial(3, table)
        with pytest.raises(MonomialRangeError) as expected:
            _gradient_by_the_partials(f, words)
        with pytest.raises(MonomialRangeError) as packed:
            _packed_gradient(f, words)
        assert str(packed.value) == str(expected.value), table
