import random
from fractions import Fraction

import pytest

from tjurina import (
    FamilyCase,
    FamilyParams,
    GRLEX,
    MonomialIdeal,
    Polynomial,
    admissible_params,
    buchberger,
    family_case,
    is_ordinary,
    leading_term_ideal,
    local_length_at_origin,
    min_tjurina,
    parse_poly,
    predicted_gb,
    predicted_lt_gens,
    staircase_length,
    tjurina_formula,
    verify_params,
)

from reference import checked_buchberger, divide

P = parse_poly


def test_params_validate_and_normalize():
    p = FamilyParams(9, 3, 7)
    assert (p.b, p.c) == (7, 3)
    with pytest.raises(ValueError):
        FamilyParams(9, 4, 5)  # b + c = a
    with pytest.raises(ValueError):
        FamilyParams(1, 2, 2)
    with pytest.raises(ValueError):
        FamilyParams(5, 3.0, 3)  # curve() builds its table unchecked, so exponents are ints


def test_closed_form_tables_keep_the_from_valid_contract():
    # curve() and predicted_gb() skip the validating constructor; each table
    # must be what Polynomial(...) builds from it: same terms, normalized
    # coefficient types, same hash
    tuples = 0
    for a in range(2, 13):
        for p in admissible_params(a):
            tuples += 1
            basis = predicted_gb(p)
            assert all(g.leading_coefficient() == 1 for g in basis)
            for g in (p.curve(), *basis):
                ref = Polynomial(2, g.terms_dict())
                assert g == ref and hash(g) == hash(ref)
                assert {m: type(c) for m, c in g.terms()} == {m: type(c) for m, c in ref.terms()}
    assert tuples == 411


def test_family_case_examples():
    assert family_case(FamilyParams(9, 7, 3)) is FamilyCase.B1
    assert family_case(FamilyParams(10, 6, 5)) is FamilyCase.B3
    assert family_case(FamilyParams(9, 9, 1)) is FamilyCase.BIG_B
    assert family_case(FamilyParams(9, 8, 8)) is FamilyCase.C6
    assert family_case(FamilyParams(9, 5, 5)) is FamilyCase.A4
    assert family_case(FamilyParams(11, 8, 7)) is FamilyCase.B5
    assert family_case(FamilyParams(9, 8, 4)) is FamilyCase.C2
    assert family_case(FamilyParams(10, 9, 5)) is FamilyCase.C3
    assert family_case(FamilyParams(9, 8, 5)) is FamilyCase.C4
    assert family_case(FamilyParams(11, 10, 8)) is FamilyCase.C5


def test_family_case_boundary_a3_resolves_to_c6():
    assert family_case(FamilyParams(3, 2, 2)) is FamilyCase.C6
    assert predicted_gb(FamilyParams(3, 2, 2)) == (P("x^2"), P("y^2"))


def test_every_admissible_tuple_lands_in_a_valid_cell():
    for a in range(2, 13):
        for p in admissible_params(a):
            case = family_case(p)
            assert isinstance(case, FamilyCase)


def test_predicted_gb_examples():
    gb = predicted_gb(FamilyParams(9, 7, 3))
    assert set(gb) == {
        P("x^6*y^3+9/7*x^8"), P("x^7*y^2+3*y^8"), P("x^9"), P("y^9"), P("x^2*y^8")}
    assert set(predicted_gb(FamilyParams(9, 8, 8))) == {P("y^8"), P("x^8")}
    assert set(predicted_gb(FamilyParams(9, 9, 1))) == {P("x^8"), P("y^8")}


def test_predicted_lt_examples():
    assert predicted_lt_gens(FamilyParams(9, 7, 3)) == MonomialIdeal(
        2, [(6, 3), (7, 2), (9, 0), (0, 9), (2, 8)])
    assert predicted_lt_gens(FamilyParams(10, 6, 5)) == MonomialIdeal(
        2, [(5, 5), (6, 4), (10, 0), (0, 10), (3, 9)])
    assert predicted_lt_gens(FamilyParams(9, 8, 8)) == MonomialIdeal(2, [(0, 8), (8, 0)])


def test_tjurina_formula_examples():
    assert tjurina_formula(FamilyParams(9, 7, 3)) == 57
    assert tjurina_formula(FamilyParams(10, 6, 5)) == 69
    assert tjurina_formula(FamilyParams(9, 9, 1)) == 64
    assert tjurina_formula(FamilyParams(3, 2, 2)) == 4


def test_formula_matches_staircase_of_predicted_lt():
    for a in range(2, 13):
        for p in admissible_params(a):
            if p.b < p.a:
                assert staircase_length(predicted_lt_gens(p)) == tjurina_formula(p), p


def test_min_tjurina_values():
    assert min_tjurina(9) == (55, FamilyParams(9, 5, 5))
    assert min_tjurina(10) == (69, FamilyParams(10, 6, 5))
    assert min_tjurina(2)[0] == 1
    assert min_tjurina(3)[0] == 4
    with pytest.raises(ValueError):
        min_tjurina(1)


def test_min_is_attained_by_the_formula_over_each_scan():
    for a in range(2, 13):
        values = [tjurina_formula(p) for p in admissible_params(a)]
        want, argmin = min_tjurina(a)
        assert min(values) == want
        assert tjurina_formula(argmin) == want


def test_x_a_and_y_a_lie_in_the_jacobian_ideal():
    # a*f - x*f_x - y*f_y = (a-b-c)*x^b*y^c with a-b-c != 0, so x^a and y^a
    # lie in J: J is supported at O alone, and its grlex staircase is the
    # local tau (checked here by division modulo the grlex basis)
    x, y = P("x"), P("y")
    for a in range(2, 21):
        for p in admissible_params(a):
            f = p.curve()
            fx, fy = f.partial_derivative(0), f.partial_derivative(1)
            assert a * f - x * fx - y * fy == (a - p.b - p.c) * x ** p.b * y ** p.c, p
            gb = list(buchberger([f, fx, fy]).generators)
            for power in (x ** a, y ** a):
                assert divide(power, gb)[1].is_zero(), (p, power)


def test_family_members_are_ordinary():
    for a in range(2, 13):
        for p in admissible_params(a):
            assert is_ordinary(p.curve(), (0, 0)), p


def test_verify_params_live_engine_small_range():
    for a in range(2, 8):
        for p in admissible_params(a):
            v = verify_params(p, check_gb=True)
            assert v.ok, (p, v)
            assert v.formula_tau == v.live_tau


def test_local_and_grlex_routes_give_the_same_tau():
    # without check_gb tau is a local length, with it the grlex staircase
    tuples = 0
    for a in range(2, 13):
        for p in admissible_params(a):
            tuples += 1
            local = verify_params(p).live_tau
            assert local == verify_params(p, check_gb=True).live_tau == tjurina_formula(p), p
    assert tuples == 411


def test_verify_params_makes_one_groebner_run(monkeypatch):
    import tjurina.family as family
    runs = []

    def counted(name, run):
        def wrapper(*args, **kwargs):
            runs.append(name)
            return run(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(family, "_buchberger", counted("grlex", family._buchberger))
    monkeypatch.setattr(family, "_local_length", counted("local", family._local_length))
    for p in (FamilyParams(5, 3, 3), FamilyParams(4, 5, 1)):
        runs.clear()
        assert verify_params(p, check_gb=True).ok
        assert runs == ["grlex"], p
        runs.clear()
        assert verify_params(p).ok
        assert runs == ["local"], p


def _perturbed(basis, rng):
    """The predicted basis with one coefficient changed, with one element
    dropped, and with two elements swapped."""
    basis = list(basis)
    i = rng.randrange(len(basis))
    terms = dict(basis[i].terms())
    m = rng.choice(sorted(terms))
    terms[m] += rng.choice((-1, 1, Fraction(1, 2)))
    if not terms[m]:
        terms[m] = 7
    changed = basis[:i] + [Polynomial(2, terms)] + basis[i + 1:]
    dropped = basis[:i] + basis[i + 1:]
    swapped = list(basis)
    j = rng.randrange(len(basis))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return {"changed": changed, "dropped": dropped, "swapped": swapped}


def test_verify_params_reports_a_perturbed_basis_as_the_set_comparison_does():
    # gb_match and lt_match against the plain definitions: equal sets of
    # generators, and equal minimal generators of the leading-term ideals
    rng = random.Random(2020)
    outcomes = set()
    for a in range(2, 21):
        for p in admissible_params(a):
            if p.b >= p.a:
                continue
            f = p.curve()
            gb = buchberger([f, f.partial_derivative(0), f.partial_derivative(1)])
            live_lt = leading_term_ideal(gb)
            for kind, predicted in [("exact", predicted_gb(p)),
                                    *_perturbed(predicted_gb(p), rng).items()]:
                v = verify_params(p, check_gb=True, predicted=tuple(predicted))
                gb_match = set(gb.generators) == set(predicted)
                lt_match = live_lt == MonomialIdeal(
                    2, (g.leading_monomial(GRLEX) for g in predicted))
                assert (v.gb_match, v.lt_match) == (gb_match, lt_match), (p, kind, predicted)
                outcomes.add((kind, gb_match, lt_match))
    # each kind of perturbation was seen, always with the outcome it must have
    assert outcomes == {("exact", True, True), ("changed", False, True),
                        ("dropped", False, False), ("swapped", True, True)}


def test_big_b_basis_is_the_fat_point_intersection_globally():
    # for b >= a the Jacobian ideal is (x^{a-1}, y^{a-1}) on the nose
    for (a, b, c) in [(2, 3, 0), (5, 5, 1), (6, 8, 2), (9, 9, 1), (7, 9, 7)]:
        p = FamilyParams(a, b, c)
        f = p.curve()
        gb = checked_buchberger([f, f.partial_derivative(0), f.partial_derivative(1)])
        assert set(gb.generators) == {P(f"x^{a - 1}"), P(f"y^{a - 1}")}, p


def test_four_term_gap_fixtures():
    from tjurina import local_tjurina
    fixtures = [
        ("x^9+y^9+x^5*y^7+x^7*y^4", 59),
        ("x^10+y^10+x^3*y^8+x^7*y^5", 71),
        ("x^10+y^10+x^2*y^9+x^7*y^6", 74),
    ]
    for expr, want in fixtures:
        assert local_tjurina(P(expr), (0, 0))[0] == want


def _recorded(monkeypatch, module, name):
    """Patch module.name to record each value it returns; the list of them."""
    returned = []
    run = getattr(module, name)

    def wrapper(*args, **kwargs):
        returned.append(run(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, wrapper)
    return returned


def test_every_family_run_starts_from_the_monomial_of_euler_relation():
    # a*f - x*f_x - y*f_y = (a-b-c)*x^b*y^c: the packed Jacobian's first
    # generator is the monic x^b*y^c, under grlex and the local order alike
    from tjurina.groebner import _packed_gradient, _words
    from tjurina.lengths import _LOCAL
    for a in range(2, 13):
        for p in admissible_params(a):
            for order in (GRLEX, _LOCAL):
                words = _words(order, 2)
                first = _packed_gradient(p.curve(), words, with_f=True)[0]
                assert words.unpack_reducer(first) == ((p.b, p.c), 1, ()), (p, order)


def test_the_live_runs_equal_the_runs_on_f_and_its_partials(monkeypatch):
    # the Euler remainder changes the generators, not the ideal: the grlex
    # basis check_gb reads is the reduced basis of (f, f_x, f_y), and the
    # local tau and its trace are those of local_length_at_origin on them
    import tjurina.family as family
    bases = _recorded(monkeypatch, family, "_buchberger")
    lengths = _recorded(monkeypatch, family, "_local_length")
    for a in range(2, 13):
        for p in admissible_params(a):
            f = p.curve()
            jacobian = [f, f.partial_derivative(0), f.partial_derivative(1)]
            verify_params(p, check_gb=True)
            assert bases.pop().generators == buchberger(jacobian, GRLEX).generators, p
            assert verify_params(p).live_tau == lengths[-1][0]
            assert lengths.pop() == local_length_at_origin(jacobian), p
