"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Everything here is exact: tolerances are equalities,
the only non-exact quantities are the wall-clock budgets.
"""

import random
import time
from math import comb

import pytest

from tjurina import (
    DoubleA,
    Polynomial,
    admissible_params,
    buchberger,
    classify_double_point,
    embedding_dimension,
    global_tjurina,
    is_slci,
    k_symmetry_order,
    local_length_at_origin,
    local_milnor,
    local_tjurina,
    min_tjurina,
    multiplicity_at,
    nodes_only_check,
    parse_poly,
    squarefree_binary_form,
    verify_params,
)

P = parse_poly
O = (0, 0)
SCAN_RANGE = range(2, 13)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})", flush=True)


@pytest.fixture(scope="session")
def family_scan():
    """One verified record per admissible (a, b, c), 2 <= a <= 12, shared by
    criteria 2, 3 and 4."""
    t0 = time.monotonic()
    records = {a: [verify_params(p, check_gb=True) for p in admissible_params(a)]
               for a in SCAN_RANGE}
    elapsed = time.monotonic() - t0
    return records, elapsed


def test_criterion_01_quintic_pair():
    t0 = time.monotonic()
    tau_c, _ = local_tjurina(P("x*y*(x-y)*(x+y)^2+x^6+y^6"), O)
    t_c = time.monotonic() - t0
    t0 = time.monotonic()
    tau_d, _ = local_tjurina(P("x^5-y^5"), O)
    t_d = time.monotonic() - t0
    assert tau_c == 15
    assert tau_d == 16
    assert t_c < 5.0 and t_d < 5.0
    _report(1, "quintic pair", f"tau=15 and 16 in {t_c:.2f}s / {t_d:.2f}s")


def test_criterion_02_formula_reproduction(family_scan):
    records, elapsed = family_scan
    checked = 0
    for a in SCAN_RANGE:
        for v in records[a]:
            assert v.live_tau == v.formula_tau, v.params
            checked += 1
    assert elapsed < 600.0
    _report(2, "closed-form tau over the scan",
            f"{checked} tuples, scan in {elapsed:.1f}s")


def test_criterion_03_table_reproduction(family_scan):
    records, _ = family_scan
    checked = 0
    for a in SCAN_RANGE:
        for v in records[a]:
            if v.params.b < v.params.a:
                assert v.gb_match is True, v.params
                assert v.lt_match is True, v.params
                checked += 1
    _report(3, "groebner basis and LT tables", f"{checked} bases matched")


def test_criterion_04_minimum_tjurina(family_scan):
    records, _ = family_scan
    for a in SCAN_RANGE:
        want, argmin = min_tjurina(a)
        live = {v.params: v.live_tau for v in records[a]}
        assert min(live.values()) == want, a
        assert live[argmin] == want, a
    assert min_tjurina(2)[0] == 1
    assert min_tjurina(3)[0] == 4
    _report(4, "minimum tau", "floor((3a^2-2a-4)/4) attained at the stated (b,c), a=2..12")


def test_criterion_05_gap_fixtures():
    fixtures = [
        ("x^9+y^9+x^5*y^7+x^7*y^4", 59),
        ("x^10+y^10+x^3*y^8+x^7*y^5", 71),
        ("x^10+y^10+x^2*y^9+x^7*y^6", 74),
    ]
    times = []
    for expr, want in fixtures:
        t0 = time.monotonic()
        tau, _ = local_tjurina(P(expr), O)
        dt = time.monotonic() - t0
        assert tau == want, expr
        assert dt < 30.0, expr
        times.append(dt)
    _report(5, "gap-filling fixtures",
            "tau = 59, 71, 74 in " + ", ".join(f"{t:.2f}s" for t in times))


def test_criterion_06_a_n_classifier():
    t0 = time.monotonic()
    for n in range(1, 31):
        f = Polynomial(2, {(0, 2): 1, (n + 1, 0): -1})  # y^2 - x^(n+1)
        assert classify_double_point(f, O) == DoubleA(n), n
        gb = buchberger([f, f.partial_derivative(0), f.partial_derivative(1)])
        assert set(gb.generators) == {Polynomial(2, {(0, 1): 1}),
                                      Polynomial(2, {(n, 0): 1})}, n
        if n >= 2:
            gens = [f, f.partial_derivative(0), f.partial_derivative(1)]
            assert embedding_dimension(gens) == 1, n
            assert local_length_at_origin(gens)[0] == n
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(6, "A_n classifier", f"n = 1..30 with GB {{y, x^n}} in {elapsed:.1f}s")


def _random_ordinary_curve(rng, m):
    while True:
        form = {}
        for mono in ((i, m - i) for i in range(m, -1, -1)):  # the degree-m plane monomials
            c = rng.randint(-4, 4)
            if c:
                form[mono] = c
        initial = Polynomial(2, form)
        if not initial.is_zero() and squarefree_binary_form(initial):
            break
    tail = {}
    for _ in range(rng.randint(0, 4)):
        d = rng.randint(m + 1, m + 3)
        i = rng.randint(0, d)
        tail[(i, d - i)] = rng.randint(-4, 4)
    return initial + Polynomial(2, tail)


def test_criterion_07_ordinary_property_suite():
    rng = random.Random(0xC0FFEE)
    t0 = time.monotonic()
    for m in range(3, 8):
        lower = (3 * m * m - 2 * m - 4) // 4
        upper = (m - 1) ** 2
        for _ in range(50):
            f = _random_ordinary_curve(rng, m)
            assert multiplicity_at(f, O) == m
            tau, _ = local_tjurina(f, O)
            mu, _ = local_milnor(f, O)
            gens = [f, f.partial_derivative(0), f.partial_derivative(1)]
            assert mu == upper, f
            assert lower <= tau <= upper, (f, tau)
            assert k_symmetry_order(gens) == m - 1, f
            assert is_slci(f, O), f
    _report(7, "ordinary-singularity properties",
            f"50 curves per m in 3..7, zero violations, {time.monotonic() - t0:.0f}s")


def test_criterion_08_oracle_equivalence():
    # imported here, as in criterion 11: the file is also loaded without tests/ on the path
    from reference import local_length_oracle

    rng = random.Random(314159)
    t0 = time.monotonic()
    for _ in range(100):
        p, q = rng.randint(2, 6), rng.randint(2, 6)
        gens = [Polynomial.monomial(2, (p, 0)), Polynomial.monomial(2, (0, q))]
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                i, j = rng.randint(0, 6), rng.randint(0, 6)
                if 0 < i + j <= 6:
                    terms[(i, j)] = rng.randint(-5, 5)
            extra = Polynomial(2, terms)
            if not extra.is_zero():
                gens.append(extra)
        _val, trace = local_length_at_origin(gens)
        for r, alpha in trace.pairs:
            assert local_length_oracle(gens, r) == alpha, (gens, r)
    _report(8, "truncation vs Macaulay oracle",
            f"100 ideals, every alpha_r agreed, {time.monotonic() - t0:.0f}s")


def test_criterion_08_oracle_equivalence_below_2d_plus_2():
    # low-order parts close the staircase early under terms of degree 6..9,
    # so every trace ends by r = d, well below 2d + 2
    from reference import local_length_oracle

    rng = random.Random(271828)
    t0 = time.monotonic()
    for _ in range(50):
        p, q = rng.randint(2, 3), rng.randint(2, 3)
        gens = []
        for low in ((p, 0), (0, q)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                i = rng.randint(0, 9)
                terms[(i, rng.randint(max(0, 6 - i), 9 - i))] = rng.choice((-5, -2, 1, 4))
            terms[low] = rng.choice((-2, -1, 1, 3))
            gens.append(Polynomial(2, terms))
        d = max(g.degree() for g in gens)
        val, trace = local_length_at_origin(gens)
        assert trace.pairs[-1][0] <= d, (gens, trace)
        for r, alpha in trace.pairs:
            assert local_length_oracle(gens, r) == alpha, (gens, r)
        assert local_length_oracle(gens, trace.pairs[-1][0] + 2) == val
    _report(8, "truncation vs Macaulay oracle, stable below 2d + 2",
            f"50 ideals, every alpha_r agreed, {time.monotonic() - t0:.0f}s")


def test_criterion_09_non_nodal_lower_bound():
    fixtures = [
        "y^2-x^3",                    # cusp
        "y^2-x^4",                    # tacnode
        "y^2-x^5",                    # A_4
        "x*y^2+x^4+y^4",              # non-ordinary triple point
        "x*y*(x-y)*(x+y)^2+x^6+y^6",  # the non-ordinary quintic
    ]
    for expr in fixtures:
        f = P(expr)
        m = multiplicity_at(f, O)
        tau, _ = local_tjurina(f, O)
        assert tau > comb(m, 2), (expr, m, tau)
    _report(9, "non-nodes exceed C(m,2)", f"{len(fixtures)} fixtures")


def test_criterion_10_global_tjurina():
    for d in range(2, 9):
        assert global_tjurina(parse_poly(f"x1^{d}-x2^{d}", "projective3")) == (d - 1) ** 2
    assert global_tjurina(parse_poly("x1^2*x0-x2^2*(x2+x0)", "projective3")) == 1
    assert global_tjurina(parse_poly("x0*x2-x1^2", "projective3")) == 0
    assert nodes_only_check(3, 0, 1)
    _report(10, "global tau", "(d-1)^2 for d=2..8, nodal cubic 1, smooth conic 0")


def test_criterion_11_euler_membership():
    # imported here: bench/test_bench.py loads this file without tests/ on the path
    from reference import divide, monomials_of_degree

    rng = random.Random(271828)
    done = 0
    while done < 50:
        d = rng.randint(1, 6)
        terms = {}
        for mono in monomials_of_degree(3, d):
            if rng.random() < 0.4:
                c = rng.randint(-5, 5)
                if c:
                    terms[mono] = c
        f = Polynomial(3, terms)
        if f.is_zero():
            continue
        parts = [f.partial_derivative(i) for i in range(3)]
        parts = [p for p in parts if not p.is_zero()]
        gb = buchberger(parts)
        _, rem = divide(f, list(gb.generators))
        assert rem.is_zero(), f
        done += 1
    _report(11, "Euler membership", "50 random homogeneous forms reduced to zero")
