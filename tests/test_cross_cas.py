"""Optional cross-validation against an independently written CAS.

Skipped when sympy is not installed; when it is, a sample of random ideals
must yield byte-identical reduced Groebner bases from both engines.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")

from tjurina import DEGREVLEX, GRLEX, LEX, Polynomial, buchberger
from tjurina.exprio import render_poly

from reference import monomials_of_degree


def _to_sympy(p, syms):
    expr = 0
    for mono, c in p.terms():
        t = sympy.Rational(c if isinstance(c, int) else f"{c.numerator}/{c.denominator}")
        for s, e in zip(syms, mono):
            t *= s ** e
        expr += t
    return expr


def _from_sympy(sp, nvars):
    terms = {}
    for mono, coeff in sp.terms():
        q = sympy.Rational(coeff)
        terms[tuple(mono)] = Fraction(int(q.p), int(q.q))
    return Polynomial(nvars, terms)


def _random_poly(rng, nvars, max_deg):
    terms = {}
    for d in range(max_deg + 1):
        for m in monomials_of_degree(nvars, d):
            if rng.random() < 0.35:
                c = rng.randint(-9, 9)
                if c:
                    terms[m] = c
    return Polynomial(nvars, terms)


@pytest.mark.parametrize("nvars,my_order,sp_order,max_deg,seed", [
    (2, GRLEX, "grlex", 4, 101),
    (2, LEX, "lex", 3, 202),
    (3, GRLEX, "grlex", 3, 303),
    (3, DEGREVLEX, "grevlex", 3, 404),
])
def test_reduced_bases_match_independent_cas(nvars, my_order, sp_order, max_deg, seed):
    syms = sympy.symbols("x y z")[:nvars]
    rng = random.Random(seed)
    agreed = 0
    while agreed < 15:
        gens = [g for g in (_random_poly(rng, nvars, rng.randint(1, max_deg))
                            for _ in range(rng.randint(2, 4))) if not g.is_zero()]
        if not gens:
            continue
        mine = buchberger(gens, my_order)
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens],
                                *syms, order=sp_order, domain=sympy.QQ)
        assert set(mine.generators) == {_from_sympy(p, nvars) for p in theirs.polys}
        agreed += 1


def _line_arrangement(rng, d):
    """The product of d distinct lines a*x0 + b*x1 + c*x2 with small
    integer coefficients."""
    lines = set()
    while len(lines) < d:
        line = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(line):
            g = gcd(*line) * (1 if next(c for c in line if c) > 0 else -1)
            lines.add(tuple(c // g for c in line))
    f = Polynomial(3, {(0, 0, 0): 1})
    for a, b, c in sorted(lines):
        f = f * Polynomial(3, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
    return f


def _jacobian(f):
    return [p for p in (f.partial_derivative(v) for v in range(3)) if not p.is_zero()]


def _assert_same_degrevlex_basis(parts, rename=None):
    """Our reduced degrevlex basis of ``parts`` equals sympy's, generator by
    generator.  With ``rename`` = (p0, p1, p2), ours is the basis of
    ``parts`` with each exponent vector m written as (m[p0], m[p1], m[p2]),
    and sympy's that of ``parts`` itself, with its generators listed as
    x_p0, x_p1, x_p2 (the first the most significant): sympy's k-th
    exponent is then our k-th."""
    perm = rename or (0, 1, 2)
    syms = sympy.symbols("x0 x1 x2")
    renamed = [Polynomial(3, {tuple(m[v] for v in perm): c for m, c in p.terms()})
               for p in parts]
    mine = buchberger(renamed, DEGREVLEX)
    theirs = sympy.groebner([_to_sympy(p, syms) for p in parts],
                            *(syms[v] for v in perm), order="grevlex", domain=sympy.QQ)
    assert [render_poly(g, DEGREVLEX) for g in mine.generators] == \
        [render_poly(_from_sympy(p, 3), DEGREVLEX) for p in theirs.polys]


@pytest.mark.parametrize("rename, d, seed", [
    (None, 4, 504),
    (None, 5, 505),
    (None, 6, 506),
    ((2, 0, 1), 5, 515),
])
def test_jacobian_bases_of_line_arrangements_match_independent_cas(rename, d, seed):
    # the global Tjurina number's traffic: reduced degrevlex bases of the
    # Jacobian ideals of line arrangements, generator by generator
    rng = random.Random(seed)
    for _ in range(5):
        _assert_same_degrevlex_basis(_jacobian(_line_arrangement(rng, d)), rename)


@pytest.mark.parametrize("d, seed", [(7, 707), (8, 808)])
def test_jacobian_basis_of_a_large_line_arrangement_matches_independent_cas(d, seed):
    # one arrangement each at d = 7 and 8, where many stale tails are
    # refreshed during the run; sympy takes about a second or two on each
    _assert_same_degrevlex_basis(_jacobian(_line_arrangement(random.Random(seed), d)), None)
