"""Binary forms: shared and repeated linear factors, decided by one gcd.

A binary form is a nonzero homogeneous polynomial in two variables; over
the complex numbers it splits into linear factors, i.e. lines through the
origin.  Whether forms share a line, and whether a form repeats one (its
partials share it), is decided exactly over Q by ``common_factor_degree``:
one gcd of the forms dehomogenized at x = 1, which hides the factor x,
plus the least x-exponent, which counts it.

The Sylvester resultant, the discriminant and ``binary_form_resultant``
decide the same questions by determinants.  No production path calls
them; they are kept as independent references for the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .poly import Polynomial, Scalar

# Univariate polynomials are coefficient lists, lowest degree first,
# trailing zeros stripped; [] is the zero polynomial.
UPoly = list


def upoly_trim(u: UPoly) -> UPoly:
    while u and u[-1] == 0:
        u.pop()
    return u


def upoly_derivative(u: UPoly) -> UPoly:
    return upoly_trim([i * c for i, c in enumerate(u)][1:])


def _primitive(u: UPoly) -> UPoly:
    """The primitive integer multiple of a rational coefficient list (its
    denominators cleared once, its content divided out), trimmed."""
    den = lcm(*(c.denominator for c in u))
    table = [c.numerator * (den // c.denominator) for c in u]
    g = gcd(*table) or 1
    return upoly_trim([c // g for c in table])


def _pseudo_remainder(u: UPoly, v: UPoly) -> UPoly:
    """The remainder of u on division by v, times a nonzero integer, for
    integer u and v != 0: each step scales the running remainder by
    lc(v)/gcd(lc(r), lc(v)) before its leading term cancels, so every
    coefficient stays integral."""
    r = list(u)
    lv, dv = v[-1], len(v) - 1
    while len(r) > dv:
        c = r[-1]
        g = gcd(c, lv)
        mult, qc = lv // g, c // g
        shift = len(r) - 1 - dv
        if mult != 1:
            r = [mult * a for a in r]
        for i, b in enumerate(v):
            r[shift + i] -= qc * b
        upoly_trim(r)
    return r


def upoly_gcd(u: UPoly, v: UPoly) -> UPoly:
    """Monic gcd over Q.

    Denominators are cleared once; the Euclidean algorithm then runs on
    primitive integer pseudo-remainders, which have the same gcd over Q up
    to a unit, and the result is made monic at the end."""
    a, b = _primitive(u), _primitive(v)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return [Fraction(c, a[-1]) for c in a]


def sylvester_resultant(u: UPoly, v: UPoly) -> Scalar:
    """Resultant of two nonzero univariate polynomials (Sylvester determinant).

    Computed by exact fraction-based Gaussian elimination; deg 0 operands
    follow the usual convention Res(c, v) = c^deg(v).
    """
    if not u or not v:
        raise ValueError("resultant of the zero polynomial is undefined")
    n, m = len(u) - 1, len(v) - 1
    if n == 0:
        return Fraction(u[0]) ** m if m else Fraction(1)
    if m == 0:
        return Fraction(v[0]) ** n
    size = n + m
    rows = []
    uc = list(reversed(u))  # highest degree first
    vc = list(reversed(v))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in uc] + [Fraction(0)] * (size - n - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in vc] + [Fraction(0)] * (size - m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, size):
            f = rows[r][col] / pv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def discriminant(u: UPoly) -> Scalar:
    """Discriminant of a univariate polynomial of degree >= 1, with the
    standard normalization (-1)^(n(n-1)/2) Res(u, u') / lc(u)."""
    n = len(u) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return Fraction(1)
    res = sylvester_resultant(u, upoly_derivative(u))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / Fraction(u[-1])


# ---------------------------------------------------------------------------
# binary forms


def _check_binary_form(g: Polynomial) -> int:
    if g.nvars != 2:
        raise ValueError("binary forms live in 2 variables")
    if g.is_zero():
        raise ValueError("binary form must be nonzero")
    if not g.is_homogeneous():
        raise ValueError("binary form must be homogeneous")
    return g.degree()


def dehomogenize(g: Polynomial) -> UPoly:
    """g(1, y) as a univariate coefficient list, indexed by the y-exponent.

    The degree drop m - deg(g(1,y)) is the multiplicity of the factor x."""
    m = _check_binary_form(g)
    coeffs: UPoly = [0] * (m + 1)
    for (i, j), c in g.terms():
        coeffs[j] = c
    return upoly_trim(coeffs)


def binary_form_resultant(g: Polynomial, h: Polynomial) -> Scalar:
    """Nonzero iff the two forms share no linear factor over C.

    The dehomogenizations g(1,y), h(1,y) see every factor except x; the
    factor x shows up as a degree drop, and a shared x factor forces the
    result to 0 directly.
    """
    mg = _check_binary_form(g)
    mh = _check_binary_form(h)
    gu = dehomogenize(g)
    hu = dehomogenize(h)
    x_in_g = mg - (len(gu) - 1)
    x_in_h = mh - (len(hu) - 1)
    if x_in_g > 0 and x_in_h > 0:
        return Fraction(0)
    return sylvester_resultant(gu, hu)


def common_factor_degree(forms: Sequence[Polynomial]) -> int:
    """Degree of the gcd over Q of nonzero binary forms: the number of
    linear factors over C, with multiplicity, that all of them share.  The
    factor x counts as the least x-exponent (the degree drop of g(1, y));
    every other shared line is a common root of the g(1, y)."""
    us = [dehomogenize(g) for g in forms]
    e = min(g.degree() - (len(u) - 1) for g, u in zip(forms, us))
    acc = us[0]
    for u in us[1:]:
        if len(acc) == 1:
            break
        acc = upoly_gcd(acc, u)
    return e + len(acc) - 1


def squarefree_binary_form(g: Polynomial) -> bool:
    """True iff a binary form of degree m has m distinct linear factors over C.

    A line is repeated in g exactly when it divides both partials (Euler:
    m*g = x*g_x + y*g_y), so g is squarefree iff its nonzero partials share
    no factor.
    """
    _check_binary_form(g)
    parts = [p for p in (g.partial_derivative(0), g.partial_derivative(1)) if not p.is_zero()]
    return not parts or common_factor_degree(parts) == 0
