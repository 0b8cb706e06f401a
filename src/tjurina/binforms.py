"""Binary forms: shared and repeated linear factors, decided by one gcd.

A binary form is a nonzero homogeneous polynomial in two variables; over
the complex numbers it splits into linear factors, i.e. lines through the
origin.  Whether forms share a line is decided exactly over Q by
``common_factor_degree``: one gcd of the forms dehomogenized at x = 1,
which hides the factor x, plus the least x-exponent, which counts it.
Whether a form repeats a line (``squarefree_binary_form``) is whether x^2
divides it or g(1, y) shares a root with its derivative.  Both run one
integer kernel: each form is read once into a primitive integer
coefficient list (denominators cleared once), and a primitive
pseudo-remainder sequence gives the degree of the gcd.

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
    return _content_free(upoly_trim([c.numerator * (den // c.denominator) for c in u]))


def _content_free(r: UPoly) -> UPoly:
    """An integer coefficient list divided by its content."""
    g = gcd(*r)
    return [c // g for c in r] if g > 1 else r


def _pseudo_remainder(u: UPoly, v: UPoly) -> UPoly:
    """The remainder of u on division by v, times a nonzero integer, for
    integer u and v != 0: each step scales the running remainder by
    lc(v)/gcd(lc(r), lc(v)) before its leading term cancels, so every
    coefficient stays integral."""
    r = list(u)
    lv, dv = v[-1], len(v) - 1
    while len(r) > dv:
        c = r.pop()
        g = gcd(c, lv)
        mult, qc = lv // g, c // g
        shift = len(r) - dv
        if mult != 1:
            r = [mult * a for a in r]
        for i in range(dv):
            r[shift + i] -= qc * v[i]
        upoly_trim(r)
    return r


def _integer_gcd(a: UPoly, b: UPoly) -> UPoly:
    """A gcd over Q of integer coefficient lists, up to a unit: the
    Euclidean algorithm on primitive pseudo-remainders."""
    while b:
        a, b = b, _content_free(_pseudo_remainder(a, b))
    return a


def _gcd_degree(us: Sequence[UPoly]) -> int:
    """Degree of the gcd over Q of nonzero integer coefficient lists; stops
    as soon as the running gcd is a constant."""
    acc = us[0]
    for u in us[1:]:
        if len(acc) == 1:
            break
        acc = _integer_gcd(acc, u)
    return len(acc) - 1


def upoly_gcd(u: UPoly, v: UPoly) -> UPoly:
    """Monic gcd over Q.

    Denominators are cleared once; the Euclidean algorithm then runs on
    primitive integer pseudo-remainders, which have the same gcd over Q up
    to a unit, and the result is made monic at the end."""
    a = _integer_gcd(_primitive(u), _primitive(v))
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


def _dehomogenize(g: Polynomial) -> tuple[int, UPoly]:
    """Check that g is a binary form and read it once: its degree m and
    g(1, y), trimmed.  The degree drop m - deg(g(1, y)) is the
    multiplicity of the factor x."""
    if g.nvars != 2:
        raise ValueError("binary forms live in 2 variables")
    if g.is_zero():
        raise ValueError("binary form must be nonzero")
    m = g.degree()
    coeffs: UPoly = [0] * (m + 1)
    for (i, j), c in g.terms():
        if i + j != m:
            raise ValueError("binary form must be homogeneous")
        coeffs[j] = c
    return m, upoly_trim(coeffs)


def dehomogenize(g: Polynomial) -> UPoly:
    """g(1, y) as a univariate coefficient list, indexed by the y-exponent.

    The degree drop m - deg(g(1,y)) is the multiplicity of the factor x."""
    return _dehomogenize(g)[1]


def binary_form_resultant(g: Polynomial, h: Polynomial) -> Scalar:
    """Nonzero iff the two forms share no linear factor over C.

    The dehomogenizations g(1,y), h(1,y) see every factor except x; the
    factor x shows up as a degree drop, and a shared x factor forces the
    result to 0 directly.
    """
    mg, gu = _dehomogenize(g)
    mh, hu = _dehomogenize(h)
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
    if not forms:
        raise ValueError("common_factor_degree: no binary form given")
    read = [_dehomogenize(g) for g in forms]
    e = min(m - (len(u) - 1) for m, u in read)
    return e + _gcd_degree([_primitive(u) for _m, u in read])


def squarefree_binary_form(g: Polynomial) -> bool:
    """True iff a binary form of degree m has m distinct linear factors over C.

    Write g = x^e * h with x not dividing h, and u = g(1, y) = h(1, y), of
    degree m - e.  The lines of h are the roots of u, so g is squarefree
    iff e <= 1 and u shares no root with its derivative.
    """
    m, u = _dehomogenize(g)
    if m - (len(u) - 1) > 1:
        return False
    u = _primitive(u)
    return len(u) <= 2 or _gcd_degree([u, upoly_derivative(u)]) == 0
