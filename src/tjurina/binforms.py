"""Binary forms: shared and repeated linear factors, decided by one gcd.

A binary form is a nonzero homogeneous polynomial in two variables; over
the complex numbers it splits into linear factors, i.e. lines through the
origin.  Whether forms share a line is decided exactly over Q by
``common_factor_degree``: one gcd of the forms dehomogenized at x = 1,
which hides the factor x, plus the least x-exponent, which counts it.
Whether a form repeats a line (``squarefree_binary_form``) is whether x^2
or y^2 divides it, read off its exponents, or g(1, y) shares a root with
its derivative.  Both run one
integer kernel: each form is read once into a primitive integer
coefficient list (denominators cleared once), and a primitive
pseudo-remainder sequence gives the degree of the gcd.

The tests cross-check both against determinants (the Sylvester resultant
and the discriminant), which live in ``tests/reference.py``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .poly import Polynomial

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


# ---------------------------------------------------------------------------
# binary forms


def _form_degree(g: Polynomial) -> int:
    """Check that g is a binary form, from its exponents alone: its degree."""
    if g.nvars != 2:
        raise ValueError("binary forms live in 2 variables")
    degrees = {i + j for (i, j), _c in g.terms()}
    if not degrees:
        raise ValueError("binary form must be nonzero")
    if len(degrees) > 1:
        raise ValueError("binary form must be homogeneous")
    return degrees.pop()


def _dehomogenize(g: Polynomial) -> tuple[int, UPoly]:
    """Check that g is a binary form and read it once: its degree m and
    g(1, y), trimmed.  The degree drop m - deg(g(1, y)) is the
    multiplicity of the factor x."""
    m = _form_degree(g)
    coeffs: UPoly = [0] * (m + 1)
    for (_i, j), c in g.terms():
        coeffs[j] = c
    return m, upoly_trim(coeffs)


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
    iff e <= 1 and u shares no root with its derivative.  Where x^2 or y^2
    divides g, the exponents say so before u, a list of m + 1
    coefficients, is built.  Nor is u built for a form of two terms that
    x^2 and y^2 do not divide: it is x^i y^j (a x^k + b y^k) with i, j <= 1
    and ab != 0, whose k lines are distinct and off both axes, so it is
    squarefree.
    """
    _form_degree(g)
    if max(map(min, zip(*g.terms_dict()))) > 1:  # the least x- or y-exponent
        return False
    if len(g) == 2:
        return True
    u = _primitive(_dehomogenize(g)[1])
    return len(u) <= 2 or _gcd_degree([u, upoly_derivative(u)]) == 0
