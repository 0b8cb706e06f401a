"""Test-only references: ``buchberger`` with its postcondition checked, a
local standard basis under a degree cut checked the same way, plain rational
division and S-polynomials, independent of the
package's packed integer core, exact evaluation at a point, the product of
two term tables, a Fraction-Euclid gcd, determinants and line
restrictions, independent routes to what ``tjurina.binforms`` decides by one
gcd, the monomials of one degree, the Macaulay-matrix oracle for the
truncated local lengths alpha_r, an exact rank that shares no code with the
standard-basis route, and seeded plane ideals whose inputs put the plane
pair rule of ``groebner`` through each of its cases."""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from tjurina import groebner
from tjurina.binforms import UPoly, _dehomogenize, upoly_derivative
from tjurina.groebner import GroebnerBasis, _integer_reducer, _normal_form, _s_pair, _words
from tjurina.lengths import _LOCAL, INFINITE
from tjurina.poly import GRLEX, Monomial, MonomialOrder, Polynomial, Scalar, monomial_divides


def lcm_word(words, a: int, b: int) -> int:
    """The packed word of the lcm of the monomials of the words a and b."""
    return words.word(tuple(map(max, words.exponents(a), words.exponents(b))))


def verify_reduced_basis(gb: GroebnerBasis, cut: int | None = None):
    """``buchberger``'s postcondition: monic, minimal and (for a reduced
    basis) inter-reduced generators, and Buchberger's criterion (in
    Q[x]/m^cut when ``cut`` is given)."""
    order = gb.order
    words = _words(order, gb.nvars)
    leads = [_integer_reducer(g, words) for g in gb.generators]
    for idx, (lm_i, _, tail) in enumerate(leads):
        if gb.generators[idx].leading_coefficient(order) != 1:
            raise AssertionError("basis element is not monic")
        for jdx, (lm, _, _) in enumerate(leads):
            if jdx == idx:
                continue
            if not (lm_i - lm) & words.over:
                raise AssertionError("leading monomials not minimal")
            if gb.reduced and any(not (m - lm) & words.over for m, _ in tail):
                raise AssertionError("basis is not inter-reduced")
    memo: dict = {}
    for j in range(len(leads)):
        for i in range(j):
            s = _s_pair(leads[i], leads[j], lcm_word(words, leads[i][0], leads[j][0]), words)
            if s and _normal_form(s, leads, words, cut=cut, memo=memo):
                raise AssertionError("S-polynomial does not reduce to zero")


def local_basis(gens: Sequence[Polynomial], cut: int, order: MonomialOrder = _LOCAL):
    """A minimal standard basis of the image of (gens) in Q[x]/m^cut under a
    local degree order, from the run the local lengths use: the nonzero
    generators lose their terms of degree >= cut, and those left are packed
    by ``_integer_reducer`` and run by ``groebner._buchberger`` under the
    cut (both read on each call, so a test can patch them).  Raises
    ValueError when no generator is left, or for a global order."""
    polys = [Polynomial(g.nvars, {m: c for m, c in g.terms() if sum(m) < cut}) for g in gens]
    polys = [g for g in polys if not g.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero generator")
    words = _words(order, polys[0].nvars)
    if not words.local:
        raise ValueError("a degree cut needs a local degree order")
    return groebner._buchberger([groebner._integer_reducer(g, words) for g in polys], words, cut)


def checked_buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GRLEX,
                       cut: int | None = None):
    """``buchberger``, or ``local_basis`` under ``cut``, then
    ``verify_reduced_basis`` (read on each call, so a test can patch it)
    under ``cut``."""
    gb = groebner.buchberger(gens, order) if cut is None else local_basis(gens, cut, order)
    verify_reduced_basis(gb, cut)
    return gb


def divide(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder = GRLEX):
    """Multivariate division over Q: (quotients, remainder) with f = sum
    q_i b_i + r, no term of r divisible by a leading monomial of the basis.
    Each step takes the largest term left under ``order.key`` and cancels it
    with the first basis element, in list order, whose leading monomial
    divides it, or moves it to the remainder.  Fractions throughout, no
    packed words.  The order must be a well-order (under the local order
    the loop need not end); an empty basis or a zero element raises
    ValueError."""
    if not basis or any(b.is_zero() for b in basis):
        raise ValueError("division basis must be nonempty, of nonzero polynomials")
    heads = [(b.leading_monomial(order), Fraction(b.leading_coefficient(order))) for b in basis]
    work = f.terms_dict()
    quots: list[dict] = [{} for _ in basis]
    rem = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for (lm, lc), b, q in zip(heads, basis, quots):
            if monomial_divides(lm, m):
                shift = tuple(e - d for e, d in zip(m, lm))
                qc = c / lc
                q[shift] = qc
                for bm, bc in b.terms():
                    if bm != lm:
                        t = tuple(e + d for e, d in zip(shift, bm))
                        s = work.get(t, 0) - qc * bc
                        if s:
                            work[t] = s
                        else:
                            work.pop(t, None)
                break
        else:
            rem[m] = c
    return [Polynomial(f.nvars, q) for q in quots], Polynomial(f.nvars, rem)


def s_polynomial(g: Polynomial, h: Polynomial, order: MonomialOrder = GRLEX) -> Polynomial:
    """The S-polynomial (lcm/LT(g)) g - (lcm/LT(h)) h over Q, leading
    coefficients divided out, so that of two monomials is zero."""
    top = tuple(map(max, g.leading_monomial(order), h.leading_monomial(order)))
    table: dict = {}
    for p, sign in ((g, 1), (h, -1)):
        lm = p.leading_monomial(order)
        c0 = sign / Fraction(p.leading_coefficient(order))
        for m, c in p.terms():
            t = tuple(e + d - l for e, d, l in zip(top, m, lm))
            table[t] = table.get(t, 0) + c0 * c
    return Polynomial(g.nvars, table)


def fraction_euclid_gcd(u: UPoly, v: UPoly) -> UPoly:
    """The monic gcd over Q of two coefficient lists, lowest degree first,
    by Euclid on Fraction coefficients; [] for two zero lists."""
    def rem(a, b):
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            for i, c in enumerate(b):
                r[len(r) - len(b) + i] -= f * c
            while r and r[-1] == 0:
                r.pop()
        return r

    a = [Fraction(c) for c in u]
    b = [Fraction(c) for c in v]
    while b:
        a, b = b, rem(a, b)
    return [c / a[-1] for c in a]


def evaluate(f: Polynomial, point: Sequence[Scalar]) -> Scalar:
    """f at ``point``, exactly: the sum of its terms, each a product of powers."""
    if len(point) != f.nvars:
        raise ValueError("point dimension does not match variable count")
    total: Scalar = 0
    for m, c in f.terms():
        for coord, e in zip(point, m):
            c *= coord ** e
        total += c
    return total


def product_table(f: dict, g: dict) -> dict:
    """The term table of the product of two term tables, the plain way: every
    pair of terms adds its exponents component by component, the sums are
    collected first, and the zero ones are dropped at the end."""
    table: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            table[m] = table.get(m, 0) + c1 * c2
    return {m: c for m, c in table.items() if c}


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


class Vertical(Enum):
    """Marker for the line x = 0 in line restrictions."""

    VERTICAL = "Vertical"

    def __repr__(self):
        return self.value

    __str__ = __repr__


VERTICAL = Vertical.VERTICAL


def line_restriction_length(gens: Sequence[Polynomial], line):
    """Length at the origin of the scheme restricted to a line through O.

    ``line`` is either a rational slope t (the line y = t*x) or VERTICAL
    (the line x = 0).  The result is the minimum order of vanishing at 0
    of the restricted generators; INFINITE if they all restrict to zero.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero generator")
    best = None
    for g in polys:
        if g.nvars != 2:
            raise ValueError("line restrictions are computed in the plane")
        if isinstance(line, Vertical):
            vals = [j for (i, j), c in g.terms() if i == 0]
            v = min(vals) if vals else None
        else:
            if isinstance(line, float):
                raise TypeError("slopes must be exact (int or Fraction), not float")
            t = line if isinstance(line, (int, Fraction)) else Fraction(line)
            coeffs: dict[int, Scalar] = {}
            for (i, j), c in g.terms():
                k = i + j
                coeffs[k] = coeffs.get(k, 0) + c * (t ** j if j else 1)
            nonzero = [k for k, c in coeffs.items() if c != 0]
            v = min(nonzero) if nonzero else None
        if v is not None:
            best = v if best is None else min(best, v)
    return INFINITE if best is None else best


# Leading monomials x^a y^b in entry order.  Inputs enter before any pair
# is popped, so each list puts the plane rule of ``groebner._buchberger``
# through the case it is named after.  An entry (a, b, k) is a monomial
# multiple of the k-th generator: its pair to that generator vanishes, so
# only the gap's old pair joins the ends of the new gap.
PLANE_RULE_CASES = {
    # (1, 1) retires (2, 3) and (3, 2); both gaps around it are new
    "one-retires-two": [(2, 3), (3, 2), (5, 0), (0, 6), (1, 1)],
    # (1, 2) retires (1, 4) and (2, 2), and the gap (2, 2)-(4, 0) keeps its lcm
    "retirement-keeps-the-right-gap": [(2, 2), (1, 4), (4, 0), (1, 2)],
    # (2, 0) retires (2, 1) = y * (2, 0), and the gap (1, 2)-(2, 1) keeps its lcm
    "retired-multiple-keeps-the-left-gap": [(1, 2), (2, 1, 2), (2, 0)],
    # (0, 2) retires (1, 2) = x * (0, 2), and the gap (1, 2)-(2, 1) keeps its lcm
    "retired-multiple-keeps-the-right-gap": [(2, 1), (1, 2, 2), (0, 2)],
    "duplicate-leading-monomials": [(2, 0), (2, 0), (0, 3)],
    # the corner (0, 2) divides (1, 3)
    "redundant-input": [(0, 2), (2, 1), (1, 3)],
    "unit-ideal": [(1, 0), (0, 1), (0, 0)],
}


def plane_rule_ideal(rng: random.Random, case: str, order: MonomialOrder) -> list[Polynomial]:
    """One generator per entry of ``PLANE_RULE_CASES[case]``: the monomial
    with one to three more terms of random coefficients, of lower degree
    under ``order`` = GRLEX and of higher degree below 9 under the local
    order, so that the monomial leads either way; or a monomial multiple of
    a later generator."""
    gens: list = []
    for lm in PLANE_RULE_CASES[case]:
        terms = {lm[:2]: rng.choice((1, -1, 2, 3))}
        degrees = range(sum(lm[:2])) if order == GRLEX else range(sum(lm[:2]) + 1, 9)
        for _ in range(rng.randint(1, 3) if degrees else 0):
            d = rng.choice(degrees)
            i = rng.randint(0, d)
            terms[(i, d - i)] = rng.choice((1, -1, 2, -3))
        gens.append(Polynomial(2, terms))
    for n, (a, b, *later) in enumerate(PLANE_RULE_CASES[case]):
        if later:
            g = gens[later[0]]
            c = g.leading_monomial(order)
            gens[n] = Polynomial(2, {(a - c[0], b - c[1]): 1}) * g
    return gens


def monomials_of_degree(nvars: int, d: int) -> Iterator[Monomial]:
    """All exponent vectors in ``nvars`` variables of total degree exactly d."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def local_length_oracle(gens: Sequence[Polynomial], r: int) -> int:
    """Independent linear-algebra computation of alpha_r = dim A/(J + m^r).

    Spans the image of J in A/m^r by all products (monomial * generator)
    with a nonzero truncation, i.e. deg(monomial) < r - ord(generator)
    where ord is the degree of the lowest term; alpha_r is the corank of
    the resulting exact rational Macaulay matrix on the monomials of
    degree < r.
    """
    if r < 1:
        raise ValueError("truncation order must be >= 1")
    polys = [g for g in gens if not g.is_zero()]
    if any(g.nvars != 2 for g in polys):
        raise ValueError("the oracle works in the plane (2 variables)")
    cols: dict[Monomial, int] = {}
    for d in range(r):
        for m in monomials_of_degree(2, d):
            cols[m] = len(cols)
    n_cols = len(cols)
    rows: list[dict[int, Fraction]] = []
    for g in polys:
        ord_g = g.min_degree()
        terms = list(g.terms())
        for d in range(r - ord_g):
            for m in monomials_of_degree(2, d):
                row: dict[int, Fraction] = {}
                for gm, gc in terms:
                    t = (m[0] + gm[0], m[1] + gm[1])
                    if sum(t) < r:
                        row[cols[t]] = row.get(cols[t], Fraction(0)) + gc
                row = {k: v for k, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    rank = _sparse_rank(rows)
    return n_cols - rank


def _sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Exact rank of a sparse rational matrix by Gaussian elimination."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                p = pivots[c]
                f = row[c] / p[c]
                for k, v in p.items():
                    s = row.get(k, Fraction(0)) - f * v
                    if s == 0:
                        row.pop(k, None)
                    else:
                        row[k] = s
            else:
                pivots[c] = row
                break
    return len(pivots)
