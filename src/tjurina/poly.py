"""Exact sparse multivariate polynomials over the rationals.

A polynomial lives in Q[x_1,...,x_n] for a fixed number of variables
(2 for affine plane curves, 3 for projective ones) and is stored as a
map from exponent vectors to nonzero rational coefficients.  All
arithmetic is exact; no floating point ever enters.

Monomials are plain tuples of non-negative integers, one entry per
variable.  Coefficients are ``int`` or ``fractions.Fraction`` (an
integer-valued Fraction is normalized back to ``int``; Python hashes
the two consistently, so structural equality and hashing just work).
A monomial order is a ``MonomialOrder`` of one field, its kind: grlex,
lex, degrevlex, or "local", the local degree order, all of them reading
the variables in their natural order.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import comb, lcm
from operator import add, le, neg
from typing import Iterable, Iterator, Mapping, Sequence, Union

from ._record import Record

Scalar = Union[int, Fraction]
Monomial = tuple[int, ...]

_ORDER_KINDS = ("grlex", "lex", "degrevlex", "local")


def _norm_coeff(c: Scalar) -> Scalar:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def monomial_mul(m: Monomial, n: Monomial) -> Monomial:
    return tuple(map(add, m, n))


def monomial_divides(m: Monomial, n: Monomial) -> bool:
    """True when x^m divides x^n, i.e. componentwise m <= n."""
    return all(map(le, m, n))


def _render_terms(nvars: int, terms: Iterable[tuple[Monomial, Scalar]]) -> str:
    """The terms (exponents, nonzero coefficient) as one signed sum, in the
    order given; "" for none.  The variables are x, y in two variables and
    x0, x1, ... otherwise; a unit coefficient is elided next to a variable,
    and numbers are written in full (through Decimal, which unlike
    ``str(int)`` has no digit limit)."""
    names = ("x", "y") if nvars == 2 else tuple(f"x{i}" for i in range(nvars))
    out = []
    for m, c in terms:
        mag = -c if c < 0 else c
        pows = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e)
        num = str(Decimal(mag.numerator))
        if mag.denominator != 1:
            num += f"/{Decimal(mag.denominator)}"
        body = num if not pows else pows if mag == 1 else f"{num}*{pows}"
        out.append(("-" if c < 0 else "+" if out else "") + body)
    return "".join(out)


# ---------------------------------------------------------------------------
# term tables (monomial -> nonzero coefficient), before normalization


def _product_table(f: Mapping[Monomial, Scalar], g: Mapping[Monomial, Scalar]) -> dict:
    """Term table of the product of two term tables; a fresh dict.  In three
    variables the exponents are added field by field, without ``map``,
    which costs several times as much per term pair."""
    if len(f) > len(g):
        f, g = g, f
    table: dict[Monomial, Scalar] = {}
    get = table.get
    for m1, c1 in f.items():
        if len(m1) == 3:
            a, b, e = m1
            for (x, y, z), c2 in g.items():
                m = (a + x, b + y, e + z)
                s = get(m, 0) + c1 * c2
                if s:
                    table[m] = s
                else:
                    del table[m]
        else:
            for m2, c2 in g.items():
                m = monomial_mul(m1, m2)
                s = get(m, 0) + c1 * c2
                if s:
                    table[m] = s
                else:
                    del table[m]
    return table


def _power_table(base: Mapping[Monomial, Scalar], n: int, nvars: int) -> dict:
    """Term table of base^n (n >= 0) by repeated squaring.  A fresh dict."""
    result: dict[Monomial, Scalar] = {(0,) * nvars: 1}
    while n:
        if n & 1:
            result = _product_table(result, base)
        n >>= 1
        if n:
            base = _product_table(base, base)
    return result


class MonomialOrder(Record):
    """A monomial order on exponent tuples, variable 0 highest.

    grlex compares total degree first and breaks ties lexicographically;
    lex compares lexicographically; degrevlex breaks degree ties by the
    smallest exponent on the last variable.  "local" is a local degree
    order: the lowest total degree leads, and ties are broken as in grlex.
    It well-orders only the monomials of degree < R, so it is used only in
    Q[x]/m^R, by the local lengths (``lengths._local_length``'s cut).
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str = "grlex"):
        if kind not in _ORDER_KINDS:
            raise ValueError(f"unknown order kind {kind!r}")
        self._set(kind)

    def key(self, m: Monomial):
        """Sort key: larger key = larger monomial in this order."""
        if self.kind == "grlex":
            return (sum(m), *m)
        if self.kind == "lex":
            return tuple(m)
        if self.kind == "degrevlex":
            return (sum(m), *map(neg, reversed(m)))
        return (-sum(m), *m)


GRLEX = MonomialOrder("grlex")
LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        table: dict[Monomial, Scalar] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"exponent vector {mono} does not match {nvars} variables")
            if any(e < 0 or not isinstance(e, int) for e in mono):
                raise ValueError(f"exponents must be non-negative integers: {mono}")
            c = table.get(mono, 0) + coeff
            if c == 0:
                table.pop(mono, None)
            else:
                table[mono] = _norm_coeff(c)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", table)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # pickle rebuilds through _from_valid, not __setattr__
        return type(self)._from_valid, (self.nvars, self._terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_valid(cls, nvars: int, table: dict[Monomial, Scalar]) -> "Polynomial":
        """Adopt a table built from valid terms, without re-checking it.

        The caller guarantees exponent tuples of length ``nvars`` with
        non-negative int entries and nonzero coefficients normalized as by
        ``_norm_coeff``; the table is stored, not copied.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", table)
        return self

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, expos: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return cls(nvars, {tuple(expos): coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): 1})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self._terms.items())

    def terms_dict(self) -> dict[Monomial, Scalar]:
        """A fresh mutable copy of the term table."""
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(tuple(mono), 0)

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(map(sum, self._terms))

    def min_degree(self) -> int | None:
        """Degree of the lowest nonzero homogeneous component (the order of
        vanishing at the origin); None for the zero polynomial."""
        if not self._terms:
            return None
        return min(sum(m) for m in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self._terms}
        return len(degs) <= 1

    def leading_monomial(self, order: MonomialOrder = GRLEX) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = GRLEX) -> Scalar:
        return self._terms[self.leading_monomial(order)]

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other if other.nvars == self.nvars else None
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        table = dict(self._terms)
        for m, c in o._terms.items():
            s = table.get(m, 0) + c
            if s == 0:
                table.pop(m, None)
            else:
                table[m] = _norm_coeff(s)
        return Polynomial(self.nvars, table)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial(self.nvars, _product_table(self._terms, o._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return Polynomial(self.nvars, _power_table(self._terms, n, self.nvars))

    def scale(self, c: Scalar) -> "Polynomial":
        if c == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {m: co * c for m, co in self._terms.items()})

    def monic(self, order: MonomialOrder = GRLEX) -> "Polynomial":
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self.scale(Fraction(1, 1) / lc)

    # -- structure ----------------------------------------------------------

    def homogeneous_component(self, k: int) -> "Polynomial":
        """Sum of the terms of total degree exactly k (zero if none)."""
        if k < 0:
            raise ValueError("degree must be non-negative")
        return Polynomial._from_valid(self.nvars,
                                      {m: c for m, c in self._terms.items() if sum(m) == k})

    def partial_derivative(self, var_index: int) -> "Polynomial":
        if not 0 <= var_index < self.nvars:
            raise ValueError("variable index out of range")
        table: dict[Monomial, Scalar] = {}
        for m, c in self._terms.items():
            e = m[var_index]
            if e == 0:
                continue
            mm = list(m)
            mm[var_index] = e - 1
            table[tuple(mm)] = _norm_coeff(c * e)
        return Polynomial._from_valid(self.nvars, table)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        terms = sorted(self._terms.items(), key=lambda t: GRLEX.key(t[0]), reverse=True)
        return f"Polynomial({_render_terms(self.nvars, terms) or 0})"


def _taylor_shift(c: Sequence[int], a: int, b: int, top: int) -> list[int]:
    """The coefficients of b^top * P(t + a/b) = sum c[k] b^(top-k) (b*t + a)^k,
    P(t) = sum c[k] t^k of degree <= top, by Horner's rule in (b*t + a):
    n(n+1)/2 multiply-adds for degree n.  A single term c[n] t^n is one
    binomial row, c[n] b^(top-n) C(n, j) b^j a^(n-j) at t^j: n + 1 entries
    built from running powers.  The result has len(c) entries."""
    n = len(c) - 1
    while n and not c[n]:
        n -= 1
    bk = b ** (top - n)
    if not any(c[:n]):
        powers = [1]  # a^0 .. a^n
        for _ in range(n):
            powers.append(powers[-1] * a)
        r, lead = [], c[n] * bk
        for j in range(n + 1):
            r.append(comb(n, j) * lead * powers[n - j])
            lead *= b
        return r + [0] * (len(c) - 1 - n)
    r = [c[n] * bk]
    for k in range(n - 1, -1, -1):
        # r <- r * (b*t + a) + c[k] * b^(top-k), in place from the top down
        bk *= b
        r.append(b * r[-1])
        for j in range(len(r) - 2, 0, -1):
            r[j] = a * r[j] + b * r[j - 1]
        r[0] = a * r[0] + c[k] * bk
    return r + [0] * (len(c) - 1 - n)


def translate_to_origin(f: Polynomial, point: tuple[Scalar, Scalar]) -> Polynomial:
    """Return g(x, y) = f(x + p, y + q), so that g(0,0) = f(p, q): each
    coefficient of ``_integer_translate``'s integer multiple becomes one
    rational."""
    h, scale = _integer_translate(*_integer_table(f), point)
    return h if scale == 1 else Polynomial._from_valid(
        2, {m: _norm_coeff(Fraction(n, scale)) for m, n in h._terms.items()})


def _integer_table(f: Polynomial) -> tuple[dict[Monomial, int], int]:
    """(T, D) with T = D * f the integer term table of an affine (2-variable)
    polynomial, D > 0 the least common denominator of its coefficients: what
    ``_integer_translate`` reads.  T is f's own table when D = 1."""
    if f.nvars != 2:
        raise ValueError("translation is defined for affine 2-variable polynomials")
    den = lcm(*(c.denominator for c in f._terms.values() if isinstance(c, Fraction)))
    if den == 1:
        return f._terms, 1
    return {m: c.numerator * (den // c.denominator) for m, c in f._terms.items()}, den


def _integer_translate(table: dict[Monomial, int], den: int,
                       point: tuple[Scalar, Scalar]) -> tuple[Polynomial, int]:
    """(h, s) with h = s * f(x + p, y + q) an integer polynomial, s > 0, for
    f = T/D given by an integer term table T in x, y and a denominator D > 0.

    Only exact points are translated: a float coordinate raises TypeError.
    With p = a/b, q = u/v and dx, dy the degrees of T in x and y, h =
    D * b^dx * v^dy * f(x + p, y + q) is built by an integer Horner Taylor
    shift per variable: x along each row of equal y-degree, in (b*x + a),
    then y along each column of equal x-degree, in (v*y + u).  At the origin
    h is T itself, adopted as h's table.  A dense polynomial of degree n
    costs O(n^3) multiply-adds.
    """
    if len(point) != 2:
        raise ValueError(f"a point in the plane has 2 coordinates, got {len(point)}")
    for c in point:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"point coordinates must be exact (int or Fraction), "
                            f"not {type(c).__name__}")
    (a, b), (u, v) = ((c.numerator, c.denominator) for c in point)
    if not (table and (a or u)):
        return Polynomial._from_valid(2, table), den
    dx = max(table)[0]
    dy = max(j for _, j in table)
    rows = [[0] * (dx + 1) for _ in range(dy + 1)]
    for (i, j), c in table.items():
        rows[j][i] = c
    if a:  # a = 0 means b = 1: the rows need neither a shift nor a scale
        rows = [_taylor_shift(row, a, b, dx) if any(row) else row for row in rows]
    # a column no term reaches stays zero: it is neither shifted nor read
    cols = [(i, _taylor_shift(col, u, v, dy) if u else col)
            for i, col in enumerate(zip(*rows)) if any(col)]
    shifted = {(i, j): n for i, col in cols for j, n in enumerate(col) if n}
    return Polynomial._from_valid(2, shifted), den * b ** dx * v ** dy
