"""Exact sparse multivariate polynomials over the rationals.

A polynomial lives in Q[x_1,...,x_n] for a fixed number of variables
(2 for affine plane curves, 3 for projective ones) and is stored as a
map from exponent vectors to nonzero rational coefficients.  All
arithmetic is exact; no floating point ever enters.

Monomials are plain tuples of non-negative integers, one entry per
variable.  Coefficients are ``int`` or ``fractions.Fraction`` (an
integer-valued Fraction is normalized back to ``int``; Python hashes
the two consistently, so structural equality and hashing just work).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, le, neg
from typing import Iterable, Iterator, Mapping, Sequence, Union

from ._record import Record

Scalar = Union[int, Fraction]
Monomial = tuple[int, ...]

_ORDER_KINDS = ("grlex", "lex", "degrevlex")


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


def monomials_of_degree(nvars: int, d: int) -> Iterator[Monomial]:
    """All exponent vectors in ``nvars`` variables of total degree exactly d."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# term tables (monomial -> nonzero coefficient), before normalization


def _product_table(f: Mapping[Monomial, Scalar], g: Mapping[Monomial, Scalar]) -> dict:
    """Term table of the product of two term tables; a fresh dict."""
    if len(f) > len(g):
        f, g = g, f
    table: dict[Monomial, Scalar] = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = monomial_mul(m1, m2)
            s = table.get(m, 0) + c1 * c2
            if s:
                table[m] = s
            else:
                del table[m]
    return table


def _power_table(base: Mapping[Monomial, Scalar], n: int, nvars: int) -> dict:
    """Term table of base^n (n >= 0) by repeated squaring; a single term is
    raised directly.  A fresh dict."""
    if len(base) == 1:
        (m, c), = base.items()
        return {tuple(e * n for e in m): c ** n}
    result: dict[Monomial, Scalar] = {(0,) * nvars: 1}
    while n:
        if n & 1:
            result = _product_table(result, base)
        n >>= 1
        if n:
            base = _product_table(base, base)
    return result


class MonomialOrder(Record):
    """A monomial order: grlex, lex or degrevlex plus a variable precedence.

    ``precedence`` lists variable indices from most to least significant;
    ``None`` means the natural order (variable 0 highest).  grlex compares
    total degree first and breaks ties lexicographically by precedence;
    degrevlex breaks degree ties by the smallest exponent on the least
    significant variable.
    """

    __slots__ = ("kind", "precedence")

    def __init__(self, kind: str = "grlex", precedence: Sequence[int] | None = None):
        if kind not in _ORDER_KINDS:
            raise ValueError(f"unknown order kind {kind!r}")
        if precedence is not None:
            precedence = tuple(precedence)
            if sorted(precedence) != list(range(len(precedence))):
                raise ValueError("precedence must be a permutation of variable indices")
        self._set(kind, precedence)

    def key(self, m: Monomial):
        """Sort key: larger key = larger monomial in this order."""
        if self.precedence is None:
            if self.kind == "grlex":
                return (sum(m), *m)
            if self.kind == "lex":
                return tuple(m)
            return (sum(m), *map(neg, reversed(m)))
        prec = self.precedence
        if len(prec) != len(m):
            raise ValueError("precedence length does not match variable count")
        if self.kind == "lex":
            return tuple(m[i] for i in prec)
        if self.kind == "grlex":
            return (sum(m),) + tuple(m[i] for i in prec)
        # degrevlex
        return (sum(m),) + tuple(-m[i] for i in reversed(prec))


GRLEX = MonomialOrder("grlex")
LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms", "_hash")

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
        object.__setattr__(self, "_hash", None)

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
        object.__setattr__(self, "_hash", None)
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

    def constant_term(self) -> Scalar:
        return self._terms.get((0,) * self.nvars, 0)

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

    def evaluate(self, point: tuple[Scalar, ...]) -> Scalar:
        if len(point) != self.nvars:
            raise ValueError("point dimension does not match variable count")
        total: Scalar = 0
        for m, c in self._terms.items():
            v = c
            for coord, e in zip(point, m):
                if e:
                    v *= coord ** e
            total += v
        return _norm_coeff(total) if isinstance(total, Fraction) else total

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        if not self._terms:
            return "Polynomial(0)"
        names = ("x", "y") if self.nvars == 2 else tuple(f"x{i}" for i in range(self.nvars))
        bits = []
        for m in sorted(self._terms, key=GRLEX.key, reverse=True):
            c = self._terms[m]
            pows = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e
            )
            if not pows:
                bits.append(str(c))
            elif c == 1:
                bits.append(pows)
            elif c == -1:
                bits.append("-" + pows)
            else:
                bits.append(f"{c}*{pows}")
        s = bits[0]
        for b in bits[1:]:
            s += b if b.startswith("-") else "+" + b
        return f"Polynomial({s})"


# ---------------------------------------------------------------------------
# free-function forms of the core operations


def partial_derivative(f: Polynomial, var_index: int) -> Polynomial:
    """Exact formal partial derivative of f with respect to one variable."""
    return f.partial_derivative(var_index)


def homogeneous_component(f: Polynomial, k: int) -> Polynomial:
    return f.homogeneous_component(k)


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
    """Return g(x, y) = f(x + p, y + q), so that g(0,0) = f(p, q).

    Only affine (2-variable) polynomials are translated, and only to exact
    points: a float coordinate raises TypeError.  With p = a/b, q = u/v and
    D the common denominator of the coefficients, the integer polynomial
    D * b^dx * v^dy * g (dx, dy the degrees of f in x and y) is built by an
    integer Horner Taylor shift per variable: x along each row of equal
    y-degree, in (b*x + a), then y along each column of equal x-degree, in
    (v*y + u).  Each output coefficient becomes one rational at the end.  A
    dense polynomial of degree D costs O(D^3) multiply-adds.
    """
    if f.nvars != 2:
        raise ValueError("translation is defined for affine 2-variable polynomials")
    for c in point:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"point coordinates must be exact (int or Fraction), "
                            f"not {type(c).__name__}")
    p, q = (Fraction(c) for c in point)
    if (p == 0 and q == 0) or f.is_zero():
        return f
    a, b, u, v = p.numerator, p.denominator, q.numerator, q.denominator
    dx = max(i for i, _ in f._terms)
    dy = max(j for _, j in f._terms)
    den = lcm(*(c.denominator for c in f._terms.values() if isinstance(c, Fraction)))
    rows = [[0] * (dx + 1) for _ in range(dy + 1)]
    for (i, j), c in f._terms.items():
        rows[j][i] = c * den if isinstance(c, int) else c.numerator * (den // c.denominator)
    if a:  # a = 0 means b = 1: the rows need neither a shift nor a scale
        rows = [_taylor_shift(row, a, b, dx) if any(row) else row for row in rows]
    scale = den * b ** dx * v ** dy
    table: dict[Monomial, Scalar] = {}
    for i, col in enumerate(zip(*rows)):
        if u and any(col):
            col = _taylor_shift(col, u, v, dy)
        for j, n in enumerate(col):
            if n:
                table[(i, j)] = _norm_coeff(Fraction(n, scale))
    return Polynomial._from_valid(2, table)
