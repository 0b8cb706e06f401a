"""Lengths of zero-dimensional schemes.

Two independent routes to the same numbers live here:

* the Groebner route: staircase counting on leading-term ideals, and the
  truncation sequence alpha_r = dim A/(J + m^r) whose stabilized value is
  the length of the component of A/J at the origin (truncating by powers
  of the maximal ideal kills every component away from O);
* a Macaulay-matrix route: alpha_r as a corank of an exact rational
  coefficient matrix, used as an oracle to cross-check the first route.

Also here: graded Hilbert functions in three variables and the global
Tjurina number of a projective plane curve (the eventually constant value
of the Hilbert function of the Jacobian quotient).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Sequence

from .groebner import (
    MonomialIdeal,
    buchberger,
    is_zero_dimensional,
    leading_term_ideal,
)
from .poly import (
    DEGREVLEX,
    GRLEX,
    Monomial,
    Polynomial,
    Scalar,
    monomial_divides,
    monomials_of_degree,
)


class Infinite(Enum):
    """Marker for the length of a scheme that is not zero-dimensional."""

    INFINITE = "Infinite"

    def __repr__(self):
        return self.value

    __str__ = __repr__


INFINITE = Infinite.INFINITE


class Vertical(Enum):
    """Marker for the line x = 0 in line restrictions."""

    VERTICAL = "Vertical"

    def __repr__(self):
        return self.value

    __str__ = __repr__


VERTICAL = Vertical.VERTICAL


class StabilizationError(ArithmeticError):
    """A truncation or Hilbert-function sequence failed to stabilize.

    For local lengths this means the scheme is not zero-dimensional at the
    origin (non-reduced curve or non-isolated singularity)."""


@dataclass(frozen=True)
class TruncationTrace:
    """The computed pairs (r, alpha_r), ending at the first repeat.

    ``stabilized_at`` is the first r with alpha_r = alpha_{r+1}; the trace
    includes the confirming pair (r+1, alpha_{r+1}).
    """

    pairs: tuple[tuple[int, int], ...]
    stabilized_at: int

    @property
    def value(self) -> int:
        return self.pairs[-1][1]

    def alphas(self) -> tuple[int, ...]:
        return tuple(a for _, a in self.pairs)


# ---------------------------------------------------------------------------
# staircase counting


def staircase_length(lt: MonomialIdeal):
    """Number of standard monomials (those outside ``lt``); INFINITE when
    the ideal is not zero-dimensional."""
    if not is_zero_dimensional(lt):
        return INFINITE
    zero = (0,) * lt.nvars
    if zero in lt.gens:
        return 0
    if lt.nvars == 2:
        # column-by-column: standard monomials x^i y^j are those with
        # j < min{ b : (a,b) generator, a <= i }
        gens = sorted(lt.gens)
        count = 0
        i = 0
        while True:
            blocked = min((b for a, b in gens if a <= i), default=None)
            if blocked is None or blocked == 0:
                return count
            count += blocked
            i += 1
    # generic fallback: enumerate inside the box cut out by pure powers
    bounds = []
    for v in range(lt.nvars):
        p = min(m[v] for m in lt.gens
                if m[v] > 0 and all(e == 0 for u, e in enumerate(m) if u != v))
        bounds.append(p)
    count = 0
    stack = [(())]
    for v, bound in enumerate(bounds):
        stack = [pre + (e,) for pre in stack for e in range(bound)]
    for m in stack:
        if not any(monomial_divides(g, m) for g in lt.gens):
            count += 1
    return count


def _monomial_polys(nvars: int, degree: int) -> list[Polynomial]:
    return [Polynomial.monomial(nvars, m) for m in monomials_of_degree(nvars, degree)]


def _alpha(base: Sequence[Polynomial], r: int) -> int:
    """dim A/(J + m^r) where J is generated by ``base`` (two variables).

    Generators are pre-truncated below degree r; this changes nothing
    modulo m^r and keeps every intermediate polynomial small.
    """
    gens = [t for g in base if not (t := g.truncate_below(r)).is_zero()]
    gens.extend(_monomial_polys(2, r))
    gb = buchberger(gens, GRLEX, verify=False)
    n = staircase_length(leading_term_ideal(gb))
    if not isinstance(n, int):
        raise AssertionError(f"J + m^{r} is not zero-dimensional")
    return n


def local_length_at_origin(gens: Sequence[Polynomial]):
    """Length at the origin of the scheme cut out by ``gens`` in the plane.

    Computes alpha_r = dim A/(J + m^r) for r = 1, 2, ... via reduced
    Groebner bases and stops at the first repeat alpha_r = alpha_{r+1};
    that value is the dimension of the localization of A/J at O (once two
    consecutive truncations agree, the chain J + m^r is stationary).

    Returns (length, TruncationTrace).  Raises StabilizationError when the
    sequence is still growing at r = 4*maxdeg + 4, which happens exactly
    when the scheme fails to be zero-dimensional at the origin.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero generator")
    if any(g.nvars != 2 for g in polys):
        raise ValueError("local lengths are computed in the plane (2 variables)")
    base = buchberger(polys, GRLEX, verify=False).generators
    cap = 4 * max(g.degree() for g in polys) + 4
    pairs: list[tuple[int, int]] = []
    prev: int | None = None
    for r in range(1, cap + 1):
        a = _alpha(base, r)
        pairs.append((r, a))
        if prev is not None and a == prev:
            return a, TruncationTrace(tuple(pairs), stabilized_at=r - 1)
        prev = a
    raise StabilizationError(
        f"truncation sequence still growing at r = {cap}: "
        "the scheme is not zero-dimensional at the origin "
        f"(alphas = {[a for _, a in pairs]})")


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


# ---------------------------------------------------------------------------
# graded Hilbert functions (three variables) and the global Tjurina number


def _degree_slice_dim(lt: MonomialIdeal, t: int) -> int:
    """Number of degree-t standard monomials of a monomial ideal in 3 vars."""
    return sum(1 for m in monomials_of_degree(3, t) if not lt.contains_monomial(m))


def hilbert_function(gens: Sequence[Polynomial], t: int) -> int:
    """dim of the degree-t graded slice of Q[x0,x1,x2] / (gens).

    All generators must be homogeneous (zero generators are ignored).
    """
    if t < 0:
        raise ValueError("degree must be non-negative")
    polys = [g for g in gens if not g.is_zero()]
    for g in polys:
        if g.nvars != 3:
            raise ValueError("Hilbert functions are computed in 3 variables")
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    if not polys:
        return comb(t + 2, 2)
    gb = buchberger(polys, DEGREVLEX, verify=False)
    return _degree_slice_dim(leading_term_ideal(gb), t)


def _projective_dimension_at_most_points(lt: MonomialIdeal) -> bool:
    """True iff the monomial ideal cuts out a 0-dimensional (or empty)
    subscheme of P^2, i.e. Krull dim of the quotient is <= 1.

    For a monomial ideal the quotient dimension is the size of the largest
    variable subset S such that no generator is supported inside S; here
    it suffices that every pair of variables supports some generator.
    """
    for u in range(3):
        for v in range(u + 1, 3):
            if not any(all(e == 0 for w, e in enumerate(m) if w not in (u, v))
                       for m in lt.gens):
                return False
    return True


def global_tjurina(f: Polynomial, with_trace: bool = False):
    """Degree of the Jacobian scheme of the projective curve f = 0.

    This is the eventually constant value of the Hilbert function of
    R/(d0 f, d1 f, d2 f) (the non-saturated Jacobian ideal has the same
    large-degree behaviour as its saturation).  Returns 0 for a smooth
    curve and INFINITE when the Jacobian scheme is not zero-dimensional,
    which for a hypersurface means the curve is non-reduced.

    With ``with_trace=True`` returns (value, hf_values, warnings).
    """
    if f.nvars != 3 or f.is_zero():
        raise ValueError("expected a nonzero polynomial in x0, x1, x2")
    if not f.is_homogeneous():
        raise ValueError("the curve must be homogeneous")
    d = f.degree()
    if d < 2:
        raise ValueError("the curve must have degree >= 2")
    parts = [f.partial_derivative(i) for i in range(3)]
    parts = [p for p in parts if not p.is_zero()]
    gb = buchberger(parts, DEGREVLEX, verify=False)
    lt = leading_term_ideal(gb)
    if not _projective_dimension_at_most_points(lt):
        return (INFINITE, [], []) if with_trace else INFINITE
    warnings: list[str] = []
    t_max = 3 * (d - 1)
    values = [_degree_slice_dim(lt, t) for t in range(t_max + 1)]
    while not (len(values) >= 3 and values[-1] == values[-2] == values[-3]):
        if t_max >= 6 * d:
            raise StabilizationError(
                f"Hilbert function not stabilized by degree {t_max}: {values}")
        start = t_max + 1
        t_max += d
        warnings.append(f"Hilbert function window extended to degree {t_max}")
        values.extend(_degree_slice_dim(lt, t) for t in range(start, t_max + 1))
    value = values[-1]
    return (value, values, warnings) if with_trace else value


# ---------------------------------------------------------------------------
# line restrictions


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
