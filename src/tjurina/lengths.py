"""Lengths of zero-dimensional schemes.

Two independent routes to the same numbers live here:

* the Groebner route: staircase counting on the leading-term ideals of
  the plane, and the truncation sequence alpha_r = dim A/(J + m^r) whose
  stabilized value is the length of the component of A/J at the origin
  (truncating by powers of the maximal ideal kills every component away
  from O), read from one standard basis of J + m^R under the local degree
  order ``MonomialOrder("local")``, which a run uses only under that cut
  R;
* a Macaulay-matrix route: alpha_r as a corank of an exact rational
  coefficient matrix, used as an oracle to cross-check the first route.

Also here: graded Hilbert functions in three variables and the global
Tjurina number of a projective plane curve (the eventually constant value
of the Hilbert function of the Jacobian quotient).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Sequence

from ._record import Record
from .groebner import (
    GroebnerBasis,
    MonomialIdeal,
    _buchberger,
    _integer_reducer,
    _packed_gradient,
    _primitive_reducer,
    _staircase,
    _words,
    buchberger,
    is_zero_dimensional,
    leading_term_ideal,
)
from .poly import DEGREVLEX, Monomial, MonomialOrder, Polynomial, monomials_of_degree


class Infinite(Enum):
    """Marker for the length of a scheme that is not zero-dimensional."""

    INFINITE = "Infinite"

    def __repr__(self):
        return self.value

    __str__ = __repr__


INFINITE = Infinite.INFINITE


class StabilizationError(ArithmeticError):
    """The truncation sequence of a local length failed to stabilize.

    It is still growing at the proven bound r = d^2 + 1 (d the largest
    generator degree), so the scheme is not zero-dimensional at the origin
    (non-reduced curve or non-isolated singularity)."""


class TruncationTrace(Record):
    """The computed pairs (r, alpha_r), ending at the first repeat.

    ``stabilized_at`` is the first r with alpha_r = alpha_{r+1}; the trace
    includes the confirming pair (r+1, alpha_{r+1}).  ``basis`` is the local
    standard basis the pairs were read from, which a length of a larger
    ideal can continue (``_local_length``'s ``base``); it takes no part in
    equality.
    """

    __slots__ = ("pairs", "stabilized_at", "basis")
    _hidden = ("basis",)

    def __init__(self, pairs: tuple[tuple[int, int], ...], stabilized_at: int,
                 basis: GroebnerBasis | None = None):
        self._set(pairs, stabilized_at, basis)

    @property
    def value(self) -> int:
        return self.pairs[-1][1]

    def alphas(self) -> tuple[int, ...]:
        return tuple(a for _, a in self.pairs)


# ---------------------------------------------------------------------------
# staircase counting


def staircase_length(lt: MonomialIdeal):
    """Number of standard monomials (those outside ``lt``) of a monomial
    ideal in two variables; INFINITE when it is not zero-dimensional."""
    if lt.nvars != 2:
        raise ValueError("staircases are counted in the plane (2 variables)")
    if not is_zero_dimensional(lt):
        return INFINITE
    # every run but the last (height 0) is a finite block of columns
    return sum((stop - start) * height for start, stop, height in _staircase(lt.gens)[:-1])


_LOCAL = MonomialOrder("local")


def _add_run(d2: list[int], start: int, stop: int, height: int | None, n: int):
    """Add to the second-order difference table ``d2`` the columns at degrees
    start .. stop-1 (stop <= n), each adding one to the degrees t .. t +
    height - 1 below n (all of them for a height of None): two ramps."""
    if start >= stop or height == 0:
        return
    d2[start] += 1
    d2[stop] -= 1
    if height is not None and start + height < n:
        d2[start + height] -= 1
        d2[min(stop, n - height) + height] += 1


def _standard_counts(lms: Sequence[Monomial], R: int) -> list[int]:
    """counts[t] = number of monomials x^i y^j of degree t < R that no
    monomial in ``lms`` divides: one trapezoid per staircase run."""
    d2 = [0] * (R + 1)
    for start, stop, height in _staircase(lms):
        _add_run(d2, start, R if stop is None else min(stop, R), height, R)
    return list(accumulate(accumulate(d2[:R])))


def local_length_at_origin(gens: Sequence[Polynomial]):
    """Length at the origin of the scheme cut out by ``gens`` in the plane.

    Computes alpha_r = dim A/(J + m^r) for r = 1, 2, ... and stops at the
    first repeat alpha_r = alpha_{r+1}; that value is the dimension of the
    localization of A/J at O (once two consecutive truncations agree, the
    chain J + m^r is stationary).

    Every alpha_r is read from one standard basis of J + m^R under a local
    degree order, R = d^2 + 1 with d the largest generator degree: it is
    the number of standard monomials of degree < r (the Hilbert-Samuel
    function), and the first repeat is the first degree with no standard
    monomial.  The run lowers R to that degree as soon as the staircase
    closes there, and the standard monomials are counted only up to its
    ``cut`` (one degree more, to confirm the repeat).

    Returns (length, TruncationTrace).  Raises StabilizationError when the
    sequence is still growing at r = d^2 + 1, which happens exactly when
    the scheme fails to be zero-dimensional at the origin: two generic
    combinations of the generators meet at O with multiplicity <= d^2
    (Bezout), so a zero-dimensional length is <= d^2 and the sequence
    stabilizes by r = d^2.  The generators are packed once, for
    ``_local_length``.
    """
    polys = [g for g in gens if not g.is_zero()]
    if any(g.nvars != 2 for g in polys):
        raise ValueError("local lengths are computed in the plane (2 variables)")
    words = _words(_LOCAL, 2)
    return _local_length([_integer_reducer(g, words) for g in polys],
                         max((g.degree() for g in polys), default=0))


def _local_length(reducers: list[tuple], d: int, base: GroebnerBasis | None = None):
    """``local_length_at_origin`` of generators packed under the local order
    in two variables, d their largest degree: the one run, and the only
    raiser of StabilizationError.

    With ``base``, the basis of an earlier length (``TruncationTrace.basis``),
    the run continues it, and the length is that of base's ideal plus the
    generators, as ``analyze``'s tau continues mu's basis with f.  The sum's
    staircase lies inside base's in every degree, so it closes no later,
    and base's cut bounds this read-out too.  d must be at least the degree
    of base's generators (f has degree d, its partials d - 1): base's
    staircase then closed below d^2 + 1, and so does the sum's."""
    bound = max(d * d + 1, 2)  # the trace always holds alpha_1 and alpha_2
    cut = bound if base is None else min(bound, base.cut)
    words = _words(_LOCAL, 2)
    if d >= cut:  # only under base's cut can a term reach it (d < d^2 + 1)
        floor = words.floor(cut)
        reducers = [_primitive_reducer([(lm, lc), *(t for t in tail if t[0] >= floor)])
                    for lm, lc, tail in reducers if lm >= floor]
    if not reducers and base is None:
        raise ValueError("need at least one nonzero generator")
    gb = _buchberger(reducers, words, cut, base) if reducers else base
    lms = gb.leading_monomials()
    R = min(max(gb.cut, 1) + 1, bound)
    counts = _standard_counts(lms, R)
    stable = next((r for r in range(1, R) if counts[r] == 0), None)
    last = R if stable is None else stable + 1
    alphas = list(accumulate(counts[:last]))
    if stable is None:
        raise StabilizationError(
            f"truncation sequence still growing at r = {bound} = d^2 + 1 "
            f"(d = {d}, the largest generator degree); a scheme zero-dimensional "
            "at the origin stabilizes by r = d^2 (proven bound), so this one is not "
            f"(alphas = {alphas})")
    pairs = tuple(zip(range(1, last + 1), alphas))
    return alphas[-1], TruncationTrace(pairs, stabilized_at=stable, basis=gb)


def _length_mod_m2(gens: Sequence[Polynomial]) -> int:
    """alpha_2 = dim A/(J + m^2): the standard monomials of degree < 2 of a
    local standard basis of J + m^2 (3 when no generator reaches below m^2)."""
    polys = [g for g in gens if not g.is_zero()]
    if any(g.nvars != 2 for g in polys):
        raise ValueError("local lengths are computed in the plane (2 variables)")
    polys = [g for g in polys if g.min_degree() < 2]
    if not polys:
        return 3
    lms = buchberger(polys, _LOCAL, cut=2).leading_monomials()
    return sum(_standard_counts(lms, 2))


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


def _slice_dims(lt: MonomialIdeal, t_max: int) -> list[int]:
    """dims[t] for t <= t_max: the number of degree-t standard monomials of a
    monomial ideal in 3 variables.

    Above (a, b) the standard monomials x0^a x1^b x2^c are those with
    c < block, the smallest g[2] over generators with g[0] <= a and
    g[1] <= b: row a is the staircase of those (g[1], g[2]), recomputed only
    where a generator starts.  Each of its runs is one trapezoid (``_add_run``).
    """
    n = t_max + 1
    d2 = [0] * (n + 1)
    starts = {g[0] for g in lt.gens}
    runs = [(0, None, None)]
    for a in range(n):
        if a in starts:
            runs = _staircase([g[1:] for g in lt.gens if g[0] <= a])
        for start, stop, height in runs:
            _add_run(d2, a + start, n if stop is None else min(a + stop, n), height, n)
    return list(accumulate(accumulate(d2[:n])))


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
    gb = buchberger(polys, DEGREVLEX)
    return _slice_dims(leading_term_ideal(gb), t)[t]


def _projective_dimension_at_most_points(lt: MonomialIdeal) -> bool:
    """True iff the monomial ideal cuts out a 0-dimensional (or empty)
    subscheme of P^2, i.e. Krull dim of the quotient is <= 1.

    For a monomial ideal the quotient dimension is the size of the largest
    variable subset S such that no generator is supported inside S; here
    it suffices that every pair of variables supports some generator, that
    is, in three variables, that every variable is missing from some
    generator.
    """
    return all(any(not m[w] for m in lt.gens) for w in range(3))


def global_tjurina(f: Polynomial, with_trace: bool = False):
    """Degree of the Jacobian scheme of the projective curve f = 0.

    This is the eventually constant value of the Hilbert function of
    R/(d0 f, d1 f, d2 f) (the non-saturated Jacobian ideal has the same
    large-degree behaviour as its saturation), reached by degree L - 2, L
    the degree of the lcm of the minimal generators of LT(J).  Returns 0
    for a smooth curve and INFINITE when the Jacobian scheme is not
    zero-dimensional, which for a hypersurface means the curve is
    non-reduced.

    With ``with_trace=True`` returns (value, hf_values): the Hilbert
    function in degrees 0 .. max(3(d-1), L-2), or [] with INFINITE.

    The partials are never built as polynomials: f enters the integer core
    once, through ``groebner._packed_gradient``, which packs the nonzero
    partials straight from f's terms.
    """
    if f.nvars != 3 or f.is_zero():
        raise ValueError("expected a nonzero polynomial in x0, x1, x2")
    if not f.is_homogeneous():
        raise ValueError("the curve must be homogeneous")
    d = f.degree()
    if d < 2:
        raise ValueError("the curve must have degree >= 2")
    words = _words(DEGREVLEX, 3)
    gb = _buchberger(_packed_gradient(f, words), words)  # not all zero (Euler)
    lt = leading_term_ideal(gb)
    if not _projective_dimension_at_most_points(lt):
        return (INFINITE, []) if with_trace else INFINITE
    # L bounds the degree of the Hilbert-series numerator (Taylor resolution);
    # for a scheme of points it is (1-t)^2 times a polynomial of degree
    # <= L - 2, past which the Hilbert function is constant
    L = sum(max(m[v] for m in lt.gens) for v in range(3))
    values = _slice_dims(lt, max(3 * (d - 1), L - 2))
    return (values[-1], values) if with_trace else values[-1]
