"""Lengths of zero-dimensional schemes.

Staircase counting on the leading-term ideals of the plane, and the
truncation sequence alpha_r = dim A/(J + m^r) whose stabilized value is the
length of the component of A/J at the origin (truncating by powers of the
maximal ideal kills every component away from O), read from one standard
basis of J + m^R under the local degree order ``MonomialOrder("local")``,
which a run uses only under that cut R.  The Macaulay-matrix oracle that
cross-checks these numbers lives with the tests (``tests/reference.py``).

Also here: graded Hilbert functions in three variables and the global
Tjurina number of a projective plane curve (the eventually constant value
of the Hilbert function of the Jacobian quotient).
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate
from math import comb
from typing import Sequence

from ._record import Record, _setattr
from .groebner import (
    GroebnerBasis,
    MonomialIdeal,
    MonomialRangeError,
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
from .poly import DEGREVLEX, Monomial, MonomialOrder, Polynomial


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
    (non-reduced curve or non-isolated singularity).  The text lists the
    alphas, the first 1000 only and then ``...`` when d^2 + 1 > 1000."""


_SHOWN = 1000  # the most alphas a StabilizationError text lists


class TruncationTrace(Record):
    """The computed pairs (r, alpha_r), ending at the first repeat.

    ``stabilized_at`` is the first r with alpha_r = alpha_{r+1}; the trace
    includes the confirming pair (r+1, alpha_{r+1}).  ``basis`` is the local
    standard basis the pairs were read from; it takes no part in equality,
    and is None where no run made the trace: ``analyze`` gives
    the Milnor trace of every ordinary point in closed form, from the
    tangent cone.  A trace read off a staircase (``_read``), a run's or
    that closed form's, counts its pairs, one per degree, when they are
    first read, so a caller that reads only the length never builds them.
    """

    __slots__ = ("pairs", "stabilized_at", "basis", "_lms")
    _hidden = ("basis", "_lms")

    def __init__(self, pairs: tuple[tuple[int, int], ...], stabilized_at: int,
                 basis: GroebnerBasis | None = None):
        self._set(pairs, stabilized_at, basis)

    @classmethod
    def _read(cls, lms: Sequence[Monomial], cut: int,
              basis: GroebnerBasis | None = None) -> TruncationTrace:
        """The trace of the staircase of ``lms``, which closes at ``cut``."""
        self = cls.__new__(cls)
        _setattr(self, "stabilized_at", max(cut, 1))  # the unit ideal's closes at 0
        _setattr(self, "basis", basis)
        _setattr(self, "_lms", lms)
        return self

    def __getattr__(self, name):  # only a field never set gets here
        if name != "pairs":
            raise AttributeError(name)
        n = self.stabilized_at + 1
        alphas = accumulate(_standard_counts(self._lms, n))
        pairs = tuple(zip(range(1, n + 1), alphas))
        _setattr(self, "pairs", pairs)
        return pairs

    def __reduce__(self):  # the pairs, read now, stand for the staircase
        return type(self), (self.pairs, self.stabilized_at, self.basis)

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
    return _area(lt.gens)


def _area(lms: Sequence[Monomial]) -> int:
    """The number of standard monomials of a zero-dimensional monomial ideal
    in the plane: every run of its staircase but the last (height 0) is a
    finite block of columns."""
    return sum((stop - start) * height for start, stop, height in _staircase(lms)[:-1])


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
    closes there, so its final ``cut`` is the stabilization index (1 for
    the unit ideal, whose staircase closes at 0), and the standard
    monomials are counted only up to it, one degree more to confirm the
    repeat.

    Returns (length, TruncationTrace).  Raises StabilizationError when the
    sequence is still growing at r = d^2 + 1 (the cut never fell below it),
    which happens exactly when the scheme fails to be zero-dimensional at
    the origin: two generic combinations of the generators meet at O with
    multiplicity <= d^2 (Bezout), so a zero-dimensional length is <= d^2
    and the sequence stabilizes by r = d^2.  Its text lists at most 1000
    alphas.  From d = 23,171 the run starts at 2^29, and a sequence still
    growing there raises MonomialRangeError.  The generators are packed
    once, for ``_local_length``, which reads d off them.
    """
    polys = [g for g in gens if not g.is_zero()]
    if any(g.nvars != 2 for g in polys):
        raise ValueError("local lengths are computed in the plane (2 variables)")
    words = _words(_LOCAL, 2)
    return _local_length([_integer_reducer(g, words) for g in polys])


def _local_length(reducers: list[tuple]):
    """``local_length_at_origin`` of generators packed under the local order
    in two variables: the one run, and the only raiser of
    StabilizationError.  It reads d, the largest generator degree, off the
    reducers: under the local order a reducer's last term has its largest
    degree.  The stabilization index is the run's final cut (at least 1).
    The run starts at the bound d^2 + 1, clamped to 2^29, the largest cut
    the packed words hold (d >= 23,171 passes it).  A staircase closing below
    any cut N certifies the index: if every monomial of degree k < N leads
    in J + m^N, m^k lies in J + m^(k+1), so in J in the local ring
    (Nakayama).  The length fails when the final cut reaches d^2 + 1, and
    raises MonomialRangeError, before any count is read, when it reaches
    only the clamp.  Otherwise the length is the area of the staircase
    closed at the final cut, and the trace's pairs are counted from the
    basis only when read (``TruncationTrace._read``)."""
    if not reducers:
        raise ValueError("need at least one nonzero generator")
    words = _words(_LOCAL, 2)
    d = max(sum(words.exponents(tail[-1][0] if tail else lm)) for lm, _, tail in reducers)
    bound = max(d * d + 1, 2)  # the trace always holds alpha_1 and alpha_2
    clamp = min(bound, 1 << words.bits - 1)
    if d >= clamp:  # only under the clamp can a term reach the cut
        floor = words.floor(clamp)
        reducers = [_primitive_reducer([(lm, lc), *(t for t in tail if t[0] >= floor)])
                    for lm, lc, tail in reducers if lm >= floor]
    gb = _buchberger(reducers, words, clamp)
    if clamp < bound and gb.cut >= clamp:
        raise MonomialRangeError(
            f"cut {bound} = d^2 + 1 (d = {d}, the largest generator degree) outside the "
            f"packed field range: the truncation sequence is still growing at r = {clamp}, "
            "the largest cut the packed words hold, so its length is undecided")
    if gb.cut >= bound:
        alphas = list(accumulate(_standard_counts(gb.leading_monomials(), min(bound, _SHOWN))))
        shown = str(alphas)[:-1] + (", ...]" if bound > _SHOWN else "]")
        raise StabilizationError(
            f"truncation sequence still growing at r = {bound} = d^2 + 1 "
            f"(d = {d}, the largest generator degree); a scheme zero-dimensional "
            "at the origin stabilizes by r = d^2 (proven bound), so this one is not "
            f"(alphas = {shown})")
    # the staircase closes at the final cut: the length is its area, and the
    # trace counts its pairs from the basis only when they are read
    lms = gb.leading_monomials()
    return _area(lms), TruncationTrace._read(lms, gb.cut, gb)


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
