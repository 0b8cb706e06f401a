"""Per-point analysis of plane curve singularities.

Everything is exact and local.  One germ per point: each per-point function
moves f from a rational point to the origin once, into a private record of
an integer multiple of the translate, packed with its gradient for the
local lengths, and reads the invariants off ideals in Q[x,y].

* multiplicity and ordinariness (squarefreeness of the initial form), which
  ``is_ordinary``, ``is_slci`` and ``analyze`` decide by one gcd of binary
  forms; at an ordinary point ``analyze`` reads mu = (m-1)^2 and its trace
  off the tangent cone, with no local run, and tau too at m <= 4;
* the Tjurina number tau = length at O of (f, f_x, f_y) and the Milnor
  number mu = length at O of (f_x, f_y), both via truncation traces;
* symmetry order of a zero-dimensional scheme (the common length of its
  intersection with every line through O, when that is constant), decided
  symbolically by one gcd of binary forms over Q, never by sampling slopes;
* the double-point classifier: a double point is A_n with n = tau, the
  stabilized truncation value of (f, f_x, f_y);
* the nodes-only criterion tau = C(d-1, 2) - g for irreducible curves of
  degree d and geometric genus g without infinitely near singular points.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from ._record import Record
from .binforms import common_factor_degree, squarefree_binary_form
from .groebner import _packed_gradient, _words
from .lengths import (_LOCAL, StabilizationError, TruncationTrace, _local_length,
                      local_length_at_origin)
from .poly import Polynomial, _integer_table, _integer_translate, _ratio

Point = tuple

# -- classification values ---------------------------------------------------


class OffCurveError(ValueError):
    """The point given to ``classify_double_point`` is not on the curve."""


class Classification(Record):
    """Singularity type tag: off the curve, smooth, A_n (n = tau for double
    points), ordinary or non-ordinary multiple point of the given
    multiplicity."""

    # kind: "off_curve" | "smooth" | "A_n" | "ordinary" | "non_ordinary"
    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int | None = None):
        self._set(kind, index)

    def __str__(self):
        if self.kind == "off_curve":
            return "not on the curve"
        if self.kind == "smooth":
            return "smooth point"
        if self.kind == "A_n":
            return "node (A_1)" if self.index == 1 else f"A_{self.index}"
        if self.kind == "ordinary":
            return f"ordinary multiple point (m = {self.index})"
        return f"non-ordinary multiple point (m = {self.index})"


class SimplePoint(Record):
    """Algorithm outcome: a smooth point, with its tangent line (the
    vanishing of the linear part at the point)."""

    __slots__ = ("tangent",)

    def __init__(self, tangent: Polynomial):
        self._set(tangent)


class DoubleA(Record):
    """Algorithm outcome: a double point of type A_n."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self._set(n)


class MultiplicityAtLeastThree(Record):
    """Algorithm outcome: multiplicity >= 3, outside the double-point case."""

    __slots__ = ("multiplicity",)

    def __init__(self, multiplicity: int):
        self._set(multiplicity)


class SingularityReport(Record):
    """What ``analyze`` found at a point, as plain data.  At an ordinary
    point the Milnor trace is read off the tangent cone and has no basis; at
    multiplicity m <= 4 the Tjurina trace is that same trace."""

    __slots__ = ("point", "multiplicity", "is_on_curve", "ordinary", "tjurina", "milnor",
                 "symmetry_order", "classification", "tjurina_trace", "milnor_trace")

    def __init__(self, point: Point, multiplicity: int, is_on_curve: bool,
                 ordinary: bool | None, tjurina: int, milnor: int,
                 symmetry_order: int | None, classification: Classification,
                 tjurina_trace: TruncationTrace, milnor_trace: TruncationTrace):
        self._set(point, multiplicity, is_on_curve, ordinary, tjurina, milnor,
                  symmetry_order, classification, tjurina_trace, milnor_trace)


# -- basic local data ---------------------------------------------------------


_ZERO = "the zero polynomial does not define a curve"


class _Germ:
    """A nonzero curve f moved from a rational point to the origin, as every
    per-point invariant reads it: h = scale * g, a positive integer multiple
    of the translate g (multiplicity, tangent cone and lengths do not see a
    nonzero scalar), and its multiplicity m (0 off the curve); it keeps no
    degree, which each local run reads off its own generators.

    f comes as an integer term table T in x, y and a denominator D > 0, f =
    T/D, as ``exprio._parse`` gives it; ``of`` converts a Polynomial."""

    __slots__ = ("point", "h", "scale", "m")

    def __init__(self, table: dict, den: int, point: Point, zero: str = _ZERO):
        if not table:
            raise ValueError(zero)
        h, self.scale = _integer_translate(table, den, point)
        self.h, self.point, self.m = h, tuple(point), h.min_degree()

    @classmethod
    def of(cls, f: Polynomial, point: Point, zero: str = _ZERO) -> _Germ:
        """The germ of a Polynomial in x, y."""
        if f.nvars != 2:
            raise ValueError("translation is defined for affine 2-variable polynomials")
        return cls(*_integer_table(f), point, zero)

    def where(self) -> str:
        return "(" + ",".join(str(c) for c in self.point) + ")"

    def tangent(self) -> Polynomial:
        """The linear part of the translate g, exact: the one rational output."""
        return Polynomial._from_valid(
            2, {m: _ratio(c, self.scale) for m, c in self.h.terms() if sum(m) == 1})

    def ordinary(self, test: str) -> bool:
        """True iff the tangent cone consists of distinct lines (squarefree
        initial form); ``test`` names the question off singular points."""
        if self.m < 2:
            raise ValueError(f"{test} is defined at singular points (multiplicity >= 2)")
        return squarefree_binary_form(self.h.homogeneous_component(self.m))

    def packed(self) -> list[tuple]:
        """The reducers of h's Euler remainder m*h - x*h_x - y*h_y (of h
        itself when m = 0 or h is homogeneous) and of h's nonzero partials,
        packed once under the local order: they generate the ideal of h and
        its partials, and a run reads its degree bound off them."""
        return _packed_gradient(self.h, _words(_LOCAL, 2), with_f=True)

    def length(self, jacobian: bool) -> tuple[int, TruncationTrace]:
        """The local length of (h, h_x, h_y), or of (h_x, h_y), whose
        StabilizationError names the point and what fails there."""
        packed = self.packed()
        try:
            return _local_length(packed if jacobian else packed[1:])
        except StabilizationError as e:
            failure = "curve not reduced" if jacobian else "non-isolated critical point"
            raise StabilizationError(f"{failure} at {self.where()}: {e}") from e


def multiplicity_at(f: Polynomial, point: Point) -> int:
    """Least degree of a nonzero homogeneous component after translating
    the point to the origin; 0 means the point is off the curve."""
    return _Germ.of(f, point, "multiplicity of the zero polynomial is undefined").m


def is_ordinary(f: Polynomial, point: Point) -> bool:
    """True iff the tangent cone at a singular point consists of distinct
    lines (squarefree initial form), the test ``is_slci`` and ``analyze``
    read too.  Requires multiplicity >= 2."""
    return _Germ.of(f, point).ordinary("ordinariness")


def local_tjurina(f: Polynomial, point: Point) -> tuple[int, TruncationTrace]:
    """Length at the point of the Jacobian scheme of (f, f_x, f_y).

    Zero iff the point is smooth or off the curve.  Raises
    StabilizationError if the curve is not reduced at the point.
    """
    return _Germ.of(f, point).length(True)


def local_milnor(f: Polynomial, point: Point) -> tuple[int, TruncationTrace]:
    """Length at the point of the Milnor scheme of (f_x, f_y)."""
    return _Germ.of(f, point).length(False)


# -- symmetry and slci tests ---------------------------------------------------


def k_symmetry_order(gens: Sequence[Polynomial]) -> int | None:
    """The k such that the scheme at O meets *every* line through O in
    length exactly k, or None if no such k exists.

    The valuation of a generator along a line through O is at least its
    order, so the scheme meets every line in length at least
    k = min ord(g_i), and exactly k unless the line divides every level-k
    form (the degree-k components of the generators).  So the answer is k
    iff those binary forms share no linear factor, decided by one gcd over
    Q that counts the vertical line too.  (A gcd over Q detects all complex
    roots, so no line is special over C either; components of the scheme
    away from the origin cannot change any valuation at O.)

    Raises ValueError unless the scheme is zero-dimensional at O, as
    decided by the proven bound of ``local_length_at_origin``.
    """
    try:
        local_length_at_origin(gens)
    except StabilizationError as e:
        raise ValueError(f"the scheme is not zero-dimensional at the origin: {e}") from e
    polys = [g for g in gens if not g.is_zero()]
    k = min(g.min_degree() for g in polys)
    level = [init for g in polys if not (init := g.homogeneous_component(k)).is_zero()]
    return k if common_factor_degree(level) == 0 else None


def is_slci(f: Polynomial, point: Point) -> bool:
    """True iff the Milnor scheme at a singular point of multiplicity m is a
    local complete intersection of two multiplicity-(m-1) curves with no
    common tangent: the partials have initial forms h_x and h_y, for the
    initial form h, that share no line.  By Euler's relation m*h = x*h_x +
    y*h_y that is ``is_ordinary``'s test, h squarefree."""
    return _Germ.of(f, point).ordinary("slci test")


def embedding_dimension(gens: Sequence[Polynomial]) -> int:
    """Local embedding dimension at O of a zero-dimensional scheme:
    0 for the reduced point (or empty scheme), 1 for a curvilinear tangent
    space, 2 for a fat one.  That is dim m/(m^2 + J), read off the
    generators' lowest terms: 0 when one is a unit at O, else 2 minus the
    rank of their linear parts, each the row (coefficient of x, of y)."""
    polys = [g for g in gens if not g.is_zero()]
    if any(g.nvars != 2 for g in polys):
        raise ValueError("local lengths are computed in the plane (2 variables)")
    if any(g.coefficient((0, 0)) for g in polys):
        return 0
    rows = [(g.coefficient((1, 0)), g.coefficient((0, 1))) for g in polys]
    if any(a * d != b * c for a, b in rows for c, d in rows):
        return 0
    return 1 if any(any(row) for row in rows) else 2


# -- the double-point algorithm -------------------------------------------------


def classify_double_point(f: Polynomial, point: Point):
    """Decide whether a curve point is simple, a double point A_n, or of
    multiplicity >= 3.

    After translating the point to the origin: a nonzero linear part means
    a simple point (tangent = that linear part, centred at the point); a
    vanishing quadratic part means multiplicity >= 3; otherwise the point
    is double, and the stabilized truncation value n of the Jacobian ideal
    (f, f_x, f_y) is its type A_n (the Jacobian scheme of a double point
    is curvilinear of length n exactly for A_n).  Raises OffCurveError off
    the curve, and ``local_tjurina``'s StabilizationError if it is not reduced.
    """
    return _classify(_Germ.of(f, point))


def _classify(germ: _Germ):
    """``classify_double_point`` of a germ, which the CLI builds from its
    parsed table."""
    if germ.m == 0:
        raise OffCurveError(f"point {germ.where()} is not on the curve")
    if germ.m == 1:
        return SimplePoint(tangent=germ.tangent())
    if germ.m >= 3:
        return MultiplicityAtLeastThree(multiplicity=germ.m)
    n, _trace = germ.length(True)
    return DoubleA(n=n)


def nodes_only_check(d: int, g: int, tau: int) -> bool:
    """For an irreducible degree-d curve of geometric genus g with no
    infinitely near singular points: nodes only iff tau = C(d-1,2) - g."""
    if d < 1 or g < 0 or tau < 0:
        raise ValueError("need d >= 1, g >= 0, tau >= 0")
    expected = comb(d - 1, 2) - g
    if expected < 0:
        raise ValueError(f"inconsistent inputs: C({d-1},2) - {g} < 0")
    return tau == expected


# -- the full report -------------------------------------------------------------


def analyze(f: Polynomial, point: Point) -> SingularityReport:
    """Complete singularity report for a curve at a rational point.

    At a point of multiplicity m >= 2 the gcd of binary forms decides
    first whether the initial form h is squarefree (ordinariness).  The
    partials have multiplicity m - 1 and initial forms h_x and h_y, so mu =
    I_O(f_x, f_y) >= (m-1)^2, with equality iff h_x and h_y share no line
    (Fulton, "Algebraic Curves", §3.3), that is, by Euler's relation, iff h
    is squarefree.  So an ordinary point has mu = (m-1)^2 and symmetry
    order m - 1, and a non-ordinary one mu > (m-1)^2 and no symmetry order.

    At an ordinary point mu takes a closed form with no local run.  Let
    J = (f_x, f_y) in the local ring at O.

    1. h_x and h_y are coprime forms of degree m - 1 (above), so a regular
       sequence: they generate the tangent-cone ideal of J (its initial
       forms), whose quotient has the Hilbert function HF(t) = min(t+1,
       2m-3-t) for t < 2m-3 and 0 from t = 2m-3 on, that of the staircase
       of (x^(m-1), y^(m-1)).  mu's trace is read off that staircase,
       closed at 2m-3, as a run's trace is read off its basis: it has no
       basis, and its pairs are built only when read.
    2. HF vanishes from degree 2m-3 on, so every monomial of that degree
       lies in J + m^(2m-2), and m^(2m-3) lies in J by Nakayama.
    3. The Euler remainder r = m*f - x*f_x - y*f_y has no term below degree
       m + 1, and m + 1 >= 2m-3 for m <= 4, so there r lies in J, (f, f_x,
       f_y) = J, and tau = mu with the same trace.

    At an ordinary point of multiplicity m >= 5 (where the paper's minimum
    tau = floor((3m^2-2m-4)/4) lies below (m-1)^2) tau is one local run
    from scratch.  Elsewhere (m <= 1, or a non-ordinary point) mu and then
    tau are each one local run from scratch, tau's from (r, f_x, f_y), with
    f itself for r when m = 0 or r = 0.  Both run even when one fails, so
    a non-reduced input produces one diagnostic naming everything that
    went wrong (tau's failure first).  A violation of tau <= mu, or of mu >
    (m-1)^2 at a non-ordinary point, raises AssertionError.
    """
    if f.degree() == 0:  # the zero polynomial has degree None: _Germ refuses it
        raise ValueError("a nonzero constant defines the empty curve")
    return _analyze(_Germ.of(f, point))


def _analyze(germ: _Germ) -> SingularityReport:
    """``analyze`` of a nonconstant germ, which the CLI builds from its
    parsed table."""
    m = germ.m
    ordinary = germ.ordinary("ordinariness") if m >= 2 else None
    if ordinary:  # mu and its trace off the tangent cone, tau too at m <= 4
        mu = (m - 1) ** 2
        mu_trace = TruncationTrace._read(((m - 1, 0), (0, m - 1)), 2 * m - 3)
        tau, tau_trace = (mu, mu_trace) if m <= 4 else germ.length(True)
    else:
        tau, tau_trace, mu, mu_trace = _run_lengths(germ)
    symmetry = m - 1 if ordinary else None

    if m == 0:
        classification = Classification("off_curve")
    elif m == 1:
        classification = Classification("smooth")
    elif m == 2:
        classification = Classification("A_n", tau)
    elif ordinary:
        classification = Classification("ordinary", m)
    else:
        classification = Classification("non_ordinary", m)

    if not tau <= mu:
        raise AssertionError(f"Tjurina number {tau} exceeds Milnor number {mu}")
    if m >= 2 and not ordinary and mu <= (m - 1) ** 2:
        raise AssertionError(f"mu = {mu} <= (m-1)^2 = {(m - 1) ** 2} at a non-ordinary "
                             f"point of multiplicity {m}")

    return SingularityReport(
        point=germ.point,
        multiplicity=m,
        is_on_curve=m >= 1,
        ordinary=ordinary,
        tjurina=tau,
        milnor=mu,
        symmetry_order=symmetry,
        classification=classification,
        tjurina_trace=tau_trace,
        milnor_trace=mu_trace,
    )


def _run_lengths(germ: _Germ) -> tuple:
    """tau, its trace, mu and its trace by two local runs from scratch:
    mu's from the packed partials, then tau's from those and the packed
    Euler remainder."""
    m, packed = germ.m, germ.packed()

    errors = []
    try:
        mu, mu_trace = _local_length(packed[1:])
    except StabilizationError as e:
        errors.append(f"milnor: {e}")
    try:
        tau, tau_trace = _local_length(packed)
    except StabilizationError as e:
        errors.insert(0, f"tjurina: {e}")
    if errors:  # off the curve, (f) is the unit ideal: only mu can fail
        where = (f"point {germ.where()} is not on the curve, and f has a non-isolated "
                 "critical point there" if m == 0 else f"curve not reduced at {germ.where()}")
        raise StabilizationError(f"{where}: " + "; ".join(errors))
    return tau, tau_trace, mu, mu_trace
