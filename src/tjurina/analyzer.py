"""Per-point analysis of plane curve singularities.

Everything is exact and local.  One germ per point: each per-point function
moves f from a rational point to the origin once, into a private record of
the translate, its multiplicity and its partials, and reads the invariants
off ideals in Q[x,y].  The report of ``analyze`` keeps that germ.

* multiplicity and ordinariness (squarefreeness of the initial form);
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
from .lengths import StabilizationError, TruncationTrace, _length_mod_m2, local_length_at_origin
from .poly import Polynomial, translate_to_origin

Point = tuple

# -- classification values ---------------------------------------------------


class OffCurveError(ValueError):
    """The point given to ``classify_double_point`` is not on the curve."""


class Classification(Record):
    """Singularity type tag: smooth, A_n (n = tau for double points),
    ordinary or non-ordinary multiple point of the given multiplicity."""

    __slots__ = ("kind", "index")  # kind: "smooth" | "A_n" | "ordinary" | "non_ordinary"

    def __init__(self, kind: str, index: int | None = None):
        self._set(kind, index)

    def __str__(self):
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
    """What ``analyze`` found at a point.  The ``germ`` it was read from takes
    no part in equality, hash or repr."""

    __slots__ = ("point", "multiplicity", "is_on_curve", "ordinary", "tjurina", "milnor",
                 "symmetry_order", "classification", "tjurina_trace", "milnor_trace", "germ")
    _hidden = ("germ",)

    def __init__(self, point: Point, multiplicity: int, is_on_curve: bool,
                 ordinary: bool | None, tjurina: int, milnor: int,
                 symmetry_order: int | None, classification: Classification,
                 tjurina_trace: TruncationTrace, milnor_trace: TruncationTrace,
                 germ: _Germ | None = None):
        self._set(point, multiplicity, is_on_curve, ordinary, tjurina, milnor,
                  symmetry_order, classification, tjurina_trace, milnor_trace, germ)


# -- basic local data ---------------------------------------------------------


class _Germ:
    """A nonzero curve f moved from a rational point to the origin, as every
    per-point invariant reads it: the translate g, its multiplicity m (0 off
    the curve) and its partials gx, gy."""

    __slots__ = ("point", "g", "m", "gx", "gy")

    def __init__(self, f: Polynomial, point: Point,
                 zero: str = "the zero polynomial does not define a curve"):
        if f.is_zero():
            raise ValueError(zero)
        g = self.g = translate_to_origin(f, point)
        self.point, self.m = tuple(point), g.min_degree()
        self.gx, self.gy = g.partial_derivative(0), g.partial_derivative(1)

    def where(self) -> str:
        return "(" + ",".join(str(c) for c in self.point) + ")"

    def ordinary(self, test: str) -> bool:
        """True iff the tangent cone consists of distinct lines (squarefree
        initial form); ``test`` names the question off singular points."""
        if self.m < 2:
            raise ValueError(f"{test} is defined at singular points (multiplicity >= 2)")
        return squarefree_binary_form(self.g.homogeneous_component(self.m))

    def length(self, gens: list[Polynomial], failure: str) -> tuple[int, TruncationTrace]:
        """``local_length_at_origin(gens)``, whose StabilizationError names the point."""
        try:
            return local_length_at_origin(gens)
        except StabilizationError as e:
            raise StabilizationError(f"{failure} at {self.where()}: {e}") from e


def multiplicity_at(f: Polynomial, point: Point) -> int:
    """Least degree of a nonzero homogeneous component after translating
    the point to the origin; 0 means the point is off the curve."""
    return _Germ(f, point, "multiplicity of the zero polynomial is undefined").m


def is_ordinary(f: Polynomial, point: Point) -> bool:
    """True iff the tangent cone at a singular point consists of distinct
    lines (squarefree initial form), the test ``is_slci`` and ``analyze``
    read too.  Requires multiplicity >= 2."""
    return _Germ(f, point).ordinary("ordinariness")


def local_tjurina(f: Polynomial, point: Point) -> tuple[int, TruncationTrace]:
    """Length at the point of the Jacobian scheme of (f, f_x, f_y).

    Zero iff the point is smooth or off the curve.  Raises
    StabilizationError if the curve is not reduced at the point.
    """
    germ = _Germ(f, point)
    return germ.length([germ.g, germ.gx, germ.gy], "curve not reduced")


def local_milnor(f: Polynomial, point: Point) -> tuple[int, TruncationTrace]:
    """Length at the point of the Milnor scheme of (f_x, f_y)."""
    germ = _Germ(f, point)
    return germ.length([germ.gx, germ.gy], "non-isolated critical point")


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
    return _symmetry_order(gens)


def _symmetry_order(gens: Sequence[Polynomial]) -> int | None:
    """The core of ``k_symmetry_order``, for a scheme zero-dimensional at O."""
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
    return _Germ(f, point).ordinary("slci test")


def embedding_dimension(gens: Sequence[Polynomial]) -> int:
    """Local embedding dimension at O of a zero-dimensional scheme:
    0 for the reduced point (or empty scheme), 1 for a curvilinear tangent
    space, 2 for a fat one.  Computed as alpha_2 - 1, with alpha_2 read
    from a local standard basis of J + m^2."""
    return max(0, _length_mod_m2(gens) - 1)


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
    germ = _Germ(f, point)
    if germ.m == 0:
        raise OffCurveError(f"point {germ.where()} is not on the curve")
    if germ.m == 1:
        return SimplePoint(tangent=germ.g.homogeneous_component(1))
    if germ.m >= 3:
        return MultiplicityAtLeastThree(multiplicity=germ.m)
    n, _trace = germ.length([germ.g, germ.gx, germ.gy], "curve not reduced")
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

    The Milnor number mu is computed first; the Tjurina number tau then
    continues mu's local standard basis with f alone, since (f_x, f_y)
    lies inside (f, f_x, f_y).  When mu fails, tau is computed from
    scratch, so a non-reduced input produces one diagnostic naming
    everything that went wrong (tau's failure first).  At m >= 2 the
    level-(m-1) forms of (f, f_x, f_y) are the partials of the initial
    form, so one gcd decides ordinariness and the symmetry order (m - 1
    when ordinary, else None), both at the point alone.  A violation of
    tau <= mu, or of mu = (m-1)^2 at an ordinary point, raises
    AssertionError.
    """
    if f.degree() == 0:  # the zero polynomial has degree None: _Germ refuses it
        raise ValueError("a nonzero constant defines the empty curve")
    germ = _Germ(f, point)
    g, m, gx, gy = germ.g, germ.m, germ.gx, germ.gy

    errors = []
    mu_trace = None
    try:
        mu, mu_trace = local_length_at_origin([gx, gy])
    except StabilizationError as e:
        errors.append(f"milnor: {e}")
    try:
        if mu_trace is None:
            tau, tau_trace = local_length_at_origin([g, gx, gy])
        else:  # (f_x, f_y) lies inside (f, f_x, f_y): continue mu's basis with f
            tau, tau_trace = local_length_at_origin([g], base=mu_trace.basis)
    except StabilizationError as e:
        errors.insert(0, f"tjurina: {e}")
    if errors:  # off the curve, (f) is the unit ideal: only mu can fail
        where = (f"point {germ.where()} is not on the curve, and f has a non-isolated "
                 "critical point there" if m == 0 else f"curve not reduced at {germ.where()}")
        raise StabilizationError(f"{where}: " + "; ".join(errors))

    ordinary = symmetry = None
    if m >= 2:
        ordinary = germ.ordinary("ordinariness")
        symmetry = m - 1 if ordinary else None

    if m <= 1:
        classification = Classification("smooth")
    elif m == 2:
        classification = Classification("A_n", tau)
    elif ordinary:
        classification = Classification("ordinary", m)
    else:
        classification = Classification("non_ordinary", m)

    if not tau <= mu:
        raise AssertionError(f"Tjurina number {tau} exceeds Milnor number {mu}")
    if ordinary and mu != (m - 1) ** 2:
        raise AssertionError(f"ordinary point with mu = {mu} != (m-1)^2 = {(m - 1) ** 2}")

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
        germ=germ,
    )
