"""Closed forms for the three-term family x^a + y^a + x^b y^c.

For a >= 2 and b + c > a this curve has an ordinary singularity of
multiplicity a at the origin, and everything about its Jacobian ideal
J = (f, f_x, f_y) under grlex is known in closed form:

* a case label determined by how b and c sit relative to a (b >= a is its
  own regime, where J = (x^{a-1}, y^{a-1}));
* the reduced Groebner basis of J, assembled from the seven fixed shapes
    F1 = f_x, F2 = f_y, F3 = x^a, F4 = y^a,
    F5 = x^{a-b-1} y^{a-1}, F6 = x^{a-1} y^{a-c-1}, F7 = x^{a-b} y^{a-1};
* the minimal generators of the leading-term ideal;
* the Tjurina number at the origin, a four-branch polynomial in (a,b,c)
  whose minimum over the family is floor((3a^2 - 2a - 4)/4), reached at
  (a/2 + 1, a/2) for even a and ((a+1)/2, (a+1)/2) for odd a.

Everything takes (b, c) up to swapping, since x and y can be exchanged;
parameters are normalized to b >= c on entry.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterator

from ._record import Record
from .groebner import MonomialIdeal, _buchberger, _packed_gradient, _words, leading_term_ideal
from .lengths import _LOCAL, _local_length, staircase_length
from .poly import GRLEX, Polynomial, _norm_coeff


class FamilyCase(Enum):
    BIG_B = "BigB"
    A4 = "A4"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    B4 = "B4"
    B5 = "B5"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"


class FamilyParams(Record):
    """Parameters (a, b, c) with a >= 2 and b + c > a, normalized to b >= c."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if not all(isinstance(v, int) for v in (a, b, c)):
            raise ValueError("need integer a, b, c")
        if a < 2:
            raise ValueError("need a >= 2")
        if b < 0 or c < 0:
            raise ValueError("need b, c >= 0")
        if b + c <= a:
            raise ValueError(f"need b + c > a, got ({a}, {b}, {c})")
        if b < c:
            b, c = c, b
        self._set(a, b, c)

    def curve(self) -> Polynomial:
        """The defining polynomial x^a + y^a + x^b y^c."""
        # valid by construction: b + c > a keeps (b, c) off (a, 0) and (0, a)
        return Polynomial._from_valid(2, {(self.a, 0): 1, (0, self.a): 1, (self.b, self.c): 1})


def family_case(p: FamilyParams) -> FamilyCase:
    """The case label of (a, b, c).

    Columns (for b < a): C when b = a - 1, A when 2b = a + 1, else B; rows:
    6 when c = a - 1, then 2c against a - 1, a, a + 1, else rows 1/5.  At
    a = 3 the boundary conditions overlap and only C6 matches the actual
    reduced basis, so column C and row 6 are tested first.
    """
    a, b, c = p.a, p.b, p.c
    if b >= a:
        return FamilyCase.BIG_B
    if b == a - 1:
        col = "C"
    elif 2 * b == a + 1:
        col = "A"
    else:
        if not 2 * b > a + 1:
            raise AssertionError(f"impossible column for {p}")  # b+c>a, b>=c force 2b>a
        col = "B"
    if c == a - 1:
        row = 6
    elif 2 * c == a - 1:
        row = 2
    elif 2 * c == a:
        row = 3
    elif 2 * c == a + 1:
        row = 4
    elif 2 * c < a - 1:
        row = 1
    else:
        row = 5
    try:
        case = FamilyCase[f"{col}{row}"]
    except KeyError:
        raise AssertionError(f"parameters {p} land in an impossible table cell {col}{row}") from None
    return case


def _shape(p: FamilyParams, i: int) -> Polynomial:
    """The shape F_i of a basis with b < a, made monic under grlex.

    The tables are valid by construction: b < a and b + c > a force
    a > b >= c >= 2, so no exponent is negative and f_y keeps both terms.
    The leading terms of f_x and f_y have degree b + c - 1 >= a, above the
    pure powers of degree a - 1, so dividing by b and by c makes them monic.
    """
    a, b, c = p.a, p.b, p.c
    if i == 1:
        table = {(b - 1, c): 1, (a - 1, 0): _norm_coeff(Fraction(a, b))}
    elif i == 2:
        table = {(b, c - 1): 1, (0, a - 1): _norm_coeff(Fraction(a, c))}
    else:  # F3..F7, as listed in the module docstring
        table = {((a, 0), (0, a), (a - b - 1, a - 1), (a - 1, a - c - 1), (a - b, a - 1))[i - 3]: 1}
    return Polynomial._from_valid(2, table)


_CELL_GENERATORS = {
    FamilyCase.B1: (1, 2, 3, 4, 7),
    FamilyCase.B2: (1, 2, 3, 4, 7),
    FamilyCase.C1: (1, 2, 3, 4, 7),
    FamilyCase.C2: (1, 2, 3, 4, 7),
    FamilyCase.B3: (1, 2, 3, 4, 5),
    FamilyCase.A4: (1, 2, 3, 4, 5, 6),
    FamilyCase.B4: (1, 2, 3, 4, 5, 6),
    FamilyCase.B5: (1, 2, 3, 4, 5, 6),
    FamilyCase.C3: (1, 3, 5, 6),
    FamilyCase.C4: (1, 3, 5, 6),
    FamilyCase.C5: (1, 3, 5, 6),
    FamilyCase.C6: (5, 6),
}


def predicted_gb(p: FamilyParams) -> tuple[Polynomial, ...]:
    """The reduced grlex Groebner basis of the Jacobian ideal, in closed
    form: the case's generator shapes made monic, sorted by decreasing
    leading monomial.  For b >= a the basis is {x^{a-1}, y^{a-1}}."""
    a = p.a
    if p.b >= a:
        gens = [Polynomial._from_valid(2, {(a - 1, 0): 1}),
                Polynomial._from_valid(2, {(0, a - 1): 1})]
    else:
        gens = [_shape(p, i) for i in _CELL_GENERATORS[family_case(p)]]
    gens.sort(key=lambda g: GRLEX.key(g.leading_monomial(GRLEX)), reverse=True)
    return tuple(gens)


def predicted_lt_gens(p: FamilyParams) -> MonomialIdeal:
    """Minimal generators of the leading-term ideal, in closed form."""
    return MonomialIdeal(2, (g.leading_monomial(GRLEX) for g in predicted_gb(p)))


def tjurina_formula(p: FamilyParams) -> int:
    """Tjurina number at the origin of x^a + y^a + x^b y^c, b >= c.

    Four branches (integer comparisons only):
      (a-1)^2                          if b >= a, or b = a-1 and 2c >= a
      b(a-1) + c(a+1) - bc - a + 1     if a+1 < 2b, b <= a-1, 2c <= a-1
      b(a-1) + c(a+1) - bc - a         if a+1 < 2b, b <  a-1, 2c  = a
      b(a-1) + c(a-1) - bc             if a+1 <= 2b, b < a-1, a+1 <= 2c, c < a-1
    """
    a, b, c = p.a, p.b, p.c
    if b >= a or (b == a - 1 and 2 * c >= a):
        return (a - 1) ** 2
    if 2 * b > a + 1 and 2 * c <= a - 1:
        return b * (a - 1) + c * (a + 1) - b * c - a + 1
    if 2 * b > a + 1 and b < a - 1 and 2 * c == a:
        return b * (a - 1) + c * (a + 1) - b * c - a
    if 2 * b >= a + 1 and b < a - 1 and 2 * c >= a + 1 and c < a - 1:
        return b * (a - 1) + c * (a - 1) - b * c
    raise AssertionError(f"parameters {p} match no branch")


def min_tjurina(a: int) -> tuple[int, FamilyParams]:
    """Minimum Tjurina number over the family for fixed a, with the
    parameters attaining it: floor((3a^2 - 2a - 4)/4), at (a/2 + 1, a/2)
    for even a and ((a+1)/2, (a+1)/2) for odd a."""
    if a < 2:
        raise ValueError("need a >= 2")
    value = (3 * a * a - 2 * a - 4) // 4
    if a % 2 == 0:
        argmin = FamilyParams(a, a // 2 + 1, a // 2)
    else:
        argmin = FamilyParams(a, (a + 1) // 2, (a + 1) // 2)
    return value, argmin


# ---------------------------------------------------------------------------
# live verification against the Groebner engine


def admissible_params(a: int) -> Iterator[FamilyParams]:
    """All normalized (a, b, c) with c <= b <= a + 2 and b + c > a, in
    lexicographic order."""
    for b in range(1, a + 3):
        for c in range(0, b + 1):
            if b + c > a:
                yield FamilyParams(a, b, c)


class FamilyVerification(Record):
    __slots__ = ("params", "case", "formula_tau", "live_tau", "gb_match", "lt_match")

    def __init__(self, params: FamilyParams, case: FamilyCase, formula_tau: int,
                 live_tau: int, gb_match: bool | None, lt_match: bool | None):
        self._set(params, case, formula_tau, live_tau, gb_match, lt_match)

    @property
    def ok(self) -> bool:
        return (self.formula_tau == self.live_tau
                and self.gb_match is not False
                and self.lt_match is not False)


def verify_params(p: FamilyParams, check_gb: bool = False,
                  predicted: tuple[Polynomial, ...] | None = None) -> FamilyVerification:
    """Run the live pipeline on one family member and compare with the
    closed forms: Tjurina number always, Groebner basis and leading-term
    ideal when ``check_gb`` is set (the GB prediction applies to b < a).
    ``predicted`` is predicted_gb(p), if the caller has built it.

    One Groebner run on f and its gradient: the local standard basis, or
    with ``check_gb`` the grlex basis, whose staircase is tau, as in the
    paper.  Since a*f - x*f_x - y*f_y = (a-b-c) x^b y^c, f, x*f_x and y*f_y
    span x^a, y^a, x^b y^c with determinant a(a-b-c), nonzero for b + c > a;
    so x^a, y^a lie in J, and J is supported at O alone.  The same identity
    gives the run its first generator: ``_packed_gradient`` packs f's Euler
    remainder, here the monomial x^b y^c, in place of f."""
    f = p.curve()
    gb_match = lt_match = None
    if check_gb:
        words = _words(GRLEX, 2)
        gb = _buchberger(_packed_gradient(f, words, with_f=True), words)
        lt = leading_term_ideal(gb)
        live_tau = staircase_length(lt)
        if p.b < p.a:
            if predicted is None:
                predicted = predicted_gb(p)
            # a caller's predicted basis may come in another order
            gb_match = set(gb.generators) == set(predicted)
            # equal bases have the same minimal leading monomials
            lt_match = gb_match or lt == MonomialIdeal(
                2, (g.leading_monomial(GRLEX) for g in predicted))
        else:
            # for b >= a, J = (x^{a-1}, y^{a-1}) globally, as J is supported
            # at O alone; its staircase count reads no generator
            lt_match = live_tau == (p.a - 1) ** 2
    else:
        live_tau = _local_length(_packed_gradient(f, _words(_LOCAL, 2), with_f=True),
                                 f.degree())[0]
    return FamilyVerification(p, family_case(p), tjurina_formula(p), live_tau,
                              gb_match, lt_match)
