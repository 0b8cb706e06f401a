"""Buchberger's algorithm and reduced Groebner bases over Q.

The engine returns the unique *reduced* basis: monic generators,
pairwise inter-reduced, sorted by decreasing leading monomial.  With a
degree cut it returns a minimal standard basis in Q[x]/m^cut instead (see
``buchberger``).  Pair selection follows the normal strategy (lowest lcm
degree first, then smallest lcm); useless pairs are pruned with the
coprimality criterion and the chain criterion, and S-polynomials of two
monomials are skipped outright since they vanish identically.

The reduction core is fraction-free.  Inside ``buchberger`` every basis
element is a primitive integer term table (coprime integer coefficients,
positive leading coefficient), S-polynomials are built from the term
tables with integer cofactors, and ``_normal_form`` reduces by scaled
pseudo-division, so every remainder it returns is an integer multiple of
the rational one.  Rationals appear only at the boundary: the generators
of a ``GroebnerBasis`` are made monic when it is built, and ``divide`` and
``s_polynomial`` clear denominators on the way in and divide them back out
on the way out.

``VERIFY_BASES`` turns on a full postcondition check on every emitted
basis (reducedness invariants plus reduction of every S-polynomial to
zero).  It is meant for test runs; the check costs another pass over all
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import neg
from typing import Iterable, Sequence

from .poly import (
    GRLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

VERIFY_BASES = False


@dataclass(frozen=True)
class GroebnerBasis:
    """An ordered generator set together with its monomial order."""

    order: MonomialOrder
    generators: tuple[Polynomial, ...]
    reduced: bool

    @property
    def nvars(self) -> int:
        return self.generators[0].nvars

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


class MonomialIdeal:
    """A monomial ideal, kept as its minimal (antichain) generator set.

    The empty generator set represents the zero ideal.
    """

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, monomials: Iterable[Monomial] = ()):
        self.nvars = nvars
        minimal: list[Monomial] = []
        for m in sorted(set(tuple(m) for m in monomials), key=sum):
            if len(m) != nvars:
                raise ValueError("generator arity does not match variable count")
            if not any(monomial_divides(g, m) for g in minimal):
                minimal.append(m)
        self.gens = frozenset(minimal)

    def contains_monomial(self, m: Monomial) -> bool:
        return any(monomial_divides(g, m) for g in self.gens)

    def sorted_gens(self) -> list[Monomial]:
        return sorted(self.gens, key=GRLEX.key, reverse=True)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gens == other.gens

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        names = ("x", "y") if self.nvars == 2 else tuple(f"x{i}" for i in range(self.nvars))
        def fmt(m):
            s = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e)
            return s or "1"
        return "MonomialIdeal(" + ", ".join(fmt(m) for m in self.sorted_gens()) + ")"


# ---------------------------------------------------------------------------
# integer reducers


def _integer_terms(terms: dict, lm: Monomial | None = None) -> tuple[dict, Fraction]:
    """(table, u): the primitive integer term table table = u * terms, with a
    positive coefficient at ``lm`` when given."""
    den = lcm(*(c.denominator for c in terms.values()))
    table = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = gcd(*table.values()) or 1
    if lm is not None and table[lm] < 0:
        g = -g
    return {m: c // g for m, c in table.items()}, Fraction(den, g)


def _integer_reducer(p: Polynomial, order: MonomialOrder) -> tuple[tuple, Fraction]:
    """((lm, lc, tail), u): the reducer of the primitive integer multiple
    u * p, with a positive leading coefficient lc."""
    lm = p.leading_monomial(order)
    table, u = _integer_terms(p.terms_dict(), lm)
    return (lm, table[lm], tuple(t for t in table.items() if t[0] != lm)), u


def _reducer_of(rem: dict) -> tuple:
    """The reducer of a primitive remainder, whose first term leads."""
    items = iter(rem.items())
    lm, lc = next(items)
    return lm, lc, tuple(items)


def _s_pair(a: tuple, b: tuple) -> dict:
    """Term table of the S-polynomial of two integer reducers (lm, lc, tail),
    scaled by lcm(lc_a, lc_b) so that it stays integral: the leading terms
    cancel, so only the tails are multiplied out."""
    la, ca, ta = a
    lb, cb, tb = b
    top = monomial_lcm(la, lb)
    g = gcd(ca, cb)
    fa, fb = cb // g, ca // g
    qa, qb = monomial_div(top, la), monomial_div(top, lb)
    table = {monomial_mul(qa, m): fa * c for m, c in ta}
    for m, c in tb:
        t = monomial_mul(qb, m)
        s = table.get(t, 0) - fb * c
        if s:
            table[t] = s
        else:
            table.pop(t, None)
    return table


def _monic(nvars: int, reducer: tuple) -> Polynomial:
    """The monic rational polynomial of an integer reducer."""
    lm, lc, tail = reducer
    table = {lm: 1}
    for m, c in tail:
        c = Fraction(c, lc)
        table[m] = c.numerator if c.denominator == 1 else c
    return Polynomial._from_valid(nvars, table)


# ---------------------------------------------------------------------------
# division


def _check_basis(basis: Sequence[Polynomial]):
    if not basis:
        raise ValueError("division basis must be nonempty")
    for b in basis:
        if b.is_zero():
            raise ValueError("division basis contains the zero polynomial")


def divide(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder = GRLEX):
    """Multivariate division: f = sum q_i b_i + r.

    No term of the remainder is divisible by any leading monomial of the
    basis.  Deterministic: each reduction step uses the first divisor in
    the listed order.  Returns (quotients, remainder); the loop itself is
    ``_normal_form``, the reducer Buchberger uses.  Denominators are
    cleared on the way in and the accumulated scale is divided out on the
    way out, so quotients and remainder are the exact rational ones.
    """
    _check_basis(basis)
    reducers, units = zip(*(_integer_reducer(b, order) for b in basis))
    table, uf = _integer_terms(f.terms_dict())
    quots: list = [{} for _ in basis]
    rem = _normal_form(table, reducers, order.key, quots)
    den = quots.pop() * uf
    return ([Polynomial(f.nvars, {m: u * c / den for m, c in q.items()})
             for q, u in zip(quots, units)],
            Polynomial(f.nvars, {m: c / den for m, c in rem.items()}))


def _normal_form(terms: dict, leads, key, quots: list | None = None,
                 cut: int | None = None) -> dict:
    """Remainder of the integer term table ``terms`` on division by ``leads``,
    a list of integer reducers (leading monomial, leading coefficient, tail
    terms); each step uses the first reducer that divides.

    Fraction-free: before a term c*x^m is cancelled by a reducer with
    leading coefficient L, the work and remainder tables are multiplied by
    L/gcd(c, L), and then (c/gcd)*x^q times the reducer is subtracted.  The
    remainder is therefore an integer multiple of the rational one; it is
    returned primitive (coprime coefficients, a positive leading
    coefficient, the leading monomial first) and is empty iff the rational
    remainder is zero.  When ``quots`` is given, the quotient terms of
    reducer i are accumulated into ``quots[i]``, the remainder is returned
    unnormalised and the accumulated scale s is appended to ``quots``, so
    that s*terms = sum quots[i]*b_i + remainder.  When ``cut`` is given,
    the division runs in Q[x]/m^cut: every term of total degree >= cut is
    dropped.  Terms are taken largest first from a heap of negated keys;
    an entry whose monomial has since cancelled is skipped."""
    if cut is None:
        work = dict(terms)
    else:
        work = {m: c for m, c in terms.items() if sum(m) < cut}
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    rem: dict = {}
    scale = 1
    while work:
        m = heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for i, (lm, lc, tail) in enumerate(leads):
            if monomial_divides(lm, m):
                break
        else:
            rem[m] = c
            continue
        g = gcd(c, lc)
        mult, qc = lc // g, c // g
        if mult != 1:
            scale *= mult
            for table in (work, rem, *(quots or ())):
                for t in table:
                    table[t] *= mult
        q = monomial_div(m, lm)
        if quots is not None:
            quots[i][q] = quots[i].get(q, 0) + qc
        for bm, bc in tail:
            t = monomial_mul(q, bm)
            if cut is not None and sum(t) >= cut:
                continue
            p = qc * bc
            s = work.get(t)
            if s is None:
                work[t] = -p
                heappush(heap, (tuple(map(neg, key(t))), t))
            elif s == p:
                del work[t]
            else:
                work[t] = s - p
    if quots is not None:
        quots.append(scale)
    elif rem:
        g = gcd(*rem.values())
        if next(iter(rem.values())) < 0:
            g = -g
        if g != 1:
            rem = {m: c // g for m, c in rem.items()}
    return rem


def s_polynomial(g: Polynomial, h: Polynomial, order: MonomialOrder = GRLEX) -> Polynomial:
    """The standard S-polynomial (lcm/LT(g)) g - (lcm/LT(h)) h.

    Leading coefficients are divided out, so the result of two monomials
    is identically zero.
    """
    if g.is_zero() or h.is_zero():
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    if g.nvars != h.nvars:
        raise ValueError("S-polynomial of polynomials in different rings")
    a, _ = _integer_reducer(g, order)
    b, _ = _integer_reducer(h, order)
    den = lcm(a[1], b[1])
    return Polynomial(g.nvars, {m: Fraction(c, den) for m, c in _s_pair(a, b).items()})


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GRLEX,
               verify: bool | None = None, cut: int | None = None) -> GroebnerBasis:
    """Unique reduced Groebner basis of the ideal generated by ``gens``.

    With ``cut`` the result is a minimal standard basis of the image of the
    ideal in Q[x]/m^cut, monic but with tails left unreduced (``reduced``
    is False): every term of total degree >= cut is dropped, and the
    monomials of m^cut never become generators.  This is meant for an
    order in which the lowest total degree leads (a local degree order);
    there the monomials of degree < cut are well-ordered, so the reduction
    terminates, and a product whose leading term has degree >= cut is zero
    as a whole.

    Basis elements are kept as primitive integer reducers throughout; they
    become monic rational polynomials only when the result is built.

    Raises ValueError if every generator is zero (after the cut).
    """
    if cut is not None:
        gens = [Polynomial(g.nvars, {m: c for m, c in g.terms() if sum(m) < cut}) for g in gens]
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero generator")
    nvars = polys[0].nvars
    if any(g.nvars != nvars for g in polys):
        raise ValueError("generators live in different rings")
    key = order.key

    leads: list[tuple] = []  # (lm, lc, tail): primitive integer basis elements
    seen: set = set()
    for g in polys:
        r, _ = _integer_reducer(g, order)
        sig = (r[0], r[1], frozenset(r[2]))
        if sig not in seen:
            seen.add(sig)
            leads.append(r)
    lms = [r[0] for r in leads]

    heap: list = []
    pending: set[tuple[int, int]] = set()

    # lowest lcm degree first, then the smallest lcm in the order: the normal
    # strategy for degree orders, and low degrees first under a local order
    def push_pair(i: int, j: int):
        top = monomial_lcm(lms[i], lms[j])
        heappush(heap, (sum(top), key(top), i, j))
        pending.add((i, j))

    for j in range(len(leads)):
        for i in range(j):
            push_pair(i, j)

    while heap:
        _, _, i, j = heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        li, lj = lms[i], lms[j]
        top = monomial_lcm(li, lj)
        # every term of the S-polynomial lies in m^cut
        if cut is not None and sum(top) >= cut:
            continue
        # coprime leading monomials: S-polynomial reduces to zero
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        # two monomials: S-polynomial is identically zero
        if not leads[i][2] and not leads[j][2]:
            continue
        # chain criterion
        skip = False
        for k in range(len(leads)):
            if k == i or k == j:
                continue
            if monomial_divides(lms[k], top):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _s_pair(leads[i], leads[j])
        if not s:
            continue
        rem = _normal_form(s, leads, key, cut=cut)
        if rem:
            leads.append(_reducer_of(rem))
            lms.append(leads[-1][0])
            new = len(leads) - 1
            for t in range(new):
                push_pair(t, new)

    # minimalize: keep only generators whose leading monomial is not a
    # multiple of another surviving leading monomial.  A divisor never has
    # the larger total degree; under a local order it has the larger key.
    order_idx = sorted(range(len(leads)), key=lambda i: sum(lms[i]))
    keep: list[int] = []
    for i in order_idx:
        if not any(monomial_divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    minimal = [leads[i] for i in keep]

    # inter-reduce tails; leading monomials form an antichain so they survive.
    # Under a cut only the leading monomials are read, so tails stay as they are.
    if cut is None and len(minimal) > 1:
        minimal = [_reducer_of(_normal_form(dict(((lm, lc), *tail)),
                                            minimal[:i] + minimal[i + 1:], key))
                   for i, (lm, lc, tail) in enumerate(minimal)]

    minimal.sort(key=lambda r: key(r[0]), reverse=True)
    gb = GroebnerBasis(order=order, generators=tuple(_monic(nvars, r) for r in minimal),
                       reduced=cut is None)
    if verify or (verify is None and VERIFY_BASES):
        _verify_reduced_basis(gb, cut)
    return gb


def _verify_reduced_basis(gb: GroebnerBasis, cut: int | None = None):
    """Postcondition check: monic, minimal and (for a reduced basis)
    inter-reduced generators, and Buchberger's criterion (in Q[x]/m^cut when
    ``cut`` is given)."""
    order = gb.order
    gens = gb.generators
    lms = gb.leading_monomials()
    for idx, g in enumerate(gens):
        if g.leading_coefficient(order) != 1:
            raise AssertionError("basis element is not monic")
        for jdx, lm in enumerate(lms):
            if jdx == idx:
                continue
            if monomial_divides(lm, lms[idx]):
                raise AssertionError("leading monomials not minimal")
            if gb.reduced and any(monomial_divides(lm, m) for m, _ in g.terms()):
                raise AssertionError("basis is not inter-reduced")
    leads = [_integer_reducer(g, order)[0] for g in gens]
    for j in range(len(gens)):
        for i in range(j):
            s = _s_pair(leads[i], leads[j])
            if s and _normal_form(s, leads, order.key, cut=cut):
                raise AssertionError("S-polynomial does not reduce to zero")


def leading_term_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """Minimal generators of (LT(J)): the leading monomials of a reduced basis."""
    if not gb.reduced:
        raise ValueError("leading term ideal requires a reduced basis")
    return MonomialIdeal(gb.nvars, gb.leading_monomials())


def is_zero_dimensional(lt: MonomialIdeal) -> bool:
    """True iff some pure power of every variable lies in the ideal.

    The unit ideal (generated by the empty exponent vector) counts as
    zero-dimensional; the zero ideal does not.
    """
    zero = (0,) * lt.nvars
    if zero in lt.gens:
        return True
    for v in range(lt.nvars):
        if not any(m[v] > 0 and all(e == 0 for u, e in enumerate(m) if u != v) for m in lt.gens):
            return False
    return True
