"""Buchberger's algorithm and reduced Groebner bases over Q.

The engine returns the unique *reduced* basis: monic generators,
pairwise inter-reduced, sorted by decreasing leading monomial.  With a
degree cut it returns a minimal standard basis in Q[x]/m^cut instead (see
``buchberger``).  Pair selection follows the normal strategy (lowest lcm
degree first, then smallest lcm); useless pairs are pruned with the
coprimality criterion and the chain criterion, and S-polynomials of two
monomials are skipped outright since they vanish identically.

``VERIFY_BASES`` turns on a full postcondition check on every emitted
basis (reducedness invariants plus reduction of every S-polynomial to
zero).  It is meant for test runs; the check costs another pass over all
pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
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
    ``_normal_form``, the reducer Buchberger uses.
    """
    _check_basis(basis)
    nvars = f.nvars
    leads = [(b.leading_monomial(order), b.leading_coefficient(order), tuple(b.terms()))
             for b in basis]
    quots: list[dict] = [{} for _ in basis]
    rem = _normal_form(f.terms_dict(), leads, order.key, quots)
    return [Polynomial(nvars, q) for q in quots], Polynomial(nvars, rem)


def _normal_form(terms: dict, leads, key, quots: list[dict] | None = None,
                 cut: int | None = None) -> dict:
    """Remainder of the term table ``terms`` on division by ``leads``, a list
    of (leading monomial, leading coefficient, term tuple) reducers; each
    step uses the first reducer that divides.  When ``quots`` is given, the
    quotient terms of reducer i are accumulated into ``quots[i]``.  When
    ``cut`` is given, the division runs in Q[x]/m^cut: every term of total
    degree >= cut is dropped."""
    if cut is None:
        work = dict(terms)
    else:
        work = {m: c for m, c in terms.items() if sum(m) < cut}
    rem: dict = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, (lm, lc, bterms) in enumerate(leads):
            if monomial_divides(lm, m):
                q = monomial_div(m, lm)
                qc = c / lc if isinstance(c, Fraction) or isinstance(lc, Fraction) else Fraction(c, lc)
                if qc.denominator == 1:
                    qc = qc.numerator
                if quots is not None:
                    quots[i][q] = quots[i].get(q, 0) + qc
                for bm, bc in bterms:
                    if bm == lm:
                        continue
                    t = monomial_mul(q, bm)
                    if cut is not None and sum(t) >= cut:
                        continue
                    s = work.get(t, 0) - qc * bc
                    if s == 0:
                        work.pop(t, None)
                    else:
                        work[t] = s
                break
        else:
            rem[m] = c
    return rem


def s_polynomial(g: Polynomial, h: Polynomial, order: MonomialOrder = GRLEX) -> Polynomial:
    """The standard S-polynomial (lcm/LT(g)) g - (lcm/LT(h)) h.

    Leading coefficients are divided out, so the result of two monomials
    is identically zero.
    """
    if g.is_zero() or h.is_zero():
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    lg = g.leading_monomial(order)
    lh = h.leading_monomial(order)
    lcm = monomial_lcm(lg, lh)
    cg = g.leading_coefficient(order)
    ch = h.leading_coefficient(order)
    left = Polynomial.monomial(g.nvars, monomial_div(lcm, lg), Fraction(1) / cg) * g
    right = Polynomial.monomial(h.nvars, monomial_div(lcm, lh), Fraction(1) / ch) * h
    return left - right


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

    G: list[Polynomial] = []
    lms: list[Monomial] = []
    leads: list[tuple] = []  # (lm, 1, term tuple) reducer cache for _normal_form
    seen: set[Polynomial] = set()
    for g in polys:
        g = g.monic(order)
        if g not in seen:
            seen.add(g)
            G.append(g)
            lms.append(g.leading_monomial(order))
            leads.append((lms[-1], 1, tuple(g.terms())))

    heap: list = []
    pending: set[tuple[int, int]] = set()

    # lowest lcm degree first, then the smallest lcm in the order: the normal
    # strategy for degree orders, and low degrees first under a local order
    def push_pair(i: int, j: int):
        lcm = monomial_lcm(lms[i], lms[j])
        heapq.heappush(heap, (sum(lcm), key(lcm), i, j))
        pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        li, lj = lms[i], lms[j]
        lcm = monomial_lcm(li, lj)
        # every term of the S-polynomial lies in m^cut
        if cut is not None and sum(lcm) >= cut:
            continue
        # coprime leading monomials: S-polynomial reduces to zero
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        # two monomials: S-polynomial is identically zero
        if len(G[i]) == 1 and len(G[j]) == 1:
            continue
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if monomial_divides(lms[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(G[i], G[j], order)
        if s.is_zero():
            continue
        rem = _normal_form(s.terms_dict(), leads, key, cut=cut)
        if rem:
            r = Polynomial(nvars, rem).monic(order)
            G.append(r)
            lms.append(r.leading_monomial(order))
            leads.append((lms[-1], 1, tuple(r.terms())))
            new = len(G) - 1
            for t in range(new):
                push_pair(t, new)

    # minimalize: keep only generators whose leading monomial is not a
    # multiple of another surviving leading monomial.  A divisor never has
    # the larger total degree; under a local order it has the larger key.
    order_idx = sorted(range(len(G)), key=lambda i: sum(lms[i]))
    keep: list[int] = []
    for i in order_idx:
        if not any(monomial_divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    minimal = [G[i] for i in keep]
    min_lms = [lms[i] for i in keep]

    # inter-reduce tails; leading monomials form an antichain so they survive.
    # Under a cut only the leading monomials are read, so tails stay as they are.
    reduced: list[Polynomial] = []
    for i, g in enumerate(minimal):
        if cut is None and len(minimal) > 1:
            others = [(min_lms[k], 1, tuple(minimal[k].terms()))
                      for k in range(len(minimal)) if k != i]
            rem = _normal_form(g.terms_dict(), others, key)
            g = Polynomial(nvars, rem).monic(order)
        reduced.append(g)

    reduced.sort(key=lambda p: key(p.leading_monomial(order)), reverse=True)
    gb = GroebnerBasis(order=order, generators=tuple(reduced), reduced=cut is None)
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
    leads = [(lm, 1, tuple(g.terms())) for lm, g in zip(lms, gens)]
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
    for j in range(len(gens)):
        for i in range(j):
            s = s_polynomial(gens[i], gens[j], order)
            if s.is_zero():
                continue
            if _normal_form(s.terms_dict(), leads, order.key, cut=cut):
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
