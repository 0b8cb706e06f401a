"""Buchberger's algorithm and reduced Groebner bases over Q.

``buchberger`` returns the unique reduced basis (monic, inter-reduced,
sorted by decreasing leading monomial) under a global order, as a
``GroebnerBasis`` whose generators are built on first read.  The same run,
``_buchberger``, gives the local lengths a minimal standard basis in
Q[x]/m^cut with unreduced tails under the local degree order.  Pairs are
taken lowest lcm degree first, then smallest lcm in the order: the normal
strategy under grlex and degrevlex, degree-first under lex.  Coprime pairs
are never queued and S-polynomials of two monomials are skipped: both vanish
on reduction.  The rest are pruned by Buchberger's chain criterion
(Buchberger 1979; Gebauer and Moeller 1988, "On an installation of
Buchberger's algorithm"): a pair needs no reduction when treated pairs chain
its elements through elements whose leading words divide its lcm.  Pairs
leave the queue only when popped, and are judged then.  In three or more
variables the Gebauer-Moeller update runs as each element enters: of its new
pairs it keeps those whose lcm no other new pair's lcm divides, a coprime
pair prunes the pairs its lcm divides and is then dropped itself, and the
elements whose leading word the new one divides retire: they stay reducers
but form no new pairs.  A popped pair is skipped (B_k) when an element that
entered after it has a leading word dividing its lcm strictly on both sides.

In the plane the minimal leading monomials form a staircase, kept as its
corners x^a y^b sorted by a.  Adjacent corners generate its syzygies, so a
new corner pairs with its two neighbours.  The corners a new leading word
divides retire, and an input whose leading word a corner divides is
redundant: either keeps one pair, to an element whose leading word divides
its own, and stays a reducer.  A popped pair whose lcm is neither leading
word is treated only while that lcm is two adjacent corners': else a corner
placed since divides it strictly on both sides, and the chain through the
corners between covers it.  A new corner with the b (a) of the last (first)
corner it retires queues no right (left) pair: that corner's gap pair has
the lcm, and the retire pair, of lower degree and so treated first, chains
the two.  The same list gives the cut's closing degree (``_buchberger``) and
the minimal basis.

The reduction core is fraction-free: basis elements are primitive integer
term tables with a positive leading coefficient, S-polynomials are built
with integer cofactors, and ``_normal_form`` reduces by scaled
pseudo-division, so a remainder is an integer multiple of the rational one.
A polynomial enters the core through one of two gates: ``_integer_reducer``,
which refuses a zero polynomial and one from another ring with one
ValueError, and ``_packed_gradient``, which packs the nonzero partial
derivatives of a polynomial straight from its terms, and if asked one more
generator of the Jacobian ideal: the polynomial's Euler remainder
``m*f - sum x_v*f_v`` (m its order at the origin), or the polynomial itself
when that remainder is zero or m is.  ``buchberger`` checks its order,
passes its generators through the first gate and hands the packed reducers
to ``_buchberger``, the run itself; the local lengths and
``global_tjurina`` use the second gate.
Both gates end in one primitive step, ``_primitive_reducer``.  Rationals
leave the core only through ``_monic``.

Inside the core a monomial is a packed word (``_Words``): one int whose
high fields hold the order key, linear in the exponents for every order
used here, and whose low fields hold the exponents.  Words add as monomials
multiply and compare as they do, ``w`` divides ``v`` iff ``(v - w) & over``
is zero, and an exponent that leaves its 32-bit field raises
``MonomialRangeError``, never a wrong order.  ``_normal_form`` remembers,
per reducer list, the first reducer that divides each word; a list only
grows by appending, so a remembered divisor stays the first.

One helper, ``_reduce_tail``, reduces an element's tail under its head.  The
inter-reduction on first read runs it on every element against the whole
minimal list with one memo: no term below ``lm_i`` is a multiple of
``lm_i``, so every first divisor is the one the list without ``i`` gives.
A global run (no cut) runs it during the run too.  When the degree of the
popped pair changes, the elements the finished degree produced become
stale, all but the last; a stale tail is reduced once (``_refresh``) on the
element's next use, as a reducer or in an S-pair.  The refreshed element is
a nonzero multiple of the old one minus a combination of the others, so the
ideal and every leading word stay the same: the memo, the pair selection and
the criteria see no change, and the reduced basis is the same unique one,
reached with smaller multipliers.  Under a cut nothing is refreshed.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, mul
from struct import Struct
from typing import Iterable, Sequence

from .poly import GRLEX, Monomial, MonomialOrder, Polynomial, _render_terms, monomial_divides


class GroebnerBasis:
    """A minimal basis together with its monomial order, kept as the packed
    primitive integer reducers ``_buchberger`` ends with, sorted by
    decreasing leading monomial.

    ``leading_monomials`` reads their stored leading exponents.  The
    generators are built on first read, once: a reduced basis has its tails
    inter-reduced and every element is made monic.  ``cut`` is the degree
    cut the run ended with, after lowering (None without a cut).  A basis
    is ``reduced`` exactly when its run had no cut.
    Bases compare and hash by identity.  Two reduced bases of one ideal
    under one order have equal ``generators``; under a cut the tails depend
    on which S-pairs the run formed, so compare ``(order, cut,
    leading_monomials())``."""

    def __init__(self, words: _Words, leads: Sequence[tuple], exps: Sequence[Monomial],
                 cut: int | None):
        self.order = words.order
        self.cut = cut
        self.nvars = words.nvars
        self._words = words
        self._leads = tuple(leads)
        self._exps = tuple(exps)

    @property
    def reduced(self) -> bool:
        return self.cut is None

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return self._exps

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        # one memo for the whole minimal list (see the module docstring); the
        # leading monomials form an antichain, so they survive.  Under a cut
        # tails stay as they are.
        leads, words = self._leads, self._words
        if self.reduced:
            memo: dict = {}
            leads = [_reduce_tail(r, leads, words, memo) for r in leads]
        return tuple(_monic(self.nvars, words.unpack_reducer(r)) for r in leads)

    def __repr__(self):
        return (f"GroebnerBasis(order={self.order!r}, generators={self.generators!r}, "
                f"reduced={self.reduced!r})")

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self._leads)


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

    @classmethod
    def _from_minimal(cls, nvars: int, monomials: Iterable[Monomial]) -> MonomialIdeal:
        """Adopt an antichain of exponent tuples of length ``nvars``, such as
        the leading monomials of a minimal basis, without re-minimalizing."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.gens = frozenset(monomials)
        return self

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
        gens = (_render_terms(self.nvars, [(m, 1)]) for m in self.sorted_gens())
        return f"MonomialIdeal({', '.join(gens)})"


def _staircase(lms: Iterable[Monomial]) -> list[tuple]:
    """The staircase of the monomial ideal generated by ``lms`` in two
    variables, as runs of columns (start, stop, height): for start <= i < stop
    the standard monomials x^i y^j are those with j < height.  A height of
    None is unbounded (no generator has a <= i yet); the last run has stop
    None.  One walk over the minimal generators, sorted by a."""
    corners: list[Monomial] = []
    for a, b in sorted(lms):
        if not corners or b < corners[-1][1]:
            corners.append((a, b))
    stops = [a for a, _ in corners[1:]] + [None]
    runs = [(a, stop, b) for (a, b), stop in zip(corners, stops)]
    if not corners or corners[0][0] > 0:
        runs.insert(0, (0, corners[0][0] if corners else None, None))
    return runs


def _closing_degree(corners: Sequence[tuple]) -> int:
    """The least r such that every monomial of degree r in two variables is
    a multiple of a corner (one more than the largest degree of a standard
    monomial), for the corners (a, b, ...) of x^a y^b, an antichain sorted
    by a whose first corner lies on the y-axis (a = 0) and last on the
    x-axis (b = 0): the largest a_(k+1) + b_k - 1 over adjacent corners."""
    return max((c[0] + p[1] for p, c in zip(corners, corners[1:])), default=1) - 1


# ---------------------------------------------------------------------------
# packed monomials

_FIELD = 32  # bits per field of a packed word


class MonomialRangeError(OverflowError):
    """A monomial has an exponent outside the fields of its packed word."""


class _Words:
    """Packed words of the monomials in ``nvars`` variables under one order.

    ``order.key`` must be linear in the exponents, key(m) = W m for an
    integer matrix W read off the unit vectors (checked on their pairwise
    sums).  The word of m has one ``_FIELD``-bit field per row of W (the
    high fields, most significant first) and one per exponent (the low
    fields), so word(m) + word(n) = word(m * n), and words compare like
    keys: every field value lies strictly between -2^31 and 2^31 while each
    exponent is below 2^bits, and then the lower fields together never
    outweigh half a unit of a higher one.

    The exponents are ``w & mask``, split into fields.  Each exponent field
    has room above 2^bits: a product of two in-range monomials never carries
    into the next field, and it is out of range iff ``w & over`` is nonzero.
    For in-range words a and b, a divides b iff ``(b - a) & over`` is zero:
    a negative field difference borrows and sets the bits above 2^bits.
    """

    __slots__ = ("order", "nvars", "bits", "mask", "over", "local", "units", "word", "_fields",
                 "_top")

    def __init__(self, order, nvars: int):
        units = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
        cols = [tuple(order.key(e)) for e in units]
        if any(order.key((0,) * nvars)) or any(
                tuple(order.key(tuple(map(add, units[i], units[j]))))
                != tuple(map(add, cols[i], cols[j]))
                for i in range(nvars) for j in range(i, nvars)):
            raise ValueError("monomial order key is not linear in the exponents")
        rows = list(zip(*cols))
        widest = max(max(sum(map(abs, row)) for row in rows), 1)
        bits = min(_FIELD - 1, (((1 << _FIELD - 1) - 1) // widest + 1).bit_length() - 1)
        self.order = order
        self.nvars = nvars
        self.bits = bits
        self.mask = (1 << _FIELD * nvars) - 1
        self.over = sum(((1 << _FIELD) - (1 << bits)) << _FIELD * v for v in range(nvars))
        # a local degree order: minus a multiple of the total degree leads
        self.local = rows[0][0] < 0 and len(set(rows[0])) == 1
        self._fields = Struct(f">{nvars}I")  # the exponent fields, as 32-bit words
        top = _FIELD * (nvars + len(rows))
        # the words of the variables
        self.units = units = [(1 << _FIELD * (nvars - 1 - v))
                              + sum(w << top - _FIELD * (j + 1) for j, w in enumerate(col))
                              for v, col in enumerate(cols)]
        self.word = lambda m: sum(map(mul, m, units))  # unchecked
        self._top = (rows[0][0], top - _FIELD)

    def __reduce__(self):  # the Struct does not pickle; the cache rebuilds it
        return _words, (self.order, self.nvars)

    def pack(self, m: Monomial) -> int:
        if max(m) >> self.bits:
            raise MonomialRangeError(f"exponent {max(m)} outside the packed field range "
                                     f"0..{(1 << self.bits) - 1}")
        return self.word(m)

    def exponents(self, w: int) -> Monomial:
        return self._fields.unpack((w & self.mask).to_bytes(_FIELD // 8 * self.nvars, "big"))

    def range_error(self) -> MonomialRangeError:
        """The error for a product w that has left the field range (w & over)."""
        return MonomialRangeError(f"a product has an exponent outside the packed field "
                                  f"range 0..{(1 << self.bits) - 1}")

    def floor(self, cut: int) -> int:
        """The threshold of a degree cut under a local degree order: w <
        floor(cut) iff the monomial of w has degree >= cut.  That holds for
        every in-range word, and for a product of two in-range words that
        has left the range too, since its degree is at least 2^bits, so at
        least 2*cut: cut is at most 2^(bits-1)."""
        if cut > 1 << self.bits - 1:
            raise MonomialRangeError(f"cut {cut} outside the packed field range: products "
                                     f"below it need exponents up to {2 * cut - 2}")
        weight, shift = self._top
        return (weight * cut << shift) + (1 << shift - 1)

    def unpack_reducer(self, reducer: tuple) -> tuple:
        lm, lc, tail = reducer
        return self.exponents(lm), lc, tuple((self.exponents(m), c) for m, c in tail)


@lru_cache(maxsize=64)
def _words(order, nvars: int) -> _Words:
    return _Words(order, nvars)


# ---------------------------------------------------------------------------
# integer reducers


def _ring_error(nvars: int) -> ValueError:
    """The gates' one error for a zero polynomial and one from another ring."""
    return ValueError(f"expected a nonzero polynomial in {nvars} variables")


def _primitive_reducer(terms: list) -> tuple:
    """(lm, lc, tail) of the primitive integer multiple, with a positive
    leading coefficient, of the nonzero terms (word, rational coefficient)
    sorted by decreasing word: denominators are cleared once, then the
    content is divided out."""
    cs = [c for _, c in terms]
    if any(type(c) is not int for c in cs):  # all-int terms need no common denominator
        den = lcm(*(c.denominator for c in cs))
        terms = [(m, c.numerator * (den // c.denominator)) for m, c in terms]
        cs = [c for _, c in terms]
    g = gcd(*cs)
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(m, c // g) for m, c in terms]
    lm, lc = terms[0]
    return lm, lc, tuple(terms[1:])


def _integer_reducer(p: Polynomial, words: _Words) -> tuple:
    """(lm, lc, tail): the packed reducer of the primitive integer multiple
    of p with a positive leading coefficient lc, its tail sorted by
    decreasing word.  The multiple is lc / p's leading coefficient.  The one
    gate from a Polynomial into the integer core: a zero polynomial, or one
    outside the ring of ``words``, raises ValueError."""
    table = p._terms
    if not table or p.nvars != words.nvars:
        raise _ring_error(words.nvars)
    if max(map(max, table)) >> words.bits:
        for m in table:
            words.pack(m)  # raises the range error of the first bad term
    return _primitive_reducer(sorted(zip(map(words.word, table), table.values()), reverse=True))


def _packed_gradient(f: Polynomial, words: _Words, with_f: bool = False) -> list[tuple]:
    """The packed reducers of f's nonzero partial derivatives, in variable
    order: ``[_integer_reducer(f.partial_derivative(v), words)]`` with the
    zero partials dropped, and the same errors, but no partial is built.
    With ``with_f``, one more reducer comes first: that of f's Euler
    remainder ``r = m*f - sum x_v*f_v``, where m is f's order at the origin.
    Since ``m*f = r + sum x_v*f_v``, r and the partials generate the ideal
    of f and its partials, and r has no term of degree m, so a run from it
    need not find Euler's relation again.  f's own reducer stands in for r
    when m = 0 (f is a unit) or r = 0 (f is homogeneous).  The range checks
    stay on f's terms, last.
    Each term is packed once: words are linear, so the partial in x_v of the
    term of word w has the word w - word(x_v), and the partials' terms come
    out of one sort already sorted.  An f outside the ring of ``words`` (or
    zero, with ``with_f``) raises ValueError."""
    table = f._terms
    if f.nvars != words.nvars or with_f and not table:
        raise _ring_error(words.nvars)
    if table and max(map(max, table)) >> words.bits:
        # only a partial's own terms must lie in range, and
        # _integer_reducer meets its bad terms in f's term order
        for v in range(f.nvars):
            for m in table:
                if m[v]:
                    words.pack(m[:v] + (m[v] - 1,) + m[v + 1:])
        if with_f:
            for m in table:
                words.pack(m)
    terms = sorted(zip(map(words.word, table), table, table.values()), reverse=True)
    gradient = []
    if with_f:
        m = min(map(sum, table))
        r = [(w, k * c) for w, e, c in terms if (k := m - sum(e))] if m else []
        gradient.append(_primitive_reducer(r or [(w, c) for w, _, c in terms]))
    for v, unit in enumerate(words.units):
        part = [(w - unit, c * m[v]) for w, m, c in terms if m[v]]
        if part:
            gradient.append(_primitive_reducer(part))
    return gradient


def _reducer_of(rem: dict) -> tuple:
    """The reducer of a primitive remainder, whose first term leads."""
    items = iter(rem.items())
    lm, lc = next(items)
    return lm, lc, tuple(items)


def _s_pair(a: tuple, b: tuple, top: int, words: _Words) -> dict:
    """Term table of the S-polynomial of two packed integer reducers
    (lm, lc, tail) whose leading words have the lcm ``top``, scaled by
    lcm(lc_a, lc_b) so that it stays integral: the leading terms cancel, so
    only the tails are multiplied out."""
    la, ca, ta = a
    lb, cb, tb = b
    g = gcd(ca, cb)
    fa, fb = cb // g, ca // g
    qa, qb = top - la, top - lb
    table = {qa + m: fa * c for m, c in ta}
    for m, c in tb:
        t = qb + m
        s = table.get(t, 0) - fb * c
        if s:
            table[t] = s
        else:
            table.pop(t, None)
    if any(map(words.over.__and__, table)):
        raise words.range_error()
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
# reduction


def _normal_form(terms: dict, leads, words: _Words, cut: int | None = None,
                 memo: dict | None = None, head: tuple | None = None,
                 stale: set | None = None) -> dict:
    """Remainder of the packed integer term table ``terms`` (a fresh table,
    used up) on division by ``leads``, a list of packed integer reducers
    (leading word, leading coefficient, tail terms); each step uses the
    first reducer that divides.

    Fraction-free: before a term c*x^m is cancelled by a reducer with
    leading coefficient L, the work and remainder tables are multiplied by
    L/gcd(c, L).  The remainder is returned primitive (coprime coefficients,
    a positive leading coefficient, the leading word first), and is empty
    iff the rational remainder is zero.  With ``cut`` (a local degree
    order), terms of total degree >= cut (words below ``words.floor(cut)``)
    are dropped, and reduction stops at the first term no reducer divides:
    it is returned first, the remaining work terms follow as an unreduced
    tail, and its leading monomial, and whether it is zero, are those of the
    full remainder.  With ``head``, that term (word, coefficient), above
    every term of ``terms``, starts the remainder unreduced.  A reducer in
    ``stale`` is refreshed (``_refresh``) before it is used.

    Terms are taken largest first from a heap of negated words.  ``memo``
    maps a word to the index of its first divisor in ``leads``, or to ~n
    when none of the first n reducers divides it, so a caller that keeps
    one memo per growing reducer list rescans only the new reducers.  Every
    new product is checked against the field range."""
    over = words.over
    if cut is None:
        floor = None
        work = terms
    else:
        floor = words.floor(cut)
        work = {m: c for m, c in terms.items() if m >= floor}
    if memo is None:
        memo = {}
    n = len(leads)
    heap = [-m for m in work]
    heapify(heap)
    rem: dict = dict([head]) if head else {}
    while work:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        i = memo.get(m, -1)
        if i < 0:
            for i in range(~i, n):
                if not (m - leads[i][0]) & over:
                    break
            else:
                i = ~n
            memo[m] = i
        if i < 0:
            if floor is not None:
                rem = {m: c, **work}
                break
            rem[m] = c
            continue
        if stale and i in stale:
            _refresh(i, leads, words, memo, stale)
        lm, lc, tail = leads[i]
        g = gcd(c, lc)
        mult, qc = lc // g, c // g
        if mult != 1:
            for table in (work, rem):
                for t in table:
                    table[t] *= mult
        q = m - lm
        for bm, bc in tail:
            t = q + bm
            if floor is not None and t < floor:
                continue
            p = qc * bc
            s = work.get(t)
            if s is None:
                if t & over:
                    raise words.range_error()
                work[t] = -p
                heappush(heap, -t)
            elif s == p:
                del work[t]
            else:
                work[t] = s - p
    if rem:
        g = gcd(*rem.values())
        if next(iter(rem.values())) < 0:
            g = -g
        if g != 1:
            rem = {m: c // g for m, c in rem.items()}
    return rem


def _reduce_tail(reducer: tuple, leads, words: _Words, memo: dict,
                 stale: set | None = None) -> tuple:
    """The reducer with its tail reduced by ``leads`` under its head; one with
    an empty tail is returned as it is.  A tail that nothing divides comes
    back unchanged, since the element is primitive."""
    lm, lc, tail = reducer
    if not tail:
        return reducer
    return _reducer_of(_normal_form(dict(tail), leads, words, memo=memo, head=(lm, lc),
                                    stale=stale))


def _refresh(k: int, leads: list, words: _Words, memo: dict, stale: set):
    """Reduce the tail of the stale element k of ``leads`` once, in place.
    A stale reducer the reduction picks is refreshed first, so refreshes
    nest at most as deep as there are stale elements."""
    stale.discard(k)
    leads[k] = _reduce_tail(leads[k], leads, words, memo, stale)


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GRLEX) -> GroebnerBasis:
    """Unique reduced Groebner basis of the ideal generated by ``gens``
    under the global order ``order``.

    The minimal basis is read from the active elements; a caller that reads
    only its leading monomials pays for neither inter-reduction nor
    rationals.

    Raises ValueError if every generator is zero or ``order`` is a local
    degree order (``MonomialOrder("local")``, in which the lowest total
    degree leads: no well-order, so its standard bases are the truncated
    ones of the local lengths), the gates' ValueError for a nonzero
    generator outside the ring of the first one, and MonomialRangeError if
    an exponent leaves the packed field range.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero generator")
    words = _words(order, polys[0].nvars)
    if words.local:
        raise ValueError("buchberger runs under global orders only; local standard bases "
                         "come from the local lengths (local_length_at_origin)")
    return _buchberger([_integer_reducer(g, words) for g in polys], words)


def _buchberger(reducers: Sequence[tuple], words: _Words, cut: int | None = None) -> GroebnerBasis:
    """The run on ``reducers``, packed primitive integer reducers in the ring
    of ``words`` (none only where a cut removed all), not checked again.  Without
    ``cut`` (a global order) it gives the reduced basis.  With ``cut`` (a
    local degree order, and reducers with no term of degree >= cut, as
    ``lengths._local_length`` truncates them) it gives a minimal standard
    basis of the image of the ideal in Q[x]/m^cut with unreduced tails
    (``reduced`` is False): terms of total degree >= cut are dropped, and a
    remainder is reduced at its leading term only (see ``_normal_form``).
    A local order and a cut go together: under the local order only the
    monomials of degree < cut are well-ordered, so only there does the
    reduction terminate, and a product whose leading term has degree >= cut
    is zero as a whole.

    In two variables the cut is lowered as the basis grows: once the leading
    monomials hold every monomial of some degree r < cut, the cut becomes r,
    and pairs of lcm degree >= r are skipped.  Every element has all its
    terms in degrees >= its leading degree, and reduction only adds terms of
    higher degree, so m^r lies in the ideal plus m^cut: both cuts give the
    same ideal and the same minimal leading monomials.  The staircase closes
    only once both pure powers lead, so its corner list is not read before
    (``_closing_degree``).  ``GroebnerBasis.cut`` is the cut the run ended
    with."""
    over, word = words.over, words.word

    # (lm, lc, tail): packed primitive integer basis elements, and their
    # leading exponents, for the corners and pair degrees
    leads: list[tuple] = list(reducers)
    exps: list[Monomial] = [words.exponents(w[0]) for w in reducers]
    lms = [r[0] for r in leads]
    entered = len(leads)
    limit = cut  # the cut in force, lowered in the plane where the staircase closes

    # the queued pairs (degree, lcm word, i, j), i < j, lowest lcm degree
    # first, then the smallest lcm in the order: the normal strategy for
    # degree orders, and low degrees first under a local order.  New pairs
    # lie below the cut (above it the S-polynomial lies in m^cut).
    heap: list = []

    plane = words.nvars == 2
    if plane:
        # the corners (a, b, k) of the minimal leading monomials lm_k = x^a y^b
        # sorted by a
        corners: list[tuple] = []
        ux, uy = words.units

        def push(g: int, h: int, a: int, b: int):
            """Queue the pair (g, h) of lcm x^a y^b below the cut unless coprime."""
            if (limit is None or a + b < limit) and (w := a * ux + b * uy) != lms[g] + lms[h]:
                heappush(heap, (a + b, w, g, h))

        def enter(h: int):
            """The plane rule for the entering element h."""
            nonlocal limit
            a, b = exps[h]
            p, n = bisect_left(corners, (a,)), len(corners)
            q = p
            while q < n and corners[q][1] >= b:
                q += 1
            if p and corners[p - 1][1] <= b:  # the corner left of h divides lm_h
                return push(corners[p - 1][2], h, a, b)
            if q == p < n and corners[p][0] == a:  # the corner at p divides lm_h
                return push(corners[p][2], h, a, b)
            block = corners[p:q]  # lm_h divides these: they retire
            corners[p:q] = [(a, b, h)]
            if limit is not None and corners[0][0] == 0 == corners[-1][1]:
                limit = min(limit, _closing_degree(corners))
            # the gaps on either side of h, unless a retired corner with h's b
            # (a) left the gap's lcm as it was
            if q < n and not (block and block[-1][1] == b):
                x, _, v = corners[p + 1]
                push(v, h, x, b)
            if p and not (block and block[0][0] == a):
                _, y, u = corners[p - 1]
                push(u, h, a, y)
            for x, y, k in block:
                push(k, h, x, y)
    else:
        active: list[int] = []

        def enter(h: int):
            """The Gebauer-Moeller update's new pairs and retirements for h."""
            wh, eh = lms[h], exps[h]
            # the new pairs below the cut, lowest lcm first and a coprime
            # pair before the others with its lcm: a pair whose lcm an
            # earlier one's divides is dropped, and a coprime pair, whose
            # S-polynomial reduces to zero, is not queued.  g retires when
            # wh divides lm_g (the lcm is lm_g): it stays a reducer
            pairs, kept = [], []
            for g in active:
                top = tuple(map(max, exps[g], eh))
                if top != exps[g]:
                    kept.append(g)
                degree = sum(top)
                if limit is None or degree < limit:
                    w = word(top)  # in range, as both factors are
                    pairs.append((degree, w, w != lms[g] + wh, g))
            kept.append(h)
            active[:] = kept
            pairs.sort()
            tops: list[int] = []
            for degree, w, joint, g in pairs:
                for t in tops:
                    if not (w - t) & over:
                        break
                else:
                    tops.append(w)
                    if joint:
                        heappush(heap, (degree, w, g, h))

    for h in range(entered):
        enter(h)

    memo: dict = {}
    stale: set[int] = set()  # filled in global runs only
    level, born = 0, len(leads)
    while heap:
        degree, top, i, j = heappop(heap)
        if cut is None and degree != level:
            stale.update(range(born, len(leads) - 1))
            level, born = degree, len(leads)
        # pushed before the cut was lowered: the S-polynomial lies in m^cut
        if limit is not None and degree >= limit:
            continue
        # two monomials: S-polynomial is identically zero
        if not leads[i][2] and not leads[j][2]:
            continue
        if plane:
            # a gap pair (no leading word is its lcm x^a y^b) while (a, b) is
            # still the lcm of two adjacent corners
            if top != lms[i] and top != lms[j]:
                a, b = max(exps[i][0], exps[j][0]), max(exps[i][1], exps[j][1])
                k = bisect_left(corners, (a,))
                if k == len(corners) or corners[k][0] != a or corners[k - 1][1] != b:
                    continue
        # B_k: a later element h's leading word divides the lcm, and lcm(i, h)
        # and lcm(j, h) are of lower degree: the chain through h covers it
        elif any(not (top - w) & over and sum(map(max, exps[i], e)) != degree
                 != sum(map(max, exps[j], e)) for w, e in zip(lms[j + 1:], exps[j + 1:])):
            continue
        for k in (i, j):
            if stale and k in stale:
                _refresh(k, leads, words, memo, stale)
        s = _s_pair(leads[i], leads[j], top, words)
        if not s:
            continue
        rem = _normal_form(s, leads, words, cut=limit, memo=memo, stale=stale)
        if rem:
            leads.append(_reducer_of(rem))
            lms.append(leads[-1][0])
            exps.append(words.exponents(lms[-1]))
            enter(len(leads) - 1)

    if plane:
        keep = [k for *_, k in corners]
    else:
        # minimalize: no later element's leading word divides an active
        # one's, and no earlier one divides a remainder's, so only an input
        # generator can be a multiple of an earlier active element
        keep = []
        for i in active:
            if i >= entered or not any(not (lms[i] - lms[k]) & over for k in keep):
                keep.append(i)
    keep.sort(key=lms.__getitem__, reverse=True)
    return GroebnerBasis(words, [leads[i] for i in keep], [exps[i] for i in keep], limit)


def leading_term_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """Minimal generators of (LT(J)): the leading monomials of a reduced basis."""
    if not gb.reduced:
        raise ValueError("leading term ideal requires a reduced basis")
    return MonomialIdeal._from_minimal(gb.nvars, gb.leading_monomials())


def is_zero_dimensional(lt: MonomialIdeal) -> bool:
    """True iff some pure power of every variable lies in the ideal.

    A pure power x_v^k is a monomial whose degree is its exponent of x_v:
    so the unit ideal, generated by x^0, counts as zero-dimensional; the
    zero ideal does not.
    """
    return all(any(m[v] == sum(m) for m in lt.gens) for v in range(lt.nvars))
