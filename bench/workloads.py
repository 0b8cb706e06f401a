"""Request streams for the four benchmark workloads, with answers known by
construction and the checks that compare them with the CLI's JSON.

Inputs are built here with exact rational arithmetic of the benchmark's own;
nothing is imported from the package under test or from its test suite, so
neither can shift them.  The same seed always yields byte-identical texts.

Each workload has a fixed pool of curves (or tuples), drawn once from
``POOL_SEED``.  Engine cost varies up to tenfold between curves of one kind,
so pools drawn per seed would make runs of different seeds incomparable.
The benchmark seed draws only what leaves the engine's work unchanged: the
order of every pass and, for line arrangements, the order and scaling of the
lines in the product.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable, Iterator

# The seed of the test suite's criterion-07 curve draw; every pool uses it.
POOL_SEED = 0xC0FFEE


@dataclass(frozen=True)
class Request:
    """One CLI call and the answer it must produce."""

    argv: tuple[str, ...]
    expect: tuple
    stratum: str


# ---------------------------------------------------------------------------
# exact polynomial helpers (polynomials are dicts exponent-tuple -> Fraction)


def _monomials_of_degree(d: int):
    """Plane monomials (i, d - i) in the order the criterion-07 generator
    draws them: decreasing power of x."""
    return [(i, d - i) for i in range(d, -1, -1)]


def _upoly_rem(u: list, v: list) -> list:
    r = list(u)
    while len(r) >= len(v) and r:
        f = Fraction(r[-1]) / v[-1]
        shift = len(r) - len(v)
        for i, c in enumerate(v):
            r[shift + i] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _upoly_gcd_degree(u: list, v: list) -> int:
    a, b = list(u), list(v)
    while b:
        a, b = b, _upoly_rem(a, b)
    return len(a) - 1


def squarefree_form(form: dict) -> bool:
    """True iff a nonzero binary form has distinct linear factors over C:
    at most one factor x, and g(1, y) coprime to its derivative."""
    min_x = min(i for i, _ in form)
    if min_x >= 2:
        return False
    u = [0] * (max(j for _, j in form) + 1)
    for (_i, j), c in form.items():
        u[j] = c
    if len(u) <= 2:
        return True
    du = [j * c for j, c in enumerate(u)][1:]
    while du and du[-1] == 0:
        du.pop()
    return _upoly_gcd_degree(u, du) == 0


def random_ordinary_curve(rng: random.Random, m: int) -> dict:
    """Copy of the criterion-07 generator: a random squarefree degree-m
    initial form plus up to four tail terms of degree m+1..m+3, so the
    origin is an ordinary m-fold point.  Draws from ``rng`` in the same
    order as the test suite's generator."""
    while True:
        form = {}
        for mono in _monomials_of_degree(m):
            c = rng.randint(-4, 4)
            if c:
                form[mono] = c
        if form and squarefree_form(form):
            break
    tail = {}
    for _ in range(rng.randint(0, 4)):
        d = rng.randint(m + 1, m + 3)
        i = rng.randint(0, d)
        tail[(i, d - i)] = rng.randint(-4, 4)
    curve = dict(form)
    curve.update((mono, c) for mono, c in tail.items() if c)
    return curve


def shift(poly: dict, point: tuple[Fraction, Fraction]) -> dict:
    """f(x - p, y - q): moves a singular point at the origin to (p, q)."""
    p, q = point
    out: dict = {}
    for (i, j), c in poly.items():
        for k in range(i + 1):
            ck = c * comb(i, k) * (-p) ** (i - k)
            for l in range(j + 1):
                m = (k, l)
                out[m] = out.get(m, 0) + ck * comb(j, l) * (-q) ** (j - l)
    return {m: c for m, c in out.items() if c != 0}


def render(poly: dict, names=("x", "y")) -> str:
    """Expanded text in the CLI's expression grammar, highest degree first."""
    parts = []
    for mono in sorted(poly, key=lambda m: (sum(m), m), reverse=True):
        c = Fraction(poly[mono])
        mag = abs(c)
        pows = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e)
        body = str(mag) if not pows else pows if mag == 1 else f"{mag}*{pows}"
        sign = "-" if c < 0 else "+" if parts else ""
        parts.append(sign + body)
    return "".join(parts) or "0"


def _random_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational point off the origin with small numerators and denominators."""
    while True:
        p = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if p or q:
            return p, q


def _local_requests(command: str, items, name: str) -> list[Request]:
    """Requests for (curve, expected answer, stratum) items.  Every second
    item is moved to a rational point off the origin, drawn from POOL_SEED,
    so that translation is exercised as users exercise it.  A repeated curve
    is moved to a point it has not had yet, so no two requests of a pool are
    the same."""
    rng = random.Random(f"{POOL_SEED}:{name}:points")
    origin = (Fraction(0), Fraction(0))
    seen = set()
    requests = []
    for index, (curve, expect, stratum) in enumerate(items):
        text = render(curve)
        point = _random_point(rng) if index % 2 else origin
        while (text, point) in seen:
            point = _random_point(rng)
        seen.add((text, point))
        if point != origin:
            text = render(shift(curve, point))
        argv = (command, "--curve=" + text, "--point=" + ",".join(map(str, point)), "--json")
        requests.append(Request(argv, expect, stratum))
    return requests


def _passes(seed: int, name: str, pool: list) -> Iterator:
    """Endless passes over ``pool``, each in a seeded order."""
    rng = random.Random(f"{seed}:{name}")
    while True:
        batch = list(pool)
        rng.shuffle(batch)
        yield from batch


# ---------------------------------------------------------------------------
# ordinary_batch: analyze at ordinary m-fold points


# Curves per multiplicity in one pass: mostly m <= 6 and a few m = 7, so the
# heavy m = 7 tail is in the pass without dominating its time.
ORDINARY_POOL = {3: 30, 4: 30, 5: 25, 6: 15, 7: 5}


def ordinary_pool() -> list[Request]:
    """The first curves per m of the criterion-07 draw (50 per m in turn)."""
    rng = random.Random(POOL_SEED)
    items = []
    for m in range(3, 8):
        curves = [random_ordinary_curve(rng, m) for _ in range(50)]
        items += [(f, (m,), f"m={m}") for f in curves[:ORDINARY_POOL[m]]]
    return _local_requests("analyze", items, "ordinary_batch")


def ordinary_stream(seed: int) -> Iterator[Request]:
    return _passes(seed, "ordinary_batch", ordinary_pool())


def check_ordinary(req: Request, doc: dict) -> bool:
    (m,) = req.expect
    tau = doc.get("tjurina")
    return (doc.get("multiplicity") == m
            and doc.get("ordinary") is True
            and doc.get("milnor") == (m - 1) ** 2
            and isinstance(tau, int)
            and (3 * m * m - 2 * m - 4) // 4 <= tau <= (m - 1) ** 2
            and doc.get("symmetry_order") == m - 1)


# ---------------------------------------------------------------------------
# an_ladder: classify double points of known A_n type


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b), c in f.items():
        for (d, e), k in g.items():
            out[(a + d, b + e)] = out.get((a + d, b + e), 0) + c * k
    return {m: c for m, c in out.items() if c != 0}


def _sub(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) - c
    return {m: c for m, c in out.items() if c != 0}


def contact_fixture(e: int) -> tuple[dict, int]:
    """(y - x^e)(y - x^e - y^e): two smooth branches with contact e^2,
    an A_{2e^2-1} point (A_7, A_17, A_31, A_49 for e = 2..5)."""
    left = {(0, 1): 1, (e, 0): -1}
    return _mul(left, _sub(left, {(0, e): 1})), 2 * e * e - 1


def tailed_branches(rng: random.Random, k: int) -> tuple[dict, int]:
    """(y - g)(y - g - x^k h) with g = a x^2 + b x^3 and h(0) != 0: two
    smooth branches with contact k, an A_{2k-1} point."""
    nz = [c for c in range(-3, 4) if c]
    g = {(2, 0): rng.choice(nz), (3, 0): rng.choice(nz)}
    h_tail = {(k, 0): rng.choice(nz), (k + 1, 0): rng.randint(-3, 3)}
    left = _sub({(0, 1): 1}, g)
    return _mul(left, _sub(left, {m: c for m, c in h_tail.items() if c})), 2 * k - 1


# One pass: y^2 - x^(n+1) for every n = 1..60, tailed curves weighted toward
# small contact k (each further k doubles the cost, so k stops at 7), and
# four copies of each contact fixture, each copy at its own point.
SPARSE_N = range(1, 61)
TAILS = {2: 12, 3: 12, 4: 9, 5: 6, 6: 5, 7: 3}
CONTACT_EXPONENTS = (2, 3, 4, 5)
CONTACT_COPIES = 4


def ladder_pool() -> list[Request]:
    rng = random.Random(f"{POOL_SEED}:an_ladder")
    items = [({(0, 2): 1, (n + 1, 0): -1}, (n,), "sparse") for n in SPARSE_N]
    for k, count in TAILS.items():
        for _ in range(count):
            curve, n = tailed_branches(rng, k)
            items.append((curve, (n,), f"tail k={k}"))
    for e in CONTACT_EXPONENTS:
        curve, n = contact_fixture(e)
        items += [(curve, (n,), f"contact e={e}")] * CONTACT_COPIES
    return _local_requests("classify", items, "an_ladder")


def ladder_stream(seed: int) -> Iterator[Request]:
    return _passes(seed, "an_ladder", ladder_pool())


def check_ladder(req: Request, doc: dict) -> bool:
    (n,) = req.expect
    return doc.get("kind") == "A_n" and doc.get("n") == n


# ---------------------------------------------------------------------------
# family_scan: every admissible (a, b, c) with a = 2..12, in seeded order


FAMILY_A = range(2, 13)


def family_tuples() -> list[tuple[int, int, int]]:
    """Normalized (a, b, c): c <= b <= a + 2 and b + c > a."""
    return [(a, b, c) for a in FAMILY_A for b in range(1, a + 3)
            for c in range(b + 1) if b + c > a]


def family_stream(seed: int) -> Iterator[Request]:
    pool = [Request(("family", "--a", str(a), "--b", str(b), "--c", str(c), "--verify-gb", "--json"),
                    (a, b, c), f"a={a}") for a, b, c in family_tuples()]
    return _passes(seed, "family_scan", pool)


def check_family(req: Request, doc: dict) -> bool:
    a, b, c = req.expect
    live = doc.get("tjurina_live")
    return ((doc.get("a"), doc.get("b"), doc.get("c")) == (a, b, c)
            and isinstance(live, int)
            and live == doc.get("tjurina_formula")
            and (3 * a * a - 2 * a - 4) // 4 <= live <= (a - 1) ** 2
            and doc.get("gb_match") is not False
            and doc.get("lt_match") is not False)


# ---------------------------------------------------------------------------
# global_tau: global Tjurina numbers of rational line arrangements


def _primitive(v: tuple[int, int, int]) -> tuple[int, int, int]:
    g = gcd(*v)
    v = tuple(c // g for c in v)
    first = next(c for c in v if c)
    return v if first > 0 else tuple(-c for c in v)


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def arrangement_tau(lines) -> int:
    """Sum over intersection points p of (k_p - 1)^2, k_p the number of lines
    through p: each point is an ordinary k_p-fold point of the union, whose
    Tjurina number is (k_p - 1)^2."""
    through: dict = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        p = _primitive(_cross(lines[i], lines[j]))
        through.setdefault(p, set()).update((i, j))
    return sum((len(s) - 1) ** 2 for s in through.values())


def line_arrangement(rng: random.Random, d: int) -> list[tuple[int, int, int]]:
    """d distinct lines a x0 + b x1 + c x2 with small integer coefficients,
    including d // 3 triples forced through a common seeded point."""
    lines: list = []
    for _ in range(d // 3):
        while True:
            point = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(point):
                break
        triple: set = set()
        while len(triple) < 3:
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            w = _cross(point, v)
            if any(w) and _primitive(w) not in lines:
                triple.add(_primitive(w))
        lines.extend(sorted(triple))
    while len(lines) < d:
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        if any(v) and _primitive(v) not in lines:
            lines.append(_primitive(v))
    return lines


def _render_line(line) -> str:
    return render({m: c for m, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line) if c},
                  names=("x0", "x1", "x2"))


# Arrangements per number of lines d in one pass, weighted toward the cheap
# small ones (d = 10 costs about a hundred times d = 4).
ARRANGEMENTS = {4: 26, 5: 26, 6: 26, 7: 20, 8: 16, 9: 10, 10: 8}


def arrangement_pool() -> list[tuple[list, int]]:
    rng = random.Random(f"{POOL_SEED}:global_tau")
    pool = []
    for d, count in ARRANGEMENTS.items():
        for _ in range(count):
            lines = line_arrangement(rng, d)
            pool.append((lines, arrangement_tau(lines)))
    return pool


def global_stream(seed: int) -> Iterator[Request]:
    # Scaling a line or reordering the product changes the text, not the ideal.
    rng = random.Random(f"{seed}:global_tau:scaling")
    for lines, tau in _passes(seed, "global_tau", arrangement_pool()):
        scaled = []
        for line in lines:
            factor = rng.choice((-2, -1, 1, 2, 3))
            scaled.append(tuple(factor * c for c in line))
        rng.shuffle(scaled)
        text = "*".join(f"({_render_line(line)})" for line in scaled)
        yield Request(("global-tjurina", "--curve=" + text, "--json"), (tau,), f"d={len(lines)}")


def check_global(req: Request, doc: dict) -> bool:
    return doc.get("global_tjurina") == req.expect[0]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json at the repository root says why each exists."""

    name: str
    stream: Callable[[int], Iterator[Request]]
    check: Callable[[Request, dict], bool]
    warmup: Request               # fixed, cheap, uncounted
    pass_size: int                # requests in one run of the default length
    must_reach: tuple[str, ...]   # traced names that must see calls


WORKLOADS = {w.name: w for w in (
    Workload(
        "ordinary_batch",
        ordinary_stream, check_ordinary,
        Request(("analyze", "--curve=x^3-y^3+x^4", "--point=0,0", "--json"), (3,), "warm-up"),
        sum(ORDINARY_POOL.values()),
        ("cli.main", "exprio.parse_poly", "poly.translate_to_origin", "poly.Polynomial.mul",
         "binforms.squarefree_binary_form", "binforms.upoly_gcd", "groebner.buchberger",
         "groebner.s_polynomial", "groebner.normal_form", "lengths.local_length_at_origin",
         "lengths.alpha", "lengths.staircase_length", "analyzer.analyze",
         "analyzer.k_symmetry_order"),
    ),
    Workload(
        "an_ladder",
        ladder_stream, check_ladder,
        Request(("classify", "--curve=y^2-x^3+x^4", "--point=0,0", "--json"), (2,), "warm-up"),
        len(SPARSE_N) + sum(TAILS.values()) + len(CONTACT_EXPONENTS) * CONTACT_COPIES,
        ("cli.main", "exprio.parse_poly", "poly.translate_to_origin", "groebner.buchberger",
         "groebner.normal_form", "lengths.local_length_at_origin", "lengths.alpha",
         "analyzer.classify_double_point"),
    ),
    Workload(
        "family_scan",
        family_stream, check_family,
        # b = a + 4 keeps the warm-up tuple out of the pool
        Request(("family", "--a", "3", "--b", "6", "--c", "1", "--verify-gb", "--json"),
                (3, 6, 1), "warm-up"),
        len(family_tuples()),
        ("cli.main", "exprio.render_poly", "family.verify_params", "groebner.buchberger",
         "lengths.local_length_at_origin", "lengths.staircase_length"),
    ),
    Workload(
        "global_tau",
        global_stream, check_global,
        Request(("global-tjurina", "--curve=x0*x1*(x0+x1)*(x0-x1+x2)", "--json"), (7,),
                "warm-up"),
        sum(ARRANGEMENTS.values()),
        ("cli.main", "exprio.parse_poly", "lengths.global_tjurina", "groebner.buchberger"),
    ),
)}
