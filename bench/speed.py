"""Machine-speed reference for normalising benchmark times.

On small shared machines the same request can take 1.5 times longer for
minutes at a stretch while neighbours load the host, which would swamp any
change in the engine.  The benchmark therefore times a fixed reference
kernel between requests and reports each time scaled to a machine on which
the kernel takes ``REFERENCE_MS``.  The kernel does the engine's kind
of work (sparse bivariate products with ``Fraction`` coefficients in dicts),
so both slow down alike; it never calls the package under test.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_MS = 3.0

_F = {(i, j): Fraction(i + 2 * j + 1, j + 3) for i in range(8) for j in range(8 - i)}
_G = {(i, j): Fraction(3 * i - j, i + 2) for i in range(6) for j in range(6 - i) if 3 * i != j}


def _kernel() -> dict:
    out: dict = {}
    for (a, b), c in _F.items():
        for (d, e), k in _G.items():
            m = (a + d, b + e)
            out[m] = out.get(m, 0) + c * k
    return out


def sample() -> float:
    """Seconds for one run of the reference kernel (mean of two runs)."""
    t0 = time.perf_counter()
    _kernel()
    _kernel()
    return (time.perf_counter() - t0) / 2


def scale(samples: list[float]) -> float:
    """Factor that maps times measured alongside ``samples`` to the
    reference machine."""
    return REFERENCE_MS / 1000 / statistics.median(samples)


def bracket_scales(samples: list[float]) -> list[float]:
    """One factor per request from the samples taken just before and just
    after it (``len(samples)`` is one more than the number of requests)."""
    return [REFERENCE_MS / 1000 / ((samples[i] + samples[i + 1]) / 2)
            for i in range(len(samples) - 1)]
