"""Spans around the public calls into each layer of the tjurina package.

The tracer replaces a function on every module namespace (and class) of the
package that bound it, so ``from .lengths import local_length_at_origin`` in
``analyzer`` is traced like the call inside ``lengths``, and puts every
original back on ``uninstall``.  Spans are kept in memory in flat arrays
(name, parent span, request id, start, end) and written out at the end;
per-layer metrics are aggregated from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# metric prefix -> (module, attribute path) of the traced callable
TARGETS = {
    "cli.main": ("tjurina.cli", "main"),
    "exprio.parse_poly": ("tjurina.exprio", "parse_poly"),
    "exprio.render_poly": ("tjurina.exprio", "render_poly"),
    "poly.translate_to_origin": ("tjurina.poly", "translate_to_origin"),
    "poly.Polynomial.mul": ("tjurina.poly", "Polynomial.__mul__"),
    "binforms.squarefree_binary_form": ("tjurina.binforms", "squarefree_binary_form"),
    "binforms.upoly_gcd": ("tjurina.binforms", "upoly_gcd"),
    "groebner.buchberger": ("tjurina.groebner", "buchberger"),
    "groebner.s_polynomial": ("tjurina.groebner", "s_polynomial"),
    "groebner.normal_form": ("tjurina.groebner", "_normal_form"),
    "groebner.divide": ("tjurina.groebner", "divide"),
    "lengths.local_length_at_origin": ("tjurina.lengths", "local_length_at_origin"),
    "lengths.alpha": ("tjurina.lengths", "_alpha"),
    "lengths.global_tjurina": ("tjurina.lengths", "global_tjurina"),
    "lengths.staircase_length": ("tjurina.lengths", "staircase_length"),
    "analyzer.analyze": ("tjurina.analyzer", "analyze"),
    "analyzer.k_symmetry_order": ("tjurina.analyzer", "k_symmetry_order"),
    "analyzer.classify_double_point": ("tjurina.analyzer", "classify_double_point"),
    "family.verify_params": ("tjurina.family", "verify_params"),
}
NAMES = tuple(TARGETS)
_INDEX = {name: i for i, name in enumerate(NAMES)}

# Per-layer metrics with units, in report order.  "<name>.calls" and
# "<name>.s" (inclusive seconds) come straight from the spans; the rest are
# derived in ``layer_metrics``.
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "exprio.parse_poly.calls": "count",
    "exprio.parse_poly.s": "s",
    "exprio.render_poly.s": "s",
    "poly.translate_to_origin.calls": "count",
    "poly.translate_to_origin.s": "s",
    "poly.Polynomial.mul.calls": "count",
    "poly.Polynomial.mul.s": "s",
    "binforms.squarefree_binary_form.s": "s",
    "binforms.upoly_gcd.calls": "count",
    "binforms.upoly_gcd.s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.s": "s",
    "groebner.buchberger.basis_len_max": "count",
    "groebner.buchberger.coeff_bits_max": "bits",
    "groebner.s_polynomial.calls": "count",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.s": "s",
    "groebner.normal_form.zero_share": "share",
    "groebner.divide.calls": "count",
    "groebner.divide.s": "s",
    "lengths.local_length_at_origin.calls": "count",
    "lengths.local_length_at_origin.s": "s",
    "lengths.truncations": "count",
    "lengths.alpha.s": "s",
    "lengths.base_gb.s": "s",
    "lengths.global_tjurina.calls": "count",
    "lengths.global_tjurina.s": "s",
    "lengths.staircase_length.s": "s",
    "analyzer.analyze.s": "s",
    "analyzer.tau_s": "s",
    "analyzer.mu_s": "s",
    "analyzer.k_symmetry_order.s": "s",
    "analyzer.classify_double_point.s": "s",
    "family.verify_params.s": "s",
    "family.gb_check_s": "s",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the program no longer has it."""
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Records one span per traced call; install, run requests, uninstall."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("l")          # generator count of local-length calls
        self.request_id = -1
        self.missing: list[str] = []   # targets the program does not define
        self.truncations = 0
        self.nf_zero = 0
        self.basis_len_max = 0
        self.coeff_bits_max = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every binding of every target in the loaded package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tjurina" or n.startswith("tjurina."))]
        for name, (module_name, path) in TARGETS.items():
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, _attr, original = found
            wrapper = self._wrap(_INDEX[name], original)
            # a class attribute may be bound twice (Polynomial.__rmul__ = __mul__)
            namespaces = [owner] if isinstance(owner, type) else modules
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()

    def bindings(self) -> list[tuple[object, str]]:
        return [(ns, key) for ns, key, _ in self._restore]

    def _wrap(self, index: int, fn):
        after = {
            _INDEX["lengths.local_length_at_origin"]: self._after_local_length,
            _INDEX["groebner.normal_form"]: self._after_normal_form,
            _INDEX["groebner.buchberger"]: self._after_buchberger,
        }.get(index)
        is_local_length = index == _INDEX["lengths.local_length_at_origin"]
        now = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.tag.append(len(args[0]) if is_local_length and args else 0)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = now()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_local_length(self, result):
        trace = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        self.truncations += len(getattr(trace, "pairs", ()))

    def _after_normal_form(self, result):
        self.nf_zero += not result

    def _after_buchberger(self, result):
        gens = getattr(result, "generators", ())
        self.basis_len_max = max(self.basis_len_max, len(gens))
        for g in gens:
            for _mono, c in g.terms():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits

    # -- reading ---------------------------------------------------------

    def call_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(NAMES, 0)
        for i in self.name:
            counts[NAMES[i]] += 1
        return counts

    def layer_metrics(self, scales: list[float]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (see LAYER_METRICS); the
        span durations of request i are multiplied by ``scales[i]``."""
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * scales[self.request[i]] for i in range(n)]
        child = [0.0] * n
        alpha_child = [0.0] * n
        alpha = _INDEX["lengths.alpha"]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if self.name[i] == alpha:
                    alpha_child[p] += dur[i]
        calls = self.call_counts()
        secs = dict.fromkeys(NAMES, 0.0)
        for i in range(n):
            secs[NAMES[self.name[i]]] += dur[i]

        def parent_is(i: int, name: str) -> bool:
            p = self.parent[i]
            return p >= 0 and self.name[p] == _INDEX[name]

        local = _INDEX["lengths.local_length_at_origin"]
        buch = _INDEX["groebner.buchberger"]
        cli = _INDEX["cli.main"]
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = secs[name]
        nf_calls = calls["groebner.normal_form"]
        out.update({
            "cli.self_s": sum(dur[i] - child[i] for i in range(n) if self.name[i] == cli),
            "groebner.buchberger.basis_len_max": self.basis_len_max,
            "groebner.buchberger.coeff_bits_max": self.coeff_bits_max,
            "groebner.normal_form.zero_share": self.nf_zero / nf_calls if nf_calls else 0.0,
            "lengths.truncations": self.truncations,
            "lengths.base_gb.s": sum(dur[i] - alpha_child[i] for i in range(n)
                                     if self.name[i] == local),
            "analyzer.tau_s": sum(dur[i] for i in range(n) if self.name[i] == local
                                  and self.tag[i] == 3 and parent_is(i, "analyzer.analyze")),
            "analyzer.mu_s": sum(dur[i] for i in range(n) if self.name[i] == local
                                 and self.tag[i] == 2 and parent_is(i, "analyzer.analyze")),
            "family.gb_check_s": sum(dur[i] for i in range(n) if self.name[i] == buch
                                     and parent_is(i, "family.verify_params")),
        })
        return {name: out[name] for name in LAYER_METRICS}

    def write_spans(self, path):
        """One JSON array per line: [span, name, parent, request, start, end]."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([i, NAMES[self.name[i]], self.parent[i], self.request[i],
                                     round(self.start[i] - t0, 7), round(self.end[i] - t0, 7)]))
                fh.write("\n")
