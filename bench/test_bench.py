"""Self-tests of the benchmark: inputs, checks, wrappers and a smoke pass.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import gzip
import importlib.util
import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tjurina import cli, parse_poly, translate_to_origin  # noqa: E402
from tjurina import poly as tj_poly  # noqa: E402
from tjurina.binforms import squarefree_binary_form  # noqa: E402


def _first(name, seed, n):
    return list(itertools.islice(workloads.WORKLOADS[name].stream(seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_are_deterministic_per_seed(name):
    size = workloads.WORKLOADS[name].pass_size
    assert _first(name, 7, size) == _first(name, 7, size)
    assert _first(name, 7, size) != _first(name, 8, size)


def test_ordinary_pool_is_the_criterion_07_draw():
    spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    rng = random.Random(workloads.POOL_SEED)
    expected = []
    for m in range(3, 8):
        curves = [acceptance._random_ordinary_curve(rng, m) for _ in range(50)]
        expected += [(f.terms_dict(), (m,), f"m={m}") for f in curves[:workloads.ORDINARY_POOL[m]]]
    assert workloads.ordinary_pool() == workloads._local_requests("analyze", expected, "ordinary_batch")


def test_squarefree_copy_agrees_with_the_engine():
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(2, 6)
        form = {(i, m - i): c for i in range(m + 1) if (c := rng.randint(-2, 2))}
        if form:
            want = squarefree_binary_form(tj_poly.Polynomial(2, form))
            assert workloads.squarefree_form(form) == want, form


def test_shifted_text_translates_back():
    f = {(3, 0): 1, (1, 2): -2, (0, 4): Fraction(3, 2)}
    point = (Fraction(-2, 3), Fraction(1, 2))
    g = parse_poly(workloads.render(workloads.shift(f, point)))
    assert translate_to_origin(g, point) == tj_poly.Polynomial(2, f)


def test_arrangement_tau_from_the_lines():
    concurrent = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert workloads.arrangement_tau(concurrent + [(1, -1, 1)]) == 4 + 3
    assert workloads.arrangement_tau(concurrent + [(1, -1, 0)]) == 9
    assert workloads.arrangement_tau([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]) == 6


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_request_repeats_in_a_pass(name):
    wl = workloads.WORKLOADS[name]
    argvs = [r.argv for r in _first(name, 7, wl.pass_size)]
    assert len(set(argvs)) == len(argvs)
    assert wl.warmup.argv not in argvs


def test_fixture_types_and_family_size():
    assert [workloads.contact_fixture(e)[1] for e in (2, 3, 4, 5)] == [7, 17, 31, 49]
    assert len(workloads.family_tuples()) == 411


class _FakeCli:
    def __init__(self, code=0, text="", raises=None):
        self.code, self.text, self.raises = code, text, raises

    def main(self, argv, out):
        if self.raises:
            raise self.raises
        out.write(self.text)
        return self.code


def test_checker_rejects_planted_wrong_answer_and_counts_failures():
    wl = workloads.WORKLOADS["an_ladder"]
    req = workloads.Request(("classify",), (7,), "contact e=2")
    right = run.run_request(_FakeCli(text=json.dumps({"kind": "A_n", "n": 7})), wl, req)
    wrong = run.run_request(_FakeCli(text=json.dumps({"kind": "A_n", "n": 8})), wl, req)
    refused = run.run_request(_FakeCli(code=3), wl, req)
    crashed = run.run_request(_FakeCli(raises=RuntimeError("boom")), wl, req)
    assert right.ok and not wrong.ok and not refused.ok and not crashed.ok
    counted = run.tally([right, refused])
    assert (counted["attempted"], counted["failed"], counted["wrong"]) == (2, 1, 0)
    assert counted["correct"] and counted["by_stratum"] == {"contact e=2 (exit 3)": 1}
    assert not run.tally([right, wrong])["correct"]
    assert not run.tally([right, crashed])["correct"]
    assert run.tally([wrong, refused, crashed])["failed"] == 3


def test_nonzero_exit_is_wrong_unless_typed():
    wl = workloads.WORKLOADS["family_scan"]
    req = workloads.Request(("family",), (5, 4, 2), "a=5")
    doc = {"a": 5, "b": 4, "c": 2, "tjurina_live": 15, "tjurina_formula": 15,
           "gb_match": True, "lt_match": True}
    right = run.run_request(_FakeCli(text=json.dumps(doc)), wl, req)
    # `family` prints its document and exits 1 when live and formula disagree
    mismatch = run.run_request(
        _FakeCli(code=1, text=json.dumps({**doc, "tjurina_formula": 14})), wl, req)
    gb_off = run.run_request(_FakeCli(code=1, text=json.dumps({**doc, "gb_match": False})), wl, req)
    off_curve = run.run_request(_FakeCli(code=4), wl, req)
    refused = run.run_request(_FakeCli(code=3), wl, req)
    assert right.ok and not (mismatch.ok or gb_off.ok or off_curve.ok or refused.ok)
    assert mismatch.error.startswith("wrong answer")
    for bad in (mismatch, gb_off, off_curve):
        assert not run.tally([right, bad])["correct"]
    assert run.tally([right, refused])["correct"]


def _bindings():
    import tjurina
    mods = {n: m for n, m in sys.modules.items() if n == "tjurina" or n.startswith("tjurina.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items() if callable(v)}
    snap.update({("Polynomial", k): v for k, v in vars(tjurina.Polynomial).items()})
    return snap


def test_missing_target_is_flagged(monkeypatch):
    assert all(set(w.must_reach) <= set(spans.NAMES) for w in workloads.WORKLOADS.values())
    monkeypatch.setitem(spans.TARGETS, "lengths.alpha", ("tjurina.lengths", "_no_such_function"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["lengths.alpha"]


def test_wrappers_cover_every_binding_and_restore_the_originals():
    import tjurina.analyzer
    import tjurina.family
    import tjurina.groebner
    import tjurina.lengths
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = {(getattr(ns, "__name__", ""), key) for ns, key in tracer.bindings()}
        for expected in [("tjurina.analyzer", "local_length_at_origin"),
                         ("tjurina.family", "local_length_at_origin"),
                         ("tjurina.lengths", "buchberger"), ("tjurina.analyzer", "buchberger"),
                         ("tjurina.family", "buchberger"), ("tjurina.groebner", "_normal_form"),
                         ("tjurina.cli", "analyze"), ("Polynomial", "__mul__"),
                         ("Polynomial", "__rmul__")]:
            assert expected in wrapped, expected
        assert tjurina.lengths.buchberger is not before[("tjurina.lengths", "buchberger")]
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_smoke_pass_runs_every_workload(tmp_path):
    for name, wl in workloads.WORKLOADS.items():
        requests = [wl.warmup] + _first(name, 3, 2)
        done = run.run_pass(cli, wl, requests)
        result = run.tally(done.outcomes)
        assert result["correct"] and done.elapsed_s > 0, (name, result)
        metrics = run.end_to_end(done, 0.1)
        assert all(value > 0 for value, _unit in metrics.values()), (name, metrics)


def test_traced_counts_repeat_exactly(tmp_path):
    wl = workloads.WORKLOADS["ordinary_batch"]
    requests = [wl.warmup] + [r for r in _first("ordinary_batch", 3, 40) if r.stratum == "m=3"][:2]
    runs = [run.traced(cli, wl, requests, tmp_path / f"spans{i}.jsonl.gz")[1] for i in range(2)]
    assert set(runs[0]) >= set(spans.LAYER_METRICS)
    counts = [{k: v for k, (v, unit) in r.items() if unit == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["groebner.buchberger.calls"] > 0
    assert counts[0]["trace.missed_bindings"] == 0
    with gzip.open(tmp_path / "spans0.jsonl.gz", "rt") as fh:
        first = json.loads(fh.readline())
    assert first[1] == "cli.main" and first[2] == -1


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "family_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
