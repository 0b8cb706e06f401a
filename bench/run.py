"""The tjurina benchmark: seeded CLI workloads, checked answers, and a
separate traced run for per-layer numbers.

    python3 bench/run.py --workload ordinary_batch --seed 1 --seconds 20 --trace 0

One closed-loop client in one process sends each request through the public
entry ``tjurina.cli.main(argv, out=...)`` only after the previous one has
returned, and checks the JSON that comes back.  A run is one pass over the
workload's fixed pool in an order drawn from the seed, sized so that it
takes about ``--seconds`` on the baseline commit (see ``Workload.pass_size``);
a faster engine finishes the same work sooner.

Every failed request is counted in ``failed``; every failure except the
CLI's typed analysis failure (exit 3, ``StabilizationError``) also makes the
run incorrect.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
pass untraced and then traced, and prints the per-layer metrics with the
tracing overhead; its spans go to ``.bench_out/`` in the checkout.  The last
line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Times are scaled to a reference machine speed (see ``speed.py``): a fixed
reference kernel is timed between requests, and each request's wall and CPU
time is multiplied by ``REFERENCE_MS`` over the mean of the two samples
around it.  The summary lines also print the raw figures and the scale.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Request, Workload  # noqa: E402

# The --seconds at which one run is exactly one pass of ``pass_size`` requests.
PASS_SECONDS = 20
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
# The CLI's exit code for a typed StabilizationError: a refusal, not a wrong answer.
EXIT_ANALYSIS = 3


@dataclass
class Outcome:
    request: Request
    code: int          # CLI exit code; -1 when main raised
    ok: bool           # exit 0 and the checked answer is right
    wall_s: float
    cpu_s: float
    error: str


def run_request(cli, workload: Workload, req: Request) -> Outcome:
    """Call the CLI once, timed outside ``main``, and check its answer."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = cli.main(list(req.argv), out=out)
        except SystemExit as e:  # argparse rejected the arguments
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # noqa: BLE001 - a crash is a failed request; keep going
            code, crash = -1, e
        t1 = time.perf_counter()
        c1 = time.process_time()
    error = err.getvalue().strip()
    if crash is not None:
        error = "".join(traceback.format_exception(crash)).strip()
    # Whatever was printed is checked, also on a nonzero exit: `family`
    # prints its document and exits 1 when the engine disagrees with itself.
    answer_ok = False
    if code == 0 or out.getvalue().strip():
        try:
            answer_ok = bool(workload.check(req, json.loads(out.getvalue())))
        except (json.JSONDecodeError, AttributeError, TypeError, ValueError):
            answer_ok = False
        if not answer_ok:
            error = "wrong answer: " + out.getvalue().replace("\n", " ")[:300]
    return Outcome(req, code, code == 0 and answer_ok, t1 - t0, c1 - c0, error)


def tally(outcomes: list[Outcome]) -> dict:
    """Failure accounting: a nonzero exit or a wrong answer fails a request;
    every failure but a typed analysis failure (exit 3) makes the run incorrect."""
    failed = [o for o in outcomes if not o.ok]
    wrong = [o for o in failed if o.code != EXIT_ANALYSIS]
    by_stratum: dict[str, int] = {}
    for o in failed:
        key = f"{o.request.stratum} (exit {o.code})"
        by_stratum[key] = by_stratum.get(key, 0) + 1
    return {"attempted": len(outcomes), "failed": len(failed), "wrong": len(wrong),
            "correct": not wrong, "by_stratum": by_stratum,
            "first_errors": [o.error for o in failed[:3]]}


@dataclass
class Pass:
    outcomes: list[Outcome]
    scales: list[float]   # per request: raw seconds -> reference-machine seconds
    elapsed_s: float      # raw wall time of the whole pass

    def walls(self) -> list[float]:
        return [o.wall_s * s for o, s in zip(self.outcomes, self.scales)]

    def cpus(self) -> list[float]:
        return [o.cpu_s * s for o, s in zip(self.outcomes, self.scales)]


def run_pass(cli, workload: Workload, requests: list[Request],
             tracer: Tracer | None = None) -> Pass:
    """Closed loop: one request at a time, between two reference samples."""
    outcomes, refs = [], []
    gc.collect()
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        refs.append(speed.sample())
        if tracer is not None:
            tracer.request_id = i
        outcomes.append(run_request(cli, workload, req))
    refs.append(speed.sample())
    return Pass(outcomes, speed.bracket_scales(refs), time.perf_counter() - t0)


def measure_setup(workload: Workload) -> float:
    """Median over fresh interpreters of import + one warm-up request."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        refs = [speed.sample() for _ in range(3)]
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *workload.warmup.argv],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        refs += [speed.sample() for _ in range(3)]
        samples.append(float(fields[0]) * speed.scale(refs))
    return statistics.median(samples)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics.  It moves far less from run to
    run than a single order statistic when every sample carries noise."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # weight of order statistic i: the Beta mass on [i/n, (i+1)/n], by Simpson's rule
    steps = 8
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ys = [density(i / n + j * h) for j in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(run: Pass, setup_s: float) -> dict:
    walls = [w * 1000 for w in run.walls()]
    ok = sum(o.ok for o in run.outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (ok / (sum(walls) / 1000), "1/s"),
        "latency_p50_ms": (quantile(walls, 0.5), "ms"),
        "latency_p90_ms": (quantile(walls, 0.9), "ms"),
        "cpu_ms_per_req": (quantile([c * 1000 for c in run.cpus()], 0.5), "ms"),
        "ok_share": (ok / len(walls), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(cli, workload: Workload, requests: list[Request], spans_path: Path):
    """The same pass untraced, then traced: per-layer metrics and overhead."""
    plain = run_pass(cli, workload, requests)
    tracer = Tracer()
    tracer.install()
    try:
        run = run_pass(cli, workload, requests, tracer)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(run.scales)
    calls = tracer.call_counts()
    missed = sorted(set(tracer.missing) | {n for n in workload.must_reach if calls[n] == 0})
    for name in missed:
        print(f"warning: traced name {name} saw no calls on {workload.name}; "
              "a binding was missed or the program changed", file=sys.stderr)
    untraced_s, traced_s = sum(plain.walls()), sum(run.walls())
    metrics = {name: (layer[name], unit) for name, unit in LAYER_METRICS.items()}
    metrics.update({
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "share"),
        "trace.missed_bindings": (len(missed), "count"),
    })
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "tjurina" / "cli.py").is_file():
        print(f"error: no tjurina sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup_s = measure_setup(workload) if not args.trace else 0.0
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("tjurina.cli")
    warm = run_request(cli, workload, workload.warmup)
    if not warm.ok:
        print(f"error: warm-up request failed: {warm.error}", file=sys.stderr)
        return 2

    count = max(1, round(workload.pass_size * args.seconds / PASS_SECONDS))
    requests = list(itertools.islice(workload.stream(args.seed), count))
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        run, metrics = traced(cli, workload, requests, spans)
    else:
        run = run_pass(cli, workload, requests)
        metrics = end_to_end(run, setup_s)
    result = tally(run.outcomes)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"requests {result['attempted']}  failed {result['failed']}  wrong {result['wrong']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_share':40s} {result['failed'] / result['attempted']:14.6g} share")
    raw = sorted(o.wall_s * 1000 for o in run.outcomes)
    print(f"  raw, unscaled: pass {run.elapsed_s:.3f} s, p50 {statistics.median(raw):.3f} ms, "
          f"scale to reference machine {statistics.median(run.scales):.4f}")
    for key, n in result["by_stratum"].items():
        print(f"  failed: {n} x {key}")
    for error in result["first_errors"]:
        print(f"  first error: {error[:400]}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
