"""hyperplan benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload search-permute --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src``. Each
request starts when the previous one returned. The run repeats whole passes
over the workload's requests, in the seed's order, while another pass still
fits in ``--seconds``; an untraced run makes at least two. Every request's result
is checked (see ``checks.py``); a failed request is counted, never fatal.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first makes one
untraced pass, then wraps the program's functions (see ``spans.py``), sets
the workload up again and makes traced passes; it prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary of any
failures goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (needs no program code)
import reference  # noqa: E402
import spans  # noqa: E402

# Set-up is repeated and its median reported; only the last build is used.
SETUP_REPEATS = 11
# Fewest passes of an untraced run: with the smallest pool (52 requests) two
# passes put at least 10 request times beyond the 90th percentile.
MIN_PASSES = 2
# Requests and set-ups are timed in CPU time of this process. The hosts are
# virtual machines whose hypervisor takes the CPU away for stretches (steal
# time); wall time counts those stretches, CPU time does not. On a shared
# 2-vCPU virtual machine, 60 timings of a fixed loop spread by 0.35 in wall
# time and by 0.11 in CPU time ((q3 - q1) / median).
cpu_clock = time.process_time


def fresh_workloads():
    """Import the program and the workload module anew, as a new process would."""
    for name in list(sys.modules):
        if name == "workloads" or name == "hyperplan" or name.startswith("hyperplan."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(workload: str, seed: int, work: Path, limit: int | None) -> tuple:
    """Import, generate and prepare SETUP_REPEATS times.

    Returns the last build and the median set-up time in seconds, scaled
    like a request time (see ``Loop.scaled_ms``) and as measured. Each
    set-up writes into a directory of its own, so no set-up overwrites or
    deletes a file (see ``run``).
    """
    reference_ms = [reference.time_task_ms()]
    scaled, measured = [], []
    for repeat in range(SETUP_REPEATS):
        started = cpu_clock()
        wl = fresh_workloads()
        built = wl.build(workload, seed, work / f"setup{repeat}", limit)
        took = cpu_clock() - started
        reference_ms.append(reference.time_task_ms())
        scaled.append(reference.scale(took, reference_ms[-2], reference_ms[-1]))
        measured.append(took)
    return wl, built, (statistics.median(scaled), statistics.median(measured))


class Loop:
    """Closed-loop passes over the requests, with checks and tallies."""

    def __init__(self, wl, workload: str, requests: list, ctx, judge) -> None:
        self.wl = wl
        self.serve = wl.SERVE[workload]
        self.requests = requests
        self.ctx = ctx
        self.judge = judge
        self.tracer = None
        self.samples: list = []    # seconds per request, as measured
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first: dict = {}      # key -> (verdict figures, fallback) of pass 1
        self.reasons: Counter = Counter()
        # One timing of the reference task (see reference.py) before the
        # first request and one after every request.
        self.reference_ms: list = [reference.time_task_ms()]

    def scaled_ms(self) -> list:
        """Request times in ms, each scaled by the reference timings just
        before and just after it."""
        refs = self.reference_ms
        return [1000.0 * reference.scale(took, refs[i], refs[i + 1])
                for i, took in enumerate(self.samples)]

    def one_pass(self) -> None:
        """Serve every request once."""
        self.ctx.new_pass()
        base = self.passes * len(self.requests)
        for i, req in enumerate(self.requests):
            if self.tracer is not None:
                self.tracer.request = base + i
                self.tracer.on = True
            started = cpu_clock()
            try:
                out = self.serve(req, self.ctx)
            except Exception as exc:  # counted as a failed request
                out = self.wl.Outcome(error=type(exc).__name__)
            took = cpu_clock() - started
            if self.tracer is not None:
                self.tracer.on = False
            self.samples.append(took)
            self.reference_ms.append(reference.time_task_ms())
            self.record(req, out)
        self.passes += 1

    def record(self, req, out) -> None:
        verdict = self.judge(req, out)
        result = (verdict.actions, verdict.makespan, out.fallback, not verdict.reasons)
        if self.passes == 0:
            self.first[req.key] = result
        elif self.first[req.key] != result:
            verdict.reasons.append("result differs from the first pass")
            verdict.wrong = True
        self.attempted += 1
        if verdict.reasons:
            self.failed += 1
            self.wrong += verdict.wrong
            self.reasons[f"{req.key}: {verdict.reasons[0]}"] += 1

    def run(self, seconds: float, min_passes: int = 1) -> None:
        """At least ``min_passes`` passes, and more while another one fits in
        ``seconds`` of wall time."""
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            self.one_pass()
            now = time.perf_counter()
            if (self.passes >= min_passes
                    and (now - started) + (now - pass_started) > seconds):
                return

    def ms_per_pass(self) -> float:
        """Mean scaled request time per pass, in ms."""
        return sum(self.scaled_ms()) / self.passes

    def first_pass_figures(self) -> dict:
        figures = list(self.first.values())
        reuse = [f for f in figures if f[2] is not None]
        return {
            "actions_total": sum(f[0] for f in figures),
            "makespan_total": sum(f[1] for f in figures),
            "fail_share": sum(1 for f in figures if not f[3]) / len(figures),
            "fallback_share": (sum(1 for f in reuse if f[2]) / len(reuse)) if reuse else 0.0,
        }


def harrell_davis(samples: list, p: float) -> float:
    """The Harrell-Davis estimate of the ``p``-quantile of ``samples``.

    It is a weighted mean of all order statistics: the i-th smallest of n
    weighs as much as a Beta(p(n+1), (1-p)(n+1)) variable's chance to fall
    in ((i-1)/n, i/n]. A plain sample quantile is one sample, and on a pool
    with few problems near the quantile it jumps with the noise of that one
    request time. On six runs of ``search-permute`` this estimate spread by
    0.022 (median) and 0.033 (90th percentile) where the plain quantiles
    spread by 0.059 and 0.065.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    steps = 16  # midpoint rule per interval; the weights are normalised below
    logs = [[(a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
             for x in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(n)]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def latency(samples_ms: list) -> tuple:
    """Median, 90th percentile and requests per second of request times."""
    return (harrell_davis(samples_ms, 0.5), harrell_davis(samples_ms, 0.9),
            len(samples_ms) * 1000.0 / sum(samples_ms))


def end_to_end(loop: Loop, setup: tuple) -> dict:
    """End-to-end metrics, with times scaled to the reference speed.

    ``setup`` is the pair that ``set_up`` returns. Unscaled figures go to
    standard error.
    """
    setup_s, setup_measured = setup
    reference_ms = statistics.median(loop.reference_ms)
    p50, p90, rate = latency(loop.scaled_ms())
    raw = latency([s * 1000.0 for s in loop.samples])
    print(f"measured: set-up {setup_measured:.4f} s, p50 {raw[0]:.4f} ms, p90 {raw[1]:.4f} ms, "
          f"{raw[2]:.4f} requests/s over {len(loop.samples)} requests; reference "
          f"task median {reference_ms:.2f} ms over {len(loop.reference_ms)} timings",
          file=sys.stderr)
    figures = loop.first_pass_figures()
    return {
        "setup_s": (setup_s, "s"),
        "request_ms_p50": (p50, "ms"),
        "request_ms_p90": (p90, "ms"),
        "requests_per_s": (rate, "1/s"),
        "actions_total": (figures["actions_total"], "actions"),
        "makespan_total": (figures["makespan_total"], "layers"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def check_sources(sources: dict, judge) -> list:
    """Reasons why any set-up scratch plan (reuse-transfer sources) is wrong."""
    bad = []
    for key, (req, out) in sorted(sources.items()):
        verdict = judge(req, out)
        bad += [f"{key}: {r}" for r in verdict.reasons]
    return bad


def run(workload: str, seed: int, seconds: float, trace: bool,
        limit: int | None = None, work: Path | None = None) -> dict:
    """One benchmark run; returns the result object the command prints.

    Files the run writes stay in ``work`` (by default under .bench_build/):
    deleting the thousands of strategy files a roundtrip run writes made the
    disk writes of the following runs up to twice as slow on the test
    machine, so runs would not have been comparable.
    """
    work = work or ROOT / ".bench_build" / f"{workload}-{os.getpid()}"
    wl, (requests, ctx, sources), setup = set_up(workload, seed, work, limit)
    from hyperplan.domain import execute_hypergraph, is_goal

    def judge(req, out):
        return checks.check(req, out, execute_hypergraph, is_goal)

    bad_sources = check_sources(sources, judge)
    if not trace:
        loop = Loop(wl, workload, requests, ctx, judge)
        loop.run(seconds, MIN_PASSES)
        metrics = end_to_end(loop, setup)
    else:
        started = time.perf_counter()
        untraced = Loop(wl, workload, requests, ctx, judge)
        untraced.run(0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.on = True
            requests, ctx, sources = wl.build(workload, seed, work / "traced", limit)
            tracer.on = False
            bad_sources += check_sources(sources, judge)
            loop = Loop(wl, workload, requests, ctx, judge)
            loop.tracer = tracer
            loop.run(seconds - (time.perf_counter() - started))
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer, len(requests), loop.passes)
        figures = loop.first_pass_figures()
        metrics["trace.overhead_share"] = (loop.ms_per_pass() / untraced.ms_per_pass() - 1.0,
                                           "ratio")
        metrics["fail_share"] = (figures["fail_share"], "ratio")
        metrics["fallback_share"] = (figures["fallback_share"], "ratio")
        causes = spans.exception_table(tracer, len(requests))
        if causes:
            print("exceptions recorded on spans (set-up and first pass):",
                  json.dumps(causes, sort_keys=True), file=sys.stderr)
    for line in bad_sources:
        print(f"set-up plan wrong: {line}", file=sys.stderr)
    for reason, times in sorted(loop.reasons.items()):
        print(f"failed x{times}: {reason}", file=sys.stderr)
    return {
        "correct": loop.wrong == 0 and not bad_sources,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
