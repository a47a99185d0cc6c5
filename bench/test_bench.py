"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench -q

Checks that a run emits every metric BENCHMARK.json names, with its unit,
and that the per-request checks count a broken plan, a wrong optimum, a
broken round trip and an escaped exception as failures instead of passing
them.
"""

import json
from pathlib import Path

import pytest

import checks
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted(workload, trace, kind, tmp_path):
    result = run.run(workload, seed=3, seconds=0, trace=trace, limit=2, work=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def tiny_loop(tmp_path, workload="search-permute"):
    wl, (requests, ctx, _), _ = run.set_up(workload, 5, tmp_path / "work", limit=3)
    from hyperplan.domain import execute_hypergraph, is_goal

    def judge(req, out):
        return checks.check(req, out, execute_hypergraph, is_goal)

    return wl, run.Loop(wl, workload, requests, ctx, judge)


def drop_last_arc(graph):
    from hyperplan.hypergraph import SolutionHypergraph

    arcs = dict(graph.arcs)
    arcs.pop(max(arcs))
    return SolutionHypergraph(graph.nodes, arcs)


def test_untouched_requests_pass(tmp_path):
    _, loop = tiny_loop(tmp_path)
    loop.one_pass()
    assert (loop.attempted, loop.failed) == (3, 0)


def test_plan_with_a_dropped_arc_is_a_failure(tmp_path):
    _, loop = tiny_loop(tmp_path)
    serve = loop.serve
    replays = []

    def corrupt(req, ctx):
        out = serve(req, ctx)
        out.plans = [(drop_last_arc(g), n, optimal) for g, n, optimal in out.plans]
        replays.append(checks.replay(out.plans[0][0], req.problem))
        return out

    loop.serve = corrupt
    loop.one_pass()
    assert (loop.attempted, loop.failed, loop.wrong) == (3, 3, 3)
    assert all(text is not None for text in replays)


def test_wrong_expected_optimum_is_a_failure(tmp_path):
    _, loop = tiny_loop(tmp_path)
    for req in loop.requests:
        req.expected += 1
    loop.one_pass()
    assert (loop.attempted, loop.failed, loop.wrong) == (3, 3, 3)


def test_changed_round_trip_is_a_failure(tmp_path):
    _, loop = tiny_loop(tmp_path, "roundtrip-corpus")
    serve = loop.serve

    def lossy(req, ctx):
        out = serve(req, ctx)
        out.round_trips.append(("plan", lambda: False))
        return out

    loop.serve = lossy
    loop.one_pass()
    assert (loop.attempted, loop.failed, loop.wrong) == (3, 3, 3)


def explode(req, ctx):
    raise ValueError("boom")


def test_escaped_exception_is_a_failure_not_a_crash(tmp_path):
    _, loop = tiny_loop(tmp_path, "reuse-transfer")
    loop.serve = explode
    loop.one_pass()
    assert (loop.attempted, loop.failed, loop.wrong) == (3, 3, 3)


def test_known_exception_fails_without_lowering_the_totals(tmp_path):
    _, loop = tiny_loop(tmp_path)
    for req in loop.requests:
        req.known_error = "ValueError"
    loop.serve = explode
    loop.one_pass()
    assert (loop.attempted, loop.failed, loop.wrong) == (3, 3, 0)
    figures = loop.first_pass_figures()
    optimum = sum(req.expected for req in loop.requests)
    assert figures["actions_total"] == optimum
    assert figures["makespan_total"] == optimum


def test_harrell_davis_quantiles():
    ranks = [float(i) for i in range(1, 102)]
    assert run.harrell_davis(ranks, 0.5) == pytest.approx(51.0)
    # For evenly spaced samples the estimate is p * n + 1/2 in rank units.
    assert run.harrell_davis(ranks, 0.9) == pytest.approx(91.4, abs=0.01)
    assert run.harrell_davis([7.0], 0.9) == pytest.approx(7.0)
    assert run.harrell_davis(list(reversed(ranks)), 0.5) == pytest.approx(51.0)
