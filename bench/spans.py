"""Spans recorded from outside the program, and the per-layer metrics.

The traced run replaces module attributes that the program looks up at
call time (``hyperplan.planner.apply`` and the like) with wrappers that
record one span per call: name, start, end, parent span, request id and the
class of any exception that passed through. Spans stay in memory, in
compact arrays, until the run ends. A span's self time is its duration
minus the durations of its direct children; calls are single-threaded and
nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from pathlib import Path

# (module, attribute, span name). A function imported into several modules is
# wrapped in each, under one span name: the name of the layer it belongs to.
INSTRUMENTED = (
    ("planner", "plan", "planner.plan"),
    ("planner", "heuristic", "planner.heuristic"),
    ("planner", "apply", "domain.apply"),
    ("planner", "applicable_actions", "domain.applicable_actions"),
    ("planner", "is_goal", "domain.is_goal"),
    ("planner", "build_hypergraph", "planner.build_hypergraph"),
    ("planner", "execute_hypergraph", "domain.execute_hypergraph"),
    ("reuse", "plan", "planner.plan"),
    ("reuse", "reuse_pipeline", "reuse.reuse_pipeline"),
    ("reuse", "ground_strategy", "reuse.ground_strategy"),
    ("reuse", "reconstruct", "reuse.reconstruct"),
    ("reuse", "refine", "reuse.refine"),
    ("reuse", "build_hypergraph", "planner.build_hypergraph"),
    ("reuse", "execute_hypergraph", "domain.execute_hypergraph"),
    ("reuse", "apply", "domain.apply"),
    ("reuse", "is_goal", "domain.is_goal"),
    ("reuse", "topological_order", "hypergraph.topological_order"),
    ("domain", "validate_hyperpath", "hypergraph.validate_hyperpath"),
    ("domain", "topological_order", "hypergraph.topological_order"),
    ("hypergraph", "validate_hyperpath", "hypergraph.validate_hyperpath"),
    ("abstraction", "extract_strategy", "abstraction.extract_strategy"),
    ("abstraction", "remove_robot_entities", "abstraction.remove_robot_entities"),
    ("abstraction", "select_critical_nodes", "abstraction.select_critical_nodes"),
    ("abstraction", "abstract_labels", "abstraction.abstract_labels"),
    ("abstraction", "execute_hypergraph", "domain.execute_hypergraph"),
    ("abstraction", "is_goal", "domain.is_goal"),
    ("abstraction", "topological_order", "hypergraph.topological_order"),
    ("library", "store", "library.store"),
    ("library", "read_record", "library.read_record"),
    ("library", "load", "library.load"),
    ("library", "retrieve", "library.retrieve"),
    ("cli", "parse_scenario", "cli.parse_scenario"),
    ("cli", "plan_to_json", "cli.plan_to_json"),
    ("cli", "plan_from_json", "cli.plan_from_json"),
)


# --- observers: figures read off a call's arguments, result or exception --------

def _observe_plan(tracer, idx, args, kwargs, result, exc):
    stats_expansions = stats_generated = 0
    if result is not None:
        stats_expansions, stats_generated = result[1].expansions, result[1].generated
    elif exc is not None and hasattr(exc, "max_expansions"):
        stats_expansions = exc.max_expansions
    tracer.extra[idx] = (bool(kwargs.get("prefix_goals")), stats_expansions,
                         stats_generated)


def _observe_length(tracer, idx, args, kwargs, result, exc):
    if result is not None:
        tracer.value[idx] = len(result)


def _observe_arcs(tracer, idx, args, kwargs, result, exc):
    if result is not None:
        tracer.value[idx] = len(result.arcs)


def _observe_hit(tracer, idx, args, kwargs, result, exc):
    tracer.value[idx] = 0 if result is None else 1


def _observe_store(tracer, idx, args, kwargs, result, exc):
    if result is not None:
        tracer.value[idx] = (Path(args[1]) / f"{result}.json").stat().st_size


def _observe_fallback(tracer, idx, args, kwargs, result, exc):
    if result is not None:
        tracer.value[idx] = 1 if result[1].fallback_used else 0


OBSERVERS = {
    "planner.plan": _observe_plan,
    "domain.applicable_actions": _observe_length,
    "abstraction.select_critical_nodes": _observe_length,
    "abstraction.extract_strategy": _observe_arcs,
    "library.retrieve": _observe_hit,
    "library.store": _observe_store,
    "reuse.refine": _observe_fallback,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    ``request`` is the id stamped on new spans (-1 during set-up). Spans are
    only recorded while ``on`` is true, so the benchmark's own checks, which
    call the program too, leave no spans.
    """

    def __init__(self) -> None:
        self.names: list = []
        self.exc_names: list = [""]
        self.name = array("H")
        self.parent = array("i")
        self.req = array("i")
        self.exc = array("H")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.extra: dict = {}
        self.request = -1
        self.on = False
        self._stack: list = []
        self._installed: list = []

    def _id(self, table: list, text: str) -> int:
        if text not in table:
            table.append(text)
        return table.index(text)

    def wrap(self, module, attr: str, span: str) -> None:
        original = getattr(module, attr)
        name_id = self._id(self.names, span)
        observe = OBSERVERS.get(span)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.on:
                return original(*args, **kwargs)
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.req.append(self.request)
            self.exc.append(0)
            self.value.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            self.end.append(0.0)
            result = caught = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                caught = exc
                self.exc[idx] = self._id(self.exc_names, type(exc).__name__)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, idx, args, kwargs, result, caught)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self) -> None:
        for module_name, attr, span in INSTRUMENTED:
            module = importlib.import_module(f"hyperplan.{module_name}")
            self.wrap(module, attr, span)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


# --- per-layer metrics -------------------------------------------------------------

CALLS_AND_MS = (
    "planner.plan", "planner.heuristic", "planner.build_hypergraph",
    "domain.apply", "domain.applicable_actions", "domain.is_goal",
    "domain.execute_hypergraph", "hypergraph.validate_hyperpath",
    "hypergraph.topological_order", "reuse.ground_strategy", "library.store",
    "library.retrieve",
)
MS_ONLY = (
    "abstraction.extract_strategy", "abstraction.remove_robot_entities",
    "abstraction.select_critical_nodes", "abstraction.abstract_labels",
    "reuse.reconstruct", "reuse.refine", "library.read_record", "library.load",
    "cli.parse_scenario", "cli.plan_to_json", "cli.plan_from_json",
)


def layer_metrics(tracer: Tracer, per_pass: int, passes: int) -> dict:
    """Per-layer figures for one set-up plus one pass over the requests.

    Counts come from the set-up and the first traced pass, so they repeat
    exactly; times are the set-up's plus the mean over the traced passes.
    """
    n = len(tracer.name)
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
    names = tracer.names
    calls = dict.fromkeys(names, 0)
    self_ms = dict.fromkeys(names, 0.0)
    total_ms = dict.fromkeys(names, 0.0)
    values = dict.fromkeys(names, 0.0)
    ground_max = 0.0
    sub_ms: list = []
    expansions = generated = subproblems = sub_expansions = 0
    for i in range(n):
        name = names[tracer.name[i]]
        r = tracer.req[i]
        weight = 1.0 if r < 0 else 1.0 / passes
        dur = tracer.end[i] - tracer.start[i]
        self_ms[name] += (dur - child[i]) * 1000.0 * weight
        total_ms[name] += dur * 1000.0 * weight
        if r >= per_pass:
            continue
        calls[name] += 1
        values[name] += tracer.value[i]
        if name == "planner.plan":
            sub, exp, gen = tracer.extra[i]
            expansions += exp
            generated += gen
            if sub:
                subproblems += 1
                sub_expansions += exp
                sub_ms.append(dur * 1000.0)
        elif name == "reuse.ground_strategy":
            ground_max = max(ground_max, dur * 1000.0)

    def count(name):
        return calls.get(name, 0)

    raised = exception_table(tracer, per_pass)

    out = {}
    for name in CALLS_AND_MS:
        out[f"{name}.calls"] = (count(name), "count")
        out[f"{name}.ms"] = (self_ms.get(name, 0.0), "ms")
    for name in MS_ONLY:
        out[f"{name}.ms"] = (self_ms.get(name, 0.0), "ms")
    plan_ms = total_ms.get("planner.plan", 0.0)
    out.update({
        "planner.expansions": (expansions, "count"),
        "planner.generated": (generated, "count"),
        "planner.us_per_expansion": (plan_ms * 1000.0 / expansions if expansions else 0.0, "us"),
        "planner.budget_exhausted": (raised.get("planner.plan", {}).get("BudgetExhausted", 0), "count"),
        "domain.branching": (values.get("domain.applicable_actions", 0.0)
                             / count("domain.applicable_actions")
                             if count("domain.applicable_actions") else 0.0, "actions"),
        "abstraction.critical_nodes": (int(values.get("abstraction.select_critical_nodes", 0)), "count"),
        "abstraction.abstract_arcs": (int(values.get("abstraction.extract_strategy", 0)), "count"),
        "reuse.ground_strategy.ms_max": (ground_max, "ms"),
        "reuse.subproblems": (subproblems, "count"),
        "reuse.subproblem_expansions": (sub_expansions, "count"),
        "reuse.subproblem.ms_p50": (statistics.median(sub_ms) if sub_ms else 0.0, "ms"),
        "reuse.subproblem.ms_max": (max(sub_ms) if sub_ms else 0.0, "ms"),
        "reuse.fallback.no_grounding": (raised.get("reuse.ground_strategy", {}).get("NoGrounding", 0), "count"),
        "reuse.fallback.infeasible": (int(values.get("reuse.refine", 0)), "count"),
        "reuse.escaped_errors": (sum(raised.get("reuse.reuse_pipeline", {}).values()), "count"),
        "library.retrieve.hit_share": (values.get("library.retrieve", 0.0) / count("library.retrieve")
                                       if count("library.retrieve") else 0.0, "ratio"),
        "library.bytes_written": (int(values.get("library.store", 0)), "B"),
    })
    return out


def exception_table(tracer: Tracer, per_pass: int) -> dict:
    """``{span name: {exception class: count}}`` over set-up and the first pass."""
    table: dict = {}
    for i in range(len(tracer.name)):
        if tracer.exc[i] and tracer.req[i] < per_pass:
            name = tracer.names[tracer.name[i]]
            cls = tracer.exc_names[tracer.exc[i]]
            table.setdefault(name, {}).setdefault(cls, 0)
            table[name][cls] += 1
    return table
