"""Command-line surface: scenarios in, plans/strategies/DOT/benchmarks out.

Subcommands: ``solve`` (plan from scratch), ``extract`` (abstract a solved
plan into a strategy), ``reuse`` (ground + refine a strategy on a new
scenario), ``bench`` (scratch vs reuse comparison CSV), ``dot`` (check and
render a plan or strategy file). Exit codes: 0 success, 1 planning failure,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import library
from .abstraction import extract_strategy
from .domain import (
    BUFFER,
    STACK,
    ExecutionFault,
    Handoff,
    Held,
    InBuffer,
    OnStack,
    Pick,
    Place,
    Problem,
    Region,
    RobotSpec,
    WorldState,
)
from .hypergraph import (
    Entity,
    Hyperarc,
    InvalidHypergraph,
    Node,
    SolutionHypergraph,
    to_dot,
    validate_hyperpath,
)
from .planner import BudgetExhausted, NoSolution, SearchConfig, plan
from .reuse import (
    FAIL_HARD,
    SCRATCH_FALLBACK,
    NoGrounding,
    RefinementConfig,
    SubproblemInfeasible,
    reuse_pipeline,
)

PLAN_FORMAT_VERSION = 1


class ParseError(Exception):
    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class ValidationError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    name: str
    problem: Problem
    description: str = ""


# --- scenario files ---------------------------------------------------------

def _require(data: dict, where: str, required: set, optional: set = frozenset()):
    if not isinstance(data, dict):
        raise ParseError(where, "expected an object")
    for key in data:
        if key not in required and key not in optional:
            raise ParseError(f"{where}.{key}", "unknown field")
    for key in required:
        if key not in data:
            raise ParseError(f"{where}.{key}", "missing field")


def parse_scenario(text: str) -> Scenario:
    """Strict scenario reader: unknown fields and bad shapes are rejected."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("<document>", f"not valid JSON: {exc}") from exc
    _require(data, "scenario",
             {"name", "regions", "objects", "robots", "initial", "goal"},
             {"description"})
    if not isinstance(data["name"], str) or not data["name"]:
        raise ParseError("scenario.name", "expected a non-empty string")
    for key in ("regions", "objects", "robots"):
        if not isinstance(data[key], list):
            raise ParseError(f"scenario.{key}", "expected a list")

    regions = []
    for i, entry in enumerate(data["regions"]):
        where = f"regions[{i}]"
        _require(entry, where, {"id", "kind"}, {"capacity"})
        try:
            regions.append(Region(entry["id"], entry["kind"], entry.get("capacity")))
        except (ValueError, TypeError) as exc:
            raise ParseError(where, str(exc)) from exc

    objects = data["objects"]
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise ParseError("scenario.objects", "expected a list of strings")

    robots = []
    for i, entry in enumerate(data["robots"]):
        where = f"robots[{i}]"
        _require(entry, where, {"id", "reach"}, {"capacity"})
        try:
            robots.append(RobotSpec(entry["id"], frozenset(entry["reach"]),
                                    entry.get("capacity", 1)))
        except (ValueError, TypeError) as exc:
            raise ParseError(where, str(exc)) from exc

    region_kinds = {r.id: r.kind for r in regions}
    stacks, buffers = {}, {}
    if not isinstance(data["initial"], dict):
        raise ParseError("scenario.initial", "expected region -> object list")
    for region_id, contents in data["initial"].items():
        if region_id not in region_kinds:
            raise ParseError(f"initial.{region_id}", "unknown region")
        if not isinstance(contents, list):
            raise ParseError(f"initial.{region_id}", "expected an object list")
        if region_kinds[region_id] == STACK:
            stacks[region_id] = tuple(contents)
        else:
            buffers[region_id] = frozenset(contents)

    if not isinstance(data["goal"], dict):
        raise ParseError("scenario.goal", "expected region -> object list")
    goal = {}
    for region_id, contents in data["goal"].items():
        if not isinstance(contents, list):
            raise ParseError(f"goal.{region_id}", "expected an object list")
        goal[region_id] = tuple(contents)

    problem = Problem(tuple(regions), tuple(robots), tuple(objects),
                      WorldState(stacks=stacks, buffers=buffers), goal)
    errors = problem.validate()
    if errors:
        raise ValidationError("; ".join(errors))
    return Scenario(data["name"], problem, data.get("description", ""))


def scenario_to_json(scenario: Scenario) -> dict:
    p = scenario.problem
    regions = []
    for r in p.regions:
        entry = {"id": r.id, "kind": r.kind}
        if r.capacity is not None:
            entry["capacity"] = r.capacity
        regions.append(entry)
    initial = {}
    for r in p.regions:
        if r.kind == STACK and p.initial.stacks.get(r.id):
            initial[r.id] = list(p.initial.stacks[r.id])
        elif r.kind == BUFFER and p.initial.buffers.get(r.id):
            initial[r.id] = sorted(p.initial.buffers[r.id])
    out = {
        "name": scenario.name,
        "regions": regions,
        "objects": list(p.objects),
        "robots": [{"id": r.id, "reach": sorted(r.reach), "capacity": r.capacity}
                   for r in p.robots],
        "initial": initial,
        "goal": {r: list(v) for r, v in p.goal.items()},
    }
    if scenario.description:
        out["description"] = scenario.description
    return out


def read_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


# --- plan files ---------------------------------------------------------------

def _encode_fact(fact) -> list:
    if isinstance(fact, OnStack):
        return ["on", fact.obj, fact.region, fact.height]
    if isinstance(fact, InBuffer):
        return ["in", fact.obj, fact.region]
    return ["held", fact.robot, fact.obj]


def _encode_action(action) -> list:
    if isinstance(action, Pick):
        return ["pick", action.robot, action.obj, action.region]
    if isinstance(action, Place):
        return ["place", action.robot, action.obj, action.region]
    return ["handoff", action.giver, action.receiver, action.obj]


# tag -> (class, number of arguments) of a plan file's fact and action entries
_FACT_TAGS = {tag: (cls, len(fields(cls)))
              for tag, cls in (("on", OnStack), ("in", InBuffer), ("held", Held))}
_ACTION_TAGS = {tag: (cls, len(fields(cls)))
                for tag, cls in (("pick", Pick), ("place", Place), ("handoff", Handoff))}


def _decode_tagged(raw: list, tags: dict, where: str, what: str):
    """``[tag, *args]`` as the tag's class applied to ``args``; ParseError
    unless the tag is known and ``args`` has one entry per field."""
    if not isinstance(raw, list) or not raw:
        raise ParseError(where, f"{what} {raw!r} is not a non-empty list")
    known = tags.get(raw[0])
    if known is None:
        raise ParseError(where, f"unknown {what} tag {raw[0]!r}")
    cls, arity = known
    if len(raw) != 1 + arity:
        raise ParseError(where, f"{what} {raw[0]!r} takes {arity} arguments, "
                                f"got {len(raw) - 1}")
    return cls(*raw[1:])


def plan_to_json(graph: SolutionHypergraph, scenario_name: str) -> dict:
    return {
        "version": PLAN_FORMAT_VERSION,
        "scenario": scenario_name,
        "nodes": [
            {
                "id": nid,
                "entities": [[e.kind, e.name]
                             for e in sorted(graph.nodes[nid].composition)],
                "facts": sorted((_encode_fact(f) for f in graph.nodes[nid].state),
                                key=str),
            }
            for nid in sorted(graph.nodes)
        ],
        "arcs": [
            {
                "id": aid,
                "action": _encode_action(graph.arcs[aid].label),
                "tails": sorted(graph.arcs[aid].tails),
                "heads": sorted(graph.arcs[aid].heads),
            }
            for aid in sorted(graph.arcs)
        ],
    }


def plan_from_json(data: dict) -> SolutionHypergraph:
    try:
        if data.get("version") != PLAN_FORMAT_VERSION:
            raise ParseError("plan.version",
                             f"unsupported version {data.get('version')!r}")
        nodes = {}
        for entry in data["nodes"]:
            composition = frozenset(
                Entity(kind, name) for kind, name in entry["entities"])
            state = frozenset(_decode_tagged(f, _FACT_TAGS, "facts", "fact")
                              for f in entry["facts"])
            if entry["id"] in nodes:
                raise ParseError("plan.nodes", f"repeated node id {entry['id']!r}")
            nodes[entry["id"]] = Node(entry["id"], composition, state)
        arcs = {}
        for entry in data["arcs"]:
            if entry["id"] in arcs:
                raise ParseError("plan.arcs", f"repeated arc id {entry['id']!r}")
            arcs[entry["id"]] = Hyperarc(
                entry["id"], _decode_tagged(entry["action"], _ACTION_TAGS,
                                            "arcs.action", "action"),
                frozenset(entry["tails"]), frozenset(entry["heads"]))
    except ParseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError("plan", f"malformed plan file: {exc}") from exc
    return SolutionHypergraph(nodes, arcs)


def read_plan(path) -> SolutionHypergraph:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), f"not valid JSON: {exc}") from exc
    return plan_from_json(data)


# --- bench -------------------------------------------------------------------

@dataclass
class BenchResult:
    scenario: str
    mode: str
    expansions: int
    actions: int
    makespan: int
    wall_time: float
    fallback_used: bool = False


def emit_bench_csv(results) -> str:
    lines = ["scenario,mode,expansions,actions,makespan,wall_time_ms,fallback_used"]
    for r in results:
        lines.append(
            f"{r.scenario},{r.mode},{r.expansions},{r.actions},{r.makespan},"
            f"{r.wall_time * 1000.0:.3f},{str(r.fallback_used).lower()}")
    return "\n".join(lines) + "\n"


# --- commands ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperplan",
        description="Multi-robot task planning with reusable strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="plan a scenario from scratch")
    solve.add_argument("scenario")
    solve.add_argument("--out", help="write the solution hypergraph (JSON)")
    solve.add_argument("--dot", help="write a DOT rendering")
    solve.add_argument("--stats", help="write search statistics (JSON)")
    solve.add_argument("--max-expansions", type=int, default=200_000)

    extract = sub.add_parser("extract", help="abstract a solved plan")
    extract.add_argument("scenario")
    extract.add_argument("plan")
    extract.add_argument("--out", required=True, help="strategy file to write")

    reuse = sub.add_parser("reuse", help="reuse a strategy on a scenario")
    reuse.add_argument("scenario")
    group = reuse.add_mutually_exclusive_group(required=True)
    group.add_argument("--strategy", help="strategy file")
    group.add_argument("--library", help="strategy directory")
    reuse.add_argument("--fallback-scratch", action="store_true",
                       help="plan from scratch when reuse fails")
    reuse.add_argument("--out", help="write the refined plan (JSON)")
    reuse.add_argument("--dot", help="write a DOT rendering")
    reuse.add_argument("--stats", help="write reuse statistics (JSON)")
    reuse.add_argument("--max-expansions", type=int, default=200_000)

    bench = sub.add_parser("bench", help="scratch vs reuse comparison")
    bench.add_argument("scenarios", nargs="+")
    bench.add_argument("--library", required=True)
    bench.add_argument("--out", required=True, help="CSV file to write")
    bench.add_argument("--max-expansions", type=int, default=200_000)

    dot = sub.add_parser("dot", help="render a plan or strategy file")
    dot.add_argument("input")
    dot.add_argument("--out", required=True)
    return parser


def _write(path, text: str) -> None:
    Path(path).write_text(text)


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _write_outputs(args, graph, name: str, stats: dict, wall_time: float) -> None:
    """Write whichever of ``--out``, ``--dot`` and ``--stats`` was given."""
    if args.out:
        _write(args.out, json.dumps(plan_to_json(graph, name), indent=2) + "\n")
    if args.dot:
        _write(args.dot, to_dot(graph))
    if args.stats:
        stats = {**stats, "wall_time_ms": _ms(wall_time)}
        _write(args.stats, json.dumps(stats, indent=2) + "\n")


def _cmd_solve(args) -> int:
    scenario = read_scenario(args.scenario)
    cfg = SearchConfig(max_expansions=args.max_expansions)
    graph, stats = plan(scenario.problem, cfg)
    _write_outputs(args, graph, scenario.name, {
        "expansions": stats.expansions,
        "generated": stats.generated,
        "actions": stats.solution_actions,
        "makespan": stats.makespan,
    }, stats.wall_time)
    print(f"solved {scenario.name}: {stats.solution_actions} actions, "
          f"makespan {stats.makespan}, {stats.expansions} expansions")
    return 0


def _cmd_extract(args) -> int:
    scenario = read_scenario(args.scenario)
    graph = read_plan(args.plan)
    ah = extract_strategy(graph, scenario.problem)
    record = library.make_record(scenario.name, ah, scenario.name)
    library.write_record(record, args.out)
    print(f"extracted {record.id}: {len(ah.abstract_objects)} abstract objects, "
          f"{len(ah.arcs)} abstract arcs")
    return 0


def _cmd_reuse(args) -> int:
    scenario = read_scenario(args.scenario)
    fallback = SCRATCH_FALLBACK if args.fallback_scratch else FAIL_HARD
    cfg = RefinementConfig(
        search=SearchConfig(max_expansions=args.max_expansions),
        fallback=fallback)
    if args.strategy:
        record = library.read_record(args.strategy)
    else:
        record = library.retrieve(scenario.problem, library.load(args.library))
    graph, stats = reuse_pipeline(record and record.ah, scenario.problem, cfg)
    _write_outputs(args, graph, scenario.name, {
        "subproblems": [{"expansions": sub.expansions, "generated": sub.generated}
                        for sub in stats.subproblems],
        "total_expansions": stats.total_expansions,
        "actions": stats.actions,
        "makespan": stats.makespan,
        "fallback_reason": stats.fallback_reason,
        "ground_time_ms": _ms(stats.ground_time),
        "reconstruct_time_ms": _ms(stats.reconstruct_time),
        "refine_time_ms": _ms(stats.refine_time),
    }, stats.wall_time)
    origin = (f"<scratch fallback> ({stats.fallback_reason})"
              if stats.fallback_used else record.id)
    print(f"reused {origin} on {scenario.name}: {stats.actions} actions, "
          f"makespan {stats.makespan}, {stats.total_expansions} expansions")
    return 0


def _cmd_bench(args) -> int:
    records = library.load(args.library)
    cfg = SearchConfig(max_expansions=args.max_expansions)
    reuse_cfg = RefinementConfig(search=cfg, fallback=SCRATCH_FALLBACK)
    results = []
    for path in args.scenarios:
        scenario = read_scenario(path)
        _, stats = plan(scenario.problem, cfg)
        results.append(BenchResult(
            scenario.name, "scratch", stats.expansions, stats.solution_actions,
            stats.makespan, stats.wall_time))
        record = library.retrieve(scenario.problem, records)
        _, rstats = reuse_pipeline(record and record.ah, scenario.problem, reuse_cfg)
        results.append(BenchResult(
            scenario.name, "reuse", rstats.total_expansions, rstats.actions,
            rstats.makespan, rstats.wall_time,
            fallback_used=rstats.fallback_used))
    results.sort(key=lambda r: (r.scenario, r.mode))
    _write(args.out, emit_bench_csv(results))
    print(f"benchmarked {len(args.scenarios)} scenario(s) -> {args.out}")
    return 0


def _cmd_dot(args) -> int:
    try:
        data = json.loads(Path(args.input).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(args.input, f"not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "signature" in data:
        record = library.record_from_json(data, args.input)
        _write(args.out, to_dot(record.ah, graph_name="strategy"))
    else:
        graph = plan_from_json(data)
        report = validate_hyperpath(graph)
        if not report.ok:
            raise InvalidHypergraph(report)
        _write(args.out, to_dot(graph))
    print(f"wrote {args.out}")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "extract": _cmd_extract,
    "reuse": _cmd_reuse,
    "bench": _cmd_bench,
    "dot": _cmd_dot,
}

# ExecutionFault and ValueError only surface when a loaded plan file is
# malformed or does not fit its scenario; freshly planned graphs always
# execute.
_INPUT_ERRORS = (ParseError, ValidationError, library.CorruptRecord, OSError,
                 ExecutionFault, ValueError)
_PLANNING_ERRORS = (NoSolution, BudgetExhausted, NoGrounding,
                    SubproblemInfeasible)


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _HANDLERS[args.command](args)
    except _PLANNING_ERRORS as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
