"""Command-line surface: scenarios in, plans/strategies/DOT/benchmarks out.

Subcommands: ``solve`` (plan from scratch), ``extract`` (abstract a solved
plan into a strategy), ``reuse`` (ground + refine a strategy on a new
scenario), ``bench`` (scratch vs reuse comparison CSV), ``dot`` (check and
render a plan or strategy file). Exit codes: 0 success, 1 planning failure,
2 input error, 3 program fault: ``main`` prints the traceback of any other
exception, which ``run_command`` lets through.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from operator import attrgetter
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
    """As ``library.json_object``, and ParseError for a key neither required
    nor optional."""
    for key in library.json_object(data, ParseError, where):
        if key not in required and key not in optional:
            raise ParseError(f"{where}.{key}", "unknown field")
    library.json_object(data, ParseError, where, sorted(required))


def _is_id_list(value) -> bool:
    """True for a JSON list of strings (ids of objects or regions)."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _check_id_and_capacity(entry: dict, where: str) -> None:
    """ParseError unless the id is a string and the capacity, if given, an
    int (a bool and null are not)."""
    if not isinstance(entry["id"], str):
        raise ParseError(f"{where}.id", f"{entry['id']!r} is not a string")
    if "capacity" in entry and type(entry["capacity"]) is not int:
        raise ParseError(f"{where}.capacity", f"{entry['capacity']!r} is not an integer")


def parse_scenario(text: str) -> Scenario:
    """Strict scenario reader: unknown fields and bad shapes are rejected."""
    data = library.read_json(text, ParseError, "<document>")
    _require(data, "scenario",
             {"name", "regions", "objects", "robots", "initial", "goal"},
             {"description"})
    if not isinstance(data["name"], str) or not data["name"]:
        raise ParseError("scenario.name", "expected a non-empty string")
    if not isinstance(data.get("description", ""), str):
        raise ParseError("scenario.description", "expected a string")
    for key in ("regions", "objects", "robots"):
        library.json_list(data[key], ParseError, f"scenario.{key}")
    for key in ("initial", "goal"):
        if not isinstance(data[key], dict):
            raise ParseError(f"scenario.{key}", "expected region -> object list")

    regions = []
    for i, entry in enumerate(data["regions"]):
        where = f"regions[{i}]"
        _require(entry, where, {"id", "kind"}, {"capacity"})
        _check_id_and_capacity(entry, where)
        try:
            regions.append(Region(entry["id"], entry["kind"], entry.get("capacity")))
        except ValueError as exc:
            raise ParseError(where, str(exc)) from exc

    objects = data["objects"]
    if not _is_id_list(objects):
        raise ParseError("scenario.objects", "expected a list of strings")

    robots = []
    for i, entry in enumerate(data["robots"]):
        where = f"robots[{i}]"
        _require(entry, where, {"id", "reach"}, {"capacity"})
        _check_id_and_capacity(entry, where)
        reach = entry["reach"]
        if not _is_id_list(reach):
            raise ParseError(f"{where}.reach", "expected a list of region ids")
        if len(set(reach)) != len(reach):
            raise ParseError(f"{where}.reach", "lists a region twice")
        try:
            robots.append(RobotSpec(entry["id"], frozenset(reach),
                                    entry.get("capacity", 1)))
        except ValueError as exc:
            raise ParseError(where, str(exc)) from exc

    region_kinds = {r.id: r.kind for r in regions}
    stacks, buffers = {}, {}
    for region_id, contents in data["initial"].items():
        if region_id not in region_kinds:
            raise ParseError(f"initial.{region_id}", "unknown region")
        if not _is_id_list(contents):
            raise ParseError(f"initial.{region_id}", "expected an object list")
        if region_kinds[region_id] == STACK:
            stacks[region_id] = tuple(contents)
        else:
            buffers[region_id] = frozenset(contents)
            if len(buffers[region_id]) != len(contents):
                raise ParseError(f"initial.{region_id}", "lists an object twice")

    goal = {}
    for region_id, contents in data["goal"].items():
        if not _is_id_list(contents):
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

# tag -> (class, field names) of a plan file's fact and action entries,
# which list the tag and then the class's field values in order; every
# value is a string except a fact's height, an integer
_FACT_TAGS = {tag: (cls, cls.__match_args__)
              for tag, cls in (("on", OnStack), ("in", InBuffer), ("held", Held))}
_ACTION_TAGS = {tag: (cls, cls.__match_args__)
                for tag, cls in (("pick", Pick), ("place", Place), ("handoff", Handoff))}
# class -> (tag, field values getter); every class has two fields or more,
# so the getter returns a tuple
_ENCODINGS = {cls: (tag, attrgetter(*names))
              for tags in (_FACT_TAGS, _ACTION_TAGS) for tag, (cls, names) in tags.items()}


def _encode_tagged(value) -> list:
    """``value`` as the ``[tag, *args]`` entry that ``_decode_tagged`` reads."""
    tag, args = _ENCODINGS[type(value)]
    return [tag, *args(value)]


def _decode_tagged(raw: list, tags: dict, where: str, what: str):
    """``[tag, *args]`` as the tag's class applied to ``args``; ParseError
    unless the tag is known, ``args`` has one entry per field and each is a
    string (a height an integer, and a bool is not one)."""
    if not isinstance(raw, list) or not raw:
        raise ParseError(where, f"{what} {raw!r} is not a non-empty list")
    if type(raw[0]) is not str or raw[0] not in tags:
        raise ParseError(where, f"unknown {what} tag {raw[0]!r}")
    cls, names = tags[raw[0]]
    args = raw[1:]
    if len(args) != len(names):
        raise ParseError(where, f"{what} {raw[0]!r} takes {len(names)} arguments, "
                                f"got {len(args)}")
    for name, value in zip(names, args):
        if name == "height":
            if type(value) is not int:
                raise ParseError(where, f"height {value!r} is not an integer")
        elif type(value) is not str:
            raise ParseError(where, f"{what} {raw[0]!r} {name} {value!r} is not a string")
    return cls(*args)


def plan_to_json(graph: SolutionHypergraph, scenario_name: str) -> dict:
    return {
        "version": PLAN_FORMAT_VERSION,
        "scenario": scenario_name,
        "nodes": [
            {
                "id": nid,
                "entities": [[e.kind, e.name]
                             for e in sorted(graph.nodes[nid].composition)],
                "facts": sorted((_encode_tagged(f) for f in graph.nodes[nid].state),
                                key=str),
            }
            for nid in sorted(graph.nodes)
        ],
        "arcs": [
            {
                "id": aid,
                "action": _encode_tagged(graph.arcs[aid].label),
                "tails": sorted(graph.arcs[aid].tails),
                "heads": sorted(graph.arcs[aid].heads),
            }
            for aid in sorted(graph.arcs)
        ],
    }


def _int_id(value, where: str) -> int:
    """A node or arc id, or ParseError unless it is an int (a bool is not)."""
    if type(value) is not int:
        raise ParseError(where, f"id {value!r} is not an integer")
    return value


def _entity(raw) -> Entity:
    """A node's ``[kind, name]`` entry, or ParseError unless it is a list of
    two strings."""
    if type(raw) is list and len(raw) == 2:
        kind, name = raw
        if type(kind) is str and type(name) is str:
            return Entity(kind, name)
    raise ParseError("plan.nodes.entities",
                     f"entity {raw!r} is not a [kind, name] pair of strings")


def plan_from_json(data: dict) -> SolutionHypergraph:
    version = library.json_object(data, ParseError, "plan").get("version")
    if type(version) is not int or version != PLAN_FORMAT_VERSION:
        raise ParseError("plan.version", f"unsupported version {version!r}")
    scenario = data.get("scenario")
    if type(scenario) is not str:
        raise ParseError("plan.scenario", f"{scenario!r} is not a string")
    library.json_object(data, ParseError, "plan", ("nodes", "arcs"))
    # only the entity, fact, action, node and arc constructors' own checks
    # raise ValueError here
    try:
        nodes = {}
        for entry in library.json_list(data["nodes"], ParseError, "plan.nodes"):
            library.json_object(entry, ParseError, "plan.nodes", ("id", "entities", "facts"))
            entities = library.json_list(entry["entities"], ParseError, "plan.nodes.entities")
            composition = frozenset(map(_entity, entities))
            facts = [_decode_tagged(f, _FACT_TAGS, "plan.nodes.facts", "fact")
                     for f in library.json_list(entry["facts"], ParseError, "plan.nodes.facts")]
            nid = _int_id(entry["id"], "plan.nodes.id")
            if nid in nodes:
                raise ParseError("plan.nodes", f"repeated node id {nid!r}")
            nodes[nid] = Node(nid, composition, frozenset(facts))
        arcs = {}
        for entry in library.json_list(data["arcs"], ParseError, "plan.arcs"):
            library.json_object(entry, ParseError, "plan.arcs", ("id", "action", "tails", "heads"))
            aid = _int_id(entry["id"], "plan.arcs.id")
            if aid in arcs:
                raise ParseError("plan.arcs", f"repeated arc id {aid!r}")
            arcs[aid] = Hyperarc(
                aid, _decode_tagged(entry["action"], _ACTION_TAGS,
                                    "plan.arcs.action", "action"),
                frozenset(_int_id(t, "plan.arcs.tails") for t in
                          library.json_list(entry["tails"], ParseError, "plan.arcs.tails")),
                frozenset(_int_id(h, "plan.arcs.heads") for h in
                          library.json_list(entry["heads"], ParseError, "plan.arcs.heads")))
    except ValueError as exc:
        raise ParseError("plan", f"malformed plan file: {exc}") from exc
    return SolutionHypergraph(nodes, arcs)


def read_plan(path) -> SolutionHypergraph:
    return plan_from_json(library.read_json(Path(path).read_text(), ParseError, str(path)))


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

    bench = sub.add_parser("bench", help="scratch vs reuse comparison")
    bench.add_argument("scenarios", nargs="+")
    bench.add_argument("--library", required=True)
    bench.add_argument("--out", required=True, help="CSV file to write")
    for command in (solve, reuse, bench):
        command.add_argument("--max-expansions", type=int,
                             default=SearchConfig.max_expansions)

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
    data = library.read_json(Path(args.input).read_text(), ParseError, args.input)
    if isinstance(data, dict) and "signature" in data:
        record = library.record_from_json(data, args.input)
        _write(args.out, to_dot(record.ah, graph_name="strategy"))
    else:
        graph = plan_from_json(data)
        violations = validate_hyperpath(graph)
        if violations:
            raise InvalidHypergraph(violations)
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
    try:
        status = run_command(sys.argv[1:])
    except Exception:   # neither a planning nor an input error: a fault of the program
        sys.excepthook(*sys.exc_info())   # the traceback, as if uncaught
        status = 3
    sys.exit(status)


if __name__ == "__main__":
    main()
