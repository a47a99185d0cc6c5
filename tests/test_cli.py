import glob
import json
import os
import shlex
import shutil
import subprocess
import sys

import pytest

from hyperplan import Pick, SearchConfig, execute_hypergraph, is_goal, plan
from hyperplan.cli import (
    BenchResult,
    ParseError,
    Scenario,
    ValidationError,
    build_parser,
    emit_bench_csv,
    parse_scenario,
    plan_from_json,
    plan_to_json,
    run_command,
    scenario_to_json,
)

from conftest import SCENARIO_DIR, load_scenario, random_instance, reversal_scenario


ROOT = SCENARIO_DIR.parent


def fig1_path() -> str:
    return str(SCENARIO_DIR / "fig1.json")


# --- scenario parsing -----------------------------------------------------------

def test_parse_fig1_fixture(fig1):
    p = fig1.problem
    assert fig1.name == "fig1"
    assert [r.id for r in p.regions] == ["left", "right"]
    assert p.objects == ("A", "B", "C")
    assert len(p.robots) == 2
    assert all(r.reach == frozenset({"left", "right"}) for r in p.robots)
    assert p.initial.stacks["right"] == ("A", "B", "C")
    assert p.goal == {"left": ("C", "A", "B")}


def test_scenario_round_trip(fig1, fig2, fig3):
    for scenario in (fig1, fig2, fig3, reversal_scenario(4)):
        text = json.dumps(scenario_to_json(scenario))
        again = parse_scenario(text)
        assert again == scenario


def test_parse_rejects_unknown_fields():
    data = scenario_to_json(load_scenario("fig1"))
    data["mystery"] = 1
    with pytest.raises(ParseError, match="mystery"):
        parse_scenario(json.dumps(data))


def test_parse_rejects_unknown_region_field():
    data = scenario_to_json(load_scenario("fig1"))
    data["regions"][0]["colour"] = "red"
    with pytest.raises(ParseError, match="colour"):
        parse_scenario(json.dumps(data))


def test_parse_rejects_undeclared_goal_object():
    data = scenario_to_json(load_scenario("fig1"))
    data["goal"]["left"] = ["C", "A", "ghost"]
    with pytest.raises(ValidationError, match="ghost"):
        parse_scenario(json.dumps(data))


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_scenario("{nope")


@pytest.mark.parametrize("where,value", [
    ("regions[2].capacity", True),
    ("regions[2].capacity", 1.5),
    ("regions[2].capacity", 2.0),
    ("robots[0].capacity", 1.5),
    ("robots[0].capacity", 2.0),
    ("robots[0].capacity", True),
    ("regions[0].id", ["left"]),
    ("robots[0].id", 7),
    ("robots[0].reach", "left"),
    ("robots[0].reach", ["left", 1]),
    ("robots[0].capacity", None),
])
def test_parse_rejects_ids_capacities_and_reach_of_the_wrong_type(where, value):
    data = scenario_to_json(load_scenario("fig1"))
    data["regions"].append({"id": "pad", "kind": "buffer", "capacity": 2})
    entry, field = where.split(".")
    kind, index = entry.rstrip("]").split("[")
    data[kind][int(index)][field] = value
    with pytest.raises(ParseError) as failure:
        parse_scenario(json.dumps(data))
    assert str(failure.value).startswith(f"{where}: ")


@pytest.mark.parametrize("section,region", [("initial", "right"), ("goal", "left")])
def test_parse_rejects_an_object_that_is_not_a_string(section, region):
    data = scenario_to_json(load_scenario("fig1"))
    data[section][region][0] = [data[section][region][0]]
    with pytest.raises(ParseError, match=f"{section}.{region}: expected an object list"):
        parse_scenario(json.dumps(data))


def test_parse_rejects_a_description_that_is_not_a_string():
    data = scenario_to_json(load_scenario("fig3"))
    data["description"] = ["x"]
    with pytest.raises(ParseError, match="^scenario.description: expected a string$"):
        parse_scenario(json.dumps(data))


def test_parse_rejects_an_object_listed_twice_in_a_buffer():
    data = scenario_to_json(load_scenario("fig3"))
    data["initial"] = {"right": ["A", "B"], "side": ["C", "C"]}
    with pytest.raises(ParseError, match="^initial.side: lists an object twice$"):
        parse_scenario(json.dumps(data))


def test_parse_rejects_a_region_listed_twice_in_a_reach():
    data = scenario_to_json(load_scenario("fig3"))
    data["robots"][0]["reach"] = ["left", "right", "side", "left"]
    with pytest.raises(ParseError, match=r"^robots\[0\].reach: lists a region twice$"):
        parse_scenario(json.dumps(data))


def _first_repeated(key):
    return lambda data: data[key].append(data[key][0])


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda data: data.pop("goal"), "scenario.goal: missing field", id="no-goal"),
    pytest.param(lambda data: data["robots"][0].update(reach=[]),
                 "robots[0]: robot 'blue' must reach at least one region", id="empty-reach"),
    pytest.param(lambda data: data["robots"][0].update(capacity=0),
                 "robots[0]: robot 'blue' capacity must be >= 1", id="zero-capacity"),
    pytest.param(lambda data: data["initial"].update(nowhere=["A"]),
                 "initial.nowhere: unknown region", id="undeclared-initial-region"),
    pytest.param(_first_repeated("regions"), "duplicate region ids", id="duplicate-region"),
    pytest.param(_first_repeated("robots"), "duplicate robot ids", id="duplicate-robot"),
    pytest.param(lambda data: data["robots"][0].update(id="A"),
                 "robot and object names overlap", id="robot-named-as-object"),
])
def test_solve_rejects_an_invalid_scenario(tmp_path, capsys, edit, message):
    data = scenario_to_json(load_scenario("fig1"))
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_command(["solve", str(bad)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_minimal_scenario_is_valid():
    text = json.dumps({
        "name": "tiny",
        "regions": [{"id": "pad", "kind": "stack"}],
        "objects": [],
        "robots": [],
        "initial": {},
        "goal": {},
    })
    scenario = parse_scenario(text)
    graph, stats = plan(scenario.problem)
    assert stats.solution_actions == 0


# --- plan files --------------------------------------------------------------------

def test_plan_file_round_trip(fig1):
    graph, _ = plan(fig1.problem)
    data = plan_to_json(graph, "fig1")
    rebuilt = plan_from_json(json.loads(json.dumps(data)))
    assert rebuilt == graph
    final, _, count = execute_hypergraph(rebuilt, fig1.problem)
    assert is_goal(final, fig1.problem) and count == 6


# --- bench CSV -----------------------------------------------------------------------

def test_bench_csv_header_only():
    assert emit_bench_csv([]) == \
        "scenario,mode,expansions,actions,makespan,wall_time_ms,fallback_used\n"


def test_bench_csv_rows():
    rows = [
        BenchResult("s", "scratch", 10, 6, 5, 0.0015),
        BenchResult("s", "reuse", 7, 6, 6, 0.001, fallback_used=True),
    ]
    text = emit_bench_csv(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[1] == "s,scratch,10,6,5,1.500,false"
    assert lines[2] == "s,reuse,7,6,6,1.000,true"


# --- commands ------------------------------------------------------------------------

def test_solve_command_outputs(tmp_path, capsys):
    out = tmp_path / "plan.json"
    dot = tmp_path / "plan.dot"
    stats = tmp_path / "stats.json"
    rc = run_command(["solve", fig1_path(), "--out", str(out),
                      "--dot", str(dot), "--stats", str(stats)])
    assert rc == 0
    assert "solved fig1: 6 actions" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    actions = [a["action"][0] for a in payload["arcs"]]
    assert sorted(actions) == ["pick"] * 3 + ["place"] * 3
    assert "digraph plan" in dot.read_text()
    recorded = json.loads(stats.read_text())
    assert recorded["actions"] == 6 and recorded["makespan"] < 6
    assert recorded["expansions"] >= 6


def test_solve_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_command(["solve", str(bad)]) == 2
    assert run_command(["solve", str(tmp_path / "missing.json")]) == 2


def test_solve_budget_failure(tmp_path):
    rc = run_command(["solve", fig1_path(), "--max-expansions", "1"])
    assert rc == 1


def test_solve_extract_reuse_round_trip(tmp_path, capsys):
    plan_file = tmp_path / "fig1.plan.json"
    strategy = tmp_path / "fig1.strategy.json"
    out = tmp_path / "fig1.reused.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(strategy)]) == 0
    assert run_command(["reuse", fig1_path(), "--strategy", str(strategy),
                        "--out", str(out)]) == 0
    graph = plan_from_json(json.loads(out.read_text()))
    final, _, count = execute_hypergraph(graph, load_scenario("fig1").problem)
    assert is_goal(final, load_scenario("fig1").problem)
    assert count == 6
    # fig3's strategy parks in a side buffer; fig1 has none, and its
    # refinement still reaches the 6-action optimum
    fig3_path = str(SCENARIO_DIR / "fig3.json")
    assert run_command(["solve", fig3_path, "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig3_path, str(plan_file),
                        "--out", str(strategy)]) == 0
    capsys.readouterr()
    assert run_command(["reuse", fig1_path(), "--strategy", str(strategy)]) == 0
    assert capsys.readouterr().out.startswith("reused fig3 on fig1: 6 actions, ")


def test_reuse_from_library_and_empty_library(tmp_path, capsys):
    plan_file = tmp_path / "p.json"
    lib = tmp_path / "lib"
    lib.mkdir()
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(lib / "fig1.json")]) == 0
    fig2_path = str(SCENARIO_DIR / "fig2.json")
    capsys.readouterr()
    assert run_command(["reuse", fig2_path, "--library", str(lib)]) == 0
    assert capsys.readouterr().out.startswith("reused fig1 on fig2: ")
    # each pick goes to the robot whose hand is free first: 6 actions, 5 layers
    assert run_command(["reuse", fig1_path(), "--library", str(lib)]) == 0
    assert capsys.readouterr().out.startswith("reused fig1 on fig1: 6 actions, makespan 5, ")

    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_command(["reuse", fig2_path, "--library", str(empty)]) == 1
    assert "no stored strategy matches" in capsys.readouterr().err
    assert run_command(["reuse", fig2_path, "--library", str(empty),
                        "--fallback-scratch"]) == 0
    assert capsys.readouterr().out.startswith(
        "reused <scratch fallback> (NoGrounding: no stored strategy matches "
        "goal heights [3]) on fig2: ")


@pytest.mark.parametrize("command", ["reuse", "bench"])
def test_library_that_is_no_directory_is_an_input_error(tmp_path, capsys, command):
    """A mistyped --library path, or a file, exits 2; an existing empty
    directory is a library without a match (see above)."""
    (tmp_path / "file.json").write_text("{}")
    for library in (tmp_path / "missing", tmp_path / "file.json"):
        argv = {"reuse": ["reuse", fig1_path(), "--library", str(library)],
                "bench": ["bench", fig1_path(), "--library", str(library),
                          "--out", str(tmp_path / "bench.csv")]}[command]
        assert run_command(argv) == 2
        assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "bench.csv").exists()
    if command == "reuse":   # whatever the scenario
        assert run_command(["reuse", str(SCENARIO_DIR / "fig2.json"),
                            "--library", str(tmp_path / "missing")]) == 2


def test_reuse_stats_file(tmp_path):
    plan_file = tmp_path / "p.json"
    lib = tmp_path / "lib"
    lib.mkdir()
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(lib / "fig1.json")]) == 0
    fig2_path = str(SCENARIO_DIR / "fig2.json")
    stats = tmp_path / "stats.json"
    assert run_command(["reuse", fig2_path, "--library", str(lib),
                        "--stats", str(stats)]) == 0
    recorded = json.loads(stats.read_text())
    assert sorted(recorded) == ["actions", "fallback_reason", "ground_time_ms",
                                "makespan", "reconstruct_time_ms",
                                "refine_time_ms", "subproblems",
                                "total_expansions", "wall_time_ms"]
    assert recorded["subproblems"] == [{"expansions": 3, "generated": g}
                                       for g in (5, 7, 6)]
    assert recorded["total_expansions"] == 9
    assert recorded["actions"] == 9 and recorded["makespan"] <= 9
    assert recorded["fallback_reason"] == ""
    assert recorded["wall_time_ms"] > 0
    phases = [recorded[f"{phase}_time_ms"]
              for phase in ("ground", "reconstruct", "refine")]
    assert min(phases) >= 0 and recorded["refine_time_ms"] > 0
    # each figure is rounded to the microsecond on its own
    assert sum(phases) <= recorded["wall_time_ms"] + 0.002


def test_reuse_stats_file_on_scratch_fallback(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    stats = tmp_path / "stats.json"
    fig2_path = str(SCENARIO_DIR / "fig2.json")
    assert run_command(["reuse", fig2_path, "--library", str(empty),
                        "--fallback-scratch", "--stats", str(stats)]) == 0
    recorded = json.loads(stats.read_text())
    scratch = plan(load_scenario("fig2").problem)[1]
    assert recorded["fallback_reason"] == \
        "NoGrounding: no stored strategy matches goal heights [3]"
    assert recorded["subproblems"] == [{"expansions": scratch.expansions,
                                        "generated": scratch.generated}]
    assert recorded["total_expansions"] == scratch.expansions
    assert (recorded["actions"], recorded["makespan"]) == \
        (scratch.solution_actions, scratch.makespan)
    # grounding failed at once; reconstruction and refinement never ran
    assert recorded["reconstruct_time_ms"] == recorded["refine_time_ms"] == 0
    assert 0 <= recorded["ground_time_ms"] <= recorded["wall_time_ms"]


def test_reuse_mismatched_strategy_fails_without_fallback(tmp_path):
    plan_file = tmp_path / "p.json"
    strategy = tmp_path / "s.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(strategy)]) == 0
    # four-box reversal cannot ground a three-box strategy
    import json as _json

    from hyperplan.cli import scenario_to_json as s2j

    tall = tmp_path / "tall.json"
    tall.write_text(_json.dumps(s2j(reversal_scenario(4))))
    assert run_command(["reuse", str(tall), "--strategy", str(strategy)]) == 1
    assert run_command(["reuse", str(tall), "--strategy", str(strategy),
                        "--fallback-scratch"]) == 0


def test_reuse_refinement_failure_is_a_planning_failure(tmp_path, capsys):
    # corpus seed 288: one refinement sub-problem needs 39 expansions, more
    # than the 34 that planning from scratch takes
    scenario = tmp_path / "seed288.json"
    scenario.write_text(json.dumps(scenario_to_json(
        Scenario("seed288", random_instance(288, 4, 2, 4)))))
    plan_file = tmp_path / "p.json"
    strategy = tmp_path / "s.json"
    assert run_command(["solve", str(scenario), "--out", str(plan_file)]) == 0
    assert run_command(["extract", str(scenario), str(plan_file),
                        "--out", str(strategy)]) == 0
    capsys.readouterr()
    budget = ["--max-expansions", "34"]
    assert run_command(["reuse", str(scenario), "--strategy", str(strategy),
                        *budget]) == 1
    assert capsys.readouterr().err == \
        "planning failed: abstract arc 1: expansion budget of 34 exhausted " \
        "(sub-goal r1=[o1]; 34 states expanded)\n"
    stats = tmp_path / "stats.json"
    assert run_command(["reuse", str(scenario), "--strategy", str(strategy),
                        *budget, "--fallback-scratch", "--stats", str(stats)]) == 0
    assert capsys.readouterr().out.startswith(
        "reused <scratch fallback> (SubproblemInfeasible: abstract arc 1: "
        "expansion budget of 34 exhausted (sub-goal r1=[o1]; 34 states "
        "expanded)) on seed288: ")
    # the failed refinement is the refine phase; the scratch plan counts
    # in wall_time_ms only
    recorded = json.loads(stats.read_text())
    assert recorded["fallback_reason"].startswith("SubproblemInfeasible: ")
    assert recorded["refine_time_ms"] > 0
    phases = sum(recorded[f"{phase}_time_ms"] for phase in ("ground", "reconstruct", "refine"))
    assert phases < recorded["wall_time_ms"]


def _fig1_strategy_json(tmp_path) -> dict:
    plan_file = tmp_path / "fig1.plan.json"
    strategy = tmp_path / "fig1.strategy.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(strategy)]) == 0
    return json.loads(strategy.read_text())


def _fig1_plan_json(tmp_path) -> dict:
    plan_file = tmp_path / "fig1.plan.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    return json.loads(plan_file.read_text())


def _swap_dependent_arcs(arcs: list) -> None:
    """Swap the first arc entry that consumes an earlier arc's head with that arc."""
    for j, later in enumerate(arcs):
        for i, earlier in enumerate(arcs[:j]):
            if set(later["tails"]) & set(earlier["heads"]):
                arcs[i], arcs[j] = later, earlier
                return
    raise AssertionError("no dependent arcs")


def _malformed(tmp_path, shape: str):
    """JSON data of one malformed plan or strategy file."""
    if shape in ("list", "string"):
        return [] if shape == "list" else "x"
    if shape.startswith("plan-empty"):
        return {"version": 1, "scenario": "done", "nodes": [], "arcs": []}
    if shape.startswith("plan-"):
        data = _fig1_plan_json(tmp_path)
        if shape == "plan-repeated-node":
            data["nodes"].append(data["nodes"][-1])
        elif shape == "plan-repeated-arc":
            data["arcs"].append(data["arcs"][-1])
        elif shape.endswith("-fact"):
            facts = next(n["facts"] for n in data["nodes"] if n["facts"])
            # ["on", "C", "right", 0] cut to ["on", "C"], or one entry too long
            facts[0] = facts[0][:2] if shape == "plan-short-fact" else facts[0] + [0]
        elif shape.endswith("-action"):
            action = data["arcs"][0]["action"]
            # ["pick", "blue", "C", "right"] cut to ["pick", "blue"], or too long
            data["arcs"][0]["action"] = (action[:2] if shape == "plan-short-action"
                                         else action + ["left"])
        elif shape == "plan-list-robot":
            data["arcs"][0]["action"][1] = ["a"]
        elif shape == "plan-list-fact-object":
            next(n["facts"] for n in data["nodes"] if n["facts"])[0][1] = ["a"]
        elif shape == "plan-string-arc-ids":
            for entry in data["arcs"]:
                entry["id"] = str(entry["id"])
        elif shape == "plan-bool-node-id":
            data["nodes"][1]["id"] = True
        elif shape == "plan-string-heads":
            data["arcs"][0]["heads"] = [str(h) for h in data["arcs"][0]["heads"]]
        elif shape == "plan-no-arcs":
            del data["arcs"]
        elif shape == "plan-object-arcs":
            data["arcs"] = {}
        elif shape == "plan-true-version":
            data["version"] = True
        elif shape == "plan-doubled-head":
            # the last arc also produces a node the first arc produces
            first, last = data["arcs"][0], data["arcs"][-1]
            last["heads"].append(next(h for h in first["heads"] if h not in last["tails"]))
        else:  # plan-arcs-out-of-order: ids renumbered last to first
            last = len(data["arcs"]) - 1
            for entry in data["arcs"]:
                entry["id"] = last - entry["id"]
        return data
    data = _fig1_strategy_json(tmp_path)
    if shape == "goal-stacks-list":
        data["goal_stacks"] = list(data["goal_stacks"].values())
    elif shape == "strategy-repeated-node":
        data["nodes"].append(data["nodes"][-1])
    elif shape == "goal-placeholder-repeated":
        stack = data["goal_stacks"]["target:0"]
        stack[1] = stack[0]
    elif shape in ("record-id-dotdot", "record-id-empty"):
        data["id"] = "../x" if shape == "record-id-dotdot" else ""
    elif shape == "stack-order-non-member":
        # node 1 is x2 alone on target:0
        data["nodes"][1]["stack_order"] = [0]
    elif shape == "object-indices-not-dense":
        def renamed(indices):
            return [7 if i == 0 else i for i in indices]
        for node in data["nodes"]:
            node["objects"] = renamed(node["objects"])
            node["stack_order"] = renamed(node["stack_order"])
        data["goal_stacks"] = {k: renamed(v) for k, v in data["goal_stacks"].items()}
    elif shape == "goal-unknown-placeholder":
        data["goal_stacks"]["target:0"][-1] = 42
    else:  # strategy-arcs-swapped
        _swap_dependent_arcs(data["arcs"])
    return data


def _malformed_scenario(tmp_path, shape: str) -> str:
    """The scenario file a shape is read against: fig1, or for an empty plan
    the one its name gives (start already the goal; one robot, one object
    and no goal)."""
    if shape == "plan-empty-at-goal":
        data = scenario_to_json(load_scenario("fig1"))
        data["goal"] = {"right": data["initial"]["right"]}
    elif shape == "plan-empty-no-goal":
        data = {"name": "one", "regions": [{"id": "pad", "kind": "stack"}],
                "objects": ["A"], "robots": [{"id": "a", "reach": ["pad"]}],
                "initial": {"pad": ["A"]}, "goal": {}}
    else:
        return fig1_path()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


# The message a shape's input error ends with, where it is pinned.
MALFORMED_MESSAGES = {
    "plan-no-arcs": "plan.arcs: missing field",
    "plan-object-arcs": "plan.arcs: expected a list",
    "plan-true-version": "plan.version: unsupported version True",
    "plan-doubled-head": "invalid hyperpath: node 3 produced by arcs 0 and 5; arc 5 loses [] "
                         "and gains [object C, robot blue]",
    "plan-empty": "sources do not match the initial decomposition",
    "plan-empty-at-goal": "sources do not match the initial decomposition",
    "plan-empty-no-goal": "sources do not match the initial decomposition",
    "record-id-dotdot": "malformed record: unusable record id: '../x'",
    "record-id-empty": "malformed record: unusable record id: ''",
    "stack-order-non-member": "malformed record: stack order mentions non-members",
    "object-indices-not-dense": "object indices not dense: [1, 2, 7]",
    "goal-unknown-placeholder": "target:0 references unknown x42",
}


# extract reads only plan files, reuse only strategy files, dot both.
@pytest.mark.parametrize("command,shape", [
    (command, shape)
    for command in ("reuse-strategy", "reuse-library", "extract", "dot")
    for shape in ("list", "string")
] + [
    (command, shape)
    for command in ("reuse-strategy", "reuse-library", "dot")
    for shape in ("goal-stacks-list", "strategy-repeated-node", "strategy-arcs-swapped",
                  "goal-placeholder-repeated", "record-id-dotdot", "record-id-empty",
                  "stack-order-non-member", "object-indices-not-dense",
                  "goal-unknown-placeholder")
] + [
    (command, shape)
    for command in ("extract", "dot")
    for shape in ("plan-repeated-node", "plan-repeated-arc", "plan-short-fact",
                  "plan-long-fact", "plan-short-action", "plan-long-action",
                  "plan-list-robot", "plan-list-fact-object", "plan-string-arc-ids",
                  "plan-bool-node-id", "plan-string-heads", "plan-no-arcs",
                  "plan-object-arcs", "plan-true-version")
] + [("extract", "plan-arcs-out-of-order"), ("dot", "plan-arcs-out-of-order"),
     ("dot", "plan-doubled-head"), ("extract", "plan-empty"),
     ("extract", "plan-empty-at-goal"), ("extract", "plan-empty-no-goal")])
def test_malformed_files_are_input_errors(tmp_path, capsys, command, shape):
    data = _malformed(tmp_path, shape)
    lib = tmp_path / "lib"
    lib.mkdir()
    bad = lib / "bad.json"
    bad.write_text(json.dumps(data))
    argv = {
        "reuse-strategy": ["reuse", fig1_path(), "--strategy", str(bad)],
        "reuse-library": ["reuse", fig1_path(), "--library", str(lib)],
        "extract": ["extract", _malformed_scenario(tmp_path, shape), str(bad),
                    "--out", str(tmp_path / "s.json")],
        "dot": ["dot", str(bad), "--out", str(tmp_path / "out.dot")],
    }[command]
    capsys.readouterr()
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert err.endswith(MALFORMED_MESSAGES.get(shape, "") + "\n")
    assert not (tmp_path / "out.dot").exists()
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("field,value,where", [
    ("arc id", "0", "plan.arcs.id"),
    ("arc id", 0.0, "plan.arcs.id"),
    ("node id", False, "plan.nodes.id"),
    ("tail", "3", "plan.arcs.tails"),
    ("head", True, "plan.arcs.heads"),
])
def test_plan_ids_must_be_integers(fig1, field, value, where):
    data = json.loads(json.dumps(plan_to_json(plan(fig1.problem)[0], "fig1")))
    if field == "node id":
        data["nodes"][0]["id"] = value
    elif field == "arc id":
        data["arcs"][0]["id"] = value
    else:
        data["arcs"][0][field + "s"][0] = value
    with pytest.raises(ParseError) as failure:
        plan_from_json(data)
    assert str(failure.value) == f"{where}: id {value!r} is not an integer"


def test_plan_fact_heights_must_be_integers(fig1):
    data = json.loads(json.dumps(plan_to_json(plan(fig1.problem)[0], "fig1")))
    for node in data["nodes"]:
        for fact in node["facts"]:
            if fact[0] == "on" and fact[3] == 0:
                fact[3] = False
    with pytest.raises(ParseError) as failure:
        plan_from_json(data)
    assert str(failure.value) == "plan.nodes.facts: height False is not an integer"


@pytest.mark.parametrize("position,value", [(1, 5), (0, 0)])
def test_plan_entity_kinds_and_names_must_be_strings(fig1, position, value):
    data = json.loads(json.dumps(plan_to_json(plan(fig1.problem)[0], "fig1")))
    for node in data["nodes"]:
        for entity in node["entities"]:
            if entity[1] == "A":
                entity[position] = value
    with pytest.raises(ParseError) as failure:
        plan_from_json(data)
    assert str(failure.value).startswith("plan.nodes.entities: entity ")
    assert str(failure.value).endswith(" is not a [kind, name] pair of strings")


@pytest.mark.parametrize("entry,position,value,message", [
    ("action", 1, ["a"], "plan.arcs.action: action 'pick' robot ['a'] is not a string"),
    ("action", 3, 5, "plan.arcs.action: action 'pick' region 5 is not a string"),
    ("fact", 2, {"r": 0}, "plan.nodes.facts: fact 'on' region {'r': 0} is not a string"),
])
def test_plan_action_and_fact_fields_must_be_strings(fig1, entry, position, value, message):
    data = json.loads(json.dumps(plan_to_json(plan(fig1.problem)[0], "fig1")))
    assert data["arcs"][0]["action"] == ["pick", "blue", "C", "right"]
    assert data["nodes"][0]["facts"][0] == ["on", "A", "right", 0]
    if entry == "action":
        data["arcs"][0]["action"][position] = value
    else:
        data["nodes"][0]["facts"][0][position] = value
    with pytest.raises(ParseError) as failure:
        plan_from_json(data)
    assert str(failure.value) == message


def test_malformed_types_are_input_errors(tmp_path, capsys):
    """A list description, a buffer listing an object twice, a reach listing
    a region twice, a boolean fact height, an integer entity name and a
    non-string provenance value each exit 2."""
    scenario = scenario_to_json(load_scenario("fig3"))
    described = dict(scenario, description=["x"])
    repeated = dict(scenario, initial={"right": ["A", "B"], "side": ["C", "C"]})
    twice_reached = json.loads(json.dumps(scenario))
    twice_reached["robots"][0]["reach"] = ["left", "right", "side", "left"]
    plan_file, strategy = tmp_path / "fig1.plan.json", tmp_path / "fig1.strategy.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file), "--out", str(strategy)]) == 0
    false_heights = json.loads(plan_file.read_text())
    for node in false_heights["nodes"]:
        node["facts"] = [f[:3] + [False] if f[0] == "on" and f[3] == 0 else f
                         for f in node["facts"]]
    renamed = json.loads(plan_file.read_text())
    for node in renamed["nodes"]:
        node["entities"] = [[kind, 5 if name == "A" else name]
                            for kind, name in node["entities"]]
    record = json.loads(strategy.read_text())
    record["provenance"] = {"scenario": ["x"], "created_at": 5}
    files = {}
    for name, data in (("described", described), ("repeated", repeated),
                       ("twice-reached", twice_reached),
                       ("false-heights", false_heights), ("renamed", renamed),
                       ("provenance", record)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    for argv in (["solve", str(files["described"])],
                 ["solve", str(files["repeated"])],
                 ["solve", str(files["twice-reached"])],
                 ["dot", str(files["renamed"]), "--out", str(tmp_path / "p.dot")],
                 ["extract", fig1_path(), str(files["false-heights"]),
                  "--out", str(tmp_path / "s.json")],
                 ["dot", str(files["provenance"]), "--out", str(tmp_path / "s.dot")],
                 ["reuse", fig1_path(), "--strategy", str(files["provenance"])]):
        capsys.readouterr()
        assert run_command(argv) == 2, argv
        assert capsys.readouterr().err.startswith("input error: "), argv


def test_strategy_with_a_string_object_index_is_an_input_error(tmp_path, capsys):
    plan_file, strategy = tmp_path / "fig1.plan.json", tmp_path / "fig1.strategy.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file), "--out", str(strategy)]) == 0
    data = json.loads(strategy.read_text())
    data["nodes"][0]["objects"][0] = str(data["nodes"][0]["objects"][0])
    strategy.write_text(json.dumps(data))
    for argv in (["dot", str(strategy), "--out", str(tmp_path / "s.dot")],
                 ["reuse", fig1_path(), "--strategy", str(strategy)]):
        capsys.readouterr()
        assert run_command(argv) == 2
        assert "object index '0' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("arcs", {}, "plan.arcs: expected a list"),
    ("arcs", "", "plan.arcs: expected a list"),
    ("facts", {}, "plan.nodes.facts: expected a list"),
    ("facts", "", "plan.nodes.facts: expected a list"),
    ("version", True, "plan.version: unsupported version True"),
    ("scenario", 5, "plan.scenario: 5 is not a string"),
    ("scenario", None, "plan.scenario: None is not a string"),
    ("tag", [], "plan.nodes.facts: unknown fact tag []"),
    ("action tag", {}, "plan.arcs.action: unknown action tag {}"),
    ("node", 5, "plan.nodes: expected an object"),
    ("arc", None, "plan.arcs: expected an object"),
])
def test_plan_fields_must_have_their_json_types(fig1, field, value, message):
    data = json.loads(json.dumps(plan_to_json(plan(fig1.problem)[0], "fig1")))
    if field == "facts":
        data["nodes"][0]["facts"] = value
    elif field == "tag":
        data["nodes"][0]["facts"][0][0] = value
    elif field == "action tag":
        data["arcs"][0]["action"][0] = value
    elif field in ("node", "arc"):
        data[field + "s"][0] = value
    else:
        data[field] = value
    with pytest.raises(ParseError) as failure:
        plan_from_json(data)
    assert str(failure.value) == message


# One value of each JSON type, for the type-mutation fuzz below.
JSON_VALUES = (None, True, 0, 1.5, "", "x", [], {})

# Python's own exception text, which no input-error message should carry.
PYTHON_ERROR_TEXT = ("object is not subscriptable", "has no attribute",
                     "indices must be integers", "expected string or bytes-like object",
                     "not supported between")


def _type_mutants(doc):
    """``(path, value, mutant)`` for each value of ``doc`` and each of
    ``JSON_VALUES`` of another type: ``mutant`` is ``doc`` with the value at
    ``path`` replaced. A list is entered at index 0 only."""
    for value in JSON_VALUES:
        if type(value) is not type(doc):
            yield (), value, value
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc[:1])
    else:
        children = ()
    for key, child in children:
        for path, value, mutant in _type_mutants(child):
            copy = doc.copy()   # shallow: only the path to the value is new
            copy[key] = mutant
            yield (key, *path), value, copy


def test_no_type_mutant_of_an_input_file_is_accepted(tmp_path, capsys):
    """Every value of fig3's scenario, fig1's plan and fig1's strategy, each
    replaced by a value of every other JSON type, read by each command that
    takes the file: ``run_command`` raises nothing, no run exits 0, and no
    message carries Python's own exception text. A null ``region_role`` is
    valid, so it is no mutant."""
    plan_file, strategy = tmp_path / "fig1.plan.json", tmp_path / "fig1.strategy.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file), "--out", str(strategy)]) == 0
    mutant = tmp_path / "mutant.json"
    readers = (
        (SCENARIO_DIR / "fig3.json", [["solve", str(mutant), "--max-expansions", "200"]]),
        (plan_file, [["extract", fig1_path(), str(mutant), "--out", str(tmp_path / "s.json")],
                     ["dot", str(mutant), "--out", str(tmp_path / "p.dot")]]),
        (strategy, [["dot", str(mutant), "--out", str(tmp_path / "s.dot")],
                    ["reuse", fig1_path(), "--strategy", str(mutant)]]),
    )
    runs, accepted, leaked = 0, [], []
    capsys.readouterr()
    for source, commands in readers:
        for path, value, data in _type_mutants(json.loads(source.read_text())):
            if path[-1:] == ("region_role",) and value is None:
                continue
            mutant.write_text(json.dumps(data))
            for argv in commands:
                runs += 1
                if run_command(argv) == 0:
                    accepted.append((source.name, path, value, argv[0]))
                err = capsys.readouterr().err
                if any(text in err for text in PYTHON_ERROR_TEXT):
                    leaked.append((source.name, path, value, argv[0], err))
    assert accepted == []
    assert leaked == []
    assert runs == 806


def test_solve_rejects_a_fractional_capacity(tmp_path):
    data = scenario_to_json(load_scenario("fig1"))
    data["robots"][0]["capacity"] = 1.5
    scenario = tmp_path / "half.json"
    scenario.write_text(json.dumps(data))
    assert run_command(["solve", str(scenario)]) == 2


def test_untouched_empty_goal_stack_round_trip(tmp_path, capsys):
    # S must stay empty; the plan never touches it
    scenario = tmp_path / "keep-s-empty.json"
    scenario.write_text(json.dumps({
        "name": "keep-s-empty",
        "regions": [{"id": "L", "kind": "stack"}, {"id": "R", "kind": "stack"},
                    {"id": "S", "kind": "stack"}],
        "objects": ["A", "B"],
        "robots": [{"id": "a", "reach": ["L", "R", "S"]}],
        "initial": {"R": ["B", "A"]},
        "goal": {"L": ["A", "B"], "S": []},
    }))
    plan_file = tmp_path / "plan.json"
    lib = tmp_path / "lib"
    lib.mkdir()
    strategy = lib / "keep-s-empty.json"
    assert run_command(["solve", str(scenario), "--out", str(plan_file)]) == 0
    assert run_command(["extract", str(scenario), str(plan_file),
                        "--out", str(strategy)]) == 0
    assert json.loads(strategy.read_text())["goal_stacks"]["target:1"] == []
    for source in (["--strategy", str(strategy)], ["--library", str(lib)]):
        capsys.readouterr()
        assert run_command(["reuse", str(scenario), *source]) == 0
        assert capsys.readouterr().out.startswith(
            "reused keep-s-empty on keep-s-empty: 4 actions")


def test_extract_rejects_mismatched_or_partial_plans(tmp_path):
    plan_file = tmp_path / "p.json"
    strategy = tmp_path / "s.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    # plan from fig1 against the fig3 scenario: sources cannot match
    fig3_path = str(SCENARIO_DIR / "fig3.json")
    assert run_command(["extract", fig3_path, str(plan_file),
                        "--out", str(strategy)]) == 2
    # truncated plan does not reach the goal
    from hyperplan import build_hypergraph

    problem = load_scenario("fig1").problem
    partial = build_hypergraph([Pick("blue", "C", "right")], problem)
    stub = tmp_path / "partial.json"
    stub.write_text(json.dumps(plan_to_json(partial, "fig1")))
    assert run_command(["extract", fig1_path(), str(stub),
                        "--out", str(strategy)]) == 2


@pytest.mark.parametrize("name", ["a b", "../x"])
def test_extract_rejects_a_scenario_name_that_is_no_record_id(tmp_path, capsys, name):
    data = scenario_to_json(load_scenario("fig1"))
    data["name"] = name
    scenario, plan_file = tmp_path / "named.json", tmp_path / "p.json"
    scenario.write_text(json.dumps(data))
    assert run_command(["solve", str(scenario), "--out", str(plan_file)]) == 0
    strategy = tmp_path / "s.json"
    capsys.readouterr()
    assert run_command(["extract", str(scenario), str(plan_file),
                        "--out", str(strategy)]) == 2
    assert capsys.readouterr().err == f"input error: unusable record id: {name!r}\n"
    assert not strategy.exists()


def test_extract_rejects_a_plan_whose_facts_contradict_its_actions(tmp_path, capsys):
    data = _fig1_plan_json(tmp_path)
    # node 7 is C, just placed on the empty "left" stack by arc 2
    assert data["nodes"][7]["facts"] == [["on", "C", "left", 0]]
    data["nodes"][7]["facts"] = [["on", "C", "right", 2]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_command(["extract", fig1_path(), str(bad),
                        "--out", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err.startswith("input error: arc 2: node 7 facts ")


def test_dot_rejects_an_unknown_entity_kind(tmp_path, capsys):
    data = _fig1_plan_json(tmp_path)
    renamed = 0
    for node in data["nodes"]:
        for entity in node["entities"]:
            if entity == ["robot", "red"]:
                entity[0] = "gripper"
                renamed += 1
    assert renamed > 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_command(["dot", str(bad), "--out", str(tmp_path / "out.dot")]) == 2
    assert capsys.readouterr().err == \
        "input error: plan: malformed plan file: unknown entity kind: 'gripper'\n"


def test_dot_command_on_plan_and_strategy(tmp_path):
    plan_file = tmp_path / "p.json"
    strategy = tmp_path / "s.json"
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(strategy)]) == 0
    out1 = tmp_path / "plan.dot"
    out2 = tmp_path / "strategy.dot"
    assert run_command(["dot", str(plan_file), "--out", str(out1)]) == 0
    assert run_command(["dot", str(strategy), "--out", str(out2)]) == 0
    assert out1.read_text().startswith("digraph plan {\n")
    strategy_dot = out2.read_text()
    assert strategy_dot.startswith("digraph strategy {\n")
    assert strategy_dot.count("style=dashed") == 3


def test_bench_command(tmp_path):
    plan_file = tmp_path / "p.json"
    lib = tmp_path / "lib"
    lib.mkdir()
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(lib / "fig1.json")]) == 0
    csv_path = tmp_path / "bench.csv"
    figures = [str(SCENARIO_DIR / f"fig{i}.json") for i in (1, 2, 3)]
    assert run_command(["bench", *figures,
                        "--library", str(lib), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "scenario,mode,expansions,actions,makespan,wall_time_ms,fallback_used"
    assert len(lines) == 7  # two modes per scenario
    assert [ln.split(",")[0] for ln in lines[1:]] == ["fig1", "fig1", "fig2", "fig2",
                                                      "fig3", "fig3"]
    assert [ln.split(",")[1] for ln in lines[1:]] == ["reuse", "scratch"] * 3


def test_bench_reuse_row_without_a_matching_record_is_the_scratch_run(tmp_path):
    plan_file = tmp_path / "p.json"
    lib = tmp_path / "lib"
    lib.mkdir()
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(lib / "fig1.json")]) == 0
    tall = tmp_path / "tall.json"
    tall.write_text(json.dumps(scenario_to_json(reversal_scenario(4))))
    csv_path = tmp_path / "bench.csv"
    assert run_command(["bench", str(tall), "--library", str(lib),
                        "--out", str(csv_path)]) == 0
    header, reuse_row, scratch_row = (
        ln.split(",") for ln in csv_path.read_text().strip().split("\n"))
    row = dict(zip(header, reuse_row))
    scratch = dict(zip(header, scratch_row))
    assert (row["mode"], scratch["mode"]) == ("reuse", "scratch")
    assert row["fallback_used"] == "true"
    assert scratch["fallback_used"] == "false"
    for column in ("expansions", "actions", "makespan"):
        assert row[column] == scratch[column]


def test_unknown_arguments_exit_2():
    assert run_command(["solve"]) == 2
    assert run_command(["frobnicate", "x"]) == 2
    assert run_command(["--help"]) == 0


def test_module_entry_exits_with_the_command_status(tmp_path):
    """``python -m hyperplan.cli`` exits with ``run_command``'s status:
    0 for a plan, 1 for a planning failure, 2 for an input error."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, status, err in ((["solve", fig1_path()], 0, ""),
                              (["solve", fig1_path(), "--max-expansions", "1"], 1,
                               "planning failed: "),
                              (["solve", str(tmp_path / "missing.json")], 2, "input error: ")):
        run = subprocess.run([sys.executable, "-m", "hyperplan.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stderr[:len(err)]) == (status, err), run.stderr


def test_a_program_fault_exits_3(monkeypatch, capsys):
    """An exception that is neither a planning nor an input error passes
    through ``run_command``; ``main`` prints its traceback and exits 3."""
    from hyperplan import cli

    def broken(args):
        raise RuntimeError("broken handler")

    monkeypatch.setitem(cli._HANDLERS, "solve", broken)
    with pytest.raises(RuntimeError, match="broken handler"):
        run_command(["solve", fig1_path()])
    monkeypatch.setattr(sys, "argv", ["hyperplan", "solve", fig1_path()])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: broken handler\n")


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    """Each ``hyperplan`` line of README's "Command line" shell block, run in
    order in a directory that holds only a copy of ``scenarios/``, exits 0.
    The test makes the block's library directory itself and skips the
    graphviz ``dot`` line."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line and not line.startswith("#")]
    shutil.copytree(SCENARIO_DIR, tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in lines:
        argv = shlex.split(line)
        if argv[0] == "hyperplan":
            argv = [name for arg in argv[1:]
                    for name in (sorted(glob.glob(arg)) if "*" in arg else [arg])]
            assert run_command(argv) == 0, line
            ran += 1
        elif line == "mkdir -p library && cp fig1.strategy.json library/":
            (tmp_path / "library").mkdir()
            shutil.copy(tmp_path / "fig1.strategy.json", tmp_path / "library")
        else:
            assert argv[:2] == ["dot", "-Tpng"], line
    assert ran == 6


def test_every_budget_option_defaults_to_the_search_default():
    parser = build_parser()
    for argv in (["solve", "s.json"], ["reuse", "s.json", "--strategy", "x.json"],
                 ["bench", "s.json", "--library", "lib", "--out", "b.csv"]):
        assert parser.parse_args(argv).max_expansions == SearchConfig().max_expansions
