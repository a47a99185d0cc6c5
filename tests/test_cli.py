import json

import pytest

from hyperplan import Pick, execute_hypergraph, is_goal, plan
from hyperplan.cli import (
    BenchResult,
    ParseError,
    Scenario,
    ValidationError,
    emit_bench_csv,
    parse_scenario,
    plan_from_json,
    plan_to_json,
    run_command,
    scenario_to_json,
)

from conftest import SCENARIO_DIR, load_scenario, random_instance, reversal_scenario


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


def test_solve_extract_reuse_round_trip(tmp_path):
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

    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_command(["reuse", fig2_path, "--library", str(empty)]) == 1
    assert "no stored strategy matches" in capsys.readouterr().err
    assert run_command(["reuse", fig2_path, "--library", str(empty),
                        "--fallback-scratch"]) == 0
    assert capsys.readouterr().out.startswith(
        "reused <scratch fallback> (NoGrounding: no stored strategy matches "
        "this problem) on fig2: ")


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
        "NoGrounding: no stored strategy matches this problem"
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
    assert run_command(["reuse", str(scenario), "--strategy", str(strategy),
                        *budget, "--fallback-scratch"]) == 0
    assert capsys.readouterr().out.startswith(
        "reused <scratch fallback> (SubproblemInfeasible: abstract arc 1: "
        "expansion budget of 34 exhausted (sub-goal r1=[o1]; 34 states "
        "expanded)) on seed288: ")


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
    else:  # strategy-arcs-swapped
        _swap_dependent_arcs(data["arcs"])
    return data


# extract reads only plan files, reuse only strategy files, dot both.
@pytest.mark.parametrize("command,shape", [
    (command, shape)
    for command in ("reuse-strategy", "reuse-library", "extract", "dot")
    for shape in ("list", "string")
] + [
    (command, shape)
    for command in ("reuse-strategy", "reuse-library", "dot")
    for shape in ("goal-stacks-list", "strategy-repeated-node", "strategy-arcs-swapped")
] + [
    (command, shape)
    for command in ("extract", "dot")
    for shape in ("plan-repeated-node", "plan-repeated-arc", "plan-short-fact",
                  "plan-long-fact", "plan-short-action", "plan-long-action")
] + [("extract", "plan-arcs-out-of-order"), ("dot", "plan-arcs-out-of-order")])
def test_malformed_files_are_input_errors(tmp_path, capsys, command, shape):
    data = _malformed(tmp_path, shape)
    lib = tmp_path / "lib"
    lib.mkdir()
    bad = lib / "bad.json"
    bad.write_text(json.dumps(data))
    argv = {
        "reuse-strategy": ["reuse", fig1_path(), "--strategy", str(bad)],
        "reuse-library": ["reuse", fig1_path(), "--library", str(lib)],
        "extract": ["extract", fig1_path(), str(bad),
                    "--out", str(tmp_path / "s.json")],
        "dot": ["dot", str(bad), "--out", str(tmp_path / "out.dot")],
    }[command]
    capsys.readouterr()
    assert run_command(argv) == 2
    assert capsys.readouterr().err.startswith("input error: ")


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
    assert "digraph plan" in out1.read_text()
    strategy_dot = out2.read_text()
    assert "digraph strategy" in strategy_dot
    assert strategy_dot.count("style=dashed") == 3


def test_bench_command(tmp_path):
    plan_file = tmp_path / "p.json"
    lib = tmp_path / "lib"
    lib.mkdir()
    assert run_command(["solve", fig1_path(), "--out", str(plan_file)]) == 0
    assert run_command(["extract", fig1_path(), str(plan_file),
                        "--out", str(lib / "fig1.json")]) == 0
    csv_path = tmp_path / "bench.csv"
    fig2_path = str(SCENARIO_DIR / "fig2.json")
    assert run_command(["bench", fig1_path(), fig2_path,
                        "--library", str(lib), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "scenario,mode,expansions,actions,makespan,wall_time_ms,fallback_used"
    assert len(lines) == 5  # two modes per scenario
    assert [ln.split(",")[0] for ln in lines[1:]] == ["fig1", "fig1", "fig2", "fig2"]
    assert [ln.split(",")[1] for ln in lines[1:]] == ["reuse", "scratch"] * 2


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
