"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import json
import random
import time

from hyperplan import (
    Handoff,
    NoSolution,
    Pick,
    Place,
    Problem,
    Region,
    RobotSpec,
    WorldState,
    applicable_actions,
    apply,
    bfs_oracle,
    build_hypergraph,
    canonical_form,
    execute_hypergraph,
    extract_strategy,
    ground_strategy,
    is_goal,
    plan,
    reuse_pipeline,
    topological_order,
    validate_hyperpath,
)
from hyperplan.cli import plan_from_json, run_command, scenario_to_json

from conftest import (
    SCENARIO_DIR,
    blocker_tower_scenario,
    load_scenario,
    random_instance,
    verify_grounding,
)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_fig1_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "fig1.plan.json"
    rc = run_command(["solve", str(SCENARIO_DIR / "fig1.json"), "--out", str(out)])
    assert rc == 0
    graph = plan_from_json(json.loads(out.read_text()))
    assert validate_hyperpath(graph) == []
    actions = [graph.arcs[a].label for a in topological_order(graph)]
    assert len(actions) == 6
    assert sum(isinstance(a, Pick) for a in actions) == 3
    assert sum(isinstance(a, Place) for a in actions) == 3
    problem = load_scenario("fig1").problem
    final, makespan, count = execute_hypergraph(graph, problem)
    assert is_goal(final, problem)
    assert count == 6
    assert makespan < 6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("1 fig1-reproduction",
           f"6 actions, makespan {makespan}, {elapsed:.3f}s")


def test_criterion_2_fig1c_extraction():
    problem = load_scenario("fig1").problem
    ah = extract_strategy(plan(problem)[0], problem)
    assert len(ah.abstract_objects) == 3
    from hyperplan import AbstractObject

    for node in ah.nodes.values():
        assert all(isinstance(o, AbstractObject) for o in node.composition)
    from hyperplan.hypergraph import ABSTRACT

    assert all(arc.label is ABSTRACT for arc in ah.arcs.values())

    # invariance under permutation of object and robot names
    regions = (Region("left", "stack"), Region("right", "stack"))
    robots = (RobotSpec("omega", frozenset({"left", "right"})),
              RobotSpec("alpha", frozenset({"left", "right"})))
    renamed = Problem(regions, robots, ("M", "K", "Z"),
                      WorldState(stacks={"right": ("Z", "M", "K")}),
                      {"left": ("K", "Z", "M")})
    ah_renamed = extract_strategy(plan(renamed)[0], renamed)
    assert canonical_form(ah_renamed) == canonical_form(ah)
    report("2 fig1c-extraction",
           f"{len(ah.abstract_objects)} abstract objects, "
           f"{len(ah.arcs)} abstract arcs, rename-invariant")


def test_criterion_3_fig2_reuse_reachability_change(tmp_path):
    started = time.perf_counter()
    lib = tmp_path / "lib"
    lib.mkdir()
    plan_file = tmp_path / "fig1.plan.json"
    assert run_command(["solve", str(SCENARIO_DIR / "fig1.json"),
                        "--out", str(plan_file)]) == 0
    assert run_command(["extract", str(SCENARIO_DIR / "fig1.json"),
                        str(plan_file), "--out", str(lib / "fig1.json")]) == 0
    reused = tmp_path / "fig2.plan.json"
    rc = run_command(["reuse", str(SCENARIO_DIR / "fig2.json"),
                      "--strategy", str(lib / "fig1.json"),
                      "--out", str(reused)])
    assert rc == 0
    graph = plan_from_json(json.loads(reused.read_text()))
    actions = [graph.arcs[a].label for a in topological_order(graph)]
    handoffs = sum(isinstance(a, Handoff) for a in actions)
    assert handoffs >= 3
    problem = load_scenario("fig2").problem
    optimal = bfs_oracle(problem)
    assert len(actions) == optimal
    final, _, _ = execute_hypergraph(graph, problem)
    assert is_goal(final, problem)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("3 fig2-reuse",
           f"{handoffs} handoffs, {len(actions)} actions == oracle, {elapsed:.3f}s")


def test_criterion_4_fig3_reuse_robot_loss(tmp_path):
    lib_strategy = tmp_path / "fig1.strategy.json"
    plan_file = tmp_path / "fig1.plan.json"
    assert run_command(["solve", str(SCENARIO_DIR / "fig1.json"),
                        "--out", str(plan_file)]) == 0
    assert run_command(["extract", str(SCENARIO_DIR / "fig1.json"),
                        str(plan_file), "--out", str(lib_strategy)]) == 0
    reused = tmp_path / "fig3.plan.json"
    rc = run_command(["reuse", str(SCENARIO_DIR / "fig3.json"),
                      "--strategy", str(lib_strategy), "--out", str(reused)])
    assert rc == 0
    graph = plan_from_json(json.loads(reused.read_text()))
    problem = load_scenario("fig3").problem
    buffer_places = sum(
        1 for arc in graph.arcs.values()
        if isinstance(arc.label, Place)
        and problem.region_map[arc.label.region].kind == "buffer")
    assert buffer_places >= 1
    final, _, _ = execute_hypergraph(graph, problem)
    assert is_goal(final, problem)
    report("4 fig3-reuse", f"{buffer_places} buffer placement(s), goal reached")


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    cases = solved = 0
    for seed in range(80):
        p = random_instance(seed, max_objects=3, max_robots=2, max_regions=3)
        cases += 1
        expected = bfs_oracle(p, bound=40)
        try:
            _, stats = plan(p)
        except NoSolution:
            assert expected is None, f"seed {seed}: oracle found {expected}"
            continue
        assert stats.solution_actions == expected, f"seed {seed}"
        solved += 1
    elapsed = time.perf_counter() - started
    assert cases >= 50
    assert elapsed < 60.0
    report("5 oracle-equivalence",
           f"{cases} cases ({solved} solvable), {elapsed:.1f}s")


def test_criterion_6_round_trip():
    from conftest import (
        buffer_start_problem,
        reversal_problem,
        two_target_problem,
    )

    corpus = [
        ("fig1", load_scenario("fig1").problem),
        ("fig2", load_scenario("fig2").problem),
        ("fig3", load_scenario("fig3").problem),
        ("reversal4", reversal_problem(4)),
        ("reversal5", reversal_problem(5)),
        ("reversal6", reversal_problem(6)),
        ("two_target", two_target_problem()),
        ("buffer_start", buffer_start_problem()),
    ]
    for name, problem in corpus:
        scratch_graph, scratch_stats = plan(problem)
        ah = extract_strategy(scratch_graph, problem)
        graph, stats = reuse_pipeline(ah, problem)
        final, _, _ = execute_hypergraph(graph, problem)
        assert is_goal(final, problem), name
        assert stats.actions == scratch_stats.solution_actions, name
        assert not stats.fallback_used, name
    report("6 round-trip", f"{len(corpus)} scenarios, action counts match scratch")


def test_criterion_7_reuse_efficiency(tmp_path):
    """Reuse beats scratch search on blocker towers, and more so as they grow.

    Tower reversals do not show it: breaking f-ties toward lower h, scratch
    and reuse both expand exactly 2h nodes there.
    """
    lib = tmp_path / "lib"
    lib.mkdir()
    sizes = [2, 3, 4, 5]
    scenario_files = []
    for k in sizes:
        scenario = blocker_tower_scenario(k)
        path = tmp_path / f"blockers{k}.json"
        path.write_text(json.dumps(scenario_to_json(scenario)))
        scenario_files.append(str(path))
        plan_file = tmp_path / f"blockers{k}.plan.json"
        assert run_command(["solve", str(path), "--out", str(plan_file)]) == 0
        assert run_command(["extract", str(path), str(plan_file),
                            "--out", str(lib / f"blockers{k}.json")]) == 0
    csv_path = tmp_path / "bench.csv"
    assert run_command(["bench", *scenario_files,
                        "--library", str(lib), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * len(sizes)  # header + 2 rows per size

    measured = {}
    for line in lines[1:]:
        name, mode, expansions, *_rest, fallback = line.split(",")
        assert fallback == "false"
        k = int(name.removeprefix("blockers"))
        measured.setdefault(k, {})[mode] = int(expansions)

    ratios = []
    for k in sizes:
        assert measured[k]["reuse"] < measured[k]["scratch"], f"k={k}"
        ratios.append(measured[k]["reuse"] / measured[k]["scratch"])
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    report("7 reuse-efficiency",
           "; ".join(f"k={k}: {measured[k]['reuse']}<{measured[k]['scratch']}"
                     for k in sizes))


def test_criterion_8_invariant_fuzz():
    cases = 0

    # world-state soundness along random trajectories
    for seed in range(150):
        p = random_instance(seed)
        rng = random.Random(seed + 10_000)
        state = p.initial
        for _ in range(5):
            options = applicable_actions(state, p)
            if not options:
                break
            state = apply(state, rng.choice(options), p)
            assert state.validate(p) == []
            cases += 1

    # hypergraph discipline and entity conservation on compiled walks
    from collections import Counter

    for seed in range(300):
        p = random_instance(seed)
        rng = random.Random(seed + 20_000)
        state = p.initial
        actions = []
        for _ in range(rng.randint(0, 6)):
            options = applicable_actions(state, p)
            if not options:
                break
            action = rng.choice(options)
            state = apply(state, action, p)
            actions.append(action)
        graph = build_hypergraph(actions, p)
        assert validate_hyperpath(graph) == []
        for arc in graph.arcs.values():
            tails = Counter(e for n in arc.tails
                            for e in graph.nodes[n].composition)
            heads = Counter(e for n in arc.heads
                            for e in graph.nodes[n].composition)
            assert tails == heads
        cases += 1

    # grounding constraint verification on extracted strategies
    from hyperplan import NoGrounding

    grounded = 0
    for seed in range(200):
        p = random_instance(seed)
        if not p.goal:
            cases += 1
            continue
        try:
            graph, _ = plan(p)
        except NoSolution:
            cases += 1
            continue
        ah = extract_strategy(graph, p)
        try:
            g = ground_strategy(ah, p)
        except NoGrounding:
            cases += 1
            continue
        assert verify_grounding(ah, p, g) == [], f"seed {seed}"
        grounded += 1
        cases += 1

    assert cases >= 1000
    report("8 invariant-fuzz", f"{cases} cases, {grounded} groundings verified")
