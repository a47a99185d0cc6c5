import json
import random
import re
from dataclasses import replace

import pytest

from hyperplan import (
    FAIL_HARD,
    ExecutionFault,
    Handoff,
    NoSolution,
    Pick,
    Place,
    PreconditionViolated,
    Problem,
    RefinementConfig,
    Region,
    RobotSpec,
    WorldState,
    applicable_actions,
    apply,
    build_hypergraph,
    execute_hypergraph,
    extract_strategy,
    initial_decomposition,
    is_goal,
    makespan,
    plan,
    reuse_pipeline,
)
from hyperplan.domain import Held, InBuffer, OnStack
from hyperplan.hypergraph import (
    Hyperarc,
    HypergraphBuilder,
    Node,
    SolutionHypergraph,
    obj,
    robot,
)

from conftest import (
    SCENARIO_DIR,
    action_sort_key,
    from_placements,
    placements,
    random_instance,
    random_walk,
)


def brute_force_applicable(s, p):
    """Independent schema enumeration: try every instantiation via apply."""
    candidates = []
    for spec in p.robots:
        for o in p.objects:
            for r in p.regions:
                candidates.append(Pick(spec.id, o, r.id))
                candidates.append(Place(spec.id, o, r.id))
        for other in p.robots:
            if other.id != spec.id:
                for o in p.objects:
                    candidates.append(Handoff(spec.id, other.id, o))
    out = set()
    for action in candidates:
        try:
            apply(s, action, p)
        except PreconditionViolated:
            continue
        out.add(action)
    return out


# --- types -----------------------------------------------------------------

def test_region_invariants():
    with pytest.raises(ValueError):
        Region("b", "buffer")  # no capacity
    with pytest.raises(ValueError):
        Region("b", "buffer", 0)
    with pytest.raises(ValueError):
        Region("s", "stack", 3)  # stacks are unbounded
    with pytest.raises(ValueError):
        Region("x", "shelf")


def test_robot_invariants():
    with pytest.raises(ValueError):
        RobotSpec("r", frozenset())
    with pytest.raises(ValueError):
        RobotSpec("r", frozenset({"a"}), 0)


def test_handoff_requires_distinct_robots():
    with pytest.raises(ValueError):
        Handoff("r", "r", "x")


def test_world_state_equality_and_placements():
    s1 = WorldState(stacks={"L": ("a", "b")}, holdings={"r": ("c",)})
    s2 = WorldState(stacks={"L": ("a", "b"), "R": ()}, holdings={"r": ("c",)})
    assert s1 == s2 and hash(s1) == hash(s2)
    placed = placements(s1)
    assert placed["a"].height == 0 and placed["b"].height == 1
    assert placed["c"].robot == "r"
    rebuilt = from_placements(placed, s1.holdings)
    assert rebuilt == s1


def _tray_problem() -> Problem:
    regions = (Region("L", "stack"), Region("R", "stack"), Region("tray", "buffer", 2))
    robots = (RobotSpec("arm", frozenset({"L", "R", "tray"}), capacity=2),)
    return Problem(regions, robots, ("a", "b", "c"),
                   WorldState(stacks={"L": ("a",)}, buffers={"tray": {"b", "c"}}), {})


def _same_state(got: WorldState, want: WorldState) -> None:
    assert got == want and want == got
    assert hash(got) == hash(want)


def test_apply_normalises_emptied_entries():
    p = _tray_problem()
    s = apply(p.initial, Pick("arm", "a", "L"), p)
    assert "L" not in s.stacks
    _same_state(s, WorldState(buffers={"tray": ("c", "b")}, holdings={"arm": ("a",)}))

    s = apply(p.initial, Pick("arm", "b", "tray"), p)
    s = apply(s, Pick("arm", "c", "tray"), p)
    assert "tray" not in s.buffers
    _same_state(s, WorldState(stacks={"L": ("a",), "R": ()}, buffers={"tray": ()},
                              holdings={"arm": ("b", "c")}))

    s = apply(s, Place("arm", "b", "R"), p)
    s = apply(s, Place("arm", "c", "R"), p)
    assert "arm" not in s.holdings
    _same_state(s, WorldState(stacks={"L": ("a",), "R": ("b", "c")}))
    _same_state(s, from_placements(placements(s)))


def test_buffer_order_does_not_matter():
    p = _tray_problem()
    holding = apply(apply(p.initial, Pick("arm", "b", "tray"), p),
                    Pick("arm", "c", "tray"), p)
    b_first = apply(apply(holding, Place("arm", "b", "tray"), p),
                    Place("arm", "c", "tray"), p)
    c_first = apply(apply(holding, Place("arm", "c", "tray"), p),
                    Place("arm", "b", "tray"), p)
    _same_state(b_first, c_first)
    _same_state(b_first, p.initial)
    _same_state(b_first, WorldState(stacks={"L": ("a",)}, buffers={"tray": ["c", "b"]}))
    assert b_first != WorldState(stacks={"L": ("a",)}, buffers={"tray": ["c"]},
                                 holdings={"arm": ("b",)})


def test_apply_shares_untouched_tables():
    p = _tray_problem()
    before = p.initial
    after = apply(before, Pick("arm", "a", "L"), p)
    assert after.buffers is before.buffers
    assert before.stacks == {"L": ("a",)} and before.holdings == {}


def test_reached_states_equal_rebuilt_states():
    """States reached by ``apply`` equal and hash like constructed ones, and
    two states are equal exactly when placements and hand order agree."""
    for seed in range(100):
        p = random_instance(seed, 4, 2, 4)
        walk = random_walk(p, random.Random(seed), 20)
        for s in walk:
            padded = WorldState(
                stacks={**{r.id: () for r in p.regions}, **s.stacks},
                buffers={**{r.id: [] for r in p.regions},
                         **{r: sorted(v, reverse=True) for r, v in s.buffers.items()}},
                holdings={**{r.id: () for r in p.robots}, **s.holdings})
            _same_state(s, padded)
            _same_state(s, from_placements(placements(s), s.holdings))
        for x in walk:
            for y in walk:
                same = (placements(x), x.holdings) == (placements(y), y.holdings)
                assert (x == y) == same


def test_problem_tables_are_cached_per_instance(fig1):
    p = fig1.problem
    assert p.region_map is p.region_map
    assert p.goal_region is p.goal_region
    assert p.goal_region == {"C": "left", "A": "left", "B": "left"}
    assert p.unreachable_goals == ()
    moved = replace(p, goal={"right": ("A",)})
    assert moved.goal_objects == {"A"}
    assert moved.goal_region == {"A": "right"}
    assert p.goal_objects == {"A", "B", "C"}
    assert p.goal_region == {"C": "left", "A": "left", "B": "left"}
    only_right = replace(p, robots=(RobotSpec("blue", frozenset({"right"})),))
    assert only_right.unreachable_goals == ("left",)


def test_problem_validation_catches_bad_goals(fig1):
    p = fig1.problem
    bad = Problem(p.regions, p.robots, p.objects, p.initial,
                  {"left": ("C", "ghost")})
    assert any("ghost" in e for e in bad.validate())


@pytest.mark.parametrize("goal,error", [
    ({"left": ("C", "C", "A", "B")}, "goal object 'C' appears 2 times in goal stack 'left'"),
    ({"left": ("C", "A"), "right": ("B", "C")},
     "goal object 'C' appears 2 times in goal stacks 'left' and 'right'"),
])
def test_a_repeated_goal_object_is_named_with_its_stacks(fig3, goal, error):
    p = replace(fig3.problem, goal=goal)
    assert p.validate() == [error]


def test_a_repeated_goal_object_is_an_input_error(tmp_path, capsys):
    from hyperplan.cli import run_command

    scenario = json.loads((SCENARIO_DIR / "fig3.json").read_text())
    scenario["goal"] = {"left": ["C", "C", "A", "B"]}
    path = tmp_path / "repeated-goal.json"
    path.write_text(json.dumps(scenario))
    assert run_command(["solve", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: goal object 'C' appears 2 times in goal stack 'left'\n")


def test_facts_of_different_classes_with_equal_fields_are_unequal():
    assert Held("a", "b") != InBuffer("a", "b")
    assert InBuffer("a", "b") != Held("a", "b")
    assert len({Held("a", "b"), InBuffer("a", "b")}) == 2
    assert OnStack("a", "b", 0) != ("a", "b", 0)


def test_equal_facts_are_equal_and_hash_equal():
    for first, second in ((OnStack("C", "left", 2), OnStack("C", "left", 2)),
                          (InBuffer("C", "side"), InBuffer("C", "side")),
                          (Held("blue", "C"), Held("blue", "C"))):
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert not first != second
    assert OnStack("C", "left", 2) != OnStack("C", "left", 1)
    assert frozenset({Held("blue", "C")}) - {Held("blue", "C")} == frozenset()
    assert [repr(f) for f in (OnStack("C", "left", 2), InBuffer("C", "side"),
                              Held("blue", "C"))] == [
        "OnStack(obj='C', region='left', height=2)",
        "InBuffer(obj='C', region='side')",
        "Held(robot='blue', obj='C')",
    ]


def reference_validate(p) -> list:
    """``Problem.validate`` as it was before its one-pass object count,
    kept as the reference for its messages and their order."""
    errors = list(p.structure_errors)
    for r, stack in p.goal.items():
        region = p.region_map.get(r)
        if region is None:
            errors.append(f"goal region {r!r} undeclared")
        elif region.kind != "stack":
            errors.append(f"goal region {r!r} is not a stack")
        for o in stack:
            if o not in p.objects:
                errors.append(f"goal object {o!r} undeclared")
    listings = [(o, r) for r, stack in p.goal.items() for o in stack]
    for o in dict.fromkeys(o for o, _ in listings):
        stacks = [r for listed, r in listings if listed == o]
        distinct = sorted(set(stacks), key=stacks.index)
        if len(distinct) > 1:
            errors.append(f"goal object {o!r} appears {len(stacks)} times in goal stacks "
                          + " and ".join(repr(r) for r in distinct))
        elif len(stacks) > 1:
            errors.append(f"goal object {o!r} appears {len(stacks)} times "
                          f"in goal stack {stacks[0]!r}")
    s, seen = p.initial, {}
    for r, stack in s.stacks.items():
        region = p.region_map.get(r)
        if region is None or region.kind != "stack":
            errors.append(f"{r!r} is not a stack region")
        for o in stack:
            seen[o] = seen.get(o, 0) + 1
    for r, objs in s.buffers.items():
        region = p.region_map.get(r)
        if region is None or region.kind != "buffer":
            errors.append(f"{r!r} is not a buffer region")
        elif len(objs) > region.capacity:
            errors.append(f"buffer {r!r} over capacity")
        for o in objs:
            seen[o] = seen.get(o, 0) + 1
    for r, held in s.holdings.items():
        spec = p.robot_map.get(r)
        if spec is None:
            errors.append(f"unknown robot {r!r}")
        elif len(held) > spec.capacity:
            errors.append(f"robot {r!r} over capacity")
        for o in held:
            seen[o] = seen.get(o, 0) + 1
    for o in p.objects:
        count = seen.pop(o, 0)
        if count != 1:
            errors.append(f"object {o!r} placed {count} times")
    for o in seen:
        errors.append(f"undeclared object {o!r}")
    return errors


def broken_problems(p):
    """Single and double faults in a valid problem's objects, start state
    and goal, each as a new problem; the faulty start states and goals
    also through ``p.subproblem``."""
    stacks, buffers = p.initial.stacks, p.initial.buffers
    first, everything = p.objects[0], p.objects
    stack_id = next(r.id for r in p.regions if r.kind == "stack")
    buffer_id = next((r.id for r in p.regions if r.kind == "buffer"), "nowhere")
    robot_id = p.robots[0].id
    starts = [
        WorldState({**stacks, stack_id: stacks.get(stack_id, ()) + ("ghost",)}, buffers),
        WorldState({**stacks, stack_id: stacks.get(stack_id, ()) + (first,)}, buffers),
        WorldState({**stacks, "nowhere": ("ghost",)}, buffers),
        WorldState({**stacks, buffer_id: ("ghost",)}, buffers),
        WorldState({}, {buffer_id: everything, stack_id: ("ghost",)}),
        WorldState({}, {}, {robot_id: everything, "nobody": ("ghost",)}),
    ]
    goals = [{**p.goal, stack_id: ("ghost",)}, {"nowhere": (first,)},
             {buffer_id: (first,)}, {stack_id: (first, first)}]
    for objects in (everything + (first,), everything[1:],
                    everything + ("ghost",), everything + (first, "ghost")):
        yield Problem(p.regions, p.robots, objects, p.initial, p.goal)
        for initial in starts[:2]:
            yield Problem(p.regions, p.robots, objects, initial, p.goal)
    for initial in starts:
        yield Problem(p.regions, p.robots, p.objects, initial, p.goal)
        yield p.subproblem(initial, p.goal)
    for goal in goals:
        yield Problem(p.regions, p.robots, p.objects, p.initial, goal)
        yield p.subproblem(p.initial, goal)
        yield p.subproblem(starts[1], goal)


def test_validation_reports_what_the_reference_reports():
    faults = 0
    for seed in range(100):
        p = random_instance(seed, 4, 2, 4)
        assert p.validate() == reference_validate(p) == []
        for bad in broken_problems(p):
            assert bad.validate() == reference_validate(bad), seed
            faults += bool(bad.validate())
    assert faults > 2_500


# --- applicable / apply -------------------------------------------------------

def test_fig1_initial_applicable(fig1):
    p = fig1.problem
    actions = applicable_actions(p.initial, p)
    assert Pick("blue", "C", "right") in actions
    assert Pick("blue", "B", "right") not in actions  # not the top box
    assert all(isinstance(a, Pick) for a in actions)
    assert set(actions) == brute_force_applicable(p.initial, p)


def test_no_handoff_without_shared_reach():
    regions = (Region("L", "stack"), Region("R", "stack"))
    robots = (RobotSpec("a", frozenset({"L"})), RobotSpec("b", frozenset({"R"})))
    p = Problem(regions, robots, ("x",),
                WorldState(holdings={"a": ("x",)}), {})
    actions = applicable_actions(p.initial, p)
    assert not any(isinstance(a, Handoff) for a in actions)
    assert set(actions) == brute_force_applicable(p.initial, p)


def test_saturated_state_offers_no_picks():
    # both robots at capacity and the only buffer full: Place/Handoff only
    regions = (Region("L", "stack"), Region("B", "buffer", 1))
    robots = (RobotSpec("a", frozenset({"L", "B"})),
              RobotSpec("b", frozenset({"L", "B"})))
    p = Problem(regions, robots, ("x", "y", "z"),
                WorldState(buffers={"B": {"z"}},
                           holdings={"a": ("x",), "b": ("y",)}),
                {})
    actions = applicable_actions(p.initial, p)
    assert actions
    assert not any(isinstance(a, Pick) for a in actions)
    assert set(actions) == brute_force_applicable(p.initial, p)


def test_pick_place_inverse(fig1):
    p = fig1.problem
    s1 = apply(p.initial, Pick("blue", "C", "right"), p)
    s2 = apply(s1, Place("blue", "C", "right"), p)
    assert s2 == p.initial


def test_handoff_moves_held_object(fig1):
    p = fig1.problem
    s = apply(p.initial, Pick("blue", "C", "right"), p)
    s = apply(s, Handoff("blue", "red", "C"), p)
    assert s.holdings == {"red": ("C",)}
    assert placements(s)["C"].robot == "red"


def test_apply_rejects_bad_preconditions(fig1):
    p = fig1.problem
    with pytest.raises(PreconditionViolated):
        apply(p.initial, Pick("blue", "A", "right"), p)  # buried
    with pytest.raises(PreconditionViolated):
        apply(p.initial, Place("blue", "A", "left"), p)  # not held


def test_apply_touches_only_involved_entities(fig1):
    p = fig1.problem
    before = placements(p.initial)
    after = placements(apply(p.initial, Pick("blue", "C", "right"), p))
    changed = {o for o in before if before[o] != after[o]}
    assert changed == {"C"}


# --- goals ---------------------------------------------------------------------

def test_is_goal(fig1):
    p = fig1.problem
    assert not is_goal(p.initial, p)
    done = WorldState(stacks={"left": ("C", "A", "B")})
    assert is_goal(done, p)
    # same stack but one goal object held instead of placed
    short = WorldState(stacks={"left": ("C", "A")}, holdings={"blue": ("B",)})
    assert not is_goal(short, p)


def test_empty_goal_is_always_satisfied(fig1):
    p = fig1.problem
    empty = Problem(p.regions, p.robots, p.objects, p.initial, {})
    assert is_goal(empty.initial, empty)


def test_goal_requires_exact_stack():
    regions = (Region("L", "stack"),)
    robots = (RobotSpec("a", frozenset({"L"})),)
    p = Problem(regions, robots, ("x", "y"),
                WorldState(stacks={"L": ("x", "y")}), {"L": ("x",)})
    assert not is_goal(p.initial, p)  # extra object on top


# --- execution -------------------------------------------------------------------

def test_execute_fig1_plan(fig1):
    p = fig1.problem
    graph, _ = plan(p)
    final, makespan, actions = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert actions == 6
    assert makespan < 6  # two arcs share a layer


def test_execute_empty_graph_on_satisfied_problem(fig1):
    p = fig1.problem
    satisfied = Problem(p.regions, p.robots, p.objects, p.initial, {})
    final, makespan, actions = execute_hypergraph(
        SolutionHypergraph({}, {}), satisfied)
    assert (final, makespan, actions) == (p.initial, 0, 0)
    assert is_goal(final, satisfied)


def test_execute_action_count_equals_arc_count(fig1):
    p = fig1.problem
    graph, _ = plan(p)
    _, _, actions = execute_hypergraph(graph, p)
    assert actions == len(graph.arcs)


def test_execute_rejects_source_mismatch(fig1, fig3):
    graph, _ = plan(fig1.problem)
    with pytest.raises(ExecutionFault) as failure:
        execute_hypergraph(graph, fig3.problem)
    # no arc is at fault, so the message is the reason alone
    assert failure.value.arc_id is None
    assert str(failure.value) == "sources do not match the initial decomposition"


def test_execute_rejects_infeasible_arc(fig1):
    p = fig1.problem
    actions = [Pick("blue", "C", "right"), Place("blue", "C", "left")]
    graph = build_hypergraph(actions, p)
    # corrupt the second arc into picking a buried box
    arcs = dict(graph.arcs)
    bad = arcs[1]
    arcs[1] = Hyperarc(1, Pick("red", "A", "right"), bad.tails, bad.heads)
    with pytest.raises(ExecutionFault) as failure:
        execute_hypergraph(SolutionHypergraph(dict(graph.nodes), arcs), p)
    assert str(failure.value).startswith("arc 1: ")


PICK = Pick("blue", "C", "right")  # heads: 3 (blue with C), 4 (A, B on "right")
PLACE = Place("blue", "C", "left")  # heads: 5 (C on "left"), 6 (blue)
HANDOFF = Handoff("blue", "red", "C")  # heads: 5 (blue), 6 (red with C)


@pytest.mark.parametrize("actions,edits", [
    pytest.param([PICK, PLACE], {5: ({obj("C")}, {OnStack("C", "right", 2)})},
                 id="wrong-place"),
    pytest.param([PICK, PLACE], {5: ({obj("C")}, {InBuffer("C", "left")})},
                 id="not-in-that-buffer"),
    pytest.param([PICK, PLACE], {5: ({obj("C")}, set())}, id="missing-fact"),
    pytest.param([PICK, PLACE], {5: ({obj("C")}, {OnStack("A", "right", 0)})},
                 id="fact-of-a-non-member"),
    pytest.param([PICK, PLACE], {5: ({obj("C")}, {OnStack("C", "left", 0),
                                                  OnStack("A", "right", 0)})},
                 id="extra-fact"),
    # the entities stay conserved in the two edits below
    pytest.param([PICK, HANDOFF], {5: ({robot("blue"), obj("C")}, {Held("blue", "C")}),
                                   6: ({robot("red")}, set())},
                 id="held-by-the-giver"),
    pytest.param([PICK], {3: ({obj("C")}, {Held("blue", "C")}),
                          4: ({obj("A"), obj("B"), robot("blue")},
                              {OnStack("A", "right", 0), OnStack("B", "right", 1)})},
                 id="holder-outside-the-node"),
])
def test_execute_rejects_head_facts_the_state_contradicts(fig1, actions, edits):
    p = fig1.problem
    graph = build_hypergraph(actions, p)
    nodes = dict(graph.nodes)
    for nid, (composition, facts) in edits.items():
        nodes[nid] = Node(nid, frozenset(composition), frozenset(facts))
    with pytest.raises(ExecutionFault, match=f"^arc {len(actions) - 1}: node "):
        execute_hypergraph(SolutionHypergraph(nodes, dict(graph.arcs)), p)


def action_robots(a) -> frozenset:
    if isinstance(a, Handoff):
        return frozenset((a.giver, a.receiver))
    return frozenset((a.robot,))


def layered_makespan(graph) -> int:
    """Reference greedy, built one layer at a time.

    Each layer takes, in arc id order, every remaining arc whose tails are
    available at the layer's start and none of whose robots already acts in
    that layer; its heads become available in the next layer.
    """
    available = set(graph.sources)
    remaining = sorted(graph.arcs)
    layers = 0
    while remaining:
        layer: list = []
        busy: set = set()
        produced: set = set()
        for aid in remaining:
            arc = graph.arcs[aid]
            robots = action_robots(arc.label)
            if arc.tails <= available and not robots & busy:
                layer.append(aid)
                busy |= robots
                produced |= arc.heads
        assert layer, "no runnable arc in a layer"
        available |= produced
        remaining = [aid for aid in remaining if aid not in layer]
        layers += 1
    return layers


def test_makespan_matches_the_layered_greedy_on_the_corpus():
    compared = 0
    for seed in range(400):
        p = random_instance(seed, 4, 2, 4)
        try:
            scratch, _ = plan(p)
        except NoSolution:
            continue
        refined, _ = reuse_pipeline(extract_strategy(scratch, p), p,
                                    RefinementConfig(fallback=FAIL_HARD))
        for graph in (scratch, refined):
            want = layered_makespan(graph)
            assert makespan(graph) == want, f"seed {seed}"
            assert execute_hypergraph(graph, p)[1] == want, f"seed {seed}"
            compared += 1
    assert compared == 2 * 286


def tail_robots(graph, arc) -> frozenset:
    return frozenset(e.name for t in arc.tails for e in graph.nodes[t].composition
                     if e.is_robot)


def test_compiled_arcs_consume_the_robots_they_name(fig1, fig2, fig3):
    """The premise of ``makespan`` reading no label: every arc of every
    compiled plan, scratch and refined, consumes the node of each robot its
    label names, so one robot's arcs never share a layer."""
    problems = [s.problem for s in (fig1, fig2, fig3)]
    problems += [random_instance(seed, 4, 2, 4) for seed in range(400)]
    compared = 0
    for p in problems:
        try:
            scratch, _ = plan(p)
        except NoSolution:
            continue
        refined, _ = reuse_pipeline(extract_strategy(scratch, p), p,
                                    RefinementConfig(fallback=FAIL_HARD))
        for graph in (scratch, refined):
            for arc in graph.arcs.values():
                assert action_robots(arc.label) <= tail_robots(graph, arc), arc
            compared += 1
    assert compared == 2 * (3 + 286)


def robot_node_copied(p, name: str) -> SolutionHypergraph:
    """fig1's first action, blue picking C, as an arc that copies the node
    of robot ``name``. The head holds no object, so its facts hold, and
    only the check of the arc's tails rejects it."""
    b = HypergraphBuilder()
    for comp, facts in initial_decomposition(p):
        b.add_node(comp, facts)   # 0: A, B, C on "right"; 1: blue; 2: red
    tail = 1 if name == "blue" else 2
    b.add_arc(Pick("blue", "C", "right"), {tail}, {b.add_node({robot(name)})})
    return b.build()


def first_arc_relabeled(p, label) -> SolutionHypergraph:
    """fig1's plan, whose first arc is blue picking C, with that arc's label
    made ``label(Pick("blue", "C", "right"))``."""
    graph, _ = plan(p)
    arcs = dict(graph.arcs)
    first = arcs[0]
    arcs[0] = Hyperarc(0, label(first.label), first.tails, first.heads)
    return SolutionHypergraph(dict(graph.nodes), arcs)


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda p: robot_node_copied(p, "red"), "no tail holds robot 'blue'",
                 id="other-robot-node"),
    pytest.param(lambda p: robot_node_copied(p, "blue"), "no tail holds object 'C'",
                 id="robot-node-only"),
    pytest.param(lambda p: first_arc_relabeled(p, lambda a: replace(a, robot="red")),
                 "no tail holds robot 'red'", id="other-robot"),
    pytest.param(lambda p: first_arc_relabeled(p, lambda a: "not an action"),
                 "arc label 'not an action' is not an action", id="not-an-action"),
])
def test_execute_rejects_an_arc_its_label_does_not_fit(fig1, make, message):
    """An arc consumes the nodes of the entities its action acts on. So each
    robot's arcs consume its node, and ``makespan`` never has to move an
    arc past a layer where its robot already acts."""
    with pytest.raises(ExecutionFault, match=f"^arc 0: {re.escape(message)}$"):
        execute_hypergraph(make(fig1.problem), fig1.problem)


def test_a_goal_object_on_its_goal_stack_is_not_also_held(fig1):
    """The premise of ``is_goal`` reading only the goal stacks: a state that
    holds an object its goal stack also holds is invalid."""
    p = fig1.problem
    both = WorldState(stacks={"left": ("C", "A", "B")}, holdings={"blue": ("B",)})
    assert both.validate(p) == ["object 'B' placed 2 times"]


def test_initial_decomposition_partitions_entities(fig1):
    p = fig1.problem
    comps = [comp for comp, _ in initial_decomposition(p)]
    names = sorted(e.name for comp in comps for e in comp)
    assert names == sorted(list(p.objects) + [r.id for r in p.robots])


# --- fuzz ------------------------------------------------------------------------

def test_random_apply_preserves_state_invariants():
    checks = 0
    for seed in range(120):
        p = random_instance(seed)
        rng = random.Random(seed + 10_000)
        for state in random_walk(p, rng, 5):
            assert state.validate(p) == []
            checks += 1
    assert checks >= 500


def test_random_applicable_matches_brute_force():
    """Successors come in ``action_sort_key`` order. The second generator
    setting adds buffers, capacity-2 robots and two robots."""
    checked = 0
    for seed in range(40):
        for p in (random_instance(seed), random_instance(seed, 4, 2, 4)):
            rng = random.Random(seed)
            for state in random_walk(p, rng, 3):
                actions = applicable_actions(state, p)
                assert list(actions) == sorted(brute_force_applicable(state, p),
                                               key=action_sort_key)
                checked += len(actions)
    assert checked >= 700


def test_applicable_actions_reuse_action_instances(fig2):
    p = fig2.problem
    s = apply(p.initial, Pick("r1", "z", "start"), p)
    first = applicable_actions(s, p)
    assert all(a is b for a, b in zip(first, applicable_actions(s, p)))
    assert Handoff("r1", "r2", "z") in first
