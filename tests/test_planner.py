import gc
import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest

from hyperplan import (
    BudgetExhausted,
    Handoff,
    NoSolution,
    Pick,
    Place,
    Problem,
    Region,
    RobotSpec,
    SearchConfig,
    WorldState,
    bfs_oracle,
    build_hypergraph,
    execute_hypergraph,
    extract_strategy,
    is_goal,
    makespan,
    plan,
    reuse_pipeline,
    search,
    topological_order,
    validate_hyperpath,
)
from hyperplan import planner
from hyperplan.cli import plan_to_json
from hyperplan.domain import Held, InBuffer, OnStack, applicable_actions, apply
from hyperplan.planner import Compiler, SlotSpace, StackRecord, heuristic

from conftest import class_erased, load_scenario, random_instance, random_walk


def plan_actions(graph):
    return [graph.arcs[a].label for a in topological_order(graph)]


# --- fig1 ----------------------------------------------------------------------

def test_fig1_six_actions_three_picks_three_places(fig1):
    graph, stats = plan(fig1.problem)
    actions = plan_actions(graph)
    assert len(actions) == 6
    assert sum(isinstance(a, Pick) for a in actions) == 3
    assert sum(isinstance(a, Place) for a in actions) == 3
    assert stats.solution_actions == 6
    assert stats.expansions >= 6
    assert stats.expansions <= stats.generated


def test_fig1_recovers_parallel_structure(fig1):
    graph, stats = plan(fig1.problem)
    _, makespan, _ = execute_hypergraph(graph, fig1.problem)
    assert makespan < 6
    assert stats.makespan == makespan


def test_plan_on_satisfied_goal_is_empty(fig1):
    p = fig1.problem
    satisfied = replace(p, goal={"right": ("A", "B", "C")})
    graph, stats = plan(satisfied)
    assert len(graph.arcs) == 0
    assert stats.solution_actions == 0
    # sources only: the tower plus one node per robot
    assert len(graph.nodes) == 3
    assert validate_hyperpath(graph) == []


def test_fig2_optimal_plan_needs_three_handoffs(fig2):
    p = fig2.problem
    graph, stats = plan(p)
    actions = plan_actions(graph)
    assert stats.solution_actions == bfs_oracle(p) == 9
    assert sum(isinstance(a, Handoff) for a in actions) == 3
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)


def test_plan_is_deterministic(fig1):
    first, _ = plan(fig1.problem)
    second, _ = plan(fig1.problem)
    assert plan_actions(first) == plan_actions(second)
    assert first == second


def test_no_solution_when_target_unreachable():
    regions = (Region("L", "stack"), Region("R", "stack"))
    robots = (RobotSpec("a", frozenset({"R"})),)
    p = Problem(regions, robots, ("x",),
                WorldState(stacks={"R": ("x",)}), {"L": ("x",)})
    with pytest.raises(NoSolution):
        plan(p)
    assert bfs_oracle(p) is None


def test_no_solution_when_state_space_exhausted():
    # two boxes must swap stack order with one robot and no spare surface
    regions = (Region("L", "stack"),)
    robots = (RobotSpec("a", frozenset({"L"})),)
    p = Problem(regions, robots, ("x", "y"),
                WorldState(stacks={"L": ("x", "y")}), {"L": ("y", "x")})
    with pytest.raises(NoSolution):
        plan(p)
    assert bfs_oracle(p) is None


def test_budget_exhausted():
    from conftest import reversal_problem

    with pytest.raises(BudgetExhausted):
        plan(reversal_problem(4), SearchConfig(max_expansions=2))


def test_search_config_invariants():
    with pytest.raises(ValueError):
        SearchConfig(max_expansions=0)
    # the expansion budget is the only setting: search always minimises the
    # action count, and asking for another cost model is refused
    with pytest.raises(TypeError):
        SearchConfig(cost_model="makespan")


# --- build_hypergraph ------------------------------------------------------------

def test_build_empty_sequence_gives_sources_only(fig1):
    graph = build_hypergraph([], fig1.problem)
    assert len(graph.arcs) == 0
    assert set(graph.sources) == set(graph.nodes)


def test_build_single_pick_structure():
    regions = (Region("L", "stack"),)
    robots = (RobotSpec("a", frozenset({"L"})),)
    p = Problem(regions, robots, ("x",),
                WorldState(stacks={"L": ("x",)}), {})
    graph = build_hypergraph([Pick("a", "x", "L")], p)
    assert len(graph.sources) == 2
    assert len(graph.arcs) == 1
    heads = next(iter(graph.arcs.values())).heads
    assert len(heads) == 1
    (head,) = heads
    assert len(graph.nodes[head].composition) == 2  # robot composed with box


def test_build_fig1_leaves_arcs_1_and_2_unordered(fig1):
    # the second pick and the first place depend only on the first pick
    graph, _ = plan(fig1.problem)
    order = topological_order(graph)
    arc_of = {i: graph.arcs[aid] for i, aid in enumerate(order)}
    first_heads = arc_of[0].heads
    assert arc_of[1].tails & first_heads or arc_of[2].tails & first_heads
    assert not (arc_of[1].tails & arc_of[2].heads)
    assert not (arc_of[2].tails & arc_of[1].heads)


def test_build_rejects_inapplicable_sequence(fig1):
    from hyperplan import PreconditionViolated

    with pytest.raises(PreconditionViolated):
        build_hypergraph([Pick("blue", "A", "right")], fig1.problem)


# --- oracle equivalence and heuristic admissibility ---------------------------------

def test_oracle_on_known_instances(fig1):
    assert bfs_oracle(fig1.problem) == 6
    # one robot, one box, two stacks: forced pick + place
    regions = (Region("L", "stack"), Region("R", "stack"))
    robots = (RobotSpec("a", frozenset({"L", "R"})),)
    p = Problem(regions, robots, ("x",),
                WorldState(stacks={"R": ("x",)}), {"L": ("x",)})
    assert bfs_oracle(p) == 2
    satisfied = replace(p, goal={"R": ("x",)})
    assert bfs_oracle(satisfied) == 0


def test_plan_matches_oracle_on_random_family():
    """The benchmark's corpus generator, seeds 0-299: A* finds exactly the
    oracle's optimum, or nothing when the oracle finds nothing."""
    solved = 0
    for seed in range(300):
        p = random_instance(seed, 4, 2, 4)
        expected = bfs_oracle(p, bound=20)
        try:
            graph, stats = plan(p)
        except NoSolution:
            assert expected is None, f"seed {seed}: planner gave up, oracle found {expected}"
            continue
        if expected is None:
            assert stats.solution_actions > 20, f"seed {seed}"
            continue
        assert stats.solution_actions == expected, f"seed {seed}"
        final, _, _ = execute_hypergraph(graph, p)
        assert is_goal(final, p)
        solved += 1
    assert solved >= 200


@pytest.mark.parametrize("family,found", [((6, 3, 5), 54), ((8, 2, 4), 45)])
def test_search_matches_oracle_beyond_four_objects(family, found):
    """Seeds 0-99 of the larger random families, with the oracle bounded at
    8 actions (its cost grows fast with depth here): where it finds an
    optimum, A* finds a plan of that length within a 20,000 budget; where
    it finds none, A* finds no plan of 8 actions or fewer."""
    agreed = 0
    for seed in range(100):
        p = random_instance(seed, *family)
        expected = bfs_oracle(p, bound=8)
        try:
            length = len(search(p, SearchConfig(max_expansions=20_000))[0])
        except (NoSolution, BudgetExhausted):
            length = None
        if expected is None:
            assert length is None or length > 8, f"seed {seed}: A* found {length}"
        else:
            assert length == expected, f"seed {seed}"
            agreed += 1
    assert agreed == found


def goal_distance(p: Problem, prefix: bool) -> int | None:
    """Fewest actions from ``p.initial`` to a state ``is_goal(..., prefix)``
    accepts, by exhaustive breadth-first search; None if there is none."""
    if is_goal(p.initial, p, prefix=prefix):
        return 0
    seen = {p.initial}
    layer = [p.initial]
    depth = 0
    while layer:
        depth += 1
        following = []
        for state in layer:
            for action in applicable_actions(state, p):
                successor = apply(state, action, p)
                if successor in seen:
                    continue
                if is_goal(successor, p, prefix=prefix):
                    return depth
                seen.add(successor)
                following.append(successor)
        layer = following
    return None


def test_heuristic_admissible_on_sampled_states():
    """On the benchmark's corpus generator, in both goal readings, h never
    exceeds the true distance and flags only real dead ends."""
    checked = 0
    for seed in range(120):
        p = random_instance(seed, 4, 2, 4)
        for state in random_walk(p, random.Random(seed), 5):
            for prefix in (False, True):
                h = heuristic(state, p, prefix)
                truth = goal_distance(replace(p, initial=state), prefix)
                if h is None:
                    assert truth is None, (seed, state, prefix)
                elif truth is not None:
                    assert h <= truth, (seed, state, prefix, h, truth)
                checked += 1
    assert checked >= 1300


def placement_of(s: WorldState, o: str):
    """The fact that places ``o`` in ``s``, found by scanning every stack,
    buffer and hand; None if ``o`` is nowhere."""
    for r, stack in s.stacks.items():
        if o in stack:
            return OnStack(o, r, stack.index(o))
    for r, objs in s.buffers.items():
        if o in objs:
            return InBuffer(o, r)
    for r, held in s.holdings.items():
        if o in held:
            return Held(r, o)
    return None


def reference_heuristic(s, p):
    """The heuristic as first written: it counts only goal objects off their
    goal cell, one ``placement_of`` scan each. ``heuristic`` must dominate it."""
    targets = {o: (region, h) for region, want in p.goal.items()
               for h, o in enumerate(want)}
    pairs = {(a, b) for spec in p.robots for a in spec.reach for b in spec.reach}
    reachable = {r for spec in p.robots for r in spec.reach}
    robots = {spec.id: spec for spec in p.robots}
    total = 0
    for o, (region, height) in targets.items():
        fact = placement_of(s, o)
        if isinstance(fact, OnStack) and fact.region == region and fact.height == height:
            continue
        if region not in reachable:
            return None
        if isinstance(fact, Held):
            total += 1 if region in robots[fact.robot].reach else 2
            continue
        here = fact.region
        if here not in reachable:
            return None
        total += 2 if (here, region) in pairs else 3
    return total


def permute(one_robot: bool, start: dict, goal: dict, boxes: int = 6) -> Problem:
    """Boxes re-stacked over three stacks, by two robots or by one robot
    with a capacity-2 tray."""
    stacks = ["s0", "s1", "s2"]
    regions = [Region(s, "stack") for s in stacks]
    if one_robot:
        regions.append(Region("tray", "buffer", 2))
        robots = [RobotSpec("arm", frozenset(stacks + ["tray"]))]
    else:
        robots = [RobotSpec(r, frozenset(stacks)) for r in ("blue", "red")]
    return Problem(tuple(regions), tuple(robots), tuple(f"b{i}" for i in range(boxes)),
                   WorldState(stacks=start), goal)


def random_permute(seed: int, one_robot: bool, boxes: int = 6) -> Problem:
    """A seeded ``permute``: the boxes shuffled and cut into at most three
    towers, once for the start and once for the goal."""
    rng = random.Random(seed)

    def towers() -> dict:
        names = [f"b{i}" for i in range(boxes)]
        rng.shuffle(names)
        low, high = sorted(rng.sample(range(boxes + 1), 2))
        parts = (names[:low], names[low:high], names[high:])
        return {f"s{i}": tuple(part) for i, part in enumerate(parts) if part}

    return permute(one_robot, towers(), towers(), boxes)


PERM6_ONE_ROBOT = permute(
    True, {"s0": ("b1", "b0", "b5"), "s1": ("b2",), "s2": ("b3", "b4")},
    {"s0": ("b4",), "s1": ("b0",), "s2": ("b3", "b2", "b1", "b5")})
PERM6_TWO_ROBOTS = permute(
    False, {"s0": ("b1", "b2", "b3", "b4"), "s1": ("b5", "b0")},
    {"s0": ("b1", "b4", "b3"), "s1": ("b2", "b5"), "s2": ("b0",)})


def test_heuristic_dominates_reference_on_walks():
    """Every goal object off its goal cell must move, so ``heuristic`` never
    falls below the first version; objects it must move besides those (a
    goal object on a wrong base, junk above a goal prefix) make it strictly
    larger on some states. A dead end of the first version stays one."""
    checked = stronger = 0
    problems = [random_instance(seed, 4, 2, 4) for seed in range(150)]
    problems += [PERM6_ONE_ROBOT, PERM6_TWO_ROBOTS]
    for i, p in enumerate(problems):
        for state in random_walk(p, random.Random(i), 40):
            h, ref = heuristic(state, p), reference_heuristic(state, p)
            if ref is None:
                assert h is None, (i, state)
            elif h is not None:
                assert h >= ref, (i, state)
                stronger += h > ref
            checked += 1
    assert checked >= 4000
    assert stronger >= 100


# Recorded from the search with f-ties broken toward lower h and the
# must-move heuristic; the sequences are those the first search found, the
# counts are lower (fig3's and perm6-one-robot's lower again since the
# one-hand terms, perm6-two-robots' since the hand term of two hands). fig1
# and perm6-two-robots have two interchangeable robots, so their counts are
# of symmetry classes. Any drift in heuristic values, successor order or
# tie-breaking changes these sequences or counts.
GOLDEN = {
    "fig1": (6, 13, [
        "pick blue C right", "pick red B right", "place blue C left",
        "pick blue A right", "place blue A left", "place red B left"]),
    "fig2": (9, 18, [
        "pick r1 z start", "handoff r1 r2 z", "pick r1 y start", "place r2 z goal",
        "handoff r1 r2 y", "pick r1 x start", "place r2 y goal", "handoff r1 r2 x",
        "place r2 x goal"]),
    "fig3": (8, 13, [
        "pick solo C right", "place solo C left", "pick solo B right",
        "place solo B side", "pick solo A right", "place solo A left",
        "pick solo B side", "place solo B left"]),
    "perm6-one-robot": (25, 65, [
        "pick arm b4 s2", "place arm b4 tray", "pick arm b2 s1", "place arm b2 s2",
        "pick arm b5 s0", "place arm b5 tray", "pick arm b0 s0", "place arm b0 s1",
        "pick arm b1 s0", "place arm b1 s2", "pick arm b4 tray", "place arm b4 s0",
        "pick arm b5 tray", "place arm b5 s2"]),
    "perm6-two-robots": (12, 54, [
        "pick blue b0 s1", "pick red b4 s0", "place blue b0 s2", "pick blue b3 s0",
        "place blue b3 s1", "pick blue b2 s0", "place red b4 s0", "pick red b3 s1",
        "place red b3 s0", "pick red b5 s1", "place blue b2 s1", "place red b5 s1"]),
}


def assert_search_matches_plan(p: Problem) -> None:
    """``search`` returns exactly the actions ``plan`` compiles, with equal counts."""
    actions, stats = search(p)
    graph, plan_stats = plan(p)
    assert actions == plan_actions(graph)
    assert (stats.expansions, stats.generated, stats.solution_actions) == \
        (plan_stats.expansions, plan_stats.generated, plan_stats.solution_actions)


def golden_problem(name: str) -> Problem:
    problems = {"perm6-one-robot": PERM6_ONE_ROBOT, "perm6-two-robots": PERM6_TWO_ROBOTS}
    return problems[name] if name in problems else load_scenario(name).problem


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_search_order_is_pinned(name):
    p = golden_problem(name)
    graph, stats = plan(p)
    expansions, generated, actions = GOLDEN[name]
    assert [str(a) for a in plan_actions(graph)] == actions
    assert (stats.expansions, stats.generated) == (expansions, generated)
    assert_search_matches_plan(p)


# sha256 over plan_to_json of the GOLDEN plans, then of the plans corpus
# seeds 0-99 refine from their own strategies. Any change in node order,
# compositions, facts, arcs or robot names moves it.
COMPILED_GRAPHS_SHA256 = "ee42c572634295bb0042b7e224f7898b9c655e0c8d75d676dde2262d44c6ed84"


def test_compiled_graphs_are_pinned():
    graphs = [(name, plan(golden_problem(name))[0]) for name in sorted(GOLDEN)]
    for seed in range(100):
        p = random_instance(seed, 4, 2, 4)
        try:
            graph, _ = plan(p)
        except NoSolution:
            continue
        graphs.append((f"seed{seed:03d}", reuse_pipeline(extract_strategy(graph, p), p)[0]))
    assert len(graphs) == 77
    digest = hashlib.sha256()
    for name, graph in graphs:
        digest.update(json.dumps(plan_to_json(graph, name), sort_keys=True).encode())
    assert digest.hexdigest() == COMPILED_GRAPHS_SHA256


def test_search_returns_the_actions_plan_compiles_on_corpus():
    solved = 0
    for seed in range(100):
        p = random_instance(seed, 4, 2, 4)
        try:
            assert_search_matches_plan(p)
        except NoSolution:
            continue
        solved += 1
    assert solved >= 60


def test_search_on_satisfied_goal_returns_no_actions(fig1):
    satisfied = replace(fig1.problem, goal={"right": ("A", "B", "C")})
    actions, stats = search(satisfied)
    assert actions == []
    assert (stats.expansions, stats.solution_actions, stats.makespan) == (0, 0, 0)


# --- slot states, state hash, interchangeable robots -------------------------------

def interchangeable(robots: int, capacity: int) -> Problem:
    """``robots`` identical robots of one capacity over two stacks and a
    one-slot buffer re-order a three-box tower."""
    regions = (Region("L", "stack"), Region("R", "stack"), Region("B", "buffer", 1))
    specs = tuple(RobotSpec(f"r{i}", frozenset({"L", "R", "B"}), capacity)
                  for i in range(robots))
    return Problem(regions, specs, ("o0", "o1", "o2"),
                   WorldState(stacks={"L": ("o0", "o1", "o2")}),
                   {"L": ("o2", "o0", "o1")})


def duplicated_robot(p: Problem, index: int = 0) -> Problem:
    """``p`` with the spec of its robot at ``index`` repeated under a new id."""
    twin = replace(p.robots[index], id=p.robots[index].id + "twin")
    return replace(p, robots=p.robots + (twin,))


def shared_blockers(blockers: int, seed: int, side: bool = True) -> Problem:
    """Two robots dig three boxes out from under ``blockers`` boxes and
    stack them on an empty goal stack: the benchmark's ``shared`` blocker
    tower. ``blue`` and ``red`` reach the stacks ``src``, ``dst`` and
    ``side`` (no ``side`` unless ``side``); ``src`` holds ``b1..b3`` in a
    seeded order under ``x1..xk``, and the goal is ``dst`` holding them in
    another seeded order."""
    rng = random.Random(seed)
    stacks = ("src", "dst", "side") if side else ("src", "dst")
    boxes = ["b1", "b2", "b3"]
    tops = tuple(f"x{i}" for i in range(1, blockers + 1))
    return Problem(tuple(Region(s, "stack") for s in stacks),
                   tuple(RobotSpec(r, frozenset(stacks)) for r in ("blue", "red")),
                   tuple(boxes) + tops,
                   WorldState(stacks={"src": tuple(rng.sample(boxes, 3)) + tops}),
                   {"dst": tuple(rng.sample(boxes, 3))})


# In the last three, three or four robots share a region, so a handoff has
# more than one receiver. Robot classes: one pair in PERM6_TWO_ROBOTS and in
# some corpus seeds, keyed inside SlotSpace.successors; one class of three;
# and two pairs in fig2 with both of its robots duplicated (r1 and r2 differ
# in reach). SlotSpace.key keys the last two shapes.
WALKED = [random_instance(seed, 4, 2, 4) for seed in range(120)] + \
    [PERM6_ONE_ROBOT, PERM6_TWO_ROBOTS, interchangeable(3, 2),
     duplicated_robot(PERM6_TWO_ROBOTS),
     duplicated_robot(duplicated_robot(load_scenario("fig2").problem), 1)]


def walks(problems):
    """``(p, actions, states)`` of a 30-action random walk on each problem:
    ``states`` starts at the initial state and follows each action."""
    for i, p in enumerate(problems):
        rng = random.Random(i)
        actions, states = [], [p.initial]
        for _ in range(30):
            options = applicable_actions(states[-1], p)
            if not options:
                break
            actions.append(rng.choice(options))
            states.append(apply(states[-1], actions[-1], p))
        yield p, actions, states


def walked_states(problems):
    """``(p, state)`` for every state of ``walks``."""
    for p, _, states in walks(problems):
        for state in states:
            yield p, state


def test_successor_hash_equals_the_rebuilt_states_hash():
    """``apply`` shares and updates its parent's dicts, so their insertion
    order differs from a state built afresh; equal states hash alike."""
    checked = 0
    for p, state in walked_states(WALKED):
        for action in applicable_actions(state, p):
            successor = apply(state, action, p)
            rebuilt = WorldState(*(dict(reversed(d.items())) for d in
                                   (successor.stacks, successor.buffers, successor.holdings)))
            assert successor == rebuilt
            assert hash(successor) == hash(rebuilt), (successor, rebuilt)
            checked += 1
    assert checked >= 10_000


def compiled_labels(graph) -> list:
    """A compiled graph's arc labels in arc id order, the order compiled."""
    return [graph.arcs[aid].label for aid in sorted(graph.arcs)]


def replayed(p: Problem, actions) -> list:
    """The states the checked ``apply`` takes ``actions`` through, from the
    initial state."""
    states = [p.initial]
    for action in actions:
        states.append(apply(states[-1], action, p))
    return states


def test_build_output_reexecutes_to_sequential_state():
    """On every walk, the compiled labels are the walk's once each robot is
    erased to its class, each node's facts are a scan of the state the arc
    that made it leaves when the labels replay (of the initial state for a
    source), the graph executes to the labels' last state, and compiling
    the labels in pieces, as refinement does, gives the same graph."""
    checked = 0
    for i, (p, actions, _) in enumerate(walks(WALKED)):
        graph = build_hypergraph(actions, p)
        assert validate_hyperpath(graph) == []
        labels = compiled_labels(graph)
        assert class_erased(p, labels) == class_erased(p, actions), i
        states = replayed(p, labels)
        after = dict.fromkeys(graph.sources, p.initial)
        for aid in topological_order(graph):
            after.update(dict.fromkeys(graph.arcs[aid].heads, states[aid + 1]))
        for nid, node in graph.nodes.items():
            scan = {placement_of(after[nid], e.name) for e in node.composition
                    if not e.is_robot}
            assert node.state == scan, (i, nid)
            checked += 1
        final, _, count = execute_hypergraph(graph, p)
        assert (final, count) == (states[-1], len(actions))
        compiler = Compiler(p)
        cut = random.Random(i).randint(0, len(labels))
        compiler.extend(labels[:cut])
        compiler.extend(labels[cut:])
        assert compiler.build() == graph
        assert compiler.state == states[-1]
    assert checked >= 6_000


def test_compiling_compiled_labels_again_gives_the_same_graph():
    """Renaming at picks is idempotent: a compiled plan's labels already
    hand each pick to the robot whose hand is free first."""
    for i, (p, actions, _) in enumerate(walks(WALKED)):
        graph = build_hypergraph(actions, p)
        again = build_hypergraph(compiled_labels(graph), p)
        assert again == graph, i
        assert compiled_labels(again) == compiled_labels(graph), i


def test_compiler_layers_give_the_makespan():
    """The compiler's last layer is ``makespan`` of the graph it compiled:
    on the GOLDEN plans, on every corpus scratch and refined plan, and on
    each walk, up to a random cut and to its end, and on its compiled
    labels, compiled up to the cut and then to their end."""
    checked = 0
    for name in sorted(GOLDEN):
        graph, stats = plan(golden_problem(name))
        assert stats.makespan == makespan(graph) > 0, name
        checked += 1
    for seed in range(400):
        p = random_instance(seed, 4, 2, 4)
        try:
            graph, stats = plan(p)
        except NoSolution:
            continue
        reused, reuse_stats = reuse_pipeline(extract_strategy(graph, p), p)
        assert stats.makespan == makespan(graph), seed
        assert reuse_stats.makespan == makespan(reused), seed
        checked += 2
    for i, (p, actions, _) in enumerate(walks(WALKED)):
        cut = random.Random(i).randint(0, len(actions))
        for sequence in (actions[:cut], actions):
            compiler = Compiler(p)
            compiler.extend(sequence)
            graph = compiler.build()
            assert compiler.makespan == makespan(graph), i
            checked += 1
        labels = compiled_labels(graph)
        compiler = Compiler(p)
        compiler.extend(labels[:cut])
        assert compiler.makespan == makespan(build_hypergraph(labels[:cut], p)), i
        compiler.extend(labels[cut:])
        assert compiler.makespan == makespan(compiler.build()), i
        checked += 1
    assert checked == 5 + 2 * 286 + 3 * len(WALKED)


def test_renaming_exchanges_only_interchangeable_robots_on_walks():
    """A compiled walk's labels have the walk's objects, regions and action
    kinds, with each robot replaced by one of its class; the checked
    ``apply`` accepts them, and they leave the walk's stacks and buffers,
    with the loads of each class exchanged among its robots. Without
    interchangeable robots the walk compiles as given."""
    renamed = 0
    for i, (p, actions, states) in enumerate(walks(WALKED)):
        out = compiled_labels(build_hypergraph(actions, p))
        if not p.robot_classes:
            assert out == actions, i
            continue
        assert class_erased(p, out) == class_erased(p, actions), i
        final, end = replayed(p, out)[-1], states[-1]
        assert (final.stacks, final.buffers) == (end.stacks, end.buffers), i
        for robots in p.robot_classes:
            assert sorted(final.holdings.get(r, ()) for r in robots) == \
                sorted(end.holdings.get(r, ()) for r in robots), i
        renamed += out != actions
    assert renamed >= 5


@pytest.mark.parametrize("actions", [
    [Pick("r0", "o1", "L")],                      # not the top
    [Pick("r0", "o2", "R")],                      # empty stack
    [Pick("r0", "o2", "X")],                      # no such region
    [Pick("r0", "o2", "L"), Pick("r0", "o1", "L")],   # hand full
    # r0's hand holds the pick back, so r1 is asked, and o0 is not the top
    [Pick("r0", "o2", "L"), Place("r0", "o2", "B"), Pick("r0", "o0", "L")],
    [Pick("r0", "o2", "L"), Place("r0", "o2", "B"), Pick("r0", "o1", "B")],
    [Place("r0", "o0", "R")],                     # empty hand
    [Pick("r0", "o2", "L"), Place("r0", "o2", "X")],
    [Pick("r0", "o2", "L"), Place("r0", "o2", "B"),
     Pick("r0", "o1", "L"), Place("r0", "o1", "B")],   # full buffer
    # the last pick went to r1 and the names were exchanged: r1 means r0
    [Pick("r0", "o2", "L"), Place("r0", "o2", "B"),
     Pick("r0", "o1", "L"), Place("r1", "o1", "R")],
])
def test_invalid_pick_or_place_raises_precondition_violated(actions):
    from hyperplan import PreconditionViolated

    p = interchangeable(2, 1)
    with pytest.raises(PreconditionViolated):
        build_hypergraph(actions, p)
    # the same list with its last action right compiles
    fine = actions[:-1]
    assert len(build_hypergraph(fine, p).arcs) == len(fine)


def slot_bound(state: WorldState, p: Problem, prefix: bool) -> int:
    """The per-slot part of ``heuristic`` at a state that is no dead end,
    summed from its terms: one per stack, buffered object and held object,
    with the one-hand terms when ``p.hands == 1``."""
    total = sum(planner.stack_term(r, stack, p, prefix) for r, stack in state.stacks.items())
    total += sum(planner.placed_term(r, o, p) for r, objs in state.buffers.items() for o in objs)
    for holder, held in state.holdings.items():
        for o in held:
            total += planner.held_term(holder, o, p)
            if p.hands == 1:
                total += planner.regrasp_term(o, state.stacks, p)
    return total


def contents(state: tuple) -> tuple:
    """Slot state ``state`` with each stack slot's record read as its stack,
    so that states of separate ``SlotSpace.start`` calls compare."""
    return tuple(x.stack if isinstance(x, StackRecord) else x for x in state)


def twin_robot(p: Problem, state: WorldState) -> str | None:
    """The second robot of ``p``'s one class of interchangeable robots when
    that class is a pair and the two hold equal loads in ``state``: each of
    its picks reaches a state that exchanging the two robots makes the
    first robot's pick of the same object."""
    if len(p.robot_classes) == 1 and len(p.robot_classes[0]) == 2:
        first, second = p.robot_classes[0]
        if state.holdings.get(first, ()) == state.holdings.get(second, ()):
            return second
    return None


@pytest.mark.parametrize("prefix", [False, True])
def test_slot_successors_match_apply_and_heuristic(prefix):
    """At every walked state, the search's successors are
    ``applicable_actions`` with the checked ``apply``, as slot tuples, with
    their ``key``, but for the picks of a ``twin_robot``, each of which has
    the key of a successor listed. At every state that is no dead end their
    h is the per-slot bound, and that plus the term the search adds at a
    pop, the larger of the hand and blocker terms, is the full
    ``heuristic``, which is 0 exactly on the goals, the search's goal test,
    and drops by at most 1 per action: it is consistent, so A* never needs
    to reopen a state."""
    checked = with_h = goals = charged = blocked = twins = 0
    problems = WALKED + [shared_blockers(blockers, blockers) for blockers in (3, 4, 5)]
    spaces = {id(p): SlotSpace(p, prefix) for p in problems}
    for p, state in walked_states(problems):
        space = spaces[id(p)]
        slots = space.start(state)[0]
        h = heuristic(state, p, prefix)
        base = 0 if h is None else h - space.pop_term(slots, h)
        got = space.successors(slots, base)
        twin = twin_robot(p, state)
        applied = []
        keys = {contents(key) for _, _, key, _ in got}
        for action in applicable_actions(state, p):
            successor = apply(state, action, p)
            if isinstance(action, Pick) and action.robot == twin:
                assert contents(space.key(space.start(successor)[0])) in keys, (state, action)
                twins += 1
            else:
                applied.append((action, successor))
        assert [(action, contents(successor), contents(key))
                for action, successor, key, _ in got] == \
            [(action, contents(space.start(successor)[0]),
              contents(space.key(space.start(successor)[0])))
             for action, successor in applied], state
        checked += len(got)
        if h is None:
            continue
        assert base == slot_bound(state, p, prefix), (state, prefix)
        assert (h == 0) == is_goal(state, p, prefix=prefix)
        successor_h = [h2 + space.pop_term(successor, h2) for _, successor, _, h2 in got]
        assert successor_h == [heuristic(successor, p, prefix) for _, successor in applied], \
            (state, prefix)
        assert all(h <= 1 + h2 for h2 in successor_h), (state, prefix)
        goals += h == 0
        charged += h > base
        if p.hands > 1:
            blocked += h - base > reference_hand_term(state, p)
        with_h += len(got)
    assert checked >= 10_000
    assert twins >= 200
    assert with_h >= 9_000
    assert goals >= 1_000
    assert charged >= 20
    assert blocked >= 80


def state_space(p: Problem) -> tuple:
    """Every state reachable from ``p.initial``, in breadth-first order, and
    per state the indices of its successors."""
    index = {p.initial: 0}
    states, edges = [p.initial], []
    for state in states:   # grows as it is walked
        out = []
        for action in applicable_actions(state, p):
            successor = apply(state, action, p)
            i = index.setdefault(successor, len(states))
            if i == len(states):
                states.append(successor)
            out.append(i)
        edges.append(out)
    return states, edges


def goal_distances(states: list, edges: list, p: Problem, prefix: bool) -> list:
    """Per state, the fewest actions to a goal in this reading, by
    breadth-first search back from the goals; None where none is reachable."""
    back = [[] for _ in states]
    for i, out in enumerate(edges):
        for j in out:
            back[j].append(i)
    distance = [0 if is_goal(state, p, prefix=prefix) else None for state in states]
    layer = [i for i, d in enumerate(distance) if d == 0]
    while layer:
        following = []
        for j in layer:
            for i in back[j]:
                if distance[i] is None:
                    distance[i] = distance[j] + 1
                    following.append(i)
        layer = following
    return distance


def test_one_hand_bound_holds_on_whole_corpus_state_spaces():
    """One robot of capacity 1: the heuristic with its one-hand terms, on
    every state reachable in every such corpus problem and in small one-robot
    permutations, in both goal readings. It never exceeds the true distance,
    drops by at most 1 along every action, is 0 exactly on the goals and
    None only where no goal is reachable. The same robot with a second hand
    has a hand term of its own, which lets two objects wait in the hands:
    it never exceeds the one-hand terms, and falls below them on some
    states."""
    problems = [p for p in (random_instance(seed, 4, 2, 4) for seed in range(400))
                if p.hands == 1]
    problems += [random_permute(0, True, 5), random_permute(0, True, 4),
                 random_permute(1, True, 4)]
    checked = stronger = 0
    for p in problems:
        two_hands = replace(p, robots=(replace(p.robots[0], capacity=2),))
        states, edges = state_space(p)
        for prefix in (False, True):
            h = [heuristic(state, p, prefix) for state in states]
            distance = goal_distances(states, edges, p, prefix)
            for i, state in enumerate(states):
                if h[i] is None:
                    assert distance[i] is None, (state, prefix)
                    continue
                assert distance[i] is None or h[i] <= distance[i], \
                    (state, prefix, h[i], distance[i])
                assert (h[i] == 0) == (distance[i] == 0), (state, prefix)
                assert all(h[i] <= 1 + h[j] for j in edges[i]), (state, prefix)
                second = heuristic(state, two_hands, prefix)
                assert second <= h[i], (state, prefix)
                stronger += h[i] > second
                checked += 1
    assert len(problems) == 159
    assert checked >= 35_000
    assert stronger >= 20_000


def reference_hand_term(s: WorldState, p: Problem) -> int:
    """The hand term straight from its rule (see ``heuristic``), with no
    early exit: per goal stack every robot reaches, 2 for each object of
    W_t beyond a_t."""
    hands = p.hands
    held = [o for load in s.holdings.values() for o in load]
    total = 0
    for t, want in p.goal.items():
        if not all(t in spec.reach for spec in p.robots):
            continue
        stack = s.stacks.get(t, ())
        k = 0
        while k < min(len(stack), len(want)) and stack[k] == want[k]:
            k += 1
        if k == len(want):
            continue
        waiting = {o for o in stack[k:] if o in want}
        waiting |= {o for o in held if o in want and stack != want[:want.index(o)]}
        lifted = hands >= 2 and k < len(stack) and stack[k] in want and want[k] in waiting
        total += 2 * max(0, len(waiting) - (hands if lifted else hands - 1))
    return total


def reference_blocker_term(s: WorldState, p: Problem, prefix: bool) -> int:
    """The blocker term B straight from its rule (see ``heuristic``), with no
    early exit and whatever the number of objects: per stack u, with x its
    lowest object that must move, the weights of the objects above x and of
    the held objects, less the C - 1 largest; B is the largest of these."""
    goal_of = {o: t for t, want in p.goal.items() for o in want}
    reach = {spec.id: spec.reach for spec in p.robots}
    best = 0
    for u, stack in s.stacks.items():
        want = p.goal.get(u)
        k = 0
        if want is not None:
            while k < min(len(stack), len(want)) and stack[k] == want[k]:
                k += 1
        if want is None or (prefix and k == len(want)):
            while k < len(stack) and stack[k] not in goal_of:
                k += 1
        if k == len(stack):
            continue   # nothing here must move
        x = stack[k]

        def weight(o: str, direct: bool) -> int:
            """1 outside the goal; 2 or 1 if ``o`` cannot be in its final
            place before x's first pick, 2 when its move needs one robot
            only (``direct``); else 0."""
            t = goal_of.get(o)
            if t is None:
                return 1
            below = p.goal[t][:p.goal[t].index(o)]
            if t == u or x in below:
                return 2 if direct else 1
            return 0

        t_of = goal_of.get
        weights = [weight(o, any(u in r and t_of(o) in r for r in reach.values()))
                   for o in stack[k + 1:]]
        weights += [weight(o, t_of(o) in reach[robot])
                    for robot, load in s.holdings.items() for o in load]
        weights.sort(reverse=True)
        best = max(best, sum(weights[p.hands - 1:]))
    return best


def with_capacity(p: Problem, capacity: int) -> Problem:
    """``p`` with every robot's capacity set to ``capacity``."""
    return replace(p, robots=tuple(replace(spec, capacity=capacity) for spec in p.robots))


def test_hand_bound_holds_on_whole_corpus_state_spaces():
    """Several hands (C >= 2): the per-slot bound plus the larger of the
    hand term W and the blocker term B, as their rules state them, on every
    state reachable in two- and three-robot 4- and 5-box permutations, in
    a two-robot blocker tower of 6 objects on two stacks, with both robots
    reaching both stacks and with one reaching the start stack only, in
    every corpus problem with more than one hand and in the capacity-2
    variants of those, in both goal readings. That bound never exceeds the
    true distance, drops by at most 1 along every action from a state that
    reaches a goal and is 0 exactly on the goals; B exceeds W on many
    states. The heuristic is that bound with at least 2C + 2 objects (the
    blocker towers), else the per-slot bound plus W, so it holds the same;
    it is None only where no goal is reachable, W raises it on some states
    and B on more. It is evaluated at every state as the search does, the
    per-slot bound plus the term the search adds at a pop; on a random walk
    of each, that sum is ``heuristic``, and so is the per-slot h the
    search's successors carry plus that term."""
    two_robots = [random_permute(seed, False, 4) for seed in range(8)]
    two_robots += [random_permute(seed, False, 5) for seed in (1, 5)]
    corpus = [p for p in (random_instance(seed, 4, 2, 4) for seed in range(400)) if p.hands > 1]
    problems = two_robots + [duplicated_robot(p) for p in two_robots] + corpus
    tower = shared_blockers(3, 0, side=False)
    # red reaches src only: what it holds for dst it cannot place itself
    blue, red = tower.robots
    problems += [with_capacity(p, 2) for p in corpus]
    problems += [tower, replace(tower, robots=(blue, replace(red, reach={"src"})))]
    checked = stronger = blocking = raised = popped = 0
    for p in problems:
        states, edges = state_space(p)
        for prefix in (False, True):
            space = SlotSpace(p, prefix)
            h = []
            for state in states:
                slots, h_i = space.start(state)
                if h_i is not None:
                    h_i += space.pop_term(slots, h_i)
                h.append(h_i)
            distance = goal_distances(states, edges, p, prefix)
            bound = []
            for state, h_i in zip(states, h):
                if h_i is None:
                    bound.append(None)
                    continue
                per_slot = slot_bound(state, p, prefix)
                waiting = reference_hand_term(state, p)
                blocked = reference_blocker_term(state, p, prefix)
                bound.append(per_slot + max(waiting, blocked))
                assert h_i == (bound[-1] if planner.blocker_bound(p) else per_slot + waiting), \
                    (state, prefix)
                stronger += waiting > 0
                blocking += blocked > waiting
                raised += h_i > per_slot + waiting
            for i, state in enumerate(states):
                if h[i] is None:
                    assert distance[i] is None, (state, prefix)
                    continue
                assert (h[i] == 0) == (distance[i] == 0), (state, prefix)
                assert (bound[i] == 0) == (distance[i] == 0), (state, prefix)
                if distance[i] is not None:
                    assert bound[i] <= distance[i], (state, prefix, bound[i], distance[i])
                    assert all(bound[i] <= 1 + bound[j] for j in edges[i]), (state, prefix)
                    assert all(h[i] <= 1 + h[j] for j in edges[i]), (state, prefix)
                checked += 1
            walk = random_walk(p, random.Random(len(states)), 40)
            for state, following in zip(walk, walk[1:]):
                h0 = heuristic(state, p, prefix)
                if h0 is None:
                    continue
                slots = space.start(state)[0]
                base = slot_bound(state, p, prefix)
                assert base + space.pop_term(slots, base) == h0, (state, prefix)
                reached = contents(space.start(following)[0])
                for _, successor, _, h2 in space.successors(slots, base):
                    if contents(successor) == reached:
                        assert h2 + space.pop_term(successor, h2) == \
                            heuristic(following, p, prefix), (following, prefix)
                        popped += 1
    assert checked >= 400_000
    assert stronger >= 25_000
    assert blocking >= 50_000
    assert raised >= 25_000
    assert popped >= 30_000


def test_successors_keep_one_exact_record_per_stack_on_whole_state_spaces():
    """Every state reachable from a search's start, ``SlotSpace.start`` of
    the initial state, expanded through ``SlotSpace.successors`` with the
    states themselves, not their keys, as nodes, in both goal readings: in
    4- and 5-box permutations with one robot and with two, in blocker
    towers, and in every corpus problem, with one hand or several. Each
    stack record met holds its stack's ``stack_term``, is the ``up`` entry
    for its top of the record ``SlotSpace.below`` maps it to, is what
    ``below`` maps each of its own ``up`` entries to, and is the one record
    of its stack in its region in that search. So the states,
    which hash their stack slots by identity, are exactly the reachable
    world states, and each pop-time entry a record caches is its stack's."""
    problems = [random_permute(seed, one_robot, boxes) for one_robot in (True, False)
                for seed, boxes in ((0, 4), (1, 4), (0, 5))]
    problems += [shared_blockers(3, 0, side=False), shared_blockers(2, 1)]
    corpus = [random_instance(seed, 4, 2, 4) for seed in range(400)]
    problems += corpus
    records = linked = cached = 0
    for p in problems:
        reachable = len(state_space(p)[0])
        stack_slots = p.slot_layout[2]
        for prefix in (False, True):
            space = SlotSpace(p, prefix)
            start, h0 = space.start(p.initial)
            queue, h = [start], {start: h0}
            for state in queue:   # grows as it is walked
                if h0 is not None:
                    space.pop_term(state, h[state])
                for _, successor, _, h2 in space.successors(state, h[state] or 0):
                    if successor not in h:
                        h[successor] = h2
                        queue.append(successor)
            assert len(queue) == reachable, (p, prefix)
            one, done = {}, set()   # (slot, stack) -> its record; records checked
            for state in queue:
                for slot, region in stack_slots:
                    rec = state[slot]
                    assert one.setdefault((slot, rec.stack), rec) is rec, \
                        (p, prefix, region, rec.stack)
                    if rec in done:
                        continue
                    done.add(rec)
                    assert rec.term == planner.stack_term(region, rec.stack, p, prefix), \
                        (p, prefix, region, rec.stack)
                    assert rec.top == (rec.stack[-1] if rec.stack else None)
                    rest = space.below.get(rec)
                    if rest is not None:
                        assert rest.up[rec.top] is rec
                        linked += 1
                    for o, child in rec.up.items():
                        assert space.below[child] is rec and child.stack == rec.stack + (o,)
                    if rec.hand is not False:
                        assert rec.hand == planner.hand_entry(region, rec.stack, p)
                        cached += 1
                    if rec.blocker is not False:
                        assert rec.blocker == planner.blocker_entry(region, rec.stack, p, prefix)
                        cached += 1
            records += len(one)
    assert sum(p.hands == 1 for p in corpus) == 156
    assert records >= 35_000
    assert linked >= 33_000
    assert cached >= 12_000


def assert_search_matches_oracle(p: Problem, bound: int) -> bool:
    """``search`` finds the oracle's optimum and a plan ``apply`` replays to
    a goal, or nothing when the oracle finds nothing. True if solved."""
    expected = bfs_oracle(p, bound=bound)
    try:
        actions, stats = search(p)
    except NoSolution:
        assert expected is None
        return False
    if expected is None:
        assert len(actions) > bound
        return False
    assert len(actions) == expected
    state = p.initial
    for action in actions:
        state = apply(state, action, p)
    assert is_goal(state, p)
    return True


@pytest.mark.parametrize("robots,capacity", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_search_with_interchangeable_robots_matches_oracle(robots, capacity):
    """From every other state of a walk, loaded robots included."""
    p = interchangeable(robots, capacity)
    assert p.robot_classes == (tuple(f"r{i}" for i in range(robots)),)
    walk = random_walk(p, random.Random(10 * robots + capacity), 30)
    for state in walk[::2]:
        assert assert_search_matches_oracle(replace(p, initial=state), 30)
    space = SlotSpace(p, False)
    assert any(space.key(slots) != slots for slots, _ in map(space.start, walk[::2]))


def test_search_with_a_duplicated_robot_matches_oracle_on_corpus():
    solved = 0
    for seed in range(200):
        p = duplicated_robot(random_instance(seed, 4, 2, 4))
        assert p.robot_classes
        solved += assert_search_matches_oracle(p, 20)
    assert solved >= 130


def test_slot_key_merges_exchanged_loads():
    """Every permutation of a class's loads over its robots has one key: the
    loads sorted over the robots in id order."""
    def slots(space, loads):
        return space.start(WorldState(holdings={f"r{i}": load for i, load in enumerate(loads)}))[0]

    for robots, loads, want in (
            (3, [("o2",), ("o1",), ()], [(), ("o1",), ("o2",)]),
            (2, [("o1",), ()], [(), ("o1",)]),
            (2, [("o2",), ("o1", "o0")], [("o1", "o0"), ("o2",)])):
        space = SlotSpace(interchangeable(robots, 2), False)
        key = slots(space, want)
        assert space.key(key) is key
        for exchanged in itertools.permutations(loads):
            assert contents(space.key(slots(space, exchanged))) == contents(key)
    # no two robots alike: the key is the state itself
    space = SlotSpace(PERM6_ONE_ROBOT, False)
    init = space.start(PERM6_ONE_ROBOT.initial)[0]
    assert space.key(init) is init


# Totals over random_instance(seed, 4, 2, 4), seeds 0-399, per goal reading:
# (solved, expansions, generated, actions) of the searches that found a plan.
# Any change in successor order, tie-breaking or symmetry merging moves them.
CORPUS_SEARCH_TOTALS = {False: (286, 1318, 3153, 640), True: (288, 1316, 3156, 630)}


@pytest.mark.parametrize("prefix", [False, True])
def test_corpus_search_counts_are_pinned(prefix):
    solved = expansions = generated = actions = 0
    for seed in range(400):
        try:
            found, stats = search(random_instance(seed, 4, 2, 4), prefix_goals=prefix)
        except NoSolution:
            continue
        solved += 1
        expansions += stats.expansions
        generated += stats.generated
        actions += len(found)
    assert (solved, expansions, generated, actions) == CORPUS_SEARCH_TOTALS[prefix]


# Totals over random_permute(seed, one_robot), six boxes, seeds 0-9, per family:
# (solved, expansions, generated, actions), then the sha256 of the plans'
# action strings, one plan a line. The two-robot family keys its one pair of
# interchangeable robots inside SlotSpace.successors; any change in successor
# order, h or keys moves these.
PERMUTATION_SEARCH_TOTALS = {
    True: ((10, 1228, 2560, 186),
           "92157364c3daa276df11c8e5a9ad2c4147c50105c61aa79c41d3d522d6ab4415"),
    False: ((10, 577, 2096, 166),
            "a83fd84c2328f4a94f7ad3f1b8543cb5657d5921a23549a662a066b40d7c0b06"),
}


@pytest.mark.parametrize("one_robot", [True, False])
def test_permutation_search_counts_are_pinned(one_robot):
    solved = expansions = generated = actions = 0
    digest = hashlib.sha256()
    for seed in range(10):
        found, stats = search(random_permute(seed, one_robot),
                              SearchConfig(max_expansions=20_000))
        solved += 1
        expansions += stats.expansions
        generated += stats.generated
        actions += len(found)
        digest.update(" ".join(map(str, found)).encode() + b"\n")
    assert ((solved, expansions, generated, actions), digest.hexdigest()) == \
        PERMUTATION_SEARCH_TOTALS[one_robot]


# Nine boxes, one robot, seeds 0-4: the optimal plan lengths, as a search
# without the one-hand terms finds them with the default budget (it needs up
# to 34,894 expansions on these), then the expansions over all five.
NINE_BOX_ONE_ROBOT = ((28, 32, 28, 30, 28), 4478)


def test_nine_box_one_robot_search_counts_are_pinned():
    """Each problem is solved within 50,000 expansions, at its optimal length."""
    lengths, expansions = [], 0
    for seed in range(5):
        found, stats = search(random_permute(seed, True, 9),
                              SearchConfig(max_expansions=50_000))
        lengths.append(len(found))
        expansions += stats.expansions
    assert (tuple(lengths), expansions) == NINE_BOX_ONE_ROBOT


# Nine boxes, two robots, seeds 0-4: the optimal plan lengths (seed 1's, 32,
# as a search without the hand term confirms at 107,583 expansions), then the
# expansions over all five.
NINE_BOX_TWO_ROBOTS = ((26, 32, 22, 26, 28), 12868)


def test_nine_box_two_robot_search_counts_are_pinned():
    """Each problem is solved within 50,000 expansions, at its optimal length."""
    lengths, expansions = [], 0
    for seed in range(5):
        found, stats = search(random_permute(seed, False, 9),
                              SearchConfig(max_expansions=50_000))
        lengths.append(len(found))
        expansions += stats.expansions
    assert (tuple(lengths), expansions) == NINE_BOX_TWO_ROBOTS


def test_blocker_term_needs_2c_plus_2_objects_that_can_move():
    """Two hands (C = 2) get the blocker term from 6 objects that can move
    on; objects resting where no robot reaches never move and do not
    count, and one hand never gets it."""
    five = shared_blockers(2, 0)
    assert (five.hands, five.movable, planner.blocker_bound(five)) == (2, 5, False)
    assert planner.blocker_bound(shared_blockers(3, 0))
    fixed = ("d0", "d1", "d2")
    aside = replace(five, regions=five.regions + (Region("aside", "stack"),),
                    objects=five.objects + fixed,
                    initial=WorldState(stacks={**five.initial.stacks, "aside": fixed}))
    assert (len(aside.objects), aside.movable, planner.blocker_bound(aside)) == (8, 5, False)
    assert len(PERM6_ONE_ROBOT.objects) == 6 and not planner.blocker_bound(PERM6_ONE_ROBOT)
    # the search's goal-independent slot layout is built once per problem
    assert five.subproblem(five.initial, {"dst": ("b1",)}).slot_layout is five.slot_layout


# Two-robot blocker towers, shared_blockers(blockers, seed) for seeds 0-2:
# the optimal plan lengths (a search without the blocker term finds the same
# at 89/253/709/2083 expansions, and bfs_oracle agrees with 2 blockers),
# then the expansions over the three. With 2 blockers there are 5 objects,
# fewer than 2C + 2, so the blocker term is not applied.
BLOCKER_TOWERS = {2: ((12, 12, 10), 89), 3: ((14, 14, 12), 48),
                  4: ((16, 16, 14), 54), 5: ((18, 18, 16), 60)}


@pytest.mark.parametrize("blockers", sorted(BLOCKER_TOWERS))
def test_two_robot_blocker_search_counts_are_pinned(blockers):
    lengths, expansions = [], 0
    for seed in range(3):
        found, stats = search(shared_blockers(blockers, seed))
        lengths.append(len(found))
        expansions += stats.expansions
    assert (tuple(lengths), expansions) == BLOCKER_TOWERS[blockers]


def test_search_pauses_and_restores_the_garbage_collector(fig1, monkeypatch):
    from conftest import reversal_problem

    seen = []
    start = SlotSpace.start

    def spy(*args):
        seen.append(gc.isenabled())
        return start(*args)

    monkeypatch.setattr(SlotSpace, "start", spy)
    unsolvable = Problem((Region("L", "stack"),), (RobotSpec("a", frozenset({"L"})),),
                         ("x", "y"), WorldState(stacks={"L": ("x", "y")}),
                         {"L": ("y", "x")})
    cases = ((fig1.problem, None, None), (unsolvable, None, NoSolution),
             (reversal_problem(4), SearchConfig(max_expansions=2), BudgetExhausted))
    was_enabled = gc.isenabled()
    try:
        for enabled, switch in ((True, gc.enable), (False, gc.disable)):
            switch()
            for p, cfg, error in cases:
                if error is None:
                    search(p, cfg)
                else:
                    with pytest.raises(error):
                        search(p, cfg)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False] * 6


def test_search_leaves_no_cyclic_garbage():
    """A search's stack records link to each other both ways, and the
    search breaks those cycles when it ends, solved or not: a collection
    right after it finds nothing to free."""
    gc.collect()
    for p, cfg in ((PERM6_TWO_ROBOTS, None), (shared_blockers(3, 0), None),
                   (PERM6_ONE_ROBOT, SearchConfig(max_expansions=50))):
        try:
            actions, stats = search(p, cfg)
            assert actions and stats.expansions
        except BudgetExhausted:
            assert cfg is not None
        assert gc.collect() == 0, p


def test_search_adds_the_pop_time_term_only_where_it_can_be_positive(fig2, monkeypatch):
    """fig2 has two hands and disjoint reach: no goal stack that every
    robot reaches, and 3 objects, under the 2C + 2 gate, so the pop-time
    term is 0 on every state and the search never evaluates it. A blocker
    tower with 3 blockers gets it at the first pop of every state it
    expands, the start included. Both keep their pinned counts."""
    calls = []
    pop_term = SlotSpace.pop_term

    def spy(space, state, h):
        calls.append(h)
        return pop_term(space, state, h)

    monkeypatch.setattr(SlotSpace, "pop_term", spy)
    p = fig2.problem
    space = SlotSpace(p, False)
    assert (p.hands, space.charged, space.blocked) == (2, [], ())
    actions, stats = search(p)
    assert (stats.expansions, stats.generated) == GOLDEN["fig2"][:2]
    assert len(actions) == 9 and calls == []
    actions, stats = search(shared_blockers(3, 0))
    assert (len(actions), stats.expansions, stats.generated) == (14, 18, 67)
    assert len(calls) >= stats.expansions
