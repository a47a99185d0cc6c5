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
    plan,
    reuse_pipeline,
    search,
    topological_order,
    validate_hyperpath,
)
from hyperplan import planner
from hyperplan.cli import plan_to_json
from hyperplan.domain import Held, InBuffer, OnStack, applicable_actions, apply
from hyperplan.planner import Compiler, SlotSpace, heuristic

from conftest import load_scenario, random_instance, random_walk


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
    assert validate_hyperpath(graph).ok


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


def permute6(one_robot: bool, start: dict, goal: dict) -> Problem:
    """Six boxes re-stacked over three stacks, by two robots or by one robot
    with a capacity-2 tray."""
    stacks = ["s0", "s1", "s2"]
    regions = [Region(s, "stack") for s in stacks]
    if one_robot:
        regions.append(Region("tray", "buffer", 2))
        robots = [RobotSpec("arm", frozenset(stacks + ["tray"]))]
    else:
        robots = [RobotSpec(r, frozenset(stacks)) for r in ("blue", "red")]
    return Problem(tuple(regions), tuple(robots), tuple(f"b{i}" for i in range(6)),
                   WorldState(stacks=start), goal)


PERM6_ONE_ROBOT = permute6(
    True, {"s0": ("b1", "b0", "b5"), "s1": ("b2",), "s2": ("b3", "b4")},
    {"s0": ("b4",), "s1": ("b0",), "s2": ("b3", "b2", "b1", "b5")})
PERM6_TWO_ROBOTS = permute6(
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
# counts are lower. fig1 and perm6-two-robots have two interchangeable
# robots, so their counts are of symmetry classes. Any drift in heuristic
# values, successor order or tie-breaking changes these sequences or counts.
GOLDEN = {
    "fig1": (6, 13, [
        "pick blue C right", "pick red B right", "place blue C left",
        "pick blue A right", "place blue A left", "place red B left"]),
    "fig2": (9, 18, [
        "pick r1 z start", "handoff r1 r2 z", "pick r1 y start", "place r2 z goal",
        "handoff r1 r2 y", "pick r1 x start", "place r2 y goal", "handoff r1 r2 x",
        "place r2 x goal"]),
    "fig3": (10, 16, [
        "pick solo C right", "place solo C left", "pick solo B right",
        "place solo B side", "pick solo A right", "place solo A left",
        "pick solo B side", "place solo B left"]),
    "perm6-one-robot": (54, 132, [
        "pick arm b4 s2", "place arm b4 tray", "pick arm b2 s1", "place arm b2 s2",
        "pick arm b5 s0", "place arm b5 tray", "pick arm b0 s0", "place arm b0 s1",
        "pick arm b1 s0", "place arm b1 s2", "pick arm b4 tray", "place arm b4 s0",
        "pick arm b5 tray", "place arm b5 s2"]),
    "perm6-two-robots": (18, 74, [
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
# compositions, facts or arcs moves it.
COMPILED_GRAPHS_SHA256 = "7bb2d15e5c1ca71cb679731b5273a6b2cac4163203aea025136e148701875f6b"


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


def duplicated_robot(p: Problem) -> Problem:
    """``p`` with its first robot's spec repeated under a new id."""
    twin = replace(p.robots[0], id=p.robots[0].id + "twin")
    return replace(p, robots=p.robots + (twin,))


# three robots share regions in the last two, so a handoff has two receivers
WALKED = [random_instance(seed, 4, 2, 4) for seed in range(120)] + \
    [PERM6_ONE_ROBOT, PERM6_TWO_ROBOTS, interchangeable(3, 2),
     duplicated_robot(PERM6_TWO_ROBOTS)]


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


def test_build_output_reexecutes_to_sequential_state():
    """On every walk, each node's facts are a scan of the state the arc that
    made it leaves (of the initial state for a source), the graph executes
    to the walk's last state, and compiling the walk in pieces, as
    refinement does, gives the same graph."""
    checked = 0
    for i, (p, actions, states) in enumerate(walks(WALKED)):
        graph = build_hypergraph(actions, p)
        assert validate_hyperpath(graph).ok
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
        cut = random.Random(i).randint(0, len(actions))
        compiler.extend(actions[:cut])
        compiler.extend(actions[cut:])
        assert compiler.build() == graph
        assert compiler.state == states[-1]
    assert checked >= 6_000


@pytest.mark.parametrize("prefix", [False, True])
def test_slot_successors_match_apply_and_heuristic(prefix):
    """At every walked state, the search's successors are
    ``applicable_actions`` with the checked ``apply``, as slot tuples, with
    their ``key``. At every state that is no dead end their h is the full
    ``heuristic``, which is 0 exactly on the goals, the search's goal test,
    and drops by at most 1 per action: it is consistent, so A* never needs
    to reopen a state."""
    checked = with_h = goals = 0
    spaces = {id(p): SlotSpace(p, prefix) for p in WALKED}
    for p, state in walked_states(WALKED):
        space = spaces[id(p)]
        slots = space.slots(state)
        h = heuristic(state, p, prefix)
        got = space.successors(slots, h or 0)
        applied = [(action, apply(state, action, p)) for action in applicable_actions(state, p)]
        assert [(action, successor, key) for action, successor, key, _ in got] == \
            [(action, space.slots(successor), space.key(space.slots(successor)))
             for action, successor in applied], state
        checked += len(got)
        if h is None:
            continue
        assert (h == 0) == is_goal(state, p, prefix=prefix)
        successor_h = [h2 for _, _, _, h2 in got]
        assert successor_h == [heuristic(successor, p, prefix) for _, successor in applied], \
            (state, prefix)
        assert all(h <= 1 + h2 for h2 in successor_h), (state, prefix)
        goals += h == 0
        with_h += len(got)
    assert checked >= 10_000
    assert with_h >= 9_000
    assert goals >= 1_000


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
    assert any(space.key(space.slots(state)) != space.slots(state) for state in walk[::2])


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
        return space.slots(WorldState(holdings={f"r{i}": load for i, load in enumerate(loads)}))

    for robots, loads, want in (
            (3, [("o2",), ("o1",), ()], [(), ("o1",), ("o2",)]),
            (2, [("o1",), ()], [(), ("o1",)]),
            (2, [("o2",), ("o1", "o0")], [("o1", "o0"), ("o2",)])):
        space = SlotSpace(interchangeable(robots, 2), False)
        key = slots(space, want)
        assert space.key(key) is key
        for exchanged in itertools.permutations(loads):
            assert space.key(slots(space, exchanged)) == key
    # no two robots alike: the key is the state itself
    space = SlotSpace(PERM6_ONE_ROBOT, False)
    init = space.slots(PERM6_ONE_ROBOT.initial)
    assert space.key(init) is init


# Totals over random_instance(seed, 4, 2, 4), seeds 0-399, per goal reading:
# (solved, expansions, generated, actions) of the searches that found a plan.
# Any change in successor order, tie-breaking or symmetry merging moves them.
CORPUS_SEARCH_TOTALS = {False: (286, 1544, 3539, 640), True: (288, 1542, 3542, 630)}


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


def test_search_pauses_and_restores_the_garbage_collector(fig1, monkeypatch):
    from conftest import reversal_problem

    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        return heuristic(*args)

    monkeypatch.setattr(planner, "heuristic", spy)
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
