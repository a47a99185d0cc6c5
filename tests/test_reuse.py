from dataclasses import replace

import pytest

from hyperplan import (
    FAIL_HARD,
    SCRATCH_FALLBACK,
    Handoff,
    NoGrounding,
    Place,
    Problem,
    Region,
    RefinementConfig,
    RobotSpec,
    SearchConfig,
    SubproblemInfeasible,
    WorldState,
    apply,
    bfs_oracle,
    execute_hypergraph,
    extract_strategy,
    ground_strategy,
    is_goal,
    plan,
    reconstruct,
    refine,
    reuse_pipeline,
    topological_order,
    validate_hyperpath,
    verify_grounding,
)

from conftest import load_scenario, random_instance, reversal_problem


@pytest.fixture(scope="module")
def fig1_strategy():
    scenario = load_scenario("fig1")
    graph, _ = plan(scenario.problem)
    return extract_strategy(graph, scenario.problem), scenario.problem


# --- grounding -------------------------------------------------------------------

def test_grounding_own_problem_is_identity(fig1_strategy):
    ah, p = fig1_strategy
    g = ground_strategy(ah, p)
    goal_stack = p.goal["left"]
    mapped = [g.object_map[o] for o in next(iter(ah.goal_stacks.values()))]
    assert mapped == list(goal_stack)
    assert verify_grounding(ah, p, g) == []


def test_grounding_on_new_objects_and_regions(fig1_strategy, fig2):
    ah, _ = fig1_strategy
    g = ground_strategy(ah, fig2.problem)
    assert verify_grounding(ah, fig2.problem, g) == []
    # position i of the strategy's target stack maps to goal position i
    (stack,) = ah.goal_stacks.values()
    assert [g.object_map[o] for o in stack] == list(fig2.problem.goal["goal"])


def test_grounding_requires_matching_goal_shape(fig1_strategy):
    ah, p = fig1_strategy
    two_high = replace(p, goal={"left": ("C", "A")})
    with pytest.raises(NoGrounding):
        ground_strategy(ah, two_high)


def test_grounding_requires_buffer_when_strategy_uses_one(fig1_strategy):
    fig3 = load_scenario("fig3")
    graph, _ = plan(fig3.problem)
    buffered = extract_strategy(graph, fig3.problem)
    assert buffered.uses_buffer
    ah1, fig1p = fig1_strategy
    with pytest.raises(NoGrounding):
        ground_strategy(buffered, fig1p)  # fig1 has no buffer region


def test_grounding_is_deterministic(fig1_strategy, fig2):
    ah, _ = fig1_strategy
    first = ground_strategy(ah, fig2.problem)
    second = ground_strategy(ah, fig2.problem)
    assert dict(first.object_map) == dict(second.object_map)
    assert dict(first.region_map) == dict(second.region_map)


# --- reconstruction -----------------------------------------------------------------

def test_reconstruct_last_subgoal_is_goal_stack(fig1_strategy, fig2, fig3):
    ah, _ = fig1_strategy
    for p in (fig2.problem, fig3.problem):
        subgoals = reconstruct(ah, ground_strategy(ah, p), p)
        assert subgoals
        _, last = subgoals[-1]
        assert dict(last) == dict(p.goal)


def test_reconstruct_zero_robot_problem(fig1_strategy):
    ah, p = fig1_strategy
    bare = replace(p, robots=())
    subgoals = reconstruct(ah, ground_strategy(ah, bare), bare)
    assert subgoals
    with pytest.raises(SubproblemInfeasible):
        refine(subgoals, bare)


def test_reconstruct_grounds_node_labels(fig1_strategy, fig2):
    ah, _ = fig1_strategy
    p = fig2.problem
    g = ground_strategy(ah, p)
    subgoals = reconstruct(ah, g, p)
    arc_ids = [aid for aid, _ in subgoals]
    assert len(set(arc_ids)) == len(arc_ids) and set(arc_ids) <= set(ah.arcs)
    grounded = set(g.object_map.values())
    for _, targets in subgoals:
        assert targets
        for region, order in targets:
            assert region in p.goal
            assert order and set(order) <= grounded
            # a sub-goal is a prefix of its region's goal stack
            assert p.goal[region][:len(order)] == order


# --- refinement ------------------------------------------------------------------------

def test_refine_fig2_embeds_handoff_subsolutions(fig1_strategy, fig2):
    ah, _ = fig1_strategy
    p = fig2.problem
    graph, stats = reuse_pipeline(ah, p)
    assert validate_hyperpath(graph).ok
    final, _, count = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    handoffs = sum(isinstance(a.label, Handoff) for a in graph.arcs.values())
    assert handoffs >= 3
    assert count == stats.actions == bfs_oracle(p)
    assert stats.total_expansions == sum(s.expansions for s in stats.subproblems)
    assert not stats.fallback_used
    assert stats.fallback_reason == ""


def test_refine_fig3_parks_in_buffer(fig1_strategy, fig3):
    ah, _ = fig1_strategy
    p = fig3.problem
    graph, stats = reuse_pipeline(ah, p)
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    buffer_places = sum(
        1 for a in graph.arcs.values()
        if isinstance(a.label, Place) and a.label.region == "side")
    assert buffer_places >= 1


def test_refine_roundtrip_matches_scratch(fig1_strategy):
    ah, p = fig1_strategy
    graph, stats = reuse_pipeline(ah, p)
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert stats.actions == 6 == bfs_oracle(p)


def test_refine_zero_actions_when_critical_placements_hold(fig1_strategy):
    ah, p = fig1_strategy
    done = replace(p, initial=WorldState(stacks={"left": ("C", "A", "B")}))
    graph, stats = reuse_pipeline(ah, done)
    assert stats.actions == 0
    assert len(graph.arcs) == 0


def test_refined_plan_contains_every_critical_composition(fig1_strategy, fig2):
    ah, _ = fig1_strategy
    p = fig2.problem
    assignment = ground_strategy(ah, p)
    subgoals = reconstruct(ah, assignment, p)
    graph, _ = refine(subgoals, p)
    compositions = {
        frozenset(e.name for e in node.composition if not e.is_robot)
        for node in graph.nodes.values()
        if not any(e.is_robot for e in node.composition)
    }
    for _, targets in subgoals:
        for _, order in targets:
            assert frozenset(order) in compositions
    # critical placements are achieved in sub-goal order
    order = topological_order(graph)
    state = p.initial
    from hyperplan.domain import apply

    prefixes = [stack for _, targets in subgoals for region, stack in targets
                if region == "goal"]
    for aid in order:
        state = apply(state, graph.arcs[aid].label, p)
        stack = state.stacks.get("goal", ())
        if prefixes and stack == prefixes[0]:
            prefixes.pop(0)
    assert not prefixes


def test_refine_fail_hard_vs_scratch_fallback(fig1_strategy):
    ah, p = fig1_strategy
    # strategy needs a buffer nowhere to be found: grounding fails
    fig3 = load_scenario("fig3")
    buffered = extract_strategy(plan(fig3.problem)[0], fig3.problem)
    with pytest.raises(NoGrounding):
        reuse_pipeline(buffered, p, RefinementConfig(fallback=FAIL_HARD))
    graph, stats = reuse_pipeline(
        buffered, p, RefinementConfig(fallback=SCRATCH_FALLBACK))
    assert stats.fallback_used
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert stats.actions == 6


def test_refine_subproblem_failure_fallback(fig1_strategy):
    ah, p = fig1_strategy
    # shrink the budget so the first sub-problem cannot finish
    tiny = RefinementConfig(search=SearchConfig(max_expansions=1),
                            fallback=FAIL_HARD)
    with pytest.raises(SubproblemInfeasible):
        reuse_pipeline(ah, reversal_problem(3), tiny)


def test_prefix_subgoals_refine_seed205_without_fallback():
    # Sub-goals from every placement into a goal region once put one object
    # in two goal stacks on this instance's own strategy. Goal-stack prefixes
    # never do, so it refines to the scratch optimum.
    p = random_instance(205, 4, 2, 4)
    scratch, scratch_stats = plan(p)
    ah = extract_strategy(scratch, p)
    graph, stats = reuse_pipeline(ah, p, RefinementConfig(fallback=FAIL_HARD))
    assert not stats.fallback_used
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert stats.actions == scratch_stats.solution_actions == 8


def _buffered_strategy():
    fig3 = load_scenario("fig3")
    return extract_strategy(plan(fig3.problem)[0], fig3.problem)


def _own_strategy(p):
    return extract_strategy(plan(p)[0], p)


@pytest.mark.parametrize("route,reason", [
    ("no-record", "NoGrounding: no stored strategy matches this problem"),
    ("no-grounding", "NoGrounding: strategy needs a buffer but none is available"),
    ("infeasible", "SubproblemInfeasible: abstract arc "),
])
def test_fallback_reason_names_the_failure(route, reason):
    if route == "infeasible":
        p = random_instance(39, 4, 2, 4)  # refined, but the goal is not reached
        ah = _own_strategy(p)
    else:
        p = load_scenario("fig1").problem
        ah = None if route == "no-record" else _buffered_strategy()
    graph, stats = reuse_pipeline(ah, p, RefinementConfig(fallback=SCRATCH_FALLBACK))
    assert stats.fallback_used
    assert stats.fallback_reason.startswith(reason)
    scratch_graph, scratch_stats = plan(p)
    assert graph == scratch_graph
    assert stats.total_expansions == scratch_stats.expansions
    with pytest.raises((NoGrounding, SubproblemInfeasible)):
        reuse_pipeline(ah, p, RefinementConfig(fallback=FAIL_HARD))


def test_reuse_pipeline_on_reversals_matches_scratch():
    for h in (4, 5, 6):
        p = reversal_problem(h)
        scratch, scratch_stats = plan(p)
        ah = extract_strategy(scratch, p)
        graph, stats = reuse_pipeline(ah, p)
        final, _, _ = execute_hypergraph(graph, p)
        assert is_goal(final, p)
        assert stats.actions == scratch_stats.solution_actions == 2 * h
        # with f-ties broken toward lower h, both searches run straight down
        # an optimal plan: one expansion per action
        assert stats.total_expansions == scratch_stats.expansions == 2 * h


def test_greedy_refinement_gap_is_bounded_on_capacity_variant():
    """Per-arc refinement can trail a globally optimal plan by a tie-break.

    On the capacity-2 handoff problem the middle sub-problem has two
    optimal sub-plans (hold the blocker vs park it); action ordering picks
    parking, which costs one extra pick later. Deterministic, so pinned.
    """
    from conftest import handoff_capacity_problem

    p = handoff_capacity_problem()
    scratch, scratch_stats = plan(p)
    ah = extract_strategy(scratch, p)
    graph, stats = reuse_pipeline(ah, p)
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert scratch_stats.solution_actions == 9
    assert stats.actions == 10


def test_robot_count_generalization(fig1_strategy):
    """The fig1 strategy survives any robot team that can span the regions."""
    ah, _ = fig1_strategy
    teams = [
        (RobotSpec("solo", frozenset({"left", "right", "side"})),),
        (RobotSpec("a", frozenset({"left", "right", "side"})),
         RobotSpec("b", frozenset({"left", "right", "side"})),
         RobotSpec("c", frozenset({"left", "right", "side"})),),
        (RobotSpec("porter", frozenset({"right", "side"})),
         RobotSpec("stacker", frozenset({"side", "left"})),),
    ]
    regions = (Region("left", "stack"), Region("right", "stack"),
               Region("side", "buffer", 3))
    for robots in teams:
        p = Problem(regions, robots, ("A", "B", "C"),
                    WorldState(stacks={"right": ("A", "B", "C")}),
                    {"left": ("C", "A", "B")})
        graph, stats = reuse_pipeline(ah, p)
        final, _, _ = execute_hypergraph(graph, p)
        assert is_goal(final, p), robots[0].id


def test_roundtrip_with_preplaced_goal_bottom():
    # the goal region already holds the stack's first object
    regions = (Region("L", "stack"), Region("R", "stack"))
    robots = (RobotSpec("a", frozenset({"L", "R"})),
              RobotSpec("b", frozenset({"L", "R"})))
    p = Problem(regions, robots, ("A", "B", "C"),
                WorldState(stacks={"L": ("A",), "R": ("B", "C")}),
                {"L": ("A", "B", "C")})
    scratch, scratch_stats = plan(p)
    ah = extract_strategy(scratch, p)
    graph, stats = reuse_pipeline(ah, p)
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert stats.actions == scratch_stats.solution_actions == 4


@pytest.mark.parametrize("team_size,optimal", [(1, 6), (2, 5)])
def test_blocker_objects_ground_and_refine(team_size, optimal):
    # X blocks the goal boxes but has no goal position of its own
    regions = (Region("L", "stack"), Region("R", "stack"), Region("S", "stack"))
    team = tuple(RobotSpec(f"r{i}", frozenset({"L", "R", "S"}))
                 for i in range(team_size))
    p = Problem(regions, team, ("A", "B", "X"),
                WorldState(stacks={"R": ("B", "A", "X")}),
                {"L": ("A", "B")})
    scratch, scratch_stats = plan(p)
    assert scratch_stats.solution_actions == optimal
    ah = extract_strategy(scratch, p)
    assert len(ah.abstract_objects) == 3  # the blocker is part of the strategy
    g = ground_strategy(ah, p)
    assert verify_grounding(ah, p, g) == []
    assert set(g.object_map.values()) == {"A", "B"}  # only goal positions bind
    graph, stats = reuse_pipeline(ah, p)
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert stats.actions == optimal


def test_grounding_verifier_on_random_solved_instances():
    from hyperplan import NoSolution

    checked = 0
    for seed in range(90):
        p = random_instance(seed)
        if not p.goal:
            continue
        try:
            graph, _ = plan(p)
        except NoSolution:
            continue
        final, _, _ = execute_hypergraph(graph, p)
        if not is_goal(final, p):
            continue
        ah = extract_strategy(graph, p)
        try:
            g = ground_strategy(ah, p)
        except NoGrounding:
            continue
        assert verify_grounding(ah, p, g) == [], f"seed {seed}"
        checked += 1
    assert checked >= 15


# Corpus seeds whose own strategy still falls back: junk left above a goal
# stack after every goal-prefix sub-goal holds, so the goal is not reached.
# Every own strategy grounds.
ROUNDTRIP_NO_GROUNDING: set = set()
ROUNDTRIP_GOAL_NOT_REACHED = {39, 72, 83, 100, 180, 239, 245, 288}


def _placements_hold(state, placements: dict) -> bool:
    return all(state.stacks.get(region, ())[:len(order)] == order
               for region, order in placements.items())


def test_roundtrip_property_on_random_instances():
    from hyperplan import NoSolution

    no_grounding, not_reached, refined = set(), set(), 0
    for seed in range(400):
        p = random_instance(seed, 4, 2, 4)
        try:
            scratch, scratch_stats = plan(p)
        except NoSolution:
            continue
        ah = extract_strategy(scratch, p)
        try:
            subgoals = reconstruct(ah, ground_strategy(ah, p), p)
        except NoGrounding:
            no_grounding.add(seed)
            continue
        for _, targets in subgoals:
            for region, order in targets:
                assert p.goal[region][:len(order)] == order, f"seed {seed}"
        graph, stats = refine(subgoals, p,
                              RefinementConfig(fallback=SCRATCH_FALLBACK))
        final, _, _ = execute_hypergraph(graph, p)
        assert is_goal(final, p), f"seed {seed}"
        assert stats.actions >= scratch_stats.solution_actions, f"seed {seed}"
        if stats.fallback_used:
            assert stats.fallback_reason.endswith("the goal is not reached")
            not_reached.add(seed)
            continue
        refined += 1
        # replay: once a sub-goal's placements hold, they hold in every
        # later state of the refined plan
        actions = [graph.arcs[aid].label for aid in topological_order(graph)]
        state, achieved, done = p.initial, {}, 0
        for (_, targets), sub in zip(subgoals, stats.subproblems):
            for action in actions[done:done + sub.solution_actions]:
                state = apply(state, action, p)
                assert _placements_hold(state, achieved), f"seed {seed}"
            done += sub.solution_actions
            achieved.update(targets)
            assert _placements_hold(state, achieved), f"seed {seed}"
        assert done == len(actions), f"seed {seed}"
    assert no_grounding == ROUNDTRIP_NO_GROUNDING
    assert not_reached == ROUNDTRIP_GOAL_NOT_REACHED
    assert refined == 278
