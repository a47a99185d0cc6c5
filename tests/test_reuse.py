import hashlib
import inspect
import json
from dataclasses import replace

import pytest

from hyperplan import (
    FAIL_HARD,
    SCRATCH_FALLBACK,
    BudgetExhausted,
    BufferRole,
    Handoff,
    NoGrounding,
    NoSolution,
    Place,
    Problem,
    Region,
    RefinementConfig,
    ReuseStats,
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
    makespan,
    plan,
    reconstruct,
    refine,
    reuse_pipeline,
    search,
    topological_order,
    validate_hyperpath,
)
from hyperplan.cli import plan_to_json
from hyperplan.planner import Compiler

from conftest import (
    class_erased,
    goal_only_schedule,
    load_scenario,
    random_instance,
    reversal_problem,
    verify_grounding,
)


@pytest.fixture(scope="module")
def fig1_strategy():
    scenario = load_scenario("fig1")
    graph, _ = plan(scenario.problem)
    return extract_strategy(graph, scenario.problem), scenario.problem


# --- grounding -------------------------------------------------------------------

def _subgoal_objects(subgoals) -> set:
    return {o for _, targets in subgoals for _, order in targets for o in order}


def test_grounding_own_problem_is_identity(fig1_strategy):
    ah, p = fig1_strategy
    g = ground_strategy(ah, p)
    assert g == {0: "left"}
    assert verify_grounding(ah, p, g) == []
    subgoals = reconstruct(ah, g, p)
    # the strategy's own goal stack, placed bottom first
    assert [order for _, ((_, order),) in subgoals] == \
        [p.goal["left"][:k] for k in range(1, 4)]


def test_grounding_on_new_objects_and_regions(fig1_strategy, fig2):
    ah, _ = fig1_strategy
    p = fig2.problem
    g = ground_strategy(ah, p)
    assert verify_grounding(ah, p, g) == []
    # the strategy's target stack pairs with the goal region of its height,
    # and its placements become prefixes of that region's goal stack
    assert g == {0: "goal"}
    subgoals = reconstruct(ah, g, p)
    assert [targets for _, targets in subgoals] == \
        [(("goal", p.goal["goal"][:k]),) for k in range(1, 4)]
    assert _subgoal_objects(subgoals) == set(p.goal["goal"])


def test_grounding_verifier_reports_a_bad_pairing(fig1_strategy, fig2):
    ah, p = fig1_strategy
    assert verify_grounding(ah, p, {0: "right"}) == \
        ["target:0 not mapped to a goal region"]
    assert verify_grounding(ah, fig2.problem, {}) == \
        ["target:0 not mapped to a goal region"]
    two = replace(p, goal={"left": ("C", "A", "B"), "right": ()})
    assert verify_grounding(ah, two, {0: "left", 1: "left"}) == \
        ["region map is not injective"]
    low = replace(p, goal={"left": ("C", "A")})
    assert verify_grounding(ah, low, {0: "left"}) == \
        ["target:0 height differs from goal region 'left'"]


def test_grounding_requires_matching_goal_shape(fig1_strategy):
    ah, p = fig1_strategy
    two_high = replace(p, goal={"left": ("C", "A")})
    with pytest.raises(NoGrounding):
        ground_strategy(ah, two_high)


def test_buffered_strategy_grounds_without_a_buffer(fig1_strategy):
    # no sub-goal reads a buffer node: the search picks where to park
    buffered = _buffered_strategy()
    assert any(isinstance(n.region, BufferRole) for n in buffered.nodes.values())
    _, fig1p = fig1_strategy  # fig1 has no buffer region
    assert verify_grounding(buffered, fig1p, ground_strategy(buffered, fig1p)) == []
    graph, stats = reuse_pipeline(buffered, fig1p,
                                  RefinementConfig(fallback=FAIL_HARD))
    final, _, _ = execute_hypergraph(graph, fig1p)
    assert is_goal(final, fig1p)
    assert stats.actions == 6 == bfs_oracle(fig1p)


def test_grounding_is_deterministic(fig1_strategy, fig2):
    ah, _ = fig1_strategy
    first = ground_strategy(ah, fig2.problem)
    second = ground_strategy(ah, fig2.problem)
    assert first == second
    assert reconstruct(ah, first, fig2.problem) == reconstruct(ah, second, fig2.problem)


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
    grounded = p.goal_objects
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
    assert validate_hyperpath(graph) == []
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


@pytest.fixture
def compile_calls(monkeypatch):
    """The arc count of every solution hypergraph compiled, by refine and
    by plan: each is sealed by ``Compiler.build``."""
    from hyperplan.planner import Compiler

    calls = []

    def counted(self, _original=Compiler.build):
        graph = _original(self)
        calls.append(len(graph.arcs))
        return graph
    monkeypatch.setattr(Compiler, "build", counted)
    return calls


def test_refinement_compiles_once(fig1_strategy, fig2, compile_calls):
    ah, _ = fig1_strategy
    p = fig2.problem
    subgoals = reconstruct(ah, ground_strategy(ah, p), p)
    assert len(subgoals) == 3
    graph, stats = refine(subgoals, p)
    assert compile_calls == [len(graph.arcs)] == [9]
    assert [(s.expansions, s.solution_actions) for s in stats.subproblems] == \
        [(3, 3), (3, 3), (3, 3)]
    assert stats.makespan == execute_hypergraph(graph, p)[1]


def test_refinement_checks_each_action_once(fig1_strategy, fig2, monkeypatch):
    """Refinement threads its state through the compilation, so each action
    passes the checked ``apply`` once."""
    from hyperplan import domain

    ah, _ = fig1_strategy
    p = fig2.problem
    subgoals = reconstruct(ah, ground_strategy(ah, p), p)
    checks = []

    def counted(s, a, problem, _original=domain.precondition_failure):
        checks.append(a)
        return _original(s, a, problem)
    monkeypatch.setattr(domain, "precondition_failure", counted)
    graph, _ = refine(subgoals, p)
    assert checks == [graph.arcs[aid].label for aid in sorted(graph.arcs)]
    assert len(checks) == 9


def test_satisfied_start_without_subgoals_is_one_empty_subproblem(compile_calls):
    p = replace(reversal_problem(3), initial=WorldState(stacks={"left": ("b3", "b2", "b1")}))
    graph, stats = refine((), p)
    assert [(s.expansions, s.generated, s.solution_actions)
            for s in stats.subproblems] == [(0, 0, 0)]
    assert compile_calls == [0]
    assert (stats.actions, len(graph.arcs)) == (0, 0)


@pytest.fixture
def check_calls(monkeypatch):
    """Counts hyperpath validations and executions, in every module that looks them up."""
    from hyperplan import domain, hypergraph, planner, reuse

    calls = {"validate_hyperpath": 0, "execute_hypergraph": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for module in (hypergraph, domain):
        monkeypatch.setattr(module, "validate_hyperpath",
                            counted("validate_hyperpath", module.validate_hyperpath))
    for module in (domain, planner, reuse):
        monkeypatch.setattr(module, "execute_hypergraph",
                            counted("execute_hypergraph", module.execute_hypergraph))
    return calls


def test_plan_and_refine_check_each_answer_once(fig1_strategy, fig2, check_calls):
    ah, _ = fig1_strategy
    p = fig2.problem
    plan(p)
    assert check_calls == {"validate_hyperpath": 1, "execute_hypergraph": 0}
    refine(reconstruct(ah, ground_strategy(ah, p), p), p)
    assert check_calls == {"validate_hyperpath": 2, "execute_hypergraph": 0}
    fallback = RefinementConfig(fallback=SCRATCH_FALLBACK)
    _, stats = reuse_pipeline(None, p, fallback)
    assert stats.fallback_used
    assert check_calls == {"validate_hyperpath": 3, "execute_hypergraph": 0}


def test_reuse_checks_the_problem_once(fig1_strategy, fig2, monkeypatch):
    """Grounding checks the request's problem, and refinement does not check
    it again; the sub-problems are valid by construction and are not
    checked either."""
    checked = []

    def counted(self, _original=Problem.validate):
        checked.append(self)
        return _original(self)

    monkeypatch.setattr(Problem, "validate", counted)
    ah, _ = fig1_strategy
    p = fig2.problem
    _, stats = reuse_pipeline(ah, p)
    assert not stats.fallback_used and len(stats.subproblems) == 3
    assert checked == [p]


@pytest.mark.parametrize("goal", [{"goal": ("x", "w")}, {"goal": ("x", "x")}])
def test_refine_rejects_an_invalid_problem(fig1_strategy, fig2, goal):
    ah, _ = fig1_strategy
    p = fig2.problem
    subgoals = reconstruct(ah, ground_strategy(ah, p), p)
    bad = replace(p, goal=goal)
    with pytest.raises(ValueError, match="^invalid problem: goal object"):
        refine(subgoals, bad)
    with pytest.raises(ValueError, match="^invalid problem: goal object"):
        refine((), bad)
    with pytest.raises(ValueError, match="^invalid problem: goal object"):
        ground_strategy(ah, bad)


def test_wall_time_covers_grounding(fig1_strategy, monkeypatch):
    import time

    from hyperplan import reuse

    def slow_ground(ah, p, _original=reuse.ground_strategy):
        time.sleep(0.02)
        return _original(ah, p)

    monkeypatch.setattr(reuse, "ground_strategy", slow_ground)
    ah, p = fig1_strategy
    _, stats = reuse_pipeline(ah, p)
    assert not stats.fallback_used
    assert stats.wall_time >= stats.ground_time >= 0.02
    assert min(stats.reconstruct_time, stats.refine_time) > 0
    assert stats.ground_time + stats.reconstruct_time + stats.refine_time \
        <= stats.wall_time


def test_refinement_subproblems_share_the_problems_tables(fig1_strategy, fig2,
                                                         monkeypatch):
    from hyperplan import reuse
    from hyperplan.domain import GOAL_INDEPENDENT

    searched = []

    def recorded(sub, *args, _original=reuse.search_unchecked, **kwargs):
        searched.append(sub)
        return _original(sub, *args, **kwargs)

    monkeypatch.setattr(reuse, "search_unchecked", recorded)
    ah, _ = fig1_strategy
    p = fig2.problem
    refine(reconstruct(ah, ground_strategy(ah, p), p), p)
    assert len(searched) == 3
    assert searched[0].goal_objects != p.goal_objects
    for sub in searched:
        for name in GOAL_INDEPENDENT + ("structure_errors",):
            assert getattr(sub, name) is getattr(p, name), name
        fresh = replace(p, initial=sub.initial, goal=sub.goal)
        assert sub.goal_objects == fresh.goal_objects == \
            frozenset(o for stack in sub.goal.values() for o in stack)
        assert sub.goal_region == fresh.goal_region
        assert sub.unreachable_goals == fresh.unreachable_goals
    assert searched[-1].goal == p.goal


@pytest.mark.parametrize("initial,goal,error", [
    ({"start": ("x", "y")}, None, "object 'z' placed 0 times"),
    ({"start": ("x", "y", "z", "w")}, None, "undeclared object 'w'"),
    (None, {"mid": ("x",)}, "goal region 'mid' is not a stack"),
    (None, {"goal": ("x", "w")}, "goal object 'w' undeclared"),
])
def test_derived_subproblem_is_still_validated(fig2, initial, goal, error):
    p = fig2.problem
    sub = p.subproblem(WorldState(stacks=initial) if initial else p.initial,
                       goal or p.goal)
    assert sub.validate() == replace(p, initial=sub.initial, goal=sub.goal).validate()
    assert error in sub.validate()
    with pytest.raises(ValueError, match="invalid problem"):
        search(sub)


def test_subproblem_of_a_malformed_problem_reports_its_errors(fig2):
    p = replace(fig2.problem, robots=(RobotSpec("r1", frozenset({"nowhere"})),))
    sub = p.subproblem(p.initial, p.goal)
    assert "robot 'r1' reaches unknown region 'nowhere'" in sub.validate()


def test_failure_without_an_abstract_arc_names_only_the_reason(fig2):
    # no "abstract arc" prefix: the reason, then the sub-goal and its count
    with pytest.raises(SubproblemInfeasible) as failure:
        refine((), fig2.problem, SearchConfig(max_expansions=1))
    assert failure.value.arc_id is None
    assert str(failure.value) == \
        "expansion budget of 1 exhausted (sub-goal goal=[z y x]; 1 states expanded)"


def test_budget_failure_names_the_subgoal_and_its_expansions():
    # the sub-problem of abstract arc 1 needs 39 expansions
    p = random_instance(288, 4, 2, 4)
    ah = _own_strategy(p)
    tight = RefinementConfig(SearchConfig(max_expansions=34), FAIL_HARD)
    with pytest.raises(SubproblemInfeasible) as failure:
        reuse_pipeline(ah, p, tight)
    exc = failure.value
    assert (exc.arc_id, dict(exc.goal), exc.expansions) == (1, {"r1": ("o1",)}, 34)
    assert isinstance(exc.__cause__, BudgetExhausted)
    assert str(exc) == ("abstract arc 1: expansion budget of 34 exhausted "
                        "(sub-goal r1=[o1]; 34 states expanded)")


def test_exhausted_subproblem_names_the_subgoal_and_its_expansions():
    # one robot, one stack: two boxes cannot swap order
    regions = (Region("L", "stack"),)
    robots = (RobotSpec("a", frozenset({"L"})),)
    p = Problem(regions, robots, ("x", "y"),
                WorldState(stacks={"L": ("x", "y")}), {"L": ("y", "x")})
    with pytest.raises(NoSolution) as unsolved:
        search(p)
    assert unsolved.value.expansions == 2
    with pytest.raises(SubproblemInfeasible) as failure:
        refine((), p)
    exc = failure.value
    assert (exc.arc_id, dict(exc.goal), exc.expansions) == (None, {"L": ("y", "x")}, 2)
    assert isinstance(exc.__cause__, NoSolution)
    assert str(exc) == ("state space exhausted without reaching the goal "
                        "(sub-goal L=[y x]; 2 states expanded)")


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
    # the buffered fig3 strategy refines on fig1, which has no buffer, so
    # both modes return the same refined plan
    _, p = fig1_strategy
    buffered = _buffered_strategy()
    hard, hard_stats = reuse_pipeline(buffered, p,
                                      RefinementConfig(fallback=FAIL_HARD))
    graph, stats = reuse_pipeline(
        buffered, p, RefinementConfig(fallback=SCRATCH_FALLBACK))
    assert graph == hard
    assert not stats.fallback_used and not hard_stats.fallback_used
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert stats.actions == hard_stats.actions == 6


def test_an_unknown_fallback_mode_is_rejected():
    with pytest.raises(ValueError, match="^unknown fallback mode: 'x'$"):
        RefinementConfig(fallback="x")


def test_refine_subproblem_failure_fallback(fig1_strategy):
    ah, p = fig1_strategy
    # shrink the budget so the first sub-problem cannot finish
    tiny = RefinementConfig(search=SearchConfig(max_expansions=1),
                            fallback=FAIL_HARD)
    with pytest.raises(SubproblemInfeasible):
        reuse_pipeline(ah, reversal_problem(3), tiny)


def test_refine_raises_and_leaves_the_fallback_to_the_pipeline(fig1_strategy):
    ah, p = fig1_strategy
    subgoals = reconstruct(ah, ground_strategy(ah, p), p)
    with pytest.raises(SubproblemInfeasible):
        refine(subgoals, p, SearchConfig(max_expansions=1))
    # a search budget is all refine takes: it has no fallback setting
    assert list(inspect.signature(refine).parameters) == ["subgoals", "p", "config"]
    with pytest.raises(TypeError):
        refine(subgoals, p, SearchConfig(max_expansions=1), fallback=SCRATCH_FALLBACK)


def test_scratch_plan_after_a_failed_refinement_is_in_wall_time_only():
    # the sub-problem of abstract arc 1 runs out at 34 expansions; scratch
    # needs 34
    p = random_instance(288, 4, 2, 4)
    ah = _own_strategy(p)
    cfg = RefinementConfig(SearchConfig(max_expansions=34), SCRATCH_FALLBACK)
    _, stats = reuse_pipeline(ah, p, cfg)
    assert stats.fallback_reason.startswith("SubproblemInfeasible: ")
    # the failed refinement is timed as the refine phase
    assert stats.refine_time > 0
    phases = stats.ground_time + stats.reconstruct_time + stats.refine_time
    assert stats.wall_time - phases >= stats.subproblems[0].wall_time


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
    ("no-record", "NoGrounding: no stored strategy matches goal heights [3]"),
    ("no-grounding", "NoGrounding: goal stack-height multisets differ"),
    ("infeasible",
     "SubproblemInfeasible: abstract arc 1: expansion budget of 34 exhausted "
     "(sub-goal r1=[o1]; 34 states expanded)"),
])
def test_fallback_reason_names_the_failure(route, reason):
    search = SearchConfig()
    if route == "infeasible":
        # one refinement sub-problem needs 39 expansions, scratch needs 34
        p = random_instance(288, 4, 2, 4)
        ah = _own_strategy(p)
        search = SearchConfig(max_expansions=34)
    else:
        p = load_scenario("fig1").problem
        ah = None if route == "no-record" else _own_strategy(reversal_problem(4))
    graph, stats = reuse_pipeline(ah, p, RefinementConfig(search, SCRATCH_FALLBACK))
    assert stats.fallback_used
    assert stats.fallback_reason == reason
    scratch_graph, scratch_stats = plan(p, search)
    assert graph == scratch_graph
    assert stats.total_expansions == scratch_stats.expansions
    with pytest.raises((NoGrounding, SubproblemInfeasible)) as failure:
        reuse_pipeline(ah, p, RefinementConfig(search, FAIL_HARD))
    assert f"{type(failure.value).__name__}: {failure.value}" == reason


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
    # only goal positions become sub-goals: the blocker is left to the search
    assert _subgoal_objects(reconstruct(ah, g, p)) == {"A", "B"}
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


def _placements_hold(state, placements: dict) -> bool:
    return all(state.stacks.get(region, ())[:len(order)] == order
               for region, order in placements.items())


def test_roundtrip_property_on_random_instances():
    from hyperplan import NoSolution

    refined = 0
    for seed in range(400):
        p = random_instance(seed, 4, 2, 4)
        try:
            scratch, scratch_stats = plan(p)
        except NoSolution:
            continue
        ah = extract_strategy(scratch, p)
        # every own strategy grounds and refines without a fallback
        subgoals = reconstruct(ah, ground_strategy(ah, p), p)
        for _, targets in subgoals:
            for region, order in targets:
                assert p.goal[region][:len(order)] == order, f"seed {seed}"
        graph, stats = refine(subgoals, p, SearchConfig())
        final, _, _ = execute_hypergraph(graph, p)
        assert is_goal(final, p), f"seed {seed}"
        assert stats.actions >= scratch_stats.solution_actions, f"seed {seed}"
        refined += 1
        # replay: once a sub-goal's placements hold, they hold in every
        # later state of the refined plan. One sub-problem per sub-goal, the
        # last one exact; without sub-goals, one exact sub-problem.
        steps = subgoals or ((None, ()),)
        assert len(stats.subproblems) == len(steps), f"seed {seed}"
        actions = [graph.arcs[aid].label for aid in topological_order(graph)]
        state, achieved, done = p.initial, {}, 0
        for (_, targets), sub in zip(steps, stats.subproblems):
            for action in actions[done:done + sub.solution_actions]:
                state = apply(state, action, p)
                assert _placements_hold(state, achieved), f"seed {seed}"
            done += sub.solution_actions
            achieved.update(targets)
            assert _placements_hold(state, achieved), f"seed {seed}"
        assert done == len(actions), f"seed {seed}"
    assert refined == 286


@pytest.mark.parametrize("family,seeds,solved,exhausted", [
    ((6, 3, 5), range(300), 206, 0),
    ((8, 2, 4), range(200), 111, 2),
])
def test_own_problem_round_trip_beyond_four_objects(family, seeds, solved, exhausted):
    """The contract on up to 6 and 8 objects: every problem scratch solves
    within the budget refines from its own strategy, read back from JSON,
    without a fallback, reaches the goal by replay and is never shorter."""
    from hyperplan.library import make_record, record_from_json, record_to_json

    budget = SearchConfig(max_expansions=20_000)
    counts = {"solved": 0, "exhausted": 0}
    for seed in seeds:
        p = random_instance(seed, *family)
        try:
            scratch, scratch_stats = plan(p, budget)
        except NoSolution:
            continue
        except BudgetExhausted:
            counts["exhausted"] += 1
            continue
        record = make_record(f"seed{seed}", extract_strategy(scratch, p), f"seed{seed}",
                             created_at="2026-01-01T00:00:00+00:00")
        stored = record_from_json(json.loads(json.dumps(record_to_json(record))))
        graph, stats = reuse_pipeline(stored.ah, p, RefinementConfig(budget, FAIL_HARD))
        assert not stats.fallback_used, f"seed {seed}"
        final, _, actions = execute_hypergraph(graph, p)
        assert is_goal(final, p), f"seed {seed}"
        assert actions == stats.actions >= scratch_stats.solution_actions, f"seed {seed}"
        counts["solved"] += 1
    assert counts == {"solved": solved, "exhausted": exhausted}


def test_lifetime_transfer_on_held_out_corpus_seeds():
    """Strategies of seeds 0-199 solve the solvable seeds 200-399."""
    from hyperplan import NoSolution
    from hyperplan.library import make_record, retrieve

    def solvable(seeds):
        for seed in seeds:
            p = random_instance(seed, 4, 2, 4)
            try:
                yield seed, p, plan(p)
            except NoSolution:
                continue

    records = [make_record(f"seed{seed:03d}", extract_strategy(graph, p),
                           f"seed{seed:03d}", created_at="2026-01-01T00:00:00+00:00")
               for seed, p, (graph, _) in solvable(range(200))]
    targets = 0
    for seed, p, (_, scratch_stats) in solvable(range(200, 400)):
        targets += 1
        record = retrieve(p, records)
        assert record is not None, f"seed {seed}"
        graph, stats = reuse_pipeline(record.ah, p,
                                      RefinementConfig(fallback=FAIL_HARD))
        assert not stats.fallback_used, f"seed {seed}"
        final, _, _ = execute_hypergraph(graph, p)
        assert is_goal(final, p), f"seed {seed}"
        assert stats.actions >= scratch_stats.solution_actions, f"seed {seed}"
    assert targets == 147


def test_goal_only_schedule_refines_to_the_goal():
    """Goal-stack prefixes, reached bottom-up and followed by the exact goal,
    are a correct decomposition: on every problem scratch solves within the
    budget, refining the schedule read off the goal alone raises nothing,
    reaches the goal by replay and is never shorter than scratch."""
    budget = SearchConfig(max_expansions=20_000)
    families = {
        "figures": [load_scenario(name).problem for name in ("fig1", "fig2", "fig3")],
        "corpus": [random_instance(s, 4, 2, 4) for s in range(400)],
        "6-3-5": [random_instance(s, 6, 3, 5) for s in range(100)],
        "8-2-4": [random_instance(s, 8, 2, 4) for s in range(100)],
    }
    covered = dict.fromkeys(families, 0)
    for family, problems in families.items():
        for i, p in enumerate(problems):
            try:
                _, scratch_stats = plan(p, budget)
            except (NoSolution, BudgetExhausted):
                continue
            graph, stats = refine(goal_only_schedule(p), p, budget)
            final, _, actions = execute_hypergraph(graph, p)
            assert is_goal(final, p), f"{family} {i}"
            assert actions == stats.actions >= scratch_stats.solution_actions, \
                f"{family} {i}"
            covered[family] += 1
    assert covered == {"figures": 3, "corpus": 286, "6-3-5": 65, "8-2-4": 58}


# --- transfers to relabelled problems of other shapes ------------------------------

def transfer_target(kind: str, start: tuple, goal: tuple) -> Problem:
    """``start`` on stack ``pile``, to be stacked as ``goal`` on the empty
    stack ``goal``, with a third stack ``spare``. ``handoff``: robot ``g``
    reaches ``pile``, ``spare`` and a capacity-2 buffer ``hand``, robot
    ``t`` the goal stack and ``hand``. ``onebot``: ``g`` alone reaches every
    stack and a capacity-2 buffer ``park``. ``distractors``: ``g`` and ``t``
    reach every stack, and a stack ``aside`` that no robot reaches holds
    three boxes."""
    stacks = ("pile", "goal", "spare")
    regions = [Region(s, "stack") for s in stacks]
    initial = {"pile": start}
    if kind == "handoff":
        regions.append(Region("hand", "buffer", 2))
        robots = (RobotSpec("g", frozenset({"pile", "spare", "hand"})),
                  RobotSpec("t", frozenset({"goal", "hand"})))
    elif kind == "onebot":
        regions.append(Region("park", "buffer", 2))
        robots = (RobotSpec("g", frozenset(stacks + ("park",))),)
    else:
        regions.append(Region("aside", "stack"))
        robots = tuple(RobotSpec(r, frozenset(stacks)) for r in ("g", "t"))
        initial["aside"] = ("d0", "d1", "d2")
    objects = start + initial.get("aside", ())
    return Problem(tuple(regions), robots, objects, WorldState(stacks=initial),
                   {"goal": goal})


# sha256 over, per transfer in test order, plan_to_json of the refined plan,
# then over each sub-problem's (expansions, generated). Any change in
# grounding, sub-goals, search order, tie-breaking or compilation moves them.
TRANSFER_PLANS_SHA256 = "5279c3cec7f785ee5956d7bbedf5ae55f8c84222d8171dc0a95e1ac07f23dc05"
TRANSFER_SEARCHES_SHA256 = "506d4f049ed66523c8ad04907757e421e060a26bd2062840dcd3f0cbf92ae6f3"


def test_transfer_refinement_is_pinned():
    """Strategies of two-robot tower reversals (4-6 boxes) and one-robot
    blocker towers (2-3 blockers), each refined under ``FAIL_HARD`` on a
    relabelled target of every ``transfer_target`` kind: each reaches the
    goal by replay, and its plan and its searches are pinned."""
    from conftest import blocker_tower_problem

    transfers = []
    for h in (4, 5, 6):
        boxes = tuple(f"c{i}" for i in range(1, h + 1))
        transfers.append((reversal_problem(h), boxes, boxes[::-1]))
    for k in (2, 3):
        blockers = tuple(f"y{i}" for i in range(1, k + 1))
        transfers.append((blocker_tower_problem(k), ("c3", "c1", "c2") + blockers,
                          ("c1", "c3", "c2")))
    plans, searches = hashlib.sha256(), hashlib.sha256()
    actions = []
    for source, start, goal in transfers:
        ah = extract_strategy(plan(source)[0], source)
        for kind in ("handoff", "onebot", "distractors"):
            p = transfer_target(kind, start, goal)
            graph, stats = reuse_pipeline(ah, p)
            final, _, count = execute_hypergraph(graph, p)
            assert is_goal(final, p), (len(start), kind)
            actions.append(count)
            plans.update(json.dumps(plan_to_json(graph, kind), sort_keys=True).encode())
            searches.update(json.dumps([(s.expansions, s.generated)
                                        for s in stats.subproblems]).encode())
    assert actions == [12, 8, 8, 15, 10, 10, 18, 12, 12, 15, 12, 11, 17, 14, 13]
    assert plans.hexdigest() == TRANSFER_PLANS_SHA256
    assert searches.hexdigest() == TRANSFER_SEARCHES_SHA256


# --- reference: grounding by object binding -------------------------------------
# Before strategies carried a schedule, grounding bound every goal-stack
# placeholder to the object at its goal position, and reconstruction mapped
# each goal-prefix head through that binding. The schedule must give the
# same sub-goals and fail on the same pairs.

def _reference_ground(ah, p) -> tuple:
    errors = p.validate()
    if errors:
        raise ValueError(f"invalid problem: {errors[0]}")
    ah_stacks = sorted(ah.goal_stacks, key=lambda r: r.index)
    if sorted(len(ah.goal_stacks[r]) for r in ah_stacks) != \
            sorted(len(v) for v in p.goal.values()):
        raise NoGrounding("goal stack-height multisets differ")
    roles_by_height: dict = {}
    for role in ah_stacks:
        roles_by_height.setdefault(len(ah.goal_stacks[role]), []).append(role)
    regions_by_height: dict = {}
    for region, want in p.goal.items():
        regions_by_height.setdefault(len(want), []).append(region)
    region_map = {}
    for height, roles in roles_by_height.items():
        for role, region in zip(roles, regions_by_height[height]):
            region_map[role] = region
    object_map: dict = {}
    for role in ah_stacks:
        for aobj, concrete in zip(ah.goal_stacks[role], p.goal[region_map[role]]):
            if object_map.setdefault(aobj, concrete) != concrete:
                raise NoGrounding(f"{aobj} pinned to two different goal positions")
    return object_map, region_map


def _reference_reconstruct(ah, object_map, region_map) -> tuple:
    subgoals = []
    for aid in sorted(ah.arcs):
        targets = []
        for nid in sorted(ah.arcs[aid].heads):
            node = ah.nodes[nid]
            stack = ah.goal_stacks.get(node.region, ())
            order = node.stack_order
            if order and stack[:len(order)] == order:
                targets.append((region_map[node.region],
                                tuple(object_map[o] for o in order)))
        if targets:
            subgoals.append((aid, tuple(targets)))
    return tuple(subgoals)


def _agrees_with_reference(ah, p) -> bool:
    """Same sub-goals as the reference, or NoGrounding from both; True if grounded."""
    try:
        expected = _reference_reconstruct(ah, *_reference_ground(ah, p))
    except NoGrounding as failure:
        with pytest.raises(NoGrounding) as raised:
            ground_strategy(ah, p)
        assert str(raised.value) == str(failure)
        return False
    assert reconstruct(ah, ground_strategy(ah, p), p) == expected
    return True


@pytest.fixture(scope="module")
def corpus_strategies():
    """(seed, problem, own strategy) of every solvable corpus seed."""
    out = []
    for seed in range(400):
        p = random_instance(seed, 4, 2, 4)
        try:
            out.append((seed, p, _own_strategy(p)))
        except NoSolution:
            continue
    assert len(out) == 286
    return out


def test_schedule_matches_object_binding_on_own_problems(corpus_strategies):
    for _, p, ah in corpus_strategies:
        assert _agrees_with_reference(ah, p)


def test_schedule_matches_object_binding_across_corpus_pairs(corpus_strategies):
    # every 4th strategy on every target (a fresh copy): 72 x 286 pairs
    grounded = failed = 0
    for _, _, ah in corpus_strategies[::4]:
        for _, p, _ in corpus_strategies:
            if _agrees_with_reference(ah, replace(p)):
                grounded += 1
            else:
                failed += 1
    assert (grounded, failed) == (5997, 14595)


def test_schedule_matches_object_binding_from_fig1(fig1_strategy, fig2, fig3):
    ah, p = fig1_strategy
    for target in (p, fig2.problem, fig3.problem):
        assert _agrees_with_reference(ah, target)
    assert _agrees_with_reference(_buffered_strategy(), p)
    assert not _agrees_with_reference(ah, reversal_problem(4))


# --- reference: refinement that compiles search's robots ---------------------------
# Before compiled plans renamed interchangeable robots at picks, refinement
# compiled each sub-problem's actions as its search returned them, so every
# sub-problem started with one robot doing all the moves. Renaming must give
# the same plan once each robot is erased to its class, with a makespan no
# higher.

def _literal(p):
    """A copy of ``p`` whose robots are in no class, so ``Compiler`` over
    it compiles actions as given."""
    q = replace(p)
    q.__dict__["robot_classes"] = ()
    return q


def _reference_refine(subgoals, p, config=None) -> tuple:
    compiler = Compiler(_literal(p))
    substats: list = []
    achieved: dict = {}
    steps = subgoals or ((None, ()),)
    for i, (aid, targets) in enumerate(steps, 1):
        achieved.update(targets)
        exact = i == len(steps)
        sub = p.subproblem(compiler.state, p.goal if exact else dict(achieved))
        try:
            sub_actions, sub_stats = search(sub, config, prefix_goals=not exact)
        except (NoSolution, BudgetExhausted) as exc:
            raise SubproblemInfeasible(aid, str(exc), sub.goal, exc.expansions) from exc
        compiler.extend(sub_actions)
        substats.append(sub_stats)
    graph = compiler.build()
    return graph, ReuseStats(
        subproblems=tuple(substats),
        actions=len(graph.arcs),
        makespan=makespan(graph),
    )


def _labels(graph) -> list:
    return [graph.arcs[aid].label for aid in topological_order(graph)]


def test_renamed_refinement_matches_the_reference_on_own_strategies(corpus_strategies):
    lowered = []
    for seed, p, ah in corpus_strategies:
        subgoals = reconstruct(ah, ground_strategy(ah, p), p)
        expected, expected_stats = _reference_refine(subgoals, p)
        graph, stats = refine(subgoals, p)
        assert class_erased(p, _labels(graph)) == class_erased(p, _labels(expected)), seed
        assert [s.expansions for s in stats.subproblems] == \
            [s.expansions for s in expected_stats.subproblems], seed
        assert stats.makespan <= expected_stats.makespan, seed
        if stats.makespan < expected_stats.makespan:
            lowered.append(seed)
    # the last move of seed 41 goes to the robot whose hand is free first
    assert lowered == [41]


def test_renaming_shortens_fig1_reused_on_fig1_only(fig1_strategy, fig2, fig3):
    ah, p = fig1_strategy
    subgoals = reconstruct(ah, ground_strategy(ah, p), p)
    graph, stats = refine(subgoals, p)
    expected, expected_stats = _reference_refine(subgoals, p)
    assert (stats.actions, stats.makespan) == (6, 5)
    assert (expected_stats.actions, expected_stats.makespan) == (6, 6)
    assert class_erased(p, _labels(graph)) == class_erased(p, _labels(expected))
    # disjoint reach (fig2) and one robot (fig3): no two robots alike
    for target in (fig2.problem, fig3.problem):
        assert not target.robot_classes
        subgoals = reconstruct(ah, ground_strategy(ah, target), target)
        assert json.dumps(plan_to_json(refine(subgoals, target)[0], "plan")) == \
            json.dumps(plan_to_json(_reference_refine(subgoals, target)[0], "plan"))


# --- goal regions that stay empty -------------------------------------------------

def _empty_goal_stack_problem() -> Problem:
    # S must stay empty and the optimal plan never touches it
    regions = (Region("L", "stack"), Region("R", "stack"), Region("S", "stack"))
    robots = (RobotSpec("a", frozenset({"L", "R", "S"})),)
    return Problem(regions, robots, ("A", "B"),
                   WorldState(stacks={"R": ("B", "A")}),
                   {"L": ("A", "B"), "S": ()})


def test_own_strategy_with_an_untouched_empty_goal_stack_reuses():
    from hyperplan import TargetRole, make_record, retrieve

    p = _empty_goal_stack_problem()
    scratch, scratch_stats = plan(p)
    assert all(a.label.region != "S" for a in scratch.arcs.values()
               if isinstance(a.label, Place))
    ah = extract_strategy(scratch, p)
    assert ah.goal_stacks[TargetRole(1)] == ()
    assert ground_strategy(ah, p) == {0: "L", 1: "S"}
    record = make_record("empty-s", ah, "empty-s")
    assert record.signature.goal_stack_heights == (0, 2)
    assert retrieve(p, [record]) is record
    graph, stats = reuse_pipeline(ah, p, RefinementConfig(fallback=FAIL_HARD))
    assert not stats.fallback_used
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert stats.actions == scratch_stats.solution_actions
