from dataclasses import replace

import pytest

from hyperplan import (
    AbstractNode,
    AbstractObject,
    BufferRole,
    Pick,
    Place,
    Problem,
    Region,
    RobotSpec,
    SourceRole,
    TargetRole,
    WorldState,
    abstract_labels,
    ah_violations,
    canonical_form,
    execute_hypergraph,
    extract_strategy,
    is_goal,
    plan,
    remove_robot_entities,
    select_critical_nodes,
    validate_hyperpath,
)
from hyperplan.hypergraph import ABSTRACT, HypergraphBuilder, obj, robot, to_dot

from conftest import (
    buffer_start_problem,
    handoff_capacity_problem,
    random_instance,
    two_target_problem,
)


def one_box_problem():
    regions = (Region("L", "stack"), Region("R", "stack"))
    robots = (RobotSpec("a", frozenset({"L", "R"})),)
    return Problem(regions, robots, ("x",),
                   WorldState(stacks={"R": ("x",)}), {"L": ("x",)})


# --- remove_robot_entities ----------------------------------------------------

def test_removal_keeps_only_objects(fig1):
    graph, _ = plan(fig1.problem)
    h_obj = remove_robot_entities(graph)
    assert validate_hyperpath(h_obj).ok
    assert not any(e.is_robot for e in h_obj.entities())
    assert {e.name for e in h_obj.entities()} == {"A", "B", "C"}


def test_removal_contracts_picks_and_handoffs(fig2):
    graph, _ = plan(fig2.problem)
    h_obj = remove_robot_entities(graph)
    # 9 concrete actions collapse to the object-level progression:
    # handoffs vanish, singleton picks contract, splits and places remain
    labels = [h_obj.arcs[a].label for a in sorted(h_obj.arcs)]
    from hyperplan import Handoff

    assert not any(isinstance(lab, Handoff) for lab in labels)
    assert len(h_obj.arcs) < len(graph.arcs)


def test_removal_is_identity_on_robot_free_graphs():
    b = HypergraphBuilder()
    n0 = b.add_node({obj("x"), obj("y")})
    n1 = b.add_node({obj("x")})
    n2 = b.add_node({obj("y")})
    b.add_arc("split", {n0}, {n1, n2})
    graph = b.build()
    assert remove_robot_entities(graph) is graph


def test_removal_of_robot_only_graph_is_empty():
    b = HypergraphBuilder()
    n0 = b.add_node({robot("a")})
    n1 = b.add_node({robot("a")})
    b.add_arc("noop", {n0}, {n1})
    h_obj = remove_robot_entities(b.build())
    assert len(h_obj.nodes) == 0
    assert len(h_obj.arcs) == 0


def test_removal_records_via_history(fig1):
    graph, _ = plan(fig1.problem)
    h_obj = remove_robot_entities(graph)
    place_nodes = [
        n for n in h_obj.nodes.values()
        if any(isinstance(ev, Place) and ev.region == "left" for ev in n.via)
    ]
    assert len(place_nodes) == 3


# --- select_critical_nodes -------------------------------------------------------

def test_fig1_critical_nodes(fig1):
    graph, _ = plan(fig1.problem)
    h_obj = remove_robot_entities(graph)
    critical = select_critical_nodes(h_obj, fig1.problem)
    assert set(h_obj.sources) <= critical
    assert set(h_obj.sinks) <= critical
    assert len(critical) == 4  # source tower plus three goal-stack stages


def test_empty_goal_selects_sources_and_sinks_only(fig1):
    p = replace(fig1.problem, goal={})
    graph, _ = plan(p)
    h_obj = remove_robot_entities(graph)
    critical = select_critical_nodes(h_obj, p)
    assert critical == frozenset(h_obj.sources) | frozenset(h_obj.sinks)


def test_one_box_critical_nodes_deduplicate():
    p = one_box_problem()
    graph, _ = plan(p)
    h_obj = remove_robot_entities(graph)
    critical = select_critical_nodes(h_obj, p)
    # source, post-place, sink; the post-place node is the sink
    assert len(critical) == 2


# --- abstract_labels ------------------------------------------------------------

def test_fig1_abstraction_shape(fig1):
    ah = extract_strategy(plan(fig1.problem)[0], fig1.problem)
    assert len(ah.abstract_objects) == 3
    assert len(ah.arcs) == 3  # one per goal-stack placement
    assert ah_violations(ah) == []
    roles = {type(n.region) for n in ah.nodes.values() if n.region is not None}
    assert roles == {SourceRole, TargetRole}
    (target_stack,) = ah.goal_stacks.values()
    assert [o.index for o in target_stack] == [2, 0, 1]
    # one schedule step per arc, each placing a longer goal-stack prefix
    assert ah.schedule == ((0, ((0, 1),)), (1, ((0, 2),)), (2, ((0, 3),)))
    from hyperplan.abstraction import AbstractHypergraph

    assert AbstractHypergraph(ah.nodes, ah.arcs, ah.goal_stacks) == ah


def test_single_object_strategy():
    p = one_box_problem()
    ah = extract_strategy(plan(p)[0], p)
    assert len(ah.abstract_objects) == 1
    assert len(ah.arcs) == 1


def test_abstraction_has_no_robot_entities(fig1):
    ah = extract_strategy(plan(fig1.problem)[0], fig1.problem)
    for node in ah.nodes.values():
        assert all(isinstance(o, AbstractObject) for o in node.composition)


def test_abstract_object_count_matches_manipulated(fig3):
    ah = extract_strategy(plan(fig3.problem)[0], fig3.problem)
    assert len(ah.abstract_objects) == 3


def test_extraction_label_independence(fig1):
    # rename objects (A,B,C) -> (q,r,p) and robots, replan, re-extract
    regions = (Region("left", "stack"), Region("right", "stack"))
    robots = (RobotSpec("zed", frozenset({"left", "right"})),
              RobotSpec("kia", frozenset({"left", "right"})))
    renamed = Problem(regions, robots, ("p", "q", "r"),
                      WorldState(stacks={"right": ("q", "r", "p")}),
                      {"left": ("p", "q", "r")})
    ah_original = extract_strategy(plan(fig1.problem)[0], fig1.problem)
    ah_renamed = extract_strategy(plan(renamed)[0], renamed)
    assert canonical_form(ah_renamed) == canonical_form(ah_original)


def test_handoff_solutions_abstract_to_the_same_strategy(fig1):
    """Robot bookkeeping (handoffs, carrier choice) leaves no trace."""
    ah_plain = extract_strategy(plan(fig1.problem)[0], fig1.problem)
    variant = handoff_capacity_problem()
    ah_handoff = extract_strategy(plan(variant)[0], variant)
    assert canonical_form(ah_handoff) == canonical_form(ah_plain)
    assert ah_handoff == ah_plain  # extraction is canonical already


def test_empty_plan_abstraction_mirrors_sources(fig1):
    p = replace(fig1.problem, goal={"right": ("A", "B", "C")})
    graph, _ = plan(p)
    assert len(graph.arcs) == 0
    h_obj = remove_robot_entities(graph)
    ah = abstract_labels(h_obj, select_critical_nodes(h_obj, p), p)
    assert len(ah.arcs) == 0
    assert ah.sources == ah.sinks


def test_buffer_usage_shows_in_strategy(fig3):
    ah = extract_strategy(plan(fig3.problem)[0], fig3.problem)
    assert any(isinstance(n.region, BufferRole) for n in ah.nodes.values())


def test_two_target_strategy_roles():
    p = two_target_problem()
    ah = extract_strategy(plan(p)[0], p)
    targets = {role.index for role in ah.goal_stacks}
    assert targets == {0, 1}
    heights = sorted(len(v) for v in ah.goal_stacks.values())
    assert heights == [1, 2]
    assert ah_violations(ah) == []
    assert {t for _, targets in ah.schedule for t, _ in targets} == {0, 1}


def test_buffer_start_strategy():
    p = buffer_start_problem()
    ah = extract_strategy(plan(p)[0], p)
    assert len(ah.abstract_objects) == 3
    assert ah_violations(ah) == []


def untouched_goal_stack_problem():
    """T already holds its goal stack and no optimal plan touches it."""
    regions = (Region("L", "stack"), Region("R", "stack"), Region("T", "stack"))
    robots = (RobotSpec("a", frozenset({"L", "R", "T"})),)
    return Problem(regions, robots, ("A", "B", "C"),
                   WorldState(stacks={"R": ("B", "A"), "T": ("C",)}),
                   {"L": ("A", "B"), "T": ("C",)})


def unreachable_buffer_empty_goal_problem():
    """Nothing to do; Z starts in a buffer no robot reaches."""
    regions = (Region("L", "stack"), Region("tray", "buffer", 1))
    robots = (RobotSpec("a", frozenset({"L"})),)
    return Problem(regions, robots, ("A", "Z"),
                   WorldState(stacks={"L": ("A",)}, buffers={"tray": {"Z"}}),
                   {})


@pytest.mark.parametrize("make, placeholders", [
    (untouched_goal_stack_problem, 3),
    (unreachable_buffer_empty_goal_problem, 0),
], ids=["untouched-goal-stack", "empty-goal-unreachable-buffer"])
def test_placeholders_are_touched_objects_plus_goal_objects(make, placeholders):
    from hyperplan import ground_strategy, reuse_pipeline, verify_grounding

    p = make()
    scratch, scratch_stats = plan(p)
    ah = extract_strategy(scratch, p)
    assert ah_violations(ah) == []
    assert len(ah.abstract_objects) == placeholders
    if not p.goal:
        assert not ah.nodes
    assert sorted(len(s) for s in ah.goal_stacks.values()) == \
        sorted(len(s) for s in p.goal.values())
    assert verify_grounding(ah, p, ground_strategy(ah, p)) == []
    graph, stats = reuse_pipeline(ah, p)
    final, _, _ = execute_hypergraph(graph, p)
    assert is_goal(final, p)
    assert stats.actions == scratch_stats.solution_actions


def test_extract_requires_goal_reaching_plan(fig1):
    from hyperplan import build_hypergraph

    partial = build_hypergraph([Pick("blue", "C", "right")], fig1.problem)
    with pytest.raises(ValueError):
        extract_strategy(partial, fig1.problem)


def test_ah_dot_renders_all_arcs_dashed(fig1):
    ah = extract_strategy(plan(fig1.problem)[0], fig1.problem)
    text = to_dot(ah)
    assert text.count("style=dashed") == len(ah.arcs)


def test_ah_violations_detects_conservation_break():
    from hyperplan.hypergraph import Hyperarc

    nodes = {
        0: AbstractNode(0, frozenset({AbstractObject(0), AbstractObject(1)})),
        1: AbstractNode(1, frozenset({AbstractObject(0)})),
    }
    arcs = {0: Hyperarc(0, ABSTRACT, frozenset({0}), frozenset({1}))}
    from hyperplan.abstraction import AbstractHypergraph

    ah = AbstractHypergraph(nodes, arcs, {})
    assert any(v.code == "entity-conservation" for v in ah_violations(ah))


def test_extracted_strategies_pass_invariants_on_random_instances():
    from hyperplan import NoSolution

    checked = 0
    for seed in range(80):
        p = random_instance(seed)
        if not p.goal:
            continue
        try:
            graph, _ = plan(p)
        except NoSolution:
            continue
        final, _, _ = execute_hypergraph(graph, p)
        assert is_goal(final, p), f"seed {seed}"
        ah = extract_strategy(graph, p)
        assert ah_violations(ah) == [], f"seed {seed}"
        checked += 1
    assert checked >= 25
