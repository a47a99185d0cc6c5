import json
import random
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
from hyperplan.abstraction import AbstractHypergraph
from hyperplan.cli import plan_from_json, plan_to_json
from hyperplan.domain import BUFFER, InBuffer, OnStack, object_facts
from hyperplan.hypergraph import (
    ABSTRACT,
    Hyperarc,
    HypergraphBuilder,
    obj,
    robot,
    to_dot,
    topological_order,
)
from hyperplan.library import make_record, record_to_json

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
    assert validate_hyperpath(h_obj) == []
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


def test_source_roles_are_numbered_by_first_use():
    """x is parked on s2 before y is parked on s1, so s2 gets the lower
    SourceRole index although s1 is declared first; T, where the plan
    starts, gets index 0."""
    from hyperplan import build_hypergraph

    regions = tuple(Region(r, "stack") for r in ("T", "G", "s1", "s2"))
    robots = (RobotSpec("a", frozenset(r.id for r in regions)),)
    p = Problem(regions, robots, ("g", "y", "x"),
                WorldState(stacks={"T": ("g", "y", "x")}), {"G": ("g",)})
    moves = [("x", "s2"), ("y", "s1"), ("g", "G")]
    graph = build_hypergraph(
        [a for o, r in moves for a in (Pick("a", o, "T"), Place("a", o, r))], p)
    ah = extract_strategy(graph, p)
    g, y, x = map(AbstractObject, range(3))
    placed = {(node.stack_order, node.region) for node in ah.nodes.values()}
    assert {((g, y, x), SourceRole(0)), ((x,), SourceRole(1)),
            ((y,), SourceRole(2)), ((g,), TargetRole(0))} <= placed
    assert ah_violations(ah) == []
    _assert_matches_reference(graph, p)


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
    from hyperplan import ground_strategy, reuse_pipeline

    from conftest import verify_grounding

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


# --- reference: the first implementation of steps 1 and 3 ---------------------
#
# Kept verbatim (renamed) so the single-pass rewrite can be compared against
# it: same object-level graphs (via included), same critical sets, same
# strategies.

def _reference_remove_robot_entities(graph):
    if not any(e.is_robot for e in graph.entities()):
        return graph
    objcomp = {nid: frozenset(e for e in n.composition if not e.is_robot)
               for nid, n in graph.nodes.items()}

    leader: dict = {}
    comp_of: dict = {}
    facts_of: dict = {}
    via_of: dict = {}
    for nid in graph.sources:
        if objcomp[nid]:
            leader[nid] = nid
            comp_of[nid] = objcomp[nid]
            facts_of[nid] = object_facts(graph.nodes[nid].state)
            via_of[nid] = list(graph.nodes[nid].via)

    def sorted_comps(comps):
        return sorted(comps, key=lambda c: tuple(sorted(c)))

    kept = []
    for aid in topological_order(graph):
        arc = graph.arcs[aid]
        tails = sorted({leader[t] for t in arc.tails if t in leader})
        heads = [(hid, objcomp[hid]) for hid in sorted(arc.heads) if objcomp[hid]]
        if not heads:
            continue
        same_content = sorted_comps(comp_of[g] for g in tails) == \
            sorted_comps(c for _, c in heads)
        head_facts = frozenset(
            f for hid, _ in heads
            for f in object_facts(graph.nodes[hid].state))
        tail_facts = frozenset(f for g in tails for f in facts_of[g])
        if same_content and head_facts <= tail_facts:
            by_comp = {comp_of[g]: g for g in tails}
            for hid, comp in heads:
                group = by_comp[comp]
                leader[hid] = group
                via_of[group].append(arc.label)
        else:
            for hid, comp in heads:
                leader[hid] = hid
                comp_of[hid] = comp
                facts_of[hid] = object_facts(graph.nodes[hid].state)
                via_of[hid] = [arc.label]
            kept.append((aid, tails, [hid for hid, _ in heads]))

    builder = HypergraphBuilder()
    new_id: dict = {}
    for nid in graph.sources:
        if leader.get(nid) == nid:
            new_id[nid] = builder.add_node(
                comp_of[nid], facts_of[nid], via=tuple(via_of[nid]))
    for aid, tails, heads in kept:
        for hid in heads:
            new_id[hid] = builder.add_node(
                comp_of[hid], facts_of[hid], via=tuple(via_of[hid]))
        builder.add_arc(graph.arcs[aid].label,
                        {new_id[g] for g in tails},
                        {new_id[h] for h in heads})
    return builder.build()


def _reference_member_order(names, facts, index_of=None):
    def key(name):
        fact = facts.get(name)
        if isinstance(fact, OnStack):
            return (0, fact.height)
        if index_of is not None:
            return (1, index_of.get(name, 0))
        return (1, 0)

    return sorted(names, key=lambda n: (key(n), n))


def _reference_abstract_labels(h_obj, critical, p):
    order = topological_order(h_obj)
    covered = {e.name
               for arc in h_obj.arcs.values()
               for nid in arc.tails | arc.heads
               for e in h_obj.nodes[nid].composition} | p.goal_objects

    def node_facts(nid):
        return {f.obj: f for f in h_obj.nodes[nid].state
                if isinstance(f, (OnStack, InBuffer))}

    index_of: dict = {}
    for nid in h_obj.sources:
        members = [e.name for e in h_obj.nodes[nid].composition]
        for name in _reference_member_order(members, node_facts(nid)):
            if name in covered and name not in index_of:
                index_of[name] = len(index_of)

    protos: list = []
    used_regions: list = []

    def add_proto(members, facts) -> int:
        ordered = tuple(_reference_member_order(members, facts, index_of))
        regions = {facts[m].region for m in ordered
                   if isinstance(facts.get(m), (OnStack, InBuffer))}
        region = None
        placed: tuple = ()
        if len(regions) == 1 and all(m in facts for m in ordered):
            region = next(iter(regions))
            placed = ordered
            if region not in used_regions:
                used_regions.append(region)
        protos.append((ordered, region, placed))
        return len(protos) - 1

    frontier: dict = {}
    for nid in h_obj.sources:
        members = [e.name for e in h_obj.nodes[nid].composition
                   if e.name in covered]
        if not members:
            continue
        pid = add_proto(members, node_facts(nid))
        for m in members:
            frontier[m] = pid

    producer = {nid: aid for aid, arc in h_obj.arcs.items() for nid in arc.heads}
    position = {aid: i for i, aid in enumerate(order)}
    pending = sorted((nid for nid in critical if nid in producer),
                     key=lambda nid: (position[producer[nid]], nid))

    live_facts: dict = {}
    for nid in h_obj.sources:
        live_facts.update(node_facts(nid))
    cursor = 0

    proto_arcs: list = []
    for c in pending:
        stop = position[producer[c]]
        while cursor <= stop:
            arc = h_obj.arcs[order[cursor]]
            for hid in sorted(arc.heads):
                facts = node_facts(hid)
                for e in h_obj.nodes[hid].composition:
                    if facts.get(e.name) is None:
                        live_facts.pop(e.name, None)
                    else:
                        live_facts[e.name] = facts[e.name]
            cursor += 1
        members_c = {e.name for e in h_obj.nodes[c].composition}
        tail_pids = sorted({frontier[m] for m in members_c})
        head_pids = [add_proto(members_c, node_facts(c))]
        for m in members_c:
            frontier[m] = head_pids[0]
        for t in tail_pids:
            leftover = [m for m in protos[t][0] if m not in members_c]
            if leftover:
                pid = add_proto(leftover, live_facts)
                for m in leftover:
                    frontier[m] = pid
                head_pids.append(pid)
        proto_arcs.append((tuple(tail_pids), tuple(head_pids)))

    target_index = {r: i for i, r in enumerate(p.goal)}
    source_index: dict = {}
    for r in used_regions:
        if r not in target_index and p.region_map[r].kind != BUFFER:
            source_index[r] = len(source_index)

    def role_of(region_id):
        if region_id is None:
            return None
        if region_id in target_index:
            return TargetRole(target_index[region_id])
        if p.region_map[region_id].kind == BUFFER:
            return BufferRole()
        return SourceRole(source_index[region_id])

    nodes = {}
    for pid, (members, region, placed) in enumerate(protos):
        nodes[pid] = AbstractNode(
            id=pid,
            composition=frozenset(AbstractObject(index_of[m]) for m in members),
            region=role_of(region),
            stack_order=tuple(AbstractObject(index_of[m]) for m in placed),
        )
    arcs = {i: Hyperarc(i, ABSTRACT, frozenset(t), frozenset(h))
            for i, (t, h) in enumerate(proto_arcs)}

    goal_stacks = {}
    for region, want in p.goal.items():
        if all(o in index_of for o in want):
            goal_stacks[TargetRole(target_index[region])] = tuple(
                AbstractObject(index_of[o]) for o in want)
    return AbstractHypergraph(nodes, arcs, goal_stacks)


def _contracted_labels(h_obj) -> list:
    """Labels that reached an object-level node only through contraction:
    every ``via`` entry but a produced node's first (its creating arc)."""
    produced = {nid for arc in h_obj.arcs.values() for nid in arc.heads}
    return [label for nid, node in h_obj.nodes.items()
            for label in (node.via[1:] if nid in produced else node.via)]


def _assert_matches_reference(graph, p) -> list:
    """Steps 1-3 equal the reference's on ``graph``; returns the contracted
    labels of its object-level graph."""
    h_obj = remove_robot_entities(graph)
    h_ref = _reference_remove_robot_entities(graph)
    assert [(n, n.via) for n in h_obj.nodes.values()] == \
        [(n, n.via) for n in h_ref.nodes.values()]
    assert dict(h_obj.arcs) == dict(h_ref.arcs)
    critical = select_critical_nodes(h_obj, p)
    assert critical == select_critical_nodes(h_ref, p)
    ah = abstract_labels(h_obj, critical, p)
    ah_ref = _reference_abstract_labels(h_ref, critical, p)
    assert ah == ah_ref
    assert canonical_form(ah) == canonical_form(ah_ref)
    assert record_to_json(make_record("r", ah, "s", created_at="t")) == \
        record_to_json(make_record("r", ah_ref, "s", created_at="t"))
    assert extract_strategy(graph, p) == ah
    return _contracted_labels(h_obj)


def test_abstraction_matches_reference_on_the_corpus():
    from hyperplan import NoSolution

    checked = 0
    for seed in range(400):
        p = random_instance(seed, 4, 2, 4)
        try:
            graph, _ = plan(p)
        except NoSolution:
            continue
        read_back = plan_from_json(json.loads(json.dumps(plan_to_json(graph, "x"))))
        for g in (graph, read_back):
            _assert_matches_reference(g, p)
        checked += 1
    assert checked >= 250


def _walk_plan(seed: int):
    """A random walk on a corpus instance, cut after its last step with no
    object held, compiled with the walk's final stacks as the goal; None
    when no such step exists."""
    from hyperplan import applicable_actions, apply, build_hypergraph

    p = random_instance(seed, 4, 2, 4)
    rng = random.Random(seed)
    state, actions, cut, final = p.initial, [], 0, None
    for _ in range(rng.randint(1, 16)):
        options = applicable_actions(state, p)
        if not options:
            break
        actions.append(rng.choice(options))
        state = apply(state, actions[-1], p)
        if not state.holdings:
            cut, final = len(actions), state
    if not cut:
        return None
    goal_p = replace(p, goal={r: s for r, s in final.stacks.items() if s})
    return build_hypergraph(actions[:cut], goal_p), goal_p


def test_abstraction_matches_reference_on_random_walk_plans():
    walks = 0
    contracted_places = 0
    for seed in range(300):
        walk = _walk_plan(seed)
        if walk is None:
            continue
        labels = _assert_matches_reference(*walk)
        contracted_places += sum(isinstance(lab, Place) for lab in labels)
        walks += 1
    assert walks >= 200
    # a Place that puts an object back where it was picked contracts, and
    # select_critical_nodes reads it in via
    assert contracted_places >= 1


def test_every_goal_object_is_a_member_of_a_source_of_the_object_graph():
    """The premise of ``abstract_labels`` indexing every goal object before
    it builds ``goal_stacks``: the walk indexes the covered members of the
    sources first, and every goal object is one of them. Over the corpus
    and the random-walk plans, whose goals are their final stacks."""
    from hyperplan import NoSolution

    cases = []
    for seed in range(400):
        p = random_instance(seed, 4, 2, 4)
        try:
            cases.append((plan(p)[0], p))
        except NoSolution:
            pass
    cases += filter(None, map(_walk_plan, range(300)))
    for graph, p in cases:
        h_obj = remove_robot_entities(graph)
        members = {e.name for nid in h_obj.sources for e in h_obj.nodes[nid].composition}
        assert p.goal_objects <= members
        ah = extract_strategy(graph, p)
        assert sorted(map(len, ah.goal_stacks.values())) == sorted(map(len, p.goal.values()))
    assert len(cases) >= 2 * 250
