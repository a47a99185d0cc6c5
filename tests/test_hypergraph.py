import random
from collections import Counter

import pytest

from hyperplan.abstraction import (
    AbstractHypergraph,
    AbstractNode,
    AbstractObject,
    ah_violations,
)
from hyperplan.hypergraph import (
    ABSTRACT,
    Entity,
    Hyperarc,
    HypergraphBuilder,
    InvalidHypergraph,
    Node,
    SolutionHypergraph,
    Violation,
    hyperpath_violations,
    obj,
    robot,
    to_dot,
    topological_order,
    validate_hyperpath,
)


def chain_graph():
    """Two source nodes feeding one arc, whose head feeds a second arc."""
    b = HypergraphBuilder()
    n0 = b.add_node({robot("r"), })
    n1 = b.add_node({obj("x")})
    n2 = b.add_node({robot("r"), obj("x")})
    b.add_arc("grab", {n0, n1}, {n2})
    n3 = b.add_node({robot("r")})
    n4 = b.add_node({obj("x")})
    b.add_arc("drop", {n2}, {n3, n4})
    return b.build()


def test_entity_kinds_and_ordering():
    assert robot("blue").is_robot
    assert not obj("A").is_robot
    assert robot("a") != obj("a")
    with pytest.raises(ValueError):
        Entity("pet", "rex")


def test_node_requires_composition():
    with pytest.raises(ValueError):
        Node(0, frozenset())


def test_hyperarc_shape_invariants():
    with pytest.raises(ValueError):
        Hyperarc(0, None, frozenset(), frozenset({1}))
    with pytest.raises(ValueError):
        Hyperarc(0, None, frozenset({1}), frozenset({1}))


def test_node_equality_ignores_via():
    comp, state = frozenset({obj("x")}), frozenset({"fact"})
    first = Node(3, comp, state, via=("pick",))
    second = Node(3, comp, state, via=("place", "pick"))
    assert first == second and hash(first) == hash(second)
    assert first != Node(4, comp, state, via=("pick",))
    assert first != Node(3, comp, frozenset(), via=("pick",))
    assert repr(first) == (f"Node(id=3, composition={comp!r}, state={state!r}, "
                           "via=('pick',))")


def test_records_of_different_classes_are_unequal():
    node = Node(0, frozenset({0}), frozenset({1}))
    arc = Hyperarc(0, frozenset({0}), frozenset({1}), frozenset({2}))
    assert node != arc and arc != node
    assert arc == Hyperarc(0, frozenset({0}), frozenset({1}), frozenset({2}))
    assert repr(arc) == ("Hyperarc(id=0, label=frozenset({0}), tails=frozenset({1}), "
                         "heads=frozenset({2}))")


def test_valid_chain_passes_validation():
    graph = chain_graph()
    assert validate_hyperpath(graph) == []
    assert graph.sources == (0, 1)
    assert graph.sinks == (3, 4)


def test_zero_arc_graph_is_a_vacuous_hyperpath():
    b = HypergraphBuilder()
    b.add_node({robot("r")})
    b.add_node({obj("x")})
    graph = b.build()
    report = validate_hyperpath(graph)
    assert report == []
    assert topological_order(graph) == []


def test_entity_conservation_violation_reported():
    nodes = {
        0: Node(0, frozenset({obj("x"), obj("y")})),
        1: Node(1, frozenset({obj("x")})),
    }
    arcs = {0: Hyperarc(0, None, frozenset({0}), frozenset({1}))}
    report = validate_hyperpath(SolutionHypergraph(nodes, arcs))
    assert any(v.code == "entity-conservation" for v in report)


def counter_conservation(compositions, arcs) -> list:
    """Entity-conservation violations by definition: per-arc entity multisets."""
    out = []
    for aid in sorted(arcs):
        arc = arcs[aid]
        tail = Counter(e for nid in arc.tails for e in compositions.get(nid, ()))
        head = Counter(e for nid in arc.heads for e in compositions.get(nid, ()))
        if tail != head:
            missing = sorted(str(e) for e in tail - head)
            extra = sorted(str(e) for e in head - tail)
            out.append(Violation(
                "entity-conservation",
                f"arc {aid} loses {missing or '[]'} and gains {extra or '[]'}"))
    return out


x0, x1 = AbstractObject(0), AbstractObject(1)
CONSERVATION_CASES = {
    # name: (node compositions, [(tails, heads)] in arc id order, violations)
    "conserving": ({0: {robot("r")}, 1: {obj("x")}, 2: {robot("r"), obj("x")},
                    3: {robot("r")}, 4: {obj("x")}},
                   [({0, 1}, {2}), ({2}, {3, 4})], 0),
    "loses-an-entity": ({0: {obj("x"), obj("y")}, 1: {obj("x")}}, [({0}, {1})], 1),
    "gains-an-entity": ({0: {obj("x")}, 1: {obj("x"), obj("y")}}, [({0}, {1})], 1),
    "repeated-in-tails-and-heads": (
        {0: {robot("r"), obj("x")}, 1: {obj("x")}, 2: {obj("x")},
         3: {robot("r"), obj("x")}},
        [({0, 1}, {2, 3})], 0),
    "repeated-in-tails-only": (
        {0: {robot("r"), obj("x")}, 1: {obj("x")}, 2: {robot("r"), obj("x")}},
        [({0, 1}, {2})], 1),
    "dangling-tail": ({1: {obj("x")}}, [({0}, {1})], 1),
    "abstract": ({0: {x0, x1}, 1: {x0}, 2: {x1}, 3: {x0, x1}},
                 [({0}, {1, 2}), ({1}, {3})], 1),
}


@pytest.mark.parametrize("case", sorted(CONSERVATION_CASES))
def test_conservation_check_matches_the_multiset_definition(case):
    comps, arc_ends, expected = CONSERVATION_CASES[case]
    comps = {nid: frozenset(c) for nid, c in comps.items()}
    arcs = {aid: Hyperarc(aid, ABSTRACT, frozenset(t), frozenset(h))
            for aid, (t, h) in enumerate(arc_ends)}
    reported = [v for v in hyperpath_violations(comps, arcs)
                if v.code == "entity-conservation"]
    assert reported == counter_conservation(comps, arcs)
    assert len(reported) == expected
    if case == "abstract":
        ah = AbstractHypergraph(
            {nid: AbstractNode(nid, c) for nid, c in comps.items()}, arcs, {})
        assert [v for v in ah_violations(ah)
                if v.code == "entity-conservation"] == reported


def test_double_production_and_consumption_reported():
    nodes = {i: Node(i, frozenset({obj(f"x{i}")})) for i in range(4)}
    arcs = {
        0: Hyperarc(0, None, frozenset({0}), frozenset({2})),
        1: Hyperarc(1, None, frozenset({0}), frozenset({2})),
    }
    report = validate_hyperpath(SolutionHypergraph(nodes, arcs))
    codes = {v.code for v in report}
    assert "double-production" in codes
    assert "double-consumption" in codes


def test_dangling_reference_reported():
    nodes = {0: Node(0, frozenset({obj("x")}))}
    arcs = {0: Hyperarc(0, None, frozenset({0}), frozenset({9}))}
    report = validate_hyperpath(SolutionHypergraph(nodes, arcs))
    assert any(v.code == "dangling-node" for v in report)


def test_cycle_reported_as_arc_order():
    nodes = {i: Node(i, frozenset({obj("x")})) for i in range(2)}
    arcs = {
        0: Hyperarc(0, None, frozenset({0}), frozenset({1})),
        1: Hyperarc(1, None, frozenset({1}), frozenset({0})),
    }
    graph = SolutionHypergraph(nodes, arcs)
    report = validate_hyperpath(graph)
    assert [v.code for v in report] == ["arc-order"]
    assert report[0].detail == "arc 0 consumes node 0, produced by arc 1"


def test_acyclic_arcs_out_of_id_order_are_reported():
    # arc 0 consumes the node arc 1 produces: no cycle, but the ids are
    # not the dependency order
    nodes = {i: Node(i, frozenset({obj("x")})) for i in range(3)}
    arcs = {
        0: Hyperarc(0, "second", frozenset({1}), frozenset({2})),
        1: Hyperarc(1, "first", frozenset({0}), frozenset({1})),
    }
    report = validate_hyperpath(SolutionHypergraph(nodes, arcs))
    assert report != []
    assert [v.code for v in report] == ["arc-order"]
    # the same arcs numbered in dependency order are a valid hyperpath
    arcs = {
        0: Hyperarc(0, "first", frozenset({0}), frozenset({1})),
        1: Hyperarc(1, "second", frozenset({1}), frozenset({2})),
    }
    assert validate_hyperpath(SolutionHypergraph(nodes, arcs)) == []


def test_builder_build_rejects_arcs_out_of_order():
    b = HypergraphBuilder()
    n = [b.add_node({obj("x")}) for _ in range(3)]
    b.add_arc("second", {n[1]}, {n[2]})
    b.add_arc("first", {n[0]}, {n[1]})
    with pytest.raises(InvalidHypergraph, match="produced by arc 1"):
        b.build()


def test_topological_order_respects_dependencies_and_ids():
    graph = chain_graph()
    assert topological_order(graph) == [0, 1]

    # two independent arcs: tie broken by ascending id
    b = HypergraphBuilder()
    n = [b.add_node({obj(f"x{i}")}) for i in range(4)]
    b.add_arc("a", {n[0]}, {b.add_node({obj("x0")})})
    b.add_arc("b", {n[1]}, {b.add_node({obj("x1")})})
    assert topological_order(b.build()) == [0, 1]


def test_builder_enforces_hyperpath_discipline():
    b = HypergraphBuilder()
    n0 = b.add_node({obj("x")})
    n1 = b.add_node({obj("x")})
    b.add_arc("move", {n0}, {n1})
    b.add_arc("again", {n0}, {b.add_node({obj("x")})})
    with pytest.raises(InvalidHypergraph, match="consumed by arcs"):
        b.build()
    b = HypergraphBuilder()
    n0 = b.add_node({obj("x")})
    n1 = b.add_node({obj("x")})
    b.add_arc("move", {n0}, {n1})
    b.add_arc("again", {b.add_node({obj("x")})}, {n1})
    with pytest.raises(InvalidHypergraph, match="produced by arcs"):
        b.build()


def test_builder_build_rejects_conservation_failure():
    b = HypergraphBuilder()
    n0 = b.add_node({obj("x"), obj("y")})
    n1 = b.add_node({obj("x")})
    b.add_arc("lossy", {n0}, {n1})
    with pytest.raises(InvalidHypergraph):
        b.build()


def test_graph_is_immutable():
    graph = chain_graph()
    with pytest.raises(TypeError):
        graph.nodes[99] = None


def test_graph_equality_is_by_content_and_type_strict():
    from hyperplan.abstraction import AbstractHypergraph, AbstractNode, AbstractObject

    graph = chain_graph()
    again = chain_graph()
    assert graph == again and hash(graph) == hash(again)
    assert graph.sources == (0, 1) and graph.sinks == (3, 4)
    assert graph.entities() == {robot("r"), obj("x")}

    x = AbstractObject(0)
    nodes = {0: AbstractNode(0, frozenset({x})), 1: AbstractNode(1, frozenset({x}))}
    arcs = {0: Hyperarc(0, ABSTRACT, frozenset({0}), frozenset({1}))}
    ah = AbstractHypergraph(nodes, arcs, {})
    assert ah == AbstractHypergraph(dict(nodes), dict(arcs), {})
    assert ah != AbstractHypergraph(nodes, arcs, {"t": (x,)})  # goal stacks count
    assert ah.sources == (0,) and ah.sinks == (1,)
    assert ah.abstract_objects == ah.entities() == {x}
    with pytest.raises(TypeError):
        ah.goal_stacks["t"] = ()
    # same table, different flavour: never equal
    assert SolutionHypergraph(nodes, arcs) != ah
    assert ah != SolutionHypergraph(nodes, arcs)


def test_dot_empty_graph():
    text = to_dot(SolutionHypergraph({}, {}))
    assert text.startswith("digraph plan {")
    assert "shape=ellipse" not in text


def test_dot_structural_counts():
    b = HypergraphBuilder()
    n1 = b.add_node({obj("x")})
    n2 = b.add_node({obj("y")})
    n3 = b.add_node({obj("x"), obj("y")})
    b.add_arc("join", {n1, n2}, {n3})
    text = to_dot(b.build())
    assert text.count("shape=ellipse") == 3
    assert text.count("shape=box") == 1
    assert text.count("->") == 3


def test_dot_abstract_arcs_are_dashed():
    b = HypergraphBuilder()
    n1 = b.add_node({obj("x")})
    n2 = b.add_node({obj("x")})
    b.add_arc(ABSTRACT, {n1}, {n2})
    text = to_dot(b.build(), graph_name="strategy")
    assert "style=dashed" in text
    assert text.count("style=dashed") == 1


_NONE = frozenset()


def reference_violations(compositions, arcs) -> list:
    """``hyperpath_violations`` as it was before its one-pass check, kept as
    the reference for the report: the same codes, details and order."""
    out = []
    producers: dict = {}
    consumers: dict = {}
    for aid in sorted(arcs):
        arc = arcs[aid]
        for nid in sorted(arc.tails | arc.heads):
            if nid not in compositions:
                out.append(Violation(
                    "dangling-node", f"arc {aid} references missing node {nid}"))
        for nid in sorted(arc.heads):
            if nid in producers:
                out.append(Violation(
                    "double-production",
                    f"node {nid} produced by arcs {producers[nid]} and {aid}"))
            else:
                producers[nid] = aid
        for nid in sorted(arc.tails):
            if nid in consumers:
                out.append(Violation(
                    "double-consumption",
                    f"node {nid} consumed by arcs {consumers[nid]} and {aid}"))
            else:
                consumers[nid] = aid
        tail_comps = [compositions.get(nid, _NONE) for nid in arc.tails]
        head_comps = [compositions.get(nid, _NONE) for nid in arc.heads]
        tail_set = _NONE.union(*tail_comps)
        head_set = _NONE.union(*head_comps)
        if (len(tail_set) == sum(map(len, tail_comps))
                and len(head_set) == sum(map(len, head_comps))
                and tail_set == head_set):
            continue
        tail_ents = Counter(e for comp in tail_comps for e in comp)
        head_ents = Counter(e for comp in head_comps for e in comp)
        if tail_ents != head_ents:
            missing = sorted(str(e) for e in (tail_ents - head_ents))
            extra = sorted(str(e) for e in (head_ents - tail_ents))
            out.append(Violation(
                "entity-conservation",
                f"arc {aid} loses {missing or '[]'} and gains {extra or '[]'}"))
    for nid, aid in sorted(consumers.items()):
        if producers.get(nid, -1) >= aid:
            out.append(Violation(
                "arc-order",
                f"arc {aid} consumes node {nid}, produced by arc {producers[nid]}"))
    return out


def single_mutations(comps: dict, arcs: dict):
    """``(kind, compositions, arcs)`` per single mutation of a valid graph:
    a tail's node dropped, an entity moved from one head composition of an
    arc to the other, a head of a later arc replaced by one of an earlier
    arc's heads (arcs in id order), two arc ids swapped (arcs listed in id
    order, then in reverse)."""
    ids = sorted(arcs)
    for aid in ids:
        arc = arcs[aid]
        for nid in sorted(arc.tails):
            yield "drop-tail", {k: c for k, c in comps.items() if k != nid}, arcs
        if len(arc.heads) == 2:
            a, b = sorted(arc.heads)
            for src, dst in ((a, b), (b, a)):
                if len(comps[src]) > 1:
                    for e in sorted(comps[src]):
                        yield ("move-entity",
                               {**comps, src: comps[src] - {e}, dst: comps[dst] | {e}}, arcs)
        for other in ids:
            if other <= aid:
                continue
            later = arcs[other]
            for nid in sorted(arc.heads):
                if nid in later.tails:
                    continue
                heads = (later.heads - {min(later.heads)}) | {nid}
                yield ("double-production", comps,
                       {**arcs, other: Hyperarc(other, later.label, later.tails, heads)})
            swapped = {**arcs, aid: later, other: arc}   # still in id order
            yield "swap-ids", comps, swapped
            yield "swap-ids", comps, dict(reversed(swapped.items()))


EDGE_CASES = {
    # name: (node compositions, {arc id: (tails, heads)} in listing order, faulty)
    "repeats-on-both-sides-differ": (
        {0: {robot("r"), obj("x")}, 1: {obj("x")}, 2: {robot("r"), obj("x")}, 3: {robot("r")}},
        {0: ({0, 1}, {2, 3})}, True),
    "repeats-in-heads-only": ({0: {obj("x")}, 1: {obj("x")}, 2: {obj("x")}},
                              {0: ({0}, {1, 2})}, True),
    "dangling-head-on-a-conserving-arc": ({0: {obj("x")}, 1: {obj("x")}},
                                          {0: ({0}, {1, 9})}, True),
    "dangling-tail-on-a-conserving-arc": ({0: {obj("x")}, 1: {obj("x")}},
                                          {0: ({0, 9}, {1})}, True),
    "out-of-order-listed-backwards": ({i: {obj("x")} for i in range(3)},
                                      {1: ({0}, {1}), 0: ({1}, {2})}, True),
    "in-order-listed-backwards": ({i: {obj("x")} for i in range(3)},
                                  {1: ({1}, {2}), 0: ({0}, {1})}, False),
    "consumed-before-produced-then-produced-again": (
        {i: {obj("x")} for i in range(4)},
        {0: ({1}, {2}), 1: ({0}, {1}), 2: ({3}, {1})}, True),
    "consumed-twice-before-produced": ({i: {obj("x")} for i in range(4)},
                                       {0: ({1}, {2}), 1: ({1}, {3}), 2: ({0}, {1})}, True),
    "dangling-head-produced-twice": ({i: {obj("x")} for i in range(3)},
                                     {0: ({0}, {1, 9}), 1: ({1}, {2, 9})}, True),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_report_matches_the_reference_on_edge_cases(case):
    comps, arc_ends, faulty = EDGE_CASES[case]
    comps = {nid: frozenset(c) for nid, c in comps.items()}
    arcs = {aid: Hyperarc(aid, ABSTRACT, frozenset(t), frozenset(h))
            for aid, (t, h) in arc_ends.items()}
    want = reference_violations(comps, arcs)
    assert hyperpath_violations(comps, arcs) == want
    assert bool(want) == faulty


def test_report_matches_the_reference_on_mutated_corpus_graphs():
    from conftest import random_instance
    from hyperplan import applicable_actions, apply, build_hypergraph
    from hyperplan.planner import NoSolution, plan

    graphs = []
    for seed in range(400):
        try:
            graphs.append((seed, plan(random_instance(seed, 4, 2, 4))[0]))
        except NoSolution:
            continue
    # random walks add handoffs, buffer moves and longer plans than optimal ones
    for seed in range(40):
        p = random_instance(seed, 4, 2, 4)
        rng, state, actions = random.Random(seed), p.initial, []
        for _ in range(10):
            options = applicable_actions(state, p)
            if not options:
                break
            actions.append(rng.choice(options))
            state = apply(state, actions[-1], p)
        graphs.append((f"walk {seed}", build_hypergraph(actions, p)))
    made, reported = Counter(), Counter()
    for origin, graph in graphs:
        comps = {nid: n.composition for nid, n in graph.nodes.items()}
        arcs = dict(graph.arcs)
        assert hyperpath_violations(comps, arcs) == reference_violations(comps, arcs) == []
        for kind, mutated_comps, mutated_arcs in single_mutations(comps, arcs):
            want = reference_violations(mutated_comps, mutated_arcs)
            assert hyperpath_violations(mutated_comps, mutated_arcs) == want, (origin, kind)
            made[kind] += 1
            reported[kind] += bool(want)
    assert sum(made.values()) > 6_000
    # a dropped node and a doubly produced node are always faults; a swap
    # of independent arcs and a move into a head no arc consumes are not
    for kind in ("drop-tail", "double-production"):
        assert reported[kind] == made[kind], kind
    for kind in ("swap-ids", "move-entity"):
        assert 0 < reported[kind] < made[kind], kind
