import pytest

from hyperplan.hypergraph import (
    ABSTRACT,
    CycleDetected,
    Entity,
    Hyperarc,
    HypergraphBuilder,
    InvalidHypergraph,
    Node,
    RenderStyle,
    SolutionHypergraph,
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


def test_valid_chain_passes_validation():
    graph = chain_graph()
    assert validate_hyperpath(graph).ok
    assert graph.sources == (0, 1)
    assert graph.sinks == (3, 4)


def test_zero_arc_graph_is_a_vacuous_hyperpath():
    b = HypergraphBuilder()
    b.add_node({robot("r")})
    b.add_node({obj("x")})
    graph = b.build()
    report = validate_hyperpath(graph)
    assert report.ok
    assert topological_order(graph) == []


def test_entity_conservation_violation_reported():
    nodes = {
        0: Node(0, frozenset({obj("x"), obj("y")})),
        1: Node(1, frozenset({obj("x")})),
    }
    arcs = {0: Hyperarc(0, None, frozenset({0}), frozenset({1}))}
    report = validate_hyperpath(SolutionHypergraph(nodes, arcs))
    assert any(v.code == "entity-conservation" for v in report.violations)


def test_double_production_and_consumption_reported():
    nodes = {i: Node(i, frozenset({obj(f"x{i}")})) for i in range(4)}
    arcs = {
        0: Hyperarc(0, None, frozenset({0}), frozenset({2})),
        1: Hyperarc(1, None, frozenset({0}), frozenset({2})),
    }
    report = validate_hyperpath(SolutionHypergraph(nodes, arcs))
    codes = {v.code for v in report.violations}
    assert "double-production" in codes
    assert "double-consumption" in codes


def test_dangling_reference_reported():
    nodes = {0: Node(0, frozenset({obj("x")}))}
    arcs = {0: Hyperarc(0, None, frozenset({0}), frozenset({9}))}
    report = validate_hyperpath(SolutionHypergraph(nodes, arcs))
    assert any(v.code == "dangling-node" for v in report.violations)


def test_cycle_reported_and_raised():
    nodes = {i: Node(i, frozenset({obj("x")})) for i in range(2)}
    arcs = {
        0: Hyperarc(0, None, frozenset({0}), frozenset({1})),
        1: Hyperarc(1, None, frozenset({1}), frozenset({0})),
    }
    graph = SolutionHypergraph(nodes, arcs)
    assert any(v.code == "cycle" for v in validate_hyperpath(graph).violations)
    with pytest.raises(CycleDetected):
        topological_order(graph)


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
    with pytest.raises(ValueError, match="consumed"):
        b.add_arc("again", {n0}, {b.add_node({obj("x")})})
    with pytest.raises(ValueError, match="produced"):
        b.add_arc("again", {b.add_node({obj("x")})}, {n1})


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
    text = to_dot(b.build(), RenderStyle(graph_name="strategy"))
    assert "style=dashed" in text
    assert text.count("style=dashed") == 1
