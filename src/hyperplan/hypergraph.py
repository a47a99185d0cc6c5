"""Directed hypergraphs over entity compositions.

A plan is encoded as a *hyperpath*: a directed acyclic hypergraph in which
every node (an entity composition at one moment in time) is produced by at
most one hyperarc and consumed by at most one hyperarc, and every hyperarc
conserves the multiset of entities between its tail and head nodes. Arc
ids are the plan's order: an arc consumes only source nodes and nodes
that lower-id arcs produced, so the ids are a topological order and the
graph cannot hold a cycle.

Node and arc ids are dense integers assigned in creation order; all
downstream determinism (arc order, DOT output, abstraction) relies on
that. Graphs are immutable once built; transformations always construct
new graphs. ``HypergraphBuilder.build`` validates what it seals, so a plan
compiled through it is checked once, as it is compiled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import singledispatch
from types import MappingProxyType
from typing import Iterable, Mapping

ROBOT = "robot"
OBJECT = "object"


@dataclass(frozen=True, order=True)
class Entity:
    """A planning participant: a robot or a manipulable object.

    Names are unique within a kind, and a robot never shares a name with
    an object inside one problem.
    """

    kind: str
    name: str

    def __post_init__(self) -> None:
        if self.kind not in (ROBOT, OBJECT):
            raise ValueError(f"unknown entity kind: {self.kind!r}")

    @property
    def is_robot(self) -> bool:
        return self.kind == ROBOT


def robot(name: str) -> Entity:
    return Entity(ROBOT, name)


def obj(name: str) -> Entity:
    return Entity(OBJECT, name)


class AbstractMarker:
    """Sentinel label for hyperarcs that carry no concrete action."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSTRACT"


ABSTRACT = AbstractMarker()


@dataclass(frozen=True)
class Node:
    """One entity composition at one moment.

    ``state`` holds local assertions (placement and holding facts) that may
    mention only entities of the composition; the hypergraph layer treats
    them as opaque hashables. ``via`` records the labels of the arcs that
    created or were contracted onto this node, oldest first; it is history,
    not identity, and is excluded from equality.
    """

    id: int
    composition: frozenset
    state: frozenset = frozenset()
    via: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.composition:
            raise ValueError("node composition must be non-empty")


@dataclass(frozen=True)
class Hyperarc:
    """One action (or abstract transition) from tail nodes to head nodes."""

    id: int
    label: object
    tails: frozenset
    heads: frozenset

    def __post_init__(self) -> None:
        if not self.tails or not self.heads:
            raise ValueError("hyperarc tails and heads must be non-empty")
        if self.tails & self.heads:
            raise ValueError("hyperarc tails and heads must be disjoint")


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidHypergraph(ValueError):
    """Raised when a builder would seal a graph violating hyperpath rules."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(v.detail for v in report.violations)
        super().__init__(f"invalid hyperpath: {lines}")


@dataclass(frozen=True, eq=False)
class HypergraphTable:
    """Immutable table of nodes and hyperarcs, shared by every graph flavour.

    Every field is a mapping, copied into a read-only view on construction.
    Equality compares all fields and is type-strict, so graphs of different
    flavours never compare equal.
    """

    nodes: Mapping[int, object]
    arcs: Mapping[int, Hyperarc]

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(
                self, f.name, MappingProxyType(dict(getattr(self, f.name))))

    @property
    def sources(self) -> tuple:
        """Node ids with no producing arc, ascending."""
        produced = {n for a in self.arcs.values() for n in a.heads}
        return tuple(i for i in sorted(self.nodes) if i not in produced)

    @property
    def sinks(self) -> tuple:
        """Node ids with no consuming arc, ascending."""
        consumed = {n for a in self.arcs.values() for n in a.tails}
        return tuple(i for i in sorted(self.nodes) if i not in consumed)

    def entities(self) -> frozenset:
        return frozenset(e for n in self.nodes.values() for e in n.composition)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(dict(getattr(self, f.name)) == dict(getattr(other, f.name))
                   for f in fields(self))

    def __hash__(self) -> int:
        return hash((frozenset(self.nodes), frozenset(self.arcs)))


@dataclass(frozen=True, eq=False)
class SolutionHypergraph(HypergraphTable):
    """Concrete nodes and action-labelled hyperarcs forming (ideally) a hyperpath."""


def hyperpath_violations(compositions: Mapping[int, frozenset],
                         arcs: Mapping[int, Hyperarc]) -> list:
    """Structural hyperpath checks shared by concrete and abstract graphs.

    Reports dangling node references, double production, double consumption,
    per-arc entity-conservation failures, and arcs out of order: an arc may
    consume only source nodes and nodes a lower-id arc produced. Ids in
    dependency order also rule out every cycle.
    """
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
        tail_ents = Counter(
            e for nid in arc.tails for e in compositions.get(nid, ()))
        head_ents = Counter(
            e for nid in arc.heads for e in compositions.get(nid, ()))
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


def validate_hyperpath(graph: SolutionHypergraph) -> ValidationReport:
    """Check every hyperpath invariant; violations are data, not errors."""
    comps = {nid: n.composition for nid, n in graph.nodes.items()}
    return ValidationReport(tuple(hyperpath_violations(comps, graph.arcs)))


def topological_order(graph: SolutionHypergraph) -> list:
    """Arc ids in dependency order: a valid hyperpath lists its arcs in it."""
    return sorted(graph.arcs)


class HypergraphBuilder:
    """Incremental constructor that enforces hyperpath discipline.

    ``add_arc`` refuses to consume a node twice or to produce a node twice,
    so graphs assembled through the builder satisfy the discipline by
    construction; ``build`` additionally runs the full validator.
    """

    def __init__(self) -> None:
        self._nodes: dict = {}
        self._arcs: dict = {}
        self._produced: set = set()
        self._consumed: set = set()

    def add_node(self, composition: Iterable, state: Iterable = (),
                 via: tuple = ()) -> int:
        nid = len(self._nodes)
        self._nodes[nid] = Node(nid, frozenset(composition), frozenset(state), via)
        return nid

    def node(self, nid: int) -> Node:
        return self._nodes[nid]

    def add_arc(self, label: object, tails: Iterable, heads: Iterable) -> int:
        tails = frozenset(tails)
        heads = frozenset(heads)
        for nid in tails | heads:
            if nid not in self._nodes:
                raise ValueError(f"unknown node id {nid}")
        for nid in tails:
            if nid in self._consumed:
                raise ValueError(f"node {nid} already consumed")
        for nid in heads:
            if nid in self._produced:
                raise ValueError(f"node {nid} already produced")
        aid = len(self._arcs)
        self._arcs[aid] = Hyperarc(aid, label, tails, heads)
        self._consumed |= tails
        self._produced |= heads
        return aid

    def build(self) -> SolutionHypergraph:
        graph = SolutionHypergraph(self._nodes, self._arcs)
        report = validate_hyperpath(graph)
        if not report.ok:
            raise InvalidHypergraph(report)
        return graph


# --- DOT rendering -----------------------------------------------------

@singledispatch
def node_dot_label(node) -> str:
    """Text for a node ellipse; other graph flavours register overrides."""
    names = sorted(node.composition)
    return ", ".join(getattr(e, "name", str(e)) for e in names)


@singledispatch
def arc_dot_label(label) -> str:
    if label is None or label is ABSTRACT:
        return ""
    return str(label)


def arc_is_dashed(label) -> bool:
    return label is ABSTRACT or getattr(label, "dot_dashed", False)


def _quote(label: str) -> str:
    # label builders emit intentional \n separators, so only quotes need care
    return label.replace('"', '\\"')


def to_dot(graph, graph_name: str = "plan") -> str:
    """Bipartite DOT text: composition ellipses, one junction box per arc.

    Every hyperarc is drawn as a rectangle with tail -> junction -> head
    edges; abstract hyperarcs (and labels that ask for it) come out dashed.
    """
    lines = [f"digraph {graph_name} {{", "  rankdir=LR;"]
    for nid in sorted(graph.nodes):
        label = _quote(node_dot_label(graph.nodes[nid]))
        lines.append(f'  n{nid} [shape=ellipse, label="{label}"];')
    for aid in sorted(graph.arcs):
        arc = graph.arcs[aid]
        text = arc_dot_label(arc.label)
        label = f"{aid + 1}: {text}" if text else f"{aid + 1}"
        dashed = ", style=dashed" if arc_is_dashed(arc.label) else ""
        lines.append(f'  a{aid} [shape=box, label="{_quote(label)}"{dashed}];')
        for nid in sorted(arc.tails):
            lines.append(f"  n{nid} -> a{aid};")
        for nid in sorted(arc.heads):
            lines.append(f"  a{aid} -> n{nid};")
    lines.append("}")
    return "\n".join(lines) + "\n"
