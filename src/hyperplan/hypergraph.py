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

The check (``hyperpath_violations``) is one pass over the arcs in id
order: a valid arc costs a few set operations, and only an arc that
faults lists its violations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, singledispatch
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

    def __str__(self) -> str:
        return f"{self.kind} {self.name}"


def robot(name: str) -> Entity:
    return Entity(ROBOT, name)


def obj(name: str) -> Entity:
    return Entity(OBJECT, name)


class AbstractMarker:
    """Sentinel label for hyperarcs that carry no concrete action: the one
    instance is ``ABSTRACT``."""

    def __repr__(self) -> str:
        return "ABSTRACT"


ABSTRACT = AbstractMarker()


class Record:
    """Base of the compiled records: ``Node``, ``Hyperarc`` and the facts.

    A record is a ``__slots__`` object that is immutable by convention, as
    ``WorldState`` is: ``__init__`` sets each field once, with plain
    assignments, and nothing sets one later. ``_key`` is the tuple of the
    fields equality reads, so ``==`` compares one tuple, and records of
    different classes are never equal. ``__match_args__`` names every field
    in order, for ``repr`` and for the plan file's tag tables.
    """

    __slots__ = ("_key",)
    __match_args__: tuple = ()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({args})"


class Node(Record):
    """One entity composition at one moment.

    ``state`` holds local assertions (placement and holding facts) that may
    mention only entities of the composition; the hypergraph layer treats
    them as opaque hashables. ``via`` records the labels of the arcs that
    created or were contracted onto this node, oldest first; it is history,
    not identity, and is excluded from equality. A slotted ``Record``:
    compiling a node costs its plain field assignments and one key tuple.
    """

    __slots__ = __match_args__ = ("id", "composition", "state", "via")

    def __init__(self, id: int, composition: frozenset, state: frozenset = frozenset(),
                 via: tuple = ()) -> None:
        if not composition:
            raise ValueError("node composition must be non-empty")
        self.id, self.composition, self.state, self.via = id, composition, state, via
        self._key = (id, composition, state)


class Hyperarc(Record):
    """One action (or abstract transition) from tail nodes to head nodes; a
    slotted ``Record``, like ``Node``."""

    __slots__ = __match_args__ = ("id", "label", "tails", "heads")

    def __init__(self, id: int, label: object, tails: frozenset, heads: frozenset) -> None:
        if not tails or not heads:
            raise ValueError("hyperarc tails and heads must be non-empty")
        if not tails.isdisjoint(heads):
            raise ValueError("hyperarc tails and heads must be disjoint")
        self.id, self.label, self.tails, self.heads = id, label, tails, heads
        self._key = (id, label, tails, heads)


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


class InvalidHypergraph(ValueError):
    """Raised with the violations ``validate_hyperpath`` found in a graph."""

    def __init__(self, violations: list):
        lines = "; ".join(v.detail for v in violations)
        super().__init__(f"invalid hyperpath: {lines}")


@dataclass(frozen=True, eq=False)
class HypergraphTable:
    """Immutable table of nodes and hyperarcs, shared by every graph flavour.

    Every field is a mapping, copied into a read-only view on construction,
    so tables derived from the fields (``sources``, ``sinks``) are computed
    once, on first read. Equality compares all fields and is type-strict,
    so graphs of different flavours never compare equal.
    """

    nodes: Mapping[int, object]
    arcs: Mapping[int, Hyperarc]

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(
                self, f.name, MappingProxyType(dict(getattr(self, f.name))))

    @cached_property
    def sources(self) -> tuple:
        """Node ids with no producing arc, ascending."""
        produced = {n for a in self.arcs.values() for n in a.heads}
        return tuple(i for i in sorted(self.nodes) if i not in produced)

    @cached_property
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


_NONE = frozenset()


def hyperpath_violations(compositions: Mapping[int, frozenset],
                         arcs: Mapping[int, Hyperarc]) -> list:
    """Structural hyperpath checks shared by concrete and abstract graphs.

    Reports dangling node references, double production, double consumption,
    per-arc entity-conservation failures, and arcs out of order: an arc may
    consume only source nodes and nodes a lower-id arc produced. Ids in
    dependency order also rule out every cycle. An arc conserves entities
    when its tail and head compositions hold equal multisets of entities; a
    missing node holds none.

    One pass in arc id order decides each arc with a few set operations;
    only an arc that faults lists its dangling nodes, double productions
    and double consumptions (each in node order), then its conservation
    failure. Nodes first produced after an earlier arc consumed them
    follow, in node order, as arc-order violations.
    """
    out, late = [], []
    producers: dict = {}   # node -> first arc that produces it
    consumers: dict = {}   # node -> first arc that consumes it
    comp = compositions.get
    for aid in sorted(arcs):
        arc = arcs[aid]
        tails, heads = arc.tails, arc.heads
        # When no entity repeats within a side, the multisets are the two
        # unions. Unions reuse the hashes stored in the compositions; only
        # an arc that faults hashes its entities, into Counters.
        ok = True
        size = 0
        tail = head = _NONE
        for nid in tails:
            members = comp(nid)
            if consumers.setdefault(nid, aid) != aid or members is None:
                ok = False
            else:
                size += len(members)
                tail = tail | members if tail else members
        ok = ok and len(tail) == size
        for nid in heads:
            members = comp(nid)
            first = producers.setdefault(nid, aid)
            if first == aid and nid in consumers:
                late.append(nid)
            if first != aid or members is None:
                ok = False
            else:
                size -= len(members)
                head = head | members if head else members
        if ok and not size and head == tail:
            continue
        out += [Violation("dangling-node", f"arc {aid} references missing node {nid}")
                for nid in sorted(tails | heads) if nid not in compositions]
        out += [Violation("double-production",
                          f"node {nid} produced by arcs {producers[nid]} and {aid}")
                for nid in sorted(heads) if producers[nid] != aid]
        out += [Violation("double-consumption",
                          f"node {nid} consumed by arcs {consumers[nid]} and {aid}")
                for nid in sorted(tails) if consumers[nid] != aid]
        tail_ents = Counter(e for nid in tails for e in comp(nid, _NONE))
        head_ents = Counter(e for nid in heads for e in comp(nid, _NONE))
        if tail_ents != head_ents:
            out.append(Violation(
                "entity-conservation",
                f"arc {aid} loses {_listed(tail_ents - head_ents)} "
                f"and gains {_listed(head_ents - tail_ents)}"))
    for nid in sorted(late):
        out.append(Violation(
            "arc-order",
            f"arc {consumers[nid]} consumes node {nid}, produced by arc {producers[nid]}"))
    return out


def _listed(members) -> str:
    """``members`` by name, sorted, as ``[object C, robot blue]``."""
    return f"[{', '.join(sorted(map(str, members)))}]"


def validate_hyperpath(graph: HypergraphTable) -> list:
    """The hyperpath violations of a concrete or abstract graph; [] for a hyperpath."""
    comps = {nid: n.composition for nid, n in graph.nodes.items()}
    return hyperpath_violations(comps, graph.arcs)


def topological_order(graph: SolutionHypergraph) -> list:
    """Arc ids in dependency order: a valid hyperpath lists its arcs in it."""
    return sorted(graph.arcs)


class HypergraphBuilder:
    """Incremental constructor that assigns dense node and arc ids.

    ``add_arc`` records an arc as given; ``build`` runs the full validator,
    so a dangling node, a node consumed or produced twice, a conservation
    failure or an arc out of order is reported once, when the graph is
    sealed.
    """

    def __init__(self) -> None:
        self._nodes: dict = {}
        self._arcs: dict = {}

    def add_node(self, composition: Iterable, state: Iterable = (),
                 via: tuple = ()) -> int:
        nid = len(self._nodes)
        self._nodes[nid] = Node(nid, frozenset(composition), frozenset(state), via)
        return nid

    def node(self, nid: int) -> Node:
        return self._nodes[nid]

    def add_arc(self, label: object, tails: Iterable, heads: Iterable) -> int:
        aid = len(self._arcs)
        self._arcs[aid] = Hyperarc(aid, label, frozenset(tails), frozenset(heads))
        return aid

    def build(self) -> SolutionHypergraph:
        graph = SolutionHypergraph(self._nodes, self._arcs)
        violations = validate_hyperpath(graph)
        if violations:
            raise InvalidHypergraph(violations)
        return graph


# --- DOT rendering -----------------------------------------------------

@singledispatch
def node_dot_label(node) -> str:
    """Text for a node ellipse; other graph flavours register overrides."""
    names = sorted(node.composition)
    return ", ".join(getattr(e, "name", str(e)) for e in names)


def arc_dot_label(label) -> str:
    if label is None or label is ABSTRACT:
        return ""
    return str(label)


def arc_is_dashed(label) -> bool:
    """Abstract arcs, and labels whose class sets ``dot_dashed``, are dashed."""
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
