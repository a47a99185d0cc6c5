"""Turning a solved hypergraph into a reusable abstract strategy.

Three steps: strip every robot entity from the solution hypergraph
(contracting arcs that become pure robot bookkeeping, e.g. picks and
handoffs), select the critical nodes (sources, sinks, and every node a
Place created inside a goal-constrained region), and rename objects and
regions to role placeholders.

The resulting AbstractHypergraph has one abstract hyperarc per non-source
critical node. Arc tails are the current abstract frontier of the node's
objects; leftover objects split off into residual head nodes so each arc
still conserves its abstract objects and the whole graph stays a
hyperpath. An implicit abstract robot is attachable to every node, to be
grounded later into any subset of concrete robots (possibly none).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .domain import (
    BUFFER,
    InBuffer,
    OnStack,
    Place,
    Problem,
    execute_hypergraph,
    is_goal,
    object_facts,
)
from .hypergraph import (
    ABSTRACT,
    Hyperarc,
    HypergraphBuilder,
    HypergraphTable,
    SolutionHypergraph,
    Violation,
    node_dot_label,
    topological_order,
    validate_hyperpath,
)


@dataclass(frozen=True, order=True)
class AbstractObject:
    """Placeholder for one stripped object label; indices are dense."""

    index: int

    def __str__(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class SourceRole:
    index: int

    def __str__(self) -> str:
        return f"source:{self.index}"


@dataclass(frozen=True)
class TargetRole:
    index: int

    def __str__(self) -> str:
        return f"target:{self.index}"


@dataclass(frozen=True)
class BufferRole:
    def __str__(self) -> str:
        return "buffer"


RegionRole = SourceRole | TargetRole | BufferRole


@dataclass(frozen=True)
class AbstractNode:
    """An abstract entity composition.

    ``stack_order`` lists the members resting in ``region`` bottom to top
    (or in index order for buffers); members absent from it are carried by
    the implicit abstract robot. ``region`` is None when the members are
    all in transit or spread over several regions.
    """

    id: int
    composition: frozenset
    region: RegionRole | None = None
    stack_order: tuple = ()

    def __post_init__(self) -> None:
        if not self.composition:
            raise ValueError("abstract node composition must be non-empty")
        if not set(self.stack_order) <= self.composition:
            raise ValueError("stack order mentions non-members")


@dataclass(frozen=True, eq=False)
class AbstractHypergraph(HypergraphTable):
    """Robot-free, label-stripped strategy with abstract hyperarcs.

    ``goal_stacks`` records the strategy's final target content per
    TargetRole; grounding pairs these roles with goal regions.
    """

    goal_stacks: Mapping[TargetRole, tuple]

    @cached_property
    def abstract_objects(self) -> frozenset:
        return self.entities()

    @cached_property
    def schedule(self) -> tuple:
        """What reuse reads of the strategy, derived once: one
        ``(arc_id, ((target index, prefix length), ...))`` step per arc, in
        id order (the dependency order), whose heads (in id order) place a
        prefix of their target role's goal stack. Not stored, and not part
        of equality or ``canonical_form``."""
        steps = []
        for aid in sorted(self.arcs):
            targets = []
            for nid in sorted(self.arcs[aid].heads):
                node = self.nodes[nid]
                order = node.stack_order
                stack = self.goal_stacks.get(node.region, ())
                if order and stack[:len(order)] == order:
                    targets.append((node.region.index, len(order)))
            if targets:
                steps.append((aid, tuple(targets)))
        return tuple(steps)


@node_dot_label.register
def _(node: AbstractNode) -> str:
    label = ",".join(str(o) for o in sorted(node.composition))
    if node.region is not None:
        placed = "<".join(str(o) for o in node.stack_order)
        label += f"\\n{node.region}" + (f" [{placed}]" if placed else "")
    return label


# --- step 1: robot removal ------------------------------------------------

def remove_robot_entities(graph: SolutionHypergraph) -> SolutionHypergraph:
    """Project a solution hypergraph onto its object entities.

    Compositions are intersected with the object set and emptied nodes are
    deleted. Arcs that then carry identical object content across tails and
    heads without asserting any new placement (picks and handoffs: pure
    robot bookkeeping) are contracted onto their tail nodes; the contracted
    arc's label is appended to the node's ``via`` history and the node
    keeps its creation facts, which already hold every placement the heads
    assert. A Place survives unless it restores a placement the node was
    created with. The result is a valid hyperpath over objects only.
    """
    if not any(e.is_robot for n in graph.nodes.values() for e in n.composition):
        return graph

    def objects_of(nid):
        node = graph.nodes[nid]
        return (frozenset(e for e in node.composition if not e.is_robot),
                object_facts(node.state))

    records: list = []    # (composition, creation facts, via) per kept node, by new id
    leader: dict = {}     # object-level node id -> new id of the node it maps to

    def keep(nid, comp, facts, via) -> int:
        leader[nid] = len(records)
        records.append((comp, facts, via))
        return leader[nid]

    builder = HypergraphBuilder()
    for nid in graph.sources:
        comp, facts = objects_of(nid)
        if comp:
            keep(nid, comp, facts, list(graph.nodes[nid].via))
    for aid in topological_order(graph):
        arc = graph.arcs[aid]
        tails = {leader[t] for t in arc.tails if t in leader}
        heads = [(hid, *objects_of(hid)) for hid in sorted(arc.heads)]
        heads = [(hid, comp, facts) for hid, comp, facts in heads if comp]
        if not heads:
            continue
        same_content = (Counter(records[g][0] for g in tails)
                        == Counter(comp for _, comp, _ in heads))
        head_facts = frozenset().union(*(facts for _, _, facts in heads))
        tail_facts = frozenset().union(*(records[g][1] for g in tails))
        if same_content and head_facts <= tail_facts:
            # contraction keeps the node's creation facts: picks and
            # handoffs only move objects into or between hands
            by_comp = {records[g][0]: g for g in tails}
            for hid, comp, _ in heads:
                leader[hid] = by_comp[comp]
                records[leader[hid]][2].append(arc.label)
        else:
            builder.add_arc(arc.label, tails, [keep(hid, comp, facts, [arc.label])
                                               for hid, comp, facts in heads])
    for comp, facts, via in records:
        builder.add_node(comp, facts, via=tuple(via))
    return builder.build()


# --- step 2: critical nodes ------------------------------------------------

def select_critical_nodes(h_obj: SolutionHypergraph, p: Problem) -> frozenset:
    """Sources, sinks, and every node a Place created in a goal region.

    A node qualifies when one of its shaping events placed one of its own
    members into a goal-constrained region; residual co-products of such a
    Place (the robot's remaining load) do not.
    """
    critical = set(h_obj.sources) | set(h_obj.sinks)
    for nid, node in h_obj.nodes.items():
        members = {e.name for e in node.composition}
        if any(isinstance(ev, Place) and ev.region in p.goal
               and ev.obj in members
               for ev in node.via):
            critical.add(nid)
    return frozenset(critical)


# --- step 3: label stripping ------------------------------------------------

def abstract_labels(h_obj: SolutionHypergraph, critical: frozenset,
                    p: Problem) -> AbstractHypergraph:
    """Strip object labels and region names, keeping only the strategy.

    Placeholders stand for the objects some arc touches plus the goal
    objects: a goal stack the plan never touches is kept, a non-goal
    object no arc touches is dropped, so an arc-free plan for an empty
    goal gives an empty strategy.

    One walk replays the object-level plan, sources first and then the
    arcs in topological order, and builds each abstract node and arc as
    it reaches it. A node lists its members on a stack bottom first, the
    others by placeholder index, ties by name; a member gets the next
    dense AbstractObject index the first time a node holds it. A region
    gets its role the first time a node rests in it: a goal region the
    TargetRole of its goal-declaration position (an empty goal region
    the plan never touches keeps its role in ``goal_stacks``), a buffer
    the BufferRole, any other stack the next SourceRole. Each non-source
    critical node is the head of one abstract hyperarc whose tails are
    the nodes that hold its objects now; the leftover objects of each
    tail split into residual head nodes so abstract objects are
    conserved arc by arc.
    """
    covered = {e.name
               for arc in h_obj.arcs.values()
               for nid in arc.tails | arc.heads
               for e in h_obj.nodes[nid].composition} | p.goal_objects
    target_index = {r: i for i, r in enumerate(p.goal)}
    index_of: dict = {}       # object name -> placeholder index
    source_index: dict = {}   # source region id -> SourceRole index
    nodes: dict = {}
    members_of: list = []     # object names of each abstract node, by id
    frontier: dict = {}       # object name -> id of the node that holds it now

    def node_facts(nid):
        return {f.obj: f for f in h_obj.nodes[nid].state
                if isinstance(f, (OnStack, InBuffer))}

    def role_of(region_id):
        if region_id in target_index:
            return TargetRole(target_index[region_id])
        if p.region_map[region_id].kind == BUFFER:
            return BufferRole()
        return SourceRole(source_index.setdefault(region_id, len(source_index)))

    def add_node(names, facts) -> int:
        def key(name):
            fact = facts.get(name)
            if isinstance(fact, OnStack):
                return (0, fact.height, name)
            return (1, index_of.get(name, 0), name)

        members = sorted(names, key=key)
        placeholders = tuple(AbstractObject(index_of.setdefault(m, len(index_of)))
                             for m in members)
        regions = {facts[m].region for m in members if m in facts}
        region, placed = None, ()
        if len(regions) == 1 and all(m in facts for m in members):
            region, placed = role_of(regions.pop()), placeholders
        nid = len(members_of)
        nodes[nid] = AbstractNode(nid, frozenset(placeholders), region, placed)
        members_of.append(members)
        for m in members:
            frontier[m] = nid
        return nid

    # Facts seen so far while replaying the object-level plan; an object
    # currently carried has none.
    live_facts: dict = {}
    for nid in h_obj.sources:
        facts = node_facts(nid)
        live_facts.update(facts)
        names = [e.name for e in h_obj.nodes[nid].composition if e.name in covered]
        if names:
            add_node(names, facts)

    arcs: dict = {}
    for aid in topological_order(h_obj):
        heads = sorted(h_obj.arcs[aid].heads)
        for hid in heads:
            facts = node_facts(hid)
            for e in h_obj.nodes[hid].composition:
                if facts.get(e.name) is None:
                    live_facts.pop(e.name, None)
                else:
                    live_facts[e.name] = facts[e.name]
        for c in heads:
            if c not in critical:
                continue
            names = {e.name for e in h_obj.nodes[c].composition}
            tails = sorted({frontier[m] for m in names})
            # c's arc is applied, so live_facts holds c's own facts
            new = [add_node(names, live_facts)]
            for t in tails:
                leftover = [m for m in members_of[t] if m not in names]
                if leftover:
                    new.append(add_node(leftover, live_facts))
            arcs[len(arcs)] = Hyperarc(len(arcs), ABSTRACT, frozenset(tails),
                                       frozenset(new))

    # every goal object is covered, so a source node indexed it
    goal_stacks = {TargetRole(target_index[region]):
                   tuple(AbstractObject(index_of[o]) for o in want)
                   for region, want in p.goal.items()}
    return AbstractHypergraph(nodes, arcs, goal_stacks)


def extract_strategy(graph: SolutionHypergraph, p: Problem) -> AbstractHypergraph:
    """Full abstraction pipeline for a goal-reaching solution hypergraph."""
    final, _, _ = execute_hypergraph(graph, p)
    if not is_goal(final, p):
        raise ValueError("hypergraph does not reach the goal; nothing to extract")
    h_obj = remove_robot_entities(graph)
    critical = select_critical_nodes(h_obj, p)
    return abstract_labels(h_obj, critical, p)


# --- canonical form and invariants -----------------------------------------

def ah_violations(ah: AbstractHypergraph) -> list:
    """Invariant report: ``validate_hyperpath``'s hyperpath rules, then
    robot-free typing, dense object indices and well-formed goal stacks."""
    out = validate_hyperpath(ah)
    for nid, node in ah.nodes.items():
        for member in node.composition:
            if not isinstance(member, AbstractObject):
                out.append(Violation(
                    "concrete-entity", f"node {nid} holds {member!r}"))
    indices = sorted(o.index for o in ah.abstract_objects)
    if indices != list(range(len(indices))):
        out.append(Violation("role-indices", f"object indices not dense: {indices}"))
    pinned: set = set()
    for role, stack in ah.goal_stacks.items():
        for o in stack:
            if o not in ah.abstract_objects:
                out.append(Violation(
                    "goal-stack", f"{role} references unknown {o}"))
            elif o in pinned:
                out.append(Violation(
                    "goal-stack", f"{o} pinned to two different goal positions"))
            pinned.add(o)
    return out


def canonical_form(ah: AbstractHypergraph) -> tuple:
    """Structure-only fingerprint for equality across extractions.

    One pass renumbers the nodes along the arcs in id order (their
    dependency order), each node's abstract objects by first use (its stack
    order, then its sorted composition) and source and target roles by
    first use per kind; goal stacks follow. Arc tails and heads are emitted
    sorted.
    """
    order = sorted(ah.arcs)
    node_seq = list(ah.sources)
    for aid in order:
        node_seq.extend(sorted(ah.arcs[aid].heads))
    node_renum = {nid: i for i, nid in enumerate(node_seq)}

    obj_renum: dict = {}
    role_renum: dict = {}   # role kind -> {role index -> canonical index}

    def canon_obj(o):
        return obj_renum.setdefault(o, len(obj_renum))

    def canon_role(role):
        if role is None:
            return None
        if isinstance(role, BufferRole):
            return "buffer"
        kind = type(role).__name__.lower().removesuffix("role")
        renum = role_renum.setdefault(kind, {})
        return f"{kind}:{renum.setdefault(role.index, len(renum))}"

    nodes = []
    for nid in node_seq:
        node = ah.nodes[nid]
        for o in (*node.stack_order, *sorted(node.composition)):
            canon_obj(o)
        nodes.append((tuple(sorted(obj_renum[o] for o in node.composition)),
                      canon_role(node.region),
                      tuple(obj_renum[o] for o in node.stack_order)))
    arcs = tuple(
        (tuple(sorted(node_renum[t] for t in ah.arcs[aid].tails)),
         tuple(sorted(node_renum[h] for h in ah.arcs[aid].heads)))
        for aid in order)
    goals = tuple(sorted(
        (canon_role(role), tuple(canon_obj(o) for o in stack))
        for role, stack in ah.goal_stacks.items()))
    return (tuple(nodes), arcs, goals)
