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

from dataclasses import dataclass
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
    hyperpath_violations,
    node_dot_label,
    topological_order,
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
    TargetRole; grounding constraints are derived from it.
    """

    goal_stacks: Mapping[TargetRole, tuple]

    @property
    def abstract_objects(self) -> frozenset:
        return self.entities()


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
    adopts the head's facts. Places always survive, since a fresh placement
    is a new object configuration. The result is a valid hyperpath over
    objects only.
    """
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
            # contraction keeps the node's creation facts: picks and
            # handoffs only move objects into or between hands
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

def _member_order(names, facts, index_of=None):
    """Order object names placed on one stack by height, others by index."""

    def key(name):
        fact = facts.get(name)
        if isinstance(fact, OnStack):
            return (0, fact.height)
        if index_of is not None:
            return (1, index_of.get(name, 0))
        return (1, 0)

    return sorted(names, key=lambda n: (key(n), n))


def abstract_labels(h_obj: SolutionHypergraph, critical: frozenset,
                    p: Problem) -> AbstractHypergraph:
    """Strip object labels and region names, keeping only the strategy.

    Placeholders stand for the objects some arc touches plus the goal
    objects: a goal stack the plan never touches is kept, a non-goal
    object no arc touches is dropped, so an arc-free plan for an empty
    goal gives an empty strategy. Placeholders are dense AbstractObjects
    numbered by first appearance in topological order (sources first,
    bottom of a stack first). Goal regions become TargetRoles in
    goal-declaration order, other stack regions SourceRoles by first use,
    buffers the BufferRole. One abstract hyperarc is emitted per
    non-source critical node; leftover objects from its consumed frontier
    split into residual head nodes so abstract objects are conserved arc
    by arc.
    """
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
        for name in _member_order(members, node_facts(nid)):
            if name in covered and name not in index_of:
                index_of[name] = len(index_of)

    protos: list = []     # (member tuple, region id or None, placed tuple)
    used_regions: list = []

    def add_proto(members, facts) -> int:
        ordered = tuple(_member_order(members, facts, index_of))
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

    # Facts seen so far while replaying the object-level plan; None marks an
    # object currently carried.
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

    target_index = {r: i for i, r in
                    enumerate(r for r in p.goal if r in used_regions)}
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
        if region in target_index and all(o in index_of for o in want):
            goal_stacks[TargetRole(target_index[region])] = tuple(
                AbstractObject(index_of[o]) for o in want)
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
    """Invariant report: robot-free typing, conservation, hyperpath shape."""
    out = []
    for nid, node in ah.nodes.items():
        for member in node.composition:
            if not isinstance(member, AbstractObject):
                out.append(Violation(
                    "concrete-entity", f"node {nid} holds {member!r}"))
    comps = {nid: n.composition for nid, n in ah.nodes.items()}
    out.extend(hyperpath_violations(comps, ah.arcs))
    indices = sorted(o.index for o in ah.abstract_objects)
    if indices != list(range(len(indices))):
        out.append(Violation("role-indices", f"object indices not dense: {indices}"))
    for role, stack in ah.goal_stacks.items():
        for o in stack:
            if o not in ah.abstract_objects:
                out.append(Violation(
                    "goal-stack", f"{role} references unknown {o}"))
    return out


def canonical_form(ah: AbstractHypergraph) -> tuple:
    """Structure-only fingerprint for equality across extractions.

    Node ids are renumbered along the arcs in id order (their dependency
    order), abstract object indices by first use in that traversal, and
    target roles by goal-stack order; arc tails and heads are emitted sorted.
    """
    order = sorted(ah.arcs)
    node_seq = list(ah.sources)
    for aid in order:
        node_seq.extend(sorted(ah.arcs[aid].heads))
    node_renum = {nid: i for i, nid in enumerate(node_seq)}

    obj_renum: dict = {}

    def canon_obj(o):
        if o not in obj_renum:
            obj_renum[o] = len(obj_renum)
        return obj_renum[o]

    for nid in node_seq:
        node = ah.nodes[nid]
        for o in list(node.stack_order) + sorted(node.composition):
            canon_obj(o)

    role_renum: dict = {}

    def canon_role(role):
        if role is None:
            return None
        if isinstance(role, BufferRole):
            return "buffer"
        key = (type(role).__name__, role.index)
        if key not in role_renum:
            kind = type(role).__name__
            nth = sum(1 for k in role_renum if k[0] == kind)
            role_renum[key] = f"{kind.lower().removesuffix('role')}:{nth}"
        return role_renum[key]

    nodes = tuple(
        (tuple(sorted(canon_obj(o) for o in ah.nodes[nid].composition)),
         canon_role(ah.nodes[nid].region),
         tuple(canon_obj(o) for o in ah.nodes[nid].stack_order))
        for nid in node_seq)
    arcs = tuple(
        (tuple(sorted(node_renum[t] for t in ah.arcs[aid].tails)),
         tuple(sorted(node_renum[h] for h in ah.arcs[aid].heads)))
        for aid in order)
    goals = tuple(sorted(
        (canon_role(role), tuple(canon_obj(o) for o in stack))
        for role, stack in ah.goal_stacks.items()))
    return (nodes, arcs, goals)
