"""From-scratch solving: best-first search plus hypergraph compilation.

``search`` runs A* with unit action cost and an admissible heuristic that
counts the objects that must move, so the returned action count is
minimal; among frontier entries of equal f the lower h pops first, then
the earlier push. It runs over flat slot tuples (``SlotSpace``), so
hashing and comparing states are tuple operations, and takes each
successor's h from its parent's. States that differ only in which
interchangeable robot holds what are one node. It returns actions and
compiles nothing. ``plan`` is ``search`` plus one compilation into a
solution hypergraph whose arcs recover the plan's parallel structure,
checked as it is compiled (every action applied with its precondition
check, the graph validated once); its makespan is read off the graph.
``bfs_oracle`` is an independent exhaustive breadth-first search over
``WorldState`` with ``applicable_actions`` and ``apply``, no symmetry
reduction and no heuristic, so tests can cross-check optimality.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass
from functools import partial

from .domain import (
    STACK,
    Action,
    Memo,
    Pick,
    Place,
    Problem,
    WorldState,
    applicable_actions,
    apply,
    initial_decomposition,
    is_goal,
    makespan,
)
# execute_hypergraph is unused here but stays a module attribute:
# bench/spans.py wraps hyperplan.planner.execute_hypergraph by name.
from .domain import execute_hypergraph  # noqa: F401
from .hypergraph import (
    HypergraphBuilder,
    SolutionHypergraph,
    obj,
    robot,
)


@dataclass(frozen=True)
class SearchConfig:
    max_expansions: int = 200_000

    def __post_init__(self) -> None:
        if self.max_expansions < 1:
            raise ValueError("max_expansions must be >= 1")


@dataclass
class SearchStats:
    expansions: int = 0
    generated: int = 0
    solution_actions: int = 0
    makespan: int = 0
    wall_time: float = 0.0


class NoSolution(Exception):
    """The goal is unreachable from the initial state.

    ``expansions`` is the number of states the search expanded first.
    """

    def __init__(self, reason: str, expansions: int = 0):
        self.expansions = expansions
        super().__init__(reason)


class BudgetExhausted(Exception):
    """The search expanded ``max_expansions`` states, its budget, and no goal."""

    def __init__(self, max_expansions: int):
        self.max_expansions = self.expansions = max_expansions
        super().__init__(f"expansion budget of {max_expansions} exhausted")


def heuristic(s: WorldState, p: Problem, prefix: bool = False) -> int | None:
    """Admissible lower bound on remaining actions; None flags a dead end.

    ``prefix`` selects the goal reading, as in ``is_goal``. The bound is a
    sum of one term per entry of ``s``: ``stack_term`` for each stack,
    ``placed_term`` for each buffered object and ``held_term`` for each
    held object. Together they sum a cost over every object that must move.
    ``search`` calls it once, on the start state, and takes h of a
    successor as h of its parent plus the change in the terms of the
    entries the action replaced.

    Each action moves exactly one object, and each term counts actions on a
    different object, so the sum stays admissible with handoffs and robot
    capacity above 1. It is 0 exactly on the states ``is_goal`` accepts in
    the same reading (nothing must move), which is how ``search`` tests the
    goal.

    Dead ends: an object that must move rests where no robot reaches, or a
    goal region no robot reaches is unsatisfied in this reading. No action
    changes a region no robot reaches, so a state the search reaches from a
    start that is no dead end is none either.
    """
    stacks = s.stacks
    goal = p.goal
    for region in p.unreachable_goals:
        want = goal[region]
        stack = stacks.get(region, ())
        if (stack[:len(want)] if prefix else stack) != want:
            return None
    reachable = p.reachable
    total = 0
    for region, stack in stacks.items():
        cost = stack_term(region, stack, p, prefix)
        if cost and region not in reachable:
            return None
        total += cost
    for region, objs in s.buffers.items():
        for o in objs:
            cost = placed_term(region, o, p)
            if cost and region not in reachable:
                return None
            total += cost
    for holder, held in s.holdings.items():
        for o in held:
            total += held_term(holder, o, p)
    return total


def stack_term(region: str, stack: tuple, p: Problem, prefix: bool) -> int:
    """Cost of the objects in one stack that must move; 0 if none must.

    Which objects must move: let k be the length of the stack's common
    prefix with the region's goal stack. In a goal region everything from k
    up must move, except in the prefix reading once the goal stack is
    complete. There, and in a region without a goal, everything from the
    lowest goal object at or above k up must move.

    Cost per object that must move: 1 for an object outside the goal (its
    Pick). A goal object costs 2 if one robot reaches both this region and
    its goal region (Pick and Place), else 3 (a handoff, or a second Pick
    and Place, is forced).
    """
    want = p.goal.get(region)
    target = p.goal_region
    k = 0
    if want is not None:
        for have, wanted in zip(stack, want):
            if have != wanted:
                break
            k += 1
    if want is None or (prefix and k == len(want)):
        # nothing here is wanted above k: only a goal object that belongs
        # elsewhere, and whatever rests on it, has to go
        while k < len(stack) and stack[k] not in target:
            k += 1
    pairs = p.reach_pairs
    total = 0
    for o in stack[k:]:
        t = target.get(o)
        total += 1 if t is None else 2 if (region, t) in pairs else 3
    return total


def placed_term(region: str, o: str, p: Problem) -> int:
    """Cost of an object in a buffer: 0 outside the goal, else 2 or 3 as in
    ``stack_term``."""
    t = p.goal_region.get(o)
    if t is None:
        return 0
    return 2 if (region, t) in p.reach_pairs else 3


def held_term(holder: str, o: str, p: Problem) -> int:
    """Cost of a held object: 0 outside the goal, else 1 if its holder
    reaches its goal region (a Place remains), else 2."""
    t = p.goal_region.get(o)
    if t is None:
        return 0
    return 1 if t in p.robot_map[holder].reach else 2


class SlotSpace:
    """A problem's states as slot tuples, laid out by ``Problem.robot_table``,
    with the heuristic's terms for one goal reading.

    ``terms[slot]`` memoises the heuristic's terms for a slot: by object,
    its ``placed_term`` in a buffer slot and its ``held_term`` in a robot
    slot; by stack, ``stack_term`` in a stack slot.
    """

    def __init__(self, p: Problem, prefix: bool) -> None:
        self.p = p
        self.rows = p.robot_table
        self.actions = p.action_cache
        robot_slot = {row[0]: row[1] for row in self.rows}
        self.classes = tuple(tuple(map(robot_slot.get, robots))
                             for robots in p.robot_classes)
        self.terms = [Memo(partial(stack_term, r.id, p=p, prefix=prefix)
                            if r.kind == STACK else partial(placed_term, r.id, p=p))
                      for r in p.regions]
        self.terms += [Memo(partial(held_term, row[0], p=p)) for row in self.rows]

    def slots(self, s: WorldState) -> tuple:
        stacks, buffers, holdings = s.stacks, s.buffers, s.holdings
        return tuple(
            [stacks.get(r.id, ()) if r.kind == STACK else buffers.get(r.id, frozenset())
             for r in self.p.regions] + [holdings.get(row[0], ()) for row in self.rows])

    def key(self, state: tuple) -> tuple:
        """``state`` with each class of interchangeable robots' loads sorted
        over the class's slots (``state`` itself if they are): h, the goal
        test and the successors up to that exchange agree on one key."""
        swapped = None
        for slots in self.classes:
            loads = [state[i] for i in slots]
            ordered = sorted(loads)
            if loads != ordered:
                if swapped is None:
                    swapped = list(state)
                for i, load in zip(slots, ordered):
                    swapped[i] = load
        return state if swapped is None else tuple(swapped)

    def successors(self, state: tuple) -> list:
        """``(action, successor, dh, slot)`` per action applicable in
        ``state``, in the order ``applicable_actions`` returns them.

        ``slot`` is the stack slot the action changes, or None; ``dh`` is
        the change in the heuristic's other terms (see ``successor_h``).
        """
        pick, place, handoff = self.actions
        terms = self.terms
        out = []
        append = out.append
        for rid, slot, capacity, regions, _ in self.rows:
            load = state[slot]
            if len(load) >= capacity:
                continue
            tops = []
            for rslot, r, cap in regions:
                here = state[rslot]
                if cap is None:
                    if here:
                        tops.append((here[-1], rslot, r, True))
                else:
                    tops.extend([(o, rslot, r, False) for o in here])
            tops.sort()
            held = terms[slot]
            for o, rslot, r, on_stack in tops:
                successor = list(state)
                successor[slot] = load + (o,)
                if on_stack:
                    successor[rslot] = state[rslot][:-1]
                    append((pick[rid, o, r], tuple(successor), held[o], rslot))
                else:
                    successor[rslot] = state[rslot] - {o}
                    append((pick[rid, o, r], tuple(successor),
                            held[o] - terms[rslot][o], None))
        for rid, slot, _, regions, _ in self.rows:
            load = state[slot]
            held = terms[slot]
            for o in sorted(load):
                i = load.index(o)
                rest = load[:i] + load[i + 1:]
                for rslot, r, cap in regions:
                    here = state[rslot]
                    if cap is not None and len(here) >= cap:
                        continue
                    successor = list(state)
                    successor[slot] = rest
                    if cap is None:
                        successor[rslot] = here + (o,)
                        append((place[rid, o, r], tuple(successor), -held[o], rslot))
                    else:
                        successor[rslot] = here | {o}
                        append((place[rid, o, r], tuple(successor),
                                terms[rslot][o] - held[o], None))
        for rid, slot, _, _, partners in self.rows:
            load = state[slot]
            if not load:
                continue
            receivers = [(qslot, q) for qslot, q, cap in partners if len(state[qslot]) < cap]
            held = terms[slot]
            for o in sorted(load):
                i = load.index(o)
                rest = load[:i] + load[i + 1:]
                for qslot, q in receivers:
                    successor = list(state)
                    successor[slot] = rest
                    successor[qslot] = state[qslot] + (o,)
                    append((handoff[rid, q, o], tuple(successor),
                            terms[qslot][o] - held[o], None))
        return out

    def successor_h(self, h: int, state: tuple, successor: tuple, dh: int,
                    slot: int | None) -> int:
        """The heuristic of ``successor``, as ``successors`` returned it with
        ``dh`` and ``slot``, from ``h``, that of ``state``."""
        if slot is None:
            return h + dh
        costs = self.terms[slot]
        return h + dh + costs[successor[slot]] - costs[state[slot]]


def search(p: Problem, config: SearchConfig | None = None,
           prefix_goals: bool = False) -> tuple:
    """Solve a problem, returning ``(actions, SearchStats)``.

    ``actions`` is a minimal-length action list; it is empty when the
    initial state already is a goal. Deterministic: successors are generated
    in sorted action order, and frontier entries are ordered by ``(f, h,
    insertion)``, so among equal f the state with lower h pops first.
    Raises ValueError for an invalid problem, NoSolution when the (finite)
    state space is exhausted and BudgetExhausted when the expansion cap is
    hit. ``prefix_goals`` switches the goal test, and with it the heuristic,
    from the exact reading (every goal stack exactly as wanted) to the
    positional reading used for refinement sub-problems (each goal stack
    starts with the wanted objects; more may rest above them). The stats
    carry no makespan: only a compiled plan has one.

    States that differ only in which interchangeable robot holds what
    (``Problem.robot_classes``) are one search node, keyed by
    ``SlotSpace.key``, so ``expansions`` and ``generated`` count those
    classes.
    """
    cfg = config or SearchConfig()
    errors = p.validate()
    if errors:
        raise ValueError(f"invalid problem: {errors[0]}")
    started = time.perf_counter()
    # nothing the search allocates forms a cycle, and each full collection
    # would walk every state it keeps; the caller's setting is restored
    collecting = gc.isenabled()
    gc.disable()
    try:
        actions, stats = _astar(p, cfg.max_expansions, prefix_goals)
    finally:
        if collecting:
            gc.enable()
    stats.wall_time = time.perf_counter() - started
    return actions, stats


def _astar(p: Problem, max_expansions: int, prefix: bool) -> tuple:
    """``search`` on a checked problem; the caller times it."""
    stats = SearchStats()
    h0 = heuristic(p.initial, p, prefix)
    if h0 is None:
        raise NoSolution("an object that must move or a goal region is unreachable")
    if not h0:   # the start is a goal; see heuristic
        return [], stats
    space = SlotSpace(p, prefix)
    init = space.slots(p.initial)
    keyed = bool(space.classes)
    key_of = space.key
    successors, successor_h = space.successors, space.successor_h
    init_key = key_of(init) if keyed else init
    counter = itertools.count()
    # (f, h, insertion, state, key): the heap keeps the actual state
    frontier = [(h0, h0, next(counter), init, init_key)]
    # keyed by SlotSpace.key; parent[key] is (actual predecessor, action).
    # When a key is first popped, the popped state is the predecessor with
    # the action applied: states of one key share h, so a later, strictly
    # better path to the key, which alone replaces parent[key], has the
    # lower f and pops first.
    best_g = {init_key: 0}
    parent: dict = {init_key: None}
    closed: set = set()

    while frontier:
        _, h, _, state, key = heapq.heappop(frontier)
        if key in closed:
            continue
        if not h:   # exactly the goals; see heuristic
            actions = []
            step = parent[key]
            while step is not None:
                prev, act = step
                actions.append(act)
                step = parent[key_of(prev) if keyed else prev]
            actions.reverse()
            stats.solution_actions = len(actions)
            return actions, stats
        closed.add(key)
        stats.expansions += 1
        if stats.expansions > max_expansions:
            raise BudgetExhausted(max_expansions)
        g2 = best_g[key] + 1
        # the action that undoes the arriving one leads back to the closed
        # predecessor: skip it before computing its key
        arrival = parent[key]
        prev = None if arrival is None else arrival[0]
        for action, successor, dh, slot in successors(state):
            if successor == prev:
                continue
            succ_key = key_of(successor) if keyed else successor
            if succ_key in closed:
                continue
            known = best_g.get(succ_key)
            if known is not None and known <= g2:
                continue
            h2 = successor_h(h, state, successor, dh, slot)
            best_g[succ_key] = g2
            parent[succ_key] = (state, action)
            heapq.heappush(frontier, (g2 + h2, h2, next(counter), successor, succ_key))
            stats.generated += 1
    raise NoSolution("state space exhausted without reaching the goal",
                     stats.expansions)


def plan(p: Problem, config: SearchConfig | None = None) -> tuple:
    """``search``, then compile: returns ``(SolutionHypergraph, SearchStats)``.

    The goal is read exactly. The actions are compiled into one solution
    hypergraph, checked as it is compiled, and the stats get its makespan.
    Errors are those of ``search``.
    """
    started = time.perf_counter()
    actions, stats = search(p, config)
    graph = build_hypergraph(actions, p)
    stats.makespan = makespan(graph)
    stats.wall_time = time.perf_counter() - started
    return graph, stats


def build_hypergraph(actions: list, p: Problem) -> SolutionHypergraph:
    """Compile an executable action sequence into a solution hypergraph.

    Sources are the initial maximal compositions (one node per occupied
    stack, per buffer object, per robot with its load). Each action then
    consumes the frontier nodes of its entities and produces recomposed
    heads: Pick merges robot and object and splits off the stack remainder,
    Place splits robot and object and merges the object into the landing
    stack, Handoff moves the object between the two robot compositions.
    """
    builder = HypergraphBuilder()
    frontier: dict = {}
    for comp, facts in initial_decomposition(p):
        nid = builder.add_node(comp, facts)
        for entity in comp:
            frontier[entity] = nid

    def emit(state: WorldState, comp, action: Action) -> int:
        """Head node for ``comp`` with its facts read off the new state."""
        comp = frozenset(comp)
        facts = frozenset(state.placement_of(e.name) for e in comp
                          if not e.is_robot)
        nid = builder.add_node(comp, facts, via=(action,))
        for entity in comp:
            frontier[entity] = nid
        return nid

    state = p.initial
    for action in actions:
        nxt = apply(state, action, p)
        if isinstance(action, Pick):
            robot_node = frontier[robot(action.robot)]
            obj_node = frontier[obj(action.obj)]
            tails = {robot_node, obj_node}
            carried = builder.node(robot_node).composition | {obj(action.obj)}
            remainder = builder.node(obj_node).composition - {obj(action.obj)}
            heads = {emit(nxt, carried, action)}
            if remainder:
                heads.add(emit(nxt, remainder, action))
        elif isinstance(action, Place):
            robot_node = frontier[robot(action.robot)]
            tails = {robot_node}
            landing: frozenset = frozenset()
            if p.region_map[action.region].kind == STACK:
                below = state.stacks.get(action.region, ())
                if below:
                    group = frontier[obj(below[-1])]
                    tails.add(group)
                    landing = builder.node(group).composition
            heads = {emit(nxt, landing | {obj(action.obj)}, action)}
            rest = builder.node(robot_node).composition - {obj(action.obj)}
            heads.add(emit(nxt, rest, action))
        else:
            giver_node = frontier[robot(action.giver)]
            receiver_node = frontier[robot(action.receiver)]
            tails = {giver_node, receiver_node}
            give_rest = builder.node(giver_node).composition - {obj(action.obj)}
            take = builder.node(receiver_node).composition | {obj(action.obj)}
            heads = {emit(nxt, give_rest, action), emit(nxt, take, action)}
        builder.add_arc(action, tails, heads)
        state = nxt
    return builder.build()


def bfs_oracle(p: Problem, bound: int = 64) -> int | None:
    """Exhaustive breadth-first search over every world state, unreduced.

    States that differ only in which of two interchangeable robots holds
    what are distinct here, unlike in ``search``.

    Returns the minimal number of actions to reach the goal, or None when
    the goal is unreachable within ``bound`` actions. Intended for small
    instances (a few objects, one or two robots).
    """
    init = p.initial
    if is_goal(init, p):
        return 0
    seen = {init}
    queue = deque([(init, 0)])
    while queue:
        state, depth = queue.popleft()
        if depth >= bound:
            continue
        for action in applicable_actions(state, p):
            successor = apply(state, action, p)
            if successor in seen:
                continue
            if is_goal(successor, p):
                return depth + 1
            seen.add(successor)
            queue.append((successor, depth + 1))
    return None
