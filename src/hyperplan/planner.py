"""From-scratch solving: best-first search plus hypergraph compilation.

``search`` runs A* with unit action cost and a consistent heuristic that
counts the objects that must move, so the returned action count is
minimal; among frontier entries of equal f the lower h pops first, then
the earlier push. It runs over flat slot tuples (``SlotSpace``), so
hashing and comparing states are tuple operations: ``SlotSpace.successors``
hands over each successor with its h, derived from its parent's, and its
key, and one table maps each key to its g and how it was reached. States
that differ only in which interchangeable robot holds what are one node.
It returns actions and compiles nothing. ``Compiler`` turns actions into a
solution hypergraph whose arcs recover the plan's parallel structure,
checked as it is compiled (every action applied once with its
precondition check, the graph validated once); refinement compiles each
sub-problem's actions as they come. ``plan`` is ``search`` plus one
compilation, and its makespan is read off the graph.
``bfs_oracle`` is an independent exhaustive breadth-first search over
``WorldState`` with ``applicable_actions`` and ``apply``, no symmetry
reduction and no heuristic, so tests can cross-check optimality.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from dataclasses import dataclass
from functools import partial

from .domain import (
    STACK,
    Held,
    InBuffer,
    Memo,
    OnStack,
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
from .hypergraph import HypergraphBuilder, SolutionHypergraph


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
    capacity above 1. It is also consistent: an action lowers the moved
    object's term by at most 1 and no other term, so h drops by at most 1
    per action, and A* never has to reopen a state. It is 0 exactly on the states ``is_goal`` accepts in
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
    with the heuristic's terms for one goal reading and the search key.

    ``terms[slot]`` memoises the heuristic's terms for a slot: by object,
    its ``placed_term`` in a buffer slot and its ``held_term`` in a robot
    slot; by stack, ``stack_term`` in a stack slot.
    """

    def __init__(self, p: Problem, prefix: bool) -> None:
        self.p = p
        self.rows = p.robot_table
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
            if len(slots) == 2:   # a pair, the common case: no sort
                i, j = slots
                if state[i] <= state[j]:
                    continue
                if swapped is None:
                    swapped = list(state)
                swapped[i], swapped[j] = state[j], state[i]
                continue
            loads = [state[i] for i in slots]
            ordered = sorted(loads)
            if loads != ordered:
                if swapped is None:
                    swapped = list(state)
                for i, load in zip(slots, ordered):
                    swapped[i] = load
        return state if swapped is None else tuple(swapped)

    def successors(self, state: tuple, h: int) -> list:
        """``(action, successor, key, h)`` per action applicable in ``state``,
        in the order ``applicable_actions`` returns them.

        ``h`` is the heuristic of ``state``; each successor's is ``h`` plus
        the change in the terms of the slots the action replaced. ``key`` is
        the successor's ``key``, the successor itself when no two robots
        are alike.
        """
        terms = self.terms
        out = []
        append = out.append
        for _, slot, capacity, regions, _ in self.rows:
            load = state[slot]
            if len(load) >= capacity:
                continue
            tops = []
            for rslot, _, cap, pick, _ in regions:
                here = state[rslot]
                if cap is None:
                    if here:
                        tops.append((here[-1], rslot, True, pick))
                else:
                    tops.extend([(o, rslot, False, pick) for o in here])
            tops.sort()   # no two tops share an object
            held = terms[slot]
            for o, rslot, on_stack, pick in tops:
                successor = list(state)
                successor[slot] = load + (o,)
                here = state[rslot]
                costs = terms[rslot]
                if on_stack:
                    rest = successor[rslot] = here[:-1]
                    h2 = h + held[o] + costs[rest] - costs[here]
                else:
                    successor[rslot] = here - {o}
                    h2 = h + held[o] - costs[o]
                successor = tuple(successor)
                append((pick[o], successor, successor, h2))
        for _, slot, _, regions, _ in self.rows:
            load = state[slot]
            held = terms[slot]
            for o in sorted(load):
                i = load.index(o)
                rest = load[:i] + load[i + 1:]
                h1 = h - held[o]
                for rslot, _, cap, _, place in regions:
                    here = state[rslot]
                    if cap is not None and len(here) >= cap:
                        continue
                    successor = list(state)
                    successor[slot] = rest
                    costs = terms[rslot]
                    if cap is None:
                        landed = successor[rslot] = here + (o,)
                        h2 = h1 + costs[landed] - costs[here]
                    else:
                        successor[rslot] = here | {o}
                        h2 = h1 + costs[o]
                    successor = tuple(successor)
                    append((place[o], successor, successor, h2))
        for _, slot, _, _, partners in self.rows:
            load = state[slot]
            if not load:
                continue
            receivers = [(qslot, handoff) for qslot, _, cap, handoff in partners
                         if len(state[qslot]) < cap]
            held = terms[slot]
            for o in sorted(load):
                i = load.index(o)
                rest = load[:i] + load[i + 1:]
                for qslot, handoff in receivers:
                    successor = list(state)
                    successor[slot] = rest
                    successor[qslot] = state[qslot] + (o,)
                    successor = tuple(successor)
                    append((handoff[o], successor, successor,
                            h + terms[qslot][o] - held[o]))
        if self.classes:
            key = self.key
            return [(action, successor, key(successor), h2)
                    for action, successor, _, h2 in out]
        return out


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
    h0 = heuristic(p.initial, p, prefix)
    if h0 is None:
        raise NoSolution("an object that must move or a goal region is unreachable")
    if not h0:   # the start is a goal; see heuristic
        return [], SearchStats()
    space = SlotSpace(p, prefix)
    successors = space.successors
    init = space.slots(p.initial)
    init_key = space.key(init)
    # (f, h, insertion, state, key): the heap keeps the actual state
    frontier = [(h0, h0, 0, init, init_key)]
    # SlotSpace.key -> (g, predecessor's key, action). When a key is first
    # popped, the popped state is the predecessor's popped state with the
    # action applied: states of one key share h, so a later, strictly better
    # path to the key, which alone replaces its entry, has the lower f and
    # pops first. The heuristic is consistent (h drops by at most 1 per
    # action), so that pop has the key's least g: an entry popped with a
    # larger g is stale, and no successor of an expanded key improves on it.
    nodes = {init_key: (0, None, None)}
    known = nodes.setdefault
    pop, push = heapq.heappop, heapq.heappush
    expansions = generated = 0
    while frontier:
        f, h, _, state, key = pop(frontier)
        g = nodes[key][0]
        if f - h != g:
            continue
        if not h:   # exactly the goals; see heuristic
            actions = []
            node = nodes[key]
            while node[1] is not None:
                actions.append(node[2])
                node = nodes[node[1]]
            actions.reverse()
            return actions, SearchStats(expansions, generated, len(actions))
        expansions += 1
        if expansions > max_expansions:
            raise BudgetExhausted(max_expansions)
        g += 1
        for action, successor, succ_key, h2 in successors(state, h):
            node = (g, key, action)
            best = known(succ_key, node)
            if best is not node:
                if best[0] <= g:
                    continue
                nodes[succ_key] = node
            generated += 1
            push(frontier, (g + h2, h2, generated, successor, succ_key))
    raise NoSolution("state space exhausted without reaching the goal", expansions)


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
    """Compile an executable action sequence into a solution hypergraph:
    ``Compiler`` over the whole sequence."""
    compiler = Compiler(p)
    compiler.extend(actions)
    return compiler.build()


class Compiler:
    """A solution hypergraph compiled one action sequence at a time.

    Sources are the initial maximal compositions (one node per occupied
    stack, per buffer object, per robot with its load). Each action is
    applied to ``state`` with its precondition check, then consumes the
    frontier nodes of its entities and produces recomposed heads: Pick
    merges robot and object and splits off the stack remainder, Place
    splits robot and object and merges the object into the landing stack,
    Handoff moves the object between the two robot compositions. A head is
    the node it recomposes with the moved object added or taken away, in
    its composition and in its facts, which are one ``OnStack``, ``Held``
    or ``InBuffer`` fact apart. Members are the problem's ``entities``.
    ``build`` validates the graph once.
    """

    def __init__(self, p: Problem) -> None:
        self.p = p
        self.state = p.initial
        self.builder = HypergraphBuilder()
        self.frontier: dict = {}   # entity name -> node id
        for comp, facts in initial_decomposition(p):
            self._emit(comp, facts, ())

    def _emit(self, comp: frozenset, facts: frozenset, via: tuple) -> int:
        nid = self.builder.add_node(comp, facts, via)
        for entity in comp:
            self.frontier[entity.name] = nid
        return nid

    def extend(self, actions: list) -> None:
        """Apply and compile ``actions`` from ``state``, which they advance."""
        p, emit, frontier, node = self.p, self._emit, self.frontier, self.builder.node
        state = self.state
        for action in actions:
            nxt = apply(state, action, p)
            o = action.obj
            moved = frozenset((p.entities[o],))
            via = (action,)
            if isinstance(action, Pick):
                hand, source = node(frontier[action.robot]), node(frontier[o])
                tails = (hand.id, source.id)
                heads = [emit(hand.composition | moved,
                              hand.state | {Held(action.robot, o)}, via)]
                rest = source.composition - moved
                if rest:   # o left the top of a stack, at height len(rest)
                    heads.append(emit(rest, source.state - {OnStack(o, action.region, len(rest))},
                                      via))
            elif isinstance(action, Place):
                hand = node(frontier[action.robot])
                tails = (hand.id,)
                if p.region_map[action.region].kind == STACK:
                    below = state.stacks.get(action.region, ())
                    fact = OnStack(o, action.region, len(below))
                    if below:
                        group = node(frontier[below[-1]])
                        tails += (group.id,)
                        landing = emit(group.composition | moved, group.state | {fact}, via)
                    else:
                        landing = emit(moved, frozenset((fact,)), via)
                else:
                    landing = emit(moved, frozenset((InBuffer(o, action.region),)), via)
                heads = [landing, emit(hand.composition - moved,
                                       hand.state - {Held(action.robot, o)}, via)]
            else:
                giver, receiver = node(frontier[action.giver]), node(frontier[action.receiver])
                tails = (giver.id, receiver.id)
                heads = [emit(giver.composition - moved,
                              giver.state - {Held(action.giver, o)}, via),
                         emit(receiver.composition | moved,
                              receiver.state | {Held(action.receiver, o)}, via)]
            self.builder.add_arc(action, tails, heads)
            state = nxt
        self.state = state

    def build(self) -> SolutionHypergraph:
        return self.builder.build()


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
