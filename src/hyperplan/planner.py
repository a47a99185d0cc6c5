"""From-scratch solving: best-first search plus hypergraph compilation.

``search`` runs A* over world states with unit action cost and an
admissible heuristic that counts the objects that must move, so the
returned action count is minimal. Among frontier entries of equal f the one
with lower h, the deeper state, pops first, then the one pushed first.
States that differ only in which of two interchangeable robots (equal reach
and capacity) holds what are one search node, so its expansion and
generated counts count those symmetry classes. Each successor's h is its
parent's plus the change in the terms of the entries the action replaced,
and its hash is derived the same way. It returns the action sequence and
compiles nothing. ``plan`` is ``search``
plus one compilation: the actions become a solution hypergraph whose arcs
recover the plan's parallel structure from entity dependencies alone. The
plan is checked as it is compiled (every action applied with its
precondition check, the graph validated once when sealed) and is not
executed a second time; its makespan is read off the graph.
``bfs_oracle`` is an independent exhaustive breadth-first search over every
world state, with no symmetry reduction and no heuristic, kept deliberately
separate from the A* path so tests can cross-check optimality.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass

from .domain import (
    STACK,
    Action,
    Handoff,
    Pick,
    Place,
    Problem,
    WorldState,
    applicable_actions,
    apply,
    apply_unchecked,
    initial_decomposition,
    is_goal,
    makespan,
    symmetry_key,
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
    ``search`` takes h of a successor as h of its parent plus the change in
    the terms of the entries the action replaced.

    Each action moves exactly one object, and each term counts actions on a
    different object, so the sum stays admissible with handoffs and robot
    capacity above 1.

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


def successor_heuristic(h: int, s: WorldState, a: Action, successor: WorldState,
                        p: Problem, prefix: bool, stack_costs: dict) -> int:
    """``heuristic(successor, p, prefix)`` from ``h``, the value for ``s``.

    ``successor`` is ``a`` applied to ``s``, and ``h`` is not None. Only the
    terms of the entries ``a`` replaced change. ``stack_costs`` memoises
    ``stack_term`` by ``(region, stack)`` for one problem and goal reading.
    Such an action touches only regions a robot reaches, so the successor
    is no dead end.
    """
    if isinstance(a, Handoff):
        return h - held_term(a.giver, a.obj, p) + held_term(a.receiver, a.obj, p)
    held = held_term(a.robot, a.obj, p)
    region = a.region
    if p.region_map[region].kind == STACK:
        placed = 0
        for stack in (s.stacks.get(region, ()), successor.stacks.get(region, ())):
            cost = stack_costs.get((region, stack))
            if cost is None:
                cost = stack_costs[region, stack] = stack_term(region, stack, p, prefix)
            placed = cost - placed   # ends as the successor's cost minus s's
    else:
        placed = placed_term(region, a.obj, p)
        if isinstance(a, Pick):
            placed = -placed
    return h + placed + (held if isinstance(a, Pick) else -held)


def undo(prev: WorldState, a: Action, p: Problem) -> Action | None:
    """The action that takes ``a``'s successor of ``prev`` back to ``prev``.

    None when there is none: a robot's load keeps pick order, so taking
    back an object that was not last in its load reorders the load.
    """
    pick, place, handoff = p.action_cache
    if isinstance(a, Pick):
        return place[a.robot, a.obj, a.region]
    if isinstance(a, Place):
        if prev.holdings[a.robot][-1] != a.obj:
            return None
        return pick[a.robot, a.obj, a.region]
    if prev.holdings[a.giver][-1] != a.obj:
        return None
    return handoff[a.receiver, a.giver, a.obj]


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
    ``symmetry_key``, so ``expansions`` and ``generated`` count those
    classes. Without two interchangeable robots the key is the state.
    """
    cfg = config or SearchConfig()
    errors = p.validate()
    if errors:
        raise ValueError(f"invalid problem: {errors[0]}")
    started = time.perf_counter()
    stats = SearchStats()

    init = p.initial
    if is_goal(init, p, prefix=prefix_goals):
        stats.wall_time = time.perf_counter() - started
        return [], stats

    h0 = heuristic(init, p, prefix_goals)
    if h0 is None:
        raise NoSolution("an object that must move or a goal region is unreachable")

    keyed = bool(p.robot_classes)
    init_key = symmetry_key(init, p) if keyed else init
    counter = itertools.count()
    # (f, h, insertion, state, key): the heap keeps the actual state
    frontier = [(h0, h0, next(counter), init, init_key)]
    # keyed by symmetry_key; parent[key] is (actual predecessor, action).
    # When a key is first popped, the popped state is the predecessor with
    # the action applied: states of one key share h, so a later, strictly
    # better path to the key, which alone replaces parent[key], has the
    # lower f and pops first.
    best_g = {init_key: 0}
    parent: dict = {init_key: None}
    closed: set = set()
    stack_costs: dict = {}

    while frontier:
        _, h, _, state, key = heapq.heappop(frontier)
        if key in closed:
            continue
        if is_goal(state, p, prefix=prefix_goals):
            actions = []
            step = parent[key]
            while step is not None:
                prev, act = step
                actions.append(act)
                step = parent[symmetry_key(prev, p) if keyed else prev]
            actions.reverse()
            stats.solution_actions = len(actions)
            stats.wall_time = time.perf_counter() - started
            return actions, stats
        closed.add(key)
        stats.expansions += 1
        if stats.expansions > cfg.max_expansions:
            raise BudgetExhausted(cfg.max_expansions)
        g2 = best_g[key] + 1
        arrival = parent[key]
        # its result is the closed predecessor
        back = None if arrival is None else undo(*arrival, p)
        # applicable_actions checks every precondition, so apply's own
        # check would only repeat it
        for action in applicable_actions(state, p):
            if action is back:
                continue
            successor = apply_unchecked(state, action, p)
            succ_key = symmetry_key(successor, p) if keyed else successor
            if succ_key in closed:
                continue
            known = best_g.get(succ_key)
            if known is not None and known <= g2:
                continue
            h2 = successor_heuristic(h, state, action, successor, p,
                                     prefix_goals, stack_costs)
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
