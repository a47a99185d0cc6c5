"""From-scratch solving: best-first search plus hypergraph compilation.

``search`` runs A* over world states with unit action cost and an
admissible heuristic that counts the objects that must move, so the
returned action count is minimal. Among frontier entries of equal f the one
with lower h, the deeper state, pops first, then the one pushed first. It
returns the action sequence and compiles nothing. ``plan`` is ``search``
plus one compilation: the actions become a solution hypergraph whose arcs
recover the plan's parallel structure from entity dependencies alone. The
plan is checked as it is compiled (every action applied with its
precondition check, the graph validated once when sealed) and is not
executed a second time; its makespan is read off the graph.
``bfs_oracle`` is an independent exhaustive breadth-first search kept
deliberately separate from the A* path so tests can cross-check optimality.
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
    """The goal is unreachable from the initial state."""


class BudgetExhausted(Exception):
    def __init__(self, max_expansions: int):
        self.max_expansions = max_expansions
        super().__init__(f"expansion budget of {max_expansions} exhausted")


def heuristic(s: WorldState, p: Problem, prefix: bool = False) -> int | None:
    """Admissible lower bound on remaining actions; None flags a dead end.

    ``prefix`` selects the goal reading, as in ``is_goal``. The bound sums a
    cost over every object that must move.

    Which objects must move: in each stack, let k be the length of its
    common prefix with the region's goal stack. In a goal region everything
    from k up must move, except in the prefix reading once the goal stack
    is complete. There, and in a region without a goal, everything from the
    lowest goal object at or above k up must move.

    Cost per object that must move: 1 for an object outside the goal (its
    Pick). A goal object costs 2 if one robot reaches both its region and
    its goal region (Pick and Place), else 3 (a handoff, or a second Pick
    and Place, is forced). A goal object in a buffer costs 2 or 3 the same
    way; a held goal object costs 1 if its holder reaches the goal region
    (a Place remains), else 2. Each action moves exactly one object, and
    each term counts actions on a different object, so the sum stays
    admissible with handoffs and robot capacity above 1.

    Dead ends: an object that must move rests where no robot reaches, or a
    goal region no robot reaches is unsatisfied in this reading.
    """
    stacks = s.stacks
    goal = p.goal
    for region in p.unreachable_goals:
        want = goal[region]
        stack = stacks.get(region, ())
        if (stack[:len(want)] if prefix else stack) != want:
            return None
    target = p.goal_region
    reachable = p.reachable
    pairs = p.reach_pairs
    total = 0
    for region, stack in stacks.items():
        want = goal.get(region)
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
        if k == len(stack):
            continue
        if region not in reachable:
            return None
        for o in stack[k:]:
            t = target.get(o)
            total += 1 if t is None else 2 if (region, t) in pairs else 3
    for region, objs in s.buffers.items():
        for o in objs:
            t = target.get(o)
            if t is not None:
                if region not in reachable:
                    return None
                total += 2 if (region, t) in pairs else 3
    robots = p.robot_map
    for holder, held in s.holdings.items():
        for o in held:
            t = target.get(o)
            if t is not None:
                total += 1 if t in robots[holder].reach else 2
    return total


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

    counter = itertools.count()
    frontier = [(h0, h0, next(counter), init)]
    best_g = {init: 0}
    parent: dict = {init: None}
    closed: set = set()

    while frontier:
        state = heapq.heappop(frontier)[3]
        if state in closed:
            continue
        if is_goal(state, p, prefix=prefix_goals):
            actions = []
            cursor = state
            while parent[cursor] is not None:
                prev, act = parent[cursor]
                actions.append(act)
                cursor = prev
            actions.reverse()
            stats.solution_actions = len(actions)
            stats.wall_time = time.perf_counter() - started
            return actions, stats
        closed.add(state)
        stats.expansions += 1
        if stats.expansions > cfg.max_expansions:
            raise BudgetExhausted(cfg.max_expansions)
        g2 = best_g[state] + 1
        # applicable_actions checks every precondition, so apply's own
        # check would only repeat it
        for action in applicable_actions(state, p):
            successor = apply_unchecked(state, action, p)
            if successor in closed:
                continue
            known = best_g.get(successor)
            if known is not None and known <= g2:
                continue
            h = heuristic(successor, p, prefix_goals)
            if h is None:
                continue
            best_g[successor] = g2
            parent[successor] = (state, action)
            heapq.heappush(frontier, (g2 + h, h, next(counter), successor))
            stats.generated += 1
    raise NoSolution("state space exhausted without reaching the goal")


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
    """Exhaustive breadth-first search over canonical world states.

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
