"""From-scratch solving: best-first search plus hypergraph compilation.

``plan`` runs A* over world states with unit action cost and an admissible
reach-aware heuristic, so the returned action count is minimal. The action
sequence is then compiled into a solution hypergraph whose arcs recover the
plan's parallel structure from entity dependencies alone. ``bfs_oracle`` is
an independent exhaustive breadth-first search kept deliberately separate
from the A* path so tests can cross-check optimality.
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
    execute_hypergraph,
    initial_decomposition,
    is_goal,
)
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


def heuristic(s: WorldState, p: Problem) -> int | None:
    """Admissible lower bound on remaining actions; None flags a dead end.

    Per misplaced goal object: 1 if held by a robot that reaches the target
    (a Place remains), 2 if held by one that does not (a transfer plus a
    Place), 2 if some single robot reaches both its region and the target
    (Pick plus Place), else 3 (at least one handoff is forced). An object
    resting where no robot can reach, or a target no robot can reach, makes
    the state hopeless.
    """
    stacks = s.stacks
    reachable = p.reachable
    total = 0
    resting = None
    for o, region, height in p.goal_positions:
        stack = stacks.get(region, ())
        if height < len(stack) and stack[height] == o:
            continue
        if region not in reachable:
            return None
        if resting is None:
            resting, held_by = _locations(s)
        holder = held_by.get(o)
        if holder is not None:
            total += 1 if region in p.robot_map[holder].reach else 2
            continue
        here = resting[o]
        if here not in reachable:
            return None
        total += 2 if (here, region) in p.reach_pairs else 3
    return total


def _locations(s: WorldState) -> tuple:
    """``(object -> region it rests in, object -> robot holding it)``."""
    resting = {o: r for r, stack in s.stacks.items() for o in stack}
    resting.update((o, r) for r, objs in s.buffers.items() for o in objs)
    held_by = {o: r for r, held in s.holdings.items() for o in held}
    return resting, held_by


def plan(p: Problem, config: SearchConfig | None = None,
         prefix_goals: bool = False) -> tuple:
    """Solve a problem, returning ``(SolutionHypergraph, SearchStats)``.

    Deterministic: successors are generated in sorted action order and
    equal-cost frontier entries pop in insertion order. Raises NoSolution
    when the (finite) state space is exhausted and BudgetExhausted when the
    expansion cap is hit. ``prefix_goals`` switches the goal test to the
    positional reading used for refinement sub-problems.
    """
    cfg = config or SearchConfig()
    errors = p.validate()
    if errors:
        raise ValueError(f"invalid problem: {errors[0]}")
    started = time.perf_counter()
    stats = SearchStats()

    init = p.initial
    if is_goal(init, p, prefix=prefix_goals):
        graph = build_hypergraph([], p)
        stats.wall_time = time.perf_counter() - started
        return graph, stats

    h0 = heuristic(init, p)
    if h0 is None:
        raise NoSolution("a goal object or target region is unreachable")

    counter = itertools.count()
    frontier = [(h0, next(counter), init)]
    best_g = {init: 0}
    parent: dict = {init: None}
    closed: set = set()

    while frontier:
        _, _, state = heapq.heappop(frontier)
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
            graph = build_hypergraph(actions, p)
            _, makespan, count = execute_hypergraph(graph, p)
            stats.solution_actions = count
            stats.makespan = makespan
            stats.wall_time = time.perf_counter() - started
            return graph, stats
        closed.add(state)
        stats.expansions += 1
        if stats.expansions > cfg.max_expansions:
            raise BudgetExhausted(cfg.max_expansions)
        g2 = best_g[state] + 1
        for action in applicable_actions(state, p):
            successor = apply(state, action, p)
            if successor in closed:
                continue
            known = best_g.get(successor)
            if known is not None and known <= g2:
                continue
            h = heuristic(successor, p)
            if h is None:
                continue
            best_g[successor] = g2
            parent[successor] = (state, action)
            heapq.heappush(frontier, (g2 + h, next(counter), successor))
            stats.generated += 1
    raise NoSolution("state space exhausted without reaching the goal")


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
