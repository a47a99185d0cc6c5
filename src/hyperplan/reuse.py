"""Grounding an abstract strategy on a new problem and refining it.

Grounding binds abstract objects to concrete objects. Objects the strategy
places in a goal stack are forced: an abstract object at position i of a
target stack maps to the object at position i of the matched goal stack.
The remaining placeholders (objects the strategy moved without a goal
position, e.g. parked blockers) are assigned by enumerating every
placement onto the unconstrained objects; initial above-relations break
ties. Target roles are matched to goal regions by equal stack height, then
declaration order.

Reconstruction turns the grounded strategy into sub-goals: one entry per
abstract hyperarc that places objects in a goal region, in topological
order. Refinement solves each sub-goal as a planning sub-problem: start
from the state the previous sub-problems produced, reach the sub-goal's
placements, and never move an object that already sits in an achieved
placement. The concatenated sub-solutions compile into one solution
hypergraph whose robot entities are exactly those the sub-solutions
introduced.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from .abstraction import (
    AbstractHypergraph,
    AbstractObject,
    BufferRole,
    SourceRole,
)
from .domain import BUFFER, OnStack, Problem, apply, is_goal
from .hypergraph import arc_topological_order, topological_order
from .planner import (
    BudgetExhausted,
    NoSolution,
    SearchConfig,
    build_hypergraph,
    execute_hypergraph,
    plan,
)

FAIL_HARD = "fail-hard"
SCRATCH_FALLBACK = "scratch-fallback"


class NoGrounding(Exception):
    """The grounding constraint problem is unsatisfiable."""


class SubproblemInfeasible(Exception):
    def __init__(self, arc_id: int | None, reason: str):
        self.arc_id = arc_id
        self.reason = reason
        super().__init__(f"abstract arc {arc_id}: {reason}")


@dataclass(frozen=True)
class GroundingAssignment:
    """Bijection from abstract placeholders and roles to concrete names."""

    object_map: Mapping[AbstractObject, str]
    region_map: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "object_map", MappingProxyType(dict(self.object_map)))
        object.__setattr__(self, "region_map", MappingProxyType(dict(self.region_map)))


@dataclass(frozen=True)
class RefinementConfig:
    search: SearchConfig = field(default_factory=SearchConfig)
    fallback: str = FAIL_HARD

    def __post_init__(self) -> None:
        if self.fallback not in (FAIL_HARD, SCRATCH_FALLBACK):
            raise ValueError(f"unknown fallback mode: {self.fallback!r}")


@dataclass
class ReuseStats:
    subproblems: tuple = ()
    total_expansions: int = 0
    actions: int = 0
    makespan: int = 0
    fallback_reason: str = ""   # "<ExceptionClass>: <message>"; empty if none
    wall_time: float = 0.0

    @property
    def fallback_used(self) -> bool:
        return bool(self.fallback_reason)


# --- grounding -------------------------------------------------------------

def _match_targets(ah: AbstractHypergraph, p: Problem) -> dict:
    """Pair target roles with goal regions of equal stack height."""
    ah_stacks = sorted(ah.goal_stacks, key=lambda r: r.index)
    if sorted(len(ah.goal_stacks[r]) for r in ah_stacks) != \
            sorted(len(v) for v in p.goal.values()):
        raise NoGrounding("goal stack-height multisets differ")
    roles_by_height: dict = {}
    for role in ah_stacks:
        roles_by_height.setdefault(len(ah.goal_stacks[role]), []).append(role)
    regions_by_height: dict = {}
    for region, want in p.goal.items():
        regions_by_height.setdefault(len(want), []).append(region)
    out = {}
    for height, roles in roles_by_height.items():
        for role, region in zip(roles, regions_by_height[height]):
            out[role] = region
    return out


def _initial_above_pairs(ah: AbstractHypergraph) -> list:
    pairs = []
    for nid in ah.sources:
        order = ah.nodes[nid].stack_order
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                pairs.append((order[i], order[j]))
    return pairs


def ground_strategy(ah: AbstractHypergraph, p: Problem) -> GroundingAssignment:
    """Deterministic assignment of every placeholder, or NoGrounding.

    Target-bound objects are forced by position; remaining abstract objects
    (objects the strategy moved without a goal position, e.g. parked
    blockers) are tried on every ordered choice of the problem's
    unconstrained objects. The choice preserving the most initial
    above-relations wins; ties go to the lexicographically first.
    """
    errors = p.validate()
    if errors:
        raise ValueError(f"invalid problem: {errors[0]}")
    target_regions = _match_targets(ah, p)

    object_map: dict = {}
    used: set = set()
    for role in sorted(ah.goal_stacks, key=lambda r: r.index):
        region = target_regions[role]
        for pos, aobj in enumerate(ah.goal_stacks[role]):
            concrete = p.goal[region][pos]
            if object_map.get(aobj, concrete) != concrete:
                raise NoGrounding(
                    f"{aobj} pinned to two different goal positions")
            if aobj not in object_map:
                if concrete in used:
                    raise NoGrounding(f"{concrete!r} required twice")
                object_map[aobj] = concrete
                used.add(concrete)

    free = sorted(ah.abstract_objects - set(object_map))
    pool = sorted(o for o in p.objects if o not in used)
    if len(free) > len(pool):
        raise NoGrounding("not enough objects for the strategy's placeholders")
    if free:
        above = _initial_above_pairs(ah)

        def initially_above(low: str, high: str) -> bool:
            for stack in p.initial.stacks.values():
                if low in stack and high in stack:
                    return stack.index(low) < stack.index(high)
            return False

        best, best_score = None, -1
        for values in itertools.permutations(pool, len(free)):
            candidate = dict(object_map)
            candidate.update(zip(free, values))
            score = sum(1 for a, b in above
                        if initially_above(candidate[a], candidate[b]))
            if score > best_score:
                best, best_score = candidate, score
        object_map = best

    region_map: dict = dict(target_regions)
    for nid in sorted(ah.nodes):
        node = ah.nodes[nid]
        if isinstance(node.region, SourceRole) and node.region not in region_map:
            anchor = object_map[min(node.composition)]
            fact = p.initial.placement_of(anchor)
            if fact is not None and not isinstance(fact, OnStack):
                continue
            if fact is not None:
                region_map[node.region] = fact.region
    if ah.uses_buffer:
        region_map[BufferRole()] = _pick_buffer(p)
    return GroundingAssignment(object_map, region_map)


def _pick_buffer(p: Problem) -> str:
    """Lexicographically first reachable buffer, preferring spare capacity.

    A full buffer can still ground a strategy whose buffer role marks where
    objects start rather than a parking need, so it is kept as a fallback.
    """
    candidates = [r for r in sorted(p.region_map)
                  if p.region_map[r].kind == BUFFER and r in p.reachable]
    for region in candidates:
        spec = p.region_map[region]
        if len(p.initial.buffers.get(region, frozenset())) < spec.capacity:
            return region
    if candidates:
        return candidates[0]
    raise NoGrounding("strategy needs a buffer but none is available")


def verify_grounding(ah: AbstractHypergraph, p: Problem,
                     g: GroundingAssignment) -> list:
    """Independent re-check of every hard grounding constraint."""
    errors = []
    values = list(g.object_map.values())
    if len(set(values)) != len(values):
        errors.append("object map is not injective")
    for aobj in ah.abstract_objects:
        if aobj not in g.object_map:
            errors.append(f"{aobj} left unmapped")
        elif g.object_map[aobj] not in p.objects:
            errors.append(f"{aobj} mapped to unknown object")
    for role, stack in ah.goal_stacks.items():
        region = g.region_map.get(role)
        if region not in p.goal:
            errors.append(f"{role} not mapped to a goal region")
            continue
        want = p.goal[region]
        if len(want) != len(stack):
            errors.append(f"{role} height differs from goal region {region!r}")
            continue
        for pos, aobj in enumerate(stack):
            if g.object_map.get(aobj) != want[pos]:
                errors.append(
                    f"{role} position {pos} maps to "
                    f"{g.object_map.get(aobj)!r}, goal wants {want[pos]!r}")
    if ah.uses_buffer and BufferRole() not in g.region_map:
        errors.append("strategy uses a buffer but none was grounded")
    return errors


# --- reconstruction ----------------------------------------------------------

def reconstruct(ah: AbstractHypergraph, g: GroundingAssignment,
                p: Problem) -> tuple:
    """Grounded sub-goals in refinement order.

    Walks the abstract hyperarcs in topological order and returns one
    ``(arc_id, ((goal_region, stack_order), ...))`` entry per arc whose
    heads place objects in a goal region; arcs without such a placement
    are dropped.
    """
    subgoals = []
    for aid in arc_topological_order(ah.arcs):
        targets = []
        for nid in sorted(ah.arcs[aid].heads):
            node = ah.nodes[nid]
            region = g.region_map.get(node.region)
            if region in p.goal and node.stack_order:
                targets.append(
                    (region, tuple(g.object_map[o] for o in node.stack_order)))
        if targets:
            subgoals.append((aid, tuple(targets)))
    return tuple(subgoals)


# --- refinement ---------------------------------------------------------------

def refine(subgoals: tuple, p: Problem,
           config: RefinementConfig | None = None) -> tuple:
    """Solve every sub-goal as a sub-problem and stitch the results.

    State is threaded through the sub-problems in order; the goal of each
    is every placement achieved so far, and objects already resting in an
    achieved placement are frozen. Returns ``(SolutionHypergraph,
    ReuseStats)``; under the scratch fallback a failed refinement is
    discarded in favour of planning from scratch.
    """
    cfg = config or RefinementConfig()
    started = time.perf_counter()
    try:
        actions, substats = _refine_actions(subgoals, p, cfg.search)
    except SubproblemInfeasible as exc:
        if cfg.fallback == SCRATCH_FALLBACK:
            return _scratch(p, cfg, started, exc)
        raise
    graph = build_hypergraph(actions, p)
    _, makespan, count = execute_hypergraph(graph, p)
    stats = ReuseStats(
        subproblems=tuple(substats),
        total_expansions=sum(s.expansions for s in substats),
        actions=count,
        makespan=makespan,
        wall_time=time.perf_counter() - started,
    )
    return graph, stats


def _refine_actions(subgoals: tuple, p: Problem, search: SearchConfig) -> tuple:
    state = p.initial
    actions: list = []
    substats: list = []
    achieved: dict = {}
    frozen: set = set()
    for aid, targets in subgoals:
        achieved.update(targets)
        sub = replace(p, initial=state, goal=dict(achieved))
        # Stale ``achieved`` entries can put one object in two goal stacks;
        # that is a refinement failure, not an input error.
        errors = sub.validate()
        if errors:
            raise SubproblemInfeasible(aid, f"invalid sub-problem: {errors[0]}")
        try:
            sub_graph, sub_stats = plan(sub, search, frozen=frozenset(frozen),
                                        prefix_goals=True)
        except (NoSolution, BudgetExhausted) as exc:
            raise SubproblemInfeasible(aid, str(exc)) from exc
        for arc_id in topological_order(sub_graph):
            action = sub_graph.arcs[arc_id].label
            state = apply(state, action, p)
            actions.append(action)
        substats.append(sub_stats)
        for _, order in targets:
            frozen.update(order)
    if not is_goal(state, p):
        raise SubproblemInfeasible(
            None, "all abstract arcs refined but the goal is not reached")
    return actions, substats


def _scratch(p: Problem, cfg: RefinementConfig, started: float,
             reason: Exception) -> tuple:
    """Plan from scratch because ``reason`` stopped reuse."""
    graph, stats = plan(p, cfg.search)
    reuse_stats = ReuseStats(
        subproblems=(stats,),
        total_expansions=stats.expansions,
        actions=stats.solution_actions,
        makespan=stats.makespan,
        fallback_reason=f"{type(reason).__name__}: {reason}",
        wall_time=time.perf_counter() - started,
    )
    return graph, reuse_stats


def reuse_pipeline(ah: AbstractHypergraph | None, p: Problem,
                   config: RefinementConfig | None = None) -> tuple:
    """ground_strategy, reconstruct, then refine, honouring the fallback.

    ``ah`` is None when no stored strategy matched; that is a grounding
    failure like any other.
    """
    cfg = config or RefinementConfig()
    started = time.perf_counter()
    try:
        if ah is None:
            raise NoGrounding("no stored strategy matches this problem")
        assignment = ground_strategy(ah, p)
    except NoGrounding as exc:
        if cfg.fallback == SCRATCH_FALLBACK:
            return _scratch(p, cfg, started, exc)
        raise
    return refine(reconstruct(ah, assignment, p), p, cfg)
