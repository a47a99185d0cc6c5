"""Grounding an abstract strategy on a new problem and refining it.

Grounding binds the abstract objects of the strategy's goal stacks to
concrete objects, and nothing else: an abstract object at position i of a
target stack maps to the object at position i of the matched goal stack.
Target roles are matched to goal regions by equal stack height, then
declaration order. A strategy with a buffer node grounds only on a
problem with a reachable buffer.

Reconstruction turns the grounded strategy into sub-goals: one entry per
abstract hyperarc whose heads place a prefix of a goal stack, in
topological order. Temporary placements (objects the strategy moved
without a goal position, e.g. parked blockers) are left to the search.
Refinement solves each sub-goal as a planning sub-problem: start from the
state the previous sub-problems produced and reach every placement achieved
so far, read positionally (each goal stack's wanted prefix, objects above
it allowed). The concatenated sub-solutions compile into one solution
hypergraph whose robot entities are exactly those the sub-solutions
introduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from .abstraction import AbstractHypergraph, AbstractObject
from .domain import BUFFER, Problem, apply, is_goal
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
    """The strategy cannot be bound to this problem."""


class SubproblemInfeasible(Exception):
    def __init__(self, arc_id: int | None, reason: str):
        self.arc_id = arc_id
        self.reason = reason
        super().__init__(f"abstract arc {arc_id}: {reason}")


@dataclass(frozen=True)
class GroundingAssignment:
    """Goal-stack placeholders to goal objects, target roles to goal regions."""

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


def ground_strategy(ah: AbstractHypergraph, p: Problem) -> GroundingAssignment:
    """Bind every goal-stack placeholder by position, or raise NoGrounding.

    The abstract object at position i of a target stack maps to the object
    at position i of the goal region matched to that role. Placeholders
    outside the goal stacks stay unbound: no sub-goal mentions them.
    """
    errors = p.validate()
    if errors:
        raise ValueError(f"invalid problem: {errors[0]}")
    region_map = _match_targets(ah, p)
    object_map: dict = {}
    for role in sorted(ah.goal_stacks, key=lambda r: r.index):
        for aobj, concrete in zip(ah.goal_stacks[role], p.goal[region_map[role]]):
            if object_map.setdefault(aobj, concrete) != concrete:
                raise NoGrounding(
                    f"{aobj} pinned to two different goal positions")
    if ah.uses_buffer and not _has_reachable_buffer(p):
        raise NoGrounding("strategy needs a buffer but none is available")
    return GroundingAssignment(object_map, region_map)


def _has_reachable_buffer(p: Problem) -> bool:
    return any(r.kind == BUFFER and r.id in p.reachable for r in p.regions)


def verify_grounding(ah: AbstractHypergraph, p: Problem,
                     g: GroundingAssignment) -> list:
    """Independent re-check of the binding ``ground_strategy`` promises."""
    errors = []
    values = list(g.object_map.values())
    if len(set(values)) != len(values):
        errors.append("object map is not injective")
    goal_objects = {o for stack in ah.goal_stacks.values() for o in stack}
    if set(g.object_map) != goal_objects:
        errors.append("object map does not bind exactly the goal-stack objects")
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
    if ah.uses_buffer and not _has_reachable_buffer(p):
        errors.append("strategy uses a buffer but the problem has none reachable")
    return errors


# --- reconstruction ----------------------------------------------------------

def reconstruct(ah: AbstractHypergraph, g: GroundingAssignment,
                p: Problem) -> tuple:
    """Grounded sub-goals in refinement order.

    Walks the abstract hyperarcs in topological order and returns one
    ``(arc_id, ((goal_region, stack_order), ...))`` entry per arc whose
    heads place a prefix of their target role's goal stack. These are the
    placements that agree with the final goal; temporary placements and
    arcs without a goal-prefix head are dropped.
    """
    subgoals = []
    for aid in arc_topological_order(ah.arcs):
        targets = []
        for nid in sorted(ah.arcs[aid].heads):
            node = ah.nodes[nid]
            stack = ah.goal_stacks.get(node.region, ())
            order = node.stack_order
            if order and stack[:len(order)] == order:
                targets.append((g.region_map[node.region],
                                tuple(g.object_map[o] for o in order)))
        if targets:
            subgoals.append((aid, tuple(targets)))
    return tuple(subgoals)


# --- refinement ---------------------------------------------------------------

def refine(subgoals: tuple, p: Problem,
           config: RefinementConfig | None = None) -> tuple:
    """Solve every sub-goal as a sub-problem and stitch the results.

    State is threaded through the sub-problems in order; the goal of each
    is every placement achieved so far, read positionally. Returns
    ``(SolutionHypergraph, ReuseStats)``; under the scratch fallback a
    failed refinement is discarded in favour of planning from scratch.
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
    for aid, targets in subgoals:
        achieved.update(targets)
        sub = replace(p, initial=state, goal=dict(achieved))
        try:
            sub_graph, sub_stats = plan(sub, search, prefix_goals=True)
        except (NoSolution, BudgetExhausted) as exc:
            raise SubproblemInfeasible(aid, str(exc)) from exc
        for arc_id in topological_order(sub_graph):
            action = sub_graph.arcs[arc_id].label
            state = apply(state, action, p)
            actions.append(action)
        substats.append(sub_stats)
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
