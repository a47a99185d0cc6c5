"""Grounding an abstract strategy on a new problem and refining it.

Grounding binds the abstract objects of the strategy's goal stacks to
concrete objects, and nothing else: an abstract object at position i of a
target stack maps to the object at position i of the matched goal stack.
Target roles are matched to goal regions by equal stack height, then
declaration order.

Reconstruction turns the grounded strategy into sub-goals: one entry per
abstract hyperarc whose heads place a prefix of a goal stack, in arc id
order, which is the strategy's dependency order. Temporary placements
(objects the strategy moved without a goal position, e.g. parked
blockers) are left to the search.
Refinement solves each sub-goal as a search sub-problem: start from the
state the previous sub-problems produced and reach every placement achieved
so far, read positionally (each goal stack's wanted prefix, objects above
it allowed). The last sub-problem is exact: it reaches the full goal with
nothing above a goal stack, so a refinement that succeeds reaches the goal.
Each sub-problem is derived with ``Problem.subproblem``: it shares the
problem's goal-independent tables and structure checks, so it costs its own
search plus the check of its goal and start state. Its search returns
actions only, and one ``Compiler`` takes them as they come: it applies each
action once, with its precondition check, and its state is where the next
sub-problem starts. The result is one solution hypergraph, validated once
and not executed a second time, whose robot entities are exactly those the
sub-solutions introduced. ``reuse_pipeline`` runs the three phases and is
the one place that decides to plan from scratch instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .abstraction import AbstractHypergraph, AbstractObject
from .domain import Problem, makespan
# apply, build_hypergraph, execute_hypergraph, is_goal and topological_order
# are unused here but stay module attributes: bench/spans.py wraps them in
# hyperplan.reuse by name.
from .domain import apply, execute_hypergraph, is_goal  # noqa: F401
from .hypergraph import topological_order  # noqa: F401
from .planner import build_hypergraph  # noqa: F401
from .planner import (
    BudgetExhausted,
    Compiler,
    NoSolution,
    SearchConfig,
    plan,
    search,
)

FAIL_HARD = "fail-hard"
SCRATCH_FALLBACK = "scratch-fallback"


class NoGrounding(Exception):
    """The strategy cannot be bound to this problem."""


class SubproblemInfeasible(Exception):
    """A refinement sub-problem has no solution within the search budget.

    ``arc_id`` is the abstract arc of its sub-goal (None for the one
    sub-problem of a strategy without sub-goals), ``goal`` the
    sub-problem's goal and ``expansions`` the states its search expanded.
    """

    def __init__(self, arc_id: int | None, reason: str, goal: Mapping[str, tuple],
                 expansions: int):
        self.arc_id = arc_id
        self.reason = reason
        self.goal = goal
        self.expansions = expansions
        stacks = ", ".join(f"{r}=[{' '.join(want)}]" for r, want in goal.items())
        text = f"{reason} (sub-goal {stacks or 'none'}; {expansions} states expanded)"
        super().__init__(text if arc_id is None else f"abstract arc {arc_id}: {text}")


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
    """Every search's budget, and whether ``reuse_pipeline`` falls back."""

    search: SearchConfig = field(default_factory=SearchConfig)
    fallback: str = FAIL_HARD

    def __post_init__(self) -> None:
        if self.fallback not in (FAIL_HARD, SCRATCH_FALLBACK):
            raise ValueError(f"unknown fallback mode: {self.fallback!r}")


@dataclass
class ReuseStats:
    """Search counts and seconds of one reuse (of the scratch plan after a
    fallback); the phase times follow ``reuse_pipeline``'s timing rule."""

    subproblems: tuple = ()
    total_expansions: int = 0
    actions: int = 0
    makespan: int = 0
    fallback_reason: str = ""   # "<ExceptionClass>: <message>"; empty if none
    wall_time: float = 0.0
    ground_time: float = 0.0
    reconstruct_time: float = 0.0
    refine_time: float = 0.0

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
    return GroundingAssignment(object_map, region_map)


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
    return errors


# --- reconstruction ----------------------------------------------------------

def reconstruct(ah: AbstractHypergraph, g: GroundingAssignment,
                p: Problem) -> tuple:
    """Grounded sub-goals in refinement order.

    Walks the abstract hyperarcs in id order, their dependency order, and
    returns one ``(arc_id, ((goal_region, stack_order), ...))`` entry per
    arc whose heads place a prefix of their target role's goal stack. These
    are the placements that agree with the final goal; temporary placements
    and arcs without a goal-prefix head are dropped.
    """
    subgoals = []
    for aid in sorted(ah.arcs):
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
           config: SearchConfig | None = None) -> tuple:
    """Solve every sub-goal as a sub-problem and stitch the results.

    State is threaded through the sub-problems in order; the goal of each
    is every placement achieved so far, read positionally, except the last,
    which is the full goal read exactly (with no sub-goals, that is the only
    sub-problem). Each sub-problem is searched for actions only, which one
    ``Compiler`` applies and compiles, so its state starts the next
    sub-problem; the graph is sealed once at the end. Returns
    ``(SolutionHypergraph, ReuseStats)``; the per-sub-problem stats carry
    expansions, generated states and action counts, not makespans, and the
    times read 0: ``reuse_pipeline`` times every phase. Raises
    SubproblemInfeasible when a sub-problem has no solution within the
    budget; whether to plan from scratch instead is ``reuse_pipeline``'s
    decision.
    """
    compiler = Compiler(p)
    substats: list = []
    achieved: dict = {}
    steps = subgoals or ((None, ()),)
    for i, (aid, targets) in enumerate(steps, 1):
        achieved.update(targets)
        exact = i == len(steps)
        sub = p.subproblem(compiler.state, p.goal if exact else dict(achieved))
        try:
            sub_actions, sub_stats = search(sub, config, prefix_goals=not exact)
        except (NoSolution, BudgetExhausted) as exc:
            raise SubproblemInfeasible(aid, str(exc), sub.goal, exc.expansions) from exc
        compiler.extend(sub_actions)
        substats.append(sub_stats)
    graph = compiler.build()
    return graph, ReuseStats(
        subproblems=tuple(substats),
        total_expansions=sum(s.expansions for s in substats),
        actions=len(graph.arcs),
        makespan=makespan(graph),
    )


def reuse_pipeline(ah: AbstractHypergraph | None, p: Problem,
                   config: RefinementConfig | None = None) -> tuple:
    """ground_strategy, reconstruct, then refine; the one scratch fallback.

    ``ah`` is None when no stored strategy matched; that is a grounding
    failure like any other. A NoGrounding or SubproblemInfeasible from any
    phase is raised under ``FAIL_HARD``; under ``SCRATCH_FALLBACK`` the
    problem is planned from scratch instead, and the stats are the scratch
    run's with ``fallback_reason`` naming the failure. Timing follows one
    rule on every path: each phase time covers that phase, a failed attempt
    included; a phase that never ran reads 0; ``wall_time`` covers the
    whole call, so a scratch plan after a failure is counted in it alone.
    """
    cfg = config or RefinementConfig()
    ticks = [time.perf_counter()]  # the start, then the end of each phase run
    try:
        if ah is None:
            raise NoGrounding("no stored strategy matches this problem")
        assignment = ground_strategy(ah, p)
        ticks.append(time.perf_counter())
        subgoals = reconstruct(ah, assignment, p)
        ticks.append(time.perf_counter())
        graph, stats = refine(subgoals, p, cfg.search)
        ticks.append(time.perf_counter())
    except (NoGrounding, SubproblemInfeasible) as exc:
        ticks.append(time.perf_counter())
        if cfg.fallback != SCRATCH_FALLBACK:
            raise
        graph, scratch = plan(p, cfg.search)
        stats = ReuseStats(
            subproblems=(scratch,),
            total_expansions=scratch.expansions,
            actions=scratch.solution_actions,
            makespan=scratch.makespan,
            fallback_reason=f"{type(exc).__name__}: {exc}",
        )
    phases = [end - begin for begin, end in zip(ticks, ticks[1:])]
    stats.ground_time, stats.reconstruct_time, stats.refine_time = \
        phases + [0.0] * (3 - len(phases))
    stats.wall_time = time.perf_counter() - ticks[0]
    return graph, stats
