"""Grounding an abstract strategy on a new problem and refining it.

Grounding pairs the strategy's target roles with the problem's goal
regions, and nothing else: by equal stack height, then declaration order.
Reconstruction reads the strategy's ``schedule``, derived once per
strategy: one step per abstract hyperarc whose heads place a prefix of a
goal stack, in arc id order, which is the strategy's dependency order.
Each step names (target role, prefix length) pairs, so a grounded
sub-goal is that prefix of the paired region's goal stack. Temporary
placements (objects the strategy moved without a goal position, e.g.
parked blockers) are left to the search.
Refinement solves each sub-goal as a search sub-problem: start from the
state the previous sub-problems produced and reach every placement achieved
so far, read positionally (each goal stack's wanted prefix, objects above
it allowed). The last sub-problem is exact: it reaches the full goal with
nothing above a goal stack, so a refinement that succeeds reaches the goal.
Each sub-problem is derived with ``Problem.subproblem``: it shares the
problem's goal-independent tables and structure checks, and it is valid by
construction (its start state is reached by checked ``apply`` calls, its
goal is a prefix of the checked goal), so it costs its own search and no
check: ``refine`` checks the request's problem once and searches each
sub-problem with ``search_unchecked``. Its search returns actions only,
and one ``Compiler`` takes them as they come. The compiler hands each pick
to the interchangeable robot whose hand is free first, so two alike robots
work in parallel although each sub-problem's search puts every move on one
of them. It applies each action once, with its precondition check, and its
state is where the next sub-problem starts. The result is one solution
hypergraph, validated once and not executed a second time, whose robot
entities are exactly those the sub-solutions introduced.
``reuse_pipeline`` runs the three phases and is the one place that decides
to plan from scratch instead. It checks the problem once, in grounding,
and refines through ``_refine``, which is ``refine`` without its check,
as ``search_unchecked`` is ``search`` without its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from .abstraction import AbstractHypergraph
from .domain import Problem, check_problem, goal_heights
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
    search_unchecked,
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
        self.goal = goal
        self.expansions = expansions
        stacks = ", ".join(f"{r}=[{' '.join(want)}]" for r, want in goal.items())
        text = f"{reason} (sub-goal {stacks or 'none'}; {expansions} states expanded)"
        super().__init__(text if arc_id is None else f"abstract arc {arc_id}: {text}")


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
    fallback): ``total_expansions`` sums ``subproblems``, and the phase
    times follow ``reuse_pipeline``'s timing rule."""

    subproblems: tuple = ()
    actions: int = 0
    makespan: int = 0
    fallback_reason: str = ""   # "<ExceptionClass>: <message>"; empty if none
    wall_time: float = 0.0
    ground_time: float = 0.0
    reconstruct_time: float = 0.0
    refine_time: float = 0.0

    @property
    def total_expansions(self) -> int:
        return sum(s.expansions for s in self.subproblems)

    @property
    def fallback_used(self) -> bool:
        return bool(self.fallback_reason)


# --- grounding -------------------------------------------------------------

def ground_strategy(ah: AbstractHypergraph, p: Problem) -> dict:
    """Target role index to goal region, or raise NoGrounding.

    Roles pair with goal regions of equal stack height, in role index and
    goal declaration order; the height multisets must be equal.
    """
    check_problem(p)
    if goal_heights(ah.goal_stacks) != goal_heights(p.goal):
        raise NoGrounding("goal stack-height multisets differ")
    regions_by_height: dict = {}
    for region, want in p.goal.items():
        regions_by_height.setdefault(len(want), []).append(region)
    return {r.index: regions_by_height[len(ah.goal_stacks[r])].pop(0)
            for r in sorted(ah.goal_stacks, key=lambda r: r.index)}


# --- reconstruction ----------------------------------------------------------

def reconstruct(ah: AbstractHypergraph, regions: dict, p: Problem) -> tuple:
    """Grounded sub-goals in refinement order.

    One ``(arc_id, ((goal_region, stack_order), ...))`` entry per step of
    ``ah.schedule``: each (target index, prefix length) pair becomes that
    prefix of the paired region's goal stack.
    """
    return tuple(
        (aid, tuple((regions[t], p.goal[regions[t]][:k]) for t, k in targets))
        for aid, targets in ah.schedule)


# --- refinement ---------------------------------------------------------------

def refine(subgoals: tuple, p: Problem,
           config: SearchConfig | None = None) -> tuple:
    """Solve every sub-goal as a sub-problem and stitch the results.

    ``p`` is checked once (ValueError if it is invalid); its sub-problems
    are valid by construction and searched unchecked. State is threaded
    through the sub-problems in order; the goal of each is every placement
    achieved so far, read positionally, except the last, which is the full
    goal read exactly (with no sub-goals, that is the only sub-problem).
    Each sub-problem is searched for actions only, which one
    ``Compiler`` applies and compiles, renaming at picks, so its state starts
    the next sub-problem; the graph is sealed once at the end, and its
    makespan is the compiler's last layer. Returns
    ``(SolutionHypergraph, ReuseStats)``; the per-sub-problem stats carry
    expansions, generated states and action counts, not makespans, and the
    times read 0: ``reuse_pipeline`` times every phase. Raises
    SubproblemInfeasible when a sub-problem has no solution within the
    budget; whether to plan from scratch instead is ``reuse_pipeline``'s
    decision.
    """
    check_problem(p)
    return _refine(subgoals, p, config)


def _refine(subgoals: tuple, p: Problem, config: SearchConfig | None) -> tuple:
    """``refine`` on a problem the caller has checked."""
    compiler = Compiler(p)
    substats: list = []
    achieved: dict = {}
    steps = subgoals or ((None, ()),)
    for i, (aid, targets) in enumerate(steps, 1):
        achieved.update(targets)
        exact = i == len(steps)
        sub = p.subproblem(compiler.state, p.goal if exact else dict(achieved))
        try:
            sub_actions, sub_stats = search_unchecked(sub, config, prefix_goals=not exact)
        except (NoSolution, BudgetExhausted) as exc:
            raise SubproblemInfeasible(aid, str(exc), sub.goal, exc.expansions) from exc
        compiler.extend(sub_actions)
        substats.append(sub_stats)
    graph = compiler.build()
    return graph, ReuseStats(
        subproblems=tuple(substats),
        actions=len(graph.arcs),
        makespan=compiler.makespan,
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
            raise NoGrounding(
                f"no stored strategy matches goal heights {list(goal_heights(p.goal))}")
        regions = ground_strategy(ah, p)
        ticks.append(time.perf_counter())
        subgoals = reconstruct(ah, regions, p)
        ticks.append(time.perf_counter())
        graph, stats = _refine(subgoals, p, cfg.search)
        ticks.append(time.perf_counter())
    except (NoGrounding, SubproblemInfeasible) as exc:
        ticks.append(time.perf_counter())
        if cfg.fallback != SCRATCH_FALLBACK:
            raise
        graph, scratch = plan(p, cfg.search)
        stats = ReuseStats(
            subproblems=(scratch,),
            actions=scratch.solution_actions,
            makespan=scratch.makespan,
            fallback_reason=f"{type(exc).__name__}: {exc}",
        )
    phases = [end - begin for begin, end in zip(ticks, ticks[1:])]
    stats.ground_time, stats.reconstruct_time, stats.refine_time = \
        phases + [0.0] * (3 - len(phases))
    stats.wall_time = time.perf_counter() - ticks[0]
    return graph, stats
