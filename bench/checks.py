"""Per-request correctness checks that do not trust the code under test.

Every returned plan is replayed twice: once by ``replay`` below, a small
simulator of the tabletop rules written for the benchmark, and once by the
program's own ``execute_hypergraph`` followed by ``is_goal``. Scratch plans
must have exactly the optimal action count recorded in ``expected.json``;
refined plans may be longer but never shorter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


def _arc_order(graph) -> list | None:
    """Arc ids with every arc after the producers of its tails; None on a cycle."""
    producer = {}
    for aid, arc in graph.arcs.items():
        for nid in arc.heads:
            producer[nid] = aid
    waiting = {}
    users: dict = {}
    for aid, arc in graph.arcs.items():
        deps = {producer[t] for t in arc.tails if t in producer}
        waiting[aid] = len(deps)
        for d in deps:
            users.setdefault(d, []).append(aid)
    ready = [aid for aid, n in waiting.items() if n == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        aid = heapq.heappop(ready)
        order.append(aid)
        for nxt in users.get(aid, ()):
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order if len(order) == len(graph.arcs) else None


def replay(graph, p) -> str | None:
    """Apply a plan's actions with the benchmark's own rules; None if it works.

    Checks reach, robot and buffer capacity, top-of-stack picks, handoffs
    between robots that share a region, and finally the goal: every goal
    stack exactly as wanted and no goal object in a hand.
    """
    kinds = {r.id: (r.kind, r.capacity) for r in p.regions}
    robots = {r.id: (set(r.reach), r.capacity) for r in p.robots}
    stacks = {r: list(v) for r, v in p.initial.stacks.items()}
    buffers = {r: set(v) for r, v in p.initial.buffers.items()}
    hands = {r: list(v) for r, v in p.initial.holdings.items()}
    order = _arc_order(graph)
    if order is None:
        return "plan arcs form a cycle"
    for aid in order:
        act = graph.arcs[aid].label
        kind = type(act).__name__
        if kind == "Handoff":
            if act.giver not in robots or act.receiver not in robots:
                return f"arc {aid}: unknown robot"
            give, take = hands.setdefault(act.giver, []), hands.setdefault(act.receiver, [])
            if act.obj not in give:
                return f"arc {aid}: {act.giver} does not hold {act.obj}"
            if len(take) >= robots[act.receiver][1]:
                return f"arc {aid}: {act.receiver} is full"
            if not robots[act.giver][0] & robots[act.receiver][0]:
                return f"arc {aid}: {act.giver} and {act.receiver} share no region"
            give.remove(act.obj)
            take.append(act.obj)
            continue
        if kind not in ("Pick", "Place"):
            return f"arc {aid}: {act!r} is not an action"
        if act.robot not in robots or act.region not in kinds:
            return f"arc {aid}: unknown robot or region"
        reach, capacity = robots[act.robot]
        if act.region not in reach:
            return f"arc {aid}: {act.region} out of {act.robot}'s reach"
        hand = hands.setdefault(act.robot, [])
        region_kind, region_capacity = kinds[act.region]
        if kind == "Pick":
            if len(hand) >= capacity:
                return f"arc {aid}: {act.robot} is full"
            if region_kind == "stack":
                pile = stacks.get(act.region, [])
                if not pile or pile[-1] != act.obj:
                    return f"arc {aid}: {act.obj} is not on top of {act.region}"
                pile.pop()
            else:
                if act.obj not in buffers.get(act.region, set()):
                    return f"arc {aid}: {act.obj} is not in {act.region}"
                buffers[act.region].remove(act.obj)
            hand.append(act.obj)
        else:
            if act.obj not in hand:
                return f"arc {aid}: {act.robot} does not hold {act.obj}"
            if region_kind == "stack":
                stacks.setdefault(act.region, []).append(act.obj)
            else:
                held = buffers.setdefault(act.region, set())
                if len(held) >= region_capacity:
                    return f"arc {aid}: {act.region} is full"
                held.add(act.obj)
            hand.remove(act.obj)
    for region, want in p.goal.items():
        if tuple(stacks.get(region, ())) != tuple(want):
            return f"goal stack {region} is {stacks.get(region, [])}, want {list(want)}"
    wanted = {o for want in p.goal.values() for o in want}
    for robot, hand in hands.items():
        if wanted & set(hand):
            return f"{robot} still holds a goal object"
    return None


@dataclass
class Verdict:
    """Failure reasons of one request and the figures of its final plan."""

    reasons: list
    wrong: bool        # makes the run incorrect: all but a known exception
    actions: int = 0
    makespan: int = 0


def check(req, out, execute_hypergraph, is_goal) -> Verdict:
    """Judge one request's outcome against the problem and its optimum.

    ``execute_hypergraph`` and ``is_goal`` are the program's functions as
    imported before any tracing wrapper was installed.
    """
    if out.error is not None:
        # The optimum stands in for the plan's figures, so that a request
        # that raises never lowers actions_total or makespan_total: no plan
        # is shorter, and a plan of n actions has a makespan of at most n.
        stand_in = req.expected or 0
        return Verdict([f"raised {out.error}"], wrong=out.error != req.known_error,
                       actions=stand_in, makespan=stand_in)
    reasons = [f"{what} changed in a write/read round trip"
               for what, same in out.round_trips if not same()]
    if out.unsolvable:
        if req.expected is not None:
            reasons.append("NoSolution on a solvable problem")
        return Verdict(reasons, wrong=bool(reasons))
    if req.expected is None:
        reasons.append("solved a problem recorded as unsolvable")
    actions = makespan = 0
    for graph, reported, optimal in out.plans:
        failure = replay(graph, req.problem)
        if failure is not None:
            reasons.append(f"replay: {failure}")
        try:
            final, makespan, actions = execute_hypergraph(graph, req.problem)
        except Exception as exc:  # a broken plan is a failed request, not a crash
            reasons.append(f"execute_hypergraph raised {type(exc).__name__}: {exc}")
            continue
        if not is_goal(final, req.problem):
            reasons.append("execute_hypergraph does not end in the goal")
        if actions != reported:
            reasons.append(f"reported {reported} actions, plan has {actions}")
        if req.expected is not None:
            if optimal and actions != req.expected:
                reasons.append(f"{actions} actions, optimum is {req.expected}")
            elif actions < req.expected:
                reasons.append(f"{actions} actions, below the optimum {req.expected}")
    return Verdict(reasons, wrong=bool(reasons), actions=actions, makespan=makespan)
