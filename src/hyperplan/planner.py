"""From-scratch solving: best-first search plus hypergraph compilation.

``search`` runs A* with unit action cost and a consistent heuristic that
counts the objects that must move and the set-downs and re-picks the
robots' hands cannot avoid, so the returned action count is minimal;
among frontier entries of equal f the lower h pops first, then the
earlier push. It runs over flat slot tuples (``SlotSpace``), so hashing
and comparing states are tuple operations: ``SlotSpace.successors``
builds each successor, its h, derived from its parent's, and its key in
one pass and hands the three over together, and one table maps each key
to its g and how it was reached. That h is a sum of per-slot terms, the
one-hand set-downs included; with more than one hand the set-downs are
not: they are the hand term, or with C hands and at least 2C + 2 objects
that can move the larger of it and the blocker term, which charges the
objects above each stack's lowest object that must move beyond what the
hands can hold. ``SlotSpace.pop_term`` is their one evaluator, which
``heuristic`` calls too: A* adds it at the first pop of every state, the
start's included, and pushes the state again when it raises its f (as
Lazy A* defers a costly heuristic). A search with no goal stack the hand
term may charge and no blocker term, where it is 0 everywhere, skips it.
States that differ only in which interchangeable robot holds what are
one node; when the robots' one such class is a pair, the common case,
each successor is keyed as it is built.
It returns actions and compiles nothing. It checks its problem first;
``search_unchecked`` is the rest of it, for refinement's sub-problems,
which are valid by construction. ``Compiler`` turns actions into a
solution hypergraph whose arcs recover the plan's parallel structure,
checked as it is compiled (every action applied once with its
precondition check, the graph validated once) and layered as it grows;
refinement compiles each sub-problem's actions as they come. As it
compiles a pick, the compiler hands it to the robot of its class whose
hand is free first, from the layers it already holds, so a compiled plan
is search's action list with interchangeable robots renamed at picks.
``plan`` is ``search`` plus one compilation, and its makespan is the
compiler's last layer.
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

from .domain import (
    STACK,
    Handoff,
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
    check_problem,
    initial_decomposition,
    is_goal,
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
    sum of per-slot terms, ``stack_term`` for each stack, ``placed_term``
    for each buffered object and ``held_term`` for each held object, which
    together sum a cost over every object that must move, plus the
    set-downs that the robots' total hand capacity C (``p.hands``) cannot
    avoid: the hand term W, and with C >= 2 and at least 2C + 2 objects
    that can move the larger of W and the blocker term B. The per-slot
    terms are ``per_slot_bound``, and the rest is ``SlotSpace.pop_term``,
    the one evaluator of it. ``search`` takes its start state's per-slot
    bound from ``per_slot_bound`` and a successor's as its parent's plus
    the change in the terms of the entries the action replaced, and adds
    ``SlotSpace.pop_term`` when it first pops a state; this function, which
    builds a ``SlotSpace`` per call, is for checking the two.

    Per-slot terms: each action moves exactly one object, and each term
    counts actions on a different object, so the sum stays admissible with
    handoffs and robot capacity above 1. It is consistent: an action lowers
    the moved object's term by at most 1 and no other term. It is 0 exactly
    on the states ``is_goal`` accepts in the same reading (nothing must
    move), which is how ``search`` tests the goal; so is the hand term.

    The hand term, one rule for every C. Take a goal stack t, with goal
    ``want``, that every robot reaches, so every goal object's per-slot
    cost in it or in a hand is one Pick and Place, or one Place. Let k be
    the length of its stack's common prefix with ``want``; once k =
    ``len(want)`` nothing of t is charged. Let W_t be t's goal objects
    resting in t at height k or above, and its held goal objects o whose
    goal stack is not exactly ``want[:want.index(o)]``. Let M be the first
    moment t's stack is a goal prefix: now, or the pick of ``stack[k]``.
    An object of W_t that is never set down again is held from M to its
    last Place, and but for ``want[k]`` that Place comes after the last
    Place of ``want[k]``, which rests below it. So all of them are held at
    once at M, with ``stack[k]`` if that is no goal object of t, and when
    ``want[k]`` is last placed, with ``want[k]`` if that is not in W_t. At
    most a_t of them avoid a set-down: C when C >= 2, ``stack[k]`` is a
    goal object of t and ``want[k]`` is in W_t, else C - 1 (with one hand,
    the hand holds ``stack[k]`` at M, so ``want[k]`` cannot avoid it, nor,
    held with ``want[k]``, can ``stack[k]``). Each object of W_t that does
    not avoid it costs one more Place and one more Pick on itself, so W
    adds 2 * max(0, |W_t| - a_t) per goal stack. No goal stack shorter than
    C is ever charged. The sum stays consistent; the tests check it on
    whole state spaces.

    The blocker term, for C >= 2 (Slaney and Thiebaux's argument for
    blocks world). Take a stack u with an object x that must move, the
    lowest one: ``stack[k]``, k as ``stack_term`` finds it in this reading.
    Every object above x leaves u before x's first pick, and at that pick
    a hand is free, so at most C - 1 objects are held. Weigh each object
    above x and each held object by the actions it costs beyond its
    per-slot term unless it is held at that pick. One outside the goal
    weighs 1: it was placed. A goal object that cannot rest in its final
    place before x's first pick, as its goal stack is u (whose height k x
    blocks) or x lies below it in its goal stack, was set down elsewhere
    and must be picked and placed again: it weighs 2 if one robot reaches
    both ends of its move (held: its holder reaches its goal region), else
    1, as its per-slot term already counts a second move. Any other object
    weighs 0. B_u is the sum of the weights less the C - 1 largest, and B
    the largest B_u. Each B_u counts actions on objects other than x
    beyond their per-slot terms, so the per-slot bound plus B is
    admissible, and as B and W may count the same actions, h adds the
    larger of the two. It is consistent; take the u of the largest B_u. A
    pick from another stack only adds a held object to it, and a pick
    above x lowers the picked object's per-slot term plus weight by at
    most 1 (a goal object's held weight is 3 less its ``held_term``). The
    pick of x leaves B_u 0 before and after, as x is the top and at most
    C - 1 objects are held. A place loses at most the placed object's
    weight, and 2 only where its per-slot term rises by 1 (a goal object
    that cannot rest in its final place is not placed there); placed on u
    it keeps its weight. A handoff moves a goal object's weight and
    per-slot term by 1 in opposite directions. So the per-slot bound plus
    B drops by at most 1 per action, and the larger of two consistent
    bounds is consistent. B is 0 where nothing must move. It costs time at
    every state ``search`` pops, so it is added only with at least 2C + 2
    objects that can move (``blocker_bound``): on the two-robot problems of
    4 objects measured, the expansions it saves did not repay that time.

    With one hand (C = 1), a_t is 0, so the hand term is a sum over slots:
    ``stack_term`` charges t's goal objects in t from ``stack[k]`` up and
    ``regrasp_term`` each held one, and ``search`` updates them per
    successor; the blocker term is not applied. With C >= 2, W is
    ``hand_charge`` per goal stack and B ``blocker_charge`` per stack, and
    ``SlotSpace.pop_term`` adds W, or their larger.
    """
    h = per_slot_bound(s, p, prefix)
    if h is None or p.hands == 1:
        return h
    space = SlotSpace(p, prefix)
    return h + space.pop_term(space.slots(s), h)


def per_slot_bound(s: WorldState, p: Problem, prefix: bool = False) -> int | None:
    """``heuristic``'s per-slot terms, the one-hand terms with one hand,
    summed; None flags a dead end. It is all of ``heuristic`` with one hand.

    Dead ends: an object that must move rests where no robot reaches, or a
    goal region no robot reaches is unsatisfied in this reading. No action
    changes a region no robot reaches, so a state the search reaches from a
    start that is no dead end is none either.
    """
    stacks = s.stacks
    for region in p.unreachable_goals:
        want = p.goal[region]
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
    one_hand = p.hands == 1
    for holder, objs in s.holdings.items():
        for o in objs:
            total += held_term(holder, o, p)
            if one_hand:
                total += regrasp_term(o, stacks, p)
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

    With one hand (``p.hands == 1``), this stack's part of the hand term
    (see ``heuristic``) is folded in: each object of this region's goal
    stack from ``stack[k]`` up is in W_t, and a_t is 0, so each costs 2
    more. No object of the goal stack rests above k once it is complete.
    """
    k = must_move_from(region, stack, p, prefix)
    target = p.goal_region
    pairs = p.reach_pairs
    total = 0
    for o in stack[k:]:
        t = target.get(o)
        total += 1 if t is None else 2 if (region, t) in pairs else 3
    if p.hands == 1:
        total += 2 * sum(target.get(o) == region for o in stack[k:])
    return total


def must_move_from(region: str, stack: tuple, p: Problem, prefix: bool) -> int:
    """The height from which everything in ``stack`` must move (see
    ``stack_term``); ``len(stack)`` when nothing must."""
    want = p.goal.get(region)
    k = 0
    if want is not None:
        for have, wanted in zip(stack, want):
            if have != wanted:
                break
            k += 1
    if want is None or (prefix and k == len(want)):
        # nothing here is wanted above k: only a goal object that belongs
        # elsewhere, and whatever rests on it, has to go
        target = p.goal_region
        while k < len(stack) and stack[k] not in target:
            k += 1
    return k


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


def regrasp_term(o: str, stacks: dict, p: Problem) -> int:
    """With one hand, held goal object ``o``'s part of the hand term (see
    ``heuristic``): 2 when its goal region's stack in ``stacks`` is not
    exactly the goal stack below ``o`` (``o`` is in W_t), else 0.

    A one-hand robot reaches its goal region, or every state is a dead end.
    Its next action is the Place of ``o``, and nothing changes that stack
    before it, so an action changes only the charge of the object it moves.
    """
    t = p.goal_region.get(o)
    if t is None:
        return 0
    want = p.goal[t]
    return 0 if stacks.get(t, ()) == want[:want.index(o)] else 2


def hand_entry(region: str, stack: tuple, p: Problem) -> tuple | None:
    """What ``hand_charge`` reads of goal region ``region`` holding
    ``stack`` when ``p.hands`` >= 2 (see ``heuristic``): None when fewer
    than C goal objects lie beyond k (W_t never holds more), else
    ``(region, resting, ready, spare, lift)``. ``resting`` counts the goal
    objects of ``region`` in the stack from k up; ``ready`` is ``want[k]``
    when the stack is exactly ``want[:k]`` (held, it is not in W_t), else
    None; ``spare`` is a_t as the stack alone decides it, and ``lift`` the
    object that raises it by 1 when held: when ``stack[k]`` is a goal
    object of ``region``, ``want[k]`` if it is not in the stack. The entry
    is the same in both goal readings: they differ only once k =
    ``len(want)``.
    """
    want = p.goal[region]
    k = must_move_from(region, stack, p, False)
    if len(want) - k < p.hands:
        return None
    target = p.goal_region
    resting = sum(target.get(o) == region for o in stack[k:])
    spare, ready, lift = p.hands - 1, None, None
    if k == len(stack):
        ready = want[k]
    elif target.get(stack[k]) == region:
        if want[k] in stack[k:]:
            spare += 1
        else:
            lift = want[k]
    return region, resting, ready, spare, lift


def hand_charge(entry: tuple, loads, p: Problem) -> int:
    """The hand term's charge for one goal stack (see ``heuristic``): 2 for
    each object of W_t beyond a_t, given its ``hand_entry`` and the robots'
    ``loads``. W_t takes each held goal object of t but the entry's
    ``ready`` object."""
    region, waiting, ready, spare, lift = entry
    target = p.goal_region
    for load in loads:
        for o in load:
            if o != ready and target.get(o) == region:
                waiting += 1
                spare += o == lift
    return 2 * (waiting - spare) if waiting > spare else 0


def blocker_bound(p: Problem) -> bool:
    """Whether ``heuristic`` adds the blocker term: with C >= 2 hands and
    at least 2C + 2 objects that can move (``Problem.movable``; see
    ``heuristic``)."""
    return p.hands > 1 and p.movable >= 2 * p.hands + 2


def blocker_entry(region: str, stack: tuple, p: Problem, prefix: bool) -> tuple | None:
    """What ``blocker_charge`` reads of stack region ``region`` holding
    ``stack`` (see ``heuristic``): None when nothing in it must move, else
    ``(hot, twos, ones)``. x, its lowest object that must move, is
    ``stack[k]``, k as ``stack_term`` finds it. ``hot`` holds the goal
    objects that cannot rest in their final place before x's first pick:
    ``region``'s own and those above x in x's goal stack. ``twos`` and
    ``ones`` count the objects above x of weight 2 and 1: 1 outside the
    goal, 2 if hot and one robot reaches ``region`` and its goal region, 1
    if hot otherwise."""
    k = must_move_from(region, stack, p, prefix)
    if k == len(stack):
        return None
    x = stack[k]
    hot = p.goal.get(region, ())
    t = p.goal_region.get(x)
    if t is not None:
        want = p.goal[t]
        hot += want[want.index(x) + 1:]
    target, pairs = p.goal_region, p.reach_pairs
    twos = ones = 0
    for o in stack[k + 1:]:
        t = target.get(o)
        if t is None:
            ones += 1
        elif o in hot:
            if (region, t) in pairs:
                twos += 1
            else:
                ones += 1
    return hot, twos, ones


def blocker_charge(entry: tuple, held, spare: int) -> int:
    """The blocker term's B_u for one stack (see ``heuristic``), given its
    ``blocker_entry`` and ``held``, each held object with its ``held_term``:
    the weights of the objects above x and of the held objects, less the
    ``spare`` = C - 1 largest. A held object weighs 1 outside the goal,
    else 0 unless hot, then 2 if its holder reaches its goal region
    (``held_term`` 1), else 1."""
    hot, twos, ones = entry
    for o, cost in held:
        if not cost:
            ones += 1
        elif o in hot:
            if cost == 1:
                twos += 1
            else:
                ones += 1
    if twos >= spare:
        return 2 * (twos - spare) + ones
    return twos + ones - spare if twos + ones > spare else 0


class SlotSpace:
    """A problem's states as slot tuples, laid out by ``Problem.robot_table``,
    with the heuristic's per-slot terms for one goal reading, its hand term
    and the search key.

    ``terms[slot]`` memoises the heuristic's terms for a slot: by object,
    its ``placed_term`` in a buffer slot and its ``held_term`` in a robot
    slot; by stack, ``stack_term`` in a stack slot. ``pops[slot]`` keeps
    the picks from a stack slot: by stack, the stack without its top and
    the change in ``stack_term``, stored at the stack's first pick.
    ``pair`` is the two robot slots of the one class of interchangeable
    robots when that class is a pair and the only one, the common case:
    ``successors`` then keys each successor as it builds it. ``key`` keys
    the start state, and the successors of every other class shape.

    With one hand the hand term (see ``heuristic``) is per slot: ``ready``
    maps each goal object to its goal region's slot and the goal stack
    below it, the two things ``regrasp_term`` reads, and ``successors``
    updates the term per successor. With C >= 2 the hand term, and with
    ``blocker_bound`` the blocker term, are ``pop_term``, on a slot state.
    ``charged`` holds one ``(slot, region, entries)`` per goal region the
    hand term may charge: every robot reaches it, and its goal stack holds
    C objects or more. With ``blocker_bound``, ``blocked`` holds one
    ``(slot, region, entries, least)`` per stack region. ``entries`` keeps
    ``hand_entry`` or ``blocker_entry`` by stack. Both tables are empty
    with one hand, and where they are, ``pop_term`` is 0 on every state.
    """

    def __init__(self, p: Problem, prefix: bool) -> None:
        self.p, self.prefix = p, prefix
        self.rows = p.robot_table
        self.classes, self.pair, _ = p.slot_layout
        self.terms = [Memo(stack_term, r.id, p, prefix) if r.kind == STACK
                      else Memo(placed_term, r.id, p) for r in p.regions]
        self.terms += [Memo(held_term, row[0], p) for row in self.rows]
        self.pops = [{} for _ in p.regions]
        self.first_robot = len(p.regions)
        self.ready, self.charged, self.blocked = None, (), ()
        hands, region_slot = p.hands, p.region_slot
        if hands == 1:
            self.ready = {o: (region_slot[t], want[:i]) for t, want in p.goal.items()
                          for i, o in enumerate(want)}
        else:
            shared = p.shared_reach
            self.charged = [(region_slot[t], t, {}) for t, want in p.goal.items()
                            if len(want) >= hands and t in shared]
        if blocker_bound(p):
            goal = p.goal
            self.blocked = [(slot, region, {}, 1 if region in goal else 2)
                            for slot, region in p.slot_layout[2]]

    def pop_term(self, state: tuple, h: int) -> int:
        """What the search adds to slot state ``state`` when it first pops
        it, given ``h``, its per-slot h or less: the hand term, or with
        ``blocked`` the larger of it and the largest ``blocker_charge`` (see
        ``heuristic``); 0 with one hand.

        Its exits, with n held objects. A blocker charge needs C objects of
        positive weight, each costing at least 1 in the per-slot terms
        unless held, and x costs at least ``least``: 1, or 2 where there is
        no goal, as x is then a goal object. A hand charge needs more than
        a_t >= C - 1 objects in one W_t, each costing 2 in the per-slot
        terms where it rests, or 1 held: at least 2C less n; unless a_t =
        C, one more object must move too: ``stack[k]`` if it is no goal
        object of t, else ``want[k]``, which is then not in W_t. So both
        terms are 0 while ``h`` is at most C - n, and the hand term while
        ``h`` is at most 2C - n. A goal stack is not charged while its
        ``stack_term`` is below 2C - 2n, nor an entry unless its resting
        objects and n exceed its ``spare``. A stack is not blocked while its
        ``stack_term`` less ``least`` is below C - n, or while that plus 2
        per held object, less C - 1, cannot beat the larger term so far.
        """
        loads = state[self.first_robot:]
        held = sum(map(len, loads))
        p = self.p
        spare = p.hands - 1
        free = spare + 1 - held
        if h <= free:
            return 0
        terms = self.terms
        best = 0
        twice = 2 * p.hands
        if h > twice - held:
            for slot, region, entries in self.charged:
                stack = state[slot]
                if terms[slot][stack] < twice - 2 * held:
                    continue
                entry = entries.get(stack, entries)   # the table itself: not seen yet
                if entry is entries:
                    entry = entries[stack] = hand_entry(region, stack, p)
                if entry is not None and entry[1] + held > entry[3]:
                    best += hand_charge(entry, loads, p)
        carried = None
        for slot, region, entries, least in self.blocked:
            stack = state[slot]
            cost = terms[slot][stack] - least
            if cost < free or cost + held - free + 1 <= best:
                continue
            entry = entries.get(stack, entries)   # the table itself: not seen yet
            if entry is entries:
                entry = entries[stack] = blocker_entry(region, stack, p, self.prefix)
            if entry is None or 2 * (entry[1] + held) + entry[2] - spare <= best:
                continue
            if carried is None:
                carried = [(o, terms[rslot][o])
                           for rslot, load in enumerate(loads, self.first_robot) for o in load]
            charge = blocker_charge(entry, carried, spare)
            if charge > best:
                best = charge
        return best

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

    def successors(self, state: tuple, h: int) -> list:
        """``(action, successor, key, h)`` per action applicable in ``state``,
        in the order ``applicable_actions`` returns them.

        ``h`` is the heuristic of ``state``; each successor's is ``h`` plus
        the change in the terms of the slots the action replaced, and with
        one hand the change in ``regrasp_term``: a pick adds it, read from
        the successor, and a place takes it away, read from ``state``.
        ``key`` is the successor's ``key``, the successor itself when no two
        robots are alike. With a ``pair``, each successor is keyed from its slot
        list before that is frozen: the pair's loads swapped when out of
        order. Other class shapes are keyed by ``key`` afterwards.
        """
        terms, pops, pair, ready = self.terms, self.pops, self.pair, self.ready
        if pair:
            a, b = pair
        out = []
        append = out.append
        for _, slot, capacity, regions, _ in self.rows:
            load = state[slot]
            if len(load) >= capacity:
                continue
            tops = []
            for rslot, _, cap, pick, _ in regions:
                here = state[rslot]
                if not here:
                    continue
                if cap is None:
                    tops.append((here[-1], rslot, True, pick))
                else:
                    for o in here:
                        tops.append((o, rslot, False, pick))
            if len(tops) > 1:
                tops.sort()   # no two tops share an object
            held = terms[slot]
            for o, rslot, on_stack, pick in tops:
                successor = list(state)
                successor[slot] = load + (o,)
                if on_stack:
                    here, table = state[rslot], pops[rslot]
                    popped = table.get(here)
                    if popped is None:   # the first pick from this stack
                        rest = here[:-1]
                        costs = terms[rslot]
                        popped = table[here] = rest, costs[rest] - costs[here]
                    successor[rslot], change = popped
                    h2 = h + held[o] + change
                else:
                    successor[rslot] = state[rslot] - {o}
                    h2 = h + held[o] - terms[rslot][o]
                if ready is not None:
                    home = ready.get(o)
                    if home and successor[home[0]] != home[1]:
                        h2 += 2
                frozen = tuple(successor)
                if pair and successor[a] > successor[b]:
                    successor[a], successor[b] = successor[b], successor[a]
                    append((pick[o], frozen, tuple(successor), h2))
                else:
                    append((pick[o], frozen, frozen, h2))
        unloads = []   # per row: (object, load without it), in object order
        for _, slot, _, regions, _ in self.rows:
            load = state[slot]
            if not load:
                unloads.append(())
                continue
            if len(load) == 1:
                each = ((load[0], ()),)
            else:
                each = [(o, tuple(x for x in load if x != o)) for o in sorted(load)]
            unloads.append(each)
            held = terms[slot]
            for o, rest in each:
                h1 = h - held[o]
                if ready is not None:
                    home = ready.get(o)
                    if home and state[home[0]] != home[1]:
                        h1 -= 2
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
                    frozen = tuple(successor)
                    if pair and successor[a] > successor[b]:
                        successor[a], successor[b] = successor[b], successor[a]
                        append((place[o], frozen, tuple(successor), h2))
                    else:
                        append((place[o], frozen, frozen, h2))
        for (_, slot, _, _, partners), each in zip(self.rows, unloads):
            if not each or not partners:
                continue
            receivers = [(qslot, handoff) for qslot, _, cap, handoff in partners
                         if len(state[qslot]) < cap]
            held = terms[slot]
            for o, rest in each:
                for qslot, handoff in receivers:
                    successor = list(state)
                    successor[slot] = rest
                    successor[qslot] = state[qslot] + (o,)
                    h2 = h + terms[qslot][o] - held[o]
                    frozen = tuple(successor)
                    if pair and successor[a] > successor[b]:
                        successor[a], successor[b] = successor[b], successor[a]
                        append((handoff[o], frozen, tuple(successor), h2))
                    else:
                        append((handoff[o], frozen, frozen, h2))
        if self.classes and not pair:
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
    check_problem(p)
    return search_unchecked(p, config, prefix_goals)


def search_unchecked(p: Problem, config: SearchConfig | None = None,
                     prefix_goals: bool = False) -> tuple:
    """``search`` on a problem the caller vouches is valid: everything
    ``search`` does after its ``check_problem``. Refinement searches its
    sub-problems through it, as each is valid by construction."""
    cfg = config or SearchConfig()
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
    h0 = per_slot_bound(p.initial, p, prefix)
    if h0 is None:
        raise NoSolution("an object that must move or a goal region is unreachable")
    if not h0:   # the start is a goal; see heuristic
        return [], SearchStats()
    space = SlotSpace(p, prefix)
    successors = space.successors
    init = space.slots(p.initial)
    init_key = space.key(init)
    # (f, h, insertion, state, key, base): base is the per-slot h, which
    # successors builds on. When the pop-time term can be positive (see
    # SlotSpace), every entry, the start's too, is pushed with its per-slot
    # h, a lower bound, and base None; its first pop adds the term and
    # pushes it again, with the raised f and h and its base, when the term
    # is positive.
    lazy = space.pop_term if space.charged or space.blocked else None
    frontier = [(h0, h0, 0, init, init_key, None if lazy else h0)]
    # SlotSpace.key -> (g, predecessor's key, action). When a key is first
    # expanded, its state is the predecessor's expanded state with the
    # action applied: states of one key share h, so a later, strictly better
    # path to the key, which alone replaces its entry, has the lower f and
    # pops first. The heuristic is consistent (h drops by at most 1 per
    # action), and an entry's f never exceeds its full f, so the expansion
    # has the key's least g: an entry popped with a larger g is stale, and
    # no successor of an expanded key improves on it.
    nodes = {init_key: (0, None, None)}
    known = nodes.setdefault
    pop, push = heapq.heappop, heapq.heappush
    expansions = generated = 0
    while frontier:
        f, h, n, state, key, base = pop(frontier)
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
        if base is None:
            base = h
            extra = lazy(state, h)
            if extra:
                push(frontier, (f + extra, h + extra, n, state, key, h))
                continue
        expansions += 1
        if expansions > max_expansions:
            raise BudgetExhausted(max_expansions)
        g += 1
        for action, successor, succ_key, h2 in successors(state, base):
            node = (g, key, action)
            best = known(succ_key, node)
            if best is not node:
                if best[0] <= g:
                    continue
                nodes[succ_key] = node
            generated += 1
            push(frontier, (g + h2, h2, generated, successor, succ_key,
                            None if lazy else h2))
    raise NoSolution("state space exhausted without reaching the goal", expansions)


def plan(p: Problem, config: SearchConfig | None = None) -> tuple:
    """``search``, then compile: returns ``(SolutionHypergraph, SearchStats)``.

    The goal is read exactly. The actions are compiled into one solution
    hypergraph by ``Compiler``, which renames interchangeable robots at
    picks and checks as it compiles, and the stats get its makespan, the
    compiler's last layer. Errors are those of ``search``.
    """
    started = time.perf_counter()
    actions, stats = search(p, config)
    compiler = Compiler(p)
    compiler.extend(actions)
    graph = compiler.build()
    stats.makespan = compiler.makespan
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
    The frontier is keyed by holder, so an action updates one entry per
    head: ``stacks`` maps each occupied stack region to its node, and
    ``holders`` each robot and each buffered object to its own node.
    ``layers`` gives each node its layer as it is added: 0 for a source,
    one past the last of its arc's tails for a head, the one rule of
    ``domain.makespan``. ``extend`` hands each pick to the interchangeable
    robot whose hand is free first, reading those layers (``peers`` maps
    each robot of a ``Problem.robot_classes`` class to its class).
    ``build`` validates the graph once.
    """

    def __init__(self, p: Problem) -> None:
        self.p = p
        self.state = p.initial
        self.builder = HypergraphBuilder()
        node_of: dict = {}   # entity name -> source node id
        sources = initial_decomposition(p)
        for comp, facts in sources:
            nid = self.builder.add_node(comp, facts)
            for entity in comp:
                node_of[entity.name] = nid
        self.layers = [0] * len(sources)   # node id -> layer
        self.stacks = {r: node_of[stack[0]] for r, stack in p.initial.stacks.items()}
        self.holders = {spec.id: node_of[spec.id] for spec in p.robots}
        self.peers = {r: robots for robots in p.robot_classes for r in robots}
        for objs in p.initial.buffers.values():
            for o in objs:
                self.holders[o] = node_of[o]

    def extend(self, actions: list) -> None:
        """Apply and compile ``actions``, which are valid from ``state`` and
        advance it, with each pick handed to the interchangeable robot whose
        hand is free first.

        A pick by a robot of one of ``Problem.robot_classes`` looks at each
        peer that holds exactly the same load: the state is then symmetric
        under exchanging the two. If the robot's hand, not the source, holds
        the pick back (a pick's layer is one past both), the peer whose hand
        node has the lowest layer below the robot's takes the pick, and the
        two exchange names in this action and in every later one of
        ``actions``. Ties keep the robot. Places and handoffs are renamed
        but never exchange. The objects, regions, order and count of the
        actions stay the same, each is applied with its precondition check,
        and without interchangeable robots ``actions`` compile as given.
        """
        p, add, node = self.p, self.builder.add_node, self.builder.node
        stacks, holders, layers, peers = self.stacks, self.holders, self.layers, self.peers
        alias: dict = {}   # robot in actions -> the robot that acts, once exchanged
        state = self.state
        for action in actions:
            o = action.obj
            if alias:
                action = _relabeled(action, alias)
            if type(action) is Pick and action.robot in peers:
                r, robots = action.robot, peers[action.robot]
                hand = layers[holders[r]]
                # .get: a wrong pick decides nothing and fails in apply
                source = stacks.get(action.region, holders.get(o))
                if source is not None and hand > layers[source]:
                    held = state.holdings
                    load, best = held.get(r, ()), r
                    for c in robots:
                        free = layers[holders[c]]
                        if free < hand and held.get(c, ()) == load:
                            best, hand = c, free
                    if best != r:
                        for k in robots:   # exchange r and best from here on
                            acting = alias.get(k, k)
                            if acting == r:
                                alias[k] = best
                            elif acting == best:
                                alias[k] = r
                        action = Pick(best, o, action.region)
            nxt = apply(state, action, p)
            moved = frozenset((p.entities[o],))
            if isinstance(action, Pick):
                r, region = action.robot, action.region
                hand = node(holders[r])
                source = node(stacks.pop(region) if p.region_map[region].kind == STACK
                              else holders.pop(o))
                tails = (hand.id, source.id)
                layer = 1 + max(layers[hand.id], layers[source.id])
                holders[r] = add(hand.composition | moved, hand.state | {Held(r, o)})
                heads = [holders[r]]
                layers.append(layer)
                rest = source.composition - moved
                if rest:   # o left the top of a stack, at height len(rest)
                    stacks[region] = add(rest, source.state - {OnStack(o, region, len(rest))})
                    heads.append(stacks[region])
                    layers.append(layer)
            elif isinstance(action, Place):
                r, region = action.robot, action.region
                hand = node(holders[r])
                tails = (hand.id,)
                layer = 1 + layers[hand.id]
                if p.region_map[region].kind == STACK:
                    fact = OnStack(o, region, len(state.stacks.get(region, ())))
                    if region in stacks:
                        group = node(stacks[region])
                        tails += (group.id,)
                        layer = 1 + max(layers[hand.id], layers[group.id])
                        landing = add(group.composition | moved, group.state | {fact})
                    else:
                        landing = add(moved, (fact,))
                    stacks[region] = landing
                else:
                    landing = holders[o] = add(moved, (InBuffer(o, region),))
                holders[r] = add(hand.composition - moved, hand.state - {Held(r, o)})
                heads = [landing, holders[r]]
                layers += (layer, layer)
            else:
                giver, receiver = action.giver, action.receiver
                g, q = node(holders[giver]), node(holders[receiver])
                tails = (g.id, q.id)
                layer = 1 + max(layers[g.id], layers[q.id])
                heads = [add(g.composition - moved, g.state - {Held(giver, o)}),
                         add(q.composition | moved, q.state | {Held(receiver, o)})]
                holders[giver], holders[receiver] = heads
                layers += (layer, layer)
            self.builder.add_arc(action, tails, heads)
            state = nxt
        self.state = state

    @property
    def makespan(self) -> int:
        """The last layer: ``domain.makespan`` of the graph compiled so far."""
        return max(self.layers, default=0)

    def build(self) -> SolutionHypergraph:
        return self.builder.build()


def _relabeled(action, alias: dict):
    """``action`` with each robot replaced by its ``alias``, if any."""
    if type(action) is Handoff:
        giver = alias.get(action.giver, action.giver)
        receiver = alias.get(action.receiver, action.receiver)
        if giver == action.giver and receiver == action.receiver:
            return action
        return Handoff(giver, receiver, action.obj)
    r = alias.get(action.robot, action.robot)
    return action if r == action.robot else type(action)(r, action.obj, action.region)


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
