"""Tabletop manipulation world: regions, robots, stacked objects.

Regions are either stacks (ordered towers, unbounded height) or buffers
(unordered surfaces with finite capacity). Robots have a static reach set
and a carrying capacity (default 1). Three action schemas exist: Pick,
Place, and Handoff; a handoff is one atomic action occupying both robots.

A goal is partial: it fixes, per stack region, the exact bottom-to-top
object order. Regions and objects the goal does not mention are
unconstrained.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .hypergraph import (
    Record,
    SolutionHypergraph,
    obj,
    robot,
    topological_order,
    validate_hyperpath,
)

STACK = "stack"
BUFFER = "buffer"


@dataclass(frozen=True)
class Region:
    id: str
    kind: str
    capacity: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (STACK, BUFFER):
            raise ValueError(f"unknown region kind: {self.kind!r}")
        if self.kind == BUFFER and (self.capacity is None or self.capacity < 1):
            raise ValueError(f"buffer {self.id!r} needs capacity >= 1")
        if self.kind == STACK and self.capacity is not None:
            raise ValueError(f"stack {self.id!r} must not declare a capacity")


@dataclass(frozen=True)
class RobotSpec:
    id: str
    reach: frozenset
    capacity: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "reach", frozenset(self.reach))
        if not self.reach:
            raise ValueError(f"robot {self.id!r} must reach at least one region")
        if self.capacity < 1:
            raise ValueError(f"robot {self.id!r} capacity must be >= 1")


# --- facts ---------------------------------------------------------------

class _Fact(Record):
    """A placement or holding fact: a slotted ``Record`` whose hash is
    computed once, when it is built. Compiling an action builds one or two
    facts and adds them to or takes them from node states, frozensets that
    hash each fact they are given; those hashes read the stored one."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


class OnStack(_Fact):
    """Object sits on a stack region at the given height (0 = bottom)."""

    __slots__ = __match_args__ = ("obj", "region", "height")

    def __init__(self, obj: str, region: str, height: int) -> None:
        self.obj, self.region, self.height = obj, region, height
        self._key = key = (obj, region, height)
        self._hash = hash(key)


class InBuffer(_Fact):
    """Object sits in a buffer region."""

    __slots__ = __match_args__ = ("obj", "region")

    def __init__(self, obj: str, region: str) -> None:
        self.obj, self.region = obj, region
        self._key = key = (obj, region)
        self._hash = hash(key)


class Held(_Fact):
    """Robot holds the object."""

    __slots__ = __match_args__ = ("robot", "obj")

    def __init__(self, robot: str, obj: str) -> None:
        self.robot, self.obj = robot, obj
        self._key = key = (robot, obj)
        self._hash = hash(key)


def object_facts(state: Iterable) -> frozenset:
    """Drop holding facts, keeping only object placement assertions."""
    return frozenset(f for f in state if isinstance(f, (OnStack, InBuffer)))


# --- world state ---------------------------------------------------------

class WorldState:
    """Immutable placement of every object plus per-robot holdings.

    Stored as per-region stacks/buffer sets and per-robot held tuples.
    Empty entries are normalised away, so two states are equal exactly when
    their three dicts are equal, and the hash is that of the three dicts'
    items (only ``bfs_oracle`` hashes states: ``search`` runs over slot
    tuples). The dicts are shared between states (``apply`` copies only the
    ones an action touches), so never mutate them.
    """

    __slots__ = ("stacks", "buffers", "holdings")

    def __init__(self,
                 stacks: Mapping[str, Sequence[str]] | None = None,
                 buffers: Mapping[str, Iterable[str]] | None = None,
                 holdings: Mapping[str, Sequence[str]] | None = None):
        self.stacks = {r: tuple(v) for r, v in (stacks or {}).items() if v}
        self.buffers = {r: frozenset(v) for r, v in (buffers or {}).items() if v}
        self.holdings = {r: tuple(v) for r, v in (holdings or {}).items() if v}

    @classmethod
    def _sharing(cls, stacks: dict, buffers: dict, holdings: dict) -> "WorldState":
        """State over dicts that already hold tuples, frozensets and no empty
        entry; the dicts are shared, not copied."""
        state = cls.__new__(cls)
        state.stacks = stacks
        state.buffers = buffers
        state.holdings = holdings
        return state

    def __eq__(self, other) -> bool:
        return (isinstance(other, WorldState)
                and self.stacks == other.stacks
                and self.buffers == other.buffers
                and self.holdings == other.holdings)

    def __hash__(self) -> int:
        return hash((frozenset(self.stacks.items()),
                     frozenset(self.buffers.items()),
                     frozenset(self.holdings.items())))

    def __repr__(self) -> str:
        return f"WorldState(stacks={self.stacks}, buffers={self.buffers}, holdings={self.holdings})"

    def validate(self, problem: "Problem") -> list:
        """List every invariant violation of this state against a problem."""
        errors = []
        region_map = problem.region_map
        placed = 0
        names: set = set()
        for r, stack in self.stacks.items():
            region = region_map.get(r)
            if region is None or region.kind != STACK:
                errors.append(f"{r!r} is not a stack region")
            placed += len(stack)
            names.update(stack)
        for r, objs in self.buffers.items():
            region = region_map.get(r)
            if region is None or region.kind != BUFFER:
                errors.append(f"{r!r} is not a buffer region")
            elif len(objs) > region.capacity:
                errors.append(f"buffer {r!r} over capacity")
            placed += len(objs)
            names.update(objs)
        for r, held in self.holdings.items():
            spec = problem.robot_map.get(r)
            if spec is None:
                errors.append(f"unknown robot {r!r}")
            elif len(held) > spec.capacity:
                errors.append(f"robot {r!r} over capacity")
            placed += len(held)
            names.update(held)
        declared = problem.objects
        if placed == len(names) == len(declared) and names.issubset(declared):
            return errors   # each declared object placed once, and nothing else
        seen = Counter(chain(*self.stacks.values(), *self.buffers.values(),
                             *self.holdings.values()))
        for o in declared:
            count = seen.pop(o, 0)
            if count != 1:
                errors.append(f"object {o!r} placed {count} times")
        for o in seen:
            errors.append(f"undeclared object {o!r}")
        return errors


# --- actions -------------------------------------------------------------

@dataclass(frozen=True)
class Pick:
    robot: str
    obj: str
    region: str

    def __str__(self) -> str:
        return f"pick {self.robot} {self.obj} {self.region}"


@dataclass(frozen=True)
class Place:
    robot: str
    obj: str
    region: str

    def __str__(self) -> str:
        return f"place {self.robot} {self.obj} {self.region}"


@dataclass(frozen=True)
class Handoff:
    giver: str
    receiver: str
    obj: str

    dot_dashed = True

    def __post_init__(self) -> None:
        if self.giver == self.receiver:
            raise ValueError("handoff giver and receiver must differ")

    def __str__(self) -> str:
        return f"handoff {self.giver} {self.receiver} {self.obj}"


Action = Pick | Place | Handoff


def _handoff(giver: str, obj: str, receiver: str) -> Handoff:
    """``Handoff`` with the object second, as ``Memo`` passes its key."""
    return Handoff(giver, receiver, obj)


class Memo(dict):
    """``fn(first, key, *rest)`` by key, computed on first lookup."""

    __slots__ = ("fn", "first", "rest")

    def __init__(self, fn, first, *rest) -> None:
        self.fn, self.first, self.rest = fn, first, rest

    def __missing__(self, key):
        value = self[key] = self.fn(self.first, key, *self.rest)
        return value


# --- problem -------------------------------------------------------------

# Cached Problem tables that depend on neither the goal nor the start state,
# or, as ``movable``, on nothing an action changes.
GOAL_INDEPENDENT = ("region_map", "region_slot", "robot_map", "reachable",
                    "shared_reach", "reach_pairs", "robot_table", "robot_classes",
                    "slot_layout", "hands", "movable")
# Cached Problem tables of the goal that search reads, in an order in which
# each is computed from the goal and the tables before it.
GOAL_TABLES = ("goal_region", "unreachable_goals")


@dataclass(frozen=True)
class Problem:
    """Regions, robots, objects, an initial state and a partial goal.

    The lookup tables derived from these fields (``region_map``,
    ``robot_map``, ``goal_objects``, the heuristic's ``goal_region``,
    ``unreachable_goals``, ``reachable``, ``shared_reach``, ``reach_pairs``,
    ``hands`` and ``movable``, the successor generators' ``robot_table``,
    the search's ``region_slot``, ``robot_classes`` and ``slot_layout`` and
    compilation's ``entities``)
    and the goal-independent validation errors (``structure_errors``) are
    computed on first use and then cached on the instance. So treat a
    ``Problem`` as immutable, its ``goal`` dict and the tables included.
    ``dataclasses.replace`` derives a changed problem that starts with
    empty caches. ``subproblem`` derives one with only a new start state
    and goal, which shares the goal-independent tables and errors with
    this problem and builds its own goal tables.
    """

    regions: tuple
    robots: tuple
    objects: tuple
    initial: WorldState
    goal: Mapping[str, tuple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "robots", tuple(self.robots))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(
            self, "goal", {r: tuple(v) for r, v in dict(self.goal).items()})

    @cached_property
    def region_map(self) -> dict:
        return {r.id: r for r in self.regions}

    @cached_property
    def region_slot(self) -> dict:
        """Region id -> its slot in the search's slot states: its index in
        ``regions``."""
        return {r.id: i for i, r in enumerate(self.regions)}

    @cached_property
    def robot_map(self) -> dict:
        return {r.id: r for r in self.robots}

    @cached_property
    def entities(self) -> dict:
        """Name -> the one ``Entity`` compiled graphs use for that object or robot."""
        table = {o: obj(o) for o in self.objects}
        table.update((spec.id, robot(spec.id)) for spec in self.robots)
        return table

    @cached_property
    def goal_objects(self) -> frozenset:
        return frozenset(self.goal_region)

    @cached_property
    def goal_region(self) -> dict:
        """Goal object -> the stack region its goal places it in."""
        return {o: region for region, want in self.goal.items() for o in want}

    @cached_property
    def unreachable_goals(self) -> tuple:
        """Goal regions no robot reaches, in goal order."""
        return tuple(r for r in self.goal if r not in self.reachable)

    @cached_property
    def reachable(self) -> frozenset:
        """Regions at least one robot reaches."""
        return frozenset(r for spec in self.robots for r in spec.reach)

    @cached_property
    def shared_reach(self) -> frozenset:
        """Regions every robot reaches."""
        return frozenset.intersection(*(spec.reach for spec in self.robots)) \
            if self.robots else frozenset()

    @cached_property
    def reach_pairs(self) -> frozenset:
        """``(a, b)`` region pairs (``a == b`` included) one robot reaches both of."""
        return frozenset((a, b) for spec in self.robots
                         for a in spec.reach for b in spec.reach)

    @cached_property
    def robot_table(self) -> tuple:
        """One row per robot, in id order, for ``applicable_actions`` and the
        search's slot states (one entry per region in declaration order, then
        one per robot in id order). A row is ``(id, slot, capacity, regions,
        partners)``: the robot's slot; one ``(slot, region id, buffer
        capacity, picks, places)`` entry per region it reaches, in region-id
        order (capacity None for a stack); and one ``(slot, id, capacity,
        handoffs)`` entry per other robot it shares a region with, in id
        order. ``picks``, ``places`` and ``handoffs`` map an object to that
        robot's action on it there (to that partner), one instance each,
        built on first lookup.
        """
        robots = sorted(self.robots, key=lambda spec: spec.id)
        region_slot = self.region_slot
        robot_slot = {spec.id: i for i, spec in enumerate(robots, len(self.regions))}
        return tuple(
            (spec.id, robot_slot[spec.id], spec.capacity,
             tuple((region_slot[r], r, self.region_map[r].capacity,
                    Memo(Pick, spec.id, r), Memo(Place, spec.id, r))
                   for r in sorted(spec.reach)),
             tuple((robot_slot[other.id], other.id, other.capacity,
                    Memo(_handoff, spec.id, other.id))
                   for other in robots if other.id != spec.id and spec.reach & other.reach))
            for spec in robots)

    @cached_property
    def robot_classes(self) -> tuple:
        """Classes of two or more interchangeable robots: equal reach and capacity.

        Each class is a tuple of robot ids in id order, and the classes are
        in the order of their first id. ``search`` merges states that differ
        only in which robot of a class holds what.
        """
        classes: dict = {}
        for spec in sorted(self.robots, key=lambda spec: spec.id):
            classes.setdefault((spec.reach, spec.capacity), []).append(spec.id)
        return tuple(tuple(ids) for ids in classes.values() if len(ids) > 1)

    @cached_property
    def slot_layout(self) -> tuple:
        """What the search's slot states share across goals: ``(classes,
        pair, stacks)``. ``classes`` is ``robot_classes`` with each robot
        as its slot, ``pair`` the one class when it is a pair and the only
        one, else None, and ``stacks`` one ``(slot, region id)`` per stack
        region, in slot order."""
        robot_slot = {row[0]: row[1] for row in self.robot_table}
        classes = tuple(tuple(map(robot_slot.get, robots)) for robots in self.robot_classes)
        pair = classes[0] if len(classes) == 1 and len(classes[0]) == 2 else None
        stacks = tuple((i, r.id) for i, r in enumerate(self.regions) if r.kind == STACK)
        return classes, pair, stacks

    @cached_property
    def movable(self) -> int:
        """How many objects can move: all but those resting, at the start, in
        a region no robot reaches. No action changes such a region, so every
        state reachable from the start, as a sub-problem's start is, has
        the same count."""
        reachable, s = self.reachable, self.initial
        fixed = sum(len(stack) for r, stack in s.stacks.items() if r not in reachable)
        fixed += sum(len(objs) for r, objs in s.buffers.items() if r not in reachable)
        return len(self.objects) - fixed

    @cached_property
    def hands(self) -> int:
        """Total hand capacity: the sum of the robots' capacities, the most
        objects held at once, which the heuristic's hand terms read."""
        return sum(spec.capacity for spec in self.robots)

    def subproblem(self, initial: WorldState, goal: Mapping[str, tuple]) -> "Problem":
        """This problem with a new start state and goal, e.g. for refinement.

        The result shares this problem's ``structure_errors`` and, when
        there are none, its ``GOAL_INDEPENDENT`` tables, computing any not
        cached yet, so every problem derived from one parent shares a
        single copy. Its ``GOAL_TABLES`` are its own, filled here.
        ``validate`` still checks its goal and its start state; refinement
        does not call it, as its sub-problems are valid by construction.
        """
        # no __init__: regions, robots and objects are this problem's, normalised already
        sub = object.__new__(Problem)
        tables = sub.__dict__
        tables.update(regions=self.regions, robots=self.robots, objects=self.objects,
                      initial=initial, goal={r: tuple(v) for r, v in goal.items()},
                      structure_errors=self.structure_errors)
        if not self.structure_errors:
            # robot_table needs every reach region declared
            for name in GOAL_INDEPENDENT:
                tables[name] = getattr(self, name)
        for name in GOAL_TABLES:   # each table's function, without the first-read lock
            tables[name] = getattr(Problem, name).func(sub)
        return sub

    @cached_property
    def structure_errors(self) -> tuple:
        """Validation errors that do not depend on the goal or the start state."""
        errors = []
        ids = [r.id for r in self.regions]
        if len(set(ids)) != len(ids):
            errors.append("duplicate region ids")
        if len(set(self.objects)) != len(self.objects):
            errors.append("duplicate object ids")
        rids = [r.id for r in self.robots]
        if len(set(rids)) != len(rids):
            errors.append("duplicate robot ids")
        if set(rids) & set(self.objects):
            errors.append("robot and object names overlap")
        for spec in self.robots:
            for region in spec.reach:
                if region not in self.region_map:
                    errors.append(f"robot {spec.id!r} reaches unknown region {region!r}")
        return tuple(errors)

    def validate(self) -> list:
        """Every error: ``structure_errors``, then the goal's and the start state's."""
        errors = list(self.structure_errors)
        region_map, objects = self.region_map, self.objects
        for r, stack in self.goal.items():
            region = region_map.get(r)
            if region is None:
                errors.append(f"goal region {r!r} undeclared")
            elif region.kind != STACK:
                errors.append(f"goal region {r!r} is not a stack")
            for o in stack:
                if o not in objects:
                    errors.append(f"goal object {o!r} undeclared")
        if sum(map(len, self.goal.values())) != len(self.goal_region):
            listed: dict = {}   # goal object -> the goal stack of each listing
            for r, stack in self.goal.items():
                for o in stack:
                    listed.setdefault(o, []).append(r)
            for o, stacks in listed.items():
                if len(stacks) > 1:
                    names = list(map(repr, dict.fromkeys(stacks)))
                    errors.append(f"goal object {o!r} appears {len(stacks)} times in goal "
                                  f"stack{'s' * (len(names) > 1)} {' and '.join(names)}")
        errors.extend(self.initial.validate(self))
        return errors


def goal_heights(stacks: Mapping) -> tuple:
    """The heights of a goal's stacks, sorted: a problem's ``goal`` or a
    strategy's ``goal_stacks``. Grounding and retrieval match on it."""
    return tuple(sorted(map(len, stacks.values())))


def check_problem(p: Problem) -> None:
    """Raise ValueError naming the first of ``p.validate()``'s errors, if any."""
    errors = p.validate()
    if errors:
        raise ValueError(f"invalid problem: {errors[0]}")


class PreconditionViolated(Exception):
    def __init__(self, action: Action, reason: str):
        self.reason = reason
        super().__init__(f"{action}: {reason}")


class ExecutionFault(Exception):
    def __init__(self, arc_id: int | None, reason: str):
        self.arc_id = arc_id
        super().__init__(reason if arc_id is None else f"arc {arc_id}: {reason}")


def _pick_reason(s: WorldState, a: Pick, p: Problem) -> str | None:
    spec = p.robot_map.get(a.robot)
    if spec is None:
        return f"unknown robot {a.robot!r}"
    if a.region not in spec.reach:
        return f"{a.region!r} out of reach"
    if len(s.holdings.get(a.robot, ())) >= spec.capacity:
        return "robot at capacity"
    region = p.region_map.get(a.region)
    if region is None:
        return f"unknown region {a.region!r}"
    if region.kind == STACK:
        stack = s.stacks.get(a.region, ())
        if not stack or stack[-1] != a.obj:
            return f"{a.obj!r} is not the top of {a.region!r}"
    else:
        if a.obj not in s.buffers.get(a.region, frozenset()):
            return f"{a.obj!r} not in buffer {a.region!r}"
    return None


def _place_reason(s: WorldState, a: Place, p: Problem) -> str | None:
    spec = p.robot_map.get(a.robot)
    if spec is None:
        return f"unknown robot {a.robot!r}"
    if a.obj not in s.holdings.get(a.robot, ()):
        return f"robot does not hold {a.obj!r}"
    if a.region not in spec.reach:
        return f"{a.region!r} out of reach"
    region = p.region_map.get(a.region)
    if region is None:
        return f"unknown region {a.region!r}"
    if region.kind == BUFFER and len(s.buffers.get(a.region, frozenset())) >= region.capacity:
        return f"buffer {a.region!r} full"
    return None


def _handoff_reason(s: WorldState, a: Handoff, p: Problem) -> str | None:
    giver = p.robot_map.get(a.giver)
    receiver = p.robot_map.get(a.receiver)
    if giver is None or receiver is None:
        return "unknown robot"
    if a.obj not in s.holdings.get(a.giver, ()):
        return f"giver does not hold {a.obj!r}"
    if len(s.holdings.get(a.receiver, ())) >= receiver.capacity:
        return "receiver at capacity"
    if not (giver.reach & receiver.reach):
        return "no shared reachable region"
    return None


def precondition_failure(s: WorldState, a: Action, p: Problem) -> str | None:
    if isinstance(a, Pick):
        return _pick_reason(s, a, p)
    if isinstance(a, Place):
        return _place_reason(s, a, p)
    return _handoff_reason(s, a, p)


def applicable_actions(s: WorldState, p: Problem) -> tuple:
    """All actions applicable in ``s``, sorted by kind (picks, places,
    handoffs), robot (a handoff's giver), object, then region (receiver).

    Generated in that order from ``p.robot_table``, robots in id order: every
    robot's picks, then every robot's places, then the handoffs. The action
    instances come from the table, so no action is built twice. ``search``
    generates the same actions in the same order over slot states.
    """
    stacks, buffers, holdings = s.stacks, s.buffers, s.holdings
    picks: list = []
    places: list = []
    handoffs: list = []
    for rid, _, capacity, regions, partners in p.robot_table:
        held = holdings.get(rid, ())
        if len(held) < capacity:
            tops = []
            for _, r, cap, pick, _ in regions:
                if cap is None:
                    if r in stacks:
                        tops.append((stacks[r][-1], r, pick))
                else:
                    tops.extend((o, r, pick) for o in buffers.get(r, ()))
            tops.sort()   # no two tops share an object
            picks.extend(pick[o] for o, _, pick in tops)
        if not held:
            continue
        held = sorted(held)
        for o in held:
            for _, r, cap, _, place in regions:
                if cap is None or len(buffers.get(r, ())) < cap:
                    places.append(place[o])
        receivers = [handoff for _, q, cap, handoff in partners
                     if len(holdings.get(q, ())) < cap]
        handoffs.extend(handoff[o] for o in held for handoff in receivers)
    return tuple(picks + places + handoffs)


def _replaced(table: dict, key: str, value) -> dict:
    """Copy of ``table`` with ``key`` set to ``value``, or dropped if it is empty."""
    out = dict(table)
    if value:
        out[key] = value
    else:
        del out[key]
    return out


def apply(s: WorldState, a: Action, p: Problem) -> WorldState:
    """Successor state after one action; only the involved entities change.

    Raises PreconditionViolated when ``a`` is not applicable in ``s``.
    Copy-on-write: the successor shares every dict of ``s`` the action does
    not touch.
    """
    reason = precondition_failure(s, a, p)
    if reason is not None:
        raise PreconditionViolated(a, reason)
    stacks, buffers, holdings = s.stacks, s.buffers, s.holdings
    o = a.obj
    if isinstance(a, Handoff):
        holdings = _replaced(holdings, a.giver, _without(holdings[a.giver], o))
        holdings[a.receiver] = holdings.get(a.receiver, ()) + (o,)
        return WorldState._sharing(stacks, buffers, holdings)
    rid, region = a.robot, a.region
    held = holdings.get(rid, ())
    on_stack = p.region_map[region].kind == STACK
    if isinstance(a, Pick):
        held = held + (o,)
        after = stacks[region][:-1] if on_stack else buffers[region] - {o}
    else:
        held = _without(held, o)
        after = (stacks.get(region, ()) + (o,) if on_stack
                 else buffers.get(region, frozenset()) | {o})
    if on_stack:
        stacks = _replaced(stacks, region, after)
    else:
        buffers = _replaced(buffers, region, after)
    return WorldState._sharing(stacks, buffers, _replaced(holdings, rid, held))


def _without(held: tuple, o: str) -> tuple:
    """``held`` without ``o``, the rest in order."""
    i = held.index(o)
    return held[:i] + held[i + 1:]


def is_goal(s: WorldState, p: Problem, prefix: bool = False) -> bool:
    """True iff every goal stack matches exactly.

    Only the goal stacks are read: a valid state places each object exactly
    once, so a goal object on its goal stack is held by no robot. With
    ``prefix=True`` a goal stack only needs to hold the wanted objects at
    the wanted heights and extra objects above them are allowed; this is
    the positional reading refinement sub-goals use.
    """
    for region, want in p.goal.items():
        stack = s.stacks.get(region, ())
        if prefix:
            if stack[:len(want)] != want:
                return False
        elif stack != want:
            return False
    return True


# --- hypergraph interface ------------------------------------------------

def initial_decomposition(p: Problem) -> list:
    """Maximal independent compositions of the initial state.

    Each non-empty stack is one composed node, each buffer object its own
    node, and each robot (plus anything it holds) its own node. The result
    partitions the problem's entity set.
    """
    out = []
    s = p.initial
    entity = p.entities
    for region in p.regions:
        if region.kind == STACK:
            stack = s.stacks.get(region.id, ())
            if stack:
                comp = frozenset(entity[o] for o in stack)
                facts = frozenset(
                    OnStack(o, region.id, h) for h, o in enumerate(stack))
                out.append((comp, facts))
        else:
            for o in sorted(s.buffers.get(region.id, frozenset())):
                out.append((frozenset([entity[o]]),
                            frozenset([InBuffer(o, region.id)])))
    for spec in p.robots:
        held = s.holdings.get(spec.id, ())
        comp = frozenset(entity[e] for e in (spec.id,) + held)
        facts = frozenset(Held(spec.id, o) for o in held)
        out.append((comp, facts))
    return out


def makespan(graph: SolutionHypergraph) -> int:
    """Parallel layers of a hyperpath, in one pass over arc ids.

    Sources sit in layer 0 and each arc one layer past the last layer of
    its tails; the makespan is the last layer used. The rule reads no arc
    label, so it holds on graphs whose every arc consumes the node of each
    robot its label names: every graph ``planner.Compiler`` builds and
    every graph ``execute_hypergraph`` accepts. Two arcs of one robot then
    lie on one chain of that robot's nodes and never share a layer.
    """
    layer_of: dict = {}
    for aid in topological_order(graph):
        arc = graph.arcs[aid]
        layer = 1 + max(layer_of.get(t, 0) for t in arc.tails)
        for h in arc.heads:
            layer_of[h] = layer
    return max(layer_of.values(), default=0)


def execute_hypergraph(graph: SolutionHypergraph, p: Problem) -> tuple:
    """Check a solution hypergraph from outside the planner against a problem.

    Validates the hyperpath, matches its sources to the initial
    decomposition and applies the arc actions in id order, checking every
    precondition against the evolving state, that the arc's tails hold
    each robot its action names and the object it moves, and every head
    node's facts against the state its arc leaves. Returns ``(final_state, makespan,
    action_count)``, the makespan from ``makespan``.
    """
    if not graph.nodes:
        return (p.initial, 0, 0)
    violations = validate_hyperpath(graph)
    if violations:
        raise ExecutionFault(None, violations[0].detail)
    expected = Counter((comp, facts) for comp, facts in initial_decomposition(p))
    actual = Counter(
        (graph.nodes[i].composition, graph.nodes[i].state) for i in graph.sources)
    if expected != actual:
        raise ExecutionFault(None, "sources do not match the initial decomposition")

    state = p.initial
    for aid in topological_order(graph):
        arc = graph.arcs[aid]
        action = arc.label
        if not isinstance(action, (Pick, Place, Handoff)):
            raise ExecutionFault(aid, f"arc label {action!r} is not an action")
        try:
            state = apply(state, action, p)
        except PreconditionViolated as exc:
            raise ExecutionFault(aid, exc.reason) from exc
        robots = ((action.giver, action.receiver) if isinstance(action, Handoff)
                  else (action.robot,))
        for e in (p.entities[name] for name in robots + (action.obj,)):
            if not any(e in graph.nodes[t].composition for t in arc.tails):
                raise ExecutionFault(aid, f"no tail holds {e.kind} {e.name!r}")
        for nid in arc.heads:
            if not _facts_hold(graph.nodes[nid], state):
                raise ExecutionFault(aid, f"node {nid} facts do not match the state")
    return (state, makespan(graph), len(graph.arcs))


def _facts_hold(node, s: WorldState) -> bool:
    """True iff ``node`` has one fact per object member, each naming members
    and holding in ``s``: read at the stack index, buffer or hand it names."""
    objects = {e.name for e in node.composition if not e.is_robot}
    if len(node.state) != len(objects):
        return False
    for fact in node.state:
        if isinstance(fact, OnStack):
            stack = s.stacks.get(fact.region, ())
            holds = fact.height in range(len(stack)) and stack[fact.height] == fact.obj
        elif isinstance(fact, InBuffer):
            holds = fact.obj in s.buffers.get(fact.region, ())
        else:
            holds = (isinstance(fact, Held) and robot(fact.robot) in node.composition
                     and fact.obj in s.holdings.get(fact.robot, ()))
        if not holds or fact.obj not in objects:
            return False
    return True
