import random
from pathlib import Path

import pytest

from hyperplan import (
    Held,
    InBuffer,
    OnStack,
    Pick,
    Place,
    Problem,
    Region,
    RobotSpec,
    WorldState,
)
from hyperplan.cli import Scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def load_scenario(name: str) -> Scenario:
    return parse_scenario((SCENARIO_DIR / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def fig1() -> Scenario:
    return load_scenario("fig1")


@pytest.fixture(scope="session")
def fig2() -> Scenario:
    return load_scenario("fig2")


@pytest.fixture(scope="session")
def fig3() -> Scenario:
    return load_scenario("fig3")


def reversal_problem(height: int, robots: int = 2) -> Problem:
    """Two-pedestal tower reversal, the benchmark family."""
    regions = (Region("left", "stack"), Region("right", "stack"))
    names = ("blue", "red")[:robots]
    specs = tuple(RobotSpec(n, frozenset({"left", "right"})) for n in names)
    objs = tuple(f"b{i}" for i in range(1, height + 1))
    return Problem(regions, specs, objs,
                   WorldState(stacks={"right": objs}),
                   {"left": tuple(reversed(objs))})


def reversal_scenario(height: int) -> Scenario:
    return Scenario(f"reversal{height}", reversal_problem(height))


def blocker_tower_problem(blockers: int) -> Problem:
    """One robot digs a 3-box goal tower out from under ``blockers`` boxes.

    ``blue`` reaches the stacks ``src``, ``dst`` and ``side`` and a
    capacity-2 buffer ``park``. ``src`` holds ``b3, b1, b2`` under
    ``x1..xk``; the goal is ``dst = (b1, b3, b2)``.
    """
    regions = (Region("src", "stack"), Region("dst", "stack"),
               Region("side", "stack"), Region("park", "buffer", 2))
    specs = (RobotSpec("blue", frozenset({"src", "dst", "side", "park"})),)
    junk = tuple(f"x{i}" for i in range(1, blockers + 1))
    return Problem(regions, specs, ("b1", "b2", "b3") + junk,
                   WorldState(stacks={"src": ("b3", "b1", "b2") + junk}),
                   {"dst": ("b1", "b3", "b2")})


def blocker_tower_scenario(blockers: int) -> Scenario:
    return Scenario(f"blockers{blockers}", blocker_tower_problem(blockers))


def two_target_problem() -> Problem:
    regions = (Region("src", "stack"), Region("t1", "stack"), Region("t2", "stack"))
    specs = (RobotSpec("blue", frozenset({"src", "t1", "t2"})),
             RobotSpec("red", frozenset({"src", "t1", "t2"})))
    return Problem(regions, specs, ("A", "B", "C"),
                   WorldState(stacks={"src": ("A", "B", "C")}),
                   {"t1": ("C",), "t2": ("B", "A")})


def buffer_start_problem() -> Problem:
    regions = (Region("tray", "buffer", 3), Region("left", "stack"))
    specs = (RobotSpec("arm", frozenset({"tray", "left"})),)
    return Problem(regions, specs, ("A", "B", "C"),
                   WorldState(buffers={"tray": {"A", "B", "C"}}),
                   {"left": ("B", "C", "A")})


def handoff_capacity_problem() -> Problem:
    """Fig1's goal shape with disjoint pedestals and a capacity-2 receiver.

    Optimal plans hand every box across the shared middle stack instead of
    parking, so the extracted strategy matches fig1's exactly.
    """
    regions = (Region("left", "stack"), Region("right", "stack"),
               Region("mid", "stack"))
    specs = (RobotSpec("g", frozenset({"right", "mid"})),
             RobotSpec("t", frozenset({"mid", "left"}), capacity=2))
    return Problem(regions, specs, ("A", "B", "C"),
                   WorldState(stacks={"right": ("A", "B", "C")}),
                   {"left": ("C", "A", "B")})


def random_instance(seed: int, max_objects: int = 3, max_robots: int = 2,
                    max_regions: int = 3) -> Problem:
    """Deterministic small instance; may or may not be solvable."""
    rng = random.Random(seed)
    for _ in range(50):
        n_regions = rng.randint(2, max_regions)
        regions = [Region("r0", "stack")]
        for i in range(1, n_regions):
            if rng.random() < 0.3:
                regions.append(Region(f"r{i}", "buffer", rng.randint(1, 2)))
            else:
                regions.append(Region(f"r{i}", "stack"))
        region_ids = [r.id for r in regions]
        stack_ids = [r.id for r in regions if r.kind == "stack"]

        n_objects = rng.randint(1, max_objects)
        objects = tuple(f"o{i}" for i in range(1, n_objects + 1))

        robots = []
        for i in range(rng.randint(1, max_robots)):
            reach = frozenset(rng.sample(region_ids,
                                         rng.randint(1, len(region_ids))))
            robots.append(RobotSpec(f"a{i}", reach, rng.choice([1, 1, 1, 2])))

        stacks: dict = {}
        buffers: dict = {}
        ok = True
        for o in objects:
            region = rng.choice(regions)
            if region.kind == "stack":
                stacks.setdefault(region.id, []).append(o)
            elif len(buffers.get(region.id, set())) < region.capacity:
                buffers.setdefault(region.id, set()).add(o)
            else:
                stacks.setdefault(stack_ids[0], []).append(o)

        n_goal = rng.randint(0, n_objects)
        chosen = rng.sample(list(objects), n_goal)
        goal: dict = {}
        if chosen:
            n_targets = rng.randint(1, min(2, len(stack_ids)))
            targets = rng.sample(stack_ids, n_targets)
            for o in chosen:
                goal.setdefault(rng.choice(targets), []).append(o)
            goal = {r: tuple(v) for r, v in goal.items()}

        problem = Problem(tuple(regions), tuple(robots), objects,
                          WorldState(stacks={r: tuple(v) for r, v in stacks.items()},
                                     buffers=buffers),
                          goal)
        if not problem.validate() and ok:
            return problem
    raise RuntimeError(f"seed {seed} produced no valid instance")


def goal_only_schedule(p: Problem) -> tuple:
    """Sub-goals read off the goal alone, in ``reconstruct``'s shape.

    Each goal stack, tallest first (ties in declaration order), is reached
    bottom-up, one object per step: ``(None, ((region, want[:k]),))`` for
    k = 1 .. len(want). No record, retrieval or grounding is involved.
    """
    stacks = sorted(p.goal.items(), key=lambda item: -len(item[1]))
    return tuple((None, ((region, want[:k]),))
                 for region, want in stacks for k in range(1, len(want) + 1))


def random_walk(problem: Problem, rng: random.Random, steps: int) -> list:
    """Random applicable-action trajectory; returns the visited states."""
    from hyperplan import applicable_actions, apply

    state = problem.initial
    visited = [state]
    for _ in range(steps):
        actions = applicable_actions(state, problem)
        if not actions:
            break
        state = apply(state, rng.choice(actions), problem)
        visited.append(state)
    return visited


def class_erased(p: Problem, actions) -> list:
    """``actions`` as tuples with each robot of ``p.robot_classes`` replaced
    by its class's index: plans that differ only in which interchangeable
    robot acts are equal here."""
    class_of = {r: i for i, robots in enumerate(p.robot_classes) for r in robots}
    out = []
    for a in actions:
        robots = (a.giver, a.receiver) if hasattr(a, "giver") else (a.robot,)
        out.append((type(a).__name__, a.obj, getattr(a, "region", None))
                   + tuple(class_of.get(r, r) for r in robots))
    return out


# --- reference helpers: test-side views and checks the program does not need ---

def placements(s: WorldState) -> dict:
    """Object -> the one ``OnStack``, ``InBuffer`` or ``Held`` fact placing it."""
    out: dict = {}
    for r, stack in s.stacks.items():
        for h, o in enumerate(stack):
            out[o] = OnStack(o, r, h)
    for r, objs in s.buffers.items():
        for o in objs:
            out[o] = InBuffer(o, r)
    for r, held in s.holdings.items():
        for o in held:
            out[o] = Held(r, o)
    return out


def from_placements(placed: dict, holdings=None) -> WorldState:
    """The state ``placements`` reads, rebuilt from its facts; each robot's
    hand in object order unless ``holdings`` gives the order."""
    stacks: dict = {}
    buffers: dict = {}
    held: dict = {}
    for o, fact in placed.items():
        if isinstance(fact, OnStack):
            stacks.setdefault(fact.region, {})[fact.height] = o
        elif isinstance(fact, InBuffer):
            buffers.setdefault(fact.region, set()).add(o)
        elif isinstance(fact, Held):
            held.setdefault(fact.robot, []).append(o)
        else:
            raise ValueError(f"unknown placement fact for {o!r}")
    ordered = {}
    for r, slots in stacks.items():
        if sorted(slots) != list(range(len(slots))):
            raise ValueError(f"stack {r!r} heights are not 0..k-1")
        ordered[r] = tuple(slots[i] for i in range(len(slots)))
    if holdings is None:
        holdings = {r: tuple(sorted(v)) for r, v in held.items()}
    return WorldState(ordered, buffers, holdings)


def action_sort_key(a) -> tuple:
    """The order ``applicable_actions`` returns actions in."""
    if isinstance(a, Pick):
        return (0, a.robot, a.obj, a.region)
    if isinstance(a, Place):
        return (1, a.robot, a.obj, a.region)
    return (2, a.giver, a.obj, a.receiver)


def verify_grounding(ah, p: Problem, regions: dict) -> list:
    """Independent re-check of the pairing ``ground_strategy`` promises."""
    errors = []
    if len(set(regions.values())) != len(regions):
        errors.append("region map is not injective")
    for role, stack in ah.goal_stacks.items():
        region = regions.get(role.index)
        if region not in p.goal:
            errors.append(f"{role} not mapped to a goal region")
        elif len(p.goal[region]) != len(stack):
            errors.append(f"{role} height differs from goal region {region!r}")
    return errors
