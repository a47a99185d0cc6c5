"""Seeded workloads for the hyperplan benchmark.

Each workload is a fixed pool of generated problems plus the way one
request handles a problem. The pools are built here, by the benchmark's own
generators (``random_instance`` is a copy of the test-suite generator), so
an edit to the test fixtures cannot shift a workload. ``--seed`` shuffles
the order in which a run issues the requests; the pool itself stays fixed
so that ``expected.json`` can hold the optimum of every problem in it and
so that runs with different seeds do the same work.

Workloads:

``search-permute``
    one scratch ``plan`` per request on random-permutation re-stacks of
    6-7 boxes over three stacks (half with two full-reach robots, half with
    one robot and a capacity-2 buffer) and on blocker towers with 2-5
    blockers. A* search takes nearly all of the time.
``reuse-transfer``
    set-up solves and extracts source strategies (tower reversal of height
    4-8, a 3-box goal tower under 1-4 blockers), stores them and loads the
    library back. Each request grounds and refines the matching strategy on
    a relabelled target that has disjoint reach with a handoff buffer, one
    robot with a parking buffer, or 0-6 distractor boxes.
``roundtrip-corpus``
    ``random_instance(seed, 4, 2, 4)`` for corpus seeds 0-399; each request
    parses the scenario, plans, writes and reads the plan, extracts and
    stores the strategy, retrieves from the records stored so far and
    reuses the strategy on its own problem.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from hyperplan import abstraction, cli, library, planner, reuse
from hyperplan.domain import Problem, Region, RobotSpec, WorldState

WORKLOADS = ("search-permute", "reuse-transfer", "roundtrip-corpus")

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# The budget ``hyperplan solve`` and ``hyperplan reuse`` use by default.
MAX_EXPANSIONS = 200_000

# Fixed record timestamp, so stored strategy files are byte-identical.
CREATED_AT = "2024-01-01T00:00:00+00:00"


# --- generators ----------------------------------------------------------------

def _split(rng: random.Random, seq: list, parts: int) -> list:
    """Cut ``seq`` into ``parts`` consecutive, possibly empty, pieces."""
    cuts = sorted(rng.randint(0, len(seq)) for _ in range(parts - 1))
    out, prev = [], 0
    for cut in cuts + [len(seq)]:
        out.append(tuple(seq[prev:cut]))
        prev = cut
    return out


def permute_problem(seed: int, boxes: int, one_robot: bool) -> Problem:
    """Random permutation re-stack: both start and goal split over 3 stacks."""
    rng = random.Random(seed)
    stacks = ["s0", "s1", "s2"]
    regions = [Region(s, "stack") for s in stacks]
    if one_robot:
        regions.append(Region("tray", "buffer", 2))
        robots = [RobotSpec("arm", frozenset(stacks + ["tray"]))]
    else:
        robots = [RobotSpec(r, frozenset(stacks)) for r in ("blue", "red")]
    names = [f"b{i}" for i in range(boxes)]
    start = _split(rng, rng.sample(names, boxes), 3)
    goal = _split(rng, rng.sample(names, boxes), 3)
    return Problem(tuple(regions), tuple(robots), tuple(names),
                   WorldState(stacks=dict(zip(stacks, start))),
                   {s: v for s, v in zip(stacks, goal) if v})


@dataclass(frozen=True)
class Labels:
    """Names of the regions, robots and boxes a family generator uses."""

    pile: str = "src"
    goal: str = "dst"
    spare: str = "side"
    robots: tuple = ("blue", "red")
    box: str = "b"
    blocker: str = "x"


SOURCE_LABELS = Labels()
TARGET_LABELS = Labels("pile", "goal", "spare", ("g", "t"), "c", "y")

def _table(lab: Labels, variant: str, distractors: int) -> tuple:
    """Regions and robots for a variant, plus the distractor stack if any.

    ``shared``: two robots reach every stack. ``handoff``: the first robot
    reaches the pile and spare stacks, the second the goal stack, and both a
    capacity-2 buffer where they can meet. ``onebot``: one robot reaches
    everything, including a capacity-2 parking buffer. The distractor stack
    is out of every robot's reach: its boxes widen grounding's choice of
    objects without widening the search.
    """
    stacks = [lab.pile, lab.goal, lab.spare]
    regions = [Region(s, "stack") for s in stacks]
    if distractors:
        regions.append(Region("aside", "stack"))
    if variant == "shared":
        robots = [RobotSpec(r, frozenset(stacks)) for r in lab.robots]
    elif variant == "handoff":
        regions.append(Region("hand", "buffer", 2))
        robots = [RobotSpec(lab.robots[0],
                            frozenset(set(stacks) - {lab.goal}) | {"hand"}),
                  RobotSpec(lab.robots[1], frozenset({lab.goal, "hand"}))]
    elif variant == "onebot":
        regions.append(Region("park", "buffer", 2))
        robots = [RobotSpec(lab.robots[0], frozenset(stacks + ["park"]))]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return tuple(regions), tuple(robots)


def _with_distractors(stacks: dict, names: list, distractors: int) -> None:
    if distractors:
        extra = [f"d{i}" for i in range(distractors)]
        stacks["aside"] = tuple(extra)
        names.extend(extra)


def reversal_problem(height: int, lab: Labels = SOURCE_LABELS,
                     variant: str = "shared", distractors: int = 0) -> Problem:
    """Reverse a tower from the pile stack onto the empty goal stack."""
    regions, robots = _table(lab, variant, distractors)
    boxes = [f"{lab.box}{i}" for i in range(1, height + 1)]
    stacks = {lab.pile: tuple(boxes)}
    names = list(boxes)
    _with_distractors(stacks, names, distractors)
    return Problem(regions, robots, tuple(names), WorldState(stacks=stacks),
                   {lab.goal: tuple(reversed(boxes))})


def blocker_problem(blockers: int, seed: int, lab: Labels = SOURCE_LABELS,
                    variant: str = "shared", distractors: int = 0) -> Problem:
    """Three goal boxes at the bottom of the pile, under ``blockers`` boxes.

    The goal is the three boxes in a seeded order on the empty goal stack;
    the blockers have to be parked somewhere first.
    """
    rng = random.Random(seed)
    regions, robots = _table(lab, variant, distractors)
    boxes = [f"{lab.box}{i}" for i in range(1, 4)]
    tops = [f"{lab.blocker}{i}" for i in range(1, blockers + 1)]
    stacks = {lab.pile: tuple(rng.sample(boxes, 3)) + tuple(tops)}
    names = boxes + tops
    _with_distractors(stacks, names, distractors)
    return Problem(regions, robots, tuple(names), WorldState(stacks=stacks),
                   {lab.goal: tuple(rng.sample(boxes, 3))})


def random_instance(seed: int, max_objects: int = 3, max_robots: int = 2,
                    max_regions: int = 3) -> Problem:
    """Deterministic small instance; may or may not be solvable.

    Draws the same random numbers in the same order as the test suite's
    generator of the same name, so corpus seed N is the same problem in
    both places.
    """
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
        if not problem.validate():
            return problem
    raise RuntimeError(f"seed {seed} produced no valid instance")


def problem_digest(p: Problem) -> str:
    """Short fingerprint of a problem, computed without the program's code."""
    doc = {
        "regions": [[r.id, r.kind, r.capacity] for r in p.regions],
        "robots": [[r.id, sorted(r.reach), r.capacity] for r in p.robots],
        "objects": list(p.objects),
        "stacks": sorted([r, list(v)] for r, v in p.initial.stacks.items()),
        "buffers": sorted([r, sorted(v)] for r, v in p.initial.buffers.items()),
        "goal": sorted([r, list(v)] for r, v in p.goal.items()),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- pools -----------------------------------------------------------------------

@dataclass
class Request:
    """One problem of a pool and what its correctness check needs."""

    key: str
    problem: Problem
    source: str | None = None   # reuse-transfer: key of the strategy's source
    expected: int | None = None  # optimal action count, None if unsolvable
    known_error: str | None = None  # class of an exception known to escape
    strategy: object = None      # reuse-transfer: the loaded StrategyRecord


# search-permute mix: (family, boxes or blockers, one robot, instances).
# One pass takes about 13 s on the baseline machine, so an untraced run's two
# passes fit in 30 s.
SEARCH_MIX = (
    ("perm", 6, False, 20),
    ("perm", 6, True, 20),
    ("perm", 7, False, 1),
    ("perm", 7, True, 1),
    ("blocker", 2, False, 3),
    ("blocker", 3, False, 3),
    ("blocker", 4, False, 3),
    ("blocker", 5, False, 1),
)

REVERSAL_HEIGHTS = (4, 5, 6, 7, 8)
SOURCE_BLOCKERS = (1, 2, 3, 4)
DISTRACTORS = (0, 1, 2, 3, 4, 5, 6)
CORPUS_SEEDS = range(400)

# Requests that raise at the benchmark's parent commit, with the exception's
# class: a known failure. Any other escaped exception makes the run incorrect.
KNOWN_ERRORS = {
    "roundtrip-corpus/seed205": "ValueError",   # ROADMAP item 2
}


def search_pool() -> list:
    out = []
    for family, size, one_robot, count in SEARCH_MIX:
        for i in range(count):
            if family == "perm":
                key = f"search-permute/perm{size}-{'1r' if one_robot else '2r'}-{i:02d}"
                problem = permute_problem(1000 * size + 100 * one_robot + i,
                                          size, one_robot)
            else:
                key = f"search-permute/blocker{size}-{i:02d}"
                problem = blocker_problem(size, 7000 + 10 * size + i)
            out.append(Request(key, problem))
    return out


def source_pool() -> list:
    """The solved problems whose strategies reuse-transfer applies."""
    out = [Request(f"reuse-transfer/source-rev{h}", reversal_problem(h))
           for h in REVERSAL_HEIGHTS]
    out += [Request(f"reuse-transfer/source-blk{k}", blocker_problem(k, 500 + k))
            for k in SOURCE_BLOCKERS]
    return out


def transfer_pool() -> list:
    """Relabelled targets: handoff and one-robot variants, then distractors."""
    out = []
    for h in REVERSAL_HEIGHTS:
        source = f"reuse-transfer/source-rev{h}"
        for variant, d in _transfer_variants():
            key = f"reuse-transfer/rev{h}-{variant}-d{d}"
            out.append(Request(key, reversal_problem(h, TARGET_LABELS, variant, d),
                               source=source))
    for k in SOURCE_BLOCKERS:
        source = f"reuse-transfer/source-blk{k}"
        for variant, d in _transfer_variants():
            key = f"reuse-transfer/blk{k}-{variant}-d{d}"
            out.append(Request(key, blocker_problem(k, 500 + k, TARGET_LABELS,
                                                    variant, d),
                               source=source))
    return out


def _transfer_variants() -> list:
    return [("handoff", 0), ("onebot", 0)] + [("shared", d) for d in DISTRACTORS]


def corpus_pool() -> list:
    return [Request(f"roundtrip-corpus/seed{s:03d}", random_instance(s, 4, 2, 4))
            for s in CORPUS_SEEDS]


def pools() -> dict:
    """Every problem the benchmark can issue, by workload (sources included)."""
    return {
        "search-permute": search_pool(),
        "reuse-transfer": source_pool() + transfer_pool(),
        "roundtrip-corpus": corpus_pool(),
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def attach_expected(requests: list, expected: dict) -> None:
    """Fill in each request's optimum; refuse a pool the file does not match."""
    for req in requests:
        entry = expected.get(req.key)
        if entry is None:
            raise SystemExit(f"{EXPECTED_FILE.name} has no entry for {req.key}")
        if entry["digest"] != problem_digest(req.problem):
            raise SystemExit(f"{req.key} differs from the problem in "
                             f"{EXPECTED_FILE.name}; regenerate it with "
                             "bench/make_expected.py")
        req.expected = entry["optimum"]
        req.known_error = KNOWN_ERRORS.get(req.key)


# --- requests --------------------------------------------------------------------

@dataclass
class Outcome:
    """What one request returned, or the class of the exception it raised."""

    plans: list = field(default_factory=list)  # (graph, actions, optimal?)
    fallback: bool | None = None   # None: not a reuse request
    error: str | None = None
    unsolvable: bool = False       # plan raised NoSolution
    # (what, test) pairs: ``test()`` is true when ``what`` survived its
    # write/read round trip; the checks call it after the request's timing.
    round_trips: list = field(default_factory=list)


def reuse_config():
    """The configuration ``hyperplan reuse --fallback-scratch`` builds."""
    return reuse.RefinementConfig(
        search=planner.SearchConfig(max_expansions=MAX_EXPANSIONS),
        fallback=reuse.SCRATCH_FALLBACK)


def serve_search(req: Request, ctx: "Context") -> Outcome:
    graph, stats = planner.plan(
        req.problem, planner.SearchConfig(max_expansions=MAX_EXPANSIONS))
    return Outcome([(graph, stats.solution_actions, True)])


def serve_transfer(req: Request, ctx: "Context") -> Outcome:
    graph, stats = reuse.reuse_pipeline(req.strategy.ah, req.problem,
                                        reuse_config())
    return Outcome([(graph, stats.actions, stats.fallback_used)],
                   fallback=stats.fallback_used)


def serve_roundtrip(req: Request, ctx: "Context") -> Outcome:
    name = req.key.rsplit("/", 1)[-1]
    text = json.dumps(cli.scenario_to_json(cli.Scenario(name, req.problem)))
    problem = cli.parse_scenario(text).problem
    out = Outcome()
    out.round_trips.append(
        ("scenario", lambda: problem_digest(problem) == problem_digest(req.problem)))
    try:
        graph, stats = planner.plan(
            problem, planner.SearchConfig(max_expansions=MAX_EXPANSIONS))
    except planner.NoSolution:
        out.unsolvable = True
        return out
    plan_text = json.dumps(cli.plan_to_json(graph, name))
    read_back = cli.plan_from_json(json.loads(plan_text))
    out.round_trips.append(
        ("plan", lambda: json.dumps(cli.plan_to_json(read_back, name)) == plan_text))
    out.plans.append((read_back, stats.solution_actions, True))
    ah = abstraction.extract_strategy(read_back, problem)
    record = library.make_record(name, ah, name, created_at=CREATED_AT)
    record_id = library.store(record, ctx.library_dir)
    stored = library.read_record(ctx.library_dir / f"{record_id}.json")
    out.round_trips.append(
        ("strategy", lambda: abstraction.canonical_form(stored.ah)
         == abstraction.canonical_form(ah)))
    ctx.records.append(stored)
    library.retrieve(problem, ctx.records)
    graph, rstats = reuse.reuse_pipeline(stored.ah, problem, reuse_config())
    out.plans.append((graph, rstats.actions, rstats.fallback_used))
    out.fallback = rstats.fallback_used
    return out


SERVE = {
    "search-permute": serve_search,
    "reuse-transfer": serve_transfer,
    "roundtrip-corpus": serve_roundtrip,
}


@dataclass
class Context:
    """Per-run state a roundtrip request touches: its library directory and
    the records stored there during the current pass."""

    root: Path
    library_dir: Path | None = None
    records: list = field(default_factory=list)
    passes: int = 0

    def new_pass(self) -> None:
        """Start an empty library, so every pass stores and retrieves the same way.

        Each pass gets a new directory and nothing is deleted until the run
        ends: on a disk that discards freed blocks, deleting or overwriting
        files makes the next writes' latency swing by a factor of three.
        """
        self.records.clear()
        self.passes += 1
        self.library_dir = self.root / f"pass{self.passes}"
        self.library_dir.mkdir(parents=True)


def prepare_sources(requests: list, work: Path, expected: dict) -> dict:
    """Solve, extract, store and load the strategies the targets need.

    Returns the source plans by key (their action counts are checked like
    any scratch plan) and attaches each target's loaded record.
    """
    wanted = {req.source for req in requests}
    sources = [s for s in source_pool() if s.key in wanted]
    attach_expected(sources, expected)
    lib_dir = work / "strategies"
    plans = {}
    for src in sources:
        graph, stats = planner.plan(
            src.problem, planner.SearchConfig(max_expansions=MAX_EXPANSIONS))
        plans[src.key] = (src, Outcome([(graph, stats.solution_actions, True)]))
        ah = abstraction.extract_strategy(graph, src.problem)
        record_id = src.key.rsplit("/", 1)[-1]
        library.store(library.make_record(record_id, ah, record_id,
                                          created_at=CREATED_AT), lib_dir)
    records = {r.id: r for r in library.load(lib_dir)}
    for req in requests:
        req.strategy = records[req.source.rsplit("/", 1)[-1]]
    return plans


def build(workload: str, seed: int, work: Path, limit: int | None = None) -> tuple:
    """Generate a workload's requests in the seed's order.

    Returns ``(requests, context, source_plans)``. ``limit`` keeps only the
    first requests of the pool, for the benchmark's self-test.
    """
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    expected = load_expected()
    if workload == "search-permute":
        requests = search_pool()
    elif workload == "reuse-transfer":
        requests = transfer_pool()
    else:
        requests = corpus_pool()
    if limit is not None:
        requests = requests[:limit]
    attach_expected(requests, expected)
    sources = {}
    if workload == "reuse-transfer":
        sources = prepare_sources(requests, work, expected)
    warm_up(work / "warm-up")
    random.Random(seed).shuffle(requests)
    return requests, Context(work / "library"), sources


def warm_up(directory: Path) -> None:
    """One round trip on a 3-box tower reversal, plus loading its library.

    Run at the end of every workload's set-up, so that each layer has run
    once before timing and reports set-up figures even where the workload
    leaves it idle.
    """
    ctx = Context(directory)
    ctx.new_pass()
    serve_roundtrip(Request("warm-up/rev3", reversal_problem(3)), ctx)
    library.load(ctx.library_dir)
