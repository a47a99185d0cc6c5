"""A fixed reference task that measures how fast the machine runs right now.

The benchmark's hosts are shared, and their speed changes by a quarter or
more, within seconds as well as over minutes. That drift moves every time
in a run together, so run-to-run spreads of raw times exceed any useful
regression bound. The benchmark therefore times this task between every two
requests and between every two set-ups, and reports their times scaled to a
machine on which the task takes ``NOMINAL_MS``. The task takes about 10 ms,
so each timing sees the host at nearly the same moment as the request or
set-up next to it.

The task is A* search on one fixed 8-puzzle instance, written here and sharing
no code with hyperplan: tuples as states, a dict of best costs, a closed
set and a binary heap, the same kind of work the planner does. A change to
the program cannot change the task, so the scaling cannot hide or inflate a
change in the program's cost.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

NOMINAL_MS = 10.0
GOAL = (1, 2, 3, 4, 5, 6, 7, 8, 0)


def _neighbours(cell: int) -> list:
    row, col = divmod(cell, 3)
    out = []
    if row > 0:
        out.append(cell - 3)
    if row < 2:
        out.append(cell + 3)
    if col > 0:
        out.append(cell - 1)
    if col < 2:
        out.append(cell + 1)
    return out


def _distance(tiles: tuple) -> int:
    return sum(abs(i // 3 - (v - 1) // 3) + abs(i % 3 - (v - 1) % 3)
               for i, v in enumerate(tiles) if v)


def _start() -> tuple:
    """A fixed, scrambled start: 400 random moves of the blank from the goal."""
    rng = random.Random(7)
    tiles, blank = list(GOAL), 8
    for _ in range(400):
        step = rng.choice(_neighbours(blank))
        tiles[blank], tiles[step] = tiles[step], tiles[blank]
        blank = step
    return tuple(tiles)


START = _start()


def task() -> int:
    """Solve the instance optimally; returns the solution length."""
    frontier = [(_distance(START), 0, START)]
    best = {START: 0}
    closed = set()
    while frontier:
        _, g, tiles = heapq.heappop(frontier)
        if tiles == GOAL:
            return g
        if tiles in closed:
            continue
        closed.add(tiles)
        blank = tiles.index(0)
        for step in _neighbours(blank):
            nxt = list(tiles)
            nxt[blank], nxt[step] = nxt[step], nxt[blank]
            nxt = tuple(nxt)
            if g + 1 < best.get(nxt, 1 << 30):
                best[nxt] = g + 1
                heapq.heappush(frontier, (g + 1 + _distance(nxt), g + 1, nxt))
    raise AssertionError("the 8-puzzle start is solvable by construction")


def time_task_ms() -> float:
    """One timing of the task, in ms of CPU time.

    The garbage collector is off meanwhile: a collection would traverse the
    program's heap, so the timing would grow with the program's memory.
    """
    gc.disable()
    try:
        started = time.process_time()
        task()
        return (time.process_time() - started) * 1000.0
    finally:
        gc.enable()


def scale(seconds: float, before_ms: float, after_ms: float) -> float:
    """``seconds`` on a machine where the task takes ``NOMINAL_MS``, given the
    task's timings just before and just after them."""
    return seconds * NOMINAL_MS * 2.0 / (before_ms + after_ms)
