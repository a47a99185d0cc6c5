"""Regenerate ``expected.json``: the optimal action count of every pooled problem.

    python3 bench/make_expected.py

A* (``hyperplan.planner.plan``) gives each count. The independent
breadth-first ``bfs_oracle`` cross-checks it wherever it finishes within
``ORACLE_SECONDS``; such entries carry ``"oracle": true``. Where the two disagree
the oracle's count is recorded and the disagreement printed, so the
benchmark then reports the A* plans as failures. ``"optimum": null`` marks
a problem both searches find unsolvable. Each entry also holds a digest of
its problem, so the benchmark refuses a pool that no longer matches.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hyperplan.planner import NoSolution, bfs_oracle, plan  # noqa: E402


ORACLE_SECONDS = 10


class OracleTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OracleTimeout()


def oracle(problem):
    """bfs_oracle's count (None: unsolvable), or OracleTimeout."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ORACLE_SECONDS)
    try:
        return bfs_oracle(problem, bound=64)
    finally:
        signal.alarm(0)


def main() -> int:
    out = {}
    for workload, requests in workloads.pools().items():
        for req in requests:
            started = time.perf_counter()
            try:
                astar = plan(req.problem)[1].solution_actions
            except NoSolution:
                astar = None
            try:
                truth, checked = oracle(req.problem), True
            except OracleTimeout:
                truth, checked = astar, False
            if truth != astar:
                print(f"MISMATCH {req.key}: A* {astar}, oracle {truth}", file=sys.stderr)
            out[req.key] = {"optimum": truth, "oracle": checked,
                            "digest": workloads.problem_digest(req.problem)}
            print(f"{req.key} optimum={truth} oracle={checked} "
                  f"{time.perf_counter() - started:.2f}s", file=sys.stderr, flush=True)
    workloads.EXPECTED_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    checked = sum(e["oracle"] for e in out.values())
    print(f"wrote {len(out)} entries, {checked} cross-checked by bfs_oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
