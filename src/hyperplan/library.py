"""Persisting extracted strategies and retrieving candidates.

One strategy per JSON file, human readable, written atomically
(temp file then rename). A stored strategy is a retrieval candidate for a
problem when its goal stack-height multiset matches the problem's goal
and it has at least one placeholder per goal object.
The candidate with the fewest extra placeholders (objects the strategy
moved without a goal position) wins, then the smallest record id.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .abstraction import (
    AbstractHypergraph,
    AbstractNode,
    AbstractObject,
    BufferRole,
    SourceRole,
    TargetRole,
    ah_violations,
)
from .domain import Problem
from .hypergraph import ABSTRACT, Hyperarc

FORMAT_VERSION = 1

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class CorruptRecord(Exception):
    def __init__(self, file: str, reason: str):
        self.file = file
        self.reason = reason
        super().__init__(f"{file}: {reason}")


@dataclass(frozen=True)
class StrategySignature:
    num_abstract_objects: int
    goal_stack_heights: tuple


@dataclass(frozen=True)
class Provenance:
    scenario: str
    created_at: str


@dataclass(frozen=True)
class StrategyRecord:
    id: str
    signature: StrategySignature
    ah: AbstractHypergraph
    provenance: Provenance

    def __post_init__(self) -> None:
        if not _ID_RE.match(self.id):
            raise ValueError(f"unusable record id: {self.id!r}")


def signature_of(ah: AbstractHypergraph) -> StrategySignature:
    return StrategySignature(
        num_abstract_objects=len(ah.abstract_objects),
        goal_stack_heights=tuple(sorted(len(v) for v in ah.goal_stacks.values())),
    )


def make_record(record_id: str, ah: AbstractHypergraph, scenario: str,
                created_at: str | None = None) -> StrategyRecord:
    stamp = created_at or datetime.now(timezone.utc).isoformat(timespec="seconds")
    return StrategyRecord(record_id, signature_of(ah), ah,
                          Provenance(scenario, stamp))


# --- serialization -----------------------------------------------------------

def _role_text(role) -> str | None:
    return None if role is None else str(role)


def _role_parse(text, file: str):
    if text is None:
        return None
    if text == "buffer":
        return BufferRole()
    kind, _, index = str(text).partition(":")
    if kind in ("source", "target") and index.isdigit():
        cls = SourceRole if kind == "source" else TargetRole
        return cls(int(index))
    raise CorruptRecord(file, f"unknown region role {text!r}")


def record_to_json(record: StrategyRecord) -> dict:
    ah = record.ah
    return {
        "version": FORMAT_VERSION,
        "id": record.id,
        "signature": {
            "num_abstract_objects": record.signature.num_abstract_objects,
            "goal_stack_heights": list(record.signature.goal_stack_heights),
        },
        "nodes": [
            {
                "id": nid,
                "objects": sorted(o.index for o in ah.nodes[nid].composition),
                "region_role": _role_text(ah.nodes[nid].region),
                "stack_order": [o.index for o in ah.nodes[nid].stack_order],
                "abstract_robot": True,
            }
            for nid in sorted(ah.nodes)
        ],
        "arcs": [
            {"tails": sorted(ah.arcs[aid].tails), "heads": sorted(ah.arcs[aid].heads)}
            for aid in sorted(ah.arcs)
        ],
        "goal_stacks": {
            str(role): [o.index for o in stack]
            for role, stack in sorted(ah.goal_stacks.items(),
                                      key=lambda kv: kv[0].index)
        },
        "provenance": {
            "scenario": record.provenance.scenario,
            "created_at": record.provenance.created_at,
        },
    }


def record_from_json(data: dict, file: str = "<memory>") -> StrategyRecord:
    try:
        if data.get("version") != FORMAT_VERSION:
            raise CorruptRecord(file, f"unsupported version {data.get('version')!r}")
        nodes = {}
        for entry in data["nodes"]:
            # refinement always attaches robots, so no other value is usable
            if entry["abstract_robot"] is not True:
                raise CorruptRecord(
                    file, f"node {entry['id']}: abstract_robot must be true")
            if entry["id"] in nodes:
                raise CorruptRecord(file, f"repeated node id {entry['id']!r}")
            nodes[entry["id"]] = AbstractNode(
                id=entry["id"],
                composition=frozenset(AbstractObject(i) for i in entry["objects"]),
                region=_role_parse(entry["region_role"], file),
                stack_order=tuple(AbstractObject(i) for i in entry["stack_order"]),
            )
        arcs = {i: Hyperarc(i, ABSTRACT,
                            frozenset(entry["tails"]), frozenset(entry["heads"]))
                for i, entry in enumerate(data["arcs"])}
        goal_stacks = {
            _role_parse(role, file): tuple(AbstractObject(i) for i in stack)
            for role, stack in data["goal_stacks"].items()
        }
        ah = AbstractHypergraph(nodes, arcs, goal_stacks)
        signature = StrategySignature(
            num_abstract_objects=data["signature"]["num_abstract_objects"],
            goal_stack_heights=tuple(data["signature"]["goal_stack_heights"]),
        )
        record = StrategyRecord(
            id=data["id"],
            signature=signature,
            ah=ah,
            provenance=Provenance(
                scenario=data["provenance"]["scenario"],
                created_at=data["provenance"]["created_at"],
            ),
        )
    except CorruptRecord:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptRecord(file, f"malformed record: {exc}") from exc
    violations = ah_violations(record.ah)
    if violations:
        raise CorruptRecord(file, violations[0].detail)
    if signature_of(record.ah) != record.signature:
        raise CorruptRecord(file, "signature does not match the stored strategy")
    return record


def write_record(record: StrategyRecord, path) -> None:
    """Whole-file atomic write: temp file in the target dir, then rename."""
    path = Path(path)
    payload = json.dumps(record_to_json(record), indent=2, sort_keys=False) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_record(path) -> StrategyRecord:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CorruptRecord(str(path), f"not valid JSON: {exc}") from exc
    return record_from_json(data, str(path))


def store(record: StrategyRecord, directory) -> str:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_record(record, directory / f"{record.id}.json")
    return record.id


def load(directory) -> list:
    """All records in a directory, sorted by id; corrupt files raise."""
    directory = Path(directory)
    records = []
    for path in sorted(directory.glob("*.json")):
        records.append(read_record(path))
    return sorted(records, key=lambda r: r.id)


def retrieve(p: Problem, records) -> StrategyRecord | None:
    """Best stored strategy for a problem, or None (see the module docstring)."""
    heights = tuple(sorted(len(v) for v in p.goal.values()))
    wanted = len(p.goal_objects)
    candidates = [r for r in records
                  if r.signature.goal_stack_heights == heights
                  and wanted <= r.signature.num_abstract_objects]
    return min(candidates, default=None,
               key=lambda r: (r.signature.num_abstract_objects - wanted, r.id))
