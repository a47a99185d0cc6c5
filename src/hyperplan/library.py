"""Persisting extracted strategies and retrieving candidates.

One strategy per JSON file, human readable, written atomically
(temp file then rename). A stored strategy is a retrieval candidate for a
problem when its ``goal_heights`` equal the problem's. Every placeholder
of a goal stack is a distinct abstract object, so a candidate has one
placeholder per goal object or more. The candidate with the fewest
placeholders (the fewest objects moved without a goal position) wins,
then the smallest record id.
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
from .domain import Problem, goal_heights
from .hypergraph import ABSTRACT, Hyperarc

FORMAT_VERSION = 1

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class CorruptRecord(Exception):
    def __init__(self, file: str, reason: str):
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
        goal_stack_heights=goal_heights(ah.goal_stacks),
    )


def make_record(record_id: str, ah: AbstractHypergraph, scenario: str,
                created_at: str | None = None) -> StrategyRecord:
    stamp = created_at or datetime.now(timezone.utc).isoformat(timespec="seconds")
    return StrategyRecord(record_id, signature_of(ah), ah,
                          Provenance(scenario, stamp))


# --- serialization -----------------------------------------------------------

def _role_parse(text, file: str):
    if text is None:
        return None
    if text == "buffer":
        return BufferRole()
    kind, _, index = str(text).partition(":")
    if kind in ("source", "target") and index.isdecimal():
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
                "region_role": None if ah.nodes[nid].region is None
                else str(ah.nodes[nid].region),
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


def read_json(text: str, error, where: str):
    """``text`` decoded, or ``error(where, reason)`` if it is not valid JSON;
    every file reader decodes through it, with its own error class."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(where, f"not valid JSON: {exc}") from exc


def _list(value, file: str, where: str) -> list:
    """``value``, or CorruptRecord unless it is a JSON list."""
    if type(value) is not list:
        raise CorruptRecord(file, f"{where}: expected a list")
    return value


def _object(value, file: str, where: str, keys) -> dict:
    """``value``, or CorruptRecord unless it is a JSON object that has every
    key of ``keys``."""
    if type(value) is not dict:
        raise CorruptRecord(file, f"{where}: expected an object")
    for key in keys:
        if key not in value:
            raise CorruptRecord(file, f"{where}.{key}: missing field")
    return value


def _ints(values, file: str, where: str, what: str) -> list:
    """``values``, or CorruptRecord unless it is a list of ints (a bool is
    not one)."""
    for value in _list(values, file, where):
        if type(value) is not int:
            raise CorruptRecord(file, f"{what} {value!r} is not an integer")
    return values


def _objects(indices, file: str, where: str, what: str) -> tuple:
    return tuple(map(AbstractObject, _ints(indices, file, where, what)))


def record_from_json(data: dict, file: str = "<memory>") -> StrategyRecord:
    version = _object(data, file, "record", ()).get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CorruptRecord(file, f"unsupported version {version!r}")
    _object(data, file, "record",
            ("id", "signature", "nodes", "arcs", "goal_stacks", "provenance"))
    if type(data["id"]) is not str:
        raise CorruptRecord(file, f"id {data['id']!r} is not a string")
    # only the node, arc and record constructors' own checks raise
    # ValueError here
    try:
        nodes = {}
        for entry in _list(data["nodes"], file, "nodes"):
            _object(entry, file, "nodes",
                    ("id", "objects", "region_role", "stack_order", "abstract_robot"))
            (nid,) = _ints([entry["id"]], file, "nodes.id", "node id")
            # refinement always attaches robots, so no other value is usable
            if entry["abstract_robot"] is not True:
                raise CorruptRecord(file, f"node {nid}: abstract_robot must be true")
            if nid in nodes:
                raise CorruptRecord(file, f"repeated node id {nid!r}")
            nodes[nid] = AbstractNode(
                id=nid,
                composition=frozenset(_objects(entry["objects"], file, "nodes.objects",
                                               "object index")),
                region=_role_parse(entry["region_role"], file),
                stack_order=_objects(entry["stack_order"], file, "nodes.stack_order",
                                     "stack_order entry"),
            )
        arcs = {}
        for i, entry in enumerate(_list(data["arcs"], file, "arcs")):
            _object(entry, file, "arcs", ("tails", "heads"))
            arcs[i] = Hyperarc(
                i, ABSTRACT,
                frozenset(_ints(entry["tails"], file, "arcs.tails", "arc tail")),
                frozenset(_ints(entry["heads"], file, "arcs.heads", "arc head")))
        goal_stacks = {
            _role_parse(role, file): _objects(stack, file, f"goal_stacks.{role}",
                                              "goal-stack entry")
            for role, stack in _object(data["goal_stacks"], file, "goal_stacks", ()).items()
        }
        ah = AbstractHypergraph(nodes, arcs, goal_stacks)
        stored = _object(data["signature"], file, "signature",
                         ("num_abstract_objects", "goal_stack_heights"))
        signature = StrategySignature(
            num_abstract_objects=_ints([stored["num_abstract_objects"]], file, "signature",
                                       "signature.num_abstract_objects")[0],
            goal_stack_heights=tuple(_ints(stored["goal_stack_heights"], file,
                                           "signature.goal_stack_heights",
                                           "goal-stack height")),
        )
        stored = _object(data["provenance"], file, "provenance", ("scenario", "created_at"))
        provenance = Provenance(stored["scenario"], stored["created_at"])
        for key, value in vars(provenance).items():
            if not isinstance(value, str):
                raise CorruptRecord(file, f"provenance.{key} {value!r} is not a string")
        record = StrategyRecord(data["id"], signature, ah, provenance)
    except ValueError as exc:
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
    return record_from_json(read_json(path.read_text(), CorruptRecord, str(path)), str(path))


def store(record: StrategyRecord, directory) -> str:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_record(record, directory / f"{record.id}.json")
    return record.id


def load(directory) -> list:
    """All records in a directory, sorted by id; corrupt files raise
    CorruptRecord, and a missing directory or a file raises OSError, as
    listing it does."""
    directory = Path(directory)
    paths = sorted(path for path in directory.iterdir() if path.match("*.json"))
    return sorted(map(read_record, paths), key=lambda r: r.id)


def retrieve(p: Problem, records) -> StrategyRecord | None:
    """Best stored strategy for a problem, or None (see the module docstring)."""
    heights = goal_heights(p.goal)
    candidates = [r for r in records if r.signature.goal_stack_heights == heights]
    return min(candidates, default=None,
               key=lambda r: (r.signature.num_abstract_objects, r.id))
