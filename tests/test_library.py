import json
from dataclasses import replace

import pytest

from hyperplan import (
    FAIL_HARD,
    CorruptRecord,
    Problem,
    RefinementConfig,
    Region,
    RobotSpec,
    WorldState,
    canonical_form,
    execute_hypergraph,
    extract_strategy,
    is_goal,
    load,
    make_record,
    plan,
    retrieve,
    reuse_pipeline,
    signature_of,
    store,
)
from hyperplan.abstraction import AbstractHypergraph
from hyperplan.library import read_record, record_from_json, record_to_json, write_record

from conftest import load_scenario, reversal_problem


@pytest.fixture(scope="module")
def fig1_record():
    scenario = load_scenario("fig1")
    ah = extract_strategy(plan(scenario.problem)[0], scenario.problem)
    return make_record("fig1", ah, "fig1", created_at="2026-01-01T00:00:00+00:00")


def test_signature_of_fig1(fig1_record):
    sig = fig1_record.signature
    assert sig.num_abstract_objects == 3
    assert sig.goal_stack_heights == (3,)


def test_signature_of_empty_strategy():
    empty = AbstractHypergraph({}, {}, {})
    sig = signature_of(empty)
    assert (sig.num_abstract_objects, sig.goal_stack_heights) == (0, ())


def test_store_load_round_trip(tmp_path, fig1_record):
    store(fig1_record, tmp_path)
    (loaded,) = load(tmp_path)
    assert loaded == fig1_record
    assert canonical_form(loaded.ah) == canonical_form(fig1_record.ah)


def test_record_json_round_trip(fig1_record):
    data = record_to_json(fig1_record)
    assert data["version"] == 1
    assert set(data["signature"]) == {"num_abstract_objects", "goal_stack_heights"}
    rebuilt = record_from_json(json.loads(json.dumps(data)))
    assert rebuilt == fig1_record


def test_legacy_uses_buffer_key_is_ignored(tmp_path):
    # version-1 records written before the buffer gate went carry the key
    fig1, fig3 = load_scenario("fig1"), load_scenario("fig3")
    record = _record_for("fig3", fig3.problem)
    data = record_to_json(record)
    data["signature"]["uses_buffer"] = True
    (tmp_path / "fig3.json").write_text(json.dumps(data))
    assert read_record(tmp_path / "fig3.json") == record
    (loaded,) = load(tmp_path)
    assert loaded == record
    graph, stats = reuse_pipeline(loaded.ah, fig1.problem)
    final, _, _ = execute_hypergraph(graph, fig1.problem)
    assert is_goal(final, fig1.problem)
    assert stats.actions == 6
    store(loaded, tmp_path)
    rewritten = json.loads((tmp_path / "fig3.json").read_text())
    assert "uses_buffer" not in rewritten["signature"]


def test_tampered_signature_is_rejected(tmp_path, fig1_record):
    data = record_to_json(fig1_record)
    data["signature"]["num_abstract_objects"] = 7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptRecord):
        read_record(path)


def test_tampered_structure_is_rejected(tmp_path, fig1_record):
    data = record_to_json(fig1_record)
    data["arcs"][0]["heads"] = [99]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptRecord):
        read_record(path)


def test_repeated_node_id_is_rejected(fig1_record):
    data = record_to_json(fig1_record)
    data["nodes"].append(dict(data["nodes"][-1]))
    with pytest.raises(CorruptRecord, match="repeated node id"):
        record_from_json(data)


def test_goal_placeholder_at_two_positions_is_rejected(tmp_path, fig1_record):
    # grounding pairs roles with goal regions only, so a placeholder pinned
    # to two goal positions is refused once, at load
    data = record_to_json(fig1_record)
    stack = data["goal_stacks"]["target:0"]
    stack[1] = stack[0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptRecord,
                       match=f"x{stack[0]} pinned to two different goal positions"):
        read_record(path)


def test_schedule_survives_the_round_trip(tmp_path):
    fig1, fig3 = load_scenario("fig1"), load_scenario("fig3")
    blocker = _two_box_problem({"R": ("B", "A", "X")})
    for name, p in (("fig1", fig1.problem), ("fig3", fig3.problem),
                    ("blocker", blocker), ("rev5", reversal_problem(5))):
        record = _record_for(name, p)
        store(record, tmp_path)
        loaded = read_record(tmp_path / f"{name}.json")
        assert loaded.ah.schedule == record.ah.schedule, name
        assert loaded.ah.schedule


def test_dependent_arcs_out_of_order_are_rejected(fig1_record):
    # arc ids are the array order, so swapping two dependent arcs makes the
    # first entry consume a node only the later one produces
    data = record_to_json(fig1_record)
    arcs = data["arcs"]
    assert set(arcs[1]["tails"]) & set(arcs[0]["heads"])
    arcs[0], arcs[1] = arcs[1], arcs[0]
    with pytest.raises(CorruptRecord, match="consumes node"):
        record_from_json(data)


def test_unsupported_version_is_rejected(tmp_path, fig1_record):
    data = record_to_json(fig1_record)
    data["version"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptRecord):
        read_record(path)


def test_non_json_file_is_rejected(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text("not json at all")
    with pytest.raises(CorruptRecord):
        read_record(path)


def test_load_empty_directory(tmp_path):
    assert load(tmp_path) == []


def test_load_rejects_a_missing_directory_and_a_file(tmp_path, fig1_record):
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "missing")
    store(fig1_record, tmp_path)
    with pytest.raises(NotADirectoryError):
        load(tmp_path / f"{fig1_record.id}.json")


def test_retrieve_matches_goal_shape(tmp_path, fig1_record):
    store(fig1_record, tmp_path)
    records = load(tmp_path)
    fig2 = load_scenario("fig2")
    hit = retrieve(fig2.problem, records)
    assert hit is not None and hit.id == "fig1"


def test_retrieve_rejects_different_shapes(tmp_path, fig1_record):
    store(fig1_record, tmp_path)
    records = load(tmp_path)
    four_high = reversal_problem(4)
    assert retrieve(four_high, records) is None


def test_retrieve_smallest_id_wins(tmp_path, fig1_record):
    store(fig1_record, tmp_path)
    twin = replace(fig1_record, id="aaa-first")
    store(twin, tmp_path)
    hit = retrieve(load_scenario("fig1").problem, load(tmp_path))
    assert hit.id == "aaa-first"


def test_retrieve_on_empty_library(fig1_record):
    assert retrieve(load_scenario("fig1").problem, []) is None


def _two_box_problem(initial: dict) -> Problem:
    regions = (Region("L", "stack"), Region("R", "stack"), Region("S", "stack"))
    return Problem(regions, (RobotSpec("r0", frozenset({"L", "R", "S"})),),
                   ("A", "B", "X"), WorldState(stacks=initial), {"L": ("A", "B")})


def _record_for(record_id: str, p: Problem):
    ah = extract_strategy(plan(p)[0], p)
    return make_record(record_id, ah, record_id,
                       created_at="2026-01-01T00:00:00+00:00")


def test_retrieve_finds_blocker_strategy_for_its_own_problem():
    # X blocks the goal boxes: the strategy has 3 placeholders, the goal 2
    p = _two_box_problem({"R": ("B", "A", "X")})
    record = _record_for("blocker", p)
    assert record.signature.num_abstract_objects == 3
    assert len(p.goal_objects) == 2
    assert retrieve(p, [record]) is record
    # more placeholders than the problem has objects: grounding binds only
    # goal positions, so the record still applies and refines optimally
    two_objects = replace(p, objects=("A", "B"),
                          initial=WorldState(stacks={"R": ("B", "A")}))
    assert retrieve(two_objects, [record]) is record
    graph, stats = reuse_pipeline(record.ah, two_objects)
    final, _, _ = execute_hypergraph(graph, two_objects)
    assert is_goal(final, two_objects)
    assert not stats.fallback_used
    assert stats.actions == plan(two_objects)[1].solution_actions == 4


def test_retrieve_prefers_fewest_extra_placeholders():
    p = _two_box_problem({"R": ("B", "A", "X")})
    blocker = _record_for("a-blocker", p)
    plain = _record_for("z-plain", _two_box_problem({"R": ("B", "A"), "S": ("X",)}))
    assert plain.signature.num_abstract_objects == 2
    assert retrieve(p, [blocker, plain]) is plain


def test_retrieve_returns_buffer_strategies_without_a_buffer(fig1_record):
    # the search picks where to park, so a buffered strategy refines on
    # problems with no buffer to their optima
    fig1, fig2, fig3 = (load_scenario(name) for name in ("fig1", "fig2", "fig3"))
    buffered = _record_for("a-fig3", fig3.problem)
    hit = retrieve(fig1.problem, [buffered, fig1_record])
    assert hit.id == "a-fig3"
    for scenario, optimal in ((fig1, 6), (fig2, 9)):
        p = scenario.problem
        graph, stats = reuse_pipeline(hit.ah, p, RefinementConfig(fallback=FAIL_HARD))
        final, _, _ = execute_hypergraph(graph, p)
        assert is_goal(final, p)
        assert stats.actions == optimal == plan(p)[1].solution_actions


@pytest.mark.parametrize("value", [False, None, 1, "missing"])
def test_abstract_robot_must_be_true(fig1_record, value):
    data = record_to_json(fig1_record)
    assert all(node["abstract_robot"] is True for node in data["nodes"])
    if value == "missing":
        del data["nodes"][0]["abstract_robot"]
    else:
        data["nodes"][0]["abstract_robot"] = value
    with pytest.raises(CorruptRecord, match="abstract_robot"):
        record_from_json(data)


def test_write_record_is_atomic(tmp_path, fig1_record):
    target = tmp_path / "fig1.json"
    write_record(fig1_record, target)
    write_record(fig1_record, target)  # overwrite in place
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert read_record(target) == fig1_record


@pytest.mark.parametrize("field,value,what", [
    ("node id", "x", "node id"),
    ("node id", 0.0, "node id"),
    ("object", "0", "object index"),
    ("object", True, "object index"),
    ("stack_order", "0", "stack_order entry"),
    ("tail", "0", "arc tail"),
    ("head", False, "arc head"),
    ("goal stack", 1.0, "goal-stack entry"),
])
def test_record_ids_and_indices_must_be_integers(fig1_record, field, value, what):
    data = record_to_json(fig1_record)
    node = next(n for n in data["nodes"] if n["stack_order"])
    if field == "node id":
        data["nodes"].append(dict(data["nodes"][-1], id=value))
    elif field == "object":
        node["objects"][0] = value
    elif field == "stack_order":
        node["stack_order"][0] = value
    elif field == "goal stack":
        data["goal_stacks"]["target:0"][0] = value
    else:
        data["arcs"][0][field + "s"][0] = value
    with pytest.raises(CorruptRecord) as failure:
        record_from_json(data)
    assert str(failure.value) == f"<memory>: {what} {value!r} is not an integer"


@pytest.mark.parametrize("field,value,message", [
    ("arcs", {}, "arcs: expected a list"),
    ("arcs", "", "arcs: expected a list"),
    ("nodes", {}, "nodes: expected a list"),
    ("stack_order", {}, "nodes.stack_order: expected a list"),
    ("stack_order", "", "nodes.stack_order: expected a list"),
    ("version", True, "unsupported version True"),
    ("num_abstract_objects", 3.0, "signature.num_abstract_objects 3.0 is not an integer"),
    ("goal_stack_heights", "3", "signature.goal_stack_heights: expected a list"),
    ("id", 5, "id 5 is not a string"),
    ("signature", "3", "signature: expected an object"),
    ("provenance", None, "provenance: expected an object"),
    ("goal_stacks", [], "goal_stacks: expected an object"),
])
def test_record_fields_must_have_their_json_types(fig1_record, field, value, message):
    data = record_to_json(fig1_record)
    if field == "stack_order":
        data["nodes"][0]["stack_order"] = value
    elif field in data["signature"]:
        data["signature"][field] = value
    else:
        data[field] = value
    with pytest.raises(CorruptRecord) as failure:
        record_from_json(data)
    assert str(failure.value) == f"<memory>: {message}"


@pytest.mark.parametrize("role", ["source:\u00b2", "target:-1", "sink:0", 5])
def test_unknown_region_roles_are_corrupt(fig1_record, role):
    data = record_to_json(fig1_record)
    data["nodes"][0]["region_role"] = role
    with pytest.raises(CorruptRecord) as failure:
        record_from_json(data)
    assert str(failure.value) == f"<memory>: unknown region role {role!r}"


@pytest.mark.parametrize("key,value", [("scenario", ["x"]), ("created_at", 5)])
def test_provenance_values_must_be_strings(fig1_record, key, value):
    data = record_to_json(fig1_record)
    data["provenance"][key] = value
    with pytest.raises(CorruptRecord) as failure:
        record_from_json(data)
    assert str(failure.value) == f"<memory>: provenance.{key} {value!r} is not a string"
