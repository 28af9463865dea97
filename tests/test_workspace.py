from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflat.cli import main
from semiflat.errors import SchemaError, SemiflatError, UnknownObject
from semiflat.structures import build_morphism, build_semimodule
from semiflat.workspace import (canonical_json, default_workspace_path, emit_workspace,
                                emit_workspace_dict, load_default_workspace,
                                parse_workspace, parse_workspace_dict)


@pytest.fixture(scope="module")
def default_ws():
    return load_default_workspace()


def test_default_catalog_loads(default_ws):
    assert {"BOOL", "SAT3", "ZMOD2R", "ZMOD4"} <= set(default_ws.semirings)
    assert {"BOOL", "SAT3", "ZMOD2", "ZMOD4", "SUB03"} <= set(default_ws.semimodules)
    assert "seq1" in default_ws.diagrams


def test_round_trip_is_byte_identical(default_ws):
    text = emit_workspace(default_ws)
    again = parse_workspace_dict(json.loads(text))
    assert emit_workspace(again) == text


def test_non_square_add_table_rejected():
    doc = {
        "format": 1,
        "semirings": {
            "BAD": {"elements": ["0", "1"], "add": [["0", "1"]],
                    "mul": [["0", "0"], ["0", "1"]], "zero": "0", "one": "1"},
        },
    }
    with pytest.raises(SchemaError) as exc:
        parse_workspace_dict(doc)
    assert "/semirings/BAD/add" in exc.value.pointer


def test_unknown_semiring_reference_rejected():
    doc = {
        "format": 1,
        "semirings": {},
        "semimodules": {
            "M": {"semiring": "NOPE", "side": "right", "elements": ["0"],
                  "add": [["0"]], "zero": "0", "action": [[]]},
        },
    }
    with pytest.raises(SchemaError) as exc:
        parse_workspace_dict(doc)
    assert "semiring" in exc.value.pointer


def test_unknown_label_rejected():
    doc = {
        "format": 1,
        "semirings": {
            "BAD": {"elements": ["0", "1"], "add": [["0", "x"], ["1", "1"]],
                    "mul": [["0", "0"], ["0", "1"]], "zero": "0", "one": "1"},
        },
    }
    with pytest.raises(SchemaError) as exc:
        parse_workspace_dict(doc)
    assert exc.value.pointer.endswith("/add/0/1")


def test_unsupported_format_rejected():
    with pytest.raises(SchemaError):
        parse_workspace_dict({"format": 99})


@pytest.mark.parametrize("header", [{"format": True}, {"format": 1.0}, {"format": "1"},
                                    {"format": None}, {}],
                         ids=["true", "1.0", "string", "null", "missing"])
def test_format_must_be_the_integer_one(tmp_path, header):
    # True and 1.0 compare equal to 1 in Python, but neither is format 1
    doc = {**header, "semirings": {}}
    with pytest.raises(SchemaError) as exc:
        parse_workspace_dict(doc)
    assert exc.value.pointer == "/format"
    ws_path = tmp_path / "ws.json"
    ws_path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--workspace", str(ws_path), "validate"])
    assert code == 2
    err = json.loads(out.getvalue())
    assert err["error"] == "SchemaError" and err["detail"].startswith("/format:")


def test_equal_semirings_keep_the_first_name():
    # A and B are one semiring object; the module declared over A names A
    B = {"elements": ["0", "1"], "add": [["0", "1"], ["1", "1"]],
         "mul": [["0", "0"], ["0", "1"]], "zero": "0", "one": "1"}
    M = {"semiring": "A", "side": "right", "elements": ["0", "1"],
         "add": [["0", "1"], ["1", "1"]], "zero": "0", "action": [["0", "0"], ["0", "1"]]}
    doc = {"format": 1, "semirings": {"A": B, "B": copy.deepcopy(B)},
           "semimodules": {"M": M}, "morphisms": {}, "systems": {}, "diagrams": {}}
    ws = parse_workspace_dict(doc)
    assert ws.semirings["A"] is ws.semirings["B"]
    assert emit_workspace_dict(ws)["semimodules"]["M"]["semiring"] == "A"
    assert emit_workspace(ws) == canonical_json(doc)


def test_equal_modules_keep_their_own_names():
    # M and N are equal but declared apart: f over M and the system over N
    # keep their names, and a copy declared under no name takes the first
    B = {"elements": ["0", "1"], "add": [["0", "1"], ["1", "1"]],
         "mul": [["0", "0"], ["0", "1"]], "zero": "0", "one": "1"}
    M = {"semiring": "B", "side": "right", "elements": ["0", "1"],
         "add": [["0", "1"], ["1", "1"]], "zero": "0", "action": [["0", "0"], ["0", "1"]]}
    doc = {"format": 1, "semirings": {"B": B},
           "semimodules": {"M": M, "N": copy.deepcopy(M)},
           "morphisms": {"f": {"source": "M", "target": "M", "map": ["0", "1"]}},
           "systems": {"s": {"nodes": ["N"], "arrows": []}}, "diagrams": {}}
    ws = parse_workspace_dict(doc)
    assert ws.semimodules["M"] == ws.semimodules["N"]
    assert ws.semimodules["M"] is not ws.semimodules["N"]
    assert emit_workspace(ws) == canonical_json(doc)
    assert emit_workspace(parse_workspace_dict(emit_workspace_dict(ws))) == canonical_json(doc)
    N = ws.semimodules["N"]
    copy_of_n = build_semimodule(N.semiring, N.side, N.labels, N.add, N.zero, N.action)
    ws.morphisms["g"] = build_morphism(copy_of_n, N, [0, 1])
    assert emit_workspace_dict(ws)["morphisms"]["g"] == {
        "source": "M", "target": "N", "map": ["0", "1"]}


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"a": ' * 100000 + "1" + "}" * 100000],
                         ids=["array", "object"])
def test_deeply_nested_json_is_schema_error(tmp_path, text):
    ws_path = tmp_path / "deep.json"
    ws_path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_workspace(str(ws_path))
    assert exc.value.pointer == "/"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--workspace", str(ws_path), "validate"])
    assert code == 2
    err = json.loads(out.getvalue())
    assert err["error"] == "SchemaError" and err["detail"].startswith("/:")


def test_missing_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        parse_workspace(str(tmp_path / "nope.json"))


def test_unknown_object_lookup(default_ws):
    with pytest.raises(UnknownObject):
        default_ws.semimodule("NOPE")


def test_named_fixture_objects_resolve(default_ws):
    seq = default_ws.diagrams["seq1"]
    arrows = [default_ws.morphism(a) for a in seq.arrows]
    assert arrows[0].source.size == 2 and arrows[0].target.size == 4


def _paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


CATALOG_DOC = json.loads(emit_workspace(load_default_workspace()))


@pytest.mark.parametrize("end, value", [("from", False), ("to", True)])
def test_boolean_arrow_end_rejected(end, value):
    # JSON true and false are not node indices, although bool subclasses int
    doc = copy.deepcopy(CATALOG_DOC)
    doc["systems"]["chain_mod2"]["arrows"][0][end] = value
    with pytest.raises(SchemaError) as exc:
        parse_workspace_dict(doc)
    assert exc.value.pointer == f"/systems/chain_mod2/arrows/0/{end}"

CATALOG_PATHS = sorted(_paths(CATALOG_DOC), key=repr)
DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats(allow_nan=False)
    | st.text(max_size=3) | st.sampled_from(["0", "1", "BOOL", "ZMOD4", "left"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def ws_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ws.json"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(CATALOG_PATHS), JSON_VALUES | st.just(DELETE))
def test_one_changed_field_is_a_typed_error(ws_path, path, value):
    # only a SemiflatError may escape the parser, and the CLI answers it
    # with exit 2; a change the schema allows still validates
    doc = copy.deepcopy(CATALOG_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    try:
        parse_workspace_dict(copy.deepcopy(doc))
        error = None
    except SemiflatError as exc:
        error = type(exc).__name__
    ws_path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--workspace", str(ws_path), "validate"])
    if error is None:
        assert code == 0
    else:
        assert code == 2
        assert json.loads(out.getvalue())["error"] == error


with open(default_workspace_path(), encoding="utf-8") as _fh:
    DEFAULT_DOC = json.load(_fh)
DEFAULT_PATHS = sorted(_paths(DEFAULT_DOC), key=repr)
# what a JSON node can turn into: every kind of scalar, an empty container,
# or nothing (the key or the list entry is deleted)
NODE_VALUES = (st.none() | st.booleans() | st.floats() | st.text(max_size=4)
               | st.sampled_from([[], {}]) | st.just(DELETE))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DEFAULT_PATHS), NODE_VALUES)
def test_one_mutated_node_of_the_default_workspace_is_a_typed_error(path, value):
    # only a SemiflatError may escape parse_workspace_dict
    doc = copy.deepcopy(DEFAULT_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    try:
        parse_workspace_dict(doc)
    except SemiflatError:
        pass
