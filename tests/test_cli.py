from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflat import catalog, cli
from semiflat.cli import main
from semiflat.errors import TimeBudgetExceeded
from semiflat.workspace import canonical_json, emit_workspace, load_default_workspace

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def golden(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_tensor_golden(capsys):
    code, out = run_cli(capsys, "tensor", "BOOL", "BOOL")
    assert code == 0
    assert out == golden("tensor_bool.json")


def test_ttensor_golden(capsys):
    code, out = run_cli(capsys, "ttensor", "SAT3", "SAT3")
    assert code == 0
    assert out == golden("ttensor_sat3.json")


def test_exact_golden_and_exit(capsys):
    code, out = run_cli(capsys, "exact", "seq1")
    assert code == 1  # the fixture sequence is quasi-exact but not exact
    assert out == golden("exact_seq1.json")
    doc = json.loads(out)
    stage = doc["result"]["stages"][0]
    assert stage["semi_exact"] and stage["quasi_exact"]
    assert not stage["proper_exact"] and not stage["exact"]


def test_flat_golden_and_exit(capsys):
    code, out = run_cli(capsys, "flat", "ZMOD2", "--against", "ZMOD4")
    assert code == 1
    assert out == golden("flat_zmod2.json")
    doc = json.loads(out)
    assert doc["result"]["witness"]["subsemimodule"] == ["0", "2"]


def test_suite_golden(capsys):
    code, out = run_cli(capsys, "suite", "--only", "unit-law,flat-negative")
    assert code == 0
    assert out == golden("suite_subset.json")


def test_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "tensor", "ZMOD2", "ZMOD2")
    _, second = run_cli(capsys, "tensor", "ZMOD2", "ZMOD2")
    assert first == second


def test_exit_zero_on_positive_flat(capsys):
    code, out = run_cli(capsys, "flat", "ZMOD4", "--against", "ZMOD4")
    assert code == 0
    assert json.loads(out)["result"]["uniformly_flat"]


def test_unknown_object_is_exit_two(capsys):
    code, out = run_cli(capsys, "flat", "NOPE")
    assert code == 2
    assert json.loads(out)["error"] == "UnknownObject"


@pytest.mark.parametrize("only", ["", "exactness,,"], ids=["empty", "trailing-commas"])
def test_empty_suite_tag_is_unknown(capsys, only):
    code, out = run_cli(capsys, "suite", "--only", only)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "UnknownObject"
    assert err["detail"] == "unknown suite tags: ['']"


@pytest.mark.parametrize("argv", [
    ["flat", "ZMOD2", "--universe"],
    ["inj", "ZMOD2", "--family"],
    ["search", "--semirings", "--max-size", "2"],
    ["flat", "ZMOD2", "--against", "ZMOD4", "--universe", "BOOL"],
], ids=["empty-universe", "empty-family", "empty-semirings", "against-and-universe"])
def test_flags_without_names_are_rejected(argv):
    # a list flag given no names must not fall back to its default list
    assert _main(argv) == (2, "")


@pytest.mark.parametrize("argv, option, name", [
    (["flat", "ZMOD2", "--universe", "ZMOD4", "ZMOD2", "ZMOD4"], "--universe", "ZMOD4"),
    (["inj", "ZMOD2", "--family", "ZMOD2", "ZMOD2"], "--family", "ZMOD2"),
    (["search", "--semirings", "BOOL", "BOOL", "--max-size", "2"], "--semirings", "BOOL"),
], ids=["universe", "family", "semirings"])
def test_names_repeated_in_one_list_are_rejected(capsys, argv, option, name):
    # a repeated name would be scanned, and counted, twice
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"command": argv[0], "error": "InvalidArgument",
                               "detail": f"{option} lists {name!r} twice", "format": 1}


@pytest.mark.parametrize("argv", [
    ["flat", "ZMOD2", "--against", "ZMOD2"],
    ["inj", "ZMOD2", "--family", "ZMOD2", "ZMOD4"],
], ids=["flat-against-itself", "inj-family-holds-the-module"])
def test_a_name_may_repeat_across_arguments(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code in (0, 1) and "error" not in json.loads(out)


def test_catalog_emits_canonical_workspace(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    assert out == emit_workspace(load_default_workspace())


def test_validate_lists_objects(capsys):
    code, out = run_cli(capsys, "validate", "BOOL", "ZMOD2")
    assert code == 0
    doc = json.loads(out)
    assert doc["objects"]["ZMOD2"]["kind"] == "semimodule"


def test_hom_subcommand(capsys):
    code, out = run_cli(capsys, "hom", "BOOL", "BOOL")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 2


def test_hom_pretty_is_indented_key_value_text(capsys):
    for name, size in (("BOOL", 2), ("BOOL2", 16)):
        code, out = run_cli(capsys, "hom", name, name, "--pretty")
        assert code == 0
        lines = out.splitlines()
        # the keys in sorted order, each nested level two spaces further in
        assert lines[:5] == ["command: hom", "format: 1", "inputs:",
                             f"  source: {name}", f"  target: {name}"]
        assert lines[5:7] == ["result:", "  maps:"]
        assert lines[-1] == f"  size: {size}"
        # one line per map, with its labels in brackets
        code, doc = run_cli(capsys, "hom", name, name)
        maps = json.loads(doc)["result"]["maps"]
        assert len(maps) == size
        assert lines[7:-1] == ["    - [" + ", ".join(labels) + "]" for labels in maps]


def test_suite_pretty_is_one_line_per_tag(capsys):
    code, out = run_cli(capsys, "suite", "--only", "unit-law", "--pretty")
    assert code == 0
    [line] = out.splitlines()
    # mark, tag, check count, seconds and detail; the timing is not compared
    assert re.fullmatch(r"\[PASS\] unit-law +checks=24 +\d+\.\d\ds  \S.*", line), line


def test_suite_under_optimize_is_a_typed_error():
    # python -O strips the asserts the suites check with, so a run would
    # pass without checking anything
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-m", "semiflat.cli", "suite",
                           "--only", "axioms"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"] == "InvalidArgument"


@pytest.mark.parametrize("source, target", [("BOOL", "SAT3"), ("BOOL", "ZMOD2_SELF")])
def test_hom_across_semirings_is_exit_two(capsys, source, target):
    code, out = run_cli(capsys, "hom", source, target)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "SideMismatch"
    assert err["detail"] == "source and target live over different semirings"


def test_reflect_subcommand(capsys):
    code, out = run_cli(capsys, "reflect", "SAT3")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 1


def test_limits_subcommand(capsys):
    code, out = run_cli(capsys, "limits", "chain_mod2")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 2
    code, out = run_cli(capsys, "limits", "chain_mod2", "--op", "limit")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 4


def test_inj_subcommand(capsys):
    code, out = run_cli(capsys, "inj", "TRIV_ZMOD4", "--family", "ZMOD4", "ZMOD2")
    assert code == 0
    assert json.loads(out)["result"]["uniformly_injective"]


def test_search_subcommand(capsys, tmp_path):
    out_path = tmp_path / "search.jsonl"
    code, out = run_cli(capsys, "search", "--semirings", "ZMOD4",
                        "--max-size", "3", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["classified"] == 2
    assert out_path.exists()


def test_search_out_of_budget_reports_partial(capsys, monkeypatch):
    code, out = run_cli(capsys, "search", "--semirings", "ZMOD4",
                        "--max-size", "3", "--budget", "0")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "TimeBudgetExceeded"
    assert doc["inputs"] == {"semirings": ["ZMOD4"], "max_size": 3}
    assert doc["result"] == {"classified": 0, "uniformly_flat_not_certified": [],
                             "lattice_violations": [], "partial": True}

    # what was classified before the budget ran out is reported as is
    def out_of_time(cfg):
        raise TimeBudgetExceeded({"records": [None, None],
                                  "uniformly_flat_not_certified": [(0, 1)],
                                  "lattice_violations": [(0, 0, "found")]})
    monkeypatch.setattr(cli, "search_counterexamples", out_of_time)
    code, out = run_cli(capsys, "search")
    assert code == 2
    assert json.loads(out)["result"] == {
        "classified": 2, "uniformly_flat_not_certified": [[0, 1]],
        "lattice_violations": [[0, 0, "found"]], "partial": True}


@pytest.mark.parametrize("flag, value, detail", [
    ("--max-size", "-3", "max_size must be at least 1, got -3"),
    ("--budget", "nan", "budget_seconds must be >= 0, got nan"),
    ("--out", "missing/x.jsonl", "cannot write"),
])
def test_search_rejects_bad_arguments(capsys, monkeypatch, tmp_path, flag, value, detail):
    def enumerated(*args):
        raise AssertionError("enumeration started")
    monkeypatch.setattr(catalog, "enumerate_semimodules", enumerated)
    if flag == "--out":
        value = str(tmp_path / value)
    code, out = run_cli(capsys, "search", "--max-size", "2", flag, value)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "InvalidArgument"
    assert err["detail"].startswith(detail)


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full")
def test_search_write_failure_is_invalid_argument(capsys):
    # every write to /dev/full fails with ENOSPC
    code, out = run_cli(capsys, "search", "--semirings", "BOOL", "--max-size", "2",
                        "--out", "/dev/full")
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "InvalidArgument"
    assert err["detail"] == "cannot write '/dev/full': No space left on device"


def test_workspace_flag(capsys, tmp_path):
    ws_path = tmp_path / "ws.json"
    ws_path.write_text(emit_workspace(load_default_workspace()), encoding="utf-8")
    code, out = run_cli(capsys, "--workspace", str(ws_path), "hom", "BOOL", "BOOL")
    assert code == 0


def test_bad_workspace_is_exit_two(capsys, tmp_path):
    ws_path = tmp_path / "bad.json"
    ws_path.write_text("{}", encoding="utf-8")
    code, out = run_cli(capsys, "--workspace", str(ws_path), "hom", "BOOL", "BOOL")
    assert code == 2
    assert json.loads(out)["error"] == "SchemaError"


def test_workspace_directory_is_exit_two(capsys, tmp_path):
    code, out = run_cli(capsys, "--workspace", str(tmp_path), "validate")
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "SchemaError"
    assert err["detail"].startswith("/: cannot read")


def test_non_utf8_workspace_is_exit_two(capsys, tmp_path):
    ws_path = tmp_path / "latin1.json"
    ws_path.write_bytes('{"semirings": {"B\xe4": {}}}'.encode("latin-1"))
    code, out = run_cli(capsys, "--workspace", str(ws_path), "validate")
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "SchemaError"
    assert err["detail"].startswith("/: not UTF-8")


def test_internal_error_is_exit_two(capsys, monkeypatch):
    # a bug inside a command is reported as such, never as a verdict
    def broken(*args):
        raise RuntimeError("broken on purpose")
    monkeypatch.setattr(cli, "hom_module", broken)
    code, out = run_cli(capsys, "hom", "BOOL", "BOOL")
    assert code == 2
    assert json.loads(out) == {"command": "hom", "error": "InternalError",
                               "detail": "RuntimeError: broken on purpose", "format": 1}


def test_non_object_section_is_exit_two(capsys, tmp_path):
    doc = json.loads(emit_workspace(load_default_workspace()))
    doc["diagrams"] = [1, 2]
    ws_path = tmp_path / "bad.json"
    ws_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(capsys, "--workspace", str(ws_path), "validate")
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "SchemaError"
    assert err["detail"].startswith("/diagrams:")


@pytest.mark.parametrize("section, name, field, value, pointer", [
    ("semimodules", "ZMOD4", "second", 1, "/semimodules/ZMOD4/second"),
    ("systems", "chain_mod2", "arrows", {"a": 1}, "/systems/chain_mod2/arrows"),
    ("systems", "chain_mod2", "arrows", [1], "/systems/chain_mod2/arrows/0"),
    # a field is a path of keys; a list or object where a name or label is looked up
    ("systems", "chain_mod2", "arrows/0/map", 1, "/systems/chain_mod2/arrows/0/map"),
    ("semimodules", "ZMOD4", "zero", ["0"], "/semimodules/ZMOD4/zero"),
    ("semimodules", "ZMOD4", "semiring", ["ZMOD4"], "/semimodules/ZMOD4/semiring"),
    ("semimodules", "ZMOD4", "second", {"semiring": {}, "side": "left", "action": []},
     "/semimodules/ZMOD4/second/semiring"),
    ("semirings", "BOOL", "zero", {"0": 1}, "/semirings/BOOL/zero"),
    ("semirings", "BOOL", "add/0/1", ["1"], "/semirings/BOOL/add/0/1"),
    ("morphisms", "mod2", "source", ["ZMOD4"], "/morphisms/mod2/source"),
    ("systems", "chain_mod2", "nodes/0", {}, "/systems/chain_mod2/nodes/0"),
    ("diagrams", "seq1", "arrows/0", [], "/diagrams/seq1/arrows/0"),
])
def test_non_object_nested_field_is_exit_two(capsys, tmp_path, section, name, field,
                                             value, pointer):
    doc = json.loads(emit_workspace(load_default_workspace()))
    *path, last = field.split("/")
    node = doc[section][name]
    for key in path:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = value
    ws_path = tmp_path / "bad.json"
    ws_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(capsys, "--workspace", str(ws_path), "validate")
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "SchemaError"
    assert err["detail"].startswith(pointer + ":")


# -- argv fuzz ---------------------------------------------------------------

_WS = load_default_workspace()
_UNKNOWN = ["NOPE", "", "bool", "ZMOD4 ", "--x"]
_NUMBERS = ["0", "1", "2", "-3", "nan", "inf", "-inf", "1e999", "abc", ""]
_CHEAP_TAGS = ["axioms", "congruence-oracle", "unit-law", "cancellative-universal",
               "adjunction", "flat-negative", "hom-tensor-comparison", "limits", "nope"]
_BOOLEAN = {"exact", "flat", "inj", "search", "suite"}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "catalog.json").write_text(emit_workspace(_WS), encoding="utf-8")
    (root / "empty.json").write_text("{}", encoding="utf-8")
    (root / "garbage.json").write_text("{not json", encoding="utf-8")
    (root / "latin1.json").write_bytes(b'{"semirings": {"B\xe4": {}}}')
    workspaces = [str(root / name) for name in ("catalog.json", "empty.json", "garbage.json",
                                                "latin1.json", "missing.json")] + [str(root)]
    outs = [str(root / "out.jsonl"), str(root / "nodir" / "x.jsonl"), str(root)]
    return workspaces, outs


def _names(*kinds):
    """Catalog names of the given kinds, and names that resolve to nothing."""
    return st.sampled_from(sorted(set().union(*kinds)) + _UNKNOWN)


def _argv(workspaces, outs):
    name = _names(_WS.semirings, _WS.semimodules, _WS.morphisms, _WS.systems,
                  _WS.diagrams)
    module = _names(_WS.semimodules)
    modules = st.lists(module, max_size=3)
    number = st.sampled_from(_NUMBERS)

    def flag(option, values):
        return st.one_of(st.just([]), values.map(lambda v: [option, v]))

    def flags(option, values):
        return st.one_of(st.just([]), values.map(lambda vs: [option, *vs]))

    search = st.tuples(st.just(["search", "--max-size"]),
                       st.sampled_from(["-3", "0", "1", "2", "abc"]),
                       flags("--semirings", st.lists(_names(_WS.semirings, ["SAT3", "ZMOD2"]),
                                                     max_size=2)),
                       flag("--budget", number), flag("--out", st.sampled_from(outs)))
    commands = st.one_of(
        st.tuples(st.just(["validate"]), st.lists(name, max_size=3)),
        st.tuples(st.just(["tensor"]), module, module,
                  st.sampled_from([[], ["--dense"]])),
        st.tuples(st.just(["ttensor"]), module, module),
        st.tuples(st.just(["reflect"]), module),
        st.tuples(st.just(["hom"]), module, module),
        st.tuples(st.just(["exact"]), _names(_WS.diagrams)),
        st.tuples(st.just(["flat"]), module,
                  st.one_of(flag("--against", module), flags("--universe", modules))),
        st.tuples(st.just(["inj"]), module, flags("--family", modules)),
        st.tuples(st.just(["limits"]), _names(_WS.systems),
                  flag("--op", st.sampled_from(["colimit", "limit", "sum"]))),
        # search only at sizes <= 2, and suite only on cheap tags, to keep this fast;
        # search twice, since it has the most options
        search, search,
        st.tuples(st.just(["catalog"])),
        st.tuples(st.just(["suite", "--only"]),
                  st.lists(st.sampled_from(_CHEAP_TAGS), min_size=1, max_size=2)
                  .map(",".join)),
    )
    argv = commands.map(lambda parts: [a for p in parts
                                       for a in (p if isinstance(p, list) else [p])])
    # the default workspace twice as often as each path, so most commands get to run
    workspace = st.sampled_from([[]] * 2 * len(workspaces)
                                + [["--workspace", p] for p in workspaces])
    return st.tuples(workspace, argv)


def _main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:          # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


def test_argv_fuzz(fuzz_paths):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_argv(*fuzz_paths))
    def check(drawn):
        prefix, argv = drawn
        argv = prefix + argv
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            assert _main(argv) == (exc.code, "") and exc.code == 2
            return
        code, out = _main(argv)
        assert code in (0, 1, 2)
        doc = json.loads(out)
        assert canonical_json(doc) == out
        assert doc.get("error") != "InternalError", doc
        if code == 1:
            assert doc["command"] in _BOOLEAN
    check()
