"""Workspace documents: canonical JSON in, validated structures out.

Format 1 keeps one top-level object with "semirings", "semimodules",
"morphisms", "systems" and "diagrams" maps; every operation table is a
row-major array of element labels.  Emission is canonical (sorted keys,
two-space indent, UTF-8), so parse/emit round-trips byte-identically on
canonicalized documents.
"""
from __future__ import annotations

import json
from importlib import resources

from .errors import SchemaError, UnknownObject
from .limits import DirectedSystem, directed_system
from .record import Record
from .structures import (Morphism, SecondAction, Semimodule, Semiring,
                         build_morphism, build_semimodule, build_semiring)

FORMAT = 1


class Diagram(Record):
    kind: str
    arrows: list[str]


class Workspace(Record):
    """Named objects of one document; each map omitted is a fresh empty dict."""

    semirings: dict[str, Semiring]
    semimodules: dict[str, Semimodule]
    morphisms: dict[str, Morphism]
    systems: dict[str, DirectedSystem]
    diagrams: dict[str, Diagram]

    def __init__(self, semirings: dict[str, Semiring] | None = None,
                 semimodules: dict[str, Semimodule] | None = None,
                 morphisms: dict[str, Morphism] | None = None,
                 systems: dict[str, DirectedSystem] | None = None,
                 diagrams: dict[str, Diagram] | None = None):
        d = self.__dict__
        d["semirings"] = {} if semirings is None else semirings
        d["semimodules"] = {} if semimodules is None else semimodules
        d["morphisms"] = {} if morphisms is None else morphisms
        d["systems"] = {} if systems is None else systems
        d["diagrams"] = {} if diagrams is None else diagrams

    def semimodule(self, name: str) -> Semimodule:
        if name not in self.semimodules:
            raise UnknownObject(f"no semimodule named {name!r}")
        return self.semimodules[name]

    def morphism(self, name: str) -> Morphism:
        if name not in self.morphisms:
            raise UnknownObject(f"no morphism named {name!r}")
        return self.morphisms[name]


def _expect(cond: bool, pointer: str, detail: str):
    if not cond:
        raise SchemaError(pointer, detail)


def _resolve(table: dict, key, pointer: str, detail: str):
    """table[key] for a string key; otherwise SchemaError(pointer, detail.format(key))."""
    value = table.get(key) if isinstance(key, str) else None
    if value is None:
        raise SchemaError(pointer, detail.format(key))
    return value


def _label_table(raw, labels_index, pointer, ncols=None):
    _expect(isinstance(raw, list), pointer, "table must be an array of rows")
    table = []
    for i, row in enumerate(raw):
        _expect(isinstance(row, list), f"{pointer}/{i}", "row must be an array")
        if ncols is not None:
            _expect(len(row) == ncols, f"{pointer}/{i}", f"expected {ncols} entries")
        out = []
        for j, cell in enumerate(row):
            out.append(_resolve(labels_index, cell, f"{pointer}/{i}/{j}",
                                "unknown element label {!r}"))
        table.append(out)
    return table


def _labels(raw, pointer):
    _expect(isinstance(raw, list) and raw, pointer, "elements must be a nonempty array")
    labels = [str(x) for x in raw]
    _expect(len(set(labels)) == len(labels), pointer, "element labels must be distinct")
    return labels


def _object(raw, pointer):
    _expect(isinstance(raw, dict), pointer, "must be an object")
    return raw


def _entries(doc, section):
    """Sorted (name, entry) pairs of a top-level section; all must be objects."""
    items = sorted(_object(doc.get(section, {}), f"/{section}").items())
    for name, raw in items:
        _object(raw, f"/{section}/{name}")
    return items


def parse_workspace_dict(doc: dict) -> Workspace:
    _expect(isinstance(doc, dict), "/", "document must be an object")
    fmt = doc.get("format")
    # type(...) is int: a JSON true or 1.0 compares equal to 1 but is not format 1
    _expect(type(fmt) is int and fmt == FORMAT, "/format", f"unsupported format {fmt!r}")
    ws = Workspace()
    for name, raw in _entries(doc, "semirings"):
        ptr = f"/semirings/{name}"
        labels = _labels(raw.get("elements"), f"{ptr}/elements")
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        add = _label_table(raw.get("add"), index, f"{ptr}/add", n)
        _expect(len(add) == n, f"{ptr}/add", "add table must be square")
        mul = _label_table(raw.get("mul"), index, f"{ptr}/mul", n)
        _expect(len(mul) == n, f"{ptr}/mul", "mul table must be square")
        zero = _resolve(index, raw.get("zero"), f"{ptr}/zero", "zero must name an element")
        one = _resolve(index, raw.get("one"), f"{ptr}/one", "one must name an element")
        ws.semirings[name] = build_semiring(labels, add, mul, zero, one)
    for name, raw in _entries(doc, "semimodules"):
        ptr = f"/semimodules/{name}"
        S = _resolve(ws.semirings, raw.get("semiring"), f"{ptr}/semiring",
                     "unknown semiring {!r}")
        side = raw.get("side", "right")
        _expect(side in ("left", "right"), f"{ptr}/side", "side must be left or right")
        labels = _labels(raw.get("elements"), f"{ptr}/elements")
        index = {lab: i for i, lab in enumerate(labels)}
        m = len(labels)
        add = _label_table(raw.get("add"), index, f"{ptr}/add", m)
        _expect(len(add) == m, f"{ptr}/add", "add table must be square")
        action = _label_table(raw.get("action"), index, f"{ptr}/action", S.size)
        _expect(len(action) == m, f"{ptr}/action", "action table needs one row per element")
        zero = _resolve(index, raw.get("zero"), f"{ptr}/zero", "zero must name an element")
        second = None
        if "second" in raw:
            sec = _object(raw["second"], f"{ptr}/second")
            T = _resolve(ws.semirings, sec.get("semiring"), f"{ptr}/second/semiring",
                         "unknown semiring {!r}")
            sside = sec.get("side")
            _expect(sside in ("left", "right"), f"{ptr}/second/side",
                    "side must be left or right")
            stable = _label_table(sec.get("action"), index, f"{ptr}/second/action", T.size)
            second = SecondAction(T, sside, tuple(tuple(r) for r in stable))
        ws.semimodules[name] = build_semimodule(S, side, labels, add, zero, action, second)
    for name, raw in _entries(doc, "morphisms"):
        ptr = f"/morphisms/{name}"
        src = _resolve(ws.semimodules, raw.get("source"), f"{ptr}/source",
                       "unknown semimodule {!r}")
        tgt = _resolve(ws.semimodules, raw.get("target"), f"{ptr}/target",
                       "unknown semimodule {!r}")
        tgt_index = {lab: i for i, lab in enumerate(tgt.labels)}
        raw_map = raw.get("map")
        _expect(isinstance(raw_map, list) and len(raw_map) == src.size, f"{ptr}/map",
                "map needs one target label per source element")
        mapping = [_resolve(tgt_index, cell, f"{ptr}/map/{j}", "unknown target label {!r}")
                   for j, cell in enumerate(raw_map)]
        ws.morphisms[name] = build_morphism(src, tgt, mapping)
    for name, raw in _entries(doc, "systems"):
        ptr = f"/systems/{name}"
        node_names = raw.get("nodes")
        _expect(isinstance(node_names, list) and node_names, f"{ptr}/nodes",
                "nodes must be a nonempty array of semimodule names")
        nodes = [_resolve(ws.semimodules, nn, f"{ptr}/nodes/{j}", "unknown semimodule {!r}")
                 for j, nn in enumerate(node_names)]
        arrows = raw.get("arrows", [])
        _expect(isinstance(arrows, list), f"{ptr}/arrows", "arrows must be an array")
        rels = []
        maps = []
        for k, arrow in enumerate(arrows):
            aptr = f"{ptr}/arrows/{k}"
            _object(arrow, aptr)
            j, j2 = arrow.get("from"), arrow.get("to")
            # type(...) is int: a JSON true or false is not a node index
            _expect(type(j) is int and 0 <= j < len(nodes), f"{aptr}/from",
                    "from must index a node")
            _expect(type(j2) is int and 0 <= j2 < len(nodes), f"{aptr}/to",
                    "to must index a node")
            tgt = nodes[j2]
            tgt_index = {lab: i for i, lab in enumerate(tgt.labels)}
            raw_map = arrow.get("map", [])
            _expect(isinstance(raw_map, list), f"{aptr}/map", "map must be an array")
            mapping = [_resolve(tgt_index, cell, f"{aptr}/map/{q}",
                                "unknown target label {!r}")
                       for q, cell in enumerate(raw_map)]
            _expect(len(mapping) == nodes[j].size, f"{aptr}/map",
                    "map needs one entry per source element")
            rels.append((j, j2))
            maps.append(build_morphism(nodes[j], tgt, mapping))
        ws.systems[name] = directed_system(nodes, rels, maps)
    for name, raw in _entries(doc, "diagrams"):
        ptr = f"/diagrams/{name}"
        kind = raw.get("kind", "sequence")
        arrows = raw.get("arrows")
        _expect(isinstance(arrows, list) and arrows, f"{ptr}/arrows",
                "arrows must be a nonempty array of morphism names")
        for k, an in enumerate(arrows):
            _resolve(ws.morphisms, an, f"{ptr}/arrows/{k}", "unknown morphism {!r}")
        ws.diagrams[name] = Diagram(kind, list(arrows))
    return ws


def parse_workspace(path: str) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError("/", f"no such file: {path}")
    except OSError as exc:
        raise SchemaError("/", f"cannot read {path}: {type(exc).__name__}")
    except UnicodeDecodeError as exc:
        raise SchemaError("/", f"not UTF-8: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"not valid JSON: {exc}")
    except RecursionError:
        raise SchemaError("/", "JSON nested too deeply to decode")
    return parse_workspace_dict(doc)


def _emit_semiring(S: Semiring) -> dict:
    lab = S.labels
    return {
        "elements": list(lab),
        "add": [[lab[v] for v in row] for row in S.add],
        "mul": [[lab[v] for v in row] for row in S.mul],
        "zero": lab[S.zero],
        "one": lab[S.one],
    }


def _emit_semimodule(name_of_semiring, M: Semimodule) -> dict:
    lab = M.labels
    out = {
        "semiring": name_of_semiring[M.semiring],
        "side": M.side,
        "elements": list(lab),
        "add": [[lab[v] for v in row] for row in M.add],
        "zero": lab[M.zero],
        "action": [[lab[v] for v in row] for row in M.action],
    }
    if M.second is not None:
        out["second"] = {
            "semiring": name_of_semiring[M.second.semiring],
            "side": M.second.side,
            "action": [[lab[v] for v in row] for row in M.second.table],
        }
    return out


def emit_workspace_dict(ws: Workspace) -> dict:
    # equal semirings are one object (build_semiring), so a semiring declared
    # under several names is emitted under the first of them in name order;
    # a module is emitted under its own name, and an equal module declared
    # under no name under the first of its equal names
    name_of_semiring, first_equal = {}, {}
    for n, S in sorted(ws.semirings.items()):
        name_of_semiring.setdefault(S, n)
    for n, M in sorted(ws.semimodules.items()):
        first_equal.setdefault(M, n)
    declared = {id(M): n for n, M in ws.semimodules.items()}

    def name_of_module(M: Semimodule) -> str:
        return declared.get(id(M), first_equal[M])

    doc = {"format": FORMAT}
    doc["semirings"] = {n: _emit_semiring(S) for n, S in ws.semirings.items()}
    doc["semimodules"] = {n: _emit_semimodule(name_of_semiring, M)
                          for n, M in ws.semimodules.items()}
    doc["morphisms"] = {
        n: {"source": name_of_module(f.source), "target": name_of_module(f.target),
            "map": [f.target.labels[v] for v in f.map]}
        for n, f in ws.morphisms.items()
    }
    doc["systems"] = {}
    for n, sys in ws.systems.items():
        doc["systems"][n] = {
            "nodes": [name_of_module(node) for node in sys.nodes],
            "arrows": [{"from": j, "to": k,
                        "map": [sys.nodes[k].labels[v] for v in f.map]}
                       for (j, k), f in zip(sys.order, sys.maps)],
        }
    doc["diagrams"] = {n: {"kind": d.kind, "arrows": list(d.arrows)}
                       for n, d in ws.diagrams.items()}
    return doc


def emit_workspace(ws: Workspace) -> str:
    return canonical_json(emit_workspace_dict(ws))


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def default_workspace_path() -> str:
    return str(resources.files("semiflat").joinpath("data").joinpath("catalog.json"))


def load_default_workspace() -> Workspace:
    return parse_workspace(default_workspace_path())
