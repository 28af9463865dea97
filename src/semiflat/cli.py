"""Command line interface.

Every subcommand resolves its objects inside a workspace document, runs
one library operation, and prints a canonical JSON report (stable key
order, UTF-8).  Exit codes: 0 success, 1 a boolean query answered no,
2 any error.  Timing never enters the JSON report, so identical inputs
produce identical bytes.
"""
from __future__ import annotations

import argparse
import sys

from .congruence import cancellative_reflection
from .errors import InvalidArgument, SemiflatError, TimeBudgetExceeded, UnknownObject
from .flatness import SearchConfig, is_uniformly_M_flat, is_uniformly_flat, search_counterexamples
from .homology import classify_sequence, hom_module, uniformly_injective_rel
from .limits import directed_colimit, inverse_limit, inverse_system
from .structures import as_left, as_right
from .suite import ALL_SUITES, run_suites
from .tensor import cancellative_tensor, relation_count, tensor_product
from .workspace import (Workspace, canonical_json, emit_workspace,
                        load_default_workspace, parse_workspace)


def _inline(value) -> str:
    """A list as one bracketed line, so the items of a nested list stay together."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_inline, value)) + "]"
    return str(value)


def _render_pretty(doc, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, dict):
                lines.append(_render_pretty(value, indent))
            else:
                lines.append(f"{pad}- {_inline(value)}")
    else:
        lines.append(f"{pad}{doc}")
    return "\n".join(lines)


def _report(args, payload: dict, command: str) -> None:
    doc = {"format": 1, "command": command, **payload}
    if getattr(args, "pretty", False):
        sys.stdout.write(_render_pretty(doc) + "\n")
    else:
        sys.stdout.write(canonical_json(doc))


def _module_pair(ws: Workspace, left_name: str, right_name: str):
    M = as_right(ws.semimodule(left_name))
    N = as_left(ws.semimodule(right_name))
    return M, N


def _distinct(names, option: str):
    """names, unless one of them is listed twice: InvalidArgument."""
    for i, name in enumerate(names or ()):
        if name in names[:i]:
            raise InvalidArgument(f"{option} lists {name!r} twice")
    return names


def _labels_of(module, values):
    return [module.labels[v] for v in values]


def cmd_validate(ws, args) -> int:
    names = args.names or (list(ws.semirings) + list(ws.semimodules)
                           + list(ws.morphisms) + list(ws.systems))
    found = {}
    for name in names:
        if name in ws.semirings:
            found[name] = {"kind": "semiring", "size": ws.semirings[name].size}
        elif name in ws.semimodules:
            M = ws.semimodules[name]
            found[name] = {"kind": "semimodule", "size": M.size, "side": M.side,
                           "semiring_size": M.semiring.size}
        elif name in ws.morphisms:
            f = ws.morphisms[name]
            found[name] = {"kind": "morphism", "injective": f.injective,
                           "surjective": f.surjective}
        elif name in ws.systems:
            found[name] = {"kind": "system", "nodes": len(ws.systems[name].nodes)}
        else:
            raise UnknownObject(f"no object named {name!r}")
    _report(args, {"objects": found, "valid": True}, "validate")
    return 0


def cmd_tensor(ws, args) -> int:
    M, N = _module_pair(ws, args.left, args.right)
    pres = tensor_product(M, N, dense=args.dense)
    payload = {
        "inputs": {"left": args.left, "right": args.right, "dense": args.dense},
        "result": {
            "size": pres.module.size,
            "generator_pairs": [[M.labels[g], N.labels[h]]
                                for g in pres.left_gens for h in pres.right_gens],
            "box_dimensions": list(pres.radices),
            "box_size": pres.box_size,
            "relation_count": relation_count(pres),
            "class_count": pres.module.size,
            "elements": list(pres.module.labels),
            "pairing": [[pres.module.labels[pres.tau[m][n]] for n in range(N.size)]
                        for m in range(M.size)],
        },
    }
    _report(args, payload, "tensor")
    return 0


def cmd_ttensor(ws, args) -> int:
    M, N = _module_pair(ws, args.left, args.right)
    ct = cancellative_tensor(M, N)
    payload = {
        "inputs": {"left": args.left, "right": args.right},
        "result": {
            "tensor_size": ct.presentation.module.size,
            "reflected_size": ct.module.size,
            "elements": list(ct.module.labels),
            "pairing": [[ct.module.labels[ct.tau[m][n]] for n in range(N.size)]
                        for m in range(M.size)],
        },
    }
    _report(args, payload, "ttensor")
    return 0


def cmd_reflect(ws, args) -> int:
    M = ws.semimodule(args.module)
    C, cmap = cancellative_reflection(M)
    payload = {
        "inputs": {"module": args.module},
        "result": {"size": C.size, "elements": list(C.labels),
                   "projection": _labels_of(C, cmap.map)},
    }
    _report(args, payload, "reflect")
    return 0


def cmd_hom(ws, args) -> int:
    M = ws.semimodule(args.source)
    N = ws.semimodule(args.target)
    H = hom_module(M, N)
    payload = {
        "inputs": {"source": args.source, "target": args.target},
        "result": {"size": len(H.maps),
                   "maps": [_labels_of(N, m.map) for m in H.maps]},
    }
    _report(args, payload, "hom")
    return 0


def cmd_exact(ws, args) -> int:
    if args.diagram not in ws.diagrams:
        raise UnknownObject(f"no diagram named {args.diagram!r}")
    diagram = ws.diagrams[args.diagram]
    morphisms = [ws.morphism(n) for n in diagram.arrows]
    report = classify_sequence(morphisms)
    stages = []
    for st in report.stages:
        stages.append({
            "chain_step": st.chain_step,
            "proper_exact": st.proper_exact,
            "semi_exact": st.semi_exact,
            "quasi_exact": st.quasi_exact,
            "exact": st.exact,
        })
    payload = {
        "inputs": {"diagram": args.diagram, "arrows": list(diagram.arrows)},
        "result": {"stages": stages, "exact": report.exact},
    }
    _report(args, payload, "exact")
    return 0 if report.exact else 1


def cmd_flat(ws, args) -> int:
    F = as_right(ws.semimodule(args.module))
    if args.against:
        M = as_right(ws.semimodule(args.against))
        verdict = is_uniformly_M_flat(F, M)
        witness = None
        if verdict.witness:
            witness = {"subsemimodule": _labels_of(M, verdict.witness[0]),
                       "kind": verdict.witness[1]}
        payload = {
            "inputs": {"module": args.module, "against": args.against},
            "result": {"uniformly_flat": verdict.holds, "witness": witness},
        }
        _report(args, payload, "flat")
        return 0 if verdict.holds else 1
    names = _distinct(args.universe, "--universe") or [
        n for n, M in ws.semimodules.items() if M.semiring == F.semiring]
    universe = tuple(as_right(ws.semimodule(n)) for n in sorted(names))
    verdict = is_uniformly_flat(F, universe)
    witness = None
    if verdict.witness:
        idx = verdict.witness[0]
        M = universe[idx]
        witness = {"test_module": sorted(names)[idx],
                   "subsemimodule": _labels_of(M, verdict.witness[1]),
                   "kind": verdict.witness[2]}
    payload = {
        "inputs": {"module": args.module, "universe": sorted(names)},
        "result": {"uniformly_flat": verdict.holds, "witness": witness,
                   "relative": True},
    }
    _report(args, payload, "flat")
    return 0 if verdict.holds else 1


def cmd_inj(ws, args) -> int:
    Q = ws.semimodule(args.module)
    names = _distinct(args.family, "--family") or [
        n for n, M in ws.semimodules.items() if M.semiring == Q.semiring and M.side == Q.side]
    family = [ws.semimodule(n) for n in sorted(names)]
    report = uniformly_injective_rel(Q, family)
    entries = [{"module": sorted(names)[e.module_index],
                "subsemimodule": _labels_of(family[e.module_index], e.sub_members),
                "surjective": e.surjective, "uniform": e.uniform}
               for e in report.entries]
    payload = {
        "inputs": {"module": args.module, "family": sorted(names)},
        "result": {"uniformly_injective": report.holds, "entries": entries},
    }
    _report(args, payload, "inj")
    return 0 if report.holds else 1


def cmd_limits(ws, args) -> int:
    if args.system not in ws.systems:
        raise UnknownObject(f"no system named {args.system!r}")
    sys_ = ws.systems[args.system]
    if args.op == "colimit":
        colim = directed_colimit(sys_)
        payload = {
            "inputs": {"system": args.system, "op": "colimit"},
            "result": {"size": colim.module.size,
                       "elements": list(colim.module.labels),
                       "maximum_node": sys_.maximum,
                       "legs": [_labels_of(colim.module, leg.map) for leg in colim.legs]},
        }
        _report(args, payload, "limits")
        return 0
    inv = inverse_system(list(sys_.nodes), [(k, j) for j, k in sys_.order],
                         list(sys_.maps))
    L, projections = inverse_limit(inv)
    payload = {
        "inputs": {"system": args.system, "op": "limit"},
        "result": {"size": L.size, "elements": list(L.labels),
                   "projections": [_labels_of(p.target, p.map) for p in projections]},
    }
    _report(args, payload, "limits")
    return 0


def cmd_search(ws, args) -> int:
    from .catalog import bool_semiring, sat_semiring, zmod_semiring
    named = {"BOOL": bool_semiring(), "SAT3": sat_semiring(3),
             "ZMOD2": zmod_semiring(2), "ZMOD4": zmod_semiring(4)}
    semirings = []
    for name in _distinct(args.semirings, "--semirings") or ["BOOL"]:
        if name in named:
            semirings.append(named[name])
        elif name in ws.semirings:
            semirings.append(ws.semirings[name])
        else:
            raise UnknownObject(f"no semiring named {name!r}")
    cfg = SearchConfig(tuple(semirings), max_size=args.max_size,
                       budget_seconds=args.budget, out_path=args.out)
    inputs = {"semirings": args.semirings or ["BOOL"], "max_size": args.max_size}
    try:
        report = search_counterexamples(cfg)
    except TimeBudgetExceeded as exc:
        # the modules classified before the budget ran out are still answers
        _report(args, {"inputs": inputs, "error": type(exc).__name__,
                       "detail": str(exc),
                       "result": {**_search_result(exc.partial), "partial": True}},
                "search")
        return 2
    _report(args, {"inputs": inputs, "result": _search_result(report)}, "search")
    return 0 if not report["lattice_violations"] else 1


def _search_result(report: dict) -> dict:
    return {
        "classified": len(report["records"]),
        "uniformly_flat_not_certified": report["uniformly_flat_not_certified"],
        "lattice_violations": report["lattice_violations"],
    }


def cmd_catalog(ws, args) -> int:
    sys.stdout.write(emit_workspace(ws))
    return 0


def cmd_suite(ws, args) -> int:
    only = set(args.only.split(",")) if args.only is not None else None
    known = {tag for tag, _ in ALL_SUITES}
    if only is not None and not only <= known:
        raise UnknownObject(f"unknown suite tags: {sorted(only - known)}")
    results = run_suites(only)
    if getattr(args, "pretty", False):
        for r in results:
            sys.stdout.write(r.line() + "\n")
    else:
        payload = {"results": [{"tag": r.tag, "passed": r.passed,
                                "checks": r.checks, "detail": r.detail}
                               for r in results]}
        _report(args, payload, "suite")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--workspace", default=argparse.SUPPRESS,
                        help="workspace JSON (defaults to the built-in catalog)")
    shared.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS,
                        help="human-readable output instead of canonical JSON")
    parser = argparse.ArgumentParser(
        prog="semiflat", parents=[shared],
        description="Verification workbench for finite semirings and semimodules")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    p = add_parser("validate", help="validate workspace objects")
    p.add_argument("names", nargs="*")
    p.set_defaults(fn=cmd_validate)

    p = add_parser("tensor", help="tensor product presentation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--dense", action="store_true",
                   help="use the dense one-coordinate-per-pair presentation")
    p.set_defaults(fn=cmd_tensor)

    p = add_parser("ttensor", help="cancellative (reflected) tensor product")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_ttensor)

    p = add_parser("reflect", help="cancellative reflection of a module")
    p.add_argument("module")
    p.set_defaults(fn=cmd_reflect)

    p = add_parser("hom", help="enumerate the hom monoid")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(fn=cmd_hom)

    p = add_parser("exact", help="classify a sequence diagram")
    p.add_argument("diagram")
    p.set_defaults(fn=cmd_exact)

    p = add_parser("flat", help="uniform flatness verdicts")
    p.add_argument("module")
    tests = p.add_mutually_exclusive_group()
    tests.add_argument("--against", default=None, help="single test module")
    tests.add_argument("--universe", nargs="+", default=None)
    p.set_defaults(fn=cmd_flat)

    p = add_parser("inj", help="relative uniform injectivity")
    p.add_argument("module")
    p.add_argument("--family", nargs="+", default=None)
    p.set_defaults(fn=cmd_inj)

    p = add_parser("limits", help="directed colimit / inverse limit of a system")
    p.add_argument("system")
    p.add_argument("--op", choices=("colimit", "limit"), default="colimit")
    p.set_defaults(fn=cmd_limits)

    p = add_parser("search", help="classification search over enumerated modules")
    p.add_argument("--semirings", nargs="+", default=None)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--budget", type=float, default=300.0)
    p.add_argument("--out", default=None, help="JSON-lines output path")
    p.set_defaults(fn=cmd_search)

    p = add_parser("catalog", help="emit the loaded workspace canonically")
    p.set_defaults(fn=cmd_catalog)

    p = add_parser("suite", help="run the acceptance property suite")
    p.add_argument("--only", default=None, help="comma-separated suite tags")
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        path = getattr(args, "workspace", None)
        ws = parse_workspace(path) if path else load_default_workspace()
        return args.fn(ws, args)
    except SemiflatError as exc:
        return _report_error(args, type(exc).__name__, str(exc))
    except Exception as exc:  # a bug must not pass for a verdict or a traceback
        return _report_error(args, "InternalError", f"{type(exc).__name__}: {exc}")


def _report_error(args, error: str, detail: str) -> int:
    sys.stdout.write(canonical_json({
        "command": args.command, "error": error, "detail": detail, "format": 1}))
    return 2


if __name__ == "__main__":
    sys.exit(main())
