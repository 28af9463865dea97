"""One workload child: a fresh interpreter that imports semiflat from src.

    child.py ready suite|cli [WORKSPACE]   import, load inputs, stop before timing
    child.py suite TAG [--trace]           run one suite tag, print one JSON line
    child.py cli TRACE_OUT ARG...          run one traced CLI query

The suite mode prints its timings, results and digests as one JSON line.
The cli mode is the traced twin of ``python -m semiflat.cli ARG...``: its
stdout and exit code are the CLI's own, and the layer metrics go to
TRACE_OUT.  Untraced CLI queries do not pass through this file.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_origin(src: str) -> None:
    import semiflat
    expected = os.path.join(os.path.realpath(src), "semiflat", "__init__.py")
    if os.path.realpath(semiflat.__file__) != expected:
        raise SystemExit(f"semiflat imported from {semiflat.__file__}, not {expected}")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def make_tracer():
    from tracer import Tracer  # this file's directory leads sys.path
    tracer = Tracer()
    tracer.install()
    return tracer


def lattice_summary(reports) -> dict:
    rows = []
    violations = []
    for rep in reports:
        violations.extend(rep["lattice_violations"])
        rows.extend([r.semiring_index, r.module_index, r.size, r.mono_flat,
                     r.i_uniform_class, r.uniformly_flat, r.certified_flat,
                     r.witness] for r in rep["records"])
    return {"records": len(rows), "violations": len(violations),
            "digest": digest(rows)}


def run_suite(src: str, tag: str, traced: bool) -> None:
    import semiflat.suite
    check_origin(src)
    tracer = make_tracer() if traced else None
    # The implication-lattice tag keeps its search reports to itself; keep a
    # reference to each so that their records can be checked.
    reports = []
    search = semiflat.suite.search_counterexamples

    def keep_report(config):
        rep = search(config)
        reports.append(rep)
        return rep

    semiflat.suite.search_counterexamples = keep_report
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    results = semiflat.suite.run_suites({tag})
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": [{"tag": r.tag, "passed": r.passed, "checks": r.checks,
                     "detail": r.detail} for r in results],
    }
    out["digest"] = digest(out["results"])
    if reports:
        out["lattice"] = lattice_summary(reports)
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out, sort_keys=True))


def run_ready(src: str, kind: str, workspace: str | None) -> None:
    if kind == "suite":
        import semiflat.suite  # noqa: F401
    else:
        import semiflat.cli  # noqa: F401
        from semiflat.workspace import parse_workspace
        parse_workspace(workspace)
    check_origin(src)
    print(json.dumps({"ready": time.monotonic()}))


def run_cli(src: str, trace_out: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import semiflat.cli
    import_s = time.perf_counter() - t0
    check_origin(src)
    tracer = make_tracer()
    try:
        return semiflat.cli.main(argv)
    finally:
        layers = tracer.metrics()
        layers["cli.import_s"] = import_s
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(layers, fh, sort_keys=True)


def main(argv: list[str]) -> int:
    src = os.environ["PERFBENCH_SRC"]
    mode = argv[0]
    if mode == "ready":
        run_ready(src, argv[1], argv[2] if len(argv) > 2 else None)
    elif mode == "suite":
        run_suite(src, argv[1], "--trace" in argv[2:])
    elif mode == "cli":
        return run_cli(src, argv[1], argv[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
