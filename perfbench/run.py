"""Benchmark of the semiflat workbench, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see README.md beside this
file for why each exists):

    suite-exactness   the ``exactness`` suite tag
    suite-lattice     the ``implication-lattice`` suite tag
    cli-queries       a closed loop of ``python -m semiflat.cli`` queries

Every workload child is a fresh interpreter that imports semiflat from
this tree's ``src`` with a bytecode cache owned by the benchmark, so no
run sees warm ``lru_cache``s.  Set-up is repeated and its median
reported.  Every output is checked against ``expected.json`` (recorded
by ``record.py``) and, for the golden commands, against
``tests/fixtures``.  With ``--trace 1`` the workload runs untraced and
then traced, and the traced run reports per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and a readable summary.  The exit code is 0 when every check
passed, 1 when one failed, and 2 or 3 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PYCACHE = os.path.join(WORK, "pycache")
WORKSPACE = os.path.join(WORK, "workspace.json")
CATALOG = os.path.join(SRC, "semiflat", "data", "catalog.json")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_REPEATS = 5
# The whole run gives up after DEADLINE_BASE_S plus --seconds per timed
# pass (one pass untraced, two traced): 175 s for a traced run of 20 s.
# The base covers the set-ups and the last unit of each pass, which may
# run past --seconds (one exactness tag takes about 40 s).
DEADLINE_BASE_S = 135

WORKLOADS = {
    "suite-exactness": "exactness",
    "suite-lattice": "implication-lattice",
    "cli-queries": None,
}
GOLDEN_FIXTURES = {
    ("tensor", "BOOL", "BOOL"): "tensor_bool.json",
    ("ttensor", "SAT3", "SAT3"): "ttensor_sat3.json",
    ("exact", "seq1"): "exact_seq1.json",
    ("flat", "ZMOD2", "--against", "ZMOD4"): "flat_zmod2.json",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Deadline(Exception):
    pass


def _deadline(signum, frame):
    raise Deadline()


class Child:
    def __init__(self, code, wall, cpu, rss_kb, stdout, stderr):
        self.code = code
        self.wall = wall          # spawn to exit, seconds
        self.cpu = cpu            # user + system seconds
        self.rss_kb = rss_kb
        self.stdout = stdout
        self.stderr = stderr

    def last_json(self):
        lines = self.stdout.decode("utf-8", "replace").strip().splitlines()
        return json.loads(lines[-1]) if self.code == 0 and lines else None


def percentile(values, q: int):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = SRC
    return env


class Runner:
    """Spawns children one at a time and keeps the operation tally."""

    def __init__(self):
        self.env = pinned_env()
        self.current = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_child(self, argv) -> Child:
        out_path = os.path.join(WORK, "child.out")
        err_path = os.path.join(WORK, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            self.current = proc
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.current = None
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, stdout, stderr)

    def stop_current(self) -> None:
        proc = self.current
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()

    def operation(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def compile_package(self) -> None:
        shutil.rmtree(PYCACHE, ignore_errors=True)
        child = self.run_child([sys.executable, "-m", "compileall", "-q",
                                os.path.join(SRC, "semiflat")])
        if child.code != 0:
            raise BenchError(f"compileall failed: {child.stdout!r} {child.stderr!r}")

    def ready(self, *args) -> float:
        child = self.run_child([sys.executable, CHILD, "ready", *args])
        doc = child.last_json()
        if doc is None:
            raise BenchError(f"set-up child failed: {child.stderr.decode(errors='replace')}")
        return doc["ready"]


# ---------------------------------------------------------------------------
# Suite workloads: one fresh child per run of the tag.
# ---------------------------------------------------------------------------

class SuiteWorkload:
    def __init__(self, runner: Runner, tag: str, expected: dict):
        self.runner = runner
        self.tag = tag
        self.expected = expected["suites"][tag]

    def setup(self) -> float:
        t0 = time.monotonic()
        self.runner.compile_package()
        return self.runner.ready("suite") - t0

    def _verify(self, child: Child, unit) -> list:
        if unit is None:
            return [f"child exit {child.code}: {child.stderr.decode(errors='replace')[-500:]}"]
        exp = self.expected
        problems = []
        results = unit["results"]
        if [r["tag"] for r in results] != [self.tag]:
            problems.append(f"ran tags {[r['tag'] for r in results]}")
        elif not results[0]["passed"]:
            problems.append(f"FAIL: {results[0]['detail']}")
        elif results[0]["checks"] != exp["checks"]:
            problems.append(f"checks {results[0]['checks']} != {exp['checks']}")
        if unit["digest"] != exp["digest"]:
            problems.append("suite report digest differs")
        if "lattice" in exp:
            got = unit.get("lattice")
            if got is None or got["violations"]:
                problems.append(f"lattice violations: {got}")
            elif got != exp["lattice"]:
                problems.append(f"lattice records differ: {got} != {exp['lattice']}")
        return problems

    def run(self, seconds: float, traced: bool) -> dict:
        argv = [sys.executable, CHILD, "suite", self.tag] + (["--trace"] if traced else [])
        units = []
        start = time.monotonic()
        while not units or time.monotonic() - start < seconds:
            child = self.runner.run_child(argv)
            unit = child.last_json()
            ok = self.runner.operation(f"{self.tag} run {len(units) + 1}"
                                       f"{' traced' if traced else ''}",
                                       self._verify(child, unit))
            units.append((child, unit if ok else None))
        good = [u for _, u in units if u is not None]
        checks = good[0]["results"][0]["checks"] if len(good) == len(units) else 0
        metrics = {
            "wall_s": statistics.median([u["wall_s"] for u in good]) if good else 0.0,
            "cpu_s": statistics.median([u["cpu_s"] for u in good]) if good else 0.0,
            "peak_rss_mb": max(c.rss_kb for c, _ in units) / 1024,
            "checks": checks,
        }
        latencies = [c.wall * 1000 for c, _ in units]
        metrics["latency_p50_ms"] = percentile(latencies, 50)
        metrics["latency_p90_ms"] = percentile(latencies, 90)
        fingerprint = sorted({json.dumps([u["digest"], u.get("lattice")]) for u in good})
        layers = None
        if traced and good:
            layers = {k: statistics.median([u["layers"][k] for u in good])
                      for k in good[0]["layers"]}
        return {"metrics": metrics, "units": len(units), "fingerprint": fingerprint,
                "layers": layers}


# ---------------------------------------------------------------------------
# CLI workload: a closed loop, one client, one fresh CLI process per query.
# ---------------------------------------------------------------------------

class CliWorkload:
    def __init__(self, runner: Runner, seed: int, expected: dict):
        self.runner = runner
        self.seed = seed
        self.expected = expected["queries"]
        with open(CATALOG, encoding="utf-8") as fh:
            self.catalog = json.load(fh)
        self.vocabulary = vocabulary(self.expected)
        problems = inputs.selftest(self.catalog, self.vocabulary, seed)
        if problems:
            raise BenchError("; ".join(problems))
        self.fixtures = {}
        for query, name in GOLDEN_FIXTURES.items():
            with open(os.path.join(FIXTURES, name), "rb") as fh:
                self.fixtures[query] = fh.read()

    def setup(self) -> float:
        t0 = time.monotonic()
        self.runner.compile_package()
        ws_text, self.extras, self.plan = inputs.make_inputs(
            self.catalog, self.vocabulary, self.seed)
        self.ws_bytes = ws_text.encode("utf-8")
        with open(WORKSPACE, "wb") as fh:
            fh.write(self.ws_bytes)
        return self.runner.ready("cli", WORKSPACE) - t0

    def _expected_validate(self, names) -> bytes:
        objects = {}
        for name in names:
            mod = self.extras[name]
            objects[name] = {
                "kind": "semimodule", "size": len(mod["elements"]), "side": mod["side"],
                "semiring_size": len(self.catalog["semirings"][mod["semiring"]]["elements"]),
            }
        doc = {"command": "validate", "format": 1, "objects": objects, "valid": True}
        return inputs.canonical_json(doc).encode("utf-8")

    def _verify(self, query, child: Child) -> list:
        problems = []
        command = query[0]
        if command == "catalog":
            exp_code, ok = 0, child.stdout == self.ws_bytes
        elif command == "validate":
            exp_code, ok = 0, child.stdout == self._expected_validate(query[1:])
        else:
            rec = self.expected[" ".join(query)]
            exp_code, ok = rec["exit"], hashlib.sha256(child.stdout).hexdigest() == rec["sha256"]
            golden = self.fixtures.get(tuple(query))
            if golden is not None and child.stdout != golden:
                problems.append("differs from its tests/fixtures golden")
            if command == "tensor":
                try:
                    size = json.loads(child.stdout)["result"]["size"]
                except (ValueError, KeyError, TypeError):
                    size = None
                if size != rec["dense_size"]:
                    problems.append(f"size {size} != dense oracle {rec['dense_size']}")
        if child.code != exp_code:
            problems.append(f"exit {child.code} != {exp_code}")
        if not ok:
            problems.append("output differs from the recorded digest")
        return problems

    def run(self, seconds: float, traced: bool) -> dict:
        """Cycle through the plan, at least once, until ``seconds`` have passed."""
        trace_out = os.path.join(WORK, "trace.json")
        if traced:
            argv = [sys.executable, CHILD, "cli", trace_out]
        else:
            argv = [sys.executable, "-m", "semiflat.cli"]
        latencies = []
        wall = cpu = 0.0
        rss_kb = 0
        bad_queries = set()
        layer_rows = []
        start = time.monotonic()
        while len(latencies) < len(self.plan) or time.monotonic() - start < seconds:
            i = len(latencies) % len(self.plan)
            query = self.plan[i]
            child = self.runner.run_child(argv + ["--workspace", WORKSPACE, *query])
            problems = self._verify(query, child)
            if traced and not problems:
                with open(trace_out, encoding="utf-8") as fh:
                    layer_rows.append(json.load(fh))
            if not self.runner.operation(f"query {' '.join(query)!r}"
                                         f"{' traced' if traced else ''}", problems):
                bad_queries.add(i)
            wall += child.wall
            cpu += child.cpu
            rss_kb = max(rss_kb, child.rss_kb)
            latencies.append(child.wall * 1000)
        passes = len(latencies) / len(self.plan)
        metrics = {
            "wall_s": wall / passes,
            "cpu_s": cpu / passes,
            "peak_rss_mb": rss_kb / 1024,
            "checks": len(self.plan) - len(bad_queries),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90),
        }
        layers = None
        if layer_rows:
            layers = {k: statistics.fmean(row[k] for row in layer_rows) for k in layer_rows[0]}
        return {"metrics": metrics, "units": len(latencies),
                "fingerprint": sorted(bad_queries), "layers": layers}


def vocabulary(queries: dict) -> dict:
    """Recorded queries grouped by command: command -> list of argument lists."""
    vocab = {}
    for key in sorted(queries):
        command, *rest = key.split(" ")
        vocab.setdefault(command, []).append(rest)
    return vocab


def load_bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(values: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def run(args, runner: Runner) -> int:
    if not os.path.isfile(os.path.join(SRC, "semiflat", "__init__.py")):
        raise BenchError(f"no semiflat package under {SRC}")
    bench = load_bench()
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    tag = WORKLOADS[args.workload]
    if tag is None:
        workload = CliWorkload(runner, args.seed, expected)
    else:
        workload = SuiteWorkload(runner, tag, expected)
    setups = [workload.setup() for _ in range(SETUP_REPEATS)]
    plain = workload.run(args.seconds, traced=False)
    values = dict(plain["metrics"], setup_s=statistics.median(setups))
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode": "written to PYTHONPYCACHEPREFIX, rebuilt in each set-up",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setups, "units": plain["units"],
    }
    if args.trace:
        traced = workload.run(args.seconds, traced=True)
        if traced["fingerprint"] != plain["fingerprint"] or \
                traced["metrics"]["checks"] != plain["metrics"]["checks"]:
            runner.operation("traced run", ["checks or digests differ from the untraced run"])
        # Without a single traced run that passed its checks there is nothing to
        # report per layer; the failures already make the result incorrect.
        layers = traced["layers"] or {s["name"]: 0.0 for s in bench["per_layer"]}
        layers["trace.overhead_s"] = traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
        metrics = report(layers, bench["per_layer"])
        env["traced_units"] = traced["units"]
    else:
        metrics = report(values, bench["end_to_end"])
    print(json.dumps({"env": env}, sort_keys=True))
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    print(f"failed_share {runner.failed / runner.attempted} "
          f"({runner.failed} of {runner.attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = DEADLINE_BASE_S + math.ceil(args.seconds) * (1 + args.trace)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(deadline)
    runner = Runner()
    try:
        return run(args, runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Deadline:
        print(f"perfbench: gave up after {deadline} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        runner.stop_current()


if __name__ == "__main__":
    sys.exit(main())
