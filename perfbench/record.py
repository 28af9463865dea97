"""Record the outputs the benchmark checks against into expected.json.

    python3 perfbench/record.py

Run it from the repository root, on a commit whose outputs are known to
be right.  It runs every candidate CLI query over the built-in catalog
once, as ``python -m semiflat.cli --workspace W ...`` with W the catalog
plus the extras of seed 0, and keeps every query that answers (exit 0 or
1).  For each it stores the exit code and the SHA-256 of stdout; for
``tensor`` it also stores the size from the ``--dense`` presentation, the
independent oracle the benchmark compares against.  A ``tensor`` query
whose dense presentation is refused has no oracle and is left out.
It then runs both suite tags once and stores their check counts and
report digests.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import inputs
import run as bench

PAIR_COMMANDS = (("tensor",), ("ttensor",), ("hom",), ("flat", "--against"))


def candidates(catalog: dict) -> list[list[str]]:
    modules = catalog["semimodules"]
    over = {}
    for name in sorted(modules):
        over.setdefault(modules[name]["semiring"], []).append(name)
    queries = []
    for names in over.values():
        for a in names:
            for b in names:
                for command, *flag in PAIR_COMMANDS:
                    queries.append([command, a, *flag, b])
    for name in sorted(modules):
        queries.append(["reflect", name])
        queries.append(["inj", name, "--family", *over[modules[name]["semiring"]]])
    queries += [["exact", d] for d in sorted(catalog["diagrams"])]
    for system in sorted(catalog["systems"]):
        queries += [["limits", system], ["limits", system, "--op", "limit"]]
    return queries


def main() -> int:
    os.makedirs(bench.WORK, exist_ok=True)
    runner = bench.Runner()
    runner.compile_package()
    with open(bench.CATALOG, encoding="utf-8") as fh:
        catalog = json.load(fh)
    doc = dict(catalog)
    doc["semimodules"] = {**catalog["semimodules"],
                          **inputs.make_extras(random.Random(0), catalog)}
    with open(bench.WORKSPACE, "w", encoding="utf-8") as fh:
        fh.write(inputs.canonical_json(doc))
    cli = [sys.executable, "-m", "semiflat.cli", "--workspace", bench.WORKSPACE]
    queries = {}
    for query in candidates(catalog):
        child = runner.run_child(cli + query)
        if child.code not in (0, 1):
            print(f"skip {' '.join(query)}: exit {child.code}")
            continue
        rec = {"exit": child.code, "sha256": hashlib.sha256(child.stdout).hexdigest()}
        if query[0] == "tensor":
            dense = runner.run_child(cli + query + ["--dense"])
            if dense.code != 0:
                print(f"skip {' '.join(query)}: no dense oracle (exit {dense.code})")
                continue
            rec["dense_size"] = json.loads(dense.stdout)["result"]["size"]
        queries[" ".join(query)] = rec
    for golden in inputs.GOLDEN:
        if " ".join(golden) not in queries:
            raise SystemExit(f"golden command {' '.join(golden)} was not recorded")
    suites = {}
    for tag in ("exactness", "implication-lattice"):
        child = runner.run_child([sys.executable, bench.CHILD, "suite", tag])
        unit = child.last_json()
        if unit is None or not all(r["passed"] for r in unit["results"]):
            raise SystemExit(f"suite tag {tag} did not pass: {child.stderr[-500:]!r}")
        suites[tag] = {"checks": unit["results"][0]["checks"], "digest": unit["digest"]}
        if "lattice" in unit:
            suites[tag]["lattice"] = unit["lattice"]
    with open(bench.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"queries": queries, "suites": suites}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(queries)} queries and {len(suites)} suite tags")
    return 0


if __name__ == "__main__":
    sys.exit(main())
