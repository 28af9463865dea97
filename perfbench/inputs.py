"""Seeded inputs of the cli-queries workload.

``make_inputs(catalog_doc, vocabulary, seed)`` returns the workspace
document (the built-in catalog plus extra semimodules built here) and the
query plan.  Only the extras and the plan depend on the seed; both are
pure functions of it, so the same seed gives byte-identical inputs.

The extras are relabelled copies and direct products of catalog modules,
as many as the catalog has semimodules: the workspace of a user who has
added as many modules of their own as the catalog ships.  Both
constructions preserve the semimodule axioms, so every extra parses, and
every CLI call pays for validating all of them at the input boundary.

The plan gives every command the same number of queries, because no
record of real query traffic exists to weight them by.
"""
from __future__ import annotations

import json
import random

MAX_PRODUCT = 16            # the default semimodule size bound

# Every plan holds PER_COMMAND queries of each command plus the four golden
# commands: 124 queries, at least the hundred samples a p90 needs.
COMMANDS = ("tensor", "ttensor", "reflect", "hom", "exact",
            "flat", "inj", "limits", "validate", "catalog")
PER_COMMAND = 12
GOLDEN = (
    ("tensor", "BOOL", "BOOL"),
    ("ttensor", "SAT3", "SAT3"),
    ("exact", "seq1"),
    ("flat", "ZMOD2", "--against", "ZMOD4"),
)


def canonical_json(doc) -> str:
    """The workspace format's canonical text: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _relabelled(rng: random.Random, mod: dict) -> dict:
    n = len(mod["elements"])
    perm = list(range(n))
    rng.shuffle(perm)                        # old index -> new index
    tags = rng.sample(range(1000, 10000), n)
    labels = [f"e{t}" for t in tags]
    old_of = {perm[i]: i for i in range(n)}
    index = {lab: i for i, lab in enumerate(mod["elements"])}

    def image(lab):
        return labels[perm[index[lab]]]

    return {
        "semiring": mod["semiring"],
        "side": mod["side"],
        "elements": labels,
        "zero": image(mod["zero"]),
        "add": [[image(mod["add"][old_of[i]][old_of[j]]) for j in range(n)]
                for i in range(n)],
        "action": [[image(v) for v in mod["action"][old_of[i]]] for i in range(n)],
    }


def _product(a: dict, b: dict) -> dict:
    ia = {lab: i for i, lab in enumerate(a["elements"])}
    ib = {lab: i for i, lab in enumerate(b["elements"])}
    pairs = [(x, y) for x in a["elements"] for y in b["elements"]]

    def label(x, y):
        return f"({x}|{y})"

    return {
        "semiring": a["semiring"],
        "side": a["side"],
        "elements": [label(x, y) for x, y in pairs],
        "zero": label(a["zero"], b["zero"]),
        "add": [[label(a["add"][ia[x]][ia[u]], b["add"][ib[y]][ib[v]])
                 for u, v in pairs] for x, y in pairs],
        "action": [[label(sx, sy) for sx, sy in zip(a["action"][ia[x]], b["action"][ib[y]])]
                   for x, y in pairs],
    }


def make_extras(rng: random.Random, catalog_doc: dict) -> dict:
    modules = catalog_doc["semimodules"]
    plain = sorted(n for n, m in modules.items() if "second" not in m)
    products = sorted(
        (a, b) for a in plain for b in plain
        if modules[a]["semiring"] == modules[b]["semiring"]
        and modules[a]["side"] == modules[b]["side"]
        and 4 <= len(modules[a]["elements"]) * len(modules[b]["elements"]) <= MAX_PRODUCT)
    extras = {}
    for k in range(len(modules)):
        if k % 2 == 0:
            a, b = rng.choice(products)
            mod = _product(modules[a], modules[b])
        else:
            mod = _relabelled(rng, modules[rng.choice(plain)])
        extras[f"EXTRA_{k:02d}"] = mod
    return extras


def make_inputs(catalog_doc: dict, vocabulary: dict, seed: int):
    """Return (workspace text, extras, plan) for ``seed``.

    ``vocabulary`` maps each command to the argument lists whose outputs
    were recorded; the plan draws from it, except ``validate``, which names
    extras, and ``catalog``, whose output is the workspace itself.
    """
    rng = random.Random(seed)
    extras = make_extras(rng, catalog_doc)
    doc = dict(catalog_doc)
    doc["semimodules"] = {**catalog_doc["semimodules"], **extras}
    plan = [list(q) for q in GOLDEN]
    for command in COMMANDS:
        for _ in range(PER_COMMAND):
            if command == "validate":
                names = rng.sample(sorted(extras), rng.randint(1, 3))
                plan.append(["validate", *names])
            elif command == "catalog":
                plan.append(["catalog"])
            else:
                plan.append([command, *rng.choice(vocabulary[command])])
    rng.shuffle(plan)
    return canonical_json(doc), extras, plan


def selftest(catalog_doc: dict, vocabulary: dict, seed: int) -> list[str]:
    """Problems with seeding: one seed must repeat, two seeds must differ."""
    problems = []
    ws1, _, plan1 = make_inputs(catalog_doc, vocabulary, seed)
    ws2, _, plan2 = make_inputs(catalog_doc, vocabulary, seed)
    ws3, _, plan3 = make_inputs(catalog_doc, vocabulary, seed + 1)
    if ws1 != ws2 or json.dumps(plan1) != json.dumps(plan2):
        problems.append(f"seed {seed} does not repeat its inputs")
    if ws1 == ws3:
        problems.append(f"seeds {seed} and {seed + 1} give the same workspace")
    if plan1 == plan3:
        problems.append(f"seeds {seed} and {seed + 1} give the same query plan")
    return problems
