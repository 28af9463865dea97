from __future__ import annotations

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from semiflat import homology, suite
from semiflat.catalog import bool_semiring, semiring_module, suite_semirings
from semiflat.homology import hom_module, morphism_profile, retract_pairs
from semiflat.errors import AxiomViolation
from semiflat.structures import build_morphism, build_semimodule, build_semiring, compose
from semiflat.suite import (_componentwise_items, _hom_functor_items,
                            _padded_sequence_items, _pool_modules,
                            _retract_square_items, _stage_rows,
                            _tensor_functor_items, _two_row_diagram_items)
from two_row_oracle import verify_two_row_diagram


def _pairwise_chase(rows) -> dict[str, int]:
    """The two-row chase that tests every pair of verticals for commutation.

    Each commuting diagram it finds is judged by ``verify_two_row_diagram``,
    which re-checks both squares and evaluates the case on that diagram.
    """
    checks = {"1a": 0, "1b": 0, "2b": 0}
    quasi_rows = [(f, g, st) for f, g, st in rows if st.quasi_exact]
    semi_rows = [(f, g, st) for f, g, st in rows if st.semi_exact]
    chain_rows_surj = [(f, g) for f, g, st in rows
                       if st.chain_step and g.surjective]
    surj_rows = [(f, g) for f, g, st in rows if g.surjective]

    def derive_third(g1, g2, a2):
        out = [None] * g1.target.size
        for m in range(g1.source.size):
            n = g1.map[m]
            v = g2.map[a2.map[m]]
            if out[n] is None:
                out[n] = v
            elif out[n] != v:
                return None
        H3 = hom_module(g1.target, g2.target)
        return H3.maps[H3.index_of(out)]

    for f2, g2, st2 in quasi_rows:
        for f1, g1 in chain_rows_surj:
            for a1 in hom_module(f1.source, f2.source).surjective_maps:
                for a2 in (m for m in hom_module(g1.source, g2.source).maps if m.injective):
                    if any(f2.map[a1.map[x]] != a2.map[f1.map[x]]
                           for x in range(f1.source.size)):
                        continue
                    a3 = derive_third(g1, g2, a2)
                    if a3 is None:
                        continue
                    rep = verify_two_row_diagram(f1, g1, f2, g2, a1, a2, a3)
                    assert rep.case_1a is True
                    checks["1a"] += 1
    for f2, g2, st2 in quasi_rows:
        for f1, g1 in surj_rows:
            for a1 in hom_module(f1.source, f2.source).surjective_maps:
                for a2 in hom_module(g1.source, g2.source).maps:
                    if any(f2.map[a1.map[x]] != a2.map[f1.map[x]]
                           for x in range(f1.source.size)):
                        continue
                    a3 = derive_third(g1, g2, a2)
                    if a3 is None or not a3.surjective:
                        continue
                    rep = verify_two_row_diagram(f1, g1, f2, g2, a1, a2, a3)
                    assert rep.case_1b is True
                    checks["1b"] += 1
    chain2 = [(f2, g2, st2) for f2, g2, st2 in rows
              if f2.injective and st2.chain_step]
    for f1, g1, st1 in semi_rows:
        for f2, g2, st2 in chain2:
            f2_pos = {v: i for i, v in enumerate(f2.map)}
            for a2 in hom_module(g1.source, g2.source).surjective_maps:
                for a3 in hom_module(g1.target, g2.target).maps:
                    if any(a3.map[x] == a3.target.zero
                           for x in range(a3.source.size) if x != a3.source.zero):
                        continue
                    if any(a3.map[g1.map[m]] != g2.map[a2.map[m]]
                           for m in range(g1.source.size)):
                        continue
                    if any(a2.map[f1.map[l]] not in f2_pos
                           for l in range(f1.source.size)):
                        continue
                    H1 = hom_module(f1.source, f2.source)
                    a1 = H1.maps[H1.index_of([f2_pos[a2.map[f1.map[l]]]
                                              for l in range(f1.source.size)])]
                    rep = verify_two_row_diagram(f1, g1, f2, g2, a1, a2, a3)
                    assert rep.case_2b is True
                    checks["2b"] += 1
    return checks


# the pairwise scan of the two larger pools takes about 5 s each, so those
# take every third row; the 195-row pool runs in full
@pytest.mark.parametrize("index, stride", [(0, 3), (1, 1), (2, 3)])
def test_two_row_chase_matches_pairwise_scan(index, stride):
    S = suite_semirings()[index]
    pool = _pool_modules(S)
    rows = _stage_rows(pool)[::stride]
    got = _two_row_diagram_items(rows)
    want = _pairwise_chase(rows)
    assert got == want
    assert all(want.values())


# rows, padded, hom functor, tensor functor, componentwise, retract, chase;
# they sum to the exactness tag's 101,359 checks
EXACTNESS_COUNTS = [
    (1377, 6885, 2776, 1388, 3915, 901, {"1a": 2604, "1b": 13676, "2b": 16716}),
    (195, 975, 1040, 520, 864, 191, {"1a": 644, "1b": 934, "2b": 1454}),
    (843, 4215, 3696, 1848, 2646, 795, {"1a": 8518, "1b": 15640, "2b": 8518}),
]


@pytest.mark.parametrize("index", [0, 1, 2], ids=["BOOL", "SAT3", "ZMOD4"])
def test_exactness_counts_per_helper(index):
    # a change that moves checks from one helper to another fails here, not
    # only one that changes the tag's total
    S = suite_semirings()[index]
    pool = _pool_modules(S)
    rows = _stage_rows(pool)
    got = (len(rows), _padded_sequence_items(S, rows), _hom_functor_items(S, rows, pool),
           _tensor_functor_items(S, rows, pool), _componentwise_items(S, pool),
           _retract_square_items(S, pool), _two_row_diagram_items(rows))
    assert got == EXACTNESS_COUNTS[index]


# (probe, derive_third) calls of the chase per pool; case 1a probed its own
# injective a2 once per (f1, target of f2) before it read case 1b's sums,
# which made 11,907, 2,187 and 7,203 probes
CHASE_CALLS = [(7938, 3130), (1458, 436), (4802, 4340)]


@pytest.mark.parametrize("index", [0, 1, 2], ids=["BOOL", "SAT3", "ZMOD4"])
def test_two_row_chase_matches_each_group_pair_once(index):
    rows = _stage_rows(_pool_modules(suite_semirings()[index]))
    calls = {"probe": 0, "derive_third": 0}

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == suite.__file__ and code.co_name in calls:
            calls[code.co_name] += 1

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        got = _two_row_diagram_items(rows)
    finally:
        sys.setprofile(outer)
    assert got == EXACTNESS_COUNTS[index][6]
    assert (calls["probe"], calls["derive_third"]) == CHASE_CALLS[index]


def _pairwise_retract_squares(pool) -> int:
    """The retract squares found by trying every gamma~ in Hom(N, N2).

    The retract pairs are the first four of ``retract_pairs`` on each side,
    as in the exactness tag.  Both squares are checked by composing, and on
    each square that commutes uniformity must descend from gamma to gamma~.
    """
    pairs = {(N, M): list(itertools.islice(retract_pairs(N, M), 4))
             for N in pool for M in pool}
    squares = 0
    for (M, M2) in itertools.product(pool, repeat=2):
        for gamma in hom_module(M, M2).maps:
            hyp = morphism_profile(gamma)
            for (N, N2) in itertools.product(pool, repeat=2):
                for (iota, pi), (iota2, pi2) in itertools.product(pairs[(N, M)],
                                                                  pairs[(N2, M2)]):
                    top, bottom = compose(gamma, iota).map, compose(pi2, gamma).map
                    for gamma_t in hom_module(N, N2).maps:
                        if (compose(iota2, gamma_t).map != top
                                or compose(gamma_t, pi).map != bottom):
                            continue
                        con = morphism_profile(gamma_t)
                        assert con.k_uniform or not hyp.k_uniform
                        assert con.i_uniform or not hyp.i_uniform
                        squares += 1
    return squares


@pytest.mark.parametrize("index", [0, 1, 2], ids=["BOOL", "SAT3", "ZMOD4"])
def test_retract_squares_match_pairwise_scan(index):
    # the tag reads gamma~ off pi2.gamma.iota and compares tables; the scan
    # tries every map between the retracts instead
    pool = _pool_modules(suite_semirings()[index])
    assert _pairwise_retract_squares(pool) == EXACTNESS_COUNTS[index][5]


def _recording(monkeypatch, name):
    # the arguments of every call the suite items make to ``name``
    calls = []
    real = getattr(suite, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(suite, name, wrapper)
    return calls


def test_exactness_items_call_once_per_distinct_input(monkeypatch):
    # the padded-sequence and tensor-functor items keep call-local memos,
    # so a cokernel, a padded stage, a mirrored map and a tensored map are
    # each made once per distinct input; the counts are taken at the suite's
    # call sites, so they do not depend on what the package caches already
    # hold
    S = suite_semirings()[0]
    pool = _pool_modules(S)
    rows = _stage_rows(pool)
    names = ("tensor_morphisms", "cokernel", "as_left_morphism", "classify_stage")
    calls = {name: _recording(monkeypatch, name) for name in names}
    _padded_sequence_items(S, rows)
    # the tensor-functor items classify stages of their own
    calls["classify_stage"] = list(calls["classify_stage"])
    _tensor_functor_items(S, rows, pool)
    got = {name: (len(args), len(set(args))) for name, args in calls.items()}
    # (calls, distinct inputs); before the memos the calls were 1,460,
    # 1,444, 1,460 and 2,754 (two padded stages per row).  The stages are
    # made once per f and once per g: the pool holds the trivial module T,
    # so each T -> A -> T is both the left stage of A -> T and the right
    # stage of T -> A, and 126 calls see 122 distinct inputs
    assert got == {"tensor_morphisms": (252, 252), "cokernel": (63, 63),
                   "as_left_morphism": (63, 63), "classify_stage": (126, 122)}


def test_retract_squares_profile_each_gamma_tilde_table_once(monkeypatch):
    # the squares that share a gamma~ table share one gamma~ object, so its
    # profile, kept on the object, is computed once per table
    S = suite_semirings()[0]
    pool = _pool_modules(S)
    profiles = _recording(monkeypatch, "morphism_profile")
    profiled = []
    body = homology._profile

    def recorded(f):
        profiled.append(f)
        return body(f)

    monkeypatch.setattr(homology, "_profile", recorded)
    assert _retract_square_items(S, pool) == 901
    # each square profiles gamma, then gamma~
    assert len(profiles) == 2 * 901
    gamma_tildes = [args[0] for args in profiles[1::2]]
    objects = {id(g): g for g in gamma_tildes}
    tables = {(id(g.source), id(g.target), g.map) for g in gamma_tildes}
    assert len(gamma_tildes) == 901 and len(objects) == len(tables) == 63
    assert sorted(id(f) for f in profiled if id(f) in objects) == sorted(objects)


_COUNT_PROFILES = """
from semiflat import homology
from semiflat.suite import run_suites
computed = [0]
body = homology._profile
def counted(f):
    computed[0] += 1
    return body(f)
homology._profile = counted
(result,) = run_suites({"exactness"})
print(result.checks, computed[0])
"""


def test_exactness_profile_computations():
    # a fresh interpreter, so no earlier test has profiled the maps the tag
    # shares with them; the process-wide cache this replaced computed 8,031
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", _COUNT_PROFILES], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    assert out == ["101359", "9295"]


_COUNT_STAGES = """
from semiflat import suite
calls = [0]
classify = suite.classify_stage
def counted(f, g):
    calls[0] += 1
    return classify(f, g)
suite.classify_stage = counted
(result,) = suite.run_suites({"exactness"})
print(result.checks, calls[0])
"""


def test_exactness_stage_classifications():
    # a fresh interpreter, as for the profiles.  The padded stages are
    # classified once per map, not once per row: the tag made 9,345 calls
    # when each row classified both of its padded stages
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", _COUNT_STAGES], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    assert out == ["101359", "4793"]


_COUNT_PRESENTATIONS = """
from semiflat.homology import hom_maps
from semiflat.suite import run_suites
from semiflat.tensor import tensor_product
(result,) = run_suites({"implication-lattice"})
print(result.checks, tensor_product.cache_info().misses, hom_maps.cache_info().misses)
"""


def test_lattice_tensors_each_isomorphism_class_once():
    # a fresh interpreter, so every presentation the tag needs is built here;
    # before the flatness scan tensored class representatives it built 164.
    # The hom sets are counted too, so a change that enumerates them again
    # shows here and not only as time
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", _COUNT_PRESENTATIONS], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    assert out == ["13", "45", "36"]


# every axiom the validators report and the axiom tag re-checks
AXIOMS = {
    "add-identity", "add-commutative", "add-associative", "mul-identity",
    "mul-associative", "left-distributive", "right-distributive", "zero-absorbing",
    "one-neq-zero", "action-associative", "action-add-distributive",
    "action-scalar-distributive", "action-unit", "action-scalar-zero",
    "action-zero-element", "map-zero", "map-additive", "map-linear"}


def test_axiom_fixtures_reach_every_witness_check():
    # the axiom tag re-checks every reported witness; together the fixtures
    # report every axiom that _witness_breaks_axiom evaluates
    reported = set()
    for name, labels, add, mul, zero, one, axiom in suite._invalid_semiring_fixtures():
        with pytest.raises(AxiomViolation) as info:
            build_semiring(labels, add, mul, zero, one)
        reported |= {v.axiom for v in info.value.violations}
    for name, S, side, labels, add, zero, action, axiom in suite._invalid_module_fixtures():
        with pytest.raises(AxiomViolation) as info:
            build_semimodule(S, side, labels, add, zero, action)
        reported |= {v.axiom for v in info.value.violations}
    for name, source, target, mapping, axiom in suite._invalid_morphism_fixtures():
        with pytest.raises(AxiomViolation) as info:
            build_morphism(source, target, mapping)
        reported |= {v.axiom for v in info.value.violations}
    assert reported == AXIOMS


def test_witness_check_rejects_a_witness_that_breaks_nothing():
    # over valid tables no witness breaks its axiom, so each re-check must
    # say so; an axiom the re-check does not know fails too
    B = bool_semiring()
    Bm = semiring_module(B)
    witnesses = {
        "add-identity": (0, 1), "add-commutative": (0, 1), "add-associative": (1, 0, 1),
        "mul-identity": (1, 0), "mul-associative": (1, 1, 0),
        "left-distributive": (1, 0, 1), "right-distributive": (0, 1, 1),
        "zero-absorbing": (0, 1), "one-neq-zero": (0,), "action-associative": (1, 1, 1),
        "action-add-distributive": (0, 1, 1), "action-scalar-distributive": (1, 0, 1),
        "action-unit": (1, 1), "action-scalar-zero": (1, 0), "action-zero-element": (0, 1),
        "map-zero": (0,), "map-additive": (0, 1), "map-linear": (1, 1)}
    assert set(witnesses) == AXIOMS
    for axiom, witness in {**witnesses, "actions-commute": (1, 1, 1)}.items():
        assert not suite._witness_breaks_axiom(axiom, witness, Bm.add, mul=B.mul,
                                               action=Bm.action, S=B, zero=B.zero, one=B.one,
                                               mapping=(0, 1), target=Bm), axiom


def _column_module():
    """B^2 as column vectors under the 2 x 2 Boolean matrices, acting on the left.

    A matrix (a, b, c, d) is [[a, b], [c, d]]; it is a noncommutative
    semiring, so (s t) x and (t s) x differ and the side of the action
    decides which one action-associativity compares.
    """
    mats = list(itertools.product((0, 1), repeat=4))
    vecs = list(itertools.product((0, 1), repeat=2))
    mpos = {m: i for i, m in enumerate(mats)}
    vpos = {v: i for i, v in enumerate(vecs)}

    def mul(m, n):
        return tuple(max(m[2 * i] & n[j], m[2 * i + 1] & n[2 + j])
                     for i in (0, 1) for j in (0, 1))

    def apply(m, v):
        return tuple(max(m[2 * i] & v[0], m[2 * i + 1] & v[1]) for i in (0, 1))

    S = build_semiring([str(m) for m in mats],
                       [[mpos[tuple(map(max, m, n))] for n in mats] for m in mats],
                       [[mpos[mul(m, n)] for n in mats] for m in mats],
                       mpos[(0, 0, 0, 0)], mpos[(1, 0, 0, 1)])
    add = [[vpos[tuple(map(max, v, w))] for w in vecs] for v in vecs]
    action = [[vpos[apply(m, v)] for m in mats] for v in vecs]
    return S, add, action


def test_action_witness_check_reads_the_side_of_a_left_module():
    # over a noncommutative semiring a valid left module has no broken
    # action-associative triple when t (s x) is compared with (t s) x;
    # compared with (s t) x, 356 of the 1,024 triples would look broken
    S, add, action = _column_module()
    M = build_semimodule(S, "left", ["00", "01", "10", "11"], add, 0, action)
    triples = list(itertools.product(range(M.size), range(S.size), range(S.size)))
    assert len(triples) == 1024
    assert not any(suite._witness_breaks_axiom("action-associative", w, M.add,
                                               action=M.action, S=S, side="left")
                   for w in triples)
    assert sum(suite._witness_breaks_axiom("action-associative", w, M.add,
                                           action=M.action, S=S, side="right")
               for w in triples) == 356
    # a mutated left action, [[1, 1], [0, 1]] (0, 1) = (0, 1) where (1, 1) is
    # right: its witnesses re-check as broken on its side, and on the other
    # side none of them would
    mutated = [list(row) for row in action]
    mutated[1][13] = 1
    with pytest.raises(AxiomViolation) as info:
        build_semimodule(S, "left", M.labels, add, 0, mutated)
    found = [v.witness for v in info.value.violations if v.axiom == "action-associative"]
    assert len(found) == 3
    for side, broken in (("left", True), ("right", False)):
        assert all(suite._witness_breaks_axiom("action-associative", w, add, action=mutated,
                                               S=S, side=side) == broken for w in found)
