from __future__ import annotations

import ast
import hashlib
import itertools
import pathlib
import random

import pytest

import semiflat
from semiflat import catalog
from semiflat.catalog import (bool_semiring, chain_module, class_representative,
                              cyclic_monoid, enumerate_commutative_monoids,
                              enumerate_semimodules, free_module, sat_quotient,
                              sat_semiring, semiring_bimodule, suite_pool,
                              suite_semirings, zmod_module, zmod_semiring)
from semiflat.congruence import quotient_by_sub
from semiflat.errors import InvalidArgument, MalformedTable
from semiflat.structures import build_semimodule, canonical_form
from semiflat.subsets import enumerate_subsemimodules, module_generators, submodule_of
from semiflat.workspace import load_default_workspace


def _associative(t) -> bool:
    n = len(t)
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def _brute_force_tables(n: int):
    """Commutative monoid tables on 0..n-1 with identity 0, checked on every triple."""
    pairs = [(a, b) for a in range(1, n) for b in range(a, n)]
    for values in itertools.product(range(n), repeat=len(pairs)):
        t = [[a if b == 0 else b if a == 0 else None for b in range(n)] for a in range(n)]
        for (a, b), v in zip(pairs, values):
            t[a][b] = t[b][a] = v
        if _associative(t):
            yield tuple(map(tuple, t))


def _brute_force_monoids(n: int) -> set:
    """The brute-force tables, each as the least relabelling that keeps 0 fixed."""
    perms = [(0,) + p for p in itertools.permutations(range(1, n))]
    return {min(tuple(tuple(p.index(t[p[a]][p[b]]) for b in range(n)) for a in range(n))
                for p in perms)
            for t in _brute_force_tables(n)}


# commutative monoids up to isomorphism, OEIS A058133
@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 5), (4, 19)])
def test_commutative_monoids_up_to_iso(n, count):
    got = enumerate_commutative_monoids(n)
    assert len(got) == count
    assert all(_associative(t) for t in got)
    assert set(got) == _brute_force_monoids(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labelled_monoids_match_brute_force(n):
    # the backtracking fill finds exactly the tables the full scan finds
    got = tuple(sorted(catalog._monoid_tables(n)))
    assert list(got) == sorted(set(got))
    assert set(got) == set(_brute_force_tables(n))


def test_commutative_monoids_of_size_five():
    # 5^10 candidate tables: too many for the brute force, so pin the counts
    labelled = tuple(sorted(catalog._monoid_tables(5)))
    assert len(labelled) == 1486
    assert all(_associative(t) for t in labelled)
    assert len(enumerate_commutative_monoids(5)) == 78     # OEIS A058133


def _bool_free_module(rank):
    return free_module(bool_semiring(), rank)


def _bool_semimodules(n):
    return enumerate_semimodules(bool_semiring(), n)


def _z4_module(d):
    return zmod_module(4, d)


SIZE_CASES = [pytest.param(_bool_free_module, rank, id=repr(rank))
              for rank in [-1, 1.0, 1.5, "2", None, True, False]]
# an enumerated size must also be at least 1, and is checked before the
# cache, so True is refused although the cache already holds size 1
SIZE_CASES += [pytest.param(call, size, id=f"{call.__name__}-{size!r}")
               for call in [enumerate_commutative_monoids, _bool_semimodules]
               for size in [0, -1, 2.0, "3", None, True, False]]
# so is the order d of zmod_module(n, d), which must be a positive int
SIZE_CASES += [pytest.param(_z4_module, d, id=f"zmod_module-{d!r}")
               for d in [0, -1, 2.0, "2", None, True, False]]


@pytest.mark.parametrize("call, rank", SIZE_CASES)
def test_free_module_rank_must_be_a_non_bool_int(call, rank):
    call(1)
    with pytest.raises(InvalidArgument):
        call(rank)


# every integer parameter of the catalog constructors is checked before
# the cache, so a bad value is refused although the good call warmed it
PARAMETER_CASES = [
    (zmod_module, (4, 2), (4.0, 2)), (zmod_module, (4, 2), ("4", 2)),
    (zmod_module, (2, 1), (True, 1)), (zmod_module, (4, 1), (1, 1)),
    (zmod_semiring, (4,), (4.0,)), (zmod_semiring, (2,), (1,)),
    (zmod_semiring, (2,), (True,)),
    (sat_semiring, (2,), (2.5,)), (sat_semiring, (1,), (0,)), (sat_semiring, (1,), (True,)),
    (chain_module, (1,), (True,)), (chain_module, (1,), (0,)), (chain_module, (2,), ("2",)),
    (cyclic_monoid, (0, 1), (0, 0)), (cyclic_monoid, (0, 1), (-1, 2)),
    (cyclic_monoid, (1, 1), (True, 1)), (cyclic_monoid, (0, 1), (0, True)),
    (cyclic_monoid, (0, 2), (0, 2.0)),
    (sat_quotient, (3, 1, 2), (3, 1.5, 2)), (sat_quotient, (3, 1, 2), (3, 1, -1)),
    (sat_quotient, (3, 1, 2), (3, True, 2)), (sat_quotient, (3, 1, 2), (3, 7, 2)),
]


@pytest.mark.parametrize("call, good, bad", [
    pytest.param(call, good, bad, id=f"{call.__name__}{bad!r}")
    for call, good, bad in PARAMETER_CASES])
def test_catalog_integer_parameters_are_checked(call, good, bad):
    call(*good)
    with pytest.raises(InvalidArgument):
        call(*bad)


@pytest.mark.parametrize("side", ["up", "LEFT", "", None])
def test_semiring_bimodule_refuses_an_unknown_side(side):
    assert semiring_bimodule(bool_semiring(), "left").side == "left"
    with pytest.raises(MalformedTable, match="side must be 'left' or 'right'"):
        semiring_bimodule(bool_semiring(), side)


SEMIRINGS = {"BOOL": bool_semiring, "ZMOD2": lambda: zmod_semiring(2),
             "ZMOD4": lambda: zmod_semiring(4), "SAT3": lambda: sat_semiring(3)}

# sha256 of the enumerators' tuples, in order: every module index and table
# in a search record reads them, so a new canonical form must keep them
MONOID_DIGESTS = {
    1: "0d7246e98111784f9edd89372367dbc375fdfd4656707d93db0d7876e53a0292",
    2: "44390a4d15416d33f3d8b11cbfaffed4a5fe97cecaae8dc005df717a5405cec5",
    3: "5290f154f18e7fb48029fcacf18c21064500dce77ef0d6f2e4130eb75c4cb0c3",
    4: "065c522d8ab866d5217d1e684e32afa146a8a5723604adbe8868272282cd76ba",
    5: "fffa134f648ab58e5a5eb9dc7778be859da2963dd185ae2ac9e1f1ed3d364aef",
}
SEMIMODULE_DIGESTS = {   # (count, digest of each module's add and action) at size 5
    "BOOL": (10, "db0960d60cd5c410b446ccaac59d47bbcb7b3e5881b60455d79bf490a4e89536"),
    "ZMOD2": (3, "729c208fefa0b64097b0f8ed1d4dd3d09e755864f3d5bb99e269acc9c2bcfff4"),
    "ZMOD4": (4, "1ac8836dd2d853888c0f1b284f22151703d34b0bf0236060c52a1ced0b768fdf"),
    "SAT3": (41, "a0b363e06fa866f91730cabc82c62a655084cf0a42d83f2f4a5d6bcb15ef1ab2"),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(MONOID_DIGESTS))
def test_commutative_monoids_are_pinned(n):
    assert _digest(enumerate_commutative_monoids(n)) == MONOID_DIGESTS[n]


@pytest.mark.parametrize("name", SEMIMODULE_DIGESTS)
def test_semimodules_are_pinned(name):
    modules = enumerate_semimodules(SEMIRINGS[name](), 5)
    assert (len(modules), _digest(tuple((M.add, M.action) for M in modules))) \
        == SEMIMODULE_DIGESTS[name]


def _full_product_actions(S, add):
    """Every choice of endomorphisms in product order, each checked on every (s, t)."""
    n = len(add)
    endos = catalog._monoid_endomorphisms(add)
    free = [s for s in range(S.size) if s not in (S.zero, S.one)]
    for choice in itertools.product(endos, repeat=len(free)):
        fs = {S.zero: (0,) * n, S.one: tuple(range(n)), **dict(zip(free, choice))}
        if all(fs[S.mul[s][t]][x] == fs[t][fs[s][x]]
               and fs[S.add[s][t]][x] == add[fs[s][x]][fs[t][x]]
               for s in range(S.size) for t in range(S.size) for x in range(n)):
            yield tuple(tuple(fs[s][x] for s in range(S.size)) for x in range(n))


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_early_checked_actions_match_the_full_product(name):
    S = SEMIRINGS[name]()
    for n in range(1, 5):
        for add in enumerate_commutative_monoids(n):
            endos = catalog._monoid_endomorphisms(add)
            assert list(catalog._actions(S, add, endos)) == list(_full_product_actions(S, add))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monoid_endomorphisms_match_brute_force(n):
    # the hom enumeration gives what a filter over all n^(n-1) maps that fix
    # the zero gives, in the same order
    for add in enumerate_commutative_monoids(n):
        maps = ((0,) + rest for rest in itertools.product(range(n), repeat=n - 1))
        want = [f for f in maps
                if all(f[add[a][b]] == add[f[a]][f[b]] for a in range(n) for b in range(n))]
        assert list(catalog._monoid_endomorphisms(add)) == want


def test_class_representative_outside_the_canonical_forms():
    # bisemimodules and modules above MAX_ENUMERATED_SIZE are their own representatives
    S = bool_semiring()
    for M in (catalog.semiring_bimodule(S), free_module(S, 3)):
        X, sigma = class_representative(M)
        assert X is M and sigma.map == tuple(range(M.size))
    Y, tau = class_representative(free_module(S, 2))
    assert Y in enumerate_semimodules(S, 4) and Y.labels == ("m0", "m1", "m2", "m3")
    assert tau.target == free_module(S, 2) and tau.injective


def _relabelled(M, p):
    """M carried over by the bijection p: element i of the result is p[i] of M."""
    inv = [0] * M.size
    for i, x in enumerate(p):
        inv[x] = i
    add = [[inv[M.add[p[a]][p[b]]] for b in range(M.size)] for a in range(M.size)]
    action = [[inv[v] for v in M.action[p[a]]] for a in range(M.size)]
    return build_semimodule(M.semiring, M.side, M.labels, add, inv[M.zero], action)


def _least_relabelling(M):
    """The least (add, action) over the bijections p with p[0] = M.zero, and the first such p."""
    perms = [p for p in itertools.permutations(range(M.size)) if p[0] == M.zero]
    keys = [(P.add, P.action) for P in (_relabelled(M, p) for p in perms)]
    least = min(keys)
    return least, perms[keys.index(least)]


def _is_isomorphism_onto(p, key, M):
    cadd, cact = key
    n = M.size
    return (sorted(p) == list(range(n)) and p[0] == M.zero
            and all(p[cadd[a][b]] == M.add[p[a]][p[b]] for a in range(n) for b in range(n))
            and all(p[cact[a][s]] == M.action[p[a]][s]
                    for a in range(n) for s in range(M.semiring.size)))


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_canonical_form_against_brute_force(name):
    rng = random.Random(name)
    modules = []
    for M in enumerate_semimodules(SEMIRINGS[name](), 4):
        q = list(range(M.size))
        rng.shuffle(q)
        modules += [M, _relabelled(M, q)]
    forms = [canonical_form(M.add, M.zero, M.action) for M in modules]
    for M, (key, p) in zip(modules, forms):
        assert (key, p) == _least_relabelling(M)
        assert _is_isomorphism_onto(p, key, M)
    # the least relabelling makes isomorphic modules share a key; a shared
    # key composes the two relabellings into an isomorphism A -> B
    for (A, (key_a, p_a)), (B, (key_b, p_b)) in itertools.product(zip(modules, forms),
                                                                  repeat=2):
        if key_a != key_b:
            continue
        iso = dict(zip(p_a, p_b))
        assert all(iso[A.add[x][y]] == B.add[iso[x]][iso[y]]
                   for x in range(A.size) for y in range(A.size))
        assert all(iso[A.action[x][s]] == B.action[iso[x]][s]
                   for x in range(A.size) for s in range(A.semiring.size))


def _small_parts():
    """Every subsemimodule and quotient of at most 5 elements of a suite pool
    module (ZMOD2's pool too) or a module of the default workspace."""
    modules = [M for S in (*suite_semirings(), zmod_semiring(2)) for _, M in suite_pool(S)]
    modules += load_default_workspace().semimodules.values()
    parts = []
    for M in modules:
        for L in enumerate_subsemimodules(M):
            parts += [N for N in (submodule_of(M, L)[0], quotient_by_sub(M, L)[0])
                      if N.size <= 5]
    return parts


def test_generator_count_is_an_isomorphism_invariant():
    # a free cover of a right tensor factor has one coordinate per module
    # generator, so a class representative must not need more than the
    # module it stands for
    modules = _small_parts()
    assert len(modules) == 160
    for name in ("BOOL", "SAT3", "ZMOD4"):
        rng = random.Random(name)
        for M in enumerate_semimodules(SEMIRINGS[name](), 5):
            p = list(range(M.size))
            rng.shuffle(p)
            modules.append(_relabelled(M, p))
    for N in modules:
        X, _ = class_representative(N)
        assert len(module_generators(N)) == len(module_generators(X)), (N.add, N.action)


def test_canonical_keys_need_the_semiring():
    # ZMOD4 and SAT3 both have 4 elements, so their modules share keys
    keys = [{canonical_form(M.add, M.zero, M.action)[0] for M in enumerate_semimodules(S, 4)}
            for S in (zmod_semiring(4), sat_semiring(3))]
    assert keys[0] & keys[1]


def test_one_permutation_scan_in_the_package():
    # every all-permutations loop in the package is canonical_form's
    found = []
    for path in sorted(pathlib.Path(semiflat.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Attribute) and node.attr == "permutations"
                            or isinstance(node, ast.Name) and node.id == "permutations"):
                        found.append((path.name, fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(a.name == "permutations"
                                                        for a in node.names):
                found.append((path.name, "import"))
    assert sorted(set(found)) == [("structures.py", "canonical_form")]
