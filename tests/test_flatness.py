from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest

from semiflat import config, flatness
from semiflat.catalog import (bool_semiring, chain_module, class_representative,
                              enumerate_semimodules, free_module, sat_semiring,
                              suite_pool, trivial_module, zmod_semiring)
from semiflat.congruence import quotient_by_sub
from semiflat.errors import (BadCertificate, InvalidArgument, NotExact,
                             SizeBoundExceeded, TimeBudgetExceeded)
from semiflat.flatness import (FlatnessVerdict, SearchConfig, flat_certificate_check,
                               in_i_uniform_class, is_mono_flat, is_uniformly_M_flat,
                               is_uniformly_fg, is_uniformly_flat, is_uniformly_fp,
                               projectivity_witness, search_counterexamples,
                               trivial_certificate)
from semiflat.homology import classify_sequence, morphism_profile, with_zero_ends
from semiflat.limits import Colimit
from semiflat.structures import (as_right, build_morphism, build_semimodule,
                                 identity_morphism)
from semiflat.subsets import (enumerate_subsemimodules, submodule_of,
                              uniform_subsemimodules)
from semiflat.tensor import tensor_morphisms, tensor_product


@pytest.fixture(scope="module")
def z4_pool(Z4):
    return tuple(m for _, m in suite_pool(Z4))


def test_free_rank_one_is_flat(Z4m, z4_pool):
    assert is_uniformly_flat(Z4m, z4_pool).holds


def test_z2_fails_against_z4(Z2, Z4m):
    v = is_uniformly_M_flat(Z2, Z4m)
    assert not v.holds
    assert v.witness == ((0, 2), "not-injective")


def test_trivial_is_flat(Z4, z4_pool):
    assert is_uniformly_flat(trivial_module(Z4), z4_pool).holds


def test_empty_universe_vacuous(Z2):
    assert is_uniformly_flat(Z2, ()).holds


def test_mono_flat_and_class_flags(Z2, Z4m):
    assert not is_mono_flat(Z2, Z4m).holds
    assert in_i_uniform_class(Z2, Z4m).holds
    assert not is_uniformly_M_flat(Z2, Z4m).holds


def _untransported_inclusion(F, M, L):
    # F(x)L -> F(x)M with L as M labels it, not as its class representative
    sub, inc = submodule_of(M, L)
    return tensor_morphisms(identity_morphism(F), flatness.as_left_morphism(inc))


def _untransported_projection(F, M, L):
    Q, pi = quotient_by_sub(M, L)
    return tensor_morphisms(identity_morphism(F), flatness.as_left_morphism(pi))


def _untransported_sequence_exact(F, M, L, induced):
    t_pi = _untransported_projection(F, M, L)
    return classify_sequence(with_zero_ends([induced, t_pi])).exact


def _reference_mono_flat(F, M):
    M = as_right(M)
    for L in enumerate_subsemimodules(M):
        if not _untransported_inclusion(F, M, L).injective:
            return FlatnessVerdict(False, (L.members, "not-injective"))
    return FlatnessVerdict(True)


def _reference_i_uniform_class(F, M):
    M = as_right(M)
    for U in uniform_subsemimodules(M):
        if not morphism_profile(_untransported_inclusion(F, M, U)).i_uniform:
            return FlatnessVerdict(False, (U.members, "image-not-closed"))
    return FlatnessVerdict(True)


def _reference_uniformly_M_flat(F, M):
    M = as_right(M)
    for U in uniform_subsemimodules(M):
        induced = _untransported_inclusion(F, M, U)
        ok = induced.injective and morphism_profile(induced).i_uniform
        if ok != _untransported_sequence_exact(F, M, U, induced):
            raise NotExact(f"formulations disagree at U={U.members}")
        if not ok:
            kind = "not-injective" if not induced.injective else "image-not-closed"
            return FlatnessVerdict(False, (U.members, kind))
    return FlatnessVerdict(True)


def _reference_flags(F, M):
    return [(v.holds, v.witness) for v in (_reference_mono_flat(F, M),
                                           _reference_i_uniform_class(F, M),
                                           _reference_uniformly_M_flat(F, M))]


def _flags(F, M):
    return is_mono_flat(F, M), in_i_uniform_class(F, M), is_uniformly_M_flat(F, M)


ORACLE_SEMIRINGS = {"BOOL": bool_semiring, "ZMOD4": lambda: zmod_semiring(4),
                    "SAT3": lambda: sat_semiring(3)}


def test_one_scan_matches_the_three_loops_it_replaced():
    # the three separate loops of the earlier design, tensoring F, each L and
    # each M/L as given rather than as class representatives, are the oracle,
    # on every pair of modules of size <= 4 over three semirings
    pairs = 0
    for name, make in ORACLE_SEMIRINGS.items():
        universe = enumerate_semimodules(make(), 4)
        for F, M in itertools.product(universe, repeat=2):
            got = [(v.holds, v.witness) for v in _flags(F, M)]
            assert got == _reference_flags(F, M), (name, F.add, M.add)
            pairs += 1
    assert pairs == 162


def test_flags_tensor_each_subsemimodule_at_most_once(monkeypatch, Z4):
    universe = enumerate_semimodules(Z4, 4)
    real = flatness._tensored_inclusion
    tensored = []

    def counted(F, M, L):
        tensored.append(L)
        return real(F, M, L)

    monkeypatch.setattr(flatness, "_tensored_inclusion", counted)
    flatness._flatness_scan.cache_clear()
    for F, M in itertools.product(universe, repeat=2):
        tensored.clear()
        _flags(F, M)
        once = len(tensored)
        assert once == len(set(tensored)) <= len(enumerate_subsemimodules(as_right(M)))
        _flags(F, M)
        assert len(tensored) == once, "a second read tensored again"


def _relabelled(M, p):
    """M carried over by the bijection p: element i of the result is p[i] of M."""
    inv = [0] * M.size
    for i, x in enumerate(p):
        inv[x] = i
    add = [[inv[M.add[p[a]][p[b]]] for b in range(M.size)] for a in range(M.size)]
    action = [[inv[v] for v in M.action[p[a]]] for a in range(M.size)]
    labels = [f"x{x}" for x in p]
    return build_semimodule(M.semiring, M.side, labels, add, inv[M.zero], action)


def test_relabelled_modules_scan_like_the_untransported_scan():
    # F is scanned as its class representative, which the enumerated modules
    # are already; relabelled copies of F and M exercise the transport of F
    # and keep M's own labelling in the witnesses
    rng = random.Random(2026)
    moved = 0
    for name, make in ORACLE_SEMIRINGS.items():
        universe = enumerate_semimodules(make(), 4)
        copies = []
        for M in universe:
            p = list(range(M.size))
            rng.shuffle(p)
            copy = _relabelled(M, p)
            X, sigma = class_representative(copy)
            assert X is M and build_morphism(M, copy, sigma.map).injective
            moved += (copy.add, copy.action) != (M.add, M.action)
            copies.append(copy)
        for F, M in itertools.product(copies, repeat=2):
            got = [(v.holds, v.witness) for v in _flags(F, M)]
            assert got == _reference_flags(F, M), (name, F.add, M.add)
    assert moved == 14      # of 20 copies; the others kept their class's tables


def _refused(tensor):
    """The cells a fresh tensor cover asks for past MAX_PRODUCT, or None."""
    tensor_product.cache_clear()            # a cached cover is not bounded again
    try:
        tensor()
    except SizeBoundExceeded as exc:
        return exc.requested
    return None


def test_transport_keeps_the_refused_covers(monkeypatch):
    # the cover of F(x)N has |F|^n cells for n the least generator count of
    # N; every module of N's class has that count, so a representative is
    # refused exactly where N is (the SAT3 semiring module and its
    # representative both need one generator)
    monkeypatch.setattr(config, "MAX_PRODUCT", 8)
    outcomes = Counter()
    for S in (bool_semiring(), sat_semiring(3), zmod_semiring(4)):
        pool = [M for _, M in suite_pool(S) if M.size <= 4]
        for F, M in itertools.product(pool, repeat=2):
            Fx = class_representative(F)[0]
            for L in enumerate_subsemimodules(M):
                t_pi = flatness._represented_projection(M, L)
                got = (_refused(lambda: flatness._tensored_inclusion(Fx, M, L)),
                       _refused(lambda: tensor_morphisms(identity_morphism(Fx), t_pi)))
                want = (_refused(lambda: _untransported_inclusion(F, M, L)),
                        _refused(lambda: _untransported_projection(F, M, L)))
                assert got == want, (F.labels, M.labels, L.members)
                outcomes[got] += 1
    assert outcomes == {(None, None): 94, (16, 16): 31, (9, 9): 11}


def test_free_is_mono_flat_everywhere(Z4m, z4_pool):
    for M in z4_pool:
        assert is_mono_flat(Z4m, M).holds
        assert in_i_uniform_class(Z4m, M).holds


def test_uniformly_fg_witnesses(Z4m, Z2, S3m):
    assert is_uniformly_fg(Z4m)["rank"] == 1
    assert is_uniformly_fg(Z2)["rank"] == 1
    assert is_uniformly_fg(S3m)["rank"] == 1
    assert is_uniformly_fg(trivial_module(Z4m.semiring))["rank"] == 1


def test_chain3_is_not_uniformly_fg():
    assert is_uniformly_fg(chain_module(3)) is None
    assert is_uniformly_fp(chain_module(3)) is None


def test_uniformly_fp_presentations(Z2):
    rep = is_uniformly_fp(Z2)
    assert rep is not None
    assert rep["presentations"], "expected at least one two-step presentation"
    pres = rep["presentations"][0]
    assert pres["kernel"] == (0, 2)


def test_projectivity_witness(Z4m, Z2, B):
    assert projectivity_witness(Z4m)["rank"] == 1
    assert projectivity_witness(Z2) is None
    assert projectivity_witness(free_module(B, 2))["rank"] in (1, 2)


def test_certificate_check(Z4m, z4_pool):
    cert = trivial_certificate(Z4m)
    rep = flat_certificate_check(Z4m, cert, z4_pool)
    assert rep["flat"]


def test_certificate_requires_witnesses(Z2, z4_pool):
    assert trivial_certificate(Z2) is None


def test_empty_colimit_class_is_a_typed_error(monkeypatch, Z4m):
    real = flatness.directed_colimit

    def collapsed(sys):
        # every element lands in class 0, which so holds four elements of F
        colim = real(sys)
        return Colimit(colim.system, colim.module, colim.legs,
                       tuple((0,) * len(row) for row in colim.class_of))

    def widened(sys):
        # the classes keep F's elements apart, but the classes past |F| are empty
        colim = real(sys)
        return Colimit(colim.system, free_module(Z4m.semiring, 2), colim.legs,
                       colim.class_of)

    for fake, reason in ((collapsed, "two elements"), (widened, "class 4 has no member")):
        monkeypatch.setattr(flatness, "directed_colimit", fake)
        with pytest.raises(BadCertificate) as info:
            trivial_certificate(Z4m)
        assert info.value.node == "iso" and reason in info.value.reason


def test_search_over_z4(tmp_path, Z4):
    out = tmp_path / "records.jsonl"
    cfg = SearchConfig((Z4,), max_size=4, budget_seconds=120.0, out_path=str(out))
    rep = search_counterexamples(cfg)
    assert not rep["lattice_violations"]
    sizes = sorted(r.size for r in rep["records"])
    assert sizes == [1, 2, 4, 4]
    z2_rec = next(r for r in rep["records"] if r.size == 2)
    assert not z2_rec.mono_flat and not z2_rec.uniformly_flat
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(rep["records"])
    for line in lines:
        json.loads(line)


def test_search_streams_each_record_as_it_is_classified(tmp_path, monkeypatch, Z4):
    # every clock read advances one second; the budget of 2.5 s lets two of
    # the four modules be classified
    out = tmp_path / "records.jsonl"
    ticks = itertools.count()
    lines_at_read = []

    def clock():
        lines_at_read.append(len(out.read_text().splitlines()))
        return next(ticks)

    monkeypatch.setattr(flatness.time, "monotonic", clock)
    cfg = SearchConfig((Z4,), max_size=4, budget_seconds=2.5, out_path=str(out))
    with pytest.raises(TimeBudgetExceeded) as info:
        search_counterexamples(cfg)
    records = info.value.partial["records"]
    assert len(records) == 2
    assert out.read_text().splitlines() == [r.to_json() for r in records]
    # start, one budget check per module, elapsed: each record is on disk
    # before the next module is checked
    assert lines_at_read == [0, 0, 1, 2, 2]


def test_search_over_bool():
    B = bool_semiring()
    cfg = SearchConfig((B,), max_size=2, budget_seconds=60.0)
    rep = search_counterexamples(cfg)
    assert not rep["lattice_violations"]
    assert all(r.uniformly_flat for r in rep["records"])


def test_search_reports_a_contradiction_and_goes_on(tmp_path, monkeypatch, Z4):
    # a module whose verdicts break the lattice is a violation, not an abort
    message = "mono-flat + i-uniform class must imply uniform flatness"
    modules = enumerate_semimodules(Z4, 4)
    scan = flatness._flatness_scan

    def contradicting_scan(F, M):
        if F == modules[1]:
            raise NotExact(message)
        return scan(F, M)

    monkeypatch.setattr(flatness, "_flatness_scan", contradicting_scan)
    out = tmp_path / "records.jsonl"
    rep = search_counterexamples(SearchConfig((Z4,), max_size=4, out_path=str(out)))
    assert rep["lattice_violations"] == [(0, 1, message)]
    assert [r.module_index for r in rep["records"]] == [0, 2, 3]
    assert out.read_text().splitlines() == [r.to_json() for r in rep["records"]]


@pytest.mark.parametrize("max_size", [2.5, "3", None, True])
def test_search_rejects_a_non_integer_size(max_size):
    with pytest.raises(InvalidArgument):
        search_counterexamples(SearchConfig((bool_semiring(),), max_size=max_size))


@pytest.mark.parametrize("budget", ["3", None, True])
def test_search_rejects_a_budget_that_is_not_a_number(budget):
    with pytest.raises(InvalidArgument):
        search_counterexamples(SearchConfig((bool_semiring(),), max_size=2,
                                            budget_seconds=budget))


@pytest.mark.parametrize("semirings", ["BOOL", (1,), ("BOOL",), None, frozenset()])
def test_search_rejects_semirings_that_are_not_a_sequence_of_semirings(semirings, tmp_path):
    out = tmp_path / "records.jsonl"
    with pytest.raises(InvalidArgument):
        search_counterexamples(SearchConfig(semirings, max_size=1, out_path=str(out)))
    # refused before anything is enumerated or written
    assert not out.exists()


def test_empty_search():
    cfg = SearchConfig((), max_size=4)
    rep = search_counterexamples(cfg)
    assert rep["records"] == []
