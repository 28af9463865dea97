from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from semiflat import config, flatness, homology, structures, suite
from semiflat.catalog import (bool_semiring, chain_module, class_representative,
                              enumerate_semimodules, free_module, product_semiring,
                              semiring_bimodule,
                              sat_semiring, semiring_module, suite_pool,
                              suite_semirings, trivial_module, zmod_module,
                              zmod_semiring)
from semiflat.congruence import quotient_by_sub
from semiflat.errors import AxiomViolation, ShapeMismatch, SideMismatch
from semiflat.flatness import projectivity_witness
from semiflat.homology import (MorphismProfile, classify_sequence, classify_stage,
                               cokernel, end_comp, hom_maps, hom_module,
                               hom_postcompose, hom_precompose,
                               is_retract_of, kernel, linear_maps, morphism_profile,
                               retract_pairs,
                               uniformly_injective_rel, with_zero_ends)
from semiflat.limits import direct_sum, sum_morphism
from semiflat.structures import (LEFT, RIGHT, SecondAction, as_left, as_right,
                                 build_morphism, build_semimodule,
                                 build_semiring, canonical_form, check_endpoints,
                                 compose, identity_morphism,
                                 morphism_violations, semimodule_violations,
                                 swap_actions, with_bimodule_structure,
                                 zero_morphism)
from semiflat.subsets import (enumerate_subsemimodules, module_generators, submodule_of,
                              subsemimodule)
from semiflat.tensor import tensor_morphisms
from semiflat.suite import _small_homs
from two_row_oracle import verify_two_row_diagram


@pytest.fixture(scope="module")
def sat_setup(S3m):
    sub, inc = submodule_of(S3m, subsemimodule(S3m, (0, 3)))
    g = build_morphism(S3m, sub, [0, 1, 1, 1])
    return sub, inc, g


def test_kernel_of_identity(Z4m):
    assert kernel(identity_morphism(Z4m)).members == (0,)


def test_cokernel_of_identity(Z4m):
    Q, _ = cokernel(identity_morphism(Z4m))
    assert Q.size == 1


def test_kernel_of_collapse(sat_setup):
    _, _, g = sat_setup
    assert kernel(g).members == (0,)


def test_cokernel_of_inclusion(Z4m, Z2):
    sub, inc = submodule_of(Z4m, subsemimodule(Z4m, (0, 2)))
    Q, _ = cokernel(inc)
    assert canonical_form(Q.add, Q.zero)[0] == canonical_form(Z2.add, Z2.zero)[0]


def test_projection_profile(S3m):
    _, pi = quotient_by_sub(S3m, subsemimodule(S3m, (0, 3)))
    prof = morphism_profile(pi)
    assert prof.uniform and pi.surjective


def test_collapse_is_not_k_uniform(sat_setup):
    _, _, g = sat_setup
    prof = morphism_profile(g)
    assert not prof.k_uniform and not _k_uniformity_oracle(g)


def test_inclusion_is_not_i_uniform(sat_setup):
    _, inc, _ = sat_setup
    prof = morphism_profile(inc)
    assert not prof.i_uniform and prof.semi_epi


def test_injective_implies_k_uniform():
    for S in suite_semirings():
        for _, M in suite_pool(S):
            for _, N in suite_pool(S):
                for f in hom_module(M, N).maps:
                    prof = morphism_profile(f)
                    if f.injective:
                        assert prof.k_uniform
                    assert prof.uniform == (prof.k_uniform and prof.i_uniform)


def _k_uniformity_oracle(f):
    """k-uniformity read off its definition.

    f is k-uniform when f(x) = f(y) gives kernel elements k1, k2 with
    x + k1 = y + k2, for every pair x < y of one fibre.
    """
    add = f.source.add
    ker = [k for k in range(f.source.size) if f.map[k] == f.target.zero]
    fibres = {}
    for x in range(f.source.size):
        fibres.setdefault(f.map[x], []).append(x)
    for fibre in fibres.values():
        for x, y in itertools.combinations(fibre, 2):
            if not any(add[x][k1] == add[y][k2] for k1 in ker for k2 in ker):
                return False
    return True


def _assert_k_profile(f):
    prof = morphism_profile(f)
    assert prof.k_uniform == _k_uniformity_oracle(f)
    return prof.k_uniform


def test_k_uniformity_matches_its_definition():
    for S in suite_semirings():
        pool = [M for _, M in suite_pool(S)]
        for M in pool:
            for N in pool:
                for f in hom_module(M, N).maps:
                    _assert_k_profile(f)
    # sums of two maps: larger fibres, and some of them split by the kernel
    homs = _small_homs([M for _, M in suite_pool(bool_semiring())])[:20]
    failures = 0
    for f1 in homs:
        for f2 in homs:
            src = direct_sum((f1.source, f2.source))
            tgt = direct_sum((f1.target, f2.target))
            failures += not _assert_k_profile(sum_morphism((f1, f2), src, tgt))
    assert failures > 0
    # the tensored inclusions and projections of the flatness scan over the
    # BOOL and ZMOD4 universes: maps between tensor modules, where most of
    # the kernels' Bourne partitions are built
    tensored = []
    for S in (bool_semiring(), zmod_semiring(4)):
        universe = enumerate_semimodules(S, 4)
        for F in universe:
            X, _ = class_representative(F)
            for M in map(as_right, universe):
                for L in enumerate_subsemimodules(M):
                    t_pi = tensor_morphisms(identity_morphism(X),
                                            flatness._represented_projection(M, L))
                    tensored += [flatness._tensored_inclusion(X, M, L), t_pi]
    assert len(tensored) == 308
    assert all(_assert_k_profile(f) for f in tensored)
    assert sum(not f.injective for f in tensored) == 89


def _subtractive_closure_oracle(M, members):
    """The least subset holding members and zero in which x + y and y give x."""
    closed = set(members) | {M.zero}
    while True:
        grown = closed | {x for x in range(M.size) for y in closed if M.add[x][y] in closed}
        if grown == closed:
            return sorted(closed)
        closed = grown


def _profile_oracle(f):
    """The profile of f from the definitions, with the pairwise Bourne check."""
    image = sorted(set(f.map))
    closed = _subtractive_closure_oracle(f.target, image)
    return MorphismProfile(f.injective, f.surjective, _k_uniformity_oracle(f),
                           closed == image, len(closed) == f.target.size)


def test_profiles_match_the_pairwise_oracle(monkeypatch):
    # every hom set of the suite pools and every sum map of the
    # componentwise items
    sums = []
    summed = suite.sum_morphism

    def recorded(*args):
        sums.append(summed(*args))
        return sums[-1]

    monkeypatch.setattr(suite, "sum_morphism", recorded)
    maps = []
    for S in suite_semirings():
        pool = suite._pool_modules(S)
        maps += [f for A in pool for B in pool for f in suite._homs(A, B)]
        suite._componentwise_items(S, pool)
    assert len(sums) == 6730
    profiles = [morphism_profile(f) for f in maps + sums]
    assert profiles == [_profile_oracle(f) for f in maps + sums]
    assert any(not p.k_uniform for p in profiles) and any(not p.i_uniform for p in profiles)


def test_profiles_live_on_their_morphism(monkeypatch):
    # the profile is kept on the map: computed once per object, the same for
    # an equal object, and gone with the map, since no module-level cache
    # keeps a profiled map alive
    assert not hasattr(morphism_profile, "cache_info")
    computed = [0]
    body = homology._profile

    def counted(f):
        computed[0] += 1
        return body(f)

    monkeypatch.setattr(homology, "_profile", counted)
    f1, f2 = _small_homs([M for _, M in suite_pool(bool_semiring())])[1:3]
    src = direct_sum((f1.source, f2.source))
    tgt = direct_sum((f1.target, f2.target))
    fsum = sum_morphism((f1, f2), src, tgt)
    prof = morphism_profile(fsum)
    assert morphism_profile(fsum) is prof and computed[0] == 1
    twin = sum_morphism((f1, f2), src, tgt)
    assert twin is not fsum and twin == fsum
    assert morphism_profile(twin) == prof and computed[0] == 2
    ref = weakref.ref(fsum)
    del fsum, twin
    gc.collect()
    assert ref() is None


def test_stage_flag_lattice_over_pools():
    # exact => quasi => semi; exact => proper => semi, over every stage
    for S in suite_semirings():
        pool = [m for _, m in suite_pool(S)]
        for A in pool:
            for B in pool:
                for C in pool:
                    for f in hom_module(A, B).maps:
                        for g in hom_module(B, C).maps:
                            st = classify_stage(f, g)
                            if st.exact:
                                assert st.quasi_exact and st.proper_exact
                            if st.quasi_exact or st.proper_exact:
                                assert st.semi_exact
                            if st.proper_exact or st.semi_exact:
                                assert st.chain_step


def test_classifier_on_canonical_quotient(Z4m):
    U = subsemimodule(Z4m, (0, 2))
    sub, inc = submodule_of(Z4m, U)
    Q, pi = quotient_by_sub(Z4m, U)
    report = classify_sequence(with_zero_ends([inc, pi]))
    assert report.exact


def test_with_zero_ends_pads_both_ends(Z4m, Z4):
    T = trivial_module(Z4)
    f = identity_morphism(Z4m)
    assert with_zero_ends([f]) == [zero_morphism(T, Z4m), f, zero_morphism(Z4m, T)]
    with pytest.raises(ShapeMismatch):
        with_zero_ends([])


def test_classifier_flag_lattice(sat_setup, S3m, S3):
    _, inc, _ = sat_setup
    z = zero_morphism(S3m, trivial_module(S3))
    st = classify_stage(inc, z)
    assert st.semi_exact and st.quasi_exact
    assert not st.proper_exact and not st.exact


def test_identity_sequence_exact(Z4m, Z4):
    z1 = zero_morphism(trivial_module(Z4), Z4m)
    z2 = zero_morphism(Z4m, trivial_module(Z4))
    report = classify_sequence([z1, identity_morphism(Z4m), z2])
    assert report.exact


def test_hom_bool(Bm):
    H = hom_module(Bm, Bm)
    assert len(H.maps) == 2


def test_hom_from_trivial(Z4, Z4m):
    H = hom_module(trivial_module(Z4), Z4m)
    assert len(H.maps) == 1


def test_hom_functoriality(Z4m, Z2):
    f = build_morphism(Z4m, Z2, [0, 1, 0, 1])
    post = hom_postcompose(Z4m, f)
    pre = hom_precompose(f, Z2)
    assert post.source.size == len(hom_module(Z4m, Z4m).maps)
    assert pre.injective  # precomposition with a surjection is injective


def test_end_comp_bool(Bm):
    assert hom_maps(Bm, Bm) == tuple(f.map for f in hom_module(Bm, Bm).maps) == ((0, 0), (0, 1))
    assert end_comp(Bm) == ((0,), (0, 1))


def test_end_comp_trivial(Z4):
    T = trivial_module(Z4)
    assert hom_maps(T, T) == ((0,),)
    assert end_comp(T) == ((0,),)


def test_hom_labels_are_distinct():
    # with a target of more than ten elements, entries run together would
    # collide: (0, 1, 10, 11) and (0, 11, 0, 11) both gave h011011
    B = bool_semiring()
    mods = _pool_modules() + [free_module(B, k) for k in range(1, 5)]
    checked = 0
    for M in mods:
        for N in mods:
            if (M.semiring, M.side) != (N.semiring, N.side):
                continue
            if N.size ** len(module_generators(M)) > 256:
                continue        # more maps would mean an addition table past 65,536 entries
            H = hom_module(M, N).module
            assert len(set(H.labels)) == H.size
            checked += 1
    assert checked == 101
    assert len(hom_module(free_module(B, 2), free_module(B, 4)).module.labels) == 256


def test_hom_across_sides_raises():
    # hom enumeration checks its endpoints as build_morphism does
    S = zmod_semiring(2)
    with pytest.raises(SideMismatch):
        hom_module(semiring_module(S, "left"), semiring_module(S))
    with pytest.raises(SideMismatch):
        hom_module(semiring_module(S), free_module(suite_semirings()[0], 1))


def _pool_modules():
    return [M for S in (*suite_semirings(), zmod_semiring(2)) for _, M in suite_pool(S)]


def _checked_hom(M, N):
    # hom_module skips the axiom scan; run it here, with the side rules
    H = hom_module(M, N)
    mod = H.module
    assert not semimodule_violations(mod.semiring, mod.side, mod.add, mod.zero,
                                     mod.action, mod.second)
    if M.second is not None:
        assert mod.side != M.second.side  # (s.f)(x) = f(x.s) flips the side
    if mod.second is not None:
        assert mod.second.side != mod.side
    return H


def _assert_linear(f):
    check_endpoints(f.source, f.target)
    assert not list(morphism_violations(f.source, f.target, f.map))


def _bimodule_hom_shapes():
    # the Hom modules the adjunction and hom-tensor-comparison tags build
    B, Z4 = bool_semiring(), zmod_semiring(4)
    for M_bi, X, Y in [
            (semiring_bimodule(B, RIGHT), semiring_module(B, LEFT), semiring_module(B, LEFT)),
            (with_bimodule_structure(free_module(B, 2)), semiring_module(B, LEFT),
             as_left(chain_module(3))),
            (with_bimodule_structure(as_right(chain_module(3))), semiring_module(B, LEFT),
             semiring_module(B, LEFT)),
            (semiring_bimodule(Z4, RIGHT), as_left(zmod_module(4, 2)),
             semiring_module(Z4, LEFT)),
            (with_bimodule_structure(zmod_module(4, 2)), semiring_module(Z4, LEFT),
             as_left(zmod_module(4, 2))),
            (with_bimodule_structure(zmod_module(4, 2)), as_left(zmod_module(4, 2)),
             as_left(zmod_module(4, 2)))]:
        H = hom_module(swap_actions(M_bi), Y)
        yield swap_actions(M_bi), Y
        yield X, H.module
    for S in (Z4, B):
        Y_bi = semiring_bimodule(S, LEFT)
        for _, M in suite_pool(S):
            yield as_left(M), Y_bi
        # second actions on both arguments
        yield swap_actions(semiring_bimodule(S, RIGHT)), Y_bi


def test_hom_module_matches_brute_force():
    # the maps of Hom(M, N) are exactly the functions build_morphism accepts,
    # and the Hom modules and the maps between them pass the axiom checks
    checked = 0
    for M in _pool_modules():
        for N in _pool_modules():
            if M.semiring != N.semiring or N.size ** M.size > 256:
                continue
            accepted = set()
            for table in itertools.product(range(N.size), repeat=M.size):
                try:
                    f = build_morphism(M, N, table)
                except AxiomViolation:
                    continue
                accepted.add((f.map, f.injective, f.surjective))
            maps = _checked_hom(M, N).maps
            assert len(maps) == len(accepted)
            assert {(f.map, f.injective, f.surjective) for f in maps} == accepted
            _assert_linear(hom_postcompose(M, maps[-1]))
            _assert_linear(hom_precompose(maps[-1], N))
            checked += 1
    assert checked >= 50
    shapes = list(_bimodule_hom_shapes())
    for M, N in shapes:
        _checked_hom(M, N)
    assert sum(M.second is not None for M, _ in shapes) >= 8
    assert sum(N.second is not None for _, N in shapes) >= 10


def _brute_force_hom_sets():
    """(M, N, tables) for every pair of enumerated modules of size <= 4 over
    the suite semirings: the tables build_morphism accepts, with the zero
    map first and the rest in lexicographic order."""
    out = []
    for S in suite_semirings():
        modules = enumerate_semimodules(S, 4)
        for M in modules:
            for N in modules:
                accepted = []
                for table in itertools.product(range(N.size), repeat=M.size):
                    try:
                        accepted.append(build_morphism(M, N, table).map)
                    except AxiomViolation:
                        continue
                zero = (N.zero,) * M.size
                out.append((M, N, sorted(accepted, key=lambda t: (t != zero, t))))
    return out


def test_linear_maps_match_the_brute_force_filter():
    # the order is the one the step-per-element extension builds
    hom_sets = _brute_force_hom_sets()
    for M, N, tables in hom_sets:
        assert linear_maps(M, N) == tables
    assert (len(hom_sets), sum(len(t) for _, _, t in hom_sets)) == (162, 785)


def test_linear_maps_never_reach_the_pairwise_scan(monkeypatch):
    # a rejected candidate has no witness to report, so hom enumeration asks
    # only the linearity decision; the pairwise witness scan of
    # morphism_violations raises here, and every hom set is still the same
    hom_sets = _brute_force_hom_sets()
    scanned = structures.morphism_violations

    def no_scan(source, target, mapping):
        if not structures.is_linear(source, target, mapping):
            raise AssertionError("the pairwise witness scan was reached")
        yield from scanned(source, target, mapping)

    monkeypatch.setattr(structures, "morphism_violations", no_scan)
    monkeypatch.setattr(homology, "morphism_violations", no_scan)
    for M, N, tables in hom_sets:
        assert linear_maps(M, N) == tables
    assert sum(len(t) for _, _, t in hom_sets) == 785


def test_hom_composition_checks_second_actions():
    # B x B acting from the left on itself, with the forced right action of
    # B as the primary one: swapping the factors is B-linear, not B x B-linear
    B = bool_semiring()
    BB = product_semiring(B, B)
    X = semiring_module(BB)
    A = build_semimodule(B, RIGHT, X.labels, X.add, X.zero,
                         [[X.zero, x] for x in range(X.size)],
                         SecondAction(BB, LEFT, X.action))
    swap = build_morphism(A, A, (0, 2, 1, 3))
    G = semiring_module(B)
    with pytest.raises(AxiomViolation):
        hom_postcompose(G, swap)
    with pytest.raises(AxiomViolation):
        hom_precompose(swap, G)
    for f in (hom_postcompose(G, identity_morphism(A)),
              hom_precompose(identity_morphism(A), G)):
        _assert_linear(f)
        assert f.injective and f.surjective


def test_end_is_a_semiring():
    # end_comp does not re-validate End(M); rebuild its tables and check them
    checked = 0
    S2s = [free_module(S, 2) for S in (*suite_semirings(), zmod_semiring(2))]
    for M in _pool_modules() + S2s:
        H = hom_module(M, M)
        tables = [f.map for f in H.maps]
        k = len(tables)
        if not 1 < k <= 64:
            continue
        pos = {t: i for i, t in enumerate(tables)}
        add = [[pos[tuple(M.add[a][b] for a, b in zip(t, u))] for u in tables]
               for t in tables]
        mul = [[pos[tuple(t[v] for v in u)] for u in tables] for t in tables]
        E = build_semiring([f"e{i}" for i in range(k)], add, mul, 0,
                           pos[tuple(range(M.size))])
        # End(M)'s elements are the Hom tables, its identity among them
        assert hom_maps(M, M) == tuple(tables) and H.module.add == E.add
        assert tuple(range(M.size)) in hom_maps(M, M)
        # the retracts, from the reference tables
        idem = [i for i in range(k) if E.mul[i][i] == i]
        retracts = tuple(sorted({tuple(sorted(set(tables[i]))) for i in idem}))
        assert end_comp(M) == retracts
        checked += 1
    assert checked >= 12


def _whole_table_hom(M, N, H):
    # the Hom tables from whole-table lookups: the pointwise sum, and the
    # actions induced by M's and N's second actions
    tables = [f.map for f in H.maps]
    pos = {t: i for i, t in enumerate(tables)}
    add = tuple(tuple(pos[tuple(N.add[a][b] for a, b in zip(t, u))] for u in tables)
                for t in tables)
    actions = []
    if M.second is not None:
        actions.append(tuple(tuple(pos[tuple(t[M.second.table[x][s]] for x in range(M.size))]
                                   for s in range(M.second.semiring.size)) for t in tables))
    if N.second is not None:
        actions.append(tuple(tuple(pos[tuple(N.second.table[v][s] for v in t)]
                                   for s in range(N.second.semiring.size)) for t in tables))
    return add, actions


def test_hom_tables_match_whole_table_lookup():
    # hom_module looks maps up by their images of the generators
    pairs = list(_bimodule_hom_shapes())
    for S in suite_semirings():
        mods = [semiring_module(S), free_module(S, 2)] + [M for _, M in suite_pool(S)]
        pairs += [(M, N) for M in mods for N in mods]
    assert sum(hom_module(M, N).module.size == 256 for M, N in pairs) >= 2
    for M, N in pairs:
        H = hom_module(M, N)
        add, actions = _whole_table_hom(M, N, H)
        assert H.module.add == add
        got = [H.module.action] if actions else []
        if H.module.second is not None:
            got.append(H.module.second.table)
        assert got == actions


def _end_report_oracle(M):
    # End(M) read from the full k x k composition and addition tables
    H = hom_module(M, M)
    tables = [f.map for f in H.maps]
    k = len(tables)
    pos = {t: i for i, t in enumerate(tables)}
    mul = [[pos[tuple(t[v] for v in u)] for u in tables] for t in tables]
    retracts = tuple(sorted({tuple(sorted(set(tables[i]))) for i in range(k)
                             if mul[i][i] == i}))
    return tuple(tables), retracts


FREE2_ENDS = [(bool_semiring(), 16), (sat_semiring(3), 256), (zmod_semiring(4), 256)]


@pytest.mark.parametrize("S, k", FREE2_ENDS, ids=["BOOL", "SAT3", "ZMOD4"])
def test_end_comp_of_free2_matches_composition_table(S, k):
    # end_comp composes only the squares; the reference reads everything
    # from the full k x k composition table
    M = free_module(S, 2)
    tables, retracts = _end_report_oracle(M)
    assert len(tables) == k and hom_maps(M, M) == tables
    assert tuple(range(M.size)) in hom_maps(M, M)
    assert end_comp(M) == retracts
    assert len(retracts) > 2


@pytest.mark.parametrize("S, k", FREE2_ENDS, ids=["BOOL", "SAT3", "ZMOD4"])
def test_end_comp_of_free2_builds_no_hom_module(monkeypatch, S, k):
    # End(S^2) is read from the Hom tables; over SAT3 and ZMOD4 the Hom
    # module would carry a 256 x 256 addition table that nothing reads
    calls = []

    def counting_hom_module(M, N):
        calls.append((M, N))
        return hom_module(M, N)

    M = free_module(S, 2)
    monkeypatch.setattr(homology, "hom_module", counting_hom_module)
    retracts = end_comp.__wrapped__(M)   # past the cache, so the body runs
    monkeypatch.undo()
    assert calls == []
    tables, want = _end_report_oracle(M)
    assert hom_maps(M, M) == tables and tuple(range(M.size)) in hom_maps(M, M)
    assert retracts == want == end_comp(M)


def test_retract_of_direct_sum(Bm, B):
    B2 = free_module(B, 2)
    pair = is_retract_of(Bm, B2)
    assert pair is not None
    psi, theta = pair
    assert compose(theta, psi).map == (0, 1)


def _reference_retract_pairs(N, M):
    # the search as it was over the Hom modules, kept as the oracle
    ident = tuple(range(N.size))
    for psi in (m for m in hom_module(N, M).maps if m.injective):
        for theta in hom_module(M, N).maps:
            if tuple(theta.map[v] for v in psi.map) == ident:
                yield psi, theta


def _tables(pairs):
    return [(psi.map, theta.map) for psi, theta in pairs]


def _witness_tables(w):
    return None if w is None else (w["rank"], w["section"].map, w["retraction"].map)


def _reference_witness_tables(F):
    for n in range(1, config.MAX_FREE_RANK + 1):
        pair = next(_reference_retract_pairs(F, free_module(F.semiring, n, F.side)), None)
        if pair is not None:
            return (n, pair[0].map, pair[1].map)
    return None


@pytest.mark.parametrize("S", [bool_semiring(), sat_semiring(3), zmod_semiring(4)],
                         ids=["BOOL", "SAT3", "ZMOD4"])
def test_retract_search_matches_the_hom_module_search(S):
    mods = tuple(dict.fromkeys(enumerate_semimodules(S, 3)
                               + (semiring_module(S), free_module(S, 2))))
    for N in mods:
        assert _witness_tables(projectivity_witness(N)) == _reference_witness_tables(N)
        for M in mods:
            expected = _tables(itertools.islice(_reference_retract_pairs(N, M), 4))
            assert _tables(itertools.islice(retract_pairs(N, M), 4)) == expected
            pair = is_retract_of(N, M)
            assert (None if pair is None else _tables([pair])[0]) == \
                (expected[0] if expected else None)
            if pair is not None:
                assert (pair[0].source, pair[0].target) == (N, M)
                assert (pair[1].source, pair[1].target) == (M, N)


def test_retract_search_builds_no_hom_module():
    before = hom_module.cache_info()
    assert projectivity_witness(free_module(zmod_semiring(4), 2))["rank"] == 2
    assert hom_module.cache_info() == before


def test_trivial_uniformly_injective(B, Bm):
    rep = uniformly_injective_rel(trivial_module(B), [Bm, free_module(B, 2)])
    assert rep.holds


def test_z2_uniformly_injective_rel_itself():
    from semiflat.catalog import zmod_semiring, semiring_module
    Z2S = zmod_semiring(2)
    M = semiring_module(Z2S)
    rep = uniformly_injective_rel(M, [M])
    assert rep.holds


def test_degenerate_diagram_holds(Z4, Z4m):
    T = trivial_module(Z4)
    zt = zero_morphism(T, T)
    rep = verify_two_row_diagram(zt, zt, zt, zt, zt, zt, zt)
    assert rep.holds


def test_two_row_instance(Z4m, Z2, Z4):
    # quasi-exact bottom row built from the canonical quotient
    U = subsemimodule(Z4m, (0, 2))
    sub, inc = submodule_of(Z4m, U)
    Q, pi = quotient_by_sub(Z4m, U)
    ident = identity_morphism
    rep = verify_two_row_diagram(inc, pi, inc, pi,
                                 ident(sub), ident(Z4m), ident(Q))
    assert rep.holds and rep.case_1a is True
    # the cancellative case: Z/4 is a group, so its maps are cancellative
    rep = verify_two_row_diagram(inc, pi, inc, pi, ident(sub), ident(Z4m), ident(Q),
                                 cancellative_maps=True)
    assert rep.holds and rep.case_2a is True
    # zero columns commute, but a1 is not injective, so case 2a is not met
    zeros = [zero_morphism(X, X) for X in (sub, Z4m, Q)]
    rep = verify_two_row_diagram(inc, pi, inc, pi, *zeros, cancellative_maps=True)
    assert not zeros[0].injective and rep.case_2a is None
