from __future__ import annotations

import itertools

import pytest

from semiflat.catalog import (bool_semiring, cancellative_targets, chain_module,
                              free_module, semiring_bimodule, semiring_module,
                              suite_pool, suite_semirings, trivial_module,
                              zmod_module)
from semiflat.catalog import enumerate_commutative_monoids, enumerate_semimodules
from semiflat import config
from semiflat.errors import (BoxBoundExceeded, MalformedTable,
                             NotZeroPreserving, SideMismatch)
from semiflat.homology import hom_module, with_zero_ends
from semiflat.structures import (as_left, build_morphism, build_semimodule,
                                 canonical_form, identity_morphism,
                                 monoid_module, morphism_violations,
                                 semimodule_violations, zero_morphism)
from semiflat.tensor import (_box_product, _generators, adjunction_iso,
                             balanced_violations,
                             certify_cancellative_universal, dual_comparison,
                             enumerate_balanced_maps, factor_balanced,
                             cancellative_tensor, tensor_morphisms,
                             relation_count, tensor_product, unit_iso,
                             unit_iso_left)


def test_unit_case_bool(Bm):
    pres = tensor_product(Bm, as_left(Bm))
    assert pres.module.size == 2
    assert canonical_form(pres.module.add, pres.module.zero)[0] == \
        canonical_form(Bm.add, Bm.zero)[0]


def test_z2_tensor_z2_over_z4(Z2):
    pres = tensor_product(Z2, as_left(Z2))
    assert pres.module.size == 2
    dense = tensor_product(Z2, as_left(Z2), dense=True)
    assert canonical_form(pres.module.add, pres.module.zero)[0] == \
        canonical_form(dense.module.add, dense.module.zero)[0]


def test_trivial_tensor(Z4, Z4m):
    T = trivial_module(Z4)
    assert tensor_product(T, as_left(Z4m)).module.size == 1
    assert tensor_product(Z4m, as_left(T)).module.size == 1


def test_side_checking(Bm):
    with pytest.raises(SideMismatch):
        tensor_product(Bm, Bm)  # right (x) right is rejected


def test_dense_presentation_agrees_on_pools():
    compared = 0
    for S in suite_semirings():
        for _, M in suite_pool(S):
            for _, N in suite_pool(S):
                NL = as_left(N)
                try:
                    dense = tensor_product(M, NL, dense=True)
                except BoxBoundExceeded:
                    continue
                sparse = tensor_product(M, NL)
                # the map tau(m, n) -> tau'(m, n) is an additive bijection
                iso = factor_balanced(sparse, dense.module, dense.tau)
                S1, S2 = sparse.module, dense.module
                where = f"|M|={M.size} |N|={N.size}"
                assert sorted(iso) == list(range(S2.size)) == list(range(S1.size)), where
                assert all(iso[S1.add[a][b]] == S2.add[iso[a]][iso[b]]
                           for a in range(S1.size) for b in range(S1.size)), where
                compared += 1
    assert compared == 47       # of 48 pool pairs; one dense box passes the bound


def _assert_cover_matches_box(M, N):
    cover = tensor_product(M, N)
    box = _box_product(M, N, False)
    for field in ("module", "tau", "rep_coords", "radices", "box_size", "left_gens",
                  "right_gens"):
        assert getattr(cover, field) == getattr(box, field), \
            f"{field} differs for |M|={M.size} |N|={N.size}"
    # one radix per generator pair, from its bound: preperiod plus period
    assert cover.radices == tuple(i + p for i, p in _generators(M, N, False)[4])
    assert cover.module.labels == box.module.labels
    assert relation_count(cover) == relation_count(box)
    # the presentations build their modules without an axiom scan
    for pres in (cover, box):
        mod = pres.module
        assert semimodule_violations(mod.semiring, mod.side, mod.add, mod.zero,
                                     mod.action, mod.second) == []


def test_cover_matches_the_box_on_pools_and_small_modules():
    # the free-cover quotient numbers, labels and pairs exactly as the
    # generator-pair box does on the additive generators
    compared = 0
    for S in suite_semirings():
        for _, M in suite_pool(S):
            for _, N in suite_pool(S):
                _assert_cover_matches_box(M, as_left(N))
                compared += 1
        modules = enumerate_semimodules(S, 4)
        for M in modules:
            for N in modules:
                _assert_cover_matches_box(M, as_left(N))
                compared += 1
    assert compared == 48 + 25 + 121 + 16


def _reversed(M):
    """M with its elements listed in reverse, so its zero is not the first element."""
    back = list(range(M.size - 1, -1, -1))
    return build_semimodule(M.semiring, M.side, [M.labels[x] for x in back],
                            [[back[M.add[x][y]] for y in back] for x in back], back[M.zero],
                            [[back[M.action[x][s]] for s in range(M.semiring.size)]
                             for x in back])


def test_cover_matches_the_box_when_the_zero_is_not_listed_first():
    for M in (chain_module(2), chain_module(3), zmod_module(4, 4)):
        R = _reversed(M)
        assert R.zero == M.size - 1
        for left, right in ((R, M), (M, R), (R, R)):
            _assert_cover_matches_box(left, as_left(right))


def _box_cells(M, N) -> int:
    cells = 1
    for i, p in _generators(M, N, False)[4]:
        cells *= i + p
    return cells


def test_cover_matches_the_box_past_the_box_bound(monkeypatch):
    # the smallest SAT3 size-5 pair whose box is past MAX_BOX
    modules = enumerate_semimodules(suite_semirings()[1], 5)
    cells, M, N = min(((_box_cells(M, as_left(N)), i, j)
                       for i, M in enumerate(modules) for j, N in enumerate(modules)
                       if _box_cells(M, as_left(N)) > config.MAX_BOX))
    assert cells == 6144
    monkeypatch.setattr(config, "MAX_BOX", 8192)
    _assert_cover_matches_box(modules[M], as_left(modules[N]))


def test_order_bound_soundness(Z4m, S3m):
    for M in (Z4m, S3m):
        pres = tensor_product(M, as_left(M))
        bounds = _generators(M, as_left(M), False)[4]
        pairs = pres.pair_list()
        for q, (g, h) in enumerate(pairs):
            i, p = bounds[q]
            base = pres.tau[g][h]
            add = pres.module.add
            acc = pres.module.zero
            seen = [acc]
            for _ in range(i + p):
                acc = add[acc][base]
                seen.append(acc)
            assert seen[i + p] == seen[i], "imposed order relation must hold"


def test_factor_balanced_unit(Z4m):
    pres, iso = unit_iso(Z4m)
    assert iso.valid


def test_factor_zero_map(Bm):
    pres = tensor_product(Bm, as_left(Bm))
    table = tuple(tuple(0 for _ in range(2)) for _ in range(2))
    gamma = factor_balanced(pres, Bm, table)
    assert all(g == 0 for g in gamma)


def test_factor_min_map(Bm):
    pres = tensor_product(Bm, as_left(Bm))
    table = tuple(tuple(min(a, b) for b in range(2)) for a in range(2))
    gamma = factor_balanced(pres, Bm, table)
    assert sorted(gamma) == [0, 1]


def test_unbalanced_table_rejected(Bm):
    pres = tensor_product(Bm, as_left(Bm))
    table = ((0, 1), (1, 1))  # violates zero preservation
    with pytest.raises(NotZeroPreserving):
        factor_balanced(pres, Bm, table)


@pytest.mark.parametrize("table", [((0, 0),), ((0, 0), (0, 7)), ((0, 0), (0,))],
                         ids=["short", "out-of-range", "ragged"])
def test_factor_balanced_rejects_malformed_table(Bm, table):
    pres = tensor_product(Bm, as_left(Bm))
    with pytest.raises(MalformedTable):
        factor_balanced(pres, Bm, table)


def test_enumerate_balanced_maps_matches_brute_force():
    # every table in range(|G|)^(M x N) that balanced_violations accepts is
    # enumerated exactly once, on every pool pair and small monoid target
    targets = [monoid_module(t) for n in (1, 2, 3)
               for t in enumerate_commutative_monoids(n)]
    cases = 0
    for S in suite_semirings():
        for _, M in suite_pool(S):
            for _, N0 in suite_pool(S):
                N = as_left(N0)
                for G in targets:
                    cells = M.size * N.size
                    if G.size ** cells > 512:
                        continue
                    brute = set()
                    for flat in itertools.product(range(G.size), repeat=cells):
                        table = tuple(flat[m * N.size:(m + 1) * N.size]
                                      for m in range(M.size))
                        if not balanced_violations(M, N, G, table):
                            brute.add(table)
                    found = enumerate_balanced_maps(M, N, G)
                    assert len(found) == len(set(found)), "duplicate tables"
                    assert set(found) == brute
                    cases += 1
    assert cases == 263


def test_balanced_completeness_small_targets():
    # every zero-preserving balanced table into every commutative monoid of
    # size <= 3 factors through the pairing exactly once, on all pool pairs
    from semiflat.structures import monoid_module, rehome_pair
    from semiflat.homology import hom_module
    from semiflat.catalog import enumerate_commutative_monoids
    targets = [monoid_module(t) for n in (1, 2, 3)
               for t in enumerate_commutative_monoids(n)]
    factored = 0
    for S in suite_semirings():
        for _, M in suite_pool(S):
            for _, N0 in suite_pool(S):
                N = as_left(N0)
                pres = tensor_product(M, N)
                for G in targets:
                    for table in enumerate_balanced_maps(M, N, G):
                        gamma = factor_balanced(pres, G, table)
                        T2, G2 = rehome_pair(pres.module, G)
                        H = hom_module(T2, G2)
                        matches = [h for h in H.maps
                                   if all(h.map[pres.tau[m][n]] == table[m][n]
                                          for m in range(M.size)
                                          for n in range(N.size))]
                        assert len(matches) == 1 and matches[0].map == tuple(gamma)
                        factored += 1
    assert factored > 100


def test_tensor_morphism_identity(Z2):
    t = tensor_morphisms(identity_morphism(Z2), identity_morphism(as_left(Z2)))
    assert t.map == tuple(range(t.source.size))


def test_tensored_maps_and_zero_ends_are_linear():
    # tensor_morphisms and zero_morphism build their maps without the
    # morphism check; here F (x) g for every pool module F and every map g
    # between pool modules, padded with zero maps as the flatness scan
    # pads the sequences it classifies
    checked = 0
    for S in suite_semirings():
        pool = [M for _, M in suite_pool(S)]
        for F in pool:
            idF = identity_morphism(F)
            for M in pool:
                for N in pool:
                    for g in hom_module(as_left(M), as_left(N)).maps:
                        for f in with_zero_ends([tensor_morphisms(idF, g)]):
                            assert list(morphism_violations(f.source, f.target, f.map)) == []
                            checked += 1
    assert checked == 3 * 556          # 556 tensored maps and their zero ends


def test_tensor_morphism_zero(Z4m, Z2):
    zl = zero_morphism(Z2, Z2)
    t = tensor_morphisms(identity_morphism(Z4m), build_morphism(as_left(Z2), as_left(Z2), zl.map))
    assert all(v == t.target.zero for v in t.map)


def test_cancellative_tensor_examples(Bm, Z2, S3m):
    assert cancellative_tensor(Bm, as_left(Bm)).module.size == 1
    ct = cancellative_tensor(Z2, as_left(Z2))
    assert ct.module.size == 2
    S = S3m.semiring
    ct2 = cancellative_tensor(S3m, semiring_bimodule(S, "left"))
    assert ct2.module.size == 1


def test_cancellative_tensor_universal_property(Bm, Z2):
    targets = cancellative_targets()
    assert certify_cancellative_universal(Bm, as_left(Bm), targets) > 0
    assert certify_cancellative_universal(Z2, as_left(Z2), targets) > 0


def test_unit_isos_on_pools():
    count = 0
    for S in suite_semirings():
        for _, M in suite_pool(S):
            pres, iso = unit_iso(M)
            assert iso.valid
            presL, isoL = unit_iso_left(as_left(M))
            assert isoL.valid
            count += 1
    assert count >= 10


def test_adjunction_unit_case(B):
    M_bi = semiring_bimodule(B, "right")
    X = semiring_module(B, "left")
    rep = adjunction_iso(M_bi, X, X)
    assert rep.holds


def test_nu_free_rank_one(Z4):
    X = semiring_module(Z4, "left")
    comp = dual_comparison(X, X)
    assert comp.bijective


def test_nu_rank_two(Z4):
    X = free_module(Z4, 2, "left")
    Z = semiring_module(Z4, "left")
    comp = dual_comparison(X, Z)
    assert comp.bijective


def test_nu_trivial(Z4):
    X = trivial_module(Z4, "left")
    comp = dual_comparison(X, semiring_module(Z4, "left"))
    assert comp.bijective


def test_nu_without_flat_hypothesis_still_reports(Z4):
    X = semiring_module(Z4, "left")
    Z = zmod_module(4, 2, "left")
    comp = dual_comparison(X, Z)
    assert comp.map.source.size >= 1  # evaluated without crashing
