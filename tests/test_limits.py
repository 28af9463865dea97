from __future__ import annotations

import pytest

from semiflat.catalog import (enumerate_semimodules, semiring_module, suite_semirings,
                              trivial_module)
from semiflat.congruence import congruence_closure
from semiflat.errors import (NotCommutative, NotDirected, NotIntertwining,
                             ShapeMismatch)
from semiflat.homology import (classify_sequence, hom_module, morphism_profile,
                               with_zero_ends)
from semiflat import limits
from semiflat.limits import (Colimit, chain_system, coequalizer, colimit_morphism,
                             constant_system, copairing, direct_sum,
                             directed_colimit, directed_system, equalizer,
                             hom_colimit_comparison, inverse_limit,
                             inverse_system, pairing, pullback,
                             pullback_mediator, subsemimodule_system,
                             sum_morphism)
from semiflat.structures import (build_morphism, build_semimodule, canonical_form, compose,
                                 identity_morphism, morphism_violations, zero_morphism)
from semiflat.subsets import submodule_of, subsemimodule
from semiflat.suite import _pool_modules, _small_homs
from semiflat.workspace import load_default_workspace


def test_direct_sum_bool(Bm):
    data = direct_sum((Bm, Bm))
    assert data.module.size == 4
    for inj in data.injections:
        assert inj.injective
    for proj in data.projections:
        assert proj.surjective


def test_pairing_factors(Z4m, Z2):
    f = build_morphism(Z4m, Z2, [0, 1, 0, 1])
    g = build_morphism(Z4m, Z2, [0, 1, 0, 1])
    data = direct_sum((Z2, Z2))
    h = pairing([f, g], data)
    assert compose(data.projections[0], h).map == f.map
    assert compose(data.projections[1], h).map == g.map


def test_copairing_factors(Z4m, Z2):
    f = build_morphism(Z2, Z4m, [0, 2])
    data = direct_sum((Z2, Z2))
    h = copairing([f, f], data)
    assert compose(h, data.injections[0]).map == f.map


def test_pairing_without_legs_rejected(Bm):
    data = direct_sum((Bm, Bm))
    with pytest.raises(ShapeMismatch):
        pairing([], data)


def test_copairing_without_legs_rejected(Bm):
    data = direct_sum((Bm, Bm))
    with pytest.raises(ShapeMismatch):
        copairing([], data)


def test_equalizer_coequalizer_of_identity(Z4m):
    ident = identity_morphism(Z4m)
    E, inc = equalizer(ident, ident)
    assert E.size == Z4m.size
    Q, pi = coequalizer(ident, ident)
    assert Q.size == Z4m.size


def test_pullback_over_trivial_is_product(Bm, B):
    T = trivial_module(B)
    z = zero_morphism(Bm, T)
    P, p1, p2, data, inc = pullback(z, z)
    assert P.size == Bm.size * Bm.size


def test_pullback_mediator(Z4m, Z2):
    f = build_morphism(Z4m, Z2, [0, 1, 0, 1])
    P, p1, p2, data, inc = pullback(f, f)
    u = identity_morphism(Z4m)
    med = pullback_mediator(P, inc, data, u, u)
    assert compose(p1, med).map == u.map


def test_pullback_mediator_rejects_non_commuting_pair(Bm):
    ident = identity_morphism(Bm)
    P, p1, p2, data, inc = pullback(ident, ident)
    with pytest.raises(NotCommutative):
        pullback_mediator(P, inc, data, ident, zero_morphism(Bm, Bm))


def test_coequalizer_matches_congruence_oracle(Z4m):
    from semiflat.congruence import module_congruence_closure
    f = identity_morphism(Z4m)
    g = build_morphism(Z4m, Z4m, [0, 3, 2, 1])
    Q, pi = coequalizer(f, g)
    cong = module_congruence_closure(Z4m, [(x, g.map[x]) for x in range(4)])
    assert Q.size == cong.class_count


def test_constant_colimit(Bm):
    sys = constant_system(Bm, 3)
    colim = directed_colimit(sys)
    C = colim.module
    assert canonical_form(C.add, C.zero, C.action)[0] == \
        canonical_form(Bm.add, Bm.zero, Bm.action)[0]
    for leg in colim.legs:
        assert leg.surjective


def test_chain_colimit(Z4m, Z2):
    f = build_morphism(Z4m, Z2, [0, 1, 0, 1])
    sys = chain_system([f, identity_morphism(Z2)])
    colim = directed_colimit(sys)
    C = colim.module
    assert canonical_form(C.add, C.zero, C.action)[0] == \
        canonical_form(Z2.add, Z2.zero, Z2.action)[0]


def test_not_directed_rejected(Bm, Z4m):
    with pytest.raises(NotDirected):
        directed_system([Bm, Bm], [(0, 1), (1, 0)],
                        [identity_morphism(Bm), identity_morphism(Bm)])


def test_empty_directed_system_rejected(Bm):
    # a directed set is nonempty
    with pytest.raises(NotDirected):
        directed_colimit(directed_system([], [], []))
    with pytest.raises(NotDirected):
        directed_colimit(constant_system(Bm, 0))


def test_empty_inverse_system_rejected_at_construction():
    # as directed_system does; before, only inverse_limit's product refused it
    with pytest.raises(ShapeMismatch, match="at least one node"):
        inverse_system([], [], [])


def test_empty_chain_rejected():
    with pytest.raises(ShapeMismatch):
        chain_system([])


def test_directed_system_relation_without_map_rejected(Bm):
    with pytest.raises(ShapeMismatch):
        directed_system([Bm, Bm], [(0, 1)], [])


def test_directed_system_node_out_of_range_rejected(Bm):
    with pytest.raises(ShapeMismatch):
        directed_system([Bm], [(0, 3)], [identity_morphism(Bm)])


def test_inverse_system_relation_without_map_rejected(Bm):
    # a dropped relation would leave the whole product as the limit
    with pytest.raises(ShapeMismatch):
        inverse_limit(inverse_system([Bm, Bm], [(0, 1)], []))


def test_inverse_system_node_out_of_range_rejected(Bm):
    with pytest.raises(ShapeMismatch):
        inverse_system([Bm], [(0, 3)], [identity_morphism(Bm)])


def test_inverse_system_conflicting_maps_rejected(Bm):
    # keeping either map would change the limit: the zero map leaves 2 elements
    with pytest.raises(NotDirected):
        inverse_system([Bm, Bm], [(0, 1), (0, 1)],
                       [identity_morphism(Bm), zero_morphism(Bm, Bm)])


def test_inverse_system_cycle_rejected(Bm):
    with pytest.raises(NotDirected):
        inverse_system([Bm, Bm], [(0, 1), (1, 0)],
                       [identity_morphism(Bm), identity_morphism(Bm)])


def test_colimit_morphism_identity(Z4m):
    sys = constant_system(Z4m, 2)
    h = colimit_morphism(sys, sys, [identity_morphism(Z4m)] * 2)
    assert h.map == tuple(range(h.source.size))


def test_colimit_morphism_transfers_flags(Z4m, Z2):
    f = build_morphism(Z4m, Z2, [0, 1, 0, 1])
    sysX = constant_system(Z4m, 2)
    sysY = constant_system(Z2, 2)
    h = colimit_morphism(sysX, sysY, [f, f])
    assert h.surjective == f.surjective
    assert morphism_profile(h).uniform == morphism_profile(f).uniform


def test_intertwining_required(Z4m):
    neg = build_morphism(Z4m, Z4m, [0, 3, 2, 1])
    sysX = chain_system([neg])
    sysY = chain_system([identity_morphism(Z4m)])
    with pytest.raises(NotIntertwining):
        colimit_morphism(sysX, sysY, [identity_morphism(Z4m)] * 2)


def test_levelwise_exact_colimit(Z4m, Z4):
    U = subsemimodule(Z4m, (0, 2))
    sub, inc = submodule_of(Z4m, U)
    from semiflat.congruence import quotient_by_sub
    Q, pi = quotient_by_sub(Z4m, U)
    alpha = colimit_morphism(constant_system(sub, 2), constant_system(Z4m, 2),
                             [inc, inc])
    beta = colimit_morphism(constant_system(Z4m, 2), constant_system(Q, 2),
                            [pi, pi])
    assert classify_sequence(with_zero_ends([alpha, beta])).exact


def test_inverse_limit_shapes(Bm):
    sys = inverse_system([Bm, Bm], [(0, 1)], [identity_morphism(Bm)])
    L, projs = inverse_limit(sys)
    assert L.size == Bm.size
    sys2 = inverse_system([Bm, Bm], [], [])
    L2, _ = inverse_limit(sys2)
    assert L2.size == Bm.size ** 2


def test_inverse_limit_with_zero_map(Z4m, Z4):
    T = trivial_module(Z4)
    sys = inverse_system([T, Z4m], [(0, 1)], [zero_morphism(Z4m, T)])
    L, _ = inverse_limit(sys)
    assert L.size == Z4m.size  # every element is compatible with the zero map


def test_psi_bijective_on_chain(Z4m, Z2):
    f = build_morphism(Z4m, Z2, [0, 1, 0, 1])
    sys = chain_system([f])
    for X in (Z4m, Z2):
        hc = hom_colimit_comparison(X, sys)
        assert hc.injective and hc.bijective


def test_module_is_colimit_of_subsemimodules(Z4m, S3m):
    for M in (Z4m, S3m):
        sys, comparison = subsemimodule_system(M)
        assert comparison.injective and comparison.surjective


def test_subsemimodule_comparison_must_be_well_defined(monkeypatch, Z4m):
    real = limits.directed_colimit

    def collapsed(sys):
        # every member lands in class 0, which so holds distinct elements of M
        colim = real(sys)
        return Colimit(colim.system, colim.module, colim.legs,
                       tuple((0,) * len(row) for row in colim.class_of))

    monkeypatch.setattr(limits, "directed_colimit", collapsed)
    with pytest.raises(NotDirected):
        subsemimodule_system(Z4m)


@pytest.mark.parametrize("S", suite_semirings(), ids=lambda S: f"|S|={S.size}")
def test_sum_morphism_matches_checked_table(S):
    # sum_morphism skips the axiom scan; the reference table is decoded and
    # encoded element by element and passed through build_morphism
    homs = _small_homs(_pool_modules(S))[:20]
    for f1 in homs:
        for f2 in homs:
            src = direct_sum((f1.source, f2.source))
            tgt = direct_sum((f1.target, f2.target))
            table = [tgt.encode((f1.map[a], f2.map[b]))
                     for a, b in map(src.decode, range(src.module.size))]
            ref = build_morphism(src.module, tgt.module, table)
            got = sum_morphism((f1, f2), src, tgt)
            assert got == ref
            assert (got.injective, got.surjective) == (ref.injective, ref.surjective)
            assert not list(morphism_violations(src.module, tgt.module, got.map))
    f, g, h = homs[-1], homs[len(homs) // 2], homs[1]
    src = direct_sum((f.source, g.source, h.source))
    tgt = direct_sum((f.target, g.target, h.target))
    table = [tgt.encode(tuple(m.map[a] for m, a in zip((f, g, h), src.decode(x))))
             for x in range(src.module.size)]
    assert sum_morphism((f, g, h), src, tgt) == build_morphism(src.module, tgt.module, table)
    # one component per factor, each between the matching factors
    f1, f2 = next((a, b) for a in homs for b in homs
                  if (a.source, a.target) != (b.source, b.target))
    src = direct_sum((f1.source, f2.source))
    tgt = direct_sum((f1.target, f2.target))
    with pytest.raises(ShapeMismatch):
        sum_morphism((f2, f1), src, tgt)
    with pytest.raises(ShapeMismatch):
        sum_morphism((f1,), src, tgt)
    with pytest.raises(ShapeMismatch):
        sum_morphism((f1, f2), src, direct_sum((f1.target,)))


def _eventual_equality_colimit(sys):
    """The colimit built literally: the disjoint union modulo the pairs that
    agree at some common upper bound, added at their least upper bound."""
    pairs = [(j, x) for j, M in enumerate(sys.nodes) for x in range(M.size)]
    pos = {p: i for i, p in enumerate(pairs)}

    def at(m, p):
        return sys.transition(p[0], m).map[p[1]]

    related = [(i, i2) for i, p in enumerate(pairs) for i2, q in enumerate(pairs)
               if i < i2 and any(at(m, p) == at(m, q) for m in sys.upper_bounds(p[0], q[0]))]
    cong = congruence_closure(len(pairs), (), related)
    cls = cong.class_of
    reps = [pairs[r] for r in cong.representatives]

    def add(p, q):
        m = min(sys.upper_bounds(p[0], q[0]))
        return cls[pos[(m, sys.nodes[m].add[at(m, p)][at(m, q)])]]

    S = sys.nodes[0].semiring
    labels = tuple(f"{j}:{sys.nodes[j].labels[x]}" for j, x in reps)
    action = [[cls[pos[(j, sys.nodes[j].action[x][s])]] for s in range(S.size)]
              for j, x in reps]
    module = build_semimodule(S, sys.nodes[0].side, labels,
                              [[add(p, q) for q in reps] for p in reps],
                              cls[pos[(0, sys.nodes[0].zero)]], action)
    class_table = tuple(tuple(cls[pos[(j, x)]] for x in range(M.size))
                        for j, M in enumerate(sys.nodes))
    legs = tuple(build_morphism(M, module, c) for M, c in zip(sys.nodes, class_table))
    return Colimit(sys, module, legs, class_table)


def test_directed_colimit_matches_eventual_equality():
    # the images at the maximum node decide eventual equality
    systems = list(load_default_workspace().systems.values())
    systems += [subsemimodule_system(semiring_module(S))[0] for S in suite_semirings()]
    for S in suite_semirings():
        for M in enumerate_semimodules(S, 4):
            systems.append(constant_system(M, 3))
            systems += [chain_system([h, h]) for h in hom_module(M, M).maps[:5]]
    assert len(systems) == 99
    for sys in systems:
        assert directed_colimit(sys) == _eventual_equality_colimit(sys)
