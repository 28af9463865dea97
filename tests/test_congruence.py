from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflat.catalog import (bool_semiring, cyclic_monoid, enumerate_semimodules,
                              free_module, sat_semiring,
                              semiring_module, suite_pool, suite_semirings,
                              trivial_module, zmod_module, zmod_semiring)
from semiflat.congruence import (Congruence, _bourne, cancellative_reflection,
                                 cancellative_sub_congruence, congruence_closure,
                                 congruence_violations, fibres,
                                 module_congruence_closure,
                                 monoid_congruence_closure,
                                 quotient_by_congruence, quotient_by_sub,
                                 quotient_cancellative, sub_congruence)
from semiflat.errors import MalformedTable, NotACongruence, SemiflatError
from semiflat.homology import hom_module, morphism_profile
from semiflat.structures import (canonical_form, check_endpoints, is_cancellative,
                                 monoid_module, morphism_violations, product_table,
                                 semimodule_violations)
from semiflat.subsets import (Subsemimodule, enumerate_subsemimodules,
                              generated_subsemimodule, is_closed_subset, submodule_of,
                              subsemimodule, subtractive_closure, subtractive_closure_set)
from semiflat.suite import (minimal_congruence_dense,
                            minimal_congruence_partitions)
from products import product_semiring


def test_empty_pairs_give_identity(Bm):
    cong = module_congruence_closure(Bm, [])
    assert cong.class_count == Bm.size


def test_bool_collapse(Bm):
    cong = module_congruence_closure(Bm, [(0, 1)])
    assert cong.class_count == 1


def test_closure_matches_oracles_on_mixed_monoid():
    table = product_table((cyclic_monoid(1, 2), cyclic_monoid(0, 2)))
    pairs = [(1, 4)]
    got = monoid_congruence_closure(table, pairs)
    dense_cls, dense_n = minimal_congruence_dense(table, pairs)
    part_cls, part_n = minimal_congruence_partitions(table, pairs)
    assert got.class_of == dense_cls == part_cls
    assert got.class_count == dense_n == part_n


def test_monoid_closure_needs_an_identity():
    with pytest.raises(MalformedTable):
        monoid_congruence_closure(((1, 1), (1, 1)), [(0, 1)])


def test_quotient_identity_congruence(Z4m):
    cong = module_congruence_closure(Z4m, [])
    Q, pi = quotient_by_congruence(Z4m, cong)
    assert Q.size == 4 and pi.surjective and pi.injective


def test_quotient_total_congruence(Z4m):
    cong = module_congruence_closure(Z4m, [(0, 1)])
    Q, _ = quotient_by_congruence(Z4m, cong)
    assert Q.size == 1


def test_quotient_z4_by_two(Z4m):
    cong = module_congruence_closure(Z4m, [(0, 2)])
    Q, _ = quotient_by_congruence(Z4m, cong)
    assert Q.size == 2
    assert canonical_form(Q.add, Q.zero)[0] == canonical_form(((0, 1), (1, 0)), 0)[0]


def test_bad_partition_rejected(Z4m):
    # gluing 0 and 1 alone is not compatible with translation
    bad = Congruence(4, (0, 0, 1, 2), 3)
    with pytest.raises(NotACongruence):
        quotient_by_congruence(Z4m, bad)


@pytest.mark.parametrize("call", [
    lambda M: subsemimodule(M, (0, 2.9)),
    lambda M: subsemimodule(M, ("2", 0)),
    lambda M: subsemimodule(M, (0, 7)),
    lambda M: subsemimodule(M, 2),
    lambda M: generated_subsemimodule(M, (-1,)),
    lambda M: generated_subsemimodule(M, (1.5,)),
    lambda M: subtractive_closure(M, (-1,)),
    lambda M: module_congruence_closure(M, [(0, -1)]),
    lambda M: module_congruence_closure(M, [(0, 1.5)]),
    lambda M: module_congruence_closure(M, [(0, 7)]),
    lambda M: module_congruence_closure(M, [(0, 1, 2)]),
    lambda M: quotient_by_congruence(M, Congruence(4, (0, 0, 0, 0), 3)),
    lambda M: quotient_by_congruence(M, Congruence(4, (0, 1, 0, 1), 1)),
    lambda M: quotient_by_congruence(M, Congruence(4, (0, 0, 5, 5), 2)),
], ids=["member-float", "member-str", "member-out-of-range", "members-not-iterable",
        "seed-negative", "seed-float", "closure-seed-negative", "pair-negative",
        "pair-float", "pair-out-of-range", "pair-of-three", "too-few-classes",
        "too-many-classes", "class-out-of-range"])
def test_bad_members_pairs_and_partitions_rejected(Z4m, call):
    # each member, pair entry and class number is an index into the carrier
    with pytest.raises(SemiflatError):
        call(Z4m)


@pytest.mark.parametrize("call", [
    lambda M: monoid_module([[0, 1], [1, 5]]),
    lambda M: monoid_module([[0, 1], [1]]),
    lambda M: monoid_module([[0, 1], [1, 0]], zero=5),
    lambda M: monoid_module([[0, 1], [1, 0]], zero=0.0),
    lambda M: monoid_congruence_closure(((0, 1), (1, 5)), [(0, 1)]),
    lambda M: monoid_congruence_closure(((0, 1), (1,)), [(0, 1)]),
    lambda M: subtractive_closure_set(M, (0, -1)),
    lambda M: subtractive_closure_set(M, (0, 7)),
    lambda M: subtractive_closure_set(M, (0, 2.0)),
    lambda M: subtractive_closure_set(M, (0, 1)),
    lambda M: is_closed_subset(M, (0, 7)),
    lambda M: is_closed_subset(M, (0, 2.0)),
    lambda M: quotient_by_sub(M, Subsemimodule(M, (0, 7))),
    lambda M: quotient_by_sub(M, Subsemimodule(M, (0, 2.0))),
    lambda M: quotient_cancellative(M, Subsemimodule(M, (0, 7))),
    lambda M: quotient_cancellative(M, Subsemimodule(M, (0, 2.0))),
], ids=["monoid-entry-out-of-range", "monoid-ragged", "monoid-zero-out-of-range",
        "monoid-zero-float", "closure-entry-out-of-range", "closure-ragged",
        "subtractive-negative", "subtractive-out-of-range", "subtractive-float",
        "subtractive-not-closed", "closed-out-of-range", "closed-float",
        "quotient-out-of-range", "quotient-float", "cancellative-out-of-range",
        "cancellative-float"])
def test_tables_and_members_are_checked_before_they_are_read(Z4m, call):
    with pytest.raises(SemiflatError):
        call(Z4m)


def test_members_may_come_as_a_set(Z4m):
    assert subsemimodule(Z4m, {0, 2}).members == (0, 2)


def test_quotient_by_sub_examples(S3m, Z4m):
    Q, pi = quotient_by_sub(S3m, subsemimodule(S3m, (0, 3)))
    assert Q.size == 1
    Q2, pi2 = quotient_by_sub(Z4m, subsemimodule(Z4m, (0, 2)))
    assert Q2.size == 2
    assert morphism_profile(pi2).uniform and pi2.surjective
    Q3, _ = quotient_by_sub(Z4m, subsemimodule(Z4m, (0,)))
    assert canonical_form(Q3.add, Q3.zero, Q3.action)[0] == \
        canonical_form(Z4m.add, Z4m.zero, Z4m.action)[0]


def test_projection_kernel_is_subtractive_closure(S3m):
    from semiflat.subsets import subtractive_closure
    L = subsemimodule(S3m, (0, 3))
    Q, pi = quotient_by_sub(S3m, L)
    kernel = tuple(x for x in range(S3m.size) if pi.map[x] == Q.zero)
    assert kernel == subtractive_closure(S3m, L).members


def test_cancellative_quotients(S3m, Z4m):
    Q, _ = quotient_cancellative(S3m, subsemimodule(S3m, (0,)))
    assert Q.size == 1
    Q2, _ = quotient_cancellative(Z4m, subsemimodule(Z4m, (0,)))
    assert Q2.size == 4 and is_cancellative(Q2)


def test_reflection_examples(Bm, S3m, Z2):
    C, cmap = cancellative_reflection(Bm)
    assert C.size == 1
    C2, _ = cancellative_reflection(S3m)
    assert C2.size == 1
    C3, cmap3 = cancellative_reflection(Z2)
    assert C3.size == 2 and cmap3.injective


def test_reflection_agrees_with_cancellative_quotient_at_zero(Bm):
    Q, _ = quotient_cancellative(Bm, subsemimodule(Bm, (0,)))
    C, _ = cancellative_reflection(Bm)
    assert Q.size == C.size == 1


def test_reflection_glues_exactly_the_padded_pairs():
    # the reflection identifies x and y iff x + w = y + w for some w
    modules = [M for S in suite_semirings() for _, M in suite_pool(S)]
    modules += [M for S in (*suite_semirings(), zmod_semiring(2))
                for M in enumerate_semimodules(S, 4)]
    for M in modules:
        _, cmap = cancellative_reflection(M)
        for x in range(M.size):
            for y in range(M.size):
                padded = any(M.add[x][w] == M.add[y][w] for w in range(M.size))
                assert (cmap.map[x] == cmap.map[y]) == padded


def test_reflection_universal_property(Z4, Bm):
    # precomposition with the reflection is a bijection onto maps into a
    # cancellative target
    Z2 = zmod_module(4, 2)
    S3 = sat_semiring(3)
    from semiflat.catalog import semiring_module as sm
    M = sm(S3)
    C, cmap = cancellative_reflection(M)
    for N in (trivial_module(S3),):
        HC = hom_module(C, N)
        HM = hom_module(M, N)
        composed = {tuple(h.map[cmap.map[x]] for x in range(M.size)) for h in HC.maps}
        assert composed == {h.map for h in HM.maps}
        assert len(HC.maps) == len(HM.maps)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.integers(1, 3), st.integers(0, 2), st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)),
                min_size=1, max_size=3))
def test_closure_matches_dense_oracle(i1, p1, i2, p2, raw_pairs):
    table = product_table((cyclic_monoid(i1, p1), cyclic_monoid(i2, p2)))
    n = len(table)
    pairs = [(a % n, b % n) for a, b in raw_pairs]
    got = monoid_congruence_closure(table, pairs)
    dense_cls, dense_n = minimal_congruence_dense(table, pairs)
    assert got.class_of == dense_cls and got.class_count == dense_n


def _pool_modules():
    return [(f"{S!r}/{name}", M) for S in suite_semirings() for name, M in suite_pool(S)]


def test_module_closure_matches_full_translate_closure():
    # generator translates plus scalar columns give the same S-congruence
    # as every translate plus scalar columns.  Every pool semiring is a sum
    # of units, so there the action adds nothing to the translates; over
    # B x B it does.
    BB = product_semiring(bool_semiring(), bool_semiring())
    modules = _pool_modules() + [("BxB/S", semiring_module(BB)),
                                 ("BxB/S2", free_module(BB, 2))]
    rng = random.Random(7)
    for name, M in modules:
        every = list(zip(*M.add)) + list(zip(*M.action))
        for _ in range(6):
            pairs = [(rng.randrange(M.size), rng.randrange(M.size))
                     for _ in range(rng.randrange(0, 3))]
            got = module_congruence_closure(M, pairs)
            assert got == congruence_closure(M.size, every, pairs), (name, pairs)


def test_sub_congruence_is_the_bourne_relation():
    for name, M in _pool_modules():
        for L in enumerate_subsemimodules(M):
            reach = [{M.add[x][l] for l in L.members} for x in range(M.size)]
            least = [min(y for y in range(M.size) if reach[x] & reach[y])
                     for x in range(M.size)]
            for x in range(M.size):
                for y in range(M.size):
                    # x + l1 = y + l2 is an equivalence
                    assert bool(reach[x] & reach[y]) == (least[x] == least[y])
            number = {r: i for i, r in enumerate(sorted(set(least)))}
            got = sub_congruence(M, L)
            assert got.class_of == tuple(number[r] for r in least), (name, L)
            assert got.class_count == len(number)
            # the quotient and the submodule skip the axiom scan; run it here
            for mod, f in (quotient_by_sub(M, L), submodule_of(M, L)):
                assert not semimodule_violations(mod.semiring, mod.side, mod.add,
                                                 mod.zero, mod.action, mod.second)
                check_endpoints(f.source, f.target)
                assert not list(morphism_violations(f.source, f.target, f.map)), (name, L)


def test_fibres_numbers_classes_by_least_member():
    assert fibres([5, 3, 5, 7]) == Congruence(4, (0, 1, 0, 2), 3)
    assert fibres([]) == Congruence(0, (), 0)


def _padded_partition(M, L):
    """x ~ y when x + l1 + w = y + l2 + w for l1, l2 in L and some w, closed
    transitively: the relation the cancellative congruence is defined by."""
    n = M.size
    reach = [{M.add[x][l] for l in L.members} for x in range(n)]
    pad = [[any(M.add[x][w] == M.add[y][w] for w in range(n)) for y in range(n)]
           for x in range(n)]
    related = [(a, b) for a in range(n) for b in range(a + 1, n)
               if any(pad[x][y] for x in reach[a] for y in reach[b])]
    return congruence_closure(n, (), related)


def test_cancellative_congruence_matches_the_padded_relation(closure_corpus):
    # the sum of all elements pads every pair that some element pads
    pairs = [(M, L) for M in closure_corpus for L in enumerate_subsemimodules(M)]
    assert len(pairs) == 2992
    for M, L in pairs:
        assert cancellative_sub_congruence(M, L) == _padded_partition(M, L), L


def test_bourne_congruence_is_the_literal_relation(closure_corpus):
    # x ~ y when x + l1 = y + l2 for l1, l2 in L, read pair by pair; closed
    # under the additive translates alone, it is closed under every action
    pairs = [(M, L) for M in closure_corpus for L in enumerate_subsemimodules(M)]
    assert len(pairs) == 2992
    for M, L in pairs:
        reach = [{M.add[x][l] for l in L.members} for x in range(M.size)]
        related = [(x, y) for x in range(M.size) for y in range(x + 1, M.size)
                   if reach[x] & reach[y]]
        got = _bourne(M, L.members)
        assert got == congruence_closure(M.size, (), related), (M, L)
        assert congruence_violations(M, got) is None, (M, L)
