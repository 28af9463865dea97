from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflat.catalog import (bool_semiring, product_semiring, semiring_module,
                              suite_pool, suite_semirings, trivial_module)
from semiflat.congruence import quotient_by_sub
from semiflat.errors import NotASubsemimodule
from semiflat.structures import LEFT, RIGHT, SecondAction, build_semimodule
from semiflat.subsets import (Subsemimodule, additive_generators,
                              enumerate_subsemimodules,
                              generated_subsemimodule, minimal_generating_set,
                              subsemimodule, subtractive_closure,
                              uniform_subsemimodules, submodule_of)


def test_subsemimodules_of_bool(Bm):
    subs = enumerate_subsemimodules(Bm)
    assert [list(u.members) for u in subs] == [[0], [0, 1]]


def test_subsemimodules_of_zmod4(Z4m):
    subs = enumerate_subsemimodules(Z4m)
    assert [list(u.members) for u in subs] == [[0], [0, 2], [0, 1, 2, 3]]


def test_subsemimodules_of_trivial(Z4):
    T = trivial_module(Z4)
    assert [list(u.members) for u in enumerate_subsemimodules(T)] == [[0]]


def test_closure_saturates_in_sat3(S3m):
    assert subtractive_closure(S3m, (0, 3)).members == (0, 1, 2, 3)


def test_closure_of_everything_is_identity(S3m):
    assert subtractive_closure(S3m, tuple(range(4))).members == (0, 1, 2, 3)


def test_closure_of_zero_in_group(Z4m):
    assert subtractive_closure(Z4m, (0,)).members == (0,)


def test_generated_subsemimodule(Z4m):
    assert generated_subsemimodule(Z4m, (1,)).members == (0, 1, 2, 3)
    assert generated_subsemimodule(Z4m, ()).members == (0,)


def test_minimal_generating_set(Bm, Z4m):
    assert minimal_generating_set(Bm) == (1,)
    assert minimal_generating_set(Z4m) == (1,)


def test_additive_generators(S3m):
    assert additive_generators(S3m) == (1,)


def test_not_closed_subset_rejected(Z4m):
    with pytest.raises(NotASubsemimodule):
        subsemimodule(Z4m, (0, 1))


def test_subset_left_by_the_second_action_rejected():
    # B x B acting from the left on itself, with the forced right action of
    # B as the primary one: every subset holding 0 is closed under B, but
    # (0, 3) is not closed under B x B, since (1, 0)(1, 1) = (1, 0)
    B = bool_semiring()
    BB = product_semiring(B, B)
    X = semiring_module(BB)
    A = build_semimodule(B, RIGHT, X.labels, X.add, X.zero,
                         [[X.zero, x] for x in range(X.size)],
                         SecondAction(BB, LEFT, X.action))
    with pytest.raises(NotASubsemimodule):
        subsemimodule(A, (0, 3))
    with pytest.raises(NotASubsemimodule):
        quotient_by_sub(A, Subsemimodule(A, (0, 3)))
    subs = enumerate_subsemimodules(A)
    assert [U.members for U in subs] == [(0,), (0, 1), (0, 2), (0, 1, 2, 3)]
    for U in subs:
        sub, inc = submodule_of(A, subsemimodule(A, U.members))
        assert sub.second is not None and inc.injective


def test_closure_properties_on_catalog():
    # extensive, monotone, idempotent over every subsemimodule of the pools
    for S in suite_semirings():
        for _, M in suite_pool(S):
            subs = enumerate_subsemimodules(M)
            closures = {U.members: subtractive_closure(M, U).members for U in subs}
            for U in subs:
                cl = closures[U.members]
                assert set(U.members) <= set(cl)
                assert subtractive_closure(M, subsemimodule(M, cl)).members == cl
                for V in subs:
                    if set(U.members) <= set(V.members):
                        assert set(cl) <= set(closures[V.members])


def test_uniform_subsemimodules_are_subtractive(Z4m):
    uniform = uniform_subsemimodules(Z4m)
    assert [list(u.members) for u in uniform] == [[0], [0, 2], [0, 1, 2, 3]]


def test_submodule_inclusion_is_injective(Z4m):
    subs = enumerate_subsemimodules(Z4m)
    sub, inc = submodule_of(Z4m, subs[1])
    assert inc.injective and sub.size == 2


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 3), max_size=4))
def test_generated_contains_seed(seed):
    from semiflat.catalog import zmod_semiring, semiring_module
    M = semiring_module(zmod_semiring(4))
    got = generated_subsemimodule(M, tuple(sorted(seed)))
    assert set(seed) <= set(got.members)
    assert 0 in got.members
