from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflat import catalog, config
from semiflat.catalog import (bool_semiring, class_representative, enumerate_semimodules,
                              sat_quotient, sat_semiring, semiring_bimodule, semiring_module,
                              suite_pool, suite_semirings, trivial_module, zmod_semiring)
from semiflat.congruence import quotient_by_sub
from semiflat.errors import NotASubsemimodule
from semiflat.homology import hom_module
from semiflat.limits import direct_sum
from semiflat.structures import (LEFT, RIGHT, SecondAction, additive_generators, as_left,
                                 build_semimodule, greedy_generators, monoid_generators, span)
from semiflat.subsets import (Subsemimodule, additive_expressions, enumerate_subsemimodules,
                              generated_subsemimodule, module_expressions,
                              module_generators, subsemimodule, subtractive_closure,
                              subtractive_closure_set, uniform_subsemimodules, submodule_of)
from semiflat.tensor import tensor_product
from products import product_semiring


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
    assert module_generators(Bm) == (1,)
    assert module_generators(Z4m) == (1,)


def test_additive_generators(S3m):
    assert additive_generators(S3m) == (1,)
    # one memo, kept on the module, answers for the package
    assert additive_generators(S3m) is S3m.__dict__["_gens"]


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


def _fixpoint_closure(M, members):
    """The subtractive closure as a least fixed point: add each x with
    x + y1 in the set for some y1 in the set, until nothing is added."""
    cur = set(members) | {M.zero}
    while True:
        nxt = cur | {x for x in range(M.size) if any(M.add[x][y1] in cur for y1 in cur)}
        if nxt == cur:
            return tuple(sorted(cur))
        cur = nxt


def test_one_pass_closure_matches_the_fixpoint(closure_corpus):
    # over a closed set the one pass is already subtractive
    for M in closure_corpus:
        for U in enumerate_subsemimodules(M):
            assert subtractive_closure_set(M, U.members) == _fixpoint_closure(M, U.members), U


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


# ---------------------------------------------------------------------------
# The generation engine against the seven loops it replaced.  Each reference
# below is the earlier implementation with its body unchanged; the names
# carry a ref_ prefix and the caches are dropped.
# ---------------------------------------------------------------------------

def ref_additive_span(add, zero, seed):
    """Closure of a subset under the monoid addition alone."""
    span = {zero}
    frontier = list(seed)
    span.update(frontier)
    while frontier:
        x = frontier.pop()
        for y in list(span):
            z = add[x][y]
            if z not in span:
                span.add(z)
                frontier.append(z)
    return frozenset(span)


def ref_monoid_generators(add, zero):
    """Greedy minimal generating set of a commutative monoid table, in index order."""
    gens = []
    span = ref_additive_span(add, zero, ())
    for x in range(len(add)):
        if x not in span:
            gens.append(x)
            span = ref_additive_span(add, zero, gens)
    return tuple(gens)


def ref_generated_subsemimodule(M, seed):
    """Least subsemimodule containing the seed."""
    span = {M.zero}
    frontier = []
    for x in seed:
        if x not in span:
            span.add(x)
            frontier.append(x)
    while frontier:
        x = frontier.pop()
        new = [M.add[x][y] for y in list(span)]
        new.extend(M.action[x][s] for s in range(M.semiring.size))
        if M.second is not None:
            new.extend(M.second.table[x][t] for t in range(M.second.semiring.size))
        for z in new:
            if z not in span:
                span.add(z)
                frontier.append(z)
    return Subsemimodule(M, tuple(sorted(span)))


def ref_primary_span(M, seed):
    span = {M.zero}
    frontier = [x for x in seed if x not in span]
    span.update(frontier)
    while frontier:
        x = frontier.pop()
        new = [M.add[x][y] for y in list(span)]
        new.extend(M.action[x][s] for s in range(M.semiring.size))
        for z in new:
            if z not in span:
                span.add(z)
                frontier.append(z)
    return frozenset(span)


def ref_module_generators(M):
    gens = []
    span = ref_primary_span(M, ())
    for x in range(M.size):
        if x not in span:
            gens.append(x)
            span = ref_primary_span(M, gens)
    return tuple(gens)


def ref_module_expressions(M, gens):
    exprs = {M.zero: ()}
    frontier = [M.zero]
    steps = [(gi, s) for gi in range(len(gens)) for s in range(M.semiring.size)]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, s in steps:
                y = M.add[x][M.action[gens[gi]][s]]
                if y not in exprs:
                    exprs[y] = exprs[x] + ((gi, s),)
                    nxt.append(y)
        frontier = nxt
    if len(exprs) != M.size:
        raise NotASubsemimodule("generators do not span the module")
    return tuple(exprs[x] for x in range(M.size))


def ref_additive_expressions(M):
    gens = ref_monoid_generators(M.add, M.zero)
    k = len(gens)
    exprs = {M.zero: (0,) * k}
    frontier = [M.zero]
    while frontier:
        nxt = []
        for x in frontier:
            vx = exprs[x]
            for gi in range(k):
                y = M.add[x][gens[gi]]
                if y not in exprs:
                    exprs[y] = vx[:gi] + (vx[gi] + 1,) + vx[gi + 1:]
                    nxt.append(y)
        frontier = nxt
    return tuple(exprs[x] for x in range(M.size))


def _engine_corpus():
    """The suite pools, every module of size <= 4 over BOOL, ZMOD2 and ZMOD4,
    the Hom and tensor modules of the pool pairs, and the Boolean bimodule."""
    pools = [[M for _, M in suite_pool(S)] for S in (*suite_semirings(), zmod_semiring(2))]
    out = [M for pool in pools for M in pool]
    for S in (bool_semiring(), zmod_semiring(2), zmod_semiring(4)):
        out.extend(enumerate_semimodules(S, 4))
    for pool in pools:
        for M in pool:
            for N in pool:
                out.append(hom_module(M, N).module)
                out.append(tensor_product(M, as_left(N)).module)
    out.append(semiring_bimodule(bool_semiring()))
    return out


def test_generation_engine_matches_the_loops_it_replaced():
    corpus = _engine_corpus()
    assert len(corpus) == 142
    for M in corpus:
        seeds = [(x,) for x in range(M.size)]
        seeds += [(x, y) for x in range(M.size) for y in range(x + 1, M.size)]
        for seed in seeds:
            assert generated_subsemimodule(M, seed) == ref_generated_subsemimodule(M, seed)
            assert span(M.add, M.zero, seed) == ref_additive_span(M.add, M.zero, seed)
            assert span(M.add, M.zero, seed, (M.action,)) == ref_primary_span(M, seed)
        # a least generating set, not the greedy one: no larger than the
        # greedy set, no smaller set spans, and it is the first spanning set
        # of its size in combinations order
        gens = module_generators(M)
        assert len(gens) <= len(ref_module_generators(M))
        assert all(len(ref_primary_span(M, c)) < M.size for k in range(len(gens))
                   for c in itertools.combinations(range(M.size), k))
        assert gens == next(c for c in itertools.combinations(range(M.size), len(gens))
                            if len(ref_primary_span(M, c)) == M.size)
        assert module_expressions(M) == ref_module_expressions(M, gens)
        assert additive_generators(M) == ref_monoid_generators(M.add, M.zero)
        assert additive_expressions(M) == ref_additive_expressions(M)
    tables = [t for n in range(1, 5) for t in sorted(catalog._monoid_tables(n))]
    for t in tables:
        assert monoid_generators(t, 0) == ref_monoid_generators(t, 0)


def test_generators_above_the_search_bound_are_the_greedy_set():
    # the least-set search runs up to MAX_SUBSET_MODULE elements; above it
    # the greedy set stands in, here seven generators where three span
    X = class_representative(semiring_module(sat_semiring(3)))[0]
    M = direct_sum((X, X, sat_quotient(3, 2, 3))).module
    assert M.size == 48 > config.MAX_SUBSET_MODULE
    greedy = greedy_generators(M.size, lambda seed: span(M.add, M.zero, seed, (M.action,)))
    assert module_generators(M) == greedy == ref_module_generators(M)
    assert len(greedy) == 7 and len(ref_primary_span(M, (1, 9, 36))) == M.size
