from __future__ import annotations

import itertools

import pytest

from semiflat.catalog import bool_semiring, enumerate_commutative_monoids, free_module
from semiflat.errors import InvalidArgument


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
    got = enumerate_commutative_monoids(n, up_to_iso=False)
    assert list(got) == sorted(set(got))
    assert set(got) == set(_brute_force_tables(n))


def test_commutative_monoids_of_size_five():
    # 5^10 candidate tables: too many for the brute force, so pin the counts
    labelled = enumerate_commutative_monoids(5, up_to_iso=False)
    assert len(labelled) == 1486
    assert all(_associative(t) for t in labelled)
    assert len(enumerate_commutative_monoids(5)) == 78     # OEIS A058133


@pytest.mark.parametrize("rank", [-1, 1.0, 1.5, "2", None, True, False],
                         ids=repr)
def test_free_module_rank_must_be_a_non_bool_int(rank):
    with pytest.raises(InvalidArgument):
        free_module(bool_semiring(), rank)
