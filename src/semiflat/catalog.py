"""Built-in finite semirings and semimodules used as the test universe.

Includes the table-level constructors (cyclic, saturating, modular,
free modules), per-semiring module pools for the property suites, and
bounded enumeration of commutative monoids and semimodules up to
isomorphism.
"""
from __future__ import annotations

import random
from functools import lru_cache

from . import config
from .congruence import module_congruence_closure, quotient_by_congruence
from .errors import InvalidArgument, MalformedTable, SizeBoundExceeded
from .homology import linear_maps
from .limits import direct_sum
from .structures import (LEFT, RIGHT, Morphism, SecondAction, Semimodule, Semiring, Table,
                         build_semimodule, build_semiring, canonical_form,
                         freeze_table, identity_morphism, monoid_module, product_table)
from .subsets import submodule_of, subsemimodule


def _check_int(value, least: int, what: str) -> None:
    """Refuse a bool, a non-int or an int below ``least``, before anything is built."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InvalidArgument(f"{what} must be an integer >= {least}, got {value!r}")


def bool_semiring() -> Semiring:
    return build_semiring(["0", "1"], [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)


def sat_semiring(k: int) -> Semiring:
    """Saturating arithmetic on {0..k}: a+b and a*b clipped at k, for an int k >= 1."""
    _check_int(k, 1, "k")
    n = k + 1
    labels = [str(i) for i in range(n)]
    add = [[min(a + b, k) for b in range(n)] for a in range(n)]
    mul = [[min(a * b, k) for b in range(n)] for a in range(n)]
    return build_semiring(labels, add, mul, 0, 1)


def zmod_semiring(n: int) -> Semiring:
    """Arithmetic modulo an int n >= 2."""
    _check_int(n, 2, "n")
    labels = [str(i) for i in range(n)]
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return build_semiring(labels, add, mul, 0, 1)


def free_module(S: Semiring, rank: int, side: str = RIGHT) -> Semimodule:
    """Direct power of the semiring acting on itself.

    The rank must be an integer >= 0 and not a bool, and |S|^rank is
    checked against ``MAX_PRODUCT`` on every call, before anything is
    built or handed out of the cache.
    """
    _check_int(rank, 0, "rank")
    if S.size ** rank > config.MAX_PRODUCT:
        raise SizeBoundExceeded("free module", S.size ** rank, config.MAX_PRODUCT)
    return _free_module(S, rank, side)


@lru_cache(maxsize=None)
def _free_module(S: Semiring, rank: int, side: str) -> Semimodule:
    if rank == 0:
        return trivial_module(S, side)
    if rank == 1:
        action = S.mul if side == RIGHT else tuple(zip(*S.mul))
        return build_semimodule(S, side, S.labels, S.add, S.zero, action)
    return direct_sum((_free_module(S, 1, side),) * rank).module


def semiring_module(S: Semiring, side: str = RIGHT) -> Semimodule:
    return free_module(S, 1, side)


@lru_cache(maxsize=None)
def semiring_bimodule(S: Semiring, primary: str = RIGHT) -> Semimodule:
    """S acting on itself from both sides; no commutativity needed.

    ``primary`` is the side of the main action, and ``build_semimodule``
    refuses any side but left or right.
    """
    right_table = freeze_table([[S.mul[x][t] for t in range(S.size)] for x in range(S.size)])
    left_table = freeze_table([[S.mul[s][x] for s in range(S.size)] for x in range(S.size)])
    if primary == RIGHT:
        second = SecondAction(S, LEFT, left_table)
        return build_semimodule(S, RIGHT, S.labels, S.add, S.zero, right_table, second)
    second = SecondAction(S, RIGHT, right_table)
    return build_semimodule(S, primary, S.labels, S.add, S.zero, left_table, second)


@lru_cache(maxsize=None)
def trivial_module(S: Semiring, side: str = RIGHT) -> Semimodule:
    return build_semimodule(S, side, ["0"], [[0]], 0, [[0] * S.size])


def zmod_module(n: int, d: int, side: str = RIGHT) -> Semimodule:
    """Z/d as a module over the modular semiring Z/n; requires d | n.

    n >= 2 and d >= 1 must be integers and not bools, checked on every
    call, before anything is handed out of the cache.
    """
    _check_int(n, 2, "n")
    _check_int(d, 1, "d")
    if n % d != 0:
        raise MalformedTable(f"{d} does not divide {n}")
    return _zmod_module(n, d, side)


@lru_cache(maxsize=None)
def _zmod_module(n: int, d: int, side: str) -> Semimodule:
    S = zmod_semiring(n)
    labels = [str(i) for i in range(d)]
    add = [[(a + b) % d for b in range(d)] for a in range(d)]
    action = [[(a * s) % d for s in range(n)] for a in range(d)]
    return build_semimodule(S, side, labels, add, 0, action)


def chain_module(k: int, side: str = RIGHT) -> Semimodule:
    """The k-element chain semilattice 0 < 1 < ... < k-1 over the Boolean semiring, k >= 1."""
    _check_int(k, 1, "k")
    return _chain_module(k, side)


@lru_cache(maxsize=None)
def _chain_module(k: int, side: str) -> Semimodule:
    S = bool_semiring()
    labels = [str(i) for i in range(k)]
    add = [[max(a, b) for b in range(k)] for a in range(k)]
    action = [[0, a] for a in range(k)]
    return build_semimodule(S, side, labels, add, 0, action)


def cyclic_monoid(index: int, period: int) -> Table:
    """Monogenic commutative monoid table with the given index >= 0 and period >= 1."""
    _check_int(index, 0, "index")
    _check_int(period, 1, "period")
    n = index + period

    def red(k: int) -> int:
        return k if k < n else index + (k - index) % period

    return freeze_table([[red(a + b) for b in range(n)] for a in range(n)])


def cancellative_targets() -> tuple[Semimodule, ...]:
    """All cancellative commutative monoids of at most 4 elements, i.e. abelian groups."""
    tables = [cyclic_monoid(0, n) for n in range(1, 5)]
    tables.append(product_table([cyclic_monoid(0, 2)] * 2))
    return tuple(monoid_module(t) for t in tables)


# ---------------------------------------------------------------------------
# Named catalogs and suite pools.
# ---------------------------------------------------------------------------

def sat_quotient(k: int, a: int, b: int) -> Semimodule:
    """Quotient of the saturating semiring module by gluing a ~ b, for ints 0 <= a, b <= k."""
    _check_int(k, 1, "k")
    for value, what in ((a, "a"), (b, "b")):
        _check_int(value, 0, what)
        if value > k:
            raise InvalidArgument(f"{what} must be an integer <= {k}, got {value!r}")
    M = semiring_module(sat_semiring(k))
    cong = module_congruence_closure(M, [(a, b)])
    Q, _ = quotient_by_congruence(M, cong)
    return Q


@lru_cache(maxsize=None)
def suite_pool(S: Semiring) -> tuple[tuple[str, Semimodule], ...]:
    """Small per-semiring module pool (sizes <= 4) for the property suites."""
    if S == bool_semiring():
        return (("TRIV", trivial_module(S)),
                ("S", semiring_module(S)),
                ("S2", free_module(S, 2)),
                ("CHAIN3", chain_module(3)))
    if S == sat_semiring(3):
        M = semiring_module(S)
        sub03, _ = submodule_of(M, subsemimodule(M, (0, 3)))
        return (("TRIV", trivial_module(S)),
                ("S", M),
                ("U03", sub03),
                ("Q12", sat_quotient(3, 1, 2)))
    if S == zmod_semiring(4):
        return (("TRIV", trivial_module(S)),
                ("S", semiring_module(S)),
                ("Z2", zmod_module(4, 2)),
                ("Z2xZ2", direct_sum((zmod_module(4, 2),) * 2).module))
    if S == zmod_semiring(2):
        return (("TRIV", trivial_module(S)),
                ("S", semiring_module(S)),
                ("SxS", free_module(S, 2)))
    return (("TRIV", trivial_module(S)),
            ("S", semiring_module(S)),
            ("S2", free_module(S, 2)))


def suite_semirings() -> tuple[Semiring, ...]:
    return bool_semiring(), sat_semiring(3), zmod_semiring(4)


# ---------------------------------------------------------------------------
# Bounded enumeration up to isomorphism.
# ---------------------------------------------------------------------------

def _monoid_tables(n: int):
    """Every commutative monoid table on 0..n-1 with identity 0.

    Fills the upper triangle cell by cell (-1 marks a cell not yet
    filled) and abandons a partial table as soon as an instance of
    (ab)c = a(bc) whose four products are all filled fails, so a complete
    table has passed every triple.
    """
    t = [[-1] * n for _ in range(n)]
    for a in range(n):
        t[0][a] = t[a][0] = a
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    values = range(n)

    def consistent() -> bool:
        for ta in t:
            for b in values:
                ab = ta[b]
                if ab < 0:
                    continue
                tab, tb = t[ab], t[b]
                for c in values:
                    bc, left = tb[c], tab[c]
                    if bc >= 0 and left >= 0 and ta[bc] >= 0 and left != ta[bc]:
                        return False
        return True

    def fill(k: int):
        if k == len(cells):
            yield freeze_table(t)
            return
        a, b = cells[k]
        for v in values:
            t[a][b] = t[b][a] = v
            if consistent():
                yield from fill(k + 1)
        t[a][b] = t[b][a] = -1

    return fill(0)


def _check_enumerated_size(n, what: str) -> None:
    """Refuse a size that is not a non-bool int in 1..MAX_ENUMERATED_SIZE, before any cache."""
    _check_int(n, 1, f"the size of {what}")
    if n > config.MAX_ENUMERATED_SIZE:
        raise SizeBoundExceeded(what, n, config.MAX_ENUMERATED_SIZE)


def enumerate_commutative_monoids(n: int) -> tuple[Table, ...]:
    """The commutative monoids on n elements up to isomorphism, canonical and sorted."""
    _check_enumerated_size(n, "commutative monoid enumeration")
    return _commutative_monoids(n)


@lru_cache(maxsize=None)
def _commutative_monoids(n: int) -> tuple[Table, ...]:
    return tuple(sorted({canonical_form(t, 0)[0][0] for t in _monoid_tables(n)}))


@lru_cache(maxsize=None)
def _monoid_endomorphisms(t: Table) -> tuple[tuple[int, ...], ...]:
    """The endomorphisms of the monoid t, in lexicographic order.

    Cached, since every semiring's enumeration asks for the same tables.
    """
    M = monoid_module(t)
    return tuple(linear_maps(M, M))


def enumerate_semimodules(S: Semiring, max_size: int) -> tuple[Semimodule, ...]:
    """All right S-semimodules with at most max_size elements, up to isomorphism."""
    _check_enumerated_size(max_size, "semimodule enumeration")
    return _semimodules(S, max_size)


@lru_cache(maxsize=None)
def _semimodules(S: Semiring, max_size: int) -> tuple[Semimodule, ...]:
    out: list[Semimodule] = []
    for n in range(1, max_size + 1):
        labels = tuple(f"m{i}" for i in range(n))
        for add in enumerate_commutative_monoids(n):
            for action in _actions(S, add, _monoid_endomorphisms(add)):
                X, _ = class_representative(
                    Semimodule(S, RIGHT, labels, add, 0, action))
                if not any(X is Y for Y in out):
                    out.append(X)
    return tuple(out)


def _actions(S: Semiring, add: Table, endos: tuple[tuple[int, ...], ...]):
    """Every right S-action on the monoid add whose scalar maps are endomorphisms.

    Assigns an endomorphism to each scalar other than 0 and 1 in
    ``itertools.product`` order, depth first, and checks each (s, t)
    constraint, x(st) = (xs)t and x(s+t) = xs + xt, as soon as its four
    scalars are assigned, so a failing prefix is abandoned whole.
    """
    n = len(add)
    fs: list[tuple[int, ...] | None] = [None] * S.size
    fs[S.zero] = tuple(0 for _ in range(n))
    fs[S.one] = tuple(range(n))
    free = [s for s in range(S.size) if s not in (S.zero, S.one)]
    depth = {s: k for k, s in enumerate(free)}
    due: list[list[tuple[int, int]]] = [[] for _ in range(len(free) + 1)]
    for s in range(S.size):
        for t in range(S.size):
            four = (s, t, S.mul[s][t], S.add[s][t])
            due[max(depth.get(u, -1) for u in four) + 1].append((s, t))

    def holds(s: int, t: int) -> bool:
        fs_s, fs_t, fs_st, fs_sum = fs[s], fs[t], fs[S.mul[s][t]], fs[S.add[s][t]]
        return all(fs_st[x] == fs_t[fs_s[x]] and fs_sum[x] == add[fs_s[x]][fs_t[x]]
                   for x in range(n))

    def fill(k: int):
        if not all(holds(s, t) for s, t in due[k]):
            return
        if k == len(free):
            yield freeze_table([[fs[s][x] for s in range(S.size)] for x in range(n)])
            return
        for f in endos:
            fs[free[k]] = f
            yield from fill(k + 1)

    return fill(0)


_REPRESENTATIVES: dict[tuple, Semimodule] = {}


def class_representative(M: Semimodule) -> tuple[Semimodule, Morphism]:
    """(X, sigma): the canonical module of M's isomorphism class and an iso sigma: X -> M.

    X has the tables of ``canonical_form`` over M's semiring and side,
    labels m0..m{n-1}, and is the one object made for its class in this
    process (so it is the enumerated module of ``enumerate_semimodules``
    for that class).  A module with a second action or with more than
    ``MAX_ENUMERATED_SIZE`` elements, beyond the canonical forms the
    enumerators compute, is its own representative, with the identity.
    """
    if M.second is not None or M.size > config.MAX_ENUMERATED_SIZE:
        return M, identity_morphism(M)
    key, relabelling = canonical_form(M.add, M.zero, M.action)
    X = _REPRESENTATIVES.get((M.semiring, M.side, key))
    if X is None:
        # a relabelled copy of M, so no axiom scan
        X = Semimodule(M.semiring, M.side, tuple(f"m{i}" for i in range(M.size)),
                       key[0], 0, key[1])
        _REPRESENTATIVES[M.semiring, M.side, key] = X
    return X, Morphism(X, M, relabelling)


# ---------------------------------------------------------------------------
# Corpus of commutative monoids for the congruence-closure oracle.
# ---------------------------------------------------------------------------

def oracle_corpus():
    """The closure oracle's 50 deterministic (table, pairs) cases, tables of size <= 12."""
    rng = random.Random(2024)
    tables: list[Table] = []
    for index in range(0, 4):
        for period in range(1, 7):
            if 2 <= index + period <= 12:
                tables.append(cyclic_monoid(index, period))
    small = [cyclic_monoid(i, p) for i in range(0, 3) for p in range(1, 4)
             if 2 <= i + p <= 4]
    for t1 in small:
        for t2 in small:
            prod = product_table((t1, t2))
            if len(prod) <= 12:
                tables.append(prod)
    tables.sort(key=lambda t: (len(t), t))
    cases = []
    i = 0
    while len(cases) < 50:
        t = tables[i % len(tables)]
        n = len(t)
        npairs = rng.randrange(1, 4)
        pairs = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(npairs))
        cases.append((t, pairs))
        i += 1
    return cases
