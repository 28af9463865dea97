"""Congruence closure, quotients, and the cancellative reflection.

Every partition in the package is numbered by one rule, ``fibres``: the
classes of equal values of a map, numbered by least member.  Where a
partition is the least equivalence containing some seed pairs and closed
under a list of unary maps, one union-find engine computes it.  Each
merge of a pair (a, b) schedules only the images (f(a), f(b)) under
those maps, so chains of merges are mapped term by term.  On a
commutative monoid a partition closed under translation by each
generator is closed under translation by every element, since every
element is a sum of generators; the congruence closures therefore pass
the generator translates (plus the scalar action columns for
S-congruences other than Bourne ones) instead of whole addition
tables.  The cancellative congruence and directed colimits are fibres
of a single map, so they need no closure.
"""
from __future__ import annotations

from collections import deque
from functools import lru_cache

from .errors import MalformedTable, NotACongruence, NotASubsemimodule
from .record import Record
from .structures import (Morphism, Semimodule, Table, _index, _square_table,
                         additive_generators, is_cancellative, monoid_generators, transport)
from .subsets import Subsemimodule, is_closed_subset, subsemimodule, subtractive_closure


class Congruence(Record):
    """Partition of a carrier, classes numbered by least member."""

    size: int
    class_of: tuple[int, ...]
    class_count: int

    def _hash_key(self):
        return (self.size, self.class_of)

    def __repr__(self):
        return f"Congruence({self.size} elements, {self.class_count} classes)"

    @property
    def representatives(self) -> tuple[int, ...]:
        reps = [-1] * self.class_count
        for x in range(self.size - 1, -1, -1):
            reps[self.class_of[x]] = x
        return tuple(reps)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.class_count)]
        for x in range(self.size):
            out[self.class_of[x]].append(x)
        return tuple(tuple(c) for c in out)


def _pair(p, size: int) -> tuple[int, int]:
    try:
        a, b = p
    except (TypeError, ValueError):
        raise MalformedTable(f"a pair must have two entries, got {p!r}") from None
    return _index(a, size, "pair"), _index(b, size, "pair")


def fibres(values) -> Congruence:
    """range(len(values)) split into classes of equal values, numbered by least member."""
    number = {v: k for k, v in enumerate(dict.fromkeys(values))}
    return Congruence(len(values), tuple(map(number.__getitem__, values)), len(number))


def congruence_closure(size: int, maps, pairs) -> Congruence:
    """Least equivalence on range(size) containing the pairs and closed under the maps.

    ``maps[j][x]`` is the image of x under the j-th unary map.  Roots are
    always the least member of their class, so classes come out numbered
    by least member.
    """
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = deque(_pair(p, size) for p in pairs)
    while queue:
        a, b = queue.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        for f in maps:
            x, y = f[a], f[b]
            if find(x) != find(y):
                queue.append((x, y))
    return fibres([find(x) for x in range(size)])


def module_congruence_closure(M: Semimodule, pairs) -> Congruence:
    """Least S-congruence containing the pairs.

    Closed under the additive generator translates (rows equal columns,
    the addition being commutative) and the scalar action columns.
    """
    maps = [M.add[g] for g in additive_generators(M)]
    maps.extend(zip(*M.action))
    return congruence_closure(M.size, maps, pairs)


def monoid_congruence_closure(add: Table, pairs) -> Congruence:
    """Least congruence on a commutative monoid table containing the pairs."""
    add = _square_table(add)
    n = len(add)
    zero = next((e for e in range(n) if all(add[e][x] == x for x in range(n))), None)
    if zero is None:
        raise MalformedTable("monoid table has no identity element")
    return congruence_closure(n, [add[g] for g in monoid_generators(add, zero)], pairs)


def congruence_violations(M: Semimodule, cong: Congruence):
    """First witness that a partition is not an S-congruence, or None."""
    cls = cong.class_of
    for group in cong.classes():
        rep = group[0]
        for b in group[1:]:
            for c in range(M.size):
                if cls[M.add[rep][c]] != cls[M.add[b][c]]:
                    return (rep, b, c, "addition")
            for s in range(M.semiring.size):
                if cls[M.action[rep][s]] != cls[M.action[b][s]]:
                    return (rep, b, s, "action")
            if M.second is not None:
                for t in range(M.second.semiring.size):
                    if cls[M.second.table[rep][t]] != cls[M.second.table[b][t]]:
                        return (rep, b, t, "second action")
    return None


def quotient_by_congruence(M: Semimodule, cong: Congruence) -> tuple[Semimodule, Morphism]:
    """Quotient module and its class projection.

    Only the partition is checked: the quotient of a valid module by a
    congruence is a valid module, and the class map is linear, so neither
    gets an axiom scan.
    """
    if cong.size != M.size:
        raise NotACongruence((cong.size, M.size), "partition has the wrong carrier")
    first: dict[int, int] = {}      # each class number, as its least member comes
    if not (len(cong.class_of) == M.size
            and all(type(c) is int and first.setdefault(c, len(first)) == c
                    for c in cong.class_of) and len(first) == cong.class_count):
        raise NotACongruence(cong.class_of, "classes are not numbered 0.. by least member")
    witness = congruence_violations(M, cong)
    if witness is not None:
        raise NotACongruence(witness[:3], witness[3])
    reps = cong.representatives
    cls = cong.class_of
    Q = transport(M, reps, cls, (f"[{M.labels[r]}]" for r in reps))
    return Q, Morphism(M, Q, cls)


@lru_cache(maxsize=None)
def _bourne(M: Semimodule, members: tuple[int, ...]) -> Congruence:
    """x ~ y when x + l1 = y + l2 for members l1, l2 of a submonoid.

    The least congruence gluing the members to zero, since any such one
    relates x ~ x + l1 = y + l2 ~ y; for a subsemimodule an S-congruence.
    """
    maps = [M.add[g] for g in additive_generators(M)]
    return congruence_closure(M.size, maps, [(l, M.zero) for l in members])


def sub_congruence(M: Semimodule, L: Subsemimodule) -> Congruence:
    """The Bourne congruence of a subsemimodule L of M."""
    if L.parent != M or not is_closed_subset(M, L.members):
        raise NotASubsemimodule("quotient requires a subsemimodule of the parent")
    return _bourne(M, tuple(L.members))


def cancellative_sub_congruence(M: Semimodule, L: Subsemimodule) -> Congruence:
    """x ~ y when x + l1 + w = y + l2 + w; the quotient is cancellative.

    The sum z of all elements is w + r for every w, so z serves as every
    padding element: x ~ y exactly when x + z and y + z are Bourne-related.
    """
    bourne = sub_congruence(M, L).class_of
    z = M.zero
    for x in range(M.size):
        z = M.add[z][x]
    return fibres([bourne[M.add[x][z]] for x in range(M.size)])


def quotient_by_sub(M: Semimodule, L: Subsemimodule) -> tuple[Semimodule, Morphism]:
    """Quotient by the congruence induced by a subsemimodule.

    The projection is surjective and uniform, and its kernel is the
    subtractive closure of L; both facts are asserted.
    """
    cong = sub_congruence(M, L)
    Q, pi = quotient_by_congruence(M, cong)
    zero_class = [x for x in range(M.size) if pi.map[x] == Q.zero]
    assert tuple(zero_class) == subtractive_closure(M, L).members, \
        "projection kernel must be the subtractive closure"
    return Q, pi


def quotient_cancellative(M: Semimodule, L: Subsemimodule) -> tuple[Semimodule, Morphism]:
    cong = cancellative_sub_congruence(M, L)
    Q, pi = quotient_by_congruence(M, cong)
    assert is_cancellative(Q)
    return Q, pi


@lru_cache(maxsize=None)
def cancellative_reflection(M: Semimodule) -> tuple[Semimodule, Morphism]:
    """Universal cancellative quotient with its surjection: the one by L = {0}."""
    return quotient_cancellative(M, subsemimodule(M, (M.zero,)))

