"""Subsemimodules: enumeration, generation, subtractive closure, generators."""
from __future__ import annotations

import itertools
from functools import lru_cache

from . import config
from .errors import MalformedTable, NotASubsemimodule, SizeBoundExceeded
from .record import Record
from .structures import (Morphism, Semimodule, Table, additive_generators, _index,
                         greedy_generators, shortest_words, span, transport)


class Subsemimodule(Record):
    parent: Semimodule
    members: tuple[int, ...]

    def __repr__(self):
        return f"Subsemimodule({list(self.members)} of {self.parent.size})"


def _actions(M: Semimodule) -> tuple[Table, ...]:
    """The primary action table, and the second one of a bisemimodule."""
    return (M.action,) if M.second is None else (M.action, M.second.table)


def is_closed_subset(M: Semimodule, members) -> bool:
    """Whether members hold zero and are closed under addition and every action."""
    s = _members(M, members)
    if M.zero not in s:
        return False
    actions = _actions(M)
    for a in s:
        row = M.add[a]
        for b in s:
            if row[b] not in s:
                return False
        for table in actions:
            if not s.issuperset(table[a]):
                return False
    return True


def _members(M: Semimodule, xs) -> frozenset[int]:
    """xs as elements of M, each read by the rule of ``freeze_table``."""
    try:
        return frozenset([_index(x, M.size, "member") for x in xs])
    except TypeError:
        raise MalformedTable(f"members must be iterable, got {xs!r}") from None


def subsemimodule(M: Semimodule, members) -> Subsemimodule:
    members = tuple(sorted(_members(M, members)))
    if not is_closed_subset(M, members):
        raise NotASubsemimodule(f"{list(members)} is not closed in the parent")
    return Subsemimodule(M, members)


def generated_subsemimodule(M: Semimodule, seed) -> Subsemimodule:
    """Least subsemimodule containing the seed."""
    seed = _members(M, seed)
    return Subsemimodule(M, tuple(sorted(span(M.add, M.zero, seed, _actions(M)))))


@lru_cache(maxsize=None)
def enumerate_subsemimodules(M: Semimodule) -> tuple[Subsemimodule, ...]:
    """All subsemimodules, sorted by size then lexicographic member order."""
    if M.size > config.MAX_SUBSET_MODULE:
        raise SizeBoundExceeded("subsemimodule enumeration", M.size, config.MAX_SUBSET_MODULE)
    found = {generated_subsemimodule(M, ()).members}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        for x in range(M.size):
            if x in base:
                continue
            bigger = generated_subsemimodule(M, base + (x,)).members
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    ordered = sorted(found, key=lambda ms: (len(ms), ms))
    return tuple(Subsemimodule(M, ms) for ms in ordered)


def subtractive_closure_set(M: Semimodule, members) -> tuple[int, ...]:
    """The least subtractive set holding the members, which must be closed in M."""
    members = _members(M, members)
    if not is_closed_subset(M, members):
        raise NotASubsemimodule(f"{sorted(members)} is not closed in the parent")
    return _subtractive_closure(M, members)


@lru_cache(maxsize=None)
def _subtractive_closure(M: Semimodule, members: frozenset) -> tuple[int, ...]:
    """{x : x + y in S for some y in S} for S closed under addition and holding 0.

    This set is already subtractive: if x + y' and y' are in it, with
    x + y' + s1 and y' + s2 in S, then x + w is in S for w = y' + s1 + s2.
    The exactness checks close the same images in the same modules many
    times over, so each (module, subset) is closed once; the module's hash
    is kept on it, where a table's would be recomputed per lookup.
    """
    return tuple(x for x, row in enumerate(M.add)
                 if x in members or any(row[y] in members for y in members))


def subtractive_closure(M: Semimodule, Y) -> Subsemimodule:
    """Subtractive closure of a subset; the subset is first completed."""
    if isinstance(Y, Subsemimodule):
        base = Y.members
    else:
        base = generated_subsemimodule(M, Y).members
    closed = subtractive_closure_set(M, base)
    return subsemimodule(M, closed)


def is_subtractive(M: Semimodule, sub: Subsemimodule) -> bool:
    return subtractive_closure(M, sub).members == sub.members


@lru_cache(maxsize=None)
def uniform_subsemimodules(M: Semimodule) -> tuple[Subsemimodule, ...]:
    """Subsemimodules whose inclusion is a uniform morphism (= subtractive)."""
    return tuple(U for U in enumerate_subsemimodules(M) if is_subtractive(M, U))


@lru_cache(maxsize=None)
def module_generators(M: Semimodule) -> tuple[int, ...]:
    """The first generating set of least size, in ``itertools.combinations`` order.

    An element outside the span of all the others is in every generating
    set, so only the rest are searched; above ``MAX_SUBSET_MODULE``
    elements the greedy set in index order stands in.  Spans with the
    primary action only, so linear maps are determined by their values.
    """
    def span_of(seed) -> frozenset[int]:
        return span(M.add, M.zero, seed, (M.action,))
    if M.size > config.MAX_SUBSET_MODULE:
        return greedy_generators(M.size, span_of)
    forced = [x for x in range(M.size) if x not in span_of(set(range(M.size)) - {x})]
    rest = [x for x in range(M.size) if x not in forced]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            gens = tuple(sorted((*forced, *extra)))
            if len(span_of(gens)) == M.size:
                return gens


@lru_cache(maxsize=None)
def module_expressions(M: Semimodule) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each element as a fixed sum of (generator index, scalar) terms.

    Breadth-first over x -> x + g*s steps, so expressions are shortest and
    deterministic; expressions[zero] is empty.
    """
    n = M.semiring.size
    words = shortest_words(M.add, M.zero,
                           [M.action[g][s] for g in module_generators(M) for s in range(n)])
    if None in words:
        raise NotASubsemimodule("generators do not span the module")
    return tuple(tuple(divmod(k, n) for k in word) for word in words)


@lru_cache(maxsize=None)
def additive_expressions(M: Semimodule) -> tuple[tuple[int, ...], ...]:
    """Each element as a multiplicity vector over the additive generators."""
    gens = additive_generators(M)
    words = shortest_words(M.add, M.zero, gens)
    return tuple(tuple(word.count(gi) for gi in range(len(gens))) for word in words)


def submodule_of(M: Semimodule, sub: Subsemimodule) -> tuple[Semimodule, Morphism]:
    """The subsemimodule as a module of its own, with its inclusion.

    Neither gets an axiom scan: the tables are restrictions of M's to a
    closed subset, so the axioms carry over, and the inclusion is linear.
    """
    members = sub.members
    pos = {x: i for i, x in enumerate(members)}
    module = transport(M, members, pos, (M.labels[x] for x in members))
    return module, Morphism(module, M, members)
