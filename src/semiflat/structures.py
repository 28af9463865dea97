"""Finite semirings, semimodules and linear maps as explicit index tables.

Carriers are index sets 0..n-1 with row-major operation tables, so every
axiom and every predicate in the workbench is decided by exhaustive scan.
Structures are immutable and hashable; all derived computations are pure
functions of their inputs.
"""
from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping, Set
from functools import lru_cache
from math import lcm

from .errors import AxiomViolation, MalformedTable, SideMismatch
from .record import Record

Table = tuple[tuple[int, ...], ...]

LEFT = "left"
RIGHT = "right"


def _ordered(items):
    """items, unless it is a dict, a set or another container without an order."""
    if type(items) not in (list, tuple) and isinstance(items, (Mapping, Set)):
        raise TypeError(f"a {type(items).__name__} has no order")
    return items


def freeze_table(rows) -> Table:
    """Rows as tuples of ints; MalformedTable unless every entry is an integer.

    ``True`` and ``False`` are rejected too, although ``operator.index``
    would read them as 1 and 0, and so is a table or a row that is a dict
    or a set, which would be read in key or hash order.
    """
    try:
        rows = tuple(map(tuple, map(_ordered, _ordered(rows))))
        types = set(map(type, itertools.chain.from_iterable(rows)))
        if types <= {int}:
            return rows
        if bool in types:
            raise TypeError("True or False is an entry")
        return tuple([tuple(map(operator.index, row)) for row in rows])
    except TypeError as exc:
        raise MalformedTable(f"not a table of integers: {exc}") from None


def _freeze_labels(labels) -> tuple[str, ...]:
    """Labels as strings; MalformedTable unless they come as an ordered iterable."""
    try:
        return tuple(map(str, _ordered(labels)))
    except TypeError as exc:
        raise MalformedTable(f"labels must be an ordered iterable: {exc}") from None


def _index(x, n: int, what: str) -> int:
    """x as an int in 0..n-1, read by the rule of ``freeze_table``; else MalformedTable."""
    try:
        if isinstance(x, bool):
            raise TypeError("True or False is not an index")
        x = operator.index(x)
    except TypeError:
        raise MalformedTable(f"{what} must be an integer index, got {x!r}") from None
    if not 0 <= x < n:
        raise MalformedTable(f"{what} index out of range")
    return x


def check_table(table: Table, nrows: int, ncols: int, what: str) -> None:
    if len(table) != nrows:
        raise MalformedTable(f"{what}: expected {nrows} rows, got {len(table)}")
    for i, row in enumerate(table):
        if len(row) != ncols:
            raise MalformedTable(f"{what}: row {i} has {len(row)} entries, expected {ncols}")


def check_entries(table: Table, carrier: int, what: str) -> None:
    for i, row in enumerate(table):
        for j, x in enumerate(row):
            if not 0 <= x < carrier:
                raise MalformedTable(f"{what}[{i}][{j}] = {x} out of range 0..{carrier - 1}")


def _square_table(add) -> Table:
    """A monoid table frozen, square and with entries in range; else MalformedTable."""
    add = freeze_table(add)
    check_table(add, len(add), len(add), "add")
    check_entries(add, len(add), "add")
    return add


class Violation(Record):
    """A violated axiom together with the witnessing element tuple."""

    axiom: str
    witness: tuple[int, ...]


def commutative_monoid_violations(add: Table, zero: int) -> list[Violation]:
    n = len(add)
    out = []
    for a in range(n):
        if add[zero][a] != a:
            out.append(Violation("add-identity", (zero, a)))
    for a in range(n):
        row = add[a]
        for b in range(a + 1, n):
            if row[b] != add[b][a]:
                out.append(Violation("add-commutative", (a, b)))
    for a in range(n):
        for b in range(n):
            ab = add[a][b]
            row_a = add[a]
            for c in range(n):
                if add[ab][c] != row_a[add[b][c]]:
                    out.append(Violation("add-associative", (a, b, c)))
                    break
            else:
                continue
            break
    return out


class Semiring(Record):
    """Finite semiring with explicit addition and multiplication tables."""

    labels: tuple[str, ...]
    add: Table
    mul: Table
    zero: int
    one: int

    @property
    def size(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return f"Semiring({self.size} elements)"

    @property
    def commutative(self) -> bool:
        n = self.size
        return all(self.mul[a][b] == self.mul[b][a] for a in range(n) for b in range(n))


def semiring_violations(labels, add: Table, mul: Table, zero: int, one: int) -> list[Violation]:
    n = len(labels)
    out = commutative_monoid_violations(add, zero)
    # multiplicative monoid: associativity and two-sided identity
    for a in range(n):
        if mul[one][a] != a or mul[a][one] != a:
            out.append(Violation("mul-identity", (one, a)))
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    out.append(Violation("mul-associative", (a, b, c)))
                    break
            else:
                continue
            break
    for a in range(n):
        for b in range(n):
            bc_row = add[b]
            for c in range(n):
                if mul[a][bc_row[c]] != add[mul[a][b]][mul[a][c]]:
                    out.append(Violation("left-distributive", (a, b, c)))
                    break
                if mul[bc_row[c]][a] != add[mul[b][a]][mul[c][a]]:
                    out.append(Violation("right-distributive", (b, c, a)))
                    break
            else:
                continue
            break
    for a in range(n):
        if mul[zero][a] != zero or mul[a][zero] != zero:
            out.append(Violation("zero-absorbing", (zero, a)))
    if zero == one:
        out.append(Violation("one-neq-zero", (zero,)))
    return out


# Every semiring built so far, keyed by itself: build_semiring returns the
# first object built with equal values, so the caches keyed by semirings (and
# by the modules and maps over them) find it by identity, without comparing
# its tables.
_SEMIRINGS: dict[Semiring, Semiring] = {}


def build_semiring(labels, add, mul, zero: int, one: int) -> Semiring:
    labels = _freeze_labels(labels)
    n = len(labels)
    add = freeze_table(add)
    mul = freeze_table(mul)
    check_table(add, n, n, "add")
    check_table(mul, n, n, "mul")
    check_entries(add, n, "add")
    check_entries(mul, n, "mul")
    zero = _index(zero, n, "zero")
    one = _index(one, n, "one")
    violations = semiring_violations(labels, add, mul, zero, one)
    if violations:
        raise AxiomViolation("semiring", violations)
    R = Semiring(labels, add, mul, zero, one)
    return _SEMIRINGS.setdefault(R, R)


class SecondAction(Record):
    """The other-side scalar action of a bisemimodule."""

    semiring: Semiring
    side: str
    table: Table


class Semimodule(Record):
    """Finite semimodule: commutative monoid with a scalar action table.

    ``action[x][s]`` is x*s for a right module and s*x for a left one.
    An optional second action of side opposite to the primary one turns
    the carrier into a bisemimodule.
    """

    semiring: Semiring
    side: str
    labels: tuple[str, ...]
    add: Table
    zero: int
    action: Table
    second: SecondAction | None = None

    @property
    def size(self) -> int:
        return len(self.labels)

    def __repr__(self):
        tag = "bi" if self.second else self.side
        return f"Semimodule({self.size} elements, {tag}, |S|={self.semiring.size})"


def action_violations(semiring: Semiring, side: str, add: Table, zero: int,
                      action: Table, prefix: str = "action") -> list[Violation]:
    n = len(add)
    S = semiring
    out = []
    for x in range(n):
        for s in range(S.size):
            for t in range(S.size):
                # right: (x s) t = x (s t); left: t (s x) = (t s) x
                if side == RIGHT:
                    lhs = action[action[x][s]][t]
                    rhs = action[x][S.mul[s][t]]
                else:
                    lhs = action[action[x][s]][t]
                    rhs = action[x][S.mul[t][s]]
                if lhs != rhs:
                    out.append(Violation(f"{prefix}-associative", (x, s, t)))
                    break
            else:
                continue
            break
    for x in range(n):
        for y in range(n):
            xy = add[x][y]
            for s in range(S.size):
                if action[xy][s] != add[action[x][s]][action[y][s]]:
                    out.append(Violation(f"{prefix}-add-distributive", (x, y, s)))
                    break
            else:
                continue
            break
    for x in range(n):
        for s in range(S.size):
            for t in range(S.size):
                if action[x][S.add[s][t]] != add[action[x][s]][action[x][t]]:
                    out.append(Violation(f"{prefix}-scalar-distributive", (x, s, t)))
                    break
            else:
                continue
            break
    for x in range(n):
        if action[x][S.one] != x:
            out.append(Violation(f"{prefix}-unit", (x, S.one)))
        if action[x][S.zero] != zero:
            out.append(Violation(f"{prefix}-scalar-zero", (x, S.zero)))
    for s in range(S.size):
        if action[zero][s] != zero:
            out.append(Violation(f"{prefix}-zero-element", (zero, s)))
    return out


def semimodule_violations(semiring, side, add, zero, action,
                          second: SecondAction | None = None) -> list[Violation]:
    out = commutative_monoid_violations(add, zero)
    out.extend(action_violations(semiring, side, add, zero, action))
    if second is not None:
        out.extend(action_violations(second.semiring, second.side, add, zero,
                                     second.table, prefix="second-action"))
        n = len(add)
        for x in range(n):
            for s in range(semiring.size):
                xs = action[x][s]
                for t in range(second.semiring.size):
                    if second.table[xs][t] != action[second.table[x][t]][s]:
                        out.append(Violation("actions-commute", (x, s, t)))
                        break
                else:
                    continue
                break
    return out


def build_semimodule(semiring: Semiring, side: str, labels, add, zero: int, action,
                     second: SecondAction | None = None) -> Semimodule:
    if side not in (LEFT, RIGHT):
        raise MalformedTable(f"side must be 'left' or 'right', got {side!r}")
    labels = _freeze_labels(labels)
    n = len(labels)
    add = freeze_table(add)
    action = freeze_table(action)
    check_table(add, n, n, "add")
    check_table(action, n, semiring.size, "action")
    check_entries(add, n, "add")
    check_entries(action, n, "action")
    zero = _index(zero, n, "zero")
    if second is not None:
        if second.side == side:
            raise SideMismatch("second action must act on the opposite side")
        second = SecondAction(second.semiring, second.side, freeze_table(second.table))
        check_table(second.table, n, second.semiring.size, "second action")
        check_entries(second.table, n, "second action")
    violations = semimodule_violations(semiring, side, add, zero, action, second)
    if violations:
        raise AxiomViolation("semimodule", violations)
    return Semimodule(semiring, side, labels, add, zero, action, second)


class Morphism(Record):
    """Structure-preserving map between semimodules over one semiring.

    ``injective`` and ``surjective`` are computed from the map; equality
    and hashing leave them out.
    """

    source: Semimodule
    target: Semimodule
    map: tuple[int, ...]

    def __init__(self, source: Semimodule, target: Semimodule, map: tuple[int, ...]):
        image = len(set(map))
        self.__dict__.update(source=source, target=target, map=map,
                             injective=image == source.size, surjective=image == target.size)

    def __repr__(self):
        return f"Morphism({self.source.size}->{self.target.size}, {list(self.map)})"


def additive_generators(M: Semimodule) -> tuple[int, ...]:
    """``monoid_generators`` of M, kept on M itself next to the cached ``_hash``."""
    d = M.__dict__
    gens = d.get("_gens")
    if gens is None:
        gens = d["_gens"] = monoid_generators(M.add, M.zero)
    return gens


def is_linear(source: Semimodule, target: Semimodule, mapping) -> bool:
    """Whether an in-range mapping between valid modules is linear.

    It checks f(0) = 0, f(a + x) = f(a) + f(x) and f(a.s) = f(a).s for
    every element x, scalar s and additive generator a of the source.
    Between valid modules that decides linearity: every y is a sum of
    generators, so f(y + x) = f(y) + f(x) follows by induction over the
    summands of y, and then f(y.s) = f(y).s term by term.  This is the one
    morphism decision; ``morphism_violations`` adds the witnesses.
    """
    if mapping[source.zero] != target.zero:
        return False
    tadd, taction = target.add, target.action
    for a in additive_generators(source):
        fa = mapping[a]
        row = tadd[fa]
        for y, fx in zip(source.add[a], mapping):
            if mapping[y] != row[fx]:
                return False
        for y, fy in zip(source.action[a], taction[fa]):
            if mapping[y] != fy:
                return False
    return True


def morphism_violations(source: Semimodule, target: Semimodule, mapping):
    """Yield every violated morphism axiom of an in-range mapping, lazily.

    The witness path of the one morphism decision, ``is_linear``:
    ``build_morphism`` collects all witnesses.  A table is decided on the
    additive generators of the source first; only one that fails there
    gets the scan over all pairs, which reports its witnesses.
    """
    if is_linear(source, target, mapping):
        return
    n = source.size
    for a in range(n):
        row, trow = source.add[a], target.add[mapping[a]]
        for b in range(a, n):
            if mapping[row[b]] != trow[mapping[b]]:
                yield Violation("map-additive", (a, b))
    for a in range(n):
        row, trow = source.action[a], target.action[mapping[a]]
        for s in range(source.semiring.size):
            if mapping[row[s]] != trow[s]:
                yield Violation("map-linear", (a, s))
    if mapping[source.zero] != target.zero:
        yield Violation("map-zero", (source.zero,))


def check_endpoints(source: Semimodule, target: Semimodule) -> None:
    """Raise SideMismatch unless source and target share a semiring and a side."""
    if source.semiring is not target.semiring and source.semiring != target.semiring:
        raise SideMismatch("source and target live over different semirings")
    if source.side != target.side:
        raise SideMismatch(f"source is {source.side}-sided, target is {target.side}-sided")


def build_morphism(source: Semimodule, target: Semimodule, mapping) -> Morphism:
    check_endpoints(source, target)
    mapping, = freeze_table([mapping])
    if len(mapping) != source.size:
        raise MalformedTable(f"map has {len(mapping)} entries for {source.size} elements")
    for x in mapping:
        if not 0 <= x < target.size:
            raise MalformedTable(f"map value {x} out of range")
    violations = list(morphism_violations(source, target, mapping))
    if violations:
        raise AxiomViolation("morphism", violations)
    return Morphism(source, target, mapping)


def identity_morphism(M: Semimodule) -> Morphism:
    return Morphism(M, M, tuple(range(M.size)))


def zero_morphism(M: Semimodule, N: Semimodule) -> Morphism:
    """The map onto N's zero, built without a morphism check: it is linear."""
    check_endpoints(M, N)
    return Morphism(M, N, (N.zero,) * M.size)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Composite f after g."""
    if g.target is not f.source and g.target != f.source:
        raise SideMismatch("composite endpoints do not match")
    return Morphism(g.source, f.target, tuple(f.map[x] for x in g.map))


def descend(pairs, size: int) -> list | None:
    """The value of each of ``size`` classes, read off (class, value) pairs.

    A class no pair reaches gets None; when one class gets two values the
    map is not well defined on classes and the whole result is None.
    """
    out = [None] * size
    for c, v in pairs:
        w = out[c]
        if w is None:
            out[c] = v
        elif w != v:
            return None
    return out


def map_from_free(X: Semimodule, images) -> tuple[int, ...]:
    """The table of the linear map S^n -> X sending the i-th basis vector to images[i].

    Entry t, in ``itertools.product`` order over S^n, is the sum of the
    images[i] * t[i].
    """
    table = []
    for t in itertools.product(range(X.semiring.size), repeat=len(images)):
        val = X.zero
        for s, x in zip(t, images):
            val = X.add[val][X.action[x][s]]
        table.append(val)
    return tuple(table)


def element_order(add: Table, zero: int, x: int) -> tuple[int, int]:
    """Least (index i, period p) with (i+p)x = ix under repeated addition."""
    seen = {zero: 0}
    cur = zero
    k = 0
    while True:
        cur = add[cur][x]
        k += 1
        if cur in seen:
            i = seen[cur]
            return i, k - i
        seen[cur] = k


def element_orders(M: Semimodule) -> tuple[tuple[int, int], ...]:
    return tuple(element_order(M.add, M.zero, x) for x in range(M.size))


def is_cancellative_table(add: Table) -> bool:
    n = len(add)
    for c in range(n):
        seen = [add[a][c] for a in range(n)]
        if len(set(seen)) != n:
            return False
    return True


def is_cancellative(M: Semimodule) -> bool:
    return is_cancellative_table(M.add)


# ---------------------------------------------------------------------------
# The generation engine: what a seed generates, a greedy generating set, and
# each element as a shortest word in given steps.
# ---------------------------------------------------------------------------

def span(add: Table, zero: int, seed, actions=()) -> frozenset[int]:
    """Least subset holding zero and the seed, closed under addition and each action table."""
    members = {zero}
    frontier = []
    for x in seed:
        if x not in members:
            members.add(x)
            frontier.append(x)
    while frontier:
        x = frontier.pop()
        row = add[x]
        new = [row[y] for y in list(members)]
        for table in actions:
            new.extend(table[x])
        for z in new:
            if z not in members:
                members.add(z)
                frontier.append(z)
    return frozenset(members)


def greedy_generators(size: int, span_of) -> tuple[int, ...]:
    """Each element in index order that the span of the earlier picks misses."""
    gens: list[int] = []
    spanned = span_of(())
    for x in range(size):
        if x not in spanned:
            gens.append(x)
            spanned = span_of(gens)
    return tuple(gens)


def shortest_words(add: Table, zero: int, steps) -> tuple[tuple[int, ...] | None, ...]:
    """Per element, the step indices of its first breadth-first path from zero.

    Step k takes x to x + steps[k]; an element no path reaches gets None.
    """
    words = {zero: ()}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            row = add[x]
            word = words[x]
            for k, step in enumerate(steps):
                y = row[step]
                if y not in words:
                    words[y] = word + (k,)
                    nxt.append(y)
        frontier = nxt
    return tuple(words.get(x) for x in range(len(add)))


def monoid_generators(add: Table, zero: int) -> tuple[int, ...]:
    """Greedy minimal generating set of a commutative monoid table, in index order."""
    return greedy_generators(len(add), lambda seed: span(add, zero, seed))


# ---------------------------------------------------------------------------
# Abelian monoids as semimodules over a monogenic coefficient semiring.
#
# A finite commutative monoid with global additive index I and period P is a
# module over N/(I+P ~ I); wrapping families over a joint (I, P) makes plain
# monoid morphisms typecheck as linear maps.
# ---------------------------------------------------------------------------

def _joint_index_period(orders) -> tuple[int, int]:
    """Least (index, period) that every listed element order satisfies."""
    orders = tuple(orders)
    return max((i for i, _ in orders), default=0), lcm(*(p for _, p in orders))


@lru_cache(maxsize=None)
def counting_semiring(index: int, period: int) -> Semiring:
    """The quotient of the counting semiring N by (index+period ~ index)."""
    if index + period < 2:
        period = 2 - index
    n = index + period

    def red(k: int) -> int:
        return k if k < n else index + (k - index) % period

    labels = tuple(str(k) for k in range(n))
    add = freeze_table([[red(a + b) for b in range(n)] for a in range(n)])
    mul = freeze_table([[red(a * b) for b in range(n)] for a in range(n)])
    return build_semiring(labels, add, mul, 0, 1)


@lru_cache(maxsize=None)
def counting_semiring_for(S: Semiring) -> Semiring:
    """Counting semiring bounding every S-module: the additive order of 1.

    (i+p)*x = i*x holds in any S-module when (i, p) is the additive order
    of the multiplicative unit, since k*x = x.(k*1); monoid-level carriers
    arising from S-modules are therefore all modules over this one semiring.
    """
    return counting_semiring(*element_order(S.add, S.zero, S.one))


def counting_action(add: Table, zero: int, count: int) -> Table:
    """The action of a counting semiring with count elements: [x][k] is k*x."""
    table = []
    for x in range(len(add)):
        row = []
        cur = zero
        for _ in range(count):
            row.append(cur)
            cur = add[cur][x]
        table.append(row)
    return freeze_table(table)


def derived_actions(semiring: Semiring, add: Table, zero: int, actions):
    """(acting semiring, side, action, second) of a module built from others.

    ``actions`` lists the inherited (semiring, side, table) actions in
    order: the first becomes the primary action and the next the second
    one.  With none, the counting semiring of ``semiring`` acts on the
    right by repeated addition.
    """
    if not actions:
        C = counting_semiring_for(semiring)
        return C, RIGHT, counting_action(add, zero, C.size), None
    (T, side, table), *rest = actions
    return T, side, table, SecondAction(*rest[0]) if rest else None


def monoid_module(add: Table, zero: int = 0, labels=None,
                  semiring: Semiring | None = None) -> Semimodule:
    """Wrap a commutative monoid table as a module over a counting semiring."""
    add = _square_table(add)
    zero = _index(zero, len(add), "zero")
    if labels is None:
        labels = tuple(str(k) for k in range(len(add)))
    if semiring is None:
        semiring = counting_semiring(*_joint_index_period(
            element_order(add, zero, x) for x in range(len(add))))
    return build_semimodule(semiring, RIGHT, labels, add, zero,
                            counting_action(add, zero, semiring.size))


def rehome_pair(A: Semimodule, B: Semimodule) -> tuple[Semimodule, Semimodule]:
    """Re-wrap two monoid-level carriers over one counting semiring."""
    S = counting_semiring(*_joint_index_period(element_orders(A) + element_orders(B)))
    return (monoid_module(A.add, A.zero, A.labels, S),
            monoid_module(B.add, B.zero, B.labels, S))


def monoid_morphism(A: Semimodule, B: Semimodule, mapping) -> Morphism:
    """A monoid map packaged as a linear map over a joint counting semiring."""
    A2, B2 = rehome_pair(A, B)
    return build_morphism(A2, B2, mapping)


# ---------------------------------------------------------------------------
# Side plumbing for commutative coefficient semirings.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def mirror(M: Semimodule) -> Semimodule:
    """The same carrier viewed from the opposite side (commutative S only).

    Cached, so each module has one mirror object: the caches keyed by
    modules downstream then find it by identity, without comparing its
    tables.  A refusal is not cached and is raised again on every call.
    """
    if not M.semiring.commutative:
        raise SideMismatch("cannot mirror a module over a noncommutative semiring")
    side = LEFT if M.side == RIGHT else RIGHT
    second = None
    if M.second is not None:
        second = SecondAction(M.second.semiring,
                              LEFT if M.second.side == RIGHT else RIGHT,
                              M.second.table)
    return Semimodule(M.semiring, side, M.labels, M.add, M.zero, M.action, second)


def as_left(M: Semimodule) -> Semimodule:
    return M if M.side == LEFT else mirror(M)


def as_right(M: Semimodule) -> Semimodule:
    return M if M.side == RIGHT else mirror(M)


def with_bimodule_structure(M: Semimodule) -> Semimodule:
    """Install the synthesized opposite action (commutative S only)."""
    if M.second is not None:
        return M
    if not M.semiring.commutative:
        raise SideMismatch("second action synthesis needs a commutative semiring")
    other = LEFT if M.side == RIGHT else RIGHT
    return build_semimodule(M.semiring, M.side, M.labels, M.add, M.zero, M.action,
                            SecondAction(M.semiring, other, M.action))


def swap_actions(M: Semimodule) -> Semimodule:
    """Make the second action primary; needed to hom over the other side."""
    if M.second is None:
        raise SideMismatch("module has no second action")
    first = SecondAction(M.semiring, M.side, M.action)
    return Semimodule(M.second.semiring, M.second.side, M.labels, M.add, M.zero,
                      M.second.table, first)


# ---------------------------------------------------------------------------
# The one canonical form.
# ---------------------------------------------------------------------------

def canonical_form(add: Table, zero: int,
                   action: Table | None = None) -> tuple[tuple, tuple[int, ...]]:
    """(key, relabelling): the least relabelled tables and the map reaching them.

    Scans every permutation p of the carrier with p[0] = zero, the other
    elements in ``itertools.permutations`` order, and relabels by its
    inverse: cadd[a][b] = inv[add[p[a]][p[b]]], cact likewise, or () when
    no action is given.  The key is the least (cadd, cact), and the
    relabelling is the first p that reaches it: the map table of an
    isomorphism from the canonical tables onto the given ones.

    The key compares tables only, so a caller that compares keys across
    semirings must pair each key with ``M.semiring`` and ``M.side``.
    """
    n = len(add)
    key = relabelling = None
    for perm in itertools.permutations([x for x in range(n) if x != zero]):
        p = (zero,) + perm
        inv = [0] * n
        for i, x in enumerate(p):
            inv[x] = i
        cadd = tuple(tuple(inv[add[p[a]][p[b]]] for b in range(n)) for a in range(n))
        cact = () if action is None else tuple(
            tuple(inv[v] for v in action[p[a]]) for a in range(n))
        cand = (cadd, cact)
        if key is None or cand < key:
            key, relabelling = cand, p
    return key, relabelling
