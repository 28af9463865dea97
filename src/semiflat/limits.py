"""Finite (co)limits: products, equalizers, pullbacks, directed (co)limits.

Finite products and coproducts of semimodules share the componentwise
carrier; only the structure morphisms differ.  A finite directed poset
has a maximum node t, so the eventual-equality partition of a directed
colimit is the fibre partition of the images at t.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice

from . import config
from .catalog import product_module
from .congruence import fibres, module_congruence_closure, quotient_by_congruence
from .errors import (NotCommutative, NotDirected, NotIntertwining,
                     ShapeMismatch, SizeBoundExceeded)
from .homology import hom_module, hom_postcompose
from .record import Record
from .structures import (Morphism, Semimodule, build_morphism,
                         build_semimodule, check_table, compose, descend, freeze_table,
                         identity_morphism)
from .subsets import submodule_of, subsemimodule, enumerate_subsemimodules


class ProductData(Record):
    module: Semimodule
    factors: tuple[Semimodule, ...]
    projections: tuple[Morphism, ...]
    injections: tuple[Morphism, ...]

    def encode(self, parts: tuple[int, ...]) -> int:
        radices = tuple(f.size for f in self.factors)
        idx = 0
        for r, p in zip(radices, parts):
            idx = idx * r + p
        return idx

    def decode(self, idx: int) -> tuple[int, ...]:
        radices = [f.size for f in self.factors]
        out = []
        for r in reversed(radices):
            out.append(idx % r)
            idx //= r
        return tuple(reversed(out))


@lru_cache(maxsize=None)
def direct_sum(factors: tuple[Semimodule, ...]) -> ProductData:
    """Componentwise biproduct with projections and injections."""
    if not factors:
        raise ShapeMismatch("empty family; use the trivial module explicitly")
    total = 1
    for f in factors:
        total *= f.size
    if total > config.MAX_PRODUCT:
        raise SizeBoundExceeded("product carrier", total, config.MAX_PRODUCT)
    module = factors[0]
    for f in factors[1:]:
        module = product_module(module, f)
    data = ProductData(module, factors, (), ())
    projections = []
    injections = []
    for i, f in enumerate(factors):
        proj = tuple(data.decode(x)[i] for x in range(module.size))
        projections.append(build_morphism(module, f, proj))
        inj = []
        for a in range(f.size):
            parts = tuple(a if j == i else g.zero for j, g in enumerate(factors))
            inj.append(data.encode(parts))
        injections.append(build_morphism(f, module, inj))
    return ProductData(module, factors, tuple(projections), tuple(injections))


def pairing(fs, data: ProductData) -> Morphism:
    """The mediating map <f_1,..,f_k> : X -> product."""
    if not fs or any(f.source != fs[0].source for f in fs) or len(fs) != len(data.factors):
        raise ShapeMismatch("pairing legs must share a source, one per factor")
    X = fs[0].source
    mapping = tuple(data.encode(tuple(f.map[x] for f in fs)) for x in range(X.size))
    return build_morphism(X, data.module, mapping)


def copairing(fs, data: ProductData) -> Morphism:
    """The mediating map [g_1,..,g_k] : coproduct -> X."""
    if not fs or any(f.target != fs[0].target for f in fs) or len(fs) != len(data.factors):
        raise ShapeMismatch("copairing legs must share a target, one per factor")
    X = fs[0].target
    mapping = []
    for idx in range(data.module.size):
        parts = data.decode(idx)
        val = X.zero
        for f, a in zip(fs, parts):
            val = X.add[val][f.map[a]]
        mapping.append(val)
    return build_morphism(data.module, X, tuple(mapping))


def sum_morphism(fs, source_data: ProductData, target_data: ProductData) -> Morphism:
    """Componentwise map between direct sums, built without an axiom scan.

    Its table is the radix encoding of the component images, one factor at
    a time; it is linear because each component is and the structure of a
    direct sum is componentwise.
    """
    # tuples compare their items by identity before equality
    if (tuple(f.source for f in fs) != source_data.factors
            or tuple(f.target for f in fs) != target_data.factors):
        raise ShapeMismatch("one component map per factor, between matching factors")
    mapping = [0]
    for f in fs:
        radix = f.target.size
        mapping = [m * radix + v for m in mapping for v in f.map]
    return Morphism(source_data.module, target_data.module, tuple(mapping))


def equalizer(f: Morphism, g: Morphism):
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch("equalizer needs a parallel pair")
    members = [x for x in range(f.source.size) if f.map[x] == g.map[x]]
    sub = subsemimodule(f.source, members)
    return submodule_of(f.source, sub)


def coequalizer(f: Morphism, g: Morphism):
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch("coequalizer needs a parallel pair")
    pairs = [(f.map[x], g.map[x]) for x in range(f.source.size)]
    cong = module_congruence_closure(f.target, pairs)
    return quotient_by_congruence(f.target, cong)


def pullback(f: Morphism, g: Morphism):
    """Pullback of a cospan f: A -> C <- B : g inside the product A x B."""
    if f.target != g.target:
        raise ShapeMismatch("pullback needs a cospan")
    data = direct_sum((f.source, g.source))
    members = [idx for idx in range(data.module.size)
               if f.map[data.decode(idx)[0]] == g.map[data.decode(idx)[1]]]
    sub = subsemimodule(data.module, members)
    P, inc = submodule_of(data.module, sub)
    p1 = compose(data.projections[0], inc)
    p2 = compose(data.projections[1], inc)
    return P, p1, p2, data, inc


def pullback_mediator(P: Semimodule, inc: Morphism, data: ProductData,
                      u: Morphism, v: Morphism) -> Morphism:
    """The unique map into the pullback induced by a commuting pair."""
    pos = {inc.map[i]: i for i in range(P.size)}
    mapping = []
    for x in range(u.source.size):
        idx = pos.get(data.encode((u.map[x], v.map[x])))
        if idx is None:
            raise NotCommutative(x, "the pair does not land in the pullback")
        mapping.append(idx)
    return build_morphism(u.source, P, tuple(mapping))


# ---------------------------------------------------------------------------
# Directed systems.
# ---------------------------------------------------------------------------

class _System(Record):
    """Nodes, the transitively closed relations in ``order`` and one map per relation."""

    nodes: tuple[Semimodule, ...]
    order: tuple[tuple[int, int], ...]
    maps: tuple[Morphism, ...]

    def _hash_key(self):
        return (self.nodes, self.order, tuple(m.map for m in self.maps))

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], Morphism]:
        return dict(zip(self.order, self.maps))

    def transition(self, j: int, k: int) -> Morphism:
        if j == k:
            return identity_morphism(self.nodes[j])
        return self._lookup[(j, k)]


class DirectedSystem(_System):
    """Finite directed poset of semimodules with coherent transition maps.

    ``order`` lists the strict relations (j, j') with j < j', transitively
    closed; ``transition(j, j')`` is the map M_j -> M_j'.
    """

    def leq(self, j: int, k: int) -> bool:
        return j == k or (j, k) in self._lookup

    def upper_bounds(self, j: int, k: int) -> list[int]:
        return [m for m in range(len(self.nodes)) if self.leq(j, m) and self.leq(k, m)]

    @property
    def maximum(self) -> int:
        n = len(self.nodes)
        for m in range(n):
            if all(self.leq(j, m) for j in range(n)):
                return m
        raise NotDirected("finite directed poset must have a maximum")


def _arrow_data(relations, maps) -> tuple[tuple[tuple[int, int], ...], tuple[Morphism, ...]]:
    """The relations as pairs of integers and the maps as morphisms, or a typed error."""
    relations = freeze_table(relations)
    check_table(relations, len(relations), 2, "relations")
    if not (isinstance(maps, (list, tuple)) and all(isinstance(f, Morphism) for f in maps)):
        raise ShapeMismatch("transition maps must be a list of morphisms")
    return relations, tuple(maps)


def _closed_arrows(nodes, relations, maps) -> dict[tuple[int, int], Morphism]:
    """The arrows (a, b) with map M_a -> M_b, closed under composition.

    Raises unless there is one map per relation, between nodes that exist,
    with the right endpoints, and unless the closure is free of conflicting
    maps, incoherent composites and cycles.
    """
    if len(relations) != len(maps):
        raise ShapeMismatch(f"{len(relations)} relations but {len(maps)} transition maps")
    n = len(nodes)
    for a, b in relations:
        if not (0 <= a < n and 0 <= b < n):
            raise ShapeMismatch(f"relation {a}->{b} names a node outside 0..{n - 1}")
    arrows: dict[tuple[int, int], Morphism] = {}
    for (a, b), f in zip(relations, maps):
        if a == b:
            continue
        if f.source != nodes[a] or f.target != nodes[b]:
            raise NotIntertwining(f"transition {a}->{b} has wrong endpoints")
        if (a, b) in arrows and arrows[(a, b)].map != f.map:
            raise NotDirected(f"conflicting transitions for {a}->{b}")
        arrows[(a, b)] = f
    changed = True
    while changed:
        changed = False
        for (a, b), f in list(arrows.items()):
            for (c, d), g in list(arrows.items()):
                if b != c:
                    continue
                comp = compose(g, f)
                if (a, d) not in arrows:
                    arrows[(a, d)] = comp
                    changed = True
                elif arrows[(a, d)].map != comp.map:
                    raise NotDirected(f"incoherent composites along {a}->{b}->{d}")
    for (a, b) in arrows:
        if (b, a) in arrows:
            raise NotDirected(f"cycle between {a} and {b}")
    return arrows


def directed_system(nodes, relations, maps) -> DirectedSystem:
    """Close the generating relations transitively and verify coherence."""
    nodes = tuple(nodes)
    if not nodes:
        raise NotDirected("a directed system needs at least one node")
    arrows = _closed_arrows(nodes, *_arrow_data(relations, maps))
    order = tuple(sorted(arrows))
    sys = DirectedSystem(nodes, order, tuple(arrows[p] for p in order))
    for j in range(len(nodes)):
        for k in range(j + 1, len(nodes)):
            if not sys.upper_bounds(j, k):
                raise NotDirected(f"nodes {j} and {k} have no upper bound")
    return sys


def constant_system(M: Semimodule, copies: int = 1) -> DirectedSystem:
    nodes = [M] * copies
    rels = [(i, i + 1) for i in range(copies - 1)]
    maps = [identity_morphism(M) for _ in rels]
    return directed_system(nodes, rels, maps)


def chain_system(morphisms) -> DirectedSystem:
    ms = list(morphisms)
    if not ms:
        raise ShapeMismatch("a chain system needs at least one morphism")
    nodes = [ms[0].source] + [f.target for f in ms]
    rels = [(i, i + 1) for i in range(len(ms))]
    return directed_system(nodes, rels, ms)


class Colimit(Record):
    system: DirectedSystem
    module: Semimodule
    legs: tuple[Morphism, ...]
    class_of: tuple[tuple[int, ...], ...]  # per node, element -> colimit element


@lru_cache(maxsize=None)
def directed_colimit(sys: DirectedSystem) -> Colimit:
    """Disjoint union modulo eventual equality, with pushforward addition.

    Every pair of nodes has the maximum node t as an upper bound, so (j, x)
    and (k, y) are eventually equal exactly when their images at t agree:
    the classes are the fibres of the images at t, in (j, x) order, and
    the addition and action are t's, carried through the images.
    """
    t = sys.maximum
    images = [sys.transition(j, t).map for j in range(len(sys.nodes))]
    cong = fibres([y for image in images for y in image])
    rest = iter(cong.class_of)
    class_table = tuple(tuple(islice(rest, len(image))) for image in images)
    pairs = [(j, x) for j, image in enumerate(images) for x in range(len(image))]
    reps = [pairs[r] for r in cong.representatives]
    top, cls = sys.nodes[t], class_table[t]
    ys = [images[j][x] for j, x in reps]
    add = freeze_table([[cls[top.add[a][b]] for b in ys] for a in ys])
    action = freeze_table([[cls[y2] for y2 in top.action[y]] for y in ys])
    labels = tuple(f"{j}:{sys.nodes[j].labels[x]}" for j, x in reps)
    module = build_semimodule(top.semiring, top.side, labels, add, cls[top.zero], action)
    legs = tuple(build_morphism(M, module, c) for M, c in zip(sys.nodes, class_table))
    return Colimit(sys, module, legs, class_table)


def colimit_morphism(sysX: DirectedSystem, sysY: DirectedSystem, levelwise) -> Morphism:
    """The induced map on colimits of an intertwining family."""
    hs = tuple(levelwise)
    if len(hs) != len(sysX.nodes):
        raise NotIntertwining("one levelwise map per node")
    if sysX.order != sysY.order:
        raise NotIntertwining("systems must share their index poset")
    for (j, k) in sysX.order:
        left = compose(hs[k], sysX.transition(j, k))
        right = compose(sysY.transition(j, k), hs[j])
        if left.map != right.map:
            raise NotIntertwining(f"squares at {j}<={k} do not commute")
    cx = directed_colimit(sysX)
    cy = directed_colimit(sysY)
    mapping = descend(((cx.class_of[j][x], cy.class_of[j][y])
                       for j, h in enumerate(hs) for x, y in enumerate(h.map)), cx.module.size)
    if mapping is None:
        raise NotIntertwining("induced map is not well defined")
    return build_morphism(cx.module, cy.module, tuple(mapping))


# ---------------------------------------------------------------------------
# Inverse systems.
# ---------------------------------------------------------------------------

class InverseSystem(_System):
    """Same poset data as a directed system, with arrows j <= j' : M_j' -> M_j.

    ``transition(j, k)`` is the map M_k -> M_j for j <= k.
    """


def inverse_system(nodes, relations, maps) -> InverseSystem:
    """Close the relations j <= k, each with its map M_k -> M_j, and verify coherence."""
    nodes = tuple(nodes)
    if not nodes:
        raise ShapeMismatch("an inverse system needs at least one node; "
                            "use the trivial module explicitly")
    relations, maps = _arrow_data(relations, maps)
    arrows = _closed_arrows(nodes, [(k, j) for j, k in relations], maps)
    order = tuple(sorted((j, k) for k, j in arrows))
    return InverseSystem(nodes, order, tuple(arrows[(k, j)] for j, k in order))


def inverse_limit(sys: InverseSystem):
    """Compatible tuples inside the product, with its projections."""
    data = direct_sum(sys.nodes)
    members = []
    for idx in range(data.module.size):
        parts = data.decode(idx)
        ok = True
        for (j, k) in sys.order:
            if sys.transition(j, k).map[parts[k]] != parts[j]:
                ok = False
                break
        if ok:
            members.append(idx)
    sub = subsemimodule(data.module, members)
    L, inc = submodule_of(data.module, sub)
    projections = tuple(compose(p, inc) for p in data.projections)
    return L, projections


# ---------------------------------------------------------------------------
# The hom/colimit comparison map.
# ---------------------------------------------------------------------------

class HomColimitComparison(Record):
    map: Morphism
    injective: bool
    bijective: bool


def hom_colimit_comparison(X: Semimodule, sys: DirectedSystem) -> HomColimitComparison:
    """colim Hom(X, M_j) -> Hom(X, colim M_j) by pushing along the legs."""
    colim = directed_colimit(sys)
    hom_nodes = [hom_module(X, M) for M in sys.nodes]
    hom_sys = directed_system([h.module for h in hom_nodes], sys.order,
                              [hom_postcompose(X, f) for f in sys.maps])
    hc = directed_colimit(hom_sys)
    target = hom_module(X, colim.module)
    mapping = descend(((hc.class_of[j][i],
                        target.index_of(colim.class_of[j][v] for v in alpha.map))
                       for j, H in enumerate(hom_nodes) for i, alpha in enumerate(H.maps)),
                      hc.module.size)
    if mapping is None:
        raise NotIntertwining("comparison map is not well defined")
    psi = build_morphism(hc.module, target.module, tuple(mapping))
    return HomColimitComparison(psi, psi.injective, psi.injective and psi.surjective)


def subsemimodule_system(M: Semimodule) -> tuple[DirectedSystem, Morphism]:
    """All subsemimodules of M under inclusion, with the colimit comparison to M."""
    subs = enumerate_subsemimodules(M)
    nodes = []
    incs = []
    for U in subs:
        mod, inc = submodule_of(M, U)
        nodes.append(mod)
        incs.append(inc)
    rels = []
    maps = []
    for a, U in enumerate(subs):
        for b, V in enumerate(subs):
            if a != b and set(U.members) <= set(V.members):
                posV = {x: i for i, x in enumerate(V.members)}
                mapping = tuple(posV[x] for x in U.members)
                rels.append((a, b))
                maps.append(build_morphism(nodes[a], nodes[b], mapping))
    sys = directed_system(nodes, rels, maps)
    colim = directed_colimit(sys)
    mapping = descend(((colim.class_of[j][i], x)
                       for j, U in enumerate(subs) for i, x in enumerate(U.members)),
                      colim.module.size)
    if mapping is None:
        raise NotDirected("colimit comparison is not well defined")
    comparison = build_morphism(colim.module, M, tuple(mapping))
    return sys, comparison
