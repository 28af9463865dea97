"""Tensor products of semimodules as bounded finitely presented monoids.

The product of a right module M and a left module N over one semiring is
computed from a free cover of N: with h_1..h_n the module generators of
N, M (x) N is M^n divided by the congruence that the images of the
kernel pair of S^n -> N generate (right exactness of M (x) -).

Its elements are named through the generator-pair presentation on
minimal additive generating sets.  Each pair (g, h) contributes one
saturating cyclic coordinate, bounded by the tighter of the two element
orders, and each element is numbered, labelled and evaluated by its
lex-least coordinate vector.  The presentation relations are the
bilinearity and balance families instantiated over all triples, expanded
through canonical breadth-first expressions, plus the zero-collapse pair
family.  Balanced maps are required to send slot zeroes to zero; without
that collapse the empty word survives as an isolated element and the unit
law fails already on two-element idempotent carriers.

The box of all coordinate vectors, divided by the congruence the
relations generate, is the oracle of the cover.  The ``dense`` flag
builds that box with one coordinate per pair of nonzero elements instead
and skips the expansion step entirely; it is the independent oracle
presentation.
"""
from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .catalog import semiring_bimodule
from . import config
from .congruence import cancellative_reflection, congruence_closure
from .errors import (BoxBoundExceeded, NotBalanced, NotZeroPreserving,
                     SideMismatch, SizeBoundExceeded)
from .homology import (HomModule, hom_module, hom_postcompose, hom_precompose,
                       morphism_profile)
from .record import Record
from .structures import (LEFT, RIGHT, Morphism, Semimodule, additive_generators,
                         build_morphism, check_entries, check_table, derived_actions,
                         descend, element_order, freeze_table,
                         identity_morphism, is_cancellative, map_from_free,
                         monoid_morphism, rehome_pair, span, swap_actions)
from .subsets import additive_expressions, module_generators


class TensorPresentation(Record):
    left: Semimodule
    right: Semimodule
    left_gens: tuple[int, ...]
    right_gens: tuple[int, ...]
    radices: tuple[int, ...]
    box_size: int
    module: Semimodule
    tau: tuple[tuple[int, ...], ...]
    rep_coords: tuple[tuple[int, ...], ...]
    dense: bool

    def _hash_key(self):
        return (self.left, self.right, self.module, self.tau)

    def pair_list(self) -> list[tuple[int, int]]:
        return [(g, h) for g in self.left_gens for h in self.right_gens]


def _mediate(rep_coords, add, zero, values) -> tuple[int, ...]:
    """Each coordinate vector to the sum of values[q] taken coords[q] times.

    This is the one way a map out of a tensor presentation is evaluated:
    ``values`` gives the image of each generator pair, and a class goes to
    the sum over its representative's generator-pair coordinates.
    """
    out = []
    for coords in rep_coords:
        val = zero
        for c, v in zip(coords, values):
            for _ in range(c):
                val = add[val][v]
        out.append(val)
    return tuple(out)


def _pair_multiplicities(exprs_M, exprs_N) -> list[tuple[int, ...]]:
    """Generator-pair coordinates of each element pair (m, n), row by row.

    The bilinear expansion of m (x) n through the canonical expressions:
    the pair (g_i, h_j) occurs a_i * b_j times.
    """
    return [tuple(a * b for a in am for b in bn) for am in exprs_M for bn in exprs_N]


def _tensor_label(pres_left_labels, pres_right_labels, terms) -> str:
    if not terms:
        return "0"
    parts = []
    for c, g, h in terms:
        atom = f"{pres_left_labels[g]}⊗{pres_right_labels[h]}"
        parts.append(atom if c == 1 else f"{c}({atom})")
    return "+".join(parts)


def _pair_bound(oM: tuple[int, int], oN: tuple[int, int]) -> tuple[int, int]:
    # tighter of the two element orders, by carrier size then index
    return min(oM, oN, key=lambda ip: (ip[0] + ip[1], ip[0]))


def _generators(M: Semimodule, N: Semimodule, dense: bool):
    """Generators of both factors, their expressions, and the pair bounds.

    The presentation has one coordinate per generator pair (g, h), bounded
    by the tighter of the two element orders; ``dense`` takes every
    nonzero element as a generator, expressed as itself.
    """
    if dense:
        gens_M = tuple(x for x in range(M.size) if x != M.zero)
        gens_N = tuple(x for x in range(N.size) if x != N.zero)
        exprs_M = [tuple(1 if g == x else 0 for g in gens_M) for x in range(M.size)]
        exprs_N = [tuple(1 if h == x else 0 for h in gens_N) for x in range(N.size)]
    else:
        gens_M = additive_generators(M)
        gens_N = additive_generators(N)
        exprs_M = additive_expressions(M)
        exprs_N = additive_expressions(N)
    bounds = tuple(_pair_bound(element_order(M.add, M.zero, g),
                               element_order(N.add, N.zero, h))
                   for g in gens_M for h in gens_N)
    return gens_M, gens_N, exprs_M, exprs_N, bounds


def _saturate(bounds, coords) -> tuple[int, ...]:
    """Coordinates reduced into their radices: c >= i + p wraps to i + (c - i) % p."""
    return tuple(c if c < i + p else i + (c - i) % p for (i, p), c in zip(bounds, coords))


def _coordinate_relations(M: Semimodule, N: Semimodule, dense: bool):
    """The defining relations of the presentation, and the embedding of the pure tensors.

    The embedding sends (m, n) to its bilinear expansion through the
    canonical expressions, as a coordinate vector in the box.  The
    relations are the bilinearity and balance families over all triples
    and the zero-collapse pairs, as pairs of coordinate vectors with the
    lex-smaller first, deduplicated.
    """
    _, _, exprs_M, exprs_N, bounds = _generators(M, N, dense)
    flat = [_saturate(bounds, mult) for mult in _pair_multiplicities(exprs_M, exprs_N)]
    emb = [flat[m * N.size:(m + 1) * N.size] for m in range(M.size)]
    origin = (0,) * len(bounds)
    relations = set()

    def relate(x, y):
        if x != y:
            relations.add((x, y) if x < y else (y, x))

    def box_add(x, y):
        return _saturate(bounds, [a + b for a, b in zip(x, y)])

    for m1 in range(M.size):
        for m2 in range(m1, M.size):
            row = emb[M.add[m1][m2]]
            r1, r2 = emb[m1], emb[m2]
            for n in range(N.size):
                relate(row[n], box_add(r1[n], r2[n]))
    for n1 in range(N.size):
        for n2 in range(n1, N.size):
            col = N.add[n1][n2]
            for m in range(M.size):
                relate(emb[m][col], box_add(emb[m][n1], emb[m][n2]))
    for m in range(M.size):
        for s in range(M.semiring.size):
            ms = M.action[m][s]
            for n in range(N.size):
                relate(emb[ms][n], emb[m][N.action[n][s]])
    for n in range(N.size):
        relate(emb[M.zero][n], origin)
    for m in range(M.size):
        relate(emb[m][N.zero], origin)
    return relations, emb


def relation_count(pres: TensorPresentation) -> int:
    """The number of defining relations of the generator-pair presentation."""
    return len(_coordinate_relations(pres.left, pres.right, pres.dense)[0])


@lru_cache(maxsize=None)
def tensor_product(M: Semimodule, N: Semimodule, dense: bool = False) -> TensorPresentation:
    """M (x) N from a free cover of N; ``dense`` builds the dense box oracle instead."""
    if M.semiring != N.semiring:
        raise SideMismatch("tensor factors must share their semiring")
    if M.side != RIGHT or N.side != LEFT:
        raise SideMismatch("tensor takes a right module and a left module")
    return _box_product(M, N, True) if dense else _cover_product(M, N)


def _cover_product(M: Semimodule, N: Semimodule) -> TensorPresentation:
    """M (x) N, as the quotient of M^n by the image of the kernel pair of a free cover of N.

    M (x) - is left adjoint to Hom(M, -), so it preserves coequalizers.
    With h_1..h_n the module generators of N and phi: S^n -> N the cover,
    M (x) S^n is M^n, and M (x) N is M^n divided by the congruence that
    the pairs (m.x, m.y) generate, for m in M and phi(x) = phi(y); the
    pairing sends (m, phi(x)) to the class of m.x.
    """
    S = M.semiring
    hs = module_generators(N)
    n = len(hs)
    for what, cells in (("tensor cover S^n", S.size ** n), ("tensor cover M^n", M.size ** n)):
        if cells > config.MAX_PRODUCT:
            raise SizeBoundExceeded(what, cells, config.MAX_PRODUCT)
    gens_M, gens_N, _, _, bounds = _generators(M, N, False)

    # M^n, slot 0 most significant, so cell order is lex order
    weights = [M.size ** (n - 1 - j) for j in range(n)]
    vectors = list(itertools.product(range(M.size), repeat=n))

    def scaled(m: int, x) -> int:
        act = M.action[m]
        return sum(act[s] * w for s, w in zip(x, weights))

    fibres = {}
    for x, val in zip(itertools.product(range(S.size), repeat=n), map_from_free(N, hs)):
        fibres.setdefault(val, []).append(x)
    # (m1 + m2).x = m1.x + m2.x, so the pairs for the additive generators
    # of M generate those for every m
    pairs = []
    for m in additive_generators(M):
        for fibre in fibres.values():
            first = scaled(m, fibre[0])
            pairs.extend((first, scaled(m, x)) for x in fibre[1:])
    # translation by g in slot j turns digit v_j into v_j + g; the shift
    # ((v_j + g) - v_j) * weight_j repeats with the period of that digit
    cells = len(vectors)
    steps = []
    for g in additive_generators(M):
        for w in weights:
            shift = [(M.add[v][g] - v) * w for v in range(M.size) for _ in range(w)]
            steps.append(list(map(operator.add, range(cells),
                                  shift * (cells // len(shift)))))
    cong = congruence_closure(cells, steps, pairs)
    cls = cong.class_of
    reps = cong.representatives
    add = [[cls[sum(M.add[a][b] * w for a, b, w in zip(vectors[x], vectors[y], weights))]
            for y in reps] for x in reps]
    tau = [[cls[scaled(m, fibres[v][0])] for v in range(N.size)] for m in range(M.size)]

    # number the classes by least box vector, the order the box numbers them in
    radices = tuple(i + p for i, p in bounds)
    coords = _least_box_vectors(add, tau[M.zero][N.zero],
                                [tau[g][h] for g in gens_M for h in gens_N], radices)
    order = sorted(range(cong.class_count), key=coords.__getitem__)
    new = [0] * len(order)
    for i, c in enumerate(order):
        new[c] = i
    qadd = freeze_table([[new[add[a][b]] for b in order] for a in order])
    qtau = freeze_table([[new[c] for c in row] for row in tau])
    rep_coords = tuple(coords[c] for c in order)
    return _presentation(M, N, gens_M, gens_N, radices, qadd, qtau, rep_coords, False)


def _least_box_vectors(add, zero: int, values, radices) -> list[tuple[int, ...]]:
    """Per class, the lex-least c in the box with sum_q c_q * values[q] in the class.

    Suf_q holds the classes that coordinates q..k-1 reach within their
    radices; each c_q is the least value from which some member of
    Suf_{q+1} still completes the class.
    """
    k = len(values)
    multiples = []
    for v, r in zip(values, radices):
        row = [zero]
        for _ in range(r - 1):
            row.append(add[row[-1]][v])
        multiples.append(row)
    suffix = [frozenset((zero,))]
    for q in range(k - 1, -1, -1):
        suffix.append(frozenset(add[a][c] for a in suffix[-1] for c in multiples[q]))
    suffix.reverse()
    reach = {}

    def completes(q: int, prefix: int) -> frozenset[int]:
        key = (q, prefix)
        if key not in reach:
            row = add[prefix]
            reach[key] = frozenset(row[s] for s in suffix[q])
        return reach[key]

    out = []
    for target in range(len(add)):
        if target not in suffix[0]:
            raise NotBalanced("generation", "generator pairs do not span the quotient")
        prefix = zero
        vec = []
        for q in range(k):
            for c, mult in enumerate(multiples[q]):
                nxt = add[prefix][mult]
                if target in completes(q + 1, nxt):
                    vec.append(c)
                    prefix = nxt
                    break
        out.append(tuple(vec))
    return out


def _box_product(M: Semimodule, N: Semimodule, dense: bool) -> TensorPresentation:
    """M (x) N as a congruence quotient of the whole generator-pair box.

    Each generator pair contributes one saturating cyclic coordinate; the
    box is divided by the congruence that the defining relations generate.
    ``tensor_product(dense=True)`` builds it on every nonzero element, as
    the independent oracle; the tests also build it on the additive
    generators, as the oracle of the cover.
    """
    gens_M, gens_N, _, _, bounds = _generators(M, N, dense)
    radices = tuple(i + p for i, p in bounds)
    box_size = 1
    for r in radices:
        box_size *= r
        if box_size > config.MAX_BOX:
            raise BoxBoundExceeded("tensor box", box_size, config.MAX_BOX)
    coords_of = list(itertools.product(*(range(r) for r in radices)))
    index = {c: i for i, c in enumerate(coords_of)}
    relations, emb = _coordinate_relations(M, N, dense)

    def box_add(a: int, b: int) -> int:
        return index[_saturate(bounds, [x + y for x, y in zip(coords_of[a], coords_of[b])])]

    # the box is generated by the k unit vectors, so closing under the
    # k unit steps closes under every translate
    steps = []
    stride = box_size
    for q, (i, p) in enumerate(bounds):
        stride //= i + p
        steps.append([x + (c + 1 if c + 1 < i + p else i) * stride - c * stride
                      for x, c in enumerate(coords[q] for coords in coords_of)])
    cong = congruence_closure(box_size, steps,
                              sorted((index[a], index[b]) for a, b in relations))
    cls = cong.class_of
    reps = cong.representatives
    qadd = freeze_table([[cls[box_add(a, b)] for b in reps] for a in reps])
    tau = freeze_table([[cls[index[c]] for c in row] for row in emb])
    rep_coords = tuple(coords_of[r] for r in reps)
    return _presentation(M, N, gens_M, gens_N, radices, qadd, tau, rep_coords, dense)


def _presentation(M, N, gens_M, gens_N, radices, qadd, tau, rep_coords,
                  dense: bool) -> TensorPresentation:
    """The tensor module on the classes, its pushed actions, and its checks."""
    pairs = [(g, h) for g in gens_M for h in gens_N]
    labels = []
    for coords in rep_coords:
        terms = [(c, g, h) for c, (g, h) in zip(coords, pairs) if c]
        labels.append(_tensor_label(M.labels, N.labels, terms))
    qzero = tau[M.zero][N.zero]

    def pushed_action(act_table, on_left: bool):
        """Action on classes, evaluated one scalar column at a time."""
        columns = []
        for t in range(len(act_table[0])):
            values = [tau[act_table[g][t]][h] if on_left else tau[g][act_table[h][t]]
                      for g, h in pairs]
            columns.append(_mediate(rep_coords, qadd, qzero, values))
        return freeze_table(zip(*columns))

    actions = []
    if N.second is not None:
        # right action through the right factor
        actions.append((N.second.semiring, N.second.side, pushed_action(N.second.table, False)))
    if M.second is not None:
        actions.append((M.second.semiring, M.second.side, pushed_action(M.second.table, True)))
    T, side, action, second = derived_actions(M.semiring, qadd, qzero, actions)
    # a quotient of a valid module by a congruence, with actions induced
    # by the pairing, so no axiom scan; the asserts below tie the pushed
    # actions to the pairing
    module = Semimodule(T, side, tuple(labels), qadd, qzero, action, second)
    if N.second is not None:
        act = module.action
        for m in range(M.size):
            for n in range(N.size):
                for t in range(N.second.semiring.size):
                    assert act[tau[m][n]][t] == tau[m][N.second.table[n][t]], \
                        "pushed right action disagrees with the pairing"
    if M.second is not None:
        act = module.second.table if N.second is not None else module.action
        for m in range(M.size):
            for n in range(N.size):
                for t in range(M.second.semiring.size):
                    assert act[tau[m][n]][t] == tau[M.second.table[m][t]][n], \
                        "pushed left action disagrees with the pairing"
    pres = TensorPresentation(M, N, gens_M, gens_N, radices, math.prod(radices),
                              module, tau, rep_coords, dense)
    _check_generation(pres)
    return pres


def _check_generation(pres: TensorPresentation) -> None:
    pairs = [pres.tau[g][h] for g in pres.left_gens for h in pres.right_gens]
    if len(span(pres.module.add, pres.module.zero, pairs)) != pres.module.size:
        raise NotBalanced("generation", "generator pairs do not span the quotient")


# ---------------------------------------------------------------------------
# Balanced maps and the universal factorization.
# ---------------------------------------------------------------------------

def balanced_violations(M: Semimodule, N: Semimodule, G: Semimodule, table):
    """Witnesses against biadditivity, balance or zero preservation."""
    out = []
    for m1 in range(M.size):
        for m2 in range(M.size):
            plus = M.add[m1][m2]
            for n in range(N.size):
                if table[plus][n] != G.add[table[m1][n]][table[m2][n]]:
                    out.append(("left-additive", (m1, m2, n)))
    for m in range(M.size):
        for n1 in range(N.size):
            for n2 in range(N.size):
                if table[m][N.add[n1][n2]] != G.add[table[m][n1]][table[m][n2]]:
                    out.append(("right-additive", (m, n1, n2)))
    for m in range(M.size):
        for s in range(M.semiring.size):
            ms = M.action[m][s]
            for n in range(N.size):
                if table[ms][n] != table[m][N.action[n][s]]:
                    out.append(("balance", (m, s, n)))
    for n in range(N.size):
        if table[M.zero][n] != G.zero:
            out.append(("zero-left", (M.zero, n)))
    for m in range(M.size):
        if table[m][N.zero] != G.zero:
            out.append(("zero-right", (m, N.zero)))
    return out


def factor_balanced(pres: TensorPresentation, G: Semimodule, table) -> tuple[int, ...]:
    """The unique mediating assignment for a balanced zero-preserving table.

    Returns one G-element per tensor class; raises when the table is not
    balanced.  The full composite scan re-verifies the factorization.
    """
    table = freeze_table(table)
    check_table(table, pres.left.size, pres.right.size, "balanced table")
    check_entries(table, G.size, "balanced table")
    bad = balanced_violations(pres.left, pres.right, G, table)
    zero_bad = [b for b in bad if b[0].startswith("zero")]
    if zero_bad:
        raise NotZeroPreserving(zero_bad[0][1])
    if bad:
        raise NotBalanced(bad[0][1], bad[0][0])
    gamma = _mediate(pres.rep_coords, G.add, G.zero,
                     [table[g][h] for g, h in pres.pair_list()])
    for m in range(pres.left.size):
        for n in range(pres.right.size):
            if gamma[pres.tau[m][n]] != table[m][n]:
                raise NotBalanced((m, n), "mediating map does not recover the table")
    return gamma


def enumerate_balanced_maps(M: Semimodule, N: Semimodule, G: Semimodule):
    """All zero-preserving balanced tables M x N -> G.

    Biadditivity pins a table down on generator pairs, so candidate
    assignments there are extended bilinearly and filtered by the direct
    table-level checks; the enumeration is exhaustive.
    """
    npairs = len(additive_generators(M)) * len(additive_generators(N))
    if G.size ** npairs > config.MAX_HOM_CANDIDATES:
        raise SizeBoundExceeded("balanced map enumeration", G.size ** npairs,
                                config.MAX_HOM_CANDIDATES)
    mults = _pair_multiplicities(additive_expressions(M), additive_expressions(N))
    out = {}
    for assign in itertools.product(range(G.size), repeat=npairs):
        flat = _mediate(mults, G.add, G.zero, assign)
        table = tuple(flat[m * N.size:(m + 1) * N.size] for m in range(M.size))
        if not balanced_violations(M, N, G, table):
            out[table] = None
    return list(out)


# ---------------------------------------------------------------------------
# Functoriality.
# ---------------------------------------------------------------------------

def tensor_morphisms(f: Morphism, g: Morphism, dense: bool = False) -> Morphism:
    """The induced map between tensor presentations of maps f and g."""
    P = tensor_product(f.source, g.source, dense)
    Q = tensor_product(f.target, g.target, dense)
    mapping = _mediate(P.rep_coords, Q.module.add, Q.module.zero,
                       [Q.tau[f.map[gm]][g.map[hn]] for gm, hn in P.pair_list()])
    # f (x) g is linear, so the map gets no morphism check; the loop below
    # checks that it intertwines the pairings
    if P.module.semiring == Q.module.semiring and P.module.side == Q.module.side:
        result = Morphism(P.module, Q.module, mapping)
    else:
        result = Morphism(*rehome_pair(P.module, Q.module), mapping)
    for m in range(f.source.size):
        for n in range(g.source.size):
            if mapping[P.tau[m][n]] != Q.tau[f.map[m]][g.map[n]]:
                raise NotBalanced((m, n), "functorial map does not intertwine the pairings")
    return result


# ---------------------------------------------------------------------------
# Unit and associativity isomorphisms.
# ---------------------------------------------------------------------------

class IsoPair(Record):
    forward: Morphism
    backward: Morphism

    @property
    def valid(self) -> bool:
        fwd, bwd = self.forward, self.backward
        round1 = all(bwd.map[fwd.map[x]] == x for x in range(fwd.source.size))
        round2 = all(fwd.map[bwd.map[y]] == y for y in range(bwd.source.size))
        return round1 and round2


def unit_iso(M: Semimodule) -> tuple[TensorPresentation, IsoPair]:
    """M = M (x) S via m -> m(x)1, inverse induced by the action table."""
    S = M.semiring
    pres = tensor_product(M, semiring_bimodule(S, LEFT))
    forward = build_morphism(M, pres.module, tuple(pres.tau[m][S.one] for m in range(M.size)))
    table = tuple(tuple(M.action[m][s] for s in range(S.size)) for m in range(M.size))
    gamma = factor_balanced(pres, M, table)
    backward = build_morphism(pres.module, M, gamma)
    return pres, IsoPair(forward, backward)


def unit_iso_left(N: Semimodule) -> tuple[TensorPresentation, IsoPair]:
    """N = S (x) N via n -> 1(x)n for a left module N."""
    S = N.semiring
    pres = tensor_product(semiring_bimodule(S, RIGHT), N)
    forward = build_morphism(N, pres.module, tuple(pres.tau[S.one][n] for n in range(N.size)))
    table = tuple(tuple(N.action[n][s] for n in range(N.size)) for s in range(S.size))
    gamma = factor_balanced(pres, N, table)
    backward = build_morphism(pres.module, N, gamma)
    return pres, IsoPair(forward, backward)


# ---------------------------------------------------------------------------
# The cancellative tensor product, through the reflection.
# ---------------------------------------------------------------------------

class CancellativeTensor(Record):
    presentation: TensorPresentation
    module: Semimodule
    reflection: Morphism
    tau: tuple[tuple[int, ...], ...]


def cancellative_tensor(M: Semimodule, N: Semimodule) -> CancellativeTensor:
    pres = tensor_product(M, N)
    refl, cmap = cancellative_reflection(pres.module)
    tau = freeze_table([[cmap.map[pres.tau[m][n]] for n in range(N.size)]
                        for m in range(M.size)])
    return CancellativeTensor(pres, refl, cmap, tau)


def certify_cancellative_universal(M: Semimodule, N: Semimodule, targets) -> int:
    """Check the factorization property of the reflected tensor.

    For every enumerated zero-preserving balanced map into every supplied
    cancellative target there must be exactly one monoid map out of the
    reflected tensor commuting with the pairing.  Returns the number of
    balanced maps checked.
    """
    ct = cancellative_tensor(M, N)
    checked = 0
    for G in targets:
        if not is_cancellative(G):
            raise NotBalanced("target", "universal certification needs cancellative targets")
        C2, G2 = rehome_pair(ct.module, G)
        H = hom_module(C2, G2)
        for table in enumerate_balanced_maps(M, N, G):
            gamma = factor_balanced(ct.presentation, G, table)
            if descend(zip(ct.reflection.map, gamma), ct.module.size) is None:
                raise NotBalanced("reflection", "mediating map not constant on classes")
            count = 0
            for cand in H.maps:
                if all(cand.map[ct.tau[m][n]] == table[m][n]
                       for m in range(M.size) for n in range(N.size)):
                    count += 1
            if count != 1:
                raise NotBalanced((M.size, N.size),
                                  f"expected a unique mediating map, found {count}")
            checked += 1
    return checked


# ---------------------------------------------------------------------------
# Hom-tensor adjunction.
# ---------------------------------------------------------------------------

class AdjunctionReport(Record):
    bijective: bool
    additive: bool
    natural_in_source: bool
    natural_in_target: bool

    @property
    def holds(self) -> bool:
        return (self.bijective and self.additive
                and self.natural_in_source and self.natural_in_target)


def adjunction_iso(M_bi: Semimodule, X: Semimodule, Y: Semimodule,
                   test_source=(), test_target=()) -> AdjunctionReport:
    """Currying between maps out of the tensor and maps into the hom.

    ``M_bi`` is a right module over the semiring of X with a second, left
    action over the semiring of Y.
    """
    if M_bi.second is None:
        raise SideMismatch("adjunction needs a bisemimodule in the middle")
    M_left = swap_actions(M_bi)
    P = tensor_product(M_bi, X)
    LHS = hom_module(P.module, Y)
    HomMY = hom_module(M_left, Y)
    RHS = hom_module(X, HomMY.module)

    def curry(F: Morphism, pres: TensorPresentation, inner: HomModule,
              outer: HomModule) -> int:
        """F out of M (x) X' as the index of x -> F(- (x) x) in Hom(X', Hom(M, Y'))."""
        return outer.index_of(tuple(
            inner.index_of(tuple(F.map[pres.tau[m][x]] for m in range(M_bi.size)))
            for x in range(pres.right.size)))

    mapping = tuple(curry(F, P, HomMY, RHS) for F in LHS.maps)
    count = len(LHS.maps)
    bijective = len(set(mapping)) == len(RHS.maps) == count
    additive = all(mapping[LHS.module.add[i][j]] == RHS.module.add[mapping[i]][mapping[j]]
                   for i in range(count) for j in range(count))

    natural_source = True
    for u in test_source:
        # u : X' -> X induces squares through both sides
        P2 = tensor_product(M_bi, u.source)
        lhs_step = hom_precompose(tensor_morphisms(identity_morphism(M_bi), u), Y)
        rhs_step = hom_precompose(u, HomMY.module)
        LHS2 = hom_module(P2.module, Y)
        RHS2 = hom_module(u.source, HomMY.module)
        natural_source = all(
            curry(LHS2.maps[lhs_step.map[i]], P2, HomMY, RHS2) == rhs_step.map[mapping[i]]
            for i in range(count))
        if not natural_source:
            break

    natural_target = True
    for v in test_target:
        # v : Y -> Y' postcomposes on both sides
        lhs_step = hom_postcompose(P.module, v)
        inner_step = hom_postcompose(M_left, v)
        HomMY2 = hom_module(M_left, v.target)
        LHS2 = hom_module(P.module, v.target)
        RHS2 = hom_module(X, HomMY2.module)
        natural_target = all(
            curry(LHS2.maps[lhs_step.map[i]], P, HomMY2, RHS2)
            == RHS2.index_of(tuple(inner_step.map[y] for y in RHS.maps[mapping[i]].map))
            for i in range(count))
        if not natural_target:
            break
    return AdjunctionReport(bijective, additive, natural_source, natural_target)


# ---------------------------------------------------------------------------
# The hom/tensor comparison maps.
# ---------------------------------------------------------------------------

class HomTensorComparison(Record):
    injective: bool
    uniform: bool
    bijective: bool


def _comparison(X: Semimodule, Y_bi: Semimodule, Z: Semimodule, TH: HomModule,
                pair) -> HomTensorComparison:
    """The map Hom(X, Y) (x) Z -> TH induced by f (x) z -> pair(f(-), z)."""
    H = hom_module(X, Y_bi)
    P = tensor_product(H.module, Z)
    beta = tuple(tuple(TH.index_of(tuple(pair(y, z) for y in f.map)) for z in range(Z.size))
                 for f in H.maps)
    nu = monoid_morphism(P.module, TH.module, factor_balanced(P, TH.module, beta))
    return HomTensorComparison(nu.injective, morphism_profile(nu).uniform,
                               nu.injective and nu.surjective)


def hom_tensor_comparison(X: Semimodule, Y_bi: Semimodule, Z: Semimodule) -> HomTensorComparison:
    """Hom(X, Y) (x) Z -> Hom(X, Y (x) Z) on pure tensors f (x) z -> f(-) (x) z.

    X and Y share a left structure; Y carries a second right action over
    the semiring of Z.
    """
    YZ = tensor_product(swap_actions(Y_bi), Z)
    return _comparison(X, Y_bi, Z, hom_module(X, YZ.module), lambda y, z: YZ.tau[y][z])


def dual_comparison(X: Semimodule, Z: Semimodule) -> HomTensorComparison:
    """Hom(X, S) (x) Z -> Hom(X, Z) on f (x) z -> f(-)z."""
    return _comparison(X, semiring_bimodule(X.semiring, X.side), Z, hom_module(X, Z),
                       lambda s, z: Z.action[z][s])
