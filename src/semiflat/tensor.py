"""Tensor products of semimodules as bounded finitely presented monoids.

The product of a right module M and a left module N over one semiring is
presented on generator pairs (g, h) drawn from minimal additive generating
sets.  Each pair contributes one saturating cyclic coordinate, bounded by
the tighter of the two element orders; the presentation relations are the
bilinearity and balance families instantiated over all triples, expanded
through canonical breadth-first expressions, plus the zero-collapse pair
family.  Balanced maps are required to send slot zeroes to zero; without
that collapse the empty word survives as an isolated element and the unit
law fails already on two-element idempotent carriers.

The ``dense`` flag keeps one coordinate per element pair instead and skips
the expansion step entirely; it is the independent oracle presentation.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .catalog import semiring_bimodule
from . import config
from .congruence import Congruence, cancellative_reflection, congruence_closure
from .errors import (BoxBoundExceeded, NotBalanced, NotZeroPreserving,
                     SideMismatch, SizeBoundExceeded)
from .homology import HomModule, hom_module, hom_postcompose, hom_precompose
from .record import Record
from .structures import (LEFT, RIGHT, Morphism, SecondAction, Semimodule,
                         additive_span, build_morphism, build_semimodule,
                         counting_action, counting_semiring_for, element_order,
                         freeze_table, identity_morphism, monoid_morphism,
                         swap_actions)
from .subsets import additive_generators, additive_expressions


class TensorPresentation(Record):
    _fields = ("left", "right", "left_gens", "right_gens", "pair_bounds", "radices",
               "box_size", "relation_count", "congruence", "module", "tau", "rep_coords",
               "dense")

    def __init__(self, left: Semimodule, right: Semimodule, left_gens: tuple[int, ...],
                 right_gens: tuple[int, ...], pair_bounds: tuple[tuple[int, int], ...],
                 radices: tuple[int, ...], box_size: int, relation_count: int,
                 congruence: Congruence, module: Semimodule,
                 tau: tuple[tuple[int, ...], ...], rep_coords: tuple[tuple[int, ...], ...],
                 dense: bool):
        d = self.__dict__
        d["left"] = left
        d["right"] = right
        d["left_gens"] = left_gens
        d["right_gens"] = right_gens
        d["pair_bounds"] = pair_bounds
        d["radices"] = radices
        d["box_size"] = box_size
        d["relation_count"] = relation_count
        d["congruence"] = congruence
        d["module"] = module
        d["tau"] = tau
        d["rep_coords"] = rep_coords
        d["dense"] = dense

    def _hash_key(self):
        return (self.left, self.right, self.module, self.tau)

    def pair_list(self) -> list[tuple[int, int]]:
        return [(g, h) for g in self.left_gens for h in self.right_gens]

    def class_terms(self, cls: int) -> list[tuple[int, int, int]]:
        """(count, left element, right element) terms of the class representative."""
        pairs = self.pair_list()
        return [(c, g, h) for c, (g, h) in zip(self.rep_coords[cls], pairs) if c]


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


@lru_cache(maxsize=None)
def tensor_product(M: Semimodule, N: Semimodule, dense: bool = False) -> TensorPresentation:
    if M.semiring != N.semiring:
        raise SideMismatch("tensor factors must share their semiring")
    if M.side != RIGHT or N.side != LEFT:
        raise SideMismatch("tensor takes a right module and a left module")
    S = M.semiring
    if dense:
        gens_M = tuple(x for x in range(M.size) if x != M.zero)
        gens_N = tuple(x for x in range(N.size) if x != N.zero)
        exprs_M = [tuple(1 if g == x else 0 for g in gens_M) for x in range(M.size)]
        exprs_N = [tuple(1 if h == x else 0 for h in gens_N) for x in range(N.size)]
    else:
        gens_M = additive_generators(M)
        gens_N = additive_generators(N)
        full_M = additive_expressions(M)
        full_N = additive_expressions(N)
        exprs_M = list(full_M)
        exprs_N = list(full_N)
    pairs = [(g, h) for g in gens_M for h in gens_N]
    k = len(pairs)
    bounds = tuple(_pair_bound(element_order(M.add, M.zero, g),
                               element_order(N.add, N.zero, h)) for g, h in pairs)
    radices = tuple(i + p for i, p in bounds)
    box_size = 1
    for r in radices:
        box_size *= r
        if box_size > config.MAX_BOX:
            raise BoxBoundExceeded("tensor box", box_size, config.MAX_BOX)

    coords_of = [()] * box_size
    for idx in range(box_size):
        rem = idx
        out = []
        for r in reversed(radices):
            out.append(rem % r)
            rem //= r
        coords_of[idx] = tuple(reversed(out))

    def encode(coords) -> int:
        idx = 0
        for r, c in zip(radices, coords):
            idx = idx * r + c
        return idx

    def reduce_coord(q: int, raw: int) -> int:
        i, p = bounds[q]
        return raw if raw < i + p else i + (raw - i) % p

    def box_add(a: int, b: int) -> int:
        ca, cb = coords_of[a], coords_of[b]
        return encode(tuple(reduce_coord(q, ca[q] + cb[q]) for q in range(k)))

    # emb(m, n): bilinear expansion through the canonical expressions
    emb = [[0] * N.size for _ in range(M.size)]
    for m in range(M.size):
        am = exprs_M[m]
        for n in range(N.size):
            bn = exprs_N[n]
            coords = []
            q = 0
            for gi in range(len(gens_M)):
                for hj in range(len(gens_N)):
                    coords.append(reduce_coord(q, am[gi] * bn[hj]))
                    q += 1
            emb[m][n] = encode(coords)

    relations = set()

    def relate(x: int, y: int):
        if x != y:
            relations.add((x, y) if x < y else (y, x))

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
        for s in range(S.size):
            ms = M.action[m][s]
            for n in range(N.size):
                relate(emb[ms][n], emb[m][N.action[n][s]])
    for n in range(N.size):
        relate(emb[M.zero][n], 0)
    for m in range(M.size):
        relate(emb[m][N.zero], 0)

    # the box is generated by the k unit vectors, so closing under the
    # k unit steps closes under every translate
    steps = []
    stride = box_size
    for q in range(k):
        stride //= radices[q]
        steps.append([x + (reduce_coord(q, coords_of[x][q] + 1) - coords_of[x][q]) * stride
                      for x in range(box_size)])
    cong = congruence_closure(box_size, steps, sorted(relations))
    cls = cong.class_of
    reps = cong.representatives
    qsize = cong.class_count
    qadd = freeze_table([[cls[box_add(a, b)] for b in reps] for a in reps])
    tau = freeze_table([[cls[emb[m][n]] for n in range(N.size)] for m in range(M.size)])
    rep_coords = tuple(coords_of[r] for r in reps)
    labels = []
    pair_idx = pairs
    for ci in range(qsize):
        terms = [(c, g, h) for c, (g, h) in zip(rep_coords[ci], pair_idx) if c]
        labels.append(_tensor_label(M.labels, N.labels, terms))
    qzero = cls[0]

    def pushed_action(act_table, on_left: bool):
        """Action on classes via the generator terms of each representative."""
        size_t = len(act_table[0])
        out = []
        for ci in range(qsize):
            row = []
            for t in range(size_t):
                val = qzero
                for c, (g, h) in zip(rep_coords[ci], pair_idx):
                    if not c:
                        continue
                    if on_left:
                        term = tau[act_table[g][t]][h]
                    else:
                        term = tau[g][act_table[h][t]]
                    for _ in range(c):
                        val = qadd[val][term]
                row.append(val)
            out.append(row)
        return freeze_table(out)

    primary = None
    second = None
    if N.second is not None:
        # right action through the right factor
        primary = (N.second.semiring, N.second.side, pushed_action(N.second.table, False))
    if M.second is not None:
        left_action = (M.second.semiring, M.second.side, pushed_action(M.second.table, True))
        if primary is None:
            primary = left_action
        else:
            second = SecondAction(*left_action)
    if primary is None:
        CS = counting_semiring_for(S)
        primary = (CS, RIGHT, counting_action(qadd, qzero, CS.size))
    module = build_semimodule(primary[0], primary[1], tuple(labels), qadd, qzero,
                              primary[2], second)
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
    pres = TensorPresentation(M, N, gens_M, gens_N, bounds, radices, box_size,
                              len(relations), cong, module, tau, rep_coords, dense)
    _check_generation(pres)
    return pres


def _check_generation(pres: TensorPresentation) -> None:
    span = additive_span(pres.module.add, pres.module.zero,
                         [pres.tau[g][h] for g in pres.left_gens for h in pres.right_gens])
    if len(span) != pres.module.size:
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
    bad = balanced_violations(pres.left, pres.right, G, table)
    zero_bad = [b for b in bad if b[0].startswith("zero")]
    if zero_bad:
        raise NotZeroPreserving(zero_bad[0][1])
    if bad:
        raise NotBalanced(bad[0][1], bad[0][0])
    pairs = pres.pair_list()
    gamma = []
    for ci in range(pres.module.size):
        val = G.zero
        for c, (g, h) in zip(pres.rep_coords[ci], pairs):
            term = table[g][h]
            for _ in range(c):
                val = G.add[val][term]
        gamma.append(val)
    for m in range(pres.left.size):
        for n in range(pres.right.size):
            if gamma[pres.tau[m][n]] != table[m][n]:
                raise NotBalanced((m, n), "mediating map does not recover the table")
    return tuple(gamma)


def enumerate_balanced_maps(M: Semimodule, N: Semimodule, G: Semimodule):
    """All zero-preserving balanced tables M x N -> G.

    Biadditivity pins a table down on generator pairs, so candidate
    assignments there are extended bilinearly and filtered by the direct
    table-level checks; the enumeration is exhaustive.
    """
    gens_M = additive_generators(M)
    gens_N = additive_generators(N)
    exprs_M = additive_expressions(M)
    exprs_N = additive_expressions(N)
    npairs = len(gens_M) * len(gens_N)
    if G.size ** npairs > config.MAX_HOM_CANDIDATES:
        raise SizeBoundExceeded("balanced map enumeration", G.size ** npairs,
                                config.MAX_HOM_CANDIDATES)
    out = []
    for assign in itertools.product(range(G.size), repeat=npairs):
        table = []
        for m in range(M.size):
            am = exprs_M[m]
            row = []
            for n in range(N.size):
                bn = exprs_N[n]
                val = G.zero
                q = 0
                for gi in range(len(gens_M)):
                    for hj in range(len(gens_N)):
                        mult = am[gi] * bn[hj]
                        for _ in range(mult):
                            val = G.add[val][assign[q]]
                        q += 1
                row.append(val)
            table.append(tuple(row))
        table = tuple(table)
        if not balanced_violations(M, N, G, table):
            out.append(table)
    seen = set()
    unique = []
    for t in out:
        if t not in seen:
            seen.add(t)
            unique.append(t)
    return unique


# ---------------------------------------------------------------------------
# Functoriality.
# ---------------------------------------------------------------------------

def tensor_morphisms(f: Morphism, g: Morphism, dense: bool = False) -> Morphism:
    """The induced map between tensor presentations of maps f and g."""
    P = tensor_product(f.source, g.source, dense)
    Q = tensor_product(f.target, g.target, dense)
    pairs = P.pair_list()
    mapping = []
    for ci in range(P.module.size):
        val = Q.module.zero
        for c, (gm, hn) in zip(P.rep_coords[ci], pairs):
            if not c:
                continue
            term = Q.tau[f.map[gm]][g.map[hn]]
            for _ in range(c):
                val = Q.module.add[val][term]
        mapping.append(val)
    if P.module.semiring == Q.module.semiring and P.module.side == Q.module.side:
        result = build_morphism(P.module, Q.module, mapping)
    else:
        result = monoid_morphism(P.module, Q.module, mapping)
    for m in range(f.source.size):
        for n in range(g.source.size):
            if mapping[P.tau[m][n]] != Q.tau[f.map[m]][g.map[n]]:
                raise NotBalanced((m, n), "functorial map does not intertwine the pairings")
    return result


# ---------------------------------------------------------------------------
# Unit and associativity isomorphisms.
# ---------------------------------------------------------------------------

class IsoPair(Record):
    _fields = ("forward", "backward")

    def __init__(self, forward: Morphism, backward: Morphism):
        d = self.__dict__
        d["forward"] = forward
        d["backward"] = backward

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


def associativity_iso(M: Semimodule, N_bi: Semimodule, X: Semimodule):
    """(M (x) N) (x) X = M (x) (N (x) X) through balanced factorizations.

    N must carry a left action over the semiring of M and a right action
    over the semiring of X.
    """
    P1 = tensor_product(M, N_bi)                     # right module over T
    P2 = tensor_product(P1.module, X)
    NX = tensor_product(swap_actions(N_bi), X)       # left module over S
    Q2 = tensor_product(M, NX.module)

    beta = []
    for u in range(P1.module.size):
        terms = P1.class_terms(u)
        row = []
        for x in range(X.size):
            val = Q2.module.zero
            for c, g, h in terms:
                term = Q2.tau[g][NX.tau[h][x]]
                for _ in range(c):
                    val = Q2.module.add[val][term]
            row.append(val)
        beta.append(tuple(row))
    gamma = factor_balanced(P2, Q2.module, tuple(beta))
    forward = monoid_morphism(P2.module, Q2.module, gamma)

    beta_back = []
    for m in range(M.size):
        row = []
        for w in range(NX.module.size):
            val = P2.module.zero
            for c, h, x in NX.class_terms(w):
                term = P2.tau[P1.tau[m][h]][x]
                for _ in range(c):
                    val = P2.module.add[val][term]
            row.append(val)
        beta_back.append(tuple(row))
    gamma_back = factor_balanced(Q2, P2.module, tuple(beta_back))
    backward = monoid_morphism(Q2.module, P2.module, gamma_back)
    return P2, Q2, IsoPair(forward, backward)


# ---------------------------------------------------------------------------
# The cancellative tensor product, through the reflection.
# ---------------------------------------------------------------------------

class CancellativeTensor(Record):
    _fields = ("presentation", "module", "reflection", "tau")

    def __init__(self, presentation: TensorPresentation, module: Semimodule,
                 reflection: Morphism, tau: tuple[tuple[int, ...], ...]):
        d = self.__dict__
        d["presentation"] = presentation
        d["module"] = module
        d["reflection"] = reflection
        d["tau"] = tau


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
        from .structures import is_cancellative, rehome_pair
        if not is_cancellative(G):
            raise NotBalanced("target", "universal certification needs cancellative targets")
        C2, G2 = rehome_pair(ct.module, G)
        H = hom_module(C2, G2)
        for table in enumerate_balanced_maps(M, N, G):
            gamma = factor_balanced(ct.presentation, G, table)
            induced = [None] * ct.module.size
            for x, gx in enumerate(gamma):
                c = ct.reflection.map[x]
                if induced[c] is None:
                    induced[c] = gx
                elif induced[c] != gx:
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
    _fields = ("left_hom", "right_hom", "mapping", "bijective", "additive",
               "natural_in_source", "natural_in_target")

    def __init__(self, left_hom: HomModule, right_hom: HomModule, mapping: tuple[int, ...],
                 bijective: bool, additive: bool, natural_in_source: bool,
                 natural_in_target: bool):
        d = self.__dict__
        d["left_hom"] = left_hom
        d["right_hom"] = right_hom
        d["mapping"] = mapping
        d["bijective"] = bijective
        d["additive"] = additive
        d["natural_in_source"] = natural_in_source
        d["natural_in_target"] = natural_in_target

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
    P = tensor_product(M_bi, X)
    LHS = hom_module(P.module, Y)
    HomMY = hom_module(swap_actions(M_bi), Y)
    RHS = hom_module(X, HomMY.module)

    def curry(F: Morphism) -> tuple[int, ...]:
        out = []
        for x in range(X.size):
            inner = tuple(F.map[P.tau[m][x]] for m in range(M_bi.size))
            out.append(HomMY.index_of(inner))
        return tuple(out)

    mapping = tuple(RHS.index_of(curry(F)) for F in LHS.maps)
    bijective = len(set(mapping)) == len(RHS.maps) == len(LHS.maps)
    additive = True
    for i in range(len(LHS.maps)):
        for j in range(len(LHS.maps)):
            s = LHS.module.add[i][j]
            if mapping[s] != RHS.module.add[mapping[i]][mapping[j]]:
                additive = False
                break
        if not additive:
            break

    natural_source = True
    for u in test_source:
        # u : X' -> X induces squares through both sides
        P2 = tensor_product(M_bi, u.source)
        idu = tensor_morphisms(identity_morphism(M_bi), u)
        lhs_step = hom_precompose(idu, Y)
        rhs_step = hom_precompose(u, HomMY.module)
        LHS2 = hom_module(P2.module, Y)
        RHS2 = hom_module(u.source, HomMY.module)

        def curry2(F: Morphism) -> int:
            out = []
            for x in range(u.source.size):
                inner = tuple(F.map[P2.tau[m][x]] for m in range(M_bi.size))
                out.append(HomMY.index_of(inner))
            return RHS2.index_of(tuple(out))

        for i, F in enumerate(LHS.maps):
            left_path = curry2(LHS2.maps[lhs_step.map[i]])
            right_path = rhs_step.map[mapping[i]]
            if left_path != right_path:
                natural_source = False
                break
        if not natural_source:
            break

    natural_target = True
    for v in test_target:
        # v : Y -> Y' postcomposes on both sides
        lhs_step = hom_postcompose(P.module, v)
        inner_step = hom_postcompose(swap_actions(M_bi), v)
        HomMY2 = hom_module(swap_actions(M_bi), v.target)
        LHS2 = hom_module(P.module, v.target)
        RHS2 = hom_module(X, HomMY2.module)
        for i, F in enumerate(LHS.maps):
            G = LHS2.maps[lhs_step.map[i]]
            out = []
            for x in range(X.size):
                inner = tuple(G.map[P.tau[m][x]] for m in range(M_bi.size))
                out.append(HomMY2.index_of(inner))
            left_path = RHS2.index_of(tuple(out))
            curried = RHS.maps[mapping[i]]
            pushed = tuple(inner_step.map[curried.map[x]] for x in range(X.size))
            right_path = RHS2.index_of(tuple(pushed))
            if left_path != right_path:
                natural_target = False
                break
        if not natural_target:
            break
    return AdjunctionReport(LHS, RHS, mapping, bijective, additive,
                            natural_source, natural_target)


# ---------------------------------------------------------------------------
# The hom/tensor comparison maps.
# ---------------------------------------------------------------------------

class HomTensorComparison(Record):
    _fields = ("map", "injective", "uniform", "bijective")

    def __init__(self, map: Morphism, injective: bool, uniform: bool, bijective: bool):
        d = self.__dict__
        d["map"] = map
        d["injective"] = injective
        d["uniform"] = uniform
        d["bijective"] = bijective


def hom_tensor_comparison(X: Semimodule, Y_bi: Semimodule, Z: Semimodule) -> HomTensorComparison:
    """Hom(X, Y) (x) Z -> Hom(X, Y (x) Z) on pure tensors f (x) z -> f(-) (x) z.

    X and Y share a left structure; Y carries a second right action over
    the semiring of Z.
    """
    from .homology import morphism_profile
    H = hom_module(X, Y_bi)
    P = tensor_product(H.module, Z)
    YZ = tensor_product(swap_actions(Y_bi), Z)
    TH = hom_module(X, YZ.module)
    beta = []
    for i, f in enumerate(H.maps):
        row = []
        for z in range(Z.size):
            composite = tuple(YZ.tau[f.map[x]][z] for x in range(X.size))
            row.append(TH.index_of(composite))
        beta.append(tuple(row))
    gamma = factor_balanced(P, TH.module, tuple(beta))
    nu = monoid_morphism(P.module, TH.module, gamma)
    prof = morphism_profile(nu)
    return HomTensorComparison(nu, nu.injective, prof.uniform,
                               nu.injective and nu.surjective)


def dual_comparison(X: Semimodule, Z: Semimodule) -> HomTensorComparison:
    """Hom(X, S) (x) Z -> Hom(X, Z) on f (x) z -> f(-)z."""
    from .homology import morphism_profile
    S = X.semiring
    Y_bi = semiring_bimodule(S, X.side)
    H = hom_module(X, Y_bi)
    P = tensor_product(H.module, Z)
    TH = hom_module(X, Z)
    beta = []
    for i, f in enumerate(H.maps):
        row = []
        for z in range(Z.size):
            composite = tuple(Z.action[z][f.map[x]] for x in range(X.size))
            row.append(TH.index_of(composite))
        beta.append(tuple(row))
    gamma = factor_balanced(P, TH.module, tuple(beta))
    nu = monoid_morphism(P.module, TH.module, gamma)
    prof = morphism_profile(nu)
    return HomTensorComparison(nu, nu.injective, prof.uniform,
                               nu.injective and nu.surjective)
