"""Kernels, cokernels, uniformity profiles, exactness grades, hom monoids.

All predicates are decided by scans over the finite carriers.  A morphism
is k-uniform when every collision is explained by kernel corrections,
i-uniform when its image is subtractively closed, uniform when both hold.
A three-term stage is proper-exact when image = kernel, semi-exact when
the subtractive closure of the image is the kernel, quasi-exact when it
is semi-exact with k-uniform outgoing map, and exact when it is
proper-exact with k-uniform outgoing map.
"""
from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from . import config
from .errors import AxiomViolation, NotComposable, ShapeMismatch, SizeBoundExceeded
from .record import Record
from .structures import (Morphism, Semimodule, Violation,
                         check_endpoints, derived_actions, freeze_table,
                         is_linear, morphism_violations, swap_actions, zero_morphism,
                         LEFT, RIGHT)
from .subsets import (Subsemimodule, module_expressions, module_generators,
                      _subtractive_closure, submodule_of, subsemimodule,
                      uniform_subsemimodules)
from .congruence import _bourne, quotient_by_sub


def kernel(f: Morphism) -> Subsemimodule:
    members = tuple(x for x in range(f.source.size) if f.map[x] == f.target.zero)
    return subsemimodule(f.source, members)


def image_sub(f: Morphism) -> Subsemimodule:
    return subsemimodule(f.target, sorted(set(f.map)))


def cokernel(f: Morphism) -> tuple[Semimodule, Morphism]:
    return quotient_by_sub(f.target, image_sub(f))


class MorphismProfile(Record):
    k_uniform: bool
    i_uniform: bool
    semi_epi: bool

    @property
    def uniform(self) -> bool:
        return self.k_uniform and self.i_uniform


def morphism_profile(f: Morphism) -> MorphismProfile:
    """The injectivity, surjectivity and uniformity grades of f.

    The profile is kept on f itself, in ``f.__dict__["_profile"]`` next to
    the cached ``_hash``: it lives as long as f does, and an equal map built
    anew is profiled anew.
    """
    d = f.__dict__
    prof = d.get("_profile")
    if prof is None:
        prof = d["_profile"] = _profile(f)
    return prof


def _profile(f: Morphism) -> MorphismProfile:
    # f is k-uniform exactly when its fibres are the Bourne classes of
    # ker f.  Those classes refine the fibres, so that holds exactly when
    # there are as many; an injective map has one-element fibres
    zero = f.target.zero
    image = frozenset(f.map)
    k_uniform = f.injective or len(image) == _bourne(
        f.source, tuple(x for x, v in enumerate(f.map) if v == zero)).class_count
    # an image of a linear map is closed, so it is not checked again
    closed = len(_subtractive_closure(f.target, image))
    return MorphismProfile(k_uniform, closed == len(image), closed == f.target.size)


class StageFlags(Record):
    chain_step: bool
    proper_exact: bool
    semi_exact: bool
    quasi_exact: bool
    exact: bool


class ExactnessReport(Record):
    stages: tuple[StageFlags, ...]

    @property
    def exact(self) -> bool:
        return all(s.exact for s in self.stages)


def classify_stage(f: Morphism, g: Morphism) -> StageFlags:
    if f.target is not g.source and f.target != g.source:
        raise NotComposable("stage maps do not compose")
    zero = g.target.zero
    image = frozenset(f.map)
    ker = tuple(x for x, v in enumerate(g.map) if v == zero)
    # the image lies in ker, and has its size, exactly when they are equal
    chain = image.issubset(ker)
    proper = chain and len(image) == len(ker)
    semi = _subtractive_closure(f.target, image) == ker
    g_k = morphism_profile(g).k_uniform
    return StageFlags(chain, proper, semi, semi and g_k, proper and g_k)


def classify_sequence(morphisms) -> ExactnessReport:
    ms = list(morphisms)
    if len(ms) < 2:
        raise NotComposable("need at least two maps to classify a stage")
    stages = []
    for f, g in zip(ms, ms[1:]):
        stages.append(classify_stage(f, g))
    return ExactnessReport(tuple(stages))


def with_zero_ends(morphisms):
    """Pad a sequence with maps from and to the trivial module over the same semiring."""
    from .catalog import trivial_module
    ms = list(morphisms)
    if not ms:
        raise ShapeMismatch("a sequence needs at least one morphism")
    T = trivial_module(ms[0].source.semiring, ms[0].source.side)
    return [zero_morphism(T, ms[0].source), *ms, zero_morphism(ms[-1].target, T)]


# ---------------------------------------------------------------------------
# Hom monoids.
# ---------------------------------------------------------------------------

class HomModule(Record):
    """All linear maps between two semimodules, packaged as a module.

    ``module`` carries the pointwise addition; the scalar action comes from
    a second action on either argument when present, and from a counting
    semiring otherwise.  ``maps[i]`` is the morphism encoded by element i.
    """

    source: Semimodule
    target: Semimodule
    module: Semimodule
    maps: tuple[Morphism, ...]

    def _hash_key(self):
        return (self.source, self.target, self.module)

    @cached_property
    def _lookup(self) -> dict[tuple[int, ...], int]:
        return {m.map: i for i, m in enumerate(self.maps)}

    def index_of(self, mapping) -> int:
        """Position of a table in ``maps``; AxiomViolation when it is not there."""
        table = tuple(mapping)
        i = self._lookup.get(table)
        if i is None:
            raise AxiomViolation("morphism", [Violation("hom-member", table)])
        return i

    @cached_property
    def surjective_maps(self) -> tuple[Morphism, ...]:
        return tuple(m for m in self.maps if m.surjective)


def linear_maps(M: Semimodule, N: Semimodule) -> list[tuple[int, ...]]:
    """All linear maps M -> N by extension from a least generating set.

    The expressions are shortest words, so each one is a shorter one plus
    a last term: every candidate is built one table step per element, in
    order of word length.  Each candidate gets the linearity decision
    only; a rejected one has no witness to report.
    """
    check_endpoints(M, N)
    gens = module_generators(M)
    exprs = module_expressions(M)
    if N.size ** len(gens) > config.MAX_HOM_CANDIDATES:
        raise SizeBoundExceeded("hom enumeration", N.size ** len(gens),
                                config.MAX_HOM_CANDIDATES)
    element = {word: x for x, word in enumerate(exprs)}
    steps = [(x, element[word[:-1]], *word[-1])
             for x, word in sorted(enumerate(exprs), key=lambda e: len(e[1])) if word]
    found = []
    for images in itertools.product(range(N.size), repeat=len(gens)):
        terms = [N.action[y] for y in images]
        table = [N.zero] * M.size
        for x, prefix, gi, s in steps:
            table[x] = N.add[table[prefix]][terms[gi][s]]
        if is_linear(M, N, table):
            found.append(tuple(table))
    zero_map = tuple(N.zero for _ in range(M.size))
    found.sort(key=lambda t: (t != zero_map, t))
    return found


@lru_cache(maxsize=None)
def hom_maps(M: Semimodule, N: Semimodule) -> tuple[tuple[int, ...], ...]:
    """The tables of ``linear_maps(M, N)``, enumerated once per pair.

    ``hom_module`` builds its carrier on them and the retract search reads
    them directly, so neither enumerates a pair the other has.
    """
    return tuple(linear_maps(M, N))


@lru_cache(maxsize=None)
def hom_module(M: Semimodule, N: Semimodule) -> HomModule:
    """Hom(M, N), built without an axiom scan.

    Its maps are the tables of ``hom_maps``.  The module axioms
    hold by construction: the addition is pointwise in the valid N, an
    action induced by N's second action is pointwise too, one induced by
    M's second action is (s.f)(x) = f(x.s) on the opposite side, and the
    counting-semiring action is repeated addition.
    """
    tables = hom_maps(M, N)
    # a linear map is fixed by its images of the generators, so the maps
    # are indexed by those images and each result is looked up by them
    gens = module_generators(M)
    keys = [tuple(t[g] for g in gens) for t in tables]
    pos = {key: i for i, key in enumerate(keys)}
    add = freeze_table([[pos[tuple(N.add[a][b] for a, b in zip(t, u))] for u in keys]
                        for t in keys])
    labels = tuple("h" + ",".join(map(str, t)) for t in tables)
    actions = []
    if M.second is not None:
        # (s.f)(x) = f(x.s) flips the side of the acting semiring
        T = M.second.semiring
        side = LEFT if M.second.side == RIGHT else RIGHT
        table = freeze_table([[pos[tuple(t[M.second.table[g][s]] for g in gens)]
                               for s in range(T.size)] for t in tables])
        actions.append((T, side, table))
    if N.second is not None:
        T = N.second.semiring
        table = freeze_table([[pos[tuple(N.second.table[v][s] for v in t)]
                               for s in range(T.size)] for t in keys])
        actions.append((T, N.second.side, table))
    T, side, action, second = derived_actions(M.semiring, add, 0, actions)
    mod = Semimodule(T, side, labels, add, 0, action, second)
    return HomModule(M, N, mod, tuple(Morphism(M, N, t) for t in tables))


def _require_second_linear(f: Morphism) -> None:
    """Raise unless f commutes with the second actions of its endpoints.

    Composing with f is additive, so it is linear for the actions that
    Hom takes from G or from a counting semiring; an action that Hom takes
    from the second actions of f's endpoints needs this check as well.
    The callers have checked that both Hom modules share the semiring and
    side of their actions; when only one endpoint of f has a second action,
    that happens only over a counting semiring, where additive maps are
    linear.
    """
    if f.source.second is None or f.target.second is None:
        return
    violations = list(morphism_violations(swap_actions(f.source), swap_actions(f.target),
                                          f.map))
    if violations:
        raise AxiomViolation("morphism", violations)


def hom_postcompose(G: Semimodule, f: Morphism) -> Morphism:
    """Hom(G, source f) -> Hom(G, target f) by postcomposition."""
    H1 = hom_module(G, f.source)
    H2 = hom_module(G, f.target)
    check_endpoints(H1.module, H2.module)
    if G.second is None:  # else Hom(G, -) takes its primary action from G
        _require_second_linear(f)
    mapping = tuple(H2.index_of(tuple(f.map[v] for v in m.map)) for m in H1.maps)
    return Morphism(H1.module, H2.module, mapping)


def hom_precompose(f: Morphism, G: Semimodule) -> Morphism:
    """Hom(target f, G) -> Hom(source f, G) by precomposition."""
    H1 = hom_module(f.target, G)
    H2 = hom_module(f.source, G)
    check_endpoints(H1.module, H2.module)
    _require_second_linear(f)
    mapping = tuple(H2.index_of(tuple(m.map[v] for v in f.map)) for m in H1.maps)
    return Morphism(H1.module, H2.module, mapping)


# ---------------------------------------------------------------------------
# Endomorphisms and retracts.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def end_comp(M: Semimodule) -> tuple[tuple[int, ...], ...]:
    """The retracts of M, the images of the idempotents of End(M), in sorted order.

    The semiring End(M) is not built, nor its addition or composition
    table: its elements are the tables of ``hom_maps(M, M)``, and the
    retracts read only their squares.
    """
    return tuple(sorted({tuple(sorted(set(t))) for t in hom_maps(M, M)
                         if tuple(t[v] for v in t) == t}))


def retract_pairs(N: Semimodule, M: Semimodule):
    """Yield every section/retraction pair (into M, back onto N) in Hom order.

    Both Hom tables are enumerated, and so both bounds checked, before the
    first pair is tested.  The search reads tables only; a pair becomes a
    pair of morphisms when it is yielded.
    """
    into = hom_maps(N, M)
    back = hom_maps(M, N)
    ident = tuple(range(N.size))
    for psi in into:
        if len(set(psi)) != N.size:
            continue
        for theta in back:
            if tuple(theta[v] for v in psi) == ident:
                yield Morphism(N, M, psi), Morphism(M, N, theta)


def is_retract_of(N: Semimodule, M: Semimodule) -> tuple[Morphism, Morphism] | None:
    """The first section/retraction pair of ``retract_pairs``, or None."""
    return next(retract_pairs(N, M), None)


# ---------------------------------------------------------------------------
# Relative injectivity.
# ---------------------------------------------------------------------------

class InjectivityEntry(Record):
    module_index: int
    sub_members: tuple[int, ...]
    surjective: bool
    uniform: bool


class InjectivityReport(Record):
    entries: tuple[InjectivityEntry, ...]

    @property
    def holds(self) -> bool:
        return all(e.surjective and e.uniform for e in self.entries)


def uniformly_injective_rel(Q: Semimodule, family) -> InjectivityReport:
    """Check Hom(M,Q) -> Hom(U,Q) surjective and uniform for every uniform U <= M."""
    entries = []
    for mi, M in enumerate(family):
        for U in uniform_subsemimodules(M):
            sub, inc = submodule_of(M, U)
            res = hom_precompose(inc, Q)
            prof = morphism_profile(res)
            entries.append(InjectivityEntry(mi, U.members, res.surjective, prof.uniform))
    return InjectivityReport(tuple(entries))
