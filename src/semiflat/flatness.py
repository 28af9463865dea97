"""Flatness predicates, flatness certificates, and the search harness.

Uniform flatness of F against M quantifies over the subtractive
subsemimodules U of M: the induced map F(x)U -> F(x)M must be injective
and i-uniform for each.  Mono-flatness quantifies injectivity over all
subsemimodules; the i-uniformity class, i-uniformity over the subtractive
ones.  All three come from one scan per (F, M) that tensors each
inclusion once; the tensored short exact sequences are recomputed
alongside and any disagreement is raised, never silently resolved.

Genuine flatness (colimit-of-projectives) is handled through explicit
certificates: checking is sound at finite scale, deciding is not.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import time
from functools import lru_cache

from . import config
from .catalog import class_representative, free_module
from .congruence import quotient_by_sub
from .errors import BadCertificate, InvalidArgument, NotExact, TimeBudgetExceeded
from .homology import (classify_sequence, is_retract_of, kernel, morphism_profile,
                       with_zero_ends)
from .limits import (DirectedSystem, constant_system, directed_colimit, pullback,
                     pullback_mediator)
from .record import Record
from .structures import (LEFT, Morphism, Semimodule, Semiring, as_left, as_right,
                         build_morphism, check_endpoints, compose, descend, identity_morphism,
                         map_from_free)
from .subsets import (Subsemimodule, enumerate_subsemimodules, module_generators,
                      submodule_of, uniform_subsemimodules)
from .tensor import tensor_morphisms, tensor_product


def as_left_morphism(f: Morphism) -> Morphism:
    """f between the left views of its endpoints; mirroring keeps it linear."""
    source, target = as_left(f.source), as_left(f.target)
    check_endpoints(source, target)
    return Morphism(source, target, f.map)


class FlatnessVerdict(Record):
    holds: bool
    witness: tuple | None = None


def _tensored_inclusion(F: Semimodule, M: Semimodule, U: Subsemimodule) -> Morphism:
    """F(x)X -> F(x)M for the inclusion of U, with X the class representative of U."""
    return tensor_morphisms(identity_morphism(F), _represented_inclusion(M, U))


@lru_cache(maxsize=None)
def _represented_inclusion(M: Semimodule, U: Subsemimodule) -> Morphism:
    """inc.sigma: X -> M as a left map, with X, sigma the class representative of U."""
    sub, inc = submodule_of(M, U)
    X, sigma = class_representative(sub)
    return as_left_morphism(compose(inc, sigma))


@lru_cache(maxsize=None)
def _represented_projection(M: Semimodule, U: Subsemimodule) -> Morphism:
    """sigma^-1.pi: M -> X as a left map, with X, sigma the class representative of M/U."""
    Q, pi = quotient_by_sub(M, U)
    X, sigma = class_representative(Q)
    return as_left_morphism(Morphism(M, X, tuple(map(sigma.map.index, pi.map))))


@lru_cache(maxsize=None)
def _flatness_scan(F: Semimodule, M: Semimodule) -> tuple[FlatnessVerdict, ...]:
    """(mono-flatness, i-uniformity class, uniform M-flatness) of F against M.

    Each L is tensored at most once, while a verdict still needs it; each
    witness is that verdict's first failing L, in enumeration order.  The
    verdicts do not change when F, L or M/L is replaced by an isomorphic
    copy, so the scan runs on F's class representative and tensors L and
    M/L as representatives too; only M keeps its labelling, so the
    witnesses are members of M."""
    X, _ = class_representative(F)
    if X is not F:
        return _flatness_scan(X, M)
    M = as_right(M)
    subtractive = set(uniform_subsemimodules(M))
    mono = iu = uf = None               # each verdict's first failure, once found
    for L in enumerate_subsemimodules(M):
        if mono and iu and uf:
            break
        subtractive_open = L in subtractive and not (iu and uf)
        if mono and not subtractive_open:
            continue
        induced = _tensored_inclusion(F, M, L)
        if not mono and not induced.injective:
            mono = FlatnessVerdict(False, (L.members, "not-injective"))
        if not subtractive_open:
            continue
        i_uniform = morphism_profile(induced).i_uniform
        if not iu and not i_uniform:
            iu = FlatnessVerdict(False, (L.members, "image-not-closed"))
        if not uf:
            ok = induced.injective and i_uniform
            if ok != _tensored_sequence_exact(F, M, L, induced):
                raise NotExact(
                    f"subsemimodule and sequence formulations disagree at U={L.members}")
            if not ok:
                kind = "not-injective" if not induced.injective else "image-not-closed"
                uf = FlatnessVerdict(False, (L.members, kind))
    mono, iu, uf = (v or FlatnessVerdict(True) for v in (mono, iu, uf))
    if mono.holds and iu.holds and not uf.holds:
        raise NotExact("mono-flat + i-uniform class must imply uniform flatness")
    return mono, iu, uf


def _tensored_sequence_exact(F: Semimodule, M: Semimodule, U: Subsemimodule,
                             t_inc: Morphism) -> bool:
    """Exactness of F(x)U -> F(x)M -> F(x)(M/U), given the tensored inclusion.

    M/U is tensored as its class representative, which changes
    the sequence only by an isomorphism of its last term."""
    t_pi = tensor_morphisms(identity_morphism(F), _represented_projection(M, U))
    report = classify_sequence(with_zero_ends([t_inc, t_pi]))
    return report.exact


def is_mono_flat(F: Semimodule, M: Semimodule) -> FlatnessVerdict:
    """Injectivity of F(x)L -> F(x)M for every subsemimodule L."""
    return _flatness_scan(F, M)[0]


def in_i_uniform_class(F: Semimodule, M: Semimodule) -> FlatnessVerdict:
    """i-uniformity of F(x)U -> F(x)M for every subtractive U."""
    return _flatness_scan(F, M)[1]


def is_uniformly_M_flat(F: Semimodule, M: Semimodule) -> FlatnessVerdict:
    """Injective and i-uniform on every subtractive U, cross-checked by sequences."""
    return _flatness_scan(F, M)[2]


def is_uniformly_flat(F: Semimodule, universe) -> FlatnessVerdict:
    """Conjunction over an explicit finite universe of test modules."""
    for i, M in enumerate(universe):
        v = is_uniformly_M_flat(F, M)
        if not v.holds:
            return FlatnessVerdict(False, (i,) + v.witness)
    return FlatnessVerdict(True)


# ---------------------------------------------------------------------------
# Uniformly finitely generated / presented.
# ---------------------------------------------------------------------------

def _uniform_covers(X: Semimodule):
    """(rank, images, map) for every uniform surjection S^n -> X, by rank, then images."""
    for n in range(1, config.MAX_FREE_RANK + 1):
        free = free_module(X.semiring, n, LEFT)
        for images in itertools.product(range(X.size), repeat=n):
            table = map_from_free(X, images)
            if len(set(table)) != X.size:
                continue
            f = build_morphism(free, X, table)
            if morphism_profile(f).uniform:
                yield n, images, f


def is_uniformly_fg(X: Semimodule):
    """A uniform surjection from a finite free module, or None."""
    for n, images, f in _uniform_covers(as_left(X)):
        return {"rank": n, "images": images, "map": f}
    return None


def is_uniformly_fp(X: Semimodule):
    """Uniform finite presentation data: every uniform free cover found is
    extended to a two-step presentation with its exactness certificate."""
    witness = None
    presentations = []
    for n, images, g in _uniform_covers(as_left(X)):
        if witness is None:
            witness = {"rank": n, "images": images, "map": g}
        free = g.source
        K = kernel(g)
        ker_mod, ker_inc = submodule_of(free, K)
        gens = module_generators(ker_mod)
        m = max(1, len(gens))
        cover = free_module(free.semiring, m, LEFT)
        gen_images = [ker_inc.map[g_] for g_ in gens] or [free.zero]
        f_tilde = build_morphism(cover, free, map_from_free(free, gen_images))
        report = classify_sequence([f_tilde, g])
        if not (report.stages[0].semi_exact and report.stages[0].proper_exact):
            raise NotExact("presentation middle stage must be proper exact")
        presentations.append({"rank": n, "kernel_rank": m,
                              "kernel": K.members, "exact": report})
    if witness is None:
        return None
    return {"witness": witness, "presentations": presentations}


# ---------------------------------------------------------------------------
# Certificates for genuine (colimit-of-projectives) flatness.
# ---------------------------------------------------------------------------

class FlatCertificate(Record):
    system: DirectedSystem
    node_witnesses: tuple[tuple[Morphism, Morphism], ...]  # (into free, back)
    iso: Morphism  # colimit -> subject


def projectivity_witness(F: Semimodule):
    """A retract-of-free pair for F, searched by rank."""
    for n in range(1, config.MAX_FREE_RANK + 1):
        free = free_module(F.semiring, n, F.side)
        pair = is_retract_of(F, free)
        if pair is not None:
            return {"rank": n, "section": pair[0], "retraction": pair[1]}
    return None


def trivial_certificate(F: Semimodule):
    """Constant-system certificate for a module that is itself projective."""
    wit = projectivity_witness(F)
    if wit is None:
        return None
    sys = constant_system(F, 2)
    colim = directed_colimit(sys)
    # each colimit class goes to the one element of F that it holds
    values = descend(((c, x) for row in colim.class_of for x, c in enumerate(row)),
                     colim.module.size)
    if values is None:
        raise BadCertificate("iso", "a colimit class holds two elements of F")
    if None in values:
        raise BadCertificate("iso", f"colimit class {values.index(None)} has no member")
    iso = build_morphism(colim.module, F, tuple(values))
    pair = (wit["section"], wit["retraction"])
    return FlatCertificate(sys, (pair, pair), iso)


def flat_certificate_check(F: Semimodule, cert: FlatCertificate, universe,
                           pullback_battery=()) -> dict:
    """Verify the certificate, then the flatness consequences it implies."""
    for j, (node, (psi, theta)) in enumerate(zip(cert.system.nodes, cert.node_witnesses)):
        if psi.source != node or theta.target != node:
            raise BadCertificate(j, "witness endpoints do not match the node")
        if theta.source != psi.target:
            raise BadCertificate(j, "section and retraction do not compose")
        composite = compose(theta, psi)
        if composite.map != tuple(range(node.size)):
            raise BadCertificate(j, "section followed by retraction is not the identity")
    colim = directed_colimit(cert.system)
    if cert.iso.source != colim.module or cert.iso.target != F:
        raise BadCertificate("iso", "isomorphism endpoints are wrong")
    if not (cert.iso.injective and cert.iso.surjective):
        raise BadCertificate("iso", "colimit comparison is not bijective")
    flat = is_uniformly_flat(F, universe)
    if not flat.holds:
        raise BadCertificate("flatness", f"certified module failed at {flat.witness}")
    battery_results = []
    for f, g in pullback_battery:
        battery_results.append(_pullback_preserved(F, f, g))
        if not battery_results[-1]:
            raise BadCertificate("pullback", "tensoring did not preserve a pullback square")
    return {"flat": True, "pullbacks": battery_results}


def _pullback_preserved(F: Semimodule, f: Morphism, g: Morphism) -> bool:
    fL, gL = as_left_morphism(f), as_left_morphism(g)
    P, p1, p2, data, inc = pullback(fL, gL)
    idF = identity_morphism(F)
    tP = tensor_product(F, P)
    t_p1 = tensor_morphisms(idF, p1)
    t_p2 = tensor_morphisms(idF, p2)
    t_f = tensor_morphisms(idF, fL)
    t_g = tensor_morphisms(idF, gL)
    P2, q1, q2, data2, inc2 = pullback(t_f, t_g)
    mediator = pullback_mediator(P2, inc2, data2, t_p1, t_p2)
    return mediator.injective and mediator.surjective


# ---------------------------------------------------------------------------
# The classification search harness.
# ---------------------------------------------------------------------------

class SearchConfig(Record):
    semirings: tuple
    max_size: int = 4
    budget_seconds: float = 300.0
    out_path: str | None = None


class SearchRecord(Record):
    semiring_index: int
    module_index: int
    size: int
    add: tuple
    action: tuple
    mono_flat: bool
    i_uniform_class: bool
    uniformly_flat: bool
    certified_flat: bool
    witness: tuple | None

    def to_json(self) -> str:
        return json.dumps({
            "semiring": self.semiring_index,
            "module": self.module_index,
            "size": self.size,
            "add": self.add,
            "action": self.action,
            "flags": {
                "mono_flat": self.mono_flat,
                "i_uniform_class": self.i_uniform_class,
                "uniformly_flat": self.uniformly_flat,
                "certified_flat": self.certified_flat,
            },
            "witness": self.witness,
        }, sort_keys=True)


def search_counterexamples(config: SearchConfig) -> dict:
    """Classify enumerated modules; report candidates and lattice violations.

    A module that is uniformly flat relative to the enumerated universe but
    not certified flat within the rank bound is only a candidate: the
    verdicts are labeled inconclusive, never conclusions.  A module whose
    verdicts contradict a theorem (a ``NotExact`` from the flatness scan)
    gets no record; it is listed in ``lattice_violations`` with the message
    and the search goes on.  Semirings other than a list or tuple of
    ``Semiring``, a size that is not an integer or is below 1, a budget
    that is not an int or float or is negative or NaN, or an output file
    that cannot be opened raises ``InvalidArgument`` before anything is
    enumerated; a failed write to that file raises it too, with the same
    message.  Each record is written to ``out_path`` as soon as its module
    is classified, so a run cut short by its budget leaves the partial
    report's records.
    """
    if not (isinstance(config.semirings, (list, tuple))
            and all(isinstance(S, Semiring) for S in config.semirings)):
        raise InvalidArgument(f"semirings must be a list or tuple of Semiring, "
                              f"got {config.semirings!r}")
    if not isinstance(config.max_size, int) or isinstance(config.max_size, bool):
        raise InvalidArgument(f"max_size must be an integer, got {config.max_size!r}")
    if config.max_size < 1:
        raise InvalidArgument(f"max_size must be at least 1, got {config.max_size}")
    budget = config.budget_seconds
    if not isinstance(budget, (int, float)) or isinstance(budget, bool):
        raise InvalidArgument(f"budget_seconds must be a number, got {budget!r}")
    if not budget >= 0:                     # NaN compares false with everything
        raise InvalidArgument(f"budget_seconds must be >= 0, got {budget}")
    sink = None
    if config.out_path:
        try:
            sink = open(config.out_path, "w", encoding="utf-8")
        except OSError as exc:
            raise _cannot_write(config.out_path, exc) from exc
    try:
        return _search(config, sink)
    except InvalidArgument:
        if sink is not None:
            # a failed flush keeps its line buffered, and closing fails on it
            # again; the InvalidArgument already names that failure
            with contextlib.suppress(OSError):
                sink.close()
        raise
    finally:
        if sink is not None:
            sink.close()


def _cannot_write(path: str, exc: OSError) -> InvalidArgument:
    return InvalidArgument(f"cannot write {path!r}: {exc.strerror}")


def _search(config: SearchConfig, sink) -> dict:
    from .catalog import enumerate_semimodules
    t0 = time.monotonic()
    records: list[SearchRecord] = []
    inconclusive = []
    violations = []
    partial = False
    for si, S in enumerate(config.semirings):
        modules = enumerate_semimodules(S, config.max_size)
        universe = modules
        for mi, F in enumerate(modules):
            if time.monotonic() - t0 > config.budget_seconds:
                partial = True
                break
            try:
                mono = all(is_mono_flat(F, M).holds for M in universe)
                iu = all(in_i_uniform_class(F, M).holds for M in universe)
                flat = is_uniformly_flat(F, universe)
            except NotExact as exc:     # the verdicts contradict a theorem
                violations.append((si, mi, str(exc)))
                continue
            certified = projectivity_witness(F) is not None
            rec = SearchRecord(si, mi, F.size, F.add, F.action, mono, iu,
                               flat.holds, certified, flat.witness)
            records.append(rec)
            if sink is not None:
                try:
                    sink.write(rec.to_json() + "\n")
                    sink.flush()
                except OSError as exc:
                    raise _cannot_write(config.out_path, exc) from exc
            if certified and not flat.holds:
                violations.append((si, mi, "certified flat but not uniformly flat"))
            if flat.holds and not certified:
                inconclusive.append((si, mi))
        if partial:
            break
    report = {
        "records": records,
        "uniformly_flat_not_certified": inconclusive,
        "lattice_violations": violations,
        "partial": partial,
        "elapsed": time.monotonic() - t0,
    }
    if partial:
        raise TimeBudgetExceeded(report)
    return report
