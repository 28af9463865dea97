"""The executable property suite behind the acceptance criteria.

Each runner assembles its instances from the built-in catalog, evaluates
one family of verified statements, and reports a pass/fail verdict with
the number of instances checked.  Runners never weaken a failing check;
a violated conclusion raises or returns failed.
"""
from __future__ import annotations

import itertools
import time
from collections import Counter

from .catalog import (bool_semiring, cancellative_targets, chain_module,
                      enumerate_semimodules, free_module, oracle_corpus,
                      sat_semiring, semiring_bimodule, semiring_module,
                      suite_pool, suite_semirings, trivial_module,
                      zmod_module, zmod_semiring)
from .congruence import monoid_congruence_closure, quotient_by_sub
from .errors import AxiomViolation, InvalidArgument, SemiflatError
from .flatness import (SearchConfig, as_left_morphism, flat_certificate_check,
                       is_uniformly_M_flat, is_uniformly_fg, is_uniformly_flat,
                       is_uniformly_fp, projectivity_witness,
                       search_counterexamples, trivial_certificate)
from .homology import (classify_sequence, classify_stage, cokernel, end_comp,
                       hom_module, hom_postcompose, hom_precompose, kernel,
                       morphism_profile, retract_pairs, with_zero_ends)
from .limits import (chain_system, constant_system, direct_sum,
                     directed_colimit, directed_system, equalizer, coequalizer,
                     hom_colimit_comparison, inverse_limit, inverse_system,
                     colimit_morphism, pairing, copairing, pullback,
                     pullback_mediator, subsemimodule_system, sum_morphism)
from .record import Record
from .structures import (LEFT, RIGHT, Morphism, Semimodule, as_left, as_right,
                         build_semiring, canonical_form, compose, descend,
                         identity_morphism, with_bimodule_structure,
                         zero_morphism)
from .subsets import submodule_of, subsemimodule, uniform_subsemimodules
from .tensor import (adjunction_iso, certify_cancellative_universal,
                     dual_comparison, hom_tensor_comparison, tensor_morphisms,
                     tensor_product, unit_iso, unit_iso_left)


class SuiteResult(Record):
    tag: str
    passed: bool
    checks: int
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.tag:<28} checks={self.checks:<7} {self.seconds:7.2f}s  {self.detail}"


def _timed(tag: str, fn) -> SuiteResult:
    t0 = time.monotonic()
    try:
        checks, detail = fn()
        return SuiteResult(tag, True, checks, detail, time.monotonic() - t0)
    except SemiflatError as exc:
        return SuiteResult(tag, False, 0, f"{type(exc).__name__}: {exc}", time.monotonic() - t0)
    except AssertionError as exc:
        return SuiteResult(tag, False, 0, f"assertion: {exc}", time.monotonic() - t0)


def _pool_modules(S) -> list[Semimodule]:
    return [m for _, m in suite_pool(S)]


def _homs(A: Semimodule, B: Semimodule):
    return hom_module(A, B).maps


# ---------------------------------------------------------------------------
# 1. Axiom engine.
# ---------------------------------------------------------------------------

def _mutate(table, i, j, v):
    rows = [list(r) for r in table]
    rows[i][j] = v
    return tuple(tuple(r) for r in rows)


def _invalid_semiring_fixtures():
    """Single-entry mutations, each with the axiom it must be reported as breaking."""
    B = bool_semiring()
    S3 = sat_semiring(3)
    Z4 = zmod_semiring(4)
    out = []
    # absorbing zero broken: 0*1 = 1 in the boolean semiring
    out.append(("bool-absorb", B.labels, B.add, _mutate(B.mul, 0, 1, 1), 0, 1, "zero-absorbing"))
    # identity broken: 0+1 = 0
    out.append(("bool-add-id", B.labels, _mutate(B.add, 0, 1, 0), B.mul, 0, 1, "add-identity"))
    # commutativity broken in saturating add
    out.append(("sat-add-comm", S3.labels, _mutate(S3.add, 1, 2, 0), S3.mul, 0, 1, "add-commutative"))
    # associativity broken in modular add: with 1+1 = 0, (1+1)+2 != 1+(1+2)
    out.append(("zmod-add-assoc", Z4.labels, _mutate(Z4.add, 1, 1, 0), Z4.mul, 0, 1, "add-associative"))
    # multiplicative identity broken
    out.append(("sat-mul-id", S3.labels, S3.add, _mutate(S3.mul, 1, 2, 3), 0, 1, "mul-identity"))
    # distributivity broken in modular arithmetic: with 2*3 = 1, (1+1)*3 != 1*3+1*3
    out.append(("zmod-distrib", Z4.labels, Z4.add, _mutate(Z4.mul, 2, 3, 1), 0, 1,
                "right-distributive"))
    # mul associativity broken
    out.append(("zmod-mul-assoc", Z4.labels, Z4.add, _mutate(Z4.mul, 2, 2, 1), 0, 1, "mul-associative"))
    # one equals zero
    out.append(("one-eq-zero", ("0",), ((0,),), ((0,),), 0, 0, "one-neq-zero"))
    return out


def _invalid_module_fixtures():
    B = bool_semiring()
    Z4 = zmod_semiring(4)
    S3 = sat_semiring(3)
    Bm = semiring_module(B)
    Z2 = zmod_module(4, 2)
    S3m = semiring_module(S3)
    out = []
    out.append(("mod-add-id", B, RIGHT, Bm.labels, _mutate(Bm.add, 0, 1, 0), 0, Bm.action, "add-identity"))
    out.append(("mod-add-comm", S3, RIGHT, S3m.labels, _mutate(S3m.add, 1, 2, 0), 0, S3m.action,
                "add-commutative"))
    out.append(("mod-act-unit", Z4, RIGHT, Z2.labels, Z2.add, 0, _mutate(Z2.action, 1, 1, 0),
                "action-unit"))
    out.append(("mod-act-zero", Z4, RIGHT, Z2.labels, Z2.add, 0, _mutate(Z2.action, 1, 0, 1),
                "action-scalar-zero"))
    out.append(("mod-zero-elt", Z4, RIGHT, Z2.labels, Z2.add, 0, _mutate(Z2.action, 0, 2, 1),
                "action-zero-element"))
    out.append(("mod-act-assoc", Z4, RIGHT, semiring_module(Z4).labels,
                semiring_module(Z4).add, 0, _mutate(semiring_module(Z4).action, 2, 2, 2),
                "action-associative"))
    # 2*2 = 2 in SAT3 breaks (1+1)*2 = 1*2+1*2
    out.append(("mod-act-distrib", S3, RIGHT, S3m.labels, S3m.add, 0,
                _mutate(S3m.action, 2, 2, 2), "action-add-distributive"))
    return out


def _invalid_morphism_fixtures():
    B = bool_semiring()
    Z4 = zmod_semiring(4)
    Bm = semiring_module(B)
    Z4m = semiring_module(Z4)
    Z2 = zmod_module(4, 2)
    out = []
    out.append(("mor-zero", Bm, Bm, (1, 1), "map-zero"))
    out.append(("mor-additive", Z4m, Z4m, (0, 1, 3, 3), "map-additive"))
    out.append(("mor-linear", Z4m, Z2, (0, 1, 1, 1), "map-linear"))
    out.append(("mor-additive2", Bm, Bm, (1, 0), "map-additive"))
    out.append(("mor-linear2", Z2, Z4m, (0, 1), "map-linear"))
    out.append(("mor-zero2", Z4m, Z4m, (1, 2, 3, 0), "map-zero"))
    S3m = semiring_module(sat_semiring(3))
    out.append(("mor-additive3", S3m, S3m, (0, 1, 1, 1), "map-additive"))
    return out


def _witness_breaks_axiom(axiom, witness, add, mul=None, action=None, S=None, zero=0, one=None,
                          mapping=None, target=None):
    """Independent re-evaluation that a reported witness violates its axiom.

    ``add``, ``action`` and ``zero`` are the tables of the structure, or of
    a map's source, with ``mapping`` and ``target`` for a map.  An axiom
    this function does not know is not broken, so its witness fails.
    """
    if axiom == "add-identity":
        z, a = witness
        return add[z][a] != a
    if axiom == "add-commutative":
        a, b = witness
        return add[a][b] != add[b][a]
    if axiom == "add-associative":
        a, b, c = witness
        return add[add[a][b]][c] != add[a][add[b][c]]
    if axiom == "mul-identity":
        o, a = witness
        return mul[o][a] != a or mul[a][o] != a
    if axiom == "mul-associative":
        a, b, c = witness
        return mul[mul[a][b]][c] != mul[a][mul[b][c]]
    if axiom == "left-distributive":
        a, b, c = witness
        return mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
    if axiom == "right-distributive":
        b, c, a = witness
        return mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]
    if axiom == "zero-absorbing":
        z, a = witness
        return mul[z][a] != z or mul[a][z] != z
    if axiom == "one-neq-zero":
        return zero == one
    if axiom == "action-associative":
        x, s, t = witness
        return action[action[x][s]][t] != action[x][S.mul[s][t]]
    if axiom == "action-add-distributive":
        x, y, s = witness
        return action[add[x][y]][s] != add[action[x][s]][action[y][s]]
    if axiom == "action-scalar-distributive":
        x, s, t = witness
        return action[x][S.add[s][t]] != add[action[x][s]][action[x][t]]
    if axiom == "action-unit":
        x, o = witness
        return action[x][o] != x
    if axiom == "action-scalar-zero":
        x, z = witness
        return action[x][z] != zero
    if axiom == "action-zero-element":
        z, s = witness
        return action[z][s] != zero
    if axiom == "map-zero":
        z, = witness
        return mapping[z] != target.zero
    if axiom == "map-additive":
        a, b = witness
        return mapping[add[a][b]] != target.add[mapping[a]][mapping[b]]
    if axiom == "map-linear":
        a, s = witness
        return mapping[action[a][s]] != target.action[mapping[a]][s]
    return False


def run_axiom_suite():
    from .structures import build_semimodule as bsm, build_morphism as bmor
    checks = 0
    for S in (*suite_semirings(), zmod_semiring(2)):
        for name, M in suite_pool(S):
            assert M.size >= 1
            checks += 1
    rejected = 0
    for name, labels, add, mul, zero, one, axiom in _invalid_semiring_fixtures():
        try:
            build_semiring(labels, add, mul, zero, one)
            raise AssertionError(f"fixture {name} was accepted")
        except AxiomViolation as exc:
            assert any(v.axiom == axiom for v in exc.violations), \
                f"fixture {name}: no {axiom} violation in {exc.violations}"
            for v in exc.violations:
                assert _witness_breaks_axiom(v.axiom, v.witness, add, mul=mul, zero=zero,
                                             one=one), \
                    f"fixture {name}: witness {v.witness} does not break {v.axiom}"
            rejected += 1
    for name, S, side, labels, add, zero, action, axiom in _invalid_module_fixtures():
        try:
            bsm(S, side, labels, add, zero, action)
            raise AssertionError(f"fixture {name} was accepted")
        except AxiomViolation as exc:
            assert any(v.axiom == axiom for v in exc.violations), \
                f"fixture {name}: no {axiom} violation in {exc.violations}"
            for v in exc.violations:
                assert _witness_breaks_axiom(v.axiom, v.witness, add, action=action,
                                             S=S, zero=zero, one=S.one), \
                    f"fixture {name}: witness {v.witness} does not break {v.axiom}"
            rejected += 1
    for name, src, tgt, mapping, axiom in _invalid_morphism_fixtures():
        try:
            bmor(src, tgt, mapping)
            raise AssertionError(f"fixture {name} was accepted")
        except AxiomViolation as exc:
            assert any(v.axiom == axiom for v in exc.violations), \
                f"fixture {name}: no {axiom} violation in {exc.violations}"
            for v in exc.violations:
                assert _witness_breaks_axiom(v.axiom, v.witness, src.add, action=src.action,
                                             mapping=mapping, target=tgt), \
                    f"fixture {name}: witness {v.witness} does not break {v.axiom}"
            rejected += 1
    assert rejected >= 20, f"only {rejected} invalid fixtures"
    return checks + rejected, f"{rejected} invalid fixtures rejected with verified witnesses"


# ---------------------------------------------------------------------------
# 2. Congruence closure against brute-force oracles.
# ---------------------------------------------------------------------------

def minimal_congruence_dense(add, pairs):
    """Dense relational fixpoint: no union-find, no work queue."""
    n = len(add)
    rel = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        rel[a][b] = rel[b][a] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if not rel[a][b]:
                    continue
                for c in range(n):
                    x, y = add[a][c], add[b][c]
                    if not rel[x][y]:
                        rel[x][y] = rel[y][x] = True
                        changed = True
        for a in range(n):
            for b in range(n):
                if not rel[a][b]:
                    continue
                for c in range(n):
                    if rel[b][c] and not rel[a][c]:
                        rel[a][c] = rel[c][a] = True
                        changed = True
    class_of = [-1] * n
    nxt = 0
    for a in range(n):
        if class_of[a] < 0:
            for b in range(a, n):
                if rel[a][b]:
                    class_of[b] = nxt
            nxt += 1
    return tuple(class_of), nxt


def _set_partitions(n: int):
    """Restricted-growth enumeration of all partitions of 0..n-1."""
    labels = [0] * n

    def rec(i: int, maxi: int):
        if i == n:
            yield tuple(labels)
            return
        for v in range(maxi + 2):
            labels[i] = v
            yield from rec(i + 1, max(maxi, v))

    yield from rec(1, 0) if n > 0 else iter(())


def minimal_congruence_partitions(add, pairs):
    """Meet of every congruence containing the pairs, by full enumeration."""
    n = len(add)
    qualifying = []
    for part in _set_partitions(n):
        if any(part[a] != part[b] for a, b in pairs):
            continue
        ok = True
        for a in range(n):
            for b in range(a + 1, n):
                if part[a] != part[b]:
                    continue
                if any(part[add[a][c]] != part[add[b][c]] for c in range(n)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            qualifying.append(part)
    combined = list(zip(*qualifying))
    seen: dict = {}
    class_of = []
    for key in combined:
        if key not in seen:
            seen[key] = len(seen)
        class_of.append(seen[key])
    return tuple(class_of), len(seen)


def run_congruence_oracle_suite():
    cases = oracle_corpus()
    checked = 0
    for add, pairs in cases:
        got = monoid_congruence_closure(add, pairs)
        dense_cls, dense_n = minimal_congruence_dense(add, pairs)
        assert got.class_of == dense_cls and got.class_count == dense_n, \
            f"dense oracle disagrees on size {len(add)} pairs {pairs}"
        if len(add) <= 7:           # the partition oracle scans all Bell(n) partitions
            part_cls, part_n = minimal_congruence_partitions(add, pairs)
            assert got.class_of == part_cls and got.class_count == part_n, \
                f"partition oracle disagrees on size {len(add)} pairs {pairs}"
        checked += 1
    return checked, f"{checked} corpus monoids agree with both oracles"


# ---------------------------------------------------------------------------
# 3. Unit law.
# ---------------------------------------------------------------------------

def run_unit_law_suite():
    checked = 0
    for S in suite_semirings():
        for name, M in suite_pool(S):
            pres, iso = unit_iso(M)
            assert iso.valid, f"unit isomorphism failed for {name} over {S}"
            assert iso.forward.injective and iso.forward.surjective
            presL, isoL = unit_iso_left(as_left(M))
            assert isoL.valid, f"left unit isomorphism failed for {name}"
            checked += 2
    assert checked >= 20
    return checked, "pairing with the coefficient semiring is the identity"


# ---------------------------------------------------------------------------
# 4. Cancellative universal property of the reflected tensor.
# ---------------------------------------------------------------------------

def run_cancellative_universal_suite():
    targets = cancellative_targets()
    B = bool_semiring()
    Z4 = zmod_semiring(4)
    S3 = sat_semiring(3)
    pairs = [
        (semiring_module(B), as_left(semiring_module(B))),
        (semiring_module(B), as_left(chain_module(3))),
        (zmod_module(4, 2), as_left(zmod_module(4, 2))),
        (zmod_module(4, 2), as_left(semiring_module(Z4))),
        (semiring_module(S3), as_left(semiring_module(S3))),
        (free_module(B, 2), as_left(semiring_module(B))),
    ]
    total = 0
    for M, N in pairs:
        total += certify_cancellative_universal(M, N, targets)
    assert len(pairs) >= 5
    return total, f"{total} balanced maps factored uniquely through the reflection"


# ---------------------------------------------------------------------------
# 5. Hom-tensor adjunction.
# ---------------------------------------------------------------------------

def run_adjunction_suite():
    B = bool_semiring()
    Z4 = zmod_semiring(4)
    triples = [
        (semiring_bimodule(B, RIGHT), semiring_module(B, LEFT), semiring_module(B, LEFT)),
        (with_bimodule_structure(free_module(B, 2)), semiring_module(B, LEFT),
         as_left(chain_module(3))),
        (with_bimodule_structure(as_right(chain_module(3))), semiring_module(B, LEFT),
         semiring_module(B, LEFT)),
        (semiring_bimodule(Z4, RIGHT), as_left(zmod_module(4, 2)), semiring_module(Z4, LEFT)),
        (with_bimodule_structure(zmod_module(4, 2)), semiring_module(Z4, LEFT),
         as_left(zmod_module(4, 2))),
        (with_bimodule_structure(zmod_module(4, 2)), as_left(zmod_module(4, 2)),
         as_left(zmod_module(4, 2))),
    ]
    checked = 0
    for M_bi, X, Y in triples:
        test_source = _homs(X, X)[:3]
        test_target = _homs(Y, Y)[:3]
        rep = adjunction_iso(M_bi, X, Y, test_source, test_target)
        assert rep.holds, f"adjunction failed for sizes {M_bi.size},{X.size},{Y.size}"
        checked += 1
    return checked, "currying is a natural monoid isomorphism on all triples"


# ---------------------------------------------------------------------------
# 6. The exactness mega-suite.
# ---------------------------------------------------------------------------

def _cached(memo: dict, key, build):
    """memo[key], built on first use.

    The exactness items keep call-local memos keyed by object ids: their
    inputs come from the cached hom sets and stay alive for the call, and
    ids skip the Python-level hashes of morphisms and modules.
    """
    value = memo.get(key)
    if value is None:
        value = memo[key] = build()
    return value


def _is_kernel_via(f: Morphism, g: Morphism) -> bool:
    if not f.injective:
        return False
    return sorted(set(f.map)) == [x for x in range(g.source.size)
                                  if g.map[x] == g.target.zero]


def _is_cokernel_via(coker: tuple[Semimodule, Morphism], g: Morphism) -> bool:
    """Whether g is the projection of ``coker``, the cokernel of the row's f."""
    Q, pi = coker
    vals = descend(zip(pi.map, g.map), Q.size)
    if vals is None or None in vals:
        return False
    return len(set(vals)) == Q.size == g.target.size


def _padded_sequence_items(S, rows) -> int:
    """Checks of the padded-sequence items, five per row.

    The padded stage 0 -> A -> B depends on f alone and B -> C -> 0 on g
    alone, so each is classified once per map, not once per row.
    """
    T = trivial_module(S)
    memo = {}

    def padded_left(f):
        zl = _cached(memo, ("from T", id(f.source)), lambda: zero_morphism(T, f.source))
        return classify_stage(zl, f)

    def padded_right(g):
        zr = _cached(memo, ("to T", id(g.target)), lambda: zero_morphism(g.target, T))
        return classify_stage(g, zr)

    checks = 0
    for f, g, stage in rows:
        left = _cached(memo, ("left", id(f)), lambda: padded_left(f))
        right = _cached(memo, ("right", id(g)), lambda: padded_right(g))
        pf, pg = morphism_profile(f), morphism_profile(g)
        is_kernel = _is_kernel_via(f, g)
        is_cokernel = _is_cokernel_via(
            _cached(memo, ("cokernel", id(f)), lambda: cokernel(f)), g)
        # item 1: left-padded exactness is injectivity
        assert left.exact == f.injective, "item 1 failed"
        # item 2: right-padded exactness is surjectivity
        assert right.exact == g.surjective, "item 2 failed"
        # item 3: semi-exact left-padded + uniform f <=> source is the kernel
        lhs = left.semi_exact and stage.semi_exact and pf.uniform
        assert lhs == is_kernel, "item 3 failed"
        # item 4: semi-exact right-padded + uniform g <=> target is the cokernel
        lhs = stage.semi_exact and right.semi_exact and pg.uniform
        assert lhs == is_cokernel, "item 4 failed"
        # item 5: short exactness <=> kernel and cokernel identifications
        five = left.exact and stage.exact and right.exact
        assert five == (is_kernel and is_cokernel), "item 5 failed"
        checks += 5
    return checks


def _hom_functor_items(S, rows, pool) -> int:
    memo = {}

    def post(G, f):
        return _cached(memo, ("post", id(G), id(f)), lambda: hom_postcompose(G, f))

    def pre(f, G):
        return _cached(memo, ("pre", id(G), id(f)), lambda: hom_precompose(f, G))

    def kernel_is_zero(f):
        return _cached(memo, ("kernel", id(f)), lambda: kernel(f)).members == (f.source.zero,)

    # which items apply depends on the row alone, so each row is read once
    # and only the rows that some item applies to are met once per G
    applicable = []
    for f, g, stage in rows:
        pf, pg = morphism_profile(f), morphism_profile(g)
        flags = (pf.uniform and f.injective,
                 pf.uniform and stage.semi_exact and kernel_is_zero(f),
                 pg.uniform and g.surjective,
                 pg.uniform and stage.semi_exact and pg.semi_epi)
        if any(flags):
            applicable.append((f, g, stage, *flags))

    checks = 0
    for G in pool:
        for f, g, stage, post_map, post_row, pre_map, pre_row in applicable:
            if post_map:
                hf = post(G, f)
                assert hf.injective and morphism_profile(hf).uniform, \
                    "covariant hom broke an injective uniform map"
                checks += 1
            if post_row:
                hf = post(G, f)
                hg = post(G, g)
                st = classify_stage(hf, hg)
                assert st.semi_exact and st.proper_exact and morphism_profile(hf).uniform, \
                    "covariant hom broke a semi-exact row"
                checks += 1
                if stage.exact and morphism_profile(hg).k_uniform:
                    assert st.exact, "covariant hom broke an exact row"
                    checks += 1
            if pre_map:
                hg = pre(g, G)
                assert hg.injective and morphism_profile(hg).uniform, \
                    "contravariant hom broke a surjective uniform map"
                checks += 1
            if pre_row:
                hg = pre(g, G)
                hf = pre(f, G)
                st = classify_stage(hg, hf)
                assert st.semi_exact and st.proper_exact and morphism_profile(hg).uniform, \
                    "contravariant hom broke a semi-exact row"
                checks += 1
                if stage.exact and g.surjective and morphism_profile(hf).k_uniform:
                    assert st.exact, "contravariant hom broke an exact row"
                    checks += 1
    return checks


def _tensor_functor_items(S, rows, pool) -> int:
    memo = {}

    def tensored(G, f):
        # id_G (x) f, with f mirrored to a left map once per f
        idG = _cached(memo, ("id", id(G)), lambda: identity_morphism(G))
        fL = _cached(memo, ("left", id(f)), lambda: as_left_morphism(f))
        return _cached(memo, ("tensor", id(G), id(f)), lambda: tensor_morphisms(idG, fL))

    # which items apply depends on the row alone, as in _hom_functor_items
    applicable = []
    for f, g, stage in rows:
        pg = morphism_profile(g)
        flags = (pg.uniform and g.surjective, pg.uniform and stage.semi_exact and pg.semi_epi)
        if any(flags):
            applicable.append((f, g, stage, *flags))

    checks = 0
    for G in pool:
        for f, g, stage, map_item, row_item in applicable:
            if map_item:
                tg = tensored(G, g)
                assert tg.surjective and morphism_profile(tg).uniform, \
                    "tensoring broke a surjective uniform map"
                checks += 1
            if row_item:
                tf = tensored(G, f)
                tg = tensored(G, g)
                st = classify_stage(tf, tg)
                ptg = morphism_profile(tg)
                assert st.semi_exact and ptg.uniform and ptg.semi_epi, \
                    "tensoring broke a semi-exact row"
                checks += 1
                if stage.exact and g.surjective and morphism_profile(tf).i_uniform:
                    assert st.exact, "tensoring broke an exact row"
                    checks += 1
    return checks


def _small_homs(pool) -> list[Morphism]:
    """The maps between pool modules whose sizes multiply to at most 16."""
    return [f for A in pool for B in pool if A.size * B.size <= 16 for f in _homs(A, B)]


def _componentwise_items(S, pool) -> int:
    checks = 0
    memo = {}

    def summed(A, B):
        return _cached(memo, (id(A), id(B)), lambda: direct_sum((A, B)))

    all_homs = _small_homs(pool)
    for f1 in all_homs[:60]:
        p1 = morphism_profile(f1)
        for f2 in all_homs[:60]:
            src = summed(f1.source, f2.source)
            tgt = summed(f1.target, f2.target)
            fsum = sum_morphism((f1, f2), src, tgt)
            p2, ps = morphism_profile(f2), morphism_profile(fsum)
            assert ps.uniform == (p1.uniform and p2.uniform)
            assert ps.k_uniform == (p1.k_uniform and p2.k_uniform)
            assert ps.i_uniform == (p1.i_uniform and p2.i_uniform)
            checks += 1
    # tensoring with a nonzero free module reflects uniformity both ways
    SM = semiring_module(S)
    free2 = free_module(S, 2)
    frees = [identity_morphism(F) for F in (SM, free2)]
    projectives = [identity_morphism(submodule_of(free2, subsemimodule(free2, members))[0])
                   for members in end_comp(free2)[:3]]
    for A in pool:
        for B in pool:
            for phi in _homs(A, B):
                phiL = as_left_morphism(phi)
                p = morphism_profile(phi)
                for idF in frees:
                    t = tensor_morphisms(idF, phiL)
                    pt = morphism_profile(t)
                    assert pt.uniform == p.uniform and pt.k_uniform == p.k_uniform \
                        and pt.i_uniform == p.i_uniform, \
                        "free tensoring must reflect uniformity exactly"
                    checks += 1
                for idP in projectives:
                    t = tensor_morphisms(idP, phiL)
                    pt = morphism_profile(t)
                    if p.uniform:
                        assert pt.uniform, "projective tensoring must preserve uniformity"
                    if p.k_uniform:
                        assert pt.k_uniform
                    if p.i_uniform:
                        assert pt.i_uniform
                    checks += 1
    return checks


def _retract_square_items(S, pool) -> int:
    """Checks that uniformity descends along compatible retract squares.

    Each gamma~ = pi2.gamma.iota is one object per (N, N2, table), so its
    profile, kept on the map, is computed once however many squares share it.
    A square is tested by comparing tables: gamma.iota is composed once per
    (gamma, iota) and pi2.gamma once per (gamma, pi2).  ``retract_pairs``
    yields only pairs with pi.iota = id, so the two squares are all there is
    to check before the profiles of gamma and gamma~ are compared.
    """
    checks = 0
    memo = {}
    pairs_cache = {}
    for N in pool:
        for M in pool:
            pairs_cache[(N, M)] = list(itertools.islice(retract_pairs(N, M), 4))
    for M in pool:
        for M2 in pool:
            for gamma in _homs(M, M2):
                gmap = gamma.map
                # (N2, iota2, pi2.gamma) for every retract pair onto M2
                lower = [(N2, iota2, tuple(pi2.map[v] for v in gmap))
                         for N2 in pool for iota2, pi2 in pairs_cache[(N2, M2)]]
                for N in pool:
                    for iota, pi in pairs_cache[(N, M)]:
                        upper = tuple(gmap[v] for v in iota.map)
                        for N2, iota2, lower_gamma in lower:
                            table = tuple(lower_gamma[v] for v in iota.map)
                            if (tuple(iota2.map[v] for v in table) != upper
                                    or tuple(table[v] for v in pi.map) != lower_gamma):
                                continue
                            gamma_t = _cached(memo, (id(N), id(N2), table),
                                              lambda: Morphism(N, N2, table))
                            hyp, con = morphism_profile(gamma), morphism_profile(gamma_t)
                            # uniform is k- and i-uniform, so it descends with both
                            assert ((con.k_uniform or not hyp.k_uniform)
                                    and (con.i_uniform or not hyp.i_uniform)), \
                                "uniformity did not descend to the retract"
                            checks += 1
    return checks


def _two_row_diagram_items(rows) -> dict[str, int]:
    """Checks of the two-row diagram lemmas, counted by case (1a, 1b, 2b).

    A square commutes when its two composites have the same table, so the
    verticals on one side are indexed by their composite with the row map,
    counted with multiplicity, and the middle verticals look their
    composite up there.  Which middle verticals match depends on one map
    of each row only (f1 and f2 in cases 1a and 1b, g1 and g2 in case 2b),
    so the rows are grouped by those maps and matched once per pair of
    groups.  The partner counts are then summed per middle vertical and
    the other two row maps: first per group, then once per set of groups
    that some rows share.  Each sum derives the third vertical, runs the
    assertions and counts once per partner.  Keys are object ids: the
    maps come from the cached hom sets, and ids skip the Python-level
    hashes of morphisms and modules.
    """
    checks = {"1a": 0, "1b": 0, "2b": 0}
    memo = {}

    def grouped(pairs):
        groups = {}
        for p, x in pairs:
            entry = groups.get(id(p))
            if entry is None:
                entry = groups[id(p)] = (p, [])
            entry[1].append(x)
        return list(groups.values())

    def partner_counts(lefts, sums):
        # a row's partners depend on its group's map p alone, and sums(p)
        # counts them per (y, a) over the right groups.  Rows in the same
        # left groups share one total, to which each group adds its sums once
        sharing = {}
        for x, groups in grouped((x, i) for i, (p, xs) in enumerate(lefts) for x in xs):
            sharing.setdefault(tuple(groups), ([], {}))[0].append(x)
        totals_of = [[] for _ in lefts]
        for groups, (xs, total) in sharing.items():
            for i in groups:
                totals_of[i].append(total)
        for (p, xs), totals in zip(lefts, totals_of):
            counts = sums(p)
            for total in totals:
                for key, (y, a, n) in counts.items():
                    total.setdefault(key, [y, a, 0])[2] += n
        for xs, total in sharing.values():
            for x in xs:
                for y, a, n in total.values():
                    yield x, y, a, n

    def summed(rights, matches, p):
        counts = {}
        for q, ys in rights:
            for a, n in matches(p, q):
                for y in ys:
                    counts.setdefault((id(y), id(a)), [y, a, 0])[2] += n
        return counts

    def probe(index, probes):
        return [(a, n) for a, table in probes if (n := index.get(table))]

    def derive_third(g1, g2, a2):
        # a3 with a3.g1 = g2.a2, determined by surjectivity of g1; when it is
        # well defined it is linear, because g1 is a surjective linear map,
        # so it is a map of Hom(target g1, target g2)
        g2map = g2.map
        out = descend(zip(g1.map, [g2map[v] for v in a2.map]), g1.target.size)
        if out is None:
            return None
        H3 = hom_module(g1.target, g2.target)
        return H3.maps[H3.index_of(out)]

    # cases 1a and 1b: a surjective a1 pairs with a2 when f2.a1 = a2.f1
    def a2_matches(f1, f2):
        index = _cached(memo, ("f2.a1", id(f1.source), id(f2)), lambda: Counter(
            tuple(f2.map[v] for v in a1.map)
            for a1 in hom_module(f1.source, f2.source).surjective_maps))
        probes = _cached(memo, ("a2.f1", id(f1), id(f2.target)), lambda: [
            (a2, tuple(a2.map[v] for v in f1.map))
            for a2 in hom_module(f1.target, f2.target).maps])
        return probe(index, probes)

    quasi_by_f2 = grouped((f, g) for f, g, st in rows if st.quasi_exact)

    # the rows of case 1a are rows of 1b, and its middle verticals the
    # injective ones among 1b's, so 1b keeps those entries of its sums for 1a
    def f1_sums(f1):
        counts = summed(quasi_by_f2, a2_matches, f1)
        memo[("1a", id(f1))] = {key: e for key, e in counts.items() if e[1].injective}
        return counts

    # case 1b: bottom quasi-exact, top surjective g1, derived a3 surjective
    surj_by_f1 = grouped((f, g) for f, g, st in rows if g.surjective)
    for g1, g2, a2, n in partner_counts(surj_by_f1, f1_sums):
        a3 = derive_third(g1, g2, a2)
        if a3 is None or not a3.surjective:
            continue
        p2 = morphism_profile(a2)
        assert p2.semi_epi, "case 1b: middle vertical must be semi-epi"
        if p2.i_uniform:
            assert a2.surjective, "case 1b: i-uniform middle must be onto"
        checks["1b"] += n
    # case 1a: bottom quasi-exact, top a chain with surjective g1
    chain_surj_by_f1 = grouped((f, g) for f, g, st in rows if st.chain_step and g.surjective)
    for g1, g2, a2, n in partner_counts(chain_surj_by_f1, lambda f1: memo[("1a", id(f1))]):
        a3 = derive_third(g1, g2, a2)
        if a3 is None:
            continue
        assert a3.injective, "case 1a: third vertical must be injective"
        checks["1a"] += n

    # case 2b: top semi-exact, injective f2 with g2.f2 = 0; a surjective a2
    # pairs with a kernel-free a3 when a3.g1 = g2.a2
    def kernel_free(X, Y):
        return tuple(a3 for a3 in hom_module(X, Y).maps
                     if all(a3.map[x] != Y.zero for x in range(X.size) if x != X.zero))

    def a3_matches(g1, g2):
        X, Y = g1.target, g2.target
        index = _cached(memo, ("a3.g1", id(g1), id(Y)), lambda: Counter(
            tuple(a3.map[v] for v in g1.map)
            for a3 in _cached(memo, ("kernel-free", id(X), id(Y)), lambda: kernel_free(X, Y))))
        probes = _cached(memo, ("g2.a2", id(g2), id(g1.source)), lambda: [
            (a2, tuple(g2.map[v] for v in a2.map))
            for a2 in hom_module(g1.source, g2.source).surjective_maps])
        return probe(index, probes)

    semi_by_g1 = grouped((g, f) for f, g, st in rows if st.semi_exact)
    chain_inj_by_g2 = grouped((g, f) for f, g, st in rows if f.injective and st.chain_step)
    for f1, f2, a2, n in partner_counts(
            semi_by_g1, lambda g1: summed(chain_inj_by_g2, a3_matches, g1)):
        f2_pos = _cached(memo, ("f2-pos", id(f2)), lambda: {v: i for i, v in enumerate(f2.map)})
        vals = [f2_pos.get(a2.map[v]) for v in f1.map]
        if None in vals:
            continue
        # linear because f2 is an injective linear map, so it is a map of
        # Hom(source f1, source f2)
        H1 = hom_module(f1.source, f2.source)
        a1 = H1.maps[H1.index_of(vals)]
        p1 = morphism_profile(a1)
        assert p1.semi_epi, "case 2b: left vertical must be semi-epi"
        if p1.i_uniform or morphism_profile(f1).i_uniform:
            assert a1.surjective, "case 2b: left vertical must be onto"
        checks["2b"] += n
    return checks


def _stage_rows(pool):
    """Every composable pair f: A -> B, g: B -> C over the pool, classified."""
    return [(f, g, classify_stage(f, g))
            for A in pool for B in pool for C in pool
            for f in _homs(A, B) for g in _homs(B, C)]


def run_exactness_suite():
    total = 0
    for S in suite_semirings():
        pool = _pool_modules(S)
        rows = _stage_rows(pool)
        total += _padded_sequence_items(S, rows)
        total += _hom_functor_items(S, rows, pool)
        total += _tensor_functor_items(S, rows, pool)
        total += _componentwise_items(S, pool)
        total += _retract_square_items(S, pool)
        total += sum(_two_row_diagram_items(rows).values())
    return total, "no violation across the enumerated diagram instances"


# ---------------------------------------------------------------------------
# 7 / 8 / 9. Flatness criteria.
# ---------------------------------------------------------------------------

def run_flat_positive_suite():
    checks = 0
    for S in suite_semirings():
        pool = tuple(_pool_modules(S))
        SM = semiring_module(S)
        free2 = free_module(S, 2)
        T = trivial_module(S)
        for F in (SM, free2, T):
            v = is_uniformly_flat(F, pool)
            assert v.holds, f"free or trivial module failed flatness over {S}"
            checks += 1
        cert = trivial_certificate(SM)
        assert cert is not None
        rep = flat_certificate_check(SM, cert, pool,
                                     pullback_battery=_pullback_battery(S))
        assert rep["flat"]
        checks += 1
        for members in end_comp(free2):
            R, _ = submodule_of(free2, subsemimodule(free2, members))
            v = is_uniformly_flat(R, pool)
            assert v.holds, f"retract of a free module failed flatness over {S}"
            checks += 1
    return checks, "free modules, their retracts, and certified modules are flat"


def _pullback_battery(S):
    pool = _pool_modules(S)
    battery = []
    for A in pool[:3]:
        for C in pool[:3]:
            fs = _homs(A, C)
            if len(fs) >= 2:
                battery.append((fs[1], fs[1]))
                break
    return battery[:2]


def run_flat_negative_suite():
    Z4 = zmod_semiring(4)
    Z4m = semiring_module(Z4)
    Z2 = zmod_module(4, 2)
    v = is_uniformly_M_flat(Z2, Z4m)
    assert not v.holds and v.witness[0] == (0, 2), "expected the witness U = {0,2}"
    # reproduce through the dense-presentation oracle
    U, inc = submodule_of(Z4m, subsemimodule(Z4m, (0, 2)))
    incL = as_left_morphism(inc)
    induced = tensor_morphisms(identity_morphism(Z2), incL, dense=True)
    assert not induced.injective, "dense oracle must reproduce the failure"
    assert induced.source.size == 2 and all(v == induced.target.zero
                                            for v in induced.map)
    sparse = tensor_morphisms(identity_morphism(Z2), incL)
    assert sparse.source.size == induced.source.size
    assert sparse.target.size == induced.target.size
    return 3, "non-flat witness reproduced by the dense oracle"


def run_implication_lattice_suite():
    total = 0
    details = []
    for S in (bool_semiring(), zmod_semiring(4)):
        cfg = SearchConfig((S,), max_size=4, budget_seconds=240.0)
        rep = search_counterexamples(cfg)
        assert not rep["lattice_violations"], rep["lattice_violations"]
        total += len(rep["records"])
        details.append(f"{len(rep['records'])} modules over |S|={S.size}")
        SM = semiring_module(S)
        free2 = free_module(S, 2)
        universe = enumerate_semimodules(S, 4)
        for F in (SM, free2):
            assert projectivity_witness(F) is not None
            assert is_uniformly_flat(F, universe).holds
            total += 1
    return total, "; ".join(details)


# ---------------------------------------------------------------------------
# 10. Hom/tensor comparison contracts.
# ---------------------------------------------------------------------------

def run_nu_suite():
    checks = 0
    Z4 = zmod_semiring(4)
    B = bool_semiring()
    evaluated_without_hypothesis = 0
    for S in (Z4, B):
        SM_left = semiring_module(S, LEFT)
        Y_bi = semiring_bimodule(S, LEFT)
        pool_left = [as_left(m) for m in _pool_modules(S)]
        flats = [SM_left, free_module(S, 2, LEFT)]
        nonflats = []
        if S is Z4:
            nonflats = [zmod_module(4, 2, LEFT)]
        for X in pool_left:
            fg = is_uniformly_fg(X)
            fp = is_uniformly_fp(X) if fg else None
            for Z in flats:
                comp = dual_comparison(X, Z)
                if fg is not None:
                    assert comp.injective and comp.uniform, \
                        "comparison must embed uniformly under the fg hypothesis"
                if fp is not None:
                    assert comp.bijective, \
                        "comparison must be bijective under the fp hypothesis"
                checks += 1
            for Z in nonflats:
                comp = dual_comparison(X, Z)
                evaluated_without_hypothesis += 1
                checks += 1
            if fg is None:
                for Z in flats[:1]:
                    comp = dual_comparison(X, Z)
                    evaluated_without_hypothesis += 1
                    checks += 1
        # the bisemimodule form on one instance per semiring
        comp = hom_tensor_comparison(SM_left, Y_bi, SM_left)
        assert comp.bijective
        checks += 1
    assert evaluated_without_hypothesis >= 1
    return checks, f"{evaluated_without_hypothesis} hypothesis-free instances evaluated"


# ---------------------------------------------------------------------------
# 11. Limits suite.
# ---------------------------------------------------------------------------

def _unique_factorization_product(X, data) -> int:
    count = 0
    for fs in itertools.product(*[_homs(X, F) for F in data.factors]):
        mediator = pairing(list(fs), data)
        matches = [h for h in _homs(X, data.module)
                   if all(compose(p, h).map == f.map
                          for p, f in zip(data.projections, fs))]
        assert len(matches) == 1 and matches[0].map == mediator.map, \
            "product factorization must be unique"
        count += 1
        if count >= 6:
            break
    return count


def _unique_factorization_coproduct(X, data) -> int:
    count = 0
    for fs in itertools.product(*[_homs(F, X) for F in data.factors]):
        mediator = copairing(list(fs), data)
        matches = [h for h in _homs(data.module, X)
                   if all(compose(h, i).map == f.map
                          for i, f in zip(data.injections, fs))]
        assert len(matches) == 1 and matches[0].map == mediator.map, \
            "coproduct factorization must be unique"
        count += 1
        if count >= 6:
            break
    return count


def run_limits_suite():
    checks = 0
    for S in suite_semirings():
        pool = _pool_modules(S)
        SM = semiring_module(S)
        T = trivial_module(S)
        small = [m for m in pool if m.size <= 4][:3]
        data = direct_sum((small[1], small[-1]))
        checks += _unique_factorization_product(SM, data)
        checks += _unique_factorization_coproduct(SM, data)
        # equalizer and coequalizer universal properties on one parallel pair
        fs = _homs(SM, small[-1])
        if len(fs) >= 2:
            f, g = fs[0], fs[1]
            E, einc = equalizer(f, g)
            for h in _homs(SM, f.source):
                if all(f.map[h.map[x]] == g.map[h.map[x]] for x in range(SM.size)):
                    lifts = [u for u in _homs(SM, E)
                             if compose(einc, u).map == h.map]
                    assert len(lifts) == 1
                    checks += 1
            Q, qpi = coequalizer(f, g)
            for h in _homs(f.target, SM):
                if all(h.map[f.map[x]] == h.map[g.map[x]] for x in range(f.source.size)):
                    descents = [u for u in _homs(Q, SM)
                                if compose(u, qpi).map == h.map]
                    assert len(descents) == 1
                    checks += 1
        # pullback mediators exist and are unique
        f2 = _homs(small[-1], SM)[-1]
        g2 = _homs(small[-1], SM)[-1]
        P, p1, p2, pdata, pinc = pullback(f2, g2)
        for u in _homs(SM, small[-1])[:3]:
            for v in _homs(SM, small[-1])[:3]:
                if compose(f2, u).map != compose(g2, v).map:
                    continue
                med = pullback_mediator(P, pinc, pdata, u, v)
                matches = [h for h in _homs(SM, P)
                           if compose(p1, h).map == u.map and compose(p2, h).map == v.map]
                assert len(matches) == 1 and matches[0].map == med.map
                checks += 1
        # the module is the directed colimit of its subsemimodules
        subs_sys, comparison = subsemimodule_system(SM)
        assert comparison.injective and comparison.surjective, \
            "module must be the colimit of its subsemimodules"
        checks += 1
        # levelwise properties transfer to the colimit map
        idsys = constant_system(SM, 2)
        for h in _homs(SM, SM)[:4]:
            hmap = colimit_morphism(idsys, idsys, [h, h])
            assert (hmap.injective == h.injective
                    and hmap.surjective == h.surjective
                    and morphism_profile(hmap).uniform == morphism_profile(h).uniform)
            checks += 1
        # levelwise short exact systems keep kernels through the colimit
        for U in uniform_subsemimodules(SM)[:2]:
            sub, inc = submodule_of(SM, U)
            Q, pi = quotient_by_sub(SM, U)
            sysL = constant_system(sub, 2)
            sysM = constant_system(SM, 2)
            sysN = constant_system(Q, 2)
            alpha = colimit_morphism(sysL, sysM, [inc, inc])
            beta = colimit_morphism(sysM, sysN, [pi, pi])
            rep = classify_sequence(with_zero_ends([alpha, beta]))
            assert rep.exact, "levelwise short exact system lost exactness"
            kerb = kernel(beta)
            assert len(kerb.members) == sub.size
            checks += 1
        # psi is injective (and here bijective) for every pool module
        fsur = hom_module(SM, small[-1]).surjective_maps
        sys2 = chain_system([fsur[0]]) if fsur else constant_system(SM, 2)
        for X in pool:
            hc = hom_colimit_comparison(as_left(X) if X.side != sys2.nodes[0].side else X,
                                        sys2)
            assert hc.injective, "hom colimit comparison must be injective"
            assert hc.bijective
            checks += 1
        # tensoring commutes with finite sums and directed colimits
        F = SM
        A, Bm = small[1], small[-1]
        sumdata = direct_sum((as_left(A), as_left(Bm)))
        TA = tensor_product(F, as_left(A))
        TB = tensor_product(F, as_left(Bm))
        TS = tensor_product(F, sumdata.module)
        tp1 = tensor_morphisms(identity_morphism(F), sumdata.projections[0])
        tp2 = tensor_morphisms(identity_morphism(F), sumdata.projections[1])
        tsum = direct_sum((TA.module, TB.module))
        mediator = pairing([tp1, tp2], tsum)
        assert mediator.injective and mediator.surjective, \
            "tensoring must commute with finite direct sums"
        checks += 1
        lsys = chain_system([as_left_morphism(f) for f in fsur[:1]]) if fsur else None
        if lsys is not None:
            tensored = [tensor_product(F, X2).module for X2 in lsys.nodes]
            tmaps = [tensor_morphisms(identity_morphism(F), lsys.transition(0, 1))]
            tsys = directed_system(tensored, [(0, 1)], tmaps)
            tcolim = directed_colimit(tsys)
            direct = tensor_product(F, directed_colimit(lsys).module)
            assert canonical_form(tcolim.module.add, tcolim.module.zero)[0] == \
                canonical_form(direct.module.add, direct.module.zero)[0], \
                "tensoring must commute with directed colimits"
            checks += 1
        # hom into a product is the product of homs
        HP = hom_module(SM, data.module)
        H1 = hom_module(SM, data.factors[0])
        H2 = hom_module(SM, data.factors[1])
        assert len(HP.maps) == len(H1.maps) * len(H2.maps), \
            "hom must send finite products to products"
        checks += 1
        # inverse limits: constant and discrete shapes
        isys = inverse_system([SM, SM], [(0, 1)], [identity_morphism(SM)])
        L, projs = inverse_limit(isys)
        assert L.size == SM.size
        isys2 = inverse_system([SM, SM], [], [])
        L2, _ = inverse_limit(isys2)
        assert L2.size == SM.size ** 2
        checks += 2
    return checks, "universal properties verified with unique mediators"


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------

ALL_SUITES = (
    ("axioms", run_axiom_suite),
    ("congruence-oracle", run_congruence_oracle_suite),
    ("unit-law", run_unit_law_suite),
    ("cancellative-universal", run_cancellative_universal_suite),
    ("adjunction", run_adjunction_suite),
    ("exactness", run_exactness_suite),
    ("flat-positive", run_flat_positive_suite),
    ("flat-negative", run_flat_negative_suite),
    ("implication-lattice", run_implication_lattice_suite),
    ("hom-tensor-comparison", run_nu_suite),
    ("limits", run_limits_suite),
)


def run_suites(only=None) -> list[SuiteResult]:
    if not __debug__:   # python -O strips the asserts the suites check with
        raise InvalidArgument("the property suite checks with assert statements, "
                              "which python -O removes; run it without -O")
    results = []
    for tag, fn in ALL_SUITES:
        if only and tag not in only:
            continue
        results.append(_timed(tag, fn))
    return results
