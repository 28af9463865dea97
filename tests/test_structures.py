from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflat import errors, suite
from semiflat.catalog import (enumerate_semimodules, product_semiring, semiring_module,
                              suite_semirings, trivial_module, zmod_module, zmod_semiring,
                              cyclic_monoid)
from semiflat.errors import AxiomViolation, MalformedTable, SemiflatError, SideMismatch
from semiflat.limits import directed_system, inverse_system
from semiflat.structures import (LEFT, RIGHT, SecondAction, as_left, as_right,
                                 build_morphism, build_semimodule,
                                 build_semiring, canonical_form, compose,
                                 counting_action, counting_semiring_for,
                                 derived_actions, descend, element_order,
                                 element_orders, freeze_table,
                                 identity_morphism, is_cancellative, mirror,
                                 monoid_module, morphism_violations,
                                 semiring_violations, semimodule_violations,
                                 Violation, with_bimodule_structure)
from semiflat.tensor import factor_balanced, tensor_product


def test_bool_semiring_is_valid():
    S = build_semiring(["0", "1"], [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)
    assert S.size == 2 and S.commutative


def test_sat3_semiring_is_valid(S3):
    assert S3.size == 4
    assert S3.add[2][3] == 3 and S3.mul[2][2] == 3


def test_absorbing_violation_is_reported():
    with pytest.raises(AxiomViolation) as exc:
        build_semiring(["0", "1"], [[0, 1], [1, 1]], [[0, 1], [0, 1]], 0, 1)
    assert any(v.axiom == "zero-absorbing" for v in exc.value.violations)


def test_malformed_table_rejected():
    with pytest.raises(MalformedTable):
        build_semiring(["0", "1"], [[0, 1]], [[0, 0], [0, 1]], 0, 1)


# constructor arguments of the errors whose __init__ takes fields of their own
_ERROR_ARGS = {
    "AxiomViolation": ("semiring", [Violation("add-identity", (0, 1)),
                                    Violation("one-neq-zero", (0,))]),
    "SizeBoundExceeded": ("hom enumeration", 300, 256),
    "BoxBoundExceeded": ("tensor box", 5000, 4096),
    "NotACongruence": ((1, 2), "why"),
    "NotBalanced": ((0, 1), "balance"),
    "NotZeroPreserving": ((0, 3),),
    "NotCommutative": ((2,), "square"),
    "BadCertificate": ("flatness", "not flat"),
    "TimeBudgetExceeded": ({"records": [1, 2]},),
    "SchemaError": ("/semirings/0", "missing 'add'"),
}


def test_errors_survive_pickling_and_copying():
    # the subclasses format their message in __init__; a copy must neither
    # call it with the message alone nor format the message twice
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SemiflatError)]
    assert len(classes) == 21
    own_init = {c.__name__ for c in classes if c.__init__ is not Exception.__init__}
    assert own_init == set(_ERROR_ARGS)
    for cls in classes:
        error = cls(*_ERROR_ARGS.get(cls.__name__, ("plain message",)))
        for copied in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
            assert type(copied) is cls
            assert (str(copied), vars(copied)) == (str(error), vars(error)), cls.__name__


def _rebuild_semiring(Bm, **changed):
    """Bm's semiring built again from its tables, with some arguments changed."""
    S = Bm.semiring
    args = dict(labels=S.labels, add=S.add, mul=S.mul, zero=S.zero, one=S.one)
    return build_semiring(**{**args, **changed})


def _rebuild_module(Bm, **changed):
    """Bm built again from its tables, with some arguments changed."""
    args = dict(semiring=Bm.semiring, side=Bm.side, labels=Bm.labels, add=Bm.add,
                zero=Bm.zero, action=Bm.action)
    return build_semimodule(**{**args, **changed})


@pytest.mark.parametrize("build", [
    lambda Bm: freeze_table([[0, 1], 5]),
    lambda Bm: freeze_table([[0, 1], [1, "a"]]),
    lambda Bm: build_semiring(["0", "1"], [[0, 1], [1, 1.5]], [[0, 0], [0, 1]], 0, 1),
    lambda Bm: build_morphism(Bm, Bm, [0, 1.5]),
    lambda Bm: build_morphism(Bm, Bm, [0, "a"]),
    lambda Bm: build_morphism(Bm, Bm, 5),
    lambda Bm: factor_balanced(tensor_product(Bm, as_left(Bm)), Bm, (0, 0)),
    lambda Bm: factor_balanced(tensor_product(Bm, as_left(Bm)), Bm, ((0, 0), (0, 1.5))),
    lambda Bm: freeze_table([[0, 1], [1, True]]),
    # a dict is read by its keys: {0: 0, 1: 0} over Z/2 would be the identity
    lambda Bm: build_morphism(Z2m := semiring_module(zmod_semiring(2)), Z2m, {0: 0, 1: 0}),
    lambda Bm: build_morphism(Bm, Bm, {1, 0}),
    lambda Bm: freeze_table({(0, 1): "row 0", (1, 0): "row 1"}),
    lambda Bm: freeze_table([[0, 1], frozenset({0, 1})]),
    lambda Bm: _rebuild_semiring(Bm, zero=None),
    lambda Bm: _rebuild_semiring(Bm, zero="0"),
    lambda Bm: _rebuild_semiring(Bm, zero=0.0),
    lambda Bm: _rebuild_semiring(Bm, one=True),
    lambda Bm: _rebuild_module(Bm, zero=None),
    lambda Bm: _rebuild_module(Bm, zero=0.0),
    lambda Bm: _rebuild_semiring(Bm, labels=2),
    lambda Bm: _rebuild_semiring(Bm, labels={"0", "1"}),
    lambda Bm: _rebuild_module(Bm, labels=None),
], ids=["row-not-a-sequence", "entry-a-string", "semiring-entry-1.5", "map-entry-1.5",
        "map-entry-a-string", "map-not-a-sequence", "balanced-row-not-a-sequence",
        "balanced-entry-1.5", "entry-a-bool", "map-a-dict", "map-a-set", "table-a-dict",
        "row-a-frozenset", "zero-none", "zero-a-string", "zero-0.0", "one-a-bool",
        "module-zero-none", "module-zero-0.0", "labels-an-int", "labels-a-set",
        "module-labels-none"])
def test_non_integer_tables_are_malformed(Bm, build):
    # a non-integer entry or index is neither truncated nor a raw TypeError
    # or ValueError, and an unordered table is not read in key or hash order
    with pytest.raises(MalformedTable):
        build(Bm)


class _Index:
    """An integer type that is not ``int``, like a numpy integer."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_scalars_follow_the_table_entry_rule(Bm):
    # zero and one are read with operator.index, as table entries are
    S = _rebuild_semiring(Bm, zero=_Index(Bm.semiring.zero), one=_Index(Bm.semiring.one))
    M = _rebuild_module(Bm, zero=_Index(Bm.zero), add=[[_Index(x) for x in row] for row in Bm.add])
    assert S == Bm.semiring and M == Bm
    assert type(S.zero) is int and type(S.one) is int and type(M.zero) is int


# Values that are neither a table of in-range indices of the expected shape
# nor an integer index: every constructor must answer them with a typed error.
_scalars = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-5, -1),
                     st.integers(2, 99), st.builds(object))
_unordered = st.one_of(st.dictionaries(st.integers(0, 1), st.integers(0, 1), min_size=1),
                       st.frozensets(st.integers(0, 1), min_size=1))
_cell = st.integers(0, 1)
_rows = st.lists(st.lists(_cell, min_size=2, max_size=2), min_size=2, max_size=2)
_bad_cell = st.one_of(st.integers(-5, -1), st.integers(2, 99), st.booleans(),
                      st.floats(), st.text(max_size=2), st.none())


@st.composite
def _spoiled(draw):
    """A 2 x 2 table with one entry replaced by a bad cell."""
    rows = draw(_rows)
    rows[draw(_cell)][draw(_cell)] = draw(_bad_cell)
    return rows


_malformed = st.one_of(
    _scalars, _unordered, st.text(max_size=3), _spoiled(),
    st.lists(_cell, min_size=2, max_size=2).map(lambda row: [row, row[:1]]),      # ragged
    st.sampled_from([0, 1, 3]).map(lambda n: [[0, 1]] * n),                        # row count
    st.lists(_unordered, min_size=2, max_size=2),                                  # dict rows
    st.lists(_bad_cell, min_size=1, max_size=3),                                   # a bad row
)
_malformed_labels = st.one_of(_scalars, _unordered)


@pytest.fixture(scope="module")
def boundaries(Bm):
    pres = tensor_product(Bm, as_left(Bm))
    ids = [identity_morphism(Bm)] * 2
    slots = [lambda x, k=k: _rebuild_semiring(Bm, **{k: x}) for k in ("add", "mul", "zero", "one")]
    slots += [lambda x, k=k: _rebuild_module(Bm, **{k: x}) for k in ("add", "zero", "action")]
    slots += [
        lambda x: build_morphism(Bm, Bm, x),
        lambda x: factor_balanced(pres, Bm, x),
    ]
    for system in (directed_system, inverse_system):
        slots += [
            lambda x, system=system: system([Bm, Bm], x, ids),
            lambda x, system=system: system([Bm, Bm], [(0, 1)], x),
            lambda x, system=system: system([Bm, Bm], [(0, 1)], [x]),
        ]
    label_slots = [lambda x: _rebuild_semiring(Bm, labels=x),
                   lambda x: _rebuild_module(Bm, labels=x)]
    return slots, label_slots


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(bad=_malformed, bad_labels=_malformed_labels)
def test_malformed_tables_and_scalars_end_in_typed_errors(boundaries, bad, bad_labels):
    # a TypeError, IndexError, KeyError, ValueError or AttributeError escapes
    # pytest.raises and fails the test
    slots, label_slots = boundaries
    for slot in slots:
        with pytest.raises(SemiflatError):
            slot(bad)
    for slot in label_slots:
        with pytest.raises(SemiflatError):
            slot(bad_labels)


def test_semiring_as_module_over_itself(S3):
    M = semiring_module(S3)
    assert M.size == S3.size and M.side == "right"


def test_identity_morphism_flags(Z4m):
    f = identity_morphism(Z4m)
    assert f.injective and f.surjective


def test_zero_breaking_map_rejected(Bm):
    with pytest.raises(AxiomViolation) as exc:
        build_morphism(Bm, Bm, [1, 1])
    assert any(v.axiom.startswith("map") for v in exc.value.violations)


def test_side_mismatch_rejected(Bm):
    with pytest.raises(SideMismatch):
        build_morphism(Bm, mirror(Bm), [0, 1])


def _upper_triangular_bool():
    # Boolean upper triangular 2 x 2 matrices [[a, b], [0, c]]: a
    # noncommutative semiring with eight elements
    elems = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    pos = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        return (x[0] & y[0], (x[0] & y[1]) | (x[1] & y[2]), x[2] & y[2])

    return build_semiring(["".join(map(str, e)) for e in elems],
                          [[pos[tuple(u | v for u, v in zip(x, y))] for y in elems]
                           for x in elems],
                          [[pos[mul(x, y)] for y in elems] for x in elems],
                          pos[(0, 0, 0)], pos[(1, 0, 1)])


def test_mirror_is_one_object_per_module(Z4m):
    # the mirror is cached, so every cache keyed by modules downstream
    # finds it by identity
    assert as_left(Z4m) is as_left(Z4m)
    assert as_left(Z4m) is mirror(Z4m) and as_left(Z4m).side == "left"
    assert as_right(as_left(Z4m)) == Z4m
    assert as_left(as_left(Z4m)) is as_left(Z4m)


def test_mirror_refuses_a_noncommutative_semiring_every_time():
    # a refusal is not cached: the second call raises as the first did
    S = _upper_triangular_bool()
    assert not S.commutative
    M = semiring_module(S)
    for _ in range(2):
        with pytest.raises(SideMismatch):
            mirror(M)
        with pytest.raises(SideMismatch):
            as_left(M)


def test_element_orders(Z4m, Bm):
    assert element_orders(Z4m)[1] == (0, 4)
    assert element_orders(Bm) == ((0, 1), (1, 1))
    assert element_orders(Z4m)[0] == (0, 1)


def test_cancellativity(Z4m, Bm, S3m):
    assert is_cancellative(Z4m)
    assert not is_cancellative(Bm)
    assert not is_cancellative(S3m)


def test_product_semiring_valid(B, Z4):
    P = product_semiring(B, Z4)
    assert P.size == 8 and P.commutative


def test_bimodule_synthesis_commutes(Z2):
    M = with_bimodule_structure(Z2)
    assert M.second is not None and M.second.side == "left"


def test_isomorphism_detection(Z4):
    A = zmod_module(4, 2)
    Bq = zmod_module(4, 2)
    T = trivial_module(Z4)
    assert canonical_form(A.add, A.zero, A.action)[0] == \
        canonical_form(Bq.add, Bq.zero, Bq.action)[0]
    assert canonical_form(A.add, A.zero, A.action)[0] != \
        canonical_form(T.add, T.zero, T.action)[0]


def test_monoid_isomorphism_respects_structure():
    chain = ((0, 1), (1, 1))
    group = ((0, 1), (1, 0))
    assert canonical_form(chain, 0)[0] != canonical_form(group, 0)[0]
    assert canonical_form(group, 0) == ((group, ()), (0, 1))


def test_monoid_module_wrap():
    M = monoid_module(cyclic_monoid(1, 2))
    assert M.size == 3 and M.zero == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4))
def test_cyclic_orders(index, period):
    if index + period < 2:
        return
    table = cyclic_monoid(index, period)
    assert element_order(table, 0, 1) == (index, period)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_validator_never_crashes_and_witnesses_hold(rows):
    table = tuple(tuple(r) for r in rows)
    violations = semiring_violations(("a", "b", "c"), table, table, 0, 1)
    for v in violations:
        if v.axiom == "add-associative":
            a, b, c = v.witness
            assert table[table[a][b]][c] != table[a][table[b][c]]
        if v.axiom == "add-commutative":
            a, b = v.witness
            assert table[a][b] != table[b][a]
        if v.axiom == "add-identity":
            z, a = v.witness
            assert table[z][a] != a


def test_compose_flags(Z4m, Z2):
    f = build_morphism(Z4m, Z2, [0, 1, 0, 1])
    g = identity_morphism(Z4m)
    assert compose(f, g).map == f.map
    assert compose(f, g).surjective


@pytest.mark.parametrize("pairs, size, expected", [
    ([(0, 5), (1, 7), (0, 5), (2, 5)], 3, [5, 7, 5]),    # well defined
    ([(0, 5), (1, 7), (0, 6)], 2, None),                 # class 0 gets 5 and 6
    ([(2, 4), (0, 1)], 4, [1, None, 4, None]),           # classes 1 and 3 unreached
    ([], 2, [None, None]),
])
def test_descend(pairs, size, expected):
    assert descend(iter(pairs), size) == expected


def test_derived_actions(Z4, S3, Z2):
    add, zero = Z2.add, Z2.zero
    C = counting_semiring_for(Z4)
    assert derived_actions(Z4, add, zero, []) == \
        (C, RIGHT, counting_action(add, zero, C.size), None)
    first = (Z4, LEFT, Z2.action)
    assert derived_actions(Z4, add, zero, [first]) == (Z4, LEFT, Z2.action, None)
    second = (S3, RIGHT, ((0, 0, 0, 0), (0, 1, 1, 1)))
    assert derived_actions(Z4, add, zero, [first, second]) == \
        (Z4, LEFT, Z2.action, SecondAction(*second))


def _pairwise_violations(source, target, mapping) -> list:
    """Every violated morphism axiom, as (axiom, witness), scanned over all pairs and scalars.

    The scan that decided every table before the generator decision; it
    stays the reference for both the verdict and the witness list.
    """
    n = source.size
    out = []
    for a in range(n):
        fa = mapping[a]
        for b in range(a, n):
            if mapping[source.add[a][b]] != target.add[fa][mapping[b]]:
                out.append(("map-additive", (a, b)))
    for a in range(n):
        for s in range(source.semiring.size):
            if mapping[source.action[a][s]] != target.action[mapping[a]][s]:
                out.append(("map-linear", (a, s)))
    if mapping[source.zero] != target.zero:
        out.append(("map-zero", (source.zero,)))
    return out


def test_morphism_violations_match_the_pairwise_scan():
    # every table between the enumerated modules of size <= 4 over the suite
    # semirings, and the axiom tag's invalid maps: the generator decision
    # accepts what the pairwise scan accepts, and a rejected table reports
    # the pairwise witnesses, in the pairwise order
    def found(source, target, table):
        return [(v.axiom, v.witness) for v in morphism_violations(source, target, table)]

    tables = rejected = 0
    for S in suite_semirings():
        modules = enumerate_semimodules(S, 4)
        for M in modules:
            for N in modules:
                for table in itertools.product(range(N.size), repeat=M.size):
                    want = _pairwise_violations(M, N, table)
                    assert found(M, N, table) == want
                    tables += 1
                    rejected += bool(want)
    fixtures = suite._invalid_morphism_fixtures()
    for name, source, target, mapping, axiom in fixtures:
        want = _pairwise_violations(source, target, mapping)
        assert axiom in {a for a, _ in want}, name
        assert found(source, target, mapping) == want, name
    assert (tables, rejected, len(fixtures)) == (17541, 16756, 7)


def test_enumerated_modules_satisfy_the_axioms():
    # class_representative builds each enumerated module without an axiom scan
    for S in suite_semirings():
        for M in enumerate_semimodules(S, 5):
            assert semimodule_violations(M.semiring, M.side, M.add, M.zero, M.action,
                                         M.second) == []
