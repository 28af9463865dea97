from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflat.catalog import (product_semiring, semiring_module,
                              trivial_module, zmod_module, cyclic_monoid)
from semiflat.errors import AxiomViolation, MalformedTable, SideMismatch
from semiflat.structures import (as_left, build_morphism, build_semiring, compose,
                                 element_order, element_orders,
                                 find_monoid_isomorphism, freeze_table,
                                 identity_morphism, is_cancellative, isomorphic,
                                 mirror, monoid_module, semiring_violations,
                                 with_bimodule_structure)
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
], ids=["row-not-a-sequence", "entry-a-string", "semiring-entry-1.5", "map-entry-1.5",
        "map-entry-a-string", "map-not-a-sequence", "balanced-row-not-a-sequence",
        "balanced-entry-1.5", "entry-a-bool"])
def test_non_integer_tables_are_malformed(Bm, build):
    # a non-integer entry is neither truncated nor a raw TypeError or ValueError
    with pytest.raises(MalformedTable):
        build(Bm)


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
    assert isomorphic(A, Bq)
    assert not isomorphic(A, trivial_module(Z4))


def test_monoid_isomorphism_respects_structure():
    chain = ((0, 1), (1, 1))
    group = ((0, 1), (1, 0))
    assert find_monoid_isomorphism(chain, 0, group, 0) is None
    assert find_monoid_isomorphism(group, 0, group, 0) == (0, 1)


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
