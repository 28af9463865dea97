"""Every size bound of ``semiflat.config`` raises its typed error at its site.

Each case is a real input past one bound, except where the bound is
lowered: the free-cover cases, so that a rank-2 cover of the Boolean
semiring (4 elements) passes it, and the retract search, whose two Hom
enumerations are small.
"""
from __future__ import annotations

import pytest

from semiflat import config, flatness
from semiflat.catalog import (bool_semiring, chain_module, enumerate_commutative_monoids,
                              enumerate_semimodules, free_module, monoid_module,
                              semiring_module, zmod_module, zmod_semiring)
from semiflat.errors import BoxBoundExceeded, SizeBoundExceeded
from semiflat.flatness import (is_uniformly_fg, is_uniformly_fp, projectivity_witness,
                               trivial_certificate)
from semiflat.homology import hom_maps, is_retract_of, linear_maps
from semiflat.limits import InverseSystem, direct_sum, inverse_limit
from semiflat.structures import as_left
from semiflat.subsets import enumerate_subsemimodules
from semiflat.tensor import _box_product, enumerate_balanced_maps, tensor_product


def _b2():
    return free_module(bool_semiring(), 2)


def _z17():
    return monoid_module([[(a + b) % 17 for b in range(17)] for a in range(17)])


def _seven_b2():
    return (_b2(),) * 7


def _balanced_3x3_into_4():
    B = bool_semiring()
    B3 = free_module(B, 3)              # three additive generators
    return enumerate_balanced_maps(B3, as_left(B3), as_left(_b2()))


def _chain_cover(left: int, right: int):
    # chain_module(k) needs all k - 1 nonzero elements as module generators
    return tensor_product(chain_module(left), chain_module(right, "left"))


def _z32_over_three_z2():
    # Z/32 (x) (Z/2)^3: three module generators make |S|^3 = |M|^3 = 32,768,
    # where the generator-pair box has only 2^3 = 8 cells
    Z2 = zmod_module(32, 2, "left")
    return semiring_module(zmod_semiring(32)), direct_sum((Z2,) * 3).module


def _retract_of(N, M):
    # a Hom enumeration is bounded when it is made, not when the cache
    # hands it out again, so start from an empty cache
    hom_maps.cache_clear()
    return is_retract_of(N, M)


def _z4_dense_box():
    Z4m = semiring_module(zmod_semiring(4))
    return tensor_product(Z4m, as_left(Z4m), dense=True)   # a box of 8192 cells


# (site, call, error, bound name, lowered bound or None)
CASES = [
    ("enumerate_subsemimodules", lambda: enumerate_subsemimodules(_z17()),
     SizeBoundExceeded, "MAX_SUBSET_MODULE", None),
    # 2^13 = 8,192 elements: the bound must stop this before the table is built
    ("free_module", lambda: free_module(bool_semiring(), 13), SizeBoundExceeded,
     "MAX_PRODUCT", None),
    ("direct_sum", lambda: direct_sum(_seven_b2()), SizeBoundExceeded, "MAX_PRODUCT", None),
    ("inverse_limit", lambda: inverse_limit(InverseSystem(_seven_b2(), (), ())),
     SizeBoundExceeded, "MAX_PRODUCT", None),
    ("linear_maps",
     lambda: linear_maps(free_module(bool_semiring(), 5), free_module(bool_semiring(), 4)),
     SizeBoundExceeded, "MAX_HOM_CANDIDATES", None),
    ("is_retract_of", lambda: _retract_of(chain_module(3), _b2()), SizeBoundExceeded,
     "MAX_HOM_CANDIDATES", 8),
    ("enumerate_balanced_maps", _balanced_3x3_into_4, SizeBoundExceeded,
     "MAX_HOM_CANDIDATES", None),
    ("enumerate_commutative_monoids", lambda: enumerate_commutative_monoids(6),
     SizeBoundExceeded, "MAX_ENUMERATED_SIZE", None),
    ("enumerate_semimodules", lambda: enumerate_semimodules(bool_semiring(), 6),
     SizeBoundExceeded, "MAX_ENUMERATED_SIZE", None),
    ("tensor_product", _z4_dense_box, BoxBoundExceeded, "MAX_BOX", None),
    ("tensor_cover_free", lambda: _chain_cover(1, 14), SizeBoundExceeded, "MAX_PRODUCT",
     None),
    ("tensor_cover", lambda: _chain_cover(3, 9), SizeBoundExceeded, "MAX_PRODUCT", None),
    ("tensor_cover_small_box", lambda: tensor_product(*_z32_over_three_z2()),
     SizeBoundExceeded, "MAX_PRODUCT", None),
    ("is_uniformly_fg", lambda: is_uniformly_fg(chain_module(3)), SizeBoundExceeded,
     "MAX_PRODUCT", 3),
    ("is_uniformly_fp", lambda: is_uniformly_fp(chain_module(3)), SizeBoundExceeded,
     "MAX_PRODUCT", 3),
    ("projectivity_witness", lambda: projectivity_witness(chain_module(3)),
     SizeBoundExceeded, "MAX_PRODUCT", 3),
    ("trivial_certificate", lambda: trivial_certificate(chain_module(3)),
     SizeBoundExceeded, "MAX_PRODUCT", 3),
]


@pytest.mark.parametrize("site, call, error, name, lowered", CASES,
                         ids=[case[0] for case in CASES])
def test_bound_raises_typed_error(monkeypatch, site, call, error, name, lowered):
    if lowered is not None:
        monkeypatch.setattr(config, name, lowered)
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert info.value.bound == getattr(config, name)
    assert info.value.requested > info.value.bound


def test_cover_bound_rejects_a_pair_whose_box_fits():
    # the cover of N is bounded by |S|^n and |M|^n, not by the box it
    # replaces, so this pair raises although the box builds it
    M, N = _z32_over_three_z2()
    box = _box_product(M, N, False)
    assert (box.box_size, box.module.size) == (8, 8)
    with pytest.raises(SizeBoundExceeded):
        tensor_product(M, N)


def test_free_cover_bound_is_checked_before_the_module_is_built(monkeypatch):
    # the covers are bounded by free_module itself, the one place that
    # checks S^n; the rank-2 cover of B (4 elements) is refused there
    built = []

    def recording_free_module(S, rank, side):
        try:
            out = free_module(S, rank, side)
        except SizeBoundExceeded as exc:
            built.append((rank, exc.requested))
            raise
        built.append((rank, out.size))
        return out

    monkeypatch.setattr(config, "MAX_PRODUCT", 3)
    monkeypatch.setattr(flatness, "free_module", recording_free_module)
    with pytest.raises(SizeBoundExceeded):
        projectivity_witness(chain_module(3))
    assert built == [(1, 2), (2, 4)]


def test_retract_search_checks_both_bounds_before_searching(monkeypatch):
    # B is a retract of the chain 0 < 1 < 2.  Hom(B, C3) has 3 candidates
    # and Hom(C3, B) has 2^2 = 4, so the bound on the second stops the
    # search although the first would already give a section.
    monkeypatch.setattr(config, "MAX_HOM_CANDIDATES", 3)
    with pytest.raises(SizeBoundExceeded) as info:
        _retract_of(semiring_module(bool_semiring()), chain_module(3))
    assert info.value.requested == 4
    # the map into M is bounded first: Hom(C3, B^2) has 4^2 = 16
    # candidates and Hom(B^2, C3) has 3^2 = 9
    monkeypatch.setattr(config, "MAX_HOM_CANDIDATES", 8)
    with pytest.raises(SizeBoundExceeded) as info:
        _retract_of(chain_module(3), _b2())
    assert info.value.requested == 16
