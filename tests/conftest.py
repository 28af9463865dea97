from __future__ import annotations

import pytest

from semiflat.catalog import (bool_semiring, sat_semiring, zmod_semiring,
                              semiring_module, zmod_module)


@pytest.fixture(scope="session")
def B():
    return bool_semiring()


@pytest.fixture(scope="session")
def S3():
    return sat_semiring(3)


@pytest.fixture(scope="session")
def Z4():
    return zmod_semiring(4)


@pytest.fixture(scope="session")
def Bm(B):
    return semiring_module(B)


@pytest.fixture(scope="session")
def S3m(S3):
    return semiring_module(S3)


@pytest.fixture(scope="session")
def Z4m(Z4):
    return semiring_module(Z4)


@pytest.fixture(scope="session")
def Z2(Z4):
    return zmod_module(4, 2)


@pytest.fixture(scope="session")
def closure_corpus():
    """Every module of size <= 4 over BOOL, SAT3, ZMOD4 and ZMOD2, and the
    tensor modules of the suite pool pairs."""
    from semiflat.catalog import enumerate_semimodules, suite_pool, suite_semirings
    from semiflat.structures import as_left
    from semiflat.tensor import tensor_product
    out = [M for S in (*suite_semirings(), zmod_semiring(2))
           for M in enumerate_semimodules(S, 4)]
    for S in suite_semirings():
        pool = [M for _, M in suite_pool(S)]
        out += [tensor_product(M, as_left(N)).module for M in pool for N in pool]
    return out
