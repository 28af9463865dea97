"""The product of two semirings, for the tests that need a semiring with
more idempotents than the catalog's: B x B acts on modules where the
scalar action adds to the additive translates."""
from __future__ import annotations

from semiflat.structures import build_semiring, product_table


def product_semiring(A, B):
    """A x B componentwise, by the package's product fold, elements in lex order."""
    labels = [f"({a},{b})" for a in A.labels for b in B.labels]
    return build_semiring(labels, product_table((A.add, B.add)), product_table((A.mul, B.mul)),
                          A.zero * B.size + B.zero, A.one * B.size + B.one)
