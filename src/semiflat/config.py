"""Size bounds for the enumeration-heavy operations.

Each bound is checked once, before the work it bounds is built, and a
value past it raises ``SizeBoundExceeded`` (``BoxBoundExceeded`` for the
tensor box).  The sites read these names from this module at call time.
``MAX_BOX`` bounds only the box of the dense oracle presentation; the
tensor product itself is built on M^n from a free cover S^n of its right
factor, and both carriers are bounded by ``MAX_PRODUCT``.

``MAX_PRODUCT`` bounds the carrier of every direct sum, inverse limit
and free module S^n.  These are built by the componentwise fold of
``structures.product_table`` with no axiom scan, so the bound bounds the
work too: a table of |P|^2 entries, where a scan would take |P|^3 steps.
"""

MAX_SUBSET_MODULE = 16        # carrier searched for its subsemimodules and its least generating sets
MAX_HOM_CANDIDATES = 65536    # |target| ** #generators in hom and balanced-map enumeration
MAX_BOX = 4096                # box carrier of a box-built (dense oracle) tensor presentation
MAX_PRODUCT = 4096            # product and limit carriers, free modules S^n, tensor covers M^n
MAX_FREE_RANK = 2             # largest rank of a free module searched as a cover
MAX_ENUMERATED_SIZE = 5       # carrier of an enumerated commutative monoid or semimodule
