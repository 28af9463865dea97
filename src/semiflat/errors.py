"""Exception types shared across the workbench."""
from __future__ import annotations


class SemiflatError(Exception):
    """Base class for all workbench errors."""

    def __reduce__(self):
        # A subclass's __init__ takes its own fields and passes Exception only
        # the formatted message, so a copy or an unpickled error restores
        # ``args`` and the attributes without calling __init__ again.
        return type(self).__new__, (type(self), *self.args), self.__dict__


class MalformedTable(SemiflatError):
    """An operation table has the wrong shape or an out-of-range entry."""


class AxiomViolation(SemiflatError):
    """A structure failed validation.  Carries the violated axioms."""

    def __init__(self, what: str, violations):
        self.what = what
        self.violations = tuple(violations)
        lines = ", ".join(f"{v.axiom}@{v.witness}" for v in self.violations[:4])
        more = "" if len(self.violations) <= 4 else f" (+{len(self.violations) - 4} more)"
        super().__init__(f"{what}: {lines}{more}")


class SideMismatch(SemiflatError):
    """Morphism endpoints disagree on semiring or side."""


class SizeBoundExceeded(SemiflatError):
    """An enumeration would exceed one of the size bounds in ``semiflat.config``."""

    def __init__(self, what: str, requested, bound):
        self.what = what
        self.requested = requested
        self.bound = bound
        super().__init__(f"{what}: requested {requested} exceeds bound {bound}")


class NotACongruence(SemiflatError):
    """Partition is not compatible with the structure; carries a witness."""

    def __init__(self, witness, detail: str = ""):
        self.witness = witness
        super().__init__(f"not a congruence at {witness}: {detail}")


class NotASubsemimodule(SemiflatError):
    """Subset is not closed under addition or scalar action."""


class NotComposable(SemiflatError):
    """Consecutive morphisms do not compose."""


class ShapeMismatch(SemiflatError):
    """Diagram legs, endpoints or index data do not fit together."""


class NotDirected(SemiflatError):
    """Index poset is not directed or the transition maps are incoherent."""


class NotIntertwining(SemiflatError):
    """Levelwise maps do not commute with the transition morphisms."""


class NotBalanced(SemiflatError):
    """A bilinear table fails additivity or the balance condition."""

    def __init__(self, witness, detail: str = ""):
        self.witness = witness
        super().__init__(f"not balanced at {witness}: {detail}")


class NotZeroPreserving(SemiflatError):
    """A bilinear table does not send slot zeroes to zero."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"slot zero maps to a nonzero element at {witness}")


class BoxBoundExceeded(SizeBoundExceeded):
    """The tensor presentation box would be too large."""


class NotCommutative(SemiflatError):
    """A diagram fails one of its commutativity assertions."""

    def __init__(self, witness, detail: str = ""):
        self.witness = witness
        super().__init__(f"diagram does not commute at {witness}: {detail}")


class NotExact(SemiflatError):
    """A sequence required to be exact is not."""


class BadCertificate(SemiflatError):
    """A flatness certificate failed verification."""

    def __init__(self, node, reason: str):
        self.node = node
        self.reason = reason
        super().__init__(f"certificate node {node}: {reason}")


class TimeBudgetExceeded(SemiflatError):
    """Search ran out of time; a partial report is attached."""

    def __init__(self, partial):
        self.partial = partial
        super().__init__("time budget exceeded; partial report available")


class SchemaError(SemiflatError):
    """Workspace document does not match the schema."""

    def __init__(self, pointer: str, detail: str):
        self.pointer = pointer
        self.detail = detail
        super().__init__(f"{pointer}: {detail}")


class UnknownObject(SemiflatError):
    """A name does not resolve inside the workspace."""


class InvalidArgument(SemiflatError):
    """A parameter lies outside its domain."""
