"""Exception hierarchy shared by all grplab modules."""

from __future__ import annotations


class GrplabError(Exception):
    """Base class for all errors raised by grplab."""


class MalformedSpec(GrplabError):
    """A group or set specification could not be parsed or is inconsistent."""


class OrderCapExceeded(GrplabError):
    """Constructing the group would exceed the configured order cap."""


class NotPrimePower(GrplabError):
    """PSL2 requires a prime-power field size."""


class NotAGroup(GrplabError):
    """A multiplication table fails the group axioms."""


class GroupMismatch(GrplabError):
    """Operands live over different groups."""


class EmptySet(GrplabError):
    """The operation requires a nonempty set."""


class ExactCapExceeded(GrplabError):
    """Exact subset enumeration is only offered below a hard size cap."""


class KindUnsupportedForGroup(GrplabError):
    """The requested set constructor does not apply to this group."""


class BudgetExceeded(GrplabError):
    """An iteration or memory budget would be exceeded."""


class DomainMismatch(GrplabError):
    """Fiber functions must share one domain set."""


class PointwiseIdentityFailed(GrplabError):
    """The pointwise product identity holds on too small a fraction of the domain."""


class ValidationFailed(GrplabError):
    """A numerical result failed its exact integer validation."""


class EngineUnsupported(GrplabError):
    """The requested counting engine does not apply to this group."""


class ConfigInvalid(GrplabError):
    """An experiment configuration is incomplete or inconsistent."""


class GridTooLarge(GrplabError):
    """A sweep grid exceeds the cell cap."""


def require_nonnegative(**counts: int) -> None:
    """Refuse, with MalformedSpec, the first of the named counts below 0; 0 is allowed."""
    for name, value in counts.items():
        if value < 0:
            raise MalformedSpec(f"{name} must be >= 0, got {value}")
