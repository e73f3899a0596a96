"""Exception hierarchy shared by all grplab modules.

Each class carries the CLI's exit code for it in ``exit_code``: 1 for usage
or malformed input (the default), 2 for an invariant violation, 3 for an
exceeded budget.  A subclass inherits its parent's code.
"""

from __future__ import annotations


class GrplabError(Exception):
    """Base class for all errors raised by grplab."""

    exit_code = 1


class MalformedSpec(GrplabError):
    """A group or set specification could not be parsed or is inconsistent."""


class OrderCapExceeded(GrplabError):
    """Constructing the group would exceed the configured order cap."""

    exit_code = 3


class NotPrimePower(GrplabError):
    """PSL2 requires a prime-power field size."""


class NotAGroup(GrplabError):
    """A multiplication table fails the group axioms."""

    exit_code = 2


class GroupMismatch(GrplabError):
    """Operands live over different groups."""


class EmptySet(GrplabError):
    """The operation requires a nonempty set."""


class ExactCapExceeded(GrplabError):
    """Exact subset enumeration is only offered below a hard size cap."""

    exit_code = 3


class KindUnsupportedForGroup(GrplabError):
    """The requested set constructor does not apply to this group."""


class BudgetExceeded(GrplabError):
    """An iteration or memory budget would be exceeded."""

    exit_code = 3


class DomainMismatch(GrplabError):
    """Fiber functions must share one domain set."""


class PointwiseIdentityFailed(GrplabError):
    """The pointwise product identity holds on too small a fraction of the domain."""

    exit_code = 2


class ValidationFailed(GrplabError):
    """A numerical result failed its exact integer validation."""

    exit_code = 2


class EngineUnsupported(GrplabError):
    """The requested counting engine does not apply to this group."""


class ConfigInvalid(GrplabError):
    """An experiment configuration is incomplete or inconsistent."""


class GridTooLarge(GrplabError):
    """A sweep grid exceeds the cell cap."""

    exit_code = 3


def require_nonnegative(**counts: int) -> None:
    """Refuse, with MalformedSpec, the first of the named counts below 0; 0 is allowed."""
    for name, value in counts.items():
        if value < 0:
            raise MalformedSpec(f"{name} must be >= 0, got {value}")
