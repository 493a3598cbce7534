"""Exception types shared across the toolkit.

Every toolkit error carries one diagnostic record, declared on ``QobsError``
alone: the name of the violated invariant and, where meaningful, the
measured violation magnitude, the offending input field and the input file,
so callers (the CLI in particular) can emit machine-readable diagnostics.
"""

from __future__ import annotations


class QobsError(Exception):
    """Base class for all toolkit errors, and the diagnostic record: the
    ``invariant`` violated, by how much (``violation``), at which input
    ``field``, and in which input ``file``, set by the CLI as it reads one."""

    file: str | None = None

    def __init__(self, message: str, *, invariant: str | None = None,
                 violation: float | None = None, field: str | None = None):
        super().__init__(message)
        self.invariant = invariant
        self.violation = violation
        self.field = field


class ValidationError(QobsError, ValueError):
    """A domain object violates one of its invariants."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible shapes."""


class NotHermitianError(ValidationError):
    """Matrix fails the Hermiticity check."""


class NotPSDError(ValidationError):
    """Matrix has an eigenvalue below the allowed negative slack."""


class ConvergenceFailureError(QobsError):
    """The eigensolver did not converge."""


class TraceNotOneError(ValidationError):
    """Candidate density operator does not have unit trace."""


class OutsideBlochBallError(ValidationError):
    """Bloch vector has norm larger than one."""


class NotAnEffectError(ValidationError):
    """Matrix is not Hermitian with spectrum inside [0, 1]."""

    def __init__(self, message: str, *, index: int | None = None, **kw):
        super().__init__(message, **kw)
        self.index = index


class CompletenessViolationError(ValidationError):
    """Effects (or Kraus maps) do not sum to the identity."""

    residual = property(lambda self: self.violation,
                        doc="The completeness residual, read-only: ``violation``.")


class DuplicateOutcomeError(ValidationError):
    """Outcome values (or labels) are not pairwise distinct."""


class NotCommutingError(ValidationError):
    """A pair of effects fails the commutation precondition."""

    def __init__(self, message: str, *, x=None, y=None, **kw):
        super().__init__(message, **kw)
        self.x = x
        self.y = y

    norm = property(lambda self: self.violation,
                    doc="The commutator's norm, read-only: ``violation``.")


class MissingLabelError(ValidationError):
    """A coarse-graining function is not total on the outcome space."""


class UnknownOutcomeError(ValidationError):
    """Requested outcome is not in the instrument's outcome space."""


class NotAProbabilityError(ValidationError):
    """Weights are negative or do not sum to one."""


class InternalConsistencyError(QobsError):
    """A mathematical identity failed beyond tolerance; indicates a bug."""


class ParseError(QobsError, ValueError):
    """JSON input does not match the expected schema."""
