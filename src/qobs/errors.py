"""Exception types shared across the toolkit.

Every validation failure carries the name of the violated invariant and,
where meaningful, the measured violation magnitude, so callers (the CLI in
particular) can emit machine-readable diagnostics.
"""

from __future__ import annotations


class QobsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QobsError, ValueError):
    """A domain object violates one of its invariants."""

    def __init__(self, message: str, *, invariant: str | None = None,
                 violation: float | None = None, field: str | None = None):
        super().__init__(message)
        self.invariant = invariant
        self.violation = violation
        self.field = field


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

    def __init__(self, message: str, *, residual: float | None = None, **kw):
        super().__init__(message, violation=residual, **kw)
        self.residual = residual


class DuplicateOutcomeError(ValidationError):
    """Outcome values (or labels) are not pairwise distinct."""


class NotCommutingError(ValidationError):
    """A pair of effects fails the commutation precondition."""

    def __init__(self, message: str, *, x=None, y=None, norm: float | None = None):
        super().__init__(message, invariant="commuting-effects", violation=norm)
        self.x = x
        self.y = y
        self.norm = norm


class MissingLabelError(ValidationError):
    """A coarse-graining function is not total on the outcome space."""


class UnknownOutcomeError(ValidationError):
    """Requested outcome is not in the instrument's outcome space."""


class NotAProbabilityError(ValidationError):
    """Weights are negative or do not sum to one."""


class InternalConsistencyError(QobsError):
    """A mathematical identity failed beyond tolerance; indicates a bug."""

    def __init__(self, message: str, *, invariant: str | None = None,
                 violation: float | None = None):
        super().__init__(message)
        self.invariant = invariant
        self.violation = violation


class ParseError(QobsError, ValueError):
    """JSON input does not match the expected schema."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field
