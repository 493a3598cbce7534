"""Exception types shared across the toolkit: one class per kind of failure.

``ValidationError`` is an input that breaks a rule, ``ParseError`` a
document or argv that does not match the schema, ``InternalConsistencyError``
an identity that failed (a bug), and ``ConvergenceFailureError`` an
eigensolver that did not converge.  Which rule broke is named by the
``invariant`` of the one diagnostic record, declared on ``QobsError`` alone,
with the measured violation magnitude, the offending input field and the
input file where meaningful, so callers (the CLI in particular) can emit
machine-readable diagnostics.
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
    """An input violates one of its rules, named by ``invariant``."""


class ConvergenceFailureError(QobsError):
    """The eigensolver did not converge."""


class InternalConsistencyError(QobsError):
    """A mathematical identity failed beyond tolerance; indicates a bug."""


class ParseError(QobsError, ValueError):
    """JSON input does not match the expected schema."""
