"""Exception types shared across the toolkit: one class per kind of failure.

``ValidationError`` is an input that breaks a rule, ``ParseError`` a
document or argv that does not match the schema, ``InternalConsistencyError``
an identity that failed (a bug), and ``ConvergenceFailureError`` an
eigensolver that did not converge.  Each carries the one diagnostic record,
declared on ``QobsError`` alone: which rule broke (``invariant``), at which
input ``field``, by how much (``violation``) against which ``bound``, and in
which input ``file``, so callers (the CLI in particular) can emit
machine-readable diagnostics.  The message is rendered from the record when
it is read, so it always states the record's current field.
"""

from __future__ import annotations


class QobsError(Exception):
    """Base class for all toolkit errors, and the diagnostic record: the
    ``invariant`` violated, at which input ``field``, the measured
    ``violation`` and the ``bound`` it exceeded, and the input ``file``, set
    by the CLI as it reads one.

    Code that raises one gives a short ``detail`` that repeats none of the
    record.  ``str`` renders ``"<field>: <detail>"`` (the detail alone
    without a field), then the violation and the bound that are set, each
    as ``.3e``.
    """

    file: str | None = None

    def __init__(self, detail: str, *, invariant: str | None = None,
                 field: str | None = None, violation: float | None = None,
                 bound: float | None = None):
        super().__init__(detail)
        self.invariant = invariant
        self.field = field
        self.violation = violation
        self.bound = bound

    def __str__(self) -> str:
        text = self.args[0] if self.field is None else f"{self.field}: {self.args[0]}"
        numbers = ", ".join(f"{name} {value:.3e}" for name, value in (
            ("violation", self.violation), ("bound", self.bound)) if value is not None)
        return f"{text} ({numbers})" if numbers else text


class ValidationError(QobsError, ValueError):
    """An input violates one of its rules, named by ``invariant``."""


class ConvergenceFailureError(QobsError):
    """The eigensolver did not converge."""


class InternalConsistencyError(QobsError):
    """A mathematical identity failed beyond tolerance; indicates a bug."""


class ParseError(QobsError, ValueError):
    """JSON input does not match the expected schema."""
