"""Density operators, faithfulness, the state-dependent sesquilinear form,
and the qubit Bloch-ball construction."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import linalg
from .errors import (
    NotPSDError,
    OutsideBlochBallError,
    TraceNotOneError,
    ValidationError,
)
from .linalg import TOL_LIN, TOL_PSD, _Immutable, as_matrix, require_hermitian


class DensityOperator(_Immutable):
    """A state: positive-semidefinite matrix with unit trace.

    The ascending eigenvalue list is computed once at construction and
    cached; it backs the faithfulness check and PSD validation.  Instances
    are immutable and safe to share between threads.
    """

    __slots__ = ("matrix", "eigenvalues", "dim")

    def __init__(self, M, *, tol_lin: float = TOL_LIN, tol_psd: float = TOL_PSD):
        M = require_hermitian(M, tol_lin, name="state")
        eigs = linalg.hermitian_eigenvalues(M)
        if eigs[0] < -tol_psd:
            raise NotPSDError(
                f"state has eigenvalue {eigs[0]:.3e} below -{tol_psd:.1e}",
                invariant="psd", violation=float(-eigs[0]), field="state")
        tr = np.trace(M)
        defect = abs(tr - 1.0)
        if defect > tol_lin:
            raise TraceNotOneError(
                f"state has trace {tr:.6g}, expected 1",
                invariant="unit-trace", violation=float(defect), field="state")
        self._set(matrix=linalg.frozen(M),
                  eigenvalues=tuple(float(x) for x in eigs), dim=M.shape[0])

    def __repr__(self):
        return f"DensityOperator(dim={self.dim}, eigenvalues={self.eigenvalues})"


def maximally_mixed(d: int) -> DensityOperator:
    """The state I/d, the simplest faithful state in dimension d."""
    if d < 1:
        raise ValidationError("dimension must be >= 1", invariant="positive-dim")
    return DensityOperator(np.eye(d, dtype=complex) / d)


def bloch_state(r: Sequence[float], *, tol_lin: float = TOL_LIN) -> DensityOperator:
    """Qubit state (I + r . sigma)/2 for a Bloch vector r = (r1, r2, r3).

    Eigenvalues are (1 +- |r|)/2; |r| = 1 gives exactly the pure states.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,) or not np.all(np.isfinite(r)):
        raise ValidationError("Bloch vector must be three finite reals",
                              invariant="bloch-shape", field="r")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + tol_lin:
        raise OutsideBlochBallError(
            f"Bloch vector has norm {norm:.6g} > 1", invariant="bloch-ball",
            violation=norm - 1.0, field="r")
    r1, r2, r3 = (float(x) for x in r)
    M = 0.5 * np.array([[1.0 + r3, r1 - 1j * r2],
                        [r1 + 1j * r2, 1.0 - r3]], dtype=complex)
    # Validation tolerance is widened by the allowed overshoot of |r|.
    return DensityOperator(M, tol_lin=tol_lin, tol_psd=max(TOL_PSD, tol_lin))


def is_faithful(rho: DensityOperator, tol: float = TOL_PSD) -> bool:
    """True when every eigenvalue exceeds ``tol``.

    Faithful states make the sesquilinear form below a genuine inner
    product; zero eigenvalues are indistinguishable from tiny ones in
    floating point, so the cut is an explicit parameter.
    """
    return rho.eigenvalues[0] > tol


def state_form(rho: DensityOperator, C, D) -> complex:
    """The sesquilinear form tr(rho C* D).

    Conjugate-symmetric in (C, D) and positive semi-definite on the
    diagonal; an inner product exactly when the state is faithful.
    """
    C = as_matrix(C, name="C")
    D = as_matrix(D, name="D")
    if C.shape[0] != rho.dim or D.shape[0] != rho.dim:
        raise linalg.DimensionMismatchError(
            f"operands of dim {C.shape[0]}, {D.shape[0]} do not match state dim {rho.dim}",
            invariant="matching-dims")
    return complex(np.trace(rho.matrix @ C.conj().T @ D))


def normalized_density(M, *, tol_lin: float = TOL_LIN) -> DensityOperator:
    """Normalize a subnormalized post-measurement matrix to a state.

    Raises when the trace is at or below tolerance (outcome of probability
    ~0 has no conditional state).
    """
    M = as_matrix(M)
    t = float(np.trace(M).real)
    if t <= tol_lin:
        raise ValidationError(
            f"cannot normalize matrix with trace {t:.3e}",
            invariant="positive-trace", violation=t)
    return DensityOperator(M / t, tol_lin=tol_lin)
