"""Density operators, faithfulness, the state-dependent sesquilinear form,
and the qubit Bloch-ball construction."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import TOL_LIN, TOL_PSD, _Immutable, as_matrix


class DensityOperator(_Immutable):
    """A state: positive-semidefinite matrix with unit trace.

    The ascending eigenvalue list is computed once at construction and
    cached; it backs the faithfulness check and PSD validation.  Instances
    are immutable and safe to share between threads.
    """

    __slots__ = ("matrix", "eigenvalues", "dim")

    def __init__(self, M, *, tol_lin: float = TOL_LIN, tol_psd: float = TOL_PSD):
        M = linalg.require_hermitian(M, tol_lin, name="state")
        eigs = linalg.hermitian_eigenvalues(M)
        if eigs[0] < -tol_psd:
            raise ValidationError("eigenvalue below 0", invariant="psd",
                                  field="state", violation=float(-eigs[0]),
                                  bound=tol_psd)
        miss = abs(M.trace() - 1.0)
        if miss > tol_lin:
            raise ValidationError("trace is not 1", invariant="unit-trace",
                                  field="state", violation=float(miss), bound=tol_lin)
        self._build(M, eigs)

    def _build(self, M: np.ndarray, eigs: np.ndarray) -> "DensityOperator":
        """Store M and its ascending eigenvalues, checked or not."""
        self._set(matrix=linalg.frozen(M),
                  eigenvalues=tuple(eigs.tolist()), dim=M.shape[0])
        return self

    def __repr__(self):
        return f"DensityOperator(dim={self.dim}, eigenvalues={self.eigenvalues})"


def maximally_mixed(d: int) -> DensityOperator:
    """The state I/d, the simplest faithful state in dimension d."""
    if d < 1:
        raise ValidationError("dimension must be >= 1", invariant="positive-dim")
    return DensityOperator(np.eye(d, dtype=complex) / d)


def _bloch_matrices(vectors, tol_lin: float):
    """(r, M): n Bloch vectors as an ``(n, 3)`` array r and their states
    (I + r . sigma)/2 as an ``(n, 2, 2)`` stack M.  Raises unless every vector
    is three finite reals, then for the first with norm above 1 + tol_lin."""
    try:
        r = np.asarray(vectors, dtype=float)
    except (TypeError, ValueError):  # ragged or non-numeric
        r = np.empty(1)
    r = r.reshape(0, 3) if r.shape == (0,) else r
    if r.ndim != 2 or r.shape[1] != 3 or not np.isfinite(r).all():
        raise ValidationError("a Bloch vector is not three finite reals",
                              invariant="bloch-shape", field="r")
    # Row-by-row dot products, rounded as np.linalg.norm of one vector is.
    norm = np.sqrt((r[:, None] @ r[:, :, None]).ravel())
    over = np.flatnonzero(norm > 1.0 + tol_lin)
    if over.size:
        raise ValidationError("a Bloch vector has norm above 1",
                              invariant="bloch-ball", field="r",
                              violation=float(norm[over[0]]) - 1.0, bound=tol_lin)
    r1, r2, r3 = r.T
    # The operations of the complex literals (1 +- r3) and r1 -+ 1j r2, so
    # every entry, signed zeros included, is the one Python arithmetic gives.
    z = 1j * r2
    M = np.empty((len(r), 2, 2), dtype=complex)
    M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1] = (1.0 + r3, r1 - z,
                                                      r1 + z, 1.0 - r3)
    M *= 0.5
    return r, M


def bloch_state(r: Sequence[float], *, tol_lin: float = TOL_LIN) -> DensityOperator:
    """Qubit state (I + r . sigma)/2 for a Bloch vector r = (r1, r2, r3).

    Eigenvalues are (1 +- |r|)/2; |r| = 1 gives exactly the pure states.
    Only r is checked: |r| <= 1 + tol_lin bounds them below by -tol_lin/2.
    """
    M = _bloch_matrices([r], tol_lin)[1][0]
    return DensityOperator.__new__(DensityOperator)._build(
        M, linalg.hermitian_eigenvalues(M))


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
        raise ValidationError(
            f"operands of dim {C.shape[0]}, {D.shape[0]} do not match state dim {rho.dim}",
            invariant="matching-dims")
    return complex(np.trace(rho.matrix @ C.conj().T @ D))

