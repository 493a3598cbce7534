"""State-dependent statistics of observables and the uncertainty principle.

The central identity: for Hermitian A, B and a state rho,

    (1/4) |tr(rho [A,B])|^2 + (Re Cor)^2 = |Cor|^2      (exact equation)
    |Cor|^2 <= Var(A) Var(B)                            (Schwarz inequality)

with Cor = tr(rho A B) - <A><B>.  Every function below accepts either a
Hermitian matrix or a real-valued ``Observable``, replaced by the stochastic
operator it stores, and reads one moment kernel, so observable statistics
and operator statistics share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .linalg import (TOL_STAT, require_hermitian, require_margin,
                     require_same_dim, require_tolerance)
from .observables import Observable, stochastic_operator
from .states import DensityOperator, is_faithful

_TINY = np.finfo(float).tiny  # the least normal double


def _as_operator(x, dim: int, name: str) -> np.ndarray:
    op = (stochastic_operator(x) if isinstance(x, Observable)
          else require_hermitian(x, name=name))
    require_same_dim(op.shape[0], dim, name)
    return op


def _moments(rho: np.ndarray, *operands):
    """Resolve each operand once to X_i; return X, the means tr(rho X_i) and
    M[..., i, j] = tr(rho X_i X_j), all from one product rho X.  ``rho`` is
    one state matrix or a stack of them, whose leading axes lead the means
    and M.  M[..., 0, 1] and M[..., 1, 0] are separate sums: the commutator
    term is not Im Cor restated."""
    X = np.array([_as_operator(x, rho.shape[-1], n)
                  for x, n in zip(operands, "AB")])
    rho_x = rho[..., None, :, :] @ X
    means = rho_x.trace(axis1=-2, axis2=-1).real
    return X, means, np.einsum("...iab,jba->...ij", rho_x, X)


def average(rho: DensityOperator, A) -> float:
    """Expectation tr(rho A~): the sum of outcomes weighted by their
    probabilities."""
    _, means, _ = _moments(rho.matrix, A)
    return float(means[0])


def deviation(rho: DensityOperator, A) -> np.ndarray:
    """A~ - <A> I; traceless against rho."""
    X, means, _ = _moments(rho.matrix, A)
    return X[0] - means[0] * np.eye(rho.dim)


def correlation(rho: DensityOperator, A, B) -> complex:
    """Cor(A, B) = tr(rho A~ B~) - <A><B>.

    Generally complex; conjugate-symmetric under swapping A and B, and equal
    to tr(rho D(A) D(B)) for the deviations D.
    """
    _, means, M = _moments(rho.matrix, A, B)
    return complex(M[0, 1] - means[0] * means[1])


def covariance(rho: DensityOperator, A, B) -> float:
    """Real part of the correlation."""
    return correlation(rho, A, B).real


def variance(rho: DensityOperator, A) -> float:
    """<A^2> - <A>^2, the diagonal covariance."""
    _, means, M = _moments(rho.matrix, A)
    return float(M[0, 0].real - means[0] ** 2)


def commutator_expectation(rho: DensityOperator, A, B) -> complex:
    """tr(rho [A~, B~]); purely imaginary, equal to 2i Im tr(rho A~ B~)."""
    _, _, M = _moments(rho.matrix, A, B)
    return complex(M[0, 1] - M[1, 0])


@dataclass(frozen=True)
class UncertaintyReport:
    """The four terms of the uncertainty principle plus diagnostics.

    ``equation_residual`` must vanish (the equation is an identity) and
    ``inequality_slack`` must be nonnegative, both up to ``tol`` relative to
    (||A~||_F ||B~||_F)^2, the scale at which the raw moments round.
    """

    commutator_term: float   # (1/4) |tr(rho [A~, B~])|^2
    covariance_sq: float     # (Re Cor)^2
    correlation_sq: float    # |Cor|^2
    variance_product: float  # Var(A) Var(B)
    equation_residual: float
    inequality_slack: float
    tol: float = TOL_STAT


def uncertainty_report(rho: DensityOperator, A, B,
                       tol: float = TOL_STAT) -> UncertaintyReport:
    """Evaluate all four uncertainty terms and their residuals.

    A residual beyond tolerance means a broken internal identity, not bad
    input, so it raises ``InternalConsistencyError`` rather than returning.
    """
    return UncertaintyReport(
        *(t.item() for t in _terms(*_moments(rho.matrix, A, B), tol)), tol)


def _terms(X: np.ndarray, means: np.ndarray, M: np.ndarray, tol: float):
    """The six ``UncertaintyReport`` terms in field order, as arrays over the
    states along the leading axes of the kernel's means and M, in row-major
    order.  Raises for the first state whose residuals exceed ``tol`` times
    (||X_A||_F ||X_B||_F)^2, the scale at which the moments round, or are NaN.
    The scale is at least the least normal double: below it rounding is
    absolute, not relative."""
    require_tolerance(tol, "tol")
    parts = X.reshape(len(X), -1).view(float)  # real and imaginary parts
    a, b = np.einsum("ij,ij->i", parts, parts).tolist()  # ||X_i||_F^2, or inf
    bound = tol * max(a * b, _TINY)
    means, M = means.reshape(-1, 2), M.reshape(-1, 2, 2)
    cor = M[:, 0, 1] - means[:, 0] * means[:, 1]
    comm = M[:, 0, 1] - M[:, 1, 0]
    # np.hypot rounds as abs(complex) does and np.float_power(x, 2) as
    # float ** 2 does; np.abs and ndarray ** 2 differ in the last bit.
    commutator_term = 0.25 * np.float_power(np.hypot(comm.real, comm.imag), 2)
    covariance_sq = np.float_power(cor.real, 2)
    correlation_sq = np.float_power(np.hypot(cor.real, cor.imag), 2)
    var = M.diagonal(axis1=1, axis2=2).real - means ** 2
    variance_product = var[:, 0] * var[:, 1]
    equation_residual = commutator_term + covariance_sq - correlation_sq
    inequality_slack = variance_product - correlation_sq
    # Rows (state, identity): the equation, then the inequality.
    require_margin(np.array((np.abs(equation_residual), -inequality_slack)).T, bound,
                   ("uncertainty equation residual exceeds its bound",
                    "uncertainty inequality violated"),
                   invariant=("uncertainty-equation", "uncertainty-inequality"),
                   error=InternalConsistencyError)
    return (commutator_term, covariance_sq, correlation_sq, variance_product,
            equation_residual, inequality_slack)


@dataclass(frozen=True)
class EqualityDiagnosis:
    """When the uncertainty inequality is tight, by Lagrange's identity

        Var(A) Var(B) - |Cor|^2 = Var(A) tr(rho R*R),  R = B0 - c A0,

    with A0, B0 the deviations and c = Cor / Var(A), the rho-weighted best
    fit of B0 by A0.  ``relative_slack`` is g = slack / (Var(A) Var(B)) =
    tr(rho R*R) / Var(B), invariant under scaling A or B and under adding
    multiples of I.  ``inequality_is_equality`` is g <= tol: for a faithful
    state that is B0 = c A0 with c real, the affine relation B = c A + beta I;
    for other states R need vanish only on the support of rho.
    """

    faithful: bool
    min_eigenvalue: float
    slope: complex           # c = Cor / Var(A)
    relative_slack: float    # g
    inequality_is_equality: bool
    three_way_equality: bool
    report: UncertaintyReport


def _equality(rho: np.ndarray, X: np.ndarray, means: np.ndarray,
              tol: float):
    """(c, g, g <= tol, and also (Im Cor)^2 <= tol |Cor|^2) for one state,
    from the Gram matrix G_ij = tr(rho D_i D_j) of the deviations D_i of the
    kernel's X_i, which does not cancel as the moments do when a multiple
    of I is added.  A variance within ``tol`` of ||X_i||_F ||D_i||_F, the
    scale of its rounding, is zero up to rounding; then every term is, and
    the pair is trivially tight, with c = g = 0."""
    D = X - means[:, None, None] * np.eye(rho.shape[0])
    G = np.einsum("iab,jba->ij", rho @ D, D)
    var, cor = G.diagonal().real, G[0, 1]
    rounding = np.linalg.norm(X, axis=(1, 2)) * np.linalg.norm(D, axis=(1, 2))
    if not (var > tol * rounding).all():
        return 0j, 0.0, True, True
    g = float((var[0] * var[1] - abs(cor) ** 2) / (var[0] * var[1]))
    tight = g <= tol
    return (complex(cor / var[0]), g, tight,
            tight and cor.imag ** 2 <= tol * abs(cor) ** 2)


def equality_diagnosis(rho: DensityOperator, A, B,
                       tol: float = TOL_STAT) -> EqualityDiagnosis:
    """Faithfulness, the uncertainty report, and whether the chain
    covariance^2 = |Cor|^2 = Var(A) Var(B) holds within tolerance, from one
    pass of the moment kernel."""
    X, means, M = _moments(rho.matrix, A, B)
    rep = UncertaintyReport(*(t.item() for t in _terms(X, means, M, tol)), tol)
    return EqualityDiagnosis(is_faithful(rho), rho.eigenvalues[0],
                             *_equality(rho.matrix, X, means, tol), rep)
