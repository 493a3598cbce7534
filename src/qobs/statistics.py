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
from .linalg import (TOL_LIN, TOL_REL, TOL_STAT, max_abs, require_hermitian,
                     require_margin, require_same_dim, require_tolerance,
                     scale, scale_of)
from .observables import Observable, stochastic_operator
from .states import DensityOperator, is_faithful


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
    ``max(1, correlation_sq)``.
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
    _, means, M = _moments(rho.matrix, A, B)
    return UncertaintyReport(*(t.item() for t in _terms(means, M, tol)), tol)


def _is_equality(rep: UncertaintyReport) -> bool:
    """Var(A) Var(B) = |Cor|^2 within tolerance; the slack is already >= -tol."""
    return bool(abs(rep.inequality_slack) <= rep.tol * scale(rep.correlation_sq))


def _terms(means: np.ndarray, M: np.ndarray, tol: float):
    """The six ``UncertaintyReport`` terms in field order, as arrays over the
    states along the leading axes of the kernel's means and M, in row-major
    order.  Raises for the first state whose residuals exceed ``tol`` or
    are NaN."""
    require_tolerance(tol, "tol")
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
    require_margin(np.array((np.abs(equation_residual), -inequality_slack)).T,
                   (tol * scale(correlation_sq))[:, None],
                   ("uncertainty equation residual exceeds its bound",
                    "uncertainty inequality violated"),
                   invariant=("uncertainty-equation", "uncertainty-inequality"),
                   error=InternalConsistencyError)
    return (commutator_term, covariance_sq, correlation_sq, variance_product,
            equation_residual, inequality_slack)


@dataclass(frozen=True)
class LinearRelation:
    """Best affine fit B ~ alpha A + beta I in the Hilbert-Schmidt sense.

    ``related`` is True when the residual is within tolerance; alpha, beta
    and the residual are reported either way.
    """

    alpha: float
    beta: float
    residual: float
    related: bool


def linear_relation(A, B, *, tol_lin: float = TOL_LIN,
                    tol_rel: float = TOL_REL) -> LinearRelation:
    """Fit B = alpha A + beta I for Hermitian A, B.

    alpha is the Hilbert-Schmidt projection of the traceless part of B onto
    that of A (the least-squares optimum), so exact relations are recovered
    exactly.  When A is a multiple of the identity, a relation exists only
    if B is too.
    """
    require_tolerance(tol_lin, "tol_lin")
    require_tolerance(tol_rel, "tol_rel")
    A = require_hermitian(A, name="A")
    B = require_hermitian(B, name="B")
    require_same_dim(B.shape[0], A.shape[0], "B")
    return _fit(A, B, tol_lin, tol_rel)


def _fit(A: np.ndarray, B: np.ndarray, tol_lin: float,
         tol_rel: float) -> LinearRelation:
    d = A.shape[0]
    eye = np.eye(d)
    A0 = A - (np.trace(A) / d) * eye
    B0 = B - (np.trace(B) / d) * eye
    if max_abs(A0) <= tol_lin:
        beta = float(np.trace(B).real / d)
        residual = max_abs(B0)
        return LinearRelation(0.0, beta, residual, residual <= tol_lin)
    alpha = float((np.trace(A0 @ B0) / np.trace(A0 @ A0)).real)
    beta = float((np.trace(B).real - alpha * np.trace(A).real) / d)
    residual = max_abs(B - alpha * A - beta * eye)
    related = bool(residual <= tol_rel * scale_of(B))
    return LinearRelation(alpha, beta, residual, related)


@dataclass(frozen=True)
class EqualityDiagnosis:
    """Raw facts about when the uncertainty inequality is tight.

    For a faithful state, tightness is equivalent to an affine relation
    between the operators; for non-faithful states the two flags can
    legitimately disagree, so no equivalence is claimed here.
    """

    faithful: bool
    min_eigenvalue: float
    relation: LinearRelation
    inequality_is_equality: bool
    three_way_equality: bool
    report: UncertaintyReport


def equality_diagnosis(rho: DensityOperator, A, B,
                       tol: float = TOL_STAT) -> EqualityDiagnosis:
    """Report faithfulness, the affine fit, and whether the chain
    covariance^2 = |Cor|^2 = Var(A) Var(B) holds within tolerance."""
    X, means, M = _moments(rho.matrix, A, B)
    rep = UncertaintyReport(*(t.item() for t in _terms(means, M, tol)), tol)
    eq_ineq = _is_equality(rep)
    three_way = eq_ineq and bool(abs(rep.covariance_sq - rep.correlation_sq)
                                 <= tol * scale(rep.correlation_sq))
    return EqualityDiagnosis(
        faithful=is_faithful(rho),
        min_eigenvalue=rho.eigenvalues[0],
        relation=_fit(X[0], X[1], TOL_LIN, TOL_REL),
        inequality_is_equality=eq_ineq,
        three_way_equality=three_way,
        report=rep,
    )
