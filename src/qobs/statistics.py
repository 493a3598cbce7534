"""State-dependent statistics of observables and the uncertainty principle.

The central identity: for Hermitian A, B and a state rho,

    (1/4) |tr(rho [A,B])|^2 + (Re Cor)^2 = |Cor|^2      (exact equation)
    |Cor|^2 <= Var(A) Var(B)                            (Schwarz inequality)

with Cor = tr(rho A B) - <A><B>.  Every function below accepts either a
Hermitian matrix or a real-valued ``Observable``; observables are replaced
by their stochastic operator, so observable statistics and operator
statistics share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError
from .linalg import TOL_LIN, TOL_REL, TOL_STAT, max_abs, require_hermitian
from .observables import Observable, stochastic_operator
from .states import DensityOperator


def _as_operator(x, rho: DensityOperator, name: str) -> np.ndarray:
    if isinstance(x, Observable):
        op = stochastic_operator(x)
    else:
        op = require_hermitian(x, name=name)
    if op.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"{name} has dim {op.shape[0]}, state has dim {rho.dim}",
            invariant="matching-dims", field=name)
    return op


def average(rho: DensityOperator, A) -> float:
    """Expectation tr(rho A~): the sum of outcomes weighted by their
    probabilities."""
    op = _as_operator(A, rho, "A")
    return float(np.trace(rho.matrix @ op).real)


def deviation(rho: DensityOperator, A) -> np.ndarray:
    """A~ - <A> I; traceless against rho."""
    op = _as_operator(A, rho, "A")
    return op - average(rho, A) * np.eye(rho.dim)


def correlation(rho: DensityOperator, A, B) -> complex:
    """Cor(A, B) = tr(rho A~ B~) - <A><B>.

    Generally complex; conjugate-symmetric under swapping A and B, and equal
    to tr(rho D(A) D(B)) for the deviations D.
    """
    opA = _as_operator(A, rho, "A")
    opB = _as_operator(B, rho, "B")
    mean_a = float(np.trace(rho.matrix @ opA).real)
    mean_b = float(np.trace(rho.matrix @ opB).real)
    return complex(np.trace(rho.matrix @ opA @ opB)) - mean_a * mean_b


def covariance(rho: DensityOperator, A, B) -> float:
    """Real part of the correlation."""
    return float(correlation(rho, A, B).real)


def variance(rho: DensityOperator, A) -> float:
    """<A^2> - <A>^2, the diagonal covariance."""
    return covariance(rho, A, A)


def commutator_expectation(rho: DensityOperator, A, B) -> complex:
    """tr(rho [A~, B~]); purely imaginary, equal to 2i Im tr(rho A~ B~)."""
    opA = _as_operator(A, rho, "A")
    opB = _as_operator(B, rho, "B")
    return complex(np.trace(rho.matrix @ (opA @ opB - opB @ opA)))


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
    cor = correlation(rho, A, B)
    comm = commutator_expectation(rho, A, B)
    commutator_term = 0.25 * abs(comm) ** 2
    covariance_sq = cor.real ** 2
    correlation_sq = abs(cor) ** 2
    variance_product = variance(rho, A) * variance(rho, B)
    equation_residual = commutator_term + covariance_sq - correlation_sq
    inequality_slack = variance_product - correlation_sq
    scale = max(1.0, correlation_sq)
    if abs(equation_residual) > tol * scale:
        raise InternalConsistencyError(
            f"uncertainty equation residual {equation_residual:.3e} exceeds "
            f"{tol:.1e} x {scale:.3g}")
    if inequality_slack < -tol * scale:
        raise InternalConsistencyError(
            f"uncertainty inequality violated by {-inequality_slack:.3e}")
    return UncertaintyReport(commutator_term, covariance_sq, correlation_sq,
                             variance_product, equation_residual,
                             inequality_slack, tol)


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
    A = require_hermitian(A, name="A")
    B = require_hermitian(B, name="B")
    if A.shape != B.shape:
        raise DimensionMismatchError("A and B must have equal dims",
                                     invariant="matching-dims")
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
    related = residual <= tol_rel * max(1.0, max_abs(B))
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
    from .states import is_faithful

    opA = _as_operator(A, rho, "A")
    opB = _as_operator(B, rho, "B")
    rep = uncertainty_report(rho, opA, opB, tol)
    scale = max(1.0, rep.correlation_sq)
    eq_ineq = abs(rep.variance_product - rep.correlation_sq) <= tol * scale
    three_way = eq_ineq and abs(rep.covariance_sq - rep.correlation_sq) <= tol * scale
    return EqualityDiagnosis(
        faithful=is_faithful(rho),
        min_eigenvalue=rho.eigenvalues[0],
        relation=linear_relation(opA, opB),
        inequality_is_equality=eq_ineq,
        three_way_equality=three_way,
        report=rep,
    )
