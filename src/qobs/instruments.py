"""Finite quantum instruments in operator-sum form.

An instrument assigns to each outcome a completely positive trace-
nonincreasing map; the maps must sum to a channel.  Representing every map
by its Kraus operators makes complete positivity true by construction, and
covers the three named families: trivial (scaled identity), Holevo
(measure-and-reprepare), and Lueders (square-root pinching).  Each map
stores its Kraus operators stacked in one read-only ``(k, d, d)`` array, so
applying a map is one batched product and a sum.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence

import numpy as np

from . import linalg
from .errors import (
    CompletenessViolationError,
    DimensionMismatchError,
    DuplicateOutcomeError,
    MissingLabelError,
    NotAProbabilityError,
    UnknownOutcomeError,
    ValidationError,
)
from .linalg import TOL_LIN, TOL_PSD, _Immutable, as_matrix, max_abs, psd_sqrt
from .observables import (Observable, _pair_keyed, _stored, coarse_grain,
                          fibers, is_real)
from .states import DensityOperator
from .statistics import average, variance as obs_variance


class OperationMap(_Immutable):
    """A trace-nonincreasing completely positive map sum_j K_j . K_j*.  Its
    dual image of the identity, sum_j K_j* K_j, is formed once and kept."""

    __slots__ = ("kraus", "dim", "_gram")

    def __init__(self, kraus, *, tol_psd: float = TOL_PSD):
        if len(kraus) == 0:
            raise ValidationError("operation needs at least one Kraus operator",
                                  invariant="nonempty-kraus")
        K = linalg.as_stack(kraus, name="kraus")
        gram = (K.conj().swapaxes(-1, -2) @ K).sum(0)
        top = float(np.max(linalg.hermitian_eigenvalues(gram)))
        if top > 1.0 + tol_psd:
            raise ValidationError(
                f"operation increases trace: sum K*K has eigenvalue {top:.6g}",
                invariant="trace-nonincreasing", violation=top - 1.0)
        K.setflags(write=False)
        gram.setflags(write=False)
        self._set(kraus=K, dim=K.shape[1], _gram=gram)

    def _against(self, M: np.ndarray) -> np.ndarray:
        """The Kraus stack shaped to broadcast against M, which is one
        matrix or a stack of them."""
        lead = (len(self.kraus),) + (1,) * (np.ndim(M) - 2)
        return self.kraus.reshape(lead + (self.dim, self.dim))

    def __call__(self, M: np.ndarray) -> np.ndarray:
        """Schroedinger picture: sum_j K_j M K_j*."""
        K = self._against(M)
        return (K @ M @ K.conj().swapaxes(-1, -2)).sum(0)

    def dual(self, C: np.ndarray) -> np.ndarray:
        """Heisenberg picture: sum_j K_j* C K_j, the adjoint under the trace
        pairing tr(rho dual(C)) = tr(map(rho) C).  C may be a stack."""
        K = self._against(C)
        return (K.conj().swapaxes(-1, -2) @ C @ K).sum(0)


class Instrument(_Immutable):
    """Parallel lists of outcomes and operation maps summing to a channel.

    The maps' dual images of the identity, stacked once for the channel
    check, are kept for the measured observable.  That observable is stored
    in the private ``_derived`` dict the first time it is asked for, as for
    the values an ``Observable`` derives.  The object stays immutable in
    value; two threads that fill the entry compute identical observables.
    """

    __slots__ = ("outcomes", "maps", "dim", "_duals", "_derived")

    def __init__(self, outcomes: Sequence[Hashable], maps: Sequence[OperationMap],
                 *, tol_lin: float = TOL_LIN):
        if len(outcomes) != len(maps) or len(outcomes) == 0:
            raise ValidationError(
                "outcomes and maps must be parallel nonempty lists",
                invariant="parallel-lists")
        outs = tuple(outcomes)
        if len(set(outs)) != len(outs):
            raise DuplicateOutcomeError("instrument outcomes are not distinct",
                                        invariant="distinct-outcomes")
        dim = maps[0].dim
        if any(m.dim != dim for m in maps):
            raise DimensionMismatchError("operation maps have mixed dims",
                                         invariant="matching-dims")
        duals = np.array([m._gram for m in maps])
        residual = max_abs(duals.sum(0) - np.eye(dim))
        if residual > tol_lin:
            raise CompletenessViolationError(
                f"total map is not a channel (residual {residual:.3e})",
                invariant="channel", residual=residual)
        self._set(outcomes=outs, maps=tuple(maps), dim=dim, _duals=duals,
                  _derived={})

    def __len__(self):
        return len(self.outcomes)

    def _index(self, x) -> int:
        try:
            return self.outcomes.index(x)
        except ValueError:
            raise UnknownOutcomeError(
                f"outcome {x!r} not in {self.outcomes}",
                invariant="known-outcome") from None

    def apply(self, x, rho: DensityOperator) -> np.ndarray:
        """Subnormalized post-measurement matrix for outcome x; its trace is
        the outcome probability, so the result is not itself a state."""
        return self.maps[self._index(x)](rho.matrix)

    def dual_apply(self, x, C) -> np.ndarray:
        """Heisenberg-picture action on an operator for outcome x."""
        C = as_matrix(C, name="C")
        if C.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"operator dim {C.shape[0]} does not match instrument dim {self.dim}",
                invariant="matching-dims")
        return self.maps[self._index(x)].dual(C)

    def measured_observable(self) -> Observable:
        """The unique observable whose probabilities the instrument
        reproduces: effects are the dual images of the identity.  Repeated
        calls return the same object."""
        E = self._duals
        return _stored(self, "measured", lambda: Observable(
            self.outcomes, (E + E.conj().swapaxes(-1, -2)) / 2.0))

    def channel(self, rho: DensityOperator) -> DensityOperator:
        """Total state change when the outcome is ignored."""
        out = sum(m(rho.matrix) for m in self.maps)
        return DensityOperator((out + out.conj().T) / 2.0)

    def coarse_grain(self, f: Mapping | Callable) -> "Instrument":
        """Merge outcomes through a real-valued function by concatenating the
        Kraus stacks over each fiber."""
        zs, index = fibers(f, self.outcomes)
        return Instrument(zs, [OperationMap(np.concatenate(
            [m.kraus for m, k in zip(self.maps, index) if k == z]))
            for z in range(len(zs))])

    def mean(self, rho: DensityOperator) -> float:
        """Outcome-weighted total trace, available for real outcomes only;
        equals the average of the measured observable."""
        if not all(is_real(x) for x in self.outcomes):
            raise ValidationError("mean requires real-valued outcomes",
                                  invariant="real-outcomes")
        return float(sum(x * np.trace(self.apply(x, rho)).real
                         for x in self.outcomes))


def trivial_instrument(omega: Mapping, dim: int, *,
                       tol_lin: float = TOL_LIN) -> Instrument:
    """Instrument that leaves the state alone and draws the outcome from the
    fixed distribution omega; measures the trivial observable omega(x) I."""
    outcomes = list(omega)
    probs = [float(omega[x]) for x in outcomes]
    if any(p < -tol_lin for p in probs):
        raise NotAProbabilityError("weights must be nonnegative",
                                   invariant="nonnegative-weights",
                                   violation=-min(probs))
    total = sum(probs)
    if abs(total - 1.0) > tol_lin:
        raise NotAProbabilityError(
            f"weights sum to {total:.6g}, expected 1",
            invariant="unit-total", violation=abs(total - 1.0))
    eye = np.eye(dim, dtype=complex)
    maps = [OperationMap([np.sqrt(max(p, 0.0)) * eye]) for p in probs]
    return Instrument(outcomes, maps, tol_lin=tol_lin)


def holevo_instrument(A: Observable,
                      alphas: Sequence[DensityOperator] | Mapping,
                      *, tol_lin: float = TOL_LIN) -> Instrument:
    """Measure-and-reprepare instrument: outcome x occurs with probability
    tr(rho A_x) and the state is replaced by the fixed state alpha_x.

    ``alphas`` is either a list parallel to the outcomes or a mapping keyed
    by them; it must cover every outcome.  Kraus factorization: with
    alpha_x = sum_j lam_j |v_j><v_j| and {e_k} the standard basis,
    K_(j,k) = sqrt(lam_j) |v_j><e_k| A_x^{1/2} reproduces
    tr(rho A_x) alpha_x exactly.
    """
    if isinstance(alphas, Mapping):
        missing = [x for x in A.keys if x not in alphas]
        if missing:
            raise MissingLabelError(
                f"no reprepared state for outcome {missing[0]!r}",
                invariant="total-function", field=str(missing[0]))
        alphas = [alphas[x] for x in A.keys]
    if len(alphas) != len(A):
        raise ValidationError("need one reprepared state per outcome",
                              invariant="parallel-lists")
    d = A.dim
    maps = []
    for E, alpha in zip(A.effects, alphas):
        if alpha.dim != d:
            raise DimensionMismatchError(
                "reprepared state dim does not match observable dim",
                invariant="matching-dims")
        root = psd_sqrt(E)
        lam, vecs = np.linalg.eigh(alpha.matrix)
        keep = lam > 0.0  # not empty: a state has trace 1
        # kraus[j, k] = sqrt(lam_j) * outer(v_j, root[k, :])
        kraus = np.sqrt(lam[keep])[:, None, None, None] * (
            vecs.T[keep][:, None, :, None] * root[None, :, None, :])
        maps.append(OperationMap(kraus.reshape(-1, d, d)))
    return Instrument(A.keys, maps, tol_lin=tol_lin)


def lueders_instrument(A: Observable, *, tol_lin: float = TOL_LIN) -> Instrument:
    """Square-root instrument rho -> A_x^{1/2} rho A_x^{1/2}; measures A."""
    maps = [OperationMap(psd_sqrt(E)[None]) for E in A.effects]
    return Instrument(A.keys, maps, tol_lin=tol_lin)


def _require_same_dim(inst: Instrument, B: Observable) -> None:
    if inst.dim != B.dim:
        raise DimensionMismatchError(
            f"instrument dim {inst.dim} does not match observable dim {B.dim}",
            invariant="matching-dims")


def sequential_product(inst: Instrument, B: Observable,
                       *, tol_lin: float = TOL_LIN) -> Observable:
    """Observable of the two-step experiment: run the instrument, then
    measure B.  Effects are the dual images of B's effects; keys are
    (x, y) pairs.  The y-marginal reproduces the measured observable."""
    _require_same_dim(inst, B)
    return _pair_keyed(inst.outcomes, B.keys,
                       np.array([m.dual(B.effects) for m in inst.maps]),
                       tol_lin)


def conditioned_observable(inst: Instrument, B: Observable,
                           *, tol_lin: float = TOL_LIN) -> Observable:
    """Observable of: run the instrument ignoring its outcome, then measure
    B.  Effects are sum_x dual_x(B_y) on B's outcome space."""
    _require_same_dim(inst, B)
    total = sum(m.dual(B.effects) for m in inst.maps)
    return Observable(B.keys, (total + total.conj().swapaxes(-1, -2)) / 2.0,
                      tol_lin=tol_lin)


def product_statistics(inst: Instrument, B: Observable, f: Mapping | Callable,
                       rho: DensityOperator,
                       *, tol_lin: float = TOL_LIN):
    """Statistics of the real-valued function f of a sequential measurement.

    Returns (mean, variance, observable) where the observable is the coarse
    graining of the two-step product observable by f.
    """
    product = sequential_product(inst, B, tol_lin=tol_lin)
    obs = coarse_grain(product, f, tol_lin=tol_lin)
    mean = average(rho, obs)
    var = obs_variance(rho, obs)
    return mean, var, obs
