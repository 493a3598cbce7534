"""Finite quantum instruments: Kraus slices or measure-and-prepare pairs.

An instrument assigns to each outcome a completely positive trace-
nonincreasing map; the maps must sum to a channel.  A map is a Kraus slice
``(K,)``, rho -> sum_j K_j rho K_j*, or Holevo pairs ``(A, alpha)``, rho ->
sum_i tr(rho A_i) alpha_i, O(d^2) per pair where its Kraus form has
d * rank(alpha_i) operators.  Every builder ends in ``Instrument._build``,
which checks only what the builder's own inputs leave open.
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


def _sandwich(part: tuple, M: np.ndarray, dual: bool = False) -> np.ndarray:
    """One outcome's map on M, sum_j K_j M K_j* or sum_i tr(M A_i) alpha_i,
    or with ``dual`` its dual, sum_j K_j* M K_j or sum_i tr(M alpha_i) A_i.
    M may be a stack.  Every action of a map goes through here."""
    if len(part) == 2:
        A, alpha = part[::-1] if dual else part
        return np.einsum("...i,iab->...ab",
                         np.einsum("iab,...ba->...i", A, M), alpha)
    K, = part
    K = K.reshape((len(K),) + (1,) * (np.ndim(M) - 2) + K.shape[1:])
    Kh = K.conj().swapaxes(-1, -2)
    return (Kh @ M @ K if dual else K @ M @ Kh).sum(0)


def _holevo_kraus(A: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Exact Kraus operators of pairs: for rho -> tr(rho E) alpha with
    alpha = sum_j lam_j |v_j><v_j| and {e_k} the standard basis,
    K_(j,k) = sqrt(lam_j) |v_j><e_k| E^{1/2}, so d * rank(alpha) of them."""
    lam, vecs = np.linalg.eigh(alphas)
    blocks = [np.sqrt(w[w > 0.0])[:, None, None, None] * (  # rank(alpha) > 0
        v.T[w > 0.0][:, None, :, None] * psd_sqrt(E)[None, :, None, :])
        for E, w, v in zip(A, lam, vecs)]
    return np.concatenate(blocks).reshape((-1,) + A.shape[1:])


class Instrument(_Immutable):
    """Outcomes, each with its map (a Kraus slice or Holevo pairs), summing
    to a channel.  ``kraus`` is one read-only ``(m, d, d)`` stack grouped by
    outcome in order, and ``owner`` the read-only index of each operator's
    outcome; both are built on first read (factoring each Holevo pair into
    d * rank(alpha_i) operators) and kept, as is the measured observable.
    """

    __slots__ = ("outcomes", "dim", "_parts", "_duals", "_derived")

    def __init__(self, outcomes: Sequence[Hashable], kraus: Sequence,
                 *, tol_lin: float = TOL_LIN, tol_psd: float = TOL_PSD):
        if len(outcomes) != len(kraus) or len(outcomes) == 0:
            raise ValidationError(
                "outcomes and Kraus lists must be parallel nonempty lists",
                invariant="parallel-lists")
        if any(len(ops) == 0 for ops in kraus):
            raise ValidationError("each outcome needs a Kraus operator",
                                  invariant="nonempty-kraus")
        outs = tuple(outcomes)
        if len(set(outs)) != len(outs):
            raise DuplicateOutcomeError("instrument outcomes are not distinct",
                                        invariant="distinct-outcomes")
        parts = [(linalg.as_stack(ops, name=f"kraus[{i}]"),)
                 for i, ops in enumerate(kraus)]
        if len({K.shape[1] for K, in parts}) > 1:
            raise DimensionMismatchError("Kraus operators have mixed dims",
                                         invariant="matching-dims")
        self._build(outs, parts, tol_lin, tol_psd)

    def _build(self, outcomes, parts, tol_lin=None, tol_psd=None) -> "Instrument":
        """The one construction path: set the parts and their duals, sum K*K
        over a slice or sum A_i over pairs (tr alpha_i = 1).  Given
        ``tol_psd``, check each dual is at most I; given ``tol_lin``, that
        the duals sum to I.  Holevo pairs and coarse graining pass neither."""
        duals = np.array([p[0].sum(0) if len(p) == 2 else
                          (p[0].conj().swapaxes(-1, -2) @ p[0]).sum(0)
                          for p in parts])
        if tol_psd is not None:
            top = linalg.hermitian_eigenvalues(duals)[:, -1]
            i = int(np.argmax(top > 1.0 + tol_psd))  # first bad one, if any
            if top[i] > 1.0 + tol_psd:
                raise ValidationError(
                    f"outcome {i} increases trace: sum K*K has eigenvalue "
                    f"{float(top[i])!r}", invariant="trace-nonincreasing",
                    violation=float(top[i]) - 1.0, field=f"kraus[{i}]")
        if tol_lin is not None:
            residual = max_abs(duals.sum(0) - np.eye(duals.shape[1]))
            if residual > tol_lin:
                raise CompletenessViolationError(
                    f"total map is not a channel (residual {residual:.3e})",
                    invariant="channel", residual=residual)
        self._set(outcomes=tuple(outcomes), dim=duals.shape[1],
                  _parts=tuple(parts), _duals=duals, _derived={})
        return self

    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        blocks = [p[0] if len(p) == 1 else _holevo_kraus(*p)
                  for p in self._parts]
        stack = np.concatenate(blocks)
        owner = np.repeat(np.arange(len(blocks)), [len(K) for K in blocks])
        for arr in (stack, owner):
            arr.setflags(write=False)
        return stack, owner

    kraus = property(lambda self: _stored(self._derived, "kraus", self._factor)[0])
    owner = property(lambda self: _stored(self._derived, "kraus", self._factor)[1])

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
        return _sandwich(self._parts[self._index(x)], rho.matrix)

    def dual_apply(self, x, C) -> np.ndarray:
        """Heisenberg-picture action for outcome x on an operator, or on
        each of an ``(n, d, d)`` stack of them."""
        C = (linalg.as_stack if np.ndim(C) == 3 else as_matrix)(C, name="C")
        if C.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"operator dim {C.shape[-1]} does not match instrument dim {self.dim}",
                invariant="matching-dims")
        return _sandwich(self._parts[self._index(x)], C, dual=True)

    def measured_observable(self) -> Observable:
        """The unique observable whose probabilities the instrument
        reproduces: effects are the dual images of the identity, checked
        with the maps.  Repeated calls return the same object."""
        def build():
            E = self._duals
            return Observable.__new__(Observable)._build(
                self.outcomes, (E + E.conj().swapaxes(-1, -2)) / 2.0, None)
        return _stored(self._derived, "measured", build)

    def channel(self, rho: DensityOperator) -> DensityOperator:
        """Total state change when the outcome is ignored."""
        out = sum(_sandwich(part, rho.matrix) for part in self._parts)
        return DensityOperator((out + out.conj().T) / 2.0)

    def coarse_grain(self, f: Mapping | Callable) -> "Instrument":
        """Merge outcomes through a real-valued function: each fiber's Kraus
        slices, or pairs, concatenated in outcome order, with no new check."""
        zs, index = fibers(f, self.outcomes)
        fibered = [zip(*(p for p, z in zip(self._parts, index) if z == k))
                   for k in range(len(zs))]
        return Instrument.__new__(Instrument)._build(
            zs, [tuple(map(np.concatenate, arrs)) for arrs in fibered])

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
            f"weights sum to {total!r}, expected 1",
            invariant="unit-total", violation=abs(total - 1.0))
    eye = as_matrix(np.eye(dim, dtype=complex), name="kraus[0][0]")  # d < 1 raises
    return Instrument.__new__(Instrument)._build(outcomes, [
        (np.sqrt(max(p, 0.0)) * eye[None],) for p in probs], tol_lin, TOL_PSD)


def holevo_instrument(A: Observable,
                      alphas: Sequence[DensityOperator] | Mapping) -> Instrument:
    """Measure-and-reprepare instrument: outcome x occurs with probability
    tr(rho A_x) and the state is replaced by the fixed state alpha_x.

    ``alphas`` is either a list parallel to the outcomes or a mapping keyed
    by them; it must cover every outcome.  The pairs (A_x, alpha_x) are kept
    with no new check; their Kraus operators are formed only if read.
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
    if any(alpha.dim != A.dim for alpha in alphas):
        raise DimensionMismatchError(
            "reprepared state dim does not match observable dim",
            invariant="matching-dims")
    return Instrument.__new__(Instrument)._build(A.keys, [
        (E[None], alpha.matrix[None]) for E, alpha in zip(A.effects, alphas)])


def lueders_instrument(A: Observable, *, tol_lin: float = TOL_LIN) -> Instrument:
    """Square-root instrument rho -> A_x^{1/2} rho A_x^{1/2}; measures A.
    Its duals are A's checked effects, so only the channel is checked: fuzz
    property ``derived.effect_spectrum`` bounds their spectra instead."""
    return Instrument.__new__(Instrument)._build(
        A.keys, [(psd_sqrt(E)[None],) for E in A.effects], tol_lin)


def _dual_images(inst: Instrument, B: Observable) -> list[np.ndarray]:
    """For each outcome x, the stack of dual_x(B_y) over B's outcomes."""
    if inst.dim != B.dim:
        raise DimensionMismatchError(
            f"instrument dim {inst.dim} does not match observable dim {B.dim}",
            invariant="matching-dims")
    return [_sandwich(part, B.effects, dual=True) for part in inst._parts]


def sequential_product(inst: Instrument, B: Observable,
                       *, tol_lin: float = TOL_LIN) -> Observable:
    """Observable of the two-step experiment: run the instrument, then
    measure B.  Effects are the dual images of B's effects; keys are
    (x, y) pairs.  The y-marginal reproduces the measured observable."""
    return _pair_keyed(inst.outcomes, B.keys, np.array(_dual_images(inst, B)),
                       tol_lin)


def conditioned_observable(inst: Instrument, B: Observable,
                           *, tol_lin: float = TOL_LIN) -> Observable:
    """Observable of: run the instrument ignoring its outcome, then measure
    B.  Effects are sum_x dual_x(B_y) on B's outcome space."""
    total = sum(_dual_images(inst, B))
    return Observable.__new__(Observable)._build(
        B.keys, (total + total.conj().swapaxes(-1, -2)) / 2.0, tol_lin)


def product_statistics(inst: Instrument, B: Observable, f: Mapping | Callable,
                       rho: DensityOperator,
                       *, tol_lin: float = TOL_LIN):
    """Statistics of the real-valued function f of a sequential measurement.

    Returns (mean, variance, observable) where the observable is the coarse
    graining of the two-step product observable by f.
    """
    obs = coarse_grain(sequential_product(inst, B, tol_lin=tol_lin), f,
                       tol_lin=tol_lin)
    return average(rho, obs), obs_variance(rho, obs), obs
