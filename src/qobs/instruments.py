"""Finite quantum instruments: Kraus slices or measure-and-prepare pairs.

An instrument assigns to each outcome a completely positive trace-
nonincreasing map; the maps must sum to a channel.  Each map is held in
one form only: a Kraus slice ``(K,)``, rho -> sum_j K_j rho K_j*, or Holevo
pairs ``(A, alpha)``, rho -> sum_i tr(rho A_i) alpha_i at O(d^2) per pair,
each a ``(k, d, d)`` stack.  Every builder ends in ``Instrument._build``,
which checks nothing; the public constructor checks its Kraus maps as the
observable they measure, x -> sum_j K_j* K_j, with no rule of its own.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import TOL_LIN, TOL_PSD, _Immutable, as_matrix
from .observables import (Observable, _on_keys, _pair_keyed, _stored,
                          canonical_outcome, fibers, is_real)
from .states import DensityOperator


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


class Instrument(_Immutable):
    """Outcomes, each with its map, summing to a channel.  ``_parts`` holds
    one map per outcome in the form its builder made: a Kraus slice, or
    Holevo pairs (several per outcome after coarse graining).  The measured
    observable is built on first use and kept; the constructor builds it with
    the ``Observable`` constructor, which names a bad effect ``kraus[i]``.
    """

    __slots__ = ("outcomes", "dim", "_parts", "_duals", "_derived")

    def __init__(self, outcomes: Sequence[Hashable], kraus: Sequence,
                 *, tol_lin: float = TOL_LIN, tol_psd: float = TOL_PSD):
        outs = linalg.parallel_keys(outcomes, kraus, "outcomes and Kraus lists")
        parts = [(linalg.as_stack(ops, name=f"kraus[{i}]"),)
                 for i, ops in enumerate(kraus)]
        dims = [K.shape[1] for K, in parts]
        if len(set(dims)) > 1:  # name the first outcome off the first dim
            i = next(i for i, d in enumerate(dims) if d != dims[0])
            raise ValidationError("Kraus operators have mixed dims",
                                  invariant="matching-dims", field=f"kraus[{i}]")
        self._build(outs, parts)
        try:
            self._derived["measured"] = Observable(
                outs, self._duals, tol_lin=tol_lin, tol_psd=tol_psd)
        except ValidationError as exc:
            exc.field = exc.field and exc.field.replace("effect[", "kraus[", 1)
            raise

    def _build(self, outcomes, parts) -> "Instrument":
        """The one construction path, which checks nothing: set the parts
        and the Hermitian parts of their duals, the measured effects: sum
        K*K over a slice or sum A_i over pairs (tr alpha_i = 1)."""
        E = np.array([p[0].sum(0) if len(p) == 2 else
                      (p[0].conj().swapaxes(-1, -2) @ p[0]).sum(0) for p in parts])
        self._set(outcomes=tuple(outcomes), dim=E.shape[1], _parts=tuple(parts),
                  _duals=(E + E.conj().swapaxes(-1, -2)) / 2.0, _derived={})
        return self

    def __len__(self):
        return len(self.outcomes)

    def _index(self, x) -> int:
        try:
            return self.outcomes.index(x)
        except ValueError:
            raise ValidationError(
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
            raise ValidationError(
                f"operator dim {C.shape[-1]} does not match instrument dim {self.dim}",
                invariant="matching-dims")
        return _sandwich(self._parts[self._index(x)], C, dual=True)

    def measured_observable(self) -> Observable:
        """The unique observable whose probabilities the instrument
        reproduces: effects are the dual images of the identity.  The
        constructor stores the one it checked; a builder's is built on first
        use, with no check.  Repeated calls return the same object."""
        return _stored(self._derived, "measured", lambda: Observable.__new__(
            Observable)._build(self.outcomes, self._duals))

    def channel(self, rho: DensityOperator) -> DensityOperator:
        """Total state change when the outcome is ignored, not checked again."""
        out = sum(_sandwich(part, rho.matrix) for part in self._parts)
        out = (out + out.conj().T) / 2.0
        return DensityOperator.__new__(DensityOperator)._build(
            out, linalg.hermitian_eigenvalues(out))

    def coarse_grain(self, f: Mapping | Callable) -> "Instrument":
        """Merge outcomes through a real-valued function: each fiber's Kraus
        slices, or pairs, concatenated in outcome order, with no new check."""
        zs, index = fibers(f, self.outcomes)
        fibered = [zip(*(p for p, z in zip(self._parts, index) if z == k))
                   for k in range(len(zs))]
        return Instrument.__new__(Instrument)._build(
            zs, [tuple(map(np.concatenate, arrs)) for arrs in fibered])


def trivial_instrument(omega: Mapping, dim: int, *,
                       tol_lin: float = TOL_LIN) -> Instrument:
    """Instrument that leaves the state alone and draws the outcome from the
    fixed distribution omega, checked at ``tol_lin``; measures the trivial
    observable omega(x) I.  Real outcomes are checked as an ``Observable``
    checks them and kept as given."""
    outcomes = list(omega)
    for x in filter(is_real, outcomes):
        canonical_outcome(x)
    probs = [float(omega[x]) for x in outcomes]
    if not all(p >= -tol_lin for p in probs):  # a NaN weight fails too
        raise ValidationError(
            "weights must be nonnegative", invariant="nonnegative-weights",
            violation=None if np.isnan(probs).any() else -min(probs), bound=tol_lin)
    miss = abs(sum(probs) - 1.0)
    if not miss <= tol_lin:
        raise ValidationError("weights do not sum to 1", invariant="unit-total",
                              violation=miss, bound=tol_lin)
    eye = as_matrix(np.eye(dim, dtype=complex), name="kraus[0][0]")  # d < 1 raises
    return Instrument.__new__(Instrument)._build(outcomes, [
        (np.sqrt(max(p, 0.0)) * eye[None],) for p in probs])


def holevo_instrument(A: Observable,
                      alphas: Sequence[DensityOperator] | Mapping) -> Instrument:
    """Measure-and-reprepare instrument: outcome x occurs with probability
    tr(rho A_x) and the state is replaced by the fixed state alpha_x.

    ``alphas`` is either a list parallel to the outcomes or a mapping keyed
    by exactly them.  The pairs (A_x, alpha_x) are kept as they are, with
    no new check.
    """
    if isinstance(alphas, Mapping):
        alphas = _on_keys(alphas, A.keys, "reprepared state")
    if len(alphas) != len(A):
        raise ValidationError("need one reprepared state per outcome",
                              invariant="parallel-lists")
    if any(alpha.dim != A.dim for alpha in alphas):
        raise ValidationError(
            "reprepared state dim does not match observable dim",
            invariant="matching-dims")
    return Instrument.__new__(Instrument)._build(A.keys, [
        (E[None], alpha.matrix[None]) for E, alpha in zip(A.effects, alphas)])


def lueders_instrument(A: Observable) -> Instrument:
    """Square-root instrument rho -> A_x^{1/2} rho A_x^{1/2}; measures A.
    Its duals are A's checked effects, so the roots skip ``psd_sqrt``'s
    checks: eigenvalues of an effect below zero are clipped."""
    roots = linalg._root(*linalg._eigh(A.effects))
    return Instrument.__new__(Instrument)._build(A.keys, [(R[None],) for R in roots])


def _dual_images(inst: Instrument, B: Observable) -> list[np.ndarray]:
    """For each outcome x, the stack of dual_x(B_y) over B's outcomes."""
    if inst.dim != B.dim:
        raise ValidationError(
            f"instrument dim {inst.dim} does not match observable dim {B.dim}",
            invariant="matching-dims")
    return [_sandwich(part, B.effects, dual=True) for part in inst._parts]


def sequential_product(inst: Instrument, B: Observable) -> Observable:
    """Observable of the two-step experiment: run the instrument, then
    measure B.  Effects are the dual images of B's effects; keys are
    (x, y) pairs.  The y-marginal reproduces the measured observable."""
    return _pair_keyed(inst.outcomes, B.keys, np.array(_dual_images(inst, B)))


def conditioned_observable(inst: Instrument, B: Observable) -> Observable:
    """Observable of: run the instrument ignoring its outcome, then measure
    B.  Effects are sum_x dual_x(B_y) on B's outcome space."""
    total = sum(_dual_images(inst, B))
    return Observable.__new__(Observable)._build(
        B.keys, (total + total.conj().swapaxes(-1, -2)) / 2.0)
