"""Finite observables (POVMs): effects indexed by distinct outcome keys.

A real-valued observable is the case where every key is a real number.  Its
stochastic operator sum_x x A_x carries all first- and second-moment
statistics; its spectral decomposition defines the sharp version, and
pinching by the sharp version's projections defines the conjugate.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Mapping, Sequence

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import TOL_LIN, TOL_PSD, _Immutable, entry_norms, scale_of


def is_real(key) -> bool:
    """The outcome-space rule: ints and floats (not bools) are real."""
    return isinstance(key, (int, float)) and not isinstance(key, bool)


def canonical_outcome(x) -> float:
    """Outcome values are finite doubles; -0.0 is folded into 0.0."""
    v = float(x)
    if not math.isfinite(v):
        raise ValidationError(f"outcome {x!r} is not finite",
                              invariant="finite-outcome")
    return v + 0.0 if v != 0.0 else 0.0


def _effect_margins(stacks: Sequence[np.ndarray], tol_lin: float, tol_psd: float):
    """The effect rule as (residual, bound) arrays, failing where residual >
    bound: each effect's Hermiticity defect (bound ``tol_lin * scale_of``),
    each -lambda_min and each lambda_max - 1 (bound ``tol_psd``), and each
    stack's completeness residual (bound ``tol_lin``), in that order."""
    E = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
    w = linalg.hermitian_eigenvalues(E)
    gaps = np.array([S.sum(0) for S in stacks]) - np.eye(E.shape[1])
    residual = np.concatenate([linalg.hermiticity_defect(E), -w[:, 0],
                               w[:, -1] - 1.0, entry_norms(gaps)])
    bound = np.full(len(residual), tol_psd)
    bound[:len(E)], bound[3 * len(E):] = tol_lin * scale_of(E), tol_lin
    return residual, bound


def _check_effects(E: np.ndarray, tol_lin: float, tol_psd: float) -> None:
    """Check 0 <= E_i <= I for every effect in the stack, reporting the
    first bad index, and that the effects sum to I."""
    residual, bound = _effect_margins([E], tol_lin, tol_psd)
    n, over = len(E), residual > bound
    if over[:3 * n].any():
        i = int(over[:3 * n].reshape(3, n).any(0).argmax())  # the first effect
        k = i + n * int(over[i:3 * n:n].argmax())  # and its first broken rule
        raise ValidationError(
            ("not Hermitian", "eigenvalue below 0", "eigenvalue above 1")[k // n],
            invariant=("hermitian" if k < n else "effect-lower-bound" if k < 2 * n
                       else "effect-upper-bound"),
            field=f"effect[{i}]", violation=float(residual[k]), bound=float(bound[k]))
    if over[-1]:
        raise ValidationError("effects do not sum to the identity",
                              invariant="completeness",
                              violation=float(residual[-1]), bound=tol_lin)


class Observable(_Immutable):
    """Finite POVM: distinct outcome keys, one effect per key.

    ``effects`` is one read-only ``(n, d, d)`` complex array.  When every key
    is a real number (``is_real``), the keys are canonicalised and sorted
    ascending and ``outcomes`` is that tuple; otherwise the keys keep their
    given order and ``outcomes`` is None.

    Values derived from the effects are stored on the object the first time
    they are asked for: the stochastic operator at construction, and the
    sharp version in one private dict, keyed by what was derived and the
    ``cluster_tol`` it was derived with.  The object stays immutable in
    value; two threads that fill the same entry compute identical values.
    """

    __slots__ = ("keys", "outcomes", "effects", "dim", "_stochastic",
                 "_derived")

    def __init__(self, keys: Sequence[Hashable], effects,
                 *, tol_lin: float = TOL_LIN, tol_psd: float = TOL_PSD):
        self._build(keys, effects, (tol_lin, tol_psd))

    def _build(self, keys, E, tols=None) -> "Observable":
        """The one construction path.  The constructor passes its ``tols``,
        (tol_lin, tol_psd), to check the effects.  A builder forms E from
        checked objects and passes none; the fuzz property
        ``derived.effect_spectrum`` checks its output and its inputs."""
        keys = linalg.parallel_keys(keys, E, "keys and effects")
        real = all(is_real(x) for x in keys)
        if real:
            keys = tuple(canonical_outcome(x) for x in keys)
        if len(set(keys)) != len(keys):
            raise ValidationError(
                "outcomes are not pairwise distinct",
                invariant="distinct-outcomes" if real else "distinct-labels")
        if tols is not None:
            E = linalg.as_stack(E, name="effect")
            _check_effects(E, *tols)
        stochastic = None
        if real:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            if order != list(range(len(keys))):
                keys = tuple(keys[i] for i in order)
                E = E[order]
            stochastic = linalg.frozen(np.einsum("x,xab->ab", keys, E))
        E.setflags(write=False)
        self._set(keys=keys, outcomes=keys if real else None, effects=E,
                  dim=E.shape[1], _stochastic=stochastic, _derived={})
        return self

    def __len__(self):
        return len(self.keys)

    def pairs(self):
        return zip(self.keys, self.effects)

    def __repr__(self):
        return f"Observable(dim={self.dim}, keys={self.keys})"


def _outcomes(A: Observable) -> tuple[float, ...]:
    if A.outcomes is None:
        raise ValidationError("not real-valued", invariant="real-outcomes",
                              field="observable")
    return A.outcomes


def stochastic_operator(A: Observable) -> np.ndarray:
    """The Hermitian operator sum_x x A_x, as a read-only array."""
    _outcomes(A)
    return A._stochastic


def is_sharp(A: Observable, tol: float = TOL_LIN) -> bool:
    """True when every effect is a projection (P^2 = P within tolerance)."""
    E = A.effects
    return bool(np.all(entry_norms(E @ E - E) <= tol * scale_of(E)))


def _commutators(A: Observable, B: Observable, tol: float):
    """The products A_x B_y, indexed [x, y], their commutators' norms, and
    the bounds ``tol * pair_scale(A_x, B_y)`` that the norms must not exceed."""
    left, right = A.effects[:, None], B.effects[None, :]
    AB = left @ right
    norm = entry_norms(AB - right @ left)
    return AB, norm, tol * linalg.pair_scale(A.effects, B.effects)


def is_commutative(A: Observable, tol: float = TOL_LIN) -> bool:
    """True when all pairs of effects commute within tolerance."""
    _, norm, bound = _commutators(A, A, tol)
    return not (norm > bound).any()


def _stored(cache: dict, key, build: Callable):
    """build(), computed once per key and kept in ``cache``.  A failed build
    stores nothing, so a repeat raises the same error; of two racing builds
    the first stored is the one every caller gets."""
    try:
        return cache[key]
    except KeyError:
        return cache.setdefault(key, build())


def sharp_version(A, cluster_tol: float | None = None) -> Observable:
    """The projection-valued observable given by the spectral decomposition
    of A, a Hermitian matrix or a real-valued observable's stochastic
    operator.  Outcomes are the distinct eigenvalues, each multiplicity the
    rank of its effect; the stochastic operator is A's.  Outcomes carried
    only by zero effects do not appear, since the stochastic operator cannot
    see them.  For an observable, repeated calls with the same
    ``cluster_tol`` return the same object.
    """
    def build(H):
        return Observable.__new__(Observable)._build(
            *linalg._eigendecomposition(H, cluster_tol))

    if not isinstance(A, Observable):
        return build(linalg.require_hermitian(A, name="A"))
    return _stored(A._derived, ("sharp", cluster_tol),
                   lambda: build(stochastic_operator(A)))


def _pinched(A: Observable, cluster_tol: float | None) -> np.ndarray:
    """The stack P_i A_x P_i, indexed [i, x], for the sharp version's
    projections P_i."""
    P = sharp_version(A, cluster_tol).effects[:, None]
    return P @ A.effects @ P


def conjugate(A: Observable, cluster_tol: float | None = None) -> Observable:
    """The observable with effects sum_i P_i A_x P_i, pinched by the sharp
    version's eigenprojections.

    Shares the input's outcome space and stochastic operator, hence also its
    sharp version.  Equals the input exactly when the input is commutative.
    """
    return Observable.__new__(Observable)._build(
        A.outcomes, _pinched(A, cluster_tol).sum(0))


def _pair_keyed(xs, ys, C: np.ndarray) -> Observable:
    """Observable with keys (x, y), x-major, and the Hermitian parts of the
    matching effects of the ``(len(xs), len(ys), d, d)`` stack C."""
    C = C.reshape(-1, *C.shape[-2:])
    return Observable.__new__(Observable)._build(
        [(x, y) for x in xs for y in ys], (C + C.conj().swapaxes(-1, -2)) / 2.0)


def conjugate_joint(A: Observable, cluster_tol: float | None = None) -> Observable:
    """Joint observable C_(lam,x) = P_lam A_x P_lam for the sharp version
    and the conjugate.

    Keys are (lam, x) pairs, lam a sharp-version outcome and x an outcome of
    A.  Coarse graining by ``key[0]`` gives the sharp version, by ``key[1]``
    the conjugate.
    """
    return _pair_keyed(sharp_version(A, cluster_tol).outcomes, A.outcomes,
                       _pinched(A, cluster_tol))


def commuting_joint(A: Observable, B: Observable,
                    tol: float = TOL_LIN) -> Observable:
    """Joint observable C_(x,y) = A_x B_y for pairwise commuting effects.

    Fails ``commuting-effects`` on the first pair whose commutator exceeds
    ``tol``, relative to the effects' norms.  That checks how the inputs
    relate; the products of their checked effects are not checked again.
    Keys are (x, y) pairs; coarse graining by ``key[0]`` gives A, by
    ``key[1]`` gives B.
    """
    xs, ys = _outcomes(A), _outcomes(B)
    if A.dim != B.dim:
        raise ValidationError(
            f"observables have dims {A.dim} and {B.dim}",
            invariant="matching-dims")
    AB, norm, bound = _commutators(A, B, tol)
    bad = np.argwhere(norm > bound)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(
            f"effects at outcomes ({xs[i]}, {ys[j]}) do not commute",
            invariant="commuting-effects", violation=float(norm[i, j]),
            bound=float(bound[i, j]))
    return _pair_keyed(xs, ys, AB)


def _on_keys(f: Mapping, keys: Sequence[Hashable], what: str) -> list:
    """[f[key] for key in keys], for a mapping keyed by exactly ``keys``,
    matched as dict keys are (1 matches 1.0); ``what`` names the values."""
    missing = [key for key in keys if key not in f]
    if missing:
        raise ValidationError(f"an outcome with no {what}",
                              invariant="total-function", field=str(missing[0]))
    known = set(keys)
    unknown = [key for key in f if key not in known]
    if unknown:
        raise ValidationError(f"{what} for a key that is not an outcome",
                              invariant="known-outcome", field=str(unknown[0]))
    return [f[key] for key in keys]


def fibers(f: Mapping | Callable, keys: Sequence[Hashable]):
    """Group keys by their real value under f, a callable or a mapping: the
    sorted distinct values z and, for each key, the index of its z."""
    values = (_on_keys(f, keys, "coarse-grained value") if isinstance(f, Mapping)
              else [f(key) for key in keys])
    values = [canonical_outcome(z) for z in values]
    zs = sorted(set(values))
    position = {z: i for i, z in enumerate(zs)}
    return zs, [position[z] for z in values]


def coarse_grain(A: Observable, f: Mapping | Callable) -> Observable:
    """Real-valued coarse graining: relabel outcomes through f and sum the
    effects over each fiber f^{-1}(z)."""
    zs, index = fibers(f, A.keys)
    grouped = np.zeros((len(zs), A.dim, A.dim), dtype=complex)
    np.add.at(grouped, index, A.effects)
    return Observable.__new__(Observable)._build(zs, grouped)
