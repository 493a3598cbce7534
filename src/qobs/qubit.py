"""Qubit-specific fixtures: Pauli matrices, noisy spin observables, and the
closed-form statistics they satisfy on a Bloch state.

The closed forms were verified symbolically from first principles (direct
2x2 algebra with sigma_x sigma_y = i sigma_z); they are the reference
values the demo and sweep commands compare against.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .observables import Observable

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_AXES = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def _spin_operator(mu: float, axis: str) -> np.ndarray:
    """mu sigma_axis, the stochastic operator of ``noisy_spin(mu, axis)``."""
    if not 0.0 <= mu <= 1.0:
        raise ValidationError(f"noise strength mu={mu} must be in [0, 1]",
                              invariant="mu-range")
    try:
        return mu * _AXES[axis]
    except KeyError:
        raise ValidationError(f"axis must be one of {sorted(_AXES)}",
                              invariant="axis") from None


def noisy_spin(mu: float, axis: str = "x") -> Observable:
    """Dichotomic qubit observable with effects (I +- mu sigma_axis)/2 at
    outcomes +-1; mu = 1 is the sharp spin observable, mu = 0 is pure noise."""
    X, eye = _spin_operator(mu, axis), np.eye(2, dtype=complex)
    return Observable([1.0, -1.0], [(eye + X) / 2.0, (eye - X) / 2.0])


def noisy_spin_closed_forms(mu: float, r) -> dict:
    """Closed-form statistics of the noisy spin-x/spin-y pair on the Bloch
    state with vector r.

    ``r`` is one vector, giving Python scalars, or an ``(n, 3)`` array,
    giving an array of n values per key.  ``*_term`` entries use the effect-
    level normalization (the observable-level uncertainty terms divided by
    16, since the stochastic operators are 2 A_1 - I).  ``slack`` is
    variance_term - correlation_term, which simplifies to (1 - |r|^2) mu^4 /
    16.  Powers use ``np.float_power``, which rounds as ``float ** n`` does.
    """
    r = np.asarray(r, dtype=float)
    r1, r2, r3 = np.moveaxis(r, -1, 0)
    mu = float(mu)
    mu2, mu4 = np.float_power(mu, [2, 4])
    s1, s2, s3, s12 = np.float_power([r1, r2, r3, r1 * r2], 2)
    out = {
        "mean_a": r1 * mu,
        "mean_b": r2 * mu,
        "var_a": mu2 * (1.0 - s1),
        "var_b": mu2 * (1.0 - s2),
        # complex(re, im) per vector; re + 1j * im can flip the sign of a zero
        "cor": np.stack([-r1 * r2 * mu2, r3 * mu2], -1).view(complex)[..., 0],
        "second_moment_a1": 0.25 * (1.0 + mu2) + 0.5 * mu * r1,
        "commutator_term": s3 * mu4 / 16.0,
        "covariance_term": s12 * mu4 / 16.0,
        "correlation_term": (s3 + s12) * mu4 / 16.0,
        "variance_term": (1.0 - s1) * (1.0 - s2) * mu4 / 16.0,
        "slack": ((1.0 - s1) * (1.0 - s2) - s3 - s12) * mu4 / 16.0,
    }
    return {key: v.item() for key, v in out.items()} if r.ndim == 1 else out
