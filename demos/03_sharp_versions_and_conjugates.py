"""Sharp versions and conjugates of an unsharp, noncommutative POVM.

The stochastic operator sum_x x A_x of a real-valued observable has a
spectral decomposition; reading its distinct eigenvalues as outcomes and its
eigenprojections as effects gives the sharp version.  Pinching each original
effect by those projections gives the conjugate: a genuinely different
observable with the same stochastic operator, hence the same mean in every
state, and jointly measurable with the sharp version.

For commutative observables the conjugate is the observable itself, so the
construction only produces something new in the noncommutative case.
"""

import numpy as np

from qobs import (
    Observable,
    coarse_grain,
    conjugate,
    conjugate_joint,
    is_commutative,
    is_sharp,
    max_abs,
    sharp_version,
    stochastic_operator,
)
from qobs.qubit import SIGMA_X, SIGMA_Y

# A three-outcome qubit POVM with effects (I + cos t sx + sin t sy)/3 on a
# symmetric triple of directions; unsharp and noncommutative.
effects = []
for k in range(3):
    theta = 2 * np.pi * k / 3
    effects.append((np.eye(2) + np.cos(theta) * SIGMA_X
                    + np.sin(theta) * SIGMA_Y) / 3)
A = Observable([-1.0, 0.0, 1.0], effects)
print("A:", A)
print("  sharp?", is_sharp(A), " commutative?", is_commutative(A))

sharp = sharp_version(A)
print("\nSharp version outcomes:", tuple(round(x, 6) for x in sharp.outcomes))
print("  (the eigenvalues of the stochastic operator; projections as effects)")

B = conjugate(A)
print("\nConjugate effects differ from A by up to",
      f"{max(max_abs(E - F) for E, F in zip(B.effects, A.effects)):.3f}")
print("  same stochastic operator:",
      f"{max_abs(stochastic_operator(B) - stochastic_operator(A)):.1e}")
print("  same sharp version:",
      f"{max(max_abs(E - F) for E, F in zip(sharp_version(B).effects, sharp.effects)):.1e}")

# The joint observable C_(lam,x) = P_lam A_x P_lam has the sharp version and
# the conjugate as its two marginals, exhibiting their compatibility.
joint = conjugate_joint(A)
by_lam = coarse_grain(joint, lambda key: key[0])
by_x = coarse_grain(joint, lambda key: key[1])
print("\nJoint marginals reproduce both observables:")
print("  coarse graining by lam vs sharp version:",
      f"{max_abs(by_lam.effects - sharp.effects):.1e}")
print("  coarse graining by x vs conjugate:",
      f"{max_abs(by_x.effects - B.effects):.1e}")
