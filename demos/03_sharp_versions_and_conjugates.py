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

# The joint observable C_(i,x) = P_i A_x P_i has the conjugate and the sharp
# version as its two marginals, exhibiting their compatibility.
joint = conjugate_joint(A)
row = sum(C for (i, x), C in joint if x == 0.0)
col = sum(C for (i, x), C in joint if i == 0)
print("\nJoint marginals reproduce both observables:")
print("  sum_i C_(i,0) vs conjugate effect at 0:",
      f"{max_abs(row - B.effects[B.outcomes.index(0.0)]):.1e}")
print("  sum_x C_(0,x) vs first sharp projection:",
      f"{max_abs(col - sharp.effects[0]):.1e}")
