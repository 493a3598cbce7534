"""Real-valued coarse graining of observables and instruments.

Any function f from outcomes to reals turns an observable A into f(A) by
summing the effects over each fiber f^{-1}(z).  The stochastic operator
pushes forward: f(A)~ = sum_x f(x) A_x.  The same recipe applies to
instruments by concatenating Kraus lists, and it commutes with taking the
measured observable.
"""

import numpy as np

from qobs import (
    Observable,
    average,
    coarse_grain,
    lueders_instrument,
    max_abs,
    maximally_mixed,
    stochastic_operator,
)
from qobs.sampling import random_observable

rng = np.random.default_rng(5)
rho = maximally_mixed(3)

# A four-outcome observable with outcomes -2, -1, 1, 2; parity merges it to
# two outcomes, absolute value to two different ones.
A = random_observable(rng, 3, 4, outcomes=[-2.0, -1.0, 1.0, 2.0])
sign = coarse_grain(A, {x: np.sign(x) for x in A.outcomes})
magnitude = coarse_grain(A, {x: abs(x) for x in A.outcomes})
print("outcomes of A:        ", A.outcomes)
print("outcomes of sign(A):  ", sign.outcomes)
print("outcomes of |A|:      ", magnitude.outcomes)
print(f"<sign(A)> = {average(rho, sign):+.4f}   "
      f"<|A|> = {average(rho, magnitude):.4f}")

# The pushforward identity for the stochastic operator.
f = {x: x ** 2 for x in A.outcomes}
fA = coarse_grain(A, f)
direct = sum(f[x] * E for x, E in A.pairs())
print("\nstochastic operator of f(A) vs sum f(x) A_x:",
      f"{max_abs(stochastic_operator(fA) - direct):.1e}")

# Keys need not be numbers: an observable keyed by labels is coarse-grained
# into a real-valued one through a label -> value map.
G = Observable(["low", "mid", "high"],
               [0.2 * np.eye(3), 0.5 * np.eye(3), 0.3 * np.eye(3)])
fG = coarse_grain(G, {"low": -1.0, "mid": 0.0, "high": 1.0})
print("\ngeneral observable collapsed to outcomes:", fG.outcomes)

# Coarse graining commutes with the measured observable of an instrument.
inst = lueders_instrument(A)
merged = inst.coarse_grain({x: abs(x) for x in A.outcomes})
lhs = merged.measured_observable()
rhs = coarse_grain(inst.measured_observable(), {x: abs(x) for x in A.outcomes})
print("J(f(instrument)) vs f(J(instrument)):",
      f"{max(max_abs(E - F) for E, F in zip(lhs.effects, rhs.effects)):.1e}")
