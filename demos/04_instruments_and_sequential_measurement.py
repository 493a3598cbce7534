"""Instruments: measurement with state change, and two-step statistics.

An instrument assigns a completely positive trace-nonincreasing map to each
outcome; the trace of the output is the outcome probability.  Three standard
families:

  trivial  the state is untouched, the outcome is drawn from a fixed law
  Holevo   measure an observable, reprepare a fixed state per outcome
  Lueders  pinch by the square roots of the effects

Measuring A with an instrument and then measuring B yields the product
observable with effects dual_x(B_y); ignoring the first outcome gives the
conditioned observable (B | A).  Conditioning by a trivial instrument
changes nothing, while a Lueders measurement generally disturbs B.
"""

import numpy as np

from qobs import (
    average,
    bloch_state,
    coarse_grain,
    conditioned_observable,
    lueders_instrument,
    max_abs,
    noisy_spin,
    sequential_product,
    trivial_instrument,
    variance,
)

rho = bloch_state((0.3, 0.1, 0.8))
B = noisy_spin(1.0, "y")

# Trivial instrument: (B | A) = B exactly.
triv = trivial_instrument({1.0: 0.25, -1.0: 0.75}, 2)
cond = conditioned_observable(triv, B)
print("Trivial instrument leaves B alone:",
      f"{max(max_abs(E - F) for E, F in zip(cond.effects, B.effects)):.1e}")

# Lueders measurement of spin-x first disturbs a later spin-y measurement.
lued = lueders_instrument(noisy_spin(1.0, "x"))
cond = conditioned_observable(lued, B)
print("\nAfter a sharp spin-x measurement, spin-y statistics flatten:")
print(f"  <B> before: {average(rho, B):+.4f}")
print(f"  <(B|A)>:    {average(rho, cond):+.4f}")
print(f"  <B> on the dephased state: {average(lued.channel(rho), B):+.4f}"
      "  (the same number, by duality)")

# The product observable carries the full two-step statistics; functions of
# the pair of outcomes become real-valued observables by coarse graining.
product = sequential_product(lued, B)
print("\nProduct observable keys:", product.keys)
parity = {(x, y): x * y for x, _ in product.keys for y in B.outcomes}
parity_obs = coarse_grain(product, parity)
print(f"Outcome-product statistics: mean {average(rho, parity_obs):+.4f}, "
      f"variance {variance(rho, parity_obs):.4f}")
print("Coarse-grained observable outcomes:", parity_obs.outcomes)
