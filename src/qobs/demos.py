"""Worked demonstrations comparing computed statistics against closed forms.

Each demo returns a JSON-ready dict with per-check absolute deltas between
the toolkit's output and an independently derived reference value.  The
``demo`` CLI subcommand exposes them as example1 .. example9:

  example1  uncorrelated yet noncommuting projections on a pure state
  example2  statistics at the maximally mixed state (trace closed forms)
  example3  generic dichotomic observables with outcomes +-1
  example4  noisy spin observables on a Bloch state
  example5  trivial instrument (state untouched, outcome from a fixed law)
  example6  Holevo measure-and-reprepare instrument
  example7  Lueders square-root instrument
  example8  sharp version and conjugate of an unsharp, noncommutative POVM
  example9  real-valued coarse graining of an observable and its instrument
"""

from __future__ import annotations

import numpy as np

from . import statistics as stats
from .fuzz import (CHECKS, RunConfig, _family_instrument, _family_rows,
                   _matched_observable_delta, _maximally_mixed_correlation)
from .instruments import lueders_instrument, sequential_product
from .linalg import TOL_LIN, TOL_STAT, commutator, max_abs, require_margin
from .observables import (Observable, coarse_grain, conjugate, conjugate_joint,
                          is_commutative, is_sharp, sharp_version, stochastic_operator)
from .qubit import SIGMA_X, SIGMA_Y, _spin_operator, noisy_spin, noisy_spin_closed_forms
from .sampling import (
    random_density,
    random_hermitian,
    random_observable,
    random_probability_vector,
)
from .serialization import SCHEMA_VERSION
from .states import DensityOperator, _bloch_matrices, bloch_state

DEMO_NAMES = tuple(f"example{i}" for i in range(1, 10))
_SPIN_TOL = 1e-12  # the noisy-spin statistics against their closed forms


class _Checks:
    """Accumulates (name, computed, expected) rows and their deltas, from
    the matrix rows it is given first."""

    def __init__(self, rows=()):
        self.rows = []
        for row in rows:
            self.matrix(*row)

    def scalar(self, name: str, computed, expected):
        computed, expected = complex(computed), complex(expected)
        delta = abs(computed - expected)
        self.rows.append({"name": name, "computed": _num(computed),
                          "expected": _num(expected), "delta": delta})

    def matrix(self, name: str, computed, expected):
        self.rows.append({"name": name,
                          "delta": float(max_abs(np.asarray(computed)
                                                 - np.asarray(expected)))})

    def residuals(self, prefix: str, names, residuals):
        self.rows += ({"name": f"{prefix}.{name}", "delta": float(r)}
                      for name, r in zip(names, residuals))

    def result(self, demo: str, params: dict, threshold: float) -> dict:
        max_delta = float(np.max([row["delta"] for row in self.rows]))  # NaN if any
        return {"schema": SCHEMA_VERSION, "demo": demo, "params": params,
                "checks": self.rows, "max_delta": max_delta,
                "threshold": threshold, "pass": bool(max_delta <= threshold)}


def _num(z: complex):
    re, im = z.real + 0.0, z.imag + 0.0  # fold -0.0 into 0.0
    if im == 0.0:
        return re
    return {"re": re, "im": im}


def demo_example1() -> dict:
    """Rank-one projections that are uncorrelated on |e1> yet do not commute."""
    alpha = np.array([1.0, 0.0])
    phi = np.array([0.0, 1.0])
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho = DensityOperator(np.outer(alpha, alpha.conj()))
    A = np.outer(phi, phi.conj()).astype(complex)
    B = np.outer(psi, psi.conj()).astype(complex)

    ch = _Checks()
    ch.scalar("correlation", stats.correlation(rho, A, B), 0.0)
    ch.matrix("product_AB", A @ B,
              (phi @ psi) * np.outer(phi, psi.conj()))
    comm_norm = max_abs(commutator(A, B))
    ch.scalar("commutator_norm", comm_norm, 0.5)
    out = ch.result("example1", {}, 1e-12)
    out["noncommuting"] = bool(comm_norm > 0.4)
    return out


def demo_example2(dim: int = 3, seed: int = 42) -> dict:
    """At rho = I/n every statistic reduces to traces of operator products."""
    rng = np.random.default_rng(seed)
    n = dim
    rho = DensityOperator(np.eye(n, dtype=complex) / n)
    A = random_hermitian(rng, n)
    B = random_hermitian(rng, n)
    cor = _maximally_mixed_correlation(A, B)

    ch = _Checks()
    ch.scalar("mean_a", stats.average(rho, A), np.trace(A).real / n)
    ch.scalar("correlation", stats.correlation(rho, A, B), cor)
    ch.scalar("covariance", stats.covariance(rho, A, B), cor.real)
    ch.scalar("variance_a", stats.variance(rho, A),
              _maximally_mixed_correlation(A, A).real)
    ch.scalar("commutator_expectation",
              stats.commutator_expectation(rho, A, B), 2j * cor.imag)
    return ch.result("example2", {"dim": dim, "seed": seed}, 1e-10)


def _random_dichotomic(rng, dim: int) -> Observable:
    return random_observable(rng, dim, 2, outcomes=[1.0, -1.0])


def _effect_at(A: Observable, outcome: float) -> np.ndarray:
    return A.effects[A.outcomes.index(outcome)]


def demo_example3(dim: int = 2, seed: int = 42) -> dict:
    """Two-outcome observables: every statistic collapses onto the effect at
    outcome +1."""
    rng = np.random.default_rng(seed)
    A = _random_dichotomic(rng, dim)
    B = _random_dichotomic(rng, dim)
    rho = random_density(rng, dim)
    A1, B1 = _effect_at(A, 1.0), _effect_at(B, 1.0)
    pa = np.trace(rho.matrix @ A1).real
    pb = np.trace(rho.matrix @ B1).real
    eye = np.eye(dim)

    ch = _Checks()
    ch.matrix("stochastic_operator", stochastic_operator(A), 2.0 * A1 - eye)
    ch.scalar("mean_a", stats.average(rho, A), 2.0 * pa - 1.0)
    ch.matrix("deviation", stats.deviation(rho, A), 2.0 * (A1 - pa * eye))
    ch.scalar("correlation", stats.correlation(rho, A, B),
              4.0 * (complex(np.trace(rho.matrix @ A1 @ B1)) - pa * pb))
    ch.scalar("variance_a", stats.variance(rho, A),
              4.0 * (np.trace(rho.matrix @ A1 @ A1).real - pa ** 2))
    ch.matrix("commutator", commutator(stochastic_operator(A),
                                       stochastic_operator(B)),
              4.0 * commutator(A1, B1))
    return ch.result("example3", {"dim": dim, "seed": seed}, 1e-10)


def demo_example4(mu: float = 0.5, bloch=(0.3, 0.4, 0.2)) -> dict:
    """Noisy spin observables along x and y on a Bloch state: all eight
    closed-form statistics, checked to 1e-12."""
    r = [float(v) for v in bloch]
    rho = bloch_state(r)
    A = noisy_spin(mu, "x")
    B = noisy_spin(mu, "y")
    ref = noisy_spin_closed_forms(mu, r)
    rep = stats.uncertainty_report(rho, A, B)

    ch = _Checks()
    ch.scalar("mean_a", stats.average(rho, A), ref["mean_a"])
    ch.scalar("mean_b", stats.average(rho, B), ref["mean_b"])
    ch.scalar("variance_a", stats.variance(rho, A), ref["var_a"])
    ch.scalar("variance_b", stats.variance(rho, B), ref["var_b"])
    ch.scalar("correlation", stats.correlation(rho, A, B), ref["cor"])
    # Effect-level terms: observable-level report terms divided by 16.
    ch.scalar("commutator_term", rep.commutator_term / 16.0,
              ref["commutator_term"])
    ch.scalar("covariance_term", rep.covariance_sq / 16.0,
              ref["covariance_term"])
    ch.scalar("correlation_term", rep.correlation_sq / 16.0,
              ref["correlation_term"])
    ch.scalar("second_moment_a1", np.trace(
        rho.matrix @ _effect_at(A, 1.0) @ _effect_at(A, 1.0)).real,
        ref["second_moment_a1"])
    ch.scalar("slack", rep.inequality_slack / 16.0, ref["slack"])
    out = ch.result("example4", {"mu": mu, "bloch": r}, _SPIN_TOL)
    # The effect-level slack reported above, against the sweep's bound.
    out["equality"] = bool(abs(rep.inequality_slack / 16.0) <= _SPIN_TOL)
    return out


def _family_checks(family: str, dim: int, seed: int, outcomes: int):
    """(bundle, checks): one instrument family's bundle, drawn in this order,
    its omega, or its A then alphas, then B, rho and C; and the checks of
    its instrument against the family's definition, ``fuzz._family_rows``."""
    rng = np.random.default_rng(seed)
    bundle = {"family": family, "dim": dim}
    if family == "trivial":
        probs = random_probability_vector(rng, outcomes)
        bundle["omega"] = {float(x): float(p)
                           for x, p in zip(range(1, outcomes + 1), probs)}
    else:
        bundle["A"] = random_observable(rng, dim, outcomes)
        if family == "holevo":
            bundle["alphas"] = [random_density(rng, dim) for _ in range(outcomes)]
    bundle.update(B=random_observable(rng, dim, 2), rho=random_density(rng, dim),
                  C=random_hermitian(rng, dim))
    bundle["inst"] = _family_instrument(bundle)
    return bundle, _Checks(zip(*_family_rows(bundle)))


def demo_example5(dim: int = 3, seed: int = 42, outcomes: int = 2) -> dict:
    """Trivial instrument: outcome drawn from a fixed law, state untouched;
    conditioning on it changes nothing."""
    bundle, ch = _family_checks("trivial", dim, seed, outcomes)
    omega, B = bundle["omega"], bundle["B"]
    f = {(x, y): float((i + 1) * (j - 1))
         for i, x in enumerate(omega) for j, y in enumerate(B.outcomes)}
    fab = coarse_grain(sequential_product(bundle["inst"], B), f)
    direct = sum(f[x, y] * omega[x] * E for x in omega for y, E in B.pairs())
    ch.matrix("coarse_grained_stochastic", stochastic_operator(fab), direct)
    return ch.result("example5", {"dim": dim, "seed": seed,
                                  "outcomes": outcomes}, 1e-10)


def demo_example6(dim: int = 3, seed: int = 42, outcomes: int = 2) -> dict:
    """Holevo instrument: probability from the measured effect, output state
    reprepared from a fixed family."""
    return _family_checks("holevo", dim, seed, outcomes)[1].result(
        "example6", {"dim": dim, "seed": seed, "outcomes": outcomes}, 1e-10)


def demo_example7(dim: int = 2, seed: int = 42, outcomes: int = 2) -> dict:
    """Lueders instrument: square-root pinching; measures its own observable
    and dephases in the sharp case."""
    _, ch = _family_checks("lueders", dim, seed, outcomes)
    # Sharp special case: measuring along z dephases a Bloch state.
    rho2 = bloch_state((0.3, -0.5, 0.4))
    dephased = lueders_instrument(noisy_spin(1.0, "z")).channel(rho2)
    ch.matrix("sharp_dephasing", dephased.matrix,
              np.diag(np.diag(rho2.matrix)))
    return ch.result("example7", {"dim": dim, "seed": seed,
                                  "outcomes": outcomes}, 1e-10)


def demo_example8() -> dict:
    """Sharp version and conjugate of the qubit POVM with outcomes -1, 0, 1 and
    effects (I + cos t sx + sin t sy)/3, t = 2 pi k/3: the joint P_lam A_x P_lam
    has both as marginals, and A~ = -sx/2 - (sqrt 3/6) sy has eigenvalues +-1/sqrt 3."""
    A = Observable([-1.0, 0.0, 1.0], [(np.eye(2) + np.cos(t) * SIGMA_X + np.sin(t)
                                       * SIGMA_Y) / 3 for t in np.arange(3) * 2 * np.pi / 3])
    ch = _Checks()
    for name in ("conjugate.same_sharp", "sharp.same_stochastic"):
        ch.residuals(name, *CHECKS[name]({"A": A}, RunConfig())[:2])
    joint = conjugate_joint(A)
    for k, marginal in enumerate((sharp_version(A), conjugate(A))):
        ch.residuals(f"key[{k}]_marginal", ("outcomes", "effects"), _matched_observable_delta(
            coarse_grain(joint, lambda key: key[k]), marginal))
    ch.matrix("sharp_outcomes", sharp_version(A).outcomes, np.array([-1.0, 1.0]) / np.sqrt(3.0))
    return {**ch.result("example8", {}, 1e-10),
            "sharp": is_sharp(A), "commutative": is_commutative(A)}


def demo_example9() -> dict:
    """Coarse graining of a four-outcome observable A on C^3 and of its
    Lueders instrument: f(A) for f(x) = x^2, |A| and sign(A)."""
    A = random_observable(np.random.default_rng(5), 3, 4, outcomes=[-2.0, -1.0, 1.0, 2.0])
    bundle = {"A": A, "f_obs": {x: x * x for x in A.outcomes},
              "inst": lueders_instrument(A), "f_inst": {x: abs(x) for x in A.outcomes}}
    ch = _Checks()
    for name in ("coarse_grain.validity", "instrument.coarse_grain_measured"):
        ch.residuals(name, *CHECKS[name](bundle, RunConfig())[:2])
    ch.matrix("sign_outcomes", coarse_grain(A, np.sign).outcomes, [-1.0, 1.0])
    ch.matrix("abs_outcomes", coarse_grain(A, abs).outcomes, [1.0, 2.0])
    return ch.result("example9", {}, 1e-10)


_TERMS = ("commutator_term", "covariance_term", "correlation_term",
          "variance_term", "slack")
_ROW_KEYS = ("mu", "r1", "r2", "r3", *(key for term in _TERMS
                                      for key in (term, f"{term}_delta")),
             "equality")


def sweep_noisy_spin(mu_grid, bloch_vectors) -> dict:
    """Evaluate the noisy-spin uncertainty terms over a grid of (mu, r).

    Each row carries the computed effect-level terms, their deltas against
    the closed forms, and the slack identity slack = (1 - |r|^2) mu^4 / 16,
    which is asserted to hold within ``_SPIN_TOL`` (1e-12).

    All Bloch vectors are validated up front, as ``bloch_state`` validates
    one, so a vector outside the ball is a ``bloch-ball`` error before
    any row is computed; the states built from them are not checked again.
    Each mu then takes one pass of the moment kernel on mu sigma_x and
    mu sigma_y, read with its closed forms as arrays.
    """
    vectors, states = _bloch_matrices(bloch_vectors, TOL_LIN)
    r_columns = vectors.T.tolist()
    rows, maxima = [], []
    for mu in mu_grid:
        A, B = _spin_operator(float(mu), "x"), _spin_operator(float(mu), "y")
        terms = stats._terms(*stats._moments(states, A, B), TOL_STAT)
        ref = noisy_spin_closed_forms(mu, vectors)
        columns = [[float(mu)] * len(vectors), *r_columns]
        # Report fields 0-3 and inequality_slack, at the effect level.
        for key, i in zip(_TERMS, (0, 1, 2, 3, 5)):
            val = terms[i] / 16.0
            delta = abs(val - ref[key])
            columns += [val.tolist(), delta.tolist()]
            maxima.append(delta.max(initial=0.0))
        require_margin(  # the slack identity, first failing row
            delta, _SPIN_TOL,
            lambda k: f"slack identity violated at mu={mu}, r={vectors[k].tolist()}",
            invariant="slack-identity")
        columns.append((np.abs(val) <= _SPIN_TOL).tolist())
        rows.extend(dict(zip(_ROW_KEYS, row)) for row in zip(*columns))
    max_delta = float(np.max(maxima, initial=0.0))  # NaN if any delta is
    return {"schema": SCHEMA_VERSION, "rows": rows, "max_delta": max_delta,
            "tol": _SPIN_TOL, "pass": bool(max_delta <= _SPIN_TOL)}
