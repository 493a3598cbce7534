"""The batched noisy-spin sweep agrees with the single-state uncertainty
report, and a demo's ``pass`` fails on a NaN delta or a mutant of what the
demo shows."""

import math
import sys

import numpy as np
import pytest

from qobs import demos, linalg, statistics as stats
from qobs.demos import demo_example4, sweep_noisy_spin
from qobs.errors import ValidationError
from qobs.observables import Observable, coarse_grain, conjugate
from qobs.qubit import noisy_spin, noisy_spin_closed_forms
from qobs.sampling import random_bloch_vector
from qobs.states import DensityOperator, bloch_state


class TestSweepNoisySpin:
    TERMS = {"commutator_term": "commutator_term",
             "covariance_term": "covariance_sq",
             "correlation_term": "correlation_sq",
             "variance_term": "variance_product",
             "slack": "inequality_slack"}

    @staticmethod
    def _vectors(rng, n):
        """Surface, interior, equatorial and zero Bloch vectors."""
        vectors = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]
        for _ in range(n):
            vectors.append(random_bloch_vector(rng, surface=True))
            vectors.append(random_bloch_vector(rng))
            r = random_bloch_vector(rng)
            vectors.append((r[0], r[1], 0.0))
        return vectors

    @staticmethod
    def _count_calls(monkeypatch):
        built, passes, checked = [], [], []
        init, kernel = DensityOperator.__init__, stats._moments
        check = linalg.hermitian_eigenvalues  # any state check's eigensolve

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counting_kernel(*args):
            passes.append(1)
            return kernel(*args)

        def counting_check(M):
            checked.append(M.shape)
            return check(M)

        monkeypatch.setattr(DensityOperator, "__init__", counting_init)
        monkeypatch.setattr(stats, "_moments", counting_kernel)
        monkeypatch.setattr(linalg, "hermitian_eigenvalues", counting_check)
        return built, passes, checked

    def test_rows_equal_single_state_reports(self, rng):
        mu_grid = [0.0, 0.25, 1.0]
        vectors = self._vectors(rng, 4)
        out = sweep_noisy_spin(mu_grid, vectors)
        assert out["pass"] is True
        assert len(out["rows"]) == len(mu_grid) * len(vectors)
        rows = iter(out["rows"])
        for mu in mu_grid:
            A, B = noisy_spin(mu, "x"), noisy_spin(mu, "y")
            for r in vectors:
                row = next(rows)
                assert (row["mu"], row["r1"], row["r2"], row["r3"]) == (
                    mu, *(float(v) for v in r))
                rep = stats.uncertainty_report(bloch_state(r), A, B)
                for key, field in self.TERMS.items():
                    assert abs(row[key] - getattr(rep, field) / 16.0) <= 1e-15

    def test_builds_each_state_once_and_one_kernel_pass_per_mu(
            self, rng, monkeypatch):
        vectors = [random_bloch_vector(rng, surface=k < 8) for k in range(40)]
        built, passes, checked = self._count_calls(monkeypatch)
        observables = []
        build = Observable._build

        def counting_build(self, *args):
            observables.append(1)
            return build(self, *args)

        monkeypatch.setattr(Observable, "_build", counting_build)
        out = sweep_noisy_spin([0.0, 0.25, 0.5, 0.75, 1.0], vectors)
        assert len(out["rows"]) == 200
        assert built == []  # the vectors are checked, not the states
        assert checked == []
        assert len(passes) == 5
        assert observables == []  # the kernel reads mu sigma directly

    def test_vector_outside_the_ball_fails_before_any_row(self, monkeypatch):
        _, passes, _ = self._count_calls(monkeypatch)
        with pytest.raises(ValidationError) as err:
            sweep_noisy_spin([0.5], [(0.0, 0.0, 0.5), (1.0, 1.0, 0.0)])
        assert err.value.invariant == "bloch-ball"
        assert passes == []

    def test_first_vector_outside_the_ball_is_reported(self):
        with pytest.raises(ValidationError) as err:
            sweep_noisy_spin([0.5], [(0.0, 0.0, 0.5), (0.0, 0.0, 1.5),
                                     (1.0, 1.0, 0.0)])
        assert (err.value.invariant, err.value.field) == ("bloch-ball", "r")
        assert err.value.violation == 0.5
        assert str(err.value) == ("r: a Bloch vector has norm above 1 "
                                  "(violation 5.000e-01, bound 1.000e-09)")

    @pytest.mark.parametrize("vectors", [
        [(0.0, 0.0, 1.0), (0.1, 0.2)],
        [(0.0, 0.0, 1.0), (0.1, 0.2, 0.3, 0.4)],
        [(0.1, 0.2)],
        (0.0, 0.0, 1.0),
    ], ids=["two-reals", "four-reals", "only-two-reals", "bare-vector"])
    def test_malformed_vector_is_bloch_shape(self, monkeypatch, vectors):
        _, passes, _ = self._count_calls(monkeypatch)
        with pytest.raises(ValidationError) as err:
            sweep_noisy_spin([0.5], vectors)
        assert err.value.invariant == "bloch-shape"
        assert passes == []

    @staticmethod
    def _reference_row(mu, r, tol):
        """One row the way a row-by-row sweep builds it: a state, a report
        and the scalar closed forms per vector."""
        rep = stats.uncertainty_report(bloch_state(r), noisy_spin(mu, "x"),
                                       noisy_spin(mu, "y"))
        ref = noisy_spin_closed_forms(mu, r)
        row = {"mu": float(mu), **dict(zip(("r1", "r2", "r3"),
                                           (float(v) for v in r)))}
        for key, field in TestSweepNoisySpin.TERMS.items():
            val = getattr(rep, field) / 16.0
            row[key], row[f"{key}_delta"] = val, abs(val - ref[key])
        row["equality"] = bool(abs(row["slack"]) <= tol)
        return row

    def test_rows_equal_row_by_row_reference_exactly(self, rng):
        """Every value, signed zeros included, compared by repr."""
        axes = [tuple(s * float(i == j) for j in range(3))
                for i in range(3) for s in (1.0, -1.0)]
        vectors = [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.5, -0.0, 0.0),
                   *axes, *self._vectors(rng, 6)]
        mu_grid = [0.3, 0.9, 0.0, 1.0]
        out = sweep_noisy_spin(mu_grid, vectors)
        expected = [self._reference_row(mu, r, out["tol"])
                    for mu in mu_grid for r in vectors]
        assert repr(out["rows"]) == repr(expected)
        assert out["max_delta"] == max(
            row[f"{key}_delta"] for row in expected for key in self.TERMS)

    def test_closed_forms_off_by_1e9_fail_the_slack_identity(self,
                                                               monkeypatch):
        def off(mu, r):
            return {key: value + 1e-9
                    for key, value in noisy_spin_closed_forms(mu, r).items()}

        monkeypatch.setattr(demos, "noisy_spin_closed_forms", off)
        with pytest.raises(ValidationError) as err:
            sweep_noisy_spin([0.5], [(0.0, 0.0, 1.0), (0.3, 0.4, 0.2)])
        assert err.value.invariant == "slack-identity"
        assert err.value.violation == pytest.approx(1e-9)

    def test_empty_grids_give_no_rows(self):
        for mu_grid, vectors in (([], [(0.0, 0.0, 1.0)]), ([0.5], [])):
            out = sweep_noisy_spin(mu_grid, vectors)
            assert out["rows"] == [] and out["pass"] is True
            assert out["max_delta"] == 0.0

    def test_a_nan_delta_fails_the_sweep(self, monkeypatch):
        """A NaN in a column the slack identity does not guard makes
        ``max_delta`` NaN and fails ``pass``, though finite deltas follow it."""
        def lost(mu, r):
            return {**noisy_spin_closed_forms(mu, r), "commutator_term": math.nan}

        monkeypatch.setattr(demos, "noisy_spin_closed_forms", lost)
        out = sweep_noisy_spin([0.5], [(0.0, 0.0, 1.0), (0.3, 0.4, 0.2)])
        assert all(math.isnan(row["commutator_term_delta"]) for row in out["rows"])
        assert out["pass"] is False and math.isnan(out["max_delta"])


def test_demo_example4_decides_equality_as_the_sweep_does():
    # Effect-level slack 5e-12 / 16 = 3.1e-13 is within 1e-12; the
    # observable-level slack 5e-12 is not.
    r = (0.0, 0.0, math.sqrt(1.0 - 5e-12))
    out = demo_example4(1.0, r)
    slack = next(c["computed"] for c in out["checks"] if c["name"] == "slack")
    assert 1e-13 < slack < 1e-12
    row, = sweep_noisy_spin([1.0], [r])["rows"]
    assert row["slack"] == slack
    assert out["equality"] is row["equality"] is True


def test_a_nan_delta_fails_a_demo_wherever_it_stands():
    """``pass`` holds only if every delta is within the threshold: a NaN
    delta after a finite one fails it, and ``max_delta`` is NaN."""
    checks = demos._Checks()
    checks.scalar("exact", 1.0, 1.0)
    checks.scalar("lost", math.nan, 0.0)
    out = checks.result("probe", {}, 1e-12)
    assert [row["delta"] for row in out["checks"]][0] == 0.0
    assert out["pass"] is False and math.isnan(out["max_delta"])


def _mutate(monkeypatch, original, mutant):
    """Bind ``mutant`` to every name a qobs module binds ``original`` to."""
    for name, module in list(sys.modules.items()):
        if name == "qobs" or name.startswith("qobs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, mutant)


def _reversed_coarse_grain(A, f):
    """coarse_grain with the fiber values assigned in reverse order."""
    fA = coarse_grain(A, f)
    return Observable.__new__(Observable)._build(fA.outcomes, fA.effects[::-1])


@pytest.mark.parametrize("demo, original, mutant, failing", [
    (demos.demo_example8, conjugate, lambda A, cluster_tol=None: A,
     {"key[1]_marginal.effects"}),
    (demos.demo_example9, coarse_grain, _reversed_coarse_grain,
     {"coarse_grain.validity.stochastic",
      "instrument.coarse_grain_measured.effects"}),
], ids=["example8-conjugate-is-identity", "example9-reversed-fiber-values"])
def test_a_mutant_of_what_a_demo_shows_fails_it(monkeypatch, demo, original,
                                                 mutant, failing):
    """The rows that read the mutated function fail, and with them ``pass``."""
    assert demo()["pass"] is True
    _mutate(monkeypatch, original, mutant)
    out = demo()
    assert out["pass"] is False
    assert {row["name"] for row in out["checks"]
            if not row["delta"] <= out["threshold"]} == failing
