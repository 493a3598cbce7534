"""Averages, correlations, the uncertainty principle, equality diagnosis."""

import math
import warnings

import numpy as np
import pytest

from qobs import statistics as stats
from qobs.errors import InternalConsistencyError, ValidationError
from qobs.linalg import require_hermitian
from qobs.observables import Observable, sharp_version, stochastic_operator
from qobs.qubit import SIGMA_X, SIGMA_Y, noisy_spin
from qobs.sampling import (
    ginibre,
    haar_unitary,
    random_bloch_vector,
    random_density,
    random_faithful_density,
    random_hermitian,
    random_observable,
)
from qobs.states import DensityOperator, bloch_state, maximally_mixed

from conftest import max_abs_diff


def example1_fixture():
    """Pure state on which two noncommuting projections are uncorrelated."""
    rho = DensityOperator(np.diag([1.0, 0.0]))
    phi = np.array([0.0, 1.0])
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    A = np.outer(phi, phi.conj()).astype(complex)
    B = np.outer(psi, psi.conj()).astype(complex)
    return rho, A, B


class TestAverage:
    def test_noisy_spin_closed_form(self):
        for mu in (0.0, 0.3, 1.0):
            for r in ((0.2, 0.1, -0.4), (0.6, 0.0, 0.8)):
                rho = bloch_state(r)
                assert stats.average(rho, noisy_spin(mu, "x")) == \
                    pytest.approx(r[0] * mu, abs=1e-14)
                assert stats.average(rho, noisy_spin(mu, "y")) == \
                    pytest.approx(r[1] * mu, abs=1e-14)

    def test_identity_operator(self, rng):
        rho = random_density(rng, 3)
        assert stats.average(rho, np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_dichotomic_closed_form(self, rng):
        rho = random_density(rng, 3)
        A = random_observable(rng, 3, 2, outcomes=[1.0, -1.0])
        A1 = A.effects[A.outcomes.index(1.0)]
        p = np.trace(rho.matrix @ A1).real
        assert stats.average(rho, A) == pytest.approx(2 * p - 1, abs=1e-12)

    def test_rejects_non_hermitian_operator(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(ValidationError) as err:
            stats.average(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert err.value.invariant == "hermitian"

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError) as err:
            stats.average(random_density(rng, 2), np.eye(3))
        assert err.value.invariant == "matching-dims"


class TestDeviation:
    def test_dichotomic_closed_form(self, rng):
        rho = random_density(rng, 2)
        A = random_observable(rng, 2, 2, outcomes=[1.0, -1.0])
        A1 = A.effects[A.outcomes.index(1.0)]
        p = np.trace(rho.matrix @ A1).real
        assert max_abs_diff(stats.deviation(rho, A),
                            2 * (A1 - p * np.eye(2))) < 1e-12

    def test_scalar_operator_has_zero_deviation(self, rng):
        rho = random_density(rng, 3)
        assert max_abs_diff(stats.deviation(rho, 2.5 * np.eye(3)),
                            np.zeros((3, 3))) < 1e-12

    def test_traceless_against_state(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            A = random_hermitian(rng, 4)
            dev = stats.deviation(rho, A)
            assert abs(np.trace(rho.matrix @ dev)) < 1e-12


class TestCorrelation:
    def test_uncorrelated_noncommuting_fixture(self):
        rho, A, B = example1_fixture()
        assert abs(stats.correlation(rho, A, B)) <= 1e-15
        assert np.max(np.abs(A @ B - B @ A)) == pytest.approx(0.5)

    def test_noisy_spin_closed_form(self):
        mu = 0.9
        r = (0.3, -0.5, 0.6)
        rho = bloch_state(r)
        cor = stats.correlation(rho, noisy_spin(mu, "x"), noisy_spin(mu, "y"))
        expected = -r[0] * r[1] * mu ** 2 + 1j * r[2] * mu ** 2
        assert abs(cor - expected) < 1e-14

    def test_self_correlation_is_nonnegative_variance(self, rng):
        for _ in range(20):
            rho = random_density(rng, 3)
            A = random_hermitian(rng, 3)
            val = stats.correlation(rho, A, A)
            assert abs(val.imag) < 1e-12
            assert val.real >= -1e-9

    def test_conjugate_symmetry(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
            assert abs(stats.correlation(rho, A, B)
                       - np.conj(stats.correlation(rho, B, A))) < 1e-12

    def test_equals_deviation_product_form(self, rng):
        for _ in range(20):
            rho = random_density(rng, 3)
            A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
            via_deviation = np.trace(rho.matrix @ stats.deviation(rho, A)
                                     @ stats.deviation(rho, B))
            assert abs(stats.correlation(rho, A, B) - via_deviation) < 1e-12

    def test_maximally_mixed_closed_form(self, rng):
        n = 4
        rho = maximally_mixed(n)
        for _ in range(10):
            A, B = random_hermitian(rng, n), random_hermitian(rng, n)
            expected = (np.trace(A @ B) / n
                        - np.trace(A) * np.trace(B) / n ** 2)
            assert abs(stats.correlation(rho, A, B) - expected) < 1e-12

    def test_dichotomic_effect_identity(self, rng):
        rho = random_density(rng, 3)
        A = random_observable(rng, 3, 2, outcomes=[1.0, -1.0])
        B = random_observable(rng, 3, 2, outcomes=[1.0, -1.0])
        A1 = A.effects[A.outcomes.index(1.0)]
        B1 = B.effects[B.outcomes.index(1.0)]
        pa = np.trace(rho.matrix @ A1).real
        pb = np.trace(rho.matrix @ B1).real
        expected = 4 * (complex(np.trace(rho.matrix @ A1 @ B1)) - pa * pb)
        assert abs(stats.correlation(rho, A, B) - expected) < 1e-12


class TestVariance:
    def test_noisy_spin_closed_form(self):
        mu, r = 0.8, (0.3, 0.2, -0.1)
        rho = bloch_state(r)
        assert stats.variance(rho, noisy_spin(mu, "x")) == \
            pytest.approx(mu ** 2 * (1 - r[0] ** 2), abs=1e-13)

    def test_scalar_operator_has_zero_variance(self, rng):
        rho = random_density(rng, 3)
        assert stats.variance(rho, 3.0 * np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_covariance_is_real_part(self, rng):
        rho = random_density(rng, 3)
        A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert stats.covariance(rho, A, B) == \
            pytest.approx(stats.correlation(rho, A, B).real)

    def test_second_moment_closed_form(self):
        mu, r = 0.6, (0.4, -0.2, 0.3)
        rho = bloch_state(r)
        A1 = (np.eye(2) + mu * SIGMA_X) / 2
        assert np.trace(rho.matrix @ A1 @ A1).real == \
            pytest.approx((1 + mu ** 2) / 4 + mu * r[0] / 2, abs=1e-14)


class TestCommutatorExpectation:
    def test_commuting_operators(self, rng):
        rho = random_density(rng, 3)
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        B = np.diag([-1.0, 0.5, 2.0]).astype(complex)
        assert abs(stats.commutator_expectation(rho, A, B)) < 1e-14

    def test_equal_operators(self, rng):
        rho = random_density(rng, 3)
        A = random_hermitian(rng, 3)
        assert abs(stats.commutator_expectation(rho, A, A)) < 1e-14

    def test_purely_imaginary_and_identity(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
            val = stats.commutator_expectation(rho, A, B)
            assert abs(val.real) < 1e-12
            ident = 2j * np.trace(rho.matrix @ A @ B).imag
            assert abs(val - ident) < 1e-12

    def test_noisy_spin_effect_level_term(self):
        mu, r = 0.7, (0.1, 0.5, -0.6)
        rho = bloch_state(r)
        val = stats.commutator_expectation(rho, noisy_spin(mu, "x"),
                                           noisy_spin(mu, "y"))
        # (1/4)|.|^2 / 16 = [Im tr(rho A1 B1)]^2 = r3^2 mu^4 / 16
        assert abs(val) ** 2 / 4 / 16 == \
            pytest.approx(r[2] ** 2 * mu ** 4 / 16, abs=1e-14)

    def test_effect_level_double_sum_for_observables(self, rng):
        rho = random_density(rng, 3)
        A = random_observable(rng, 3, 3)
        B = random_observable(rng, 3, 2)
        double_sum = 2j * sum(
            x * y * np.trace(rho.matrix @ Ex @ Ey).imag
            for x, Ex in A.pairs() for y, Ey in B.pairs())
        assert abs(stats.commutator_expectation(rho, A, B)
                   - double_sum) < 1e-12


class TestUncertaintyReport:
    def test_nan_identity_fails_even_at_infinite_tolerance(self):
        """At I/2, A = B = diag(1e200, -1e200) overflows Var(A)^2 and |Cor|^2
        to inf, so the equation residual is NaN; it must not pass."""
        D = np.diag([1e200, -1e200])
        with np.errstate(invalid="ignore"):  # inf - inf
            with pytest.raises(InternalConsistencyError) as err:
                stats.uncertainty_report(maximally_mixed(2), D, D, tol=np.inf)
        assert err.value.invariant == "uncertainty-equation"
        assert np.isnan(err.value.violation)

    def test_sharp_spins_at_north_pole(self):
        rho = bloch_state((0.0, 0.0, 1.0))
        rep = stats.uncertainty_report(rho, noisy_spin(1.0, "x"),
                                       noisy_spin(1.0, "y"))
        # Effect-level terms (divide by 16): (1/16, 0, 1/16, 1/16).
        assert rep.commutator_term / 16 == pytest.approx(1 / 16, abs=1e-14)
        assert rep.covariance_sq == pytest.approx(0.0, abs=1e-14)
        assert rep.correlation_sq / 16 == pytest.approx(1 / 16, abs=1e-14)
        assert rep.variance_product / 16 == pytest.approx(1 / 16, abs=1e-14)
        assert abs(rep.inequality_slack) < 1e-14

    def test_equal_arguments(self, rng):
        rho = random_density(rng, 3)
        A = random_hermitian(rng, 3)
        rep = stats.uncertainty_report(rho, A, A)
        var = stats.variance(rho, A)
        assert rep.commutator_term == pytest.approx(0.0, abs=1e-12)
        assert rep.covariance_sq == pytest.approx(var ** 2, rel=1e-10)
        assert rep.correlation_sq == pytest.approx(var ** 2, rel=1e-10)
        assert rep.variance_product == pytest.approx(var ** 2, rel=1e-10)

    def test_equation_residual_small_on_random_input(self, rng):
        for _ in range(50):
            rho = random_density(rng, 4)
            A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
            rep = stats.uncertainty_report(rho, A, B)
            scale = max(1.0, rep.correlation_sq)
            assert abs(rep.equation_residual) <= 1e-10 * scale
            assert rep.inequality_slack >= -1e-10 * scale

    def test_robertson_heisenberg_corollary(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
            rep = stats.uncertainty_report(rho, A, B)
            assert rep.commutator_term <= rep.variance_product \
                + 1e-9 * max(1.0, rep.variance_product)

    def test_observable_and_operator_paths_agree_exactly(self, rng):
        rho = random_density(rng, 3)
        A = random_observable(rng, 3, 3)
        B = random_observable(rng, 3, 2)
        assert stats.correlation(rho, A, B) == stats.correlation(
            rho, stochastic_operator(A), stochastic_operator(B))

    def test_sharp_version_statistics_agree(self, rng):
        for _ in range(10):
            rho = random_density(rng, 3)
            A = random_observable(rng, 3, 3)
            B = random_observable(rng, 3, 2)
            assert abs(stats.correlation(rho, A, B)
                       - stats.correlation(rho, sharp_version(A),
                                           sharp_version(B))) < 1e-9
            assert abs(stats.average(rho, A)
                       - stats.average(rho, sharp_version(A))) < 1e-10


def _fit_residual(diag, rho, A, B) -> float:
    """max |B - Re(c) A - beta I| for the relation the diagnosis reads off,
    beta = <B> - Re(c) <A>."""
    a = diag.slope.real
    beta = stats.average(rho, B) - a * stats.average(rho, A)
    return max_abs_diff(B, a * A + beta * np.eye(A.shape[0]))


class TestEqualityAtTheMaximallyMixedState:
    """The Hilbert-Schmidt fit B ~ alpha A + beta I is the rule at I/d."""

    def test_recovers_constructed_relation(self, rng):
        A = random_hermitian(rng, 3)
        B = 2.0 * A + 3.0 * np.eye(3)
        diag = stats.equality_diagnosis(maximally_mixed(3), A, B)
        assert diag.inequality_is_equality
        assert diag.slope == pytest.approx(2.0, abs=1e-12)
        assert _fit_residual(diag, maximally_mixed(3), A, B) < 1e-12

    def test_pauli_pair_has_no_relation(self):
        diag = stats.equality_diagnosis(maximally_mixed(2), SIGMA_X, SIGMA_Y)
        assert not diag.inequality_is_equality
        assert diag.slope == 0.0
        assert diag.relative_slack == 1.0  # R = sigma_y: tr(rho R*R) = Var(B)

    def test_identity_fit(self, rng):
        A = random_hermitian(rng, 4)
        diag = stats.equality_diagnosis(maximally_mixed(4), A, A)
        assert diag.inequality_is_equality and diag.three_way_equality
        assert diag.slope == pytest.approx(1.0, abs=1e-12)

    def test_dims_must_match(self):
        with pytest.raises(ValidationError) as err:
            stats.equality_diagnosis(maximally_mixed(2), SIGMA_X, np.eye(3))
        assert (err.value.invariant, err.value.field) == ("matching-dims", "B")

    def test_scalar_operand_is_related_to_every_operand(self):
        """A = 2I has no variance: A = 0 B + 2I, so the bound is tight."""
        for B in (3.0 * np.eye(2), np.diag([1.0, -1.0])):
            diag = stats.equality_diagnosis(maximally_mixed(2), 2.0 * np.eye(2), B)
            assert diag.inequality_is_equality and diag.three_way_equality
            assert (diag.slope, diag.relative_slack) == (0.0, 0.0)


class TestEqualityDiagnosis:
    def test_faithful_state_with_affine_relation(self, rng):
        rho = maximally_mixed(3)
        A = random_hermitian(rng, 3)
        B = -1.5 * A + 0.25 * np.eye(3)
        diag = stats.equality_diagnosis(rho, A, B)
        assert diag.faithful
        assert diag.inequality_is_equality
        assert diag.three_way_equality
        assert diag.slope == pytest.approx(-1.5, abs=1e-10)

    def test_faithful_state_with_unrelated_pair(self):
        rho = maximally_mixed(2)
        diag = stats.equality_diagnosis(rho, noisy_spin(1.0, "x"),
                                        noisy_spin(1.0, "y"))
        assert diag.faithful
        assert not diag.inequality_is_equality
        assert diag.relative_slack == 1.0

    def test_non_faithful_state_is_tight_without_a_relation(self):
        # Pure state, deviations of A and B agree on its range but the
        # operators are not affinely related: R vanishes only on the range.
        rho = DensityOperator(np.diag([1.0, 0.0]))
        A = SIGMA_X
        B = np.array([[0.0, 1.0], [1.0, 5.0]], dtype=complex)
        diag = stats.equality_diagnosis(rho, A, B)
        assert not diag.faithful
        assert diag.inequality_is_equality
        assert diag.slope == 1.0
        assert _fit_residual(diag, rho, A, B) == 5.0

    def test_validates_each_operand_once(self, monkeypatch):
        calls = []

        def counting(M, *args, **kwargs):
            calls.append(kwargs.get("name"))
            return require_hermitian(M, *args, **kwargs)

        monkeypatch.setattr(stats, "require_hermitian", counting)
        B = np.array([[0.0, 1.0], [1.0, 5.0]], dtype=complex)
        stats.equality_diagnosis(maximally_mixed(2), SIGMA_X, B)
        assert calls == ["A", "B"]

    def test_report_is_uncertainty_report(self, rng):
        rho = random_density(rng, 3)
        A, B = random_observable(rng, 3, 3), random_observable(rng, 3, 2)
        assert stats.equality_diagnosis(rho, A, B, tol=1e-7).report == \
            stats.uncertainty_report(rho, A, B, tol=1e-7)


class TestOneEqualityRule:
    """g = slack / (Var(A) Var(B)) <= tol, by Lagrange's identity
    tr(rho R*R) / Var(B) with R = B0 - c A0: one scale-free number."""

    @staticmethod
    def _seeded_pair(rng, eps, d=4):
        """A faithful state and B = 0.7 A + 0.2 I + eps E."""
        rho = random_faithful_density(rng, d)
        A, E = random_hermitian(rng, d), random_hermitian(rng, d)
        return rho, A, 0.7 * A + 0.2 * np.eye(d) + eps * E

    def test_relation_seeded_pairs_are_equal_only_near_the_relation(self, rng):
        """The faithful d = 4 pairs at which the old fit and the old gap
        disagreed (eps 1e-7..1e-5): g is second order in eps."""
        for eps, equal in [(0.0, True), (1e-12, True), (1e-10, True),
                           (1e-9, True), (1e-4, False), (1e-3, False),
                           (1e-2, False), (1.0, False)]:
            for _ in range(20):
                diag = stats.equality_diagnosis(*self._seeded_pair(rng, eps))
                assert diag.faithful
                assert diag.inequality_is_equality is equal, (eps, diag)

    def test_exact_relations_read_off_alpha_and_beta(self, rng):
        for i in range(100):
            d = 2 + i % 6
            rho = random_faithful_density(rng, d)
            A = random_hermitian(rng, d)
            alpha, beta = rng.uniform(-3, 3, size=2)
            B = alpha * A + beta * np.eye(d)
            diag = stats.equality_diagnosis(rho, A, B)
            assert diag.inequality_is_equality and diag.three_way_equality
            a = diag.slope.real
            assert abs(a - alpha) <= 1e-8
            assert abs(stats.average(rho, B) - a * stats.average(rho, A) - beta) <= 1e-8

    def test_unrelated_faithful_pairs_are_never_equal(self, rng):
        for i in range(500):
            d = 2 + i % 7
            diag = stats.equality_diagnosis(random_faithful_density(rng, d),
                                            random_hermitian(rng, d),
                                            random_hermitian(rng, d))
            assert not diag.inequality_is_equality

    @pytest.mark.parametrize("k", [-30, -10, 10, 30])
    def test_scaling_by_a_power_of_two_moves_no_bit(self, rng, k):
        for eps in (0.0, 1e-6, 1e-2, 1.0):
            rho, A, B = self._seeded_pair(rng, eps, d=3)
            diag = stats.equality_diagnosis(rho, A, B)
            for sA, sB in ((2.0 ** k, 2.0 ** k), (2.0 ** k, 1.0)):
                scaled = stats.equality_diagnosis(rho, sA * A, sB * B)
                assert scaled.relative_slack == diag.relative_slack
                assert scaled.inequality_is_equality is diag.inequality_is_equality
                assert scaled.three_way_equality is diag.three_way_equality

    def test_unrelated_pair_at_scale_1e_10_is_not_equal(self, rng):
        """The old fit took any A with entries below tol_lin as a multiple of I."""
        rho = random_faithful_density(rng, 3)
        diag = stats.equality_diagnosis(rho, 1e-10 * random_hermitian(rng, 3),
                                        1e-10 * random_hermitian(rng, 3))
        assert not diag.inequality_is_equality

    def test_zero_variance_is_trivially_tight(self, rng):
        """A pure eigenstate of A, also of eigenvalue 0, and d = 1: every
        term is zero up to rounding, so no quotient of rounding is formed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(40):
                d = 2 + i % 5
                U = haar_unitary(rng, d)
                w = rng.normal(size=d)
                w[i % d] = 0.0 if i % 2 else w[i % d]
                A = (U * w) @ U.conj().T
                rho = DensityOperator(np.outer(U[:, i % d], U[:, i % d].conj()))
                diag = stats.equality_diagnosis(rho, A, random_hermitian(rng, d))
                assert diag.inequality_is_equality and diag.three_way_equality
                assert (diag.slope, diag.relative_slack) == (0.0, 0.0)
            diag = stats.equality_diagnosis(DensityOperator(np.eye(1)),
                                            np.array([[2.0]]), np.array([[-3.0]]))
            assert diag.inequality_is_equality and diag.three_way_equality

    def test_adding_a_multiple_of_identity_moves_g_by_rounding(self, rng):
        for i in range(50):
            d = 2 + i % 5
            rho = random_faithful_density(rng, d)
            A, B = random_hermitian(rng, d), random_hermitian(rng, d)
            g = stats.equality_diagnosis(rho, A, B).relative_slack
            shifted = stats.equality_diagnosis(rho, A + 1e3 * np.eye(d), B)
            assert abs(shifted.relative_slack - g) < 1e-10

    @pytest.mark.parametrize("shift", [1e5, 1e6, 1e8])
    def test_a_large_multiple_of_identity_is_no_zero_variance(self, shift):
        """The guard weighs a variance against the rounding of its deviation,
        ||X|| ||D||, not against ||X||^2, which a shift by cI inflates."""
        diag = stats.equality_diagnosis(maximally_mixed(2),
                                        SIGMA_X + shift * np.eye(2), SIGMA_Y)
        assert not diag.inequality_is_equality
        assert diag.relative_slack == pytest.approx(1.0, abs=1e-6)


def _guard_outcome(rho, A, B, tol):
    """None if ``uncertainty_report`` passes its guard, else the failing
    identity and its violation / bound."""
    try:
        stats.uncertainty_report(rho, A, B, tol=tol)
    except InternalConsistencyError as exc:
        return exc.invariant, exc.violation / exc.bound
    return None


class TestGuardScale:
    """The guard bounds both identities by tol (||A~||_F ||B~||_F)^2, the
    scale at which the raw moments round, and not by max(1, |Cor|^2)."""

    @pytest.mark.parametrize("norm", [1e3, 1e4, 1e5, 1e6])
    def test_a_pure_eigenstate_of_a_large_operand_passes(self, norm):
        """Var(A) = <A^2> - <A>^2 rounds to about eps ||A||^2 below 0 while
        |Cor|^2 is about 0: a floored bound raised on such valid input."""
        rng = np.random.default_rng([7, int(math.log10(norm))])
        for k in range(200):
            d = 2 + k % 4
            U = haar_unitary(rng, d)
            A = (U * (norm * rng.standard_normal(d))) @ U.conj().T
            B = random_hermitian(rng, d)
            rho = DensityOperator(np.outer(U[:, 0], U[:, 0].conj()))
            stats.uncertainty_report(rho, A, B / np.abs(B).max())

    @pytest.mark.parametrize("norm", [1e-6, 1.0, 1e6])
    def test_a_perturbed_commutator_fails_at_every_norm(self, monkeypatch, norm):
        """tr(rho B A) moved by 10% of |Cor| along the commutator breaks the
        equation at every operand norm; at 1e-6 a floored bound took it."""
        moments = stats._moments

        def perturbed(rho, *operands):
            X, means, M = moments(rho, *operands)
            cor = M[0, 1] - means[0] * means[1]
            comm = M[0, 1] - M[1, 0]
            M = M.copy()
            M[1, 0] -= 0.1 * abs(cor) * (comm / abs(comm) if comm else 1j)
            return X, means, M

        monkeypatch.setattr(stats, "_moments", perturbed)
        rng = np.random.default_rng(11)
        for k in range(50):
            d = 2 + k % 4
            rho = random_density(rng, d)
            A, B = (norm * random_hermitian(rng, d) for _ in range(2))
            with pytest.raises(InternalConsistencyError) as err:
                stats.uncertainty_report(rho, A, B)
            assert err.value.invariant == "uncertainty-equation"

    def test_scaling_by_powers_of_two_keeps_every_decision(self):
        """Residuals and bound scale alike under A -> 2^k A, B -> 2^j B, so
        each pass or failure, and its ratio, is bit-identical."""
        rng = np.random.default_rng(3)
        outcomes = []
        for k in range(40):
            d = 2 + k % 4
            rho = random_density(rng, d)
            A, B = random_hermitian(rng, d), random_hermitian(rng, d)
            outcome = _guard_outcome(rho, A, B, 1e-18)
            for i, j in ((-30, 10), (30, -10), (20, 20)):
                assert _guard_outcome(rho, 2.0 ** i * A, 2.0 ** j * B, 1e-18) == outcome
            outcomes.append(outcome)
        assert None in outcomes and any(outcomes)  # both decisions are seen

    def test_subnormal_terms_pass(self):
        """At operand norm 1e-80 the terms are subnormal and round by an
        absolute amount, which the least normal double bounds."""
        rng = np.random.default_rng(13)
        for k in range(100):
            d = 2 + k % 4
            rho = random_density(rng, d)
            A, B = (1e-80 * random_hermitian(rng, d) for _ in range(2))
            stats.uncertainty_report(rho, A, B)

    def test_a_zero_operand_passes_at_every_tolerance(self, rng):
        rho, A = random_density(rng, 3), random_hermitian(rng, 3)
        for tol in (0.0, 1e-9, np.inf):
            rep = stats.uncertainty_report(rho, np.zeros((3, 3)), A, tol=tol)
            assert (rep.equation_residual, rep.inequality_slack) == (0.0, 0.0)


class TestNoisySpinClosedForms:
    """Full closed-form battery over a mu grid and random Bloch vectors."""

    @pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_all_quantities(self, mu, rng):
        A, B = noisy_spin(mu, "x"), noisy_spin(mu, "y")
        for _ in range(10):
            r = random_bloch_vector(rng)
            r1, r2, r3 = r
            rho = bloch_state(r)
            rep = stats.uncertainty_report(rho, A, B)
            assert stats.average(rho, A) == pytest.approx(r1 * mu, abs=1e-12)
            assert stats.average(rho, B) == pytest.approx(r2 * mu, abs=1e-12)
            assert stats.variance(rho, A) == \
                pytest.approx(mu ** 2 * (1 - r1 ** 2), abs=1e-12)
            assert stats.variance(rho, B) == \
                pytest.approx(mu ** 2 * (1 - r2 ** 2), abs=1e-12)
            assert rep.commutator_term / 16 == \
                pytest.approx(r3 ** 2 * mu ** 4 / 16, abs=1e-12)
            assert rep.covariance_sq / 16 == \
                pytest.approx((r1 * r2) ** 2 * mu ** 4 / 16, abs=1e-12)
            assert rep.correlation_sq / 16 == \
                pytest.approx((r3 ** 2 + (r1 * r2) ** 2) * mu ** 4 / 16,
                              abs=1e-12)
            assert rep.variance_product / 16 == \
                pytest.approx((1 - r1 ** 2) * (1 - r2 ** 2) * mu ** 4 / 16,
                              abs=1e-12)
            A1 = A.effects[A.outcomes.index(1.0)]
            assert np.trace(rho.matrix @ A1 @ A1).real == \
                pytest.approx((1 + mu ** 2) / 4 + mu * r1 / 2, abs=1e-12)

    def test_planar_bloch_vectors_kill_commutator_term(self, rng):
        A, B = noisy_spin(0.8, "x"), noisy_spin(0.8, "y")
        for _ in range(10):
            r = random_bloch_vector(rng)
            rho = bloch_state((r[0], r[1], 0.0))
            rep = stats.uncertainty_report(rho, A, B)
            assert rep.commutator_term == pytest.approx(0.0, abs=1e-13)


def _direct_terms(rho, A, B) -> dict:
    """Every statistic from np.trace of explicit products, one at a time."""
    R = rho.matrix
    mean_a = np.trace(R @ A).real
    mean_b = np.trace(R @ B).real
    cor = complex(np.trace(R @ A @ B)) - mean_a * mean_b
    comm = complex(np.trace(R @ (A @ B - B @ A)))
    var_a = np.trace(R @ A @ A).real - mean_a ** 2
    var_b = np.trace(R @ B @ B).real - mean_b ** 2
    out = {"mean_a": mean_a, "cor": cor, "comm": comm, "var_a": var_a,
           "commutator_term": 0.25 * abs(comm) ** 2,
           "covariance_sq": cor.real ** 2, "correlation_sq": abs(cor) ** 2,
           "variance_product": var_a * var_b}
    out["equation_residual"] = (out["commutator_term"] + out["covariance_sq"]
                                - out["correlation_sq"])
    out["inequality_slack"] = out["variance_product"] - out["correlation_sq"]
    return out


def _direct_stochastic(A) -> np.ndarray:
    return sum(x * E for x, E in A.pairs())


class TestMomentKernel:
    """The shared moment kernel against an independent reference, over
    observables and bare matrices, full-rank and pure states."""

    REPORT_FIELDS = ("commutator_term", "covariance_sq", "correlation_sq",
                     "variance_product", "equation_residual",
                     "inequality_slack")

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 16])
    def test_every_statistic_matches_explicit_traces(self, rng, d):
        def close(got, want):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)

        for rho in (random_density(rng, d), random_density(rng, d, rank=1)):
            A, B = random_observable(rng, d, 3), random_observable(rng, d, 2)
            H, K = random_hermitian(rng, d), random_hermitian(rng, d)
            for a, b, opa, opb in ((A, B, _direct_stochastic(A),
                                    _direct_stochastic(B)), (H, K, H, K)):
                ref = _direct_terms(rho, opa, opb)
                rep = stats.uncertainty_report(rho, a, b)
                for field in self.REPORT_FIELDS:
                    close(getattr(rep, field), ref[field])
                close(stats.correlation(rho, a, b), ref["cor"])
                close(stats.commutator_expectation(rho, a, b), ref["comm"])
                close(stats.variance(rho, a), ref["var_a"])
                close(stats.average(rho, a), ref["mean_a"])

    def test_stochastic_operator_is_stored_read_only(self, rng):
        for d in (1, 2, 5):
            A = random_observable(rng, d, 3)
            S = stochastic_operator(A)
            assert S is stochastic_operator(A)
            assert not S.flags.writeable
            with pytest.raises(ValueError):
                S[0, 0] = 0.0
            direct = _direct_stochastic(A)
            assert max_abs_diff(S, direct) <= 1e-15 * max(
                1.0, float(np.max(np.abs(direct))))

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_batched_reports_match_single_state_reports(self, rng, d):
        states = [random_density(rng, d, rank=1 + k % d) for k in range(6)]
        stack = np.array([rho.matrix for rho in states])
        A, H = random_observable(rng, d, 3), random_hermitian(rng, d)
        for a, b in ((A, H), (H, A), (A, A)):
            terms = stats._terms(*stats._moments(stack, a, b), stats.TOL_STAT)
            assert [len(t) for t in terms] == [len(states)] * 6
            for k, rho in enumerate(states):
                want = stats.uncertainty_report(rho, a, b)
                for field, t in zip(self.REPORT_FIELDS, terms):
                    got, ref = t[k], getattr(want, field)
                    assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref))
            # Further leading axes flatten in row-major order.
            terms2 = stats._terms(*stats._moments(stack.reshape(2, 3, d, d), a, b),
                                  stats.TOL_STAT)
            assert [t.tolist() for t in terms2] == [t.tolist() for t in terms]

    def test_guard_fires_on_both_paths(self, rng):
        """At tol 0 the last-bit equation residual at this Bloch vector
        fails the guard, for one state and for the first of a stack."""
        states = [bloch_state([0.3, 0.4, 0.2])] + [random_density(rng, 2)
                                                   for _ in range(2)]
        A, B = noisy_spin(1.0, "x"), noisy_spin(1.0, "y")
        with pytest.raises(InternalConsistencyError) as single:
            stats.uncertainty_report(states[0], A, B, tol=0.0)
        moments = stats._moments(np.array([r.matrix for r in states]), A, B)
        with pytest.raises(InternalConsistencyError) as batched:
            stats._terms(*moments, 0.0)
        assert str(batched.value) == str(single.value)
        assert "uncertainty equation residual" in str(single.value)

    def test_guard_names_the_first_failing_state(self, rng):
        states = [random_density(rng, 4) for _ in range(8)]
        A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
        scale = (np.linalg.norm(A) * np.linalg.norm(B)) ** 2  # the guard's
        ratios = [abs(r.equation_residual) / scale
                  for r in (stats.uncertainty_report(rho, A, B, tol=np.inf)
                            for rho in states)]
        # The median ratio as tolerance fails several states; the guard must
        # name the first of them in stack order.
        tol = float(np.median(ratios))
        failing = [k for k, ratio in enumerate(ratios) if ratio > tol]
        assert len(failing) > 1
        first = failing[0]
        moments = stats._moments(np.array([r.matrix for r in states]), A, B)
        with pytest.raises(InternalConsistencyError) as batched:
            stats._terms(*moments, tol)
        with pytest.raises(InternalConsistencyError) as single:
            stats.uncertainty_report(states[first], A, B, tol=tol)
        assert str(batched.value) == str(single.value)

    def test_string_keys_have_no_stochastic_operator(self):
        A = Observable(["up", "down"], [np.diag([1.0, 0.0]),
                                        np.diag([0.0, 1.0])])
        with pytest.raises(ValidationError) as exc:
            stochastic_operator(A)
        assert exc.value.invariant == "real-outcomes"
        with pytest.raises(ValidationError):
            stats.average(maximally_mixed(2), A)
