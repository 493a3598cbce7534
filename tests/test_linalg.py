"""Matrix arithmetic and spectral primitives."""

import numpy as np
import pytest

from qobs import linalg
from qobs.errors import ValidationError
from qobs.instruments import Instrument
from qobs.observables import Observable, sharp_version, stochastic_operator
from qobs.qubit import SIGMA_X, SIGMA_Y, SIGMA_Z
from qobs.sampling import random_hermitian, random_observable
from qobs.states import DensityOperator

from conftest import max_abs_diff, ranks


class TestArithmetic:
    def test_pauli_product(self):
        assert max_abs_diff(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError) as err:
            linalg.commutator(np.eye(2), np.eye(3))
        assert err.value.invariant == "matching-dims"

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValidationError) as err:
            linalg.as_matrix(np.ones((2, 3)))
        assert err.value.invariant == "square"
        with pytest.raises(ValidationError):
            linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]))

    @pytest.mark.parametrize("build, field", [
        (lambda: Instrument([0, 1], [[np.eye(2) / np.sqrt(2)], [[[1, 2], [3]]]]),
         "kraus[1][0]"),
        (lambda: Observable([0, 1], [np.eye(2), [[1, 2], [3]]]), "effect[1]"),
        (lambda: Instrument([0], [[[["ab"]]]]), "kraus[0][0]"),
        (lambda: DensityOperator([["ab"]]), "state"),
        (lambda: DensityOperator([[1, 0], [0]]), "state"),
        (lambda: Instrument([0], [5]), "kraus[0]"),
        (lambda: Observable([0, 1], [np.eye(2), np.eye(3)]), "effect[1]"),
        (lambda: Instrument([0, 1], [[np.eye(2) / np.sqrt(2)],
                                     [np.eye(3) / np.sqrt(2)]]), "kraus[1]"),
        (lambda: Observable([0, 1], 5), None),
        (lambda: Instrument([0], 5), None),
        (lambda: Observable(5, [np.eye(2)]), None),
        (lambda: Instrument(5, [[np.eye(2)]]), None),
        (lambda: Observable([0], np.array(5)), None),
        (lambda: Instrument([0], np.array(5)), None),
        (lambda: Instrument([0], [np.array(5)]), "kraus[0]"),
    ], ids=["ragged-kraus", "ragged-effect", "string-kraus", "string-state",
            "ragged-state", "scalar-kraus-list", "mixed-dim-effects",
            "mixed-dim-outcomes", "scalar-effects", "scalar-kraus",
            "scalar-keys", "scalar-outcomes", "0d-effects", "0d-kraus",
            "0d-kraus-list"])
    def test_constructors_name_the_entry_that_is_not_numeric(self, build, field):
        """Entries numpy cannot read as complex matrices, or as matrices of
        one dim, are a ValidationError naming the field, never numpy's own
        exception.  A bare number or a 0-d array for the whole key or value
        list is a ``parallel-lists`` error, which names no field."""
        with pytest.raises(ValidationError) as info:
            build()
        assert info.value.field == field
        if field is None:
            assert info.value.invariant == "parallel-lists"


class TestTrace:
    def test_traceless_pauli(self):
        assert np.trace(SIGMA_Z) == 0.0

    def test_bloch_times_effect(self):
        # tr(rho A1) = (1 + r1 mu) / 2 for the noisy spin-x effect
        r1, r2, r3, mu = 0.3, -0.2, 0.5, 0.7
        rho = 0.5 * np.array([[1 + r3, r1 - 1j * r2], [r1 + 1j * r2, 1 - r3]])
        A1 = 0.5 * (np.eye(2) + mu * SIGMA_X)
        assert abs(np.trace(rho @ A1) - (1 + r1 * mu) / 2) < 1e-15


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        A = random_hermitian(rng, 3)
        assert max_abs_diff(linalg.commutator(A, A), np.zeros((3, 3))) == 0.0

    def test_dichotomic_stochastic_commutator(self, rng):
        # [2A1 - I, 2B1 - I] = 4 [A1, B1]
        A1 = random_hermitian(rng, 3)
        B1 = random_hermitian(rng, 3)
        lhs = linalg.commutator(2 * A1 - np.eye(3), 2 * B1 - np.eye(3))
        assert max_abs_diff(lhs, 4 * linalg.commutator(A1, B1)) < 1e-12

    def test_diagonal_matrices_commute(self):
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        B = np.diag([4.0, 5.0, 6.0]).astype(complex)
        assert linalg.max_abs(linalg.commutator(A, B)) == 0.0

    def test_antisymmetry(self, rng):
        A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
        assert max_abs_diff(linalg.commutator(A, B),
                            -linalg.commutator(B, A)) == 0.0


class TestEigendecomposition:
    """``sharp_version`` of a Hermitian matrix: outcomes are the distinct
    eigenvalues, effects the eigenprojections, multiplicities their ranks."""

    def test_sigma_z(self):
        sharp = sharp_version(SIGMA_Z)
        assert sharp.outcomes == (-1.0, 1.0)
        assert max_abs_diff(sharp.effects[0], np.diag([0.0, 1.0])) < 1e-15
        assert max_abs_diff(sharp.effects[1], np.diag([1.0, 0.0])) < 1e-15
        assert ranks(sharp.effects) == (1, 1)

    def test_fully_degenerate_identity_clusters(self):
        sharp = sharp_version(np.eye(4))
        assert sharp.outcomes == (1.0,)
        assert ranks(sharp.effects) == (4,)
        assert max_abs_diff(sharp.effects[0], np.eye(4)) < 1e-14

    def test_near_degenerate_pair_merges(self):
        M = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
        sharp = sharp_version(M, cluster_tol=1e-8)
        assert len(sharp.outcomes) == 2
        assert ranks(sharp.effects) == (2, 1)
        assert abs(sharp.outcomes[0] - (1.0 + 5e-13)) < 1e-13
        M = np.diag([1.0, 1.0 + 1e-12, 2.0, 2.0 + 1e-12, 3.0]).astype(complex)
        sharp = sharp_version(M, cluster_tol=1e-8)
        assert ranks(sharp.effects) == (2, 2, 1)

    def test_reconstruction_oracle_d6(self, rng):
        M = random_hermitian(rng, 6)
        sharp = sharp_version(M)
        assert (max_abs_diff(stochastic_operator(sharp), M)
                <= 1e-10 * linalg.max_abs(M))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_invariants_random(self, dim, rng):
        for _ in range(25):
            M = random_hermitian(rng, dim)
            sharp = sharp_version(M)
            projections = sharp.effects
            k = len(sharp.outcomes)
            assert projections.shape == (k, dim, dim)
            assert not projections.flags.writeable
            assert all(x < y for x, y in zip(sharp.outcomes, sharp.outcomes[1:]))
            assert max_abs_diff(sum(projections), np.eye(dim)) < 1e-9
            for i, P in enumerate(projections):
                assert linalg.max_abs(P @ P - P) < 1e-9
                assert linalg.max_abs(P - P.conj().T) < 1e-9
                for Q in projections[i + 1:]:
                    assert linalg.max_abs(P @ Q) < 1e-9
            assert sum(ranks(projections)) == dim

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError) as err:
            sharp_version(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert (err.value.invariant, err.value.field) == ("hermitian", "A")

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("cut", [None, 0.0])
    def test_an_observable_and_its_stochastic_operator_agree(self, dim, cut):
        """One path serves both inputs: the same outcomes and effect bits."""
        rng = np.random.default_rng([dim, 9])
        for n in (1, 2, 3, 4):
            A = random_observable(rng, dim, n)
            of_obs = sharp_version(A, cut)
            of_matrix = sharp_version(stochastic_operator(A), cut)
            assert of_matrix.outcomes == of_obs.outcomes
            assert np.array_equal(of_matrix.effects, of_obs.effects)
            assert of_matrix is not sharp_version(stochastic_operator(A), cut)


class TestRequireHermitian:
    def test_diagnostic_names_the_field(self):
        with pytest.raises(ValidationError) as err:
            linalg.require_hermitian(np.array([[0.0, 2.0], [0.0, 0.0]]), name="A")
        assert err.value.field == "A"
        assert err.value.invariant == "hermitian"
        assert err.value.violation == 2.0
        assert str(err.value) == \
            "A: not Hermitian (violation 2.000e+00, bound 2.000e-09)"

    def test_defect_is_relative_to_the_entries(self):
        skew = np.array([[0.0, 1e-4], [0.0, 0.0]])
        linalg.require_hermitian(np.diag([1e6, -1e6]) + skew, 1e-9)
        with pytest.raises(ValidationError) as err:
            linalg.require_hermitian(np.diag([1.0, -1.0]) + skew, 1e-9)
        assert err.value.invariant == "hermitian"


class TestPsdSqrt:
    def test_diagonal(self):
        S = linalg.psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert max_abs_diff(S, np.diag([2.0, 3.0])) < 1e-14

    def test_projection_is_fixed_point(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        P = np.outer(psi, psi.conj())
        assert max_abs_diff(linalg.psd_sqrt(P), P) < 1e-14

    def test_square_back_oracle(self):
        A1 = 0.5 * (np.eye(2) + 0.6 * SIGMA_X)
        S = linalg.psd_sqrt(A1)
        assert max_abs_diff(S @ S, A1) <= 1e-10

    def test_output_commutes_with_input(self, rng):
        for _ in range(20):
            G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            M = G @ G.conj().T
            S = linalg.psd_sqrt(M)
            assert linalg.max_abs(S @ M - M @ S) <= 1e-9 * linalg.max_abs(M)

    def test_clips_rounding_negatives(self):
        M = np.diag([1.0, -1e-9]).astype(complex)
        S = linalg.psd_sqrt(M)
        assert max_abs_diff(S, np.diag([1.0, 0.0])) < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError) as err:
            linalg.psd_sqrt(np.diag([1.0, -1.0]).astype(complex))
        assert err.value.invariant == "psd"

    def test_hermitian_trace_is_real(self, rng):
        M = random_hermitian(rng, 5)
        assert abs(np.trace(M).imag) < 1e-9
