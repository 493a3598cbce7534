"""Density operators, faithfulness, the sesquilinear form, Bloch states."""

import numpy as np
import pytest

from qobs import linalg, states
from qobs.errors import ValidationError
from qobs.instruments import Instrument, trivial_instrument
from qobs.linalg import TOL_LIN
from qobs.observables import Observable
from qobs.sampling import (
    ginibre,
    random_bloch_vector,
    random_density,
    random_faithful_density,
    random_hermitian,
)

from conftest import max_abs_diff


class TestConstruction:
    def test_maximally_mixed_qubit(self):
        rho = states.DensityOperator(np.eye(2) / 2)
        assert rho.dim == 2
        assert rho.eigenvalues == (0.5, 0.5)

    def test_pure_state(self):
        rho = states.DensityOperator(np.diag([1.0, 0.0]))
        assert rho.eigenvalues == (0.0, 1.0)

    def test_trace_not_one(self):
        with pytest.raises(ValidationError) as err:
            states.DensityOperator(np.diag([0.6, 0.6]))
        assert err.value.invariant == "unit-trace"
        assert err.value.violation == pytest.approx(0.2)

    def test_not_hermitian(self):
        with pytest.raises(ValidationError) as err:
            states.DensityOperator(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert err.value.invariant == "hermitian"

    def test_not_psd(self):
        with pytest.raises(ValidationError) as err:
            states.DensityOperator(np.diag([1.5, -0.5]))
        assert err.value.invariant == "psd"

    def test_repr_shows_dim_and_spectrum(self):
        assert repr(states.DensityOperator(np.diag([0.25, 0.75]))) == \
            "DensityOperator(dim=2, eigenvalues=(0.25, 0.75))"

    @pytest.mark.parametrize("floor", [0.0, 0.5])
    def test_faithful_sampler_needs_a_floor_below_one_over_dim(self, rng,
                                                               floor):
        with pytest.raises(ValueError, match="0 < floor"):
            random_faithful_density(rng, 2, floor)

    def test_matrix_is_read_only(self):
        rho = states.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0
        with pytest.raises(AttributeError):
            rho.dim = 3


class TestStateCheck:
    """Each rule ``DensityOperator`` applies names the field ``state``."""

    FAULTS = {
        "not-hermitian": (np.array([[1.0, 1.0], [0.0, 0.0]]), "hermitian", 1.0,
                          "state: not Hermitian "
                          "(violation 1.000e+00, bound 1.000e-09)"),
        "negative-eigenvalue": (np.diag([1.5, -0.5]), "psd", 0.5,
                                "state: eigenvalue below 0 "
                                "(violation 5.000e-01, bound 1.000e-08)"),
        "trace-not-one": (np.diag([0.6, 0.6]), "unit-trace", abs(1.2 - 1.0),
                          "state: trace is not 1 "
                          "(violation 2.000e-01, bound 1.000e-09)"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_is_named(self, fault):
        bad, invariant, violation, message = self.FAULTS[fault]
        with pytest.raises(ValidationError) as err:
            states.DensityOperator(bad.astype(complex))
        assert type(err.value) is ValidationError
        assert err.value.invariant == invariant
        assert err.value.violation == violation
        assert err.value.field == "state"
        assert str(err.value) == message

    def test_one_matrix_keeps_the_field_state(self):
        with pytest.raises(ValidationError) as err:
            states.DensityOperator(np.diag([1.5, -0.5]))
        assert (err.value.invariant, err.value.field) == ("psd", "state")
        assert str(err.value) == \
            "state: eigenvalue below 0 (violation 5.000e-01, bound 1.000e-08)"


OVER = 1.0 + 5e-7  # above 1 by more than every default tolerance


@pytest.mark.parametrize("build, invariant, message", [
    (lambda: Observable([0.0, 1.0], [np.diag([OVER, 0.5]), np.diag([0.0, 0.5])],
                        tol_lin=1e-6), "effect-upper-bound",
     "effect[0]: eigenvalue above 1 (violation 5.000e-07, bound 1.000e-08)"),
    (lambda: Instrument([0.0, 1.0], [[np.diag(np.sqrt([OVER, 0.5]))],
                                     [np.diag([0.0, np.sqrt(0.5)])]],
                        tol_lin=1e-6), "effect-upper-bound",
     "kraus[0]: eigenvalue above 1 (violation 5.000e-07, bound 1.000e-08)"),
    (lambda: states.DensityOperator(np.diag([OVER - 0.5, 0.5])), "unit-trace",
     "state: trace is not 1 (violation 5.000e-07, bound 1.000e-09)"),
    (lambda: states.bloch_state((0.0, 0.0, OVER)), "bloch-ball",
     "r: a Bloch vector has norm above 1 (violation 5.000e-07, bound 1.000e-09)"),
    (lambda: trivial_instrument({1.0: OVER - 0.5, -1.0: 0.5}, 2), "unit-total",
     "weights do not sum to 1 (violation 5.000e-07, bound 1.000e-09)"),
], ids=["effect", "instrument", "trace", "bloch", "weights"])
def test_bound_near_one_diagnostic_shows_the_excess(build, invariant, message):
    """The excess over 1 is the violation, shown with the bound it broke."""
    with pytest.raises(ValidationError) as info:
        build()
    assert (info.value.invariant, str(info.value)) == (invariant, message)
    assert info.value.violation == pytest.approx(5e-7, rel=1e-6)


class TestMaximallyMixed:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_is_identity_over_d(self, d):
        rho = states.maximally_mixed(d)
        assert max_abs_diff(rho.matrix, np.eye(d) / d) == 0.0

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValidationError):
            states.maximally_mixed(0)


class TestBloch:
    def test_origin_is_maximally_mixed(self):
        rho = states.bloch_state((0.0, 0.0, 0.0))
        assert max_abs_diff(rho.matrix, np.eye(2) / 2) == 0.0

    def test_north_pole_is_pure(self):
        rho = states.bloch_state((0.0, 0.0, 1.0))
        assert max_abs_diff(rho.matrix, np.diag([1.0, 0.0])) == 0.0
        assert rho.eigenvalues == (0.0, 1.0)

    def test_surface_vector_is_pure(self):
        rho = states.bloch_state((0.6, 0.0, 0.8))
        assert abs(rho.eigenvalues[0]) < 1e-12
        assert abs(rho.eigenvalues[1] - 1.0) < 1e-12

    def test_matrix_layout(self):
        r1, r2, r3 = 0.1, -0.2, 0.3
        rho = states.bloch_state((r1, r2, r3))
        expected = 0.5 * np.array([[1 + r3, r1 - 1j * r2],
                                   [r1 + 1j * r2, 1 - r3]])
        assert max_abs_diff(rho.matrix, expected) == 0.0

    def test_outside_ball_rejected(self):
        with pytest.raises(ValidationError) as err:
            states.bloch_state((1.0, 0.5, 0.0))
        assert err.value.invariant == "bloch-ball"

    @pytest.mark.parametrize("r", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4),
                                   ((0.1, 0.2, 0.3),), (0.1, np.nan, 0.0)])
    def test_malformed_vector_is_bloch_shape(self, r):
        with pytest.raises(ValidationError) as err:
            states.bloch_state(r)
        assert err.value.invariant == "bloch-shape"
        assert err.value.field == "r"

    def test_stack_matrices_equal_bloch_state(self, rng):
        vectors = [random_bloch_vector(rng, surface=k % 2 == 0)
                   for k in range(10)] + [(-0.0, 0.0, -0.0), (0.0, -1.0, 0.0)]
        r, M = states._bloch_matrices(vectors, TOL_LIN)
        assert r.shape == (12, 3) and M.shape == (12, 2, 2)
        for v, m in zip(vectors, M):
            assert repr(m.tolist()) == repr(
                states.bloch_state(v).matrix.tolist())

    def test_builds_without_a_state_check(self, rng, monkeypatch):
        """The vector is the only input checked; the stored eigenvalues are
        the ones the constructor computes, bit for bit."""
        vectors = [random_bloch_vector(rng, surface=k % 2 == 0)
                   for k in range(10)] + [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0)]
        checked = [states.DensityOperator(states.bloch_state(r).matrix)
                   for r in vectors]
        calls = []
        init, hermitian = states.DensityOperator.__init__, linalg.require_hermitian

        def counted(name, call):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(states.DensityOperator, "__init__",
                            counted("__init__", init))
        monkeypatch.setattr(linalg, "require_hermitian",
                            counted("require_hermitian", hermitian))
        for r, rho in zip(vectors, checked):
            built = states.bloch_state(r)
            assert repr(built.eigenvalues) == repr(rho.eigenvalues)
        assert calls == []

    def test_eigenvalue_closed_form_on_grid(self, rng):
        for _ in range(100):
            r = random_bloch_vector(rng)
            rho = states.bloch_state(r)
            norm = np.linalg.norm(r)
            assert abs(rho.eigenvalues[0] - (1 - norm) / 2) < 1e-12
            assert abs(rho.eigenvalues[1] - (1 + norm) / 2) < 1e-12


class TestFaithfulness:
    def test_maximally_mixed_is_faithful(self):
        for d in (2, 3, 5):
            assert states.is_faithful(states.maximally_mixed(d))

    def test_pure_state_is_not(self):
        assert not states.is_faithful(states.DensityOperator(np.diag([1.0, 0.0])))

    def test_strictly_positive_spectrum_is(self):
        rho = states.DensityOperator(np.diag([0.999, 0.001]))
        assert states.is_faithful(rho)

    def test_threshold_parameter(self):
        rho = states.DensityOperator(np.diag([0.999, 0.001]))
        assert not states.is_faithful(rho, tol=0.01)


class TestStateForm:
    def test_identity_pair_gives_one(self, rng):
        rho = random_density(rng, 3)
        val = states.state_form(rho, np.eye(3), np.eye(3))
        assert abs(val - 1.0) < 1e-12

    def test_maximally_mixed_reduces_to_hs_inner_product(self, rng):
        n = 4
        rho = states.maximally_mixed(n)
        C = ginibre(rng, n, n)
        D = ginibre(rng, n, n)
        expected = np.trace(C.conj().T @ D) / n
        assert abs(states.state_form(rho, C, D) - expected) < 1e-12

    def test_diagonal_is_nonnegative(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            C = ginibre(rng, 3, 3)
            val = states.state_form(rho, C, C)
            assert val.real >= -1e-9
            assert abs(val.imag) <= 1e-9 * max(1.0, abs(val))

    def test_conjugate_symmetry(self, rng):
        rho = random_density(rng, 4)
        C, D = ginibre(rng, 4, 4), ginibre(rng, 4, 4)
        assert abs(states.state_form(rho, C, D)
                   - np.conj(states.state_form(rho, D, C))) < 1e-12

    def test_cauchy_schwarz(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            C, D = ginibre(rng, 3, 3), ginibre(rng, 3, 3)
            lhs = abs(states.state_form(rho, C, D)) ** 2
            rhs = (states.state_form(rho, C, C).real
                   * states.state_form(rho, D, D).real)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    def test_non_faithful_state_has_null_witness(self, rng):
        # Projector onto a null eigenvector annihilates the form diagonal.
        for _ in range(20):
            rho = random_density(rng, 4, rank=2)
            assert not states.is_faithful(rho)
            w, V = np.linalg.eigh(rho.matrix)
            P = np.outer(V[:, 0], V[:, 0].conj())
            assert abs(states.state_form(rho, P, P)) <= 1e-9

    def test_dimension_mismatch(self):
        rho = states.maximally_mixed(2)
        with pytest.raises(ValidationError) as err:
            states.state_form(rho, np.eye(3), np.eye(3))
        assert err.value.invariant == "matching-dims"

