"""Instrument families, duals, measured observables, sequential products."""

import numpy as np
import pytest

from qobs import statistics as stats
from qobs.errors import (
    CompletenessViolationError,
    DuplicateOutcomeError,
    MissingLabelError,
    NotAProbabilityError,
    UnknownOutcomeError,
    ValidationError,
)
from qobs.instruments import (
    Instrument,
    OperationMap,
    conditioned_observable,
    holevo_instrument,
    lueders_instrument,
    product_statistics,
    sequential_product,
    trivial_instrument,
)
from qobs.linalg import psd_sqrt
from qobs.observables import (
    Observable,
    coarse_grain,
    stochastic_operator,
)
from qobs.qubit import SIGMA_Z, noisy_spin
from qobs.sampling import (
    random_commutative_observable,
    random_density,
    random_hermitian,
    random_instrument,
    random_observable,
    random_sharp_observable,
)
from qobs.states import bloch_state

from conftest import max_abs_diff

FAMILIES = ("trivial", "holevo", "lueders")


class TestValidation:
    def test_operation_map_rejects_trace_increase(self):
        with pytest.raises(ValidationError):
            OperationMap([2.0 * np.eye(2)])

    def test_operation_map_needs_kraus(self):
        with pytest.raises(ValidationError):
            OperationMap([])

    def test_instrument_total_must_be_channel(self):
        half = OperationMap([np.eye(2) / 2.0])  # K*K = I/4
        with pytest.raises(CompletenessViolationError):
            Instrument([0.0, 1.0], [half, half])

    def test_duplicate_outcomes(self):
        m = OperationMap([np.eye(2) / np.sqrt(2)])
        with pytest.raises(DuplicateOutcomeError):
            Instrument([1.0, 1.0], [m, m])

    def test_unknown_outcome(self, rng):
        inst = trivial_instrument({1.0: 0.5, -1.0: 0.5}, 2)
        with pytest.raises(UnknownOutcomeError):
            inst.apply(3.0, random_density(rng, 2))


class TestTrivial:
    def test_apply_scales_state(self, rng):
        rho = random_density(rng, 3)
        inst = trivial_instrument({1.0: 0.3, -1.0: 0.7}, 3)
        assert max_abs_diff(inst.apply(1.0, rho), 0.3 * rho.matrix) < 1e-15
        assert max_abs_diff(inst.apply(-1.0, rho), 0.7 * rho.matrix) < 1e-15

    def test_measures_trivial_observable(self):
        inst = trivial_instrument({1.0: 0.25, -1.0: 0.75}, 2)
        measured = inst.measured_observable()
        for x, E in measured.pairs():
            weight = 0.25 if x == 1.0 else 0.75
            assert max_abs_diff(E, weight * np.eye(2)) < 1e-15

    def test_channel_is_identity_map(self, rng):
        rho = random_density(rng, 2)
        inst = trivial_instrument({0.0: 0.5, 1.0: 0.5}, 2)
        assert max_abs_diff(inst.channel(rho).matrix, rho.matrix) < 1e-15

    def test_mean(self, rng):
        inst = trivial_instrument({1.0: 0.3, -1.0: 0.7}, 2)
        rho = random_density(rng, 2)
        assert inst.mean(rho) == pytest.approx(2 * 0.3 - 1, abs=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(NotAProbabilityError):
            trivial_instrument({1.0: 0.4, -1.0: 0.4}, 2)
        with pytest.raises(NotAProbabilityError):
            trivial_instrument({1.0: 1.5, -1.0: -0.5}, 2)


class TestHolevo:
    def test_apply_matches_definition(self, rng):
        for dim in (2, 3):
            A = random_observable(rng, dim, 2)
            alphas = [random_density(rng, dim) for _ in range(2)]
            inst = holevo_instrument(A, alphas)
            rho = random_density(rng, dim)
            for i, x in enumerate(inst.outcomes):
                prob = np.trace(rho.matrix @ A.effects[i]).real
                assert max_abs_diff(inst.apply(x, rho),
                                    prob * alphas[i].matrix) < 1e-12

    def test_dual_matches_definition(self, rng):
        A = random_observable(rng, 3, 2)
        alphas = [random_density(rng, 3) for _ in range(2)]
        inst = holevo_instrument(A, alphas)
        C = random_hermitian(rng, 3)
        for i, x in enumerate(inst.outcomes):
            expected = complex(np.trace(alphas[i].matrix @ C)) * A.effects[i]
            assert max_abs_diff(inst.dual_apply(x, C), expected) < 1e-12

    def test_dual_of_zero_is_zero(self, rng):
        A = random_observable(rng, 3, 2)
        alphas = [random_density(rng, 3) for _ in range(2)]
        inst = holevo_instrument(A, alphas)
        out = inst.dual_apply(inst.outcomes[0], np.zeros((3, 3)))
        assert np.max(np.abs(out)) == 0.0

    def test_measures_its_observable(self, rng):
        A = random_observable(rng, 3, 3)
        alphas = [random_density(rng, 3) for _ in range(3)]
        inst = holevo_instrument(A, alphas)
        measured = inst.measured_observable()
        for E, F in zip(measured.effects, A.effects):
            assert max_abs_diff(E, F) < 1e-12

    def test_channel(self, rng):
        A = random_observable(rng, 2, 2)
        alphas = [random_density(rng, 2) for _ in range(2)]
        inst = holevo_instrument(A, alphas)
        rho = random_density(rng, 2)
        expected = sum(np.trace(rho.matrix @ E).real * a.matrix
                       for E, a in zip(A.effects, alphas))
        assert max_abs_diff(inst.channel(rho).matrix, expected) < 1e-12

    def test_accepts_outcome_keyed_mapping(self, rng):
        A = random_observable(rng, 2, 2)
        alphas = {x: random_density(rng, 2) for x in A.outcomes}
        inst = holevo_instrument(A, alphas)
        rho = random_density(rng, 2)
        for x in inst.outcomes:
            prob = np.trace(rho.matrix @ A.effects[A.outcomes.index(x)]).real
            assert max_abs_diff(inst.apply(x, rho),
                                prob * alphas[x].matrix) < 1e-12
        with pytest.raises(MissingLabelError):
            holevo_instrument(A, {A.outcomes[0]: alphas[A.outcomes[0]]})


class TestLueders:
    def test_apply_is_square_root_pinching(self, rng):
        A = random_observable(rng, 3, 2)
        inst = lueders_instrument(A)
        rho = random_density(rng, 3)
        for i, x in enumerate(inst.outcomes):
            S = psd_sqrt(A.effects[i])
            assert max_abs_diff(inst.apply(x, rho), S @ rho.matrix @ S) < 1e-12

    def test_sharp_effects_give_projection_kraus(self, rng):
        # sqrt amplifies the projection's ~1e-16 rounding to ~1e-8 on the
        # null eigenvalues, so the comparison is loose relative to eps.
        A = random_sharp_observable(rng, 3, 2)
        inst = lueders_instrument(A)
        for m, P in zip(inst.maps, A.effects):
            assert len(m.kraus) == 1
            assert max_abs_diff(m.kraus[0], P) < 1e-7

    def test_measures_its_observable(self, rng):
        A = random_observable(rng, 4, 3)
        inst = lueders_instrument(A)
        measured = inst.measured_observable()
        for E, F in zip(measured.effects, A.effects):
            assert max_abs_diff(E, F) < 1e-10

    def test_sharp_z_measurement_dephases(self):
        A = Observable([1.0, -1.0], [(np.eye(2) + SIGMA_Z) / 2,
                                     (np.eye(2) - SIGMA_Z) / 2])
        rho = bloch_state((0.4, 0.3, -0.2))
        out = lueders_instrument(A).channel(rho)
        assert max_abs_diff(out.matrix, np.diag(np.diag(rho.matrix))) < 1e-14

    def test_mean_on_noisy_spin(self):
        mu, r = 0.6, (0.5, -0.1, 0.2)
        inst = lueders_instrument(noisy_spin(mu, "x"))
        assert inst.mean(bloch_state(r)) == pytest.approx(r[0] * mu, abs=1e-13)

    def test_single_outcome_mean(self, rng):
        inst = lueders_instrument(Observable([2.5], [np.eye(3)]))
        assert inst.mean(random_density(rng, 3)) == pytest.approx(2.5, abs=1e-12)


class TestSharedContracts:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_adjointness(self, family, rng):
        for _ in range(5):
            inst = random_instrument(rng, 3, family)
            rho = random_density(rng, 3)
            C = random_hermitian(rng, 3)
            for x in inst.outcomes:
                lhs = np.trace(rho.matrix @ inst.dual_apply(x, C))
                rhs = np.trace(inst.apply(x, rho) @ C)
                assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    def test_probability_reproduction(self, family, rng):
        inst = random_instrument(rng, 3, family)
        measured = inst.measured_observable()
        rho = random_density(rng, 3)
        for x, E in measured.pairs():
            assert abs(np.trace(inst.apply(x, rho)).real
                       - np.trace(rho.matrix @ E).real) < 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    def test_channel_preserves_trace_and_psd(self, family, rng):
        inst = random_instrument(rng, 4, family)
        out = inst.channel(random_density(rng, 4))
        assert abs(sum(out.eigenvalues) - 1.0) < 1e-10
        assert out.eigenvalues[0] >= -1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    def test_apply_output_is_subnormalized_psd(self, family, rng):
        inst = random_instrument(rng, 2, family)
        rho = random_density(rng, 2)
        for x in inst.outcomes:
            out = inst.apply(x, rho)
            t = np.trace(out).real
            assert -1e-9 <= t <= 1.0 + 1e-9
            assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_equals_measured_average(self, family, rng):
        inst = random_instrument(rng, 3, family)
        rho = random_density(rng, 3)
        assert inst.mean(rho) == pytest.approx(
            stats.average(rho, inst.measured_observable()), abs=1e-10)


class TestStoredMeasuredObservable:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_repeat_is_same_object_and_equals_fresh(self, family, rng):
        inst = random_instrument(rng, 3, family)
        measured = inst.measured_observable()
        assert inst.measured_observable() is measured
        fresh = Instrument(inst.outcomes, inst.maps).measured_observable()
        assert measured.keys == fresh.keys
        assert np.array_equal(measured.effects, fresh.effects)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_identity_duals_are_formed_once(self, family, rng, monkeypatch):
        inst = random_instrument(rng, 3, family)
        calls = []
        dual = OperationMap.dual

        def counting(self, C):
            calls.append(1)
            return dual(self, C)

        monkeypatch.setattr(OperationMap, "dual", counting)
        fresh = Instrument(inst.outcomes, inst.maps)
        assert len(calls) == 0
        measured = fresh.measured_observable()
        assert len(calls) == 0
        assert np.array_equal(measured.effects,
                              inst.measured_observable().effects)

    def test_setting_an_attribute_still_raises(self, rng):
        inst = random_instrument(rng, 2, "lueders")
        inst.measured_observable()
        for name in ("outcomes", "maps", "_duals", "_measured", "new"):
            with pytest.raises(AttributeError):
                setattr(inst, name, None)


class TestCoarseGrainInstrument:
    def test_identity_function_preserves_instrument(self, rng):
        inst = random_instrument(rng, 2, "lueders")
        same = inst.coarse_grain({x: x for x in inst.outcomes})
        assert same.outcomes == inst.outcomes
        assert sum(len(m.kraus) for m in same.maps) == \
            sum(len(m.kraus) for m in inst.maps)
        measured, measured2 = inst.measured_observable(), same.measured_observable()
        for E, F in zip(measured.effects, measured2.effects):
            assert max_abs_diff(E, F) < 1e-12

    def test_constant_function_gives_channel(self, rng):
        inst = random_instrument(rng, 2, "holevo")
        rho = random_density(rng, 2)
        merged = inst.coarse_grain(lambda x: 0.0)
        assert merged.outcomes == (0.0,)
        assert max_abs_diff(merged.apply(0.0, rho),
                            inst.channel(rho).matrix) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_measured_observable_commutes_with_coarse_graining(self, family, rng):
        for _ in range(5):
            inst = random_instrument(rng, 3, family)
            f = {x: float(v) for x, v in
                 zip(inst.outcomes, rng.integers(0, 2, size=len(inst)))}
            lhs = inst.coarse_grain(f).measured_observable()
            rhs = coarse_grain(inst.measured_observable(), f)
            assert lhs.outcomes == rhs.outcomes
            for E, F in zip(lhs.effects, rhs.effects):
                assert max_abs_diff(E, F) < 1e-9

    def test_missing_outcome_rejected(self, rng):
        inst = random_instrument(rng, 2, "trivial")
        with pytest.raises(MissingLabelError):
            inst.coarse_grain({inst.outcomes[0]: 1.0})


class TestSequentialProduct:
    def test_trivial_instrument_product(self, rng):
        inst = trivial_instrument({1.0: 0.2, 2.0: 0.8}, 3)
        B = random_observable(rng, 3, 2)
        product = sequential_product(inst, B)
        for (x, y), E in product.pairs():
            expected = (0.2 if x == 1.0 else 0.8) * \
                B.effects[B.outcomes.index(y)]
            assert max_abs_diff(E, expected) < 1e-14

    def test_holevo_product(self, rng):
        A = random_observable(rng, 2, 2)
        alphas = [random_density(rng, 2) for _ in range(2)]
        inst = holevo_instrument(A, alphas)
        B = random_observable(rng, 2, 2)
        product = sequential_product(inst, B)
        for (x, y), E in product.pairs():
            i = inst.outcomes.index(x)
            By = B.effects[B.outcomes.index(y)]
            expected = np.trace(alphas[i].matrix @ By).real * A.effects[i]
            assert max_abs_diff(E, expected) < 1e-12

    def test_lueders_product(self, rng):
        A = random_observable(rng, 2, 2)
        inst = lueders_instrument(A)
        B = random_observable(rng, 2, 2)
        product = sequential_product(inst, B)
        roots = [psd_sqrt(E) for E in A.effects]
        for (x, y), E in product.pairs():
            i = inst.outcomes.index(x)
            By = B.effects[B.outcomes.index(y)]
            assert max_abs_diff(E, roots[i] @ By @ roots[i]) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_completeness_and_marginal(self, family, rng):
        inst = random_instrument(rng, 3, family)
        B = random_observable(rng, 3, 3)
        product = sequential_product(inst, B)
        assert max_abs_diff(sum(product.effects), np.eye(3)) < 1e-9
        measured = inst.measured_observable()
        for x, E in measured.pairs():
            marginal = sum(eff for (xx, _), eff in product.pairs() if xx == x)
            assert max_abs_diff(marginal, E) < 1e-9


class TestConditionedObservable:
    def test_trivial_instrument_leaves_observable_alone(self, rng):
        inst = trivial_instrument({1.0: 0.4, -1.0: 0.6}, 3)
        B = random_observable(rng, 3, 3)
        cond = conditioned_observable(inst, B)
        assert cond.outcomes == B.outcomes
        for E, F in zip(cond.effects, B.effects):
            assert max_abs_diff(E, F) < 1e-12

    def test_holevo_form(self, rng):
        A = random_observable(rng, 2, 2)
        alphas = [random_density(rng, 2) for _ in range(2)]
        inst = holevo_instrument(A, alphas)
        B = random_observable(rng, 2, 2)
        cond = conditioned_observable(inst, B)
        for y, E in cond.pairs():
            By = B.effects[B.outcomes.index(y)]
            expected = sum(np.trace(a.matrix @ By).real * Ax
                           for a, Ax in zip(alphas, A.effects))
            assert max_abs_diff(E, expected) < 1e-12

    def test_lueders_form(self, rng):
        A = random_observable(rng, 2, 2)
        inst = lueders_instrument(A)
        B = random_observable(rng, 2, 2)
        cond = conditioned_observable(inst, B)
        roots = [psd_sqrt(E) for E in A.effects]
        for y, E in cond.pairs():
            By = B.effects[B.outcomes.index(y)]
            expected = sum(S @ By @ S for S in roots)
            assert max_abs_diff(E, expected) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_stochastic_operator_and_mean_identities(self, family, rng):
        inst = random_instrument(rng, 3, family)
        B = random_observable(rng, 3, 2)
        rho = random_density(rng, 3)
        cond = conditioned_observable(inst, B)
        # (B|A)~ = sum_x dual_x(B~)
        expected = sum(inst.dual_apply(x, stochastic_operator(B))
                       for x in inst.outcomes)
        assert max_abs_diff(stochastic_operator(cond), expected) < 1e-10
        # <(B|A)>_rho = <B>_{channel(rho)}
        assert stats.average(rho, cond) == pytest.approx(
            stats.average(inst.channel(rho), B), abs=1e-10)


class TestProductStatistics:
    def test_constant_function(self, rng):
        inst = random_instrument(rng, 2, "lueders")
        B = random_observable(rng, 2, 2)
        rho = random_density(rng, 2)
        f = {(x, y): 1.0 for x in inst.outcomes for y in B.outcomes}
        mean, var, fab = product_statistics(inst, B, f, rho)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)
        assert fab.outcomes == (1.0,)

    def test_trivial_product_function_factorizes(self, rng):
        omega = {1.0: 0.3, 2.0: 0.7}
        inst = trivial_instrument(omega, 2)
        B = random_observable(rng, 2, 2)
        rho = random_density(rng, 2)
        g = {1.0: 2.0, 2.0: -1.0}
        h = {y: float(v) for y, v in zip(B.outcomes, (1.0, 3.0))}
        f = {(x, y): g[x] * h[y] for x in inst.outcomes for y in B.outcomes}
        mean, _, _ = product_statistics(inst, B, f, rho)
        g_mean = sum(g[x] * omega[x] for x in inst.outcomes)
        h_mean = stats.average(rho, coarse_grain(B, h))
        assert mean == pytest.approx(g_mean * h_mean, abs=1e-12)

    def test_lueders_sharp_commuting_xy_function(self, rng):
        # Sharp A and commuting B diagonal in one basis: the product mean is
        # the mixed second moment tr(rho A~ B~).
        from qobs.sampling import haar_unitary
        U = haar_unitary(rng, 3)
        diag_a = [np.diag(col) for col in ([1.0, 1.0, 0.0], [0.0, 0.0, 1.0])]
        A = Observable([1.0, -1.0],
                       [U @ D @ U.conj().T for D in diag_a])
        tables = np.array([[0.3, 0.5, 0.1], [0.7, 0.5, 0.9]])
        B = Observable([2.0, -2.0],
                       [U @ np.diag(t) @ U.conj().T for t in tables])
        inst = lueders_instrument(A)
        rho = random_density(rng, 3)
        f = {(x, y): x * y for x in inst.outcomes for y in B.outcomes}
        mean, _, _ = product_statistics(inst, B, f, rho)
        expected = np.trace(rho.matrix @ stochastic_operator(A)
                            @ stochastic_operator(B)).real
        assert mean == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_split_function_simplification(self, family, rng):
        inst = random_instrument(rng, 3, family)
        B = random_observable(rng, 3, 2)
        rho = random_density(rng, 3)
        g = {x: float(v) for x, v in zip(inst.outcomes, (1.0, -2.0, 0.5))}
        h = {y: float(v) for y, v in zip(B.outcomes, (2.0, -1.0))}
        f = {(x, y): g[x] * h[y] for x in inst.outcomes for y in B.outcomes}
        _, _, fab = product_statistics(inst, B, f, rho)
        hB = stochastic_operator(coarse_grain(B, h))
        expected = sum(g[x] * inst.dual_apply(x, hB) for x in inst.outcomes)
        assert max_abs_diff(stochastic_operator(fab), expected) < 1e-9

    def test_variance_matches_direct_formula(self, rng):
        inst = random_instrument(rng, 2, "holevo")
        B = random_observable(rng, 2, 2)
        rho = random_density(rng, 2)
        f = {(x, y): float(i - 2 * j) for i, x in enumerate(inst.outcomes)
             for j, y in enumerate(B.outcomes)}
        mean, var, _ = product_statistics(inst, B, f, rho)
        T = sum(f[(x, y)] * inst.dual_apply(x, B.effects[B.outcomes.index(y)])
                for x in inst.outcomes for y in B.outcomes)
        direct_mean = np.trace(rho.matrix @ T).real
        direct_var = np.trace(rho.matrix @ T @ T).real - direct_mean ** 2
        assert mean == pytest.approx(direct_mean, abs=1e-12)
        assert var == pytest.approx(direct_var, abs=1e-10)

    def test_missing_pair_rejected(self, rng):
        inst = random_instrument(rng, 2, "trivial")
        B = random_observable(rng, 2, 2)
        rho = random_density(rng, 2)
        with pytest.raises(MissingLabelError):
            product_statistics(inst, B, {}, rho)
