"""Instrument families, duals, measured observables, sequential products."""

import copy
import json

import numpy as np
import pytest

from qobs import statistics as stats
from qobs import instruments, linalg, observables
from qobs.errors import (
    CompletenessViolationError,
    DimensionMismatchError,
    DuplicateOutcomeError,
    MissingLabelError,
    NotAnEffectError,
    NotAProbabilityError,
    UnknownOutcomeError,
    ValidationError,
)
from qobs.instruments import (
    Instrument,
    conditioned_observable,
    holevo_instrument,
    lueders_instrument,
    sequential_product,
    trivial_instrument,
)
from qobs.linalg import TOL_LIN, entry_norms, psd_sqrt, scale_of
from qobs.observables import (
    Observable,
    coarse_grain,
    commuting_joint,
    conjugate,
    conjugate_joint,
    sharp_version,
    stochastic_operator,
)
from qobs.qubit import SIGMA_Z, noisy_spin
from qobs.sampling import (
    random_commutative_observable,
    random_density,
    random_hermitian,
    random_instrument,
    random_observable,
    random_probability_vector,
    random_sharp_observable,
)
from qobs.serialization import canonical_json, decode_instrument, encode_instrument
from qobs.states import bloch_state

from conftest import (assert_rebuilds_exactly, assert_same_parts, max_abs_diff,
                      per_outcome)

FAMILIES = ("trivial", "holevo", "lueders")
KRAUS_FORM = ("trivial", "lueders")  # the Holevo family keeps (A_x, alpha_x)


def twins(rng, dim, family, **kw):
    """Two instruments built independently from the same random draws."""
    other = copy.deepcopy(rng)
    return (random_instrument(rng, dim, family, **kw),
            random_instrument(other, dim, family, **kw))


class TestValidation:
    def test_trace_increasing_outcome_is_named(self):
        # Checked as the measured observable: sum K*K = 4I is no effect.
        half = np.eye(2) / np.sqrt(2)
        with pytest.raises(NotAnEffectError) as info:
            Instrument([0.0, 1.0, 2.0], [[half], [2.0 * np.eye(2)], [half]])
        assert info.value.invariant == "effect-upper-bound"
        assert info.value.violation == pytest.approx(3.0)
        assert info.value.field == "kraus[1]"

    def test_outcome_needs_kraus(self):
        with pytest.raises(ValidationError) as info:
            Instrument([0.0, 1.0], [[np.eye(2)], []])
        assert info.value.invariant == "matrix-list"
        assert info.value.field == "kraus[1]"

    def test_malformed_kraus_names_the_operator(self):
        with pytest.raises(ValidationError) as info:
            Instrument([0.0, 1.0], [[np.eye(2)], [np.eye(2), [[np.nan]]]])
        assert info.value.field == "kraus[1][1]"
        with pytest.raises(DimensionMismatchError) as info:
            Instrument([0.0, 1.0], [[np.eye(2) / 2], [np.eye(3) / 2]])
        assert info.value.invariant == "matching-dims"

    def test_instrument_total_must_be_channel(self):
        half = [np.eye(2) / 2.0]  # K*K = I/4
        with pytest.raises(CompletenessViolationError):
            Instrument([0.0, 1.0], [half, half])

    def test_duplicate_outcomes(self):
        m = [np.eye(2) / np.sqrt(2)]
        with pytest.raises(DuplicateOutcomeError):
            Instrument([1.0, 1.0], [m, m])

    def test_checked_as_its_measured_observable(self):
        half = [np.eye(2) / np.sqrt(2)]
        with pytest.raises(CompletenessViolationError) as info:
            Instrument([0, 1], [[np.eye(2) / 2], [np.eye(2) / 2]])
        assert info.value.invariant == "completeness"
        with pytest.raises(DuplicateOutcomeError) as info:
            Instrument(["a", "a"], [half, half])
        assert info.value.invariant == "distinct-labels"
        for x in (np.nan, np.inf):
            with pytest.raises(ValidationError) as info:
                Instrument([x, 1.0], [half, half])
            assert info.value.invariant == "finite-outcome"

    def test_keeps_the_observable_it_checked(self, monkeypatch):
        half = [np.eye(2) / np.sqrt(2)]
        inst = Instrument(["b", "a"], [half, half])
        builds = []
        build = Observable._build
        monkeypatch.setattr(Observable, "_build",
                            lambda *args: builds.append(1) or build(*args))
        measured = inst.measured_observable()
        assert measured is inst.measured_observable()
        assert builds == []
        assert measured.keys == ("b", "a")

    def test_rounding_below_zero_fails_at_tol_psd_0(self):
        # sum K*K of a rank-one K0 has an eigenvalue -2.4e-18 after
        # rounding; the Observable constructor rejects it at tol_psd=0.
        rng = np.random.default_rng(0)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= 1.5 * np.linalg.norm(v)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        K0 = np.outer(w / np.linalg.norm(w), v.conj())
        kraus = [[K0], [psd_sqrt(np.eye(3) - K0.conj().T @ K0)]]
        Instrument([0, 1], kraus)
        with pytest.raises(NotAnEffectError) as info:
            Instrument([0, 1], kraus, tol_psd=0.0)
        assert (info.value.invariant, info.value.field) == (
            "effect-lower-bound", "kraus[0]")
        assert 0.0 < info.value.violation < 1e-16

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
        assert stats.average(rho, inst.measured_observable()) == pytest.approx(
            2 * 0.3 - 1, abs=1e-12)

    def test_label_keyed_statistics_need_real_outcomes(self):
        inst = trivial_instrument({"up": 0.5, "down": 0.5}, 2)
        with pytest.raises(ValidationError) as info:
            stats.average(bloch_state([0.0, 0.0, 0.0]), inst.measured_observable())
        assert info.value.invariant == "real-outcomes"

    def test_rejects_bad_weights(self):
        with pytest.raises(NotAProbabilityError):
            trivial_instrument({1.0: 0.4, -1.0: 0.4}, 2)
        with pytest.raises(NotAProbabilityError):
            trivial_instrument({1.0: 1.5, -1.0: -0.5}, 2)

    @pytest.mark.parametrize("omega, invariant", [
        ({1.0: np.nan, -1.0: 1.0}, "nonnegative-weights"),
        ({1.0: 1.0, -1.0: np.nan}, "nonnegative-weights"),
        ({1.0: np.inf, -1.0: 0.0}, "unit-total"),
    ])
    def test_rejects_non_finite_weights(self, omega, invariant):
        with pytest.raises(NotAProbabilityError) as info:
            trivial_instrument(omega, 2)
        assert info.value.invariant == invariant

    def test_outcomes_are_checked_and_kept_as_given(self):
        for x in (np.nan, -np.inf):
            with pytest.raises(ValidationError) as info:
                trivial_instrument({x: 0.5, 1.0: 0.5}, 2)
            assert info.value.invariant == "finite-outcome"
        inst = trivial_instrument({2: 0.5, -0.0: 0.25, "a": 0.25}, 2)
        assert inst.outcomes == (2, -0.0, "a")
        assert [type(x) for x in inst.outcomes] == [int, float, str]


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
        with pytest.raises(UnknownOutcomeError) as info:
            holevo_instrument(A, {**alphas, "typo": rho})
        assert (info.value.invariant, info.value.field) == ("known-outcome", "typo")


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
        assert [len(K) for K in per_outcome(inst)] == [1] * len(A)
        for K, P in zip(per_outcome(inst), A.effects):
            assert max_abs_diff(K[0], P) < 1e-7

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
        mean = stats.average(bloch_state(r), inst.measured_observable())
        assert mean == pytest.approx(r[0] * mu, abs=1e-13)

    def test_single_outcome_mean(self, rng):
        inst = lueders_instrument(Observable([2.5], [np.eye(3)]))
        mean = stats.average(random_density(rng, 3), inst.measured_observable())
        assert mean == pytest.approx(2.5, abs=1e-12)


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


class TestStackedLayout:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_ragged_kraus_lists_rebuild_each_family(self, family, rng):
        inst = random_instrument(rng, 3, family, n_outcomes=3)
        ragged = [[np.array(K) for K in ops] for ops in per_outcome(inst)]
        rebuilt = Instrument(inst.outcomes, ragged)
        assert rebuilt.outcomes == inst.outcomes
        for K, L in zip(per_outcome(rebuilt), per_outcome(inst)):
            assert np.array_equal(K, L)
        if family in KRAUS_FORM:  # Holevo pairs: see TestPairForm
            assert np.array_equal(rebuilt.measured_observable().effects,
                                  inst.measured_observable().effects)

    def test_stack_is_grouped_by_outcome(self, rng):
        A = random_observable(rng, 2, 3)
        alphas = [bloch_state(r) for r in ((0, 0, 1), (0, 0, 0), (0, 0, -1))]
        inst = holevo_instrument(A, alphas)  # one pair per outcome
        assert [(len(E), len(a)) for E, a in inst._parts] == [(1, 1)] * 3
        # Its Kraus form has d * rank(alpha) operators per outcome.
        assert [K.shape for K in per_outcome(inst)] == [
            (2, 2, 2), (4, 2, 2), (2, 2, 2)]

    def test_identity_coarse_graining_keeps_the_stack(self, rng):
        inst = random_instrument(rng, 3, "holevo", n_outcomes=3)
        same = inst.coarse_grain({x: x for x in inst.outcomes})
        assert_same_parts(same, inst)

    def test_constant_coarse_graining_keeps_operator_order(self, rng):
        inst = random_instrument(rng, 3, "holevo", n_outcomes=3)
        merged = inst.coarse_grain(lambda x: 1.0)
        assert len(merged._parts) == 1
        for pairs, held in zip(merged._parts[0], zip(*inst._parts)):
            assert np.array_equal(pairs, np.concatenate(held))


class TestStoredMeasuredObservable:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_repeat_is_same_object_and_equals_fresh(self, family, rng):
        inst, twin = twins(rng, 3, family)
        measured = inst.measured_observable()
        assert inst.measured_observable() is measured
        fresh = twin.measured_observable()
        assert measured.keys == fresh.keys
        assert np.array_equal(measured.effects, fresh.effects)
        if family in KRAUS_FORM:  # Holevo pairs: see TestPairForm
            rebuilt = Instrument(inst.outcomes,
                                 per_outcome(inst)).measured_observable()
            assert np.array_equal(measured.effects, rebuilt.effects)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_identity_duals_are_formed_once(self, family, rng, monkeypatch):
        twin_rng = copy.deepcopy(rng)
        inst = random_instrument(rng, 3, family)
        calls = []
        sandwich = instruments._sandwich

        def counting(*args, **kwargs):
            calls.append(1)
            return sandwich(*args, **kwargs)

        monkeypatch.setattr(instruments, "_sandwich", counting)
        fresh = random_instrument(twin_rng, 3, family)
        rebuilt = Instrument(inst.outcomes, per_outcome(inst))
        assert len(calls) == 0
        measured = fresh.measured_observable()
        rebuilt.measured_observable()
        assert len(calls) == 0
        assert np.array_equal(measured.effects,
                              inst.measured_observable().effects)
        if family in KRAUS_FORM:  # Holevo pairs: see TestPairForm
            assert np.array_equal(rebuilt.measured_observable().effects,
                                  measured.effects)

    def test_setting_an_attribute_still_raises(self, rng):
        for family in ("lueders", "holevo"):
            inst = random_instrument(rng, 2, family)
            inst.measured_observable()
            for name in ("outcomes", "kraus", "owner", "dim", "_parts",
                         "_duals", "_derived", "new"):
                with pytest.raises(AttributeError):
                    setattr(inst, name, None)


def assert_close(got, want):
    """Agreement within TOL_LIN * scale_of(want), matrix by matrix, or
    within TOL_LIN * max(1, |want|) for a number."""
    if np.ndim(want) < 2:
        assert abs(got - want) <= TOL_LIN * max(1.0, abs(want))
    else:
        assert np.all(entry_norms(got - want) <= TOL_LIN * scale_of(want))


def _projection_pair(rng, dim):
    """Effects P and I - P for a random rank-one P: rank-deficient at
    every dim > 1, and I - P = 0 at dim 1."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    P = np.outer(v, v.conj()) / np.vdot(v, v).real
    return Observable([-1.0, 1.0], [P, np.eye(dim) - P])


class TestPairForm:
    """A Holevo instrument keeps its (A_x, alpha_x) pairs; it must agree
    with the Kraus-form instrument built from the exact Kraus operators of
    those pairs (``conftest.holevo_kraus``)."""

    @pytest.mark.parametrize("dim", (1, 2, 5))
    @pytest.mark.parametrize("effects", ("full", "deficient"))
    @pytest.mark.parametrize("states", ("full", "deficient"))
    def test_agrees_with_its_kraus_form(self, dim, effects, states, rng):
        A = (random_observable(rng, dim, 3) if effects == "full"
             else _projection_pair(rng, dim))
        rank = dim if states == "full" else 1
        inst = holevo_instrument(
            A, [random_density(rng, dim, rank=rank) for _ in range(len(A))])
        kraus = Instrument(inst.outcomes, per_outcome(inst))
        rho = random_density(rng, dim)
        C = random_hermitian(rng, dim)
        stack = np.array([random_hermitian(rng, dim) for _ in range(3)])
        B = random_observable(rng, dim, 2)
        for x in inst.outcomes:
            assert_close(inst.apply(x, rho), kraus.apply(x, rho))
            assert_close(inst.dual_apply(x, C), kraus.dual_apply(x, C))
            assert_close(inst.dual_apply(x, stack), kraus.dual_apply(x, stack))
        assert_close(inst.channel(rho).matrix, kraus.channel(rho).matrix)
        assert_close(inst.measured_observable().effects,
                     kraus.measured_observable().effects)
        for build in (sequential_product, conditioned_observable):
            pair_obs, kraus_obs = build(inst, B), build(kraus, B)
            assert pair_obs.keys == kraus_obs.keys
            assert_close(pair_obs.effects, kraus_obs.effects)
        f = {x: float(i % 2) for i, x in enumerate(inst.outcomes)}
        merged, kraus_merged = inst.coarse_grain(f), kraus.coarse_grain(f)
        assert merged.outcomes == kraus_merged.outcomes
        for z in merged.outcomes:
            assert_close(merged.apply(z, rho), kraus_merged.apply(z, rho))
        assert_close(merged.measured_observable().effects,
                     kraus_merged.measured_observable().effects)
        for K, L in zip(per_outcome(merged), per_outcome(kraus_merged)):
            assert np.array_equal(K, L)

    def test_dual_apply_of_a_stack_is_each_dual(self, rng):
        for family in FAMILIES:
            inst = random_instrument(rng, 3, family)
            stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
            for x in inst.outcomes:
                out = inst.dual_apply(x, stack)
                for C, D in zip(stack, out):
                    assert_close(D, inst.dual_apply(x, C))
            with pytest.raises(DimensionMismatchError):
                inst.dual_apply(inst.outcomes[0], np.zeros((2, 2, 2)))

    def test_large_dim_acts_and_encodes_as_pairs(self, rng):
        """At d = 64 every action, and the JSON document, stays in the pair
        form: 3 effects and 3 states, not 3 * d * rank(alpha) operators."""
        dim = 64
        A = random_observable(rng, dim, 3)
        inst = holevo_instrument(A, [random_density(rng, dim) for _ in range(3)])
        rho = random_density(rng, dim)
        B = random_observable(rng, dim, 3)
        x = inst.outcomes[0]
        assert np.trace(inst.apply(x, rho)).real == pytest.approx(
            np.trace(rho.matrix @ A.effects[0]).real, abs=1e-12)
        assert inst.dual_apply(x, B.effects).shape == (3, dim, dim)
        assert inst.channel(rho).dim == dim
        assert_close(inst.measured_observable().effects, A.effects)
        sequential_product(inst, B)
        conditioned_observable(inst, B)
        merged = inst.coarse_grain(lambda x: 0.0)
        assert_close(merged.apply(0.0, rho), inst.channel(rho).matrix)
        doc = json.loads(canonical_json(encode_instrument(inst), compact=True))
        assert doc["family"] == "holevo"
        assert len(doc["observable"]["effects"]) == len(doc["states"]) == 3
        back = decode_instrument(doc)
        assert back.outcomes == inst.outcomes
        assert_same_parts(back, inst)


class TestCoarseGrainInstrument:
    def test_regrouping_does_not_check_again(self):
        # Accepted at tol_lin=1e-6 with a channel residual of 1e-7, which
        # the default tolerance would reject: regrouping must keep it.
        inst = Instrument([0.0, 1.0], [[np.sqrt(0.5) * np.eye(2)],
                                       [np.sqrt(0.5 + 1e-7) * np.eye(2)]],
                          tol_lin=1e-6)
        same = inst.coarse_grain({0.0: 0.0, 1.0: 1.0})
        assert same.outcomes == inst.outcomes
        assert_same_parts(same, inst)
        merged = inst.coarse_grain(lambda x: 0.0)
        assert np.array_equal(merged._parts[0][0],
                              np.concatenate([K for K, in inst._parts]))

    def test_measured_observable_keeps_the_instruments_tolerance(self):
        # The channel residual of 1e-7 was accepted at tol_lin=1e-6; the
        # measured observable must not recheck it at the default TOL_LIN.
        inst = Instrument([0.0, 1.0], [[np.sqrt(0.5) * np.eye(2)],
                                       [np.sqrt(0.5 + 1e-7) * np.eye(2)]],
                          tol_lin=1e-6)
        measured = inst.measured_observable()
        assert measured.outcomes == (0.0, 1.0)
        assert max_abs_diff(measured.effects[1], (0.5 + 1e-7) * np.eye(2)) < 1e-15

    def test_identity_function_preserves_instrument(self, rng):
        inst = random_instrument(rng, 2, "lueders")
        same = inst.coarse_grain({x: x for x in inst.outcomes})
        assert same.outcomes == inst.outcomes
        assert [len(K) for K, in same._parts] == [len(K) for K, in inst._parts]
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
    """A real function f of the outcome pair (x, y) is the observable
    coarse_grain(sequential_product(inst, B), f); its statistics are that
    observable's."""

    def test_constant_function(self, rng):
        inst = random_instrument(rng, 2, "lueders")
        B = random_observable(rng, 2, 2)
        rho = random_density(rng, 2)
        f = {(x, y): 1.0 for x in inst.outcomes for y in B.outcomes}
        fab = coarse_grain(sequential_product(inst, B), f)
        assert stats.average(rho, fab) == pytest.approx(1.0, abs=1e-12)
        assert stats.variance(rho, fab) == pytest.approx(0.0, abs=1e-12)
        assert fab.outcomes == (1.0,)

    def test_trivial_product_function_factorizes(self, rng):
        omega = {1.0: 0.3, 2.0: 0.7}
        inst = trivial_instrument(omega, 2)
        B = random_observable(rng, 2, 2)
        rho = random_density(rng, 2)
        g = {1.0: 2.0, 2.0: -1.0}
        h = {y: float(v) for y, v in zip(B.outcomes, (1.0, 3.0))}
        f = {(x, y): g[x] * h[y] for x in inst.outcomes for y in B.outcomes}
        mean = stats.average(rho, coarse_grain(sequential_product(inst, B), f))
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
        mean = stats.average(rho, coarse_grain(sequential_product(inst, B), f))
        expected = np.trace(rho.matrix @ stochastic_operator(A)
                            @ stochastic_operator(B)).real
        assert mean == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_split_function_simplification(self, family, rng):
        inst = random_instrument(rng, 3, family)
        B = random_observable(rng, 3, 2)
        g = {x: float(v) for x, v in zip(inst.outcomes, (1.0, -2.0, 0.5))}
        h = {y: float(v) for y, v in zip(B.outcomes, (2.0, -1.0))}
        f = {(x, y): g[x] * h[y] for x in inst.outcomes for y in B.outcomes}
        fab = coarse_grain(sequential_product(inst, B), f)
        hB = stochastic_operator(coarse_grain(B, h))
        expected = sum(g[x] * inst.dual_apply(x, hB) for x in inst.outcomes)
        assert max_abs_diff(stochastic_operator(fab), expected) < 1e-9

    def test_variance_matches_direct_formula(self, rng):
        inst = random_instrument(rng, 2, "holevo")
        B = random_observable(rng, 2, 2)
        rho = random_density(rng, 2)
        f = {(x, y): float(i - 2 * j) for i, x in enumerate(inst.outcomes)
             for j, y in enumerate(B.outcomes)}
        fab = coarse_grain(sequential_product(inst, B), f)
        mean, var = stats.average(rho, fab), stats.variance(rho, fab)
        T = sum(f[(x, y)] * inst.dual_apply(x, B.effects[B.outcomes.index(y)])
                for x in inst.outcomes for y in B.outcomes)
        direct_mean = np.trace(rho.matrix @ T).real
        direct_var = np.trace(rho.matrix @ T @ T).real - direct_mean ** 2
        assert mean == pytest.approx(direct_mean, abs=1e-12)
        assert var == pytest.approx(direct_var, abs=1e-10)

    def test_missing_pair_rejected(self, rng):
        inst = random_instrument(rng, 2, "trivial")
        B = random_observable(rng, 2, 2)
        with pytest.raises(MissingLabelError):
            coarse_grain(sequential_product(inst, B), {})


class TestDerivedWithoutSecondCheck:
    """Sequential products, conditioned and measured observables skip the
    effect spectrum check, and the measured observable also completeness."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_public_constructor_rebuilds_the_same_values(self, family, dim, rng):
        inst = random_instrument(rng, dim, family, n_outcomes=3)
        B = random_observable(rng, dim, 3)
        # For dim >= 2 rank-deficient effects; for dim >= 3 a repeated
        # eigenvalue of the stochastic operator.
        sharp = random_sharp_observable(rng, dim, min(dim, 2))
        labels = Observable(["a", "b", "c"], B.effects)
        assert_rebuilds_exactly(inst.measured_observable())
        for C in (B, sharp, labels):
            assert_rebuilds_exactly(sequential_product(inst, C))
            assert_rebuilds_exactly(conditioned_observable(inst, C))
        for labelled in (lueders_instrument(labels), holevo_instrument(
                labels, [random_density(rng, dim) for _ in range(3)])):
            assert_rebuilds_exactly(labelled.measured_observable())

    def test_builders_never_reach_the_effect_spectrum_check(
            self, rng, monkeypatch):
        A = random_observable(rng, 4, 3)
        B = random_observable(rng, 4, 2)
        C = random_commutative_observable(rng, 4, 2)
        insts = [random_instrument(rng, 4, family) for family in FAMILIES]
        calls = []
        check = observables._check_effects

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(observables, "_check_effects", counted)
        sharp_version(A)
        conjugate(A)
        conjugate_joint(A)
        commuting_joint(C, C)
        coarse_grain(A, {x: 0.0 for x in A.outcomes})
        for inst in insts:
            sequential_product(inst, B)
            conditioned_observable(inst, B)
            inst.measured_observable()
        assert calls == []
        Observable(A.keys, A.effects)
        assert len(calls) == 1


class TestFamiliesBuildFromCheckedArrays:
    """The trivial and Lueders families skip re-coercing their own Kraus
    arrays and the constructor's eigensolve of the measured effects."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_equal_the_public_constructor_bit_for_bit(self, dim, rng):
        A = random_observable(rng, dim, 3)
        sharp = random_sharp_observable(rng, dim, min(dim, 2))  # rank < dim
        labels = Observable(["a", "b", "c"], A.effects)
        p = random_probability_vector(rng, 3)
        insts = [lueders_instrument(X) for X in (A, sharp, labels)]
        insts += [trivial_instrument({-1.0: p[0], 0.5: p[1], 2.0: p[2]}, dim),
                  trivial_instrument({"a": 0.0, "b": 1.0}, dim)]  # a zero map
        for inst in insts:
            again = Instrument(inst.outcomes, per_outcome(inst))
            assert again.outcomes == inst.outcomes
            assert np.array_equal(again._duals, inst._duals)
            assert_same_parts(again, inst)
            m, n = again.measured_observable(), inst.measured_observable()
            assert m.keys == n.keys
            assert np.array_equal(m.effects, n.effects)

    def test_only_the_constructor_runs_the_trace_eigensolve(self, rng,
                                                            monkeypatch):
        A = random_observable(rng, 3, 3)
        doc = encode_instrument(lueders_instrument(A))
        calls = []
        eigenvalues = linalg.hermitian_eigenvalues

        def counted(M):
            calls.append(M.shape)
            return eigenvalues(M)

        monkeypatch.setattr(linalg, "hermitian_eigenvalues", counted)
        inst = lueders_instrument(A)
        trivial_instrument({1.0: 0.25, -1.0: 0.75}, 3)
        assert calls == []
        Instrument(inst.outcomes, per_outcome(inst))
        assert len(calls) == 1
        decode_instrument(doc)  # the observable's effect check only
        assert len(calls) == 2

    def test_lueders_of_an_effect_above_the_default_bound(self):
        # Accepted at tol_psd=1e-6 with an eigenvalue 1 + 5e-7: the Lueders
        # duals are these effects, so only the constructor rejects them.
        A = Observable([0.0, 1.0], [np.diag([1.0 + 5e-7, 0.5]),
                                    np.diag([0.0, 0.5])],
                       tol_lin=1e-6, tol_psd=1e-6)
        inst = lueders_instrument(A)
        assert max_abs_diff(inst.measured_observable().effects, A.effects) < 1e-15
        with pytest.raises(NotAnEffectError) as info:
            Instrument(inst.outcomes, per_outcome(inst), tol_lin=1e-6)
        assert info.value.invariant == "effect-upper-bound"
        assert info.value.field == "kraus[0]"


class TestBuildersTrustCheckedInputs:
    """What a constructor accepted at its tolerances, every builder takes:
    none checks again at the defaults."""

    def test_inputs_accepted_at_a_loose_tol_lin(self):
        # Both sum to I within 1e-7: accepted at tol_lin=1e-6, not at TOL_LIN.
        B = Observable([0.0, 1.0], [np.diag([0.5, 0.5]),
                                    np.diag([0.5 + 1e-7, 0.5])], tol_lin=1e-6)
        inst = Instrument([0.0, 1.0], [[np.sqrt(0.5) * np.eye(2)],
                                       [np.sqrt(0.5 + 1e-7) * np.eye(2)]],
                          tol_lin=1e-6)
        rho = bloch_state([0.0, 0.0, 0.5])
        assert coarse_grain(B, lambda x: 0.0).outcomes == (0.0,)
        assert conjugate(B).outcomes == B.outcomes
        assert len(sequential_product(inst, B)) == 4
        assert conditioned_observable(inst, B).outcomes == B.outcomes
        fobs = coarse_grain(sequential_product(inst, B), lambda k: k[0] + k[1])
        assert fobs.outcomes == (0.0, 1.0, 2.0)
        # Effects w_x B_y: the mean is w_1 tr(rho sum B) + tr(rho B_1) sum w
        # = (0.5 + 1e-7)(1 + 0.75e-7) + (0.5 + 0.75e-7)(1 + 1e-7).
        assert stats.average(rho, fobs) == pytest.approx(1 + 2.625e-7, abs=1e-12)
        out = inst.channel(rho)
        assert abs(np.trace(out.matrix).real - (1.0 + 1e-7)) < 1e-15
        assert out.eigenvalues == tuple(
            linalg.hermitian_eigenvalues(out.matrix).tolist())

    def test_every_coarse_graining_rejects_a_key_that_names_no_outcome(self):
        A = Observable([0.0, 1.0, 2.0], [np.eye(2) / 3] * 3)
        inst = lueders_instrument(A)
        f = {1.0: 0.0, 0.0: 1.0, 2.0: 3.0, "typo": 5.0}
        pairs = {(x, y): 0.0 for x in A.outcomes for y in A.outcomes}
        for call in (lambda: coarse_grain(A, f), lambda: inst.coarse_grain(f),
                     lambda: coarse_grain(sequential_product(inst, A),
                                          {**pairs, "typo": 1.0})):
            with pytest.raises(UnknownOutcomeError) as info:
                call()
            assert (info.value.invariant, info.value.field) == (
                "known-outcome", "typo")
        # Keys match as dict keys do: the int 1 names the outcome 1.0.
        assert coarse_grain(A, {0: 0.0, 1: 1.0, 2: 1.0}).outcomes == (0.0, 1.0)
