"""Observable construction, sharp versions, conjugates, joints, coarse graining."""

import math
import sys
import threading

import numpy as np
import pytest

from qobs import linalg, observables as obs
from qobs.errors import ValidationError
from qobs.qubit import SIGMA_X, SIGMA_Y, noisy_spin
from qobs.sampling import (
    haar_unitary,
    random_commutative_observable,
    random_observable,
)

from conftest import (HUGE_SPECTRUM_EFFECTS, assert_rebuilds_exactly,
                      max_abs_diff, random_sharp_observable)


def trine_povm() -> obs.Observable:
    """Three-outcome qubit POVM with effects (I + cos t sx + sin t sy)/3."""
    effects = []
    for k in range(3):
        theta = 2 * np.pi * k / 3
        effects.append((np.eye(2) + np.cos(theta) * SIGMA_X
                        + np.sin(theta) * SIGMA_Y) / 3)
    return obs.Observable([0.0, 1.0, 2.0], effects)


class TestConstruction:
    def test_dichotomic(self):
        A1 = 0.5 * (np.eye(2) + 0.5 * SIGMA_X)
        A = obs.Observable([1.0, -1.0], [A1, np.eye(2) - A1])
        assert A.outcomes == (-1.0, 1.0)  # sorted ascending
        assert A.dim == 2

    def test_one_outcome(self):
        A = obs.Observable([5.0], [np.eye(3)])
        assert A.outcomes == (5.0,)

    def test_zero_effects_admitted(self):
        A = obs.Observable([0.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
        assert len(A) == 2

    def test_rejects_non_effect(self):
        with pytest.raises(ValidationError) as err:
            obs.Observable([1.0, -1.0], [2 * np.eye(2), -np.eye(2)])
        assert (err.value.invariant, err.value.field) == ("effect-upper-bound",
                                                          "effect[0]")

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError) as err:
            obs.Observable([0.0, 1.0], [0.5 * np.eye(2), 0.4 * np.eye(2)])
        assert err.value.invariant == "completeness"
        assert err.value.violation == pytest.approx(0.1)

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(ValidationError) as err:
            obs.Observable([1.0, 1.0], [0.5 * np.eye(2), 0.5 * np.eye(2)])
        assert err.value.invariant == "distinct-outcomes"

    def test_negative_zero_outcome_is_duplicate_of_zero(self):
        with pytest.raises(ValidationError) as err:
            obs.Observable([0.0, -0.0], [0.5 * np.eye(2), 0.5 * np.eye(2)])
        assert err.value.invariant == "distinct-outcomes"

    def test_general_observable_labels(self):
        G = obs.Observable(["up", "down"],
                           [0.5 * np.eye(2), 0.5 * np.eye(2)])
        assert G.keys == ("up", "down")
        with pytest.raises(ValidationError) as err:
            obs.Observable(["a", "a"],
                           [0.5 * np.eye(2), 0.5 * np.eye(2)])
        assert err.value.invariant == "distinct-labels"

    def test_checks_run_in_their_order(self):
        # Lists, then keys, then each effect, then completeness.
        with pytest.raises(ValidationError) as err:
            obs.Observable([1.0, 1.0], [np.eye(2)])
        assert err.value.invariant == "parallel-lists"
        with pytest.raises(ValidationError) as err:
            obs.Observable([1.0, 1.0], [2 * np.eye(2), [[1.0]]])
        assert err.value.invariant == "distinct-outcomes"
        with pytest.raises(ValidationError) as err:
            obs.Observable([0.0, 1.0], [0.5 * np.eye(2), 2 * np.eye(2)])
        assert (err.value.invariant, err.value.field) == ("effect-upper-bound",
                                                          "effect[1]")


def _planted_stacks(tol_lin, tol_psd):
    """(name, effects, the invariant the constructor must name or None):
    each rule broken, or kept, by a small margin on either side of its bound."""
    def herm(delta, low=0.5):
        E = np.array([[low, delta], [0.0, 0.5]])
        return [E, np.eye(2) - E]

    def diag(*rows):
        return [np.diag(row) for row in rows]

    below, above = -tol_psd * 1.001, -tol_psd * 0.999  # lambda_min near -tol_psd
    return [
        ("not-hermitian", herm(2 * tol_lin), "hermitian"),
        ("hermitian-within-tol", herm(0.5 * tol_lin), None),
        ("not-hermitian-and-negative", herm(2 * tol_lin, low=-1.0), "hermitian"),
        ("lambda-min-below", diag([below, 0.5], [1 - below, 0.5]),
         "effect-lower-bound"),
        ("lambda-min-above", diag([above, 0.5], [1 - above, 0.5]), None),
        ("lambda-max-above", diag([0.0, 0.5], [1 - below, 0.25], [below, 0.25]),
         "effect-upper-bound"),
        ("lambda-max-below", diag([0.0, 0.5], [1 - above, 0.25], [above, 0.25]),
         None),
        ("incomplete", diag([0.5, 0.5], [0.5, 0.5 + 2 * tol_lin]), "completeness"),
        ("complete-within-tol", diag([0.5, 0.5], [0.5, 0.5 + 0.5 * tol_lin]), None),
    ]


def _first_failure(residual, bound, n):
    """(invariant, field, violation) of the lowest failing effect, its rules
    in the order Hermitian, lower bound, upper bound; then completeness."""
    over = residual > bound
    for i in range(n):
        for k, invariant in enumerate(
                ("hermitian", "effect-lower-bound", "effect-upper-bound")):
            if over[k * n + i]:
                return invariant, f"effect[{i}]", float(residual[k * n + i])
    if over[3 * n]:
        return "completeness", None, float(residual[3 * n])
    return None


class TestEffectRule:
    """``_effect_margins`` is the one statement of the effect rule: the
    constructor raises exactly when one of its residuals exceeds its bound,
    and names the lowest failing effect."""

    @pytest.mark.parametrize("tol_lin, tol_psd", [(1e-9, 1e-8), (1e-4, 1e-3)])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_constructor_raises_on_the_kernel_first_failure(
            self, tol_lin, tol_psd, rotated, rng):
        U = haar_unitary(rng, 2)
        for name, effects, planted in _planted_stacks(tol_lin, tol_psd):
            E = np.array(effects, dtype=complex)
            if rotated:
                E = U @ E @ U.conj().T
            residual, bound = obs._effect_margins([E], tol_lin, tol_psd)
            assert residual.shape == bound.shape == (3 * len(E) + 1,)
            expected = _first_failure(residual, bound, len(E))
            if not rotated:
                assert (expected and expected[0]) == planted, name
            keys = [float(x) for x in range(len(E))]
            if expected is None:
                obs.Observable(keys, E, tol_lin=tol_lin, tol_psd=tol_psd)
                continue
            with pytest.raises(ValidationError) as err:
                obs.Observable(keys, E, tol_lin=tol_lin, tol_psd=tol_psd)
            got = (err.value.invariant, err.value.field, err.value.violation)
            assert got == expected, name

    def test_nan_spectrum_fails_the_lower_bound_of_the_first_effect(
            self, monkeypatch):
        """The effects are Hermitian, but their spectra are NaN: the first
        effect's first rule that fails on NaN is its lower bound."""
        monkeypatch.setattr(linalg, "hermitian_eigenvalues",
                            lambda E: np.full(E.shape[:2], math.nan))
        with pytest.raises(ValidationError) as err:
            obs.Observable([0.0, 1.0], noisy_spin(0.5, "z").effects)
        assert (err.value.invariant, err.value.field) == ("effect-lower-bound",
                                                          "effect[0]")
        assert math.isnan(err.value.violation)

    def test_huge_entries_fail_the_lower_bound_with_a_finite_violation(self):
        """Entries of 1e308 have a finite Hermitian part and spectrum: the
        first effect's -lambda_min is 1e308."""
        with pytest.raises(ValidationError) as err:
            obs.Observable([0.0, 1.0], HUGE_SPECTRUM_EFFECTS)
        assert (err.value.invariant, err.value.field) == ("effect-lower-bound",
                                                          "effect[0]")
        assert err.value.violation == 1e308

    def test_stacks_keep_their_entries_in_order(self, rng):
        """Two stacks give each stack's entries, kind by kind, then one
        completeness residual per stack."""
        A, B = random_observable(rng, 3, 2), random_observable(rng, 3, 3)
        residual, bound = obs._effect_margins([A.effects, B.effects], 1e-9, 1e-8)
        total = len(A) + len(B)
        assert residual.shape == (3 * total + 2,)
        for j, (X, offset) in enumerate(((A, 0), (B, len(A)))):
            r, b = obs._effect_margins([X.effects], 1e-9, 1e-8)
            n = len(X)
            for k in range(3):
                both = slice(k * total + offset, k * total + offset + n)
                assert np.array_equal(residual[both], r[k * n:(k + 1) * n])
                assert np.array_equal(bound[both], b[k * n:(k + 1) * n])
            assert (residual[3 * total + j], bound[3 * total + j]) == (r[-1], b[-1])


class TestStochasticOperator:
    def test_dichotomic(self, rng):
        A = random_observable(rng, 3, 2, outcomes=[1.0, -1.0])
        A1 = A.effects[A.outcomes.index(1.0)]
        assert max_abs_diff(obs.stochastic_operator(A),
                            2 * A1 - np.eye(3)) < 1e-14

    def test_noisy_spin(self):
        A = noisy_spin(0.7, "x")
        assert max_abs_diff(obs.stochastic_operator(A), 0.7 * SIGMA_X) < 1e-15

    def test_one_outcome(self):
        A = obs.Observable([2.5], [np.eye(3)])
        assert max_abs_diff(obs.stochastic_operator(A), 2.5 * np.eye(3)) == 0.0


class TestSharpAndCommutative:
    def test_spectral_observable_is_sharp_and_commutative(self, rng):
        A = random_sharp_observable(rng, 4, 3)
        assert obs.is_sharp(A)
        assert obs.is_commutative(A)

    def test_noisy_spin_is_unsharp_but_commutative(self):
        A = noisy_spin(0.5, "x")
        assert not obs.is_sharp(A)
        assert obs.is_commutative(A)

    def test_trine_is_not_commutative(self):
        A = trine_povm()
        assert not obs.is_commutative(A)
        # Direct commutator evaluation: |[A_0, A_1]| = sqrt(3)/9.
        comm = A.effects[0] @ A.effects[1] - A.effects[1] @ A.effects[0]
        assert np.max(np.abs(comm)) == pytest.approx(np.sqrt(3) / 9, abs=1e-12)


class TestSharpVersion:
    def test_diagonal_dichotomic_by_hand(self):
        # A1 = diag(0.7, 0.3) with outcomes {1, -1}: stochastic operator is
        # diag(0.4, -0.4), so outcomes {-0.4, 0.4} with basis projections.
        A = obs.Observable([1.0, -1.0],
                           [np.diag([0.7, 0.3]), np.diag([0.3, 0.7])])
        sharp = obs.sharp_version(A)
        assert sharp.outcomes == pytest.approx((-0.4, 0.4))
        assert max_abs_diff(sharp.effects[0], np.diag([0.0, 1.0])) < 1e-14
        assert max_abs_diff(sharp.effects[1], np.diag([1.0, 0.0])) < 1e-14

    def test_huge_outcomes_do_not_overflow(self):
        """The Hermitian part M/2 + M*/2 of diag(1e308, -1e308) is finite,
        so its outcomes are +-1e308, not a NaN ``finite-outcome`` error."""
        sharp = obs.sharp_version(np.diag([1e308, -1e308]))
        assert sharp.outcomes == (-1e308, 1e308)

    def test_already_sharp_is_fixed_point(self, rng):
        A = random_sharp_observable(rng, 4, 3)
        sharp = obs.sharp_version(A)
        assert sharp.outcomes == pytest.approx(A.outcomes, abs=1e-12)
        for E, F in zip(sharp.effects, A.effects):
            assert max_abs_diff(E, F) < 1e-9

    def test_noisy_spin(self):
        A = noisy_spin(0.8, "x")
        sharp = obs.sharp_version(A)
        assert sharp.outcomes == pytest.approx((-0.8, 0.8))
        assert max_abs_diff(sharp.effects[0], (np.eye(2) - SIGMA_X) / 2) < 1e-12
        assert max_abs_diff(sharp.effects[1], (np.eye(2) + SIGMA_X) / 2) < 1e-12

    def test_idempotent(self, rng):
        A = random_observable(rng, 4, 3)
        once = obs.sharp_version(A)
        twice = obs.sharp_version(once)
        assert twice.outcomes == pytest.approx(once.outcomes, abs=1e-9)
        for E, F in zip(twice.effects, once.effects):
            assert max_abs_diff(E, F) < 1e-9

    def test_same_stochastic_operator(self, rng):
        for _ in range(10):
            A = random_observable(rng, 3, 3)
            assert max_abs_diff(obs.stochastic_operator(obs.sharp_version(A)),
                                obs.stochastic_operator(A)) < 1e-9

    def test_outcomes_carried_by_zero_effects_vanish(self):
        A = obs.Observable([3.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
        sharp = obs.sharp_version(A)
        assert sharp.outcomes == (1.0,)

    def test_result_is_sharp(self, rng):
        A = random_observable(rng, 5, 3)
        assert obs.is_sharp(obs.sharp_version(A))


class TestConjugate:
    def test_commutative_observable_is_self_conjugate(self, rng):
        for _ in range(10):
            A = random_commutative_observable(rng, 4, 3)
            B = obs.conjugate(A)
            assert B.outcomes == A.outcomes
            for E, F in zip(B.effects, A.effects):
                assert max_abs_diff(E, F) < 1e-9

    def test_sharp_observable_is_self_conjugate(self, rng):
        A = random_sharp_observable(rng, 4, 2)
        B = obs.conjugate(A)
        for E, F in zip(B.effects, A.effects):
            assert max_abs_diff(E, F) < 1e-9

    def test_trine_has_nontrivial_conjugate_with_same_sharp_version(self):
        A = trine_povm()
        B = obs.conjugate(A)
        # Conjugate differs from A ...
        assert max(max_abs_diff(E, F)
                   for E, F in zip(B.effects, A.effects)) > 0.01
        # ... but has the same stochastic operator and sharp version.
        assert max_abs_diff(obs.stochastic_operator(B),
                            obs.stochastic_operator(A)) < 1e-12
        sa, sb = obs.sharp_version(A), obs.sharp_version(B)
        assert sb.outcomes == pytest.approx(sa.outcomes, abs=1e-9)
        for E, F in zip(sb.effects, sa.effects):
            assert max_abs_diff(E, F) < 1e-9

    def test_random_conjugate_shares_stochastic_operator(self, rng):
        for _ in range(10):
            A = random_observable(rng, 3, 3)
            B = obs.conjugate(A)
            assert max_abs_diff(obs.stochastic_operator(B),
                                obs.stochastic_operator(A)) < 1e-9


def _rebuilt(A: obs.Observable) -> obs.Observable:
    """An equal observable that shares nothing stored with A."""
    return obs.Observable(A.keys, A.effects.copy())


def _assert_same_values(A: obs.Observable, B: obs.Observable) -> None:
    assert A.keys == B.keys
    assert np.array_equal(A.effects, B.effects)


def _assert_marginal(joint: obs.Observable, axis: int,
                     expected: obs.Observable, tol: float) -> None:
    """The coarse graining of a pair-keyed joint by key[axis] has the keys
    of ``expected`` and its effects to ``tol``."""
    marginal = obs.coarse_grain(joint, lambda k: k[axis])
    assert marginal.keys == expected.keys
    assert max_abs_diff(marginal.effects, expected.effects) < tol


class TestStoredDerivations:
    """Sharp versions are derived once per object and ``cluster_tol``; a
    stored value is bit-identical to a fresh one."""

    def test_repeated_sharp_version_is_same_object(self, rng):
        A = random_observable(rng, 4, 3)
        assert obs.sharp_version(A) is obs.sharp_version(A)
        assert obs.sharp_version(A, 1e-6) is obs.sharp_version(A, 1e-6)

    def test_stored_sharp_version_equals_fresh_exactly(self, rng):
        for dim in (1, 2, 5):
            A = random_observable(rng, dim, 3)
            first = obs.sharp_version(A)
            _assert_same_values(obs.sharp_version(A), first)
            _assert_same_values(first, obs.sharp_version(_rebuilt(A)))

    def test_other_tolerances_are_not_served_from_store(self, rng):
        U = np.linalg.qr(rng.normal(size=(3, 3))
                         + 1j * rng.normal(size=(3, 3)))[0]
        effects = [U @ np.diag(e).astype(complex) @ U.conj().T
                   for e in np.eye(3)]
        A = obs.Observable([0.0, 1e-4, 1.0], effects)
        fine = obs.sharp_version(A)
        assert len(fine) == 3
        coarse = obs.sharp_version(A, 1e-3)
        assert coarse is not fine and len(coarse) == 2
        assert obs.sharp_version(A, 1e-3) is coarse
        assert obs.sharp_version(A) is fine

    def test_conjugate_after_sharp_version_equals_fresh_exactly(self, rng):
        for A in (trine_povm(), random_observable(rng, 4, 3)):
            obs.sharp_version(A)
            _assert_same_values(obs.conjugate(A), obs.conjugate(_rebuilt(A)))
            _assert_same_values(obs.conjugate_joint(A),
                                obs.conjugate_joint(_rebuilt(A)))

    def test_label_keys_store_nothing_and_keep_raising(self):
        A = obs.Observable(["up", "down"], [np.diag([1.0, 0.0]),
                                            np.diag([0.0, 1.0])])
        for derive in (obs.sharp_version, obs.conjugate_joint) * 2:
            with pytest.raises(ValidationError):
                derive(A)

    def test_threads_filling_one_store_get_one_object(self, rng):
        A = random_observable(rng, 4, 3)
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(obs.sharp_version(A)))
            for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(r is obs.sharp_version(A) for r in results)
        _assert_same_values(results[0], obs.sharp_version(_rebuilt(A)))

    def test_setting_an_attribute_still_raises(self, rng):
        A = random_observable(rng, 2, 2)
        obs.sharp_version(A)
        for name in ("keys", "effects", "_derived", "new"):
            with pytest.raises(AttributeError):
                setattr(A, name, None)


class TestConjugateJoint:
    def test_sharp_case_is_diagonal(self, rng):
        A = random_sharp_observable(rng, 4, 3)
        joint = obs.conjugate_joint(A)
        sharp = obs.sharp_version(A)
        for (lam, x), C in joint.pairs():
            if lam == pytest.approx(x, abs=1e-9):
                P = sharp.effects[sharp.outcomes.index(lam)]
                assert max_abs_diff(C, P) < 1e-9
            else:
                assert np.max(np.abs(C)) < 1e-9

    def test_marginals(self):
        A = trine_povm()
        joint = obs.conjugate_joint(A)
        _assert_marginal(joint, 0, obs.sharp_version(A), 1e-12)
        _assert_marginal(joint, 1, obs.conjugate(A), 1e-12)
        assert max_abs_diff(joint.effects.sum(0), np.eye(2)) < 1e-12
        for C in joint.effects:
            assert np.linalg.eigvalsh(C)[0] >= -1e-8

    def test_one_outcome(self):
        A = obs.Observable([4.0], [np.eye(2)])
        joint = obs.conjugate_joint(A)
        assert joint.keys == ((4.0, 4.0),)
        assert max_abs_diff(joint.effects[0], np.eye(2)) < 1e-14


class TestCommutingJoint:
    def test_diagonal_pair(self):
        A = obs.Observable([0.0, 1.0], [np.diag([1.0, 0.0, 0.0]),
                                        np.diag([0.0, 1.0, 1.0])])
        B = obs.Observable([0.0, 1.0], [np.diag([0.3, 0.6, 1.0]),
                                        np.diag([0.7, 0.4, 0.0])])
        joint = obs.commuting_joint(A, B)
        _assert_marginal(joint, 0, A, 1e-14)
        _assert_marginal(joint, 1, B, 1e-14)

    def test_self_joint(self, rng):
        A = random_commutative_observable(rng, 3, 2)
        joint = obs.commuting_joint(A, A)
        _assert_marginal(joint, 0, A, 1e-12)
        _assert_marginal(joint, 1, A, 1e-12)

    def test_input_accepted_at_a_loose_tol_lin(self):
        """Only the commutation of the inputs is checked: A, complete to 1e-7
        and accepted at tol_lin=1e-6, is joined as it is coarse grained."""
        E = np.diag([0.3, 0.6, 1.0])
        A = obs.Observable([0.0, 1.0], [E, np.eye(3) - E + 1e-7 * np.eye(3)],
                           tol_lin=1e-6)
        B = obs.Observable([0.0, 1.0], [np.diag([0.2, 0.9, 0.5]),
                                        np.diag([0.8, 0.1, 0.5])])
        obs.coarse_grain(A, {0.0: 1.0, 1.0: 1.0})
        joint = obs.commuting_joint(A, B)
        _assert_marginal(joint, 0, A, 1e-15)
        _assert_marginal(joint, 1, B, 1.1e-7)  # B scaled by A's sum, 1 + 1e-7

    def test_noncommuting_pair_rejected(self):
        A = noisy_spin(1.0, "x")
        B = noisy_spin(1.0, "y")
        with pytest.raises(ValidationError) as err:
            obs.commuting_joint(A, B)
        assert err.value.invariant == "commuting-effects"
        assert err.value.violation == pytest.approx(0.5)

    def test_is_commutative_decides_as_commuting_joint(self):
        """Both read norm <= bound.  Unchecked effects, as a builder forms
        them, whose products overflow have a NaN commutator norm: neither
        accepts it."""
        nan = obs.Observable.__new__(obs.Observable)._build(
            [0.0, 1.0], HUGE_SPECTRUM_EFFECTS.astype(complex))
        with np.errstate(all="ignore"):
            for A in (noisy_spin(0.5, "z"), trine_povm(), nan):
                try:
                    obs.commuting_joint(A, A)
                except ValidationError as err:
                    assert err.invariant == "commuting-effects"
                    assert not obs.is_commutative(A)
                else:
                    assert obs.is_commutative(A)
            assert not obs.is_commutative(nan)

    def test_dims_must_match(self):
        with pytest.raises(ValidationError) as err:
            obs.commuting_joint(noisy_spin(0.5, "z"),
                                obs.Observable([0.0], [np.eye(3)]))
        assert err.value.invariant == "matching-dims"


def test_residual_and_norm_are_the_violation_and_in_the_message():
    """The completeness residual and the commutator's norm are ``violation``;
    the message also names them with their bounds, and the pair of outcomes
    that fails."""
    with pytest.raises(ValidationError) as incomplete:
        obs.Observable([0.0, 1.0], [0.5 * np.eye(2), 0.4 * np.eye(2)])
    with pytest.raises(ValidationError) as noncommuting:
        obs.commuting_joint(noisy_spin(1.0, "x"), noisy_spin(1.0, "y"))
    for info, invariant, violation, message in (
            (incomplete, "completeness", 0.1,
             "effects do not sum to the identity "
             "(violation 1.000e-01, bound 1.000e-09)"),
            (noncommuting, "commuting-effects", 0.5,
             "effects at outcomes (-1.0, -1.0) do not commute "
             "(violation 5.000e-01, bound 1.000e-09)")):
        exc = info.value
        assert (exc.invariant, str(exc)) == (invariant, message)
        assert exc.violation == pytest.approx(violation)


def test_noisy_spin_needs_a_known_axis():
    with pytest.raises(ValidationError) as err:
        noisy_spin(0.5, "w")
    assert err.value.invariant == "axis"


@pytest.mark.parametrize("n", [0, 3])
def test_random_sharp_observable_needs_one_to_dim_outcomes(rng, n):
    with pytest.raises(ValueError, match="need 1 <= n_outcomes <= dim"):
        random_sharp_observable(rng, 2, n)


class TestCoarseGrain:
    def test_constant_function_gives_trivial_observable(self, rng):
        A = random_observable(rng, 3, 3)
        fA = obs.coarse_grain(A, lambda x: 7.0)
        assert fA.outcomes == (7.0,)
        assert max_abs_diff(fA.effects[0], np.eye(3)) < 1e-12

    def test_identity_function_is_noop(self, rng):
        A = random_observable(rng, 3, 3)
        fA = obs.coarse_grain(A, {x: x for x in A.outcomes})
        assert fA.outcomes == A.outcomes
        for E, F in zip(fA.effects, A.effects):
            assert max_abs_diff(E, F) == 0.0

    def test_square_of_dichotomic_collapses(self):
        A = noisy_spin(0.5, "x")
        fA = obs.coarse_grain(A, {1.0: 1.0, -1.0: 1.0})
        assert fA.outcomes == (1.0,)
        assert max_abs_diff(fA.effects[0], np.eye(2)) < 1e-14

    def test_stochastic_operator_pushforward(self, rng):
        A = random_observable(rng, 3, 4)
        f = {x: float(i % 2) for i, x in enumerate(A.outcomes)}
        fA = obs.coarse_grain(A, f)
        direct = sum(f[x] * E for x, E in A.pairs())
        assert max_abs_diff(obs.stochastic_operator(fA), direct) < 1e-12

    def test_general_observable_label_map(self):
        G = obs.Observable(["heads", "tails"],
                           [0.25 * np.eye(2), 0.75 * np.eye(2)])
        fG = obs.coarse_grain(G, {"heads": 1.0, "tails": -1.0})
        assert fG.outcomes == (-1.0, 1.0)

    def test_missing_label_rejected(self):
        A = noisy_spin(0.5, "x")
        with pytest.raises(ValidationError) as err:
            obs.coarse_grain(A, {1.0: 2.0})
        assert (err.value.invariant, err.value.field) == ("total-function", "-1.0")


def _derived_inputs(rng, dim: int) -> list[obs.Observable]:
    """A generic POVM, and a commutative one whose effects are rank-deficient
    (for dim >= 2) with a repeated eigenvalue in its stochastic operator
    (for dim >= 3)."""
    U = haar_unitary(rng, dim)
    a = np.resize([1.0, 0.5, 0.5, 0.0], dim)
    effects = [(U * w) @ U.conj().T for w in (a, 1.0 - a)]
    return [random_observable(rng, dim, 3),
            obs.Observable([-1.0, 2.0], [(E + E.conj().T) / 2.0
                                         for E in effects])]


class TestDerivedWithoutSecondCheck:
    """Sharp versions, conjugates and coarse grainings skip the effect
    spectrum check: the public constructor, given what they build, accepts
    it and gives the same values bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_public_constructor_rebuilds_the_same_values(self, dim, rng):
        for A in _derived_inputs(rng, dim):
            f = {x: float(i % 2) for i, x in enumerate(A.outcomes)}
            for out in (obs.sharp_version(A), obs.conjugate(A),
                        obs.coarse_grain(A, f)):
                assert_rebuilds_exactly(out)
        labels = obs.Observable(["a", "b", "c"],
                                random_observable(rng, dim, 3).effects)
        assert_rebuilds_exactly(
            obs.coarse_grain(labels, {"a": 1.0, "b": -1.0, "c": 1.0}))

    @pytest.mark.parametrize("dim", [*range(1, 9), 16, 32, 64])
    def test_sampler_draws_pass_the_constructors_rule(self, dim):
        """The samplers build as the builders do, without the effect check;
        their constructions are valid by design, which the public
        constructor confirms on seeded draws of 1 to 4 outcomes."""
        rng = np.random.default_rng(dim)
        for n in range(1, 5):
            for draw in (random_observable, random_commutative_observable):
                assert_rebuilds_exactly(draw(rng, dim, n))
        assert_rebuilds_exactly(random_observable(rng, dim, 2, outcomes=[1.0, -1.0]))

    def test_input_accepted_at_a_loose_tol_psd_is_derived_from(self):
        # An effect eigenvalue of -1e-7 passes tol_psd=1e-6; derived
        # observables inherit that acceptance instead of rechecking at
        # the default TOL_PSD (1e-8), which rejects it.
        E = np.diag([-1e-7, 0.5])
        A = obs.Observable([0.0, 1.0], [E, np.eye(2) - E], tol_psd=1e-6)
        with pytest.raises(ValidationError) as err:
            obs.Observable(A.keys, A.effects)
        assert (err.value.invariant, err.value.field) == ("effect-lower-bound",
                                                          "effect[0]")
        for out in (obs.conjugate(A), obs.coarse_grain(A, {0.0: 0.0, 1.0: 2.0})):
            assert max_abs_diff(out.effects, A.effects) < 1e-15

    def test_sharp_version_of_a_stochastic_operator_off_hermitian_at_scale(self):
        # E is Hermitian to 1e-10, within TOL_LIN; outcomes of 1e6 make the
        # stochastic operator's defect 2e-4, which the builders must not
        # check again.
        E = np.array([[0.5, 1e-10j], [0.0, 0.5]])
        A = obs.Observable([1e6, -1e6], [E, np.eye(2) - E])
        M = obs.stochastic_operator(A)
        w = np.linalg.eigh((M + M.conj().T) / 2.0)[0]
        assert obs.sharp_version(A).outcomes == tuple(w.tolist())
        assert obs.conjugate(A).outcomes == A.outcomes
        assert len(obs.conjugate_joint(A)) == 4
