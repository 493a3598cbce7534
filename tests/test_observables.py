"""Observable construction, sharp versions, conjugates, joints, coarse graining."""

import numpy as np
import pytest

from qobs import observables as obs
from qobs.errors import (
    CompletenessViolationError,
    DuplicateOutcomeError,
    MissingLabelError,
    NotAnEffectError,
    NotCommutingError,
)
from qobs.qubit import SIGMA_X, SIGMA_Y, noisy_spin
from qobs.sampling import (
    random_commutative_observable,
    random_observable,
    random_sharp_observable,
)

from conftest import max_abs_diff


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
        with pytest.raises(NotAnEffectError) as err:
            obs.Observable([1.0, -1.0], [2 * np.eye(2), -np.eye(2)])
        assert err.value.index == 0

    def test_rejects_incomplete(self):
        with pytest.raises(CompletenessViolationError) as err:
            obs.Observable([0.0, 1.0], [0.5 * np.eye(2), 0.4 * np.eye(2)])
        assert err.value.residual == pytest.approx(0.1)

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(DuplicateOutcomeError):
            obs.Observable([1.0, 1.0], [0.5 * np.eye(2), 0.5 * np.eye(2)])

    def test_negative_zero_outcome_is_duplicate_of_zero(self):
        with pytest.raises(DuplicateOutcomeError):
            obs.Observable([0.0, -0.0], [0.5 * np.eye(2), 0.5 * np.eye(2)])

    def test_general_observable_labels(self):
        G = obs.Observable(["up", "down"],
                           [0.5 * np.eye(2), 0.5 * np.eye(2)])
        assert G.keys == ("up", "down")
        with pytest.raises(DuplicateOutcomeError):
            obs.Observable(["a", "a"],
                           [0.5 * np.eye(2), 0.5 * np.eye(2)])


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


class TestConjugateJoint:
    def test_sharp_case_is_diagonal(self, rng):
        A = random_sharp_observable(rng, 4, 3)
        joint = obs.conjugate_joint(A)
        sharp = obs.sharp_version(A)
        for (i, x), C in joint:
            if sharp.outcomes[i] == pytest.approx(x, abs=1e-9):
                assert max_abs_diff(C, sharp.effects[i]) < 1e-9
            else:
                assert np.max(np.abs(C)) < 1e-9

    def test_marginals(self):
        A = trine_povm()
        joint = obs.conjugate_joint(A)
        conj = obs.conjugate(A)
        sharp = obs.sharp_version(A)
        for x, Bx in conj.pairs():
            row = sum(C for (i, xx), C in joint if xx == x)
            assert max_abs_diff(row, Bx) < 1e-12
        for i, P in enumerate(sharp.effects):
            col = sum(C for (ii, x), C in joint if ii == i)
            assert max_abs_diff(col, P) < 1e-12
        total = sum(C for _, C in joint)
        assert max_abs_diff(total, np.eye(2)) < 1e-12
        for _, C in joint:
            assert np.linalg.eigvalsh(C)[0] >= -1e-8

    def test_one_outcome(self):
        A = obs.Observable([4.0], [np.eye(2)])
        joint = obs.conjugate_joint(A)
        assert len(joint) == 1
        assert max_abs_diff(joint[0][1], np.eye(2)) < 1e-14


class TestCommutingJoint:
    def test_diagonal_pair(self):
        A = obs.Observable([0.0, 1.0], [np.diag([1.0, 0.0, 0.0]),
                                        np.diag([0.0, 1.0, 1.0])])
        B = obs.Observable([0.0, 1.0], [np.diag([0.3, 0.6, 1.0]),
                                        np.diag([0.7, 0.4, 0.0])])
        joint = obs.commuting_joint(A, B)
        for x, Ax in A.pairs():
            marg = sum(C for (xx, _), C in joint if xx == x)
            assert max_abs_diff(marg, Ax) < 1e-14
        for y, By in B.pairs():
            marg = sum(C for (_, yy), C in joint if yy == y)
            assert max_abs_diff(marg, By) < 1e-14

    def test_self_joint(self, rng):
        A = random_commutative_observable(rng, 3, 2)
        joint = obs.commuting_joint(A, A)
        for x, Ax in A.pairs():
            marg = sum(C for (xx, _), C in joint if xx == x)
            assert max_abs_diff(marg, Ax) < 1e-12

    def test_noncommuting_pair_rejected(self):
        A = noisy_spin(1.0, "x")
        B = noisy_spin(1.0, "y")
        with pytest.raises(NotCommutingError) as err:
            obs.commuting_joint(A, B)
        assert err.value.norm == pytest.approx(0.5)


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
        with pytest.raises(MissingLabelError):
            obs.coarse_grain(A, {1.0: 2.0})
