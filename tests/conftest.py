import numpy as np
import pytest

from qobs.linalg import psd_sqrt
from qobs.observables import Observable, stochastic_operator


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def max_abs_diff(A, B) -> float:
    return float(np.max(np.abs(np.asarray(A) - np.asarray(B))))


def assert_rebuilds_exactly(out: Observable) -> None:
    """The public constructor accepts a derived observable's keys and
    effects and gives back bit-equal keys, outcomes, effects and stochastic
    operator; the derived arrays are read-only."""
    again = Observable(out.keys, out.effects)
    assert again.keys == out.keys
    assert again.outcomes == out.outcomes
    assert np.array_equal(again.effects, out.effects)
    assert not out.effects.flags.writeable
    if out.outcomes is not None:
        assert np.array_equal(stochastic_operator(again),
                              stochastic_operator(out))
        assert not stochastic_operator(out).flags.writeable


def holevo_kraus(A: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Exact Kraus operators of Holevo pairs, an independent reference for
    the pair form: for rho -> tr(rho E) alpha with alpha = sum_j lam_j
    |v_j><v_j| and {e_k} the standard basis, K_(j,k) = sqrt(lam_j)
    |v_j><e_k| E^{1/2}, so d * rank(alpha) of them per pair."""
    lam, vecs = np.linalg.eigh(alphas)
    blocks = [np.sqrt(w[w > 0.0])[:, None, None, None] * (  # rank(alpha) > 0
        v.T[w > 0.0][:, None, :, None] * psd_sqrt(E)[None, :, None, :])
        for E, w, v in zip(A, lam, vecs)]
    return np.concatenate(blocks).reshape((-1,) + A.shape[1:])


def per_outcome(inst) -> list[np.ndarray]:
    """Each outcome's Kraus operators: its Kraus slice as held, or the
    exact Kraus form of its Holevo pairs."""
    return [p[0] if len(p) == 1 else holevo_kraus(*p) for p in inst._parts]


def assert_same_parts(got, want) -> None:
    """The same maps in the same form: every array of ``_parts`` equal, bit
    for bit."""
    assert [len(p) for p in got._parts] == [len(p) for p in want._parts]
    for p, q in zip(got._parts, want._parts):
        for x, y in zip(p, q):
            assert x.shape == y.shape and np.array_equal(x, y)
