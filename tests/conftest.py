import numpy as np
import pytest

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
