"""Replay codec of the property fuzzer: a trial bundle survives a round trip
through canonical JSON with every property residual bit for bit."""

import json

import numpy as np
import pytest

from qobs import fuzz
from qobs.errors import ValidationError
from qobs.serialization import canonical_json


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("family", fuzz.FAMILIES)
def test_instance_round_trip_keeps_every_residual(family, dim):
    rng = np.random.default_rng([dim, fuzz.FAMILIES.index(family)])
    original = fuzz.build_instance(rng, dim, family)
    encoded = fuzz.encode_instance(original)
    decoded = fuzz.decode_instance(json.loads(canonical_json(encoded)))
    assert fuzz.encode_instance(decoded) == encoded
    config = fuzz.RunConfig()
    for name, check in fuzz.CHECKS.items():
        expected = check(original, config)
        assert repr(check(decoded, config)) == repr(expected), name


def test_each_trial_builds_its_shared_values_once(monkeypatch):
    calls = {"product": 0, "report": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        wrapper.__name__ = fn.__name__
        return wrapper

    monkeypatch.setattr(fuzz, "sequential_product",
                        counted("product", fuzz.sequential_product))
    monkeypatch.setattr(fuzz.stats, "uncertainty_report",
                        counted("report", fuzz.stats.uncertainty_report))
    summary = fuzz.run_fuzz(fuzz.RunConfig(seed=5, trials=6, dims=(2, 3)))
    assert summary["violations"] == 0
    assert calls == {"product": 6, "report": 12}


def test_dims_above_max_dim_are_rejected():
    assert fuzz.RunConfig(dims=(2, 64)).dims == (2, 64)
    with pytest.raises(ValidationError) as info:
        fuzz.RunConfig(dims=(2, 65))
    assert info.value.invariant == "dim-range"
