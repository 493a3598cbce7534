"""Replay codec of the property fuzzer: a trial bundle survives a round trip
through canonical JSON with every property residual bit for bit."""

import functools
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
    calls = {}

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)  # keeps args alive
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in [(fuzz, "sequential_product"),
                        (fuzz.stats, "uncertainty_report"),
                        (fuzz, "hermitian_eigendecomposition"),
                        (fuzz, "conjugate"), (fuzz, "coarse_grain"),
                        (fuzz, "conditioned_observable"),
                        (fuzz.Instrument, "channel"),
                        (fuzz.Instrument, "coarse_grain")]:
        name = attr if owner is not fuzz.Instrument else f"Instrument.{attr}"
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    summary = fuzz.run_fuzz(fuzz.RunConfig(seed=5, trials=6, dims=(2, 3)))
    assert summary["violations"] == 0
    # Per trial: two reports, conjugates of A and A_comm, and coarse
    # grainings of A, the measured observable and the product.
    assert {name: len(args) for name, args in calls.items()} == {
        "sequential_product": 6, "uncertainty_report": 12,
        "hermitian_eigendecomposition": 6, "conjugate": 12,
        "coarse_grain": 18, "conditioned_observable": 6,
        "Instrument.channel": 6, "Instrument.coarse_grain": 6}
    for name, args in calls.items():  # never twice on the same operands
        assert len({tuple(map(id, a)) for a in args}) == len(args), name


def test_dims_above_max_dim_are_rejected():
    assert fuzz.RunConfig(dims=(2, 64)).dims == (2, 64)
    with pytest.raises(ValidationError) as info:
        fuzz.RunConfig(dims=(2, 65))
    assert info.value.invariant == "dim-range"


def test_worst_is_the_first_error_of_the_run():
    config = fuzz.RunConfig(seed=42, trials=9, dims=(2, 3, 4), tol_lin=1e-17)
    summary = fuzz.run_fuzz(config)
    assert summary["properties"]["sharp.same_stochastic"]["errors"] == 9
    worst = summary["worst"]
    assert (worst["trial"], worst["ratio"]) == (0, None)
    instance = fuzz.decode_instance(worst["instance"])
    for name, check in fuzz.CHECKS.items():  # no earlier property raises
        if name == worst["property"]:
            break
        check(instance, config)
    assert fuzz.replay_instance(worst, config)["error"] == worst["error"]


@pytest.mark.parametrize("dims", [(2, 3, 4), tuple(range(1, 10)),
                                  (2, 3, 4, 5, 6), (3, 5)])
def test_each_dim_meets_each_family_within_three_passes(monkeypatch, dims):
    cells = []
    build = fuzz.build_instance

    def counted(rng, dim, family):
        cells.append((rng.bit_generator.seed_seq.spawn_key, dim, family))
        return build(rng, dim, family)

    monkeypatch.setattr(fuzz, "build_instance", counted)
    trials = 3 * len(dims)
    fuzz.run_fuzz(fuzz.RunConfig(seed=1, trials=trials, dims=dims))
    assert [key for key, _, _ in cells] == [(i,) for i in range(trials)]
    assert {cell[1:] for cell in cells} == {
        (d, f) for d in dims for f in fuzz.FAMILIES}
    if len(dims) % 3:  # the map every earlier run used
        assert [cell[1:] for cell in cells] == [
            (dims[i % len(dims)], fuzz.FAMILIES[i % 3]) for i in range(trials)]
