"""Replay codec of the property fuzzer: a trial bundle survives a round trip
through canonical JSON with every property residual bit for bit.  The
linear forms of two checks bound their references in ``conftest``."""

import functools
import json

import numpy as np
import pytest

from qobs import fuzz, instruments, linalg, observables
from qobs.errors import InternalConsistencyError, ValidationError
from qobs.observables import Observable
from qobs.sampling import haar_unitary
from qobs.states import maximally_mixed
from qobs.serialization import canonical_json

from conftest import (
    derived_spectrum_eigensolve,
    eigen_projections_pairwise,
    eigendecomposition_loop,
    fibers_unique,
    lueders_instrument_loop,
    random_commutative_observable_loop,
    random_observable_loop,
)


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


@pytest.mark.parametrize("field, value", [
    ("tol_lin", float("nan")), ("tol_psd", -1.0), ("tol_stat", float("inf")),
    ("cluster_tol", float("nan")), ("tol_lin", None), ("tol_psd", "1e-8")])
def test_tolerances_must_be_finite_nonnegative_reals(field, value):
    """A NaN bound turns off every check it bounds and a negative one fails
    them all, so the config refuses both and names the field."""
    with pytest.raises(ValidationError) as info:
        fuzz.RunConfig(trials=3, **{field: value})
    assert (info.value.invariant, info.value.field) == ("tolerance-range", field)


def test_worst_is_the_first_error_of_the_run():
    config = fuzz.RunConfig(seed=42, trials=9, dims=(2, 3, 4), tol_lin=1e-17)
    summary = fuzz.run_fuzz(config)
    # Only the checked primitive raises: the builders check nothing.
    assert {name: p["errors"] for name, p in summary["properties"].items()
            if p["errors"]} == {"psd_sqrt.contract": 5}
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


def test_stacked_kernels_give_the_loop_forms_summary(monkeypatch):
    """The run as shipped and the run on the loop forms of its kernels write
    the same bytes; both run on this machine's BLAS, so no digest is pinned."""
    config = fuzz.RunConfig(trials=45, seed=3, dims=range(1, 10))
    shipped = canonical_json(fuzz.run_fuzz(config))
    for owner, name, loop in [
            (linalg, "_eigendecomposition", eigendecomposition_loop),
            (fuzz, "random_observable", random_observable_loop),
            (fuzz, "random_commutative_observable",
             random_commutative_observable_loop),
            (fuzz, "lueders_instrument", lueders_instrument_loop),
            (observables, "fibers", fibers_unique),
            (instruments, "fibers", fibers_unique)]:
        monkeypatch.setattr(owner, name, loop)
    assert canonical_json(fuzz.run_fuzz(config)) == shipped


def test_worst_instance_is_encoded_once_per_run(monkeypatch):
    """The worst trial's bundle is kept and encoded after the loop, however
    often the worst changes, also when it is an error."""
    calls = []
    encode = fuzz.encode_instance
    monkeypatch.setattr(fuzz, "encode_instance",
                        lambda inst: calls.append(inst["dim"]) or encode(inst))
    for tol_lin in (1e-9, 1e-17):
        calls.clear()
        summary = fuzz.run_fuzz(fuzz.RunConfig(seed=42, trials=9, dims=(2, 3, 4),
                                               tol_lin=tol_lin))
        assert calls == [summary["worst"]["instance"]["dim"]]


def _planted_sharp_version(monkeypatch, spectrum):
    """A d=3 trial in which A's sharp version is the pair E, I - E with E =
    U diag(spectrum) U*, planted among the four sharp versions' effects."""
    inst = fuzz.build_instance(np.random.default_rng(5), 3, "lueders")
    U = haar_unitary(np.random.default_rng(6), 3)
    E = (U * np.array(spectrum)) @ U.conj().T
    E = (E + E.conj().T) / 2.0
    planted = Observable.__new__(Observable)._build(
        [0.0, 1.0], np.array([E, np.eye(3) - E]))
    sharp = fuzz.sharp_version
    monkeypatch.setattr(fuzz, "sharp_version", lambda X, cut=None: (
        planted if X is inst["A"] else sharp(X, cut)))
    return inst


@pytest.mark.parametrize("low", [-2e-8, -1e-6])
def test_sharp_effect_below_zero_reports_its_eigenvalue(monkeypatch, low):
    """A planted eigenvalue below -tol_psd is flagged at its exact size, as
    the reference reports it."""
    inst = _planted_sharp_version(monkeypatch, [low, 0.01, 1.0])
    config = fuzz.RunConfig()
    residual, bound = fuzz._chk_derived_spectrum(inst, config)
    assert residual > bound == config.tol_psd
    assert residual == pytest.approx(-low, rel=1e-6)
    assert (residual, bound) == derived_spectrum_eigensolve(inst, config)


@pytest.mark.parametrize("theta", np.geomspace(1e-12, 1e-3, 8))
def test_tail_sums_bound_the_pairwise_products(monkeypatch, theta):
    """P_0 rotated by theta toward P_1: the tail-sum residual is at least
    the pairwise one, and both give the same verdict."""
    inst = fuzz.build_instance(np.random.default_rng(3), 4, "trivial")
    exact = linalg.hermitian_eigendecomposition(inst["H"])
    assert exact.multiplicities == (1, 1, 1, 1)
    _, V = linalg._eigh(inst["H"])
    v = np.cos(theta) * V[:, 0] + np.sin(theta) * V[:, 1]
    P = np.array(exact.projections)
    P[0] = np.outer(v, v.conj())
    rotated = linalg.EigenDecomposition(exact.eigenvalues, linalg.frozen(P),
                                        exact.multiplicities)
    monkeypatch.setattr(fuzz, "hermitian_eigendecomposition",
                        lambda *args, **kw: rotated)
    config = fuzz.RunConfig()
    new, bound = fuzz._chk_eigen_projections(inst, config)
    old, _ = eigen_projections_pairwise(inst, config)
    assert new >= old
    assert (new > bound) == (old > bound)


def _planted_projections(monkeypatch, P):
    """A d-dim trial whose eigendecomposition has the projections P."""
    d = P.shape[1]
    planted = linalg.EigenDecomposition(tuple(range(len(P))), linalg.frozen(P),
                                        (1,) * len(P))
    monkeypatch.setattr(fuzz, "hermitian_eigendecomposition",
                        lambda *args, **kw: planted)
    return {"H": np.diag(np.arange(d, dtype=float))}


def test_idempotence_defects_that_hide_a_pair_from_the_tail_sums(monkeypatch):
    """d = k = 16: P_15 couples |0> and |15> by eps, and P_1..P_14 each carry
    -eps/14 of that coupling, an idempotence defect of max entry eps/14.  Then
    P_0 S_0 = 0 and every tail product and idempotence entry is below tol_lin,
    but P_0 P_15 has an entry eps above it: the defect term of the residual
    catches what the pairwise form catches."""
    k, eps, tol = 16, 7e-9, 1e-9
    X = np.zeros((k, k), dtype=complex)
    X[0, k - 1] = X[k - 1, 0] = 1.0
    P = np.array([np.diag(np.eye(k)[j]).astype(complex) for j in range(k)])
    P[1:-1] -= eps / (k - 2) * X
    P[-1] += eps * X
    inst = _planted_projections(monkeypatch, P)
    S = P[::-1].cumsum(0)[::-1]
    assert np.linalg.norm(P[:-1] @ S[1:], axis=(-2, -1)).max() < tol
    assert linalg.max_abs(P @ P - P) < tol
    assert linalg.max_abs(P.sum(0) - np.eye(k)) < tol
    config = fuzz.RunConfig(tol_lin=tol)
    old, _ = eigen_projections_pairwise(inst, config)
    new, bound = fuzz._chk_eigen_projections(inst, config)
    assert old == pytest.approx(eps) and old > bound
    assert new >= old


def test_linear_forms_dominate_their_references():
    """Over 200 seeded trials at d 1..9 each linear form gives the
    reference's verdict at a ratio at least the reference's."""
    config = fuzz.RunConfig()
    for i in range(200):
        inst = fuzz.build_instance(np.random.default_rng([11, i]), 1 + i % 9,
                                   fuzz.FAMILIES[i % 3])
        for check, reference in [
                (fuzz._chk_eigen_projections, eigen_projections_pairwise),
                (fuzz._chk_derived_spectrum, derived_spectrum_eigensolve)]:
            (new, bound), (old, old_bound) = (check(inst, config),
                                              reference(inst, config))
            assert (new > bound) == (old > old_bound), (i, check.__name__)
            assert new / bound >= old / old_bound, (i, check.__name__)


def test_observables_of_different_sizes_are_infinitely_apart():
    two, three = (Observable(range(n), np.full((n, 1, 1), 1.0 / n))
                  for n in (2, 3))
    assert fuzz._matched_observable_delta(two, three) == np.inf


def test_nan_uncertainty_residual_is_an_error_not_a_pass():
    """The fuzz disarms the report's guard with tol=inf; a NaN residual,
    which compares false with any bound, must still raise, so the run
    counts it as the property's error rather than max(0.0, nan) == 0.0."""
    D = np.diag([1e200, -1e200])
    rho = maximally_mixed(2)
    bundle = {"rho": rho, "rho_low": rho, "A": D, "B": D, "C": D, "D": D}
    for check in (fuzz._chk_uncertainty_equation,
                  fuzz._chk_uncertainty_inequality):
        with np.errstate(invalid="ignore"):  # inf - inf
            with pytest.raises(InternalConsistencyError):
                check(bundle, fuzz.RunConfig())
