"""Replay codec of the property fuzzer: a trial bundle survives a round trip
through canonical JSON with every property residual bit for bit.  The
linear forms of two checks bound their references in ``conftest``."""

import functools
import hashlib
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
    ranks,
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
            # an observable keeps its own sharp version; count those of H
            if name != "sharp_version" or not isinstance(args[0], Observable):
                calls.setdefault(name, []).append(args)  # keeps args alive
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in [(fuzz, "sequential_product"),
                        (fuzz.stats, "uncertainty_report"),
                        (fuzz, "sharp_version"),
                        (fuzz, "conjugate"), (fuzz, "coarse_grain"),
                        (fuzz, "conditioned_observable"),
                        (fuzz.Instrument, "channel"),
                        (fuzz.Instrument, "coarse_grain")]:
        name = attr if owner is not fuzz.Instrument else f"Instrument.{attr}"
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    summary = fuzz.run_fuzz(fuzz.RunConfig(seed=5, trials=6, dims=(2, 3)))
    assert summary["violations"] == 0
    # Per trial: two reports, the sharp version of H, conjugates of A and
    # A_comm, and coarse grainings of A, the measured observable and the product.
    assert {name: len(args) for name, args in calls.items()} == {
        "sequential_product": 6, "uncertainty_report": 12,
        "sharp_version": 6, "conjugate": 12,
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
    assert (worst["error"], worst["invariant"]) == (
        "ValidationError: matrix: not Hermitian (violation 4.441e-16, "
        "bound 6.652e-17)", "hermitian")
    replayed = fuzz.replay_instance(summary)
    assert (replayed["error"], replayed["invariant"]) == (
        worst["error"], worst["invariant"])


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


# The properties of a run, in the order it evaluates them.  Adding,
# removing or renaming one is an output change: update this list
# deliberately, re-pin ``SUMMARY_DIGESTS`` and name the change in CHANGES.md.
PROPERTIES = (
    "eigen.reconstruction", "eigen.projections", "psd_sqrt.contract",
    "state_form.psd", "state_form.cauchy_schwarz",
    "state_form.conjugate_symmetry", "state.faithful_witness",
    "bloch.eigenvalues", "sharp.same_stochastic", "sharp.idempotent",
    "conjugate.same_sharp", "conjugate.commutative_identity",
    "coarse_grain.validity", "uncertainty.equation", "uncertainty.inequality",
    "correlation.conjugate_symmetry", "statistics.sharp_consistency",
    "statistics.maximally_mixed", "deviation.traceless",
    "commutator.imaginary_identity", "instrument.adjointness",
    "instrument.probability", "instrument.channel",
    "instrument.coarse_grain_measured", "instrument.mean",
    "sequential.marginal", "conditioned.mean", "product.split_function",
    "derived.effect_spectrum",
)


def test_checks_are_exactly_the_listed_properties():
    assert tuple(fuzz.CHECKS) == PROPERTIES
    assert len(PROPERTIES) == 29


# SHA-256 of the bytes ``qobs fuzz --json`` prints for each config.  A digest
# changes only in a change that declares an output change in CHANGES.md, as
# ``tests/test_public_api.py`` does for the public names.  Pinned with numpy
# 2.4 on OpenBLAS 0.3.31, single- and multi-threaded alike; a BLAS that
# rounds differently can move them without any change to the library.
SUMMARY_DIGESTS = [
    (fuzz.RunConfig(seed=42, trials=200),
     "bafc0fb279a48887a1e976c2930f85a778f53c32018db9dc8ca3d7eef13b03a9"),
    (fuzz.RunConfig(seed=3, trials=45, dims=tuple(range(1, 10))),
     "3cf04cdbfeee64c2b954fda44933e440de9b697709adffc9e63d8653b3af1a12"),
    (fuzz.RunConfig(seed=5, trials=30, dims=(2, 3, 4), cluster_tol=0.05),
     "44871cde93fa69f25eb4babe134ab97e9fafa6146bef9dccfd8e8a31b13e058b"),
]


@pytest.mark.parametrize("config, digest", SUMMARY_DIGESTS,
                         ids=["seed42", "seed3-dims1..9", "seed5-cluster0.05"])
def test_summary_bytes_are_pinned(config, digest):
    text = canonical_json(fuzz.run_fuzz(config), compact=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_stacked_kernels_give_the_loop_forms_summary(monkeypatch):
    """The run as shipped and the run on the loop forms of its kernels write
    the same bytes, on whichever BLAS runs both."""
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
    exact = fuzz.sharp_version(inst["H"])
    assert ranks(exact.effects) == (1, 1, 1, 1)
    _, V = linalg._eigh(inst["H"])
    v = np.cos(theta) * V[:, 0] + np.sin(theta) * V[:, 1]
    P = np.array(exact.effects)
    P[0] = np.outer(v, v.conj())
    rotated = Observable.__new__(Observable)._build(exact.outcomes, P)
    monkeypatch.setattr(fuzz, "sharp_version", lambda *args, **kw: rotated)
    config = fuzz.RunConfig()
    new, bound = fuzz._chk_eigen_projections(inst, config)
    old, _ = eigen_projections_pairwise(inst, config)
    assert new >= old
    assert (new > bound) == (old > bound)


def _planted_projections(monkeypatch, P):
    """A d-dim trial whose sharp version of H has the effects P; only
    ``_chk_eigen_projections`` may read it, as every sharp version is P."""
    d = P.shape[1]
    planted = Observable.__new__(Observable)._build(range(len(P)), P)
    monkeypatch.setattr(fuzz, "sharp_version", lambda *args, **kw: planted)
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


def _restated_effect_rule(inst, cfg):
    """The effect rule as the fuzz once restated it, (residual, bound) per
    formula: A's completeness and spectrum, the completeness of f(A), bounded
    as ``coarse_grain.validity`` bounded it, and the product's completeness."""
    A = inst["A"]
    fA = fuzz._shared(inst, fuzz.coarse_grain, "A", "f_obs")
    product = fuzz._shared(inst, fuzz.sequential_product, "inst", "B")
    direct = sum(inst["f_obs"][x] * E for x, E in A.pairs())
    w = np.linalg.eigvalsh(A.effects)

    def gap(obs):
        return linalg.max_abs(obs.effects.sum(0) - np.eye(obs.dim))

    return [(gap(A), cfg.tol_lin),
            (max(0.0, -float(w[:, 0].min()), float(w[:, -1].max()) - 1.0),
             cfg.tol_psd),
            (gap(fA), cfg.tol_lin * linalg.scale_of(direct)),
            (gap(product), cfg.tol_lin)]


@pytest.mark.parametrize("config", [
    fuzz.RunConfig(seed=42, trials=30, tol_lin=1e-17),
    fuzz.RunConfig(seed=42, trials=30, tol_psd=0, tol_lin=1e-15, tol_stat=1e-18),
    fuzz.RunConfig(seed=3, trials=45, dims=tuple(range(1, 10)), tol_lin=2e-15),
    fuzz.RunConfig(seed=7, trials=30, tol_lin=1e-16, tol_psd=1e-17),
    fuzz.RunConfig(seed=42, trials=100, tol_lin=2e-15),
], ids=["tol-lin-1e-17", "tol-psd-0", "seed3-dims1..9", "seed7", "tol-lin-2e-15"])
def test_effect_spectrum_fails_wherever_a_restated_rule_fails(monkeypatch, config):
    """Each trial of a tightened run in which a restated formula exceeds its
    bound violates ``derived.effect_spectrum`` too."""
    check, trials = fuzz._chk_derived_spectrum, []

    def recorded(inst, cfg):
        old = any(r > b for r, b in _restated_effect_rule(inst, cfg))
        residual, bound = check(inst, cfg)
        trials.append((old, residual > bound))
        return residual, bound

    monkeypatch.setattr(fuzz, "CHECKS", {"derived.effect_spectrum": recorded})
    fuzz.run_fuzz(config)
    assert len(trials) == config.trials
    assert any(old for old, _ in trials)  # the config reaches the formulas
    assert all(new for old, new in trials if old)


@pytest.mark.parametrize("name", ["A", "B", "A_comm"])
@pytest.mark.parametrize("family", fuzz.FAMILIES)
def test_input_effect_below_zero_reports_its_eigenvalue(name, family):
    """An input observable whose first effect has eigenvalue -delta, with
    the sum kept at I, is flagged at that size: the check reads the inputs."""
    inst = fuzz.build_instance(np.random.default_rng(5), 3, family)
    X, delta = inst[name], 1e-6
    w, V = np.linalg.eigh(X.effects[0])
    shift = (w[0] + delta) * np.outer(V[:, 0], V[:, 0].conj())
    E = np.array(X.effects)
    E[0] -= shift
    E[1] += shift
    inst[name] = Observable.__new__(Observable)._build(X.keys, E)
    config = fuzz.RunConfig()
    assert any(obs is inst[name] for obs in fuzz._trial_observables(inst, config))
    residual, bound = fuzz._chk_derived_spectrum(inst, config)
    assert residual > bound == config.tol_psd
    assert residual == pytest.approx(delta, rel=1e-6)
    assert (residual, bound) == derived_spectrum_eigensolve(inst, config)


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
