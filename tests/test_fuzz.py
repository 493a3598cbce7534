"""Replay codec of the property fuzzer: a trial bundle survives a round trip
through canonical JSON with every property residual bit for bit.  The
linear forms of two checks bound their references in ``conftest``.  Every
property returns rows, which ``fuzz._decide`` alone reduces."""

import ast
import dataclasses
import functools
import hashlib
import json
import math
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from qobs import fuzz, instruments, linalg, observables, sampling
from qobs.cli import main
from qobs.errors import InternalConsistencyError, ParseError, ValidationError
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
    for name, check in fuzz.CHECKS.items():  # every row: name, residual, bound
        expected = [list(column) for column in check(original, config)]
        assert repr([list(column) for column in check(decoded, config)]) == \
            repr(expected), name


def _worst_row(check, inst, cfg):
    """The (residual, bound) of the row of ``check`` that ``fuzz._decide``
    finds worst on the trial ``inst``."""
    _, _, residual, bound, _, _ = fuzz._decide(check, inst, cfg)
    return residual, bound


def _exactly_hermitian(M) -> bool:
    return np.array_equal(M, M.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("dim", [*range(1, 9), 16, 32])
def test_every_matrix_a_trial_holds_is_exactly_hermitian(dim):
    """30 trials per dim, 10 per family: each effect stack and stochastic
    operator of ``_trial_observables``, rho, rho_low, the Holevo alphas and
    the channel's output equal their conjugate transposes, entry for entry.
    Each is formed exactly Hermitian where it is made, so an eigensolver
    may read one triangle of it."""
    cfg = fuzz.RunConfig()
    for k in range(30):
        inst = fuzz.build_instance(np.random.default_rng([dim, k]), dim,
                                   fuzz.FAMILIES[k % 3])
        rho = inst["rho"]
        held = [rho.matrix, inst["rho_low"].matrix, inst["inst"].channel(rho).matrix,
                *(alpha.matrix for alpha in inst.get("alphas", ()))]
        for obs in fuzz._trial_observables(inst, cfg):
            held.append(obs.effects)
            if obs.outcomes is not None:
                held.append(observables.stochastic_operator(obs))
        assert all(map(_exactly_hermitian, held))


def test_no_effect_of_the_pinned_run_has_a_hermiticity_defect(monkeypatch):
    """Each ``hermitian[i][j]`` row of ``derived.effect_spectrum`` reads
    exactly 0.0 over ``--trials 200 --seed 42``."""
    rows = []

    def recorded(inst, cfg):
        names, residual, bound = fuzz._chk_derived_spectrum(inst, cfg)
        names = list(names)
        rows.extend(r for name, r in zip(names, residual)
                    if name.startswith("hermitian["))
        return names, residual, bound

    monkeypatch.setattr(fuzz, "CHECKS", {"derived.effect_spectrum": recorded})
    fuzz.run_fuzz(fuzz.RunConfig(seed=42, trials=200))
    assert len(rows) > 200 and set(rows) == {0.0}


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


@pytest.mark.parametrize("field, value, invariant", [
    ("trials", 0, "positive-trials"), ("trials", 2.5, "positive-trials"),
    ("trials", True, "positive-trials"), ("trials", "3", "positive-trials"),
    ("seed", -1, "seed-range"), ("seed", 2.5, "seed-range"),
    ("seed", None, "seed-range")])
def test_trials_and_seed_must_be_ints_in_range(field, value, invariant):
    """A seed below 0 or not an int would reach numpy's ``SeedSequence``,
    which raises its own error only once the run starts."""
    with pytest.raises(ValidationError) as info:
        fuzz.RunConfig(**{field: value})
    assert (info.value.invariant, info.value.field) == (invariant, field)


def test_numpy_ints_in_the_config_give_the_same_summary():
    """The summary records the config's counts as Python ints, so it is
    JSON whatever int type the caller passed."""
    as_numpy = fuzz.RunConfig(seed=np.int64(3), trials=np.int64(4),
                              dims=(np.int64(2), np.int32(3)))
    assert canonical_json(fuzz.run_fuzz(as_numpy)) == canonical_json(
        fuzz.run_fuzz(fuzz.RunConfig(seed=3, trials=4, dims=(2, 3))))


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
    assert (worst["error"], worst["invariant"], worst["field"]) == (
        "ValidationError: matrix: not Hermitian (violation 4.441e-16, "
        "bound 6.652e-17)", "hermitian", "matrix")
    assert f"violation {worst['violation']:.3e}, bound {worst['bound']:.3e}" \
        in worst["error"]
    replayed = fuzz.replay_instance(summary)
    record = ("error", "invariant", "field", "violation", "bound")
    assert [replayed[key] for key in record] == [worst[key] for key in record]


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
    "uncertainty.lagrange", "correlation.conjugate_symmetry",
    "statistics.sharp_consistency", "statistics.maximally_mixed",
    "deviation.traceless",
    "commutator.imaginary_identity", "instrument.family", "instrument.channel",
    "instrument.coarse_grain_measured", "instrument.mean",
    "sequential.marginal", "conditioned.mean", "product.split_function",
    "derived.effect_spectrum",
)


def test_checks_are_exactly_the_listed_properties():
    assert tuple(fuzz.CHECKS) == PROPERTIES
    assert len(PROPERTIES) == 29


# SHA-256 of the bytes ``qobs fuzz --json`` prints for each config, and of
# those bytes without ``worst.row``, a key added after they were first
# pinned: the rows moved no number.  Re-pinned when the property
# ``uncertainty.lagrange`` was added; without its entry the summaries are
# the bytes pinned before it, so it moved no other number.  A digest changes
# only in a change that declares an output change in CHANGES.md, as
# ``tests/test_public_api.py`` does for the public names.  Pinned with
# numpy 2.4 on OpenBLAS 0.3.31, single- and multi-threaded alike; a BLAS
# that rounds differently can move them without any change to the library.
SUMMARY_DIGESTS = [
    (fuzz.RunConfig(seed=42, trials=200),
     "c5b8f554be65e33388e7ce9fbe729c82735f0a7140c33c5b0e54f30e5c7109be",
     "9c27a87513f17f3856f8c57c3f812a875005f1162f64772336fd962a35aa2c33"),
    (fuzz.RunConfig(seed=3, trials=45, dims=tuple(range(1, 10))),
     "59445fce680aa4b56d5ac3005f302b35d46f6ce469b3ebf08bfb61dd8c1f07b8",
     "e8c45717c38dccd4cf276b505260e486e2a0b89bf5e52ecb5794379f6ebc555e"),
    (fuzz.RunConfig(seed=5, trials=30, dims=(2, 3, 4), cluster_tol=0.05),
     "3d11ab39035ef65f0bfe979cb0f320fdf8a3b914cd870fb480536c56af75f7c8",
     "cc6f3af1a30d3d5f29fde6f85b1ca7af1a8d6d917b94f90baa7e3f92d1e6128c"),
]


def _digest(summary) -> str:
    text = canonical_json(summary, compact=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("config, digest, without_row", SUMMARY_DIGESTS,
                         ids=["seed42", "seed3-dims1..9", "seed5-cluster0.05"])
def test_summary_bytes_are_pinned(config, digest, without_row):
    summary = fuzz.run_fuzz(config)
    assert _digest(summary) == digest
    del summary["worst"]["row"]
    assert _digest(summary) == without_row


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
    residual, bound = _worst_row(fuzz._chk_derived_spectrum, inst, config)
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
    new, bound = _worst_row(fuzz._chk_eigen_projections, inst, config)
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
    new, bound = _worst_row(fuzz._chk_eigen_projections, inst, config)
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
            (new, bound), (old, old_bound) = (_worst_row(check, inst, config),
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
        rows = check(inst, cfg)
        trials.append((old, fuzz._decide(lambda *_: rows, inst, cfg)[0]))
        return rows

    monkeypatch.setattr(fuzz, "CHECKS", {"derived.effect_spectrum": recorded})
    fuzz.run_fuzz(config)
    assert len(trials) == config.trials
    assert any(old for old, _ in trials)  # the config reaches the formulas
    assert all(new for old, new in trials if old)


def _first_effect_below_zero(E: np.ndarray, delta: float = 1e-6) -> np.ndarray:
    """The stack E with its first effect's least eigenvalue moved to -delta,
    the difference added to the second effect, so the sum stays at I."""
    w, V = np.linalg.eigh(E[0])
    shift = (w[0] + delta) * np.outer(V[:, 0], V[:, 0].conj())
    E[0] -= shift
    E[1] += shift
    return E


@pytest.mark.parametrize("name", ["A", "B", "A_comm"])
@pytest.mark.parametrize("family", fuzz.FAMILIES)
def test_input_effect_below_zero_reports_its_eigenvalue(name, family):
    """An input observable whose first effect has eigenvalue -delta, with
    the sum kept at I, is flagged at that size: the check reads the inputs."""
    inst = fuzz.build_instance(np.random.default_rng(5), 3, family)
    X, delta = inst[name], 1e-6
    E = _first_effect_below_zero(np.array(X.effects), delta)
    inst[name] = Observable.__new__(Observable)._build(X.keys, E)
    config = fuzz.RunConfig()
    assert any(obs is inst[name] for obs in fuzz._trial_observables(inst, config))
    residual, bound = _worst_row(fuzz._chk_derived_spectrum, inst, config)
    assert residual > bound == config.tol_psd
    assert residual == pytest.approx(delta, rel=1e-6)
    assert (residual, bound) == derived_spectrum_eigensolve(inst, config)


def test_a_sampler_fault_is_counted_not_raised(monkeypatch, tmp_path, capsys):
    """The samplers leave their effects to ``derived.effect_spectrum``: an
    input observable that breaks the effect rule is a violation in every
    trial, not an error that ends the run, and its replay names the effect
    when the instance is decoded."""
    def effects_below_zero(M):  # the part of the effect stack, not of their sum
        M = linalg._hermitian_part(M)
        return _first_effect_below_zero(M) if M.ndim == 3 else M

    def faulty(rng, dim, n_outcomes, outcomes=None):
        with pytest.MonkeyPatch.context() as inner:  # where the sampler forms E
            inner.setattr(sampling, "_hermitian_part", effects_below_zero)
            return sampling.random_observable(rng, dim, n_outcomes, outcomes)

    monkeypatch.setattr(fuzz, "random_observable", faulty)
    summary = fuzz.run_fuzz(fuzz.RunConfig(trials=3, seed=1))
    props = summary["properties"]
    assert props["derived.effect_spectrum"]["violations"] == 3
    assert sum(p["errors"] for p in props.values()) == 0
    with pytest.raises(ValidationError) as info:
        fuzz.replay_instance(summary)
    assert (info.value.invariant, info.value.field) == (
        "effect-lower-bound", "dump.instance.A.effects[0]")
    path = tmp_path / "summary.json"
    path.write_text(canonical_json(summary))
    assert main(["replay", str(path), "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["field"], error["file"]) == ("dump.instance.A.effects[0]", str(path))


@pytest.mark.parametrize("value", ["1", True, None])
@pytest.mark.parametrize("name", ["f_obs", "f_inst", "g", "h", "omega"])
def test_a_replayed_map_value_must_be_a_number(name, value):
    """The replay codec reads each map of the bundle with
    ``serialization.decode_function_map``, as the CLI reads a map file."""
    summary = fuzz.run_fuzz(fuzz.RunConfig(trials=1, dims=(2,)))  # trivial
    fmap = summary["worst"]["instance"][name]
    key = next(iter(fmap))
    fmap[key] = value
    with pytest.raises(ParseError) as info:
        fuzz.replay_instance(summary)
    assert info.value.field == f"dump.instance.{name}.{key}"


@pytest.mark.parametrize("bloch", [["0.1", True, 0], [0.1, 0.2, False]])
def test_a_replayed_bloch_entry_must_be_a_number(bloch, tmp_path, capsys):
    """The replay codec reads ``bloch`` by the JSON number rule, as the
    decoders read a Bloch vector: no string or bool."""
    summary = fuzz.run_fuzz(fuzz.RunConfig(trials=1, dims=(2,)))
    summary["worst"]["instance"]["bloch"] = bloch
    path = tmp_path / "summary.json"
    path.write_text(canonical_json(summary))
    assert main(["replay", str(path), "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["field"]) == ("ParseError", "dump.instance.bloch")


def test_observables_of_different_sizes_are_infinitely_apart():
    two, three = (Observable(range(n), np.full((n, 1, 1), 1.0 / n))
                  for n in (2, 3))
    assert fuzz._matched_observable_delta(two, three) == [np.inf, np.inf]


def test_nan_uncertainty_residual_is_an_error_not_a_pass():
    """The fuzz disarms the report's guard with tol=inf; a NaN residual,
    which compares false with any bound, must still raise, so the run
    counts it as the property's error rather than max(0.0, nan) == 0.0."""
    D = np.diag([1e200, -1e200])
    rho = maximally_mixed(2)
    bundle = {"rho": rho, "rho_low": rho, "A": D, "B": D, "C": D, "D": D}
    for check in (fuzz._chk_uncertainty_equation,
                  fuzz._chk_uncertainty_inequality,
                  fuzz._chk_uncertainty_lagrange):
        with np.errstate(invalid="ignore"):  # inf - inf
            with pytest.raises(InternalConsistencyError):
                check(bundle, fuzz.RunConfig())


def test_only_lagrange_sees_a_slack_off_by_a_factor(monkeypatch):
    """A report whose slack is doubled keeps the inequality and leaves the
    equation alone: only ``uncertainty.lagrange`` compares the slack with an
    independent form of it."""
    report = fuzz.stats.uncertainty_report

    def doubled(*args, **kwargs):
        rep = report(*args, **kwargs)
        return dataclasses.replace(rep, inequality_slack=2 * rep.inequality_slack)

    monkeypatch.setattr(fuzz.stats, "uncertainty_report", doubled)
    props = fuzz.run_fuzz(fuzz.RunConfig(trials=6))["properties"]
    assert props["uncertainty.lagrange"]["violations"] == 6
    assert {name for name, p in props.items() if p["violations"]} == {
        "uncertainty.lagrange"}


def _shifted_holevo(A, alphas):
    """Reprepares alphas[i + 1] after outcome i: the measured observable is
    A's, so only the family's definition tells it apart."""
    return instruments.holevo_instrument(A, alphas[1:] + alphas[:1])


def _rotated_lueders(A):
    """Kraus operators U A_x^(1/2), U a fixed diagonal unitary: the same
    measured observable as the Lueders instrument of A."""
    U = np.diag(np.exp(1j * np.arange(A.dim)))
    return instruments.Instrument(A.keys, [[U @ linalg.psd_sqrt(E)]
                                           for E in A.effects])


@pytest.mark.parametrize("name, mutant", [
    ("holevo_instrument", _shifted_holevo),
    ("lueders_instrument", _rotated_lueders)], ids=["holevo", "lueders"])
def test_only_the_family_property_sees_a_mutant_family(monkeypatch, name, mutant):
    monkeypatch.setattr(fuzz, name, mutant)
    summary = fuzz.run_fuzz(fuzz.RunConfig(seed=42, trials=12, dims=(2, 3, 4)))
    violations = {key: p["violations"] for key, p in summary["properties"].items()
                  if p["violations"]}
    assert set(violations) == {"instrument.family"}
    assert violations["instrument.family"] == 4  # every trial of the family


def _nan_root_lueders(A):
    """Kraus operators V sqrt(w - 0.01) V*, NaN where an eigenvalue of A_x is
    below 0.01, built unchecked: some of the family's rows are NaN."""
    w, V = np.linalg.eigh(A.effects)
    roots = (V * np.sqrt(w - 0.01)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    return instruments.Instrument.__new__(instruments.Instrument)._build(
        A.keys, [(R[None],) for R in roots])


def test_a_nan_row_does_not_hide_the_violations_beside_it(monkeypatch):
    """A NaN residual is a violation, and its ratio inf, not a NaN ranked
    above every finite ratio and then read as ``NaN > bound``, false."""
    monkeypatch.setattr(fuzz, "lueders_instrument", _nan_root_lueders)
    with np.errstate(all="ignore"):
        summary = fuzz.run_fuzz(fuzz.RunConfig(seed=42, trials=9))
    assert summary["properties"]["instrument.family"]["violations"] == 3  # of 3 Lüders


def test_a_nan_residual_is_the_max_residual(monkeypatch):
    """``max_residual`` follows ``_margin``: a NaN residual makes it NaN,
    written null, and it stays NaN beside later finite residuals."""
    check, calls = fuzz.CHECKS["instrument.mean"], []

    def nan_second(inst, cfg):
        names, residual, bound = check(inst, cfg)
        calls.append(None)
        return names, ([math.nan] if len(calls) == 2 else residual), bound

    monkeypatch.setitem(fuzz.CHECKS, "instrument.mean", nan_second)
    summary = fuzz.run_fuzz(fuzz.RunConfig(seed=42, trials=3))
    entry = summary["properties"]["instrument.mean"]
    assert len(calls) == 3
    assert (entry["violations"], entry["max_ratio"]) == (1, math.inf)
    assert math.isnan(entry["max_residual"])
    written = json.loads(canonical_json(summary))
    assert written["properties"]["instrument.mean"]["max_residual"] is None


def _nan_variance(monkeypatch):
    """``statistics.variance`` is NaN: the last row of its one fuzz caller."""
    monkeypatch.setattr(fuzz.stats, "variance", lambda *args, **kw: math.nan)


def _nan_commutation(monkeypatch):
    """The third ``max_abs`` of ``psd_sqrt.contract``, its commutation row,
    is NaN."""
    check = fuzz.CHECKS["psd_sqrt.contract"]

    def planted(inst, cfg):
        calls = []

        def counted(M):
            calls.append(None)
            return math.nan if len(calls) == 3 else linalg.max_abs(M)

        with monkeypatch.context() as patch:
            patch.setattr(fuzz, "max_abs", counted)
            return check(inst, cfg)

    monkeypatch.setitem(fuzz.CHECKS, "psd_sqrt.contract", planted)


def _nan_cross_form(monkeypatch):
    """<X, Y>_rho is NaN unless X is Y: |<C, D>|^2 in the Cauchy-Schwarz row."""
    form = fuzz.state_form
    monkeypatch.setattr(fuzz, "state_form", lambda rho, X, Y: (
        form(rho, X, Y) if X is Y else complex(math.nan, 0.0)))


@pytest.mark.parametrize("name, plant", [
    ("statistics.sharp_consistency", _nan_variance),
    ("psd_sqrt.contract", _nan_commutation),
    ("state_form.cauchy_schwarz", _nan_cross_form),
], ids=["variance", "commutation", "cauchy-schwarz"])
def test_a_nan_sub_identity_is_a_violation_in_every_trial(monkeypatch, name, plant):
    """A NaN in a row that is not a check's first, once dropped by a chain
    of Python's ``max``, violates its property in each trial."""
    plant(monkeypatch)
    with np.errstate(invalid="ignore"):
        summary = fuzz.run_fuzz(fuzz.RunConfig(trials=15, seed=42))
    entry = summary["properties"][name]
    assert (entry["violations"], entry["errors"]) == (15, 0)
    assert math.isnan(entry["max_residual"])


@pytest.mark.parametrize("family", fuzz.FAMILIES)
def test_a_nan_in_any_row_is_the_worst_row(family):
    """Whichever row holds it, a NaN residual is the check's worst row, a
    violation at an infinite ratio, named by that row's name."""
    inst = fuzz.build_instance(np.random.default_rng(8), 3, family)
    config = fuzz.RunConfig()
    for name, check in fuzz.CHECKS.items():
        names, residual, bound = (list(column) for column in check(inst, config))
        assert len(names) == len(residual) == len(bound) >= 1, name
        for k in range(len(residual)):
            planted = residual[:k] + [math.nan] + residual[k + 1:]
            violated, ratio, worst, _, lazy, row = fuzz._decide(
                lambda *_: (iter(names), planted, bound), inst, config)
            assert (violated, ratio, math.isnan(worst)) == (True, math.inf, True), name
            assert next(islice(lazy, row, None)) == names[k], name


def test_ties_go_to_the_largest_residual_then_the_last_row():
    rows = (("a", "b", "c", "d"), [0.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0])
    assert fuzz._decide(lambda *_: rows, {}, fuzz.RunConfig())[2:] == (
        2.0, 2.0, rows[0], 3)


def test_a_one_sided_residual_keeps_a_nan_and_writes_no_negative_zero():
    assert [repr(fuzz._excess(x)) for x in (-1.0, -0.0, 0.0, 2.5)] == [
        "0.0", "0.0", "0.0", "2.5"]
    assert math.isnan(fuzz._excess(math.nan))


@pytest.mark.parametrize("config", [
    fuzz.RunConfig(seed=42, trials=30),
    fuzz.RunConfig(seed=5, trials=30, dims=(2, 3, 4), cluster_tol=0.05),
    fuzz.RunConfig(seed=42, trials=3, dims=(1,), tol_lin=0.0),
    fuzz.RunConfig(seed=42, trials=12, dims=(2, 3, 4), tol_lin=1e-15),
], ids=["seed42", "cluster-tol", "tol-lin-0", "tol-lin-1e-15"])
def test_the_summary_names_the_worst_row_and_its_replay_the_same(config):
    summary = json.loads(canonical_json(fuzz.run_fuzz(config)))
    worst = summary["worst"]
    instance = fuzz.decode_instance(worst["instance"])
    names = list(fuzz.CHECKS[worst["property"]](instance, config)[0])
    assert worst["row"] in names
    assert fuzz.replay_instance(summary)["row"] == worst["row"]


# Each builtin ``max`` or ``min`` that a row builder calls, as (function,
# source): the larger of two bounds, and the tighter of two bounds on the
# orthogonality residual.  None folds rows: ``fuzz._decide`` alone reduces
# them, so a NaN row counts.  The floor of a bound is ``linalg.scale``.
BUILTIN_MAX_MIN = {
    ("_chk_eigen_projections", "min((k - 1) * a, a / c if c > 0 else math.inf)"),
    ("_chk_sharp_idempotent", "max(cfg.tol_lin, bound)"),
    ("_chk_conjugate_same_sharp",
     "max(cfg.tol_lin * scale_of(sto), default_cluster_tol(sto, cfg.cluster_tol))"),
}


def _row_builders(source: str) -> dict:
    """name -> definition of each ``_chk_*`` function of the fuzz module and
    of each module function that one names, transitively: every helper that
    builds a check's rows."""
    defs = {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}
    todo, found = [name for name in defs if name.startswith("_chk_")], {}
    while todo:
        name = todo.pop()
        if name not in found:
            found[name] = defs[name]
            todo += [node.id for node in ast.walk(defs[name])
                     if isinstance(node, ast.Name) and node.id in defs]
    return found


def test_no_row_builder_folds_rows_with_builtin_max_or_min():
    source = Path(fuzz.__file__).read_text(encoding="utf-8")
    builders = _row_builders(source)
    assert len([name for name in builders if name.startswith("_chk_")]) == 29
    assert {"_uncertainty_reports", "_lagrange_term", "_matched_observable_delta",
            "_family_rows", "_trial_observables", "_excess"} <= set(builders)
    calls = {(name, ast.get_source_segment(source, node))
             for name, fn in builders.items() for node in ast.walk(fn)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None)
             in ("max", "min")}
    assert calls == BUILTIN_MAX_MIN
