"""Randomized property verification over the whole toolkit.

Each trial draws one bundle of random objects (states, operators,
observables, one instrument) and evaluates every registered property on it,
recording residuals against their tolerance bounds.  Trials use independent
children of a single seed sequence, so the run is deterministic for a fixed
config and the aggregation (counts and maxima) is order-independent.

The worst instance across all properties is serialized into the summary and
can be replayed bit-for-bit with ``replay_instance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statistics as stats
from .errors import ParseError, QobsError, ValidationError
from .instruments import (
    Instrument,
    conditioned_observable,
    holevo_instrument,
    lueders_instrument,
    sequential_product,
    trivial_instrument,
)
from .linalg import (
    TOL_LIN,
    TOL_PSD,
    TOL_STAT,
    default_cluster_tol,
    max_abs,
    pair_scale,
    psd_sqrt,
    require_dim,
    scale_of,
)
from .observables import (
    Observable,
    _effect_margins,
    _stored,
    coarse_grain,
    commuting_joint,
    conjugate,
    conjugate_joint,
    is_commutative,
    is_real,
    sharp_version,
    stochastic_operator,
)
from .sampling import (
    ginibre,
    random_bloch_vector,
    random_commutative_observable,
    random_density,
    random_hermitian,
    random_observable,
    random_outcomes,
    random_probability_vector,
)
from .serialization import (
    SCHEMA_VERSION,
    _expect,
    decode_matrix,
    decode_observable,
    decode_state,
    encode_matrix,
    encode_observable,
    encode_state,
)
from .states import bloch_state, is_faithful, maximally_mixed, state_form

PRNG_NAME = "numpy PCG64, one SeedSequence(seed).spawn child per trial"

FAMILIES = ("trivial", "holevo", "lueders")


@dataclass(frozen=True)
class RunConfig:
    """Fuzzer configuration; identical configs give byte-identical output."""

    seed: int = 42
    trials: int = 100
    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    tol_lin: float = TOL_LIN
    tol_psd: float = TOL_PSD
    tol_stat: float = TOL_STAT
    cluster_tol: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("must be >= 1",
                                  invariant="positive-trials", field="trials")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValidationError("must be nonempty positive integers",
                                  invariant="positive-dims", field="dims")
        require_dim(max(self.dims), "dims")
        for _, field in _TOLERANCES:
            if not _is_tolerance(getattr(self, field), field):
                raise ValidationError("must be a finite number >= 0",
                                      invariant="tolerance-range", field=field)


_TOLERANCES = (("lin", "tol_lin"), ("psd", "tol_psd"),  # summary key, field
               ("stat", "tol_stat"), ("cluster", "cluster_tol"))


def _is_tolerance(value, field: str) -> bool:
    """A finite real >= 0; the clustering width may also be None."""
    return (is_real(value) and 0 <= value < math.inf
            or value is None and field == "cluster_tol")


def _family_instrument(bundle: dict):
    """The trial's instrument, built from the bundle's A, omega or alphas."""
    family = bundle["family"]
    if family == "trivial":
        return trivial_instrument(bundle["omega"], bundle["dim"])
    if family == "holevo":
        return holevo_instrument(bundle["A"], bundle["alphas"])
    return lueders_instrument(bundle["A"])


def build_instance(rng: np.random.Generator, dim: int, family: str) -> dict:
    """One bundle of random objects; everything later checks against it."""
    n_a = int(rng.integers(2, 4))
    n_b = int(rng.integers(2, 4))
    A = random_observable(rng, dim, n_a)
    B = random_observable(rng, dim, n_b)
    bundle = {"dim": dim, "family": family, "A": A, "B": B}
    if family == "trivial":
        probs = random_probability_vector(rng, len(A))
        bundle["omega"] = {x: float(p) for x, p in
                           zip(random_outcomes(rng, len(A)), probs)}
    elif family == "holevo":
        bundle["alphas"] = [random_density(rng, dim) for _ in range(len(A))]
    inst = bundle["inst"] = _family_instrument(bundle)
    G = ginibre(rng, dim, dim)
    bundle.update({
        "H": random_hermitian(rng, dim),
        "P": G @ G.conj().T,
        "C": random_hermitian(rng, dim),
        "D": random_hermitian(rng, dim),
        "rho": random_density(rng, dim),
        "rho_low": random_density(rng, dim, rank=max(1, dim - 1)),
        "A_comm": random_commutative_observable(rng, dim, 2 if dim == 1 else n_a),
        "bloch": random_bloch_vector(rng),
        "f_obs": _integer_map(rng, A.outcomes),
        "f_inst": _integer_map(rng, inst.outcomes),
        "g": _integer_map(rng, inst.outcomes),
        "h": _integer_map(rng, B.outcomes),
    })
    return bundle


def _integer_map(rng: np.random.Generator, outcomes) -> dict:
    """A random map from outcomes to the integers -2..2, as floats."""
    return {x: float(v) for x, v in
            zip(outcomes, rng.integers(-2, 3, size=len(outcomes)))}


def _matched_observable_delta(A: Observable, B: Observable) -> float:
    """Max deviation between two observables compared entry-by-entry after
    matching their (sorted) outcome lists; infinite when sizes differ."""
    if len(A) != len(B):
        return math.inf
    return max(max(abs(x - y) for x, y in zip(A.outcomes, B.outcomes)),
               max_abs(A.effects - B.effects))


def _shared(inst: dict, build, *names, **kw):
    """build(*inst[names], **kw), kept on the trial bundle under a tuple key
    that ``_FIELDS`` never encodes, so replay does not see it."""
    return _stored(inst, (build.__qualname__, *names, *kw.items()),
                   lambda: build(*(inst[name] for name in names), **kw))


# Property registry: name -> fn(instance, config) -> (residual, bound).

def _chk_eigen_reconstruction(inst, cfg):
    H = inst["H"]
    sharp = _shared(inst, sharp_version, "H", cluster_tol=cfg.cluster_tol)
    return max_abs(stochastic_operator(sharp) - H), cfg.tol_lin * scale_of(H)


def _chk_eigen_projections(inst, cfg):
    """Completeness, idempotence, Hermiticity; orthogonality by the k - 1 tail
    products P_i S_i, S_i = P_{i+1} + ... + P_{k-1}.  For Hermitian P, in operator
    norm, n = max ||P_j^2 - P_j||, e = max ||P_i S_i||, p = max_{i<l} ||P_i P_l||:
    P_j >= -n, ||P_j|| <= 1 + n, P_i S_i P_l gives p <= a + (k-2) p^2 for a = (1+n) e
    + (k-1)(1+n)^2 n, and P_i (S_i - P_l) P_i >= -(k-2) n P_i^2 gives p^2 <= a.  So
    |(P_i P_l)_xy| <= p <= (k-1) a, and <= a / c if c = 1 - (k-2) sqrt(a) > 0."""
    P = _shared(inst, sharp_version, "H", cluster_tol=cfg.cluster_tol).effects
    k, defect = len(P), P @ P - P
    e, n = (float(np.linalg.norm(X, axis=(-2, -1)).max(initial=0.0))  # >= op norms
            for X in (P[:-1] @ P[:0:-1].cumsum(0)[::-1], defect))  # P_i S_i, n
    a = (1 + n) * e + (k - 1) * (1 + n) ** 2 * n
    c = 1.0 - (k - 2) * math.sqrt(a)
    res = max(max_abs(P.sum(0) - np.eye(P.shape[1])), max_abs(defect),
              max_abs(P - P.conj().swapaxes(-1, -2)),
              min((k - 1) * a, a / c if c > 0 else math.inf))
    return res, cfg.tol_lin


def _chk_psd_sqrt(inst, cfg):
    P = inst["P"]
    S = psd_sqrt(P, tol_psd=cfg.tol_psd, tol=cfg.tol_lin)
    res = max_abs(S @ S - P) / (1.0 + max_abs(P))
    res = max(res, max_abs(S @ P - P @ S) / scale_of(P))
    return res, cfg.tol_lin


def _chk_form_psd(inst, cfg):
    rho, C = inst["rho"], inst["C"]
    val = state_form(rho, C, C)
    res = max(abs(val.imag), max(0.0, -val.real))
    return res, cfg.tol_lin * pair_scale(C, C)


def _chk_form_cauchy_schwarz(inst, cfg):
    rho, C, D = inst["rho"], inst["C"], inst["D"]
    lhs = abs(state_form(rho, C, D)) ** 2
    rhs = state_form(rho, C, C).real * state_form(rho, D, D).real
    return max(0.0, lhs - rhs), cfg.tol_lin * max(1.0, rhs)


def _chk_form_conjugate_symmetry(inst, cfg):
    rho, C, D = inst["rho"], inst["C"], inst["D"]
    res = abs(state_form(rho, C, D) - np.conj(state_form(rho, D, C)))
    return res, cfg.tol_lin * pair_scale(C, D)


def _chk_faithful_witness(inst, cfg):
    rho = inst["rho_low"]
    if is_faithful(rho, cfg.tol_psd):
        return 0.0, cfg.tol_lin  # dim 1 cannot be rank-deficient
    w, V = np.linalg.eigh(rho.matrix)
    v = V[:, 0]
    P = np.outer(v, v.conj())
    return max(0.0, state_form(rho, P, P).real), cfg.tol_lin


def _chk_bloch_eigenvalues(inst, cfg):
    r = inst["bloch"]
    rho = bloch_state(r)
    norm = float(np.linalg.norm(r))
    expected = np.array([(1.0 - norm) / 2.0, (1.0 + norm) / 2.0])
    return float(np.max(np.abs(np.array(rho.eigenvalues) - expected))), 1e-12


def _chk_sharp_same_stochastic(inst, cfg):
    A = inst["A"]
    sharp = sharp_version(A, cfg.cluster_tol)
    sto = stochastic_operator(A)
    return (max_abs(stochastic_operator(sharp) - sto),
            cfg.tol_lin * scale_of(sto))


def _chk_sharp_idempotent(inst, cfg):
    A = inst["A"]
    once = sharp_version(A, cfg.cluster_tol)
    twice = sharp_version(once, cfg.cluster_tol)
    bound = default_cluster_tol(stochastic_operator(A), cfg.cluster_tol)
    return _matched_observable_delta(once, twice), max(cfg.tol_lin, bound)


def _chk_conjugate_same_sharp(inst, cfg):
    A, sto = inst["A"], stochastic_operator(inst["A"])
    conj = _shared(inst, conjugate, "A", cluster_tol=cfg.cluster_tol)
    res = max_abs(stochastic_operator(conj) - sto)
    sharp_a = sharp_version(A, cfg.cluster_tol)
    sharp_c = sharp_version(conj, cfg.cluster_tol)
    res = max(res, _matched_observable_delta(sharp_a, sharp_c))
    bound = default_cluster_tol(sto, cfg.cluster_tol)
    return res, max(cfg.tol_lin * scale_of(sto), bound)


def _chk_conjugate_commutative(inst, cfg):
    A = inst["A_comm"]
    if not is_commutative(A, cfg.tol_lin):  # pragma: no cover - by construction
        return math.inf, cfg.tol_lin
    conj = _shared(inst, conjugate, "A_comm", cluster_tol=cfg.cluster_tol)
    return _matched_observable_delta(A, conj), cfg.tol_lin


def _chk_coarse_grain_valid(inst, cfg):
    fA = _shared(inst, coarse_grain, "A", "f_obs")
    direct = sum(inst["f_obs"][x] * E for x, E in inst["A"].pairs())
    return max_abs(stochastic_operator(fA) - direct), cfg.tol_lin * scale_of(direct)


def _uncertainty_residuals(rho, A, B):
    # Measure the residuals here; an infinite tolerance disarms the report's
    # own internal-consistency guard so violations are counted, not raised.
    # A NaN residual still raises, and counts as the property's error.
    rep = stats.uncertainty_report(rho, A, B, tol=math.inf)
    scale = float(stats._scale(rep.correlation_sq))
    eq = abs(rep.equation_residual) / scale
    ineq = max(0.0, -rep.inequality_slack) / scale
    rh = max(0.0, rep.commutator_term - rep.variance_product) / scale
    return eq, ineq, rh


def _chk_uncertainty_equation(inst, cfg):
    eq1, _, _ = _shared(inst, _uncertainty_residuals, "rho", "A", "B")
    eq2, _, _ = _shared(inst, _uncertainty_residuals, "rho_low", "C", "D")
    return max(eq1, eq2), cfg.tol_stat


def _chk_uncertainty_inequality(inst, cfg):
    _, in1, rh1 = _shared(inst, _uncertainty_residuals, "rho", "A", "B")
    _, in2, rh2 = _shared(inst, _uncertainty_residuals, "rho_low", "C", "D")
    return max(in1, in2, rh1, rh2), cfg.tol_stat


def _chk_correlation_symmetry(inst, cfg):
    rho, A, B = inst["rho"], inst["A"], inst["B"]
    cor = stats.correlation(rho, A, B)
    res = abs(cor - np.conj(stats.correlation(rho, B, A)))
    return res, cfg.tol_lin * max(1.0, abs(cor))


def _chk_statistics_sharp_consistency(inst, cfg):
    rho, A, B = inst["rho"], inst["A"], inst["B"]
    sharp_a = sharp_version(A, cfg.cluster_tol)
    sharp_b = sharp_version(B, cfg.cluster_tol)
    cor = stats.correlation(rho, A, B)
    res = abs(cor - stats.correlation(rho, sharp_a, sharp_b))
    res = max(res, abs(stats.average(rho, A) - stats.average(rho, sharp_a)))
    res = max(res, abs(stats.variance(rho, A) - stats.variance(rho, sharp_a)))
    return res, cfg.tol_lin * max(1.0, abs(cor))


def _chk_maximally_mixed_closed_form(inst, cfg):
    C, D = inst["C"], inst["D"]
    d = C.shape[0]
    rho = maximally_mixed(d)
    closed = (np.trace(C @ D) / d
              - np.trace(C) * np.trace(D) / d ** 2)
    res = abs(stats.correlation(rho, C, D) - closed)
    return res, cfg.tol_lin * max(1.0, abs(closed))


def _chk_deviation_traceless(inst, cfg):
    rho, A = inst["rho"], inst["A"]
    dev = stats.deviation(rho, A)
    return abs(np.trace(rho.matrix @ dev)), cfg.tol_lin * scale_of(dev)


def _chk_commutator_identity(inst, cfg):
    rho, A, B = inst["rho"], inst["A"], inst["B"]
    comm = stats.commutator_expectation(rho, A, B)
    sto_a, sto_b = stochastic_operator(A), stochastic_operator(B)
    ident = 2j * np.trace(rho.matrix @ sto_a @ sto_b).imag
    res = max(abs(comm.real), abs(comm - ident))
    return res, cfg.tol_lin * max(1.0, abs(comm))


def _chk_instrument_adjointness(inst, cfg):
    instr, rho, C = inst["inst"], inst["rho"], inst["C"]
    res = 0.0
    for x in instr.outcomes:
        lhs = np.trace(rho.matrix @ instr.dual_apply(x, C))
        rhs = np.trace(instr.apply(x, rho) @ C)
        res = max(res, abs(lhs - rhs))
    return res, cfg.tol_lin * scale_of(C)


def _chk_instrument_probability(inst, cfg):
    instr, rho = inst["inst"], inst["rho"]
    measured = instr.measured_observable()
    res = 0.0
    for x, E in measured.pairs():
        res = max(res, abs(np.trace(instr.apply(x, rho)).real
                           - np.trace(rho.matrix @ E).real))
    return res, cfg.tol_lin


def _chk_instrument_channel(inst, cfg):
    out = _shared(inst, Instrument.channel, "inst", "rho")
    res = abs(sum(out.eigenvalues) - 1.0)
    res = max(res, max(0.0, -out.eigenvalues[0]))
    return res, cfg.tol_psd


def _chk_instrument_coarse_grain(inst, cfg):
    instr, f = inst["inst"], inst["f_inst"]
    merged = _shared(inst, Instrument.coarse_grain, "inst", "f_inst")
    lhs = merged.measured_observable()
    rhs = coarse_grain(instr.measured_observable(), f)
    return _matched_observable_delta(lhs, rhs), cfg.tol_lin


def _chk_instrument_mean(inst, cfg):
    instr, rho = inst["inst"], inst["rho"]
    mean = float(sum(x * np.trace(instr.apply(x, rho)).real
                     for x in instr.outcomes))
    res = abs(mean - stats.average(rho, instr.measured_observable()))
    return res, cfg.tol_lin * max(1.0, abs(mean))


def _chk_sequential_marginal(inst, cfg):
    instr = inst["inst"]
    product = _shared(inst, sequential_product, "inst", "B")
    measured = instr.measured_observable()
    res = 0.0
    for x, E in measured.pairs():
        marg = sum(eff for (xx, _), eff in product.pairs() if xx == x)
        res = max(res, max_abs(marg - E))
    return res, cfg.tol_lin


def _chk_conditioned_mean(inst, cfg):
    B, rho = inst["B"], inst["rho"]
    cond = _shared(inst, conditioned_observable, "inst", "B")
    res = abs(stats.average(rho, cond) - stats.average(
        _shared(inst, Instrument.channel, "inst", "rho"), B))
    if inst["family"] == "trivial":
        res = max(res, _matched_observable_delta(cond, B))
    return res, cfg.tol_lin * max(1.0, abs(stats.average(rho, B)))


def _chk_product_split_function(inst, cfg):
    instr, B, g, h = inst["inst"], inst["B"], inst["g"], inst["h"]
    product = _shared(inst, sequential_product, "inst", "B")
    f = {(x, y): g[x] * h[y] for x in instr.outcomes for y in B.outcomes}
    lhs = stochastic_operator(coarse_grain(product, f))
    hB = sum(h[y] * E for y, E in B.pairs())
    rhs = sum(g[x] * instr.dual_apply(x, hB) for x in instr.outcomes)
    return max_abs(lhs - rhs), cfg.tol_lin * scale_of(rhs)


def _trial_observables(inst, cfg) -> tuple:
    """Every observable a trial holds: its inputs A, B and A_comm, and each
    one it derives from them through a builder."""
    cut, A, B, A_comm = cfg.cluster_tol, inst["A"], inst["B"], inst["A_comm"]
    conj = _shared(inst, conjugate, "A", cluster_tol=cut)
    sharp = [sharp_version(X, cut) for X in (A, B, conj)]
    merged = _shared(inst, Instrument.coarse_grain, "inst", "f_inst")
    return (A, B, A_comm, *sharp, sharp_version(sharp[0], cut), conj,
            conjugate_joint(A, cut), commuting_joint(A_comm, A_comm),
            _shared(inst, conjugate, "A_comm", cluster_tol=cut),
            _shared(inst, coarse_grain, "A", "f_obs"),
            _shared(inst, sequential_product, "inst", "B"),
            _shared(inst, conditioned_observable, "inst", "B"),
            inst["inst"].measured_observable(), merged.measured_observable())


def _chk_derived_spectrum(inst, cfg):
    """The constructor's effect rule, the fuzz's one statement of it, on
    every observable of the trial: its inputs, and the derived ones that the
    builders do not check.  The (residual, bound) of worst ratio."""
    residual, bound = _effect_margins(
        [obs.effects for obs in _trial_observables(inst, cfg)], cfg.tol_lin, cfg.tol_psd)
    ratio = np.divide(residual, bound, where=bound > 0,
                      out=np.where(residual > 0, math.inf, 0.0))
    k = np.lexsort((residual, ratio))[-1]  # of equal ratios, the largest residual
    return float(residual[k]), float(bound[k])


CHECKS = {
    "eigen.reconstruction": _chk_eigen_reconstruction,
    "eigen.projections": _chk_eigen_projections,
    "psd_sqrt.contract": _chk_psd_sqrt,
    "state_form.psd": _chk_form_psd,
    "state_form.cauchy_schwarz": _chk_form_cauchy_schwarz,
    "state_form.conjugate_symmetry": _chk_form_conjugate_symmetry,
    "state.faithful_witness": _chk_faithful_witness,
    "bloch.eigenvalues": _chk_bloch_eigenvalues,
    "sharp.same_stochastic": _chk_sharp_same_stochastic,
    "sharp.idempotent": _chk_sharp_idempotent,
    "conjugate.same_sharp": _chk_conjugate_same_sharp,
    "conjugate.commutative_identity": _chk_conjugate_commutative,
    "coarse_grain.validity": _chk_coarse_grain_valid,
    "uncertainty.equation": _chk_uncertainty_equation,
    "uncertainty.inequality": _chk_uncertainty_inequality,
    "correlation.conjugate_symmetry": _chk_correlation_symmetry,
    "statistics.sharp_consistency": _chk_statistics_sharp_consistency,
    "statistics.maximally_mixed": _chk_maximally_mixed_closed_form,
    "deviation.traceless": _chk_deviation_traceless,
    "commutator.imaginary_identity": _chk_commutator_identity,
    "instrument.adjointness": _chk_instrument_adjointness,
    "instrument.probability": _chk_instrument_probability,
    "instrument.channel": _chk_instrument_channel,
    "instrument.coarse_grain_measured": _chk_instrument_coarse_grain,
    "instrument.mean": _chk_instrument_mean,
    "sequential.marginal": _chk_sequential_marginal,
    "conditioned.mean": _chk_conditioned_mean,
    "product.split_function": _chk_product_split_function,
    "derived.effect_spectrum": _chk_derived_spectrum,
}


def _encode_map(f: dict) -> dict:
    return {repr(k): v for k, v in f.items()}


def _decode_map(obj: dict, field: str) -> dict:
    return {float(k): float(v) for k, v in obj.items()}


# Replay codec for the fields of a trial bundle; ``omega`` and ``alphas``
# are present only in their family's bundles.
# (names, encode(value), decode(json, field name)).
_FIELDS = (
    (("dim", "family"), lambda v: v, lambda obj, field: obj),
    (("H", "P", "C", "D"), encode_matrix, decode_matrix),
    (("rho", "rho_low"), encode_state, decode_state),
    (("A", "B", "A_comm"), encode_observable, decode_observable),
    (("bloch",), lambda r: [float(v) for v in r],
     lambda obj, field: np.asarray(obj, dtype=float)),
    (("f_obs", "f_inst", "g", "h", "omega"), _encode_map, _decode_map),
    (("alphas",), lambda alphas: [encode_state(a) for a in alphas],
     lambda obj, field: [decode_state(s, f"{field}[{i}]")
                         for i, s in enumerate(obj)]),
)


def encode_instance(inst: dict) -> dict:
    """Lossless serialization of a trial bundle for replay."""
    return {name: encode(inst[name])
            for names, encode, _ in _FIELDS for name in names if name in inst}


def decode_instance(obj: dict, field: str = "instance") -> dict:
    """Rebuild a trial bundle; the instrument is rebuilt from the family's
    fields so the arithmetic path matches the original run."""
    if _expect(obj, "family", field) not in FAMILIES:
        raise ParseError(f"expected one of {FAMILIES}", field=f"{field}.family")
    require_dim(_expect(obj, "dim", field), f"{field}.dim")  # trivial: np.eye(dim)
    out = {name: decode(obj[name], f"{field}.{name}")
           for names, _, decode in _FIELDS for name in names if name in obj}
    out["inst"] = _family_instrument(out)
    return out


@dataclass
class _PropertyStats:
    trials: int = 0
    violations: int = 0
    errors: int = 0
    max_residual: float = 0.0
    max_ratio: float = 0.0


def _error_entry(exc: Exception) -> dict:
    """The summary's record of a check that raised: its class and message,
    and the rule it names when it is a toolkit error."""
    entry = {"error": f"{type(exc).__name__}: {exc}"}
    if isinstance(exc, QobsError):
        entry["invariant"] = exc.invariant
    return entry


def run_fuzz(config: RunConfig) -> dict:
    """Run the property battery; the returned summary is deterministic in
    the config and contains the worst instance for replay.

    A check that raises counts as a violated property (an instance its
    contract could not even be evaluated on) rather than aborting the run.
    """
    root, n = np.random.SeedSequence(config.seed), len(config.dims)
    props = {name: _PropertyStats() for name in CHECKS}
    worst = {"ratio": -1.0}
    for i in range(config.trials):
        rng = np.random.default_rng(root.spawn(1)[0])  # child i, spawned now
        # i % 3 pairs every dim with every family unless 3 divides the
        # number of dims; then each pass over the dims shifts the families.
        family = FAMILIES[(i + (i // n if n % 3 == 0 else 0)) % 3]
        dim = config.dims[i % n]
        instance = build_instance(rng, dim, family)
        for name, check in CHECKS.items():
            entry = props[name]
            entry.trials += 1
            try:
                residual, bound = check(instance, config)
            except Exception as exc:
                entry.errors += 1
                entry.violations += 1
                if worst["ratio"] is None:  # the first error stays the worst
                    continue
                found = {"ratio": None, "residual": None, "bound": None,
                         **_error_entry(exc)}
            else:
                entry.max_residual = max(entry.max_residual, residual)
                ratio = residual / bound if bound > 0 else math.inf
                entry.max_ratio = max(entry.max_ratio, ratio)
                if residual > bound:
                    entry.violations += 1
                if worst["ratio"] is None or not ratio > worst["ratio"]:
                    continue
                found = {"ratio": ratio, "residual": residual, "bound": bound}
            worst = {**found, "property": name, "trial": i, "instance": instance}
    worst = {key: encode_instance(v) if key == "instance" else v
             for key, v in worst.items()}  # ``_shared``'s keys are not encoded
    total = sum(p.violations for p in props.values())
    return {
        "schema": SCHEMA_VERSION,
        "prng": PRNG_NAME,
        "seed": config.seed,
        "trials": config.trials,
        "dims": list(config.dims),
        "tolerances": {key: getattr(config, field) for key, field in _TOLERANCES},
        "properties": {name: vars(p) for name, p in props.items()},
        "violations": total,
        "worst": worst,
    }


def replay_instance(summary) -> dict:
    """Re-evaluate the ``worst`` member of a run summary at the tolerances
    the summary records; deterministic arithmetic makes the residual
    reproduce bit-for-bit.  ``violations`` is 1 when the check raised or its
    residual exceeds its bound, as ``run_fuzz`` counts, else 0.  A malformed
    summary raises ``ParseError`` naming the field."""
    dump = _expect(summary, "worst", "dump")
    name = _expect(dump, "property", "dump")
    if not isinstance(name, str) or name not in CHECKS:
        raise ParseError(f"unknown property {name!r}", field="dump.property")
    tols = _expect(summary, "tolerances", "dump")
    for key, field in _TOLERANCES:
        if not _is_tolerance(_expect(tols, key, "dump.tolerances"), field):
            raise ParseError("expected a finite number >= 0",
                             field=f"dump.tolerances.{key}")
    config = RunConfig(**{field: tols[key] for key, field in _TOLERANCES})
    try:
        instance = decode_instance(_expect(dump, "instance", "dump"),
                                   "dump.instance")
    except QobsError:
        raise
    except Exception as exc:  # a field the codec cannot read
        raise ParseError(f"cannot rebuild the trial ({exc!r})",
                         field="dump.instance") from None
    try:
        residual, bound = CHECKS[name](instance, config)
    except Exception as exc:
        return {"schema": SCHEMA_VERSION, "property": name, "violations": 1,
                **_error_entry(exc)}
    return {"schema": SCHEMA_VERSION, "property": name,
            "residual": residual, "bound": bound,
            "ratio": residual / bound if bound > 0 else math.inf,
            "violations": int(residual > bound)}
