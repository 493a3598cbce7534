"""Randomized property verification over the whole toolkit.

Each trial draws one bundle of random objects (states, operators,
observables, one instrument) and evaluates every registered property on it,
one row per sub-identity, each a residual against its bound.  Trials use
independent children of a single seed sequence, so the run is deterministic
for a fixed config and the aggregation (counts and maxima) is order-independent.

The worst instance across all properties is serialized into the summary and
can be replayed bit-for-bit with ``replay_instance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice

import numpy as np

from . import statistics as stats
from .errors import _RECORD, ParseError, QobsError, ValidationError
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
    entry_norms,
    is_int,
    max_abs,
    pair_scale,
    psd_sqrt,
    require_dim,
    require_tolerance,
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
    """Fuzzer configuration; identical configs give byte-identical output.
    Checked by ``require_dim`` and the finite form of ``require_tolerance``."""

    seed: int = 42
    trials: int = 100
    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    tol_lin: float = TOL_LIN
    tol_psd: float = TOL_PSD
    tol_stat: float = TOL_STAT
    cluster_tol: float | None = None

    def __post_init__(self):
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValidationError("must be an int >= 0",
                                  invariant="seed-range", field="seed")
        if not (is_int(self.trials) and self.trials >= 1):
            raise ValidationError("must be an int >= 1",
                                  invariant="positive-trials", field="trials")
        for d in self.dims or (0,):  # an empty tuple fails at 0
            require_dim(d, "dims")
        for _, field in _TOLERANCES:
            if field != "cluster_tol" or self.cluster_tol is not None:
                require_tolerance(getattr(self, field), field, finite=True)


_TOLERANCES = (("lin", "tol_lin"), ("psd", "tol_psd"),  # summary key, field
               ("stat", "tol_stat"), ("cluster", "cluster_tol"))


def _family_instrument(bundle: dict):
    """The trial's instrument, built from the bundle's A, omega or alphas."""
    family = bundle["family"]
    if family == "trivial":
        return trivial_instrument(bundle["omega"], bundle["dim"])
    if family == "holevo":
        return holevo_instrument(bundle["A"], bundle["alphas"])
    return lueders_instrument(bundle["A"])


def _family_maps(bundle: dict):
    """Each family's definition, stated once, from the bundle's omega, A or
    alphas alone: (outcomes, apply, dual), each taking a (k, d, d) stack to
    its images under every outcome's map, or its dual, as (n, k, d, d):
      trivial  apply(rho) = omega_x rho,         dual(C) = omega_x C
      Holevo   apply(rho) = tr(rho A_x) alpha_x, dual(C) = tr(alpha_x C) A_x
      Lueders  apply(rho) = R_x rho R_x,         dual(C) = R_x C R_x,
    with R_x = A_x^(1/2) from an eigendecomposition of its own."""
    if bundle["family"] == "trivial":
        omega = bundle["omega"]
        scaled = partial(np.multiply.outer, [omega[x] for x in omega])
        return tuple(omega), scaled, scaled
    A = bundle["A"]
    if bundle["family"] == "holevo":
        pair = A.effects, np.array([alpha.matrix for alpha in bundle["alphas"]])
        return A.keys, partial(_paired, *pair), partial(_paired, *pair[::-1])
    w, V = np.linalg.eigh(A.effects)
    R = (V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ V.conj().swapaxes(-1, -2)
    sandwiched = partial(_sandwiched, R[:, None])
    return A.keys, sandwiched, sandwiched


def _paired(P, Q, M):
    """tr(M_k P_x) Q_x over the pairs x and the stack M."""
    return np.einsum("xk,xab->xkab", np.einsum("xba,kab->xk", P, M), Q)


def _sandwiched(R, M):
    """R_x M_k R_x over the roots x and the stack M."""
    return R @ M @ R


def _family_rows(bundle: dict):
    """The bundle's instrument against its family's definition on the bundle's
    rho, C and B, as columns (names, computed, expected), names formatted when
    read: the measured effects against dual(I), apply(rho), dual(C), and in
    their key order, (x, y) over the outcomes then B's keys, the sequential
    product with B against dual(B_y) and B conditioned on it, sum_x dual(B_y)."""
    inst, rho, C, B = (bundle[key] for key in ("inst", "rho", "C", "B"))
    outcomes, apply, dual = _family_maps(bundle)
    duals = dual(np.concatenate([np.eye(B.dim)[None], C[None], B.effects]))
    measured = dict(inst.measured_observable().pairs())
    product = _shared(bundle, sequential_product, "inst", "B")
    conditioned = _shared(bundle, conditioned_observable, "inst", "B")
    groups = (("measured_effect", outcomes), ("apply", outcomes), ("dual", outcomes),
              ("product_effect", product.keys), ("conditioned_effect", conditioned.keys))
    computed = np.concatenate([
        [measured[x] for x in outcomes], [inst.apply(x, rho) for x in outcomes],
        [inst.dual_apply(x, C) for x in outcomes], product.effects, conditioned.effects])
    expected = np.concatenate([duals[:, 0], apply(rho.matrix[None])[:, 0], duals[:, 1],
                               duals[:, 2:].reshape(-1, B.dim, B.dim), duals[:, 2:].sum(0)])
    return (f"{kind}[{key}]" for kind, keys in groups for key in keys), computed, expected


def _maximally_mixed_correlation(C, D) -> complex:
    """Cor(C, D) at the maximally mixed state: tr(CD)/d - tr C tr D / d^2."""
    d = C.shape[0]
    return complex(np.trace(C @ D) / d - np.trace(C) * np.trace(D) / d ** 2)


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


def _matched_observable_delta(A: Observable, B: Observable) -> list:
    """Rows (outcomes, effects): the max deviations of two observables' sorted
    outcome lists and matched effects; both infinite when sizes differ."""
    if len(A) != len(B):
        return [math.inf, math.inf]
    return [max_abs(np.subtract(A.outcomes, B.outcomes)), max_abs(A.effects - B.effects)]


def _shared(inst: dict, build, *names, **kw):
    """build(*inst[names], **kw), kept on the trial bundle under a tuple key
    that ``_FIELDS`` never encodes, so replay does not see it."""
    return _stored(inst, (build.__qualname__, *names, *kw.items()),
                   lambda: build(*(inst[name] for name in names), **kw))


def _margin(residual: float, bound: float) -> tuple[bool, float]:
    """(violated, ratio), the fuzz's one rule: violated unless residual <=
    bound, so NaN is; the ratio is residual / bound, 0 over 0 is 0, and NaN
    or a positive residual over a bound of 0 is inf."""
    violated = not residual <= bound
    if bound > 0 and residual == residual:  # not NaN
        return violated, residual / bound
    return violated, math.inf if violated else 0.0


def _decide(check, inst: dict, cfg: RunConfig):
    """Run ``check`` on a trial and decide each of its rows by ``_margin``.
    If it raised, its error entry: the class and message, and a toolkit
    error's record under the keys of the CLI's JSON diagnostic.  Else
    (violated, ratio, residual, bound, names, k) of its worst row k, of
    largest ratio, then largest residual, NaN above any number, then the
    last; its name, ``next(islice(names, k, None))``, is formatted when read."""
    try:
        names, residual, bound = check(inst, cfg)
    except Exception as exc:
        entry = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, QobsError):
            entry.update((key, getattr(exc, key)) for key in _RECORD)
        return entry
    for k, (r, b) in enumerate(zip(residual, bound)):
        violated, ratio = _margin(r, b)
        if not k or ratio > top or ratio == top and (r != r or r >= worst[2]):
            top, worst = ratio, (violated, ratio, r, b, names, k)
    return worst


def _excess(x: float) -> float:
    """x above 0, else 0.0, never -0.0: a one-sided residual; NaN stays."""
    return 0.0 if x <= 0 else x


# Property registry: name -> fn(instance, config) -> (names, residuals,
# bounds), one row per sub-identity, which ``_decide`` decides.

def _chk_eigen_reconstruction(inst, cfg):
    H, sharp = inst["H"], _shared(inst, sharp_version, "H", cluster_tol=cfg.cluster_tol)
    return (("reconstruction",), [max_abs(stochastic_operator(sharp) - H)],
            [cfg.tol_lin * scale_of(H)])


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
    return (("completeness", "idempotence", "hermiticity", "orthogonality"),
            [max_abs(P.sum(0) - np.eye(P.shape[1])), max_abs(defect),
             max_abs(P - P.conj().swapaxes(-1, -2)),
             min((k - 1) * a, a / c if c > 0 else math.inf)], [cfg.tol_lin] * 4)


def _chk_psd_sqrt(inst, cfg):
    P = inst["P"]
    S = psd_sqrt(P, tol_psd=cfg.tol_psd, tol=cfg.tol_lin)
    rows = [max_abs(S @ S - P) / (1.0 + max_abs(P)), max_abs(S @ P - P @ S) / scale_of(P)]
    return ("square", "commutation"), rows, [cfg.tol_lin] * 2


def _chk_form_psd(inst, cfg):
    rho, C = inst["rho"], inst["C"]
    val = state_form(rho, C, C)
    return (("imaginary", "negative"), [abs(val.imag), _excess(-val.real)],
            [cfg.tol_lin * pair_scale(C, C)] * 2)


def _chk_form_cauchy_schwarz(inst, cfg):
    rho, C, D = inst["rho"], inst["C"], inst["D"]
    lhs = abs(state_form(rho, C, D)) ** 2
    rhs = state_form(rho, C, C).real * state_form(rho, D, D).real
    return ("excess",), [_excess(lhs - rhs)], [cfg.tol_lin * max(1.0, rhs)]


def _chk_form_conjugate_symmetry(inst, cfg):
    rho, C, D = inst["rho"], inst["C"], inst["D"]
    res = abs(state_form(rho, C, D) - np.conj(state_form(rho, D, C)))
    return ("symmetry",), [res], [cfg.tol_lin * pair_scale(C, D)]


def _chk_faithful_witness(inst, cfg):
    rho = inst["rho_low"]
    if is_faithful(rho, cfg.tol_psd):
        return ("witness",), [0.0], [cfg.tol_lin]  # dim 1 cannot be rank-deficient
    v = np.linalg.eigh(rho.matrix)[1][:, 0]
    P = np.outer(v, v.conj())
    return ("witness",), [_excess(state_form(rho, P, P).real)], [cfg.tol_lin]


def _chk_bloch_eigenvalues(inst, cfg):
    r = inst["bloch"]
    norm = float(np.linalg.norm(r))
    expected = np.array([(1.0 - norm) / 2.0, (1.0 + norm) / 2.0])
    rows = np.abs(np.array(bloch_state(r).eigenvalues) - expected).tolist()
    return ("lower", "upper"), rows, [1e-12] * 2


def _chk_sharp_same_stochastic(inst, cfg):
    A = inst["A"]
    sto, sharp = stochastic_operator(A), sharp_version(A, cfg.cluster_tol)
    res = max_abs(stochastic_operator(sharp) - sto)
    return ("stochastic",), [res], [cfg.tol_lin * scale_of(sto)]


def _chk_sharp_idempotent(inst, cfg):
    A = inst["A"]
    once = sharp_version(A, cfg.cluster_tol)
    rows = _matched_observable_delta(once, sharp_version(once, cfg.cluster_tol))
    bound = default_cluster_tol(stochastic_operator(A), cfg.cluster_tol)
    return ("outcomes", "effects"), rows, [max(cfg.tol_lin, bound)] * 2


def _chk_conjugate_same_sharp(inst, cfg):
    A, sto = inst["A"], stochastic_operator(inst["A"])
    conj = _shared(inst, conjugate, "A", cluster_tol=cfg.cluster_tol)
    rows = [max_abs(stochastic_operator(conj) - sto), *_matched_observable_delta(
        sharp_version(A, cfg.cluster_tol), sharp_version(conj, cfg.cluster_tol))]
    bound = max(cfg.tol_lin * scale_of(sto), default_cluster_tol(sto, cfg.cluster_tol))
    return ("stochastic", "sharp_outcomes", "sharp_effects"), rows, [bound] * 3


def _chk_conjugate_commutative(inst, cfg):
    A = inst["A_comm"]
    if not is_commutative(A, cfg.tol_lin):  # pragma: no cover - by construction
        return ("commutative",), [math.inf], [cfg.tol_lin]
    conj = _shared(inst, conjugate, "A_comm", cluster_tol=cfg.cluster_tol)
    return ("outcomes", "effects"), _matched_observable_delta(A, conj), [cfg.tol_lin] * 2


def _chk_coarse_grain_valid(inst, cfg):
    fA = _shared(inst, coarse_grain, "A", "f_obs")
    direct = sum(inst["f_obs"][x] * E for x, E in inst["A"].pairs())
    res = max_abs(stochastic_operator(fA) - direct)
    return ("stochastic",), [res], [cfg.tol_lin * scale_of(direct)]


def _uncertainty_residuals(rho, A, B):
    # Measure the residuals here; an infinite tolerance disarms the report's
    # own internal-consistency guard so violations are counted, not raised.
    # A NaN residual still raises, and counts as the property's error.
    rep = stats.uncertainty_report(rho, A, B, tol=math.inf)
    scale = float(stats._scale(rep.correlation_sq))
    return (abs(rep.equation_residual) / scale, _excess(-rep.inequality_slack) / scale,
            _excess(rep.commutator_term - rep.variance_product) / scale)


def _chk_uncertainty_equation(inst, cfg):
    eq1, _, _ = _shared(inst, _uncertainty_residuals, "rho", "A", "B")
    eq2, _, _ = _shared(inst, _uncertainty_residuals, "rho_low", "C", "D")
    return ("rho,A,B", "rho_low,C,D"), [eq1, eq2], [cfg.tol_stat] * 2


def _chk_uncertainty_inequality(inst, cfg):
    _, in1, rh1 = _shared(inst, _uncertainty_residuals, "rho", "A", "B")
    _, in2, rh2 = _shared(inst, _uncertainty_residuals, "rho_low", "C", "D")
    return (("slack[rho,A,B]", "slack[rho_low,C,D]", "robertson[rho,A,B]",
             "robertson[rho_low,C,D]"), [in1, in2, rh1, rh2], [cfg.tol_stat] * 4)


def _chk_correlation_symmetry(inst, cfg):
    rho, A, B = inst["rho"], inst["A"], inst["B"]
    cor = stats.correlation(rho, A, B)
    res = abs(cor - np.conj(stats.correlation(rho, B, A)))
    return ("symmetry",), [res], [cfg.tol_lin * max(1.0, abs(cor))]


def _chk_statistics_sharp_consistency(inst, cfg):
    rho, A, B = inst["rho"], inst["A"], inst["B"]
    sharp_a, sharp_b = (sharp_version(X, cfg.cluster_tol) for X in (A, B))
    cor = stats.correlation(rho, A, B)
    return (("correlation", "mean", "variance"),
            [abs(cor - stats.correlation(rho, sharp_a, sharp_b)),
             abs(stats.average(rho, A) - stats.average(rho, sharp_a)),
             abs(stats.variance(rho, A) - stats.variance(rho, sharp_a))],
            [cfg.tol_lin * max(1.0, abs(cor))] * 3)


def _chk_maximally_mixed_closed_form(inst, cfg):
    C, D = inst["C"], inst["D"]
    closed = _maximally_mixed_correlation(C, D)
    res = abs(stats.correlation(maximally_mixed(C.shape[0]), C, D) - closed)
    return ("correlation",), [res], [cfg.tol_lin * max(1.0, abs(closed))]


def _chk_deviation_traceless(inst, cfg):
    rho, dev = inst["rho"], stats.deviation(inst["rho"], inst["A"])
    return ("trace",), [abs(np.trace(rho.matrix @ dev))], [cfg.tol_lin * scale_of(dev)]


def _chk_commutator_identity(inst, cfg):
    rho, A, B = inst["rho"], inst["A"], inst["B"]
    comm = stats.commutator_expectation(rho, A, B)
    ident = 2j * np.trace(rho.matrix @ stochastic_operator(A) @ stochastic_operator(B)).imag
    return (("real_part", "identity"), [abs(comm.real), abs(comm - ident)],
            [cfg.tol_lin * max(1.0, abs(comm))] * 2)


def _chk_instrument_family(inst, cfg):
    """Every row of ``_family_rows``, within ``tol_lin`` of its scale."""
    names, computed, expected = _family_rows(inst)
    return (names, entry_norms(computed - expected).tolist(),
            (cfg.tol_lin * scale_of(expected)).tolist())


def _chk_instrument_channel(inst, cfg):
    eig = _shared(inst, Instrument.channel, "inst", "rho").eigenvalues
    return ("trace", "negative"), [abs(sum(eig) - 1.0), _excess(-eig[0])], [cfg.tol_psd] * 2


def _chk_instrument_coarse_grain(inst, cfg):
    merged = _shared(inst, Instrument.coarse_grain, "inst", "f_inst")
    rhs = coarse_grain(inst["inst"].measured_observable(), inst["f_inst"])
    rows = _matched_observable_delta(merged.measured_observable(), rhs)
    return ("outcomes", "effects"), rows, [cfg.tol_lin] * 2


def _chk_instrument_mean(inst, cfg):
    instr, rho = inst["inst"], inst["rho"]
    mean = float(sum(x * np.trace(instr.apply(x, rho)).real for x in instr.outcomes))
    res = abs(mean - stats.average(rho, instr.measured_observable()))
    return ("mean",), [res], [cfg.tol_lin * max(1.0, abs(mean))]


def _chk_sequential_marginal(inst, cfg):
    product = _shared(inst, sequential_product, "inst", "B")
    measured = inst["inst"].measured_observable()
    return ((f"marginal[{x}]" for x in measured.keys),
            [max_abs(sum(eff for (xx, _), eff in product.pairs() if xx == x) - E)
             for x, E in measured.pairs()], [cfg.tol_lin] * len(measured))


def _chk_conditioned_mean(inst, cfg):
    B, rho = inst["B"], inst["rho"]
    cond = _shared(inst, conditioned_observable, "inst", "B")
    res = abs(stats.average(rho, cond) - stats.average(
        _shared(inst, Instrument.channel, "inst", "rho"), B))
    return ("mean",), [res], [cfg.tol_lin * max(1.0, abs(stats.average(rho, B)))]


def _chk_product_split_function(inst, cfg):
    instr, B, g, h = inst["inst"], inst["B"], inst["g"], inst["h"]
    product = _shared(inst, sequential_product, "inst", "B")
    f = {(x, y): g[x] * h[y] for x in instr.outcomes for y in B.outcomes}
    lhs = stochastic_operator(coarse_grain(product, f))
    hB = sum(h[y] * E for y, E in B.pairs())
    rhs = sum(g[x] * instr.dual_apply(x, hB) for x in instr.outcomes)
    return ("stochastic",), [max_abs(lhs - rhs)], [cfg.tol_lin * scale_of(rhs)]


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
    builders do not check.  Row rule[i][j] is effect j of the i-th
    observable of ``_trial_observables``, and completeness[i] its sum."""
    stacks = [obs.effects for obs in _trial_observables(inst, cfg)]
    residual, bound = _effect_margins(stacks, cfg.tol_lin, cfg.tol_psd)
    rules = ("hermitian", "effect-lower-bound", "effect-upper-bound")
    names = chain((f"{rule}[{i}][{j}]" for rule in rules
                   for i, S in enumerate(stacks) for j in range(len(S))),
                  (f"completeness[{i}]" for i in range(len(stacks))))
    return names, residual.tolist(), bound.tolist()


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
    "instrument.family": _chk_instrument_family,
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


def _decode_map(obj: dict, field: str) -> dict:  # keys ascending, as built
    return dict(sorted((float(k), float(v)) for k, v in obj.items()))


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


def run_fuzz(config: RunConfig) -> dict:
    """Run the property battery; the returned summary is deterministic in
    the config and contains the worst instance for replay.

    A check that raises counts as a violated property (an instance its
    contract could not even be evaluated on) rather than aborting the run.
    """
    dims = [int(d) for d in config.dims]  # numpy ints are not JSON
    root, n = np.random.SeedSequence(config.seed), len(dims)
    props = {name: _PropertyStats() for name in CHECKS}
    worst = {"ratio": -1.0}
    for i in range(config.trials):
        rng = np.random.default_rng(root.spawn(1)[0])  # child i, spawned now
        # i % 3 pairs every dim with every family unless 3 divides the
        # number of dims; then each pass over the dims shifts the families.
        family = FAMILIES[(i + (i // n if n % 3 == 0 else 0)) % 3]
        dim = dims[i % n]
        instance = build_instance(rng, dim, family)
        for name, check in CHECKS.items():
            entry = props[name]
            entry.trials += 1
            found = _decide(check, instance, config)
            if type(found) is dict:  # the check raised: its error entry
                entry.errors += 1
                entry.violations += 1
                if worst["ratio"] is None:  # the first error stays the worst
                    continue
                found = {"ratio": None, "residual": None, "bound": None, **found}
            else:
                violated, ratio, residual, bound, names, k = found
                if residual != residual or residual > entry.max_residual:
                    entry.max_residual = residual  # a NaN, as _margin's, stays
                entry.max_ratio = max(entry.max_ratio, ratio)
                entry.violations += violated
                if worst["ratio"] is None or not ratio > worst["ratio"]:
                    continue
                found = {"ratio": ratio, "residual": residual, "bound": bound,
                         "row": next(islice(names, k, None))}
            worst = {**found, "property": name, "trial": i, "instance": instance}
    worst = {key: encode_instance(v) if key == "instance" else v
             for key, v in worst.items()}  # ``_shared``'s keys are not encoded
    total = sum(p.violations for p in props.values())
    return {
        "schema": SCHEMA_VERSION,
        "prng": PRNG_NAME,
        "seed": int(config.seed),
        "trials": int(config.trials),
        "dims": dims,
        "tolerances": {key: getattr(config, field) for key, field in _TOLERANCES},
        "properties": {name: vars(p) for name, p in props.items()},
        "violations": total,
        "worst": worst,
    }


def replay_instance(summary) -> dict:
    """Re-evaluate the ``worst`` member of a run summary at the tolerances
    the summary records; deterministic arithmetic makes the residual
    reproduce bit-for-bit.  ``violations`` is 1 when the check raised or its
    residual is not within its bound, as ``run_fuzz`` counts, else 0.  A malformed
    summary raises ``ParseError`` naming the field."""
    dump = _expect(summary, "worst", "dump")
    name = _expect(dump, "property", "dump")
    if not isinstance(name, str) or name not in CHECKS:
        raise ParseError(f"unknown property {name!r}", field="dump.property")
    tols = _expect(summary, "tolerances", "dump")
    for key, field in _TOLERANCES:  # the config's rule, at the summary's key
        try:
            RunConfig(**{field: _expect(tols, key, "dump.tolerances")})
        except ValidationError:
            raise ParseError("expected a finite number >= 0",
                             field=f"dump.tolerances.{key}") from None
    config = RunConfig(**{field: tols[key] for key, field in _TOLERANCES})
    try:
        instance = decode_instance(_expect(dump, "instance", "dump"),
                                   "dump.instance")
    except QobsError:
        raise
    except Exception as exc:  # a field the codec cannot read
        raise ParseError(f"cannot rebuild the trial ({exc!r})",
                         field="dump.instance") from None
    found = _decide(CHECKS[name], instance, config)
    if type(found) is dict:  # the check raised: its error entry
        return {"schema": SCHEMA_VERSION, "property": name, "violations": 1, **found}
    violated, ratio, residual, bound, names, k = found
    return {"schema": SCHEMA_VERSION, "property": name, "residual": residual,
            "bound": bound, "ratio": ratio, "row": next(islice(names, k, None)),
            "violations": int(violated)}
