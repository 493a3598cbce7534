from collections.abc import Mapping

import numpy as np
import pytest

from qobs import fuzz, linalg
from qobs.instruments import (Instrument, holevo_instrument, lueders_instrument,
                              trivial_instrument)
from qobs.linalg import psd_sqrt
from qobs.observables import (Observable, _on_keys, canonical_outcome,
                              stochastic_operator)
from qobs.sampling import (ginibre, haar_unitary, random_density,
                           random_observable, random_outcomes,
                           random_probability_vector)
from qobs.serialization import decode_matrix


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


# Random instances that only the tests draw.

def random_sharp_observable(rng: np.random.Generator, dim: int,
                            n_outcomes: int) -> Observable:
    """Projection-valued observable from a random eigenbasis partition."""
    if not 1 <= n_outcomes <= dim:
        raise ValueError("need 1 <= n_outcomes <= dim")
    U = haar_unitary(rng, dim)
    # Random surjective assignment of basis indices to outcomes.
    while True:
        assign = rng.integers(0, n_outcomes, size=dim)
        if len(set(assign.tolist())) == n_outcomes:
            break
    effects = []
    for g in range(n_outcomes):
        cols = U[:, assign == g]
        P = cols @ cols.conj().T
        effects.append((P + P.conj().T) / 2.0)
    return Observable(random_outcomes(rng, n_outcomes), effects)


def random_instrument(rng: np.random.Generator, dim: int, family: str,
                      n_outcomes: int = 2) -> Instrument:
    """Random member of one of the three named instrument families."""
    if family == "trivial":
        probs = random_probability_vector(rng, n_outcomes)
        omega = {x: float(p) for x, p in zip(random_outcomes(rng, n_outcomes), probs)}
        return trivial_instrument(omega, dim)
    A = random_observable(rng, dim, n_outcomes)
    if family == "holevo":
        alphas = [random_density(rng, dim) for _ in range(n_outcomes)]
        return holevo_instrument(A, alphas)
    if family == "lueders":
        return lueders_instrument(A)
    raise ValueError(f"unknown instrument family {family!r}")


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


# Loop forms of the stacked kernels: one numpy call per cluster, piece,
# effect or key, as the kernels were first written.  The kernels must give
# the same bits (a merged cluster's projection may move in its last bits).

def eigendecomposition_loop(M, cluster_tol):
    """``linalg._eigendecomposition`` with one V_c V_c* matmul per cluster."""
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    if cluster_tol is None:
        cluster_tol = linalg.default_cluster_tol(M)
    cuts = [0, *(np.flatnonzero(np.diff(w) > cluster_tol) + 1).tolist(), len(w)]
    bounds = list(zip(cuts[:-1], cuts[1:]))
    P = np.array([V[:, lo:hi] @ V[:, lo:hi].conj().T for lo, hi in bounds])
    return linalg.EigenDecomposition(
        tuple(float(w[lo:hi].sum() / (hi - lo)) for lo, hi in bounds),
        linalg.frozen((P + P.conj().swapaxes(-1, -2)) / 2.0),
        tuple(hi - lo for lo, hi in bounds))


def random_observable_loop(rng, dim, n_outcomes, outcomes=None):
    """``sampling.random_observable`` with one ginibre draw per piece and
    the sum of the pieces taken one at a time."""
    pieces = []
    for _ in range(n_outcomes):
        G = ginibre(rng, dim, dim)
        pieces.append(G @ G.conj().T)
    S = np.zeros((dim, dim), dtype=complex)
    for E in pieces:
        S = S + E
    w, V = np.linalg.eigh((S + S.conj().T) / 2.0)
    inv_root = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    effects = [inv_root @ E @ inv_root for E in pieces]
    effects = [(E + E.conj().T) / 2.0 for E in effects]
    if outcomes is None:
        outcomes = random_outcomes(rng, n_outcomes)
    return Observable(outcomes, effects)


def random_commutative_observable_loop(rng, dim, n_outcomes):
    """``sampling.random_commutative_observable`` with one probability
    vector per basis index and one product per outcome."""
    U = haar_unitary(rng, dim)
    table = np.stack([random_probability_vector(rng, n_outcomes)
                      for _ in range(dim)])
    effects = []
    for x in range(n_outcomes):
        E = (U * table[:, x]) @ U.conj().T
        effects.append((E + E.conj().T) / 2.0)
    return Observable(random_outcomes(rng, n_outcomes), effects)


def lueders_root_loop(E):
    """The clipped square root of one effect, as ``lueders_instrument``
    took it: its own eigensolve and product."""
    w, V = np.linalg.eigh((E + E.conj().T) / 2.0)
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    return (root + root.conj().T) / 2.0


def lueders_instrument_loop(A):
    """``instruments.lueders_instrument`` with one root per effect."""
    return Instrument.__new__(Instrument)._build(
        A.keys, [(lueders_root_loop(E)[None],) for E in A.effects])


def fibers_unique(f, keys):
    """``observables.fibers`` by ``np.unique``."""
    values = (_on_keys(f, keys, "coarse-grained value") if isinstance(f, Mapping)
              else [f(key) for key in keys])
    zs, index = np.unique([canonical_outcome(z) for z in values],
                          return_inverse=True)
    return zs.tolist(), index


# The JSON codec's per-matrix forms: one decode and one pair of ``tolist``
# calls per matrix.  The stacked codec must give the same bits and the same
# diagnostics.

def decode_matrices_loop(raw, field):
    """``serialization._matrix_stack`` with one ``decode_matrix`` per entry."""
    return [decode_matrix(E, f"{field}[{i}]") for i, E in enumerate(raw)]


def encode_matrix_loop(M):
    """``serialization.encode_matrix`` of one matrix, as first written."""
    M = np.asarray(M, dtype=complex)
    out = {"dim": int(M.shape[0]), "re": M.real.tolist()}
    if np.any(M.imag != 0.0):
        out["im"] = M.imag.tolist()
    return out


def encode_stack_loop(stack):
    """``serialization._encode_stack`` with one document per matrix."""
    return [encode_matrix_loop(M) for M in stack]


# The fuzz checks before their linear forms, as references: all pairwise
# products of the eigenprojections, and each observable's completeness on
# its own.

def eigen_projections_pairwise(inst, cfg):
    """``fuzz._chk_eigen_projections`` with the k(k-1)/2 products P_i P_j,
    in max-entry form."""
    P = fuzz.hermitian_eigendecomposition(
        inst["H"], cluster_tol=cfg.cluster_tol, tol=cfg.tol_lin).projections
    i, j = np.triu_indices(len(P), 1)  # each pair of distinct projections
    res = max(linalg.max_abs(P.sum(0) - np.eye(len(inst["H"]))),
              linalg.max_abs(P @ P - P),
              linalg.max_abs(P - P.conj().swapaxes(-1, -2)),
              float(np.abs(P[i] @ P[j]).max(initial=0.0)))
    return res, cfg.tol_lin


def derived_spectrum_eigensolve(inst, cfg):
    """``fuzz._chk_derived_spectrum`` with the completeness of one observable
    at a time, over the observables the check reads."""
    held = fuzz._trial_observables(inst, cfg)
    E = np.concatenate([obs.effects for obs in held])
    w = linalg.hermitian_eigenvalues(E)
    residual = np.concatenate([
        linalg.hermiticity_defect(E), -w[:, 0], w[:, -1] - 1.0,
        [linalg.max_abs(obs.effects.sum(0) - np.eye(obs.dim)) for obs in held]])
    bound = np.concatenate([cfg.tol_lin * linalg.scale_of(E),
                            np.full(2 * len(E), cfg.tol_psd),
                            np.full(len(held), cfg.tol_lin)])
    ratio = np.divide(residual, bound, where=bound > 0,
                      out=np.where(residual > 0, np.inf, 0.0))
    k = np.lexsort((residual, ratio))[-1]
    return float(residual[k]), float(bound[k])
