"""Seeded random instances: states, observables, instruments.

Constructions are chosen so every draw is valid without rejection sampling:
states come from Wishart-style products G G*, observables from normalizing
random PSD effects by the inverse square root of their sum.
"""

from __future__ import annotations

import numpy as np

from .instruments import (
    Instrument,
    holevo_instrument,
    lueders_instrument,
    trivial_instrument,
)
from .observables import Observable
from .states import DensityOperator


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex matrix with i.i.d. standard Gaussian entries."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    G = ginibre(rng, dim, dim)
    return scale * (G + G.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int,
                   rank: int | None = None) -> DensityOperator:
    """G G* / tr(G G*) with G of shape (dim, rank); rank < dim gives a
    non-faithful state."""
    k = dim if rank is None else max(1, min(rank, dim))
    G = ginibre(rng, dim, k)
    M = G @ G.conj().T
    return DensityOperator(M / np.trace(M).real)


def random_faithful_density(rng: np.random.Generator, dim: int,
                            floor: float = 0.05) -> DensityOperator:
    """Random state mixed toward I/dim so the least eigenvalue is >= floor."""
    if not 0.0 < floor * dim < 1.0:
        raise ValueError("floor must satisfy 0 < floor*dim < 1")
    base = random_density(rng, dim)
    c = floor / (1.0 - floor * dim)
    M = (base.matrix + c * np.eye(dim)) / (1.0 + c * dim)
    return DensityOperator(M)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    Q, R = np.linalg.qr(ginibre(rng, dim, dim))
    phases = np.diag(R) / np.abs(np.diag(R))
    return Q * phases


def random_outcomes(rng: np.random.Generator, n: int) -> list[float]:
    """n distinct real outcome values, ascending."""
    while True:
        xs = sorted(float(v) for v in rng.normal(0.0, 2.0, size=n))
        if len(set(xs)) == n:
            return xs


def random_probability_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.standard_normal(n) ** 2 + 1e-3
    return w / w.sum()


def random_observable(rng: np.random.Generator, dim: int, n_outcomes: int,
                      outcomes=None) -> Observable:
    """POVM from random PSD pieces E_x, normalized to S^{-1/2} E_x S^{-1/2}
    with S the sum, which makes completeness exact."""
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


def random_commutative_observable(rng: np.random.Generator, dim: int,
                                  n_outcomes: int) -> Observable:
    """Effects diagonal in a common random eigenbasis: for each basis index
    the weights over outcomes form a probability vector."""
    U = haar_unitary(rng, dim)
    table = np.stack([random_probability_vector(rng, n_outcomes)
                      for _ in range(dim)])  # (dim, n_outcomes)
    effects = []
    for x in range(n_outcomes):
        E = (U * table[:, x]) @ U.conj().T
        effects.append((E + E.conj().T) / 2.0)
    return Observable(random_outcomes(rng, n_outcomes), effects)


def random_bloch_vector(rng: np.random.Generator, surface: bool = False) -> np.ndarray:
    """Uniform direction; radius uniform-in-ball unless surface is forced."""
    v = rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    if surface:
        return v
    return v * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)


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
