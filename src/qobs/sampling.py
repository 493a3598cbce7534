"""Seeded random instances: states, observables, Bloch vectors.

Constructions are chosen so every draw is valid without rejection sampling:
states come from Wishart-style products G G*, observables from normalizing
random PSD effects by the inverse square root of their sum.
"""

from __future__ import annotations

import numpy as np

from .observables import Observable
from .states import DensityOperator


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex matrix with i.i.d. standard Gaussian entries."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    G = ginibre(rng, dim, dim)
    return (G + G.conj().T) / 2.0


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


def random_probability_vector(rng: np.random.Generator, n) -> np.ndarray:
    """A random probability vector of length n, or for n = (rows, k) one
    per row, drawn as rows calls of length k would draw them."""
    w = rng.standard_normal(n) ** 2 + 1e-3
    return w / w.sum(-1, keepdims=True)


def random_observable(rng: np.random.Generator, dim: int, n_outcomes: int,
                      outcomes=None) -> Observable:
    """POVM from random PSD pieces E_x, normalized to S^{-1/2} E_x S^{-1/2}
    with S the sum, which makes completeness exact."""
    X = rng.standard_normal((n_outcomes, 2, dim, dim))  # the stream of n ginibre calls
    G = X[:, 0] + 1j * X[:, 1]
    pieces = G @ G.conj().swapaxes(-1, -2)
    S = pieces.sum(0)
    w, V = np.linalg.eigh((S + S.conj().T) / 2.0)
    inv_root = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    effects = inv_root @ pieces @ inv_root
    effects = (effects + effects.conj().swapaxes(-1, -2)) / 2.0
    if outcomes is None:
        outcomes = random_outcomes(rng, n_outcomes)
    return Observable(outcomes, effects)


def random_commutative_observable(rng: np.random.Generator, dim: int,
                                  n_outcomes: int) -> Observable:
    """Effects diagonal in a common random eigenbasis: for each basis index
    the weights over outcomes form a probability vector."""
    U = haar_unitary(rng, dim)
    table = random_probability_vector(rng, (dim, n_outcomes))
    E = (U * table.T[:, None, :]) @ U.conj().T
    effects = (E + E.conj().swapaxes(-1, -2)) / 2.0
    return Observable(random_outcomes(rng, n_outcomes), effects)


def random_bloch_vector(rng: np.random.Generator, surface: bool = False) -> np.ndarray:
    """Uniform direction; radius uniform-in-ball unless surface is forced."""
    v = rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    if surface:
        return v
    return v * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
