"""The stacked kernels against their loop forms in ``conftest``: the same
bits over seeded draws at d 1..6, and, for a merged cluster, a projection
that may move only in its last bits."""

import numpy as np
import pytest

from qobs import linalg
from qobs.instruments import lueders_instrument
from qobs.observables import fibers
from qobs.sampling import (haar_unitary, random_commutative_observable,
                           random_hermitian, random_observable)

from conftest import (
    assert_same_parts,
    eigendecomposition_loop,
    fibers_unique,
    lueders_instrument_loop,
    lueders_root_loop,
    random_commutative_observable_loop,
    random_observable_loop,
    ranks,
)

DIMS = range(1, 7)


def assert_same_decomposition(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("dim", DIMS)
def test_eigendecomposition_matches_one_matmul_per_cluster(dim):
    rng = np.random.default_rng([dim, 1])
    for _ in range(50):
        H = random_hermitian(rng, dim)
        for cut in (None, 0.0):
            assert_same_decomposition(linalg._eigendecomposition(H, cut),
                                      eigendecomposition_loop(H, cut))


def test_merged_cluster_is_a_projection_near_the_loop_form():
    """diag(0, 5e-9, 1) merges its first two eigenvalues at the default
    cluster_tol: the summed rank-one products are still idempotent, sum to
    I, and lie within 1e-15 of the per-cluster matmul."""
    U = haar_unitary(np.random.default_rng(7), 3)
    H = (U * np.array([0.0, 5e-9, 1.0])) @ U.conj().T
    values, P = linalg._eigendecomposition(H, None)
    want_values, want_P = eigendecomposition_loop(H, None)
    assert ranks(P) == ranks(want_P) == (2, 1)
    assert values == want_values
    assert linalg.max_abs(P @ P - P) <= 1e-15
    assert linalg.max_abs(P.sum(0) - np.eye(3)) <= 1e-15
    assert linalg.max_abs(P - want_P) <= 1e-15


@pytest.mark.parametrize("cut", [None, 0.9e-8, 0.0])
def test_scalar_clustering_of_a_chain_gives_the_numpy_starts(cut):
    """64 eigenvalues spaced 0.9e-8 chain into one cluster at the default
    cluster_tol (1e-8), and split about the gaps' rounding at 0.9e-8: the
    Python-scalar comparison cuts where np.diff does, and each merged
    projection lies within 1e-15 of the per-cluster matmul."""
    U = haar_unitary(np.random.default_rng(11), 64)
    H = (U * (0.9e-8 * np.arange(64.0))) @ U.conj().T
    w, _ = linalg._eigh(H)
    tol = linalg.default_cluster_tol(H) if cut is None else cut
    starts = np.append(0, np.flatnonzero(np.diff(w) > tol) + 1)
    (values, P), (want_values, want_P) = (linalg._eigendecomposition(H, cut),
                                          eigendecomposition_loop(H, cut))
    assert ranks(P) == tuple(np.diff(starts, append=64).tolist())
    assert ranks(P) == ranks(want_P)
    assert np.allclose(values, want_values, rtol=0, atol=1e-15)
    assert linalg.max_abs(P - want_P) <= 1e-15
    if cut is None:
        assert ranks(P) == (64,)


def test_a_gap_of_exactly_cluster_tol_merges():
    values, P = linalg._eigendecomposition(np.diag([0.0, 0.5, 1.0, 2.0]) + 0j, 0.5)
    assert ranks(P) == (3, 1)
    assert values == [0.5, 2.0]


@pytest.mark.parametrize("dim", DIMS)
def test_samplers_draw_the_loop_forms_bits_from_the_same_stream(dim):
    for sample, loop in [
            (random_observable, random_observable_loop),
            (random_commutative_observable, random_commutative_observable_loop)]:
        for n in (1, 2, 3, 4):
            rng, ref = (np.random.default_rng([dim, n]) for _ in range(2))
            for _ in range(5):
                got, want = sample(rng, dim, n), loop(ref, dim, n)
                assert got.keys == want.keys
                assert np.array_equal(got.effects, want.effects)
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dim", DIMS)
def test_lueders_roots_match_one_root_per_effect(dim):
    rng = np.random.default_rng([dim, 2])
    for n in (1, 2, 3, 4):
        A = random_observable(rng, dim, n)
        assert_same_parts(lueders_instrument(A), lueders_instrument_loop(A))
        for E in A.effects:  # one matrix takes the same path
            assert np.array_equal(linalg._root(*linalg._eigh(E)),
                                  lueders_root_loop(E))


@pytest.mark.parametrize("f", [
    {-1.5: 2.0, 0.0: -0.0, 2.0: 0.0, 3.0: 2},
    lambda x: round(x),
    lambda x: -x,
    lambda x: 1,
], ids=["map", "round", "negate", "constant"])
def test_fibers_match_np_unique(f):
    keys = (-1.5, 0.0, 2.0, 3.0)
    zs, index = fibers(f, keys)
    want_zs, want_index = fibers_unique(f, keys)
    assert zs == want_zs and list(index) == want_index.tolist()
    assert all(type(z) is float for z in zs)
