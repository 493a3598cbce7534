"""Dense complex matrix arithmetic and the two spectral primitives the rest
of the toolkit is built on: the positive-semidefinite square root, and the
private Hermitian eigendecomposition into eigenspace projections, which
``observables.sharp_version`` returns as a projection-valued observable.

Operators are plain ``numpy`` arrays of ``complex128``.  Every function is
pure and returns fresh arrays; values stored inside domain objects are
frozen read-only.  Dimensions are expected to stay small (d <= ~64), so all
checks are done densely.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailureError, ValidationError

# Default tolerances. All overridable per call.
TOL_LIN = 1e-9    # structural identities: Hermiticity, completeness, reconstruction
TOL_PSD = 1e-8    # slack allowed below zero in positive-semidefinite spectra
TOL_STAT = 1e-9   # statistical identities built from products of traces
TOL_REL = 1e-8    # acceptance threshold for affine operator relations
MAX_DIM = 64      # the documented range of dimensions, d <= MAX_DIM
MAX_OUTCOMES = MAX_DIM ** 2  # most outcomes of an extremal POVM at d <= 64


def as_matrix(M, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    try:
        arr = np.asarray(M, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError("not a matrix of numbers",
                              invariant="numeric-entries", field=name) from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError(f"not a square matrix: shape {arr.shape}",
                              invariant="square", field=name)
    if not np.isfinite(arr).all():
        raise ValidationError("non-finite entries",
                              invariant="finite-entries", field=name)
    return arr


def as_stack(mats, *, name: str) -> np.ndarray:
    """Coerce a nonempty sequence of square matrices of one dimension to a
    fresh ``(n, d, d)`` complex array; anything else is an error naming
    ``name``, or the first bad entry, e.g. ``effect[2]``, of a sequence
    that does not stack cleanly.
    """
    try:
        n = len(mats)
    except TypeError:  # no length: a number, or a 0-d array
        n = 0
    if not n:
        raise ValidationError("not a nonempty list of matrices",
                              invariant="matrix-list", field=name)
    try:
        stack = np.array(mats, dtype=complex)
    except (TypeError, ValueError):
        stack = np.empty(0)
    if (stack.ndim == 3 and 0 < stack.shape[1] == stack.shape[2]
            and np.isfinite(stack).all()):
        return stack
    items = [as_matrix(M, name=f"{name}[{i}]") for i, M in enumerate(mats)]
    dim = items[0].shape[0]
    for i, M in enumerate(items):
        if M.shape[0] != dim:
            raise ValidationError(f"dim {M.shape[0]}, expected {dim}",
                                  invariant="matching-dims", field=f"{name}[{i}]")
    return np.stack(items)


def parallel_keys(keys, values, what: str) -> tuple:
    """tuple(keys), if keys and values are parallel nonempty lists; else a
    ``parallel-lists`` error, also for a bare number or a 0-d array."""
    try:
        keys, n = tuple(keys), len(values)
    except TypeError:  # not iterable, or no length
        keys, n = (), 0
    if not keys or len(keys) != n:
        raise ValidationError(f"{what} must be parallel nonempty lists",
                              invariant="parallel-lists")
    return keys


def require_dim(d: int, field: str) -> int:
    """d, if at most MAX_DIM: for sizes that no input array backs."""
    if d > MAX_DIM:
        raise ValidationError(f"dimension {d} is above {MAX_DIM}",
                              invariant="dim-range", field=field)
    return d


def max_abs(M: np.ndarray) -> float:
    """Entrywise infinity norm, used for all relative tolerances."""
    return float(np.abs(M).max())


def entry_norms(M: np.ndarray) -> np.ndarray:
    """``max_abs`` of one matrix, or of each matrix in a stack."""
    return np.abs(M).max(axis=(-2, -1))


def scale_of(M: np.ndarray):
    """max(1, ||M||) per matrix: every relative bound is ``tol * scale_of``."""
    return np.maximum(1.0, entry_norms(M))


def pair_scale(M: np.ndarray, N: np.ndarray):
    """max(1, ||M[i]|| ||N[j]||) per pair: the scale of a product's bound."""
    return np.maximum(1.0, np.multiply.outer(entry_norms(M), entry_norms(N)))


def commutator(A, B) -> np.ndarray:
    """AB - BA."""
    A, B = as_matrix(A, name="A"), as_matrix(B, name="B")
    if A.shape != B.shape:
        raise ValidationError(
            f"dimension mismatch: {A.shape[0]} vs {B.shape[0]}",
            invariant="matching-dims")
    return A @ B - B @ A


def hermiticity_defect(M: np.ndarray):
    return entry_norms(M - M.conj().swapaxes(-1, -2))


def require_hermitian(M, tol: float = TOL_LIN, *, name: str = "matrix") -> np.ndarray:
    M = as_matrix(M, name=name)
    defect, bound = hermiticity_defect(M), tol * scale_of(M)
    if defect > bound:
        raise ValidationError("not Hermitian", invariant="hermitian", field=name,
                              violation=float(defect), bound=float(bound))
    return M


def hermitian_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (validated) Hermitian matrix, or of each
    matrix in an ``(n, d, d)`` stack."""
    try:
        return np.linalg.eigvalsh((M + M.conj().swapaxes(-1, -2)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - d<=64 converges
        raise ConvergenceFailureError(str(exc)) from exc


def _eigh(M: np.ndarray):
    """(w, V): ``eigh`` of the Hermitian part of M (or a stack), unchecked."""
    try:
        return np.linalg.eigh((M + M.conj().swapaxes(-1, -2)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailureError(str(exc)) from exc


def default_cluster_tol(M: np.ndarray, cluster_tol: float | None = None) -> float:
    """The eigenvalue clustering width for M: ``cluster_tol`` when given,
    else 1e-8 of M's scale; every clustering and its bound read it here."""
    return 1e-8 * scale_of(M) if cluster_tol is None else cluster_tol


def _eigendecomposition(M: np.ndarray, cluster_tol: float | None):
    """(ws, P) with M = sum_i ws[i] P[i], for Hermitian M (unchecked):
    strictly increasing eigenvalues and a ``(k, d, d)`` stack of the
    projections onto their eigenspaces.  Raw eigenvalues whose consecutive
    gap is at most ``cluster_tol`` merge into one eigenspace, valued at their
    mean, whose projection is basis-independent: a sum of outer products."""
    w, V = _eigh(M)
    ws = w.tolist()
    cut = float(default_cluster_tol(M, cluster_tol))
    starts = [0, *(i for i in range(1, len(ws)) if ws[i] - ws[i - 1] > cut)]
    P = V.T[:, :, None] @ V.conj().T[:, None, :]  # v v*, one per eigenvector
    if len(starts) < len(ws):  # a merged cluster's mean, and sum of its slice
        sizes = [hi - lo for lo, hi in zip(starts, [*starts[1:], len(ws)])]
        ws = (np.add.reduceat(w, starts) / sizes).tolist()
        P = np.array([P[lo:lo + m].sum(0) if m > 1 else P[lo]
                      for lo, m in zip(starts, sizes)])
    return ws, (P + P.conj().swapaxes(-1, -2)) / 2.0


def psd_sqrt(M, tol_psd: float = TOL_PSD, tol: float = TOL_LIN) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [-tol_psd, 0) are treated as rounding noise and clipped
    to zero; anything lower is a ``psd`` error.
    """
    w, V = _eigh(require_hermitian(M, tol))
    if w[0] < -tol_psd:
        raise ValidationError("matrix has an eigenvalue below 0", invariant="psd",
                              violation=float(-w[0]), bound=tol_psd)
    return _root(w, V)


def _root(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The Hermitian square root of V diag(w) V* (or a stack), w clipped at 0."""
    Vh = V.conj().swapaxes(-1, -2)
    root = (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ Vh
    return (root + root.conj().swapaxes(-1, -2)) / 2.0


def frozen(M: np.ndarray) -> np.ndarray:
    """Read-only copy, for storage inside immutable domain objects."""
    out = np.array(M, dtype=complex)
    out.setflags(write=False)
    return out


class _Immutable:
    """Base of the domain objects: ``__init__`` sets each slot once, through
    ``_set``, and nothing can be rebound afterwards."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")
