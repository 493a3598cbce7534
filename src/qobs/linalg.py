"""Dense complex matrix arithmetic and the two spectral primitives the rest
of the toolkit is built on: the positive-semidefinite square root, and the
private Hermitian eigendecomposition into eigenspace projections, which
``observables.sharp_version`` returns as a projection-valued observable.

Operators are plain ``numpy`` arrays of ``complex128``.  Every function is
pure and returns fresh arrays; values stored inside domain objects are
frozen read-only.  Dimensions are expected to stay small (d <= ~64), so all
checks are done densely.  Each shape rule is stated here once, for every
module: ``require_dim``, ``require_same_dim`` and ``parallel_keys``; so is
the margin rule, ``require_margin``, for every residual against its bound,
the floor of every relative bound, ``scale``, and the Hermitian part,
``_hermitian_part``, formed once, where a matrix enters or is made.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailureError, ValidationError

# Default tolerances. All overridable per call.
TOL_LIN = 1e-9    # structural identities: Hermiticity, completeness, reconstruction
TOL_PSD = 1e-8    # slack allowed below zero in positive-semidefinite spectra
TOL_STAT = 1e-9   # statistical identities built from products of traces
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
    for i, M in enumerate(items):
        require_same_dim(M.shape[0], items[0].shape[0], f"{name}[{i}]")
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


def is_real(x) -> bool:
    """The rule for a real outcome or tolerance: ints and floats, not bools."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_int(n) -> bool:
    """The rule for a count or a dim: Python or numpy ints, not bools."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def require_dim(d: int, field: str) -> int:
    """d, if an int in 1..MAX_DIM: for sizes that no input array backs."""
    if not (is_int(d) and 1 <= d <= MAX_DIM):
        raise ValidationError(f"dim {d}, expected 1..{MAX_DIM}",
                              invariant="dim-range", field=field)
    return d


def require_same_dim(d: int, expected: int, field: str) -> None:
    """Raise ``matching-dims`` at ``field`` unless its dim d is the dim
    ``expected`` of the operands it meets: the one operand-pair rule."""
    if d != expected:
        raise ValidationError(f"dim {d}, expected {expected}",
                              invariant="matching-dims", field=field)


def require_tolerance(tol: float, field: str, *, finite: bool = False) -> float:
    """tol, if a real number >= 0: the one tolerance rule, read where each
    tolerance enters, since a negative or NaN bound blames every input.  Inf
    turns a check off; ``finite`` refuses it, as JSON cannot write it."""
    if not (is_real(tol) and tol >= 0 and (tol < np.inf or not finite)):
        raise ValidationError("must be a finite number >= 0" if finite
                              else "must be a number >= 0",
                              invariant="tolerance-range", field=field)
    return tol


def require_margin(residual, bound, detail, *, invariant, field=None,
                   error=ValidationError) -> None:
    """The one margin rule: raise ``error`` unless residual <= bound, entrywise,
    so a NaN fails, even against an infinite bound.  For arrays that
    broadcast, the record is the first failing entry's, in row-major order,
    at index k: ``invariant``, ``detail`` and ``field`` are each a value or
    a tuple read at the entry's rule k[-1], and detail or field may be a
    callable of k."""
    holds = residual <= bound  # one comparison; a scalar's is not reduced
    if holds.all() if isinstance(holds, np.ndarray) else holds:
        return
    residual, bound = np.broadcast_arrays(residual, bound)
    k = np.unravel_index(np.argmin(residual <= bound), residual.shape)

    def at(x):  # x, read at the failing entry
        return x(*k) if callable(x) else x[k[-1]] if isinstance(x, tuple) else x

    raise error(at(detail), invariant=at(invariant), field=at(field),
                violation=float(residual[k]), bound=float(bound[k]))


def require_psd(w: np.ndarray, tol_psd: float, field: str) -> None:
    """Raise ``psd`` at ``field`` unless ascending eigenvalues w start at or
    above -tol_psd; NaN eigenvalues fail."""
    require_margin(-w[0], tol_psd, "eigenvalue below 0", invariant="psd",
                   field=field)


def max_abs(M: np.ndarray) -> float:
    """Entrywise infinity norm, used for all relative tolerances."""
    return float(np.abs(M).max())


def entry_norms(M: np.ndarray) -> np.ndarray:
    """``max_abs`` of one matrix, or of each matrix in a stack."""
    return np.abs(M).max(axis=(-2, -1))


def scale(magnitude):
    """max(1, magnitude), entrywise: the one floor of every relative bound,
    ``tol * scale(magnitude)``; a NaN magnitude stays NaN, so its bound fails."""
    return np.maximum(1.0, magnitude)


def scale_of(M: np.ndarray):
    """The scale of ||M|| per matrix."""
    return scale(entry_norms(M))


def pair_scale(M: np.ndarray, N: np.ndarray):
    """The scale of ||M[i]|| ||N[j]|| per pair: a product's bound."""
    return scale(np.multiply.outer(entry_norms(M), entry_norms(N)))


def commutator(A, B) -> np.ndarray:
    """AB - BA."""
    A, B = as_matrix(A, name="A"), as_matrix(B, name="B")
    require_same_dim(B.shape[0], A.shape[0], "B")
    return A @ B - B @ A


def hermiticity_defect(M: np.ndarray):
    return entry_norms(M - M.conj().swapaxes(-1, -2))


def require_hermitian(M, tol: float = TOL_LIN, *, name: str = "matrix") -> np.ndarray:
    """M's Hermitian part, if M is Hermitian within ``tol`` of its scale."""
    require_tolerance(tol, "tol")
    M = as_matrix(M, name=name)
    require_margin(hermiticity_defect(M), tol * scale_of(M), "not Hermitian",
                   invariant="hermitian", field=name)
    return _hermitian_part(M)


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """M/2 + M*/2, of a matrix or a stack: it cannot overflow, where
    (M + M*)/2 does for entries above ~9e307, and halving a normal entry is
    exact, so elsewhere the bits are those of (M + M*)/2."""
    half = M * 0.5
    half += half.conj().swapaxes(-1, -2)
    return half


def hermitian_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each in an (n, d, d)
    stack, from one triangle: within M's Hermiticity defect of its part's."""
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - d<=64 converges
        raise ConvergenceFailureError(str(exc)) from exc


def _eigh(M: np.ndarray):
    """(w, V): ``eigh`` of a Hermitian M (or a stack), unchecked."""
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailureError(str(exc)) from exc


def default_cluster_tol(M: np.ndarray, cluster_tol: float | None = None) -> float:
    """The eigenvalue clustering width for M: ``cluster_tol``, if given and a
    tolerance, else 1e-8 of M's scale; every clustering and its bound read it."""
    return (1e-8 * scale_of(M) if cluster_tol is None
            else require_tolerance(cluster_tol, "cluster_tol"))


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
    return ws, _hermitian_part(P)


def psd_sqrt(M, tol_psd: float = TOL_PSD, tol: float = TOL_LIN) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [-tol_psd, 0) are treated as rounding noise and clipped
    to zero; anything lower is a ``psd`` error.
    """
    require_tolerance(tol_psd, "tol_psd")
    w, V = _eigh(require_hermitian(M, tol))
    require_psd(w, tol_psd, "matrix")
    return _root(w, V)


def _root(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The Hermitian square root of V diag(w) V* (or a stack), w clipped at 0."""
    Vh = V.conj().swapaxes(-1, -2)
    return _hermitian_part((V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ Vh)


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
