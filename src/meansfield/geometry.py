"""Geometry of symmetric positive-definite (SPD) matrices.

The matrix functions are spectral transforms through the symmetric
eigendecomposition. :func:`check_spd` decides positive definiteness by
``eigvalsh``; the means and the OAS estimate decide it by one batched
Cholesky (:func:`_cholesky`). Matrices are plain ``float64`` ndarrays;
every function accepts stacks of matrices in the leading dimensions and
broadcasts over them. The distance is the affine-invariant one, computed
from the eigenvalues of the symmetric similarity ``A^{-1/2} B A^{-1/2}``
(never from the non-symmetric ``A^{-1} B``).
"""

import numbers
import numpy as np
from dataclasses import dataclass

from .exceptions import InvalidInput, NumericalFailure

__all__ = [
    "SolverConfig", "check_spd",
    "logm", "expm", "sqrtm", "invsqrtm", "powm",
    "airm_distance", "geodesic", "frobenius",
]

# Relative tolerance for the symmetry test of SPD inputs.
SYMMETRY_RTOL = 1e-10

# Entries per eigh call of the distance kernel, bounding its memory.
KERNEL_BLOCK = 1 << 21


@dataclass(frozen=True)
class SolverConfig:
    """Convergence budget shared by all iterative solvers.

    Parameters
    ----------
    tolerance : float, default 1e-7
        Convergence threshold on a solver's residual, which each mean
        documents: a relative error estimate for a power mean, a
        stationarity norm for the geometric mean.
    max_iterations : int, default 150
        Hard cap on update steps before :class:`ConvergenceFailure`.
    """

    tolerance: float = 1e-7
    max_iterations: int = 150

    def __post_init__(self):
        if not self.tolerance > 0:
            raise InvalidInput("tolerance must be positive")
        if not (isinstance(self.max_iterations, numbers.Integral)
                and self.max_iterations >= 1):
            raise InvalidInput("max_iterations must be a positive integer")


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    return _check_finite(a, name)


def _check_finite(a, name):
    """``a``, one matrix or a stack, when all its entries are finite;
    else :class:`InvalidInput` naming the first matrix with a non-finite
    entry as ``"{name} {i}"`` (``name`` alone for one matrix)."""
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1)).ravel()
        where = name if a.ndim == 2 else f"{name} {np.argmin(finite)}"
        raise InvalidInput(f"{where} contains non-finite entries")
    return a


def _check_symmetric(a, name):
    """``a``, one matrix or a stack, when each matrix is symmetric as
    :func:`check_spd` requires; else :class:`InvalidInput` naming the
    first that is not as :func:`_check_finite` names its matrix."""
    symmetric = _symmetric_each(a)
    if not symmetric.all():
        where = name if a.ndim == 2 else f"{name} {np.argmin(symmetric)}"
        raise InvalidInput(f"{where} is not symmetric")
    return a


def _symmetric_each(a):
    # the largest magnitude, without a stack-sized temporary
    scale = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))
    # a - a^T holds x and exactly -x for each pair, so its max is its
    # largest magnitude, found without another temporary
    gap = (a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
    return gap <= SYMMETRY_RTOL * scale


def _sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def frobenius(a):
    """Frobenius norm over the trailing two axes."""
    a = np.asarray(a, dtype=np.float64)
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


def check_spd(a, name="matrix"):
    """Validate a symmetric positive-definite matrix or stack of them.

    Returns the input as a ``float64`` array; raises
    :class:`InvalidInput` when a matrix is not symmetric within
    ``SYMMETRY_RTOL`` of its own largest entry or its smallest
    eigenvalue is not strictly positive, naming the first such matrix
    of a stack as ``"{name} {i}"`` (see :func:`_not_pd`). Nothing is
    repaired or clamped.
    """
    a = _as_square(a, name)
    bad = _first_not_spd(a, name)
    if bad is not None:
        raise InvalidInput(bad[1])
    return a


def _first_not_spd(a, name):
    """Index, over the flattened leading axes, and message of the first
    matrix of a square stack that is not SPD, named as in
    :func:`check_spd`, or ``None`` when all are; one ``eigvalsh`` call
    covers the stack."""
    stack = a.reshape((-1,) + a.shape[-2:])
    symmetric = _symmetric_each(stack)
    low = np.linalg.eigvalsh(stack)[:, 0]
    bad = np.flatnonzero(~symmetric | (low <= 0.0))
    if bad.size == 0:
        return None
    i = int(bad[0])
    if symmetric[i]:
        return i, str(_not_pd(low.reshape(a.shape[:-2]), name))
    where = name if a.ndim == 2 else f"{name} {i}"
    return i, f"{where} is not symmetric"


def _not_pd(low, noun):
    """The one refusal of a matrix that is not positive definite, as an
    :class:`InvalidInput` to raise: ``"{noun} {i} is not positive
    definite (smallest eigenvalue {x:.3e})"``, ``noun`` alone for one
    matrix.

    ``low`` holds the smallest eigenvalue of each matrix, shaped like the
    input's leading axes, as the caller's own decomposition found it.
    ``i`` is the first matrix, over the flattened axes, with a value at
    most 0; where none is (a Cholesky refusal that ``eigvalsh`` puts
    above 0 within rounding), the one with the smallest value. A caller
    that decomposes ``W C W^T`` for a positive-definite ``W`` passes that
    product's values: by Sylvester's law of inertia it is positive
    definite exactly when ``C`` is, but its smallest eigenvalue differs.
    """
    flat = np.ravel(low)
    i = int(np.argmax(flat <= 0.0) if flat.min() <= 0.0 else np.argmin(flat))
    where = noun if np.ndim(low) == 0 else f"{noun} {i}"
    return InvalidInput(f"{where} is not positive definite "
                        f"(smallest eigenvalue {flat[i]:.3e})")


def _cholesky(a, noun):
    """Lower Cholesky factors of ``a``, one matrix or a stack, by one
    call; where one has none, ``eigvalsh`` names it (see :func:`_not_pd`)."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(a)[..., 0]
    raise _not_pd(low, noun)


def _eigh_stack(s):
    """Ascending eigh over a (possibly stacked) symmetric array."""
    try:
        return np.linalg.eigh(_sym(s))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def _spectral(s, fn, noun="matrix", require_pd=True):
    """Apply a scalar function to the spectrum: ``V diag(fn(w)) V^T``;
    where ``require_pd``, a matrix that is not positive definite is
    refused as ``noun`` (see :func:`_not_pd`)."""
    s = _as_square(s, noun)
    w, v = _eigh_stack(s)
    if require_pd and np.min(w) <= 0.0:
        raise _not_pd(w[..., 0], noun)
    fw = fn(w)
    return _sym((v * fw[..., None, :]) @ np.swapaxes(v, -1, -2))


def logm(s):
    """Matrix logarithm of an SPD matrix (stack-aware)."""
    return _spectral(s, np.log)


def expm(s):
    """Matrix exponential of a symmetric matrix (stack-aware)."""
    return _spectral(s, np.exp, require_pd=False)


def sqrtm(s):
    """Principal square root of an SPD matrix."""
    return _spectral(s, np.sqrt)


def _inv_sqrt(w):
    return 1.0 / np.sqrt(w)


def invsqrtm(s):
    """Inverse principal square root of an SPD matrix."""
    return _spectral(s, _inv_sqrt)


def powm(s, t):
    """Fractional power ``s**t`` of an SPD matrix."""
    return _spectral(s, lambda w: np.power(w, t))


def _check_same_dim(a, b):
    if a.shape[-1] != b.shape[-1]:
        raise InvalidInput(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )


def airm_distance(a, b):
    """Affine-invariant distance between SPD matrices.

    ``d(a, b) = || log(a^{-1/2} b a^{-1/2}) ||_F``, i.e. the root sum
    of squared log-eigenvalues of the whitened matrix.

    Parameters
    ----------
    a : ndarray, shape (n, n)
        SPD reference matrix.
    b : ndarray, shape (..., n, n)
        SPD matrix or stack of SPD matrices.

    Returns
    -------
    float or ndarray
        Distance per matrix in ``b``.
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    _check_same_dim(a, b)
    d = np.sqrt(_sq_distances(_spectral(a, _inv_sqrt, "a")[None], b, "b"))
    return float(d[0, 0]) if b.ndim == 2 else d.reshape(b.shape[:-2])


def _sq_distances(whiteners, covs, noun="trial"):
    """Squared affine-invariant distances, shape ``(n, K)``, from the
    ``n`` trials of ``covs`` (one ``(d, d)`` matrix or a stack, flattened
    over its leading axes) to the ``K`` means whose whiteners
    ``M^{-1/2}`` are stacked: summed squared log-eigenvalues of
    ``M^{-1/2} C M^{-1/2}``, from one batched ``eigh`` per
    ``KERNEL_BLOCK`` whitened entries. A trial that is not positive
    definite is refused as ``noun`` (see :func:`_not_pd`)."""
    flat = covs.reshape((-1,) + covs.shape[-2:])
    step = max(1, KERNEL_BLOCK // whiteners.size)
    lam = np.concatenate([
        _eigh_stack(whiteners @ flat[i:i + step, None] @ whiteners)[0]
        for i in range(0, len(flat), step)])
    if np.min(lam) <= 0.0:
        raise _not_pd(lam[..., 0].min(axis=1).reshape(covs.shape[:-2]), noun)
    return np.sum(np.log(lam) ** 2, axis=-1)


def geodesic(a, b, t):
    """Point at parameter ``t`` on the geodesic from ``a`` to ``b``.

    ``a^{1/2} (a^{-1/2} b a^{-1/2})^t a^{1/2}`` with ``t`` in [0, 1];
    ``t = 0`` returns ``a`` exactly and ``t = 1`` returns ``b``. For
    ``t`` strictly inside, an endpoint that is not positive definite is
    refused as ``a`` or ``b`` (see :func:`_not_pd`).
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    _check_same_dim(a, b)
    if not 0.0 <= t <= 1.0:
        raise InvalidInput(f"geodesic parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return a.copy()
    if t == 1.0:
        return np.broadcast_to(b, np.broadcast_shapes(a.shape, b.shape)).copy()
    w, v = _eigh_stack(a)
    if np.min(w) <= 0.0:
        raise _not_pd(w[..., 0], "a")
    vt = np.swapaxes(v, -1, -2)
    r = (v * (1.0 / np.sqrt(w))[..., None, :]) @ vt
    rh = (v * np.sqrt(w)[..., None, :]) @ vt
    return _sym(rh @ _spectral(r @ b @ r, lambda w: np.power(w, t), "b") @ rh)
