"""Geometry of symmetric positive-definite (SPD) matrices.

The matrix functions are spectral transforms through the symmetric
eigendecomposition. :func:`check_spd` decides positive definiteness by
``eigvalsh``; the means, the geodesic and the OAS estimate decide it by
one batched Cholesky (:func:`_cholesky`). Matrices are plain ``float64``
ndarrays; every function accepts stacks of matrices in the leading
dimensions, empty ones included, and broadcasts over them. A refusal
names the first bad matrix of a stack, over its flattened leading axes,
as ``"{name} {i}"``, and a lone matrix as ``name``.
"""

import numbers
import numpy as np
from dataclasses import dataclass

from .exceptions import InvalidInput, NumericalFailure

__all__ = [
    "SolverConfig", "check_spd", "logm", "expm", "sqrtm", "invsqrtm", "powm",
    "airm_distance", "geodesic",
]

# Relative tolerance for the symmetry test of SPD inputs.
SYMMETRY_RTOL = 1e-10

# Entries per eigh call of the distance kernel, bounding its memory.
KERNEL_BLOCK = 1 << 21


def _is_integer(value):
    """Whether a config value is an integer; a bool is not one."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool))


def _is_real(value):
    """Whether a parameter is a real number; a bool is not one (numpy's
    bool is no ``numbers.Real``)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverConfig:
    """Convergence budget shared by all iterative solvers.

    Parameters
    ----------
    tolerance : float, default 1e-7
        Threshold on a solver's residual, which each mean documents;
        finite and positive.
    max_iterations : int, default 150
        Hard cap on update steps before :class:`ConvergenceFailure`; a
        positive integer, not a bool.

    Raises :class:`InvalidInput` on any other value.
    """

    tolerance: float = 1e-7
    max_iterations: int = 150

    def __post_init__(self):
        if not (_is_real(self.tolerance) and 0 < self.tolerance < np.inf):
            raise InvalidInput("tolerance must be positive and finite")
        if not (_is_integer(self.max_iterations)
                and self.max_iterations >= 1):
            raise InvalidInput("max_iterations must be a positive integer")


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    return _check_finite(a, name)


def _as_matrix(a, name, d=None):
    """:func:`_as_square` of one matrix, not a stack, ``(d, d)`` if given."""
    a = _as_square(a, name)
    if a.ndim != 2 or d not in (None, len(a)):
        want = "be one matrix" if d is None else f"have shape {(d, d)}"
        raise InvalidInput(f"{name} must {want}, got {a.shape}")
    return a


def _check_finite(a, name):
    """``a``, one matrix or a stack, when all its entries are finite;
    else :class:`InvalidInput` naming the first that is not."""
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1)).ravel()
        where = name if a.ndim == 2 else f"{name} {np.argmin(finite)}"
        raise InvalidInput(f"{where} contains non-finite entries")
    return a


def _check_symmetric(a, name):
    """``a``, one matrix or a stack, when each matrix is symmetric as
    :func:`check_spd` requires; else :class:`InvalidInput` naming the
    first that is not."""
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
    (see :func:`_not_pd`). Nothing is repaired or clamped.
    """
    a = _as_square(a, name)
    bad = _first_not_spd(a, name)
    if bad is not None:
        raise InvalidInput(bad[1])
    return a


def _first_not_spd(a, name):
    """Index and message of the first matrix of a square stack that is
    not SPD, as :func:`check_spd` names it, or ``None`` when all are;
    one ``eigvalsh`` call covers the stack."""
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
    definite (smallest eigenvalue {x:.3e})"``.

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
    if require_pd and w[..., 0].min(initial=np.inf) <= 0.0:
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


def _pair_shape(a, b):
    """The broadcast shape of two square arguments ``a`` and ``b``."""
    if a.shape[-1] != b.shape[-1]:
        raise InvalidInput(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise InvalidInput(f"stacks a {a.shape} and b {b.shape} do not "
                           "broadcast") from None


def airm_distance(a, b):
    """Affine-invariant distance ``|| log(a^{-1/2} b a^{-1/2}) ||_F``
    between SPD matrices (see :func:`_sq_distances`).

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
    a = _as_matrix(a, "a")
    b = _as_square(b, "b")
    _pair_shape(a, b)
    d = np.sqrt(_sq_distances(_spectral(a, _inv_sqrt, "a")[None], b, "b"))
    return float(d[0, 0]) if b.ndim == 2 else d.reshape(b.shape[:-2])


def _sq_distances(whiteners, covs, noun="trial"):
    """Squared affine-invariant distances, shape ``(n, K)``, from the
    ``n`` trials of ``covs`` (one ``(d, d)`` matrix or a stack, flattened
    over its leading axes) to the ``K`` means whose whiteners
    ``M^{-1/2}`` are stacked: summed squared log-eigenvalues of the
    symmetric ``M^{-1/2} C M^{-1/2}`` (never of the non-symmetric
    ``M^{-1} C``), from one batched ``eigh`` per
    ``KERNEL_BLOCK`` whitened entries. A trial that is not positive
    definite is refused as ``noun`` (see :func:`_not_pd`)."""
    flat = covs.reshape((-1,) + covs.shape[-2:])
    step = max(1, KERNEL_BLOCK // whiteners.size)
    lam = np.concatenate([
        _eigh_stack(whiteners @ flat[i:i + step, None] @ whiteners)[0]
        for i in range(0, max(len(flat), 1), step)])
    if lam[..., 0].min(initial=np.inf) <= 0.0:
        raise _not_pd(lam[..., 0].min(axis=1).reshape(covs.shape[:-2]), noun)
    return np.sum(np.log(lam) ** 2, axis=-1)


def geodesic(a, b, t):
    """Point at parameter ``t`` on the geodesic from ``a`` to ``b``.

    ``L (L^{-1} b L^{-T})^t L^T`` for the Cholesky factor ``a = L L^T``,
    with ``t`` in [0, 1]; ``t = 0`` returns ``a`` exactly and ``t = 1``
    returns ``b``. For ``t`` strictly inside, an endpoint that is not
    positive definite is refused as ``a`` or ``b`` (see :func:`_not_pd`).
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    shape = _pair_shape(a, b)
    if not (_is_real(t) and 0.0 <= t <= 1.0):
        raise InvalidInput(f"geodesic parameter must lie in [0, 1], got {t}")
    if t == 0.0 or t == 1.0:
        return np.broadcast_to(b if t == 1.0 else a, shape).copy()
    chol = _cholesky(a, "a")
    li = np.linalg.inv(chol)
    inner = _spectral(li @ b @ np.swapaxes(li, -1, -2),
                      lambda w: np.power(w, t), "b")
    return _sym(chol @ inner @ np.swapaxes(chol, -1, -2))
