"""Dimensionality-reducing spatial filters for covariance trials.

Two building blocks: two-class filters from the generalized
eigendecomposition of the class means (:func:`csp_gevd`), and
approximate joint diagonalization of a matrix set (:func:`pham_ajd`).
The adaptive two-stage filter :func:`adcsp_fit` chains them.
"""

import itertools
import numpy as np
from dataclasses import dataclass

from .exceptions import ConvergenceFailure, InvalidInput
from .geometry import SolverConfig, _eigh_stack, check_spd
from .means import (
    _check_set, _in_class, _labelled_set, arithmetic_mean, geometric_mean,
)

__all__ = [
    "SpatialFilter", "csp_gevd", "csp_fit", "pham_ajd", "adcsp_fit",
    "apply_filter",
    "STAGE1_DIM", "STAGE2_DIM", "CSP_FILTERS_PER_CLASS",
]

# Dimension caps of the two-stage adaptive filter and the row budget of
# the plain two-class baseline.
STAGE1_DIM = 28
STAGE2_DIM = 10
CSP_FILTERS_PER_CLASS = 4

# Scores and eigenvalues are quantized at this granularity before
# ranking so that exact ties resolve by index, not by rounding noise.
_TIE_RESOLUTION = 1e-10


@dataclass(frozen=True)
class SpatialFilter:
    """A linear spatial filter: the ``k x d`` rows ``W`` of ``matrix``,
    ``k <= d`` and linearly independent, applied as ``W C W^T``."""

    matrix: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] > w.shape[1]:
            raise InvalidInput(
                f"filter matrix must be k x d with k <= d, got {w.shape}")
        if np.linalg.matrix_rank(w) != w.shape[0]:
            raise InvalidInput("filter rows are linearly dependent")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "matrix", w)

    @property
    def input_dim(self):
        return self.matrix.shape[1]

    @property
    def output_dim(self):
        return self.matrix.shape[0]


def apply_filter(f, cov):
    """Apply a spatial filter to an SPD matrix or stack: ``W C W^T``.

    Every output matrix is validated positive definite, a stack by one
    :func:`check_spd` call.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape[-1] != f.input_dim:
        raise InvalidInput(
            f"filter expects dimension {f.input_dim}, got {cov.shape[-1]}"
        )
    return check_spd(f.matrix @ cov @ f.matrix.T, name="filtered matrix")


def _quantize(x):
    return np.round(np.asarray(x, dtype=np.float64) / _TIE_RESOLUTION)


def _alternate_extremes(ratios, k):
    """Pick ``k`` indices by extremeness of ``|ratio - 0.5|`` and order
    them alternating between the high side (ratio >= 0.5, descending)
    and the low side (ratio < 0.5, ascending), high side first.

    Exact ties (at 1e-10 granularity) resolve by ascending index, so a
    fully non-discriminative input falls back to index order.
    """
    qr = _quantize(ratios)
    qhalf = _quantize(np.array(0.5))[()]
    score = np.abs(qr - qhalf)
    order = np.lexsort((np.arange(len(qr)), -score))
    chosen = np.sort(order[:k])
    high = [i for i in chosen if qr[i] >= qhalf]
    low = [i for i in chosen if qr[i] < qhalf]
    high.sort(key=lambda i: (-qr[i], i))
    low.sort(key=lambda i: (qr[i], i))
    pairs = itertools.zip_longest(high, low)
    return [i for pair in pairs for i in pair if i is not None]


def csp_gevd(mean_a, mean_b, n_filters):
    """Two-class spatial filter from a generalized eigendecomposition.

    Solves ``mean_a v = lambda (mean_a + mean_b) v`` by the Cholesky
    factor ``L`` of ``mean_a + mean_b``: one symmetric eigendecomposition
    of ``L^{-1} mean_a L^{-T}``, back-substituted. The eigenvalues
    lie in (0, 1) and measure how much of the composite variance each
    direction assigns to the first class. The ``n_filters`` most
    discriminative eigenvectors (largest ``|lambda - 0.5|``) become the
    filter rows, ordered alternating between the large- and
    small-eigenvalue extremes; rows carry the whitening normalization
    ``v^T (mean_a + mean_b) v = 1``.

    Parameters
    ----------
    mean_a, mean_b : ndarray, shape (d, d)
        SPD class means.
    n_filters : int
        Even number of rows to retain, at most ``d``.
    """
    mean_a = check_spd(mean_a, "mean_a")
    mean_b = check_spd(mean_b, "mean_b")
    if mean_a.shape != mean_b.shape:
        raise InvalidInput("class means must share their dimension")
    d = mean_a.shape[0]
    if n_filters > d:
        raise InvalidInput(f"cannot retain {n_filters} filters in dimension {d}")
    if n_filters < 1 or n_filters % 2 != 0:
        raise InvalidInput("n_filters must be a positive even integer")
    # Cholesky reduction to a standard problem: with L L^T = mean_a +
    # mean_b and L^{-1} mean_a L^{-T} = U diag(lam) U^T (ascending),
    # the columns of V = L^{-T} U satisfy V^T (mean_a + mean_b) V = I
    chol = np.linalg.cholesky(mean_a + mean_b)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, mean_a).T)
    lam, u = _eigh_stack(reduced)
    v = np.linalg.solve(chol.T, u)
    lam, v = lam[::-1], v[:, ::-1]
    rows = _alternate_extremes(lam, n_filters)
    return SpatialFilter(v[:, rows].T)


def _two_classes(trial_covs, labels):
    """Each of exactly two classes, ascending, to the stack of its trials."""
    covs, members = _labelled_set(trial_covs, labels)
    if len(members) != 2:
        raise InvalidInput(f"spatial filter fitting supports exactly 2 "
                           f"classes, got {len(members)}")
    return {c: covs[i] for c, i in members.items()}


def _per_class(fn, sets):
    """``fn`` of each class set, refusals naming the class."""
    out = []
    for c, s in sets.items():
        with _in_class(c):
            out.append(fn(s))
    return out


def csp_fit(trial_covs, labels):
    """Plain two-class filter: arithmetic class means, one
    eigendecomposition, ``2 * CSP_FILTERS_PER_CLASS`` rows.

    Raises :class:`InvalidInput` unless ``trial_covs`` is an ``(n, d,
    d)`` stack with one label per trial and exactly two classes, or
    naming a trial that is not finite and symmetric, before any mean,
    as ``class c: trial i ...``, ``i`` its index within the class.
    """
    means = _per_class(arithmetic_mean, _two_classes(trial_covs, labels))
    return csp_gevd(*means, 2 * CSP_FILTERS_PER_CLASS)


def _round_robin(d):
    """The ``(i, j)`` index arrays, ``i > j``, of each round of a sweep:
    the circle method on ``m`` slots (slot ``d`` a dummy if ``d`` is
    odd), where round ``r`` pairs slot ``m - 1`` with ``r`` and ``r + k``
    with ``r - k`` modulo ``m - 1``; each pair is in exactly one round."""
    m = d + d % 2
    r = np.arange(m - 1)[:, None]
    k = np.arange(1, m // 2)
    p = np.hstack([np.full_like(r, m - 1), (r + k) % (m - 1)])
    q = np.hstack([r, (r - k) % (m - 1)])
    i, j = np.maximum(p, q), np.minimum(p, q)
    return [(a[a < d], b[a < d]) for a, b in zip(i, j)]


def _pham_round(c, b, i, j, weights):
    """Pham's 2x2 step on the disjoint pairs ``(i[k], j[k])`` at once;
    returns the transformed ``c`` and ``b`` and the summed decrement."""
    c_ii, c_jj, c_ij = c[:, i, i], c[:, j, j], c[:, i, j]
    g_ij, g_ji, w_ij, w_ji = weights @ np.stack(
        [c_ij / c_ii, c_ij / c_jj, c_jj / c_ii, c_ii / c_jj])
    w_tilde = np.sqrt(w_ji / w_ij)
    w_prod = np.sqrt(w_ij * w_ji)
    t1 = (w_tilde * g_ij + g_ji) / (w_prod + 1.0)
    t2 = (w_tilde * g_ij - g_ji) / np.maximum(w_prod - 1.0, 1e-12)
    h12 = t1 + t2
    h21 = (t1 - t2) / w_tilde
    tmp = 1.0 + np.sqrt(np.maximum(1.0 - h12 * h21, 0.0))
    t = np.eye(len(b))
    t[i, j], t[j, i] = -h12 / tmp, -h21 / tmp
    return t @ c @ t.T, t @ b, float(np.sum(g_ij * h12 + g_ji * h21) / 2)


def pham_ajd(mats):
    """Approximate joint diagonalization of SPD matrices, weighted
    equally.

    Minimizes Pham's criterion, the mean over ``i`` of ``log det
    diag(B C_i B^T) - log det (B C_i B^T)``, by sweeps of pairwise
    (2x2) invertible transformations; no pair step can increase the
    criterion, and iteration stops when a sweep's decrement falls to
    the default :class:`SolverConfig` tolerance (1e-7), within its
    budget of 150 sweeps. A sweep visits each index pair once, in the round-robin
    order of parallel Jacobi methods: d - 1 rounds (d if d is odd) of
    disjoint pairs. A pair step reads only its pair's entries of each
    ``C_i``, which the round's other steps leave alone, and steps on
    disjoint pairs commute, so a round applies its pairs as one
    transform and equals applying them one by one in any order.

    Parameters
    ----------
    mats : ndarray, shape (n, d, d)
        At least two SPD matrices.

    Returns
    -------
    b : ndarray, shape (d, d)
        Invertible demixing matrix; ``b @ C_i @ b.T`` is as diagonal
        as the set allows.

    Raises
    ------
    InvalidInput
        When fewer than two matrices are given or one is not SPD.
    ConvergenceFailure
        When 150 sweeps pass without one that decreases the criterion
        by at most ``1e-7``. The stop is absolute, and on sets of more
        than two matrices that share no exact joint diagonalizer the
        decrement falls only linearly: five sample covariances of 56
        samples at d = 28 still decrease it by 1e-6 in their 150th
        sweep. Two matrices are diagonalized exactly, within a few
        sweeps.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[0] < 2:
        raise InvalidInput("joint diagonalization needs at least 2 matrices")
    check_spd(mats, "ajd input")
    config = SolverConfig()
    n, d, _ = mats.shape
    weights = np.full(n, 1.0 / n)

    c, b = mats, np.eye(d)
    rounds = _round_robin(d)
    for _ in range(config.max_iterations):
        decrement = 0.0
        for i, j in rounds:
            c, b, step = _pham_round(c, b, i, j, weights)
            decrement += step
        if abs(decrement) <= config.tolerance:
            return b
    raise ConvergenceFailure(
        f"joint diagonalization did not converge in "
        f"{config.max_iterations} sweeps (last decrement {decrement:.3e})",
        last_iterate=b, residual=decrement, iterations=config.max_iterations,
    )


def adcsp_fit(trial_covs, labels):
    """Two-stage adaptive spatial filter for two-class covariance sets.

    Stage 1 (entered iff the dimension is >= 28): arithmetic class
    means, eigendecomposition-based filter to 28 rows. Stage 2
    (entered iff the current dimension is >= 10): geometric class
    means of the stage-1-filtered trials on the default
    :class:`SolverConfig` budget, joint diagonalization of the
    two means, and the 10 most discriminative rows (scored like the
    eigendecomposition stage on the diagonalized means), composed with
    stage 1. Inputs of dimension < 10 pass through an identity filter.

    Returns
    -------
    SpatialFilter
        With ``output_dim = min(input_dim, 10)``.

    Raises
    ------
    InvalidInput
        Unless ``trial_covs`` is an ``(n, d, d)`` stack with one label
        per trial and exactly two classes; at every ``d``, when a trial
        is not finite and symmetric; or when a trial entering stage 2,
        filtered or not, is not positive definite, decided once by the
        first factorization of its class's geometric-mean solve (``init``
        where the class's arithmetic mean is not either). A trial is
        named by its class and its index within it: ``class c: trial i
        is not symmetric``, ``class c: geometric mean: trial i is not
        positive definite (...)``.
    """
    sets = _two_classes(trial_covs, labels)
    d = next(iter(sets.values())).shape[-1]
    if d < STAGE2_DIM:
        _per_class(_check_set, sets)
        return SpatialFilter(np.eye(d))

    w = np.eye(d)
    if d >= STAGE1_DIM:
        w = csp_gevd(*_per_class(arithmetic_mean, sets), STAGE1_DIM).matrix
        sets = {c: w @ s @ w.T for c, s in sets.items()}
    geo = _per_class(lambda s: geometric_mean(s).matrix, sets)
    b = pham_ajd(np.stack(geo))
    diag_a, diag_b = (np.diag(b @ g @ b.T) for g in geo)
    ratios = diag_a / (diag_a + diag_b)
    rows = _alternate_extremes(ratios, STAGE2_DIM)
    return SpatialFilter(b[rows, :] @ w)
