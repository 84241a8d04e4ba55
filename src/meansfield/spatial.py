"""Dimensionality-reducing spatial filters for covariance trials.

Every filter ranks the rows of one joint diagonalizer: :func:`csp_gevd`
keeps the rows of :func:`pham_ajd` of two SPD class means whose variance
is most unequal between the classes. :func:`csp_fit` and the adaptive
two-stage filter :func:`adcsp_fit` are made of it.

The fits raise :class:`InvalidInput` unless their training set is an
``(n, d, d)`` stack with one label per trial and exactly two classes,
and name a training trial that is not finite and symmetric, before any
mean, by its class and its index within it: ``class c: trial i ...``.
"""

import itertools
import numpy as np
from dataclasses import dataclass

from .exceptions import InvalidInput
from .geometry import (
    _as_matrix, _check_finite, _eigh_stack, _is_integer, check_spd,
)
from .means import (
    _check_set, _in_class, _labelled_set, arithmetic_mean, geometric_mean,
)

__all__ = [
    "SpatialFilter", "csp_gevd", "csp_fit", "pham_ajd", "adcsp_fit",
    "apply_filter",
]

# Dimension caps of the two-stage adaptive filter and the row budget of
# the plain two-class baseline.
STAGE1_DIM = 28
STAGE2_DIM = 10
CSP_FILTERS_PER_CLASS = 4

# Variance ratios are quantized at this granularity before ranking so
# that exact ties resolve by index, not by rounding noise.
_TIE_RESOLUTION = 1e-10


@dataclass(frozen=True)
class SpatialFilter:
    """A linear spatial filter: the ``k x d`` rows ``W`` of ``matrix``,
    ``k <= d``, finite and linearly independent, applied as ``W C W^T``."""

    matrix: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] > w.shape[1]:
            raise InvalidInput(
                f"filter matrix must be k x d with k <= d, got {w.shape}")
        if np.linalg.matrix_rank(_check_finite(w, "filter matrix")) != len(w):
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
    """Apply a spatial filter to an SPD matrix or stack, ``W C W^T``,
    each output checked by one :func:`check_spd` call."""
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
    and the low side (ratio < 0.5, ascending), high side first; exact
    ties (see ``_TIE_RESOLUTION``) resolve by ascending index."""
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


def pham_ajd(mats):
    """Exact joint diagonalizer ``B`` of a ``(2, d, d)`` stack of SPD
    matrices ``A``, ``C`` (Pham's criterion 0, its minimum), its rows
    ordered by descending ``b A b^T``; :class:`InvalidInput` unless
    given exactly two SPD matrices.

    With ``L L^T = A + C`` (Cholesky) and ``L^{-1} A L^{-T} = U diag(lambda)
    U^T``, one symmetric eigendecomposition, ``B = U^T L^{-1}`` gives
    ``B (A + C) B^T = I`` and ``B A B^T = diag(lambda)``: each
    ``lambda`` in (0, 1) is the share of a row's variance that ``A``
    holds.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[0] != 2:
        raise InvalidInput(f"joint diagonalization needs exactly 2 "
                           f"matrices, got shape {mats.shape}")
    a, c = check_spd(mats, "ajd input")
    chol = np.linalg.cholesky(a + c)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, a).T)
    u = _eigh_stack(reduced)[1]
    return np.linalg.solve(chol.T, u)[:, ::-1].T


def csp_gevd(mean_a, mean_b, n_filters):
    """Two-class spatial filter (Ramoser, Mueller-Gerking & Pfurtscheller,
    2000): the ``n_filters`` rows ``b`` of :func:`pham_ajd` of ``A =
    mean_a`` and ``B = mean_b`` whose variance share ``b A b^T / (b A b^T
    + b B b^T)`` lies farthest from 0.5, ordered as
    :func:`_alternate_extremes` orders them.

    Parameters
    ----------
    mean_a, mean_b : ndarray, shape (d, d)
        SPD class means.
    n_filters : int
        Even number of rows to retain, at most ``d``.
    """
    mean_a = _as_matrix(mean_a, "mean_a")
    mean_b = _as_matrix(mean_b, "mean_b")
    if mean_a.shape != mean_b.shape:
        raise InvalidInput("class means must share their dimension")
    if not _is_integer(n_filters) or n_filters < 1 or n_filters % 2:
        raise InvalidInput("n_filters must be a positive even integer")
    d = mean_a.shape[0]
    if n_filters > d:
        raise InvalidInput(f"cannot retain {n_filters} filters in dimension {d}")
    b = pham_ajd(np.stack([mean_a, mean_b]))
    diag_a, diag_b = (np.diag(b @ m @ b.T) for m in (mean_a, mean_b))
    rows = _alternate_extremes(diag_a / (diag_a + diag_b), n_filters)
    return SpatialFilter(b[rows])


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
    """Plain two-class filter: :func:`csp_gevd` of the arithmetic class
    means, ``2 * CSP_FILTERS_PER_CLASS`` rows."""
    means = _per_class(arithmetic_mean, _two_classes(trial_covs, labels))
    return csp_gevd(*means, 2 * CSP_FILTERS_PER_CLASS)


def adcsp_fit(trial_covs, labels):
    """Two-stage adaptive spatial filter for two-class covariance sets.

    Stage 1 (entered iff the dimension is >= 28): :func:`csp_gevd` of
    the arithmetic class means, 28 rows. Stage 2 (entered iff the
    current dimension is >= 10): :func:`csp_gevd` of the geometric class
    means of the stage-1-filtered trials on the default
    :class:`SolverConfig` budget, 10 rows, composed with stage 1. Inputs
    of dimension < 10 pass through an identity filter.

    Returns
    -------
    SpatialFilter
        With ``output_dim = min(input_dim, 10)``.

    Raises
    ------
    InvalidInput
        As the module docstring says, at every ``d``; or when a trial
        entering stage 2, filtered or not, is not positive definite,
        decided once by the first factorization of its class's
        geometric-mean solve (``init`` where the class's arithmetic mean
        is not either), as ``class c: geometric mean: trial i is not
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
    return SpatialFilter(csp_gevd(*geo, STAGE2_DIM).matrix @ w)
