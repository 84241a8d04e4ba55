"""Means of SPD matrix sets: arithmetic, harmonic, geometric, and the
one-parameter power-mean family, plus the per-class mean field.

Every mean weighs the trials of its set equally. The power mean with
exponent ``h`` in (0, 1] is the unique fixed point of
``P -> (1/n) sum_i (P #_h C_i)`` where ``#_h`` is the geodesic, with
the duality ``P_{-h}(C) = P_h(C^{-1})^{-1}`` for negative exponents;
``h = 0`` denotes the geometric mean. :func:`_mpm` solves every ``h``
in (-1, 1); ``h = 1`` and ``h = -1`` are the closed-form arithmetic and
harmonic means. A mean field collects the means over a grid of
exponents per class (:func:`build_mean_field`).

The iterative means support sets whose trials are of condition number
up to ``1e10`` (``1e9`` above ``d = 32``), alone and whitened by the
mean (``docs/determinism.md``). They raise :class:`ConvergenceFailure`
when the budget runs out, the step length stalls or an iterate loses
positive definiteness; the message says which.
"""

import math
import numpy as np
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from .exceptions import ConvergenceFailure, InvalidInput
from .geometry import (
    SolverConfig, _as_matrix, _check_finite, _check_symmetric, _cholesky,
    _eigh_stack, _not_pd, _sym, frobenius,
)

__all__ = [
    "DEFAULT_H_GRID", "MeanResult", "RpmeResult", "MeanFieldEntry",
    "MeanField", "arithmetic_mean", "harmonic_mean", "power_mean",
    "geometric_mean", "rpme_clean", "build_mean_field",
]

# Exponent grid of the default mean field: eleven values, symmetric
# around the geometric mean at 0, denser near 0 where the family
# changes fastest.
DEFAULT_H_GRID = (-1.0, -0.75, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0)

# Robust mean estimation drops trials whose standardized distance to
# the running geometric mean exceeds this, for at most this many rounds.
RPME_Z_THRESHOLD = 2.5
RPME_MAX_ROUNDS = 4

# Smallest nonzero |h| a power mean takes: the smallest normal float.
# Below it ``h log(l)`` is subnormal, keeps few significant bits, and
# the iteration cannot reach its tolerance.
_MIN_ABS_H = np.finfo(float).tiny

# Solved means through which a field solve's start is interpolated:
# enough for the smooth field, few enough that dense grids stay clear of
# Runge oscillation.
_START_NODES = 8


class MeanResult(NamedTuple):
    """A solved mean with its solver diagnostics."""

    matrix: np.ndarray
    iterations: int
    residual: float


class _FinalStep(MeanResult):
    """A :class:`MeanResult` that also carries the last step of
    :func:`_mpm`: ``x`` with ``x^T x = matrix^{-1}`` up to rounding, and
    per trial the eigenvectors ``u`` and log-eigenvalues ``loglam`` of
    ``x C_i x^T``. A row of ``loglam`` is the log-spectrum of
    ``matrix^{-1/2} C_i matrix^{-1/2}``, so :attr:`sq_distances` are the
    kernel's squared distances of the trials to the mean, to rounding,
    which the field solver, robust cleaning and TS+LR read."""

    @property
    def sq_distances(self):
        return np.sum(self.loglam ** 2, axis=1)


class RpmeResult(NamedTuple):
    """Outcome of robust mean estimation: survivors and their mean."""

    kept_indices: np.ndarray
    mean: np.ndarray
    rounds: int


@dataclass(frozen=True)
class MeanFieldEntry:
    """One mean of the field: exponent, matrix, solver diagnostics."""

    h: float
    matrix: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class MeanField:
    """Per class, the means over the exponent grid, ascending in ``h``.

    ``kept`` maps each class to the trial indices that survived robust
    cleaning (all indices when cleaning was disabled): the trials the
    means were solved on. ``sq_distances`` holds, per class, the
    :class:`_FinalStep` distances of those trials, shape ``(kept,
    h_grid)``, ``nan`` for the closed-form ``h = +-1`` means. ``classes``
    is the sorted tuple of class labels.
    """

    h_grid: tuple
    entries: dict
    kept: dict = field(default_factory=dict)
    sq_distances: dict = field(default_factory=dict, repr=False,
                               compare=False)
    classes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(sorted(self.entries)))

    def matrices(self, label):
        """Stack of the means of one class, ``h`` ascending."""
        return np.stack([e.matrix for e in self.entries[label]])


def _check_set(mats):
    """The one check of a trial stack: the set as a float stack of
    finite, symmetric trials, else a refusal naming its first bad trial
    as ``"trial {i}"``."""
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[-1] != mats.shape[-2]:
        raise InvalidInput(
            f"trial set must be a stack of square matrices, got shape "
            f"{mats.shape}")
    if mats.shape[0] == 0:
        raise InvalidInput("trial set is empty")
    return _check_symmetric(_check_finite(mats, "trial"), "trial")


def _labelled_set(trials, labels, trial_ndim=2):
    """The labelled-trials contract of every fit: ``trials`` a stack of
    ``n`` trials of ``trial_ndim`` axes each (a ``(d, d)`` matrix, or a
    feature row for ``trial_ndim=1``), exactly one label per trial and
    at least two classes; :class:`InvalidInput` otherwise. Returns the
    trials as a float array and a dict from each class, ascending, to
    the ascending indices of its trials."""
    trials = np.asarray(trials, dtype=np.float64)
    labels = np.asarray(labels)
    if trials.ndim != trial_ndim + 1 or labels.shape != trials.shape[:1]:
        raise InvalidInput(
            f"need one label per trial of an (n{', d' * trial_ndim}) "
            f"stack, got trials of shape {trials.shape} and labels of "
            f"shape {labels.shape}")
    classes, codes = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise InvalidInput(
            f"training needs at least 2 classes, got {len(classes)}")
    return trials, {c: np.flatnonzero(codes == j)
                    for j, c in enumerate(classes)}


def _average(stack):
    """``(1/n) sum_i`` over the ``n`` matrices of a stack, the one
    uniform average of every mean. A weighted ``einsum``: ``sum`` adds
    in another order at ``d = 1`` and on strided stacks."""
    n = stack.shape[0]
    return np.einsum("i,ijk->jk", np.full(n, 1.0 / n), stack)


def _check_init(init, d):
    """A warm start as a float matrix: square of the set's dimension,
    finite and symmetric; its positive definiteness is left to the
    solver's first factorization."""
    return _check_symmetric(_as_matrix(init, "init", d), "init")


def arithmetic_mean(mats):
    """Arithmetic mean ``(1/n) sum_i C_i`` (exact, no iteration)."""
    return _average(_check_set(mats))


def harmonic_mean(mats):
    """Harmonic mean ``((1/n) sum_i C_i^{-1})^{-1}`` (exact, no
    iteration; see :func:`_harmonic`).

    Raises
    ------
    InvalidInput
        When the set is malformed or a trial is not finite, symmetric
        and positive definite; the message names the first such trial.
    """
    return _harmonic(_check_set(mats), "harmonic mean")


def _harmonic(mats, name):
    """:func:`harmonic_mean` of a checked set. With ``C_i = L_i L_i^T``,
    ``(1/n) sum_i C_i^{-1} = R^T R`` for the triangular factor ``R`` of
    the QR of the stacked ``sqrt(1/n) L_i^{-1}``, so the mean is
    ``R^{-1} R^{-T}``, inverted through triangular factors alone: no
    ``eigh`` runs."""
    li = np.linalg.inv(_cholesky(mats, f"{name}: trial"))
    stacked = np.sqrt(1.0 / mats.shape[0]) * li
    ri = np.linalg.inv(np.linalg.qr(stacked.reshape(-1, mats.shape[-1]),
                                    mode="r"))
    return _sym(ri @ ri.T)


def _newton_step(m, u, loglam, h):
    """Eigenvalues and eigenvectors of the inexact Newton step ``G``
    with ``J[G] = F`` at the field ``M`` of :func:`_mpm`, where
    ``F = log(I + h M)/h`` is the plain MPM step. Correcting ``F`` rather
    than ``M`` keeps the plain step exact on a lone trial; a correction
    of ``M`` stepped uphill from starts far from the mean. At ``h = 0``,
    ``F = M`` is taken as it is, in the standard basis, so that ``M``
    needs no eigendecomposition; otherwise the step is built in the
    eigenbasis ``V`` of ``M``, where ``F = diag(f)``. ``J[D]`` is minus
    the derivative of ``F`` along the step ``X <- exp(-D/2) X``. With
    the whitened trials' eigenvectors ``u`` and log-eigenvalues
    ``loglam``, ``M`` moves by
    ``-(1/n) sum_i U_i (K_i o (U_i^T D U_i)) U_i^T``, where ``K_i[a, b]``
    is the divided difference of ``f_h`` at a pair of eigenvalues ``g``
    apart in log times their mean (``theta(g/2)`` at ``h = 0``), and
    ``F`` by ``V (E o (V^T dM V)) V^T``, where ``E`` holds the divided
    differences of ``log`` at the eigenvalues of ``I + h M`` (1 at
    ``h = 0``). Both factors are written in the gaps, so that wide
    spectra do not overflow.

    So in the basis ``V``, ``J = E o S`` with ``S[T] = (1/n) sum_i B_i^T
    (K_i o B_i T B_i^T) B_i``, ``B_i = U_i^T V``, symmetric positive
    definite because ``K_i`` is positive. Conjugate gradients on
    ``S[G] = F / E``, preconditioned by ``E o``, converge however spread
    the set is (Absil, Baker & Gallivan, Found. Comput. Math. 2007), at
    four batched products an iteration. CG starts at ``G = 0`` and stops
    when ``Z = F - J[G]``, the preconditioned residual, is at most
    ``1e-3`` of ``F`` in Frobenius norm, the forcing term of an inexact
    Newton step (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
    1982), or after 30 iterations. It returns ``G + Z`` at no extra cost.
    """
    la, lb = loglam[:, :, None], loglam[:, None, :]
    g = np.maximum(np.abs(la - lb), 1e-9)
    k = 0.5 * (1.0 + np.exp(-g)) / -np.expm1(-g)
    ut = np.swapaxes(u, -1, -2)
    if h == 0:  # F = M in the standard basis: no V, and E = 1
        k *= g
        e, b, rhs = 1.0, ut, m
    else:
        w, v = _eigh_stack(m)
        f = np.log1p(h * w) / h
        k *= np.exp(h * np.maximum(la, lb)) * -np.expm1(-h * g) / h
        r, s = h * f[:, None], h * f[None, :]
        gap = np.maximum(np.abs(r - s), 1e-9)
        e = np.exp(-np.maximum(r, s)) * gap / -np.expm1(-gap)
        b, rhs = ut @ v, np.diag(f)  # V in each trial's eigenbasis
    bt = np.swapaxes(b, -1, -2)
    step, res, p = 0.0, rhs / e, rhs
    rz = np.vdot(res, p)
    stop = 1e-3 * float(frobenius(rhs))
    for _ in range(30):
        q = _average(bt @ (k * (b @ p @ bt)) @ b)
        alpha = rz / np.vdot(p, q)
        step = step + alpha * p
        res = res - alpha * q
        z = e * res
        if frobenius(z) <= stop:
            break
        rz, rz_old = np.vdot(res, z), rz
        p = z + (rz / rz_old) * p
    lam, q = _eigh_stack(step + z)
    return lam, (q if h == 0 else v @ q)


def _mpm(mats, h, init, config):
    """MPM factor iteration (Congedo, Barachant & Kharati Koopaei, IEEE
    TSP 2017) for the power mean with exponent ``h`` in (-1, 1), where
    ``h = 0`` is the geometric mean.

    Iterates on ``X^T X = P^{-1}`` from ``X = L^{-1}``, where
    ``init = L L^T`` is the Cholesky factorization: only ``X^T X``
    matters, so the start takes no eigendecomposition. One batched
    eigendecomposition of ``X C_i X^T`` per step gives
    ``M = (1/n) sum_i f_h(X C_i X^T)``, with ``f_h(l) = (l^h - 1)/h`` and
    ``f_0 = log``, which vanishes at the mean. The update is
    ``X <- exp(-nu G/2) X`` along the inexact Newton step ``G`` of
    :func:`_newton_step`. A cold solve takes one to three steps on a
    concentrated set and two to eight on sets of condition up to
    ``1e10``. ``nu`` starts at 1 and halves whenever the residual, a
    scaled ``||M||_F``, fails to decrease; below ``1e-12`` the solve
    stops as stalled.

    The loop tests the residual before it updates ``X``, so its last
    decomposition belongs to the returned mean; the result is a
    :class:`_FinalStep` that hands it on.
    """
    d = mats.shape[-1]
    tol = config.tolerance
    if h == 0:
        name, scale, bound = "geometric mean", 1.0, tol * d
    else:
        name, scale, bound = f"power mean (h={h})", np.sqrt(d), tol
    x = np.linalg.inv(_cholesky(init, f"{name}: init"))
    nu, prev = 1.0, np.inf
    for it in range(config.max_iterations + 1):
        lam, u = _eigh_stack(x @ mats @ x.T)
        if np.min(lam) <= 0.0:
            if it == 0:  # X is invertible, so a trial is not PD
                raise _not_pd(lam[:, 0], f"{name}: trial")
            break
        loglam = np.log(lam)
        f = loglam if h == 0 else np.expm1(h * loglam) / h
        m = _average((u * f[:, None, :]) @ np.swapaxes(u, -1, -2))
        residual = float(frobenius(m)) / scale
        if residual <= bound or it == config.max_iterations:
            break
        if residual >= prev:
            nu *= 0.5
            if nu < 1e-12:
                break
        prev = residual
        g, v = _newton_step(m, u, loglam, h)
        x = (v * np.exp(-nu * g / 2.0)) @ v.T @ x
    if it == 0:
        p = np.array(init, dtype=np.float64)
    else:
        xi = np.linalg.inv(x)
        p = _sym(xi @ xi.T)
    if np.min(lam) <= 0.0:
        raise ConvergenceFailure(
            f"{name} iterate lost positive definiteness",
            last_iterate=p, residual=np.inf, iterations=it,
        )
    if residual > bound:
        why = (f"did not converge in {it} iterations"
               if it == config.max_iterations else
               f"step length stalled after {it} iterations")
        raise ConvergenceFailure(
            f"{name} {why} (residual {residual:.3e})",
            last_iterate=p, residual=residual, iterations=it,
        )
    res = _FinalStep(p, it, residual)
    res.x, res.loglam, res.u = x, loglam, u
    return res


def power_mean(mats, h, init=None, config=None):
    """Power mean of an SPD set for an exponent ``h`` with
    ``tiny <= |h| <= 1``, where ``tiny = np.finfo(float).tiny`` (about
    2.2e-308) is the smallest normal float.

    Parameters
    ----------
    mats : ndarray, shape (n, d, d)
        SPD matrices, weighted equally.
    h : float
        Exponent; ``1`` and ``-1`` return the closed-form arithmetic
        and harmonic means without iteration.
    init : ndarray, shape (d, d), optional
        Warm start. Defaults to the arithmetic mean for ``h > 0`` and
        the harmonic mean for ``h < 0``.
    config : SolverConfig, optional

    Returns
    -------
    MeanResult
        Solved matrix, update steps used, and the final residual
        ``||M||_F / sqrt(d)`` of the MPM field (see :func:`_mpm`); to
        first order, the relative Frobenius error of the returned mean.

    Raises
    ------
    InvalidInput
        When ``|h|`` is above 1 or below ``tiny``, ``init`` is not a
        finite symmetric ``(d, d)`` matrix, a trial is not finite,
        symmetric and positive definite (at every ``h``, the closed
        forms included; the message names the first such trial), or the
        iteration's start is not (``init is not positive definite``);
        the closed forms ignore a well-formed ``init``.
    ConvergenceFailure
        When the solve fails, as the module docstring says.
    """
    mats = _check_set(mats)
    if not (_MIN_ABS_H <= abs(h) <= 1.0):
        raise InvalidInput(
            f"power-mean exponent must satisfy {_MIN_ABS_H:.4g} <= |h| <= 1, "
            f"got {h}"
        )
    if init is not None:
        init = _check_init(init, mats.shape[-1])
    config = config or SolverConfig()
    name = f"power mean (h={h})"
    if h == 1.0:
        _cholesky(mats, f"{name}: trial")
        return MeanResult(_average(mats), 0, 0.0)
    if h == -1.0:
        return MeanResult(_harmonic(mats, name), 0, 0.0)
    if init is None:
        init = _average(mats) if h > 0 else _harmonic(mats, name)
    return _mpm(mats, h, init, config)


def geometric_mean(mats, init=None, config=None):
    """Geometric (Karcher) mean of an SPD set: the ``h = 0`` member of
    the MPM iteration (see :func:`_mpm`), started at ``init``, which
    defaults to the arithmetic mean.

    Returns
    -------
    MeanResult
        The residual is the stationarity norm
        ``||(1/n) sum_i log(G^{-1/2} C_i G^{-1/2})||_F`` at the returned
        matrix, at most ``tolerance * d``; a mean found before any step
        is a copy of ``init``.

    Raises
    ------
    InvalidInput
        When ``init`` or a trial is not a finite symmetric ``(d, d)``
        matrix, or is not positive definite.
    ConvergenceFailure
        When the solve fails, as the module docstring says.
    """
    mats = _check_set(mats)
    config = config or SolverConfig()
    init = (_average(mats) if init is None
            else _check_init(init, mats.shape[-1]))
    return _mpm(mats, 0.0, init, config)


def rpme_clean(mats, config=None):
    """Iteratively drop outlying trials before mean estimation.

    Each round computes the geometric mean of the surviving trials,
    standardizes their distances to it (sample standard deviation) and
    removes every trial with a z-score above ``RPME_Z_THRESHOLD``.
    Rounds stop when nothing is removed or ``RPME_MAX_ROUNDS`` mean
    computations have been spent. Sets of fewer than 3 trials are
    returned unmodified (z-scores are undefined).

    Returns
    -------
    RpmeResult
        ``kept_indices`` into the input stack, the geometric mean
        computed in the final round (the mean of the survivors
        whenever iteration stopped because nothing was removed), and
        the number of rounds used.
    """
    mats = _check_set(mats)
    config = config or SolverConfig()
    n = mats.shape[0]
    kept = np.arange(n)
    if n < 3:
        mean = geometric_mean(mats, config=config).matrix
        return RpmeResult(kept, mean, 0)
    rounds = 0
    mean = None
    while rounds < RPME_MAX_ROUNDS:
        solved = geometric_mean(mats[kept], config=config)
        mean = solved.matrix
        rounds += 1
        dist = np.sqrt(solved.sq_distances)
        spread = float(np.std(dist, ddof=1))
        if spread == 0.0:
            break
        z = (dist - dist.mean()) / spread
        # the z**2 sum to n - 1, so fewer than (n - 1) / 2.5**2 trials
        # are outliers: at least 2 of the n >= 3 survive
        outliers = z > RPME_Z_THRESHOLD
        if not outliers.any():
            break
        kept = kept[~outliers]
    return RpmeResult(kept, mean, rounds)


def _field_start(h, solved):
    """Start of the field solve at ``h``: the Lagrange interpolant in
    ``h`` through the (at most) ``_START_NODES`` nearest means already
    solved, or the nearest of them where the interpolant is not positive
    definite; ``None``, the solver's default init, while none is."""
    if not solved:
        return None
    nodes = sorted(solved, key=lambda g: (abs(g - h), g))[:_START_NODES]
    weights = [math.prod((h - b) / (a - b) for b in nodes if b != a)
               for a in nodes]
    start = np.einsum("j,jkl->kl", weights,
                      np.stack([solved[g].matrix for g in nodes]))
    try:
        np.linalg.cholesky(start)
    except np.linalg.LinAlgError:
        return solved[nodes[0]].matrix
    return start


def build_mean_field(trials_per_class, h_grid=DEFAULT_H_GRID, config=None,
                     robust=False):
    """Solve the full mean field: one mean per grid exponent per class,
    in the order and from the starts of :func:`_solve_field`.

    Parameters
    ----------
    trials_per_class : mapping
        Class label -> stack of SPD matrices, at least 2 per class.
    h_grid : sequence of float
        Distinct exponents, each 0 or one that :func:`power_mean`
        takes, checked before any solve starts; ``DEFAULT_H_GRID`` by
        default.
    config : SolverConfig, optional
    robust : bool, default False
        When true, every mean of a class is solved on the trials that
        one :func:`rpme_clean` of the class keeps.

    Returns
    -------
    MeanField

    Raises
    ------
    InvalidInput
        On a bad grid, no class, a class of fewer than 2 trials, or a
        trial that is not finite and symmetric (``class c: trial i ...``,
        before any solve) or not positive definite (``class c: <solver>:
        trial i ...``, by the class's first), ``i`` its index in the class.
    ConvergenceFailure
        When a solve fails, as ``class c: <solver> ...``.
    """
    grid = tuple(sorted(float(h) for h in h_grid))
    if len(grid) == 0:
        raise InvalidInput("h_grid is empty")
    if len(set(grid)) != len(grid):
        raise InvalidInput("h_grid contains duplicate exponents")
    if not all(h == 0.0 or _MIN_ABS_H <= abs(h) <= 1.0 for h in grid):
        raise InvalidInput(
            f"h_grid exponents must be 0 or satisfy "
            f"{_MIN_ABS_H:.4g} <= |h| <= 1")
    if not trials_per_class:
        raise InvalidInput("no classes given")
    return _solve_field(trials_per_class, grid, config, robust)


def _solve_field(trials_per_class, grid, config, robust):
    """The field of :func:`build_mean_field` on an ascending, checked
    ``grid``; ``h = 0`` is solved by :func:`geometric_mean`.

    Per class the exponents are solved in the order ``|h|`` descending,
    the positive one first on ties: on the default grid ``1, -1, 0.75,
    -0.75, ..., 0.1, -0.1, 0``. The first solve starts at the solver's
    default init, every later one at :func:`_field_start`. An entry
    whose start already meets the tolerance reports 0 iterations.
    """
    config = config or SolverConfig()
    entries, kept_map, sq_map = {}, {}, {}
    for label in sorted(trials_per_class):
        with _in_class(label):
            mats = _check_set(trials_per_class[label])
            if mats.shape[0] < 2:
                raise InvalidInput("trial set needs at least 2 trials")
            kept = np.arange(mats.shape[0])
            if robust:
                kept = rpme_clean(mats, config=config).kept_indices
                mats = mats[kept]
            solved = {}
            sq = np.full((len(mats), len(grid)), np.nan)
            for h in sorted(grid, key=lambda g: (-abs(g), -g)):
                init = _field_start(h, solved)
                if h == 0.0:
                    res = geometric_mean(mats, init=init, config=config)
                else:
                    res = power_mean(mats, h, init=init, config=config)
                if isinstance(res, _FinalStep):
                    sq[:, grid.index(h)] = res.sq_distances
                res.matrix.flags.writeable = False  # the solver's own array
                solved[h] = MeanFieldEntry(h, res.matrix, res.iterations,
                                           res.residual)
        kept_map[label] = kept
        entries[label] = tuple(solved[h] for h in grid)
        sq.flags.writeable = False
        sq_map[label] = sq
    return MeanField(grid, entries, kept_map, sq_map)


@contextmanager
def _in_class(label):
    """Re-raise a refusal or solver failure of one class's set with the
    class named, as ``"class {label}: {message}"``, the one place that
    names a class; the message indexes the trials within the class."""
    try:
        yield
    except InvalidInput as exc:
        raise InvalidInput(f"class {label}: {exc}") from exc
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(
            f"class {label}: {exc}", last_iterate=exc.last_iterate,
            residual=exc.residual, iterations=exc.iterations) from exc
