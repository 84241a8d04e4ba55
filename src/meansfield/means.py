"""Means of SPD matrix sets: arithmetic, harmonic, geometric, and the
one-parameter power-mean family, plus the per-class mean field.

Every mean weighs the trials of its set equally. The power mean with
exponent ``h`` in (0, 1] is the unique fixed point of
``P -> (1/n) sum_i (P #_h C_i)`` where ``#_h`` is the geodesic, with
the duality ``P_{-h}(C) = P_h(C^{-1})^{-1}`` for negative exponents;
``h = 0`` denotes the geometric mean. One MPM factor loop solves every
``h`` in (-1, 1); on concentrated sets, where each step is an inexact
Newton step, a cold solve takes one to three steps.
``h = 1`` and ``h = -1`` are the closed-form arithmetic and harmonic
means.

A mean field collects the means over a grid of exponents per class;
one solver builds every field, the one-exponent field of MDM included.
``P_h`` is smooth in ``h``, so each solve starts at the polynomial in
``h`` through the nearest means of the class already solved.
"""

import math
import numpy as np
from dataclasses import dataclass, field
from typing import NamedTuple

from .exceptions import ConvergenceFailure, InvalidInput
from .geometry import (
    SolverConfig, _as_square, _eigh_stack, _first_not_spd, _sym, frobenius,
    is_symmetric,
)

__all__ = [
    "DEFAULT_H_GRID", "RPME_Z_THRESHOLD", "RPME_MAX_ROUNDS", "MeanResult",
    "RpmeResult", "MeanFieldEntry", "MeanField", "arithmetic_mean",
    "harmonic_mean", "power_mean", "geometric_mean", "rpme_clean",
    "build_mean_field",
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
    squared distances of the trials to the mean. Only the library reads
    these attributes: the field solver, robust cleaning and TS+LR."""

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
    means were solved on, whose distances to the means ``mf_fit`` reads
    from the solver instead of recomputing. ``classes`` is the sorted
    tuple of class labels.
    """

    h_grid: tuple
    entries: dict
    kept: dict = field(default_factory=dict)
    classes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(sorted(self.entries)))

    def matrices(self, label):
        """Stack of the means of one class, ``h`` ascending."""
        return np.stack([e.matrix for e in self.entries[label]])

    def entry(self, label, h):
        for e in self.entries[label]:
            if e.h == h:
                return e
        raise KeyError(f"no mean with h={h} for class {label}")


@dataclass(frozen=True)
class _SolvedField(MeanField):
    """A :class:`MeanField` that also holds, per class, the squared
    distances of its kept trials to its means, shape ``(kept, h_grid)``,
    read from each solve's last step (see :class:`_FinalStep`); ``nan``
    for the closed-form ``h = +-1`` means, which take no step."""

    sq_distances: dict = field(default_factory=dict, repr=False,
                               compare=False)


def _check_set(mats, name="matrix set"):
    """The set as a float stack and its uniform weights ``1/n``."""
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[-1] != mats.shape[-2]:
        raise InvalidInput(
            f"{name} must be a stack of square matrices, got shape {mats.shape}"
        )
    if mats.shape[0] == 0:
        raise InvalidInput(f"{name} is empty")
    if not np.all(np.isfinite(mats)):
        raise InvalidInput(f"{name} contains non-finite entries")
    n = mats.shape[0]
    return mats, np.full(n, 1.0 / n)


def _check_init(init, d):
    """A warm start as a float matrix: square of the set's dimension,
    finite and symmetric; its positive definiteness is left to the
    solver's first factorization."""
    init = _as_square(init, name="init")
    if init.shape != (d, d):
        raise InvalidInput(f"init must have shape {(d, d)}, got {init.shape}")
    if not is_symmetric(init):
        raise InvalidInput("init is not symmetric")
    return init


def arithmetic_mean(mats):
    """Arithmetic mean ``(1/n) sum_i C_i`` (exact, no iteration)."""
    mats, weights = _check_set(mats)
    return np.einsum("i,ijk->jk", weights, mats)


def harmonic_mean(mats):
    """Harmonic mean ``((1/n) sum_i C_i^{-1})^{-1}``, inverted through
    triangular factors: the trials' Cholesky factors and the QR factor
    of their stacked inverses, so no ``eigh`` runs.

    Raises
    ------
    InvalidInput
        When the set is malformed or a trial is not positive definite;
        the message names the first such trial.
    """
    mats, weights = _check_set(mats)
    return _harmonic(mats, weights, "harmonic mean")


def _trial_factors(mats, name):
    """Lower Cholesky factors of the trials. Where a trial has none,
    :class:`InvalidInput` names the first trial that ``eigvalsh`` finds
    not SPD, or, where the two disagree within rounding, the trial with
    the smallest eigenvalue."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        bad = _first_not_spd(mats) or (
            int(np.argmin(np.linalg.eigvalsh(mats)[:, 0])),
            "is not positive definite")
    raise InvalidInput(f"{name}: trial {bad[0]} {bad[1]}")


def _harmonic(mats, weights, name):
    """:func:`harmonic_mean` of a checked set. With ``C_i = L_i L_i^T``,
    ``sum_i w_i C_i^{-1} = R^T R`` for the triangular factor ``R`` of
    the QR of the stacked ``sqrt(w_i) L_i^{-1}``, so the mean is
    ``R^{-1} R^{-T}``."""
    li = np.linalg.inv(_trial_factors(mats, name))
    stacked = np.sqrt(weights)[:, None, None] * li
    ri = np.linalg.inv(np.linalg.qr(stacked.reshape(-1, mats.shape[-1]),
                                    mode="r"))
    return _sym(ri @ ri.T)


def _newton_step(f, v, u, loglam, h, weights):
    """Eigenvalues of ``G = sum_{j<=k} (I - J)^j F`` and its
    eigenvectors in the basis ``V``. ``G`` is a partial Neumann sum of
    the Newton step ``J^{-1}[F]``: its first term is the plain MPM step
    ``F = V diag(f) V^T = log(I + h M)/h`` (see :func:`_mpm`). At
    ``h = 0``, ``F = M``: then ``f`` is ``M`` itself, ``v`` is unused and
    the sum is built in the standard basis, so that ``M`` needs no
    eigendecomposition. ``J[D]`` is minus the derivative of ``F`` along
    the step ``X <- exp(-D/2) X``. With the whitened trials'
    eigenvectors ``u`` and log-eigenvalues ``loglam``, ``M`` moves by
    ``-sum_i w_i U_i (K_i o (U_i^T D U_i)) U_i^T``, where ``K_i[a, b]``
    is the divided difference of ``f_h`` at a pair of eigenvalues ``g``
    apart in log times their mean (``theta(g/2)`` at ``h = 0``), and
    ``F`` by ``V (E o (V^T dM V)) V^T``, where ``E`` holds the divided
    differences of ``log`` at the eigenvalues of ``I + h M`` (1 at
    ``h = 0``). Both factors are written in the gaps, so that wide
    spectra do not overflow.

    Each term ``T <- T - J[T]`` reuses these factors for four batched
    products. The sum stops at the first term whose Frobenius norm is at
    most ``1e-3`` times that of ``F``, the forcing term of an inexact
    Newton step (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
    1982), or after three terms past ``F``.
    """
    la, lb = loglam[:, :, None], loglam[:, None, :]
    g = np.maximum(np.abs(la - lb), 1e-9)
    k = 0.5 * (1.0 + np.exp(-g)) / -np.expm1(-g)
    ut = np.swapaxes(u, -1, -2)
    if h == 0:  # F = M in the standard basis: no V, and E = 1
        k *= g
        e, b, term = 1.0, ut, f
    else:
        k *= np.exp(h * np.maximum(la, lb)) * -np.expm1(-h * g) / h
        r, s = h * f[:, None], h * f[None, :]
        gap = np.maximum(np.abs(r - s), 1e-9)
        e = np.exp(-np.maximum(r, s)) * gap / -np.expm1(-gap)
        b, term = ut @ v, np.diag(f)  # V in each trial's eigenbasis
    bt = np.swapaxes(b, -1, -2)
    total = term.copy()
    stop = 1e-3 * float(frobenius(term))
    for _ in range(3):
        term = term - e * np.einsum(
            "i,ijk->jk", weights, bt @ (k * (b @ term @ bt)) @ b)
        total += term
        if frobenius(term) <= stop:
            break
    return _eigh_stack(total)


def _mpm(mats, h, weights, init, config):
    """MPM factor iteration (Congedo, Barachant & Kharati Koopaei, IEEE
    TSP 2017) for the power mean with exponent ``h`` in (-1, 1), where
    ``h = 0`` is the geometric mean.

    Iterates on ``X^T X = P^{-1}`` from ``X = L^{-1}``, where
    ``init = L L^T`` is the Cholesky factorization: only ``X^T X``
    matters, so the start takes no eigendecomposition. One batched
    eigendecomposition of ``X C_i X^T`` per step gives each trial's
    log-eigenvalue spread ``s_i`` and ``M = sum_i w_i f_h(X C_i X^T)``,
    with ``f_h(l) = (l^h - 1)/h`` and ``f_0 = log``, which vanishes at
    the mean; one more, of ``M``, gives the plain step
    ``F = log(I + h M)/h`` (``F = M`` at ``h = 0``), and the update is
    ``X <- exp(-nu G/2) X``. With ``G = F`` that is the MPM update
    ``X <- (I + h M)^{-nu/(2h)} X``. A pair of eigenvalues ``s`` apart
    amplifies the update by ``tanh(|h| s/2) / (|h| tanh(s/2))``, whose
    ``h = 0`` limit ``theta(s/2) = (s/2) coth(s/2)`` is the exact
    Hessian factor; ``L_h`` is its weighted mean over the trials.

    The plain unit step contracts by about ``L_0 - 1`` while
    ``L_0 < 2``; there the loop steps along an inexact Newton step
    ``G``, the Neumann sum ``F + (I - J)F + (I - J)^2 F + ...`` cut at a
    forcing term of ``1e-3`` and at most three terms past ``F``
    (:func:`_newton_step`). Each term costs four batched products, and
    the step one more ``d x d`` eigendecomposition, of ``G``, while at
    ``h = 0`` the sum takes ``F = M`` as it is and ``M`` needs none. A
    cold solve on a concentrated set then takes one to three steps.
    Correcting ``F`` rather than ``M`` keeps the plain step exact on a
    lone trial; a correction of ``M`` stepped uphill from starts far
    from the mean.
    Wider sets take ``G = F`` with ``nu = 2/(1 + L_h)``. On both
    branches a halving safeguard catches any increase of the residual,
    a scaled ``||M||_F``.

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
    try:
        x = np.linalg.inv(np.linalg.cholesky(init))
    except np.linalg.LinAlgError:
        raise InvalidInput(f"{name}: init is not positive definite") from None
    damp, prev = 1.0, np.inf
    for it in range(config.max_iterations + 1):
        lam, u = _eigh_stack(x @ mats @ x.T)
        if np.min(lam) <= 0.0:
            if it == 0:  # X is invertible, so a trial is not PD
                bad = int(np.argmin(lam[:, 0]))
                raise InvalidInput(
                    f"{name}: trial {bad} is not positive definite")
            break
        loglam = np.log(lam)
        f = loglam if h == 0 else np.expm1(h * loglam) / h
        m = np.einsum("i,ijk->jk", weights,
                      (u * f[:, None, :]) @ np.swapaxes(u, -1, -2))
        residual = float(frobenius(m)) / scale
        if residual <= bound or it == config.max_iterations:
            break
        if residual >= prev:
            damp *= 0.5
            if damp < 1e-12:
                break
        prev = residual
        half = np.maximum((loglam[:, -1] - loglam[:, 0]) / 2.0, 1e-9)
        l0 = float(weights @ (half / np.tanh(half)))
        if l0 < 2.0:
            nu = damp
            if h == 0:
                g, v = _newton_step(m, None, u, loglam, h, weights)
            else:
                w, v = _eigh_stack(m)
                g, q = _newton_step(np.log1p(h * w) / h, v, u, loglam, h,
                                    weights)
                v = v @ q
        else:
            w, v = _eigh_stack(m)
            g = w if h == 0 else np.log1p(h * w) / h
            lh = l0 if h == 0 else float(weights @ (
                np.tanh(abs(h) * half) / (abs(h) * np.tanh(half))))
            nu = damp * 2.0 / (1.0 + lh)
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
        raise ConvergenceFailure(
            f"{name} did not converge in {config.max_iterations} "
            f"iterations (residual {residual:.3e})",
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
        finite symmetric ``(d, d)`` matrix, a trial is not positive
        definite (at every ``h``, the closed forms included; the message
        names the first such trial), or the iteration's start is not
        (``init is not positive definite``); the closed forms ignore a
        well-formed ``init``.
    ConvergenceFailure
        When the budget runs out or an iterate loses positive
        definiteness.
    """
    mats, weights = _check_set(mats)
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
        _trial_factors(mats, name)
        return MeanResult(arithmetic_mean(mats), 0, 0.0)
    if h == -1.0:
        return MeanResult(_harmonic(mats, weights, name), 0, 0.0)
    if init is None:
        init = (arithmetic_mean(mats) if h > 0
                else _harmonic(mats, weights, name))
    return _mpm(mats, h, weights, init, config)


def geometric_mean(mats, init=None, config=None):
    """Geometric (Karcher) mean of an SPD set: the ``h = 0`` member of
    the MPM iteration (see :func:`_mpm`), started at ``init``, which
    defaults to the arithmetic mean.

    Returns
    -------
    MeanResult
        The residual is the stationarity norm
        ``||sum_i w_i log(G^{-1/2} C_i G^{-1/2})||_F`` at the returned
        matrix, at most ``tolerance * d``; a mean found before any step
        is a copy of ``init``.

    Raises
    ------
    InvalidInput
        When ``init`` is not a finite symmetric ``(d, d)`` matrix, or
        a trial or ``init`` is not positive definite.
    ConvergenceFailure
        When the budget runs out or an iterate loses positive
        definiteness.
    """
    mats, weights = _check_set(mats)
    config = config or SolverConfig()
    if init is None:
        init = arithmetic_mean(mats)
    else:
        init = _check_init(init, mats.shape[-1])
    return _mpm(mats, 0.0, weights, init, config)


def rpme_clean(mats, config=None):
    """Iteratively drop outlying trials before mean estimation.

    Each round computes the geometric mean of the surviving trials,
    standardizes their distances to it (sample standard deviation),
    which the solver's last step yields (see :func:`_mpm`), and
    removes every trial with a z-score above ``RPME_Z_THRESHOLD``
    (2.5). Rounds stop when nothing is removed or ``RPME_MAX_ROUNDS``
    (4) mean computations have been spent; a removal that would leave
    fewer than 2 survivors is skipped and iteration halts. Sets of
    fewer than 3 trials are returned unmodified (z-scores are
    undefined).

    Returns
    -------
    RpmeResult
        ``kept_indices`` into the input stack, the geometric mean
        computed in the final round (the mean of the survivors
        whenever iteration stopped because nothing was removed), and
        the number of rounds used.
    """
    mats, _ = _check_set(mats)
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
        outliers = z > RPME_Z_THRESHOLD
        if not outliers.any():
            break
        if (~outliers).sum() < 2:
            break
        kept = kept[~outliers]
    return RpmeResult(kept, mean, rounds)


def _field_start(h, solved):
    """Start of the field solve at ``h`` (see :func:`build_mean_field`),
    ``None`` for the solver's default init while nothing is solved."""
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
    """Solve the full mean field: one mean per grid exponent per class.

    The exponents are solved in the order ``|h|`` descending, the
    positive one first on ties: on the default grid ``1, -1, 0.75,
    -0.75, ..., 0.1, -0.1, 0``. The first solve of a class starts at the
    solver's default init; every later one at the Lagrange interpolant
    in ``h`` through the (at most) 8 nearest means of that class already
    solved, or at the nearest of them when the interpolant is not
    positive definite. An entry whose start already meets the tolerance
    reports 0 iterations.

    Parameters
    ----------
    trials_per_class : mapping
        Class label -> stack of SPD matrices, at least 2 per class.
    h_grid : sequence of float
        Distinct exponents, each 0 or with ``tiny <= |h| <= 1``, where
        ``tiny = np.finfo(float).tiny`` is the smallest normal float
        (see :func:`power_mean`); checked before any solve starts.
        Default is the eleven-point grid ``DEFAULT_H_GRID``.
    config : SolverConfig, optional
    robust : bool, default False
        When true, each class is cleaned once with :func:`rpme_clean`
        and all means of that class are computed on the surviving
        trials.

    Returns
    -------
    MeanField
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
    ``grid``; ``h = 0`` is solved by :func:`geometric_mean`. Returns a
    :class:`_SolvedField`."""
    config = config or SolverConfig()
    entries = {}
    kept_map = {}
    sq_map = {}
    for label in sorted(trials_per_class):
        mats, _ = _check_set(trials_per_class[label],
                             name=f"class {label} trials")
        if mats.shape[0] < 2:
            raise InvalidInput(f"class {label} needs at least 2 trials")
        kept = np.arange(mats.shape[0])
        if robust:
            cleaned = rpme_clean(mats, config=config)
            kept = cleaned.kept_indices
            mats = mats[kept]
        kept_map[label] = kept

        solved = {}
        sq = np.full((len(mats), len(grid)), np.nan)
        try:
            for h in sorted(grid, key=lambda g: (-abs(g), -g)):
                init = _field_start(h, solved)
                if h == 0.0:
                    res = geometric_mean(mats, init=init, config=config)
                else:
                    res = power_mean(mats, h, init=init, config=config)
                if isinstance(res, _FinalStep):
                    sq[:, grid.index(h)] = res.sq_distances
                solved[h] = MeanResult(*res)  # frees the last step
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"mean field for class {label} failed: {exc}",
                last_iterate=exc.last_iterate, residual=exc.residual,
                iterations=exc.iterations,
            ) from exc

        class_entries = []
        for h in grid:
            res = solved[h]
            matrix = res.matrix.copy()
            matrix.flags.writeable = False
            class_entries.append(
                MeanFieldEntry(h, matrix, res.iterations, res.residual)
            )
        entries[label] = tuple(class_entries)
        sq.flags.writeable = False
        sq_map[label] = sq
    return _SolvedField(h_grid=grid, entries=entries, kept=kept_map,
                        sq_distances=sq_map)
