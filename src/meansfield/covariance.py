"""Per-trial covariance estimation with oracle-approximating shrinkage
toward the scaled identity, which keeps the estimate of a short,
rank-deficient recording positive definite."""

import math
import warnings

import numpy as np

from .exceptions import DegenerateInput, InvalidInput
from .geometry import _check_finite, _check_symmetric, _cholesky

__all__ = ["oas_covariance"]


def _check_trials(data):
    data = np.asarray(data, dtype=np.float64)
    if data.ndim not in (2, 3):
        raise InvalidInput(
            "trial data must be (channels, samples) or a stack of such "
            f"trials, got shape {data.shape}"
        )
    if data.ndim == 3 and data.shape[0] == 0:
        raise InvalidInput("trial stack is empty")
    _check_finite(data, "trial")
    channels, samples = data.shape[-2:]
    if channels < 1 or samples < 2:
        raise InvalidInput("trial needs at least 1 channel and 2 samples")
    if samples < channels:
        warnings.warn(
            f"trial has fewer samples ({samples}) than channels "
            f"({channels}); the covariance estimate will lean heavily "
            "on shrinkage",
            stacklevel=3,
        )
    return data


def _oas_shrinkage(s, n_samples):
    """Closed-form shrinkage intensity
    ``rho = [(1 - 2/p) tr(S^2) + tr(S)^2]
            / [(n + 1 - 2/p) (tr(S^2) - tr(S)^2 / p)]``
    clamped to [0, 1], with ``p`` the matrix dimension and ``n`` the
    number of samples behind ``S``. A vanishing denominator (``S``
    exactly proportional to the identity) yields 1, the full shrink.
    For ``p >= 2``, ``rho >= 1/(n + 1)`` (Chen, Wiesel, Eldar & Hero,
    IEEE TSP 2010), so the estimate is positive definite. NaN where the
    denominator overflows float64, so that the estimate is not finite.
    """
    p = s.shape[0]
    tr_s = np.trace(s)
    tr_s2 = np.sum(s * s)
    num = (1.0 - 2.0 / p) * tr_s2 + tr_s**2
    den = (n_samples + 1.0 - 2.0 / p) * (tr_s2 - tr_s**2 / p)
    if not math.isfinite(den):  # the ratio is unknown, not 0
        return math.nan
    if den <= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, num / den)))


def oas_covariance(data):
    """Shrunk covariance of one multichannel trial or a stack of them.

    Parameters
    ----------
    data : ndarray, shape (channels, samples) or (n, channels, samples)
        One trial or a stack of trials; rows are channels. Channels are
        mean-centered per trial and the sample covariance uses the
        1/samples normalization.

    Returns
    -------
    cov : ndarray, shape (channels, channels) or (n, channels, channels)
        ``(1 - rho) S + rho (tr(S)/p) I`` per trial, with ``rho`` the
        closed-form OAS intensity of its sample covariance ``S``.

    Raises
    ------
    DegenerateInput
        When every channel of a trial is constant (zero total
        variance); for a stack, the message names the trial's index.
    InvalidInput
        When a trial's covariance, or the denominator of its shrinkage
        intensity, overflows float64, as ``shrunk covariance i contains
        non-finite entries``.
    """
    data = _check_trials(data)
    trials = data if data.ndim == 3 else data[None]
    count, p, n = trials.shape
    covs = np.empty((count, p, p))
    # an estimate that overflows is refused as non-finite below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, trial in enumerate(trials):
            centered = trial - trial.mean(axis=1, keepdims=True)
            s = (centered @ centered.T) / n
            mu = float(np.trace(s)) / p
            if mu <= 0.0:
                where = f"trial {i}: all" if data.ndim == 3 else "all"
                raise DegenerateInput(
                    f"{where} channels are constant; covariance is zero")
            rho = _oas_shrinkage(s, n)
            covs[i] = (1.0 - rho) * s
            covs[i][np.diag_indices(p)] += rho * mu
    covs = covs if data.ndim == 3 else covs[0]
    for check in (_check_finite, _check_symmetric, _cholesky):
        check(covs, "shrunk covariance")
    return covs
