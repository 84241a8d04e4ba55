"""Paired statistical comparison of pipeline score tables."""

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput

__all__ = [
    "exact_permutation_test", "wilcoxon_signed_rank", "liptak_combine",
    "smd", "SmdResult", "DatasetComparison", "MetaReport", "meta_compare",
]

# Exact-test routing threshold on the number of subjects.
EXACT_TEST_MAX_N = 20

# p-values are clamped away from {0, 1} before the normal quantile.
_P_CLAMP = 1e-15


_SQRT1_2 = math.sqrt(0.5)
_STANDARD_NORMAL = statistics.NormalDist()


def _ndtr(z):
    """Standard normal CDF of a float (absolute error well below 1e-9)."""
    x = z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0.0 else tail


def _ndtri(p):
    """Standard normal quantile of a float (absolute error well below
    1e-9): -inf at 0, +inf at 1, NaN outside [0, 1]."""
    if 0.0 < p < 1.0:
        return _STANDARD_NORMAL.inv_cdf(p)
    if p == 0.0:
        return -math.inf
    return math.inf if p == 1.0 else math.nan


def _tied_ranks(x):
    """Ranks ``1..n`` of the values of ``x`` in ascending order, tied
    values sharing the mean of their ranks; also the size of each tie
    group, in ascending value order."""
    x = np.asarray(x, dtype=np.float64).ravel()
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    sizes = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 0.5 * (sizes + 1), sizes)
    return ranks, sizes


def _check_diffs(diffs):
    d = np.asarray(diffs, dtype=np.float64).ravel()
    if d.size < 2:
        raise InvalidInput("need at least 2 paired differences")
    if not np.all(np.isfinite(d)):
        raise InvalidInput("differences contain non-finite values")
    return d


def exact_permutation_test(diffs):
    """Exact one-sided paired sign-flip test on the mean difference.

    Enumerates all ``2^n`` sign assignments of the differences; the
    p-value is the fraction whose mean is at least the observed mean
    (the observed assignment is included, so ``p >= 2^-n``).

    Requires ``2 <= n < 20``; larger samples raise
    :class:`InvalidInput`.
    """
    d = _check_diffs(diffs)
    n = d.size
    if n >= EXACT_TEST_MAX_N:
        raise InvalidInput(
            f"{n} >= {EXACT_TEST_MAX_N} subjects: use the signed-rank test"
        )
    # A sign assignment's mean is >= the observed mean exactly when the
    # sum over its flipped subset is <= 0; enumerate subset sums.
    sums = np.zeros(1)
    for v in d:
        sums = np.concatenate([sums, sums + v])
    return float(np.count_nonzero(sums <= 0.0) / sums.size)


def wilcoxon_signed_rank(diffs):
    """One-sided signed-rank test via the tie-corrected normal
    approximation with continuity correction.

    Zero differences are dropped first; ranks of tied magnitudes are
    averaged. Small p favors positive differences (second pipeline
    better). Returns p, which is 1 when every difference is zero.
    """
    d = _check_diffs(diffs)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 1.0
    ranks, ties = _tied_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= int(np.sum(ties**3 - ties)) / 48.0  # at least n (n + 1)^2 / 16
    z = (w_plus - 0.5 - mu) / np.sqrt(var)
    return float(1.0 - _ndtr(z))


def liptak_combine(p_values, weights):
    """Weighted inverse-normal combination of one-sided p-values.

    ``T = sum_i w_i Phi^{-1}(1 - p_i) / sqrt(sum_i w_i^2)`` and the
    combined p is ``1 - Phi(T)``. Inputs are clamped to
    ``[1e-15, 1 - 1e-15]`` before the quantile transform. Raises
    :class:`InvalidInput` unless there is one finite, positive weight
    per finite p-value.
    """
    p = np.asarray(p_values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    if p.size == 0:
        raise InvalidInput("no p-values to combine")
    if w.shape != p.shape:
        raise InvalidInput("need one weight per p-value")
    if not np.all(np.isfinite(p)):
        raise InvalidInput("p-values contain non-finite values")
    if not np.all((w > 0) & (w < np.inf)):
        raise InvalidInput("weights must be positive and finite")
    p = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    z = np.array([_ndtri(q) for q in (1.0 - p).tolist()])
    t = float(w @ z / np.sqrt(w @ w))
    return float(1.0 - _ndtr(t))


@dataclass(frozen=True)
class SmdResult:
    """Paired standardized mean difference with its large-sample CI."""

    value: float
    ci_low: float
    ci_high: float
    degenerate: bool


def smd(scores_a, scores_b):
    """Paired standardized mean difference ``mean(b - a) / std(b - a)``.

    Positive values favor the second pipeline. The standard deviation
    uses the n-1 normalization; the 95% CI is ``value +/- 1.96/sqrt(n)``.
    Zero spread of the differences yields value 0 with the degenerate
    flag raised (no finite effect size exists). A non-finite score
    raises :class:`InvalidInput`.
    """
    a = np.asarray(scores_a, dtype=np.float64).ravel()
    b = np.asarray(scores_b, dtype=np.float64).ravel()
    if a.shape != b.shape or a.size < 2:
        raise InvalidInput("need two equal-length score lists, n >= 2")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInput("scores contain non-finite values")
    d = b - a
    spread = float(np.std(d, ddof=1))
    n = d.size
    half = 1.96 / np.sqrt(n)
    if spread == 0.0:
        return SmdResult(0.0, -half, half, True)
    value = float(d.mean() / spread)
    return SmdResult(value, value - half, value + half, False)


@dataclass(frozen=True)
class DatasetComparison:
    """One dataset's row of the meta report."""

    dataset: str
    n_subjects: int
    weight: float
    smd: float
    ci_low: float
    ci_high: float
    p_value: float
    test: str
    degenerate: bool


@dataclass(frozen=True)
class MetaReport:
    """Per-dataset effect rows plus the combined meta-effect."""

    pipeline_a: str
    pipeline_b: str
    datasets: tuple
    combined_smd: float
    combined_p: float


def _subject_means(table):
    """Mean AUC per (dataset, subject), rows with missing AUC excluded."""
    acc = {}
    for row in table.rows:
        key = (row.dataset, row.subject)
        acc.setdefault(key, []).append(row.auc)
    means = {}
    for key, aucs in acc.items():
        valid = [a for a in aucs if a is not None]
        means[key] = float(np.mean(valid)) if valid else None
    return means


def _paired_scores(table_a, table_b):
    """``(dataset, scores_a, scores_b)`` per dataset, datasets and
    subjects in sorted order, paired as :func:`meta_compare` states."""
    cells_a = sorted((r.dataset, r.subject, r.session, r.fold)
                     for r in table_a.rows)
    cells_b = sorted((r.dataset, r.subject, r.session, r.fold)
                     for r in table_b.rows)
    if cells_a != cells_b:
        divergent = next(
            ca for ca, cb in zip(cells_a + [None], cells_b + [None])
            if ca != cb
        )
        raise InvalidInput(
            f"score tables cover different cells; first divergence at "
            f"{divergent}"
        )
    means_a = _subject_means(table_a)
    means_b = _subject_means(table_b)
    by_dataset = {}
    for dataset, subject in sorted(means_a):
        a = means_a[(dataset, subject)]
        b = means_b[(dataset, subject)]
        if a is None or b is None:
            continue
        by_dataset.setdefault(dataset, []).append((a, b))
    paired = []
    for dataset in sorted(by_dataset):
        if len(by_dataset[dataset]) < 2:
            raise InvalidInput("paired comparison needs at least 2 subjects")
        scores_a, scores_b = map(np.array, zip(*by_dataset[dataset]))
        paired.append((dataset, scores_a, scores_b))
    return paired


def meta_compare(table_a, table_b):
    """Compare two pipelines' score tables across datasets.

    Both tables must cover the same (dataset, subject, session, fold)
    cells. A subject's score is its mean AUC over its sessions and
    folds, failed rows excluded; a subject without a score on both
    sides is dropped, and each dataset needs 2 subjects left. Per
    dataset: the standardized mean difference of ``b - a`` and a
    one-sided p-value (second pipeline better), from the exact sign-flip
    test for fewer than 20 subjects and the signed-rank test otherwise.
    Combined: the weighted mean of the effect sizes and the Liptak
    combination of the p-values, weights ``sqrt(n_subjects)``.
    """
    paired = _paired_scores(table_a, table_b)
    if not paired:
        raise InvalidInput("no complete (dataset, subject) pairs to compare")
    rows = []
    for dataset, scores_a, scores_b in paired:
        n = scores_a.size
        diffs = scores_b - scores_a
        if n < EXACT_TEST_MAX_N:
            p = exact_permutation_test(diffs)
            test = "exact-permutation"
        else:
            p = wilcoxon_signed_rank(diffs)
            test = "signed-rank"
        effect = smd(scores_a, scores_b)
        rows.append(DatasetComparison(
            dataset=dataset,
            n_subjects=n,
            weight=float(np.sqrt(n)),
            smd=effect.value,
            ci_low=effect.ci_low,
            ci_high=effect.ci_high,
            p_value=p,
            test=test,
            degenerate=effect.degenerate,
        ))
    weights = np.array([r.weight for r in rows])
    smds = np.array([r.smd for r in rows])
    ps = np.array([r.p_value for r in rows])
    combined_smd = float(weights @ smds / weights.sum())
    combined_p = liptak_combine(ps, weights)
    return MetaReport(
        pipeline_a=table_a.pipeline,
        pipeline_b=table_b.pipeline,
        datasets=tuple(rows),
        combined_smd=combined_smd,
        combined_p=combined_p,
    )
