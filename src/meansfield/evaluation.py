"""Cross-validated AUC-ROC evaluation of pipelines, one (subject,
session) group at a time."""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classifiers import (
    mdm_fit, mdm_score, mdmf_fit, mf_fit, mf_score, ts_lr_fit, ts_lr_score,
)
from .covariance import oas_covariance
from .exceptions import InvalidInput, NumericalFailure, UndefinedMetric
from .geometry import _is_integer
from .spatial import SpatialFilter, adcsp_fit, apply_filter, csp_fit
from .stats import _tied_ranks

__all__ = [
    "EvalConfig", "ScoreRow", "PipelineScoreTable", "TrialSet",
    "auc_roc", "run_pipeline", "parse_pipeline",
]

PIPELINE_CLASSIFIERS = ("MDM", "MDMF", "MF", "MF_RPME", "TS+LR")
PIPELINE_FILTERS = ("CSP", "ADCSP")


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings: a pipeline name, ``k`` folds (an integer of
    at least 2) and the fold ``seed`` (an unsigned 64-bit integer);
    numpy integers pass, bools do not."""

    pipeline: str
    seed: int
    k: int = 5

    def __post_init__(self):
        if not _is_integer(self.k) or self.k < 2:
            raise InvalidInput("k must be an integer of at least 2")
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise InvalidInput("seed must be an unsigned 64-bit integer")
        parse_pipeline(self.pipeline)


@dataclass(frozen=True)
class ScoreRow:
    """One fold's outcome; ``auc`` is None when the fold failed or the
    metric was undefined, with the reason in ``error``."""

    dataset: str
    subject: str
    session: str
    fold: int
    auc: float | None
    fold_time_seconds: float
    error: str | None = None

    def __post_init__(self):
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise InvalidInput(f"auc {self.auc} outside [0, 1]")


@dataclass(frozen=True)
class PipelineScoreTable:
    """All fold rows of one pipeline, sorted by (dataset, subject,
    session, fold)."""

    pipeline: str
    k: int
    seed: int
    rows: tuple

    def mean_auc(self):
        valid = [r.auc for r in self.rows if r.auc is not None]
        if not valid:
            raise UndefinedMetric("no valid AUC rows in table")
        return float(np.mean(valid))


@dataclass(frozen=True)
class TrialSet:
    """A dataset, named by a string, of labeled trials with per-trial
    subject/session ids.

    ``trials`` is ``(n, channels, samples)`` for time-series data or
    ``(n, d, d)`` for ready-made SPD matrices (``kind`` tells which).
    """

    dataset_id: str
    kind: str
    trials: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray
    sessions: np.ndarray

    def __post_init__(self):
        trials = np.asarray(self.trials, dtype=np.float64)
        labels = np.asarray(self.labels)
        subjects = np.asarray(self.subjects)
        sessions = np.asarray(self.sessions)
        if not isinstance(self.dataset_id, str):
            raise InvalidInput("dataset_id must be a string")
        if self.kind not in ("time-series", "covariance"):
            raise InvalidInput(f"unknown trial kind {self.kind!r}")
        if trials.ndim != 3:
            raise InvalidInput("trials must be a 3-d stack")
        if self.kind == "covariance" and trials.shape[1] != trials.shape[2]:
            raise InvalidInput("covariance trials must be square")
        n = trials.shape[0]
        for name, arr in (("labels", labels), ("subjects", subjects),
                          ("sessions", sessions)):
            if arr.shape != (n,):
                raise InvalidInput(f"{name} must have one entry per trial")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "subjects", subjects)
        object.__setattr__(self, "sessions", sessions)

    @property
    def n_trials(self):
        return self.trials.shape[0]

    @property
    def classes(self):
        return np.unique(self.labels)

    def groups(self):
        """(subject, session) pairs, compared as strings, in sorted
        order with their trial indices ascending."""
        members = {}
        for i, key in enumerate(zip(self.subjects.astype(str).tolist(),
                                    self.sessions.astype(str).tolist())):
            members.setdefault(key, []).append(i)
        return [(subject, session, np.array(idx, dtype=np.intp))
                for (subject, session), idx in sorted(members.items())]


def parse_pipeline(name):
    """Split a pipeline name into (filter, classifier) tokens.

    Valid names are a classifier from ``PIPELINE_CLASSIFIERS``
    optionally prefixed by a filter from ``PIPELINE_FILTERS`` and a
    ``+`` (e.g. ``"ADCSP+MF"``, ``"TS+LR"``, ``"CSP+TS+LR"``).
    """
    for clf in sorted(PIPELINE_CLASSIFIERS, key=len, reverse=True):
        if name == clf:
            return None, clf
        for filt in PIPELINE_FILTERS:
            if name == f"{filt}+{clf}":
                return filt, clf
    raise InvalidInput(
        f"unknown pipeline {name!r}; expected one of "
        f"{PIPELINE_CLASSIFIERS} optionally prefixed by one of "
        f"{PIPELINE_FILTERS} and '+'"
    )


def _stratified_kfold(labels, k, seed):
    """``k`` disjoint, sorted index arrays covering every trial: each
    class shuffled by its stream of ``docs/determinism.md`` and dealt
    round-robin. :class:`InvalidInput` when a class has fewer than ``k``
    trials."""
    labels = np.asarray(labels)
    folds = [[] for _ in range(k)]
    for pos, c in enumerate(np.unique(labels)):
        idx = np.flatnonzero(labels == c)
        if idx.size < k:
            raise InvalidInput(
                f"class {c} has {idx.size} trials, fewer than k={k}"
            )
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), pos]))
        )
        shuffled = idx[rng.permutation(idx.size)]
        for f in range(k):
            folds[f].extend(shuffled[f::k])
    return [np.array(sorted(f), dtype=np.intp) for f in folds]


def auc_roc(scores, labels):
    """Area under the ROC curve of binary scores.

    Equals the pair-counting statistic: the fraction of
    positive/negative pairs the positive trial outscores, ties worth
    one half. Labels must be 0/1 with both classes present, and scores
    finite.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise InvalidInput("need one score per label")
    if not np.all(np.isfinite(scores)):
        raise InvalidInput("scores contain non-finite values")
    uniq = set(np.unique(labels).tolist())
    if not uniq <= {0, 1}:
        raise InvalidInput(f"labels must be binary 0/1, got {sorted(uniq)}")
    if uniq != {0, 1}:
        raise UndefinedMetric("AUC undefined with a single class present")
    ranks = _tied_ranks(scores)[0]
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _stages(name):
    """The filter fit (``None`` without a filter), the classifier fit
    and the scorer of pipeline ``name``, read from this module's
    bindings when called, so that a wrapped or patched binding runs."""
    filter_kind, clf_kind = parse_pipeline(name)
    filter_fit = {None: None, "CSP": csp_fit, "ADCSP": adcsp_fit}[filter_kind]
    fit, score = {"MDM": (mdm_fit, mdm_score), "MDMF": (mdmf_fit, mdm_score),
                  "MF": (mf_fit, mf_score),
                  "MF_RPME": (partial(mf_fit, robust=True), mf_score),
                  "TS+LR": (ts_lr_fit, ts_lr_score)}[clf_kind]
    return filter_fit, fit, score


def _fit_and_score(stages, train_covs, train_labels, test_covs):
    filter_fit, fit, score = stages
    if filter_fit is not None:
        filt = filter_fit(train_covs, train_labels)
        train_covs = apply_filter(filt, train_covs)
        test_covs = apply_filter(filt, test_covs)
    return score(fit(train_covs, train_labels), test_covs)[1]


def _take(a, idx):
    """``a[idx]`` for sorted, distinct ``idx``: a view where the indices
    are consecutive, as a stored group's are, so that a group of
    recordings is not copied before its covariances are estimated."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return a[idx[0]:idx[-1] + 1]
    return a[idx]


def run_pipeline(trialset, config, workers=1):
    """Evaluate one pipeline on a dataset.

    Each (subject, session) group is split into stratified folds, a
    pure function of (labels, k, seed), so every pipeline sees the same
    folds. Per fold, the spatial filter and the classifier are fit on
    the training folds only and the held-out fold is scored by AUC-ROC.
    A failure is recorded in its row and the run continues. A group is
    validated (covariance sets) or has its covariances estimated
    (time-series sets) once, before its folds; a class with fewer than
    ``k`` trials, or a trial that is not finite, not SPD or degenerate,
    gives the group ``k`` error rows naming the trial's index within
    the group. ``fold_time_seconds`` covers a fold's fit, scoring and
    AUC only.

    Parameters
    ----------
    trialset : TrialSet
        Binary-labeled trials (AUC is only defined for two classes).
    config : EvalConfig
    workers : int, default 1
        Thread pool width over (subject, session, fold) tasks, an
        integer of at least 1; the result is identical for any width.

    Returns
    -------
    PipelineScoreTable
    """
    if not isinstance(trialset, TrialSet):
        raise InvalidInput("trialset must be a TrialSet")
    if not isinstance(config, EvalConfig):
        raise InvalidInput("config must be an EvalConfig")
    if not _is_integer(workers) or workers < 1:
        raise InvalidInput(
            f"workers must be an integer of at least 1, got {workers}")
    stages = _stages(config.pipeline)
    classes = trialset.classes
    if len(classes) != 2:
        raise InvalidInput(
            f"AUC evaluation supports exactly 2 classes, got {len(classes)}"
        )
    y = np.searchsorted(classes, trialset.labels)

    tasks, rows = [], []
    for subject, session, idx in trialset.groups():
        labels = y[idx]
        try:
            folds = _stratified_kfold(labels, config.k, config.seed)
            covs = _take(trialset.trials, idx)
            if trialset.kind == "time-series":
                covs = oas_covariance(covs)
            else:  # identity stage, once
                apply_filter(SpatialFilter(np.eye(covs.shape[-1])), covs)
        except InvalidInput as exc:
            rows += [ScoreRow(trialset.dataset_id, subject, session, f, None,
                              0.0, f"{type(exc).__name__}: {exc}")
                     for f in range(config.k)]
            continue
        for f, test in enumerate(folds):
            train = np.setdiff1d(np.arange(idx.size), test)
            tasks.append((subject, session, f, covs, labels, train, test))

    def run_task(task):
        subject, session, f, covs, labels, train, test = task
        t0 = time.perf_counter()
        try:
            scores = _fit_and_score(stages, covs[train], labels[train],
                                    covs[test])
            auc = auc_roc(scores, labels[test])
            error = None
        except (InvalidInput, NumericalFailure) as exc:
            auc = None
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        return ScoreRow(
            dataset=trialset.dataset_id, subject=subject, session=session,
            fold=f, auc=auc, fold_time_seconds=elapsed, error=error,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows += pool.map(run_task, tasks)
    else:
        rows += [run_task(t) for t in tasks]
    rows.sort(key=lambda r: (r.dataset, r.subject, r.session, r.fold))
    return PipelineScoreTable(
        pipeline=config.pipeline, k=config.k, seed=int(config.seed),
        rows=tuple(rows),
    )
