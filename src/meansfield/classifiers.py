"""Classifiers for SPD covariance trials.

MDM, MDMF and MF fit one model type, :class:`FieldModel`, on the one
field solver of :mod:`.means`. MDM's field is the single exponent
``h = 0`` (one geometric mean per class), MDMF's the full field; both
take the nearest-mean head of :func:`mdm_score`. MF puts a linear
discriminant head on the squared distances to every mean of the field.
All three score with one distance kernel. TS+LR (``ts_lr_*``) is
logistic regression on tangent-space coordinates at the global
geometric mean.

The fits of trials (MDM, MDMF, MF, TS+LR) raise :class:`InvalidInput`
unless their training set is an ``(n, d, d)`` stack with one label per
trial and at least two classes. Every ``*_score`` takes one ``(d, d)``
trial and returns ``(label, score)``, or an ``(n, d, d)`` stack and
returns ``(labels, scores)`` arrays, and raises :class:`InvalidInput`
naming the first trial with a non-finite entry or that is not
symmetric. Binary decision scores are oriented so that higher means the
class with the larger label index; ties in predicted labels resolve to
the lower class index.
"""

import numpy as np
from dataclasses import dataclass, replace

from .exceptions import (
    ConvergenceFailure, InvalidInput, NumericalFailure,
)
from .geometry import (
    _as_matrix, _spectral, _sq_distances, _sym, check_spd, invsqrtm, sqrtm,
)
from .means import (
    DEFAULT_H_GRID, MeanField, _check_set, _labelled_set, _solve_field,
    build_mean_field, geometric_mean,
)

__all__ = [
    "FieldModel", "mdm_fit", "mdm_score", "mdmf_fit",
    "LdaModel", "lda_fit",
    "mf_fit", "mf_score", "distance_features",
    "tangent_map", "TsLrModel", "ts_lr_fit", "ts_lr_score",
]

# Fixed ridge on the pooled feature covariance, relative to its mean
# eigenvalue; the discriminant stays hyperparameter-free.
LDA_RIDGE = 1e-9

# Fixed L2 penalty weight of the tangent-space logistic regression.
LR_PENALTY = 1.0
LR_GRAD_TOL = 1e-8

# Tangent-coordinate spread at or below which a TS+LR feature is
# rounding, not signal.
TS_SPREAD_FLOOR = 1e-12


def _trials(covs, dim):
    """A ``(d, d)`` trial or ``(n, d, d)`` stack as a finite, symmetric
    stack, and whether it was a single trial."""
    covs = np.asarray(covs, dtype=np.float64)
    if covs.ndim not in (2, 3) or covs.shape[-2:] != (dim, dim):
        raise InvalidInput(f"expected a ({dim}, {dim}) trial or an (n, "
                           f"{dim}, {dim}) stack, got shape {covs.shape}")
    return _check_set(covs.reshape(-1, dim, dim)), covs.ndim == 2


def _decide(classes, evidence, single):
    """The scorers' return from per-class evidence ``(n, classes)``,
    higher meaning likelier: the argmax label and, as score,
    ``evidence_1 - evidence_0`` for two classes, else the evidence row."""
    best = np.argmax(evidence, axis=1)
    scores = (evidence[:, 1] - evidence[:, 0] if len(classes) == 2
              else evidence)
    if not single:
        return np.asarray(classes)[best], scores
    return classes[int(best[0])], (
        scores[0] if scores.ndim > 1 else float(scores[0]))


# ---------------------------------------------------------------------------
# One fitted model; MDM and MDMF, and their nearest-mean head


@dataclass(frozen=True)
class FieldModel:
    """A per-class mean field, the read-only whiteners ``M^{-1/2}`` of
    its means in :func:`distance_features` order, and the discriminant
    head ``lda`` of :func:`mf_fit` (``None``: the nearest-mean head)."""

    field: MeanField
    whiteners: np.ndarray
    lda: "LdaModel" = None

    @property
    def classes(self):
        return self.field.classes

    @property
    def dim(self):
        return self.whiteners.shape[-1]

    @property
    def n_features(self):
        return len(self.whiteners)


def _field_model(field):
    """The nearest-mean model of a field: one stacked ``invsqrtm``."""
    whiteners = invsqrtm(
        np.concatenate([field.matrices(c) for c in field.classes]))
    whiteners.flags.writeable = False
    return FieldModel(field, whiteners)


def mdm_fit(train_covs, labels, config=None):
    """Learn one geometric mean per class: the field of the single
    exponent ``h = 0``, equal to ``mdmf_fit(..., h_grid=(0.0,))``."""
    covs, members = _labelled_set(train_covs, labels)
    return _field_model(_solve_field({c: covs[i] for c, i in members.items()},
                                     (0.0,), config, robust=False))


def mdmf_fit(train_covs, labels, h_grid=DEFAULT_H_GRID, config=None):
    """Learn the full power-mean field per class."""
    covs, members = _labelled_set(train_covs, labels)
    return _field_model(build_mean_field(
        {c: covs[i] for c, i in members.items()}, h_grid=h_grid,
        config=config))


def mdm_score(model, covs):
    """Classify trials by their nearest mean, the scorer of MDM and
    MDMF models: per class the evidence is the smallest distance from
    the trial to the class's means (MDM has one per class).

    Returns
    -------
    (label, score), or (labels, scores) arrays for a stack
        Binary score is ``min_d(class_0) - min_d(class_1)`` (higher
        means the second class); multiclass score is the vector of
        negated per-class minima.
    """
    covs, single = _trials(covs, model.dim)
    classes = model.classes
    dists = np.sqrt(_sq_distances(model.whiteners, covs))
    per_class = dists.reshape(len(covs), len(classes), -1)
    return _decide(classes, -per_class.min(axis=2), single)


# ---------------------------------------------------------------------------
# Discriminant on squared distances to the field


@dataclass(frozen=True)
class LdaModel:
    """Linear discriminant with a shared ridge-stabilized covariance."""

    classes: tuple
    priors: np.ndarray
    _coef: np.ndarray
    _intercept: np.ndarray


def lda_fit(features, labels):
    """Fit linear discriminant analysis with a fixed spectral ridge.

    The pooled within-class covariance (normalized by ``N - n_classes``)
    receives ``LDA_RIDGE * tr(S)/k`` on its diagonal before inversion.
    Raises :class:`InvalidInput` unless ``features`` is an ``(n, k)``
    array with one label per row, at least two classes and more rows
    than classes; :class:`NumericalFailure` when a feature is not
    finite, or the ridged covariance is not finite or not positive
    definite.
    """
    x, members = _labelled_set(features, labels, trial_ndim=1)
    n, k = x.shape
    if n <= len(members):
        raise InvalidInput(
            f"discriminant needs more trials than classes, got {n} trials "
            f"of {len(members)} classes")
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("features contain non-finite entries")
    # a covariance that overflows is refused as non-finite below
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.stack([x[i].mean(axis=0) for i in members.values()])
        pooled = np.zeros((k, k))
        for i, mu in zip(members.values(), means):
            centered = x[i] - mu
            pooled += centered.T @ centered
        pooled /= n - len(members)
        ridge = LDA_RIDGE * np.trace(pooled) / k
        pooled_r = pooled + ridge * np.eye(k)
    if not np.all(np.isfinite(pooled_r)):
        raise NumericalFailure("pooled feature covariance is not finite")
    try:
        chol = np.linalg.cholesky(pooled_r)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"pooled feature covariance is singular after ridge: {exc}"
        ) from exc
    coef = np.linalg.solve(chol.T, np.linalg.solve(chol, means.T)).T
    priors = np.array([len(i) / n for i in members.values()])
    intercept = -0.5 * np.sum(coef * means, axis=1) + np.log(priors)
    for a in (priors, coef, intercept):
        a.flags.writeable = False
    return LdaModel(tuple(members), priors, coef, intercept)


def distance_features(model, covs):
    """Squared distances from trials to every mean of a model's field.

    Feature order: class labels ascending, then ``h`` ascending within
    each class; length ``n_classes * len(h_grid)``, one row per trial
    of a stack.
    """
    covs, single = _trials(covs, model.dim)
    feats = _sq_distances(model.whiteners, covs)
    return feats[0] if single else feats


def _training_features(model, covs, members):
    """:func:`distance_features` of a field model's own training trials,
    ``members`` mapping each class to the indices of its trials: each
    class's own distances from ``MeanField.sq_distances``, the rest
    from the kernel."""
    field = model.field
    k = len(field.h_grid)
    feats = np.empty((len(covs), model.n_features))
    for j, c in enumerate(field.classes):
        cols = np.arange(j * k, (j + 1) * k)
        kept = members[c][field.kept[c]]
        rest = np.setdiff1d(np.arange(len(covs)), kept)
        feats[np.ix_(rest, cols)] = _sq_distances(model.whiteners[cols],
                                                  covs[rest])
        own = field.sq_distances[c]
        feats[np.ix_(kept, cols)] = own
        missing = cols[np.isnan(own[0])]
        if missing.size:
            feats[np.ix_(kept, missing)] = _sq_distances(
                model.whiteners[missing], covs[kept])
    return feats


def mf_fit(train_covs, labels, h_grid=DEFAULT_H_GRID, config=None,
           robust=False):
    """Learn the mean field and a discriminant on its squared distances,
    both on the same trials."""
    covs, members = _labelled_set(train_covs, labels)
    model = _field_model(build_mean_field(
        {c: covs[i] for c, i in members.items()}, h_grid=h_grid,
        config=config, robust=robust))
    feats = _training_features(model, covs, members)
    return replace(model, lda=lda_fit(feats, labels))


def mf_score(model, covs):
    """Classify trials from their distance features.

    Binary decision score is the discriminant difference
    ``g_1(x) - g_0(x)``, with ``g_c(x) = x S^{-1} mu_c - mu_c S^{-1} mu_c
    / 2 + log prior_c``; multiclass returns the discriminant vector.
    """
    x = np.atleast_2d(distance_features(model, covs))
    return _decide(model.lda.classes, x @ model.lda._coef.T
                   + model.lda._intercept, np.ndim(covs) == 2)


# ---------------------------------------------------------------------------
# Tangent space + logistic regression


def tangent_map(cov, reference):
    """Project an SPD matrix to tangent coordinates at a reference.

    ``S = log(R^{-1/2} C R^{-1/2})`` vectorized as the row-major upper
    triangle with off-diagonal entries scaled by ``sqrt(2)``, so the
    Euclidean norm of the vector equals the affine-invariant distance
    from ``C`` to ``R``. ``cov`` is a trial or a stack, as the scorers
    take it, of the reference's dimension; :class:`InvalidInput` names
    the first trial that is not finite, symmetric and positive definite.
    """
    reference = check_spd(_as_matrix(reference, "reference"), "reference")
    covs, single = _trials(cov, reference.shape[0])
    r = invsqrtm(reference)
    feats = _upper_triangle(_spectral(r @ covs @ r, np.log, "trial"))
    return feats[0] if single else feats


def _upper_triangle(s):
    """Symmetric ``s`` as the vector of :func:`tangent_map`."""
    iu = np.triu_indices(s.shape[-1])
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return s[..., iu[0], iu[1]] * scale


def _solver_tangent_vectors(solved):
    """:func:`tangent_map` of a mean's trials at the mean, from the last
    step of its solve (``means._FinalStep``) instead of a second ``eigh``
    of the stack: with ``Q = X R^{1/2}`` orthogonal,
    ``log(R^{-1/2} C R^{-1/2}) = Q^T U log(L) U^T Q``."""
    qu = (solved.x @ sqrtm(solved.matrix)).T @ solved.u
    return _upper_triangle(
        _sym((qu * solved.loglam[:, None, :]) @ np.swapaxes(qu, -1, -2)))


def _expit(z):
    """Logistic sigmoid ``1 / (1 + exp(-z))`` without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def _logistic(beta, xa, y01, penalty):
    """Penalized negative log-likelihood of the logits ``xa @ beta``, its
    gradient ``xaᵀ(p - y) + penalty·beta`` and the probabilities ``p``."""
    z = xa @ beta
    p = _expit(z)
    # log(1 + exp(-z)) where y is 1, log(1 + exp(z)) where it is 0
    loss = (np.logaddexp(0.0, np.where(y01, -z, z)).sum()
            + 0.5 * (penalty * beta) @ beta)
    return loss, xa.T @ (p - y01) + penalty * beta, p


def _logistic_hessian(xa, p, penalty):
    """``xaᵀ diag(p(1 - p)) xa + diag(penalty)``."""
    return (xa * (p * (1.0 - p))[:, None]).T @ xa + np.diag(penalty)


def _fit_binary_lr(xa, y01):
    """Coefficients of a binary logistic regression on the design ``xa``,
    its last column the unpenalized intercept's, by damped Newton steps
    from zero, Armijo backtracking on the strictly convex objective, to
    gradient norm ``LR_GRAD_TOL``; failing that, :class:`ConvergenceFailure`.
    Where the loss no longer resolves the decrease (within rounding of
    the optimum), a step is also accepted if it shrinks the gradient."""
    penalty = np.append(np.full(xa.shape[1] - 1, LR_PENALTY), 0.0)
    beta = np.zeros(xa.shape[1])
    loss, grad, p = _logistic(beta, xa, y01, penalty)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(100):
        if gnorm <= LR_GRAD_TOL:
            return beta
        try:
            step = np.linalg.solve(_logistic_hessian(xa, p, penalty), grad)
        except np.linalg.LinAlgError:
            break
        decrease = float(grad @ step)
        for halvings in range(50):
            t = 0.5 ** halvings
            trial = beta - t * step
            t_loss, t_grad, t_p = _logistic(trial, xa, y01, penalty)
            t_gnorm = float(np.linalg.norm(t_grad))
            if (t_loss <= loss - 1e-4 * t * decrease
                    or (abs(t_loss - loss) <= 16 * np.finfo(float).eps
                        * abs(loss) and t_gnorm < gnorm)):
                break
        else:
            break
        beta, loss, grad, p, gnorm = trial, t_loss, t_grad, t_p, t_gnorm
    raise ConvergenceFailure(
        f"logistic regression gradient norm {gnorm:.3e} exceeds "
        f"{LR_GRAD_TOL}",
        last_iterate=beta, residual=gnorm,
    )


@dataclass(frozen=True)
class TsLrModel:
    """Tangent-space logistic regression of :func:`ts_lr_fit`: one-vs-rest
    weight vectors, one per class, or the second's alone of two."""

    classes: tuple
    reference: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    weights: np.ndarray
    intercepts: np.ndarray


def ts_lr_fit(train_covs, labels):
    """Fit logistic regression on tangent coordinates.

    The reference point is the geometric mean of all training trials;
    the last step of its solve gives their tangent coordinates.
    Features are standardized per coordinate (population statistics of
    the training fold). A coordinate whose spread is at most
    ``TS_SPREAD_FLOOR`` (1e-12; tangent coordinates are dimensionless,
    so the bound is absolute) holds only rounding and is neutralized:
    its training column is zero and its weight exactly 0. The L2
    penalty weight is fixed at 1 with an unpenalized intercept. Each
    weight vector is fitted by :func:`_fit_binary_lr`, which raises
    :class:`ConvergenceFailure` where it does not converge.
    """
    covs, members = _labelled_set(train_covs, labels)
    classes = tuple(members)
    solved = geometric_mean(covs)
    reference = solved.matrix
    feats = _solver_tangent_vectors(solved)
    mean = feats.mean(axis=0)
    scale = feats.std(axis=0)
    spread = scale > TS_SPREAD_FLOOR
    scale = np.where(spread, scale, 1.0)
    x = np.where(spread, (feats - mean) / scale, 0.0)

    xa = np.column_stack([x, np.ones(len(x))])
    positives = list(members.values())[len(classes) == 2:]
    solution = np.column_stack([
        _fit_binary_lr(xa, np.isin(np.arange(len(x)), i)) for i in positives])
    weights, intercepts = solution[:-1].T, solution[-1]
    for a in (reference, mean, scale, weights, intercepts):
        a.flags.writeable = False
    return TsLrModel(classes, reference, mean, scale, weights, intercepts)


def ts_lr_score(model, covs):
    """Classify trials by their tangent-space logits.

    Binary score is the logit of the second class; multiclass returns
    the one-vs-rest logit vector and predicts its argmax.
    """
    feats = np.atleast_2d(tangent_map(covs, model.reference))
    x = (feats - model.feature_mean) / model.feature_scale
    logits = x @ model.weights.T + model.intercepts
    if len(model.classes) == 2:  # evidence 0 for the first class
        logits = np.hstack([np.zeros_like(logits), logits])
    return _decide(model.classes, logits, np.ndim(covs) == 2)
