"""The one refusal of a matrix that is not positive definite: every
public entry point names the first bad matrix, not the most negative
one, in the same format; and the one refusal of a trial that is not
symmetric, by the means, the fits and the scorers."""

import re

import numpy as np
import pytest

from meansfield.archive import TrialArchive
from meansfield.classifiers import (
    distance_features, mdm_fit, mdm_score, mdmf_fit, mf_fit, mf_score,
    tangent_map, ts_lr_fit, ts_lr_score,
)
from meansfield.exceptions import InvalidInput
from meansfield.geometry import (
    _cholesky, airm_distance, check_spd, geodesic, invsqrtm, logm, powm,
    sqrtm,
)
from meansfield.means import (
    arithmetic_mean, geometric_mean, harmonic_mean, power_mean, rpme_clean,
)
from meansfield.spatial import (
    SpatialFilter, adcsp_fit, apply_filter, csp_fit, csp_gevd,
)

from oracles import spd_cloud

# matrices 2 and 3 are indefinite, 3 the more negative, alone and
# whitened by the arithmetic mean, which is positive definite
STACK = np.stack([4.0 * np.eye(3), 4.0 * np.eye(3),
                  np.diag([1.0, 2.0, -1.0]), np.diag([-8.0, 1.0, 1.0])])
EYE = np.eye(3)


def refusal(noun, index=None):
    """The refusal of matrix ``index`` (``None``: a lone matrix) named
    by ``noun``, as a pattern for the whole message."""
    where = noun if index is None else f"{noun} {index}"
    return (f"^{re.escape(where)} is not positive definite "
            r"\(smallest eigenvalue -?\d\.\d{3}e[+-]\d{2}\)$")


def _fitted(fit):
    rng = np.random.default_rng(31)
    trials = np.concatenate([spd_cloud(EYE, s, 8, rng) for s in (0.2, 0.5)])
    return fit(trials, np.repeat([0, 1], 8))


ENTRY_POINTS = {
    "check_spd": (lambda: check_spd(STACK), "matrix", 2),
    "logm": (lambda: logm(STACK), "matrix", 2),
    "sqrtm": (lambda: sqrtm(STACK), "matrix", 2),
    "invsqrtm": (lambda: invsqrtm(STACK), "matrix", 2),
    "powm": (lambda: powm(STACK, 0.5), "matrix", 2),
    "airm_distance a": (lambda: airm_distance(STACK[2], EYE), "a", None),
    "airm_distance b": (lambda: airm_distance(EYE, STACK), "b", 2),
    "geodesic a": (lambda: geodesic(STACK[2], EYE, 0.5), "a", None),
    "geodesic b": (lambda: geodesic(EYE, STACK, 0.5), "b", 2),
    **{f"power_mean h={h}": (lambda h=h: power_mean(STACK, h),
                             f"power mean (h={h}): trial", 2)
       for h in (-1.0, -0.5, 0.5, 1.0)},
    "geometric_mean": (lambda: geometric_mean(STACK),
                       "geometric mean: trial", 2),
    "geometric_mean init": (lambda: geometric_mean(STACK[:2], init=STACK[2]),
                            "geometric mean: init", None),
    "harmonic_mean": (lambda: harmonic_mean(STACK), "harmonic mean: trial", 2),
    "rpme_clean": (lambda: rpme_clean(STACK), "geometric mean: trial", 2),
    "mdm_score": (lambda: mdm_score(_fitted(mdm_fit), STACK), "trial", 2),
    "mf_score": (lambda: mf_score(_fitted(mf_fit), STACK), "trial", 2),
    "ts_lr_score": (lambda: ts_lr_score(_fitted(ts_lr_fit), STACK),
                    "trial", 2),
    "apply_filter": (lambda: apply_filter(SpatialFilter(EYE), STACK),
                     "filtered matrix", 2),
    "TrialArchive": (lambda: TrialArchive(
        kind="covariance", trials=STACK, labels=np.zeros(4, dtype=int),
        n_classes=1), "covariance trial", 2),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_first_bad_matrix_named_in_one_format(entry):
    call, noun, index = ENTRY_POINTS[entry]
    with pytest.raises(InvalidInput, match=refusal(noun, index)):
        call()


def test_first_bad_matrix_is_not_the_most_negative():
    low = np.linalg.eigvalsh(STACK)[:, 0]
    assert low[3] < low[2] <= 0.0 < low[1]
    assert np.linalg.eigvalsh(STACK.mean(axis=0))[0] > 0.0


@pytest.mark.parametrize("a, index", [(STACK, 2), (STACK[3], None)],
                         ids=["stack", "lone"])
def test_cholesky_refuses_as_check_spd_does(a, index):
    # a stack by its first bad matrix, 2, not the more negative 3; a
    # lone matrix by its noun alone
    with pytest.raises(InvalidInput, match=refusal("trial", index)) as spd:
        check_spd(a, "trial")
    with pytest.raises(InvalidInput, match=f"^{re.escape(str(spd.value))}$"):
        _cholesky(a, "trial")


FITS = {
    "MDM": (mdm_fit, "geometric mean"),
    "MDMF": (mdmf_fit, "power mean (h=1.0)"),
    "MF": (mf_fit, "power mean (h=1.0)"),
    "MF_RPME": (lambda x, y: mf_fit(x, y, robust=True), "geometric mean"),
    "ADCSP": (adcsp_fit, "geometric mean"),
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_training_trial_named_within_its_class(name):
    # global trial 8 is trial 3 of class 1; d = 12 enters ADCSP stage 2
    rng = np.random.default_rng(32)
    trials = spd_cloud(np.eye(12), 0.3, 10, rng)
    trials[8] = -trials[8]
    fit, solver = FITS[name]
    with pytest.raises(InvalidInput,
                       match=refusal(f"class 1: {solver}: trial", 3)):
        fit(trials, np.repeat([0, 1], 5))


# matrices 2 and 3 are positive definite but not symmetric, 3 the
# further from it
SKEW = np.stack([4.0 * EYE] * 4)
SKEW[2, 0, 1] = 1.0
SKEW[3, 2, 0] = 3.0


def _skewed_training_set(d=4):
    # global trial 8 is trial 3 of class 1
    rng = np.random.default_rng(33)
    trials = spd_cloud(np.eye(d), 0.3, 10, rng)
    trials[8, 0, 1] += 0.5
    return trials, np.repeat([0, 1], 5)


# ADCSP takes its identity path at d = 4, enters stage 2 at d = 12 and
# stage 1 at d = 32
ADCSP_DIMS = (4, 12, 32)


SYMMETRY_ENTRY_POINTS = {
    **{f"power_mean h={h}": (lambda h=h: power_mean(SKEW, h), "trial 2")
       for h in (-1.0, -0.5, 0.5, 1.0)},
    "arithmetic_mean": (lambda: arithmetic_mean(SKEW), "trial 2"),
    "harmonic_mean": (lambda: harmonic_mean(SKEW), "trial 2"),
    "geometric_mean": (lambda: geometric_mean(SKEW), "trial 2"),
    "rpme_clean": (lambda: rpme_clean(SKEW), "trial 2"),
    **{name: (lambda fit=fit: fit(*_skewed_training_set()),
              "class 1: trial 3")
       for name, fit in (("mdm_fit", mdm_fit), ("mdmf_fit", mdmf_fit),
                         ("mf_fit", mf_fit), ("csp_fit", csp_fit))},
    "mf_fit robust": (lambda: mf_fit(*_skewed_training_set(), robust=True),
                      "class 1: trial 3"),
    **{f"adcsp_fit d={d}": (lambda d=d: adcsp_fit(*_skewed_training_set(d)),
                            "class 1: trial 3")
       for d in ADCSP_DIMS},
    "ts_lr_fit": (lambda: ts_lr_fit(*_skewed_training_set()), "trial 8"),
    "mdm_score": (lambda: mdm_score(_fitted(mdm_fit), SKEW), "trial 2"),
    "mf_score": (lambda: mf_score(_fitted(mf_fit), SKEW), "trial 2"),
    "ts_lr_score": (lambda: ts_lr_score(_fitted(ts_lr_fit), SKEW),
                    "trial 2"),
    "distance_features": (lambda: distance_features(_fitted(mf_fit), SKEW),
                          "trial 2"),
}


@pytest.mark.parametrize("entry", sorted(SYMMETRY_ENTRY_POINTS))
def test_first_non_symmetric_trial_named(entry):
    call, where = SYMMETRY_ENTRY_POINTS[entry]
    with pytest.raises(InvalidInput,
                       match=f"^{re.escape(where)} is not symmetric$"):
        call()


def test_skewed_trials_are_positive_definite():
    # x^T C x > 0 for every x: only symmetry is refused
    for m in (SKEW, *(_skewed_training_set(d)[0] for d in ADCSP_DIMS)):
        assert np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, 1, 2))).min() > 0


# stacks of SPD matrices where one matrix is named
PAIR = np.stack([EYE, 4.0 * EYE])
TRIPLE = np.stack([EYE] * 3)


def _with(entry, value):
    m = np.ones((2, 3))
    m[entry] = value
    return m


# an argument that names one matrix refuses a stack; endpoints that do
# not broadcast, and a filter that is not finite, are refused by name
MALFORMED_ARGUMENTS = {
    "airm_distance a": (lambda: airm_distance(PAIR, EYE),
                        r"^a must be one matrix, got \(2, 3, 3\)$"),
    "airm_distance a and b": (lambda: airm_distance(PAIR, TRIPLE),
                              r"^a must be one matrix, got \(2, 3, 3\)$"),
    "tangent_map reference": (lambda: tangent_map(EYE, TRIPLE),
                              r"^reference must be one matrix, "
                              r"got \(3, 3, 3\)$"),
    "csp_gevd mean_a": (lambda: csp_gevd(PAIR, PAIR, 2),
                        r"^mean_a must be one matrix, got \(2, 3, 3\)$"),
    "csp_gevd mean_b": (lambda: csp_gevd(EYE, PAIR, 2),
                        r"^mean_b must be one matrix, got \(2, 3, 3\)$"),
    **{f"geodesic t={t}": (lambda t=t: geodesic(PAIR, TRIPLE, t),
                           r"^stacks a \(2, 3, 3\) and b \(3, 3, 3\) do "
                           "not broadcast$")
       for t in (0.0, 0.5)},
    **{f"SpatialFilter {v}": (
        lambda v=v: SpatialFilter(_with((1, 2), v)),
        "^filter matrix contains non-finite entries$")
       for v in (np.nan, np.inf)},
}


@pytest.mark.parametrize("entry", sorted(MALFORMED_ARGUMENTS))
def test_malformed_argument_named(entry):
    call, message = MALFORMED_ARGUMENTS[entry]
    with pytest.raises(InvalidInput, match=message):
        call()
