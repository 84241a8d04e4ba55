"""Classifier pipelines: nearest mean, nearest field mean,
discriminant on distance features, and tangent-space logistic
regression."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meansfield import classifiers, geometry
from meansfield.classifiers import (
    FieldModel, distance_features, lda_fit, mdm_fit, mdm_score, mdmf_fit,
    mf_fit, mf_score, tangent_map, ts_lr_fit, ts_lr_score,
)
from meansfield.evaluation import auc_roc
from meansfield.exceptions import (
    ConvergenceFailure, InvalidInput, NumericalFailure,
)
from meansfield.geometry import SolverConfig, airm_distance, geodesic
from meansfield.means import DEFAULT_H_GRID, _labelled_set, geometric_mean
from meansfield.spatial import adcsp_fit, csp_fit
from meansfield.synth import RiemannianGaussianSpec, synth_riemannian_gaussian

from oracles import (
    irls_logistic, lbfgs_newton_logistic, lda_reference_binary, random_gl,
    random_spd, spd_cloud,
)


def scalar_trials(log_sigma, n, rng, dim=2):
    """Trials that are scalar multiples of the identity, log-normal."""
    logs = rng.normal(0.0, log_sigma, n)
    return np.stack([np.exp(v) * np.eye(dim) for v in logs])


def dispersion_classes(rng, n=30, dim=3, sigmas=(0.15, 0.5)):
    trials = np.concatenate([
        spd_cloud(np.eye(dim), s, n, rng) for s in sigmas
    ])
    labels = np.repeat(np.arange(len(sigmas)), n)
    return trials, labels


@st.composite
def two_classes(draw, min_first=3):
    """Two classes of d 2-16 trials, 3-40 a class (at least
    ``min_first`` in the first), log-normal clouds of spread 0.05-0.5
    around random centers of condition up to e**3; and an rng for more
    draws."""
    dim = draw(st.integers(2, 16))
    sizes = (draw(st.integers(max(3, min_first), 40)),
             draw(st.integers(3, 40)))
    sigma = draw(st.floats(0.05, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trials = np.concatenate([spd_cloud(random_spd(dim, rng, 3.0), sigma, n,
                                       rng) for n in sizes])
    return trials, np.repeat([0, 1], sizes), rng


@st.composite
def field_training_sets(draw):
    """Training sets for the field's solver-side features: a grid of 1-9
    exponents in hundredths, with or without +-1 and 0; maybe a far
    outlier in a first class of 12 or more, which robust cleaning drops;
    maybe a second class of identical trials, whose every mean is solved
    in 0 iterations."""
    outlier, identical = draw(st.booleans()), draw(st.booleans())
    trials, labels, rng = draw(two_classes(min_first=12 if outlier else 3))
    if outlier:
        trials[0] = trials[0] * np.exp(8.0)
    if identical:
        trials[labels == 1] = trials[labels == 1][0]
    exps = draw(st.lists(st.integers(-99, 99).filter(bool), max_size=6,
                         unique=True))
    if draw(st.booleans()):
        exps += [-100, 100]
    if draw(st.booleans()) or not exps:
        exps.append(0)
    return trials, labels, tuple(k / 100 for k in exps), outlier, identical


class TestMdm:
    def test_identical_trial_classes(self):
        rng = np.random.default_rng(0)
        ca, cb = random_spd(4, rng), random_spd(4, rng)
        model = mdm_fit(np.stack([ca, ca, cb, cb]), np.array([0, 0, 1, 1]))
        np.testing.assert_allclose(model.field.matrices(0)[0], ca,
                                   atol=1e-10)
        np.testing.assert_allclose(model.field.matrices(1)[0], cb,
                                   atol=1e-10)

    def test_commuting_scalar_oracle(self):
        # commuting trials: the class mean is the eigenvalue-wise
        # geometric mean in the shared basis
        rows_a = np.array([[1.0, 4.0], [4.0, 1.0]])
        rows_b = np.array([[9.0, 16.0], [16.0, 9.0]])
        trials = np.stack([np.diag(r) for r in np.vstack([rows_a, rows_b])])
        model = mdm_fit(trials, np.array([0, 0, 1, 1]))
        np.testing.assert_allclose(model.field.matrices(0)[0],
                                   np.diag([2.0, 2.0]), atol=1e-7)
        np.testing.assert_allclose(model.field.matrices(1)[0],
                                   np.diag([12.0, 12.0]), atol=1e-6)

    def test_score_at_means(self):
        rng = np.random.default_rng(1)
        ca, cb = random_spd(3, rng), random_spd(3, rng)
        model = mdm_fit(np.stack([ca, ca, cb, cb]), np.array([0, 0, 1, 1]))
        label, score = mdm_score(model, ca)
        assert label == 0 and score < 0

    def test_equidistant_tie_to_lower_index(self):
        model = mdm_fit(
            np.stack([np.diag([4.0, 1.0])] * 2 + [np.diag([1.0, 4.0])] * 2),
            np.array([0, 0, 1, 1]),
        )
        label, score = mdm_score(model, np.eye(2))
        assert score == 0.0
        assert label == 0

    def test_geodesic_point_predicted_by_proximity(self):
        rng = np.random.default_rng(2)
        ca, cb = random_spd(3, rng), random_spd(3, rng)
        model = mdm_fit(np.stack([ca, ca, cb, cb]), np.array([0, 0, 1, 1]))
        label, score = mdm_score(model, geodesic(ca, cb, 0.9))
        assert label == 1 and score > 0

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        trials, labels = dispersion_classes(rng, n=3)
        model = mdm_fit(trials, labels)
        with pytest.raises(InvalidInput):
            mdm_score(model, np.eye(5))


class TestMdmf:
    def test_exact_mean_match_wins(self):
        rng = np.random.default_rng(5)
        trials, labels = dispersion_classes(rng, n=10)
        model = mdmf_fit(trials, labels)
        some_mean = model.field.entries[1][3].matrix
        label, score = mdm_score(model, some_mean)
        assert label == 1 and score > 0

    def test_identical_fields_tie_to_lower(self):
        rng = np.random.default_rng(6)
        c = random_spd(3, rng)
        trials = np.stack([c] * 4)
        model = mdmf_fit(np.concatenate([trials, trials]),
                         np.array([0, 0, 0, 0, 1, 1, 1, 1]))
        label, score = mdm_score(model, 2.0 * c)
        assert score == 0.0 and label == 0

    def test_outlying_mean_attracts_trial(self):
        # red class has huge spread: its arithmetic-side means live far
        # from its geometric mean; a trial near those outposts belongs
        # to red under the field rule but to green under nearest
        # geometric mean
        red = np.stack([0.01 * np.eye(2), 100.0 * np.eye(2)])
        green = np.stack([2.0 * np.eye(2), 4.5 * np.eye(2)])
        trials = np.concatenate([red, green])
        labels = np.array([0, 0, 1, 1])
        probe = 45.0 * np.eye(2)

        mdm = mdm_fit(trials, labels)
        mdm_label, _ = mdm_score(mdm, probe)
        assert mdm_label == 1  # nearest geometric mean is green's

        mdmf = mdmf_fit(trials, labels)
        field_label, _ = mdm_score(mdmf, probe)
        assert field_label == 0  # a red power mean sits next to it

    def test_grid_zero_reduces_to_mdm(self):
        rng = np.random.default_rng(7)
        trials, labels = dispersion_classes(rng, n=12)
        probes = spd_cloud(np.eye(3), 0.4, 30, rng)
        mdmf = mdmf_fit(trials, labels, h_grid=(0.0,))
        mdm = mdm_fit(trials, labels)
        for probe in probes:
            lf, sf = mdm_score(mdmf, probe)
            lm, sm = mdm_score(mdm, probe)
            assert lf == lm
            assert sf == sm  # bit-identical: same solver, same init
        lf, sf = mdm_score(mdmf, probes)
        lm, sm = mdm_score(mdm, probes)
        np.testing.assert_array_equal(lf, lm)
        np.testing.assert_array_equal(sf, sm)
        # MDM is the h = 0 field itself, bit for bit
        for dim in (3, 7, 12):
            trials, labels = dispersion_classes(rng, n=8 + dim, dim=dim)
            mdmf = mdmf_fit(trials, labels, h_grid=(0.0,))
            mdm = mdm_fit(trials, labels)
            assert mdm.field.h_grid == mdmf.field.h_grid == (0.0,)
            assert mdm.classes == mdmf.classes
            for c in mdm.classes:
                (em,), (ef,) = mdm.field.entries[c], mdmf.field.entries[c]
                assert em.h == ef.h
                np.testing.assert_array_equal(em.matrix, ef.matrix)
                np.testing.assert_array_equal(em.iterations, ef.iterations)
                np.testing.assert_array_equal(em.residual, ef.residual)
                np.testing.assert_array_equal(mdm.field.kept[c],
                                              mdmf.field.kept[c])
            np.testing.assert_array_equal(mdm.whiteners, mdmf.whiteners)


class TestLda:
    def test_hand_case_against_reference(self):
        x = np.array([
            [1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [2.0, 3.0],
            [6.0, 5.0], [7.0, 8.0], [8.0, 6.0], [7.0, 7.0],
        ])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        model = lda_fit(x, y)
        reference = lda_reference_binary(x, y)
        for probe in x:
            g = probe @ model._coef.T + model._intercept
            assert abs((g[1] - g[0]) - reference(probe)) <= 1e-6

    def test_priors_from_frequencies(self):
        x = np.array([[0.0], [0.1], [1.0], [1.1], [0.9]])
        y = np.array([0, 0, 1, 1, 1])
        model = lda_fit(x, y)
        np.testing.assert_allclose(model.priors, [0.4, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_numerical_failure(self, bad):
        x = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, bad],
                      [6.0, 5.0], [7.0, 8.0], [8.0, 6.0]])
        # refused before any arithmetic on them: no RuntimeWarning
        with warnings.catch_warnings(), pytest.raises(NumericalFailure):
            warnings.simplefilter("error")
            lda_fit(x, np.array([0, 0, 0, 1, 1, 1]))

    @pytest.mark.parametrize("x, message", [
        # within-class products overflow: the refusal, not numpy's
        # overflow warning, reaches the caller
        (np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 1e200],
                   [1.0, -1e200], [3.0, 4.0], [5.0, 5.0]]),
         "pooled feature covariance is not finite"),
        # no spread within either class: the ridge, relative to it, is 0
        (np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0],
                   [3.0, 4.0], [3.0, 4.0], [3.0, 4.0]]),
         "pooled feature covariance is singular after ridge"),
    ], ids=["overflow", "no-spread"])
    def test_ill_posed_covariance_numerical_failure(self, x, message):
        with pytest.raises(NumericalFailure, match=f"^{message}"):
            lda_fit(x, np.array([0, 0, 0, 1, 1, 1]))

    def test_equal_class_means_score_zero(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        y = np.array([0, 0, 1, 1])
        model = lda_fit(x, y)
        g = np.zeros(2) @ model._coef.T + model._intercept
        assert abs(g[1] - g[0]) <= 1e-12


class TestMf:
    def test_feature_length(self):
        rng = np.random.default_rng(8)
        trials, labels = dispersion_classes(rng, n=10)
        model = mf_fit(trials, labels)
        assert model.n_features == 2 * 11
        feats = distance_features(model, trials)
        assert feats.shape == (trials.shape[0], 22)
        assert (feats >= 0).all()

    def test_feature_order_class_then_exponent(self):
        rng = np.random.default_rng(9)
        trials, labels = dispersion_classes(rng, n=10)
        model = mdmf_fit(trials, labels)
        probe = trials[0]
        feats = distance_features(model, probe)
        k = 0
        for c in model.classes:
            for entry in model.field.entries[c]:
                d = airm_distance(entry.matrix, probe)
                assert abs(feats[k] - d**2) <= 1e-9 * max(d**2, 1.0)
                k += 1

    def test_trial_matching_mean_has_zero_feature(self):
        rng = np.random.default_rng(10)
        trials, labels = dispersion_classes(rng, n=10)
        model = mdmf_fit(trials, labels)
        probe = model.field.entries[0][5].matrix  # the geometric mean entry
        feats = distance_features(model, probe)
        assert feats[5] <= 1e-12

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_weights_concentrate_on_separating_block(self, seed):
        # classes share the geometric mean but differ in spread, so the
        # class-mean gap peaks at the family endpoints h = +/-1; the
        # discriminant must put its largest weight there
        rng = np.random.default_rng(seed)
        trials = np.concatenate([
            scalar_trials(0.15, 40, rng), scalar_trials(1.2, 40, rng)])
        labels = np.array([0] * 40 + [1] * 40)
        model = mf_fit(trials, labels)
        w = model.lda._coef[1] - model.lda._coef[0]
        hs = [h for _ in (0, 1) for h in DEFAULT_H_GRID]
        top = int(np.argmax(np.abs(w)))
        assert abs(hs[top]) == 1.0

    def test_score_prefers_own_class(self):
        rng = np.random.default_rng(11)
        trials, labels = dispersion_classes(rng, n=25, sigmas=(0.1, 0.6))
        model = mf_fit(trials, labels)
        correct = sum(mf_score(model, t)[0] == y
                      for t, y in zip(trials, labels))
        assert correct / len(labels) >= 0.9

    def test_binary_score_is_discriminant_difference(self):
        rng = np.random.default_rng(12)
        trials, labels = dispersion_classes(rng, n=10)
        model = mf_fit(trials, labels)
        probe = trials[3]
        feats = distance_features(model, probe)
        g = (np.atleast_2d(feats) @ model.lda._coef.T
             + model.lda._intercept)[0]
        _, score = mf_score(model, probe)
        assert score == float(g[1] - g[0])


class TestTangentMap:
    def test_reference_maps_to_zero(self):
        rng = np.random.default_rng(13)
        c = random_spd(4, rng)
        np.testing.assert_allclose(tangent_map(c, c), np.zeros(10),
                                   atol=1e-10)

    def test_diagonal_hand_case(self):
        v = tangent_map(np.diag([np.e, np.e**2]), np.eye(2))
        np.testing.assert_allclose(v, [1.0, 0.0, 2.0], atol=1e-12)

    def test_norm_equals_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            c, r = random_spd(4, rng), random_spd(4, rng)
            v = tangent_map(c, r)
            d = airm_distance(r, c)
            assert abs(np.linalg.norm(v) - d) <= 1e-8 * d

    def test_vector_length(self):
        rng = np.random.default_rng(15)
        c = random_spd(5, rng)
        assert tangent_map(c, np.eye(5)).shape == (15,)

    def test_stack_contract(self):
        # a stack maps to one row per trial; a non-finite trial is named
        # by its index in the stack, and a trial of another dimension
        # than the reference's is refused
        trials = np.stack([np.eye(3)] * 3)
        assert tangent_map(trials, np.eye(3)).shape == (3, 6)
        trials[2, 1, 0] = np.nan
        with pytest.raises(InvalidInput,
                           match="^trial 2 contains non-finite entries$"):
            tangent_map(trials, np.eye(3))
        for bad in (np.eye(4), np.stack([np.eye(4)] * 2)):
            with pytest.raises(InvalidInput, match=r"expected a \(3, 3\)"):
                tangent_map(bad, np.eye(3))

    @settings(max_examples=40)
    @given(st.integers(1, 16), st.floats(0.0, 8.0),
           st.integers(0, 2**32 - 1))
    def test_norm_is_distance(self, dim, log_spread, seed):
        # both read the spectrum of one whitened matrix; the norm also
        # rounds through V log(w) V^T, d eps relative to max |log w|
        rng = np.random.default_rng(seed)
        c, r = (random_spd(dim, rng, log_spread) for _ in range(2))
        norm = np.linalg.norm(tangent_map(c, r))
        dist = airm_distance(r, c)
        assert abs(norm - dist) <= 1e-12 * dist


class TestTsLr:
    def test_perfect_separation_gives_auc_one(self):
        rng = np.random.default_rng(16)
        trials = np.concatenate([
            spd_cloud(np.diag([0.2, 1.0]), 0.05, 15, rng),
            spd_cloud(np.diag([5.0, 1.0]), 0.05, 15, rng),
        ])
        labels = np.repeat([0, 1], 15)
        model = ts_lr_fit(trials, labels)
        scores = [ts_lr_score(model, t)[1] for t in trials]
        assert auc_roc(scores, labels) == 1.0

    def test_identical_features_fall_back_to_priors(self):
        rng = np.random.default_rng(17)
        c = random_spd(3, rng)
        trials = np.stack([c] * 12)
        labels = np.array([0] * 4 + [1] * 8)
        model = ts_lr_fit(trials, labels)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-9)
        _, score = ts_lr_score(model, c)
        assert abs(score - np.log(2.0)) <= 1e-6  # log(8/4)

    def test_rounding_level_spread_is_neutralized(self):
        # identical trials leave tangent coordinates whose spread is
        # rounding (down to 1e-35), not exactly 0; standardizing those
        # to unit scale gave scores such as 9280 instead of log(5/2)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for d in (3, 6, 12):
                a = rng.standard_normal((d, d))
                c = a @ a.T + d * np.eye(d)
                for n in (7, 12, 30):
                    labels = np.array([0, 0] + [1] * (n - 2))
                    model = ts_lr_fit(np.stack([c] * n), labels)
                    assert np.all(model.weights == 0.0), (seed, d, n)
                    _, score = ts_lr_score(model, c)
                    assert abs(score - np.log((n - 2) / 2)) <= 1e-9

    def test_matches_irls_oracle(self):
        rng = np.random.default_rng(18)
        trials, labels = dispersion_classes(rng, n=15, sigmas=(0.2, 0.5))
        model = ts_lr_fit(trials, labels)
        # rebuild the standardized design the model trained on
        feats = tangent_map(trials, model.reference)
        x = (feats - model.feature_mean) / model.feature_scale
        w_ref, b_ref = irls_logistic(x, (labels == 1).astype(float))
        np.testing.assert_allclose(model.weights[0], w_ref, atol=1e-6)
        assert abs(model.intercepts[0] - b_ref) <= 1e-6
        for t in trials[:5]:
            logit = ts_lr_score(model, t)[1]
            xx = (tangent_map(t, model.reference) - model.feature_mean)
            xx /= model.feature_scale
            assert abs(logit - (w_ref @ xx + b_ref)) <= 1e-6

    @pytest.mark.parametrize("sigmas, n, seed", [
        ((0.5870542770648245, 0.4766301534560055), 22, 488849),
        ((0.428645701814017, 0.2639067831885071, 0.12430307776232616), 57,
         650459),
    ])
    def test_converges_where_loss_change_is_below_rounding(self, sigmas, n,
                                                            seed):
        # the last Newton steps change the loss by less than its rounding
        # error; on these sets a sufficient-decrease test alone stalls at
        # gradient norm 2e-8 to 6e-8
        spec = RiemannianGaussianSpec(dim=5, sigmas=sigmas,
                                      trials_per_class=n, seed=seed)
        trials = synth_riemannian_gaussian(spec)
        model = ts_lr_fit(trials.trials, trials.labels)
        assert np.all(np.isfinite(model.weights))

    @pytest.mark.parametrize("sigmas", [(0.2, 0.5), (0.2, 0.35, 0.5)])
    def test_matches_lbfgs_newton_oracle(self, sigmas):
        rng = np.random.default_rng(20)
        trials, labels = dispersion_classes(rng, n=20, dim=4, sigmas=sigmas)
        model = ts_lr_fit(trials, labels)
        feats = tangent_map(trials, model.reference)
        x = (feats - model.feature_mean) / model.feature_scale
        positives = model.classes[1:] if len(sigmas) == 2 else model.classes
        for w, b, c in zip(model.weights, model.intercepts, positives):
            w_ref, b_ref = lbfgs_newton_logistic(x, (labels == c) * 1.0)
            np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=1e-9)
            assert abs(b - b_ref) <= 1e-9

    @pytest.mark.parametrize("name", [
        "LR_GRAD_TOL", "LR_PENALTY", "_logistic_hessian"])
    def test_unfinished_fit_is_convergence_failure(self, monkeypatch, name):
        rng = np.random.default_rng(17)
        trials, labels = dispersion_classes(rng, n=6)
        if name == "LR_GRAD_TOL":
            # no tolerance: the steps within rounding of the optimum run
            # out the loop
            monkeypatch.setattr(classifiers, name, 0.0)
        elif name == "LR_PENALTY":
            # no penalty on all-zero features: the Hessian is singular
            monkeypatch.setattr(classifiers, name, 0.0)
            trials = np.stack([random_spd(3, rng)] * 12)
            labels = np.array([0] * 4 + [1] * 8)
        else:
            # an uphill step: no halving lowers the loss or the gradient
            hessian = classifiers._logistic_hessian
            monkeypatch.setattr(classifiers, name, lambda *a: -hessian(*a))
        with pytest.raises(ConvergenceFailure,
                           match=r"^logistic regression gradient norm "
                                 rf"\S+ exceeds {classifiers.LR_GRAD_TOL}$"
                           ) as failure:
            ts_lr_fit(trials, labels)
        assert failure.value.residual > classifiers.LR_GRAD_TOL

    def test_malformed_training_set_is_invalid_input(self):
        rng = np.random.default_rng(31)
        trials, labels = dispersion_classes(rng, n=10)
        with pytest.raises(InvalidInput, match="one label per"):
            ts_lr_fit(trials, labels[:18])
        with pytest.raises(InvalidInput, match="one label per"):
            ts_lr_fit(trials[0], labels[:3])
        with pytest.raises(InvalidInput, match="one label per"):
            ts_lr_fit(trials, labels[:, None])

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(19)
        trials = np.concatenate([
            spd_cloud(np.diag([0.3, 1.0]), 0.05, 8, rng),
            spd_cloud(np.diag([1.0, 1.0]), 0.05, 8, rng),
            spd_cloud(np.diag([4.0, 1.0]), 0.05, 8, rng),
        ])
        labels = np.repeat([0, 1, 2], 8)
        model = ts_lr_fit(trials, labels)
        correct = sum(ts_lr_score(model, t)[0] == y
                      for t, y in zip(trials, labels))
        assert correct / len(labels) >= 0.9


LABELLED_FITS = {
    "MDM": mdm_fit, "MDMF": mdmf_fit, "MF": mf_fit, "TS+LR": ts_lr_fit,
    "LDA": lambda trials, labels: lda_fit(
        trials.reshape(len(trials), -1), labels),
    "CSP": csp_fit, "ADCSP": adcsp_fit,
}


class TestLabelledContract:
    """Every fit takes a stack of trials with one label each and at
    least two classes, and refuses any other labelling with
    :class:`InvalidInput`."""

    @pytest.mark.parametrize("name", LABELLED_FITS)
    def test_labels_one_short(self, name):
        trials, labels = dispersion_classes(np.random.default_rng(40), n=6)
        with pytest.raises(InvalidInput, match="^need one label per trial"):
            LABELLED_FITS[name](trials, labels[:-1])

    @pytest.mark.parametrize("name", LABELLED_FITS)
    def test_single_class(self, name):
        trials, labels = dispersion_classes(np.random.default_rng(41), n=6)
        with pytest.raises(InvalidInput,
                           match="^training needs at least 2 classes, got 1$"):
            LABELLED_FITS[name](trials, np.zeros_like(labels))

    @pytest.mark.parametrize("fit", [csp_fit, adcsp_fit])
    def test_two_class_filters_refuse_three_classes(self, fit):
        trials, labels = dispersion_classes(np.random.default_rng(42), n=6,
                                            sigmas=(0.1, 0.3, 0.5))
        with pytest.raises(InvalidInput, match="exactly 2 classes, got 3$"):
            fit(trials, labels)

    def test_discriminant_needs_more_rows_than_classes(self):
        with pytest.raises(InvalidInput, match="more trials than classes"):
            lda_fit(np.eye(2), [0, 1])

    def test_classes_and_members(self):
        covs, members = _labelled_set(np.zeros((5, 2, 2)), ["b", "a", "b",
                                                            "c", "a"])
        assert list(members) == ["a", "b", "c"]
        assert [m.tolist() for m in members.values()] == [[1, 4], [0, 2],
                                                         [3]]
        assert covs.dtype == np.float64


SCORERS = {
    "MDM": (mdm_fit, mdm_score),
    "MDMF": (mdmf_fit, mdm_score),
    "MF": (mf_fit, mf_score),
    "TS+LR": (ts_lr_fit, ts_lr_score),
}


def fitted_scorer(name, n_classes, rng):
    """A model of the named pipeline on 3x3 trials, its scorer, and 12
    probe trials."""
    trials, labels = dispersion_classes(
        rng, n=15, sigmas=(0.15, 0.5, 0.3)[:n_classes])
    fit, score = SCORERS[name]
    return fit(trials, labels), score, spd_cloud(np.eye(3), 0.4, 12, rng)


class TestStackScoring:
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("name", sorted(SCORERS))
    def test_stack_equals_per_trial(self, name, n_classes):
        rng = np.random.default_rng(23)
        model, score, probes = fitted_scorer(name, n_classes, rng)
        labels, scores = score(model, probes)
        singles = [score(model, p) for p in probes]
        assert labels.shape == (len(probes),)
        assert labels.tolist() == [lab for lab, _ in singles]
        expected = np.array([s for _, s in singles])
        assert scores.shape == expected.shape
        if name in ("MDM", "MDMF"):
            np.testing.assert_array_equal(scores, expected)
        else:
            # one row goes through gemv, a stack through gemm; MF rounds
            # relative to its discriminants, before their difference
            scale = 0.0
            if name == "MF":
                feats = distance_features(model, probes)
                scale = np.abs(feats @ model.lda._coef.T
                               + model.lda._intercept).max()
            np.testing.assert_allclose(scores, expected, rtol=1e-9,
                                       atol=1e-9 * scale)

    @settings(max_examples=20)
    @given(two_classes(), st.integers(1, 20))
    def test_stack_scoring_is_per_trial_scoring(self, case, n_probes):
        # a trial's features are the same arithmetic alone or in a
        # stack (the kernel decomposes matrix by matrix); only the
        # linear head differs, a gemv against a gemm. Each rounds a
        # k-term product within (k + 1) eps of sum |x_j w_j| + |b|, so
        # the two scores differ by at most twice that, summed over the
        # discriminants a binary score subtracts
        trials, labels, rng = case
        probes = spd_cloud(np.mean(trials, axis=0), 0.5, n_probes, rng)
        eps = np.finfo(float).eps
        for name in ("MDM", "MF", "TS+LR"):
            fit, score = SCORERS[name]
            model = fit(trials, labels)
            stack_labels, stack_scores = score(model, probes)
            singles = [score(model, p) for p in probes]
            assert stack_labels.tolist() == [lab for lab, _ in singles]
            single_scores = np.array([s for _, s in singles])
            if name == "MDM":
                np.testing.assert_array_equal(stack_scores, single_scores)
                continue
            if name == "MF":
                x = distance_features(model, probes)
                w, b = model.lda._coef, model.lda._intercept
            else:
                x = (tangent_map(probes, model.reference)
                     - model.feature_mean) / model.feature_scale
                w, b = model.weights, model.intercepts
            bound = 2 * (x.shape[1] + 1) * eps * (
                np.abs(x) @ np.abs(w).T + np.abs(b)).sum(axis=1)
            assert np.all(np.abs(stack_scores - single_scores) <= bound)

    @pytest.mark.parametrize("block", [1, 1000])
    @pytest.mark.parametrize("name", ["MDM", "MDMF", "MF", "AIRM"])
    def test_blocked_kernel_matches_one_call(self, name, block,
                                             monkeypatch):
        # 1 entry: one trial per eigh call; 1000 entries: one call for
        # MDM (18 entries a trial) and airm_distance (9), blocks of 5, 5
        # and 2 trials for the 22 means of MDMF and MF
        rng = np.random.default_rng(26)
        if name == "AIRM":
            model, probes = random_spd(3, rng), spd_cloud(np.eye(3), 0.4, 12,
                                                          rng)

            def score(reference, covs):
                return None, airm_distance(reference, covs)
        else:
            model, score, probes = fitted_scorer(name, 2, rng)
        labels, scores = score(model, probes)
        monkeypatch.setattr(geometry, "KERNEL_BLOCK", block)
        blocked_labels, blocked_scores = score(model, probes)
        np.testing.assert_array_equal(blocked_labels, labels)
        np.testing.assert_array_equal(blocked_scores, scores)
        indefinite = probes.copy()
        indefinite[-1] = np.diag([1.0, 2.0, -1.0])
        with pytest.raises(InvalidInput):
            score(model, indefinite)

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("name", sorted(SCORERS))
    def test_single_trial_return_types(self, name, n_classes):
        rng = np.random.default_rng(24)
        model, score, probes = fitted_scorer(name, n_classes, rng)
        label, value = score(model, probes[0])
        assert label in range(n_classes) and np.ndim(label) == 0
        if n_classes == 2:
            assert type(value) is float
        else:
            assert isinstance(value, np.ndarray)
            assert value.shape == (n_classes,)

    @pytest.mark.parametrize("name", sorted(SCORERS))
    def test_bad_stacks_rejected(self, name):
        rng = np.random.default_rng(25)
        model, score, probes = fitted_scorer(name, 2, rng)
        with pytest.raises(InvalidInput):
            score(model, np.stack([np.eye(4)] * 3))  # wrong dimension
        with pytest.raises(InvalidInput):
            score(model, probes[None])  # a stack of stacks
        with pytest.raises(InvalidInput):
            score(model, probes[:0])  # empty stack
        indefinite = probes.copy()
        indefinite[5] = np.diag([1.0, 2.0, -1.0])
        with pytest.raises(InvalidInput):
            score(model, indefinite)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["MDM", "MF", "TS+LR"])
    def test_non_finite_trial_named(self, name, bad):
        # refused by name before any decomposition, alike for every
        # scorer, in a stack and alone
        rng = np.random.default_rng(27)
        model, score, probes = fitted_scorer(name, 2, rng)
        probes = probes[:4]
        probes[2, 0, 1] = bad
        with pytest.raises(InvalidInput,
                           match="^trial 2 contains non-finite entries$"):
            score(model, probes)
        with pytest.raises(InvalidInput,
                           match="^trial 0 contains non-finite entries$"):
            score(model, probes[2])

    @pytest.mark.parametrize("name", ["MDM", "MF", "TS+LR"])
    def test_first_non_pd_trial_named(self, name):
        # the first non-PD trial, not the one with the smallest
        # eigenvalue, read from the eigenvalues the scorer computes
        rng = np.random.default_rng(26)
        model, score, probes = fitted_scorer(name, 2, rng)
        probes[2] = np.diag([1.0, 2.0, -1.0])
        probes[7] = np.diag([-5.0, 2.0, 1.0])
        with pytest.raises(InvalidInput,
                           match=r"^trial 2 is not positive definite "
                                 r"\(smallest eigenvalue "
                                 r"-\d\.\d{3}e[+-]\d{2}\)$"):
            score(model, probes)

    @pytest.mark.parametrize("name,where", [
        ("MDM", "class 1: trial 3"), ("MF", "class 1: trial 3"),
        ("CSP", "class 1: trial 3"), ("ADCSP", "class 1: trial 3"),
        ("TS+LR", "trial 9"),
    ])
    def test_non_finite_training_trial_named(self, name, where):
        # trial 9 of the training stack, trial 3 of class 1: the per-class
        # fits name it within its class, TS+LR within the stack; at d = 3
        # ADCSP takes its identity path
        trials, labels = dispersion_classes(np.random.default_rng(28), n=6)
        trials[9, 1, 0] = np.nan
        fit = ({"CSP": csp_fit, "ADCSP": adcsp_fit}.get(name)
               or SCORERS[name][0])
        with pytest.raises(InvalidInput,
                           match=f"^{where} contains non-finite entries$"):
            fit(trials, labels)


FIELD_PIPELINES = ["MDM", "MDMF", "MF"]


class TestFieldModel:
    @pytest.mark.parametrize("name", FIELD_PIPELINES)
    def test_one_model_type(self, name):
        model, _, _ = fitted_scorer(name, 2, np.random.default_rng(27))
        assert isinstance(model, FieldModel)
        assert (model.lda is None) == (name != "MF")
        assert model.n_features == len(model.whiteners) == sum(
            len(model.field.entries[c]) for c in model.classes)
        assert model.dim == 3

    @pytest.mark.parametrize("name", FIELD_PIPELINES)
    def test_arrays_read_only(self, name):
        model, _, _ = fitted_scorer(name, 2, np.random.default_rng(28))
        with pytest.raises(ValueError):
            model.whiteners[0, 0, 0] = 1.0
        for c in model.classes:
            for entry in model.field.entries[c]:
                with pytest.raises(ValueError):
                    entry.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("name", FIELD_PIPELINES)
    def test_scoring_reuses_fitted_whiteners(self, name, monkeypatch):
        # the whiteners are solved once at fit time; scoring a trial or
        # a stack takes no further inverse square root
        model, score, probes = fitted_scorer(name, 2,
                                             np.random.default_rng(29))
        expected = score(model, probes)

        def no_invsqrtm(*args, **kwargs):
            raise AssertionError("invsqrtm called while scoring")
        monkeypatch.setattr(classifiers, "invsqrtm", no_invsqrtm)
        labels, scores = score(model, probes)
        score(model, probes[0])
        np.testing.assert_array_equal(labels, expected[0])
        np.testing.assert_array_equal(scores, expected[1])


class TestInvariances:
    def test_prediction_invariance_under_congruence(self):
        rng = np.random.default_rng(20)
        trials, labels = dispersion_classes(rng, n=12, sigmas=(0.15, 0.5))
        probes = spd_cloud(np.eye(3), 0.4, 10, rng)
        w = random_gl(3, rng, max_cond=50.0)
        t_trials = w @ trials @ w.T
        t_probes = w @ probes @ w.T

        # solve far below the comparison tolerance: the invariance is a
        # property of the exact means, not of loosely converged ones
        cfg = SolverConfig(tolerance=1e-12, max_iterations=2000)
        mdm_a = mdm_fit(trials, labels, config=cfg)
        mdm_b = mdm_fit(t_trials, labels, config=cfg)
        mdmf_a = mdmf_fit(trials, labels, config=cfg)
        mdmf_b = mdmf_fit(t_trials, labels, config=cfg)
        mf_a = mf_fit(trials, labels, config=cfg)
        mf_b = mf_fit(t_trials, labels, config=cfg)
        for p, tp in zip(probes, t_probes):
            assert mdm_score(mdm_a, p)[0] == mdm_score(mdm_b, tp)[0]
            assert mdm_score(mdmf_a, p)[0] == mdm_score(mdmf_b, tp)[0]
            assert mf_score(mf_a, p)[0] == mf_score(mf_b, tp)[0]
            fa = distance_features(mdmf_a, p)
            fb = distance_features(mdmf_b, tp)
            assert np.abs(fa - fb).max() <= 1e-8 * max(fa.max(), 1.0)

    def test_mf_with_argmin_on_single_mean_equals_mdm(self):
        # with the one-point grid the field holds only the geometric
        # means; choosing the class whose single squared distance is
        # smallest is exactly the nearest-mean rule
        rng = np.random.default_rng(21)
        trials, labels = dispersion_classes(rng, n=12)
        probes = spd_cloud(np.eye(3), 0.4, 20, rng)
        mdmf = mdmf_fit(trials, labels, h_grid=(0.0,))
        mdm = mdm_fit(trials, labels)
        for p in probes:
            feats = distance_features(mdmf, p)
            argmin_label = mdmf.classes[int(np.argmin(feats))]
            assert argmin_label == mdm_score(mdm, p)[0]

    def test_scores_deterministic(self):
        rng = np.random.default_rng(22)
        trials, labels = dispersion_classes(rng, n=10)
        probe = trials[0]
        m1 = mf_fit(trials, labels)
        m2 = mf_fit(trials, labels)
        assert mf_score(m1, probe) == mf_score(m2, probe)
        t1 = ts_lr_fit(trials, labels)
        t2 = ts_lr_fit(trials, labels)
        assert ts_lr_score(t1, probe) == ts_lr_score(t2, probe)


def _rows_close(actual, expected, rtol):
    """Each row within ``rtol`` of its largest absolute expected entry."""
    scale = np.abs(expected).max(axis=-1, keepdims=True)
    return np.all(np.abs(actual - expected) <= rtol * scale)


class TestSolverSpectra:
    """Fits read training distances and tangent vectors from the last
    step of the mean solves; they match the kernel's to rounding."""

    @settings(max_examples=30)
    @given(field_training_sets())
    def test_mf_training_features_match_kernel(self, case):
        trials, labels, grid, outlier, identical = case
        for robust in (False, True):
            model = mf_fit(trials, labels, h_grid=grid, robust=robust)
            if robust and outlier:
                assert 0 not in model.field.kept[0]
            if identical:
                assert all(e.iterations == 0
                           for e in model.field.entries[1])
            _, members = _labelled_set(trials, labels)
            feats = classifiers._training_features(model, trials, members)
            assert _rows_close(feats, distance_features(model, trials),
                               1e-12)

    @settings(max_examples=30)
    @given(two_classes())
    def test_ts_lr_tangent_vectors_match_tangent_map(self, case):
        trials, _, _ = case
        solved = geometric_mean(trials)
        vectors = classifiers._solver_tangent_vectors(solved)
        assert _rows_close(vectors, tangent_map(trials, solved.matrix),
                           1e-12)
