"""Fold construction, AUC, and the cross-validated pipeline runner."""

import re

import numpy as np
import pytest

from meansfield import evaluation
from meansfield.evaluation import (
    EvalConfig, ScoreRow, TrialSet, _stratified_kfold, auc_roc,
    parse_pipeline, run_pipeline,
)
from meansfield.exceptions import InvalidInput, UndefinedMetric

from oracles import brute_force_auc, spd_cloud


def make_trialset(rng, centers, sigma=0.05, n=20, subjects=("s01",),
                  dataset="synth"):
    """Covariance-kind trial set: one cloud per class per subject."""
    trials, labels, subj, sess = [], [], [], []
    for subject in subjects:
        for label, center in enumerate(centers):
            cloud = spd_cloud(center, sigma, n, rng)
            trials.append(cloud)
            labels.extend([label] * n)
            subj.extend([subject] * n)
            sess.extend(["0"] * n)
    return TrialSet(
        dataset_id=dataset, kind="covariance",
        trials=np.concatenate(trials), labels=np.array(labels),
        subjects=np.array(subj, dtype=object),
        sessions=np.array(sess, dtype=object),
    )


def record_folds(monkeypatch, trialset):
    """Wrap ``evaluation._fit_and_score`` so that each fold appends its
    (training, held-out) sets of global trial indices, found by the
    bytes of each trial it was given."""
    index = {t.tobytes(): i for i, t in enumerate(trialset.trials)}
    assert len(index) == trialset.n_trials
    folds = []
    fit_and_score = evaluation._fit_and_score

    def recording(filter_kind, clf_kind, train, labels, test):
        folds.append(({index[t.tobytes()] for t in train},
                      {index[t.tobytes()] for t in test}))
        return fit_and_score(filter_kind, clf_kind, train, labels, test)

    monkeypatch.setattr(evaluation, "_fit_and_score", recording)
    return folds


SEPARABLE_CENTERS = (np.diag([10.0, 1.0, 1.0]), np.diag([1.0, 10.0, 1.0]))


class TestParsePipeline:
    @pytest.mark.parametrize("name,expected", [
        ("MDM", (None, "MDM")),
        ("MDMF", (None, "MDMF")),
        ("MF", (None, "MF")),
        ("MF_RPME", (None, "MF_RPME")),
        ("TS+LR", (None, "TS+LR")),
        ("CSP+MF", ("CSP", "MF")),
        ("ADCSP+MDM", ("ADCSP", "MDM")),
        ("ADCSP+TS+LR", ("ADCSP", "TS+LR")),
    ])
    def test_valid_names(self, name, expected):
        assert parse_pipeline(name) == expected

    @pytest.mark.parametrize("name", ["LDA", "MF+", "XCSP+MF", "mf", ""])
    def test_invalid_names(self, name):
        with pytest.raises(InvalidInput):
            parse_pipeline(name)

    def test_eval_config_validates(self):
        with pytest.raises(InvalidInput):
            EvalConfig(pipeline="MDM", seed=3, k=1)
        for kwargs in ({"seed": 3, "k": 2.5}, {"seed": 1.7}, {"seed": -1},
                       {"seed": 2**64}, {"seed": True},
                       {"seed": 3, "k": True}):
            # a bool is no integer, as the score-table reader holds too
            field = "k" if "k" in kwargs else "seed"
            with pytest.raises(InvalidInput, match=f"^{field} must be"):
                EvalConfig(pipeline="MDM", **kwargs)
        # numpy integers are integers
        config = EvalConfig(pipeline="MDM", seed=np.uint64(2**64 - 1),
                            k=np.int32(3))
        assert (config.seed, config.k) == (2**64 - 1, 3)
        with pytest.raises(InvalidInput):
            EvalConfig(pipeline="NOPE", seed=3)


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        labels = np.array([0] * 5 + [1] * 5)
        folds = _stratified_kfold(labels, 5, seed=0)
        for fold in folds:
            assert len(fold) == 2
            assert labels[fold].sum() == 1  # one of each class

    def test_partition(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 37)
        labels[:10] = 0
        labels[10:20] = 1
        folds = _stratified_kfold(labels, 5, seed=9)
        joined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(joined, np.arange(37))

    def test_determinism(self):
        labels = np.array([0] * 11 + [1] * 9)
        a = _stratified_kfold(labels, 5, seed=123)
        b = _stratified_kfold(labels, 5, seed=123)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        c = _stratified_kfold(labels, 5, seed=124)
        assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))

    def test_near_balance_11_9(self):
        labels = np.array([0] * 11 + [1] * 9)
        folds = _stratified_kfold(labels, 5, seed=5)
        for cls, total in ((0, 11), (1, 9)):
            counts = [int(np.sum(labels[f] == cls)) for f in folds]
            assert sum(counts) == total
            assert max(counts) - min(counts) <= 1

    def test_small_class_rejected(self):
        labels = np.array([0] * 8 + [1] * 4)
        with pytest.raises(InvalidInput):
            _stratified_kfold(labels, 5, seed=0)

    @pytest.mark.parametrize("k, seed", [
        (2.5, 0), (5.0, 0), (1, 0), (5, -1), (5, 1.7), (5, 2**64),
    ])
    def test_fold_arguments_follow_eval_config(self, k, seed):
        # the folds take k and seed from an EvalConfig, the one place
        # they are checked
        with pytest.raises(InvalidInput):
            EvalConfig(pipeline="MDM", seed=seed, k=k)

    def test_numpy_integer_arguments_accepted(self):
        labels = np.array([0] * 6 + [1] * 6)
        numpy_ints = EvalConfig(pipeline="MDM", seed=np.uint64(2**64 - 1),
                                k=np.int32(3))
        for got, want in zip(
                _stratified_kfold(labels, numpy_ints.k, numpy_ints.seed),
                _stratified_kfold(labels, 3, 2**64 - 1)):
            np.testing.assert_array_equal(got, want)


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties_half(self):
        assert auc_roc([0.3] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_hand_case(self):
        scores = [0.8, 0.3, 0.5, 0.1]
        labels = [1, 1, 0, 0]
        assert auc_roc(scores, labels) == 0.75

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            # draw from a small value set to force ties
            scores = rng.choice([0.1, 0.2, 0.5, 0.7, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            if len(np.unique(labels)) < 2:
                continue
            assert auc_roc(scores, labels) == brute_force_auc(scores, labels)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=25)
        labels = rng.integers(0, 2, size=25)
        labels[0], labels[1] = 0, 1
        base = auc_roc(scores, labels)
        assert auc_roc(np.exp(scores), labels) == base
        assert auc_roc(3.0 * scores + 11.0, labels) == base

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            auc_roc([0.1, 0.2], [1, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInput):
            auc_roc([0.1, 0.2, 0.3], [0, 1, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(InvalidInput, match="non-finite"):
            auc_roc([bad, 1.0, 0.5], [0, 1, 1])


def _trial_set(**changes):
    fields = dict(dataset_id="d", kind="covariance",
                  trials=np.stack([np.eye(2)] * 4), labels=[0, 0, 1, 1],
                  subjects=["s"] * 4, sessions=["0"] * 4)
    return TrialSet(**{**fields, **changes})


MALFORMED_RECORDS = {
    "auc above 1": (lambda: ScoreRow("d", "s", "0", 0, 1.5, 0.0),
                    "auc 1.5 outside [0, 1]"),
    "unknown kind": (lambda: _trial_set(kind="eeg"),
                     "unknown trial kind 'eeg'"),
    "2-d trials": (lambda: _trial_set(trials=np.eye(4)),
                   "trials must be a 3-d stack"),
    "labels short": (lambda: _trial_set(labels=[0, 1]),
                     "labels must have one entry per trial"),
    "sessions short": (lambda: _trial_set(sessions=["0"]),
                       "sessions must have one entry per trial"),
    "auc lengths": (lambda: auc_roc([0.1, 0.2, 0.3], [0, 1]),
                    "need one score per label"),
    "run config": (lambda: run_pipeline(_trial_set(), "MDM"),
                   "config must be an EvalConfig"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_records_refused(case):
    call, message = MALFORMED_RECORDS[case]
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()


def per_group_oracle(trialset):
    """Groups as a full rescan of the ids per (subject, session) finds
    them: the definition that :meth:`TrialSet.groups` must reproduce."""
    keys = sorted({(str(s), str(e))
                   for s, e in zip(trialset.subjects, trialset.sessions)})
    return [(s, e, np.flatnonzero((trialset.subjects.astype(str) == s)
                                  & (trialset.sessions.astype(str) == e)))
            for s, e in keys]


class TestGroups:
    def test_interleaved_mixed_ids_match_rescan(self):
        # 240 subject ids, str and int, of which "7" and 7 print alike,
        # by 3 sessions, str and int: 717 groups, trials shuffled
        rng = np.random.default_rng(12)
        subjects = [f"s{i:03d}" for i in range(120)] + list(range(119)) + [
            "7"]
        sessions = ["a", 0, "1"]
        pairs = [(s, e) for s in subjects for e in sessions] * 3
        order = rng.permutation(len(pairs))
        n = len(pairs)
        ts = TrialSet(
            dataset_id="mixed", kind="covariance",
            trials=np.broadcast_to(np.eye(2), (n, 2, 2)),
            labels=np.arange(n) % 2,
            subjects=np.array([pairs[i][0] for i in order], dtype=object),
            sessions=np.array([pairs[i][1] for i in order], dtype=object),
        )
        groups = ts.groups()
        expected = per_group_oracle(ts)
        assert len(groups) == len(expected) == 717
        for (s, e, idx), (s0, e0, idx0) in zip(groups, expected):
            assert (type(s), type(e)) == (str, str)
            assert (s, e) == (s0, e0)
            assert idx.dtype == idx0.dtype == np.intp
            np.testing.assert_array_equal(idx, idx0)
        assert sum(idx.size for _, _, idx in groups) == n


class TestRunPipeline:
    def test_separable_mdm_is_perfect(self):
        rng = np.random.default_rng(3)
        ts = make_trialset(rng, SEPARABLE_CENTERS, n=20)
        table = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=7))
        assert len(table.rows) == 5
        assert table.mean_auc() == 1.0
        for row in table.rows:
            assert row.error is None
            assert row.fold_time_seconds >= 0.0

    def test_folds_identical_across_pipelines(self, monkeypatch):
        rng = np.random.default_rng(4)
        ts = make_trialset(rng, SEPARABLE_CENTERS, n=10)
        folds = record_folds(monkeypatch, ts)
        for pipeline in ("MDM", "MDMF"):
            run_pipeline(ts, EvalConfig(pipeline=pipeline, seed=11))
        held_out = [sorted(test) for _, test in folds]
        assert len(held_out) == 10
        assert held_out[:5] == held_out[5:]

    def test_adcsp_reduces_dimension_seen_by_classifier(self, monkeypatch):
        rng = np.random.default_rng(5)
        centers = (
            np.diag(np.linspace(1.0, 4.0, 16)),
            np.diag(np.linspace(4.0, 1.0, 16)),
        )
        ts = make_trialset(rng, centers, n=10)
        dims = []
        mf_fit = evaluation.mf_fit

        def recording_fit(train, labels, **kwargs):
            dims.append(train.shape[-1])
            return mf_fit(train, labels, **kwargs)

        monkeypatch.setattr(evaluation, "mf_fit", recording_fit)
        table = run_pipeline(ts, EvalConfig(pipeline="ADCSP+MF", seed=3))
        assert dims == [10] * 5
        assert all(r.error is None for r in table.rows)

    def test_no_information_leak(self, monkeypatch):
        rng = np.random.default_rng(6)
        ts = make_trialset(rng, SEPARABLE_CENTERS, n=10,
                           subjects=("s01", "s02"))
        folds = record_folds(monkeypatch, ts)
        run_pipeline(ts, EvalConfig(pipeline="ADCSP+MDM", seed=1))
        assert len(folds) == 10
        for trained_on, held_out in folds:
            assert trained_on and held_out
            assert not (trained_on & held_out)

    def test_errors_recorded_run_continues(self):
        rng = np.random.default_rng(7)
        # CSP needs 8 rows; dimension 3 cannot provide them, every fold
        # fails but the table still carries k rows per session
        ts = make_trialset(rng, SEPARABLE_CENTERS, n=10)
        table = run_pipeline(ts, EvalConfig(pipeline="CSP+MDM", seed=2))
        assert len(table.rows) == 5
        assert all(r.auc is None and r.error is not None
                   for r in table.rows)
        with pytest.raises(InvalidInput):
            table.mean_auc()

    def test_non_finite_scores_recorded_as_fold_error(self, monkeypatch):
        rng = np.random.default_rng(14)
        ts = make_trialset(rng, SEPARABLE_CENTERS, n=10)
        fit_and_score = evaluation._fit_and_score
        calls = []

        def first_fold_nan(*args):
            scores = fit_and_score(*args)
            calls.append(args)
            if len(calls) == 1:
                scores = np.where(np.arange(scores.size) == 0, np.nan, scores)
            return scores

        monkeypatch.setattr(evaluation, "_fit_and_score", first_fold_nan)
        table = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=3))
        assert len(calls) == len(table.rows) == 5
        assert table.rows[0].auc is None
        assert table.rows[0].error == (
            "InvalidInput: scores contain non-finite values")
        assert all(r.auc is not None and r.error is None
                   for r in table.rows[1:])

    def test_multiclass_rejected(self):
        rng = np.random.default_rng(8)
        centers = (np.eye(3), 2 * np.eye(3), 3 * np.eye(3))
        ts = make_trialset(rng, centers, n=8)
        with pytest.raises(InvalidInput):
            run_pipeline(ts, EvalConfig(pipeline="MDM", seed=0))

    def test_undersized_group_recorded_run_continues(self):
        rng = np.random.default_rng(12)
        ts = make_trialset(rng, SEPARABLE_CENTERS, n=10)
        # s02 has 10 + 3 trials: too few of class 1 for k = 5 folds
        small = make_trialset(rng, SEPARABLE_CENTERS, n=10,
                              subjects=("s02",))
        keep = np.r_[0:10, 10:13]
        ts = TrialSet(
            dataset_id=ts.dataset_id, kind=ts.kind,
            trials=np.concatenate([ts.trials, small.trials[keep]]),
            labels=np.concatenate([ts.labels, small.labels[keep]]),
            subjects=np.concatenate([ts.subjects, small.subjects[keep]]),
            sessions=np.concatenate([ts.sessions, small.sessions[keep]]),
        )
        for workers in (1, 2):
            table = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=3),
                                 workers=workers)
            assert [(r.subject, r.fold) for r in table.rows] == [
                (s, f) for s in ("s01", "s02") for f in range(5)]
            scored, failed = table.rows[:5], table.rows[5:]
            assert all(r.auc == 1.0 and r.error is None for r in scored)
            for r in failed:
                assert r.auc is None and r.fold_time_seconds == 0.0
                assert r.error == ("InvalidInput: class 1 has 3 trials, "
                                   "fewer than k=5")

    @pytest.mark.parametrize("pipeline", ["MDM", "CSP+MDM", "ADCSP+MDM"])
    def test_non_spd_trial_fails_its_group(self, pipeline):
        # one indefinite trial of s02 fails all of s02's folds with one
        # message naming its index in the group, with or without a
        # filter that could project the bad direction away; s01 scores
        # as it does alone
        rng = np.random.default_rng(15)
        centers = (np.diag(np.linspace(1.0, 4.0, 12)),
                   np.diag(np.linspace(4.0, 1.0, 12)))
        good = make_trialset(rng, centers, n=10)
        both = make_trialset(rng, centers, n=10, subjects=("s01", "s02"))
        both.trials[:20] = good.trials
        local = 13
        both.trials[20 + local] = np.diag([-0.5] + [1.0] * 11)
        config = EvalConfig(pipeline=pipeline, seed=8)
        table = run_pipeline(both, config)
        alone = run_pipeline(good, config)
        assert [(r.subject, r.fold, r.auc, r.error) for r in table.rows[:5]] \
            == [(r.subject, r.fold, r.auc, r.error) for r in alone.rows]
        assert all(r.error is None for r in alone.rows)
        failed = table.rows[5:]
        assert [(r.subject, r.fold) for r in failed] == [
            ("s02", f) for f in range(5)]
        assert {r.error for r in failed} == {
            f"InvalidInput: filtered matrix {local} is not positive "
            "definite (smallest eigenvalue -5.000e-01)"}
        assert all(r.auc is None and r.fold_time_seconds == 0.0
                   for r in failed)

    @pytest.mark.parametrize("kind,where", [
        ("covariance", "filtered matrix 7"), ("time-series", "trial 5"),
    ])
    def test_non_finite_trial_fails_its_group(self, kind, where):
        # a NaN in one trial of s02 fails s02's folds with one message
        # naming the trial by its index in the group: covariance trial 7
        # from the identity stage, time-series trial 5 before its
        # covariance is estimated; s01 scores
        rng = np.random.default_rng(18)
        local = int(where.split()[-1])
        if kind == "covariance":
            ts = make_trialset(rng, SEPARABLE_CENTERS, n=10,
                               subjects=("s01", "s02"))
        else:
            ts = TrialSet(
                dataset_id="noise", kind=kind,
                trials=rng.standard_normal((40, 4, 32)),
                labels=np.tile(np.repeat([0, 1], 10), 2),
                subjects=np.repeat(np.array(["s01", "s02"], dtype=object),
                                   20),
                sessions=np.array(["0"] * 40, dtype=object))
        ts.trials[20 + local, 0, 1] = np.nan
        table = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=6))
        assert all(r.auc is not None for r in table.rows[:5])
        failed = table.rows[5:]
        assert [(r.subject, r.fold) for r in failed] == [
            ("s02", f) for f in range(5)]
        assert {r.error for r in failed} == {
            f"InvalidInput: {where} contains non-finite entries"}

    @pytest.mark.parametrize("pipeline", ["MDM", "TS+LR"])
    def test_interleaved_subjects_score_as_contiguous(self, pipeline):
        # an interleaved set's groups are gathered by copy, a contiguous
        # set's taken as views of the stack: the rows are the same
        rng = np.random.default_rng(19)
        ts = make_trialset(rng, (np.eye(3), np.diag([1.5, 1.0, 1.0])),
                           sigma=0.3, n=10, subjects=("s01", "s02"))
        order = np.arange(40).reshape(2, 20).T.ravel()  # s01, s02, ...
        mixed = TrialSet(ts.dataset_id, ts.kind, ts.trials[order],
                         ts.labels[order], ts.subjects[order],
                         ts.sessions[order])
        idx = mixed.groups()[0][2]
        assert not np.shares_memory(evaluation._take(mixed.trials, idx),
                                    mixed.trials)
        config = EvalConfig(pipeline=pipeline, seed=3)

        def rows(trialset):
            return [(r.subject, r.session, r.fold, r.auc, r.error)
                    for r in run_pipeline(trialset, config).rows]

        assert rows(mixed) == rows(ts)

    def test_covariance_group_validated_once(self, monkeypatch):
        # the identity stage runs once per (subject, session) group,
        # not on each fold's training and held-out stacks
        rng = np.random.default_rng(16)
        ts = make_trialset(rng, SEPARABLE_CENTERS, n=10,
                           subjects=("s01", "s02"))
        stacks = []
        apply_filter = evaluation.apply_filter

        def counting(f, covs):
            stacks.append(covs.shape[0])
            return apply_filter(f, covs)

        monkeypatch.setattr(evaluation, "apply_filter", counting)
        table = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=5, k=5))
        assert stacks == [20, 20]
        assert table.mean_auc() == 1.0

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True])
    def test_worker_count_below_one_rejected(self, workers):
        rng = np.random.default_rng(13)
        ts = make_trialset(rng, SEPARABLE_CENTERS, n=5)
        with pytest.raises(InvalidInput, match="workers"):
            run_pipeline(ts, EvalConfig(pipeline="MDM", seed=1),
                         workers=workers)

    def test_worker_count_does_not_change_results(self):
        rng = np.random.default_rng(9)
        ts = make_trialset(rng, SEPARABLE_CENTERS, sigma=0.4, n=10,
                           subjects=("s01", "s02"))
        t1 = run_pipeline(ts, EvalConfig(pipeline="MF", seed=5), workers=1)
        t4 = run_pipeline(ts, EvalConfig(pipeline="MF", seed=5), workers=4)
        assert [r.auc for r in t1.rows] == [r.auc for r in t4.rows]
        assert [(r.subject, r.session, r.fold) for r in t1.rows] == \
               [(r.subject, r.session, r.fold) for r in t4.rows]

    def test_time_series_input(self):
        rng = np.random.default_rng(10)
        mixing = rng.standard_normal((6, 6))
        trials, labels = [], []
        for label, gain in enumerate((1.0, 4.0)):
            scale = np.ones(6)
            scale[0] = gain
            for _ in range(15):
                z = rng.standard_normal((6, 128))
                trials.append(mixing @ (scale[:, None] * z))
                labels.append(label)
        ts = TrialSet(
            dataset_id="mix", kind="time-series", trials=np.stack(trials),
            labels=np.array(labels),
            subjects=np.array(["s01"] * 30, dtype=object),
            sessions=np.array(["0"] * 30, dtype=object),
        )
        table = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=4))
        assert table.mean_auc() > 0.8

    @pytest.mark.parametrize("pipeline", ["MDM", "TS+LR"])
    def test_degenerate_recording_fails_its_group(self, pipeline):
        # every channel of s01's trial 5 (trial 25 of the set) constant:
        # OAS fails s01 alone, naming the trial by its index in the
        # group, and s00 scores as it does alone
        rng = np.random.default_rng(17)
        mixing = rng.standard_normal((6, 6))
        trials, labels = [], []
        for _ in range(2):
            for label, gain in enumerate((1.0, 4.0)):
                scale = np.r_[gain, np.ones(5)]
                for _ in range(10):
                    z = rng.standard_normal((6, 64))
                    trials.append(mixing @ (scale[:, None] * z))
                    labels.append(label)
        trials[25] = np.full((6, 64), 0.3)
        subjects = np.repeat(np.array(["s00", "s01"], dtype=object), 20)

        def trialset(rows):
            return TrialSet(
                dataset_id="mix", kind="time-series",
                trials=np.stack(trials)[rows], labels=np.array(labels)[rows],
                subjects=subjects[rows],
                sessions=np.array(["0"] * len(subjects), dtype=object)[rows])

        config = EvalConfig(pipeline=pipeline, seed=6)
        table = run_pipeline(trialset(slice(None)), config)
        alone = run_pipeline(trialset(slice(0, 20)), config)
        assert [(r.subject, r.fold, r.auc, r.error) for r in table.rows[:5]] \
            == [(r.subject, r.fold, r.auc, r.error) for r in alone.rows]
        assert all(r.error is None for r in alone.rows)
        failed = table.rows[5:]
        assert [(r.subject, r.fold) for r in failed] == [
            ("s01", f) for f in range(5)]
        assert {r.error for r in failed} == {
            "DegenerateInput: trial 5: all channels are constant; "
            "covariance is zero"}
        assert all(r.auc is None and r.fold_time_seconds == 0.0
                   for r in failed)

    def test_session_groups_evaluated_separately(self):
        rng = np.random.default_rng(11)
        base = make_trialset(rng, SEPARABLE_CENTERS, n=10)
        two_sessions = TrialSet(
            dataset_id=base.dataset_id, kind=base.kind,
            trials=np.concatenate([base.trials, base.trials]),
            labels=np.concatenate([base.labels, base.labels]),
            subjects=np.concatenate([base.subjects, base.subjects]),
            sessions=np.array(["0"] * base.n_trials + ["1"] * base.n_trials,
                              dtype=object),
        )
        table = run_pipeline(two_sessions, EvalConfig(pipeline="MDM", seed=6))
        sessions = {(r.subject, r.session) for r in table.rows}
        assert sessions == {("s01", "0"), ("s01", "1")}
        assert len(table.rows) == 10
