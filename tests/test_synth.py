"""Synthetic generators: determinism, degenerate limits, and the
pinned pilot thresholds (see demos/pilot_thresholds.py for how the
numbers were obtained)."""

import numpy as np
import pytest

from meansfield.archive import write_archive
from meansfield.evaluation import EvalConfig, TrialSet, run_pipeline
from meansfield.exceptions import InvalidInput
from meansfield.geometry import airm_distance
from meansfield.means import geometric_mean
from meansfield.synth import (
    MixedSourcesSpec, RiemannianGaussianSpec, synth_mixed_sources,
    synth_riemannian_gaussian,
)


def to_trialset(archive, dataset="synth", subject="s01"):
    n = archive.n_trials
    return TrialSet(
        dataset_id=dataset, kind=archive.kind, trials=archive.trials,
        labels=archive.labels.astype(int),
        subjects=np.array([subject] * n, dtype=object),
        sessions=np.array(["0"] * n, dtype=object),
    )


class TestRiemannianGaussian:
    def test_vanishing_dispersion_reproduces_center(self):
        center = np.diag([2.0, 0.5, 1.5])
        spec = RiemannianGaussianSpec(
            dim=3, sigmas=(1e-13, 1e-13), trials_per_class=5, seed=0,
            centers=(center, center),
        )
        archive = synth_riemannian_gaussian(spec)
        for t in archive.trials:
            assert np.abs(t - center).max() <= 1e-12 * np.abs(center).max()

    def test_seed_determinism(self):
        spec = RiemannianGaussianSpec(dim=4, sigmas=(0.2, 0.4),
                                      trials_per_class=6, seed=42)
        a = synth_riemannian_gaussian(spec)
        b = synth_riemannian_gaussian(spec)
        np.testing.assert_array_equal(a.trials, b.trials)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_per_trial_streams_are_stable(self):
        # growing the archive must not change earlier trials
        small = synth_riemannian_gaussian(RiemannianGaussianSpec(
            dim=3, sigmas=(0.3, 0.3), trials_per_class=5, seed=9))
        large = synth_riemannian_gaussian(RiemannianGaussianSpec(
            dim=3, sigmas=(0.3, 0.3), trials_per_class=8, seed=9))
        np.testing.assert_array_equal(small.trials[:5], large.trials[:5])

    def test_empirical_mean_near_center(self):
        # law-of-large-numbers check; pilot (seed 2024, 500 trials,
        # sigma 0.1, dim 4) measured distance 0.0139
        spec = RiemannianGaussianSpec(dim=4, sigmas=(0.1, 0.1),
                                      trials_per_class=250, seed=2024)
        archive = synth_riemannian_gaussian(spec)
        mean = geometric_mean(archive.trials).matrix
        assert airm_distance(np.eye(4), mean) <= 0.05

    def test_none_center_is_the_identity(self, tmp_path):
        d, center = 4, np.diag([2.0, 0.5, 1.5, 1.0])
        paths = []
        for first in (None, np.eye(d)):
            spec = RiemannianGaussianSpec(dim=d, sigmas=(0.2, 0.4),
                                          trials_per_class=6, seed=42,
                                          centers=(first, center))
            paths.append(tmp_path / f"{len(paths)}.spdt")
            write_archive(synth_riemannian_gaussian(spec), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trials_are_spd_and_labeled(self):
        spec = RiemannianGaussianSpec(dim=3, sigmas=(0.2, 0.5),
                                      trials_per_class=4, seed=1)
        archive = synth_riemannian_gaussian(spec)
        assert archive.kind == "covariance"
        assert archive.labels.tolist() == [0] * 4 + [1] * 4
        for t in archive.trials:
            assert np.linalg.eigvalsh(t).min() > 0

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            RiemannianGaussianSpec(dim=3, sigmas=(0.2,), trials_per_class=4,
                                   seed=0)
        with pytest.raises(InvalidInput):
            RiemannianGaussianSpec(dim=3, sigmas=(0.2, -0.1),
                                   trials_per_class=4, seed=0)
        with pytest.raises(InvalidInput):
            RiemannianGaussianSpec(dim=2, sigmas=(0.2, 0.3),
                                   trials_per_class=4, seed=0,
                                   centers=(np.eye(3), np.eye(3)))


RG = dict(dim=3, sigmas=(0.2, 0.3), trials_per_class=4, seed=0)
MS = dict(channels=4, samples=32, profiles=((1.0, 1.0), (2.0, 1.0)),
          trials_per_class=4, seed=0)

# Spec fields each generator refuses: the spec, the field changed and
# the message.
BAD_SPECS = {
    "rg dim": (RiemannianGaussianSpec, RG, {"dim": 0},
               "dim must be a positive integer"),
    "rg dim float": (RiemannianGaussianSpec, RG, {"dim": 2.0},
                     "dim must be a positive integer"),
    "rg trials": (RiemannianGaussianSpec, RG, {"trials_per_class": 0},
                  "trials_per_class must be a positive integer"),
    "rg seed float": (RiemannianGaussianSpec, RG, {"seed": 2.5},
                      "seed must be a non-negative integer"),
    "rg seed bool": (RiemannianGaussianSpec, RG, {"seed": True},
                     "seed must be a non-negative integer"),
    "rg seed negative": (RiemannianGaussianSpec, RG, {"seed": -1},
                         "seed must be a non-negative integer"),
    "rg sigma nan": (RiemannianGaussianSpec, RG, {"sigmas": (0.2, np.nan)},
                     "dispersions must be positive and finite"),
    "rg sigma inf": (RiemannianGaussianSpec, RG, {"sigmas": (np.inf, 0.3)},
                     "dispersions must be positive and finite"),
    "rg centers": (RiemannianGaussianSpec, RG, {"centers": (np.eye(3),)},
                   "need one center per class"),
    "ms channels": (MixedSourcesSpec, MS, {"channels": 4.0},
                    "channels must be a positive integer"),
    "ms classes": (MixedSourcesSpec, MS, {"profiles": ((1.0, 1.0),)},
                   "need at least 2 classes"),
    "ms sources": (MixedSourcesSpec, MS,
                   {"profiles": ((1.0, 1.0), (1.0, 1.0, 1.0))},
                   "profiles must share their source count"),
    "ms profile inf": (MixedSourcesSpec, MS,
                       {"profiles": ((1.0, np.inf), (2.0, 1.0))},
                       "source standard deviations must be positive and "
                       "finite"),
    "ms samples": (MixedSourcesSpec, MS, {"samples": 1},
                   "need at least 2 samples"),
    "ms samples bool": (MixedSourcesSpec, MS, {"samples": True},
                        "samples must be a positive integer"),
    "ms trials": (MixedSourcesSpec, MS, {"trials_per_class": 0},
                  "trials_per_class must be a positive integer"),
    "ms seed float": (MixedSourcesSpec, MS, {"seed": 2.5},
                      "seed must be a non-negative integer"),
    "ms noise": (MixedSourcesSpec, MS, {"noise_std": -0.1},
                 "noise_std must be non-negative and finite"),
    "ms noise nan": (MixedSourcesSpec, MS, {"noise_std": np.nan},
                     "noise_std must be non-negative and finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_spec_refused(case):
    spec, fields, change, message = BAD_SPECS[case]
    spec(**fields)  # the unchanged fields are valid
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        spec(**{**fields, **change})


class TestMixedSources:
    def test_seed_determinism(self):
        spec = MixedSourcesSpec(channels=6, samples=32,
                                profiles=((1.0, 1.0), (2.0, 1.0)),
                                trials_per_class=4, seed=3)
        a = synth_mixed_sources(spec)
        b = synth_mixed_sources(spec)
        np.testing.assert_array_equal(a.trials, b.trials)

    def test_null_experiment_scores_at_chance(self):
        # identical class profiles: mean AUC over 20 seeds must sit at
        # chance level (pilot: 0.504)
        aucs = []
        for seed in range(20):
            spec = MixedSourcesSpec(
                channels=8, samples=64, profiles=((1.0,) * 4, (1.0,) * 4),
                trials_per_class=20, seed=seed,
            )
            ts = to_trialset(synth_mixed_sources(spec))
            table = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=1))
            aucs.append(table.mean_auc())
        assert abs(float(np.mean(aucs)) - 0.5) <= 0.1

    def test_variance_contrast_is_detectable(self):
        # one source with 4x variance (2x std), 64 channels: the
        # filtered nearest-mean pipeline must separate nearly perfectly
        # (pilot: AUC 1.0, seed 5)
        spec = MixedSourcesSpec(
            channels=64, samples=128,
            profiles=((1.0,) * 8, (2.0,) + (1.0,) * 7),
            trials_per_class=100, seed=5,
        )
        ts = to_trialset(synth_mixed_sources(spec))
        table = run_pipeline(ts, EvalConfig(pipeline="ADCSP+MDM", seed=1))
        assert table.mean_auc() >= 0.9

    def test_small_channel_count_filter_is_noop(self):
        spec = MixedSourcesSpec(
            channels=8, samples=64,
            profiles=((1.0,) * 4, (2.0, 1.0, 1.0, 1.0)),
            trials_per_class=15, seed=7,
        )
        ts = to_trialset(synth_mixed_sources(spec))
        plain = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=2))
        filtered = run_pipeline(ts, EvalConfig(pipeline="ADCSP+MDM", seed=2))
        assert [r.auc for r in plain.rows] == [r.auc for r in filtered.rows]

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            MixedSourcesSpec(channels=2, samples=32,
                             profiles=((1.0, 1.0, 1.0), (2.0, 1.0, 1.0)),
                             trials_per_class=4, seed=0)
        with pytest.raises(InvalidInput):
            MixedSourcesSpec(channels=4, samples=32,
                             profiles=((1.0, 0.0), (1.0, 1.0)),
                             trials_per_class=4, seed=0)
