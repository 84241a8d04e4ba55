"""Pilot runs behind the thresholds frozen into the test suite.

Each block prints the measured quantity next to the bound asserted in
tests; rerun this script to re-derive them. Seeds match the tests.

  tests/test_synth.py::test_empirical_mean_near_center      (bound 0.05)
  tests/test_synth.py::test_null_experiment_scores_at_chance (0.5 +/- 0.1)
  tests/test_synth.py::test_variance_contrast_is_detectable  (bound 0.90)
  tests/test_acceptance.py::test_06_robust_mean_estimation   (<= 2 inliers)
"""

import numpy as np

from meansfield import (
    EvalConfig, TrialSet, airm_distance, geometric_mean, rpme_clean,
    run_pipeline,
    MixedSourcesSpec, RiemannianGaussianSpec, synth_mixed_sources,
    synth_riemannian_gaussian,
)


def to_trialset(archive, dataset="pilot"):
    n = archive.n_trials
    return TrialSet(
        dataset_id=dataset, kind=archive.kind, trials=archive.trials,
        labels=archive.labels.astype(int),
        subjects=np.array(["s01"] * n, dtype=object),
        sessions=np.array(["0"] * n, dtype=object),
    )


# --- empirical geometric mean vs generator center -----------------------
spec = RiemannianGaussianSpec(dim=4, sigmas=(0.1, 0.1),
                              trials_per_class=250, seed=2024)
archive = synth_riemannian_gaussian(spec)
mean = geometric_mean(archive.trials).matrix
print("geometric mean of 500 draws (sigma 0.1, seed 2024):")
print(f"  distance to center = {airm_distance(np.eye(4), mean):.4f}"
      "   (frozen bound 0.05)")

# --- null experiment: identical source profiles --------------------------
aucs = []
for seed in range(20):
    spec = MixedSourcesSpec(channels=8, samples=64,
                            profiles=((1.0,) * 4, (1.0,) * 4),
                            trials_per_class=20, seed=seed)
    table = run_pipeline(to_trialset(synth_mixed_sources(spec)),
                         EvalConfig(pipeline="MDM", seed=1))
    aucs.append(table.mean_auc())
print("\nnull experiment over seeds 0..19:")
print(f"  mean AUC = {np.mean(aucs):.4f}  "
      f"range [{min(aucs):.3f}, {max(aucs):.3f}]   (frozen band 0.5 +/- 0.1)")

# --- detectable variance contrast at 64 channels --------------------------
spec = MixedSourcesSpec(channels=64, samples=128,
                        profiles=((1.0,) * 8, (2.0,) + (1.0,) * 7),
                        trials_per_class=100, seed=5)
table = run_pipeline(to_trialset(synth_mixed_sources(spec)),
                     EvalConfig(pipeline="ADCSP+MDM", seed=1))
print("\n4x variance contrast, 64 channels, 100 trials/class (seed 5):")
print(f"  filtered nearest-mean AUC = {table.mean_auc():.4f}"
      "   (frozen bound 0.90)")

# --- robust cleaning false-removal rate -----------------------------------
dim = 16
center = np.eye(dim)
out_center = np.exp(8.0 / np.sqrt(dim)) * np.eye(dim)
counts = np.zeros(4, dtype=int)
for seed in range(900, 930):
    rng = np.random.default_rng(seed)
    def cloud(c, n):
        w, v = np.linalg.eigh(c)
        root = (v * np.sqrt(w)) @ v.T
        out = []
        for _ in range(n):
            s = rng.standard_normal((dim, dim)) * 0.1
            s = (s + s.T) / 2
            ew, ev = np.linalg.eigh(s)
            out.append(root @ (ev * np.exp(ew)) @ ev.T @ root)
        return np.stack(out)
    mats = np.concatenate([cloud(center, 40), cloud(out_center, 3)])
    res = rpme_clean(mats)
    kept = set(res.kept_indices.tolist())
    counts[min(40 - len(set(range(40)) & kept), 3)] += 1
print("\nrobust cleaning, seeds 900..929 (dim 16):")
print(f"  inliers removed histogram [0,1,2,3+] = {counts.tolist()}"
      "   (frozen bound: at most 2)")
