"""Spatial filtering for many-channel recordings, end to end.

High channel counts hurt nearest-mean classifiers. The adaptive
two-stage filter first cuts any dimension to 28 with one cheap
eigendecomposition of the class means, then to 10 by jointly
diagonalizing the geometric class means -- so whatever comes in,
classifiers see at most a 10 x 10 matrix.
"""

import numpy as np

from meansfield import (
    EvalConfig, TrialSet, adcsp_fit, apply_filter, oas_covariance,
    run_pipeline, MixedSourcesSpec, synth_mixed_sources,
)

# 64-channel recordings mixing 8 latent sources; one source is twice as
# strong in class 1
spec = MixedSourcesSpec(
    channels=64, samples=128,
    profiles=((1.0,) * 8, (2.0,) + (1.0,) * 7),
    trials_per_class=60, seed=17,
)
archive = synth_mixed_sources(spec)
print(f"{archive.n_trials} trials, {spec.channels} channels, "
      f"{spec.samples} samples each")

# per-trial shrunk covariance
covs = oas_covariance(archive.trials)
labels = archive.labels.astype(int)
print("covariance shape per trial:", covs.shape[1:])

# the two-stage reduction: 64 -> 28 -> 10
filt = adcsp_fit(covs, labels)
print(f"fitted filter: {filt.input_dim} -> {filt.output_dim}")
reduced = apply_filter(filt, covs[0])
print("classifiers will see:", reduced.shape)

# full pipeline comparison on the same folds
dataset = TrialSet(
    dataset_id="mixed-64ch", kind="time-series", trials=archive.trials,
    labels=labels,
    subjects=np.array(["s01"] * archive.n_trials, dtype=object),
    sessions=np.array(["0"] * archive.n_trials, dtype=object),
)
print()
for pipeline in ("MDM", "ADCSP+MDM", "CSP+MF", "ADCSP+MF"):
    table = run_pipeline(dataset, EvalConfig(pipeline=pipeline, seed=9))
    t = np.mean([r.fold_time_seconds for r in table.rows])
    print(f"{pipeline:10s}  mean AUC {table.mean_auc():.3f}"
          f"   ({t*1000:6.0f} ms/fold)")
