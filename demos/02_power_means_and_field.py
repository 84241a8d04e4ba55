"""The power-mean family and the mean field.

One exponent knob interpolates from the harmonic mean (h = -1) through
the geometric mean (h = 0) to the arithmetic mean (h = +1). The whole
family is computed as a field, each solve started at the interpolant in
h of the means already solved. P_h is smooth in h, so on this set the
field takes 19 iterations against 45 with each exponent from scratch,
and its solves at h = -0.1 and h = 0 start within tolerance.
A robust cleaning pass protects all of them from outlying trials at once.
"""

import numpy as np

from meansfield import (
    DEFAULT_H_GRID, airm_distance, build_mean_field, geometric_mean,
    power_mean, rpme_clean,
)

rng = np.random.default_rng(7)


def spd_cloud(center, sigma, n):
    d = center.shape[0]
    w, v = np.linalg.eigh(center)
    root = (v * np.sqrt(w)) @ v.T
    out = []
    for _ in range(n):
        s = rng.standard_normal((d, d)) * sigma
        s = (s + s.T) / 2
        ew, ev = np.linalg.eigh(s)
        out.append(root @ (ev * np.exp(ew)) @ ev.T @ root)
    return np.stack(out)


mats = spd_cloud(np.diag([1.0, 2.0, 4.0]), 0.6, 30)

# --- the family orders itself: harmonic <= geometric <= arithmetic -----
field = build_mean_field({0: mats, 1: mats[:2]})
print("h      min eig of (P_h - P_prev)   d(P_h, geometric)   iterations")
geo = field.matrices(0)[field.h_grid.index(0.0)]
prev = None
for entry in field.entries[0]:
    gap = "" if prev is None else \
        f"{np.linalg.eigvalsh(entry.matrix - prev).min():+.2e}"
    d_geo = airm_distance(geo, entry.matrix)
    print(f"{entry.h:+.2f}   {gap:>12s}          {d_geo:8.4f}        "
          f"{entry.iterations:4d}")
    prev = entry.matrix

# --- interpolated starts save iterations ---------------------------------
warm = sum(e.iterations for e in field.entries[0])
cold = 0
for h in DEFAULT_H_GRID:
    if h == 0.0:
        cold += geometric_mean(mats).iterations
    else:
        cold += power_mean(mats, h).iterations
print(f"\ntotal iterations, field with interpolated starts: {warm}")
print(f"total iterations, each exponent from scratch: {cold}")

# --- robust cleaning -----------------------------------------------------
outliers = spd_cloud(np.exp(4.0) * np.eye(3), 0.1, 2)
contaminated = np.concatenate([mats, outliers])
res = rpme_clean(contaminated)
print(f"\nplanted 2 far outliers into {len(mats)} trials;"
      f" survivors: {len(res.kept_indices)}"
      f" (outliers kept: {sum(i >= 30 for i in res.kept_indices)})")
clean = geometric_mean(mats).matrix
plain = geometric_mean(contaminated).matrix
print("distance to the clean mean, robust :",
      f"{airm_distance(clean, res.mean):.4f}")
print("distance to the clean mean, naive  :",
      f"{airm_distance(clean, plain):.4f}")
