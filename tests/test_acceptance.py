"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured margin (run with ``pytest -s`` to see
them). Tolerances are fixed here, not tuned."""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from meansfield.cli import main
from meansfield.classifiers import (
    distance_features, lda_fit, mdm_fit, mdm_score, mdmf_fit, mf_fit,
    tangent_map, ts_lr_fit,
)
from meansfield.evaluation import EvalConfig, TrialSet, auc_roc, run_pipeline
from meansfield.exceptions import ConvergenceFailure
from meansfield.geometry import (
    SolverConfig, airm_distance, frobenius, geodesic,
)
from meansfield.means import (
    DEFAULT_H_GRID, arithmetic_mean, build_mean_field,
    geometric_mean, harmonic_mean, power_mean, rpme_clean,
)
from meansfield.spatial import adcsp_fit
from meansfield.stats import (
    exact_permutation_test, liptak_combine, meta_compare,
    wilcoxon_signed_rank,
)
from meansfield.synth import RiemannianGaussianSpec, synth_riemannian_gaussian

from oracles import (
    brute_force_auc, commuting_power_mean, irls_logistic,
    lda_reference_binary, random_gl, random_spd, spd_cloud,
    wilcoxon_reference_p,
)


def _report(num, message):
    print(f"ACCEPTANCE {num:02d} PASS - {message}")


def random_spd_set(rng, dim, n, log_spread):
    return np.stack([random_spd(dim, rng, log_spread=log_spread)
                     for _ in range(n)])


def solve_grid(mats, config=None):
    """All grid means of one set through the warm-started field."""
    field = build_mean_field({0: mats, 1: mats[:2]}, config=config)
    return {e.h: e for e in field.entries[0]}


def test_01_scalar_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(3, 31))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rows = rng.uniform(0.2, 5.0, size=(n, dim))
        mats = np.stack([(q * r[None, :]) @ q.T for r in rows])
        solved = solve_grid(mats)
        for h, entry in solved.items():
            expected = commuting_power_mean(q, rows, h)
            err = frobenius(entry.matrix - expected) / frobenius(expected)
            worst = max(worst, err)
            assert err <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"50 commuting sets, worst relative error {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_02_fixed_point_residuals():
    worst_fp = worst_karcher = 0.0
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(3, 9))
        n = int(rng.integers(5, 25))
        mats = random_spd_set(rng, dim, n, log_spread=4.0)
        inv_mats = np.linalg.inv(mats)
        solved = solve_grid(mats)
        for h, entry in solved.items():
            p = entry.matrix
            if h > 0:
                image = np.mean([geodesic(p, c, h) for c in mats], axis=0)
                res = frobenius(p - image) / frobenius(p)
                worst_fp = max(worst_fp, res)
                assert res <= 1e-6
            elif h < 0:
                p_inv = np.linalg.inv(p)
                image = np.mean([geodesic(p_inv, c, -h) for c in inv_mats],
                                axis=0)
                res = frobenius(p_inv - image) / frobenius(p_inv)
                worst_fp = max(worst_fp, res)
                assert res <= 1e-6
            else:
                r = np.linalg.inv(p)
                w, v = np.linalg.eigh(r)
                rh = (v * np.sqrt(w)[None, :]) @ v.T
                from meansfield.geometry import logm
                k = logm(rh @ mats @ rh).mean(axis=0)
                res = frobenius(k)
                worst_karcher = max(worst_karcher, res)
                assert res <= 1e-7 * dim
    _report(2, f"fixed-point residual <= {worst_fp:.2e}, Karcher "
               f"stationarity <= {worst_karcher:.2e}")


def test_03_loewner_monotonicity_and_ordering():
    def one_case(seed):
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(3, 13))
        mats = random_spd_set(rng, dim, n, log_spread=2.0)
        solved = solve_grid(mats)
        worst = 0.0
        for h1, h2 in zip(DEFAULT_H_GRID[:-1], DEFAULT_H_GRID[1:]):
            gap = solved[h2].matrix - solved[h1].matrix
            lam_min = float(np.linalg.eigvalsh(gap).min())
            bound = -1e-7 * frobenius(solved[h2].matrix)
            assert lam_min >= bound
            worst = min(worst, lam_min)
        am = arithmetic_mean(mats)
        gm = solved[0.0].matrix
        hm = harmonic_mean(mats)
        for hi, lo in ((am, gm), (gm, hm), (am, hm)):
            lam_min = float(np.linalg.eigvalsh(hi - lo).min())
            assert lam_min >= -1e-7 * frobenius(hi)
        return worst

    with ThreadPoolExecutor(max_workers=6) as pool:
        worst = min(pool.map(one_case, range(100)))
    _report(3, f"100 sets monotone in h, worst signed eigenvalue "
               f"{worst:.2e}")


def test_04_congruence_equivariance_and_affine_invariance():
    tight = SolverConfig(tolerance=1e-9, max_iterations=500)
    worst_mean = worst_dist = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        mats = random_spd_set(rng, 4, 8, log_spread=2.0)
        w = random_gl(4, rng, max_cond=100.0)
        mapped = w @ mats @ w.T

        pairs = [(arithmetic_mean(mats), arithmetic_mean(mapped)),
                 (harmonic_mean(mats), harmonic_mean(mapped))]
        solved = solve_grid(mats, config=tight)
        solved_m = solve_grid(mapped, config=tight)
        pairs += [(solved[h].matrix, solved_m[h].matrix)
                  for h in DEFAULT_H_GRID]
        for p, pm in pairs:
            err = frobenius(w @ p @ w.T - pm) / frobenius(pm)
            worst_mean = max(worst_mean, err)
            assert err <= 1e-6

        for _ in range(10):
            a, b = random_spd(4, rng), random_spd(4, rng)
            d0 = airm_distance(a, b)
            d1 = airm_distance(w @ a @ w.T, w @ b @ w.T)
            err = abs(d1 - d0) / d0
            worst_dist = max(worst_dist, err)
            assert err <= 1e-6
    _report(4, f"congruence equivariance <= {worst_mean:.2e}, affine "
               f"invariance <= {worst_dist:.2e} relative")


def test_05_convergence_budget_and_warm_start():
    # matrices with condition number <= 1e4 (log-uniform spectrum over
    # four decades); two pinned extreme cases exercise the size caps
    def case_sizes(seed):
        if seed == 0:
            return 32, 50
        if seed == 1:
            return 8, 200
        rng = np.random.default_rng(7000 + seed)
        dim = int(round(np.exp(rng.uniform(np.log(4), np.log(32)))))
        n = int(round(np.exp(rng.uniform(np.log(10), np.log(200)))))
        return dim, n

    def one_case(seed):
        dim, n = case_sizes(seed)
        rng = np.random.default_rng(500 + seed)
        mats = []
        for _ in range(n):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            lam = np.exp(rng.uniform(-np.log(100.0), np.log(100.0), dim))
            mats.append((q * lam) @ q.T)
        mats = np.stack(mats)
        assert max(np.linalg.cond(c) for c in mats) <= 1e4 + 1.0

        solved = solve_grid(mats)  # section-4 settings: 1e-7, 150
        warm_total = sum(e.iterations for e in solved.values())
        assert max(e.iterations for e in solved.values()) <= 150

        cold_total = 0
        for h in DEFAULT_H_GRID:
            try:
                if h == 0.0:
                    cold_total += geometric_mean(mats).iterations
                else:
                    cold_total += power_mean(mats, h).iterations
            except ConvergenceFailure as exc:
                cold_total += exc.iterations
        return warm_total, cold_total

    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(one_case, range(50)))
    wins = sum(w < c for w, c in results)
    assert wins >= 40  # >= 80% of 50 seeded cases
    _report(5, f"all grid means within 150 iterations at 1e-7; warm "
               f"start wins {wins}/50")


def test_06_robust_mean_estimation():
    dim = 16
    center = np.eye(dim)
    outlier_center = np.exp(8.0 / np.sqrt(dim)) * np.eye(dim)
    ratios = []
    for seed in range(30):
        rng = np.random.default_rng(900 + seed)
        inliers = spd_cloud(center, 0.1, 40, rng)
        outliers = spd_cloud(outlier_center, 0.1, 3, rng)
        mats = np.concatenate([inliers, outliers])
        res = rpme_clean(mats)
        kept = set(res.kept_indices.tolist())
        assert not kept & {40, 41, 42}  # every planted outlier removed
        assert len(set(range(40)) - kept) <= 2  # at most 2 inliers lost

        clean_mean = geometric_mean(inliers).matrix
        plain_mean = geometric_mean(mats).matrix
        d_robust = airm_distance(clean_mean, res.mean)
        d_plain = airm_distance(clean_mean, plain_mean)
        assert d_robust <= 0.5 * d_plain
        ratios.append(d_robust / d_plain)
    _report(6, f"30 contaminated sets cleaned; worst distance ratio "
               f"{max(ratios):.3f} (bound 0.5)")


def test_07_adaptive_filter_dimension_contract():
    dims = (128, 64, 30, 14, 10, 8)
    expected = (10, 10, 10, 10, 10, 8)
    observed = []
    for dim in dims:
        rng = np.random.default_rng(dim)
        covs, labels = [], []
        for cls in range(2):
            profile = np.linspace(1.0, 3.0, dim)
            base = np.diag(profile if cls == 0 else profile[::-1])
            for c in spd_cloud(base, 0.1, 6, rng):
                covs.append(c)
                labels.append(cls)
        f = adcsp_fit(np.stack(covs), np.array(labels))
        observed.append(f.output_dim)
    assert tuple(observed) == expected
    _report(7, f"input dims {dims} -> output dims {tuple(observed)}")


def test_08_statistics_exactness():
    assert exact_permutation_test([1.0, 2.0, 3.0]) == 0.125
    assert abs(liptak_combine([0.05, 0.05], [1.0, 1.0]) - 0.0100) <= 1e-4

    rng = np.random.default_rng(1000)
    for _ in range(20):
        diffs = rng.normal(0.1, 0.5, 25)
        p = wilcoxon_signed_rank(diffs)
        assert abs(p - wilcoxon_reference_p(diffs)) <= 1e-6

    x = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [2.0, 3.0],
                  [6.0, 5.0], [7.0, 8.0], [8.0, 6.0], [7.0, 7.0]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = lda_fit(x, y)
    reference = lda_reference_binary(x, y)
    for probe in x:
        g = probe @ model._coef.T + model._intercept
        assert abs((g[1] - g[0]) - reference(probe)) <= 1e-6

    trials = np.concatenate([
        spd_cloud(np.diag([0.5, 1.0, 1.0]), 0.2, 15, rng),
        spd_cloud(np.diag([2.0, 1.0, 1.0]), 0.2, 15, rng),
    ])
    labels = np.repeat([0, 1], 15)
    lr = ts_lr_fit(trials, labels)
    feats = tangent_map(trials, lr.reference)
    xstd = (feats - lr.feature_mean) / lr.feature_scale
    w_ref, b_ref = irls_logistic(xstd, (labels == 1).astype(float))
    assert np.abs(lr.weights[0] - w_ref).max() <= 1e-6
    assert abs(lr.intercepts[0] - b_ref) <= 1e-6

    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(4, 31))
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        if auc_roc(scores, labels) != brute_force_auc(scores, labels):
            mismatches += 1
    assert mismatches == 0
    _report(8, "permutation/Liptak exact; signed-rank, discriminant, "
               "logit match oracles to 1e-6; AUC exact on 1000 sets")


def test_09_reduction_identities():
    for seed in range(20):
        rng = np.random.default_rng(1100 + seed)
        trials = np.concatenate([
            spd_cloud(np.eye(3), 0.2, 12, rng),
            spd_cloud(np.diag([2.0, 1.0, 0.7]), 0.3, 12, rng),
        ])
        labels = np.repeat([0, 1], 12)
        mdmf = mdmf_fit(trials, labels, h_grid=(0.0,))
        mdm = mdm_fit(trials, labels)
        for t in trials:
            assert mdm_score(mdmf, t) == mdm_score(mdm, t)
    rng = np.random.default_rng(42)
    trials = np.concatenate([spd_cloud(np.eye(3), 0.2, 8, rng),
                             spd_cloud(2 * np.eye(3), 0.2, 8, rng)])
    labels = np.repeat([0, 1], 8)
    model = mf_fit(trials, labels)
    assert model.n_features == 2 * 11
    assert distance_features(model, trials).shape == (16, 22)
    _report(9, "single-exponent field reproduces nearest-mean decisions "
               "on 20 datasets; feature length 2 x 11")


def test_10_synthetic_benchmark_analogue():
    start = time.perf_counter()
    trials, labels, subjects = [], [], []
    for subj in range(20):
        spec = RiemannianGaussianSpec(
            dim=12, sigmas=(0.15, 0.35), trials_per_class=60,
            seed=1000 + subj,
        )
        archive = synth_riemannian_gaussian(spec)
        trials.append(archive.trials)
        labels.append(archive.labels.astype(int))
        subjects.extend([f"s{subj:02d}"] * archive.n_trials)
    ts = TrialSet(
        dataset_id="hetero-dispersion", kind="covariance",
        trials=np.concatenate(trials), labels=np.concatenate(labels),
        subjects=np.array(subjects, dtype=object),
        sessions=np.array(["0"] * len(subjects), dtype=object),
    )
    mdm = run_pipeline(ts, EvalConfig(pipeline="MDM", seed=77), workers=4)
    mf = run_pipeline(ts, EvalConfig(pipeline="MF", seed=77), workers=4)
    assert mf.mean_auc() >= mdm.mean_auc()
    report = meta_compare(mdm, mf)
    assert report.combined_p < 0.05
    assert report.combined_smd > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(10, f"mean AUC {mf.mean_auc():.3f} (field+discriminant) vs "
                f"{mdm.mean_auc():.3f} (nearest mean), one-sided "
                f"p = {report.combined_p:.2e}, SMD = "
                f"{report.combined_smd:.2f}, {elapsed:.0f}s")


def test_11_end_to_end_determinism(tmp_path):
    cfg_text = ("generator = riemannian-gaussian\ndim = 5\n"
                "trials_per_class = 16\nsigma_0 = 0.15\nsigma_1 = 0.40\n")
    paths = []
    for subj, seed in (("s01@0", 21), ("s02@0", 22)):
        cfg = tmp_path / f"{subj}.cfg"
        cfg.write_text(cfg_text + f"seed = {seed}\n")
        out = tmp_path / f"{subj}.spdt"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        paths.append(str(out))

    outputs = {}
    for tag, workers in (("run1", "1"), ("run2", "1"), ("run4", "4")):
        t_mdm = tmp_path / f"mdm-{tag}.json"
        t_mf = tmp_path / f"mf-{tag}.json"
        rep = tmp_path / f"report-{tag}.json"
        assert main(["eval", "--pipeline", "MDM", "--seed", "7",
                     "--workers", workers, "--out", str(t_mdm),
                     *paths]) == 0
        assert main(["eval", "--pipeline", "MF", "--seed", "7",
                     "--workers", workers, "--out", str(t_mf),
                     *paths]) == 0
        assert main(["compare", str(t_mdm), str(t_mf),
                     "--out", str(rep)]) == 0
        outputs[tag] = (t_mdm.read_bytes(), t_mf.read_bytes(),
                        rep.read_bytes())
    assert outputs["run1"] == outputs["run2"] == outputs["run4"]
    _report(11, "eval + compare byte-identical across repeat runs and "
                "worker counts")
