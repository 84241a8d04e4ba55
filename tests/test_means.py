"""Means of SPD sets: closed forms, the power-mean family, the
geometric mean, robust cleaning, and the mean field with its
interpolated starts."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from meansfield import means
from meansfield.covariance import oas_covariance
from meansfield.exceptions import ConvergenceFailure, InvalidInput
from meansfield.geometry import (
    SolverConfig, airm_distance, frobenius, geodesic,
)
from meansfield.means import (
    DEFAULT_H_GRID, RPME_MAX_ROUNDS, RPME_Z_THRESHOLD, MeanField,
    MeanFieldEntry, arithmetic_mean, build_mean_field, geometric_mean,
    harmonic_mean, power_mean, rpme_clean,
)

from meansfield.synth import RiemannianGaussianSpec, synth_riemannian_gaussian

from oracles import commuting_power_mean, random_gl, random_spd, spd_cloud


def commuting_set(dim, n, rng, low=0.2, high=5.0):
    """Simultaneously diagonalizable SPD matrices plus their shared
    basis and eigenvalue rows."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    rows = rng.uniform(low, high, size=(n, dim))
    mats = np.stack([(q * r[None, :]) @ q.T for r in rows])
    return mats, q, rows


def log_uniform_case(seed):
    """The acceptance convergence test's set for ``seed``: random bases,
    log-uniform spectra over four decades (condition up to 1e4)."""
    rng = np.random.default_rng(7000 + seed)
    dim = int(round(np.exp(rng.uniform(np.log(4), np.log(32)))))
    n = int(round(np.exp(rng.uniform(np.log(10), np.log(200)))))
    rng = np.random.default_rng(500 + seed)
    mats = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam = np.exp(rng.uniform(-np.log(100.0), np.log(100.0), dim))
        mats.append((q * lam) @ q.T)
    return np.stack(mats)


@st.composite
def field_cases(draw):
    """A seeded SPD set (d 1-12, n 2-30, log spread <= 3) and a grid of
    1-15 distinct exponents in hundredths, with or without +-1 and 0."""
    dim = draw(st.integers(1, 12))
    n = draw(st.integers(2, 30))
    log_spread = draw(st.floats(0.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    exps = draw(st.lists(st.integers(-99, 99).filter(bool), max_size=12,
                         unique=True))
    if draw(st.booleans()):
        exps += [-100, 100]
    if draw(st.booleans()) or not exps:
        exps.append(0)
    rng = np.random.default_rng(seed)
    mats = np.stack([random_spd(dim, rng, log_spread=log_spread)
                     for _ in range(n)])
    return mats, tuple(k / 100 for k in exps)


@st.composite
def mean_sets(draw):
    """A seeded SPD set (d 2-12, n 2-40, log spread <= 4), a permutation
    of its trials, and an exponent with 1e-3 <= |h| <= 1."""
    dim = draw(st.integers(2, 12))
    n = draw(st.integers(2, 40))
    log_spread = draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = np.stack([random_spd(dim, rng, log_spread=log_spread)
                     for _ in range(n)])
    h = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return mats, rng.permutation(n), h


@st.composite
def outlier_sets(draw):
    """A log-normal cloud (d 2-16, n 3-40, spread 0.05-0.5) around a
    random center, with 0-3 of its trials scaled by e**2 to e**8."""
    dim = draw(st.integers(2, 16))
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = spd_cloud(random_spd(dim, rng, 3.0), draw(st.floats(0.05, 0.5)),
                     n, rng)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        mats[i] *= np.exp(draw(st.floats(2.0, 8.0)))
    return mats


@st.composite
def branch_sets(draw):
    """A seeded SPD set (d 1-16, n 2-30) whose log spread is below 2,
    where each Newton step takes one or two conjugate-gradient
    iterations, or from 5 to 8, where most take three to five; a
    congruence of condition <= 100; and an exponent that is 0 or has
    1e-3 <= |h| < 1."""
    dim = draw(st.integers(1, 16))
    n = draw(st.integers(2, 30))
    if draw(st.booleans()):
        log_spread = draw(st.floats(5.0, 8.0))
    else:
        log_spread = draw(st.floats(0.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = np.stack([random_spd(dim, rng, log_spread=log_spread)
                     for _ in range(n)])
    h = 0.0
    if draw(st.booleans()):
        h = draw(st.floats(1e-3, 0.99)) * draw(st.sampled_from([-1, 1]))
    return mats, random_gl(dim, rng, max_cond=100.0), h


# Largest n d^2 of a domain set: at d = 64 a set has at most 14 trials,
# so that no example takes a second.
DOMAIN_CAP = 60_000


@st.composite
def domain_sets(draw):
    """A seeded set over the solvers' documented domain, trials of
    condition up to 1e10 (1e9 above d = 32) alone and whitened by their
    mean, and an exponent with 1e-3 <= |h| <= 1: d 1-64, n 2-200 with
    n d^2 <= DOMAIN_CAP, independent trials of condition up to the
    bound, and up to n - 1 near-duplicates of the first trial,
    congruences of it by ``I + E`` with ``E`` about 1e-8. Duplicates
    pull the mean onto that trial, so the trials of a set with
    duplicates are of condition up to the square root of the bound."""
    dim = draw(st.integers(1, 64) | st.just(64))
    n = draw(st.integers(2, min(200, DOMAIN_CAP // dim**2)))
    top = 10.0 if dim <= 32 else 9.0
    log10_cond = draw(st.floats(0.0, top) | st.just(top))
    duplicates = draw(st.integers(0, n - 1))
    if duplicates:
        log10_cond /= 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = np.stack([random_spd(dim, rng, log_spread=log10_cond
                                * np.log(10.0)) for _ in range(n)])
    for i in range(1, duplicates + 1):
        e = np.eye(dim) + 1e-8 * rng.standard_normal((dim, dim))
        mats[i] = e @ mats[0] @ e.T
    h = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return mats, h


@st.composite
def short_recording_fields(draw):
    """OAS estimates of two classes of 2-12 time series each: 2-64
    channels, 2 to channels - 1 samples (2 at 2 channels), channel
    powers spread over six decades."""
    p = draw(st.integers(2, 64) | st.just(64))
    n = draw(st.integers(2, max(2, p - 1)))
    counts = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    power = 10.0 ** rng.uniform(-3.0, 3.0, (sum(counts), p, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # n < p
        covs = oas_covariance(power * rng.standard_normal(
            (sum(counts), p, n)))
    return {0: covs[:counts[0]], 1: covs[counts[0]:]}


def rpme_by_distance(mats):
    """The rounds of :func:`rpme_clean` with each round's distances from
    ``airm_distance``: kept indices and rounds."""
    kept, rounds = np.arange(len(mats)), 0
    while len(mats) >= 3 and rounds < RPME_MAX_ROUNDS:
        mean = geometric_mean(mats[kept]).matrix
        rounds += 1
        dist = airm_distance(mean, mats[kept])
        spread = np.std(dist, ddof=1)
        if spread == 0.0:
            break
        outliers = (dist - dist.mean()) / spread > RPME_Z_THRESHOLD
        if not outliers.any() or (~outliers).sum() < 2:
            break
        kept = kept[~outliers]
    return kept, rounds


def count_eigh(monkeypatch):
    """A list that records the shape of every ``np.linalg.eigh`` call
    from here on."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def small_spread_set():
    """The d = 4, n = 10 set (log spread 3, rng 0) of the exponent-floor
    tests."""
    rng = np.random.default_rng(0)
    return np.stack([random_spd(4, rng, log_spread=3.0) for _ in range(10)])


class TestClosedForms:
    def test_arithmetic_idempotent(self):
        mats = np.stack([np.eye(2), np.eye(2)])
        np.testing.assert_array_equal(arithmetic_mean(mats), np.eye(2))

    def test_arithmetic_diagonal(self):
        mats = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        np.testing.assert_allclose(arithmetic_mean(mats), np.diag([2.0, 3.0]))

    def test_harmonic_idempotent(self):
        mats = np.stack([np.eye(3), np.eye(3)])
        np.testing.assert_allclose(harmonic_mean(mats), np.eye(3), atol=1e-14)

    def test_harmonic_diagonal(self):
        mats = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        np.testing.assert_allclose(
            harmonic_mean(mats), np.diag([1.5, 8.0 / 3.0]), atol=1e-14
        )

    def test_am_hm_loewner_order(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mats = np.stack([random_spd(4, rng) for _ in range(6)])
            gap = arithmetic_mean(mats) - harmonic_mean(mats)
            assert np.linalg.eigvalsh(gap).min() >= -1e-9

    def test_harmonic_takes_no_eigendecomposition(self, monkeypatch):
        # both inversions go through triangular factors
        rng = np.random.default_rng(1)
        mats = np.stack([random_spd(4, rng) for _ in range(6)])
        calls = count_eigh(monkeypatch)
        mean = harmonic_mean(mats)
        assert calls == []
        np.testing.assert_allclose(
            mean, np.linalg.inv(np.mean(np.linalg.inv(mats), axis=0)),
            rtol=1e-12)

    def test_empty_set_rejected(self):
        empty = np.zeros((0, 3, 3))
        with pytest.raises(InvalidInput):
            arithmetic_mean(empty)
        with pytest.raises(InvalidInput):
            harmonic_mean(empty)

    def test_lone_matrix_is_no_set(self):
        with pytest.raises(InvalidInput, match=r"^trial set must be a stack "
                           r"of square matrices, got shape \(3, 3\)$"):
            arithmetic_mean(np.eye(3))


class TestPowerMean:
    def test_h_one_is_arithmetic(self):
        rng = np.random.default_rng(1)
        mats = np.stack([random_spd(3, rng) for _ in range(5)])
        res = power_mean(mats, 1.0)
        np.testing.assert_array_equal(res.matrix, arithmetic_mean(mats))
        assert res.iterations == 0

    def test_h_minus_one_is_harmonic(self):
        rng = np.random.default_rng(2)
        mats = np.stack([random_spd(3, rng) for _ in range(5)])
        res = power_mean(mats, -1.0)
        np.testing.assert_array_equal(res.matrix, harmonic_mean(mats))

    def test_commuting_hand_case(self):
        mats = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        res = power_mean(mats, 0.5)
        expected = np.diag([1.8660254, 2.9142136])
        np.testing.assert_allclose(res.matrix, expected, atol=1e-6)

    @pytest.mark.parametrize("h", [0.75, 0.5, 0.25, 0.1, -0.1, -0.5])
    def test_commuting_scalar_oracle(self, h):
        rng = np.random.default_rng(3)
        mats, q, rows = commuting_set(4, 8, rng)
        res = power_mean(mats, h)
        expected = commuting_power_mean(q, rows, h)
        err = frobenius(res.matrix - expected) / frobenius(expected)
        assert err <= 1e-6

    @pytest.mark.parametrize("h", [0.5, 0.1, -0.25])
    def test_idempotence(self, h):
        rng = np.random.default_rng(4)
        c = random_spd(4, rng)
        mats = np.stack([c] * 7)
        res = power_mean(mats, h)
        assert frobenius(res.matrix - c) <= 1e-7 * frobenius(c)

    def test_fixed_point_equation(self):
        rng = np.random.default_rng(5)
        mats = np.stack([random_spd(4, rng, log_spread=3.0)
                         for _ in range(10)])
        for h in (0.75, 0.5, 0.25, 0.1):
            p = power_mean(mats, h).matrix
            image = np.mean([geodesic(p, c, h) for c in mats], axis=0)
            assert frobenius(p - image) / frobenius(p) <= 1e-6

    def test_negative_h_duality(self):
        rng = np.random.default_rng(6)
        mats = np.stack([random_spd(4, rng) for _ in range(6)])
        for h in (0.25, 0.6):
            direct = power_mean(mats, -h).matrix
            dual = np.linalg.inv(power_mean(np.linalg.inv(mats), h).matrix)
            assert frobenius(direct - dual) <= 1e-8 * frobenius(direct)

    def test_congruence_equivariance(self):
        rng = np.random.default_rng(7)
        for h in (0.5, -0.5, 0.1):
            mats = np.stack([random_spd(4, rng) for _ in range(6)])
            w = random_gl(4, rng, max_cond=100.0)
            mapped = power_mean(w @ mats @ w.T, h).matrix
            expected = w @ power_mean(mats, h).matrix @ w.T
            assert frobenius(mapped - expected) <= 1e-6 * frobenius(expected)

    @pytest.mark.parametrize("dim", [4, 12, 32])
    def test_residual_bounds_relative_error(self, dim):
        # the residual estimates the relative error of the returned
        # mean, judged against a much tighter solve of the same set
        rng = np.random.default_rng(30 + dim)
        mats = np.stack([random_spd(dim, rng, log_spread=3.0)
                         for _ in range(30)])
        tol = SolverConfig().tolerance
        tight = SolverConfig(tolerance=1e-12)
        for h in (0.1, -0.1, 0.25, -0.5, 0.75):
            res = power_mean(mats, h)
            ref = power_mean(mats, h, config=tight).matrix
            assert res.residual <= tol
            assert frobenius(res.matrix - ref) / frobenius(ref) <= 2 * tol

    @pytest.mark.parametrize("h", [0.05, -0.05, 0.01, -0.01, 0.001, -0.001])
    def test_small_exponents_converge(self, h):
        rng = np.random.default_rng(31)
        mats = np.stack([random_spd(12, rng, log_spread=3.0)
                         for _ in range(30)])
        cfg = SolverConfig()
        res = power_mean(mats, h, config=cfg)
        assert res.iterations <= cfg.max_iterations
        assert res.residual <= cfg.tolerance

    @pytest.mark.parametrize("log10_cond", [6, 10])
    def test_ill_conditioned_sets_converge(self, log10_cond):
        # widely spread sets, on which the plain MPM step oscillates:
        # the Newton step solves them in 3-4 steps at every h, where a
        # step damped by the trials' spread took 15-66
        rng = np.random.default_rng(40 + log10_cond)
        mats = np.stack([random_spd(12, rng, log_spread=log10_cond
                                    * np.log(10.0)) for _ in range(30)])
        cfg = SolverConfig()
        for h in (0.5, 0.25, 0.1, -0.1, -0.25, -0.5):
            res = power_mean(mats, h, config=cfg)
            assert res.residual <= cfg.tolerance
            assert res.iterations <= 8, h
            p, base = res.matrix, mats
            if h < 0:
                p, base = np.linalg.inv(p), np.linalg.inv(mats)
            image = np.mean([geodesic(p, c, abs(h)) for c in base], axis=0)
            assert frobenius(p - image) / frobenius(p) <= 1e-6

    def test_h_zero_rejected(self):
        mats = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(InvalidInput):
            power_mean(mats, 0.0)
        with pytest.raises(InvalidInput):
            power_mean(mats, 1.5)

    @pytest.mark.parametrize("h", [1e-320, -1e-320, 5e-324, np.nan])
    def test_subnormal_exponent_rejected(self, h):
        # below the smallest normal float h log(l) keeps too few bits,
        # and these exponents ran out the 150-step budget
        with pytest.raises(InvalidInput):
            power_mean(small_spread_set(), h)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_smallest_normal_exponent_is_geometric(self, sign):
        mats = small_spread_set()
        g = geometric_mean(mats).matrix
        res = power_mean(mats, sign * np.finfo(float).tiny)
        assert airm_distance(res.matrix, g) <= 2 * SolverConfig().tolerance

    def test_convergence_failure_carries_state(self):
        rng = np.random.default_rng(8)
        mats = np.stack([random_spd(4, rng, log_spread=4.0)
                         for _ in range(10)])
        cfg = SolverConfig(tolerance=1e-15, max_iterations=2)
        with pytest.raises(ConvergenceFailure) as err:
            power_mean(mats, 0.1, config=cfg)
        assert err.value.last_iterate is not None
        assert err.value.residual > 1e-15
        assert err.value.iterations == 2


class TestGeometricMean:
    def test_singleton(self):
        rng = np.random.default_rng(9)
        c = random_spd(4, rng)
        res = geometric_mean(c[None])
        np.testing.assert_array_equal(res.matrix, c)
        assert res.iterations == 0

    def test_two_matrix_closed_form(self):
        mats = np.stack([np.diag([1.0, 1.0]), np.diag([4.0, 9.0])])
        res = geometric_mean(mats)
        np.testing.assert_allclose(res.matrix, np.diag([2.0, 3.0]),
                                   rtol=1e-6, atol=1e-6)

    def test_two_matrix_is_geodesic_midpoint(self):
        rng = np.random.default_rng(10)
        a, b = random_spd(5, rng), random_spd(5, rng)
        res = geometric_mean(np.stack([a, b]))
        mid = geodesic(a, b, 0.5)
        assert frobenius(res.matrix - mid) <= 1e-6 * frobenius(mid)

    def test_karcher_stationarity(self):
        rng = np.random.default_rng(11)
        cfg = SolverConfig()
        for _ in range(5):
            mats = np.stack([random_spd(4, rng, log_spread=3.0)
                             for _ in range(12)])
            res = geometric_mean(mats, config=cfg)
            assert res.residual <= cfg.tolerance * 4

    def test_congruence_equivariance(self):
        rng = np.random.default_rng(12)
        mats = np.stack([random_spd(4, rng) for _ in range(6)])
        w = random_gl(4, rng, max_cond=100.0)
        mapped = geometric_mean(w @ mats @ w.T).matrix
        expected = w @ geometric_mean(mats).matrix @ w.T
        assert frobenius(mapped - expected) <= 1e-6 * frobenius(expected)

    @pytest.mark.parametrize("dim, log10_cond", [
        (4, 2), (4, 6), (12, 4), (12, 6), (24, 6), (48, 6)])
    def test_stationarity_recomputed_from_matrix(self, dim, log10_cond):
        # the returned matrix, not the solver's own bookkeeping, must
        # satisfy ||sum_i w_i log(G^{-1/2} C_i G^{-1/2})||_F <= tol * d;
        # the d = 48 set exhausted the budget of a 2/(1 + L) step with
        # the comparison bound theta(||log||_F / sqrt(2))
        rng = np.random.default_rng(100 * dim + log10_cond)
        mats = np.stack([random_spd(dim, rng, log_spread=log10_cond
                                    * np.log(10.0)) for _ in range(25)])
        cfg = SolverConfig()
        res = geometric_mean(mats, config=cfg)
        w, v = np.linalg.eigh(res.matrix)
        r = (v / np.sqrt(w)) @ v.T
        lam, u = np.linalg.eigh(r @ mats @ r)
        logs = (u * np.log(lam)[:, None, :]) @ np.swapaxes(u, -1, -2)
        stationarity = np.linalg.norm(logs.mean(axis=0))
        assert stationarity <= cfg.tolerance * dim

    @pytest.mark.parametrize("seed", [2, 9, 17, 18, 29])
    def test_widely_spread_sets_converge(self, seed):
        # sets of the acceptance convergence test on which a plain unit
        # step stalls; the Newton step is solved to its forcing term
        # however spread the set is
        mats = log_uniform_case(seed)
        cfg = SolverConfig()
        res = geometric_mean(mats, config=cfg)
        assert res.iterations <= cfg.max_iterations
        assert res.residual <= cfg.tolerance * mats.shape[-1]

    @pytest.mark.parametrize("h", [0.75, 0.5, 0.25, 0.1, 0.0, -0.1, -0.25,
                                   -0.5, -0.75])
    def test_wide_sets_take_few_newton_steps(self, h):
        # cold solves on the acceptance convergence sets 2-21 (d 4-32,
        # condition up to 1e4) take at most 3 Newton steps each, where a
        # step damped by the trials' spread took up to 8 at |h| = 0.75
        # and 34 at |h| = 0.1
        tol = SolverConfig().tolerance
        for seed in range(2, 22):
            mats = log_uniform_case(seed)
            dim = mats.shape[-1]
            res = geometric_mean(mats) if h == 0.0 else power_mean(mats, h)
            assert res.iterations <= 5, seed
            assert res.residual <= tol * (dim if h == 0.0 else 1), seed

    def test_concentrated_class_takes_full_steps(self):
        # a test_10-shaped class: every trial's log-eigenvalue spread is
        # small enough for the unit step, at h = 0 and at every power
        spec = RiemannianGaussianSpec(dim=12, sigmas=(0.15, 0.35),
                                      trials_per_class=48, seed=1000)
        archive = synth_riemannian_gaussian(spec)
        mats = archive.trials[archive.labels == 1]
        tol = SolverConfig().tolerance
        res = geometric_mean(mats)
        assert res.iterations <= 8
        assert res.residual <= tol * 12
        for h in DEFAULT_H_GRID:
            if 0.0 < abs(h) < 1.0:
                res = power_mean(mats, h)
                assert res.iterations <= 8, h
                assert res.residual <= tol

    @pytest.mark.parametrize("n", [13, 48, 96])
    def test_concentrated_sets_take_corrected_steps(self, n):
        # test_10-shaped classes: the inexact Newton step solves a cold
        # mean in at most two steps, and the sigma = 0.15 class in one
        # from n = 48 on; one Neumann term per step took 3-4 on the
        # sigma = 0.35 class, 3 on the pooled set and 2 on the
        # sigma = 0.15 class, the unit step 6 to 8 and 3
        spec = RiemannianGaussianSpec(dim=12, sigmas=(0.15, 0.35),
                                      trials_per_class=n, seed=1000)
        archive = synth_riemannian_gaussian(spec)
        wide = archive.trials[archive.labels == 1]
        tol = SolverConfig().tolerance
        for mats, h, most in (
                (wide, 0.0, 2), (archive.trials, 0.0, 2), (wide, 0.5, 2),
                (wide, -0.5, 2),
                (archive.trials[archive.labels == 0], 0.0, 1 + (n < 48))):
            res = geometric_mean(mats) if h == 0.0 else power_mean(mats, h)
            assert res.iterations <= most, (len(mats), h)
            assert res.residual <= tol * (12 if h == 0.0 else 1)

    def test_decompositions_per_corrected_step(self, monkeypatch):
        # each corrected step decomposes the whitened trials, M and G,
        # the final residual test the trials once more; the Cholesky
        # start and the harmonic start take no eigendecomposition, and
        # at h = 0 the step takes F = M as it is, without decomposing M
        spec = RiemannianGaussianSpec(dim=12, sigmas=(0.15, 0.35),
                                      trials_per_class=48, seed=1000)
        archive = synth_riemannian_gaussian(spec)
        mats = archive.trials[archive.labels == 1]
        calls = count_eigh(monkeypatch)
        for h in (0.0, 0.5, -0.5):
            calls.clear()
            res = geometric_mean(mats) if h == 0.0 else power_mean(mats, h)
            assert res.iterations >= 1
            per_step = 2 if h == 0.0 else 3
            assert len(calls) == per_step * res.iterations + 1, h

    @pytest.mark.parametrize("h", [0.0, 0.5, -1.0])
    @pytest.mark.parametrize("init,message", [
        (np.eye(3), r"must have shape \(4, 4\), got \(3, 3\)"),
        (np.eye(4)[None], r"must have shape \(4, 4\), got \(1, 4, 4\)"),
        (np.diag([1.0, np.inf, 1.0, 1.0]), "contains non-finite entries"),
        (np.eye(4) + np.triu(np.full((4, 4), 0.1), 1), "is not symmetric"),
    ], ids=["shape", "stack", "non-finite", "non-symmetric"])
    def test_malformed_init_rejected(self, h, init, message):
        # before any solve, also where the closed form ignores the start
        rng = np.random.default_rng(17)
        mats = np.stack([random_spd(4, rng) for _ in range(5)])
        with pytest.raises(InvalidInput, match=f"^init {message}$"):
            if h == 0.0:
                geometric_mean(mats, init=init)
            else:
                power_mean(mats, h, init=init)

    @pytest.mark.parametrize("h", [0.0, 0.5, -0.5, 1.0, -1.0])
    def test_non_pd_trial_rejected(self, h):
        # the closed forms at h = +-1 and the harmonic start of h < 0
        # name the trial too, decided by a batched Cholesky
        rng = np.random.default_rng(16)
        mats = np.stack([random_spd(3, rng) for _ in range(3)]
                        + [np.diag([1.0, 1.0, -0.5])])

        def solve(**kwargs):
            if h == 0.0:
                return geometric_mean(mats, **kwargs)
            return power_mean(mats, h, **kwargs)

        with pytest.raises(InvalidInput, match="trial 3"):
            solve()
        with pytest.raises(InvalidInput, match="trial 3"):
            solve(init=np.eye(3))
        if abs(h) == 1.0:
            with pytest.raises(InvalidInput, match="trial 3"):
                build_mean_field({0: mats}, h_grid=(h,))

    @pytest.mark.parametrize("h", [0.0, 0.5, -0.5])
    def test_first_non_pd_trial_named(self, h):
        # the first non-PD trial is named, not the one with the smallest
        # eigenvalue, whether the solver's first step or the harmonic
        # start finds it
        mats = np.stack([5.0 * np.eye(3)] * 6)
        mats[2] = np.diag([-0.1, 1.0, 1.0])
        mats[4] = np.diag([-3.0, 1.0, 1.0])
        with pytest.raises(InvalidInput, match="trial 2 "):
            if h == 0.0:
                geometric_mean(mats)
            else:
                power_mean(mats, h)

    @pytest.mark.parametrize("h", [0.0, 0.5, -1.0])
    def test_non_finite_trial_named(self, h):
        rng = np.random.default_rng(19)
        mats = np.stack([random_spd(3, rng) for _ in range(5)])
        mats[3, 2, 2] = np.inf
        with pytest.raises(InvalidInput,
                           match="^trial 3 contains non-finite entries$"):
            geometric_mean(mats) if h == 0.0 else power_mean(mats, h)
        with pytest.raises(InvalidInput, match="^class 1: trial 3 contains "
                                               "non-finite entries$"):
            build_mean_field({0: mats[:3], 1: mats}, h_grid=(h,))

    def test_non_spd_init_rejected(self):
        rng = np.random.default_rng(15)
        mats = np.stack([random_spd(3, rng) for _ in range(4)])
        init = np.diag([1.0, -1.0, 1.0])
        refusal = (r": init is not positive definite "
                   r"\(smallest eigenvalue -1\.000e\+00\)$")
        with pytest.raises(InvalidInput, match="^geometric mean" + refusal):
            geometric_mean(mats, init=init)
        for h in (0.5, -0.5):
            with pytest.raises(InvalidInput,
                               match=rf"^power mean \(h={h}\)" + refusal):
                power_mean(mats, h, init=init)


class TestOrderAndLimits:
    def test_loewner_monotone_in_h(self):
        rng = np.random.default_rng(13)
        grid = DEFAULT_H_GRID
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            n = int(rng.integers(3, 21))
            mats = np.stack([random_spd(dim, rng, log_spread=2.0)
                             for _ in range(n)])
            field = build_mean_field({0: mats, 1: mats[:2]})
            solved = {e.h: e.matrix for e in field.entries[0]}
            for h1, h2 in zip(grid[:-1], grid[1:]):
                gap = solved[h2] - solved[h1]
                bound = -1e-7 * frobenius(solved[h2])
                assert np.linalg.eigvalsh(gap).min() >= bound

    def test_distance_to_geometric_shrinks_toward_zero(self):
        rng = np.random.default_rng(14)
        mats = np.stack([random_spd(5, rng, log_spread=2.0)
                         for _ in range(15)])
        field = build_mean_field({0: mats, 1: mats[:2]})
        solved = {e.h: e.matrix for e in field.entries[0]}
        g = solved[0.0]
        for side in ((1.0, 0.75, 0.5, 0.25, 0.1), (-1.0, -0.75, -0.5, -0.25, -0.1)):
            dists = [airm_distance(solved[h], g) for h in side]
            for far, near in zip(dists[:-1], dists[1:]):
                assert near <= far + 1e-8


    def test_continuity_at_zero(self):
        # Lim & Palfia: P_h -> G as h -> 0 from either side, at a rate
        # linear in |h|
        rng = np.random.default_rng(32)
        mats = np.stack([random_spd(6, rng, log_spread=3.0)
                         for _ in range(20)])
        tight = SolverConfig(tolerance=1e-10, max_iterations=500)
        g = geometric_mean(mats, config=tight).matrix
        ratios = [airm_distance(power_mean(mats, s * h, config=tight).matrix,
                                g) / h
                  for s in (1.0, -1.0) for h in (1e-1, 1e-2, 1e-3)]
        assert min(ratios) > 0.0
        assert max(ratios) <= 2.0 * min(ratios)


class TestSetOnly:
    """A mean depends only on its set: not on the order of the trials,
    and ``P_{-h}(C) = P_h(C^{-1})^{-1}``."""

    @settings(max_examples=25)
    @given(mean_sets())
    def test_permutation_invariance(self, case):
        mats, perm, h = case
        tol = SolverConfig().tolerance
        for mean in (arithmetic_mean, harmonic_mean,
                     lambda m: power_mean(m, h).matrix,
                     lambda m: geometric_mean(m).matrix):
            assert airm_distance(mean(mats), mean(mats[perm])) <= tol

    @settings(max_examples=25)
    @given(mean_sets())
    def test_negative_exponent_duality(self, case):
        mats, _, h = case
        direct = power_mean(mats, -h).matrix
        dual = np.linalg.inv(power_mean(np.linalg.inv(mats), h).matrix)
        assert airm_distance(direct, dual) <= SolverConfig().tolerance


class TestCongruenceAndOrder:
    """Over concentrated and widely spread sets, so that the Newton
    step takes few and several conjugate-gradient iterations:
    ``P_h(A C_i A^T) = A P_h(C_i) A^T``,
    ``P_h <= P_h'`` in the Loewner order for ``h < h'``, and ``P_h``
    tends to the geometric mean linearly in ``h``."""

    @settings(max_examples=40)
    @given(branch_sets())
    def test_congruence_equivariance(self, case):
        # the MPM iterates are equivariant up to a rotation, so the two
        # solves differ by rounding, far inside the tolerance
        mats, a, h = case

        def mean(m):
            if h == 0.0:
                return geometric_mean(m).matrix
            return power_mean(m, h).matrix

        image = a @ mean(mats) @ a.T
        assert airm_distance(image, mean(a @ mats @ a.T)) <= \
            SolverConfig().tolerance

    @settings(max_examples=25)
    @given(branch_sets(), st.lists(st.integers(-100, 100), min_size=2,
                                   max_size=8, unique=True))
    def test_loewner_monotone_in_h(self, case, hundredths):
        # every eigenvalue of P_h^{-1/2} P_h' P_h^{-1/2} is at least 1,
        # up to the two means' tolerance
        mats = case[0]
        grid = sorted(k / 100 for k in hundredths)
        field = build_mean_field({0: mats}, h_grid=grid)
        tol = SolverConfig().tolerance
        for low, high in zip(field.entries[0][:-1], field.entries[0][1:]):
            w, v = np.linalg.eigh(low.matrix)
            r = (v / np.sqrt(w)) @ v.T
            gap = np.log(np.linalg.eigvalsh(r @ high.matrix @ r).min())
            assert gap >= -2 * tol, (low.h, high.h)

    @settings(max_examples=40)
    @given(branch_sets())
    def test_continuity_at_zero(self, case):
        # Lim & Palfia: d(P_h, G) / |h| tends to a limit from either
        # side, so over two decades of |h| it moves by less than a factor
        # 2; sets of nearly equal trials are skipped, where that distance
        # is rounding
        mats = case[0]
        assume(np.ptp(np.log(np.linalg.eigvalsh(mats))) >= 1e-2)
        tight = SolverConfig(tolerance=1e-11, max_iterations=500)
        g = geometric_mean(mats, config=tight).matrix
        ratios = [airm_distance(power_mean(mats, s * h, config=tight).matrix,
                                g) / h
                  for s in (1.0, -1.0) for h in (1e-1, 1e-2, 1e-3)]
        assert min(ratios) > 0.0
        assert max(ratios) <= 2.0 * min(ratios)


class TestDocumentedDomain:
    """Trials of condition up to 1e10 (1e9 above d = 32), alone and
    whitened by their mean (docs/determinism.md)."""

    @settings(max_examples=60)
    @given(domain_sets())
    def test_solves_meet_their_bounds(self, case):
        mats, h = case
        cfg = SolverConfig()
        res = power_mean(mats, h, config=cfg)
        assert res.residual <= cfg.tolerance
        res = geometric_mean(mats, config=cfg)
        assert res.residual <= cfg.tolerance * mats.shape[-1]

    @settings(max_examples=10)
    @given(short_recording_fields())
    def test_fields_of_short_recordings_meet_their_bounds(self, sets):
        # shrinkage bounds an OAS estimate's condition by about
        # channels * (samples + 1), inside the domain
        tol = SolverConfig().tolerance
        dim = sets[0].shape[-1]
        field = build_mean_field(sets)
        for c in sets:
            for e in field.entries[c]:
                assert e.residual <= tol * (dim if e.h == 0.0 else 1), (c, e.h)

    def test_copies_of_one_trial_leave_the_domain(self):
        # 101 of 109 trials (d = 26) are copies of one trial of
        # condition 1e9.6: the mean comes close to it, and a trial in
        # another basis is of condition up to 1e15.7 whitened by it.
        # The solves fail by name: at h = 0 an iterate loses positive
        # definiteness to rounding, at h = -0.1 the step length
        # underflows, both well inside the step budget
        rng = np.random.default_rng(141)
        mats = np.stack([random_spd(26, rng, log_spread=9.8 * np.log(10.0))
                         for _ in range(109)])
        mats[1:101] = mats[0]
        for h in (0.0, -0.1):
            with pytest.raises(ConvergenceFailure) as err:
                geometric_mean(mats) if h == 0.0 else power_mean(mats, h)
            assert err.value.iterations < SolverConfig().max_iterations

    @pytest.mark.parametrize("seed", [64023, 64024])
    def test_two_trials_at_d64_leave_the_domain(self, seed):
        # two d = 64 trials of condition 1e9.5-1e10, above the 1e9 of
        # d > 32, and 1e8.7-1e9.0 whitened by their mean: at h = -0.9
        # the residual stalls at 1.5e-7-1.6e-7, above the tolerance,
        # until the step length underflows, and the failure says so;
        # h = -0.5 converges in two steps
        rng = np.random.default_rng(seed)
        mats = np.stack([random_spd(64, rng, log_spread=10 * np.log(10.0))
                         for _ in range(2)])
        cfg = SolverConfig()
        assert power_mean(mats, -0.5, config=cfg).iterations <= 2
        with pytest.raises(ConvergenceFailure) as err:
            power_mean(mats, -0.9, config=cfg)
        assert cfg.tolerance < err.value.residual <= 2 * cfg.tolerance
        assert err.value.iterations < cfg.max_iterations
        assert str(err.value) == (
            f"power mean (h=-0.9) step length stalled after "
            f"{err.value.iterations} iterations "
            f"(residual {err.value.residual:.3e})")


class TestRpme:
    def test_far_outlier_removed(self):
        rng = np.random.default_rng(15)
        inliers = spd_cloud(np.eye(4), 0.05, 20, rng)
        outlier = np.diag(np.full(4, np.e**10))
        mats = np.concatenate([inliers, outlier[None]])
        res = rpme_clean(mats)
        assert 20 not in res.kept_indices
        assert len(res.kept_indices) == 20

    def test_homogeneous_set_untouched(self):
        rng = np.random.default_rng(16)
        mats = spd_cloud(np.eye(4), 0.05, 15, rng)
        res = rpme_clean(mats)
        dist = airm_distance(res.mean, mats)
        z = (dist - dist.mean()) / np.std(dist, ddof=1)
        assume_clean = np.all(z <= 2.5)
        if assume_clean:  # construction check, then the real assertions
            np.testing.assert_array_equal(res.kept_indices, np.arange(15))
            plain = geometric_mean(mats).matrix
            np.testing.assert_array_equal(res.mean, plain)

    def test_round_budget(self):
        rng = np.random.default_rng(17)
        # alternating shells force repeated removals
        mats = np.concatenate([
            spd_cloud(np.eye(3), 0.05, 12, rng),
            spd_cloud(np.diag([50.0, 50.0, 50.0]), 0.05, 2, rng),
            spd_cloud(np.diag([2000.0] * 3), 0.05, 1, rng),
        ])
        calls = 0
        import meansfield.means as means_mod
        original = means_mod.geometric_mean

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        means_mod.geometric_mean = counting
        try:
            res = rpme_clean(mats)
        finally:
            means_mod.geometric_mean = original
        assert calls <= RPME_MAX_ROUNDS
        assert res.rounds <= RPME_MAX_ROUNDS

    def test_small_sets_unmodified(self):
        rng = np.random.default_rng(18)
        mats = np.stack([random_spd(3, rng) for _ in range(2)])
        res = rpme_clean(mats)
        np.testing.assert_array_equal(res.kept_indices, [0, 1])

    @settings(max_examples=30)
    @given(outlier_sets())
    def test_solver_distances_keep_the_same_trials(self, mats):
        # each round reads its distances from the solve's last step;
        # they pick the trials that airm_distance z-scores pick
        res = rpme_clean(mats)
        kept, rounds = rpme_by_distance(mats)
        np.testing.assert_array_equal(res.kept_indices, kept)
        assert res.rounds == rounds

    def test_survivor_floor(self):
        # three points, one of which looks extreme: never drop below 2
        mats = np.stack([np.eye(3), 1.02 * np.eye(3),
                         np.diag([900.0, 900.0, 900.0])])
        res = rpme_clean(mats)
        assert len(res.kept_indices) >= 2


class TestMeanField:
    def test_classes_sorted_once(self):
        entry = MeanFieldEntry(0.0, np.eye(2), 1, 0.0)
        field = MeanField((0.0,), {2: (entry,), 0: (entry,), 1: (entry,)})
        assert field.classes == tuple(sorted(field.entries)) == (0, 1, 2)
        assert field.classes is field.classes

    def test_default_grid_shape(self):
        rng = np.random.default_rng(19)
        trials = {
            0: np.stack([random_spd(3, rng) for _ in range(6)]),
            1: np.stack([random_spd(3, rng) for _ in range(6)]),
        }
        field = build_mean_field(trials)
        assert field.classes == (0, 1)
        for label in field.classes:
            entries = field.entries[label]
            assert len(entries) == 11
            hs = [e.h for e in entries]
            assert hs == sorted(hs)
            assert hs == list(DEFAULT_H_GRID)
            for e in entries:
                assert np.linalg.eigvalsh(e.matrix).min() > 0

    def test_idempotence_across_grid(self):
        rng = np.random.default_rng(20)
        c = random_spd(4, rng)
        field = build_mean_field({0: np.stack([c] * 5),
                                  1: np.stack([2 * c] * 5)})
        for e in field.entries[0]:
            assert frobenius(e.matrix - c) <= 1e-6 * frobenius(c)

    def test_commuting_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        mats, q, rows = commuting_set(4, 10, rng)
        field = build_mean_field({0: mats, 1: mats[:2]})
        for e in field.entries[0]:
            expected = commuting_power_mean(q, rows, e.h)
            err = frobenius(e.matrix - expected) / frobenius(expected)
            assert err <= 1e-6

    def test_robust_cleaning_applies_to_all_means(self):
        rng = np.random.default_rng(22)
        inliers = spd_cloud(np.eye(4), 0.05, 20, rng)
        outlier = np.diag(np.full(4, np.e**10))
        mats = np.concatenate([inliers, outlier[None]])
        field = build_mean_field(
            {0: mats, 1: inliers[:4]}, robust=True
        )
        assert 20 not in field.kept[0]
        clean_field = build_mean_field({0: inliers, 1: inliers[:4]})
        for e_r, e_c in zip(field.entries[0], clean_field.entries[0]):
            assert frobenius(e_r.matrix - e_c.matrix) <= 1e-6 * frobenius(
                e_c.matrix)

    def test_single_exponent_grid(self):
        rng = np.random.default_rng(23)
        mats = np.stack([random_spd(3, rng) for _ in range(5)])
        field = build_mean_field({0: mats, 1: mats[:2]}, h_grid=(0.0,))
        plain = geometric_mean(mats).matrix
        np.testing.assert_array_equal(field.entries[0][0].matrix, plain)

    def test_no_classes(self):
        with pytest.raises(InvalidInput, match="^no classes given$"):
            build_mean_field({})

    def test_grid_validation(self):
        mats = np.stack([np.eye(2)] * 3)
        trials = {0: mats, 1: mats}
        with pytest.raises(InvalidInput):
            build_mean_field(trials, h_grid=())
        with pytest.raises(InvalidInput):
            build_mean_field(trials, h_grid=(0.0, 0.0))
        with pytest.raises(InvalidInput):
            build_mean_field(trials, h_grid=(0.0, 2.0))

    @pytest.mark.parametrize("h", [1e-320, -5e-324, np.nan])
    def test_subnormal_grid_exponent_rejected_before_solving(self, h,
                                                             monkeypatch):
        solves = []
        for name in ("power_mean", "geometric_mean"):
            monkeypatch.setattr(means, name,
                                lambda *a, **k: solves.append(a))
        mats = small_spread_set()
        with pytest.raises(InvalidInput):
            build_mean_field({0: mats, 1: mats}, h_grid=(-1.0, 0.0, h, 0.5))
        assert solves == []

    def test_minimum_trials_per_class(self):
        mats = np.stack([np.eye(2)] * 3)
        with pytest.raises(InvalidInput, match="^class 1: trial set needs "
                                               "at least 2 trials$"):
            build_mean_field({0: mats, 1: mats[:1]})

    def test_grid_with_small_exponents(self):
        rng = np.random.default_rng(33)
        mats = np.stack([random_spd(5, rng, log_spread=3.0)
                         for _ in range(12)])
        grid = (-1.0, -0.1, -0.01, 0.0, 0.01, 0.1, 1.0)
        field = build_mean_field({0: mats, 1: mats[:3]}, h_grid=grid)
        tol = SolverConfig().tolerance
        for label in field.classes:
            assert [e.h for e in field.entries[label]] == list(grid)
            for e in field.entries[label]:
                # the geometric mean's residual is a stationarity norm
                # bounded by tolerance * d
                assert e.residual <= tol * (5 if e.h == 0.0 else 1)

    def test_failure_names_class_and_exponent(self):
        rng = np.random.default_rng(24)
        mats = np.stack([random_spd(4, rng, log_spread=4.0)
                         for _ in range(8)])
        cfg = SolverConfig(tolerance=1e-15, max_iterations=1)
        with pytest.raises(ConvergenceFailure) as err:
            build_mean_field({7: mats, 8: mats}, config=cfg)
        assert "class 7" in str(err.value)
        assert "0.75" in str(err.value)
        # the robust cleaning's own solves are named by class as well
        with pytest.raises(ConvergenceFailure,
                           match="^class 7: geometric mean did not "
                                 "converge in 1 iterations") as err:
            build_mean_field({7: mats, 8: mats}, config=cfg, robust=True)
        assert err.value.iterations == 1
        assert err.value.last_iterate is not None

    def test_non_pd_interpolant_falls_back_to_nearest_mean(self, monkeypatch):
        # seed 29: on this widely spread set (condition e^8) at least one
        # interpolated start is not positive definite
        rng = np.random.default_rng(29)
        mats = np.stack([random_spd(4, rng, log_spread=8.0)
                         for _ in range(8)])
        cholesky = np.linalg.cholesky
        rejected = 0

        def counting(a):
            nonlocal rejected
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                rejected += 1
                raise

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        field = build_mean_field({0: mats})
        assert rejected >= 1
        tol = SolverConfig().tolerance
        for e in field.entries[0]:
            assert e.residual <= tol * (4 if e.h == 0.0 else 1), e.h

    def test_interpolated_starts_save_iterations(self):
        # the class of test_concentrated_class_takes_full_steps: two
        # warm-start chains took 48 steps over the default grid, starts
        # interpolated through the solved means 23, or 13 with
        # Jacobian-corrected steps
        spec = RiemannianGaussianSpec(dim=12, sigmas=(0.15, 0.35),
                                      trials_per_class=48, seed=1000)
        archive = synth_riemannian_gaussian(spec)
        field = build_mean_field({1: archive.trials[archive.labels == 1]})
        assert sum(e.iterations for e in field.entries[1]) <= 30

    def test_corrected_steps_cut_field_iterations(self):
        # one field-d12 subject's training classes, 13 trials each: the
        # power means over the default grid took 8 + 30 unit steps, and
        # 5 + 18 with one Neumann term of the Newton step
        spec = RiemannianGaussianSpec(dim=12, sigmas=(0.15, 0.35),
                                      trials_per_class=13, seed=1000)
        archive = synth_riemannian_gaussian(spec)
        classes = {c: archive.trials[archive.labels == c] for c in (0, 1)}
        field = build_mean_field(classes)
        total = sum(e.iterations for c in (0, 1)
                    for e in field.entries[c] if e.h != 0.0)
        assert total <= 18

    @pytest.mark.parametrize("seed", [26, 30])
    def test_two_trial_class_of_a_wide_set_converges(self, seed):
        # the two-trial class of these acceptance convergence sets takes
        # corrected steps from a start far from its mean at h = -0.75;
        # a correction of M itself, instead of log(I + h M)/h, stepped
        # out of the domain of log1p there
        mats = log_uniform_case(seed)
        dim = mats.shape[-1]
        tol = SolverConfig().tolerance
        field = build_mean_field({0: mats, 1: mats[:2]})
        for label in (0, 1):
            for e in field.entries[label]:
                assert np.all(np.isfinite(e.matrix))
                assert e.residual <= tol * (dim if e.h == 0.0 else 1), e.h

    @pytest.mark.parametrize("dim, seed", [(2, 0), (2, 91), (2, 135),
                                           (3, 13)])
    def test_far_starts_on_small_wide_sets_converge(self, dim, seed):
        # three trials of log spread 6: at h = -0.75 the interpolated
        # start is far from the mean, where a correction of M itself
        # pointed uphill and ran out the budget
        rng = np.random.default_rng(seed)
        mats = np.stack([random_spd(dim, rng, log_spread=6.0)
                         for _ in range(3)])
        tol = SolverConfig().tolerance
        for e in build_mean_field({0: mats}).entries[0]:
            assert e.residual <= tol * (dim if e.h == 0.0 else 1), e.h

    @settings(max_examples=40)
    @given(field_cases())
    def test_entries_match_cold_solves(self, case):
        # however the grid is spaced, an interpolated start changes no
        # entry beyond the residual contract of a cold solve
        mats, grid = case
        dim = mats.shape[-1]
        tol = SolverConfig().tolerance
        tight = SolverConfig(tolerance=1e-12)
        field = build_mean_field({0: mats}, h_grid=grid)
        for e in field.entries[0]:
            if e.h == 0.0:
                assert e.residual <= tol * dim
                continue
            ref = power_mean(mats, e.h, config=tight).matrix
            assert frobenius(e.matrix - ref) / frobenius(ref) <= 2 * tol, e.h

    def test_warm_start_saves_iterations(self):
        rng = np.random.default_rng(25)
        wins = 0
        cases = 8
        for _ in range(cases):
            mats = np.stack([random_spd(5, rng, log_spread=3.0)
                             for _ in range(12)])
            field = build_mean_field({0: mats, 1: mats[:2]})
            warm = sum(e.iterations for e in field.entries[0])
            cold = 0
            for h in DEFAULT_H_GRID:
                if h == 0.0:
                    cold += geometric_mean(mats).iterations
                else:
                    cold += power_mean(mats, h).iterations
            wins += warm < cold
        # reported benchmark: interpolated starts should usually win
        print(f"warm-start wins: {wins}/{cases}")
        assert wins >= 1
