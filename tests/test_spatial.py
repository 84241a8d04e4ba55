"""Spatial filters: eigendecomposition-based two-class filters, joint
diagonalization, and the two-stage adaptive reduction."""

import numpy as np
import pytest
import scipy.linalg

from meansfield import spatial
from meansfield.exceptions import InvalidInput
from meansfield.geometry import airm_distance
from meansfield.means import geometric_mean
from meansfield.spatial import (
    STAGE1_DIM, STAGE2_DIM, SpatialFilter, adcsp_fit, apply_filter, csp_fit,
    csp_gevd, pham_ajd,
)

from oracles import (
    ajd_criterion, pham_pair_step, pham_sweeps, random_gl, random_spd,
    round_robin, spd_cloud,
)


def two_class_covs(dim, n_per_class, rng, spread=0.1):
    """Diagonally-separated two-class covariance stacks."""
    base_a = np.diag(np.linspace(1.0, 3.0, dim))
    base_b = np.diag(np.linspace(3.0, 1.0, dim))
    covs, labels = [], []
    for label, base in ((0, base_a), (1, base_b)):
        for c in spd_cloud(base, spread, n_per_class, rng):
            covs.append(c)
            labels.append(label)
    return np.stack(covs), np.array(labels)


class TestCspGevd:
    def test_diagonal_hand_case(self):
        f = csp_gevd(np.diag([4.0, 1.0, 1.0]), np.diag([1.0, 1.0, 4.0]), 2)
        # eigenvalues 0.8, 0.5, 0.2: coordinates 1 and 3 are selected,
        # largest side first
        assert f.output_dim == 2
        np.testing.assert_allclose(np.abs(f.matrix[0]),
                                   [1 / np.sqrt(5), 0, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(f.matrix[1]),
                                   [0, 0, 1 / np.sqrt(5)], atol=1e-12)

    def test_equal_means_fall_back_to_index_order(self):
        mean = np.diag([2.0, 3.0, 4.0])
        f = csp_gevd(mean, mean, 2)
        # no discrimination: the first two eigenvectors of the pencil
        # in its canonical (descending-eigenvalue) order
        lam, v = scipy.linalg.eigh(mean, 2 * mean)
        v = v[:, ::-1]
        np.testing.assert_allclose(f.matrix, v[:, :2].T, atol=1e-12)

    def test_whitening_normalization(self):
        rng = np.random.default_rng(0)
        a, b = random_spd(6, rng), random_spd(6, rng)
        f = csp_gevd(a, b, 4)
        np.testing.assert_allclose(
            f.matrix @ (a + b) @ f.matrix.T, np.eye(4), atol=1e-8
        )

    def test_eigenvalue_complementarity(self):
        rng = np.random.default_rng(1)
        a, b = random_spd(5, rng), random_spd(5, rng)
        lam_a, v = scipy.linalg.eigh(a, a + b)
        lam_b = np.array([w @ b @ w for w in v.T])
        np.testing.assert_allclose(lam_a + lam_b, np.ones(5), atol=1e-10)
        assert np.all((lam_a > 0) & (lam_a < 1))

    def test_eigenvalues_match_scipy_pencil(self):
        rng = np.random.default_rng(3)
        for dim in (2, 7, 28):
            a, b = random_spd(dim, rng), random_spd(dim, rng)
            f = csp_gevd(a, b, dim - dim % 2)
            # each row v has v^T (a + b) v = 1, so v^T a v is its eigenvalue
            lam = np.sort(np.einsum("ij,jk,ik->i", f.matrix, a, f.matrix))
            lam_ref = scipy.linalg.eigh(a, a + b, eigvals_only=True)
            if dim % 2:  # the least discriminative eigenvalue is dropped
                lam_ref = np.delete(lam_ref, np.argmin(np.abs(lam_ref - 0.5)))
            np.testing.assert_allclose(lam, lam_ref, rtol=0.0, atol=1e-12)

    def test_too_many_filters_rejected(self):
        with pytest.raises(InvalidInput):
            csp_gevd(np.eye(3), np.eye(3), 4)
        with pytest.raises(InvalidInput):
            csp_gevd(np.eye(4), np.eye(4), 3)  # odd

    @pytest.mark.parametrize("n_filters", [2.0, True, 0, -2])
    def test_filter_count_not_a_positive_even_integer_rejected(self,
                                                               n_filters):
        with pytest.raises(InvalidInput,
                           match="^n_filters must be a positive even integer$"):
            csp_gevd(np.eye(4), np.eye(4), n_filters)

    def test_means_of_different_dimensions_rejected(self):
        with pytest.raises(InvalidInput,
                           match="^class means must share their dimension$"):
            csp_gevd(np.eye(3), np.eye(4), 2)

    def test_csp_fit_row_budget(self):
        rng = np.random.default_rng(2)
        covs, labels = two_class_covs(12, 8, rng)
        f = csp_fit(covs, labels)
        assert f.output_dim == 8  # 4 filters per class, 2 classes


def mixed_diagonal_set(dim, n, seed):
    """``n`` matrices ``M D_k M^T`` sharing one mixing matrix ``M``."""
    rng = np.random.default_rng(seed)
    base = [np.diag(rng.uniform(0.5, 4.0, dim)) for _ in range(n)]
    m = random_gl(dim, rng, max_cond=30.0)
    return np.stack([m @ d @ m.T for d in base])


def assert_scaled_permutation(p, atol):
    """Each row and each column of ``p`` has one entry above ``atol``
    times its row's largest."""
    p = np.abs(p) / np.abs(p).max(axis=1, keepdims=True)
    assert ((p > atol).sum(axis=1) == 1).all()
    assert (p.max(axis=0) == 1.0).all()


class TestPhamAjd:
    @pytest.mark.parametrize("dim", [2, 5, 12, 28])
    def test_random_pairs_diagonalized_and_whitened(self, dim):
        rng = np.random.default_rng(20 + dim)
        for log_spread in (1.0, np.log(1e3), np.log(1e6)):
            mats = np.stack([random_spd(dim, rng, log_spread),
                             random_spd(dim, rng, log_spread)])
            b = pham_ajd(mats)
            assert ajd_criterion(b, mats) <= 1e-10
            np.testing.assert_allclose(b @ mats.sum(axis=0) @ b.T,
                                       np.eye(dim), rtol=0, atol=1e-10)

    def test_diagonal_pair_gives_scaled_permutation(self):
        mats = np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([3.0, 1.0, 0.5])])
        b = pham_ajd(mats)
        assert_scaled_permutation(b, atol=1e-12)
        # rows ordered by descending generalized eigenvalue
        # a / (a + b) = 0.25, 2/3, 6/7
        assert [int(np.argmax(np.abs(r))) for r in b] == [2, 1, 0]
        assert ajd_criterion(b, mats) <= 1e-12

    def test_two_matrices_exactly_diagonalized(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_spd(5, rng), random_spd(5, rng)])
        b = pham_ajd(mats)
        for c in mats:
            t = b @ c @ b.T
            off = t - np.diag(np.diag(t))
            assert np.abs(off).max() <= 1e-6
        # the generalized-eigenvector solution diagonalizes both; the
        # criterion value at our solution must match its optimum (0)
        _, v = scipy.linalg.eigh(mats[0], mats[1])
        assert ajd_criterion(v.T, mats) <= 1e-10
        assert ajd_criterion(b, mats) <= 1e-10

    def test_planted_orthogonal_recovery(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        d1 = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        # distinct eigenvalue ratios keep every direction identifiable
        d2 = np.diag([2.3, 0.7, 5.1, 1.9, 3.7])
        b = pham_ajd(np.stack([q @ d1 @ q.T, q @ d2 @ q.T]))
        # each row of B Q hits exactly one coordinate
        assert_scaled_permutation(b @ q, atol=1e-6)

    def test_pair_matches_sweep_reference(self):
        # Pham's sweeps reach the same diagonalizer, up to the scale and
        # order of its rows
        mats = mixed_diagonal_set(6, 2, seed=21)
        b_ref = pham_sweeps(mats)[-1]
        b = pham_ajd(mats)
        assert ajd_criterion(b_ref, mats) <= 1e-10
        assert ajd_criterion(b, mats) <= 1e-12
        assert_scaled_permutation(b @ np.linalg.inv(b_ref), atol=1e-8)

    def test_two_matrices_match_generalized_eigenvalues(self):
        # the adaptive filter's stage-2 case: two SPD matrices at d = 28
        rng = np.random.default_rng(17)
        a, bm = random_spd(28, rng), random_spd(28, rng)
        b = pham_ajd(np.stack([a, bm]))
        assert ajd_criterion(b, np.stack([a, bm])) <= 1e-10
        diag_a = np.diag(b @ a @ b.T)
        ratios = diag_a / np.diag(b @ (a + bm) @ b.T)
        # csp_gevd rows v satisfy v^T (a + bm) v = 1, v^T a v = lambda
        v = csp_gevd(a, bm, 28).matrix
        lam = np.diag(v @ a @ v.T)
        np.testing.assert_allclose(np.sort(ratios), np.sort(lam),
                                   rtol=0, atol=1e-8)

    def test_off_diagonal_energy_shrinks(self):
        rng = np.random.default_rng(6)
        base = [np.diag(rng.uniform(0.5, 4.0, 5)) for _ in range(2)]
        m = random_gl(5, rng, max_cond=10.0)
        mats = np.stack([m @ d @ m.T for d in base])

        def off_energy(b):
            t = b @ mats @ b.T
            return np.sum((t - t * np.eye(5)) ** 2)

        assert off_energy(pham_ajd(mats)) < 1e-20 * off_energy(np.eye(5))

    def test_needs_two_matrices(self):
        for n in (1, 3):
            with pytest.raises(InvalidInput,
                               match=rf"^joint diagonalization needs exactly "
                                     rf"2 matrices, got shape \({n}, 3, 3\)$"):
                pham_ajd(np.stack([np.eye(3)] * n))

    # The sweep solver of oracles.pham_sweeps, the independent route of
    # test_pair_matches_sweep_reference, on sets of any size.

    def test_diagonal_set_is_fixed_point(self):
        mats = np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([3.0, 1.0, 0.5]),
                         np.diag([2.0, 2.0, 1.0])])
        iterates = pham_sweeps(mats)
        assert len(iterates) == 2
        np.testing.assert_array_equal(iterates[-1], np.eye(3))

    @staticmethod
    def assert_criterion_non_increasing(mats):
        """Checks the criterion after each sweep; returns the number of
        sweeps."""
        hist = [ajd_criterion(b, mats) for b in pham_sweeps(mats)]
        assert all(b <= a + 1e-12 for a, b in zip(hist[:-1], hist[1:]))
        return len(hist) - 1

    def test_criterion_non_increasing(self):
        self.assert_criterion_non_increasing(mixed_diagonal_set(6, 5, seed=5))

    def test_odd_dimension_criterion_non_increasing(self):
        # odd d: every round leaves one index paired with the dummy slot
        sweeps = self.assert_criterion_non_increasing(
            mixed_diagonal_set(7, 5, seed=15))
        assert sweeps >= 2

    @pytest.mark.parametrize("dim", range(2, 30))
    def test_rounds_cover_every_pair_once(self, dim):
        rounds = round_robin(dim)
        assert len(rounds) == (dim - 1 if dim % 2 == 0 else dim)
        seen = []
        for pairs in rounds:
            assert len(pairs) == dim // 2
            assert all(i > j for i, j in pairs)
            assert len({k for pair in pairs for k in pair}) == 2 * len(pairs)
            seen += pairs
        expected = [(i, j) for i in range(dim) for j in range(i)]
        assert sorted(seen) == expected

    @pytest.mark.parametrize("dim", [6, 7])
    def test_round_equals_its_pairs_one_at_a_time(self, dim):
        # the steps of a round touch disjoint pairs, so they commute:
        # taking them in reverse order gives the same round
        mats = mixed_diagonal_set(dim, 4, seed=16)
        mats /= np.abs(mats).max()
        c, b = mats.copy(), np.eye(dim)
        # a few rounds in, so every pair carries a nonzero step
        for pairs in round_robin(dim)[:3]:
            for i, j in pairs:
                pham_pair_step(c, b, i, j)
        for pairs in round_robin(dim):
            c_rev, b_rev = c.copy(), b.copy()
            dec_rev = [pham_pair_step(c_rev, b_rev, i, j)
                       for i, j in reversed(pairs)]
            dec = [pham_pair_step(c, b, i, j) for i, j in pairs]
            np.testing.assert_allclose(c, c_rev, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b, b_rev, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dec, dec_rev[::-1], rtol=0, atol=1e-12)
            assert all(abs(x) > 0 for x in dec)

    def test_criterion_matches_per_matrix_sum(self):
        mats = mixed_diagonal_set(5, 4, seed=18)
        b = random_gl(5, np.random.default_rng(19), max_cond=10.0)
        total = 0.0
        for c in mats:
            t = b @ c @ b.T
            total += (np.sum(np.log(np.diag(t)))
                      - np.linalg.slogdet(t)[1]) / len(mats)
        assert abs(ajd_criterion(b, mats) - total) <= 1e-14


class TestAdcsp:
    @pytest.mark.parametrize("dim,expected", [
        (64, 10), (30, 10), (14, 10), (10, 10), (8, 8), (4, 4),
        (13, 10), (27, 10), (28, 10), (29, 10),
    ])
    def test_dimension_contract(self, dim, expected):
        rng = np.random.default_rng(dim)
        covs, labels = two_class_covs(dim, 5, rng)
        f = adcsp_fit(covs, labels)
        assert f.output_dim == expected
        assert f.input_dim == dim
        out = apply_filter(f, covs[0])
        assert out.shape == (expected, expected)

    def test_small_input_passes_through(self):
        rng = np.random.default_rng(7)
        covs, labels = two_class_covs(6, 4, rng)
        f = adcsp_fit(covs, labels)
        np.testing.assert_array_equal(f.matrix, np.eye(6))
        np.testing.assert_array_equal(apply_filter(f, covs[0]), covs[0])

    def test_single_class_rejected(self):
        rng = np.random.default_rng(8)
        covs = np.stack([random_spd(12, rng) for _ in range(4)])
        with pytest.raises(InvalidInput):
            adcsp_fit(covs, np.zeros(4, dtype=int))

    def test_intermediate_stage_cap(self):
        rng = np.random.default_rng(9)
        covs, labels = two_class_covs(40, 5, rng)
        # compose: stage-1 output feeding stage 2 never exceeds 28 rows
        f = adcsp_fit(covs, labels)
        assert f.output_dim == 10
        assert f.matrix.shape == (10, 40)

    def test_stage1_outputs_checked_by_the_stage2_solve(self, monkeypatch):
        # at d = 32 the projected class stacks reach check_spd nowhere;
        # the only 28 x 28 stack it sees is the AJD's pair of means
        rng = np.random.default_rng(11)
        covs, labels = two_class_covs(32, 6, rng)
        checked = []
        check_spd = spatial.check_spd

        def recording(a, name="matrix"):
            checked.append((name, np.shape(a)))
            return check_spd(a, name)

        monkeypatch.setattr(spatial, "check_spd", recording)
        adcsp_fit(covs, labels)
        assert [c for c in checked if c[1][-1] == 28] == [
            ("ajd input", (2, 28, 28))]
        assert [c[1] for c in checked if c[1][-1] == 32] == [(32, 32)] * 2

    @pytest.mark.parametrize("dim", [12, 32])
    def test_stage2_is_the_two_class_filter(self, dim):
        # stage 2 picks and orders its rows as csp_gevd does on the
        # geometric means of the stage-1-projected classes
        rng = np.random.default_rng(14)
        covs, labels = two_class_covs(dim, 8, rng)
        w = np.eye(dim)
        if dim >= STAGE1_DIM:
            w = csp_gevd(covs[labels == 0].mean(axis=0),
                         covs[labels == 1].mean(axis=0), STAGE1_DIM).matrix
        geo = [geometric_mean(w @ covs[labels == c] @ w.T).matrix
               for c in (0, 1)]
        expected = csp_gevd(*geo, STAGE2_DIM).matrix @ w
        np.testing.assert_allclose(adcsp_fit(covs, labels).matrix, expected,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dim", [12, 32])
    def test_indefinite_trial_named_within_its_class(self, dim):
        # trial 3 of class 1 negated: with or without stage 1, the
        # stage-2 geometric mean names its class and its index there
        rng = np.random.default_rng(12)
        covs, labels = two_class_covs(dim, 8, rng)
        covs[8 + 3] = -covs[8 + 3]
        with pytest.raises(InvalidInput,
                           match=r"^class 1: geometric mean: trial 3 is not "
                                 r"positive definite \(smallest eigenvalue "
                                 r"-\d\.\d{3}e[+-]\d{2}\)$"):
            adcsp_fit(covs, labels)

    def test_preserves_separability(self):
        rng = np.random.default_rng(10)
        covs, labels = two_class_covs(32, 12, rng)
        f = adcsp_fit(covs, labels)
        filtered = apply_filter(f, covs)
        mean_a = filtered[labels == 0].mean(axis=0)
        mean_b = filtered[labels == 1].mean(axis=0)
        assert airm_distance(mean_a, mean_b) > 0.5


class TestApplyFilter:
    def test_identity(self):
        rng = np.random.default_rng(11)
        c = random_spd(5, rng)
        identity = SpatialFilter(np.eye(5))
        np.testing.assert_array_equal(apply_filter(identity, c), c)

    def test_shape_contract(self):
        rng = np.random.default_rng(12)
        c = random_spd(6, rng)
        w = rng.standard_normal((3, 6))
        f = SpatialFilter(w)
        out = apply_filter(f, c)
        assert out.shape == (3, 3)
        assert np.linalg.eigvalsh(out).min() > 0

    def test_square_filter_preserves_distances(self):
        rng = np.random.default_rng(13)
        a, b = random_spd(4, rng), random_spd(4, rng)
        w = random_gl(4, rng, max_cond=50.0)
        f = SpatialFilter(w)
        d0 = airm_distance(a, b)
        d1 = airm_distance(apply_filter(f, a), apply_filter(f, b))
        assert abs(d1 - d0) <= 1e-8 * d0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            apply_filter(SpatialFilter(np.eye(4)), np.eye(5))

    def test_rank_deficient_rows_rejected(self):
        # dependent rows, more rows than columns, and a 1-d array
        for w in (np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                  np.eye(4)[:, :3], np.ones(3)):
            with pytest.raises(InvalidInput):
                SpatialFilter(w)
