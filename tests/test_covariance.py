"""Shrunk covariance estimation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meansfield.covariance import _oas_shrinkage, oas_covariance
from meansfield.exceptions import DegenerateInput, InvalidInput
from meansfield.geometry import _cholesky, check_spd

from oracles import oas_reference

# 3 correlated integer channels, 20 samples: the frozen hand case
HAND_DATA = np.array([
    [0, 21, 18, 12, 12, 24, 0, 18, 6, 0, 15, 27, 21, 21, 21, 21, 15, 3,
     24, 12],
    [1, 7, 7, 3, 0, 9, 4, 8, 6, 7, 7, 1, 3, 4, 4, 0, 5, 1, 7, 6],
    [1, 29, 24, 15, 14, 33, 5, 24, 12, 8, 22, 27, 25, 25, 27, 20, 20, 5,
     30, 18],
], dtype=float)
HAND_RHO = 0.11641774006894158


def shrinkage_of(trial):
    """``_oas_shrinkage`` of a trial's 1/n sample covariance."""
    centered = trial - trial.mean(axis=1, keepdims=True)
    n = trial.shape[1]
    return _oas_shrinkage(centered @ centered.T / n, n)


class TestOasCovariance:
    def test_shrinkage_target_fixed_point(self):
        # orthogonal centered rows of equal power: S is exactly the
        # identity, which the shrinkage target preserves for any rho
        data = np.array([[1.0, 1.0, -1.0, -1.0],
                         [1.0, -1.0, 1.0, -1.0]])
        cov = oas_covariance(data)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-14)

    def test_shrinkage_decreases_with_samples(self):
        rng = np.random.default_rng(0)
        mixing = rng.standard_normal((6, 6))
        def draw(n):
            return mixing @ rng.standard_normal((6, n))
        rho_small = shrinkage_of(draw(50))
        rho_large = shrinkage_of(draw(10_000))
        assert rho_large < rho_small

    def test_hand_case_matches_reference(self):
        expected, rho_expected = oas_reference(HAND_DATA)
        cov = oas_covariance(HAND_DATA)
        rho = shrinkage_of(HAND_DATA)
        np.testing.assert_allclose(cov, expected, rtol=1e-12)
        assert abs(rho - rho_expected) <= 1e-12
        assert abs(rho - HAND_RHO) <= 1e-12

    def test_output_positive_definite(self):
        rng = np.random.default_rng(1)
        # fewer samples than channels: sample covariance is singular
        data = rng.standard_normal((8, 5))
        with pytest.warns(UserWarning):
            cov = oas_covariance(data)
        assert np.linalg.eigvalsh(cov).min() > 0

    def test_rho_range(self):
        rng = np.random.default_rng(2)
        for n in (3, 10, 100, 5000):
            data = rng.standard_normal((4, n))
            rho = shrinkage_of(data)
            assert 0.0 <= rho <= 1.0

    def test_full_shrink_reproduces_scaled_identity(self):
        s = np.diag([2.0, 3.0])
        assert _oas_shrinkage(np.eye(2) * 2.5, 4) == 1.0
        # rho = 1 means the output is exactly tr(S)/p * I
        data = np.array([[1.0, -1.0, 1.0, -1.0],
                         [2.0, 2.0, -2.0, -2.0]])
        cov = oas_covariance(data)
        rho = shrinkage_of(data)
        if rho == 1.0:
            mu = np.trace(s) / 2
            np.testing.assert_allclose(cov, np.eye(2) * cov[0, 0])

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((5, 40))
        perm = np.array([3, 0, 4, 1, 2])
        direct = oas_covariance(data[perm])
        permuted = oas_covariance(data)[np.ix_(perm, perm)]
        np.testing.assert_allclose(direct, permuted, atol=1e-14)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInput):
            oas_covariance(np.ones((3, 10)))

    def test_bad_shapes_rejected(self):
        with pytest.raises(InvalidInput):
            oas_covariance(np.ones(5))
        with pytest.raises(InvalidInput):
            oas_covariance(np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidInput):
            oas_covariance(np.ones((2, 1)))


class TestOasStack:
    def test_stack_matches_per_trial_calls(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((7, 5, 40)) * rng.uniform(0.5, 3.0, (7, 5, 1))
        covs = oas_covariance(stack)
        assert covs.shape == (7, 5, 5)
        for i, trial in enumerate(stack):
            np.testing.assert_array_equal(covs[i], oas_covariance(trial))

    def test_constant_trial_named(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 3, 10))
        stack[2] = 1.0
        with pytest.raises(DegenerateInput, match="trial 2"):
            oas_covariance(stack)

    def test_short_trials_warn_once(self):
        rng = np.random.default_rng(6)
        with pytest.warns(UserWarning) as record:
            oas_covariance(rng.standard_normal((5, 8, 4)))
        assert len(record) == 1

    def test_bad_stacks_rejected(self):
        with pytest.raises(InvalidInput):
            oas_covariance(np.ones((0, 3, 10)))
        with pytest.raises(InvalidInput):
            oas_covariance(np.ones((2, 2, 3, 10)))

    def test_overflowing_estimate_refused_without_warning(self):
        # the finite trial 1 overflows its covariance; Cholesky would
        # return non-finite factors for it without raising
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((3, 4, 20))
        stack[1] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="^shrunk covariance 1 "
                               "contains non-finite entries$"):
                oas_covariance(stack)

    @pytest.mark.parametrize("samples, powers, scale", [
        # tr(S)^2 overflows: a float power would raise OverflowError
        (20, (1.0, 1.0, 1.0), 1e150),
        # only the denominator overflows: the ratio would read 0, an
        # unshrunk estimate, where the intensity is about 1e-3
        (2000, (1.0, 0.1, 0.01), 1e77),
    ])
    def test_overflowing_intensity_refused_without_warning(
            self, samples, powers, scale):
        # the finite trial 1 has a finite covariance
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((2, 3, samples))
        stack *= np.array(powers)[:, None]
        stack[1] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="^shrunk covariance 1 "
                               "contains non-finite entries$"):
                oas_covariance(stack)


@st.composite
def recordings(draw):
    """A stack of 1 to 4 trials of 2 to 64 channels and 2 to twice as
    many samples, fewer than channels included, with channel powers
    spread over six decades."""
    p = draw(st.integers(2, 64))
    n = draw(st.integers(2, 2 * p))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    power = 10.0 ** rng.uniform(-3.0, 3.0, (count, p, 1))
    return power * rng.standard_normal((count, p, n))


class TestOasPositiveDefinite:
    """OAS output is positive definite by construction: for ``p >= 2``,
    ``rho >= 1/(n + 1)``, so both deciders accept every estimate."""

    @settings(max_examples=30)
    @given(recordings())
    def test_both_deciders_accept(self, data):
        n = data.shape[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n < p
            covs = oas_covariance(data)
        assert min(shrinkage_of(trial) for trial in data) >= 1.0 / (n + 1)
        check_spd(covs, "shrunk covariance")
        _cholesky(covs, "shrunk covariance")
