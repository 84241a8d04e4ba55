"""Geometry substrate: eigendecomposition, matrix functions, the
affine-invariant distance, and geodesics."""

import numpy as np
import pytest

from meansfield.exceptions import InvalidInput
from meansfield.geometry import (
    SolverConfig, airm_distance, check_spd, expm, frobenius, geodesic,
    invsqrtm, logm, powm, sqrtm,
)

from oracles import random_gl, random_spd

RT3 = np.sqrt(3.0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-7
        assert cfg.max_iterations == 150

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0}, {"tolerance": -1e-3}, {"max_iterations": 0},
        {"max_iterations": 2.5}, {"tolerance": np.inf},
        {"tolerance": np.nan}, {"max_iterations": True},
        {"tolerance": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        # an infinite tolerance would accept any start as converged
        with pytest.raises(InvalidInput, match=f"^{next(iter(kwargs))} must"):
            SolverConfig(**kwargs)


EMPTY = np.empty((0, 3, 3))

# Each public function on an empty stack: the call and the shape of its
# empty result, broadcast as for any other stack.
EMPTY_STACKS = {
    "check_spd": (lambda: check_spd(EMPTY), (0, 3, 3)),
    "logm": (lambda: logm(EMPTY), (0, 3, 3)),
    "expm": (lambda: expm(EMPTY), (0, 3, 3)),
    "sqrtm": (lambda: sqrtm(EMPTY), (0, 3, 3)),
    "invsqrtm": (lambda: invsqrtm(EMPTY), (0, 3, 3)),
    "powm": (lambda: powm(EMPTY, 0.5), (0, 3, 3)),
    "frobenius": (lambda: frobenius(EMPTY), (0,)),
    "airm_distance": (lambda: airm_distance(np.eye(3), EMPTY), (0,)),
    "airm_distance 2-d stack": (
        lambda: airm_distance(np.eye(3), np.empty((2, 0, 3, 3))), (2, 0)),
    **{f"geodesic {side} t={t}": (
        lambda side=side, t=t: geodesic(
            *((EMPTY, np.eye(3)) if side == "a" else (np.eye(3), EMPTY)), t),
        (0, 3, 3))
       for side in "ab" for t in (0.0, 0.5, 1.0)},
}


@pytest.mark.parametrize("name", sorted(EMPTY_STACKS))
def test_empty_stack_gives_empty_result(name):
    call, shape = EMPTY_STACKS[name]
    assert call().shape == shape


class TestSpdCheck:
    def test_accepts_spd(self):
        check_spd(np.diag([2.0, 0.5]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            check_spd(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInput):
            check_spd(np.diag([1.0, -0.5]))

    def test_rejects_singular(self):
        with pytest.raises(InvalidInput):
            check_spd(np.diag([1.0, 0.0]))

    def test_no_repair(self):
        # a barely-indefinite matrix is rejected, never clamped
        with pytest.raises(InvalidInput):
            check_spd(np.diag([1.0, -1e-14]))

    def test_symmetry_tolerance_is_relative(self):
        a = np.array([[1e6, 1.0 + 5e-5], [1.0, 1e6]])
        check_spd(a)  # 5e-5 <= 1e-10 * 1e6

    def test_stack_symmetry_judged_per_matrix(self):
        # the skewed matrix is rejected alone; a large neighbour in the
        # stack must not lend it its scale
        skewed = np.array([[1.0, 1e-6], [0.0, 1.0]])
        stack = np.stack([1e6 * np.eye(2), skewed])
        with pytest.raises(InvalidInput, match="^matrix is not symmetric$"):
            check_spd(skewed)
        with pytest.raises(InvalidInput, match="matrix 1 is not symmetric"):
            check_spd(stack)

    def test_stack_names_first_bad_matrix(self):
        stack = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -1.0]),
                          np.diag([1.0, 0.0])])
        with pytest.raises(InvalidInput,
                           match="trial 2 is not positive definite"):
            check_spd(stack, name="trial")
        np.testing.assert_array_equal(check_spd(stack[:2]), stack[:2])


class TestMatrixFunctions:
    def test_non_square_rejected(self):
        with pytest.raises(InvalidInput, match=r"^matrix must be square, "
                           r"got shape \(2, 3\)$"):
            logm(np.ones((2, 3)))

    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(logm(np.eye(4)), np.zeros((4, 4)))

    def test_power_half_diagonal(self):
        np.testing.assert_allclose(
            powm(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_invsqrt_hand_case(self):
        # compose the hand eigendecomposition of [[2,1],[1,2]] with
        # 1/sqrt: V diag(1/sqrt(3), 1) V^T
        a = (1.0 / RT3 + 1.0) / 2.0
        b = (1.0 / RT3 - 1.0) / 2.0
        np.testing.assert_allclose(
            invsqrtm(np.array([[2.0, 1.0], [1.0, 2.0]])),
            [[a, b], [b, a]], atol=1e-12,
        )

    def test_sqrt_then_square(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = random_spd(5, rng, log_spread=13.0)  # cond up to ~4e5
            assert np.linalg.cond(s) <= 1e6
            back = powm(sqrtm(s), 2.0)
            assert np.abs(back - s).max() <= 1e-8 * np.abs(s).max()

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = random_spd(5, rng, log_spread=13.0)
            back = expm(logm(s))
            assert np.abs(back - s).max() <= 1e-8 * np.abs(s).max()

    def test_inverse(self):
        rng = np.random.default_rng(3)
        s = random_spd(4, rng)
        np.testing.assert_allclose(powm(s, -1.0) @ s, np.eye(4), atol=1e-12)

    def test_positivity_required(self):
        indefinite = np.diag([1.0, -1.0])
        for fn in (logm, sqrtm, invsqrtm):
            with pytest.raises(InvalidInput):
                fn(indefinite)
        # exp applies to any symmetric matrix
        expm(indefinite)

    def test_stack_support(self):
        rng = np.random.default_rng(4)
        stack = np.stack([random_spd(3, rng) for _ in range(5)])
        logs = logm(stack)
        assert logs.shape == stack.shape
        for one, full in zip(stack, logs):
            np.testing.assert_allclose(logm(one), full, atol=1e-12)


class TestDistance:
    def test_identity_to_itself(self):
        assert airm_distance(np.eye(3), np.eye(3)) <= 1e-12

    def test_closed_form(self):
        d = airm_distance(np.eye(2), np.diag([np.e**2, np.e**2]))
        assert abs(d - 2.0 * np.sqrt(2.0)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = random_spd(4, rng), random_spd(4, rng)
            assert abs(airm_distance(a, b) - airm_distance(b, a)) <= 1e-10

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = random_spd(4, rng), random_spd(4, rng)
            w = random_gl(4, rng, max_cond=100.0)
            d0 = airm_distance(a, b)
            d1 = airm_distance(w @ a @ w.T, w @ b @ w.T)
            assert abs(d1 - d0) <= 1e-8 * d0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (random_spd(4, rng, log_spread=3.0) for _ in range(3))
            assert airm_distance(a, c) <= (
                airm_distance(a, b) + airm_distance(b, c) + 1e-9
            )

    def test_inversion_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = random_spd(4, rng), random_spd(4, rng)
            d0 = airm_distance(a, b)
            d1 = airm_distance(np.linalg.inv(a), np.linalg.inv(b))
            assert abs(d1 - d0) <= 1e-8 * d0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            airm_distance(np.eye(2), np.eye(3))

    def test_stacked_second_argument(self):
        rng = np.random.default_rng(9)
        a = random_spd(3, rng)
        stack = np.stack([random_spd(3, rng) for _ in range(4)])
        ds = airm_distance(a, stack)
        assert ds.shape == (4,)
        for b, d in zip(stack, ds):
            assert abs(airm_distance(a, b) - d) <= 1e-12


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(10)
        a, b = random_spd(4, rng), random_spd(4, rng)
        np.testing.assert_array_equal(geodesic(a, b, 0.0), a)
        np.testing.assert_array_equal(geodesic(a, b, 1.0), b)

    def test_commuting_midpoint(self):
        g = geodesic(np.diag([1.0, 1.0]), np.diag([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(g, np.diag([2.0, 3.0]), atol=1e-12)

    def test_midpoint_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = random_spd(4, rng), random_spd(4, rng)
            gab = geodesic(a, b, 0.5)
            gba = geodesic(b, a, 0.5)
            assert np.abs(gab - gba).max() <= 1e-8 * np.abs(gab).max()

    def test_distance_proportionality(self):
        rng = np.random.default_rng(12)
        for t in (0.25, 0.5, 0.9):
            a, b = random_spd(4, rng), random_spd(4, rng)
            total = airm_distance(a, b)
            partial = airm_distance(a, geodesic(a, b, t))
            assert abs(partial - t * total) <= 1e-8 * total

    def test_parameter_range(self):
        with pytest.raises(InvalidInput):
            geodesic(np.eye(2), np.eye(2), 1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            geodesic(np.eye(2), np.eye(3), 0.5)

    def test_endpoint_not_positive_definite(self):
        indefinite = np.diag([1.0, -1.0])
        with pytest.raises(InvalidInput,
                           match=r"^a is not positive definite "
                                 r"\(smallest eigenvalue -1\.000e\+00\)$"):
            geodesic(indefinite, np.eye(2), 0.5)
        with pytest.raises(InvalidInput,
                           match=r"^b is not positive definite "
                                 r"\(smallest eigenvalue -1\.000e\+00\)$"):
            geodesic(np.eye(2), indefinite, 0.5)
