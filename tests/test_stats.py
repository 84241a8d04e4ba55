"""Paired tests, p-value combination, effect sizes, and the meta
comparison of score tables."""

import math
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats

from meansfield.evaluation import PipelineScoreTable, ScoreRow
from meansfield.exceptions import InvalidInput
from meansfield.stats import (
    _ndtr, _ndtri, _tied_ranks, exact_permutation_test, liptak_combine,
    meta_compare, smd, wilcoxon_signed_rank,
)

from oracles import (
    enumerate_permutation_p, normal_cdf_quadrature, signed_rank_mc_p,
    wilcoxon_reference_p,
)


def table_from_subject_scores(pipeline, per_dataset, k=2, seed=7):
    """Build a score table with ``k`` identical fold rows per subject."""
    rows = []
    for dataset in sorted(per_dataset):
        for subject in sorted(per_dataset[dataset]):
            auc = per_dataset[dataset][subject]
            for fold in range(k):
                rows.append(ScoreRow(
                    dataset=dataset, subject=subject, session="0",
                    fold=fold, auc=auc, fold_time_seconds=0.0,
                ))
    return PipelineScoreTable(pipeline=pipeline, k=k, seed=seed,
                              rows=tuple(rows))


class TestExactPermutation:
    def test_all_positive_triple(self):
        assert exact_permutation_test([1.0, 2.0, 3.0]) == 0.125

    def test_degenerate_zeros(self):
        assert exact_permutation_test([0.0, 0.0]) == 1.0

    def test_all_negative_triple(self):
        assert exact_permutation_test([-1.0, -2.0, -3.0]) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            diffs = rng.normal(0.2, 1.0, n)
            assert exact_permutation_test(diffs) == enumerate_permutation_p(
                diffs)

    def test_p_is_dyadic_and_bounded_below(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            p = exact_permutation_test(rng.normal(0.0, 1.0, n))
            scaled = p * 2**n
            assert scaled == int(scaled)
            assert p >= 2.0**-n

    def test_large_n_routed_elsewhere(self):
        with pytest.raises(InvalidInput, match="^20 >= 20 subjects: use "
                           "the signed-rank test$"):
            exact_permutation_test(np.ones(20))

    def test_too_small(self):
        with pytest.raises(InvalidInput):
            exact_permutation_test([1.0])


class TestWilcoxon:
    def test_twenty_positive_differences(self):
        diffs = np.arange(1.0, 21.0)
        p = wilcoxon_signed_rank(diffs)
        # W+ = 210, mu = 105, sigma^2 = 717.5
        z = (210.0 - 0.5 - 105.0) / math.sqrt(717.5)
        assert abs(p - (1.0 - _ndtr(z))) <= 1e-15
        assert p < 1e-4

    def test_antisymmetric_is_near_half(self):
        mags = np.arange(1.0, 11.0)
        diffs = np.concatenate([mags, -mags])
        p = wilcoxon_signed_rank(diffs)
        assert abs(p - 0.5) <= 0.02  # continuity correction only

    def test_all_zero_is_degenerate(self):
        assert wilcoxon_signed_rank(np.zeros(25)) == 1.0

    def test_zero_differences_dropped(self):
        base = np.arange(1.0, 21.0)
        with_zeros = np.concatenate([base, np.zeros(5)])
        assert wilcoxon_signed_rank(with_zeros) == wilcoxon_signed_rank(base)

    def test_tie_case_against_reference_and_enumeration(self):
        diffs = np.array([0.6, -0.3, 1.1, 0.9, -0.8, 0.5, 1.3, -0.2, 0.7,
                          0.4, -1.0, 0.8, 0.35, 1.2, -0.5, 0.5, 0.95, 0.25,
                          -0.15, 1.05])
        p = wilcoxon_signed_rank(diffs)
        # independently coded normal approximation (erfc-based)
        assert abs(p - wilcoxon_reference_p(diffs)) <= 1e-12
        # Monte-Carlo sign-flip enumeration, pinned seed: the normal
        # approximation must sit within a few MC standard errors
        p_mc = signed_rank_mc_p(diffs, n_draws=1024, seed=20240901)
        se = math.sqrt(p_mc * (1 - p_mc) / 1024) + 1e-4
        assert abs(p - p_mc) <= 4 * se + 0.01


class TestLiptak:
    def test_single_input_identity(self):
        for w in (1.0, 3.7):
            assert abs(liptak_combine([0.03], [w]) - 0.03) <= 1e-12

    def test_half_half(self):
        assert abs(liptak_combine([0.5, 0.5], [1.0, 1.0]) - 0.5) <= 1e-12

    def test_two_at_five_percent(self):
        p = liptak_combine([0.05, 0.05], [1.0, 1.0])
        assert abs(p - 0.0100) <= 1e-4

    def test_monotone_in_each_input(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ps = rng.uniform(0.01, 0.99, 4)
            ws = rng.uniform(0.5, 3.0, 4)
            base = liptak_combine(ps, ws)
            j = int(rng.integers(0, 4))
            smaller = ps.copy()
            smaller[j] *= 0.5
            assert liptak_combine(smaller, ws) <= base + 1e-15

    def test_extreme_inputs_clamped(self):
        p = liptak_combine([0.0, 1.0], [1.0, 1.0])
        assert 0.0 <= p <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            liptak_combine([], [])

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidInput):
            liptak_combine([0.5], [0.0])


class TestNormalFunctions:
    def test_cdf_against_quadrature(self):
        for x in (-4.0, -1.5, -0.3, 0.0, 0.7, 1.6448536269514722, 3.2, 6.0):
            assert abs(_ndtr(x) - normal_cdf_quadrature(x)) <= 1e-9

    def test_quantile_roundtrip(self):
        for p in (1e-10, 0.001, 0.3, 0.5, 0.9, 0.999999):
            assert abs(_ndtr(_ndtri(p)) - p) <= 1e-9 * max(p, 1e-3)

    def test_cdf_matches_scipy_ndtr(self):
        z = np.r_[np.linspace(-38.0, 9.0, 4701), -37.5, -1.2, 0.5, 8.0,
                  -np.inf, np.inf, np.nan]
        np.testing.assert_allclose([_ndtr(x) for x in z.tolist()],
                                   scipy.special.ndtr(z),
                                   rtol=1e-13, atol=1e-15, equal_nan=True)

    def test_quantile_matches_scipy_ndtri(self):
        p = np.r_[np.logspace(-300, -1, 600), np.linspace(0.1, 0.9, 801),
                  1.0 - np.logspace(-16, -1, 300), 1e-200, 0.025, 0.975,
                  0.0, 1.0, -0.1, 1.1, -0.5, 2.0, np.nan]
        np.testing.assert_allclose([_ndtri(x) for x in p.tolist()],
                                   scipy.special.ndtri(p),
                                   rtol=1e-13, atol=1e-15, equal_nan=True)


class TestTiedRanks:
    def test_matches_scipy_average_ranks(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 50, 400):
            x = rng.integers(0, 6, n) * 0.5  # a small value set: many ties
            ranks, sizes = _tied_ranks(x)
            np.testing.assert_array_equal(
                ranks, scipy.stats.rankdata(x, method="average"))
            np.testing.assert_array_equal(sizes,
                                          np.unique(x, return_counts=True)[1])


class TestSmd:
    def test_identical_scores_flagged_zero(self):
        a = np.array([0.7, 0.8, 0.9])
        res = smd(a, a)
        assert res.value == 0.0 and res.degenerate

    def test_constant_difference_flagged(self):
        a = np.array([0.5, 0.6, 0.7, 0.8])
        res = smd(a, a + 0.1)
        assert res.degenerate
        assert np.isfinite(res.value)

    def test_hand_case(self):
        a = np.zeros(4)
        b = np.array([0.2, 0.0, 0.1, 0.1])
        res = smd(a, b)
        assert abs(res.value - 0.1 / 0.0816497) <= 1e-4
        assert abs(res.value - 1.2247) <= 1e-3
        half = 1.96 / 2.0
        assert abs(res.ci_low - (res.value - half)) <= 1e-12
        assert abs(res.ci_high - (res.value + half)) <= 1e-12

    def test_sign_favors_second_pipeline(self):
        a = np.array([0.5, 0.55, 0.6])
        b = a + np.array([0.1, 0.12, 0.09])
        assert smd(a, b).value > 0
        assert smd(b, a).value < 0


def _one_subject_dataset():
    scores = {"d1": {"s1": 0.8, "s2": 0.7}, "d2": {"s1": 0.6}}
    return (table_from_subject_scores("A", scores),
            table_from_subject_scores("B", scores))


def _no_complete_pair():
    rows = [ScoreRow("d1", s, "0", 0, None, 0.0, error="x")
            for s in ("s1", "s2")]
    table = PipelineScoreTable("A", 1, 0, tuple(rows))
    return table, table


# Inputs each statistic refuses, with the message; the differences, the
# p-values, the weights and the scores must all be finite.
REFUSED = {
    "exact nan difference": (
        lambda: exact_permutation_test([np.nan, 1.0]),
        "differences contain non-finite values"),
    "signed-rank inf difference": (
        lambda: wilcoxon_signed_rank([np.inf] + [1.0] * 20),
        "differences contain non-finite values"),
    "liptak nan p": (lambda: liptak_combine([np.nan, 0.2], [1.0, 1.0]),
                     "p-values contain non-finite values"),
    "liptak nan weight": (lambda: liptak_combine([0.1, 0.2], [np.nan, 1.0]),
                          "weights must be positive and finite"),
    "liptak inf weight": (lambda: liptak_combine([0.1, 0.2], [np.inf, 1.0]),
                          "weights must be positive and finite"),
    "liptak weight count": (lambda: liptak_combine([0.1, 0.2], [1.0]),
                            "need one weight per p-value"),
    "smd nan score": (lambda: smd([0.5, np.nan], [0.6, 0.7]),
                      "scores contain non-finite values"),
    "smd lengths": (lambda: smd([0.5, 0.6, 0.7], [0.6, 0.7]),
                    "need two equal-length score lists, n >= 2"),
    "meta one subject": (lambda: meta_compare(*_one_subject_dataset()),
                         "paired comparison needs at least 2 subjects"),
    "meta no pair": (lambda: meta_compare(*_no_complete_pair()),
                     "no complete (dataset, subject) pairs to compare"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_inputs(case):
    call, message = REFUSED[case]
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()


class TestMetaCompare:
    def test_identical_tables(self):
        scores = {"d1": {"s1": 0.8, "s2": 0.7, "s3": 0.9},
                  "d2": {"s1": 0.6, "s2": 0.65, "s3": 0.7}}
        ta = table_from_subject_scores("A", scores)
        tb = table_from_subject_scores("B", scores)
        report = meta_compare(ta, tb)
        for d in report.datasets:
            assert d.smd == 0.0 and d.degenerate
            assert d.p_value == 1.0
        assert report.combined_smd == 0.0
        assert report.combined_p > 0.95

    def test_single_dataset_b_always_wins(self):
        a = {"d1": {"s1": 0.70, "s2": 0.72, "s3": 0.68}}
        b = {"d1": {"s1": 0.80, "s2": 0.80, "s3": 0.80}}
        report = meta_compare(table_from_subject_scores("A", a),
                              table_from_subject_scores("B", b))
        assert report.datasets[0].p_value == 0.125
        assert report.combined_p == 0.125  # single-input combination
        assert report.datasets[0].test == "exact-permutation"

    def test_weighting_sqrt_n(self):
        rng = np.random.default_rng(3)
        a, b = {}, {}
        for dataset, n in (("small", 4), ("large", 16)):
            a[dataset] = {f"s{i}": float(rng.uniform(0.5, 0.7))
                          for i in range(n)}
            b[dataset] = {k: v + float(rng.uniform(0.0, 0.2))
                          for k, v in a[dataset].items()}
        report = meta_compare(table_from_subject_scores("A", a),
                              table_from_subject_scores("B", b))
        by_name = {d.dataset: d for d in report.datasets}
        assert by_name["small"].weight == 2.0
        assert by_name["large"].weight == 4.0
        expected = (2.0 * by_name["small"].smd + 4.0 * by_name["large"].smd) / 6.0
        assert abs(report.combined_smd - expected) <= 1e-12

    def test_routing_by_subject_count(self):
        rng = np.random.default_rng(4)
        a, b = {}, {}
        for dataset, n in (("few", 6), ("many", 24)):
            a[dataset] = {f"s{i:02d}": float(rng.uniform(0.5, 0.7))
                          for i in range(n)}
            b[dataset] = {k: v + float(rng.normal(0.05, 0.02))
                          for k, v in a[dataset].items()}
        report = meta_compare(table_from_subject_scores("A", a),
                              table_from_subject_scores("B", b))
        tests = {d.dataset: d.test for d in report.datasets}
        assert tests == {"few": "exact-permutation", "many": "signed-rank"}

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        a = {"d1": {f"s{i}": float(rng.uniform(0.4, 0.6)) for i in range(5)}}
        b = {"d1": {k: v + float(rng.normal(0.08, 0.05))
                    for k, v in a["d1"].items()}}
        ta = table_from_subject_scores("A", a)
        tb = table_from_subject_scores("B", b)
        ab = meta_compare(ta, tb)
        ba = meta_compare(tb, ta)
        assert ba.datasets[0].smd == -ab.datasets[0].smd
        assert ba.combined_smd == -ab.combined_smd
        # sign-flip distribution symmetry: the one-sided p-values of the
        # two directions cover the whole distribution plus the shared
        # observed assignment
        total = ab.datasets[0].p_value + ba.datasets[0].p_value
        assert abs(total - (1.0 + 2.0**-5)) <= 1e-12

    def test_cell_mismatch_names_cell(self):
        ta = table_from_subject_scores("A", {"d1": {"s1": 0.7, "s2": 0.8}})
        tb = table_from_subject_scores("B", {"d1": {"s1": 0.7, "s3": 0.8}})
        with pytest.raises(InvalidInput) as err:
            meta_compare(ta, tb)
        assert "s2" in str(err.value) or "s3" in str(err.value)

    def test_missing_rows_drop_subject_pairwise(self):
        rows_a, rows_b = [], []
        for subject, auc in (("s1", 0.8), ("s2", 0.7), ("s3", 0.9)):
            for fold in range(2):
                rows_a.append(ScoreRow("d1", subject, "0", fold,
                                       None if subject == "s2" else auc,
                                       0.0,
                                       error="x" if subject == "s2" else None))
                rows_b.append(ScoreRow("d1", subject, "0", fold, auc - 0.05,
                                       0.0))
        ta = PipelineScoreTable("A", 2, 0, tuple(rows_a))
        tb = PipelineScoreTable("B", 2, 0, tuple(rows_b))
        report = meta_compare(ta, tb)
        assert report.datasets[0].n_subjects == 2
