"""Ranking/threshold metrics against brute-force oracles."""

import math

import numpy as np
import pytest

from cdunlearn.metrics import acc, auc, rtrr


def pairwise_auc(scores, labels):
    """O(n^2) definition: P(random positive outscores random negative), ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def stable_sort_auc(scores, labels):
    """The average-rank AUC over a stable sort, which ``auc`` used before it
    took NumPy's default sort."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n_pos = int(y.sum())
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    group_sizes = np.diff(np.r_[boundaries, len(s)])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(boundaries + (group_sizes + 1) / 2.0, group_sizes)
    return float((ranks[y == 1.0].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (len(y) - n_pos)))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_equal_scores_give_half(self):
        assert auc([0.4] * 10, [1, 0] * 5) == 0.5

    def test_matches_pair_counting_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 2001))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # coarse grid of scores forces plenty of ties
            scores = rng.integers(0, 12, size=n) / 11.0
            assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12

    def test_matches_stable_sort_bits_on_ties_and_signed_zeros(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            scores = rng.integers(-3, 4, size=n) / 3.0
            zeros = scores == 0.0
            scores[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
            got = np.float64(auc(scores, labels))
            want = np.float64(stable_sort_auc(scores, labels))
            assert got.view(np.int64) == want.view(np.int64)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random(500)
        labels = rng.integers(0, 2, size=500)
        labels[0], labels[1] = 0, 1
        transformed = np.exp(3.0 * scores) + 7.0
        assert auc(scores, labels) == pytest.approx(auc(transformed, labels), abs=1e-14)

    def test_label_swap_complement_without_ties(self):
        rng = np.random.default_rng(2)
        scores = rng.permutation(300) / 300.0  # distinct scores
        labels = rng.integers(0, 2, size=300)
        labels[0], labels[1] = 0, 1
        assert auc(scores, 1 - labels) == pytest.approx(1.0 - auc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.9], [1, 1])


class TestAcc:
    def test_boundary_score_counts_as_positive(self):
        assert acc([0.5], [1]) == 1.0
        assert acc([0.5], [0]) == 0.0

    def test_perfect_predictions(self):
        assert acc([0.9, 0.2, 0.7], [1, 0, 1]) == 1.0

    def test_label_inversion_complement(self):
        rng = np.random.default_rng(3)
        scores = rng.random(200)  # ties with the threshold have measure zero
        labels = rng.integers(0, 2, size=200)
        assert acc(scores, 1 - labels) == pytest.approx(1.0 - acc(scores, labels))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            acc([], [])


class TestRtrr:
    def test_examples(self):
        assert rtrr(25, 100) == 75.0
        assert rtrr(0, 100) == 100.0
        assert rtrr(100, 100) == 0.0

    def test_slower_than_retraining_goes_negative(self):
        assert rtrr(150, 100) == -50.0

    def test_zero_retrain_time_rejected(self):
        with pytest.raises(ValueError):
            rtrr(1.0, 0.0)

    @pytest.mark.parametrize("t_retrain", [math.nan, math.inf, -math.inf, -1.0])
    def test_retrain_time_must_be_finite_and_positive(self, t_retrain):
        with pytest.raises(ValueError, match="t_retrain must be a finite number > 0"):
            rtrr(1.0, t_retrain)

    @pytest.mark.parametrize("t_unlearn", [math.nan, math.inf, -math.inf, -1.0])
    def test_unlearn_time_must_be_finite_and_nonnegative(self, t_unlearn):
        with pytest.raises(ValueError, match="t_unlearn must be a finite number >= 0"):
            rtrr(t_unlearn, 1.0)
