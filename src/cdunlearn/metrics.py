"""Ranking, threshold, and efficiency metrics shared across evaluation paths."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _as_scored(scores: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    return s, y


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via average ranks, O(n log n).

    Equals the probability that a random positive outscores a random negative,
    with ties counting half. Requires at least one example of each class.
    """
    s, y = _as_scored(scores, labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    order = np.argsort(s)
    sorted_s = s[order]
    # Average rank within each tie group (1-based ranks). Every member of a
    # group gets the same rank, so the order the sort leaves inside a group
    # (it need not be stable) never reaches the result.
    boundaries = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    group_sizes = np.diff(np.r_[boundaries, len(s)])
    group_mean_rank = boundaries + (group_sizes + 1) / 2.0  # boundaries are 0-based
    ranks = np.empty(len(s), dtype=np.float64)
    ranks[order] = np.repeat(group_mean_rank, group_sizes)
    pos_rank_sum = ranks[y == 1.0].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def acc(scores: Sequence[float], labels: Sequence[int], threshold: float = 0.5) -> float:
    """Fraction of scores whose thresholded class matches the label.

    A score exactly at the threshold counts as the positive class.
    """
    s, y = _as_scored(scores, labels)
    if len(s) == 0:
        raise ValueError("acc needs at least one example")
    predicted = (s >= threshold).astype(np.float64)
    return float(np.mean(predicted == y))


def rtrr(t_unlearn: float, t_retrain: float) -> float:
    """Relative time reduction, in percent: 100 * (1 - t_unlearn / t_retrain).

    Negative when unlearning is slower than retraining. ``t_retrain`` must be
    finite and > 0, ``t_unlearn`` finite and >= 0 (ValueError otherwise).
    """
    if not (math.isfinite(t_retrain) and t_retrain > 0):
        raise ValueError(f"t_retrain must be a finite number > 0, got {t_retrain!r}")
    if not (math.isfinite(t_unlearn) and t_unlearn >= 0):
        raise ValueError(f"t_unlearn must be a finite number >= 0, got {t_unlearn!r}")
    return 100.0 * (1.0 - t_unlearn / t_retrain)
