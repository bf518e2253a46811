"""Monte-Carlo and closed-form analysis of shrinking noisy per-parameter
importance estimates toward their layer mean.

Model: observed values are ``mu_i + eps_i`` with i.i.d. zero-mean noise of
variance sigma^2 over a layer of p parameters. Shrinking each observation
toward the layer mean with weight beta trades a little bias for a large
variance reduction; for p >= 3 and beta in (0, 2 beta*) the total squared
error over the layer is strictly smaller than leaving the observations alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import nn


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _layer_means(true_means: np.ndarray, p: int) -> np.ndarray:
    mu = np.asarray(true_means, dtype=np.float64)
    if p < 1 or mu.shape != (p,):
        raise ValueError("true_means must have shape (p,) with p >= 1")
    if not np.isfinite(mu).all():
        raise ValueError("true_means must be finite")
    return mu


def simulate_mse(
    p: int,
    true_means: np.ndarray,
    sigma: float,
    betas: Sequence[float],
    trials: int,
    seed: int = 0,
    layer_noise: str = "shared",
) -> list[dict]:
    """Monte-Carlo totals of squared estimation error, naive vs shrunk, one
    row per shrink weight in ``betas``.

    One draw serves every row: ``trials`` noisy observations of a layer of
    ``p`` parameters with true values ``true_means`` and Gaussian noise of
    standard deviation ``sigma``. Each beta shrinks those same observations
    toward a target, and each row holds ``beta``, ``mse_naive``,
    ``mse_adjusted``, ``se_naive`` and ``se_adjusted``: the mean total squared
    error over trials and its standard error (0 for a single trial).
    Deterministic per seed.

    ``layer_noise`` picks what the shrink target is:

    * ``"shared"`` (default, what the smoothing step actually computes): the
      empirical mean of the noisy per-parameter values, so its error is
      correlated with each value's own error;
    * ``"independent"``: the true layer mean plus a fresh Normal(0, sigma^2/p)
      draw per trial. This is the noise model under which
      :func:`closed_form_mse` is the exact expectation; the shared-target
      expectation exceeds it by ``2 * beta * (1 - beta) * sigma^2`` (the
      covariance term).
    """
    mu = _layer_means(true_means, p)
    betas = [float(beta) for beta in betas]
    _require_positive("sigma", sigma)
    outside = [beta for beta in betas if not 0.0 <= beta <= 1.0]
    if outside:
        raise ValueError(f"each beta must be in [0, 1], got {outside}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if layer_noise not in ("shared", "independent"):
        raise ValueError("layer_noise must be 'shared' or 'independent'")
    rng = np.random.default_rng(seed)
    naive = mu + rng.standard_normal((trials, p)) * sigma
    if layer_noise == "shared":
        target = naive.mean(axis=1, keepdims=True)
    else:
        target = mu.mean() + rng.standard_normal((trials, 1)) * (sigma / np.sqrt(p))

    def mean_se(estimate: np.ndarray) -> tuple[float, float]:
        errs = np.square(estimate - mu).sum(axis=1)
        if trials == 1:
            return float(errs[0]), 0.0
        return float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(trials))

    mse_naive, se_naive = mean_se(naive)
    rows = []
    for beta in betas:
        mse_adjusted, se_adjusted = mean_se((1.0 - beta) * naive + beta * target)
        rows.append(
            {
                "beta": beta,
                "mse_naive": mse_naive,
                "mse_adjusted": mse_adjusted,
                "se_naive": se_naive,
                "se_adjusted": se_adjusted,
            }
        )
    return rows


def closed_form_mse(p: int, true_means: np.ndarray, sigma: float, beta: float) -> float:
    """Expected total squared error of the beta-shrunk estimator:

        beta^2 * (sum_i (mean - mu_i)^2 + p sigma^2 + sigma^2)
        - 2 p beta sigma^2 + p sigma^2

    At beta = 0 this is the naive total, p sigma^2. Exact when the shrink
    target's noise is independent of each value's own noise (the
    ``layer_noise="independent"`` simulation); when the target is the
    empirical mean of the same noisy values, the true expectation is larger by
    ``2 * beta * (1 - beta) * sigma^2``.
    """
    _require_positive("sigma", sigma)
    mu = _layer_means(true_means, p)
    sum_sq_dev = float(np.square(mu.mean() - mu).sum())
    s2 = sigma * sigma
    return beta * beta * (sum_sq_dev + p * s2 + s2) - 2.0 * p * beta * s2 + p * s2


def optimal_beta(p: int, sum_sq_dev: float, sigma_sq: float) -> float:
    """Error-minimizing shrink weight  p sigma^2 / (sum_sq_dev + (p+1) sigma^2),
    clamped to [0, 1] so it stays usable as a smoothing factor."""
    _require_positive("sigma_sq", sigma_sq)
    if p < 1 or not 0 <= sum_sq_dev < math.inf:
        raise ValueError("p must be >= 1 and sum_sq_dev finite and nonnegative")
    beta = p * sigma_sq / (sum_sq_dev + p * sigma_sq + sigma_sq)
    return float(min(max(beta, 0.0), 1.0))


class BetaRecommendation(NamedTuple):
    beta: float
    degenerate: bool  # True when all layer values coincide (no spread to fit)


def recommend_beta(imp: nn.ArrayBundle, layer_id: str, sigma_sq: float) -> BetaRecommendation:
    """Advisory data-driven smoothing factor for one layer.

    Plugs the layer's sample spread into ``(p - 2) * sigma^2 / sum((v - mean)^2)``
    and clamps to [0, 1]. The caller supplies ``sigma_sq``, the noise variance
    of each per-parameter value, for example a per-example estimate from the
    fourth powers of the gradients. The layer's own spread cannot stand in for
    it: that gives ``(p - 2) / (p - 1)`` whatever the layer holds. Requires at
    least 3 parameters in the layer.
    """
    _require_positive("sigma_sq", sigma_sq)
    values = imp[layer_id].ravel()
    p = values.size
    if p < 3:
        raise ValueError(f"layer {layer_id!r} has {p} parameters; need >= 3")
    sum_sq_dev = float(np.square(values - values.mean()).sum())
    if sum_sq_dev == 0.0:
        return BetaRecommendation(beta=1.0, degenerate=True)
    beta = (p - 2) * sigma_sq / sum_sq_dev
    return BetaRecommendation(beta=float(min(max(beta, 0.0), 1.0)), degenerate=False)
