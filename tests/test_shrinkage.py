"""Monte-Carlo vs closed-form error of mean-shrunk estimates, and the optimal
shrink weight."""

import numpy as np
import pytest

from cdunlearn.shrinkage import (
    closed_form_mse,
    optimal_beta,
    simulate_mse,
)


def _simulate(betas, **overrides):
    base = dict(p=50, true_means=np.zeros(50), sigma=1.0, trials=4000, seed=0)
    base.update(overrides)
    return simulate_mse(betas=betas, **base)


def _one(beta=0.5, **overrides):
    (row,) = _simulate([beta], **overrides)
    return row


def one_beta_oracle(p, true_means, sigma, beta, trials, seed, layer_noise):
    """The straightforward form simulate_mse replaced: a fresh draw from the
    same seed for every beta. simulate_mse must give the same bits; this is
    kept only as an oracle."""
    mu = np.asarray(true_means, dtype=np.float64)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((trials, p)) * sigma
    naive = mu + eps
    if layer_noise == "shared":
        target = naive.mean(axis=1, keepdims=True)
    else:
        bar_noise = rng.standard_normal((trials, 1)) * (sigma / np.sqrt(p))
        target = mu.mean() + bar_noise
    adjusted = (1.0 - beta) * naive + beta * target
    err_naive = np.square(naive - mu).sum(axis=1)
    err_adjusted = np.square(adjusted - mu).sum(axis=1)

    def mean_se(errs):
        if trials == 1:
            return float(errs[0]), 0.0
        return float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(trials))

    (mse_naive, se_naive), (mse_adjusted, se_adjusted) = mean_se(err_naive), mean_se(err_adjusted)
    return {
        "beta": beta,
        "mse_naive": mse_naive,
        "mse_adjusted": mse_adjusted,
        "se_naive": se_naive,
        "se_adjusted": se_adjusted,
    }


class TestSimulate:
    def test_beta_zero_adjusted_equals_naive(self):
        result = _one(beta=0.0)
        assert result["mse_adjusted"] == result["mse_naive"]
        assert result["se_adjusted"] == result["se_naive"]

    def test_naive_total_matches_p_sigma_sq(self):
        for p, sigma in ((50, 1.0), (10, 2.0)):
            result = _one(p=p, true_means=np.linspace(-1, 1, p), sigma=sigma)
            assert abs(result["mse_naive"] - p * sigma**2) <= 4.0 * result["se_naive"]

    def test_deterministic_per_seed(self):
        a = _one(seed=5)
        b = _one(seed=5)
        assert a == b
        c = _one(seed=6)
        assert a != c

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            _one(sigma=0.0)
        with pytest.raises(ValueError):
            _one(beta=1.2)
        with pytest.raises(ValueError):
            _one(trials=0)
        with pytest.raises(ValueError):
            simulate_mse(p=3, true_means=np.zeros(4), sigma=1.0, betas=[0.1], trials=1)

    @pytest.mark.parametrize("layer_noise", ["shared", "independent"])
    @pytest.mark.parametrize(
        "p, trials, seed", [(30, 400, 4), (1, 50, 2), (12, 1, 7), (1, 1, 0)],
        ids=["p30", "p1", "one-trial", "p1-one-trial"],
    )
    def test_rows_match_one_draw_per_beta_bit_for_bit(self, layer_noise, p, trials, seed):
        means = np.linspace(-0.5, 0.5, p)
        betas = [round(0.05 * i, 2) for i in range(21)]
        rows = simulate_mse(p, means, 1.5, betas, trials, seed, layer_noise)
        expected = [
            one_beta_oracle(p, means, 1.5, beta, trials, seed, layer_noise) for beta in betas
        ]
        assert rows == expected

    @pytest.mark.parametrize(
        "overrides, name",
        [({"sigma": np.inf}, "sigma"), ({"sigma": np.nan}, "sigma"),
         ({"true_means": np.r_[0.0, np.nan, np.zeros(48)]}, "true_means"),
         ({"true_means": np.r_[np.zeros(49), -np.inf]}, "true_means")],
        ids=["sigma-inf", "sigma-nan", "means-nan", "means-inf"],
    )
    def test_nonfinite_inputs_rejected(self, overrides, name):
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            _one(trials=5, **overrides)

    def test_invalid_layer_noise_and_each_beta_checked(self):
        with pytest.raises(ValueError, match="layer_noise"):
            _simulate([0.1], layer_noise="coupled")
        with pytest.raises(ValueError, match=r"\[-0\.1\]"):
            _simulate([0.0, 0.5, -0.1, 1.0])

    @pytest.mark.parametrize(
        "layer_noise, shapes",
        [("shared", [(10, 50)]), ("independent", [(10, 50), (10, 1)])],
    )
    def test_noise_drawn_once_per_call(self, monkeypatch, layer_noise, shapes):
        draws = []
        default_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def standard_normal(self, size):
                draws.append(size)
                return self._rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        _simulate([0.0, 0.25, 0.5, 0.75, 1.0], trials=10, layer_noise=layer_noise)
        assert draws == shapes


class TestClosedForm:
    def test_beta_zero_is_naive_total(self):
        assert closed_form_mse(7, np.linspace(0, 2, 7), 1.5, 0.0) == pytest.approx(
            7 * 1.5**2
        )

    def test_hand_arithmetic(self):
        # p=3, sigma^2=1, spread 4, beta=0.5: 0.25 * (4 + 3 + 1) - 3 + 3 = 2
        means = np.array([0.0, 0.0, np.sqrt(2.0) * 2 / np.sqrt(2)])  # spread sum 4 below
        means = np.array([-1.0, 0.0, 1.0]) * np.sqrt(2.0)  # sum((m - mean)^2) = 4
        assert closed_form_mse(3, means, 1.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_matches_independent_target_simulation_across_beta_grid(self):
        p = 30
        means = np.linspace(-0.5, 0.5, p)
        rows = _simulate(
            np.arange(0.0, 1.01, 0.1),
            p=p,
            true_means=means,
            trials=20_000,
            layer_noise="independent",
        )
        for result in rows:
            expected = closed_form_mse(p, means, 1.0, result["beta"])
            tolerance = 4.0 * max(result["se_adjusted"], 1e-12)
            assert abs(result["mse_adjusted"] - expected) <= tolerance

    def test_shared_target_bias_is_exactly_the_covariance_term(self):
        # Shrinking toward the empirical mean of the same noisy values couples
        # the errors; the expected total exceeds the closed form by
        # 2 * beta * (1 - beta) * sigma^2.
        p, sigma = 30, 1.0
        means = np.linspace(-0.5, 0.5, p)
        rows = _simulate((0.2, 0.5, 0.8), p=p, true_means=means, trials=20_000)
        for result in rows:
            beta = result["beta"]
            expected = closed_form_mse(p, means, sigma, beta) + 2 * beta * (1 - beta) * sigma**2
            tolerance = 4.0 * max(result["se_adjusted"], 1e-12)
            assert abs(result["mse_adjusted"] - expected) <= tolerance

    @pytest.mark.parametrize(
        "means, sigma, name",
        [(np.zeros(3), np.inf, "sigma"), (np.zeros(3), np.nan, "sigma"),
         (np.array([0.0, np.nan, 1.0]), 1.0, "true_means"),
         (np.array([np.inf, 0.0, 1.0]), 1.0, "true_means")],
        ids=["sigma-inf", "sigma-nan", "means-nan", "means-inf"],
    )
    def test_nonfinite_inputs_rejected(self, means, sigma, name):
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            closed_form_mse(3, means, sigma, 0.5)

    def test_minimized_at_optimal_beta(self):
        p = 20
        means = np.linspace(0, 3, p)
        sum_sq_dev = float(np.square(means - means.mean()).sum())
        best = optimal_beta(p, sum_sq_dev, 1.0)
        grid = np.arange(0.0, 1.0001, 0.001)
        values = [closed_form_mse(p, means, 1.0, b) for b in grid]
        assert abs(grid[int(np.argmin(values))] - best) <= 0.01


class TestOptimalBeta:
    def test_hand_value(self):
        assert optimal_beta(3, 4.0, 1.0) == pytest.approx(0.375)

    def test_heterogeneous_limit_is_zero(self):
        assert optimal_beta(3, 1e12, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_homogeneous_limit(self):
        for p in (3, 10, 50):
            assert optimal_beta(p, 0.0, 2.0) == pytest.approx(p / (p + 1))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_beta(3, 1.0, 0.0)
        with pytest.raises(ValueError):
            optimal_beta(3, -1.0, 1.0)

    @pytest.mark.parametrize(
        "sum_sq_dev, sigma_sq", [(1.0, np.inf), (1.0, np.nan), (np.nan, 1.0), (np.inf, 1.0)],
        ids=["sigma_sq-inf", "sigma_sq-nan", "spread-nan", "spread-inf"],
    )
    def test_nonfinite_inputs_rejected(self, sum_sq_dev, sigma_sq):
        with pytest.raises(ValueError, match="finite"):
            optimal_beta(3, sum_sq_dev, sigma_sq)


class TestImprovementRange:
    def test_shrinkage_beats_naive_inside_safe_range(self):
        p = 25
        means = np.linspace(-2, 2, p)
        sum_sq_dev = float(np.square(means - means.mean()).sum())
        best = optimal_beta(p, sum_sq_dev, 1.0)
        betas = (0.25 * best, best, min(1.75 * best, 1.0))
        for result in _simulate(betas, p=p, true_means=means, trials=20_000):
            margin = 3.0 * np.hypot(result["se_naive"], result["se_adjusted"])
            assert result["mse_adjusted"] < result["mse_naive"] - margin

    def test_inequality_reverses_far_outside_range(self):
        # heterogeneous layer: the optimal weight is tiny and beta = 0.5 hurts
        p = 10
        means = np.linspace(-10, 10, p)
        sum_sq_dev = float(np.square(means - means.mean()).sum())
        best = optimal_beta(p, sum_sq_dev, 1.0)
        assert 0.5 > 2 * best
        result = _one(beta=0.5, p=p, true_means=means, trials=5_000)
        assert result["mse_adjusted"] > result["mse_naive"]
        assert closed_form_mse(p, means, 1.0, 0.5) > p * 1.0


def test_sweep_rows_share_common_draws():
    rows = simulate_mse(10, np.zeros(10), 1.0, np.array([0.0, 0.5]), trials=500, seed=3)
    assert rows[0]["mse_naive"] == rows[1]["mse_naive"]
    assert rows[0]["beta"] == 0.0 and rows[1]["beta"] == 0.5
