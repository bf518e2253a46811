"""End-to-end acceptance checks.

Each test is one exit criterion, named ``test_cNN_*`` so the summary hook in
conftest prints one line per criterion. The expensive pipeline (benchmark-
shaped dataset, both baseline models, attacker) is built once per session and
shared; every tolerance is asserted here, nothing is deferred.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from cdunlearn import nn, synth
from cdunlearn.experiment import ExperimentConfig, run_experiment, sweep
from cdunlearn.importance import (
    fim_diag,
    hutchinson_diag,
    layer_importance,
    smooth_importance,
)
from cdunlearn.metrics import auc
from cdunlearn.shrinkage import closed_form_mse, optimal_beta, simulate_mse
from cdunlearn.unlearn import HIFConfig, fim_unlearn, hif_unlearn

from tests.test_metrics import pairwise_auc
from tests.test_nn import (
    _random_wiring,
    example_gradient,
    finite_difference_gradient,
    max_relative_error,
)


def test_c01_gradient_exactness_vs_finite_differences():
    """100 random (architecture, example) pairs: max relative error < 1e-4."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        arch = "decoupled" if trial % 2 == 0 else "neuralcdm"
        wiring, params = _random_wiring(rng, arch)
        s = int(rng.integers(0, wiring.n_students))
        q = int(rng.integers(0, wiring.n_items))
        y = float(rng.integers(0, 2))
        analytic = example_gradient(wiring, params, s, q, y)
        fd = finite_difference_gradient(wiring, params, s, q, y, h=1e-5)
        worst = max(worst, max_relative_error(analytic, fd))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"worst relative error {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c02_fisher_diagonal_matches_per_example_oracle():
    """Batched squared-gradient mean equals brute force within 1e-10 relative."""
    start = time.perf_counter()
    ds = synth.generate_dataset(40, 10, 4, seed=17)
    from cdunlearn.model import CDModel

    model = CDModel(embed_dim=6, ffn_hidden=(10,), dropout=0.2, max_epochs=4, seed=3)
    model.fit(ds.records, ds.qmatrix)
    records = ds.records[:200]
    fast = fim_diag(model, records, batch_size=64)
    brute = model.params_.zeros()
    for rec in records:
        g = example_gradient(
            model.wiring_, model.params_, rec.student_id, rec.item_id, rec.score
        )
        for name, values in brute.items():
            values += np.square(g[name])
    brute.scale_(1.0 / len(records))
    for name, values in fast.items():
        assert np.allclose(values, brute[name], rtol=1e-10, atol=1e-300), name
    assert time.perf_counter() - start < 60.0


def test_c03_smoothing_identities():
    """beta=0 is bitwise identity; beta=1 floods the layer mean; the
    within-layer mean is preserved for beta in {0.25, 0.5, 0.75} within 1e-12."""
    rng = np.random.default_rng(5)
    imp = nn.ArrayBundle(
        {"a": rng.random((30, 4)), "b": rng.random(17), "c": np.zeros(9)}
    )
    means = layer_importance(imp)
    at_zero = smooth_importance(imp, means, 0.0)
    for name, values in imp.items():
        assert np.array_equal(at_zero[name], values)
    at_one = smooth_importance(imp, means, 1.0)
    for name, values in at_one.items():
        assert np.array_equal(values, np.full_like(values, means[name]))
    for beta in (0.25, 0.5, 0.75):
        adjusted = smooth_importance(imp, means, beta)
        for name, values in imp.items():
            before = float(np.mean(values))
            after = float(np.mean(adjusted[name]))
            assert abs(after - before) <= 1e-12 * max(1.0, abs(before))


def test_c04_attenuation_unit_vectors_and_fim_hif_equivalence(frcsub_ctx):
    """The three attenuation cases reproduce exactly, and plain Fisher
    attenuation is bit-identical to smoothed attenuation at beta=0 on a
    trained benchmark-shaped model."""
    from cdunlearn.unlearn import select_and_attenuate

    def single(theta, imp_f, imp_r, alpha, lambda_):
        out, n = select_and_attenuate(
            nn.ArrayBundle({"w": np.array([theta])}),
            nn.ArrayBundle({"w": np.array([imp_f])}),
            nn.ArrayBundle({"w": np.array([imp_r])}),
            alpha,
            lambda_,
        )
        return float(out["w"][0]), n

    # selected, ratio 2 capped at 1: theta halves
    assert single(1.0, 0.8, 0.4, 1.3, 0.5) == (0.5, 1)
    # below threshold: untouched
    assert single(1.0, 0.1, 0.4, 1.3, 0.5) == (1.0, 0)
    # zero retain importance: infinite ratio capped at 1
    value, n = single(1.0, 0.2, 0.0, 1.3, 0.3)
    assert n == 1 and value == pytest.approx(0.7, abs=1e-15)

    forget = frcsub_ctx.mia_splits.forget_train_valid
    retain = frcsub_ctx.mia_splits.retain_train_valid
    for alpha, lambda_ in ((1.3, 0.5), (5.0, 0.8)):
        via_hif, _ = hif_unlearn(
            frcsub_ctx.m_orig, forget, retain, HIFConfig(alpha, lambda_, 0.0)
        )
        via_fim, _ = fim_unlearn(frcsub_ctx.m_orig, forget, retain, alpha, lambda_)
        for name, values in via_hif.params_.items():
            assert np.array_equal(values, via_fim.params_[name]), name


def test_c05_shrinkage_error_reduction_and_closed_form():
    """Shrinking toward the layer mean cuts total error by >= 5 standard
    errors at the optimal weight; the closed form matches simulation within
    4 standard errors under its independent-target noise model (under the
    default shared-target coupling it is biased low by exactly
    2*beta*(1-beta)*sigma^2, which is also asserted); its argmin matches the
    optimal-weight formula within 0.01."""
    start = time.perf_counter()
    p, sigma, trials = 50, 1.0, 20_000
    means = np.zeros(p)
    best = optimal_beta(p, 0.0, sigma**2)
    (result,) = simulate_mse(p, means, sigma, [best], trials)
    margin = 5.0 * max(result["se_naive"], result["se_adjusted"])
    assert result["mse_adjusted"] < result["mse_naive"] - margin

    observed_bias_exceeds_4se = False
    betas = np.arange(0.0, 1.001, 0.1)
    independent_rows = simulate_mse(p, means, sigma, betas, trials, layer_noise="independent")
    shared_rows = simulate_mse(p, means, sigma, betas, trials)
    for independent, shared in zip(independent_rows, shared_rows):
        beta = independent["beta"]
        expected = closed_form_mse(p, means, sigma, beta)
        tol = 4.0 * max(independent["se_adjusted"], 1e-12)
        assert abs(independent["mse_adjusted"] - expected) <= tol, f"beta={beta}"
        covariance_term = 2.0 * beta * (1.0 - beta) * sigma**2
        tol_shared = 4.0 * max(shared["se_adjusted"], 1e-12)
        assert abs(shared["mse_adjusted"] - (expected + covariance_term)) <= tol_shared
        if abs(shared["mse_adjusted"] - expected) > tol_shared:
            observed_bias_exceeds_4se = True
    # the coupling bias is real: at mid-range betas the raw closed form sits
    # outside the Monte-Carlo band unless the covariance term is added
    assert observed_bias_exceeds_4se

    grid = np.arange(0.0, 1.0001, 0.001)
    values = [closed_form_mse(p, means, sigma, float(b)) for b in grid]
    assert abs(float(grid[int(np.argmin(values))]) - best) <= 0.01
    assert time.perf_counter() - start < 60.0


def test_c06_hutchinson_diagonal_recovers_planted_quadratic():
    """On a quadratic loss with known Hessian diagonal, the 40-probe estimate
    lands within 3 standard errors of the truth for every coordinate."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    dim = 30
    diag = rng.uniform(0.5, 3.0, size=dim)
    off = rng.standard_normal((dim, dim)) * 0.25
    hess = (off + off.T) / 2.0
    np.fill_diagonal(hess, diag)
    estimate = hutchinson_diag(
        lambda x: hess @ x, np.zeros(dim), n_probe_samples=40, rng=np.random.default_rng(1)
    )
    # one-probe calls on one generator draw the 40-probe call's probes in order
    rng = np.random.default_rng(1)
    samples = np.array(
        [hutchinson_diag(lambda x: hess @ x, np.zeros(dim), 1, rng) for _ in range(40)]
    )
    assert estimate.tobytes() == samples.mean(axis=0).tobytes()
    sem = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    assert np.all(np.abs(estimate - diag) <= 3.0 * sem + 1e-9)
    assert time.perf_counter() - start < 60.0


def test_c07_sort_based_auc_equals_pair_counting():
    """50 random instances with ties, n <= 2000: agreement to 1e-12."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 2001))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 10, size=n) / 9.0
        assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12


def test_c08_pipeline_utility_and_attack_separation(frcsub_ctx):
    """Benchmark-shaped run (10,720 records, 10% forgotten): the original
    model is accurate and attackable, the retrained control is not."""
    orig = frcsub_ctx.orig_entry
    retrain = frcsub_ctx.retrain_entry
    assert orig.utility_auc >= 0.80, f"utility {orig.utility_auc:.4f}"
    assert orig.mia_auc - retrain.mia_auc >= 0.10, (
        f"attack gap {orig.mia_auc - retrain.mia_auc:.4f}"
    )
    assert 0.43 <= retrain.mia_auc <= 0.57, f"retrain attack {retrain.mia_auc:.4f}"
    # runtime target: the heavy stages are the two trainings
    assert frcsub_ctx.t_orig_seconds + frcsub_ctx.t_retrain_seconds < 540.0


def test_c09_swept_unlearning_closes_attack_gap_cheaply(frcsub_ctx, frcsub_config):
    """A swept configuration halves the attack-AUC gap to the retrained
    control while losing at most 0.02 utility AUC and saving >= 70% of the
    retraining time."""
    result = sweep(frcsub_config, ctx=frcsub_ctx, epsilon_utility=0.02)
    assert result.best is not None, "no utility-feasible sweep point"
    entry = result.best_entry
    orig = frcsub_ctx.orig_entry
    retrain = frcsub_ctx.retrain_entry
    halving_target = 0.5 * abs(orig.mia_auc - retrain.mia_auc)
    achieved = abs(entry.mia_auc - retrain.mia_auc)
    assert achieved <= halving_target, f"{achieved:.4f} > {halving_target:.4f}"
    assert orig.utility_auc - entry.utility_auc <= 0.02
    assert entry.rtrr >= 70.0, f"rtrr {entry.rtrr:.1f}%"


def test_c10_identical_runs_are_byte_identical(tmp_path):
    """Two runs with the same config and seeds write identical reports and
    checkpoints (timing.json carries wall-clock only and is excluded)."""
    ds = synth.generate_dataset(120, 12, 5, seed=3)
    responses = tmp_path / "responses.csv"
    qmatrix = tmp_path / "qmatrix.csv"
    synth.write_dataset_csv(ds, str(responses), str(qmatrix))
    out = tmp_path / "out"

    def run_once():
        config = ExperimentConfig(
            responses_path=str(responses),
            qmatrix_path=str(qmatrix),
            out_dir=str(out),
            unlearn_ratio=0.10,
            algorithms={"hif": {}},
            seed_data=1,
            seed_model=2,
            seed_attack=3,
        )
        run_experiment(config)
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))
            if name != "timing.json"
        }

    first = run_once()
    second = run_once()
    assert set(first) >= {"report.json", "status.json", "m_orig.ckpt", "m_retrain.ckpt", "hif.ckpt"}
    assert first == second
