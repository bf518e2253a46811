"""Fisher-diagonal importance, layer smoothing, and the randomized
Hessian-diagonal estimator."""

import numpy as np
import pytest

from cdunlearn import importance, nn
from cdunlearn.importance import (
    fim_diag,
    hutchinson_diag,
    hutchinson_hessian_diag,
    layer_importance,
    smooth_importance,
)


@pytest.fixture(scope="module")
def fisher(small_model, small_dataset):
    return fim_diag(small_model, small_dataset.records)


class TestFisherDiagonal:
    def test_nonnegative_everywhere(self, fisher):
        for _, values in fisher.items():
            assert np.all(values >= 0)

    def test_zero_for_students_absent_from_dataset(self, small_model, small_dataset):
        subset = [r for r in small_dataset.records if r.student_id >= 20]
        imp = fim_diag(small_model, subset)
        assert np.all(imp["student_emb"][:20] == 0.0)
        assert np.any(imp["student_emb"][20:] > 0.0)

    def test_matches_per_example_oracle(self, small_model, small_dataset):
        records = small_dataset.records[:120]
        imp = fim_diag(small_model, records, batch_size=50)
        brute = small_model.params_.zeros()
        for rec in records:
            g = nn.example_gradient(
                small_model.wiring_, small_model.params_,
                rec.student_id, rec.item_id, rec.score,
            )
            for name, values in brute.items():
                values += np.square(g[name])
        brute.scale_(1.0 / len(records))
        for name, values in imp.items():
            assert np.allclose(values, brute[name], rtol=1e-10, atol=1e-300)

    def test_union_is_size_weighted_mean(self, small_model, small_dataset):
        d1 = small_dataset.records[:100]
        d2 = small_dataset.records[100:250]
        whole = fim_diag(small_model, list(d1) + list(d2))
        f1 = fim_diag(small_model, d1)
        f2 = fim_diag(small_model, d2)
        for name, values in whole.items():
            mix = (len(d1) * f1[name] + len(d2) * f2[name]) / (len(d1) + len(d2))
            assert np.allclose(values, mix, rtol=1e-10, atol=1e-300)

    def test_empty_dataset_rejected(self, small_model):
        with pytest.raises(ValueError):
            fim_diag(small_model, [])

    @pytest.mark.parametrize("batch_size", [-1, 0, 2.5, True])
    def test_batch_size_must_be_a_positive_count(self, small_model, small_dataset, batch_size):
        with pytest.raises(ValueError, match="batch_size must be an integer >= 1"):
            fim_diag(small_model, small_dataset.records, batch_size=batch_size)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["fim", "hessian"])
    def test_rejected_naming_the_layer(self, small_model, small_dataset, monkeypatch, bad, kind):
        # The estimate comes back with one non-finite entry in the last layer.
        name, _ = small_model.params_.layout[-1]

        def poisoned(bundle):
            bundle[name].flat[0] = bad
            return bundle

        match = f"non-finite importance in layer '{name}'"
        if kind == "fim":
            accumulate = nn.accumulate_sq_grads
            monkeypatch.setattr(nn, "accumulate_sq_grads", lambda *a: poisoned(accumulate(*a)))
            with pytest.raises(ValueError, match=match):
                fim_diag(small_model, small_dataset.records)
        else:
            diag = importance.hutchinson_diag
            monkeypatch.setattr(
                importance, "hutchinson_diag",
                lambda *a: poisoned(small_model.params_.with_vector(diag(*a))).vector,
            )
            with pytest.raises(ValueError, match=match):
                hutchinson_hessian_diag(small_model, small_dataset.records, 2)

    def test_nan_parameter_gives_an_error_not_a_map(self, small_model, small_dataset):
        # Before this check a NaN map passed as nonnegative and hif/fim then
        # selected nothing, silently.
        poisoned = small_model.copy()
        poisoned.params_["kc_emb"][0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite importance"):
            fim_diag(poisoned, small_dataset.records)


class TestLayerImportance:
    def test_mean_of_two(self):
        imp = nn.ArrayBundle({"layer": np.array([1.0, 3.0])})
        assert layer_importance(imp)["layer"] == 2.0

    def test_single_parameter_layer(self):
        imp = nn.ArrayBundle({"layer": np.array([0.7])})
        assert layer_importance(imp)["layer"] == pytest.approx(0.7)

    def test_all_zero_layer(self):
        imp = nn.ArrayBundle({"layer": np.zeros((3, 2))})
        assert layer_importance(imp)["layer"] == 0.0


class TestSmoothing:
    @pytest.fixture()
    def imp(self):
        rng = np.random.default_rng(0)
        return nn.ArrayBundle(
            {"a": rng.random((5, 3)), "b": rng.random(7), "c": np.zeros(4)}
        )

    def test_beta_zero_is_bitwise_identity(self, imp):
        out = smooth_importance(imp, layer_importance(imp), 0.0)
        for name, values in imp.items():
            assert np.array_equal(out[name], values)

    def test_beta_one_floods_layer_mean(self, imp):
        means = layer_importance(imp)
        out = smooth_importance(imp, means, 1.0)
        for name, values in out.items():
            assert np.array_equal(values, np.full_like(values, means[name]))

    def test_midpoint_arithmetic(self):
        imp = nn.ArrayBundle({"l": np.array([0.2])})
        out = smooth_importance(imp, {"l": 0.6}, 0.5)
        assert out["l"][0] == pytest.approx(0.4, abs=1e-15)

    def test_convex_range(self, imp):
        means = layer_importance(imp)
        for beta in (0.1, 0.35, 0.8):
            out = smooth_importance(imp, means, beta)
            for name, values in imp.items():
                lo = np.minimum(values, means[name])
                hi = np.maximum(values, means[name])
                assert np.all(out[name] >= lo - 1e-15)
                assert np.all(out[name] <= hi + 1e-15)

    def test_layer_mean_is_a_fixed_point(self, imp):
        means = layer_importance(imp)
        for beta in (0.25, 0.5, 0.75):
            out = smooth_importance(imp, means, beta)
            for name, values in imp.items():
                assert np.mean(out[name]) == pytest.approx(
                    np.mean(values), rel=1e-12, abs=1e-15
                )

    def test_beta_out_of_range(self, imp):
        with pytest.raises(ValueError):
            smooth_importance(imp, layer_importance(imp), 1.5)


class TestHutchinson:
    def test_pure_diagonal_quadratic_is_recovered_exactly(self):
        # grad of 0.5 * sum(d_i x_i^2) is d * x: Rademacher probes are exact here
        d = np.array([3.0, -1.0, 0.5, 2.0, 0.0])
        est = hutchinson_diag(
            lambda x: d * x, np.zeros(5), 11, np.random.default_rng(0)
        )
        assert np.allclose(est, d, atol=1e-9)

    def test_linear_loss_gives_zero(self):
        grad = np.array([0.3, -0.7, 1.1])
        est = hutchinson_diag(
            lambda x: grad, np.ones(3), 1, np.random.default_rng(1)
        )
        assert np.allclose(est, 0.0, atol=1e-9)

    def test_off_diagonal_noise_within_three_standard_errors(self):
        rng = np.random.default_rng(7)
        dim = 25
        d = rng.uniform(0.5, 3.0, size=dim)
        off = rng.standard_normal((dim, dim)) * 0.2
        h = np.diag(d) + (off + off.T) / 2.0
        np.fill_diagonal(h, d)
        est, samples = hutchinson_diag(
            lambda x: h @ x, np.zeros(dim), 40, np.random.default_rng(3),
            return_samples=True,
        )
        sem = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        assert np.all(np.abs(est - d) <= 3.0 * sem + 1e-9)

    def test_model_estimate_is_deterministic_and_shaped(self, small_model, small_dataset):
        a = hutchinson_hessian_diag(small_model, small_dataset.records, 5, seed=3)
        b = hutchinson_hessian_diag(small_model, small_dataset.records, 5, seed=3)
        for name, values in a.items():
            assert np.array_equal(values, b[name])
        small_model.params_.require_same_layout(a)

    @pytest.mark.parametrize("n_probes", [10, 20, 40])
    def test_probe_grid_accepted(self, small_model, small_dataset, n_probes):
        imp = hutchinson_hessian_diag(
            small_model, small_dataset.records[:64], n_probes, n_batches=1, seed=0
        )
        assert imp.total_size == small_model.params_.total_size

    def test_probe_count_validated(self, small_model, small_dataset):
        with pytest.raises(ValueError):
            hutchinson_hessian_diag(small_model, small_dataset.records, 0)

    @pytest.mark.parametrize("value", [2.5, True, 0, -1])
    @pytest.mark.parametrize("name", ["n_probe_samples", "n_batches"])
    def test_counts_validated(self, small_model, small_dataset, name, value):
        before = small_model.params_.vector.copy()
        counts = {"n_probe_samples": 5, "n_batches": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {value!r}"):
            hutchinson_hessian_diag(small_model, small_dataset.records, **counts)
        assert small_model.params_.vector.tobytes() == before.tobytes()

    @pytest.mark.parametrize("value", [2.5, True, 0, -1])
    def test_probe_count_of_the_estimator_validated(self, value):
        calls = []
        x0 = np.ones(3)
        want = f"n_probe_samples must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=want):
            hutchinson_diag(calls.append, x0, value, np.random.default_rng(0))
        assert calls == [] and np.array_equal(x0, np.ones(3))

    def test_near_minimum_tracks_fisher(self, small_dataset):
        # At convergence the expected Hessian equals the Fisher information;
        # check the two maps select overlapping parameter sets and report it.
        from cdunlearn.model import CDModel

        model = CDModel(embed_dim=6, ffn_hidden=(8,), dropout=0.0,
                        max_epochs=60, patience=60, seed=0)
        model.fit(small_dataset.records, small_dataset.qmatrix)
        fisher = fim_diag(model, small_dataset.records)
        hess = hutchinson_hessian_diag(model, small_dataset.records, 40, n_batches=4, seed=1)
        f = fisher.vector
        h = np.abs(hess.vector)
        f_top = set(np.argsort(f)[-100:].tolist())
        h_top = set(np.argsort(h)[-100:].tolist())
        jaccard = len(f_top & h_top) / len(f_top | h_top)
        print(f"fisher/hessian top-100 jaccard overlap: {jaccard:.3f}")
        assert 0.0 <= jaccard <= 1.0
