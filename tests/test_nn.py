"""Numeric core: losses, optimizers, exact gradients, squared-gradient
accumulation, and the checkpoint container."""

import copy
import json
import math
import pickle
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cdunlearn import data, importance, mia, model, nn, serialize, unlearn
from cdunlearn.data import QMatrix, records_to_arrays
from cdunlearn.model import CDArchConfig, CDModel, build_wiring


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the container at ``path`` in place."""
    with open(path, "rb") as f:
        blob = f.read()
    end = 12 + int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:end])
    edit(header)
    payload = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(blob[:8] + len(payload).to_bytes(4, "little") + payload + blob[end:])


def _rename_array(header, old, new):
    next(entry for entry in header["arrays"] if entry["name"] == old)["name"] = new


# (id, header edit, the field the error names) for checkpoints whose header or
# meta is malformed; each must raise ContainerError naming the path and field.
MALFORMED_CHECKPOINTS = [
    ("no-arrays", lambda h: h.pop("arrays"), "'arrays'"),
    ("meta-not-an-object", lambda h: h.update(meta=None), "'meta'"),
    ("shape-not-counts", lambda h: h["arrays"][0].update(shape=["x"]), "'shape'"),
    ("array-without-name", lambda h: h["arrays"][0].pop("name"), "'name'"),
    ("no-n_students", lambda h: h["meta"].pop("n_students"), "'n_students'"),
    ("n_kcs-is-a-bool", lambda h: h["meta"].update(n_kcs=True), "'n_kcs'"),
    ("no-layer_ids", lambda h: h["meta"].pop("layer_ids"), "'layer_ids'"),
    ("no-qmatrix", lambda h: _rename_array(h, "qmatrix", "qmatrix_"), "'qmatrix'"),
    (
        "unknown-hyperparameter",
        lambda h: h["meta"]["hyperparameters"].update(depth=3),
        "'hyperparameters'",
    ),
    (
        "unknown-arch",
        lambda h: h["meta"]["hyperparameters"].update(arch="bogus"),
        "'hyperparameters'",
    ),
    ("rng_seed-not-seed", lambda h: h["meta"].update(rng_seed=h["meta"]["rng_seed"] + 1),
     "'rng_seed'"),
    (
        "seed-a-float",
        lambda h: h["meta"]["hyperparameters"].update(seed=float(h["meta"]["rng_seed"])),
        "'rng_seed'",
    ),
    ("data-not-an-object", lambda h: h["meta"].update(data=[0, [0.6, 0.2, 0.2], 0.1]), "'data'"),
    (
        "data-seed-a-float",
        lambda h: h["meta"].update(
            data={"seed_data": 0.0, "split_ratios": [0.6, 0.2, 0.2], "unlearn_ratio": 0.1}
        ),
        "'data'",
    ),
    (
        "data-two-split-ratios",
        lambda h: h["meta"].update(
            data={"seed_data": 0, "split_ratios": [0.8, 0.2], "unlearn_ratio": 0.1}
        ),
        "'data'",
    ),
]


def _random_qmatrix(rng, n_items, n_kcs):
    entries = np.zeros((n_items, n_kcs))
    for j in range(n_items):
        cols = rng.choice(n_kcs, size=int(rng.integers(1, n_kcs + 1)), replace=False)
        entries[j, cols] = 1.0
    return QMatrix(entries)


def _random_wiring(rng, arch, n_students=6, n_items=5, n_kcs=3):
    hidden = [(), (4,), (5, 3)][int(rng.integers(0, 3))]
    cfg = CDArchConfig(
        arch=arch,
        embed_dim=int(rng.integers(2, 5)),
        ffn_hidden=hidden,
        dropout=0.0,
    )
    wiring = build_wiring(cfg, n_students, n_items, _random_qmatrix(rng, n_items, n_kcs))
    params = wiring.init_params(np.random.default_rng(int(rng.integers(0, 2**31))))
    for _, values in params.items():
        values[...] = rng.uniform(-0.8, 0.8, size=values.shape)
    wiring.post_step(params)
    return wiring, params


def _loss_at(wiring, params, s, q, y):
    p, _ = wiring.forward(params, np.array([s]), np.array([q]))
    return nn.bce_loss(float(p[0]), y)


def example_gradient(wiring, params, student, item, score):
    """Exact loss gradient for a single example; untouched parameters are 0."""
    s = np.asarray([student], dtype=np.int64)
    q = np.asarray([item], dtype=np.int64)
    p, cache = wiring.forward(params, s, q, train=False)
    dz = p - np.asarray([score], dtype=np.float64)
    return nn.dense(wiring.backward(params, cache, dz, mode="sum"))


def finite_difference_gradient(wiring, params, s, q, y, h=1e-5):
    """Central differences of the single-example loss for every parameter."""
    fd = params.zeros()
    for name, values in params.items():
        flat = values.ravel()
        out = fd[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = _loss_at(wiring, params, s, q, y)
            flat[idx] = orig - h
            down = _loss_at(wiring, params, s, q, y)
            flat[idx] = orig
            out[idx] = (up - down) / (2 * h)
    return fd


def max_relative_error(a: nn.ArrayBundle, b: nn.ArrayBundle) -> float:
    worst = 0.0
    for name, av in a.items():
        bv = b[name]
        denom = np.maximum(np.maximum(np.abs(av), np.abs(bv)), 1e-4)
        worst = max(worst, float(np.max(np.abs(av - bv) / denom)))
    return worst


class TestSigmoidAndLoss:
    def test_sigmoid_midpoint(self):
        assert nn.sigmoid(0.0) == 0.5

    def test_sigmoid_range_on_representable_inputs(self):
        x = np.random.default_rng(0).uniform(-30, 30, size=5000)
        s = nn.sigmoid(x)
        assert np.all(s > 0) and np.all(s < 1)

    def test_bce_values(self):
        assert math.isclose(nn.bce_loss(0.5, 1), math.log(2), rel_tol=1e-12)
        near_perfect = nn.bce_loss(1 - 1e-7, 1)
        assert math.isclose(near_perfect, 1e-7, rel_tol=1e-3)

    def test_bce_clamps_saturated_probabilities(self):
        assert np.isfinite(nn.bce_loss(1.0, 0.0))
        assert np.isfinite(nn.bce_loss(0.0, 1.0))


class TestForward:
    def test_inference_forward(self, small_model):
        p, cache = small_model.wiring_.forward(
            small_model.params_, np.array([0, 1]), np.array([2, 3]), train=False
        )
        assert p.shape == (2,)
        assert np.all((p > 0) & (p < 1))
        assert np.array_equal(cache["students"], np.array([0, 1]))

    def test_all_zero_parameters_give_half(self, small_dataset):
        cfg = CDArchConfig(embed_dim=4, ffn_hidden=(6,), dropout=0.0)
        wiring = build_wiring(cfg, 10, small_dataset.n_items, small_dataset.qmatrix)
        params = wiring.init_params(np.random.default_rng(0))
        for _, values in params.items():
            values[...] = 0.0
        s = np.arange(5)
        q = np.arange(5)
        p, _ = wiring.forward(params, s, q)
        assert np.allclose(p, 0.5, atol=1e-15)

    def test_out_of_range_index(self, small_model):
        with pytest.raises(IndexError):
            small_model.wiring_.forward(
                small_model.params_, np.array([10_000]), np.array([0])
            )


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(20):
            arch = "decoupled" if trial % 2 == 0 else "neuralcdm"
            wiring, params = _random_wiring(rng, arch)
            s = int(rng.integers(0, 6))
            q = int(rng.integers(0, 5))
            y = float(rng.integers(0, 2))
            analytic = example_gradient(wiring, params, s, q, y)
            fd = finite_difference_gradient(wiring, params, s, q, y)
            worst = max(worst, max_relative_error(analytic, fd))
        assert worst < 1e-4

    @pytest.mark.parametrize("arch", ["decoupled", "neuralcdm"])
    def test_untouched_rows_have_exact_zero_gradient(self, arch):
        rng = np.random.default_rng(3)
        wiring, params = _random_wiring(rng, arch)
        g = example_gradient(wiring, params, 2, 3, 1.0)
        student_rows = np.abs(g["student_emb"]).sum(axis=1)
        assert student_rows[2] > 0
        assert np.all(np.delete(student_rows, 2) == 0.0)
        item_layer = "exercise_emb" if arch == "decoupled" else "diff_emb"
        item_rows = np.abs(g[item_layer]).sum(axis=1)
        assert np.all(np.delete(item_rows, 3) == 0.0)

    def test_doubling_loss_doubles_gradients(self):
        rng = np.random.default_rng(4)
        wiring, params = _random_wiring(rng, "decoupled")
        p, cache = wiring.forward(params, np.array([1]), np.array([2]))
        dz = p - np.array([1.0])
        g1 = wiring.backward(params, cache, dz, mode="sum")
        _, cache = wiring.forward(params, np.array([1]), np.array([2]))  # backward used it up
        g2 = wiring.backward(params, cache, 2.0 * dz, mode="sum")
        for name, values in g1.items():
            assert np.allclose(2.0 * values, g2[name], rtol=1e-14, atol=0.0)


def _bundle_with_odd_bits():
    """Layers from a transposed (non-contiguous) array, -0.0 and NaN, a scalar
    and an empty layer."""
    rng = np.random.default_rng(10)
    return {"w": rng.normal(size=(5, 6)).T, "b": np.array([-0.0, np.nan]),
            "s": np.float64(3.5), "e": np.zeros((0, 4))}


def _saved_and_loaded(small_model, tmp_path):
    path = str(tmp_path / "model.ckpt")
    small_model.save(path)
    return CDModel.load(path).params_


# Each makes a bundle by one of the routes that create them.
BUNDLE_ROUTES = {
    "constructor": lambda m, tmp: nn.ArrayBundle(_bundle_with_odd_bits()),
    "copy": lambda m, tmp: nn.ArrayBundle(_bundle_with_odd_bits()).copy(),
    "pickle": lambda m, tmp: pickle.loads(pickle.dumps(nn.ArrayBundle(_bundle_with_odd_bits()))),
    "deepcopy": lambda m, tmp: copy.deepcopy(nn.ArrayBundle(_bundle_with_odd_bits())),
    "zeros": lambda m, tmp: nn.ArrayBundle(_bundle_with_odd_bits()).zeros(),
    "with_vector": lambda m, tmp: m.params_.with_vector(np.arange(m.params_.total_size)[::-1]),
    "fim_diag": lambda m, tmp: importance.fim_diag(m, [(0, 0, 1)]),
    "init_params": lambda m, tmp: m.wiring_.init_params(np.random.default_rng(0)),
    "CDModel.load": _saved_and_loaded,
    "fit": lambda m, tmp: m.params_,
}


class TestArrayBundleLayout:
    """Every layer is a view of one C-contiguous float64 vector, in layer order."""

    @pytest.mark.parametrize("route", sorted(BUNDLE_ROUTES))
    def test_layers_view_one_vector_in_layer_order(self, small_model, tmp_path, route):
        bundle = BUNDLE_ROUTES[route](small_model, tmp_path)
        vector = bundle.vector
        assert vector.dtype == np.float64 and vector.ndim == 1 and vector.flags.c_contiguous
        start = vector.__array_interface__["data"][0]
        offset = 0
        for _, values in bundle.items():
            if values.size:  # an empty view need not point into the vector
                assert values.flags.c_contiguous and np.shares_memory(values, vector)
                assert values.__array_interface__["data"][0] == start + 8 * offset
            offset += values.size
        assert offset == vector.size == bundle.total_size

    def test_construction_copies_the_bits(self):
        given = _bundle_with_odd_bits()
        bundle = nn.ArrayBundle(given)
        assert bundle.layout == [(k, np.shape(v)) for k, v in given.items()]
        for k, values in given.items():
            assert_same_bits(bundle[k], values)
            assert not np.shares_memory(bundle[k], values)

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_a_copy_keeps_the_bits_and_its_layers_follow_its_vector(self, how):
        bundle = nn.ArrayBundle(_bundle_with_odd_bits())
        copied = pickle.loads(pickle.dumps(bundle)) if how == "pickle" else copy.deepcopy(bundle)
        assert copied.layout == bundle.layout
        assert_same_bits(copied.vector, bundle.vector)
        assert not np.shares_memory(copied.vector, bundle.vector)
        copied.vector += 1.0
        for k, values in copied.items():
            assert_same_bits(values, bundle[k] + 1.0)
        assert_same_bits(bundle.vector, nn.ArrayBundle(_bundle_with_odd_bits()).vector)

    def test_vector_operations_keep_the_bits(self):
        bundle = nn.ArrayBundle(_bundle_with_odd_bits())
        assert_same_bits(bundle.copy().vector, bundle.vector)
        assert not np.shares_memory(bundle.copy().vector, bundle.vector)
        assert bundle.with_vector(bundle.vector).vector is bundle.vector  # not copied
        reversed_ = bundle.vector[::-1]
        assert_same_bits(bundle.with_vector(reversed_).vector, reversed_)
        assert_same_bits(bundle.zeros().vector, np.zeros(bundle.total_size))
        scaled = bundle.copy().scale_(0.5)
        assert_same_bits(scaled.vector, bundle.vector * 0.5)
        with pytest.raises(ValueError, match="shape"):
            bundle.with_vector(np.zeros(bundle.total_size + 1))

    def test_layout_check_needs_one_order(self):
        a = nn.ArrayBundle({"w": np.ones(3), "b": np.ones(2)})
        a.require_same_layout(a.zeros())
        a.require_same_layout({"w": np.ones(3), "b": np.ones(2)})  # a gradient map
        for other in ({"b": np.ones(2), "w": np.ones(3)}, {"w": np.ones(3), "b": np.ones(3)}):
            for form in (other, nn.ArrayBundle(other)):
                with pytest.raises(ValueError, match="layout"):
                    a.require_same_layout(form)


class TestOptimizers:
    def test_sgd_step(self):
        params = nn.ArrayBundle({"w": np.array([1.0])})
        grads = {"w": np.array([2.0])}
        state = nn.make_optimizer("sgd", 0.1, params)
        nn.optimizer_step(params, grads, state)
        assert params["w"][0] == pytest.approx(0.8, abs=1e-15)

    def test_adam_first_step_magnitude(self):
        params = nn.ArrayBundle({"w": np.array([0.0])})
        grads = {"w": np.array([1.0])}
        state = nn.make_optimizer("adam", 0.01, params)
        nn.optimizer_step(params, grads, state)
        # bias-corrected first step: lr * 1 / (1 + eps)
        assert params["w"][0] == pytest.approx(-0.01 / (1 + 1e-8), abs=1e-12)
        assert state.step == 1

    def test_zero_gradient_keeps_parameters(self):
        params = nn.ArrayBundle({"w": np.array([0.7, -0.3])})
        grads = {"w": np.zeros(2)}
        state = nn.make_optimizer("sgd", 0.5, params)
        nn.optimizer_step(params, grads, state)
        assert np.array_equal(params["w"], np.array([0.7, -0.3]))

    def test_shape_mismatch_rejected(self):
        params = nn.ArrayBundle({"w": np.zeros(2)})
        grads = {"w": np.zeros(3)}
        with pytest.raises(ValueError):
            nn.optimizer_step(params, grads, nn.make_optimizer("sgd", 0.1, params))

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_gradients_in_another_layer_order_rejected(self, kind):
        params = nn.ArrayBundle({"w": np.ones(3), "b": np.ones(2)})
        state = nn.make_optimizer(kind, 0.1, params)
        with pytest.raises(ValueError, match="layout"):
            nn.optimizer_step(params, {"b": np.ones(2), "w": np.ones(3)}, state)
        assert params.vector.tolist() == [1.0] * 5 and state.step == 0


class TestSquaredGradientAccumulation:
    def test_identical_records_equal_single_square(self, small_model, small_dataset):
        rec = small_dataset.records[5]
        s = np.full(12, rec.student_id)
        q = np.full(12, rec.item_id)
        y = np.full(12, float(rec.score))
        acc = nn.accumulate_sq_grads(small_model.wiring_, small_model.params_, s, q, y)
        single = example_gradient(
            small_model.wiring_, small_model.params_, rec.student_id, rec.item_id, rec.score
        )
        for name, values in acc.items():
            assert np.allclose(values, np.square(single[name]), rtol=1e-12, atol=0.0)

    def test_matches_per_example_brute_force(self, small_model, small_dataset):
        records = small_dataset.records[:150]
        s, q, y = records_to_arrays(records)
        fast = nn.accumulate_sq_grads(
            small_model.wiring_, small_model.params_, s, q, y, batch_size=64
        )
        brute = small_model.params_.zeros()
        for rec in records:
            g = example_gradient(
                small_model.wiring_, small_model.params_, rec.student_id, rec.item_id, rec.score
            )
            for name, values in brute.items():
                values += np.square(g[name])
        brute.scale_(1.0 / len(records))
        for name, values in fast.items():
            assert np.allclose(values, brute[name], rtol=1e-10, atol=1e-300)

    def test_row_form_gives_the_dense_bits(self, small_model, small_dataset, monkeypatch):
        # a squared pass takes the row form for every table, the 80x8 student
        # table at batch 2 among them
        s, q, y = records_to_arrays(small_dataset.records[:150])
        args = (small_model.wiring_, small_model.params_, s, q, y, 2)
        rows = nn.sum_sq_grads(*args)
        monkeypatch.setattr(nn, "row_grads", dense_row_grads)
        dense = nn.sum_sq_grads(*args)
        for name, values in dense.items():
            assert_same_bits(rows[name], values)

    @pytest.mark.parametrize("arch", ["decoupled", "neuralcdm"])
    def test_squared_pass_takes_the_row_form(self, small_dataset, arch):
        wiring = build_wiring(CDArchConfig(arch=arch, embed_dim=4, ffn_hidden=(4,)),
                              80, 10, small_dataset.qmatrix)
        params = wiring.init_params(np.random.default_rng(1))
        s, q, y = records_to_arrays(small_dataset.records[:64])
        for mode, form in (("sum", np.ndarray), ("sq_sum", nn.RowGrad)):
            p, cache = wiring.forward(params, s, q)
            grads = wiring.backward(params, cache, p - y, mode=mode)
            assert all(type(grads[name]) is form for name in wiring.row_index)
            assert set(cache) == {"students", "items"}  # backward used the rest up

    def test_unused_parameter_importance_is_zero(self, small_model, small_dataset):
        # only records of students 0..9: rows 10.. must come out exactly 0
        records = [r for r in small_dataset.records if r.student_id < 10]
        s, q, y = records_to_arrays(records)
        acc = nn.accumulate_sq_grads(small_model.wiring_, small_model.params_, s, q, y)
        assert np.all(acc["student_emb"][10:] == 0.0)

    def test_empty_dataset_rejected(self, small_model):
        with pytest.raises(ValueError):
            nn.accumulate_sq_grads(
                small_model.wiring_,
                small_model.params_,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0),
            )


class TestTrainingLoop:
    def test_identical_seed_bit_identical_parameters(self, small_dataset):
        runs = []
        for _ in range(2):
            model = CDModel(
                embed_dim=6, ffn_hidden=(8,), max_epochs=6, batch_size=32, seed=7
            )
            model.fit(small_dataset.records, small_dataset.qmatrix)
            runs.append(model.params_)
        for name, values in runs[0].items():
            assert np.array_equal(values, runs[1][name])

    def test_different_seed_changes_parameters(self, small_dataset):
        a = CDModel(embed_dim=6, max_epochs=3, seed=1).fit(
            small_dataset.records, small_dataset.qmatrix
        )
        b = CDModel(embed_dim=6, max_epochs=3, seed=2).fit(
            small_dataset.records, small_dataset.qmatrix
        )
        assert not np.array_equal(a.params_["student_emb"], b.params_["student_emb"])

    def test_empty_training_set_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            CDModel().fit([], small_dataset.qmatrix)

    @pytest.mark.parametrize("name", ["lr", "min_delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_setting_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            nn.TrainConfig(**{name: value})

    def test_epoch_leaving_nonfinite_parameters_names_the_layers(self, small_dataset, monkeypatch):
        honest = nn.optimizer_step

        def poisoned(params, grads, state):
            honest(params, grads, state)
            if state.step == 4:  # the last of epoch 2's two batches
                params["kc_emb"][0, 0] = np.inf
                params["ffn_b_0"][1] = np.nan
            return params, state

        monkeypatch.setattr(nn, "optimizer_step", poisoned)
        model = CDModel(embed_dim=6, ffn_hidden=(8,), max_epochs=3, batch_size=512, seed=1)
        with pytest.raises(ValueError, match=r"epoch 2 left non-finite values in layers "
                                             r"\['kc_emb', 'ffn_b_0'\]"):
            model.fit(small_dataset.records, small_dataset.qmatrix)

    def test_diverged_training_rejected(self, small_dataset):
        model = CDModel(arch="neuralcdm", embed_dim=6, lr=1e300, max_epochs=3, seed=1)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="training diverged"):
            model.fit(small_dataset.records, small_dataset.qmatrix)


class TestCheckpointContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "a": rng.standard_normal((7, 3)),
            "b": rng.standard_normal(11),
            "scalarish": np.array(math.pi),
        }
        meta = {"kind": "test", "note": "x"}
        path = str(tmp_path / "bundle.bin")
        serialize.save_bundle(path, arrays, meta)
        loaded, got_meta = serialize.load_bundle(path)
        assert got_meta == meta
        for name, values in arrays.items():
            assert np.array_equal(loaded[name], values)
            assert loaded[name].dtype == np.float64

    def test_identical_content_identical_bytes(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
        p1, p2 = str(tmp_path / "one.bin"), str(tmp_path / "two.bin")
        serialize.save_bundle(p1, arrays, {"k": 1})
        serialize.save_bundle(p2, arrays, {"k": 1})
        assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(serialize.ContainerError):
            serialize.load_bundle(str(path))

    def test_short_preamble_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(serialize.MAGIC + b"\x01\x00")
        with pytest.raises(serialize.ContainerError, match="preamble"):
            serialize.load_bundle(str(path))

    @pytest.mark.parametrize(
        "header", [b"\xff\xfe{}", b'{"format_version": 1,'], ids=["not-utf8", "not-json"]
    )
    def test_header_not_utf8_json_rejected(self, tmp_path, header):
        path = tmp_path / "header.bin"
        path.write_bytes(serialize.MAGIC + len(header).to_bytes(4, "little") + header)
        with pytest.raises(serialize.ContainerError, match="UTF-8 JSON"):
            serialize.load_bundle(str(path))

    def test_header_length_past_the_end_rejected(self, tmp_path):
        path = tmp_path / "oversize.bin"
        path.write_bytes(serialize.MAGIC + (2**32 - 1).to_bytes(4, "little") + b"{}")
        with pytest.raises(serialize.ContainerError, match="past the end"):
            serialize.load_bundle(str(path))

    def test_truncated_array_rejected(self, tmp_path):
        path = tmp_path / "truncated.bin"
        serialize.save_bundle(str(path), {"a": np.arange(3.0)}, {})
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(serialize.ContainerError, match="truncated array 'a'"):
            serialize.load_bundle(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trailing.bin"
        serialize.save_bundle(str(path), {"a": np.arange(3.0)}, {})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(serialize.ContainerError, match="trailing"):
            serialize.load_bundle(str(path))

    def test_array_named_twice_rejected(self, tmp_path):
        path = tmp_path / "twice.bin"
        serialize.save_bundle(str(path), {"a": np.arange(3.0), "b": np.arange(3.0)}, {})
        rewrite_header(path, lambda h: _rename_array(h, "b", "a"))
        with pytest.raises(serialize.ContainerError, match="array 'a' is named twice"):
            serialize.load_bundle(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays, meta: arrays.pop("kc_emb"),
            lambda arrays, meta: meta["layer_ids"].remove("kc_emb"),
            lambda arrays, meta: meta.update(n_students=meta["n_students"] + 1),
            lambda arrays, meta: meta.update(n_items=meta["n_items"] + 1),
            lambda arrays, meta: meta.update(n_kcs=meta["n_kcs"] + 1),
        ],
        ids=["layer-id-without-array", "array-without-layer-id", "n_students", "n_items",
             "n_kcs"],
    )
    def test_checkpoint_disagreeing_with_its_layers_rejected(self, small_model, tmp_path, edit):
        path = str(tmp_path / "model.ckpt")
        small_model.save(path)
        arrays, meta = serialize.load_bundle(path)
        edit(arrays, meta)
        serialize.save_bundle(path, arrays, meta)
        with pytest.raises(serialize.ContainerError, match="do not match"):
            CDModel.load(path)

    @pytest.mark.parametrize(
        "edit, field",
        [case[1:] for case in MALFORMED_CHECKPOINTS],
        ids=[case[0] for case in MALFORMED_CHECKPOINTS],
    )
    def test_malformed_header_or_meta_rejected(self, small_model, tmp_path, edit, field):
        path = str(tmp_path / "model.ckpt")
        small_model.save(path)
        rewrite_header(path, edit)
        with pytest.raises(serialize.ContainerError, match=rf"{re.escape(path)}: .*{field}"):
            CDModel.load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_parameters_rejected(self, small_model, tmp_path, bad):
        path = str(tmp_path / "model.ckpt")
        small_model.save(path)
        arrays, meta = serialize.load_bundle(path)
        arrays["kc_emb"] = arrays["kc_emb"].copy()
        arrays["kc_emb"][1, 2] = bad
        serialize.save_bundle(path, arrays, meta)
        with pytest.raises(serialize.ContainerError, match="non-finite values in layers"):
            CDModel.load(path)

    def test_model_checkpoint_roundtrip(self, small_model, tmp_path, small_dataset):
        path = str(tmp_path / "model.ckpt")
        small_model.save(path)
        loaded = CDModel.load(path)
        records = small_dataset.records[:40]
        assert np.array_equal(
            small_model.predict_proba(records), loaded.predict_proba(records)
        )
        for name, values in small_model.params_.items():
            assert np.array_equal(values, loaded.params_[name])
        assert loaded.seed == small_model.seed

    def test_data_partition_roundtrip(self, small_model, tmp_path):
        path = str(tmp_path / "model.ckpt")
        small_model.save(path)
        assert CDModel.load(path).data_ is None
        partition = {"seed_data": 4, "split_ratios": [0.7, 0.2, 0.1], "unlearn_ratio": 0.05}
        small_model.save(path, partition)
        assert CDModel.load(path).data_ == partition


# -- reference kernels --------------------------------------------------
# The straightforward forms the library's kernels replaced. The kernels must
# give the same bits; these are kept only as oracles.


def ref_sigmoid(x, out=None):
    x = np.asarray(x, dtype=np.float64)
    result = np.empty_like(x)
    pos = x >= 0
    result[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    result[~pos] = ex / (1.0 + ex)
    if out is not None:
        out[...] = result
        return out
    return result if result.ndim else float(result)


def dense_row_grads(n_rows, index, *per_record, always_rows=False):
    """``nn.row_grads`` that always gives the dense table."""
    return [nn.scatter_rows(n_rows, index, values) for values in per_record]


def ref_scatter_rows(n_rows, index, rows):
    table = np.zeros((n_rows, rows.shape[1]))
    np.add.at(table, index, rows)
    return table


def ref_optimizer_step(params, grads, state):
    params.require_same_layout(grads)
    grads = nn.dense(grads)
    if state.kind == "sgd":
        for k, p in params.items():
            p -= state.lr * grads[k]
        return params, state
    state.step += 1
    bc1 = 1.0 - nn.ADAM_BETA1**state.step
    bc2 = 1.0 - nn.ADAM_BETA2**state.step
    for k, p in params.items():
        g, m, v = grads[k], state.m[k], state.v[k]
        m *= nn.ADAM_BETA1
        m += (1.0 - nn.ADAM_BETA1) * g
        v *= nn.ADAM_BETA2
        v += (1.0 - nn.ADAM_BETA2) * np.square(g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + nn.ADAM_EPS)
    return params, state


def ref_records_to_arrays(records):
    recs = records if isinstance(records, (list, tuple)) else list(records)
    if len(recs) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
    arr = np.asarray(recs, dtype=np.int64)
    return arr[:, 0], arr[:, 1], arr[:, 2].astype(np.float64)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_state(kind, got, want):
    """Bit equality of two (params, optimizer state) pairs."""
    (params, state), (ref_params, ref_state) = got, want
    assert state.step == ref_state.step
    for k, values in ref_params.items():
        assert_same_bits(params[k], values)
        if kind == "adam":
            assert_same_bits(state.m[k], ref_state.m[k])
            assert_same_bits(state.v[k], ref_state.v[k])


class TestSigmoidKernel:
    SPECIAL = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf,
               36.7, -36.7, 709.8, -709.8, 5e-324, -5e-324,
               1e-17, -1e-17, 1e-300, -1e-300]  # exp(-|x|) rounds to 1.0

    def test_special_values_bit_exact(self):
        x = np.array(self.SPECIAL)
        assert_same_bits(nn.sigmoid(x), ref_sigmoid(x))
        assert nn.sigmoid(-np.inf) == 0.0 and nn.sigmoid(np.inf) == 1.0

    def test_scalars_are_python_floats(self):
        for v in self.SPECIAL:
            got = nn.sigmoid(v)
            assert type(got) is float
            assert_same_bits(np.float64(got), np.float64(ref_sigmoid(v)))

    def test_random_bit_exact(self):
        x = np.random.default_rng(0).normal(0.0, 30.0, size=(300, 17))
        assert_same_bits(nn.sigmoid(x), ref_sigmoid(x))

    def test_strided_and_transposed_input(self):
        x = np.random.default_rng(1).normal(0.0, 10.0, size=(64, 40))
        for view in (x[:, ::3], x.T, x[::-2, 1::2].T):
            assert_same_bits(nn.sigmoid(view), ref_sigmoid(view))

    def test_nan_stays_nan(self):
        x = np.array([np.nan, 1.0, -np.nan, -2.0])
        got = nn.sigmoid(x)
        assert np.isnan(got[[0, 2]]).all()
        assert_same_bits(got[[1, 3]], ref_sigmoid(x[[1, 3]]))
        assert math.isnan(nn.sigmoid(float("nan")))

    def test_nan_comes_through_quiet_with_its_sign_bit_set(self):
        # The README's one exception to the oracle's bits: NaN in, NaN out,
        # payload kept and sign bit set, as exp(-|x|) leaves it.
        bits = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF8000000000123, 0xFFFC00000000ABCD], dtype=np.uint64)
        got = nn.sigmoid(np.concatenate([bits.view(np.float64), [1.0, -2.0]]))
        assert np.array_equal(got[:4].view(np.uint64), bits | np.uint64(1 << 63))
        assert_same_bits(got[4:], ref_sigmoid(np.array([1.0, -2.0])))

    def test_input_not_mutated(self):
        x = np.random.default_rng(2).normal(size=(8, 5))
        before = x.copy()
        nn.sigmoid(x)
        assert_same_bits(x, before)

    def test_in_place_gives_the_same_bits(self):
        x = np.concatenate([np.array(self.SPECIAL),
                            np.random.default_rng(3).normal(0.0, 30.0, size=500)])
        want = nn.sigmoid(x)
        out = np.empty_like(x)
        assert nn.sigmoid(x, out=out) is out
        assert_same_bits(out, want)
        assert nn.sigmoid(x, out=x) is x
        assert_same_bits(x, want)


class TestScatterRows:
    def test_duplicate_indices_match_add_at(self):
        rng = np.random.default_rng(3)
        index = rng.integers(0, 7, size=200)  # many repeats per row
        rows = rng.normal(size=(200, 5)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
        assert_same_bits(nn.scatter_rows(9, index, rows), ref_scatter_rows(9, index, rows))

    def test_single_column(self):  # disc_emb is (n_items, 1)
        rng = np.random.default_rng(4)
        index = rng.integers(0, 4, size=50)
        rows = rng.normal(size=(50, 1))
        assert_same_bits(nn.scatter_rows(6, index, rows), ref_scatter_rows(6, index, rows))

    def test_empty_batch(self):
        got = nn.scatter_rows(4, np.empty(0, dtype=np.int64), np.empty((0, 3)))
        assert_same_bits(got, ref_scatter_rows(4, np.empty(0, dtype=np.int64), np.empty((0, 3))))

    def test_negative_zero_rows(self):
        index = np.array([1, 1, 0])
        rows = np.array([[-0.0], [-0.0], [-0.0]])
        assert_same_bits(nn.scatter_rows(3, index, rows), ref_scatter_rows(3, index, rows))

    @pytest.mark.parametrize("case", ["duplicates", "negative-zero", "zero-sum", "empty"])
    def test_row_form_dense_matches_add_at(self, case, monkeypatch):
        monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)  # always the row form
        rng = np.random.default_rng(6)
        index = {"duplicates": rng.integers(0, 7, size=200), "negative-zero": np.array([4, 4, 0]),
                 "zero-sum": np.array([2, 5, 2]), "empty": np.empty(0, dtype=np.int64)}[case]
        rows = rng.normal(size=(len(index), 3)) * 10.0 ** rng.integers(-8, 8, size=(len(index), 1))
        if case == "negative-zero":
            rows[:] = -0.0
        if case == "zero-sum":
            rows[2] = -rows[0]
        [got] = nn.row_grads(9, index, rows)
        assert isinstance(got, nn.RowGrad) and got.shape == (9, 3)
        assert np.array_equal(got.rows, np.unique(index)) and got.rows.dtype == np.int64
        assert_same_bits(got.dense(), ref_scatter_rows(9, index, rows))


class TestRowGradSelection:
    """row_grads picks the row form from the tables' entries per record."""

    @pytest.mark.parametrize("widths", [(4,), (3, 1)])  # one table; two sharing an index
    def test_form_flips_at_the_threshold(self, widths):
        batch = 5
        n_rows = nn.ROW_GRAD_MIN_ENTRIES_PER_RECORD * batch // sum(widths)
        index = np.arange(batch) * 3
        per_record = [np.ones((batch, w)) for w in widths]
        assert all(isinstance(g, nn.RowGrad) for g in nn.row_grads(n_rows, index, *per_record))
        below = nn.row_grads(n_rows - 1, index, *per_record)
        assert all(type(g) is np.ndarray and g.shape == (n_rows - 1, w)
                   for g, w in zip(below, widths))

    def test_benchmark_shapes_fall_on_either_side(self):
        # decoupled, embed_dim 32, batch 256: 536 students stay dense, 10,000 get rows
        index = np.arange(256)
        rows = np.zeros((256, 32))
        assert type(nn.row_grads(536, index, rows)[0]) is np.ndarray
        assert isinstance(nn.row_grads(10_000, index, rows)[0], nn.RowGrad)

    def test_always_rows(self):
        index = np.array([3, 0, 3])
        rows = np.arange(6.0).reshape(3, 2)
        [got] = nn.row_grads(4, index, rows, always_rows=True)
        assert isinstance(got, nn.RowGrad) and got.rows.tolist() == [0, 3]
        assert_same_bits(got.dense(), nn.scatter_rows(4, index, rows))


class TestFusedAdam:
    SHAPES = {"emb": (40, 6), "w": (5, 6), "b": (5,)}

    def _run(self, kind, step_fn, steps=7):
        rng = np.random.default_rng(5)
        params = nn.ArrayBundle({k: rng.normal(size=s) for k, s in self.SHAPES.items()})
        state = nn.make_optimizer(kind, 0.01, params)
        for _ in range(steps):
            grads = {}
            for k, shape in self.SHAPES.items():
                g = rng.normal(size=shape)
                # row-sparse: most rows untouched in a batch, like embeddings
                g[rng.random(shape[0]) < 0.8] = 0.0
                grads[k] = g
            step_fn(params, grads, state)
        return params, state

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_matches_reference_over_steps(self, kind):
        assert_same_state(kind, self._run(kind, nn.optimizer_step),
                          self._run(kind, ref_optimizer_step))

    ROW_CASES = {
        "duplicates": np.array([3, 3, 7, 3, 12, 7]),
        "zero-sum": np.array([5, 9, 5]),  # row 5's two values cancel exactly
        "first-and-last": np.array([0, 39, 0]),
        "every-row": np.concatenate([np.arange(40)[::-1], [0, 17, 39]]),
    }

    def _run_rows(self, kind, step_fn, case, steps=7):
        """Steps whose "emb" gradient is a RowGrad: the case's rows on even
        steps, other rows on odd ones. Row 20 holds -0.0 and only "every-row"
        touches it."""
        rng = np.random.default_rng(8)
        params = nn.ArrayBundle({k: rng.normal(size=s) for k, s in self.SHAPES.items()})
        params["emb"][20] = -0.0
        state = nn.make_optimizer(kind, 0.01, params)
        for step in range(steps):
            index = self.ROW_CASES[case] if step % 2 == 0 else rng.choice(20, size=4) * 2 + 1
            values = rng.normal(size=(len(index), 6))
            if case == "zero-sum":
                values[2] = -values[0]
            [emb] = nn.row_grads(40, index, values)
            grads = {k: rng.normal(size=s) for k, s in self.SHAPES.items() if k != "emb"}
            step_fn(params, {"emb": emb, **grads}, state)
        return params, state

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_row_grads_match_reference_on_dense_form(self, kind, case, monkeypatch):
        monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)  # always the row form
        got = self._run_rows(kind, nn.optimizer_step, case)
        assert_same_state(kind, got, self._run_rows(kind, ref_optimizer_step, case))
        if case != "every-row":
            assert_same_bits(got[0]["emb"][20], np.full(6, -0.0))

    # Layer order as in the parameters; "rows" layers get RowGrad gradients
    # that share one index, like neuralcdm's diff_emb and disc_emb.
    LAYOUTS = {
        "rows-between-dense": [("w", (5, 6), False), ("emb", (40, 6), True), ("b", (5,), False)],
        "adjacent-rows": [("w", (5, 6), False), ("diff", (40, 6), True),
                          ("disc", (40, 1), True), ("b", (5,), False), ("w2", (3, 5), False)],
    }

    def _run_layout(self, kind, step_fn, layout, between_steps=None, steps=7):
        rng = np.random.default_rng(9)
        params = nn.ArrayBundle({k: rng.normal(size=shape) for k, shape, _ in layout})
        state = nn.make_optimizer(kind, 0.01, params)
        for _ in range(steps):
            index = rng.integers(0, 40, size=6)
            row_ids = [k for k, _, rows in layout if rows]
            values = [rng.normal(size=(len(index), shape[1])) for _, shape, rows in layout if rows]
            grads = dict(zip(row_ids, nn.row_grads(40, index, *values)))
            grads.update({k: rng.normal(size=shape) for k, shape, rows in layout if not rows})
            step_fn(params, {k: grads[k] for k, _, _ in layout}, state)  # in layer order
            if between_steps is not None:
                between_steps(params)
        return params, state

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_row_layouts_match_reference(self, kind, layout, monkeypatch):
        monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)  # always the row form
        layout = self.LAYOUTS[layout]
        assert_same_state(kind, self._run_layout(kind, nn.optimizer_step, layout),
                          self._run_layout(kind, ref_optimizer_step, layout))

    # 1 - beta1**step first rounds to 1.0 at step 356 and 1 - beta2**step at
    # step 37,412; from there a step skips the divide by it.
    @pytest.mark.parametrize("first, last", [(340, 370), (37_400, 37_420)])
    def test_steps_where_a_bias_correction_reaches_one(self, first, last, monkeypatch):
        monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)  # always the row form
        assert 1.0 - nn.ADAM_BETA1**355 < 1.0 == 1.0 - nn.ADAM_BETA1**356
        assert 1.0 - nn.ADAM_BETA2**37_411 < 1.0 == 1.0 - nn.ADAM_BETA2**37_412
        layout = self.LAYOUTS["rows-between-dense"]
        rng = np.random.default_rng(first)
        params = nn.ArrayBundle({k: rng.normal(size=shape) for k, shape, _ in layout})
        got = params, nn.make_optimizer("adam", 0.01, params)
        want = params.copy(), nn.make_optimizer("adam", 0.01, params)
        m, v = rng.normal(size=params.total_size) * 1e-2, rng.exponential(size=params.total_size)
        for _, state in (got, want):
            state.step, state.m.vector[...], state.v.vector[...] = first - 1, m, v * 1e-4
        for _ in range(first, last + 1):
            index = rng.integers(0, 40, size=6)
            [emb] = nn.row_grads(40, index, rng.normal(size=(6, 6)))
            grads = {"w": rng.normal(size=(5, 6)), "emb": emb, "b": rng.normal(size=5)}
            nn.optimizer_step(got[0], grads, got[1])
            ref_optimizer_step(want[0], grads, want[1])
            assert_same_state("adam", got, want)
        assert got[1].step == last

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_arrays_taken_before_make_optimizer_keep_aliasing_params(self, kind):
        params = nn.ArrayBundle({k: np.ones(s) for k, s in self.SHAPES.items()})
        vector, w = params.vector, params["w"]
        state = nn.make_optimizer(kind, 0.01, params)
        nn.optimizer_step(params, {k: np.ones(s) for k, s in self.SHAPES.items()}, state)
        assert params.vector is vector and np.shares_memory(w, vector)
        assert_same_bits(w, params["w"])
        assert (w < 1.0).all()

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_writes_through_params_reach_the_next_step(self, kind, monkeypatch):
        monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)  # always the row form

        def write(params):  # a projection like neuralcdm's post_step, and a store
            np.maximum(params["w"], 0.0, out=params["w"])
            params["emb"][3] = 2.5

        layout = self.LAYOUTS["rows-between-dense"]
        got = self._run_layout(kind, nn.optimizer_step, layout, write)
        assert_same_state(kind, got, self._run_layout(kind, ref_optimizer_step, layout, write))


class TestThreadedAdam:
    """Adam's decay and update on k threads give the reference bits."""

    @pytest.fixture(params=[2, 3], autouse=True)
    def threads(self, request, monkeypatch):
        """nn.make_optimizer makes Adam states whose gradient-free phase runs
        on k threads, in chunks of about 24 entries."""
        k, make = request.param, nn.make_optimizer
        monkeypatch.setattr(nn, "ADAM_CHUNK_ENTRIES", 24)
        with ThreadPoolExecutor(k - 1) as pool:
            def threaded(kind, lr, params):
                state = make(kind, lr, params, k, pool)
                assert state.threads == k and len(state.chunks) >= k and state.pool is pool
                return state

            monkeypatch.setattr(nn, "make_optimizer", threaded)
            yield k

    def test_dense_layout(self):
        fused = TestFusedAdam()
        assert_same_state("adam", fused._run("adam", nn.optimizer_step),
                          fused._run("adam", ref_optimizer_step))

    @pytest.mark.parametrize("case", sorted(TestFusedAdam.ROW_CASES))
    def test_row_form_layout(self, case, monkeypatch):
        monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)  # always the row form
        fused = TestFusedAdam()
        assert_same_state("adam", fused._run_rows("adam", nn.optimizer_step, case),
                          fused._run_rows("adam", ref_optimizer_step, case))

    @pytest.mark.parametrize("layout", sorted(TestFusedAdam.LAYOUTS))  # mixed; adjacent rows
    def test_mixed_layouts(self, layout, monkeypatch):
        monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)  # always the row form
        fused, layout = TestFusedAdam(), TestFusedAdam.LAYOUTS[layout]
        assert_same_state("adam", fused._run_layout("adam", nn.optimizer_step, layout),
                          fused._run_layout("adam", ref_optimizer_step, layout))

    def test_wide_vector_of_every_magnitude(self, monkeypatch):
        # Chunks of about 32k entries, so each chunk has a SIMD body and a
        # tail, holding gradients from 1e-150 to 1e150 and exact zeros.
        monkeypatch.setattr(nn, "ADAM_CHUNK_ENTRIES", 2**15)

        def run(step_fn):
            rng = np.random.default_rng(12)
            shapes = {"emb": (3_001, 32), "b": (7,)}
            params = nn.ArrayBundle({k: rng.normal(size=s) for k, s in shapes.items()})
            state = nn.make_optimizer("adam", 0.01, params)
            for _ in range(4):
                grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-150, 150, size=s)
                         for k, s in shapes.items()}
                grads["emb"][rng.random(3_001) < 0.5] = 0.0
                step_fn(params, grads, state)
            return params, state

        assert_same_state("adam", run(nn.optimizer_step), run(ref_optimizer_step))


def test_threaded_adam_under_stress(monkeypatch):
    # Seven pool threads on this machine's CPUs, switching every microsecond:
    # a part that another thread wrote, or a step that returned before a
    # part ended, would move bits.
    fused, make, switch = TestFusedAdam(), nn.make_optimizer, sys.getswitchinterval()
    want = fused._run("adam", ref_optimizer_step, steps=200)
    start = time.perf_counter()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(7) as pool:
            monkeypatch.setattr(nn, "make_optimizer",
                                lambda kind, lr, params: make(kind, lr, params, 8, pool))
            got = fused._run("adam", nn.optimizer_step, steps=200)
    finally:
        sys.setswitchinterval(switch)
    assert time.perf_counter() - start < 60.0
    assert_same_state("adam", got, want)


def _force_adam_threads(monkeypatch, cpus, min_entries=64, chunk_entries=24):
    """A one-thread BLAS, ``cpus`` usable CPUs, and constants of
    ``min_entries`` and ``chunk_entries``; returns the list to which each
    fit's Adam state adds its number of threads."""
    monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(nn, "blas_threads", lambda: 1)
    monkeypatch.setattr(nn, "ADAM_MIN_ENTRIES_PER_THREAD", min_entries)
    monkeypatch.setattr(nn, "ADAM_CHUNK_ENTRIES", chunk_entries)
    threads, make = [], nn.make_optimizer

    def counting(*args):
        state = make(*args)
        threads.append(state.threads)
        return state

    monkeypatch.setattr(nn, "make_optimizer", counting)
    return threads


class TestThreadedFit:
    @pytest.mark.parametrize("arch", ["decoupled", "neuralcdm"])
    def test_threads_give_the_same_params_and_fit_result(self, small_dataset, monkeypatch, arch):
        wiring = build_wiring(CDArchConfig(arch=arch, embed_dim=8, ffn_hidden=(12,)),
                              80, 10, small_dataset.qmatrix)
        arrays = records_to_arrays(small_dataset.records)
        cfg = nn.TrainConfig(max_epochs=4, batch_size=64)
        fits = {}
        for cpus in (1, 2, 3):
            threads = _force_adam_threads(monkeypatch, cpus)
            params, result = nn.fit_params(wiring, arrays, arrays, cfg, 5, model._monitor_score)
            assert threads == [cpus]
            fits[cpus] = params, result
        (one, first), *threaded = fits.values()
        for params, result in threaded:
            assert params.vector.tobytes() == one.vector.tobytes()
            assert params.layout == one.layout
            assert (result.epochs_run, result.best_epoch, result.monitor_value) == (
                first.epochs_run, first.best_epoch, first.monitor_value)

    @pytest.mark.parametrize("arch", ["decoupled", "neuralcdm"])
    def test_row_form_fit_gives_the_reference_bits_on_threads(
        self, small_dataset, monkeypatch, arch
    ):
        # Every table's gradient comes as a RowGrad, so the gradient-free
        # phase computes updates the gradient phase keeps or redoes. Batches
        # of 60 of the 800 records leave a partial last batch, consecutive
        # batches share students, and min_delta = 1 makes every epoch after
        # the first a bad one: early stopping ends the fit at epoch 3 of 6.
        monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)
        wiring = build_wiring(CDArchConfig(arch=arch, embed_dim=8, ffn_hidden=(12,)),
                              80, 10, small_dataset.qmatrix)
        arrays = records_to_arrays(small_dataset.records)
        cfg = nn.TrainConfig(max_epochs=6, batch_size=60, patience=2, min_delta=1.0)
        assert len(arrays[2]) % cfg.batch_size
        batches, forward = [], wiring.forward

        def recording(params, students, items, train=False, rng=None):
            if train:
                batches.append(set(students.tolist()))
            return forward(params, students, items, train=train, rng=rng)

        monkeypatch.setattr(wiring, "forward", recording)

        def fit(cpus):
            batches.clear()
            threads = _force_adam_threads(monkeypatch, cpus)
            fitted = nn.fit_params(wiring, arrays, arrays, cfg, 5, model._monitor_score)
            assert threads == [cpus]
            return fitted

        fits = [fit(cpus) for cpus in (1, 2, 3)]
        assert any(a & b for a, b in zip(batches, batches[1:]))
        monkeypatch.setattr(nn, "optimizer_step", ref_optimizer_step)  # on one thread
        want, want_result = fit(1)
        assert want_result.epochs_run == 3 < cfg.max_epochs
        for params, result in fits:
            assert params.vector.tobytes() == want.vector.tobytes()
            assert (result.epochs_run, result.best_epoch, result.monitor_value) == (
                want_result.epochs_run, want_result.best_epoch, want_result.monitor_value)

    def test_no_thread_outlives_a_fit(self, small_dataset, monkeypatch):
        threads = _force_adam_threads(monkeypatch, 2)
        during, step = [], nn.optimizer_step

        def counting_step(params, grads, state):
            step(params, grads, state)
            during.append(threading.active_count())

        monkeypatch.setattr(nn, "optimizer_step", counting_step)
        before = threading.active_count()
        CDModel(embed_dim=6, ffn_hidden=(8,), max_epochs=2, seed=1).fit(
            small_dataset.records, small_dataset.qmatrix)
        assert threading.active_count() == before < max(during)
        diverging = CDModel(arch="neuralcdm", embed_dim=6, lr=1e300, max_epochs=3, seed=1)
        # errstate reaches the pool's threads: no overflow warning ends the fit first
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="training diverged"):
            diverging.fit(small_dataset.records, small_dataset.qmatrix)
        assert threading.active_count() == before
        assert threads == [2, 2]

    @pytest.mark.parametrize("k", [2, 3])
    def test_monitor_predictions_run_on_the_fits_pool(self, small_dataset, monkeypatch, k):
        # Chunks of 64 rows put the monitor pass on k threads too; it must
        # use the fit's pool of k - 1 threads, not a second pool.
        _force_adam_threads(monkeypatch, k)
        monkeypatch.setattr(nn, "PREDICT_ROWS", 16)
        monkeypatch.setattr(nn, "PREDICT_CHUNK_ROWS", 64)
        wiring = build_wiring(CDArchConfig(embed_dim=8, ffn_hidden=(12,)), 80, 10,
                              small_dataset.qmatrix)
        arrays = records_to_arrays(small_dataset.records)
        assert nn.predict_threads(len(arrays[0])) == k
        alive, ran_on, forward = [], set(), wiring.forward

        def recording(params, students, items, train=False, rng=None):
            if not train:
                alive.append(threading.active_count())
                ran_on.add(threading.get_ident())
            return forward(params, students, items, train=train, rng=rng)

        monkeypatch.setattr(wiring, "forward", recording)
        before = threading.active_count()
        nn.fit_params(wiring, arrays, arrays, nn.TrainConfig(max_epochs=3), 5,
                      model._monitor_score)
        assert len(ran_on) > 1 and max(alive) <= before + k - 1
        assert threading.active_count() == before

    # (usable CPUs, BLAS threads, parameters in units of the constant, threads)
    @pytest.mark.parametrize("cpus, blas, size, threads", [
        (8, None, 100.0, 1),  # a BLAS that cannot be asked
        (1, 1, 100.0, 1),     # one CPU
        (2, 1, 1.99, 1),      # a model under two threads' worth of entries
        (64, 1, 20_753 / 2**16, 1),  # the benchmark-shaped model
        (2, 1, 2.0, 2),
        (3, 2, 100.0, 1),     # BLAS's threads leave no second CPU
        (4, 2, 100.0, 2),
        (8, 1, 3.5, 3),
    ])
    def test_gate(self, monkeypatch, cpus, blas, size, threads):
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(nn, "blas_threads", lambda: blas)
        assert nn.adam_threads(int(size * nn.ADAM_MIN_ENTRIES_PER_THREAD)) == threads

    def test_threads_need_a_pool(self):
        params = nn.ArrayBundle({"w": np.zeros(10)})
        for threads, pool in ((2, None), (0, None), (1.5, None)):
            with pytest.raises(ValueError, match="thread"):
                nn.make_optimizer("adam", 0.1, params, threads, pool)


def test_threaded_fit_under_stress(small_dataset, monkeypatch):
    # Eight threads switching every microsecond while the batch's forward
    # and backward run alongside the gradient-free phase, each range of which
    # first sleeps 0.2 ms: a range that wrote the parameters, or one that ran
    # into the gradient phase, would move bits.
    monkeypatch.setattr(nn, "ROW_GRAD_MIN_ENTRIES_PER_RECORD", 0)  # always the row form
    start_step = nn._start_adam_step

    def slow_step(state):
        run = start_step(state)

        def slow(chunk):
            time.sleep(0.0002)
            run(chunk)

        return slow

    monkeypatch.setattr(nn, "_start_adam_step", slow_step)
    wiring = build_wiring(CDArchConfig(embed_dim=8, ffn_hidden=(12,)), 80, 10,
                          small_dataset.qmatrix)
    arrays = records_to_arrays(small_dataset.records)
    cfg = nn.TrainConfig(max_epochs=2, batch_size=64)

    def fit(cpus):
        threads = _force_adam_threads(monkeypatch, cpus)
        params, _ = nn.fit_params(wiring, arrays, arrays, cfg, 5, model._monitor_score)
        assert threads == [cpus]
        return params

    want = fit(1)
    switch, start = sys.getswitchinterval(), time.perf_counter()
    try:
        sys.setswitchinterval(1e-6)
        got = fit(8)
    finally:
        sys.setswitchinterval(switch)
    assert time.perf_counter() - start < 60.0
    assert_same_bits(got.vector, want.vector)


def test_no_chunk_outlives_a_raising_block_on_a_callers_pool():
    started, ended = [], []

    def run(chunk):
        started.append(chunk)
        time.sleep(0.2)
        ended.append(chunk)

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(ValueError, match="the block"):
            with nn._alongside(run, [(0, 1), (1, 2), (2, 3)], 2, pool):
                while not started:
                    time.sleep(0.001)
                raise ValueError("the block")
        assert ended == started == [(0, 1)]  # the chunk in flight ended; the queued two were dropped


def test_a_backward_raising_mid_fit_leaves_no_chunk_running(small_dataset, monkeypatch):
    _force_adam_threads(monkeypatch, 3)
    wiring = build_wiring(CDArchConfig(embed_dim=8, ffn_hidden=(12,)), 80, 10,
                          small_dataset.qmatrix)
    events, calls, start, backward = [], [], nn._start_adam_step, wiring.backward

    def slow_step(state):  # each range of the gradient-free phase takes 2 ms
        run = start(state)

        def slow(chunk):
            events.append(("start", state.step))
            time.sleep(0.002)
            run(chunk)
            events.append(("end", state.step))

        return slow

    def failing(params, cache, dz, mode):  # the third batch's, once a chunk of its step runs
        calls.append(mode)
        if len(calls) < 3:
            return backward(params, cache, dz, mode)
        while ("start", 3) not in events:
            time.sleep(0.001)
        raise RuntimeError("backward failed")

    monkeypatch.setattr(nn, "_start_adam_step", slow_step)
    monkeypatch.setattr(wiring, "backward", failing)
    arrays = records_to_arrays(small_dataset.records)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="backward failed"):
        nn.fit_params(wiring, arrays, arrays, nn.TrainConfig(max_epochs=1), 5,
                      model._monitor_score)
    ended = len(events)
    time.sleep(0.05)
    assert len(events) == ended  # no chunk started after the fit raised
    starts = [step for kind, step in events if kind == "start"]
    assert sorted(starts) == sorted(step for kind, step in events if kind == "end")
    assert starts.count(3) < starts.count(1)  # the chunks not yet taken were dropped
    assert threading.active_count() == before


def ref_sum_sq_grads(wiring, params, s, q, y, batch_size):
    """The serial loop: each batch's squared gradients, dense, added in order."""
    total = np.zeros(params.total_size)
    for start in range(0, len(y), batch_size):
        sl = slice(start, start + batch_size)
        p, cache = wiring.forward(params, s[sl], q[sl], train=False)
        total += nn.dense(wiring.backward(params, cache, p - y[sl], mode="sq_sum")).vector
    return total


@pytest.fixture(scope="module", params=["decoupled", "neuralcdm"])
def sq_setup(request):
    """A wiring with random parameters over 40 students and 700 random records."""
    rng = np.random.default_rng(21)
    cfg = CDArchConfig(arch=request.param, embed_dim=6, ffn_hidden=(8, 5), dropout=0.0)
    wiring = build_wiring(cfg, 40, 9, _random_qmatrix(rng, 9, 4))
    params = wiring.init_params(np.random.default_rng(22))
    for _, values in params.items():
        values[...] = rng.uniform(-0.8, 0.8, size=values.shape)
    wiring.post_step(params)
    n = 700
    return wiring, params, (rng.integers(0, 40, n), rng.integers(0, 9, n),
                            (rng.random(n) < 0.6).astype(float))


class TestThreadedSquaredPass:
    """sum_sq_grads on k threads gives the serial loop's bits."""

    @pytest.fixture(params=[2, 3], autouse=True)
    def threads(self, request, monkeypatch):
        """sum_sq_grads runs on k threads, whatever the CPUs."""
        k = request.param
        monkeypatch.setattr(nn, "sq_sum_threads", lambda n_records, batch_size=4096: k)
        return k

    @staticmethod
    def _recording_threads(monkeypatch, wiring):
        ran_on, forward = set(), wiring.forward

        def recording(*args, **kwargs):
            ran_on.add(threading.get_ident())
            return forward(*args, **kwargs)

        monkeypatch.setattr(wiring, "forward", recording)
        return ran_on

    # (records, batch size): an uneven last batch, even batches, fewer
    # records than one batch, and one record per batch
    @pytest.mark.parametrize("n, batch_size", [(700, 64), (640, 64), (50, 64), (9, 1)])
    @pytest.mark.parametrize("form", ["rows", "dense"])
    def test_matches_the_serial_loop(self, sq_setup, threads, monkeypatch, n, batch_size, form):
        wiring, params, (s, q, y) = sq_setup
        if form == "dense":
            monkeypatch.setattr(nn, "row_grads", dense_row_grads)
        want = ref_sum_sq_grads(wiring, params, s[:n], q[:n], y[:n], batch_size)
        ran_on = self._recording_threads(monkeypatch, wiring)
        before = threading.active_count()
        got = nn.sum_sq_grads(wiring, params, s[:n], q[:n], y[:n], batch_size)
        assert threading.active_count() == before
        assert_same_bits(got.vector, want)
        # a pool thread may take two chunks of a round when the first ends early
        assert (len(ran_on) > 1) == (n > batch_size) and len(ran_on) <= threads

    def test_out_of_range_id_in_a_worker_batch_raises_index_error(self, sq_setup):
        wiring, params, (s, q, y) = sq_setup
        s = s.copy()
        s[70] = 40  # the second batch, which a pool thread runs
        before = threading.active_count()
        with pytest.raises(IndexError, match="student id out of range"):
            nn.sum_sq_grads(wiring, params, s, q, y, 64)
        assert threading.active_count() == before

    def test_errstate_reaches_the_worker_batches(self, sq_setup, monkeypatch):
        # a forward that overflows in the second batch only, on a pool thread
        wiring, params, (s, q, y) = sq_setup
        forward = wiring.forward

        def overflowing(params, students, items, train=False, rng=None):
            if students.ctypes.data == s[64:].ctypes.data:
                np.exp(np.array([1000.0]))
            return forward(params, students, items, train=train, rng=rng)

        monkeypatch.setattr(wiring, "forward", overflowing)
        before = threading.active_count()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            nn.sum_sq_grads(wiring, params, s, q, y, 64)
        assert threading.active_count() == before


def test_threaded_squared_pass_under_stress(sq_setup, monkeypatch):
    # Eight threads on this machine's CPUs, switching every microsecond: a
    # batch added out of order, or a round taken before it ended, would move
    # bits.
    wiring, params, (s, q, y) = sq_setup
    want = ref_sum_sq_grads(wiring, params, s, q, y, 4)
    monkeypatch.setattr(nn, "sq_sum_threads", lambda n_records, batch_size=4096: 8)
    switch, start = sys.getswitchinterval(), time.perf_counter()
    try:
        sys.setswitchinterval(1e-6)
        got = nn.sum_sq_grads(wiring, params, s, q, y, 4)
    finally:
        sys.setswitchinterval(switch)
    assert time.perf_counter() - start < 60.0
    assert_same_bits(got.vector, want)


class TestSquaredPassGate:
    # (usable CPUs, BLAS threads, records, threads)
    @pytest.mark.parametrize("cpus, blas, records, threads", [
        (8, None, 156_920, 1),  # a BLAS that cannot be asked
        (1, 1, 156_920, 1),     # one CPU
        (64, 1, 6_881, 1),      # the 536-student union, 2 batches
        (64, 1, 3 * 4096, 1),   # 3 batches
        (64, 1, 3 * 4096 + 1, 2),
        (2, 1, 38_374, 2),      # the 6,000-student unlearn in CI
        (2, 1, 156_920, 2),     # the 10,000-student benchmark
        (3, 2, 156_920, 1),     # BLAS's threads leave no second CPU
        (8, 1, 156_920, 8),
    ])
    def test_gate(self, monkeypatch, cpus, blas, records, threads):
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(nn, "blas_threads", lambda: blas)
        assert nn.sq_sum_threads(records) == threads

    def test_a_cpu_share_bounds_every_gate(self, monkeypatch):
        monkeypatch.setattr(nn, "usable_cpus", lambda: 8)
        monkeypatch.setattr(nn, "blas_threads", lambda: 1)
        big = 100 * nn.ADAM_MIN_ENTRIES_PER_THREAD
        assert (nn.adam_threads(big), nn.sq_sum_threads(156_920)) == (8, 8)
        with nn.cpu_share(3):
            assert (nn.adam_threads(big), nn.sq_sum_threads(156_920)) == (3, 3)
            with nn.cpu_share(None):
                assert nn.adam_threads(big) == 8
        assert nn.adam_threads(big) == 8
        for bad in (0, 1.5, True):
            with pytest.raises(ValueError, match="cpus"):
                with nn.cpu_share(bad):
                    pass


RTA_OWNERS = (data, model, importance, mia, unlearn)


@pytest.fixture
def reference_kernels(monkeypatch):
    """Install the reference kernels everywhere the library calls them."""
    monkeypatch.setattr(nn, "sigmoid", ref_sigmoid)
    monkeypatch.setattr(nn, "scatter_rows", ref_scatter_rows)
    monkeypatch.setattr(nn, "optimizer_step", ref_optimizer_step)
    for owner in RTA_OWNERS:
        monkeypatch.setattr(owner, "records_to_arrays", ref_records_to_arrays)
    return monkeypatch


def _fit_and_unlearn(dataset, arch, batch_size):
    fitted = CDModel(
        arch=arch, embed_dim=6, ffn_hidden=(8,), dropout=0.2,
        max_epochs=4, batch_size=batch_size, seed=3,
    ).fit(dataset.records, dataset.qmatrix)
    forget = [r for r in dataset.records if r.student_id < 8]
    retain = [r for r in dataset.records if r.student_id >= 8]
    cfg = unlearn.HIFConfig(alpha=1.0, lambda_=0.8, beta=0.1)
    forgotten, report = unlearn.hif_unlearn(fitted, forget, retain, cfg)
    return fitted, forgotten, report


# The 80-row student table (embed_dim 6, or 4 KCs) gets dense gradients at
# batch 32 and row gradients at batch 1.
@pytest.mark.parametrize(
    "arch, batch_size, form",
    [("decoupled", 32, np.ndarray), ("neuralcdm", 32, np.ndarray),
     ("decoupled", 1, nn.RowGrad), ("neuralcdm", 1, nn.RowGrad)],
    ids=["decoupled", "neuralcdm", "decoupled-rows", "neuralcdm-rows"],
)
def test_kernels_give_the_reference_bits_end_to_end(
    small_dataset, arch, batch_size, form, reference_kernels
):
    want = _fit_and_unlearn(small_dataset, arch, batch_size)
    reference_kernels.undo()
    got = _fit_and_unlearn(small_dataset, arch, batch_size)
    wiring, params = got[0].wiring_, got[0].params_
    probs, cache = wiring.forward(params, np.arange(batch_size), np.zeros(batch_size, np.int64))
    assert type(wiring.backward(params, cache, probs, mode="sum")["student_emb"]) is form
    assert nn.sigmoid is not ref_sigmoid and model.records_to_arrays is data.records_to_arrays
    assert got[2].parameters_modified == want[2].parameters_modified > 0
    for got_model, want_model in zip(got[:2], want[:2]):
        for k, values in want_model.params_.items():
            assert got_model.params_[k].tobytes() == values.tobytes()


# -- chunked prediction ---------------------------------------------------

PREDICT_SIZES = [1, 511, 512, 513, 1023, 1024, 1025, 1543, 6881, 65543, 70000]


@pytest.fixture(scope="module", params=["decoupled", "neuralcdm"])
def predict_setup(request):
    """A wiring at a benchmark-like width with random parameters, plus 70,000
    random (student, item) rows."""
    rng = np.random.default_rng(12)
    n_students, n_items = 3000, 100
    cfg = CDArchConfig(arch=request.param, embed_dim=32, ffn_hidden=(64, 32), dropout=0.0)
    wiring = build_wiring(cfg, n_students, n_items, _random_qmatrix(rng, n_items, 8))
    params = wiring.init_params(np.random.default_rng(13))
    for _, values in params.items():
        values[...] = rng.uniform(-0.8, 0.8, size=values.shape)
    wiring.post_step(params)
    n = max(PREDICT_SIZES)
    students = rng.integers(0, n_students, size=n)
    items = rng.integers(0, n_items, size=n)
    return wiring, params, (students, items, np.zeros(n))


class TestPredictAll:
    @pytest.mark.parametrize("n", PREDICT_SIZES)
    def test_chunks_give_the_bits_of_one_forward(self, predict_setup, n):
        wiring, params, (s, q, y) = predict_setup
        want, _ = wiring.forward(params, s[:n], q[:n], train=False)
        assert_same_bits(nn._predict_all(wiring, params, (s[:n], q[:n], y[:n])), want)

    @staticmethod
    def _chunk_sizes(predict_setup, monkeypatch, n, threads):
        """The row counts, in row order, of the chunks ``_predict_all`` runs
        ``n`` rows in on ``threads`` threads, after checking that they cover
        the rows, each once."""
        wiring, params, (s, q, y) = predict_setup
        monkeypatch.setattr(nn, "predict_threads", lambda n_rows: threads)
        forward = wiring.forward
        chunks = []

        def recording_forward(params, students, items, train=False, rng=None):
            chunks.append(students)
            return forward(params, students, items, train=train, rng=rng)

        monkeypatch.setattr(wiring, "forward", recording_forward)
        nn._predict_all(wiring, params, (s[:n], q[:n], y[:n]))
        chunks.sort(key=lambda chunk: chunk.ctypes.data)  # each is a view of s
        assert np.array_equal(np.concatenate(chunks), s[:n])  # in order, each row once
        return [len(chunk) for chunk in chunks]

    @pytest.mark.parametrize("n", [0, *PREDICT_SIZES])
    def test_chunks_are_aligned_and_hold_512_to_1023_rows(self, predict_setup, monkeypatch, n):
        # on one thread
        sizes = self._chunk_sizes(predict_setup, monkeypatch, n, 1)
        assert max(sizes) <= 1023
        if n >= 512:
            assert min(sizes) >= 512
        assert all(start % 512 == 0 for start in np.cumsum([0, *sizes[:-1]]))

    @pytest.mark.parametrize("n", [0, *PREDICT_SIZES, 2559, 2560, 4607, 4608, 6891, 38_773])
    def test_threaded_chunks_hold_2048_rows_but_the_last(self, predict_setup, monkeypatch, n):
        sizes = self._chunk_sizes(predict_setup, monkeypatch, n, 2)
        *full, last = sizes
        assert all(size == nn.PREDICT_CHUNK_ROWS == 2048 for size in full)
        assert min(n, 512) <= last <= 2048 + 511
        assert nn.PREDICT_CHUNK_ROWS % nn.PREDICT_ROWS == 0


def ref_predict(wiring, params, s, q):
    """The one-thread loop of 512-row chunks, the last taking the remainder."""
    n = len(s)
    out = np.empty(n)
    edges = [0, *range(512, n - 512 + 1, 512), n]
    for a, b in zip(edges, edges[1:]):
        out[a:b], _ = wiring.forward(params, s[a:b], q[a:b], train=False)
    return out


class TestThreadedPredict:
    """_predict_all on k threads gives the bits of the one-thread loop."""

    @pytest.fixture(params=[2, 3], autouse=True)
    def threads(self, request, monkeypatch):
        """_predict_all runs on k threads, whatever the CPUs."""
        k = request.param
        monkeypatch.setattr(nn, "predict_threads", lambda n_rows: k)
        return k

    # an uneven last chunk, even chunks with a merged remainder, and fewer
    # rows than one chunk
    @pytest.mark.parametrize("n", [10_000, 8_500, 1_543])
    @pytest.mark.parametrize("pool", ["own", "caller's"])
    def test_matches_the_serial_loop_and_one_forward(
        self, predict_setup, monkeypatch, threads, n, pool
    ):
        wiring, params, (s, q, y) = predict_setup
        want = ref_predict(wiring, params, s[:n], q[:n])
        assert_same_bits(wiring.forward(params, s[:n], q[:n], train=False)[0], want)
        ran_on, forward = set(), wiring.forward

        def recording(*args, **kwargs):
            ran_on.add(threading.get_ident())
            return forward(*args, **kwargs)

        monkeypatch.setattr(wiring, "forward", recording)
        before = threading.active_count()
        if pool == "own":
            got = nn._predict_all(wiring, params, (s[:n], q[:n], y[:n]))
            assert threading.active_count() == before
        else:
            with ThreadPoolExecutor(threads - 1) as owned:
                got = nn._predict_all(wiring, params, (s[:n], q[:n], y[:n]), owned)
                assert threading.active_count() <= before + threads - 1
        assert_same_bits(got, want)
        assert (len(ran_on) > 1) == (n >= 2 * nn.PREDICT_CHUNK_ROWS) and len(ran_on) <= threads

    def test_out_of_range_id_in_a_worker_chunk_raises_index_error(self, predict_setup):
        wiring, params, (s, q, y) = predict_setup
        s = s[:5000].copy()
        s[2100] = wiring.n_students  # the second chunk, which a pool thread runs
        before = threading.active_count()
        with pytest.raises(IndexError, match="student id out of range"):
            nn._predict_all(wiring, params, (s, q[:5000], y[:5000]))
        assert threading.active_count() == before

    def test_errstate_reaches_the_worker_chunks(self, predict_setup, monkeypatch):
        # a forward that overflows in the second chunk only, on a pool thread
        wiring, params, (s, q, y) = predict_setup
        forward = wiring.forward

        def overflowing(params, students, items, train=False, rng=None):
            if students.ctypes.data == s[2048:].ctypes.data:
                np.exp(np.array([1000.0]))
            return forward(params, students, items, train=train, rng=rng)

        monkeypatch.setattr(wiring, "forward", overflowing)
        before = threading.active_count()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            nn._predict_all(wiring, params, (s[:5000], q[:5000], y[:5000]))
        assert threading.active_count() == before


def test_threaded_predict_under_stress(predict_setup, monkeypatch):
    # Eight threads on this machine's CPUs, switching every microsecond: a
    # chunk written into another's slice, or a pass that returned before a
    # chunk ended, would move bits.
    wiring, params, (s, q, y) = predict_setup
    n = 20_000
    want = ref_predict(wiring, params, s[:n], q[:n])
    monkeypatch.setattr(nn, "predict_threads", lambda n_rows: 8)
    switch, start = sys.getswitchinterval(), time.perf_counter()
    try:
        sys.setswitchinterval(1e-6)
        got = nn._predict_all(wiring, params, (s[:n], q[:n], y[:n]))
    finally:
        sys.setswitchinterval(switch)
    assert time.perf_counter() - start < 60.0
    assert_same_bits(got, want)


def test_no_chunk_outlives_a_raising_call_on_a_callers_pool():
    ended = []

    def run(chunk):
        if chunk.start == 0:
            raise ValueError("the first chunk")
        time.sleep(0.2)
        ended.append(chunk.start)

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(ValueError, match="the first chunk"):
            nn._over_chunks(run, [slice(0, 1), slice(1, 2)], 2, pool=pool)
        assert ended == [1]


class TestPredictGate:
    # (usable CPUs, BLAS threads, rows, threads)
    @pytest.mark.parametrize("cpus, blas, rows, threads", [
        (8, None, 38_773, 1),  # a BLAS that cannot be asked
        (1, 1, 38_773, 1),     # one CPU
        (64, 1, 6_891, 1),     # the 536-student model's largest set, 3 chunks
        (64, 1, 4 * 2048 - 1, 1),
        (64, 1, 4 * 2048, 2),
        (2, 1, 12_000, 2),     # the 6,000-student monitor set in CI
        (2, 1, 38_773, 2),     # the 10,000-student benchmark's audit
        (3, 2, 38_773, 1),     # BLAS's threads leave no second CPU
        (8, 1, 38_773, 8),
    ])
    def test_gate(self, monkeypatch, cpus, blas, rows, threads):
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(nn, "blas_threads", lambda: blas)
        assert nn.predict_threads(rows) == threads
