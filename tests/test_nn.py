"""Numeric core: losses, optimizers, exact gradients, squared-gradient
accumulation, and the checkpoint container."""

import json
import math
import re

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
    params = wiring.init_params(np.random.default_rng(int(rng.integers(0, 2**31))), 0)
    for _, values in params.items():
        values[...] = rng.uniform(-0.8, 0.8, size=values.shape)
    wiring.post_step(params)
    return wiring, params


def _loss_at(wiring, params, s, q, y):
    p, _ = wiring.forward(params, np.array([s]), np.array([q]))
    return nn.bce_loss(float(p[0]), y)


def finite_difference_gradient(wiring, params, s, q, y, h=1e-5):
    """Central differences of the single-example loss for every parameter."""
    fd = nn.GradientBuffer.zeros_like(params)
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


def max_relative_error(a: nn.GradientBuffer, b: nn.GradientBuffer) -> float:
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
        params = wiring.init_params(np.random.default_rng(0), 0)
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
            analytic = nn.example_gradient(wiring, params, s, q, y)
            fd = finite_difference_gradient(wiring, params, s, q, y)
            worst = max(worst, max_relative_error(analytic, fd))
        assert worst < 1e-4

    @pytest.mark.parametrize("arch", ["decoupled", "neuralcdm"])
    def test_untouched_rows_have_exact_zero_gradient(self, arch):
        rng = np.random.default_rng(3)
        wiring, params = _random_wiring(rng, arch)
        g = nn.example_gradient(wiring, params, 2, 3, 1.0)
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
        g2 = wiring.backward(params, cache, 2.0 * dz, mode="sum")
        for name, values in g1.items():
            assert np.allclose(2.0 * values, g2[name], rtol=1e-14, atol=0.0)


class TestOptimizers:
    def test_sgd_step(self):
        params = nn.ParamStore({"w": np.array([1.0])})
        grads = nn.GradientBuffer({"w": np.array([2.0])})
        state = nn.make_optimizer("sgd", 0.1, params)
        nn.optimizer_step(params, grads, state)
        assert params["w"][0] == pytest.approx(0.8, abs=1e-15)

    def test_adam_first_step_magnitude(self):
        params = nn.ParamStore({"w": np.array([0.0])})
        grads = nn.GradientBuffer({"w": np.array([1.0])})
        state = nn.make_optimizer("adam", 0.01, params)
        nn.optimizer_step(params, grads, state)
        # bias-corrected first step: lr * 1 / (1 + eps)
        assert params["w"][0] == pytest.approx(-0.01 / (1 + 1e-8), abs=1e-12)
        assert state.step == 1

    def test_zero_gradient_keeps_parameters(self):
        params = nn.ParamStore({"w": np.array([0.7, -0.3])})
        grads = nn.GradientBuffer({"w": np.zeros(2)})
        state = nn.make_optimizer("sgd", 0.5, params)
        nn.optimizer_step(params, grads, state)
        assert np.array_equal(params["w"], np.array([0.7, -0.3]))

    def test_shape_mismatch_rejected(self):
        params = nn.ParamStore({"w": np.zeros(2)})
        grads = nn.GradientBuffer({"w": np.zeros(3)})
        with pytest.raises(ValueError):
            nn.optimizer_step(params, grads, nn.make_optimizer("sgd", 0.1, params))


class TestSquaredGradientAccumulation:
    def test_identical_records_equal_single_square(self, small_model, small_dataset):
        rec = small_dataset.records[5]
        s = np.full(12, rec.student_id)
        q = np.full(12, rec.item_id)
        y = np.full(12, float(rec.score))
        acc = nn.accumulate_sq_grads(small_model.wiring_, small_model.params_, s, q, y)
        single = nn.example_gradient(
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
        brute = nn.GradientBuffer.zeros_like(small_model.params_)
        for rec in records:
            g = nn.example_gradient(
                small_model.wiring_, small_model.params_, rec.student_id, rec.item_id, rec.score
            )
            for name, values in brute.items():
                values += np.square(g[name])
        brute.scale_(1.0 / len(records))
        for name, values in fast.items():
            assert np.allclose(values, brute[name], rtol=1e-10, atol=1e-300)

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
        assert loaded.params_.rng_seed == small_model.params_.rng_seed


# -- reference kernels --------------------------------------------------
# The straightforward forms the library's kernels replaced. The kernels must
# give the same bits; these are kept only as oracles.


def ref_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def ref_scatter_rows(n_rows, index, rows):
    table = np.zeros((n_rows, rows.shape[1]))
    np.add.at(table, index, rows)
    return table


def ref_optimizer_step(params, grads, state):
    params.require_congruent(grads)
    if state.kind == "sgd":
        for k, p in params.items():
            p -= state.lr * grads[k]
        return params, state
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for k, p in params.items():
        g, m, v = grads[k], state.m[k], state.v[k]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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


class TestSigmoidKernel:
    SPECIAL = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf,
               36.7, -36.7, 709.8, -709.8, 5e-324, -5e-324]

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

    def test_input_not_mutated(self):
        x = np.random.default_rng(2).normal(size=(8, 5))
        before = x.copy()
        nn.sigmoid(x)
        assert_same_bits(x, before)


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


class TestFusedAdam:
    SHAPES = {"emb": (40, 6), "w": (5, 6), "b": (5,)}

    def _run(self, kind, step_fn, steps=7):
        rng = np.random.default_rng(5)
        params = nn.ParamStore({k: rng.normal(size=s) for k, s in self.SHAPES.items()})
        state = nn.make_optimizer(kind, 0.01, params)
        for _ in range(steps):
            grads = {}
            for k, shape in self.SHAPES.items():
                g = rng.normal(size=shape)
                # row-sparse: most rows untouched in a batch, like embeddings
                g[rng.random(shape[0]) < 0.8] = 0.0
                grads[k] = g
            step_fn(params, nn.GradientBuffer(grads), state)
        return params, state

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_matches_reference_over_steps(self, kind):
        got, got_state = self._run(kind, nn.optimizer_step)
        want, want_state = self._run(kind, ref_optimizer_step)
        assert got_state.step == want_state.step
        for k, values in want.items():
            assert_same_bits(got[k], values)
            if kind == "adam":
                assert_same_bits(got_state.m[k], want_state.m[k])
                assert_same_bits(got_state.v[k], want_state.v[k])


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


def _fit_and_unlearn(dataset, arch):
    fitted = CDModel(
        arch=arch, embed_dim=6, ffn_hidden=(8,), dropout=0.2,
        max_epochs=4, batch_size=32, seed=3,
    ).fit(dataset.records, dataset.qmatrix)
    forget = [r for r in dataset.records if r.student_id < 8]
    retain = [r for r in dataset.records if r.student_id >= 8]
    cfg = unlearn.HIFConfig(alpha=1.0, lambda_=0.8, beta=0.1)
    forgotten, report = unlearn.hif_unlearn(fitted, forget, retain, cfg)
    return fitted, forgotten, report


@pytest.mark.parametrize("arch", ["decoupled", "neuralcdm"])
def test_kernels_give_the_reference_bits_end_to_end(small_dataset, arch, reference_kernels):
    want = _fit_and_unlearn(small_dataset, arch)
    reference_kernels.undo()
    got = _fit_and_unlearn(small_dataset, arch)
    assert nn.sigmoid is not ref_sigmoid and model.records_to_arrays is data.records_to_arrays
    assert got[2].parameters_modified == want[2].parameters_modified > 0
    for got_model, want_model in zip(got[:2], want[:2]):
        for k, values in want_model.params_.items():
            assert got_model.params_[k].tobytes() == values.tobytes()
