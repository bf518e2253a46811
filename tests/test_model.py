"""Architecture behavior: masking, decoupling, proficiency, training quality,
and the monotonic mastery-table variant."""

import copy
import pickle
from dataclasses import asdict

import numpy as np
import pytest

from cdunlearn import nn, synth
from cdunlearn.data import Records, ResponseRecord
from cdunlearn.metrics import auc
from cdunlearn.model import CDArchConfig, CDModel, build_wiring, train


@pytest.fixture(scope="module")
def masked_setup(small_dataset):
    """A fitted decoupled model plus an (item, kc) pair the item does not test."""
    model = CDModel(embed_dim=6, ffn_hidden=(8,), dropout=0.0, max_epochs=5, seed=2)
    model.fit(small_dataset.records, small_dataset.qmatrix)
    entries = small_dataset.qmatrix.entries
    item, kc = next(
        (j, k)
        for j in range(entries.shape[0])
        for k in range(entries.shape[1])
        if entries[j, k] == 0
    )
    return model, item, kc


class TestDecoupledPredict:
    def test_equal_proficiency_and_difficulty_collapse(self, small_dataset):
        cfg = CDArchConfig(embed_dim=4, ffn_hidden=(6,), dropout=0.0)
        wiring = build_wiring(cfg, 12, small_dataset.n_items, small_dataset.qmatrix)
        params = wiring.init_params(np.random.default_rng(0))
        # identical embedding vector for every student and exercise, shared
        # biases: proficiency == difficulty, so the masked gap is zero and the
        # output depends only on the feed-forward net.
        shared = np.random.default_rng(1).uniform(-0.5, 0.5, size=4)
        params["student_emb"][...] = shared
        params["exercise_emb"][...] = shared
        params["diff_bias"][...] = params["prof_bias"]
        s, q = np.repeat(np.arange(12), small_dataset.n_items), np.tile(
            np.arange(small_dataset.n_items), 12
        )
        p, _ = wiring.forward(params, s, q)
        assert np.allclose(p, p[0], atol=1e-15)

    def test_masked_kc_does_not_affect_prediction(self, masked_setup):
        model, item, kc = masked_setup
        probe = Records(np.arange(20), np.full(20, item), np.zeros(20))
        before = model.predict_proba(probe)
        perturbed = model.params_.copy()
        perturbed["prof_bias"][kc] += 3.21
        perturbed["kc_emb"][kc] -= 0.77
        after = model.with_params(perturbed).predict_proba(probe)
        assert np.array_equal(before, after)

    def test_unmasked_kc_does_affect_prediction(self, masked_setup):
        model, item, _ = masked_setup
        tested_kc = int(np.argmax(model.qmatrix_.entries[item]))
        perturbed = model.params_.copy()
        perturbed["prof_bias"][tested_kc] += 3.21
        before = model.predict_proba([(0, item, 0)])
        after = model.with_params(perturbed).predict_proba([(0, item, 0)])
        assert before != after

    def test_output_in_unit_interval(self, small_model, small_dataset):
        p = small_model.predict_proba(small_dataset.records)
        assert p.shape == (len(small_dataset.records),)
        assert np.all(p > 0) and np.all(p < 1)

    def test_two_plain_tuples_are_records_not_a_pair(self, small_model):
        # Two 3-tuples are two records, the same as a list or Records of them.
        as_tuples = small_model.predict_proba(((0, 1, 1), (2, 3, 0)))
        as_records = small_model.predict_proba(
            [ResponseRecord(0, 1, 1), ResponseRecord(2, 3, 0)]
        )
        assert np.array_equal(as_tuples, as_records)
        columnar = small_model.predict_proba(Records([0, 2], [1, 3], [1, 0]))
        assert np.array_equal(columnar, as_records)

    def test_two_array_records_are_records_not_a_pair(self, small_model):
        # Two records given as arrays, not a (students, items) pair.
        records = (np.array([0, 1, 1]), np.array([2, 3, 0]))
        got = small_model.predict_proba(records)
        want = small_model.predict_proba([ResponseRecord(0, 1, 1), ResponseRecord(2, 3, 0)])
        assert got.shape == (2,) and np.array_equal(got, want)


class TestProficiency:
    def test_zero_parameters_give_half(self, small_dataset):
        cfg = CDArchConfig(embed_dim=4, ffn_hidden=(), dropout=0.0)
        wiring = build_wiring(cfg, 5, small_dataset.n_items, small_dataset.qmatrix)
        params = wiring.init_params(np.random.default_rng(0))
        params["student_emb"][...] = 0.0
        params["prof_bias"][...] = 0.0
        prof = wiring.proficiency_from(params, np.array([0]))
        assert np.array_equal(prof[0], np.full(small_dataset.qmatrix.n_kcs, 0.5))

    def test_strictly_inside_unit_interval(self, small_model):
        for sid in range(10):
            vec = small_model.proficiency(sid)
            assert vec.shape == (small_model.n_kcs_,)
            assert np.all(vec > 0) and np.all(vec < 1)

    def test_matches_vector_used_by_predict(self, small_model):
        sid = 3
        _, cache = small_model.wiring_.forward(
            small_model.params_, np.array([sid]), np.array([1])
        )
        assert np.array_equal(cache["prof"][0], small_model.proficiency(sid))

    def test_out_of_range_student(self, small_model):
        with pytest.raises(IndexError):
            small_model.proficiency(10_000)


class TestTraining:
    def test_separable_synthetic_reaches_high_train_auc(self):
        ds = synth.generate_dataset(150, 16, 4, seed=9, student_scale=7.0, item_scale=2.0)
        model, _ = train(
            CDArchConfig(embed_dim=16, ffn_hidden=(32, 16), dropout=0.2),
            ds.records,
            None,
            ds.qmatrix,
            nn.TrainConfig(max_epochs=60),
            seed=1,
        )
        assert auc(model.predict_proba(ds.records), ds.records.scores) > 0.95

    def test_same_seed_checkpoints_identical(self, small_dataset, tmp_path):
        paths = []
        for i in range(2):
            model = CDModel(embed_dim=6, max_epochs=4, seed=13)
            model.fit(small_dataset.records, small_dataset.qmatrix)
            path = tmp_path / f"m{i}.ckpt"
            model.save(str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_full_batch_descent_loss_non_increasing(self, small_dataset):
        records = small_dataset.records[:200]
        model = CDModel(
            embed_dim=4,
            ffn_hidden=(6,),
            dropout=0.0,
            optimizer="sgd",
            lr=0.05,
            batch_size=len(records),
            max_epochs=1,
            seed=3,
        )
        losses = []
        for epochs in range(1, 9):
            trial = CDModel(**{**model.get_params(), "max_epochs": epochs, "patience": 100})
            trial.fit(records, small_dataset.qmatrix)
            losses.append(nn.bce_loss(trial.predict_proba(records), records.scores).mean())
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_train_returns_wall_time(self, small_dataset):
        model, seconds = train(
            CDArchConfig(embed_dim=4, ffn_hidden=(), dropout=0.0),
            small_dataset.records,
            None,
            small_dataset.qmatrix,
            nn.TrainConfig(max_epochs=2),
            seed=0,
        )
        assert seconds > 0
        assert model.is_fitted


class TestMonotonicVariant:
    def test_zero_tables_give_ffn_of_zero(self, small_dataset):
        cfg = CDArchConfig(arch="neuralcdm", ffn_hidden=(6,), dropout=0.0)
        wiring = build_wiring(cfg, 8, small_dataset.n_items, small_dataset.qmatrix)
        params = wiring.init_params(np.random.default_rng(5))
        params["student_emb"][...] = 0.0
        params["diff_emb"][...] = 0.0
        # mastery == difficulty == 0.5 -> interaction input is exactly zero
        p, cache = wiring.forward(params, np.arange(4), np.arange(4))
        assert np.allclose(cache["inputs"][0], 0.0)
        assert np.allclose(p, p[0])

    def test_projection_clamps_negative_weights(self, small_dataset):
        model = CDModel(
            arch="neuralcdm", ffn_hidden=(8,), dropout=0.0, max_epochs=3, seed=4
        )
        model.fit(small_dataset.records, small_dataset.qmatrix)
        for l in range(2):
            assert np.all(model.params_[f"ffn_W_{l}"] >= 0.0)

    def test_mastery_monotonicity(self, small_dataset):
        model = CDModel(
            arch="neuralcdm", ffn_hidden=(8,), dropout=0.0, max_epochs=5, seed=4
        )
        model.fit(small_dataset.records, small_dataset.qmatrix)
        item = 2
        kc = int(np.argmax(small_dataset.qmatrix.entries[item]))
        sid = 1
        outputs = []
        for logit in np.linspace(-4, 4, 33):
            params = model.params_.copy()
            params["student_emb"][sid, kc] = logit
            outputs.append(model.with_params(params).predict_proba([(sid, item, 0)])[0])
        assert np.all(np.diff(outputs) >= -1e-12)


def test_get_set_params_roundtrip():
    model = CDModel(embed_dim=12, lr=0.01)
    params = model.get_params()
    assert params["embed_dim"] == 12 and params["lr"] == 0.01
    model.set_params(dropout=0.0, batch_size=128)
    assert model.dropout == 0.0 and model.batch_size == 128
    with pytest.raises(ValueError):
        model.set_params(not_a_param=1)


def test_constructor_defaults_are_the_config_defaults():
    # CDModel's signature spells the defaults a second time for keyword callers.
    expected = {**asdict(CDArchConfig()), **asdict(nn.TrainConfig()), "seed": 0}
    assert CDModel().get_params() == expected


def test_neuralcdm_checkpoint_roundtrip(small_dataset, tmp_path):
    model = CDModel(arch="neuralcdm", ffn_hidden=(6,), max_epochs=2, seed=8)
    model.fit(small_dataset.records, small_dataset.qmatrix)
    path = str(tmp_path / "ncdm.ckpt")
    model.save(path)
    loaded = CDModel.load(path)
    assert loaded.arch == "neuralcdm"
    records = small_dataset.records[:30]
    assert np.array_equal(model.predict_proba(records), loaded.predict_proba(records))


def test_with_params_needs_the_model_layer_order(small_model):
    # A bundle in another order would save layer_ids that CDModel.load refuses.
    reordered = nn.ArrayBundle(dict(reversed(list(small_model.params_.items()))))
    with pytest.raises(ValueError, match="layout"):
        small_model.with_params(reordered)


@pytest.mark.parametrize("arch", ["decoupled", "neuralcdm"])
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_a_copied_model_keeps_its_bits_views_and_read_only_qmatrix(small_dataset, arch, how):
    # The fit worker sends its model back pickled.
    model = CDModel(arch=arch, embed_dim=6, ffn_hidden=(6,), max_epochs=2, seed=4)
    model.fit(small_dataset.records, small_dataset.qmatrix)
    copied = pickle.loads(pickle.dumps(model)) if how == "pickle" else copy.deepcopy(model)
    assert copied.params_.vector.tobytes() == model.params_.vector.tobytes()
    assert copied.params_.layout == model.params_.layout
    assert not np.shares_memory(copied.params_.vector, model.params_.vector)
    for _, layer in copied.params_.items():
        assert np.shares_memory(layer, copied.params_.vector)
    assert not copied.qmatrix_.entries.flags.writeable
    assert np.array_equal(copied.qmatrix_.entries, model.qmatrix_.entries)
    records = small_dataset.records[:40]
    assert model.predict_proba(records).tobytes() == copied.predict_proba(records).tobytes()
