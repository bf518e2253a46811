"""Membership-inference machinery: features, the logistic attacker, and the
evaluation protocol's guard rails."""

import math

import numpy as np
import pytest

from cdunlearn.metrics import auc
from cdunlearn.mia import (
    EVAL_ONLY_GROUP,
    FeatureBatch,
    LogisticAttacker,
    evaluate_attack,
    extract_features,
    prediction_features,
    train_attacker,
)


class TestFeatures:
    def test_closed_form_vector_label_one(self):
        row = prediction_features(np.array([0.5]), np.array([1.0]))[0]
        assert row == pytest.approx([0.5, 1.0, math.log(2), 0.5, 0.25], abs=1e-9)

    def test_closed_form_vector_label_zero(self):
        row = prediction_features(np.array([0.5]), np.array([0.0]))[0]
        assert row == pytest.approx([0.5, 0.0, math.log(2), 0.5, 0.25], abs=1e-9)

    def test_extraction_is_deterministic(self, small_model, small_dataset):
        a = extract_features(small_model, small_dataset.records[:50])
        b = extract_features(small_model, small_dataset.records[:50])
        assert np.array_equal(a.features, b.features)
        assert a.features.shape == (50, 5)

    def test_empty_records_rejected(self, small_model):
        with pytest.raises(ValueError):
            extract_features(small_model, [])


def _gaussian_classes(rng, n, shift):
    pos = rng.standard_normal((n, 5)) + shift
    neg = rng.standard_normal((n, 5))
    return pos, neg


class TestLogisticAttacker:
    def test_separable_classes_reach_high_training_accuracy(self):
        rng = np.random.default_rng(0)
        pos, neg = _gaussian_classes(rng, 400, shift=6.0)
        attacker = train_attacker(pos, neg)
        scores = attacker.score(np.vstack([pos, neg]))
        predicted = (scores >= 0.5).astype(float)
        labels = np.concatenate([np.ones(400), np.zeros(400)])
        assert np.mean(predicted == labels) >= 0.99

    def test_members_score_above_nonmembers(self):
        rng = np.random.default_rng(1)
        pos, neg = _gaussian_classes(rng, 300, shift=3.0)
        attacker = train_attacker(pos, neg)
        assert attacker.score(pos).mean() > attacker.score(neg).mean()

    def test_identical_distributions_give_near_chance_training_auc(self):
        rng = np.random.default_rng(2)
        pos, neg = _gaussian_classes(rng, 2000, shift=0.0)
        attacker = train_attacker(pos, neg)
        scores = attacker.score(np.vstack([pos, neg]))
        labels = np.concatenate([np.ones(2000), np.zeros(2000)])
        assert 0.45 <= auc(scores, labels) <= 0.58

    def test_constant_feature_does_not_blow_up(self):
        rng = np.random.default_rng(3)
        pos, neg = _gaussian_classes(rng, 100, shift=1.0)
        pos[:, 2] = 0.7
        neg[:, 2] = 0.7
        attacker = train_attacker(pos, neg)
        assert np.isfinite(attacker.score(pos)).all()

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(4)
        pos, neg = _gaussian_classes(rng, 150, shift=1.0)
        a = train_attacker(pos, neg, seed=0)
        b = train_attacker(pos, neg, seed=99)  # seed reserved, fit is closed-form GD
        assert np.array_equal(a.weights_, b.weights_)
        assert a.bias_ == b.bias_

    def test_single_class_rejected(self):
        attacker = LogisticAttacker()
        with pytest.raises(ValueError):
            attacker.fit(np.zeros((4, 5)), np.ones(4))


class TestProtocolGuards:
    def test_training_on_eval_control_group_rejected(self):
        features = np.zeros((3, 5))
        tainted = FeatureBatch(features, group=EVAL_ONLY_GROUP)
        clean = FeatureBatch(features, group="forget_test")
        with pytest.raises(ValueError, match="control group"):
            train_attacker(tainted, clean)
        with pytest.raises(ValueError, match="control group"):
            train_attacker(clean, tainted)

    def test_member_batches_accepted(self):
        rng = np.random.default_rng(5)
        pos, neg = _gaussian_classes(rng, 50, shift=2.0)
        train_attacker(
            FeatureBatch(pos, group="forget_test"),
            FeatureBatch(neg, group="nm_train_test"),
        )

    def test_nonmember_rows_never_trained_into_original_model(self, frcsub_ctx):
        # Purity: students in the two non-member groups have no records in the
        # training data of either baseline model, so their embedding rows must
        # still equal their initialization.
        wiring = frcsub_ctx.m_orig.wiring_
        fresh = wiring.init_params(np.random.default_rng(frcsub_ctx.config.seed_model))
        nm_rows = sorted(frcsub_ctx.partition.nm_train | frcsub_ctx.partition.nm_eval)
        for model in (frcsub_ctx.m_orig, frcsub_ctx.m_retrain):
            assert np.array_equal(
                model.params_["student_emb"][nm_rows], fresh["student_emb"][nm_rows]
            )

    def test_single_exposure_forget_rows_trained_only_into_original(self, frcsub_ctx):
        wiring = frcsub_ctx.m_orig.wiring_
        fresh = wiring.init_params(np.random.default_rng(frcsub_ctx.config.seed_model))
        forget_rows = sorted(frcsub_ctx.partition.forget)
        assert not np.array_equal(
            frcsub_ctx.m_orig.params_["student_emb"][forget_rows],
            fresh["student_emb"][forget_rows],
        )
        assert np.array_equal(
            frcsub_ctx.m_retrain.params_["student_emb"][forget_rows],
            fresh["student_emb"][forget_rows],
        )


class _ConstantScorer:
    def score(self, features):
        return np.full(len(features), 0.25)


class TestEvaluateAttack:
    def test_constant_scorer_gives_exactly_half(self, small_model, small_dataset):
        forget = [r for r in small_dataset.records if r.student_id < 8]
        control = [r for r in small_dataset.records if 8 <= r.student_id < 16]
        report = evaluate_attack(_ConstantScorer(), small_model, forget, control)
        assert report.mia_auc == 0.5

    def test_pure_function_of_inputs(self, small_model, small_dataset):
        rng = np.random.default_rng(6)
        pos, neg = _gaussian_classes(rng, 60, shift=1.0)
        attacker = train_attacker(pos, neg)
        forget = [r for r in small_dataset.records if r.student_id < 8]
        control = [r for r in small_dataset.records if 8 <= r.student_id < 16]
        a = evaluate_attack(attacker, small_model, forget, control)
        b = evaluate_attack(attacker, small_model, forget, control)
        assert a == b
        assert a.n_member_eval == len(forget)
        assert a.n_nonmember_eval == len(control)

    def test_empty_sets_rejected(self, small_model, small_dataset):
        with pytest.raises(ValueError):
            evaluate_attack(
                _ConstantScorer(), small_model, [], small_dataset.records[:5]
            )


class TestPipelineSanity:
    def test_overfit_model_is_attackable_and_clean_model_is_not(self):
        # Desk-scale version of the end-to-end property: a model trained on the
        # forget students leaks membership; one never trained on them does not.
        from cdunlearn import synth
        from cdunlearn.data import partition_students, split_records, derive_mia_subsets
        from cdunlearn.model import CDModel

        ds = synth.generate_dataset(300, 16, 6, seed=21)
        split = split_records(ds, seed=0)
        partition = partition_students(ds, 0.10, seed=1)
        mia = derive_mia_subsets(partition, split)
        overfit = CDModel(dropout=0.0, max_epochs=150, patience=150, seed=2)
        overfit.fit(
            mia.forget_train_valid + mia.retain_train_valid,
            ds.qmatrix,
            n_students=ds.n_students,
            n_items=ds.n_items,
        )
        clean = CDModel(dropout=0.0, max_epochs=150, patience=150, seed=2)
        clean.fit(
            mia.retain_train_valid,
            ds.qmatrix,
            n_students=ds.n_students,
            n_items=ds.n_items,
        )
        attacker = train_attacker(
            extract_features(overfit, mia.forget_test, group="forget_test"),
            extract_features(overfit, mia.nm_train_test, group="nm_train_test"),
        )
        leaky = evaluate_attack(attacker, overfit, mia.forget_test, mia.nm_eval_test)
        quiet = evaluate_attack(attacker, clean, mia.forget_test, mia.nm_eval_test)
        assert leaky.mia_auc >= 0.6
        assert 0.43 <= quiet.mia_auc <= 0.57
