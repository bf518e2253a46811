"""Selection/attenuation rule, the four unlearning algorithms, and their
structural guarantees."""

import numpy as np
import pytest

from cdunlearn import data, nn, unlearn
from cdunlearn import importance as imp_mod
from cdunlearn.data import Records
from cdunlearn.experiment import ALGORITHMS, default_grid
from cdunlearn.model import CDModel
from cdunlearn.importance import (
    fim_diag,
    hutchinson_hessian_diag,
    layer_importance,
    smooth_importance,
)
from cdunlearn.unlearn import (
    HIFConfig,
    attenuate,
    fim_unlearn,
    fisher_pair,
    gradient_ascent_unlearn,
    hessian_pair,
    hessian_unlearn,
    hif_unlearn,
    select_and_attenuate,
)


def _single(theta, imp_f, imp_r, alpha, lambda_):
    params = nn.ArrayBundle({"w": np.array([theta])})
    out, n = select_and_attenuate(
        params,
        nn.ArrayBundle({"w": np.array([imp_f])}),
        nn.ArrayBundle({"w": np.array([imp_r])}),
        alpha,
        lambda_,
    )
    return float(out["w"][0]), n


class TestSelectAndAttenuate:
    def test_selected_with_capped_ratio(self):
        # forget importance 0.8 vs threshold 1.3 * 0.4 = 0.52: selected, so
        # the parameter is scaled by 1 - lambda and halves at lambda 0.5
        value, n = _single(1.0, 0.8, 0.4, alpha=1.3, lambda_=0.5)
        assert (value, n) == (0.5, 1)

    def test_unselected_parameter_untouched(self):
        value, n = _single(1.0, 0.1, 0.4, alpha=1.3, lambda_=0.5)
        assert (value, n) == (1.0, 0)

    def test_zero_retain_importance_caps_at_one(self):
        value, n = _single(1.0, 1e-9, 0.0, alpha=1.3, lambda_=0.3)
        assert n == 1
        assert value == pytest.approx(0.7, abs=1e-15)

    def test_both_zero_not_selected(self):
        value, n = _single(1.0, 0.0, 0.0, alpha=1.3, lambda_=0.9)
        assert (value, n) == (1.0, 0)

    def test_lambda_zero_counts_but_never_changes(self):
        value, n = _single(1.0, 0.8, 0.0, alpha=1.3, lambda_=0.0)
        assert (value, n) == (1.0, 1)

    def test_sign_and_zero_preservation(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(50)
        theta[7] = 0.0
        params = nn.ArrayBundle({"w": theta.copy()})
        out, _ = select_and_attenuate(
            params,
            nn.ArrayBundle({"w": rng.random(50)}),
            nn.ArrayBundle({"w": rng.random(50) * 0.1}),
            alpha=1.3,
            lambda_=0.8,
        )
        assert np.all(np.sign(out["w"]) == np.sign(theta))
        assert out["w"][7] == 0.0
        assert np.all(np.abs(out["w"]) >= (1 - 0.8) * np.abs(theta) - 1e-15)
        assert np.all(np.abs(out["w"]) <= np.abs(theta) + 1e-15)

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(30)
        imp_f = nn.ArrayBundle({"w": rng.random(30)})
        imp_r = nn.ArrayBundle({"w": rng.random(30) * 0.2})
        previous = None
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            out, _ = select_and_attenuate(
                nn.ArrayBundle({"w": theta.copy()}), imp_f, imp_r, 1.3, lam
            )
            magnitude = np.abs(out["w"])
            if previous is not None:
                assert np.all(magnitude <= previous + 1e-15)
            previous = magnitude

    def test_importance_in_another_layer_order_rejected(self):
        params = nn.ArrayBundle({"w": np.ones(3), "b": np.ones(2)})
        imp = nn.ArrayBundle({"w": np.ones(3), "b": np.ones(2)})
        swapped = nn.ArrayBundle({"b": np.ones(2), "w": np.ones(3)})
        for imp_f, imp_r in ((swapped, imp), (imp, swapped)):
            with pytest.raises(ValueError, match="layout"):
                select_and_attenuate(params, imp_f, imp_r, 1.0, 0.5)

    def test_excluded_layer_keeps_its_bits(self):
        params = nn.ArrayBundle({"a": np.ones(3), "w": -np.ones(2), "b": np.ones(4)})
        imp_f = nn.ArrayBundle({"a": np.ones(3), "w": np.ones(2), "b": np.ones(4)})
        imp_r = nn.ArrayBundle(imp_f.zeros())
        out, n = select_and_attenuate(params, imp_f, imp_r, 1.0, 0.5, frozenset({"w"}))
        assert n == 7
        assert out["a"].tolist() == [0.5] * 3 and out["b"].tolist() == [0.5] * 4
        assert out["w"].tolist() == [-1.0, -1.0]

    def test_unknown_excluded_layer_rejected(self):
        params = nn.ArrayBundle({"w": np.ones(3)})
        imp = nn.ArrayBundle({"w": np.ones(3)})
        with pytest.raises(ValueError, match="excluded"):
            select_and_attenuate(params, imp, imp, 1.0, 0.5, frozenset({"nope"}))

    @pytest.mark.parametrize(
        "alpha, lambda_, match",
        [(np.nan, 0.5, "alpha"), (0.0, 0.5, "alpha"), (-1.0, 0.5, "alpha"),
         (1.0, -0.1, "lambda_"), (1.0, 2.0, "lambda_"), (1.0, np.nan, "lambda_"),
         (0.5, 0.5, "alpha"), (np.nextafter(1.0, 0.0), 0.5, "alpha")],
    )
    def test_alpha_and_lambda_out_of_bounds_rejected(self, alpha, lambda_, match):
        # Unchecked, NaN alpha selected nothing, lambda 2 flipped every selected
        # sign and NaN lambda returned NaN parameters. Below alpha 1 a selected
        # entry can have forget < retain importance, which the rule does not
        # weigh: it scales every selected entry by the same 1 - lambda.
        params = nn.ArrayBundle({"w": np.array([1.0, -2.0])})
        imp_f = nn.ArrayBundle({"w": np.ones(2)})
        with pytest.raises(ValueError, match=match):
            select_and_attenuate(params, imp_f, imp_f.zeros(), alpha, lambda_)
        assert params.vector.tobytes() == np.array([1.0, -2.0]).tobytes()

    @pytest.mark.parametrize(
        "bad, match",
        [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
         (-1e-300, "negative")],
    )
    @pytest.mark.parametrize("side", ["forget", "retain"])
    def test_bad_importance_rejected_naming_the_layer(self, side, bad, match):
        params = nn.ArrayBundle({"ok": np.ones(2), "w": np.ones(2)})
        good = nn.ArrayBundle({"ok": np.ones(2), "w": np.ones(2)})
        poisoned = nn.ArrayBundle({"ok": np.ones(2), "w": np.array([1.0, bad])})
        maps = (poisoned, good) if side == "forget" else (good, poisoned)
        with pytest.raises(ValueError, match=f"{match} importance in layer 'w'"):
            select_and_attenuate(params, *maps, 1.0, 0.5)
        assert params.vector.tolist() == [1.0] * 4


class TestHIFConfig:
    @pytest.mark.parametrize("alpha", [1.3, 2.0, 2.5, 5.0])
    @pytest.mark.parametrize("lambda_", [0.1, 0.3, 0.5, 0.8])
    def test_stock_grid_accepted(self, alpha, lambda_):
        for beta in (0.02, 0.05, 0.1, 0.3, 0.5):
            HIFConfig(alpha=alpha, lambda_=lambda_, beta=beta)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            HIFConfig(alpha=0.0, lambda_=0.5, beta=0.1)
        with pytest.raises(ValueError, match="alpha must be a finite number >= 1"):
            HIFConfig(alpha=0.5, lambda_=0.5, beta=0.1)
        with pytest.raises(ValueError):
            HIFConfig(alpha=1.0, lambda_=1.5, beta=0.1)
        with pytest.raises(ValueError):
            HIFConfig(alpha=1.0, lambda_=0.5, beta=-0.1)

    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -np.inf])
    def test_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            HIFConfig(alpha=alpha, lambda_=0.5, beta=0.1)


@pytest.fixture(scope="module")
def forget_retain(small_dataset):
    students = {r.student_id for r in small_dataset.records}
    forget_students = {s for s in students if s < 8}
    forget = [r for r in small_dataset.records if r.student_id in forget_students]
    retain = [r for r in small_dataset.records if r.student_id not in forget_students]
    return forget, retain


class TestHifUnlearn:
    def test_fim_equals_hif_at_beta_zero(self, small_model, forget_retain):
        forget, retain = forget_retain
        via_hif, _ = hif_unlearn(
            small_model, forget, retain, HIFConfig(alpha=1.3, lambda_=0.5, beta=0.0)
        )
        via_fim, _ = fim_unlearn(small_model, forget, retain, alpha=1.3, lambda_=0.5)
        for name, values in via_hif.params_.items():
            assert np.array_equal(values, via_fim.params_[name])

    def test_beta_zero_never_touches_zero_forget_importance(
        self, small_model, forget_retain
    ):
        forget, retain = forget_retain
        unlearned, _ = fim_unlearn(small_model, forget, retain, alpha=1.3, lambda_=0.8)
        imp_f = fim_diag(small_model, forget)
        for name, values in small_model.params_.items():
            untouched = imp_f[name] == 0.0
            assert np.array_equal(values[untouched], unlearned.params_[name][untouched])
        # retained students' rows in particular
        retain_rows = sorted({r.student_id for r in retain})
        assert np.array_equal(
            small_model.params_["student_emb"][retain_rows],
            unlearned.params_["student_emb"][retain_rows],
        )

    def test_smoothing_can_select_zero_importance_parameters(self, small_model, forget_retain):
        # By design: layer smoothing gives every parameter in a layer a
        # positive adjusted importance, so parameters with zero individual
        # forget-importance and near-zero retain-importance become eligible.
        forget, retain = forget_retain
        imp_f = fim_diag(small_model, forget)
        imp_r = fim_diag(small_model, retain)
        adjusted = smooth_importance(imp_f, layer_importance(imp_f), 0.5)
        target = (
            (imp_f["student_emb"] == 0.0)
            & (adjusted["student_emb"] > 1.3 * imp_r["student_emb"])
        )
        assert target.any()
        unlearned, _ = hif_unlearn(
            small_model, forget, retain, HIFConfig(alpha=1.3, lambda_=0.5, beta=0.5)
        )
        changed = unlearned.params_["student_emb"] != small_model.params_["student_emb"]
        assert (changed & target).any()

    def test_lambda_zero_identity_with_selection_count(self, small_model, forget_retain):
        forget, retain = forget_retain
        unlearned, report = hif_unlearn(
            small_model, forget, retain, HIFConfig(alpha=1.3, lambda_=0.0, beta=0.1)
        )
        assert report.parameters_modified > 0
        for name, values in small_model.params_.items():
            assert np.array_equal(values, unlearned.params_[name])

    def test_input_model_never_mutated(self, small_model, forget_retain):
        forget, retain = forget_retain
        before = small_model.params_.copy()
        hif_unlearn(small_model, forget, retain, HIFConfig(1.3, 0.8, 0.3))
        for name, values in small_model.params_.items():
            assert np.array_equal(values, before[name])

    def test_overlapping_sets_rejected(self, small_model, small_dataset):
        records = list(small_dataset.records)
        with pytest.raises(ValueError, match="share students"):
            hif_unlearn(small_model, records[:50], records, HIFConfig(1.3, 0.5, 0.1))

    def test_empty_sets_rejected(self, small_model, forget_retain):
        forget, retain = forget_retain
        with pytest.raises(ValueError):
            hif_unlearn(small_model, [], retain, HIFConfig(1.3, 0.5, 0.1))


def _magnitude(imp):
    return imp.with_vector(np.abs(imp.vector))


def _same_params(a, b):
    return all(np.array_equal(values, b.params_[name]) for name, values in a.params_.items())


class TestAttenuateCore:
    def test_hif_is_attenuate_over_the_fisher_pair(self, small_model, forget_retain):
        forget, retain = forget_retain
        cfg = HIFConfig(alpha=1.3, lambda_=0.8, beta=0.3)
        via_core, n_selected = attenuate(small_model, *fisher_pair(small_model, forget, retain), cfg)
        via_hif, report = hif_unlearn(small_model, forget, retain, cfg)
        assert _same_params(via_core, via_hif)
        assert n_selected == report.parameters_modified > 0

    def test_hessian_equals_unsmoothed_rule_on_abs_estimates(self, small_model, forget_retain):
        # beta = 0 smoothing inside attenuate must leave |Hessian| maps bit-unchanged.
        forget, retain = forget_retain
        seed_f, seed_r = (int(x) for x in np.random.SeedSequence(4).generate_state(2))
        imp_f = _magnitude(hutchinson_hessian_diag(small_model, forget, 6, 1, seed=seed_f))
        imp_r = _magnitude(hutchinson_hessian_diag(small_model, retain, 6, 1, seed=seed_r))
        params, n = select_and_attenuate(small_model.params_, imp_f, imp_r, 1.3, 0.5)
        unlearned, report = hessian_unlearn(
            small_model, forget, retain, 1.3, 0.5, n_probe_samples=6, seed=4
        )
        assert _same_params(unlearned, small_model.with_params(params))
        assert report.parameters_modified == n > 0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"alpha": 1.3, "lambda_": 1.5}, "lambda_"),
            ({"alpha": -2.0, "lambda_": 0.5}, "alpha"),
            ({"alpha": 1.3, "lambda_": 0.5, "excluded_layers": {"nope"}}, "excluded layers"),
            ({"alpha": 0.5, "lambda_": 0.5}, "alpha must be a finite number >= 1"),
        ],
    )
    def test_hessian_validated_like_fisher(self, small_model, forget_retain, kwargs, match):
        forget, retain = forget_retain
        with pytest.raises(ValueError, match=match):
            hessian_unlearn(small_model, forget, retain, n_probe_samples=2, **kwargs)
        with pytest.raises(ValueError, match=match):
            fim_unlearn(small_model, forget, retain, **kwargs)

    @pytest.mark.parametrize("algorithm", ["hif", "fim", "hessian"])
    def test_nan_parameter_raises_rather_than_selecting_nothing(
        self, small_model, forget_retain, algorithm
    ):
        forget, retain = forget_retain
        poisoned = small_model.copy()
        poisoned.params_["kc_emb"][0, 0] = np.nan
        run = {
            "hif": lambda: hif_unlearn(poisoned, forget, retain, HIFConfig(1.3, 0.5, 0.1)),
            "fim": lambda: fim_unlearn(poisoned, forget, retain, 1.3, 0.5),
            "hessian": lambda: hessian_unlearn(poisoned, forget, retain, 1.3, 0.5, 2),
        }[algorithm]
        with pytest.raises(ValueError, match="non-finite importance"):
            run()

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_writing_into_the_smoothed_map_keeps_the_bits_and_the_inputs(
        self, small_model, monkeypatch, beta
    ):
        # Thresholds of 64 entries, the last one shorter, and maps with exact
        # zeros and ties; the reference holds a map-sized threshold as the
        # rule did before it wrote into the smoothed map's buffer.
        monkeypatch.setattr(unlearn, "_SELECT_CHUNK", 64)
        rng = np.random.default_rng(31)
        params = small_model.params_
        assert params.total_size % 64
        imp_f = params.with_vector(rng.exponential(size=params.total_size))
        imp_r = params.with_vector(rng.exponential(size=params.total_size))
        imp_f.vector[::7] = 0.0
        imp_r.vector[::5] = 0.0
        imp_f.vector[1::9] = 1.2 * imp_r.vector[1::9]
        before = [bundle.vector.copy() for bundle in (params, imp_f, imp_r)]
        cfg = HIFConfig(alpha=1.2, lambda_=0.6, beta=beta, excluded_layers={"kc_emb"})

        smoothed = smooth_importance(imp_f, layer_importance(imp_f), beta)
        threshold = cfg.alpha * imp_r.vector
        selected = smoothed.vector > threshold
        selected &= np.repeat([k != "kc_emb" for k, _ in params.layout],
                              [v.size for _, v in params.items()])
        want = params.with_vector(threshold)
        want.vector[...] = params.vector
        want.vector[selected] *= 1.0 - cfg.lambda_

        got, n = attenuate(small_model, imp_f, imp_r, cfg)
        assert n == np.count_nonzero(selected) > 0
        assert got.params_.vector.tobytes() == want.vector.tobytes()
        if beta == 0.0:
            out, n_public = select_and_attenuate(params, imp_f, imp_r, 1.2, 0.6,
                                                 frozenset({"kc_emb"}))
            assert n_public == n and out.vector.tobytes() == want.vector.tobytes()
        for bundle, bits in zip((params, imp_f, imp_r), before):
            assert bundle.vector.tobytes() == bits.tobytes()

    def test_fim_report_is_its_own(self, small_model, forget_retain):
        forget, retain = forget_retain
        _, report = fim_unlearn(small_model, forget, retain, alpha=1.3, lambda_=0.5)
        assert report.algorithm == "fim"
        assert report.config == {"alpha": 1.3, "lambda_": 0.5, "excluded_layers": []}


@pytest.fixture(scope="module", params=["decoupled", "neuralcdm"])
def lone_item_case(request, small_dataset):
    """A model trained where item 0 is answered only by the forget students
    (ids below 8), with its forget and retain records."""
    records = [r for r in small_dataset.records if r.item_id != 0 or r.student_id < 8]
    model = CDModel(
        arch=request.param, embed_dim=8, ffn_hidden=(12,), dropout=0.0, max_epochs=15,
        batch_size=64, seed=5,
    ).fit(records, small_dataset.qmatrix, n_items=small_dataset.n_items)
    forget = [r for r in records if r.student_id < 8]
    retain = [r for r in records if r.student_id >= 8]
    return model, forget, retain


class _CountingSums:
    """Counts passes of ``nn.sum_sq_grads`` over more than ``floor`` records:
    the whole-set passes, not the forget passes."""

    def __init__(self, monkeypatch, floor):
        self.calls = 0
        original = nn.sum_sq_grads

        def counted(wiring, params, students, *args, **kwargs):
            self.calls += len(students) > floor
            return original(wiring, params, students, *args, **kwargs)

        monkeypatch.setattr(nn, "sum_sq_grads", counted)


def _same_bits(a, b):
    return all(values.tobytes() == b[name].tobytes() for name, values in a.items())


class TestSubtractiveFisher:
    """The retain map of :func:`fisher_pair` against the exact two-pass oracle
    ``fim_diag(model, retain)``."""

    def test_maps_match_the_two_pass_oracle(self, lone_item_case):
        model, forget, retain = lone_item_case
        imp_f, imp_r = fisher_pair(model, forget, retain)
        assert _same_bits(imp_f, fim_diag(model, forget))
        exact = fim_diag(model, retain)
        for name, values in exact.items():
            np.testing.assert_allclose(imp_r[name], values, rtol=1e-12, atol=0.0, err_msg=name)

    def test_untouched_rows_exactly_zero_and_no_negatives(self, lone_item_case):
        model, forget, retain = lone_item_case
        _, imp_r = fisher_pair(model, forget, retain)
        exact = fim_diag(model, retain)
        for name, values in imp_r.items():
            assert (values >= 0).all()
            assert np.array_equal(values == 0, exact[name] == 0), name
        assert not imp_r["student_emb"][:8].any() and imp_r["student_emb"][8:].any(axis=1).all()
        item_tables = [n for n, index in model.wiring_.row_index.items() if index == "items"]
        for name in item_tables:
            assert not imp_r[name][0].any() and imp_r[name][1:].any(axis=1).all()

    def test_hit_has_the_bits_of_a_miss(self, lone_item_case, monkeypatch):
        model, forget, retain = lone_item_case
        fresh = model.copy()
        shuffled = [retain[i] for i in np.random.default_rng(0).permutation(len(retain))]
        sums = _CountingSums(monkeypatch, len(forget))
        missed = fisher_pair(fresh, forget, retain)
        assert sums.calls == 1
        hit = fisher_pair(fresh, forget, retain)
        hit_shuffled = fisher_pair(fresh, forget, shuffled)
        assert sums.calls == 1
        assert _same_bits(hit[0], missed[0]) and _same_bits(hit[1], missed[1])
        assert _same_bits(hit_shuffled[1], fisher_pair(model.copy(), forget, shuffled)[1])
        assert sums.calls == 2

    def test_recomputed_after_in_place_change_or_for_another_union(
        self, lone_item_case, monkeypatch
    ):
        model, forget, retain = lone_item_case
        changed = model.copy()
        fisher_pair(changed, forget, retain)
        changed.params_["student_emb"][20, 0] += 1e-3
        fewer = retain[: len(retain) // 2]
        oracles = fim_diag(changed, retain), fim_diag(changed, fewer)
        sums = _CountingSums(monkeypatch, len(forget))
        _, after_change = fisher_pair(changed, forget, retain)
        assert sums.calls == 1
        _, other_union = fisher_pair(changed, forget, fewer)
        assert sums.calls == 2
        assert _same_bits(after_change, fisher_pair(changed.copy(), forget, retain)[1])
        for got, oracle in zip((after_change, other_union), oracles):
            for name, values in oracle.items():
                np.testing.assert_allclose(got[name], values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    @pytest.mark.parametrize("alpha", [1.3, 1.0, 3.0])
    def test_selections_match_the_two_pass_maps(self, lone_item_case, alpha, beta):
        # A selected entry is scaled by 1 - lambda whatever its retain map
        # holds, so equal selections give equal bits.
        model, forget, retain = lone_item_case
        cfg = HIFConfig(alpha=alpha, lambda_=0.8, beta=beta)
        got, n_got = attenuate(model, *fisher_pair(model, forget, retain), cfg)
        want, n_want = attenuate(model, fim_diag(model, forget), fim_diag(model, retain), cfg)
        assert n_got == n_want > 0
        assert got.params_.vector.tobytes() == want.params_.vector.tobytes()
        # item 0's rows have no retain importance: every one with forget importance goes
        imp_f = fim_diag(model, forget)
        for name, index in model.wiring_.row_index.items():
            if index == "items":
                changed = got.params_[name][0] != model.params_[name][0]
                assert changed[imp_f[name][0] > 0].all() and (imp_f[name][0] > 0).any()

    def test_scores_must_be_binary(self, small_model, forget_retain):
        forget, retain = forget_retain
        graded = [r._replace(score=2) for r in retain[:5]] + list(retain[5:])
        with pytest.raises(ValueError, match="0 or 1"):
            fisher_pair(small_model, forget, graded)


class TestOneConversionPerRecordSet:
    """``fisher_pair`` and ``hessian_pair`` columnize each record sequence
    once and give the estimators a ``Records`` over those columns: the bits
    and the exceptions of a pass that converts again."""

    @staticmethod
    def _conversions(monkeypatch) -> list[int]:
        sizes = []

        def counted(records):
            if not isinstance(records, Records):
                sizes.append(len(records))
            return data.records_to_arrays(records)

        for module in (unlearn, imp_mod):
            monkeypatch.setattr(module, "records_to_arrays", counted)
        return sizes

    def test_fisher_pair(self, small_model, forget_retain, monkeypatch):
        forget, retain = forget_retain
        want = fisher_pair(small_model.copy(), Records(*data.records_to_arrays(forget)),
                           Records(*data.records_to_arrays(retain)))
        sizes = self._conversions(monkeypatch)
        got = fisher_pair(small_model.copy(), forget, retain)
        assert sizes == [len(forget), len(retain)]
        assert all(_same_bits(g, w) for g, w in zip(got, want))

    def test_hessian_pair(self, small_model, forget_retain, monkeypatch):
        forget, retain = forget_retain
        want = hessian_pair(small_model, *(Records(*data.records_to_arrays(r))
                                           for r in (forget, retain)), (10, 20), 2, seed=3)
        sizes = self._conversions(monkeypatch)
        got = hessian_pair(small_model, forget, retain, (10, 20), 2, seed=3)
        assert sizes == [len(forget), len(retain)]
        assert [m.vector.tobytes() for pair in got for m in pair] == [
            m.vector.tobytes() for pair in want for m in pair
        ]

    def test_records_that_fail_the_checks_raise_as_before(self, small_model, forget_retain):
        # These sequences are handed on unconverted; the estimators raise as
        # they always have for them, not with the Records checks' messages.
        forget, retain = forget_retain
        negative = [(-1, 0, 1), *forget[1:]]
        graded = [(0, 0, 2), *forget[1:]]
        with pytest.raises(IndexError, match="student id out of range"):
            fisher_pair(small_model, negative, retain)
        with pytest.raises(IndexError, match="student id out of range"):
            hessian_pair(small_model, negative, retain, 2)
        with pytest.raises(ValueError, match="^scores must be 0 or 1$"):
            fisher_pair(small_model, graded, retain)


def _ratio_rule(params, imp_forget, imp_retain, alpha, lambda_):
    """The attenuation rule as it was coded before alpha >= 1 was required:
    a selected entry is scaled by ``1 - lambda_ * min(forget / retain, 1)``,
    a zero retain importance counting as an infinite ratio. The reference the
    constant rule must match bit for bit."""
    f, r = imp_forget.vector, imp_retain.vector
    selected = f > alpha * r
    out = params.copy()
    f, r = f[selected], r[selected]
    ratio = np.divide(f, r, out=np.full_like(f, np.inf), where=r > 0)
    out.vector[selected] *= 1.0 - lambda_ * np.minimum(ratio, 1.0)
    return out, len(f)


def _assert_stock_points_match_the_ratio_rule(model, forget, retain):
    """Every stock hif and fim point over the Fisher pair, and the stock
    hessian alpha and lambda over |Hessian| maps."""
    imp_f, imp_r = fisher_pair(model, forget, retain)
    points = [{"beta": 0.0, **p} for p in default_grid("fim")] + default_grid("hif")
    assert len(points) == 96
    for point in points:
        cfg = HIFConfig(**point)
        got, n_got = attenuate(model, imp_f, imp_r, cfg)
        smoothed = smooth_importance(imp_f, layer_importance(imp_f), cfg.beta)
        want, n_want = _ratio_rule(model.params_, smoothed, imp_r, cfg.alpha, cfg.lambda_)
        assert n_got == n_want > 0, point
        assert got.params_.vector.tobytes() == want.vector.tobytes(), point
    stock = ALGORITHMS["hessian"].defaults
    hess_f, hess_r = (
        _magnitude(hutchinson_hessian_diag(model, records, stock["n_probe_samples"], seed=seed))
        for seed, records in ((0, forget), (1, retain))
    )
    args = hess_f, hess_r, stock["alpha"], stock["lambda_"]
    got, n_got = select_and_attenuate(model.params_, *args)
    want, n_want = _ratio_rule(model.params_, *args)
    assert n_got == n_want > 0
    assert got.vector.tobytes() == want.vector.tobytes()


class TestConstantRuleMatchesTheRatioRule:
    """With alpha >= 1 a selected entry has forget > retain importance, so
    ``min(forget / retain, 1)`` is exactly 1 and the old rule scaled it by
    ``1 - lambda_`` too."""

    def test_stock_points_on_the_benchmark_fixture(self, frcsub_ctx):
        splits = frcsub_ctx.mia_splits
        _assert_stock_points_match_the_ratio_rule(
            frcsub_ctx.m_orig, splits.forget_train_valid, splits.retain_train_valid
        )

    def test_stock_points_on_both_architectures(self, lone_item_case):
        # item 0's rows have zero retain importance: the infinite-ratio case
        _assert_stock_points_match_the_ratio_rule(*lone_item_case)


class TestGradientAscent:
    def test_zero_steps_is_identity(self, small_model, forget_retain):
        forget, _ = forget_retain
        unlearned, report = gradient_ascent_unlearn(small_model, forget, lr=1e-4, steps=0)
        assert report.parameters_modified == 0
        for name, values in small_model.params_.items():
            assert np.array_equal(values, unlearned.params_[name])

    def test_single_small_step_increases_forget_loss(self, small_model, forget_retain):
        forget, _ = forget_retain
        unlearned, _ = gradient_ascent_unlearn(small_model, forget, lr=1e-5, steps=1)
        labels = [r.score for r in forget]
        before, after = (
            nn.bce_loss(m.predict_proba(forget), labels).mean() for m in (small_model, unlearned)
        )
        assert after > before

    def test_only_reachable_parameters_change(self, small_model, forget_retain):
        forget, retain = forget_retain
        unlearned, _ = gradient_ascent_unlearn(small_model, forget, lr=1e-4, steps=2)
        forget_rows = sorted({r.student_id for r in forget})
        retain_rows = sorted({r.student_id for r in retain})
        assert not np.array_equal(
            small_model.params_["student_emb"][forget_rows],
            unlearned.params_["student_emb"][forget_rows],
        )
        assert np.array_equal(
            small_model.params_["student_emb"][retain_rows],
            unlearned.params_["student_emb"][retain_rows],
        )

    @pytest.mark.parametrize("lr", [1e-5, 5e-5, 1e-4])
    @pytest.mark.parametrize("steps", [1, 3, 5])
    def test_stock_grid_accepted(self, small_model, forget_retain, lr, steps):
        forget, _ = forget_retain
        _, report = gradient_ascent_unlearn(small_model, forget, lr=lr, steps=steps)
        assert report.config == {"lr": lr, "steps": steps}

    @pytest.mark.parametrize("steps", [2.5, True, -1])
    def test_steps_must_be_a_count(self, small_model, forget_retain, steps):
        # steps=0 is the identity (test_zero_steps_is_identity)
        forget, _ = forget_retain
        before = small_model.params_.vector.copy()
        with pytest.raises(ValueError, match=f"steps must be an integer >= 0, got {steps!r}"):
            gradient_ascent_unlearn(small_model, forget, lr=1e-4, steps=steps)
        assert small_model.params_.vector.tobytes() == before.tobytes()

    def test_negative_lr_rejected(self, small_model, forget_retain):
        forget, _ = forget_retain
        with pytest.raises(ValueError):
            gradient_ascent_unlearn(small_model, forget, lr=-1e-5, steps=1)

    @pytest.mark.parametrize("steps", [0, 1])
    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_nonfinite_lr_rejected_before_any_step(self, small_model, forget_retain, lr, steps):
        forget, _ = forget_retain
        with pytest.raises(ValueError, match="lr must be a finite number"):
            gradient_ascent_unlearn(small_model, forget, lr=lr, steps=steps)

    def test_nonfinite_result_names_the_layers(self, small_model, forget_retain, monkeypatch):
        # No finite lr overflows this model: saturated sigmoids make the
        # gradients vanish. So the backward pass is made to return NaN.
        forget, _ = forget_retain
        wiring = type(small_model.wiring_)
        backward = wiring.backward

        def nan_backward(*args, **kwargs):
            return nn.dense(backward(*args, **kwargs)).scale_(np.nan)

        monkeypatch.setattr(wiring, "backward", nan_backward)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"gradient ascent left non-finite values in layers \['student_emb'"
        ):
            gradient_ascent_unlearn(small_model, forget, lr=1e-4, steps=1)


class TestHessianUnlearn:
    def test_lambda_zero_identity(self, small_model, forget_retain):
        forget, retain = forget_retain
        unlearned, _ = hessian_unlearn(
            small_model, forget, retain, alpha=1.3, lambda_=0.0,
            n_probe_samples=5, n_batches=1, seed=0,
        )
        for name, values in small_model.params_.items():
            assert np.array_equal(values, unlearned.params_[name])

    @pytest.mark.parametrize("n_batches", [1, 2])
    def test_stock_batch_grid_accepted(self, small_model, forget_retain, n_batches):
        forget, retain = forget_retain
        _, report = hessian_unlearn(
            small_model, forget, retain, alpha=1.3, lambda_=0.3,
            n_probe_samples=10, n_batches=n_batches, seed=0,
        )
        assert report.config["n_batches"] == n_batches

    @pytest.mark.parametrize("seed", [None, True, -1, 2.5])
    def test_seed_must_be_a_count(self, small_model, forget_retain, seed):
        # None drew OS entropy, so two identical calls gave different parameters.
        forget, retain = forget_retain
        before = small_model.params_.vector.copy()
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            hessian_unlearn(small_model, forget, retain, 1.3, 0.5, n_probe_samples=2, seed=seed)
        assert small_model.params_.vector.tobytes() == before.tobytes()

    def test_probe_count_tuple_rejected(self, small_model, forget_retain):
        # Several counts are for hessian_pair; one request attenuates at one.
        forget, retain = forget_retain
        with pytest.raises(ValueError, match="n_probe_samples must be an integer >= 1"):
            hessian_unlearn(small_model, forget, retain, 1.3, 0.5, (10, 20))

    def test_pair_at_several_counts_equals_single_counts(self, small_model, forget_retain):
        forget, retain = forget_retain
        together = hessian_pair(small_model, forget, retain, (40, 10, 20), 2, seed=4)
        for n, pair in zip((40, 10, 20), together):
            single = hessian_pair(small_model, forget, retain, n, 2, seed=4)
            assert [m.vector.tobytes() for m in pair] == [m.vector.tobytes() for m in single]
            assert (pair[0].vector >= 0).all() and (pair[1].vector >= 0).all()

    def test_deterministic_per_seed(self, small_model, forget_retain):
        forget, retain = forget_retain
        a, _ = hessian_unlearn(
            small_model, forget, retain, 1.3, 0.5, n_probe_samples=8, seed=11
        )
        b, _ = hessian_unlearn(
            small_model, forget, retain, 1.3, 0.5, n_probe_samples=8, seed=11
        )
        for name, values in a.params_.items():
            assert np.array_equal(values, b.params_[name])

    def test_selection_overlap_with_fisher_reported(self, small_dataset, forget_retain):
        # Near a minimum the expected Hessian matches the Fisher information,
        # so the two selection sets should overlap substantially; report the
        # Jaccard index rather than asserting a hard threshold.
        from cdunlearn.model import CDModel

        forget, retain = forget_retain
        model = CDModel(embed_dim=8, ffn_hidden=(12,), dropout=0.0,
                        max_epochs=50, patience=50, seed=5)
        model.fit(small_dataset.records, small_dataset.qmatrix)
        from cdunlearn.importance import hutchinson_hessian_diag

        alpha = 1.3
        fisher_f = fim_diag(model, forget)
        fisher_r = fim_diag(model, retain)
        hess_f = _magnitude(hutchinson_hessian_diag(model, forget, 40, 2, seed=0))
        hess_r = _magnitude(hutchinson_hessian_diag(model, retain, 40, 2, seed=1))
        sel_fim = fisher_f.vector > alpha * fisher_r.vector
        sel_hess = hess_f.vector > alpha * hess_r.vector
        union = np.logical_or(sel_fim, sel_hess).sum()
        jaccard = np.logical_and(sel_fim, sel_hess).sum() / max(union, 1)
        print(f"fisher/hessian selection jaccard at alpha={alpha}: {jaccard:.3f}")
        assert 0.0 <= jaccard <= 1.0


class TestEfficiency:
    def test_every_algorithm_is_faster_than_retraining(self, frcsub_ctx):
        # unlearning must beat training-from-scratch on the retain set
        from cdunlearn.experiment import ALGORITHMS, apply_algorithm

        for name, spec in ALGORITHMS.items():
            _, report = apply_algorithm(frcsub_ctx, name, dict(spec.defaults))
            assert report.wall_time_seconds < frcsub_ctx.t_retrain_seconds, (
                f"{name}: {report.wall_time_seconds:.3f}s vs retrain "
                f"{frcsub_ctx.t_retrain_seconds:.3f}s"
            )


def test_reports_carry_config_and_counts(small_model, forget_retain):
    forget, retain = forget_retain
    excluded = frozenset({"kc_emb"})
    runs = {
        "hif": lambda: hif_unlearn(
            small_model, forget, retain,
            HIFConfig(alpha=2.0, lambda_=0.3, beta=0.05, excluded_layers=excluded),
        ),
        "fim": lambda: fim_unlearn(
            small_model, forget, retain, alpha=2.0, lambda_=0.3, excluded_layers=excluded
        ),
        "hessian": lambda: hessian_unlearn(
            small_model, forget, retain, alpha=2.0, lambda_=0.3, n_probe_samples=2,
            excluded_layers=excluded,
        ),
    }
    for algorithm, run in runs.items():
        _, report = run()
        assert report.algorithm == algorithm
        assert report.config["alpha"] == 2.0
        assert report.config["excluded_layers"] == ["kc_emb"]
        assert 0 <= report.parameters_modified <= small_model.params_.total_size
        assert report.wall_time_seconds > 0
