"""Pipeline orchestration: configs, reports, sweeps, profile export, CLI."""

import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import cdunlearn
from cdunlearn import data, experiment, importance, nn, synth
from cdunlearn.cli import main as cli_main
from cdunlearn.experiment import (
    ALGORITHM_NAMES,
    ConfigError,
    ExperimentConfig,
    apply_algorithm,
    build_context,
    config_from_dict,
    default_grid,
    export_profiles,
    load_config,
    run_experiment,
    sweep,
    write_profiles_csv,
)
from cdunlearn.model import CDArchConfig, CDModel
from cdunlearn.nn import TrainConfig
from cdunlearn.unlearn import UnlearnReport

from tests.test_nn import MALFORMED_CHECKPOINTS, rewrite_header


@pytest.fixture(scope="module")
def tiny_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    ds = synth.generate_dataset(120, 12, 5, seed=3)
    responses = root / "responses.csv"
    qmatrix = root / "qmatrix.csv"
    synth.write_dataset_csv(ds, str(responses), str(qmatrix))
    return str(responses), str(qmatrix), str(root)


@pytest.fixture(scope="module")
def other_data_ckpts(tmp_path_factory, tiny_paths):
    """A checkpoint trained on the tiny data (120x12x5, seed 3) and, per kind
    of mismatch, the CSV paths of other data with a checkpoint trained on it:
    "qmatrix" is same-shape data from seed 4, "students" has 150 students.
    Each records the default config's data partition."""
    root = tmp_path_factory.mktemp("other")
    partition = ExperimentConfig("responses.csv", "qmatrix.csv").data_record()

    def trained(dataset, name):
        path = str(root / f"{name}.ckpt")
        model = CDModel(embed_dim=4, ffn_hidden=(4,), max_epochs=1, seed=0)
        model.fit(dataset.records, dataset.qmatrix).save(path, partition)
        return path

    others = {}
    for kind, dataset in (("qmatrix", synth.generate_dataset(120, 12, 5, seed=4)),
                          ("students", synth.generate_dataset(150, 12, 5, seed=3))):
        paths = (str(root / f"{kind}_responses.csv"), str(root / f"{kind}_qmatrix.csv"))
        synth.write_dataset_csv(dataset, *paths)
        others[kind] = (paths, trained(dataset, kind))
    tiny = data.load_responses(tiny_paths[0]).with_qmatrix(data.load_qmatrix(tiny_paths[1]))
    return trained(tiny, "tiny"), others


def _tiny_config(tiny_paths, out_name, **overrides):
    responses, qmatrix, root = tiny_paths
    base = dict(
        responses_path=responses,
        qmatrix_path=qmatrix,
        out_dir=os.path.join(root, out_name),
        unlearn_ratio=0.10,
        algorithms={"hif": {}},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# (algorithm, parameters, the key the error names). fim and hessian are checked
# at beta 0; steps, probe counts and seeds must be integers.
BAD_ALGORITHM_VALUES = [
    ("hif", {"lambda_": 1.5}, "lambda_"),
    ("hif", {"alpha": 0.0}, "alpha"),
    ("hif", {"alpha": float("nan")}, "alpha"),
    ("hif", {"beta": -0.1}, "beta"),
    ("hif", {"alpha": True}, "alpha"),
    ("hif", {"excluded_layers": "kc_emb"}, "excluded_layers"),
    ("fim", {"lambda_": -0.5}, "lambda_"),
    ("hessian", {"alpha": -1.0}, "alpha"),
    ("gradasc", {"lr": -1e-4}, "lr"),
    ("gradasc", {"lr": "fast"}, "lr"),
    ("gradasc", {"steps": -1}, "steps"),
    ("gradasc", {"steps": 2.5}, "steps"),
    ("hessian", {"n_probe_samples": 0}, "n_probe_samples"),
    ("hessian", {"n_batches": 1.0}, "n_batches"),
    ("hessian", {"seed": -1}, "seed"),
    ("gradasc", {"lr": math.inf}, "lr"),
    ("hif", {"alpha": math.inf}, "alpha"),
    ("fim", {"alpha": math.inf}, "alpha"),
    ("hessian", {"alpha": math.inf}, "alpha"),
    ("fim", {"alpha": 0.5}, "alpha"),
]

# (config key, value, the setting the error names): seeds are integers >= 0;
# layer sizes, batch size, epochs and patience are integers, bools rejected.
BAD_CONFIG_VALUES = [
    ("seed_data", -1, "seed_data"),
    ("seed_model", -1, "seed_model"),
    ("seed_data", 1.5, "seed_data"),
    ("seed_attack", True, "seed_attack"),
    ("architecture", {"embed_dim": 2.5}, "embed_dim"),
    ("architecture", {"embed_dim": True}, "embed_dim"),
    ("architecture", {"ffn_hidden": [2.5, 3.9]}, "ffn_hidden"),
    ("architecture", {"ffn_hidden": [True]}, "ffn_hidden"),
    ("training", {"batch_size": 16.5}, "batch_size"),
    ("training", {"max_epochs": 2.5}, "max_epochs"),
    ("training", {"patience": 1.5}, "patience"),
    ("training", {"patience": False}, "patience"),
]

# (config key, value, the setting the error names): NaN and infinities, which
# Python's json reads from the literals NaN, Infinity and -Infinity.
NONFINITE_CONFIG_VALUES = [
    *(("training", {"lr": v}, "lr") for v in (math.nan, math.inf, -math.inf)),
    *(("training", {"min_delta": v}, "min_delta") for v in (math.nan, math.inf, -math.inf)),
    *(("split_ratios", r, "ratios") for r in ([math.nan, 0.2, 0.2], [0.6, math.inf, 0.2],
                                              [0.6, 0.2, math.nan])),
]

# (config key, value): a section of the wrong JSON type. Unchecked, a list or
# null `algorithms` and a string `architecture` exited 2 with an AttributeError,
# and a number `training` passed reading to fail at stage train-original.
WRONG_TYPE_SECTIONS = [
    ("algorithms", ["hif"]),
    ("algorithms", None),
    ("algorithms", {"hif": None}),
    ("architecture", "decoupled"),
    ("training", 5),
]

# (architecture, algorithm, excluded layers): names the architecture lacks.
BAD_EXCLUDED_LAYERS = [
    ({}, "hif", ["kc_embb"]),
    ({"arch": "neuralcdm"}, "fim", ["kc_emb"]),
    ({"ffn_hidden": [4]}, "hessian", ["ffn_W_0", "ffn_W_2"]),
]


class TestConfig:
    def test_json_roundtrip(self, tiny_paths, tmp_path):
        responses, qmatrix, _ = tiny_paths
        raw = {
            "responses_path": responses,
            "qmatrix_path": qmatrix,
            "out_dir": str(tmp_path / "out"),
            "unlearn_ratio": 0.05,
            "architecture": {"embed_dim": 8, "ffn_hidden": [16, 8]},
            "training": {"max_epochs": 7, "lr": 0.01},
            "algorithms": {"fim": {"alpha": 2.0}},
            "seed_data": 4,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = load_config(str(path))
        assert config.architecture.embed_dim == 8
        assert config.training.max_epochs == 7
        assert config.algorithms == {"fim": {"alpha": 2.0, "lambda_": 0.5}}
        assert config.seed_data == 4 and config.seed_model == 0

    def test_relative_paths_resolve_against_config_file(self, tmp_path):
        (tmp_path / "config.json").write_text(
            json.dumps({"responses_path": "data/r.csv", "qmatrix_path": "data/q.csv"})
        )
        config = load_config(str(tmp_path / "config.json"))
        assert config.responses_path == str(tmp_path / "data" / "r.csv")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"responses_path": "r", "qmatrix_path": "q", "nope": 1})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            config_from_dict(
                {"responses_path": "r", "qmatrix_path": "q", "algorithms": {"sisa": {}}}
            )

    def test_unknown_algorithm_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(
                {
                    "responses_path": "r",
                    "qmatrix_path": "q",
                    "algorithms": {"hif": {"gamma": 1}},
                }
            )

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="responses_path"):
            config_from_dict({"qmatrix_path": "q"})

    def test_defaults_merged_into_algorithms(self, tiny_paths):
        config = _tiny_config(tiny_paths, "x", algorithms={"hif": {"beta": 0.3}})
        assert config.algorithms["hif"] == {"alpha": 1.3, "lambda_": 0.5, "beta": 0.3}

    @pytest.mark.parametrize("name, params, key", BAD_ALGORITHM_VALUES)
    def test_bad_algorithm_value_rejected_when_read(self, name, params, key):
        with pytest.raises(ConfigError, match=rf"algorithm '{name}': {key} "):
            config_from_dict(
                {"responses_path": "r", "qmatrix_path": "q", "algorithms": {name: params}}
            )

    @pytest.mark.parametrize("key, value, setting", BAD_CONFIG_VALUES)
    def test_bad_setting_rejected_when_read(self, key, value, setting):
        with pytest.raises(ConfigError, match=rf"{setting} .*must be .*integer"):
            config_from_dict({"responses_path": "r", "qmatrix_path": "q", key: value})

    @pytest.mark.parametrize("key, value", WRONG_TYPE_SECTIONS)
    def test_section_of_the_wrong_type_rejected_when_read(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be a JSON object"):
            config_from_dict({"responses_path": "r", "qmatrix_path": "q", key: value})

    @pytest.mark.parametrize("value", [None, ["a"], 5], ids=["null", "list", "number"])
    @pytest.mark.parametrize("key", ["responses_path", "qmatrix_path", "out_dir"])
    def test_path_key_must_be_a_json_string(self, key, value):
        # str() made "out_dir": null the directory <config dir>/None.
        with pytest.raises(ConfigError, match=rf"^{key} must be a JSON string, got "):
            config_from_dict({"responses_path": "r", "qmatrix_path": "q", key: value})

    @pytest.mark.parametrize("architecture, name, layers", BAD_EXCLUDED_LAYERS)
    def test_excluded_layers_checked_against_the_architecture(self, architecture, name, layers):
        raw = {"responses_path": "r", "qmatrix_path": "q", "architecture": architecture,
               "algorithms": {name: {"excluded_layers": layers}}}
        with pytest.raises(ConfigError, match=rf"algorithm '{name}': excluded_layers \['"):
            config_from_dict(raw)

    def test_excluded_layers_of_the_architecture_accepted(self):
        raw = {"responses_path": "r", "qmatrix_path": "q", "architecture": {"arch": "neuralcdm"},
               "algorithms": {"fim": {"excluded_layers": ["disc_emb", "ffn_b_2"]}}}
        assert config_from_dict(raw).algorithms["fim"]["excluded_layers"] == [
            "disc_emb", "ffn_b_2"
        ]


class TestDefaultGrids:
    def test_stock_grids_pinned_point_by_point(self):
        # The order decides sweep ties and the bytes of sweep.json.
        alphas, lambdas = (1.3, 2.0, 2.5, 5.0), (0.1, 0.3, 0.5, 0.8)
        assert default_grid("hif") == [
            {"alpha": a, "lambda_": l, "beta": b}
            for a in alphas
            for l in lambdas
            for b in (0.02, 0.05, 0.1, 0.3, 0.5)
        ]
        assert default_grid("fim") == [
            {"alpha": a, "lambda_": l} for a in alphas for l in lambdas
        ]
        assert default_grid("gradasc") == [
            {"lr": lr, "steps": s} for lr in (1e-5, 5e-5, 1e-4) for s in (1, 3, 5)
        ]
        assert default_grid("hessian") == [
            {"n_probe_samples": n, "n_batches": b} for n in (10, 20, 40) for b in (1, 2)
        ]

    def test_hif_grid_is_80_points(self):
        assert len(default_grid("hif")) == 4 * 4 * 5 == 80

    def test_other_grids(self):
        assert len(default_grid("fim")) == 16
        assert len(default_grid("gradasc")) == 9
        assert len(default_grid("hessian")) == 6

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            default_grid("sisa")


@pytest.fixture(scope="module")
def tiny_report(tiny_paths):
    config = _tiny_config(
        tiny_paths, "run_all", algorithms={"hif": {}, "gradasc": {}}
    )
    return config, run_experiment(config)


class TestRunExperiment:
    def test_baselines_always_present(self, tiny_paths):
        config = _tiny_config(tiny_paths, "run_none", algorithms={})
        report = run_experiment(config)
        assert [e.tag for e in report.entries] == ["m_orig", "m_retrain"]
        assert all(e.rtrr is None for e in report.entries)

    def test_report_files_written(self, tiny_report):
        config, report = tiny_report
        names = set(os.listdir(config.out_dir))
        assert {"report.json", "timing.json", "status.json", "m_orig.ckpt",
                "m_retrain.ckpt", "hif.ckpt", "gradasc.ckpt"} <= names
        status = json.loads(Path(config.out_dir, "status.json").read_text())
        assert status == {"status": "complete"}

    def test_report_schema(self, tiny_report):
        config, report = tiny_report
        payload = json.loads(Path(config.out_dir, "report.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["seeds"] == {"data": 0, "model": 0, "attack": 0}
        tags = [m["tag"] for m in payload["models"]]
        assert tags == ["m_orig", "m_retrain", "hif", "gradasc"]
        hif_row = payload["models"][2]
        assert hif_row["parameters_modified"] > 0
        assert 0.0 <= hif_row["mia_auc"] <= 1.0
        timing = json.loads(Path(config.out_dir, "timing.json").read_text())
        assert timing["models"]["hif"]["rtrr"] is not None
        assert timing["models"]["m_orig"]["rtrr"] is None

    def test_unlearned_entries_have_rtrr(self, tiny_report):
        _, report = tiny_report
        assert report.entry("hif").rtrr is not None
        assert report.entry("gradasc").wall_time_seconds > 0

    def test_stage_order_attacker_before_unlearning(self, tiny_report):
        _, report = tiny_report
        stages = report.stages
        assert stages.index("train-attacker") < stages.index("unlearn-hif")
        assert stages.index("train-original") < stages.index("train-attacker")

    def test_failure_is_flagged_in_status(self, tiny_paths, tmp_path, monkeypatch):
        config = _tiny_config(tiny_paths, "run_fail")
        config.out_dir = str(tmp_path / "fail_out")
        import cdunlearn.experiment as exp

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(exp, "train_attacker", boom)
        with pytest.raises(exp.StageError, match="train-attacker"):
            run_experiment(config)
        status = json.loads(Path(config.out_dir, "status.json").read_text())
        assert status == {"status": "failed", "stage": "train-attacker"}


def _fit_on_no_records(args, conn, cpus):
    """The fit worker given an empty training set: its fit raises ValueError.
    Module-level, so that a spawned worker can import it."""
    train = experiment.train
    experiment.train = lambda **kw: train(**{**kw, "train_records": kw["train_records"][:0]})
    experiment._fit_worker(args, conn, cpus)


def _exit_without_result(args, conn, cpus):
    """A fit worker that dies before it reads its arguments or sends anything."""
    os._exit(3)


def _recording_adam_threads(owner):
    """Replace ``owner.adam_threads`` (owner: the nn module, or a monkeypatch
    of it) by the gate itself, recording each answer; returns the record."""
    asked, gate = [], nn.adam_threads

    def recording(total_size):
        asked.append(gate(total_size))
        return asked[-1]

    owner.setattr(nn, "adam_threads", recording)
    return asked


def _fit_recording_threads(args, conn, cpus):
    """The fit worker on a one-thread BLAS, 64 usable CPUs and a gate that
    splits any model, writing the Adam threads its fit asked for to the file
    named by CDUNLEARN_TEST_THREADS: only its CPU share can bound them."""
    patch = pytest.MonkeyPatch()
    patch.setattr(nn, "blas_threads", lambda: 1)
    patch.setattr(nn, "usable_cpus", lambda: 64)
    patch.setattr(nn, "ADAM_MIN_ENTRIES_PER_THREAD", 1)
    asked, train = _recording_adam_threads(patch), experiment.train

    def recording_train(**kw):  # writes before the worker sends, as it may be stopped then
        fitted = train(**kw)
        Path(os.environ["CDUNLEARN_TEST_THREADS"]).write_text(json.dumps(asked))
        return fitted

    patch.setattr(experiment, "train", recording_train)
    experiment._fit_worker(args, conn, cpus)


def _cpus(monkeypatch, n):
    """n usable CPUs and a one-thread BLAS: the worker runs from n = 2 on."""
    monkeypatch.setattr(nn, "usable_cpus", lambda: n)
    monkeypatch.setattr(nn, "blas_threads", lambda: 1)


class TestBaselineFits:
    """The retrained model fits in a spawned worker while the original fits
    in-process, or, with one usable CPU, after it in-process."""

    @staticmethod
    def _fits_in_parent(monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        calls = []
        train = experiment.train
        monkeypatch.setattr(experiment, "train", lambda **kw: calls.append(1) or train(**kw))
        return calls

    @pytest.mark.parametrize("arch", ["decoupled", "neuralcdm"])
    def test_worker_and_in_process_give_the_same_bits(self, tiny_paths, monkeypatch, arch):
        config = _tiny_config(tiny_paths, f"paths_{arch}", architecture={"arch": arch},
                              training={"max_epochs": 8})
        contexts = {}
        for cpus, parent_fits in ((2, 1), (1, 2)):
            calls = self._fits_in_parent(monkeypatch, cpus)
            contexts[cpus] = build_context(config)
            assert len(calls) == parent_fits
            assert multiprocessing.active_children() == []
        spawned, in_process = contexts[2], contexts[1]
        for name in ("m_orig", "m_retrain"):
            a, b = getattr(spawned, name), getattr(in_process, name)
            assert a.params_.vector.tobytes() == b.params_.vector.tobytes()
            assert a.params_.layout == b.params_.layout
            for attr in ("epochs_run_", "best_epoch_", "monitor_value_"):
                assert getattr(a, attr) == getattr(b, attr)
        assert spawned.t_retrain_seconds == spawned.m_retrain.fit_seconds_ > 0
        for entry in ("orig_entry", "retrain_entry"):
            assert getattr(spawned, entry).stable_dict() == getattr(in_process, entry).stable_dict()
        assert spawned.stages == in_process.stages

    def test_blas_threads_are_asked(self):
        threads = nn.blas_threads()
        assert threads is None or (type(threads) is int and threads >= 1)

    # (usable CPUs, BLAS threads, whether the worker runs): a worker needs as
    # many CPUs as the BLAS threads of each fit; a BLAS that cannot be asked
    # keeps the fit in-process.
    @pytest.mark.parametrize("cpus, blas, spawns", [
        (1, 1, False), (2, 1, True), (3, 2, False), (4, 2, True), (8, None, False),
    ])
    def test_worker_runs_when_each_fit_has_its_cpus(self, small_dataset, monkeypatch,
                                                    cpus, blas, spawns):
        monkeypatch.setattr(nn, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(nn, "blas_threads", lambda: blas)
        fit = dict(arch_config=CDArchConfig(embed_dim=4, ffn_hidden=(4,)), valid_records=None,
                   qmatrix=small_dataset.qmatrix, train_config=TrainConfig(max_epochs=2))
        alone, _ = experiment.train(train_records=small_dataset.records, **fit)
        seen, train = [], experiment.train

        def in_process(**kw):  # the workers alive and the CPU share as a fit here starts
            seen.append((len(multiprocessing.active_children()), nn._CPU_SHARE.get()))
            return train(**kw)

        monkeypatch.setattr(experiment, "train", in_process)
        fitted = experiment._fit_baselines(fit, small_dataset.records, small_dataset.records)
        assert seen == ([(1, cpus - cpus // 2)] if spawns else [(0, None)] * 2)
        for model in fitted:
            assert model.params_.vector.tobytes() == alone.params_.vector.tobytes()
        assert multiprocessing.active_children() == []

    # (usable CPUs, Adam threads of the in-process fit, of the worker's fit):
    # the two fits share the CPUs out, the worker taking half, rounded down.
    @pytest.mark.parametrize("cpus, parent, worker", [(2, 1, 1), (3, 2, 1), (4, 2, 2)])
    def test_each_fit_asks_for_its_share_of_the_cpus(self, tiny_paths, monkeypatch, tmp_path,
                                                     cpus, parent, worker):
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(nn, "ADAM_MIN_ENTRIES_PER_THREAD", 1)  # every model splits
        asked = _recording_adam_threads(monkeypatch)
        monkeypatch.setattr(experiment, "_fit_worker", _fit_recording_threads)
        monkeypatch.setenv("CDUNLEARN_TEST_THREADS", str(tmp_path / "threads.json"))
        build_context(_tiny_config(tiny_paths, f"share_{cpus}", training={"max_epochs": 2}))
        assert asked == [parent]
        assert json.loads((tmp_path / "threads.json").read_text()) == [worker]
        assert multiprocessing.active_children() == []

    def test_worker_failure_names_train_retrain(self, tiny_paths, tmp_path, monkeypatch):
        config = _tiny_config(tiny_paths, "worker_fail")
        config.out_dir = str(tmp_path / "out")
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(experiment, "_fit_worker", _fit_on_no_records)
        with pytest.raises(experiment.StageError, match="train-retrain") as raised:
            run_experiment(config)
        # the worker's exception crosses as itself, as the in-process fit raises it
        assert type(raised.value.__cause__) is ValueError
        assert str(raised.value.__cause__) == "training set is empty"
        status = json.loads(Path(config.out_dir, "status.json").read_text())
        assert status == {"status": "failed", "stage": "train-retrain"}
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_result_names_train_retrain(self, tiny_paths, monkeypatch):
        config = _tiny_config(tiny_paths, "worker_exit")
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(experiment, "_fit_worker", _exit_without_result)
        with pytest.raises(experiment.StageError,
                           match="train-retrain.*exited with code 3 and no result"):
            build_context(config)
        assert multiprocessing.active_children() == []

    def test_a_worker_dead_before_reading_a_large_payload_fails_the_stage(self, tmp_path):
        # The worker dies as it starts, when it imports the script again, as
        # one killed or failing at start-up would. At 536 students the retain
        # records pickle to more than a pipe's 64 KB buffer, so a send to it
        # can only end by failing. The run is a subprocess with a timeout: a
        # hang fails the test instead of stalling the suite.
        script = tmp_path / "dead_worker.py"
        script.write_text(f"""
import multiprocessing, os, pickle
from cdunlearn import experiment, nn, synth

if __name__ == "__mp_main__":
    os._exit(3)
if __name__ == "__main__":
    synth.write_dataset_csv(synth.generate_dataset(536, 20, 5, seed=3),
                            {str(tmp_path / "r.csv")!r}, {str(tmp_path / "q.csv")!r})
    config = experiment.ExperimentConfig({str(tmp_path / "r.csv")!r}, {str(tmp_path / "q.csv")!r},
                                         training={{"max_epochs": 2}})
    nn.usable_cpus, nn.blas_threads = (lambda: 2), (lambda: 1)  # the worker path
    retain = experiment.prepare_data(config)[3].retain_train_valid
    try:
        experiment.build_context(config)
    except experiment.StageError as exc:
        print(len(pickle.dumps(retain)), exc.stage, exc, multiprocessing.active_children())
""")
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        size, stage, message = done.stdout.split(" ", 2)
        assert int(size) > 64 * 1024 and stage == "train-retrain"
        assert message.strip() == (
            "stage 'train-retrain' failed: the fit worker exited with code 3 and no result []"
        )

    def test_original_fit_failure_stops_the_worker(self, tiny_paths, monkeypatch):
        config = _tiny_config(tiny_paths, "orig_fail")
        _cpus(monkeypatch, 2)
        process = multiprocessing.get_context("spawn").Process
        started, alive = [], []
        start = process.start
        monkeypatch.setattr(process, "start", lambda self: started.append(self) or start(self))

        def boom(**kwargs):
            alive.append(started[0].is_alive())
            raise RuntimeError("induced failure")

        monkeypatch.setattr(experiment, "train", boom)
        with pytest.raises(experiment.StageError, match="train-original"):
            build_context(config)
        # the worker was running its fit when the original fit failed, and was stopped
        assert alive == [True] and started[0].exitcode == -signal.SIGTERM
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def sweep_ctx(tiny_paths):
    config = _tiny_config(tiny_paths, "sweep_ctx",
                          algorithms={"hif": {}, "fim": {}, "gradasc": {}})
    return config, build_context(config)


@pytest.fixture(scope="module", params=["decoupled", "neuralcdm"])
def hessian_sweep_ctx(request, tiny_paths):
    config = _tiny_config(tiny_paths, f"hessian_sweep_{request.param}",
                          architecture={"arch": request.param}, algorithms={"hessian": {}})
    return config, build_context(config)


class TestSweep:
    def test_single_point_grid_matches_run_experiment(self, tiny_paths):
        params = {"alpha": 1.3, "lambda_": 0.5, "beta": 0.1}
        config = _tiny_config(tiny_paths, "sweep_one", algorithms={"hif": params})
        ctx = build_context(config)
        result = sweep(config, grids={"hif": [params]}, ctx=ctx, epsilon_utility=1.0)
        assert len(result.points) == 1
        point = result.points[0]
        model, ureport = apply_algorithm(ctx, "hif", params)
        direct = ctx.entry_for("hif", model, ureport)
        assert point.utility_auc == direct.utility_auc
        assert point.mia_auc == direct.mia_auc
        assert point.parameters_modified == direct.parameters_modified
        assert result.best_entry.mia_auc == point.mia_auc

    def test_best_minimizes_gap_among_feasible(self, tiny_paths):
        config = _tiny_config(tiny_paths, "sweep_sel")
        ctx = build_context(config)
        grid = [
            {"alpha": a, "lambda_": l, "beta": b}
            for a in (1.3, 5.0)
            for l in (0.1, 0.8)
            for b in (0.0, 0.3)
        ]
        result = sweep(config, grids={"hif": grid}, ctx=ctx, epsilon_utility=0.05)
        feasible = [p for p in result.points if p.feasible]
        assert result.best is not None
        assert all(result.best.mia_gap <= p.mia_gap for p in feasible)

    @pytest.mark.parametrize(
        "name, point, key",
        [
            ("hif", {"alpha": 1.3, "lambda_": 1.5, "beta": 0.1}, "lambda_"),
            ("fim", {"alpha": -2.0, "lambda_": 0.5}, "alpha"),
            ("hif", {"alpah": 5.0, "lambda_": 0.8, "beta": 0.1}, "alpah"),
        ],
    )
    def test_grid_points_validated_as_in_a_run(self, sweep_ctx, name, point, key):
        # A negative epsilon makes every point infeasible, so no best-point
        # re-run through apply_algorithm can be what rejects the point.
        config, ctx = sweep_ctx
        with pytest.raises(ValueError, match=key):
            sweep(config, grids={name: [point]}, ctx=ctx, epsilon_utility=-1.0)

    def test_fisher_points_match_apply_algorithm(self, sweep_ctx, monkeypatch):
        config, ctx = sweep_ctx
        grids = {
            "hif": [{"alpha": 2.0, "lambda_": 0.8, "beta": 0.3}],
            "fim": [{"alpha": 1.3, "lambda_": 0.5, "excluded_layers": ["kc_emb"]}],
            "gradasc": [{"lr": 5e-5, "steps": 1}],
        }
        models = []
        entry_for = ctx.entry_for
        monkeypatch.setattr(ctx, "entry_for",
                            lambda tag, model: models.append(model) or entry_for(tag, model))
        result = sweep(config, grids=grids, ctx=ctx, epsilon_utility=-1.0)
        monkeypatch.undo()
        assert [p.algorithm for p in result.points] == ["hif", "fim", "gradasc"]
        for point, model in zip(result.points, models, strict=True):
            direct, ureport = apply_algorithm(ctx, point.algorithm, point.params)
            entry = ctx.entry_for(point.algorithm, direct, ureport)
            assert model.params_.vector.tobytes() == direct.params_.vector.tobytes()
            assert point.parameters_modified == ureport.parameters_modified > 0
            assert (point.utility_auc, point.mia_auc) == (entry.utility_auc, entry.mia_auc)

    def test_hif_and_fim_share_one_fisher_estimate(self, sweep_ctx, monkeypatch):
        # A separate estimate per algorithm would pass every bit test: its
        # second whole-set sum is a memo hit. Only the forget-side pass shows it.
        config, ctx = sweep_ctx
        grids = {
            "hif": [{"alpha": 1.3, "lambda_": 0.5, "beta": 0.1}, {"alpha": 2.0, "beta": 0.0}],
            "fim": [{"alpha": 1.3, "lambda_": 0.5}, {"alpha": 5.0, "lambda_": 0.8}],
            "gradasc": [{"lr": 1e-5, "steps": 1}],
        }
        fim_diag, calls = importance.fim_diag, []
        monkeypatch.setattr(importance, "fim_diag",
                            lambda *args, **kwargs: calls.append(1) or fim_diag(*args, **kwargs))
        result = sweep(config, grids=grids, ctx=ctx, epsilon_utility=-1.0)
        assert len(result.points) == 5 and result.best is None
        assert len(calls) == 1

    def test_a_new_algorithm_needs_only_its_table_entry(self, tiny_paths, sweep_ctx, monkeypatch):
        def run(model, forget, retain, params):
            return model.copy(), UnlearnReport("noop", 0, 0.0, dict(params))

        monkeypatch.setitem(experiment.ALGORITHMS, "noop", experiment.Algorithm({}, set(), {}, run))
        config = _tiny_config(tiny_paths, "sweep_noop", algorithms={"noop": {}})
        ctx = sweep_ctx[1]
        assert config.algorithms == {"noop": {}}
        orig_bytes = ctx.m_orig.params_.vector.tobytes()
        model, report = experiment.run_algorithm(ctx.m_orig, ctx.mia_splits, "noop", {}, 0)
        assert report.parameters_modified == 0
        assert model.params_.vector.tobytes() == orig_bytes
        models = []
        entry_for = ctx.entry_for
        monkeypatch.setattr(ctx, "entry_for",
                            lambda tag, model, *report: models.append(model)
                            or entry_for(tag, model, *report))
        result = sweep(config, ctx=ctx)
        assert [(p.algorithm, p.params, p.parameters_modified) for p in result.points] == [
            ("noop", {}, 0)
        ]
        assert result.best_entry.parameters_modified == 0  # the re-run of the one stock point
        assert [m.params_.vector.tobytes() for m in models] == [orig_bytes]  # its one audit

    @pytest.mark.parametrize("name, grid", [
        ("hif", [{"alpha": 1.3, "lambda_": 0.5, "beta": 0.1}, {"alpha": 2.0, "lambda_": 0.8}]),
        ("hessian", [{"n_probe_samples": 10, "n_batches": 1}, {"n_probe_samples": 20}]),
    ])
    def test_the_winner_is_audited_once(self, tiny_paths, hessian_sweep_ctx, monkeypatch,
                                        name, grid):
        # best_entry takes the winning point's audit and the re-run's report,
        # and equals a full entry of the re-run model field for field.
        _, ctx = hessian_sweep_ctx
        config = _tiny_config(tiny_paths, f"sweep_winner_{name}", algorithms={name: {}},
                              architecture={"arch": ctx.config.architecture.arch})
        reruns, apply = [], experiment.apply_algorithm
        monkeypatch.setattr(experiment, "apply_algorithm",
                            lambda *args: reruns.append(apply(*args)) or reruns[-1])
        audits, evaluate = [], experiment.evaluate_attack
        monkeypatch.setattr(experiment, "evaluate_attack",
                            lambda *args: audits.append(1) or evaluate(*args))
        result = sweep(config, grids={name: grid}, ctx=ctx, epsilon_utility=1.0)
        monkeypatch.undo()
        assert len(audits) == len(grid) and len(reruns) == 1
        model, ureport = reruns[0]
        assert result.best_entry == ctx.entry_for(name, model, ureport)

    def test_hessian_points_match_apply_algorithm(self, hessian_sweep_ctx, monkeypatch):
        config, ctx = hessian_sweep_ctx
        grid = [
            *default_grid("hessian"),
            # one family whose probe counts come unsorted and repeated, two alphas at 10
            {"n_probe_samples": 20, "n_batches": 1, "seed": 9},
            {"n_probe_samples": 10, "n_batches": 1, "seed": 9, "alpha": 2.0},
            {"n_probe_samples": 20, "n_batches": 1, "seed": 9, "lambda_": 0.8},
            {"n_probe_samples": 10, "n_batches": 1, "seed": 9},
            {"n_probe_samples": 40, "n_batches": 2, "excluded_layers": ["student_emb"]},
        ]
        models = []
        entry_for = ctx.entry_for
        monkeypatch.setattr(ctx, "entry_for",
                            lambda tag, model: models.append(model) or entry_for(tag, model))
        result = sweep(config, grids={"hessian": grid}, ctx=ctx, epsilon_utility=-1.0)
        monkeypatch.undo()
        assert [{k: p.params[k] for k in point} for p, point in zip(result.points, grid)] == grid
        for point, model in zip(result.points, models, strict=True):
            direct, ureport = apply_algorithm(ctx, "hessian", point.params)
            entry = ctx.entry_for("hessian", direct, ureport)
            assert model.params_.vector.tobytes() == direct.params_.vector.tobytes()
            assert point.parameters_modified == ureport.parameters_modified > 0
            assert (point.utility_auc, point.mia_auc) == (entry.utility_auc, entry.mia_auc)
        alpha_2, alpha_1_3 = result.points[7], result.points[9]  # seed 9, 10 probes each
        assert alpha_2.parameters_modified < alpha_1_3.parameters_modified
        assert models[-1].params_["student_emb"].tobytes() == (
            ctx.m_orig.params_["student_emb"].tobytes()
        )

    def test_stock_hessian_grid_costs_320_gradients(self, hessian_sweep_ctx, monkeypatch):
        # Two (n_batches, seed) families, each estimated once to 40 probes per
        # side at two gradients a probe: 2 * 2 * 40 * 2 = 320. A full
        # estimate per point took 2 * 2 * (10 + 20 + 40) * 2 = 560.
        config, ctx = hessian_sweep_ctx
        wiring = type(ctx.m_orig.wiring_)
        backward, calls = wiring.backward, []
        monkeypatch.setattr(wiring, "backward",
                            lambda *args, **kwargs: calls.append(1) or backward(*args, **kwargs))
        sweep(config, grids={"hessian": default_grid("hessian")}, ctx=ctx, epsilon_utility=-1.0)
        assert len(calls) == 320

    def test_grid_naming_an_unconfigured_algorithm_rejected(self, tiny_paths):
        config = _tiny_config(tiny_paths, "sweep_unconfigured")
        with pytest.raises(ConfigError, match=r"\['fim'\]"):
            sweep(config, grids={"fim": [{}]}, ctx=object.__new__(_FakeCtx))

    def test_nan_epsilon_utility_rejected(self, tiny_paths):
        config = _tiny_config(tiny_paths, "sweep_nan")
        with pytest.raises(ConfigError, match="epsilon_utility"):
            sweep(config, epsilon_utility=float("nan"), ctx=object.__new__(_FakeCtx))

    def test_empty_grid_rejected(self, tiny_paths):
        config = _tiny_config(tiny_paths, "sweep_empty")
        with pytest.raises(ConfigError, match="empty grid"):
            sweep(config, grids={"hif": []}, ctx=object.__new__(_FakeCtx))

    @pytest.mark.parametrize("name, point, key", BAD_ALGORITHM_VALUES)
    def test_bad_point_rejected_before_the_context_is_used(self, tiny_paths, name, point, key):
        config = _tiny_config(tiny_paths, "sweep_bad", algorithms={name: {}})
        with pytest.raises(ConfigError, match=rf"algorithm '{name}': {key} "):
            sweep(config, grids={name: [point]}, ctx=object.__new__(_FakeCtx))

    @pytest.mark.parametrize("architecture, name, layers", BAD_EXCLUDED_LAYERS)
    def test_excluded_layers_of_a_point_checked_against_the_architecture(
        self, tiny_paths, architecture, name, layers
    ):
        config = _tiny_config(
            tiny_paths, "sweep_layers", architecture=architecture, algorithms={name: {}}
        )
        with pytest.raises(ConfigError, match=rf"algorithm '{name}': excluded_layers \['"):
            sweep(config, grids={name: [{"excluded_layers": layers}]},
                  ctx=object.__new__(_FakeCtx))


class _FakeCtx:
    """A context whose every field but ``config`` raises AttributeError."""

    config = None


class TestExportProfiles:
    def test_sixteen_kcs_give_sixteen_rows_per_student(self, tmp_path):
        # Large-exam shape with 16 knowledge components
        ds = synth.generate_dataset(60, 20, 16, seed=5)
        from cdunlearn.model import CDModel

        model = CDModel(embed_dim=8, max_epochs=2, seed=0)
        model.fit(ds.records, ds.qmatrix)
        rows = export_profiles(model, [3, 7])
        assert len(rows) == 2 * 16
        assert [r[1] for r in rows[:16]] == list(range(16))
        assert all(0.0 < r[2] < 1.0 for r in rows)
        again = export_profiles(model, [3, 7])
        assert rows == again

    def test_unknown_student_rejected(self, small_model):
        with pytest.raises(IndexError):
            export_profiles(small_model, [10_000])

    def test_csv_layout(self, small_model, tmp_path):
        path = tmp_path / "profiles.csv"
        write_profiles_csv(small_model, [0], str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "student_id,kc_index,proficiency"
        assert len(lines) == 1 + small_model.n_kcs_


class TestCli:
    def test_run_and_rerun_byte_identical(self, tiny_paths, tmp_path):
        responses, qmatrix, _ = tiny_paths
        out = tmp_path / "cli_run"
        config = {
            "responses_path": responses,
            "qmatrix_path": qmatrix,
            "out_dir": str(out),
            "training": {"max_epochs": 8},
            "algorithms": {"fim": {}},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["run", "--config", str(config_path)]) == 0
        first = (out / "report.json").read_bytes()
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert (out / "report.json").read_bytes() == first

    def test_sweep_and_resweep_write_the_same_sweep_json(self, tiny_paths, tmp_path, capsys):
        # The best point's re-run timing goes to sweep_timing.json; it made
        # two identical sweeps differ in sweep.json.
        responses, qmatrix, _ = tiny_paths
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "responses_path": responses, "qmatrix_path": qmatrix, "training": {"max_epochs": 8},
            "algorithms": {"hif": {}, "hessian": {}},
        }))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "hif": [{"alpha": 1.3, "lambda_": 0.5, "beta": 0.1}],
            "hessian": [{"n_probe_samples": n, "n_batches": b} for n in (10, 20) for b in (1, 2)],
        }))
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            args = ["sweep", "--config", str(config_path), "--grid", str(grid), "--out", str(out)]
            assert cli_main([*args, "--epsilon-utility", "1"]) == 0
        first, second = ((out / "sweep.json").read_bytes() for out in outs)
        assert first == second
        best_full_run = json.loads(first)["best_full_run"]
        assert best_full_run is not None and "wall_time_seconds" not in best_full_run
        timing = json.loads((outs[0] / "sweep_timing.json").read_text())
        assert set(timing["best_full_run"]) == {"wall_time_seconds", "rtrr"}
        assert timing["best_full_run"]["wall_time_seconds"] > 0

    def test_unlearn_and_mia_subcommands_reproduce_the_run(self, tiny_paths, tmp_path, capsys):
        responses, qmatrix, _ = tiny_paths
        run_out = tmp_path / "run"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "responses_path": responses,
                    "qmatrix_path": qmatrix,
                    "out_dir": str(run_out),
                    "training": {"max_epochs": 8},
                    "algorithms": {name: {} for name in ALGORITHM_NAMES},
                }
            )
        )
        assert cli_main(["run", "--config", str(config_path)]) == 0
        orig = str(run_out / "m_orig.ckpt")

        unlearn_out = tmp_path / "unlearn"
        code = cli_main(
            ["unlearn", "--config", str(config_path), "--model", orig, "--out", str(unlearn_out)]
        )
        assert code == 0
        for name in ALGORITHM_NAMES:
            ckpt = f"{name}.ckpt"
            assert (unlearn_out / ckpt).read_bytes() == (run_out / ckpt).read_bytes(), name

        mia_out = tmp_path / "mia"
        code = cli_main(
            [
                "mia",
                "--config", str(config_path),
                "--orig-model", orig,
                "--model", str(run_out / "hif.ckpt"),
                "--out", str(mia_out),
            ]
        )
        assert code == 0
        audit = json.loads((mia_out / "mia.json").read_text())
        report = json.loads((run_out / "report.json").read_text())
        hif_row = next(m for m in report["models"] if m["tag"] == "hif")
        assert (audit["mia_auc"], audit["mia_acc"]) == (hif_row["mia_auc"], hif_row["mia_acc"])

    def test_train_subcommand(self, tiny_paths, tmp_path, capsys):
        responses, qmatrix, _ = tiny_paths
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "responses_path": responses,
                    "qmatrix_path": qmatrix,
                    "training": {"max_epochs": 5},
                }
            )
        )
        out = tmp_path / "train_out"
        code = cli_main(["train", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "train_summary.json").read_text())
        assert 0.5 <= summary["test_auc"] <= 1.0
        assert (out / "trained_model.ckpt").exists()
        timing = json.loads((out / "train_timing.json").read_text())
        assert set(timing) == {"train_seconds"} and timing["train_seconds"] > 0
        assert "train_seconds" not in summary

    def test_train_and_unlearn_reruns_write_the_same_files(self, tiny_paths, tmp_path):
        # Wall times go to train_timing.json and unlearn_timing.json alone.
        responses, qmatrix, _ = tiny_paths
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "responses_path": responses, "qmatrix_path": qmatrix,
            "training": {"max_epochs": 3}, "algorithms": {"hif": {}, "gradasc": {}},
        }))
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            args = ["--config", str(config_path), "--out", str(out)]
            assert cli_main(["train", *args]) == 0
            assert cli_main(["unlearn", *args, "--model", str(out / "trained_model.ckpt")]) == 0
        for name in ("trained_model.ckpt", "train_summary.json", "unlearn_report.json",
                     "hif.ckpt", "gradasc.ckpt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        report = json.loads((outs[0] / "unlearn_report.json").read_text())
        timing = json.loads((outs[0] / "unlearn_timing.json").read_text())
        assert set(report) == set(timing) == {"hif", "gradasc"}
        for name, row in report.items():
            assert set(row) == {"parameters_modified", "config"}
            assert set(timing[name]) == {"wall_time_seconds"} and timing[name]["wall_time_seconds"] > 0

    def test_algo_flag_overrides_config(self, tiny_paths, tmp_path):
        responses, qmatrix, _ = tiny_paths
        out = tmp_path / "algo_out"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "responses_path": responses,
                    "qmatrix_path": qmatrix,
                    "out_dir": str(out),
                    "training": {"max_epochs": 5},
                    "algorithms": {"hif": {}},
                }
            )
        )
        code = cli_main(["run", "--config", str(config_path), "--algo", "gradasc"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [m["tag"] for m in report["models"]] == ["m_orig", "m_retrain", "gradasc"]

    def test_simulate_shrinkage_csv(self, tmp_path, capsys):
        out = tmp_path / "shrink.csv"
        code = cli_main(
            [
                "simulate-shrinkage",
                "--p", "20",
                "--sigma", "1.0",
                "--trials", "500",
                "--betas", "0,0.5,1",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "beta,mse_naive,mse_adjusted,se_naive,se_adjusted"
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "option, value",
        [("--betas", "1.2"), ("--betas", "abc"), ("--means", "0,x"), ("--sigma", "0"),
         ("--trials", "0"), ("--p", "0"), ("--p", "-1"), ("--sigma", "inf"), ("--sigma", "nan"),
         ("--means", "0,nan"), ("--means", "1,-inf")],
    )
    def test_simulate_shrinkage_bad_input_exits_1(self, tmp_path, capsys, option, value):
        out = tmp_path / "shrink.csv"
        args = ["simulate-shrinkage", "--p", "2", "--trials", "5", option, value]
        assert cli_main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: simulate-shrinkage: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--students", "0"), ("--students", "-3"), ("--items", "0"), ("--kcs", "0"),
         ("--student-scale", "nan"), ("--item-scale", "inf"), ("--seed", "-1")],
    )
    def test_make_synthetic_bad_input_exits_1(self, tmp_path, capsys, option, value):
        out = tmp_path / "data"
        assert cli_main(["make-synthetic", option, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: make-synthetic: ")
        assert not out.exists()

    @pytest.mark.parametrize("other", ["qmatrix", "students"])
    @pytest.mark.parametrize("command", ["unlearn", "mia-orig", "mia-target"])
    def test_checkpoint_of_other_data_exits_1(
        self, tiny_paths, other_data_ckpts, tmp_path, capsys, command, other
    ):
        responses, qmatrix, _ = tiny_paths
        tiny_ckpt, others = other_data_ckpts
        other_paths, other_ckpt = others[other]
        if command == "mia-target":  # the config's data is the attacker's
            config, orig, target = (responses, qmatrix), tiny_ckpt, other_ckpt
        else:
            config, orig, target = other_paths, tiny_ckpt, tiny_ckpt
        out = tmp_path / "never"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"responses_path": config[0], "qmatrix_path": config[1],
                        "out_dir": str(out), "algorithms": {"hif": {}}})
        )
        args = ["--config", str(config_path), "--out", str(out)]
        if command == "unlearn":
            args = ["unlearn", *args, "--model", orig]
        else:
            args = ["mia", *args, "--orig-model", orig, "--model", target]
        assert cli_main(args) == 1
        rejected = target if command == "mia-target" else orig
        mismatch = "Q-matrix differs" if other == "qmatrix" else "students and 12 items"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rejected}: ") and mismatch in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["unlearn", "mia-orig", "mia-target"])
    @pytest.mark.parametrize("recorded", ["other-seed", "missing"])
    def test_checkpoint_of_another_partition_exits_1(
        self, tiny_paths, other_data_ckpts, tmp_path, capsys, command, recorded
    ):
        responses, qmatrix, _ = tiny_paths
        tiny_ckpt, _ = other_data_ckpts
        bad = str(tmp_path / "bad.ckpt")
        args = ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "never")]
        if recorded == "missing":
            CDModel.load(tiny_ckpt).save(bad)
        else:  # trained at seed_data 0, applied with --seed-data 1
            bad = tiny_ckpt
            args += ["--seed-data", "1"]
        (tmp_path / "config.json").write_text(
            json.dumps({"responses_path": responses, "qmatrix_path": qmatrix,
                        "algorithms": {"hif": {}}})
        )
        if command == "unlearn":
            args = ["unlearn", *args, "--model", bad]
        else:
            orig, target = (bad, tiny_ckpt) if command == "mia-orig" else (tiny_ckpt, bad)
            if recorded == "other-seed":
                orig = target = bad
            args = ["mia", *args, "--orig-model", orig, "--model", target]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert ("records the data partition None" if recorded == "missing"
                else "'seed_data': 0") in err
        assert not (tmp_path / "never").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"responses_path": "r"}))
        assert cli_main(["run", "--config", str(bad)]) == 1

    def test_null_out_dir_exits_1_without_a_none_directory(self, tiny_paths, tmp_path, capsys):
        responses, qmatrix, _ = tiny_paths
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"responses_path": responses, "qmatrix_path": qmatrix, "out_dir": None}
        ))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert "error: out_dir must be a JSON string, got None" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize(
        "name, params",
        [("hif", {"lambda_": 1.5}), ("gradasc", {"steps": -1}), ("hif", {"alpha": math.inf}),
         ("fim", {"alpha": 0.5})],
    )
    def test_bad_algorithm_value_exits_1_before_training(
        self, tiny_paths, tmp_path, capsys, name, params
    ):
        responses, qmatrix, _ = tiny_paths
        out = tmp_path / "never"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "responses_path": responses,
                    "qmatrix_path": qmatrix,
                    "out_dir": str(out),
                    "algorithms": {name: params},
                }
            )
        )
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert f"algorithm {name!r}: {next(iter(params))} " in capsys.readouterr().err
        assert not out.exists()  # no checkpoint, not even the status file

    @pytest.mark.parametrize(
        "overrides",
        [{"seed_model": -1}, {"training": {"max_epochs": 2.5}},
         {"algorithms": {"hif": {"excluded_layers": ["kc_embb"]}}}],
        ids=["seed", "max_epochs", "excluded_layers"],
    )
    def test_bad_setting_exits_1_before_anything_is_written(
        self, tiny_paths, tmp_path, capsys, overrides
    ):
        responses, qmatrix, _ = tiny_paths
        out = tmp_path / "never"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"responses_path": responses, "qmatrix_path": qmatrix,
                        "out_dir": str(out), **overrides})
        )
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", WRONG_TYPE_SECTIONS)
    def test_section_of_the_wrong_type_exits_1_before_anything_is_written(
        self, tiny_paths, tmp_path, capsys, key, value
    ):
        responses, qmatrix, _ = tiny_paths
        out = tmp_path / "never"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"responses_path": responses, "qmatrix_path": qmatrix,
                        "out_dir": str(out), key: value})
        )
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert f"error: {key} must be a JSON object" in capsys.readouterr().err
        assert not out.exists()  # not even the status file

    @pytest.mark.parametrize("key, value, setting", NONFINITE_CONFIG_VALUES)
    def test_nonfinite_setting_exits_1_before_training(
        self, tiny_paths, tmp_path, capsys, key, value, setting
    ):
        responses, qmatrix, _ = tiny_paths
        out = tmp_path / "never"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"responses_path": responses, "qmatrix_path": qmatrix,
                        "out_dir": str(out), key: value})
        )
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert setting in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    def test_malformed_checkpoint_exit_code(self, tmp_path, capsys):
        from cdunlearn.serialize import MAGIC

        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(MAGIC + b"\x01")
        args = ["export-profiles", "--model", str(ckpt), "--students", "0"]
        assert cli_main([*args, "--out", str(tmp_path / "p.csv")]) == 1
        assert "truncated preamble" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit", [case[1] for case in MALFORMED_CHECKPOINTS],
        ids=[case[0] for case in MALFORMED_CHECKPOINTS],
    )
    def test_malformed_checkpoint_header_or_meta_exit_code(
        self, small_model, tmp_path, capsys, edit
    ):
        ckpt = str(tmp_path / "model.ckpt")
        small_model.save(ckpt)
        rewrite_header(ckpt, edit)
        args = ["export-profiles", "--model", ckpt, "--students", "0"]
        assert cli_main([*args, "--out", str(tmp_path / "p.csv")]) == 1
        assert f"error: {ckpt}: " in capsys.readouterr().err

    def test_misspelled_grid_key_exit_code(self, tiny_paths, tmp_path, capsys):
        responses, qmatrix, _ = tiny_paths
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"responses_path": responses, "qmatrix_path": qmatrix,
                        "training": {"max_epochs": 2}})
        )
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"hif": [{"alpah": 5.0, "lambda_": 0.8, "beta": 0.1}]}))
        args = ["sweep", "--config", str(config_path), "--grid", str(grid)]
        assert cli_main([*args, "--out", str(tmp_path / "sweep")]) == 1
        assert "alpah" in capsys.readouterr().err

    def _sweep_with_grid(self, tiny_paths, tmp_path, grid_text):
        responses, qmatrix, _ = tiny_paths
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"responses_path": responses, "qmatrix_path": qmatrix,
                        "training": {"max_epochs": 2}, "algorithms": {"hif": {}}})
        )
        grid = tmp_path / "grid.json"
        grid.write_text(grid_text)
        args = ["sweep", "--config", str(config_path), "--grid", str(grid)]
        return cli_main([*args, "--out", str(tmp_path / "sweep")])

    def test_nan_epsilon_utility_exit_code(self, tiny_paths, tmp_path, capsys):
        responses, qmatrix, _ = tiny_paths
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"responses_path": responses, "qmatrix_path": qmatrix}))
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(config_path), "--epsilon-utility", "nan"]
        assert cli_main([*args, "--out", str(out)]) == 1
        assert "epsilon_utility must be a number, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_not_json_exit_code(self, tiny_paths, tmp_path, capsys):
        assert self._sweep_with_grid(tiny_paths, tmp_path, '{"hif": [') == 1
        assert "not a JSON grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", [[{"alpha": 2.0}], {"hif": {"alpha": 2.0}}, {"hif": [2.0]}],
        ids=["list", "algorithm-to-object", "point-not-object"],
    )
    def test_grid_of_the_wrong_shape_exit_code(self, tiny_paths, tmp_path, capsys, grid):
        assert self._sweep_with_grid(tiny_paths, tmp_path, json.dumps(grid)) == 1
        assert "list of parameter objects" in capsys.readouterr().err

    def test_grid_naming_an_unconfigured_algorithm_exit_code(self, tiny_paths, tmp_path, capsys):
        grid = json.dumps({"fim": [{"alpha": 2.0, "lambda_": 0.5}]})
        assert self._sweep_with_grid(tiny_paths, tmp_path, grid) == 1
        assert "['fim']" in capsys.readouterr().err

    @pytest.mark.parametrize("students", ["1,x", "0,100000"], ids=["not-an-id", "unknown-id"])
    def test_export_profiles_bad_students_exit_code(self, small_model, tmp_path, capsys, students):
        ckpt = tmp_path / "model.ckpt"
        small_model.save(str(ckpt))
        args = ["export-profiles", "--model", str(ckpt), "--students", students]
        assert cli_main([*args, "--out", str(tmp_path / "p.csv")]) == 1
        assert "--students" in capsys.readouterr().err

    def test_nonfinite_checkpoint_exit_code(self, small_model, tmp_path, capsys):
        from cdunlearn.serialize import load_bundle, save_bundle

        ckpt = str(tmp_path / "model.ckpt")
        small_model.save(ckpt)
        arrays, meta = load_bundle(ckpt)
        arrays["kc_emb"] = arrays["kc_emb"].copy()
        arrays["kc_emb"][0, 0] = float("nan")
        save_bundle(ckpt, arrays, meta)
        args = ["export-profiles", "--model", ckpt, "--students", "0"]
        assert cli_main([*args, "--out", str(tmp_path / "p.csv")]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tiny_paths, tmp_path):
        responses, qmatrix, _ = tiny_paths
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "responses_path": responses,
                    "qmatrix_path": qmatrix,
                    "out_dir": str(blocker / "out"),
                }
            )
        )
        assert cli_main(["run", "--config", str(config_path)]) == 2

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cdunlearn.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for sub in ("train", "unlearn", "mia", "run", "sweep",
                    "simulate-shrinkage", "export-profiles"):
            assert sub in proc.stdout


@pytest.mark.parametrize("module", [cdunlearn, data], ids=["cdunlearn", "cdunlearn.data"])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
