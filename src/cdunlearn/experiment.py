"""Config-driven experiment pipeline.

One run: load data, split records, draw the student groups, train the
original and retrained models, fit the attack classifier on the original
model's outputs, then apply each requested unlearning algorithm and score it
on utility (retain students' test records), attack resistance, and time saved
relative to retraining.

Reports are split across two files so that reruns are byte-comparable:
``report.json`` holds everything deterministic (metrics, configs, seeds) and
``timing.json`` holds wall-clock measurements and the time-reduction rates
derived from them.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import multiprocessing
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import metrics, nn
from .data import (
    DataFormatError,
    DataValidationError,
    Dataset,
    MiaSplits,
    QMatrix,
    RecordSplit,
    StudentPartition,
    derive_mia_subsets,
    load_qmatrix,
    load_responses,
    partition_students,
    split_records,
)
from .mia import LogisticAttacker, evaluate_attack, extract_features, train_attacker
from .model import CDArchConfig, CDModel, build_wiring, train
from .nn import TrainConfig, is_count
from .unlearn import (
    HIFConfig,
    UnlearnReport,
    attenuate,
    fim_unlearn,
    fisher_pair,
    gradient_ascent_unlearn,
    hessian_pair,
    hessian_unlearn,
    hif_unlearn,
)

VERSION = "0.1.0"
SCHEMA_VERSION = 1


class Algorithm(NamedTuple):
    """How a config spells one unlearning algorithm, and how it runs (see :func:`sweep`)."""

    defaults: dict  # key -> default value
    optional: set  # keys taken without a default
    grid: dict  # the stock sweep grid: key -> values, the first axis outermost
    run: Callable  # (model, forget, retain, params) -> (unlearned model, UnlearnReport)
    family: Callable | None = None  # params -> the key of what the estimate reads
    estimate: Callable | None = None  # (model, forget, retain, points) -> a pair per point


def _hif_config(params: dict) -> HIFConfig:
    """The attenuation that resolved ``params`` ask for; beta defaults to 0."""
    return HIFConfig(params["alpha"], params["lambda_"], params.get("beta", 0.0),
                     params.get("excluded_layers", frozenset()))


def _seeded(spec: Algorithm, params: dict, seed: int) -> dict:
    """``params``, with ``seed`` for an unset seed if the algorithm takes one."""
    return {"seed": seed, **params} if "seed" in spec.optional else params


def _fisher_estimate(model, forget, retain, points):
    return [fisher_pair(model, forget, retain)] * len(points)


def _hessian_estimate(model, forget, retain, points):
    """One :func:`hessian_pair` call over the family's distinct probe counts."""
    counts = tuple(dict.fromkeys(p["n_probe_samples"] for p in points))
    pairs = hessian_pair(model, forget, retain, counts, points[0]["n_batches"], points[0]["seed"])
    return [pairs[counts.index(p["n_probe_samples"])] for p in points]


# Each run names its function at call time, so that a wrapped module attribute is the one called.
ALGORITHMS: dict[str, Algorithm] = {
    "hif": Algorithm(
        {"alpha": 1.3, "lambda_": 0.5, "beta": 0.1},
        {"excluded_layers"},
        {"alpha": (1.3, 2.0, 2.5, 5.0), "lambda_": (0.1, 0.3, 0.5, 0.8),
         "beta": (0.02, 0.05, 0.1, 0.3, 0.5)},
        lambda model, forget, retain, p: hif_unlearn(model, forget, retain, _hif_config(p)),
        lambda p: (), _fisher_estimate,
    ),
    "fim": Algorithm(
        {"alpha": 1.3, "lambda_": 0.5},
        {"excluded_layers"},
        {"alpha": (1.3, 2.0, 2.5, 5.0), "lambda_": (0.1, 0.3, 0.5, 0.8)},
        lambda model, forget, retain, p: fim_unlearn(model, forget, retain, **p),
        lambda p: (), _fisher_estimate,
    ),
    "gradasc": Algorithm(
        {"lr": 1e-4, "steps": 3},
        set(),
        {"lr": (1e-5, 5e-5, 1e-4), "steps": (1, 3, 5)},
        lambda model, forget, retain, p: gradient_ascent_unlearn(model, forget, **p),
    ),
    "hessian": Algorithm(
        {"alpha": 1.3, "lambda_": 0.5, "n_probe_samples": 20, "n_batches": 1},
        {"excluded_layers", "seed"},
        {"n_probe_samples": (10, 20, 40), "n_batches": (1, 2)},
        lambda model, forget, retain, p: hessian_unlearn(model, forget, retain, **p),
        lambda p: (p["n_batches"], p["seed"]), _hessian_estimate,
    ),
}
ALGORITHM_NAMES = tuple(ALGORITHMS)


class ConfigError(ValueError):
    """Invalid configuration or invalid input data."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage tag."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ConfigError, StageError):
        raise
    except (DataFormatError, DataValidationError, FileNotFoundError) as exc:
        raise ConfigError(f"[{name}] {exc}") from exc
    except Exception as exc:  # noqa: BLE001 - tag and rethrow any stage failure
        raise StageError(name, exc) from exc


def _algorithm(name: str) -> Algorithm:
    if name not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {name!r}; choose from {ALGORITHM_NAMES}")
    return ALGORITHMS[name]


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# What each algorithm key must hold; HIFConfig also bounds alpha, lambda_ and beta.
_VALUE_RULES = {
    "alpha": ("a number", _number),
    "lambda_": ("a number", _number),
    "beta": ("a number", _number),
    "lr": ("a finite number >= 0", lambda v: _number(v) and 0 <= v < float("inf")),
    "steps": ("an integer >= 0", lambda v: is_count(v, 0)),
    "n_probe_samples": ("an integer >= 1", lambda v: is_count(v, 1)),
    "n_batches": ("an integer >= 1", lambda v: is_count(v, 1)),
    "seed": ("an integer >= 0", lambda v: is_count(v, 0)),
    "excluded_layers": (
        "a list of layer names",
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
    ),
}


def resolve_params(name: str, params: dict, architecture: CDArchConfig) -> dict:
    """``params`` merged over the algorithm's defaults. An unknown algorithm
    or key, a value the algorithm would reject, or an excluded layer that
    ``architecture`` does not have raises :class:`ConfigError`; an algorithm
    without a beta is checked at beta 0 (:func:`_hif_config`)."""
    spec = _algorithm(name)
    unknown = set(params) - set(spec.defaults) - spec.optional
    if unknown:
        raise ConfigError(f"algorithm {name!r}: unknown keys {sorted(unknown)}")
    resolved = {**spec.defaults, **params}
    for key, value in resolved.items():
        want, holds = _VALUE_RULES[key]
        if not holds(value):
            raise ConfigError(f"algorithm {name!r}: {key} must be {want}, got {value!r}")
    if "alpha" in resolved:
        try:
            _hif_config(resolved)
        except ValueError as exc:
            raise ConfigError(f"algorithm {name!r}: {exc}") from None
    # The layer ids depend on the architecture alone, not on the data's counts.
    wiring = build_wiring(architecture, 1, 1, QMatrix(np.ones((1, 1))))
    layers = [layer_id for layer_id, _ in wiring.layer_shapes()]
    unknown = sorted(set(resolved.get("excluded_layers", ())) - set(layers))
    if unknown:
        raise ConfigError(
            f"algorithm {name!r}: excluded_layers {unknown} are not among the "
            f"{architecture.arch} layers {layers}"
        )
    return resolved


def default_grid(algorithm: str) -> list[dict]:
    """The stock hyperparameter grid swept for each algorithm: every
    combination of its axes, the first axis outermost."""
    axes = _algorithm(algorithm).grid
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


@dataclass
class ExperimentConfig:
    responses_path: str
    qmatrix_path: str
    out_dir: str = "runs/experiment"
    split_ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    unlearn_ratio: float = 0.1
    architecture: CDArchConfig = field(default_factory=CDArchConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    algorithms: dict[str, dict] = field(default_factory=lambda: {ALGORITHM_NAMES[0]: {}})  # hif
    seed_data: int = 0
    seed_model: int = 0
    seed_attack: int = 0

    def __post_init__(self) -> None:
        self.split_ratios = tuple(float(r) for r in self.split_ratios)
        if len(self.split_ratios) != 3:
            raise ConfigError("split_ratios must have three entries")
        self.unlearn_ratio = float(self.unlearn_ratio)
        for key, section in (("architecture", CDArchConfig), ("training", TrainConfig)):
            value = getattr(self, key)
            if isinstance(value, dict):
                setattr(self, key, section(**value))
            elif not isinstance(value, section):
                raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        for key in ("seed_data", "seed_model", "seed_attack"):
            if not is_count(seed := getattr(self, key), 0):
                raise ConfigError(f"{key} must be an integer >= 0, got {seed!r}")
            setattr(self, key, int(seed))
        algorithms = self.algorithms
        if not isinstance(algorithms, dict) or not all(
            isinstance(params, dict) for params in algorithms.values()
        ):
            raise ConfigError(f"algorithms must be a JSON object of objects, got {algorithms!r}")
        self.algorithms = {
            name: resolve_params(name, params, self.architecture)
            for name, params in algorithms.items()
        }

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def data_record(self) -> dict:
        """The settings that fix the data partition, as checkpoints record them."""
        return {"seed_data": self.seed_data, "split_ratios": list(self.split_ratios),
                "unlearn_ratio": self.unlearn_ratio}


def config_from_dict(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build a validated config from parsed JSON; paths resolve against base_dir."""
    unknown = set(raw) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("responses_path", "qmatrix_path"):
        if required not in raw:
            raise ConfigError(f"config is missing {required!r}")
    kwargs = {"out_dir": ExperimentConfig.out_dir, **raw}  # a default out_dir resolves too
    for key in ("responses_path", "qmatrix_path", "out_dir"):
        path = kwargs[key]
        if not isinstance(path, str):
            raise ConfigError(f"{key} must be a JSON string, got {path!r}")
        if not os.path.isabs(path):
            kwargs[key] = os.path.normpath(os.path.join(base_dir, path))
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


@dataclass
class ModelEntry:
    """One row of the experiment report."""

    tag: str
    utility_auc: float
    utility_acc: float
    mia_auc: float
    mia_acc: float
    parameters_modified: int | None = None
    algorithm_config: dict | None = None
    wall_time_seconds: float | None = None
    rtrr: float | None = None

    def stable_dict(self) -> dict:
        """The deterministic fields: all but the wall time and RTRR."""
        row = dataclasses.asdict(self)
        del row["wall_time_seconds"], row["rtrr"]
        return row


@dataclass
class ExperimentReport:
    config: dict
    seeds: dict
    entries: list[ModelEntry]
    stages: list[str]
    schema_version: int = SCHEMA_VERSION
    software_version: str = VERSION

    def entry(self, tag: str) -> ModelEntry:
        for e in self.entries:
            if e.tag == tag:
                return e
        raise KeyError(tag)

    def stable_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "software_version": self.software_version,
            "seeds": self.seeds,
            "config": self.config,
            "stages": self.stages,
            "models": [e.stable_dict() for e in self.entries],
        }

    def timing_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "models": {
                e.tag: {"wall_time_seconds": e.wall_time_seconds, "rtrr": e.rtrr}
                for e in self.entries
            },
        }

    def save(self, out_dir: str) -> None:
        _write_json(os.path.join(out_dir, "report.json"), self.stable_dict())
        _write_json(os.path.join(out_dir, "timing.json"), self.timing_dict())


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def derived_data_seeds(seed_data: int) -> tuple[int, int]:
    """Independent child seeds for the record split and the student draw."""
    a, b = np.random.SeedSequence(seed_data).generate_state(2)
    return int(a), int(b)


def prepare_data(
    config: ExperimentConfig,
) -> tuple[Dataset, RecordSplit, StudentPartition, MiaSplits]:
    """Load the dataset and derive all record/student partitions for a config."""
    with _stage("load-data"):
        for path in (config.responses_path, config.qmatrix_path):
            if not os.path.exists(path):
                raise FileNotFoundError(path)
        dataset = load_responses(config.responses_path).with_qmatrix(
            load_qmatrix(config.qmatrix_path)
        )
    with _stage("partition"):
        split_seed, part_seed = derived_data_seeds(config.seed_data)
        split = split_records(dataset, config.split_ratios, seed=split_seed)
        partition = partition_students(dataset, config.unlearn_ratio, seed=part_seed)
        mia_splits = derive_mia_subsets(partition, split)
    return dataset, split, partition, mia_splits


@dataclass
class ExperimentContext:
    """Everything shared by evaluations of different unlearning algorithms."""

    config: ExperimentConfig
    dataset: Dataset
    split: RecordSplit
    partition: StudentPartition
    mia_splits: MiaSplits
    m_orig: CDModel
    m_retrain: CDModel
    t_orig_seconds: float
    t_retrain_seconds: float
    attacker: LogisticAttacker
    orig_entry: ModelEntry
    retrain_entry: ModelEntry
    stages: list[str]

    def utility(self, model: CDModel) -> tuple[float, float]:
        """AUC and ACC on the retain students' test records."""
        records = self.mia_splits.retain_test
        probs = model.predict_proba(records)
        return metrics.auc(probs, records.scores), metrics.acc(probs, records.scores)

    def entry_for(
        self, tag: str, model: CDModel, unlearn_report: UnlearnReport | None = None
    ) -> ModelEntry:
        splits = self.mia_splits
        utility_auc, utility_acc = self.utility(model)
        mia_report = evaluate_attack(self.attacker, model, splits.forget_test, splits.nm_eval_test)
        entry = ModelEntry(
            tag=tag,
            utility_auc=utility_auc,
            utility_acc=utility_acc,
            mia_auc=mia_report.mia_auc,
            mia_acc=mia_report.mia_acc,
        )
        if unlearn_report is not None:
            entry.parameters_modified = unlearn_report.parameters_modified
            entry.algorithm_config = unlearn_report.config
            entry.wall_time_seconds = unlearn_report.wall_time_seconds
            entry.rtrr = metrics.rtrr(
                unlearn_report.wall_time_seconds, self.t_retrain_seconds
            )
        return entry


def fit_attacker(m_orig: CDModel, splits: MiaSplits, seed: int) -> LogisticAttacker:
    """The attack classifier, fit on ``m_orig``'s outputs for the forget-test
    members and the non-member training group."""
    members = extract_features(m_orig, splits.forget_test, group="forget_test")
    nonmembers = extract_features(m_orig, splits.nm_train_test, group="nm_train_test")
    return train_attacker(members, nonmembers, seed=seed)


def _fit_worker(conn, kwargs: dict, cpus: int) -> None:
    """Worker process: send the model ``train(**kwargs)`` fits, or the
    exception it raised, over ``conn``. The fit's threads fill at most
    ``cpus`` CPUs (:func:`nn.cpu_share`)."""
    try:
        with nn.cpu_share(cpus):
            model, _ = train(**kwargs)
        conn.send(model)
    except Exception as exc:  # noqa: BLE001 - the parent raises it in its stage
        conn.send(exc)
    finally:
        conn.close()


def _fit_baselines(fit: dict, orig_records, retain_records) -> tuple[CDModel, CDModel]:
    """``(m_orig, m_retrain)``: the models ``train(**fit)`` fits on
    ``orig_records`` and on ``retain_records``, each fit failing in its stage,
    ``train-original`` or ``train-retrain``.

    When the usable CPUs number at least twice NumPy's BLAS threads, the
    retrain starts first, in a spawned worker process (forking a process that
    holds BLAS threads is unsafe), and the original fits meanwhile in this
    one; the worker's threads (:func:`nn.adam_threads`,
    :func:`nn.sq_sum_threads`, :func:`nn.predict_threads`) fill half of the
    CPUs, rounded down, and this process's the rest (:func:`nn.cpu_share`).
    The worker sends back its fitted model or its exception, which is raised
    here as itself; on every exit the worker is stopped, if it still runs,
    and joined.
    Otherwise both fit here, the original first, on every CPU: with one CPU,
    with BLAS threads that would contend for the CPUs (OpenBLAS's idle
    threads spin), or with a BLAS that cannot be asked.
    """
    blas_threads, cpus = nn.blas_threads(), nn.usable_cpus()
    if blas_threads is None or cpus < 2 * blas_threads:
        with _stage("train-original"):
            m_orig, _ = train(train_records=orig_records, **fit)
        with _stage("train-retrain"):
            m_retrain, _ = train(train_records=retain_records, **fit)
        return m_orig, m_retrain
    spawn = multiprocessing.get_context("spawn")
    receiver, sender = spawn.Pipe(duplex=False)
    worker = spawn.Process(
        target=_fit_worker, args=(sender, {**fit, "train_records": retain_records}, cpus // 2)
    )
    with receiver:
        with _stage("train-retrain"):
            try:
                worker.start()
            finally:
                sender.close()
        try:
            with _stage("train-original"), nn.cpu_share(cpus - cpus // 2):
                m_orig, _ = train(train_records=orig_records, **fit)
            with _stage("train-retrain"):
                try:
                    m_retrain = receiver.recv()
                except EOFError:
                    worker.join()
                    raise RuntimeError(
                        f"the fit worker exited with code {worker.exitcode} and no result"
                    ) from None
                if isinstance(m_retrain, BaseException):
                    raise m_retrain
            return m_orig, m_retrain
        finally:
            # Once it has sent, the worker has nothing left to do; before,
            # its result is no longer wanted.
            worker.terminate()
            worker.join()


def build_context(config: ExperimentConfig) -> ExperimentContext:
    """Run the shared pipeline stages once: data, both baseline models, attacker.

    The retrained model's fit runs in a worker process while the original
    model trains, when the CPUs allow it, each fit on its share of the CPUs
    (see :func:`_fit_baselines`); both paths give the same bits, and each
    fit's ``fit_seconds_`` is its own wall time.
    """
    stages: list[str] = []
    dataset, split, partition, mia_splits = prepare_data(config)
    stages += ["load-data", "partition"]
    qmatrix = dataset.qmatrix
    assert qmatrix is not None

    fit = dict(
        arch_config=config.architecture,
        valid_records=None,
        qmatrix=qmatrix,
        train_config=config.training,
        seed=config.seed_model,
        n_students=dataset.n_students,
        n_items=dataset.n_items,
    )
    orig_records = (
        mia_splits.forget_train
        + mia_splits.retain_train
        + mia_splits.forget_valid
        + mia_splits.retain_valid
    )
    m_orig, m_retrain = _fit_baselines(fit, orig_records, mia_splits.retain_train_valid)
    t_orig, t_retrain = m_orig.fit_seconds_, m_retrain.fit_seconds_
    stages += ["train-original", "train-retrain"]

    with _stage("train-attacker"):
        attacker = fit_attacker(m_orig, mia_splits, config.seed_attack)
    stages.append("train-attacker")

    ctx = ExperimentContext(
        config=config,
        dataset=dataset,
        split=split,
        partition=partition,
        mia_splits=mia_splits,
        m_orig=m_orig,
        m_retrain=m_retrain,
        t_orig_seconds=t_orig,
        t_retrain_seconds=t_retrain,
        attacker=attacker,
        orig_entry=None,  # type: ignore[arg-type]
        retrain_entry=None,  # type: ignore[arg-type]
        stages=stages,
    )
    with _stage("evaluate-baselines"):
        ctx.orig_entry = ctx.entry_for("m_orig", m_orig)
        ctx.orig_entry.wall_time_seconds = t_orig
        ctx.retrain_entry = ctx.entry_for("m_retrain", m_retrain)
        ctx.retrain_entry.wall_time_seconds = t_retrain
    stages.append("evaluate-baselines")
    return ctx


def run_algorithm(
    model: CDModel, splits: MiaSplits, name: str, params: dict, seed: int
) -> tuple[CDModel, UnlearnReport]:
    """Unlearn the forget students of ``splits`` from ``model`` by the entry's
    ``run`` on :func:`resolve_params` parameters, an unset seed defaulting to ``seed``."""
    spec = _algorithm(name)
    return spec.run(model, splits.forget_train_valid, splits.retain_train_valid,
                    _seeded(spec, params, seed))


def apply_algorithm(
    ctx: ExperimentContext, name: str, params: dict
) -> tuple[CDModel, UnlearnReport]:
    """Run one unlearning algorithm end to end on the context's original model."""
    return run_algorithm(ctx.m_orig, ctx.mia_splits, name, params, ctx.config.seed_model)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full pipeline and write report, timing, and checkpoints."""
    os.makedirs(config.out_dir, exist_ok=True)
    status_path = os.path.join(config.out_dir, "status.json")
    _write_json(status_path, {"status": "running"})
    try:
        ctx = build_context(config)
        entries = [ctx.orig_entry, ctx.retrain_entry]
        data = config.data_record()
        ctx.m_orig.save(os.path.join(config.out_dir, "m_orig.ckpt"), data)
        ctx.m_retrain.save(os.path.join(config.out_dir, "m_retrain.ckpt"), data)
        for name, params in config.algorithms.items():
            with _stage(f"unlearn-{name}"):
                model, ureport = apply_algorithm(ctx, name, params)
            ctx.stages.append(f"unlearn-{name}")
            with _stage(f"evaluate-{name}"):
                entries.append(ctx.entry_for(name, model, ureport))
                model.save(os.path.join(config.out_dir, f"{name}.ckpt"), data)
            ctx.stages.append(f"evaluate-{name}")
        report = ExperimentReport(
            config=config.to_dict(),
            seeds={
                "data": config.seed_data,
                "model": config.seed_model,
                "attack": config.seed_attack,
            },
            entries=entries,
            stages=ctx.stages,
        )
        report.save(config.out_dir)
        _write_json(status_path, {"status": "complete"})
        return report
    except BaseException as exc:
        stage = exc.stage if isinstance(exc, StageError) else "unknown"
        _write_json(status_path, {"status": "failed", "stage": stage})
        raise


@dataclass
class SweepPoint:
    algorithm: str
    params: dict
    utility_auc: float
    utility_acc: float
    mia_auc: float
    mia_acc: float
    parameters_modified: int
    mia_gap: float
    feasible: bool


@dataclass
class SweepResult:
    points: list[SweepPoint]
    best: SweepPoint | None
    best_entry: ModelEntry | None
    orig_utility_auc: float
    retrain_mia_auc: float
    epsilon_utility: float

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "software_version": VERSION,
            "orig_utility_auc": self.orig_utility_auc,
            "retrain_mia_auc": self.retrain_mia_auc,
            "epsilon_utility": self.epsilon_utility,
            "points": [dataclasses.asdict(p) for p in self.points],
            "best": dataclasses.asdict(self.best) if self.best else None,
            "best_full_run": self.best_entry.stable_dict() if self.best_entry else None,
        }

    def timing_dict(self) -> dict:
        """The best-point re-run's wall time and RTRR, kept out of :meth:`to_dict`
        so that reruns write the same ``sweep.json``."""
        entry = self.best_entry
        return {
            "schema_version": SCHEMA_VERSION,
            "best_full_run": None if entry is None else {
                "wall_time_seconds": entry.wall_time_seconds, "rtrr": entry.rtrr
            },
        }


def sweep(
    config: ExperimentConfig,
    grids: dict[str, list[dict]] | None = None,
    epsilon_utility: float = 0.01,
    ctx: ExperimentContext | None = None,
) -> SweepResult:
    """Grid-search unlearning hyperparameters over a shared trained context.

    Every grid point goes through :func:`resolve_params` before anything is
    trained, and ``grids`` must map algorithms of ``config.algorithms`` to
    lists of parameter objects; else :class:`ConfigError`. The models and
    the attacker are trained once. Points whose entries have the same
    ``estimate`` and ``family`` key (the seed defaulting as in
    :func:`run_algorithm`) share one estimate call, and each then runs one
    :func:`attenuate`, a pure function that gives the bits
    :func:`apply_algorithm` would; every other point runs through
    :func:`apply_algorithm`. ``points`` keeps grid order. A point is
    feasible when its utility AUC is within ``epsilon_utility`` (not NaN) of
    the original model's. The feasible point whose attack AUC is nearest the
    retrained model's is re-run through :func:`apply_algorithm` for its wall
    time (:meth:`SweepResult.timing_dict`). The sweep ends by handing freed
    heap pages back to the system (:func:`nn.trim_heap`): at 10,000
    students, 20-30 MB that the C library would keep resident.
    """
    if not _number(epsilon_utility) or np.isnan(epsilon_utility):
        raise ConfigError(f"epsilon_utility must be a number, got {epsilon_utility!r}")
    grids = {} if grids is None else grids
    if not isinstance(grids, dict) or not all(
        isinstance(grid, list) and all(isinstance(point, dict) for point in grid)
        for grid in grids.values()
    ):
        raise ConfigError("a sweep grid maps each algorithm to a list of parameter objects")
    unknown = sorted(set(grids) - set(config.algorithms))
    if unknown:
        raise ConfigError(f"grid names algorithms {unknown} that the config does not run")
    requests: list[tuple[str, dict]] = []  # (algorithm, resolved point), in grid order
    for name, base in config.algorithms.items():
        grid = grids.get(name, default_grid(name))
        if not grid:
            raise ConfigError(f"empty grid for algorithm {name!r}")
        requests += [(name, resolve_params(name, {**base, **point}, config.architecture))
                     for point in grid]
    if ctx is None:
        ctx = build_context(config)
    families: dict[tuple, dict[int, dict]] = {}  # (estimate, key) -> request index -> point
    for i, (name, params) in enumerate(requests):
        spec = ALGORITHMS[name]
        if spec.estimate is not None:
            seeded = _seeded(spec, params, ctx.config.seed_model)
            families.setdefault((spec.estimate, spec.family(seeded)), {})[i] = seeded
    pairs = {}  # request index -> its (forget, retain) importance pair
    splits = ctx.mia_splits
    for (estimate, _), family in families.items():
        # The record sets are built per estimate, not held through the point
        # loop: at 10k students the retain set is megabytes.
        pairs.update(zip(family, estimate(ctx.m_orig, splits.forget_train_valid,
                                          splits.retain_train_valid, list(family.values()))))

    retrain_mia = ctx.retrain_entry.mia_auc
    orig_auc = ctx.orig_entry.utility_auc
    points: list[SweepPoint] = []
    for i, (name, params) in enumerate(requests):
        if i in pairs:
            model, n_modified = attenuate(ctx.m_orig, *pairs[i], _hif_config(params))
        else:
            model, ureport = apply_algorithm(ctx, name, params)
            n_modified = ureport.parameters_modified
        entry = ctx.entry_for(name, model)
        points.append(
            SweepPoint(
                algorithm=name,
                params=params,
                utility_auc=entry.utility_auc,
                utility_acc=entry.utility_acc,
                mia_auc=entry.mia_auc,
                mia_acc=entry.mia_acc,
                parameters_modified=int(n_modified),
                mia_gap=abs(entry.mia_auc - retrain_mia),
                feasible=entry.utility_auc >= orig_auc - epsilon_utility,
            )
        )

    feasible = [p for p in points if p.feasible]
    best = min(feasible, key=lambda p: p.mia_gap) if feasible else None
    best_entry = None
    if best is not None:
        model, ureport = apply_algorithm(ctx, best.algorithm, best.params)
        best_entry = ctx.entry_for(best.algorithm, model, ureport)
    nn.trim_heap()
    return SweepResult(
        points=points,
        best=best,
        best_entry=best_entry,
        orig_utility_auc=orig_auc,
        retrain_mia_auc=retrain_mia,
        epsilon_utility=epsilon_utility,
    )


def export_profiles(model: CDModel, student_ids: Sequence[int]) -> list[tuple[int, int, float]]:
    """Rows of (student_id, kc_index, proficiency) for the requested students."""
    rows = []
    for sid in student_ids:
        vector = model.proficiency(int(sid))
        rows.extend((int(sid), k, float(v)) for k, v in enumerate(vector))
    return rows


def write_profiles_csv(model: CDModel, student_ids: Sequence[int], path: str) -> None:
    rows = export_profiles(model, student_ids)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["student_id", "kc_index", "proficiency"])
        writer.writerows(rows)
