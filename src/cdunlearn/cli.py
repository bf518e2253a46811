"""Command-line interface.

Exit codes: 0 success, 1 configuration/validation error (including a malformed
checkpoint), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import metrics, synth
from .data import DataFormatError, DataValidationError, Dataset
from .experiment import (
    ALGORITHM_NAMES,
    ConfigError,
    ExperimentConfig,
    StageError,
    _write_json,
    fit_attacker,
    load_config,
    prepare_data,
    run_algorithm,
    run_experiment,
    sweep,
    write_profiles_csv,
)
from .mia import evaluate_attack
from .model import CDModel, train
from .serialize import ContainerError
from .shrinkage import optimal_beta, simulate_mse


def _add_common(parser: argparse.ArgumentParser, needs_config: bool = True) -> None:
    parser.add_argument("--config", required=needs_config, help="experiment config JSON")
    parser.add_argument("--out", help="output directory (overrides config out_dir)")
    parser.add_argument("--seed-data", type=int, help="override data seed")
    parser.add_argument("--seed-model", type=int, help="override model seed")
    parser.add_argument("--seed-attack", type=int, help="override attack seed")


def _add_algo(parser: argparse.ArgumentParser, verb: str) -> None:
    parser.add_argument(
        "--algo",
        action="append",
        choices=ALGORITHM_NAMES,
        help=f"algorithm to {verb} (repeatable; default: config algorithms)",
    )


def _load_effective_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    overrides = {
        key: getattr(args, key)
        for key in ("seed_data", "seed_model", "seed_attack")
        if getattr(args, key) is not None
    }
    if args.out:
        overrides["out_dir"] = os.path.abspath(args.out)
    if getattr(args, "algo", None):
        overrides["algorithms"] = {name: config.algorithms.get(name, {}) for name in args.algo}
    return dataclasses.replace(config, **overrides)


def _load_for(path: str, dataset: Dataset, config: ExperimentConfig) -> CDModel:
    """The checkpoint at ``path``; :class:`ConfigError` unless it was trained
    on the config's student and item counts, Q-matrix and data partition."""
    model = CDModel.load(path)
    if (model.n_students_, model.n_items_) != (dataset.n_students, dataset.n_items):
        raise ConfigError(
            f"{path}: the model was trained on {model.n_students_} students and "
            f"{model.n_items_} items, the config's data has {dataset.n_students} and "
            f"{dataset.n_items}"
        )
    if not np.array_equal(model.qmatrix_.entries, dataset.qmatrix.entries):
        raise ConfigError(f"{path}: the model's Q-matrix differs from the config's")
    if model.data_ != config.data_record():  # None when the checkpoint records none
        raise ConfigError(
            f"{path}: the checkpoint records the data partition {model.data_}, the config's "
            f"is {config.data_record()}"
        )
    return model


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_effective_config(args)
    dataset, split, _, _ = prepare_data(config)
    model, seconds = train(
        config.architecture,
        split.train,
        split.valid,
        dataset.qmatrix,
        config.training,
        seed=config.seed_model,
        n_students=dataset.n_students,
        n_items=dataset.n_items,
    )
    probs = model.predict_proba(split.test)
    y = split.test.scores
    summary = {
        "test_auc": metrics.auc(probs, y),
        "test_acc": metrics.acc(probs, y),
        "epochs_run": model.epochs_run_,
    }
    timing = {"train_seconds": seconds}
    os.makedirs(config.out_dir, exist_ok=True)
    model.save(os.path.join(config.out_dir, "trained_model.ckpt"), config.data_record())
    _write_json(os.path.join(config.out_dir, "train_summary.json"), summary)
    _write_json(os.path.join(config.out_dir, "train_timing.json"), timing)
    print(json.dumps({**summary, **timing}, indent=2, sort_keys=True))
    return 0


def _cmd_unlearn(args: argparse.Namespace) -> int:
    config = _load_effective_config(args)
    dataset, _, _, mia_splits = prepare_data(config)
    model = _load_for(args.model, dataset, config)
    os.makedirs(config.out_dir, exist_ok=True)
    results, timing = {}, {}
    for name, params in config.algorithms.items():
        unlearned, report = run_algorithm(model, mia_splits, name, params, config.seed_model)
        unlearned.save(os.path.join(config.out_dir, f"{name}.ckpt"), config.data_record())
        results[name] = {"parameters_modified": report.parameters_modified, "config": report.config}
        timing[name] = {"wall_time_seconds": report.wall_time_seconds}
    _write_json(os.path.join(config.out_dir, "unlearn_report.json"), results)
    _write_json(os.path.join(config.out_dir, "unlearn_timing.json"), timing)
    print(json.dumps({k: {**v, **timing[k]} for k, v in results.items()}, indent=2, sort_keys=True))
    return 0


def _cmd_mia(args: argparse.Namespace) -> int:
    config = _load_effective_config(args)
    dataset, _, _, mia_splits = prepare_data(config)
    orig = _load_for(args.orig_model, dataset, config)
    target = _load_for(args.model, dataset, config)
    attacker = fit_attacker(orig, mia_splits, config.seed_attack)
    report = evaluate_attack(attacker, target, mia_splits.forget_test, mia_splits.nm_eval_test)
    payload = {
        "model": os.path.basename(args.model),
        "mia_auc": report.mia_auc,
        "mia_acc": report.mia_acc,
        "n_member_eval": report.n_member_eval,
        "n_nonmember_eval": report.n_nonmember_eval,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "mia.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_effective_config(args)
    report = run_experiment(config)
    print(json.dumps(report.stable_dict()["models"], indent=2, sort_keys=True))
    print(f"report written to {config.out_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_effective_config(args)
    grids = None
    if args.grid:
        try:
            with open(args.grid) as f:
                grids = json.load(f)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ConfigError(f"{args.grid}: not a JSON grid: {exc}") from None
    result = sweep(config, grids=grids, epsilon_utility=args.epsilon_utility)
    os.makedirs(config.out_dir, exist_ok=True)
    _write_json(os.path.join(config.out_dir, "sweep.json"), result.to_dict())
    _write_json(os.path.join(config.out_dir, "sweep_timing.json"), result.timing_dict())
    best = result.to_dict()["best"]
    print(json.dumps({"points": len(result.points), "best": best}, indent=2, sort_keys=True))
    return 0


def _cmd_simulate_shrinkage(args: argparse.Namespace) -> int:
    try:
        betas = [round(0.05 * i, 2) for i in range(21)]
        if args.betas:
            betas = [float(b) for b in args.betas.split(",")]
        means = np.zeros(args.p)
        if args.means:
            means = np.array([float(m) for m in args.means.split(",")])
        if means.shape != (args.p,):
            raise ValueError(f"--means must supply exactly {args.p} values")
        rows = simulate_mse(args.p, means, args.sigma, betas, args.trials, args.seed)
        sum_sq_dev = float(np.square(means - means.mean()).sum())
        best = optimal_beta(args.p, sum_sq_dev, args.sigma**2)
    except ValueError as exc:  # an unparsable list or a value out of range
        raise ConfigError(f"simulate-shrinkage: {exc}") from None
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", newline="") as f:
            writer = csv.DictWriter(f, list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(json.dumps(rows, indent=2))
    print(f"optimal beta: {best:.6f}")
    return 0


def _cmd_export_profiles(args: argparse.Namespace) -> int:
    model = CDModel.load(args.model)
    try:
        student_ids = [int(s) for s in args.students.split(",")]
    except ValueError:
        raise ConfigError(f"--students takes comma-separated ids, got {args.students!r}") from None
    unknown = [s for s in student_ids if not 0 <= s < model.n_students_]
    if unknown:
        raise ConfigError(f"--students {unknown} not in the model's {model.n_students_} students")
    write_profiles_csv(model, student_ids, args.out)
    print(f"wrote profiles for {len(student_ids)} students to {args.out}")
    return 0


def _cmd_make_synthetic(args: argparse.Namespace) -> int:
    try:
        dataset = synth.generate_dataset(
            n_students=args.students,
            n_items=args.items,
            n_kcs=args.kcs,
            seed=args.seed,
            student_scale=args.student_scale,
            item_scale=args.item_scale,
        )
    except ValueError as exc:  # a count, scale or seed out of range
        raise ConfigError(f"make-synthetic: {exc}") from None
    responses = os.path.join(args.out, "responses.csv")
    qmatrix = os.path.join(args.out, "qmatrix.csv")
    os.makedirs(args.out, exist_ok=True)
    synth.write_dataset_csv(dataset, responses, qmatrix)
    print(
        f"wrote {len(dataset.records)} records for {dataset.n_students} students "
        f"to {responses}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdunlearn",
        description=(
            "Train cognitive-diagnosis models, forget selected students, and "
            "audit the result with a membership-inference attack."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on the standard split")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("unlearn", help="apply unlearning algorithms to a checkpoint")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint of the model to unlearn")
    _add_algo(p, "run")
    p.set_defaults(func=_cmd_unlearn)

    p = sub.add_parser("mia", help="attack a model with a classifier trained on another")
    _add_common(p)
    p.add_argument("--orig-model", required=True, help="checkpoint the attacker learns from")
    p.add_argument("--model", required=True, help="checkpoint under attack")
    p.set_defaults(func=_cmd_mia)

    p = sub.add_parser("run", help="full pipeline: train, unlearn, attack, report")
    _add_common(p)
    _add_algo(p, "run")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid-search unlearning hyperparameters")
    _add_common(p)
    _add_algo(p, "sweep")
    p.add_argument("--grid", help="JSON file mapping algorithm -> list of param dicts")
    p.add_argument(
        "--epsilon-utility",
        type=float,
        default=0.01,
        help="max utility-AUC drop from the original model for a feasible point",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate-shrinkage", help="Monte-Carlo shrinkage error sweep")
    p.add_argument("--p", type=int, default=50, help="layer size")
    p.add_argument("--sigma", type=float, default=1.0, help="noise standard deviation")
    p.add_argument("--means", help="comma-separated true values (default all zero)")
    p.add_argument("--betas", help="comma-separated shrink weights (default 0..1 by 0.05)")
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_simulate_shrinkage)

    p = sub.add_parser("export-profiles", help="dump per-KC proficiency vectors to CSV")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--students", required=True, help="comma-separated student ids")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_export_profiles)

    p = sub.add_parser("make-synthetic", help="generate a planted-skill dataset")
    p.add_argument("--students", type=int, default=536)
    p.add_argument("--items", type=int, default=20)
    p.add_argument("--kcs", type=int, default=8)
    p.add_argument("--student-scale", type=float, default=4.4)
    p.add_argument("--item-scale", type=float, default=2.6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_make_synthetic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, ContainerError, DataFormatError, DataValidationError, FileNotFoundError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failure surface
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
