"""cdunlearn benchmark: one command for every end-to-end metric.

    python3 perfbench/run.py --workload pipeline-s --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from the checkout's
``src/``; the command exits 2 without a result when it is not there. The
workload seed makes the inputs, so one seed always gives the same inputs and
the same digest of deterministic outputs.

``--trace 0`` sets up ``setups`` times (``setup_s`` is the median), runs the
workload once and prints every end-to-end metric with its unit.
``--trace 1`` sets up once, runs the workload untraced, then again with
spans around the public functions of every module, and prints the per-layer
metrics: self time per layer, counts, the part of the traced run left to the
benchmark's own code, and the tracing overhead (traced minus untraced
``run_s``).

A run measures for at least ``--seconds``: after its fixed work it keeps
serving deletion requests until that much time has passed. ``run_s`` covers
the fixed work only, so it stays comparable when the extension kicks in.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed check (a
non-finite parameter or prediction, a result outside its expected range)
counts as a failed operation and the command exits 1. Everything else —
the machine record, tail latencies, RTRR, the digest and the failures — is
printed above it and written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

BLAS_THREADS = 1  # at or below nproc; one thread keeps run-to-run spread low
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")

UNITS = {
    "setup_s": "s", "run_s": "s", "train_records_per_s": "records/s",
    "delete_s_p50": "s", "audit_s_p50": "s", "sweep_s": "s",
    "utility_auc": "AUC", "mia_auc": "AUC", "peak_rss_mb": "MB",
}
# Per-layer metrics: self time of each traced layer, then counts.
LAYER_SPANS = (
    "nn.sigmoid", "nn.optimizer_step", "nn.forward", "nn.backward",
    "nn.accumulate_sq_grads", "model.fit", "model.predict",
    "importance.fim_forget", "importance.fim_retain", "importance.hutchinson",
    "data.records_to_arrays", "data.load", "data.partition",
    "unlearn.hif", "unlearn.fim", "unlearn.gradasc", "unlearn.hessian",
    "unlearn.select_attenuate", "mia.extract_features", "mia.evaluate",
    "mia.attacker_fit", "metrics.auc", "serialize.save",
    "experiment.build_context", "experiment.sweep",
    "synth.generate", "synth.write_csv",
)
# Cross-checks against earlier single profiled runs: (inner, outer) span pairs.
SHARES = (
    ("nn.sigmoid", "model.fit"),
    ("nn.optimizer_step", "model.fit"),
    ("importance.fim_retain", "unlearn.hif"),
    ("nn.accumulate_sq_grads", "unlearn.hif"),
    ("data.records_to_arrays", "unlearn.hif"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pipeline-s", "deletions-m"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def import_program():
    """Import cdunlearn from this checkout's src/ and nowhere else."""
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["MKL_NUM_THREADS"] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cdunlearn", "__init__.py")):
        raise ImportError(f"no cdunlearn package under {src}")
    sys.path.insert(0, src)
    import cdunlearn

    if os.path.dirname(os.path.dirname(os.path.abspath(cdunlearn.__file__))) != src:
        raise ImportError(f"cdunlearn imported from {cdunlearn.__file__}, not {src}")
    return cdunlearn


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "platform": platform.platform(),
    }


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n - math.ceil(round(p * n / 100, 9)) >= 10:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g}={value:.6g} s (n={n})"
    return f"no percentile has ten samples beyond it (n={n})"


def layer_metrics(tracer, outcome, untraced_run_s: float) -> dict[str, tuple[float, str]]:
    from cdunlearn import experiment

    table = tracer.layers()

    def row(name):
        return table.get(name, {"self_s": 0.0, "calls": 0, "counts": {}})

    def count(name, key):
        return row(name)["counts"].get(key, 0)

    out = {f"{name}_s": (row(name)["self_s"], "s") for name in LAYER_SPANS}
    params = outcome.extra["params"]
    out.update({
        "nn.sigmoid_calls": (row("nn.sigmoid")["calls"], "count"),
        "nn.optimizer_step_calls": (row("nn.optimizer_step")["calls"], "count"),
        "nn.params": (params, "count"),
        # computed, not measured: Adam reads p, g, m, v and writes p, m, v
        "nn.adam_bytes_per_step": (7 * 8 * params, "B"),
        "model.fit_epochs": (count("model.fit", "epochs"), "count"),
        "model.fit_batches": (count("model.fit", "batches"), "count"),
        "model.predict_rows": (count("model.predict", "rows"), "count"),
        "importance.fisher_records_per_delete": (
            outcome.extra["fisher_records_per_delete"], "count"),
        "data.records_to_arrays_rows": (count("data.records_to_arrays", "rows"), "count"),
        "unlearn.params_modified": (outcome.extra["parameters_modified"], "count"),
        "metrics.auc_calls": (row("metrics.auc")["calls"], "count"),
        "serialize.bytes_written": (count("serialize.save", "bytes"), "B"),
        "experiment.sweep_points": (count("experiment.sweep", "points"), "count"),
    })
    for name in experiment.ALGORITHM_NAMES:  # 0 where the workload does not run it
        out[f"unlearn.rtrr_{name}"] = (outcome.extra["rtrr"].get(name, 0.0), "%")
    bench_self = sum(
        s for span, s in zip(tracer.spans, tracer.self_times())
        if span.name in ("bench.run", "bench.request")
    )
    out.update({
        "trace.run_s": (outcome.metrics["run_s"], "s"),
        "trace.overhead_s": (outcome.metrics["run_s"] - untraced_run_s, "s"),
        "trace.unattributed_s": (bench_self, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return out


def run(args, scale) -> tuple[dict, int]:
    """Run one workload; returns the result line and the exit code."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](scale)
    workdir = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    ledger = workloads.Ledger()
    record = {"machine": machine_record(args.workload, args.seed), "trace": args.trace}
    metrics: dict[str, tuple[float, str]] = {}
    try:
        if args.trace == 0:
            setup_s, inputs = [], None
            for _ in range(workload.setups):
                inputs = None  # let the previous inputs go before building the next
                workloads.settle()
                t = time.perf_counter()
                inputs = workload.setup(args.seed, workdir)
                setup_s.append(time.perf_counter() - t)
            outcome = workload.run(inputs, args.seconds, ledger, tracing.Tracer())
            metrics["setup_s"] = (statistics.median(setup_s), "s")
            for name, value in outcome.metrics.items():
                metrics[name] = (value, UNITS[name])
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            record["setup_s_samples"] = setup_s
        else:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                with tracer.span("bench.setup"):
                    inputs = workload.setup(args.seed, workdir)
            untraced = workload.run(inputs, args.seconds, ledger, tracing.Tracer())
            with tracing.instrument(tracer):
                with tracer.span("bench.run"):
                    outcome = workload.run(inputs, args.seconds, ledger, tracer)
            ledger.check("traced run", outcome.digest() == untraced.digest(),
                         "tracing leaves the outputs unchanged")
            metrics = layer_metrics(tracer, outcome, untraced.metrics["run_s"])
            record["shares"] = {f"{a} in {b}": tracer.share(a, b) for a, b in SHARES}
            record["layers"] = tracer.layers()
            tracer.write(os.path.join(WORKDIR, "results",
                                      f"{args.workload}-seed{args.seed}-spans.json"))
    except Exception:  # noqa: BLE001 - report the failure as a failed operation
        traceback.print_exc()
        ledger.fail("exception", traceback.format_exc(limit=1).strip().splitlines()[-1])
        outcome = None

    if outcome is not None:
        record.update({
            "digest": outcome.digest(),
            "outputs": outcome.outputs,
            "extra": outcome.extra,
            "delete_s": outcome.delete_s,
            "audit_s": outcome.audit_s,
        })
    record["failures"] = ledger.failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    _report(args, record, ledger, outcome)
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    path = os.path.join(WORKDIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    correct = ledger.failed == 0 and outcome is not None
    line = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": record["metrics"] if correct else {},
    }
    return line, 0 if correct else 1


def _recorded_digest(workload: str, seed: int):
    try:
        with open(os.path.join(HERE, "baseline.json")) as f:
            return json.load(f)["digests"][workload].get(str(seed))
    except (OSError, KeyError, ValueError):
        return None


def _report(args, record, ledger, outcome) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6f} {m['unit']}")
    fail_ratio = ledger.failed / max(ledger.attempted, 1)
    print(f"  {'fail_ratio':40s} {fail_ratio:>16.6f} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    if outcome is not None:
        print(f"  delete_s tail: {tail(outcome.delete_s)}")
        print(f"  audit_s tail:  {tail(outcome.audit_s)}")
        for name, value in outcome.extra["rtrr"].items():
            print(f"  rtrr_{name} (not gated): {value:.3f} %")
        if "hif_utility_drop" in outcome.extra:
            print(f"  utility_auc(m_orig) - utility_auc(hif) (not checked at S): "
                  f"{outcome.extra['hif_utility_drop']:.4f}")
        recorded = _recorded_digest(args.workload, args.seed)
        verdict = ("no recorded digest for this seed" if recorded is None
                   else "matches the recorded digest" if recorded == record["digest"]
                   else "DIFFERS from the recorded digest")
        print(f"  digest {record['digest']} ({verdict})")
    for share, value in record.get("shares", {}).items():
        print(f"  share {share}: {'n/a' if value is None else f'{100 * value:.1f} %'}")
    for op, what in ledger.failures.items():
        print(f"  FAILED {op}: {'; '.join(what)}")


def main(argv=None, scale=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    line, code = run(args, scale or workloads.FULL)
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())
