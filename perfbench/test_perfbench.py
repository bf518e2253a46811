"""Self-tests of the benchmark at a tiny scale.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from cdunlearn import unlearn  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """Run the command at the tiny scale; returns (exit code, last line, record)."""
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))

    def go(workload, seed, trace=0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(
                ["--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace)],
                scale=workloads.TINY,
            )
        line = json.loads(out.getvalue().strip().splitlines()[-1])
        path = tmp_path / "results" / f"{workload}-seed{seed}-trace{trace}.json"
        return code, line, json.loads(path.read_text())

    return go


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(bench, workload, trace, kind):
    code, line, _ = bench(workload, seed=5, trace=trace)
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())


def test_injected_nonfinite_parameter_is_caught_and_counted(bench, monkeypatch):
    honest = unlearn.hif_unlearn

    def poisoned(model, forget, retain, config):
        forgot, report = honest(model, forget, retain, config)
        forgot.params_["kc_emb"][0, 0] = np.nan
        return forgot, report

    monkeypatch.setattr(unlearn, "hif_unlearn", poisoned)
    code, line, record = bench("deletions-m", seed=5)
    assert code == 1
    assert not line["correct"] and line["metrics"] == {}
    assert line["failed"] == workloads.TINY.m_requests
    assert all("hif: non-finite parameters" in what for what in record["failures"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_two_runs_with_one_seed_give_one_digest(bench, workload):
    first = bench(workload, seed=3)[2]["digest"]
    second = bench(workload, seed=3)[2]["digest"]
    assert first == second


@pytest.mark.parametrize("workload", NAMES)
def test_an_unused_seed_passes_every_check(bench, workload):
    code, line, record = bench(workload, seed=90210)
    assert code == 0 and line["correct"], record["failures"]
