"""Summarise result files into the recorded baseline.

    python3 perfbench/baseline.py .perfbench/results/*.json > perfbench/baseline.json

For each workload: the median and quartiles (``statistics.quantiles(n=4)``)
of every end-to-end metric over the untraced runs, the digest of each seed,
and the per-layer metrics and time shares of the traced runs. ``run.py``
compares each run's digest with the one recorded here for its seed.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarise(paths: list[str]) -> dict:
    runs: dict[int, dict[str, list[dict]]] = {0: {}, 1: {}}
    for path in sorted(paths):
        with open(path) as f:
            record = json.load(f)
        if "trace" in record and not record["failures"]:
            workload = record["machine"]["workload"]
            runs[record["trace"]].setdefault(workload, []).append(record)
    out: dict = {"machine": None, "end_to_end": {}, "digests": {}, "traced": {}}
    for workload, records in sorted(runs[0].items()):
        out["machine"] = {k: v for k, v in records[0]["machine"].items()
                          if k not in ("workload", "seed")}
        table = {}
        for name, m in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            table[name] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median if median else None,
                           "n": len(values)}
        out["end_to_end"][workload] = table
        out["digests"][workload] = {str(r["machine"]["seed"]): r["digest"] for r in records}
    for workload, records in sorted(runs[1].items()):
        out["traced"][workload] = [
            {"seed": r["machine"]["seed"], "shares": r["shares"],
             "metrics": {k: m["value"] for k, m in r["metrics"].items()}}
            for r in records
        ]
    return out


if __name__ == "__main__":
    json.dump(summarise(sys.argv[1:]), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
