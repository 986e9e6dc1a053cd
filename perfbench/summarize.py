"""Fold the results under ``.perfbench/results/`` into one summary.

    python3 perfbench/summarize.py > summary.json

Per workload and end-to-end metric: the run count, the values, their median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  Per workload also
the per-layer figures of the latest traced run and the metadata of the
machine the runs were made on.  ``perfbench/baseline.json`` was made this
way from runs at the parent commit.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def main() -> int:
    results = sorted((Path.cwd() / ".perfbench" / "results").glob("*.json"))
    if not results:
        print("summarize.py: no results under .perfbench/results", file=sys.stderr)
        return 2
    summary: dict = {"workloads": {}}
    for path in results:
        data = json.loads(path.read_text())
        info, result = data["info"], data["result"]
        summary["meta"] = info["meta"]
        entry = summary["workloads"].setdefault(
            info["workload"], {"runs": 0, "failed_runs": 0, "seeds": [], "end_to_end": {}, "per_layer": {}}
        )
        if info["trace"]:
            entry["per_layer"] = {k: v for k, v in info["per_layer"].items()}
            continue
        entry["runs"] += 1
        entry["failed_runs"] += int(not result["correct"])
        entry["seeds"].append(info["seed"])
        for name, metric in result["metrics"].items():
            entry["end_to_end"].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(
                metric["value"]
            )
    for entry in summary["workloads"].values():
        for metric in entry["end_to_end"].values():
            values = metric["values"]
            metric["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                metric.update(q1=q1, q3=q3, spread=(q3 - q1) / metric["median"])
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
