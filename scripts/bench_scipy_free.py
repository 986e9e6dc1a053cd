"""What importing scipy.special costs a run, and the benchmark's medians without it.

    python3 scripts/bench_scipy_free.py --side NAME=CHECKOUT [--side NAME=CHECKOUT ...]
        [--perfbench-seconds S] [--out FILE]

Five child processes each import numpy, then time ``from scipy import
special``: wall time, process CPU time and the growth of the peak RSS
(``ru_maxrss``) over the import; the record keeps each figure's median.

``perfbench/run.py`` then runs once per workload and side untimed, and in
alternating pairs as ``bench_exit_sampler.py`` runs it: ten pairs on
euler-exit, whose gain is claimed, and three on each other workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench_exit_sampler import perfbench_run, run_pairs

PAIRS = {"euler-exit": 10, "hardy-limit-w2": 3, "exact-martingale": 3}
PROBE = """
import json, resource, time
import numpy
rss0, c0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, time.process_time(), time.perf_counter()
from scipy import special
wall, cpu = time.perf_counter() - t0, time.process_time() - c0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
print(json.dumps({"wall_s": wall, "cpu_s": cpu, "rss_delta_mb": rss / 1024}))
"""


def import_probe() -> dict:
    probes = [json.loads(subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                                        check=True).stdout) for _ in range(5)]
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", default=[], metavar="NAME=CHECKOUT",
                    help="a checkout whose perfbench is run, under NAME; repeat for each side")
    ap.add_argument("--perfbench-seconds", type=float, default=40.0)
    ap.add_argument("--out", type=Path, default=Path("BENCH_scipy_free.json"))
    ns = ap.parse_args()
    if not ns.side or not all("=" in side for side in ns.side):
        ap.error("give at least one --side NAME=CHECKOUT")
    sides = {name: Path(root).resolve() for name, root in (side.split("=", 1) for side in ns.side)}
    record = {"python": platform.python_version(), "nproc": os.cpu_count(), "scipy_special_import": import_probe()}
    print(f"scipy.special import: {record['scipy_special_import']}", flush=True)
    for workload in PAIRS:
        for root in sides.values():
            perfbench_run(root, workload, ns.perfbench_seconds)  # untimed first run
    record["perfbench_seconds"] = ns.perfbench_seconds
    record["perfbench"] = run_pairs(sides, ns.perfbench_seconds, PAIRS)
    ns.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
