"""Throughput of the exact exit sampler, and the benchmark's end-to-end medians.

    python3 scripts/bench_exit_sampler.py --side NAME=CHECKOUT [--side NAME=CHECKOUT ...]
        [--points N] [--cap S] [--perfbench-seconds S] [--out FILE]

For each side, each dimension m in {2, 3, 4, 5} and start radius s in {0.5,
0.9, 0.989, 0.999}, one child process, run with CHECKOUT/src on its path,
draws N exit points of the unit ball from (s, 0, ...) through
``wos_exit_points`` and reports exits/s (median of three timed calls after a
warm-up) and proposals per point (rows drawn by ``uniform_sphere_sample``
inside the sampler, over the points).  A child still running after --cap
seconds is stopped and its cell recorded as null with the cap, so a sampler
whose cost explodes near the sphere is measured where it finishes.

With --perfbench-seconds > 0, ``perfbench/run.py`` then runs from each
checkout in alternating pairs, the sides in turn going first: PAIRS[w] pairs
of workload w, ten for the workload whose gain is claimed and three for the
others.  Each run's medians are kept with the median and quartiles over the
runs, and how many pairs the last side won on each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

DIMS = (2, 3, 4, 5)
RADII = (0.5, 0.9, 0.989, 0.999)
PAIRS = {"exact-martingale": 10, "euler-exit": 3, "hardy-limit-w2": 3}
METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


def cell(m: int, s: float, n: int) -> dict:
    """Runs in the child: time n exits from (s, 0, ...) and count proposals."""
    import numpy as np

    from ballwalk import brownian
    from ballwalk.streams import rng_stream

    rows = [0]
    draw = brownian.uniform_sphere_sample

    def counted(*args, **kwargs):
        rows[0] += kwargs.get("size") or 1
        return draw(*args, **kwargs)

    brownian.uniform_sphere_sample = counted
    x = np.zeros(m)
    x[0] = s
    brownian.wos_exit_points(rng_stream(1, m), x, 1.0, min(n, 100))  # warm-up
    times = []
    rows[0] = 0
    for rep in range(3):
        t0 = time.perf_counter()
        brownian.wos_exit_points(rng_stream(2, m, rep), x, 1.0, n)
        times.append(time.perf_counter() - t0)
    return {"exits_per_s": n / statistics.median(times), "proposals_per_point": rows[0] / (3 * n)}


def run_cells(root: Path, n: int, cap: float) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = {}
    for m in DIMS:
        for s in RADII:
            args = [sys.executable, __file__, "--cell", str(m), str(s), str(n)]
            try:
                proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=cap, check=True)
                figures = json.loads(proc.stdout.splitlines()[-1])
            except subprocess.TimeoutExpired:
                figures = {"exits_per_s": None, "proposals_per_point": None, "exceeded_cap_s": cap}
            out[f"m={m} s={s}"] = figures
            print(f"m={m} s={s}: {figures}", flush=True)
    return out


def perfbench_run(root: Path, workload: str, seconds: float) -> dict:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(args, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"failed": result["failed"], **{k: result["metrics"][k]["value"] for k in METRICS}}


def run_pairs(sides: dict, seconds: float, pairs_per_workload: dict = PAIRS) -> dict:
    out = {}
    names = list(sides)
    for workload, pairs in pairs_per_workload.items():
        runs = {name: [] for name in names}
        for i in range(pairs):
            for name in names if i % 2 == 0 else names[::-1]:
                runs[name].append(perfbench_run(sides[name], workload, seconds))
                print(f"{workload} pair {i} {name}: {runs[name][-1]}", flush=True)
        summary = {}
        for name in names:
            summary[name] = {"failed": sum(r["failed"] for r in runs[name])}
            for k in METRICS:
                values = [r[k] for r in runs[name]]
                q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
                summary[name][k] = {"median": q2, "q1": q1, "q3": q3, "values": values}
        first, last = names[0], names[-1]
        summary[f"{last}_wins_of_{pairs}"] = {
            k: sum(b[k] < a[k] for a, b in zip(runs[first], runs[last])) for k in METRICS
        }
        out[workload] = summary
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cell", nargs=3, metavar=("M", "S", "N"), help=argparse.SUPPRESS)
    ap.add_argument("--side", action="append", default=[], metavar="NAME=CHECKOUT",
                    help="a checkout whose src/ is measured, under NAME; repeat for each side")
    ap.add_argument("--points", type=int, default=20_000)
    ap.add_argument("--cap", type=float, default=20.0, help="seconds per cell before it is stopped")
    ap.add_argument("--perfbench-seconds", type=float, default=0.0)
    ap.add_argument("--out", type=Path, default=Path("BENCH_exit_sampler.json"))
    ns = ap.parse_args()
    if ns.cell:
        m, s, n = ns.cell
        print(json.dumps(cell(int(m), float(s), int(n))))
        return 0
    if not ns.side or not all("=" in side for side in ns.side):
        ap.error("give at least one --side NAME=CHECKOUT")
    sides = {name: Path(root).resolve() for name, root in (side.split("=", 1) for side in ns.side)}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "points": ns.points,
        "cap_s": ns.cap,
        "sampler": {name: run_cells(root, ns.points, ns.cap) for name, root in sides.items()},
    }
    if ns.perfbench_seconds > 0:
        record["perfbench_seconds"] = ns.perfbench_seconds
        record["perfbench"] = run_pairs(sides, ns.perfbench_seconds)
    ns.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
