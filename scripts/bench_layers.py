"""Layer throughputs of checkouts of the program, and the benchmark's end-to-end medians.

    python3 scripts/bench_layers.py --side NAME=CHECKOUT [--side ...] --out FILE
        [--points N] [--tables N] [--perfbench-seconds S]

Each figure comes from a child run with CHECKOUT/src on its path, after one
untimed call.  sampler: at m in {2, 3, 4, 5} and s in {0.5, 0.9, 0.989, 0.999},
exits/s of N exit points from (s, 0, ...) through ``wos_exit_points`` (median of
three calls), and proposals per point (rows ``uniform_sphere_sample`` draws in
the sampler); a cell past CAP_S seconds is null.  tables: ``hardy_table`` nodes/s
on poisson-slice over the 18 radii ``arange(0.1, 0.951, 0.05)`` with the m=2 2048
and m=3 224 chart rules (median of N tables at m=2, N/6 at m=3), and
``mc_estimate`` samples/s on 10^6 normals (N/3 calls); two children per side.
euler: at m in {1, 2, 3}, path-steps/s of one ``exit_points_batch`` chunk of
min(N, CHUNK) paths, CHUNK = 8192, from 0 to the unit sphere at dt 1e-4 (median
of three calls; a path's steps are ceil(tau / dt)), one child per m and side.

With --perfbench-seconds > 0, ``perfbench/run.py`` runs once untimed per workload
and side, then PAIRS[w] alternating pairs of workload w; the record keeps each
run, the median and quartiles, and how many pairs the last side won per metric.
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
CAP_S = 60.0
TABLES = {"m2_n2048": (2, 2048), "m3_n224": (3, 224)}
MC_SAMPLES = 10**6
EULER_DIMS = (1, 2, 3)
EULER_DT = 1e-4
PAIRS = {"exact-martingale": 10, "euler-exit": 10, "hardy-limit-w2": 10}
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
    x = s * np.eye(m)[0]
    brownian.wos_exit_points(rng_stream(1, m), x, 1.0, min(n, 100))  # warm-up
    times = []
    rows[0] = 0
    for rep in range(3):
        t0 = time.perf_counter()
        brownian.wos_exit_points(rng_stream(2, m, rep), x, 1.0, n)
        times.append(time.perf_counter() - t0)
    return {"exits_per_s": n / statistics.median(times), "proposals_per_point": rows[0] / (3 * n)}


def tables(count: int) -> dict:
    """Runs in the child: hardy_table nodes/s (as BENCH_quadrature.json) and mc_estimate samples/s."""
    import numpy as np

    from ballwalk.harmonic import catalog, hardy_table
    from ballwalk.sphere import SurfaceQuadrature, quad_nodes
    from ballwalk.stats import mc_estimate
    from ballwalk.streams import rng_stream

    def median_time(fn, calls: int) -> tuple[int, float]:
        fn()  # warm-up
        times = []
        for _ in range(max(1, calls)):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return len(times), statistics.median(times)

    grid = np.arange(0.1, 0.951, 0.05)
    out = {}
    for name, (m, n) in TABLES.items():
        u = next(f for f in catalog(m, with_rates=False) if f.name == "poisson-slice")
        quad = SurfaceQuadrature(m, node_count=n)
        calls, t = median_time(lambda: hardy_table(u, grid, quad), count if m == 2 else count // 6)
        nodes = quad_nodes(quad)[0].shape[0]
        out[name] = {"nodes_per_radius": nodes, "tables": calls, "nodes_per_s": nodes * len(grid) / t}
    xs = rng_stream(20260809, 1).normal(3.0, 2.0, size=MC_SAMPLES)
    calls, t = median_time(lambda: mc_estimate(xs), count // 3)
    out["mc_estimate_1e6"] = {"samples": MC_SAMPLES, "calls": calls, "samples_per_s": MC_SAMPLES / t}
    return out


def euler(m: int, n: int) -> dict:
    """Runs in the child: path-steps/s of one exit_points_batch chunk of min(n, CHUNK) paths from 0 at m."""
    import numpy as np

    from ballwalk.brownian import CHUNK, PathConfig, exit_points_batch

    paths = min(n, CHUNK)

    def steps(seed: int, paths: int) -> float:
        cfg = PathConfig(m=m, dt=EULER_DT, horizon=100.0, seed=seed, stream_id=m)
        taus, _, _ = exit_points_batch(cfg, np.zeros(m), 1.0, paths)
        return float(np.sum(np.ceil(taus / EULER_DT - 1e-6)))

    steps(1, min(paths, 256))  # warm-up
    rates = []
    for rep in range(3):
        t0 = time.perf_counter()
        n = steps(2 + rep, paths)
        rates.append(n / (time.perf_counter() - t0))
    return {"paths": paths, "dt": EULER_DT, "path_steps_per_s": statistics.median(rates)}


def child(root: Path, *args: str, timeout: float | None = None) -> dict:
    """The figures a child of this script prints, run with root/src on its path."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, __file__, "--child", *args], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_cells(root: Path, n: int) -> dict:
    out = {}
    for m in DIMS:
        for s in RADII:
            try:
                figures = child(root, "cell", str(m), str(s), "--points", str(n), timeout=CAP_S)
            except subprocess.TimeoutExpired:
                figures = {"exits_per_s": None, "proposals_per_point": None, "exceeded_cap_s": CAP_S}
            out[f"m={m} s={s}"] = figures
            print(f"m={m} s={s}: {figures}", flush=True)
    return out


def perfbench_run(root: Path, workload: str, seconds: float) -> dict:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(args, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"failed": result["failed"], **{k: result["metrics"][k]["value"] for k in METRICS}}


def in_turns(sides: dict, rounds: int, label: str, measure) -> dict:
    """{name: [measure(root) per round]}, the sides in order on even rounds, reversed on odd."""
    runs = {name: [] for name in sides}
    for i in range(rounds):
        for name in list(sides) if i % 2 == 0 else list(sides)[::-1]:
            runs[name].append(measure(sides[name]))
            print(f"{label} {i} {name}: {runs[name][-1]}", flush=True)
    return runs


def run_pairs(sides: dict, seconds: float) -> dict:
    out = {}
    first, last = list(sides)[0], list(sides)[-1]
    for workload, pairs in PAIRS.items():
        for root in sides.values():
            perfbench_run(root, workload, seconds)  # untimed first run
        runs = in_turns(sides, pairs, f"{workload} pair", lambda root: perfbench_run(root, workload, seconds))
        summary = {}
        for name, side_runs in runs.items():
            summary[name] = {"failed": sum(r["failed"] for r in side_runs)}
            for k in METRICS:
                values = [r[k] for r in side_runs]
                q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
                summary[name][k] = {"median": q2, "q1": q1, "q3": q3, "values": values}
        wins = {k: sum(b[k] < a[k] for a, b in zip(runs[first], runs[last])) for k in METRICS}
        out[workload] = {**summary, f"{last}_wins_of_{pairs}": wins}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)  # "cell M S", "tables" or "euler M"
    ap.add_argument("--side", action="append", default=[], metavar="NAME=CHECKOUT",
                    help="a checkout whose src/ is measured, under NAME; repeat for each side")
    ap.add_argument("--points", type=int, default=20_000,
                    help="exit points per timed sampler call (per timed Euler chunk, at most 8192)")
    ap.add_argument("--tables", type=int, default=30,
                    help="timed tables at m=2 (a sixth as many at m=3, a third as many mc_estimate calls)")
    ap.add_argument("--perfbench-seconds", type=float, default=0.0)
    ap.add_argument("--out", type=Path, help="the JSON record to write (required)")
    ns = ap.parse_args()
    if ns.child:
        kind, *params = ns.child
        if kind == "tables":
            figures = tables(ns.tables)
        elif kind == "euler":
            figures = euler(int(params[0]), ns.points)
        else:
            figures = cell(int(params[0]), float(params[1]), ns.points)
        print(json.dumps(figures))
        return 0
    if ns.out is None or not ns.side or not all("=" in side for side in ns.side):
        ap.error("give --out FILE and at least one --side NAME=CHECKOUT")
    sides = {name: Path(root).resolve() for name, root in (side.split("=", 1) for side in ns.side)}
    record = {"python": platform.python_version(), "nproc": os.cpu_count(), "points": ns.points, "cap_s": CAP_S,
              "sampler": {name: run_cells(root, ns.points) for name, root in sides.items()},
              "tables": in_turns(sides, 2, "tables", lambda root: child(root, "tables", "--tables", str(ns.tables))),
              "euler": {name: {f"m={m}": child(root, "euler", str(m), "--points", str(ns.points))
                               for m in EULER_DIMS}
                        for name, root in sides.items()}}
    if ns.perfbench_seconds > 0:
        record["perfbench_seconds"] = ns.perfbench_seconds
        record["perfbench"] = run_pairs(sides, ns.perfbench_seconds)
    ns.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
