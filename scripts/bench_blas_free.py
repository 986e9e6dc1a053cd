"""Throughput of the quadrature layer and of Monte Carlo means, and the benchmark's medians.

    python3 scripts/bench_blas_free.py --side NAME=CHECKOUT [--side NAME=CHECKOUT ...]
        [--tables N] [--perfbench-seconds S] [--out FILE]

For each side, one child times ``hardy_table`` on the poisson-slice
member over ``arange(0.1, 0.951, 0.05)`` (18 radii) with the chart rules
m=2 at 2048 nodes and m=3 at 224 per axis, after one warm-up call:
nodes/s = nodes per radius x 18 / median table time (N tables at m=2, N/6
at m=3).  The same child times ``mc_estimate`` on 10^6 normal samples
(N/3 calls after a warm-up): samples/s = 10^6 / median call time.  Two
children per side, alternating.

With --perfbench-seconds > 0, ``perfbench/run.py`` runs once per workload
and side untimed, then in alternating pairs as ``bench_exit_sampler.py``
runs it (ten pairs on exact-martingale and three on the others).
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

from bench_exit_sampler import PAIRS, perfbench_run, run_pairs

TABLES = {"m2_n2048": (2, 2048), "m3_n224": (3, 224)}
MC_SAMPLES = 10**6


def tables(count: int) -> dict:
    """Runs in the child: hardy_table nodes/s, as BENCH_quadrature.json measured it,
    and mc_estimate samples/s."""
    import numpy as np

    from ballwalk.harmonic import catalog, hardy_table
    from ballwalk.sphere import SurfaceQuadrature, quad_nodes
    from ballwalk.stats import mc_estimate
    from ballwalk.streams import rng_stream

    grid = np.arange(0.1, 0.951, 0.05)
    out = {}
    for name, (m, n) in TABLES.items():
        u = next(f for f in catalog(m, with_rates=False) if f.name == "poisson-slice")
        quad = SurfaceQuadrature(m, node_count=n)
        hardy_table(u, grid, quad)  # warm-up
        times = []
        for _ in range(count if m == 2 else max(1, count // 6)):
            t0 = time.perf_counter()
            hardy_table(u, grid, quad)
            times.append(time.perf_counter() - t0)
        nodes = quad_nodes(quad)[0].shape[0]
        out[name] = {"nodes_per_radius": nodes, "tables": len(times),
                     "nodes_per_s": nodes * len(grid) / statistics.median(times)}
    xs = rng_stream(20260809, 1).normal(3.0, 2.0, size=MC_SAMPLES)
    mc_estimate(xs)  # warm-up
    times = []
    for _ in range(max(1, count // 3)):
        t0 = time.perf_counter()
        mc_estimate(xs)
        times.append(time.perf_counter() - t0)
    out["mc_estimate_1e6"] = {"samples": MC_SAMPLES, "calls": len(times),
                              "samples_per_s": MC_SAMPLES / statistics.median(times)}
    return out


def child(root: Path, *args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, __file__, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", choices=("tables",), help=argparse.SUPPRESS)
    ap.add_argument("--side", action="append", default=[], metavar="NAME=CHECKOUT",
                    help="a checkout whose src/ is measured, under NAME; repeat for each side")
    ap.add_argument("--tables", type=int, default=30,
                    help="timed tables at m=2 (a sixth as many at m=3, a third as many mc_estimate calls)")
    ap.add_argument("--perfbench-seconds", type=float, default=0.0)
    ap.add_argument("--out", type=Path, default=Path("BENCH_blas_free.json"))
    ns = ap.parse_args()
    if ns.child:
        print(json.dumps(tables(ns.tables)))
        return 0
    if not ns.side or not all("=" in side for side in ns.side):
        ap.error("give at least one --side NAME=CHECKOUT")
    sides = {name: Path(root).resolve() for name, root in (side.split("=", 1) for side in ns.side)}
    names = list(sides)
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "tables": {name: [] for name in names}}
    for i in range(2):
        for name in names if i % 2 == 0 else names[::-1]:
            record["tables"][name].append(child(sides[name], "--child", "tables", "--tables", str(ns.tables)))
            print(f"tables {name}: {record['tables'][name][-1]}", flush=True)
    if ns.perfbench_seconds > 0:
        for workload in PAIRS:
            for root in sides.values():
                perfbench_run(root, workload, ns.perfbench_seconds)  # untimed first run
        record["perfbench_seconds"] = ns.perfbench_seconds
        record["perfbench"] = run_pairs(sides, ns.perfbench_seconds)
    ns.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
