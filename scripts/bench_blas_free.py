"""Cost of the quadrature with and without numpy's threaded BLAS, and the benchmark's medians.

    python3 scripts/bench_blas_free.py --side NAME=CHECKOUT [--side NAME=CHECKOUT ...]
        [--tables N] [--perfbench-seconds S] [--out FILE]

Per-call probes run once, in a child process with the last side's src on
its path: after 0.4 s idle, so that OpenBLAS's worker threads have gone to
sleep, one call is timed and the process CPU is read over the call and the
0.4 s that follow it, which counts the CPU a worker thread spins for after
the call returns.  Probed: ``np.polynomial.legendre.leggauss`` (LAPACK
``eigvalsh``) and ``ballwalk.sphere.gauss_legendre`` at 128, 192 and 224
nodes, and ``np.dot`` (BLAS) and ``np.einsum("i,i", ...)`` at 65,536 and
200,704 values.  Each figure is the median of five such calls.

For each side, one child then times ``hardy_table`` on the poisson-slice
member over ``arange(0.1, 0.951, 0.05)`` (18 radii) with the chart rules
m=2 at 2048 nodes and m=3 at 224 per axis, after one warm-up call:
nodes/s = nodes per radius x 18 / median table time (N tables at m=2, N/6
at m=3); two children per side, alternating.

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

IDLE_S = 0.4
RULE_SIZES = (128, 192, 224)
SUM_SIZES = (65_536, 200_704)
TABLES = {"m2_n2048": (2, 2048), "m3_n224": (3, 224)}


def probe(fn) -> dict:
    """Wall time of one call after IDLE_S idle; CPU over the call and IDLE_S after it."""
    walls, cpus = [], []
    for _ in range(5):
        time.sleep(IDLE_S)
        c0, t0 = time.process_time(), time.perf_counter()
        fn()
        t1 = time.perf_counter()
        time.sleep(IDLE_S)
        walls.append(t1 - t0)
        cpus.append(time.process_time() - c0)
    return {"call_ms": 1e3 * statistics.median(walls), "cpu_ms": 1e3 * statistics.median(cpus)}


def probes() -> dict:
    """Runs in the child."""
    import numpy as np

    from ballwalk.sphere import gauss_legendre

    out = {}
    for n in RULE_SIZES:
        out[f"leggauss_{n}"] = probe(lambda: np.polynomial.legendre.leggauss(n))
        out[f"gauss_legendre_{n}"] = probe(lambda: gauss_legendre(n))
    for n in SUM_SIZES:
        w, x = np.random.default_rng(n).random((2, n))
        out[f"dot_{n}"] = probe(lambda: np.dot(w, x))
        out[f"einsum_{n}"] = probe(lambda: np.einsum("i,i", w, x))
    return out


def tables(count: int) -> dict:
    """Runs in the child: hardy_table nodes/s, as BENCH_quadrature.json measured it."""
    import numpy as np

    from ballwalk.harmonic import catalog, hardy_table
    from ballwalk.sphere import SurfaceQuadrature, quad_nodes

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
    return out


def child(root: Path, *args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, __file__, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", choices=("probes", "tables"), help=argparse.SUPPRESS)
    ap.add_argument("--side", action="append", default=[], metavar="NAME=CHECKOUT",
                    help="a checkout whose src/ is measured, under NAME; repeat for each side")
    ap.add_argument("--tables", type=int, default=30, help="timed tables at m=2 (a sixth as many at m=3)")
    ap.add_argument("--perfbench-seconds", type=float, default=0.0)
    ap.add_argument("--out", type=Path, default=Path("BENCH_blas_free.json"))
    ns = ap.parse_args()
    if ns.child:
        print(json.dumps(probes() if ns.child == "probes" else tables(ns.tables)))
        return 0
    if not ns.side or not all("=" in side for side in ns.side):
        ap.error("give at least one --side NAME=CHECKOUT")
    sides = {name: Path(root).resolve() for name, root in (side.split("=", 1) for side in ns.side)}
    names = list(sides)
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "probes": child(sides[names[-1]], "--child", "probes"),
              "hardy_table": {name: [] for name in names}}
    for i in range(2):
        for name in names if i % 2 == 0 else names[::-1]:
            record["hardy_table"][name].append(child(sides[name], "--child", "tables", "--tables", str(ns.tables)))
            print(f"hardy_table {name}: {record['hardy_table'][name][-1]}", flush=True)
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
