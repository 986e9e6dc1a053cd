"""One workload repetition, run as its own process by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace FILE] [--workers W]
    python3 perfbench/child.py --setup-only --out DIR

The parent puts ``src`` on ``PYTHONPATH`` and times this process from launch
to exit.  The child writes ``DIR/_child.json``: the monotonic time at which
``ballwalk.cli`` finished importing (the end of set-up) and the exit code and
duration of every step.  Each step writes ``DIR/<step>.csv`` and ``DIR/<step>.json``
through the program's own writers, so the parent can check and hash them.
With ``--trace`` the public functions of every module are wrapped from here
(see ``spans.py``) and the per-layer figures go to FILE.  ``--workers``
overrides the worker count of every step that has one (the parent uses it to
rerun ``hardy-limit-w2`` serially and compare outputs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _cli(suite, *args, workers=None):
    return ("cli", suite, list(args), workers)


def _lib(name, workers=None):
    return ("lib", name, [], workers)


# Every step keeps the acceptance dt, dimension, starts and radii of
# tests/test_acceptance.py SUITE_ARGS; only the path counts are cut, so that
# one run holds several repetitions and its median averages over their seeds
# (an Euler step's cost is set mostly by its number of time steps, which its
# slowest path decides, so fewer paths shorten it less than in proportion).
# Step names are output names.
WORKLOADS = {
    # The Euler layer: four of the five stepping loops at m=1,2,3, centred and
    # off-centre starts.  Quadrature and the martingale layer stay idle.
    "euler-exit": [
        _cli("reflection", "--paths", "100", "--dt", "1e-05", workers=1),
        _cli("exit-dist", "--paths", "200", "--dt", "0.0001", workers=1),
        _cli("scaling", "--paths", "100", "--dt", "0.0001", "--m", "2", workers=1),
        _cli("tightness", "--paths", "300", "--dt", "0.001", "--m", "2", workers=1),
        _cli("continuity", "--paths", "300", "--dt", "0.0001", "--m", "2", workers=1),
    ],
    # The fifth loop (per-step harmonic observer out to r_trunc=0.999) and the
    # thread pool.  The suite's three members stay below one 8192-path chunk,
    # as two chunks each would take about a minute; the library step gives one
    # member two chunks so the pool runs both.
    "hardy-limit-w2": [
        _cli("hardy-limit", "--paths", "100", "--dt", "0.0001", "--q-max", "3", workers=2),
        _lib("hardy-pool", workers=2),
    ],
    # No Euler code: quadrature, the exact exit sampler, mc_estimate and
    # lambda_bar.  The m=3 skeleton is where the rejection sampler dominates.
    "exact-martingale": [
        _cli("martingale", "--paths", "20000"),
        _cli("constants"),
        _lib("skeleton-m3"),
    ],
}

POOL_PATHS = 8192 + 1024  # two chunks of ballwalk.brownian.CHUNK=8192 and 1024
SKELETON_PATHS = 100
Z_1E4 = 3.891  # two-sided normal quantile at level 1e-4


def _hardy_pool(seed: int, out: Path, workers: int) -> bool:
    """One member (x1) of the hardy-limit suite over two chunks of paths."""
    import numpy as np

    from ballwalk.brownian import PathConfig
    from ballwalk.cli import verdict, write_csv
    from ballwalk.hardy_limit import limit_experiment, radius_schedule
    from ballwalk.harmonic import catalog, estimate_rates

    u = catalog(2, with_rates=False)[0]
    sched = radius_schedule(estimate_rates(u), 3, "conservative-min")
    cfg = PathConfig(m=2, dt=1e-4, horizon=200.0, seed=seed, stream_id=60)
    rep = limit_experiment(u, sched, cfg, POOL_PATHS, 0.999, workers=workers)
    rows = [[r.q, r.radius, r.bound, r.exceedance, r.std_error, r.passed] for r in rep.rows]
    write_csv(
        out / "hardy-pool.csv",
        ["q", "r_q", "bound", "exceedance", "std_error", "pass"],
        rows,
        {"step": "hardy-pool", "seed": seed, "n_paths": rep.n_paths, "censored": rep.n_censored},
    )
    verdicts = [
        verdict(f"x1: exceedance at q={r.q} within its bound", r.bound, r.exceedance, r.bound, r.passed)
        for r in rep.rows
    ]
    verdicts.append(
        verdict("x1: censoring within the tightness allowance", rep.censor_allowance,
                rep.n_censored / rep.n_paths, rep.censor_allowance, rep.censor_ok)
    )
    gap_ok = rep.truncation_gap is not None and bool(np.isfinite(rep.truncation_gap))
    verdicts.append(verdict("x1: truncation gap is finite", 0.0, rep.truncation_gap, None, gap_ok))
    return _write_verdicts(out, "hardy-pool", seed, verdicts)


def _skeleton_m3(seed: int, out: Path, workers: int) -> bool:
    """Exact Y skeleton of x1 at m=3 over radii 0.90 -> 0.91 (s = 0.989)."""
    import numpy as np

    from ballwalk.cli import verdict, write_csv
    from ballwalk.harmonic import catalog
    from ballwalk.martingale import sample_Y_skeleton
    from ballwalk.stats import mc_estimate
    from ballwalk.streams import rng_stream

    radii = np.array([0.90, 0.91])
    sk = sample_Y_skeleton(rng_stream(seed, 42), catalog(3, with_rates=False)[0], radii, SKELETON_PATHS)
    write_csv(out / "skeleton-m3.csv", ["y_090", "y_091"], sk.values.tolist(), {"step": "skeleton-m3", "seed": seed})
    verdicts = []
    for j, r in enumerate(radii):
        est = mc_estimate(sk.values[:, j])
        tol = Z_1E4 * est.std_error
        verdicts.append(verdict(f"E Y_{r:.2f} = x1(0) = 0 (level 1e-4)", 0.0, est.mean, tol, abs(est.mean) <= tol))
        top = float(np.max(np.abs(sk.values[:, j])))
        verdicts.append(verdict(f"|Y_{r:.2f}| <= {r:.2f}", r, top, 1e-12, top <= r + 1e-12))
    return _write_verdicts(out, "skeleton-m3", seed, verdicts)


LIBRARY_STEPS = {"hardy-pool": _hardy_pool, "skeleton-m3": _skeleton_m3}


def _write_verdicts(out: Path, step: str, seed: int, verdicts: list) -> bool:
    ok = all(v["pass"] for v in verdicts)
    payload = {"suite": step, "seed": seed, "verdicts": verdicts, "pass": ok}
    (out / f"{step}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ns = ap.parse_args()
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)

    import ballwalk.cli as cli

    record = {"setup_done": time.monotonic(), "steps": {}}
    if ns.setup_only:
        (out / "_child.json").write_text(json.dumps(record))
        return 0

    tracer = None
    if ns.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    for kind, name, args, workers in WORKLOADS[ns.workload]:
        if ns.workers is not None and workers is not None:
            workers = ns.workers
        if tracer:
            tracer.begin_step(name)
        t0 = time.perf_counter()
        if kind == "cli":
            argv = [name, "--out", str(out), "--seed", str(ns.seed), *args]
            if workers is not None:
                argv += ["--workers", str(workers)]
            code = cli.main(argv)
        else:
            code = 0 if LIBRARY_STEPS[name](ns.seed, out, workers or 1) else 1
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_step(f"cli.suite.{name}" if kind == "cli" else f"lib.{name}", elapsed)
        record["steps"][name] = {"code": code, "seconds": elapsed}
    if tracer:
        tracer.write(Path(ns.trace))
    (out / "_child.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
