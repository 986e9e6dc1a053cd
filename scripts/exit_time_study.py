#!/usr/bin/env python3
"""Quick look at first-exit times of the unit ball across dimensions.

Prints E[tau] against the exact (1 - |x0|^2)/m, the tail frequency
P(tau > N_{2,k}) against its 2^(1-k) bound, and the agreement of the
discretized and exact exit samplers for an off-center start.
"""

import argparse

import numpy as np

from ballwalk.brownian import PathConfig, exit_points_batch, tightness_N, wos_exit_points
from ballwalk.stats import ks_two_sample, mc_estimate
from ballwalk.streams import rng_stream


def study(m: int, n_paths: int, dt: float, seed: int):
    cfg = PathConfig(m=m, dt=dt, horizon=200.0, seed=seed)
    taus, pts, cen = exit_points_batch(cfg, np.zeros(m), 1.0, n_paths)
    est = mc_estimate(taus[~cen])
    exact = 1.0 / m
    print(f"m={m}: E[tau] = {est.mean:.5f} +- {est.std_error:.5f}  (exact {exact:.5f})")
    for k in (1, 2):
        nk = tightness_N(2.0, k)
        frac = float(np.mean(taus > nk))
        print(f"      P(tau > N(2,{k})={nk}) = {frac:.5f}  (bound {2.0 ** (1 - k):.3f})")
    x0 = np.zeros(m)
    x0[0] = 0.5
    _, pts_off, cen_off = exit_points_batch(
        PathConfig(m=m, dt=dt, horizon=200.0, seed=seed, stream_id=1), x0, 1.0, n_paths
    )
    zw = wos_exit_points(rng_stream(seed, 2), x0, 1.0, n_paths)
    ks = ks_two_sample(pts_off[~cen_off, 0], zw[:, 0])
    print(f"      engines z1 KS = {ks.statistic:.4f} (5% threshold {ks.threshold:.4f}) -> {'ok' if ks.statistic < ks.threshold else 'DIFFER'}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=4000)
    ap.add_argument("--dt", type=float, default=2e-4)
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 5])
    ns = ap.parse_args()
    for m in ns.dims:
        study(m, ns.paths, ns.dt, ns.seed)
