"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criteria 1, 5-9, 11 and 13 read the outputs of scripts/run_all.py, which
runs every suite at its acceptance arguments (SUITE_ARGS there) on the
pinned seed.  Three runs start together; criterion 14 compares every file of
the first with a repeat run and with a run at two workers, byte for byte.
Criteria 2-4, 10, and 12 drive the library directly.

Criterion 12 asserts the monotonicity claim literally, including the
direction of I2.  That clause fails for every catalog member vanishing at
the origin: I2 starts at 1 there and stays bounded by 1, so it can only
decrease.  The failure is expected and analyzed in the decisions ledger;
the mathematically true parts of the criterion are checked separately and
pass.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ballwalk.harmonic import catalog, mean_value_residual, poisson_extend, poisson_kernel
from ballwalk.martingale import lambda_bar, lambda_bar_closed, lambda_bar_series, monotonicity_report
from ballwalk.sphere import SurfaceQuadrature, surface_area, surface_integral, uniform_sphere_sample
from ballwalk.streams import rng_stream
from conftest import src_env

SEED = 20260809

RUN_ALL = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """Three runs of scripts/run_all.py started together: a and b at one worker, c at two."""
    outs = [tmp_path_factory.mktemp(f"accept_{name}") for name in "abc"]
    procs = [
        subprocess.Popen([sys.executable, str(RUN_ALL), "--out", str(out), "--seed", str(SEED), "--workers", workers],
                         env=src_env())
        for out, workers in zip(outs, "112")
    ]
    codes = [p.wait() for p in procs]
    for out, code in zip(outs, codes):
        assert (out / "summary.json").exists(), f"{out.name}: run_all.py exited {code} without a summary"
    return outs


@pytest.fixture(scope="session")
def run_a(runs):
    return runs[0]


def load(out: Path, suite: str) -> dict:
    return json.loads((out / f"{suite}.json").read_text())


def announce(n: int, ok: bool, detail: str):
    print(f"CRITERION {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_closed_form_constants(run_a):
    data = load(run_a, "constants")
    rows = {}
    for line in (run_a / "constants.csv").read_text().splitlines()[2:]:
        m, closed, quad, err = line.split(",")
        rows[int(m)] = (float(closed), float(quad), float(err))
    ok = (
        rows[2][2] <= 1e-10
        and rows[3][2] <= 1e-8
        and rows[4][0] == 2 * math.pi**2
        and data["pass"]
    )
    announce(1, ok, f"sigma errors m=2..5: {[rows[m][2] for m in (2, 3, 4, 5)]}")


def test_criterion_02_kernel_normalization():
    rng = rng_stream(SEED, 200)
    worst = 0.0
    rules = {2: SurfaceQuadrature(2, node_count=2048), 3: SurfaceQuadrature(3, node_count=160)}
    for m, quad in rules.items():
        for _ in range(50):
            x = uniform_sphere_sample(rng, m) * rng.uniform(0.0, 0.9)
            mass = surface_integral(lambda z: poisson_kernel(np.zeros(m), 1.0, x, z), quad)
            worst = max(worst, abs(mass / surface_area(m, 1.0) - 1.0))
    announce(2, worst <= 1e-6, f"worst |kernel mass - 1| = {worst:.2e} (tol 1e-6)")


def test_criterion_03_mean_value_property():
    rng = rng_stream(SEED, 201)
    worst = 0.0
    for m in (2, 3):
        for u in catalog(m, with_rates=False):
            for _ in range(20):
                y = uniform_sphere_sample(rng, m) * rng.uniform(0.0, 0.5)
                r = float(rng.uniform(0.05, 0.8 * (1.0 - np.linalg.norm(y))))
                n = 512 if u.name == "poisson-slice" else 128
                quad = SurfaceQuadrature(m, r, node_count=n)
                worst = max(worst, mean_value_residual(u, y, r, quad))
    announce(3, worst <= 1e-6, f"worst mean-value residual = {worst:.2e} (tol 1e-6)")


def test_criterion_04_extension_of_coordinate():
    rng = rng_stream(SEED, 202)
    worst = 0.0
    rules = {2: SurfaceQuadrature(2, node_count=2048), 3: SurfaceQuadrature(3, node_count=192)}
    for m, quad in rules.items():
        pts = uniform_sphere_sample(rng, m, size=100) * rng.uniform(0.0, 0.85, size=100)[:, None]
        for x in pts:
            val = poisson_extend(lambda z: z[:, 0], np.zeros(m), 1.0, x, quad)
            worst = max(worst, abs(val - x[0]))
    announce(4, worst <= 1e-6, f"worst |extension - x1| over 100-point grids = {worst:.2e}")


def test_criterion_05_reflection_principle(run_a):
    data = load(run_a, "reflection")
    v = data["verdicts"][0]
    err = abs(v["estimate"] - 0.3173105078629141)
    announce(5, err <= 0.005 and data["pass"], f"|p_hat - 0.317310| = {err:.4f} (tol 0.005)")


def test_criterion_06_tightness(run_a):
    data = load(run_a, "tightness")
    n21 = data["verdicts"][0]
    ok = n21["estimate"] == 9 and data["pass"]
    details = [f"{v['estimate']:.4f}<={v['tolerance']:.4f}" for v in data["verdicts"][1:]]
    announce(6, ok, f"N(2,1)={int(n21['estimate'])}; censoring bounds: {details}")


def test_criterion_07_exit_distribution(run_a):
    data = load(run_a, "exit-dist")
    ks = data["verdicts"][0]
    mean = data["verdicts"][2]
    ok = ks["pass"] and mean["pass"]
    announce(
        7,
        ok,
        f"KS stat {ks['estimate']:.4f} < {ks['tolerance']:.4f}; "
        f"E z1 = {mean['estimate']:.4f} (tol 3se = {mean['tolerance']:.4f})",
    )


def test_criterion_08_engine_agreement(run_a):
    v = load(run_a, "exit-dist")["verdicts"][3]
    announce(8, v["pass"], f"two-sample KS {v['estimate']:.4f} < {v['tolerance']:.4f}")


def test_criterion_09_scaling_lemma(run_a):
    v = load(run_a, "scaling")["verdicts"][0]
    announce(9, v["pass"], f"KS {v['estimate']:.4f} < {v['tolerance']:.4f} for tau(0,2) vs 4 tau(0,1)")


def test_criterion_10_lambda_bar_suite():
    rng = rng_stream(SEED, 203)
    v = rng.uniform(-10.0, 10.0, size=10_000)
    lb = lambda_bar(v)
    bounds_ok = bool(np.all(lb >= 0.0) and np.all(lb <= np.abs(v)))
    h = 1e-2
    second = lambda_bar(v - h) - 2 * lambda_bar(v) + lambda_bar(v + h)
    convex_ok = bool(np.min(second) >= -1e-12)
    # branch agreement at the switchover: 1e-16 with an absolute floor, since
    # the value there is ~5e-9 and one ulp of it is already 8e-25 (see ledger)
    gap = max(
        abs(lambda_bar_series(v0) - lambda_bar_closed(v0)) for v0 in (1e-4, -1e-4)
    )
    scale = max(1.0, lambda_bar_closed(1e-4))
    branch_ok = gap <= 1e-16 * scale
    announce(
        10,
        bounds_ok and convex_ok and branch_ok,
        f"bounds {bounds_ok}, convexity min {np.min(second):.2e}, branch gap {gap:.2e}",
    )


def test_criterion_11_maximal_inequality(run_a):
    data = load(run_a, "martingale")
    coin = next(v for v in data["verdicts"] if "fair coin" in v["claim"])
    skel = next(v for v in data["verdicts"] if "premise holds at eps" in v["claim"])
    ok = coin["pass"] and skel["pass"]
    announce(11, ok, f"skeleton: {skel['claim']} -> exceedance {skel['estimate']:.4f}; coin premise rejected: {coin['pass']}")


GRID_12 = np.arange(0.1, 0.951, 0.05)


def _criterion_12_reports():
    out = []
    for m in (2, 3):
        small = SurfaceQuadrature(m, node_count=128)
        big = SurfaceQuadrature(m, node_count=2048 if m == 2 else 224)
        for u in catalog(m, with_rates=False):
            quad = big if u.name == "poisson-slice" else small
            out.append((m, u.name, monotonicity_report(u, GRID_12, quad)))
    return out


def test_criterion_12_monotone_i1_i3_identity_and_i2_bound():
    """The attainable clauses: I1, I3 nondecreasing; I2 <= 1; exact identity."""
    reports = _criterion_12_reports()
    worst_down = min(r.max_down_step for _, _, r in reports)
    worst_id = max(r.identity_defect for _, _, r in reports)
    worst_i2 = max(r.i2_max for _, _, r in reports)
    ok = worst_down >= -1e-8 and worst_id <= 1e-12 and worst_i2 <= 1.0 + 1e-15
    announce(
        12,
        ok,
        f"(attainable parts) I1/I3 worst step {worst_down:.2e}, identity defect {worst_id:.2e}, max I2 {worst_i2:.15f}",
    )


def test_criterion_12_i2_direction_spec_literal():
    """The criterion as written also demands nondecreasing I2.

    For any catalog member with u(0) = 0 that is impossible: I2(r) -> 1 as
    r -> 0 and I2 <= 1 throughout, so I2 strictly decreases (for u = x1 in
    the plane, I2 falls from 0.968 to 0.575 on this grid).  The claim's
    proof-sketch inequality runs the wrong way for a convex *decreasing*
    transform of a submartingale.  Expected to fail; see the analysis in the
    decisions ledger.
    """
    reports = _criterion_12_reports()
    worst = min(r.i2_down_step for _, _, r in reports)
    announce(12, worst >= -1e-8, f"(I2 direction, spec literal) worst I2 step {worst:.2e} >= -1e-8")


def test_criterion_13_limit_theorem(run_a):
    data = load(run_a, "hardy-limit")
    per_q = [v for v in data["verdicts"] if "sup over" in v["claim"]]
    zero = next(v for v in data["verdicts"] if "identically 0" in v["claim"])
    ok = all(v["pass"] for v in per_q) and zero["pass"] and zero["estimate"] == 0.0
    qs = {v["claim"].split(":")[0]: round(v["estimate"], 4) for v in per_q}
    announce(13, ok, f"per-q exceedances {qs}; zero-function exactness {zero['pass']}")


def test_criterion_14_determinism(runs):
    a, b, c = runs
    names = sorted(p.name for p in a.iterdir())
    mismatch = [
        f"{name} ({label})"
        for name in names
        for label, other in (("repeat run", b), ("workers=2", c))
        if not (other / name).is_file() or (a / name).read_bytes() != (other / name).read_bytes()
    ]
    announce(
        14,
        not mismatch,
        f"{len(names)} byte-identical outputs across reruns and worker counts; mismatches: {mismatch or 'none'}",
    )
