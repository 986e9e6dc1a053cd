"""Experiment orchestrator.

Each subcommand checks one family of quantitative claims, writes a CSV of the
underlying numbers and a JSON verdict, and exits 0 on pass / 1 on failure.
``report`` folds all verdicts in a directory into summary.json and exits with
the number of failed suites.  Each subcommand takes ``--out`` and the flags of
the RunConfig fields it reads (``suite_fields``), and nothing else: any other
flag is a usage error, exit 2.  Outputs are byte-stable: same settings and seed
give identical files, CSV and verdict JSON alike, at any worker count (the
JSON echoes the fields the suite reads, without ``workers``).  A value out of
range, a value a suite rejects, an unreadable verdict file or a missing output
directory exits EXIT_CONFIG_ERROR = 64 with a one-line message.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tolerances as tol
from .brownian import (
    PathConfig,
    exit_continuity_check,
    exit_points_batch,
    reflection_crossing_mc,
    reflection_prob,
    scaling_check,
    simulate_exit,
    tightness_N,
    wos_exit_points,
)
from .harmonic import catalog, estimate_rates, zero_fn
from .hardy_limit import VARIANTS, limit_experiment, radius_schedule
from .martingale import (
    MartingaleSample,
    lambda_bar,
    lambda_bar_closed,
    lambda_bar_series,
    maximal_inequality_check,
    monotonicity_report,
    sample_Y_skeleton,
)
from .sphere import SurfaceQuadrature, mc_surface_area, surface_area, surface_integral
from .stats import KsReport, binomial_se, ks_one_sample, ks_two_sample, mc_estimate
from .streams import rng_stream

EXIT_CONFIG_ERROR = 64

# Random stream ids of the suites, each a range: scaling keys 0 and 1 for its two samples,
# tightness 30 + k for k = 1..3, hardy-limit 50 + i for its i-th member, constants 80 + m - 4
# for its Monte Carlo area at m = 4, 5.  perfbench/child.py keys streams 42 and 60 of its own.
STREAMS = {
    "scaling": range(0, 2),
    "exit-dist/centered": range(10, 11), "exit-dist/off-center": range(11, 12),
    "exit-dist/euler": range(12, 13), "exit-dist/exact": range(13, 14),
    "exit-dist/trace": range(14, 15), "reflection": range(20, 21), "tightness": range(31, 34),
    "martingale/lambda-bar": range(40, 41), "martingale/skeleton": range(41, 42),
    "martingale/skeleton-m3": range(43, 44),
    "hardy-limit": range(50, 53), "continuity": range(70, 71), "constants": range(80, 82),
}


@dataclass(frozen=True)
class RunConfig:
    m: int = 2
    dt: float = 1e-4
    horizon: float = 200.0
    n_paths: int = 4000
    seed: int = 20260809
    q_max: int = 3
    variant: str = "conservative-min"
    out_dir: str = "out"
    workers: int = 1

    def validate(self):
        PathConfig(m=self.m, dt=self.dt, horizon=self.horizon, seed=self.seed)  # checks m, dt, horizon and seed
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.q_max < 1:
            raise ValueError("q_max must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def path(self, stream: str, index: int = 0, m: int | None = None, horizon: float | None = None) -> PathConfig:
        """The paths of stream ``STREAMS[stream][index]`` at this run's seed and dt,
        and at its m and horizon unless they are given."""
        m = self.m if m is None else m
        horizon = self.horizon if horizon is None else horizon
        return PathConfig(m=m, dt=self.dt, horizon=horizon, seed=self.seed, stream_id=STREAMS[stream][index])


# RunConfig field -> its command-line flag; every subcommand also takes --out (out_dir)
FLAGS = {"seed": "--seed", "dt": "--dt", "horizon": "--horizon", "m": "--m", "n_paths": "--paths",
         "q_max": "--q-max", "variant": "--variant", "workers": "--workers"}
_HELP = {"n_paths": "number of Monte Carlo paths"}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def write_csv(path: Path, columns: list[str], rows: list[list], meta: dict):
    head = " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# {head}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _number(x):
    """A float for the verdict JSON; None stands for a missing or non-finite value,
    which JSON cannot hold."""
    return None if x is None or not math.isfinite(x) else float(x)


def verdict(claim: str, target, estimate, tolerance, passed) -> dict:
    return {
        "claim": claim,
        "target": _number(target),
        "estimate": _number(estimate),
        "tolerance": _number(tolerance),
        "pass": bool(passed),
    }


# The comparisons the suites apply.  Each derives ``pass`` from the numbers it
# reports, so a verdict cannot contradict its own target, estimate and tolerance.


def within(claim: str, target, estimate, tolerance) -> dict:
    """Passes when |estimate - target| <= tolerance."""
    return verdict(claim, target, estimate, tolerance, abs(estimate - target) <= tolerance)


def at_most(claim: str, target, estimate, tolerance) -> dict:
    """Passes when estimate <= tolerance: the tolerance is the ceiling."""
    return verdict(claim, target, estimate, tolerance, estimate <= tolerance)


def at_least(claim: str, target, estimate, tolerance) -> dict:
    """Passes when estimate >= target - tolerance."""
    return verdict(claim, target, estimate, tolerance, estimate >= target - tolerance)


def ks_below(claim: str, ks: KsReport) -> dict:
    """Passes when the KS statistic lies strictly below its threshold."""
    return verdict(claim, 0.0, ks.statistic, ks.threshold, ks.statistic < ks.threshold)


def write_suite(out_dir: Path, suite: str, cfg: RunConfig, columns, rows, verdicts) -> bool:
    out_dir.mkdir(parents=True, exist_ok=True)
    read = suite_fields(suite)
    meta = {"suite": suite, **{k: _fmt(getattr(cfg, k)) for k in ("seed", "dt", "n_paths") if k in read}}
    write_csv(out_dir / f"{suite}.csv", columns, rows, meta)
    ok = all(v["pass"] for v in verdicts)
    echo = {k: getattr(cfg, k) for k in read if k != "workers"}
    payload = {
        "suite": suite,
        "seed": cfg.seed,
        "config": echo,
        "verdicts": verdicts,
        "pass": ok,
    }
    (out_dir / f"{suite}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return ok


# ---------------------------------------------------------------- suites


def suite_constants(cfg: RunConfig, out: Path) -> bool:
    rows, verdicts = [], []
    for m in (2, 3, 4, 5):
        closed = surface_area(m, 1.0)
        if m in (2, 3):
            quad = SurfaceQuadrature(m, node_count=4096 if m == 2 else 192)
            est = surface_integral(lambda z: np.ones(z.shape[0]), quad)
            tolerance = 1e-10 if m == 2 else 1e-8
            claim = f"chart quadrature of 1 over the unit (m-1)-sphere equals sigma({m},1)"
        else:
            mc = mc_surface_area(m, 10**6, rng_stream(cfg.seed, STREAMS["constants"][m - 4]))
            est = mc.mean
            tolerance = max(5.0 * mc.std_error, 1e-12)
            claim = f"weighted-disc Monte Carlo reproduces sigma({m},1) within 5 se"
        rows.append([m, closed, est, abs(est - closed)])
        verdicts.append(within(claim, closed, est, tolerance))
    # closed forms pinned to their independent expressions
    pinned = {2: 2 * math.pi, 3: 4 * math.pi, 4: 2 * math.pi**2, 5: 8 * math.pi**2 / 3}
    for m, val in pinned.items():
        claim = f"sigma({m},1) closed form equals {val:.6f}..."
        verdicts.append(within(claim, val, surface_area(m, 1.0), 0.0 if m == 4 else 1e-12))
    return write_suite(out, "constants", cfg, ["m", "closed_form", "quadrature", "abs_err"], rows, verdicts)


def suite_exit_dist(cfg: RunConfig, out: Path) -> bool:
    # (a) centered start, m=3: first coordinate of discretized exit points is U[-1, 1]
    taus, pts, cen = exit_points_batch(cfg.path("exit-dist/centered", m=3), np.zeros(3), 1.0, cfg.n_paths,
                                       workers=cfg.workers)
    z1 = pts[~cen, 0]
    ks = ks_one_sample(z1, lambda t: np.clip((t + 1.0) / 2.0, 0.0, 1.0))
    verdicts = [
        ks_below("m=3 centered exit: z1 is uniform on [-1,1] (KS at 5%)", ks),
        at_most("centered exit: censoring negligible at this horizon", 0.0, float(cen.mean()), 0.01),
    ]
    # (b) off-center x=(0.5, 0), m=2: exact sampler has E z1 = 0.5
    rng = rng_stream(cfg.seed, STREAMS["exit-dist/off-center"][0])
    zw = wos_exit_points(rng, np.array([0.5, 0.0]), 1.0, 5 * cfg.n_paths)
    est = mc_estimate(zw[:, 0])
    claim = "off-center exact exit: E z1 equals the harmonic extension value x1 = 0.5"
    verdicts.append(within(claim, 0.5, est.mean, 3.0 * est.std_error))
    # (c) engine agreement, m=2, x=(0.5, 0): two-sample KS on z1
    n_half = max(cfg.n_paths // 2, 50)
    _, pts2, cen2 = exit_points_batch(cfg.path("exit-dist/euler", m=2), np.array([0.5, 0.0]), 1.0, n_half,
                                      workers=cfg.workers)
    rng2 = rng_stream(cfg.seed, STREAMS["exit-dist/exact"][0])
    zw2 = wos_exit_points(rng2, np.array([0.5, 0.0]), 1.0, n_half)
    ks2 = ks_two_sample(pts2[~cen2, 0], zw2[:, 0])
    verdicts.append(ks_below("discretized and exact exit engines sample the same z1 law (KS at 5%)", ks2))
    # export one demo path trace as (t, x1..xm) rows
    tau, trace = simulate_exit(cfg.path("exit-dist/trace", m=2), 1.0)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "exit-dist-trace.csv",
        ["t", "x1", "x2"],
        [list(row) for row in trace],
        {"suite": "exit-dist", "seed": cfg.seed, "tau": _fmt(tau)},
    )
    rows = [[i, t, *p] for i, (t, p) in enumerate(zip(taus[~cen][:2000], pts[~cen][:2000]))]
    cols = ["path", "tau", "z1", "z2", "z3"]
    return write_suite(out, "exit-dist", cfg, cols, rows, verdicts)


def suite_reflection(cfg: RunConfig, out: Path) -> bool:
    target = reflection_prob(1.0, 1.0)
    pc = cfg.path("reflection", m=1, horizon=1.0)
    est = reflection_crossing_mc(pc, 1.0, n_paths=cfg.n_paths, workers=cfg.workers)
    claim = "P(sup_{s<=t} B_s >= lam) = 2 (1 - Phi(lam/sqrt(t))) at t=1, lam=1"
    rows = [[1.0, 1.0, target, est.mean, est.std_error, abs(est.mean - target)]]
    cols = ["t", "lam", "target", "estimate", "std_error", "abs_err"]
    return write_suite(out, "reflection", cfg, cols, rows, [within(claim, target, est.mean, 0.005)])


def suite_tightness(cfg: RunConfig, out: Path) -> bool:
    verdicts = [within("smallest N with 2 Phi(2/sqrt(N)) - 1 < 1/2 is 9", 9, tightness_N(2.0, 1), 0)]
    rows = []
    for k in (1, 2, 3):
        n_k = tightness_N(2.0, k)
        horizon = n_k + 1.0
        pc = cfg.path("tightness", k - 1, horizon=horizon)
        _, _, cen = exit_points_batch(pc, np.zeros(cfg.m), 1.0, cfg.n_paths, workers=cfg.workers)
        frac = float(cen.mean())
        se = binomial_se(frac, cfg.n_paths)
        bound = 2.0 ** (-k + 1)
        rows.append([k, n_k, horizon, frac, se, bound])
        claim = f"P(exit time > {horizon:g}) <= 2^(1-{k}) for the unit ball from 0"
        verdicts.append(at_most(claim, bound, frac, bound + 3 * se))
    cols = ["k", "N_2k", "horizon", "censored_frac", "std_error", "bound"]
    return write_suite(out, "tightness", cfg, cols, rows, verdicts)


def suite_scaling(cfg: RunConfig, out: Path) -> bool:
    rep = scaling_check(cfg.path("scaling"), 4.0, n_paths=cfg.n_paths, workers=cfg.workers)
    means = "their means agree within 3 combined standard errors"
    verdicts = [
        ks_below("exit times from radius 2 and 4x exit times from radius 1 share one law (KS at 5%)", rep.ks),
        within(means, rep.mean_unit_scaled, rep.mean_scaled, 3.0 * rep.mean_se),
    ]
    rows = [[4.0, rep.ks.statistic, rep.ks.threshold, rep.mean_scaled, rep.mean_unit_scaled, rep.censored]]
    cols = ["r", "ks_stat", "ks_threshold", "mean_sqrt_r", "mean_r_times_unit", "censored"]
    return write_suite(out, "scaling", cfg, cols, rows, verdicts)


def suite_continuity(cfg: RunConfig, out: Path) -> bool:
    kappa, r1, gap = 2, 0.9, 0.045
    rep = exit_continuity_check(cfg.path("continuity"), r1, r1 + gap, kappa, n_paths=cfg.n_paths, workers=cfg.workers)
    claim = "P(tau'' - tau' > 2^(4-kappa)) <= 2^(1-kappa) for nested balls (kappa=2)"
    verdicts = [
        at_most(claim, rep.bound, rep.exceedance, rep.bound + 3 * rep.exceedance_se),
        at_least("tau'' >= tau' pathwise", 0.0, rep.min_diff, 0.0),
    ]
    rows = [[kappa, r1, r1 + gap, rep.exceedance, rep.exceedance_se, rep.bound, rep.gap_bound, rep.min_diff]]
    cols = ["kappa", "r1", "r2", "exceedance", "std_error", "prob_bound", "gap_bound", "min_diff"]
    return write_suite(out, "continuity", cfg, cols, rows, verdicts)


def suite_martingale(cfg: RunConfig, out: Path) -> bool:
    verdicts = []
    rows = []
    # lambda_bar property suite
    rng = rng_stream(cfg.seed, STREAMS["martingale/lambda-bar"][0])
    v = rng.uniform(-10.0, 10.0, size=10_000)
    lb = lambda_bar(v)
    ok_bounds = bool(np.all(lb >= 0.0) and np.all(lb <= np.abs(v)))
    verdicts.append(verdict("0 <= lambda_bar(v) <= |v|", 0.0, float(np.max(lb - np.abs(v))), 0.0, ok_bounds))
    h = 1e-2
    second = lambda_bar(v - h) - 2.0 * lambda_bar(v) + lambda_bar(v + h)
    verdicts.append(at_least("lambda_bar is convex (second differences >= -1e-12)", 0.0, float(np.min(second)), 1e-12))
    branch_gap = max(
        abs(lambda_bar_series(1e-4) - lambda_bar_closed(1e-4)),
        abs(lambda_bar_series(-1e-4) - lambda_bar_closed(-1e-4)),
    )
    verdicts.append(at_most("series and closed-form branches agree at the 1e-4 switchover", 0.0, branch_gap, 1e-16))
    # fair-coin counterexample: premise must fail
    coin = MartingaleSample(np.array([[0.0, 1.0], [0.0, -1.0]] * 500))
    coin_rep = maximal_inequality_check(coin, 0.5)
    verdicts.append(
        verdict(
            "premise fails for the +-1 fair coin at eps = 1/2",
            0.0,
            coin_rep.lhs,
            coin_rep.rhs,
            not coin_rep.premise_holds,
        )
    )
    # Y skeletons of x1 between 0.90 and 0.91 at m = 2 and 3, premise-verified eps
    for m, stream in ((2, "martingale/skeleton"), (3, "martingale/skeleton-m3")):
        u = catalog(m, with_rates=False)[0]
        rng = rng_stream(cfg.seed, STREAMS[stream][0])
        sk = sample_Y_skeleton(rng, u, np.array([0.90, 0.91]), cfg.n_paths)
        checks = (maximal_inequality_check(sk, eps) for eps in (0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0))
        rep = next((c for c in checks if c.premise_holds), None)
        if rep is None:
            claim = f"maximal inequality premise holds at some eps <= 2 (m={m})"
            verdicts.append(verdict(claim, None, None, None, False))
            continue
        claim = f"premise holds at eps={rep.bound} (m={m}): P(max_k |Z_k - Z_0| > eps) < eps"
        verdicts.append(at_most(claim, rep.bound, rep.exceedance, rep.bound + 3.0 * rep.exceedance_se))
        rows.append([m, rep.bound, rep.lhs, rep.lhs_se, rep.rhs, rep.exceedance, rep.exceedance_se])
    # monotonicity of the boundary integrals across the catalog
    grid = np.arange(0.1, 0.951, 0.05)
    for m in (2, 3):
        small = SurfaceQuadrature(m, node_count=128)
        big = SurfaceQuadrature(m, node_count=2048 if m == 2 else 224)
        for member in catalog(m, with_rates=False):
            quad = big if member.name == "poisson-slice" else small
            mono = monotonicity_report(member, grid, quad)
            ok = (
                mono.max_down_step >= -tol.QUAD_MONOTONE_TOL
                and mono.i2_max <= 1.0 + tol.INTEGRAL_IDENTITY_TOL
                and mono.identity_defect <= tol.INTEGRAL_IDENTITY_TOL
            )
            claim = f"I1, I3 nondecreasing, I2 <= 1, I3 = I2 - 1 + I1 for {member.name} (m={m})"
            verdicts.append(verdict(claim, 0.0, mono.max_down_step, tol.QUAD_MONOTONE_TOL, ok))
    cols = ["m", "eps", "premise_lhs", "premise_lhs_se", "premise_rhs", "exceedance", "exceedance_se"]
    return write_suite(out, "martingale", cfg, cols, rows, verdicts)


def suite_hardy_limit(cfg: RunConfig, out: Path) -> bool:
    verdicts = []
    rows = []
    cat = catalog(2, with_rates=False)
    members = {"x1": cat[0], "poisson-slice": cat[-1], "zero": zero_fn(2)}
    rates = {name: estimate_rates(fn) for name, fn in members.items()}
    for i, (name, fn) in enumerate(members.items()):
        sched = radius_schedule(rates[name], cfg.q_max, cfg.variant)
        pc = cfg.path("hardy-limit", i, m=2)
        rep = limit_experiment(fn, sched, pc, cfg.n_paths, workers=cfg.workers)
        for row in rep.rows:
            rows.append([name, row.q, row.radius, row.bound, row.exceedance, row.std_error, row.passed])
            claim = f"{name}: P(sup over [tau(r_{row.q}), tau(r_trunc)) of |V - u(B_s)| > 2^(3-{row.q})) <= 2^(4-{row.q})"
            verdicts.append(at_most(claim, row.bound, row.exceedance, row.bound + 3 * row.std_error))
        frac = rep.n_censored / rep.n_paths
        limit = rep.censor_allowance + 3 * binomial_se(frac, rep.n_paths)  # the bound censor_ok applies
        verdicts.append(at_most(f"{name}: censoring within the tightness allowance", rep.censor_allowance, frac, limit))
        if name == "zero":
            total = sum(r.exceedance for r in rep.rows)
            verdicts.append(within("zero function: exceedance identically 0", 0.0, total, 0.0))
    # variant dominance: conservative-min radii dominate both published constants
    cons = radius_schedule(rates["x1"], cfg.q_max, "conservative-min").radii
    for var in ("paper-133", "paper-step10"):
        other = radius_schedule(rates["x1"], cfg.q_max, var).radii
        verdicts.append(at_least(f"conservative-min radii dominate {var}", 0.0, float(np.min(cons - other)), 1e-15))
    cols = ["member", "q", "r_q", "bound", "exceedance", "std_error", "pass"]
    return write_suite(out, "hardy-limit", cfg, cols, rows, verdicts)


def run_report(out: Path) -> int:
    """Fold every suite verdict in ``out`` into summary.json; exit = #failed.
    Raises ValueError for a verdict file without a boolean ``pass`` and a
    ``verdicts`` list, and OSError for a missing ``out``."""
    suites = []
    failed = 0
    for name in SUITES:
        p = out / f"{name}.json"
        if not p.exists():
            continue
        try:
            data = json.loads(p.read_text())
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
        if not (isinstance(data, dict) and isinstance(data.get("pass"), bool)
                and isinstance(data.get("verdicts"), list)):
            raise ValueError(f"{p}: a verdict file holds a boolean 'pass' and a 'verdicts' list")
        suites.append({"suite": name, "pass": data["pass"], "n_verdicts": len(data["verdicts"])})
        if not data["pass"]:
            failed += 1
    summary = {"suites": suites, "failed": failed}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return failed


# Each suite's runner and the RunConfig fields it reads besides out_dir: the
# suite's flags, and the settings its outputs echo.
_RUNNERS = {
    "constants": (suite_constants, ("seed",)),
    "exit-dist": (suite_exit_dist, ("seed", "dt", "horizon", "n_paths", "workers")),
    "reflection": (suite_reflection, ("seed", "dt", "n_paths", "workers")),
    "tightness": (suite_tightness, ("seed", "dt", "m", "n_paths", "workers")),
    "scaling": (suite_scaling, ("seed", "dt", "horizon", "m", "n_paths", "workers")),
    "continuity": (suite_continuity, ("seed", "dt", "horizon", "m", "n_paths", "workers")),
    "martingale": (suite_martingale, ("seed", "n_paths")),
    "hardy-limit": (suite_hardy_limit, ("seed", "dt", "horizon", "n_paths", "q_max", "variant", "workers")),
}
SUITES = tuple(_RUNNERS)


def suite_fields(command: str) -> tuple[str, ...]:
    """The RunConfig fields ``command`` reads besides out_dir; ``report`` reads none."""
    return _RUNNERS[command][1] if command in _RUNNERS else ()


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``ballwalk`` parser, and its subcommand parsers by name."""
    ap = argparse.ArgumentParser(prog="ballwalk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    # a field's type is the type of its default, and parses the flag's argument
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    for name in (*SUITES, "report"):
        p = sub.add_parser(name)
        p.add_argument("--out", dest="out_dir", default=None, help="output directory")
        for key in suite_fields(name):
            choices = VARIANTS if key == "variant" else None
            p.add_argument(FLAGS[key], dest=key, type=types[key], default=None, choices=choices, help=_HELP.get(key))
    return ap, sub.choices


def load_config(args) -> RunConfig:
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k != "command" and v is not None})
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    ap, commands = build_parser()
    args, extra = ap.parse_known_args(argv)
    if extra:  # reported with the usage of the subcommand, which lists the flags it takes
        commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = load_config(args)
        out = Path(cfg.out_dir)
        if args.command == "report":
            return run_report(out)
        ok = _RUNNERS[args.command][0](cfg, out)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"{args.command}: {'PASS' if ok else 'FAIL'} (outputs in {out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
