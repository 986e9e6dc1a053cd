"""Rate calculus and the Monte Carlo check of the boundary limit theorem.

The theorem: for a harmonic u whose boundary integrals I1 and I2 converge
with known rates, there is an increasing radius ladder r_q -> 1 and a limit
value V with, for every q,

    P( sup over s in [tau(r_q), tau(1)) of |V - u(B_s)| > 2^(3-q) ) < 2^(4-q).

The experiment truncates at a radius just below 1, takes V as u at the
truncation exit point, and measures the per-q exceedance along discretized
paths.  No window opens before a path first reaches r_1, so each path starts
exactly on a sphere just inside it (``first_leg_radius``): by the strong
Markov property, Brownian motion from 0 leaves D(0, rho) at a uniform point
of the rho-sphere, and only the path after that is stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brownian import PathConfig, euler_chunk, exit_points, run_chunks, tightness_N
from .harmonic import HarmonicFn, RateData, radius_ladder
from .sphere import eval_on_points, uniform_sphere_sample
from .stats import binomial_se


def delta3(rates: RateData, eps: float) -> float:
    """Combined rate min(delta1(eps/2), delta2(eps/2)) for the integral I3."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return min(rates.delta1(eps / 2.0), rates.delta2(eps / 2.0))


@dataclass(frozen=True)
class RadiusSchedule:
    """The radii r_1 < ... < r_q_max, one per q."""

    radii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "radii", radius_ladder(self.radii))


def schedule_epsilons(q: int, b1: float, variant: str) -> float:
    """Per-q tolerance fed to delta3; the two published constants disagree,
    so ``conservative-min`` takes the smaller (which satisfies both chains)."""
    damp = math.exp(-3.0 * 2.0**q * b1)
    e_133 = (1.0 / 12.0) * 2.0**-q * damp
    e_s10 = (1.0 / 6.0) * 2.0 ** (-3 * q) * damp
    if variant == "paper-133":
        return e_133
    if variant == "paper-step10":
        return e_s10
    if variant == "conservative-min":
        return min(e_133, e_s10)
    raise ValueError(f"unknown schedule variant {variant!r}")


def radius_schedule(rates: RateData, q_max: int, variant: str = "conservative-min") -> RadiusSchedule:
    """Radius ladder r_q = 1 - delta3(eps_q), monotonized by running maxima.

    Estimated rates saturate below their grid resolution, which can tie
    consecutive radii; ties are broken by halving the remaining distance to 1,
    staying below every radius the unsaturated schedule would give.  Raises
    if the ladder escapes (0, 1).
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    radii = []
    prev = 0.0
    for q in range(1, q_max + 1):
        eq = schedule_epsilons(q, rates.b1, variant)
        r = 1.0 - delta3(rates, eq)
        r = max(r, prev)
        if r <= prev:
            r = 1.0 - (1.0 - prev) / 2.0
        if not 0.0 < r < 1.0:
            raise ValueError(f"schedule escaped (0, 1) at q={q}: rates too coarse for q_max")
        radii.append(r)
        prev = r
    return RadiusSchedule(np.array(radii))


def first_leg_radius(r1: float, m: int, dt: float) -> float:
    """Radius rho = max(0, r1 - 4 sqrt(m dt)) of the sphere the limit experiment's
    paths start on: four standard deviations of one Euler step below r1, so
    that a step from inside D(0, rho) to past r1 has probability about
    P(chi^2_m > 16 m), 1e-7 at m = 2."""
    return max(0.0, r1 - 4.0 * math.sqrt(m * dt))


@dataclass(frozen=True)
class LimitRow:
    q: int
    radius: float
    bound: float
    exceedance: float
    std_error: float
    passed: bool


@dataclass(frozen=True)
class LimitReport:
    rows: list[LimitRow]
    n_paths: int
    n_censored: int
    censor_allowance: float
    censor_ok: bool
    truncation_gap: float | None


def limit_experiment(
    u: HarmonicFn,
    sched: RadiusSchedule,
    cfg: PathConfig,
    n_paths: int,
    r_trunc: float = 0.999,
    workers: int = 1,
) -> LimitReport:
    """Per-q exceedance of |V - u(B_s)| > 2^(3-q) along discretized paths.

    Each path is Brownian motion from 0, whose first leg, up to its exit from
    D(0, rho), rho = ``first_leg_radius(r_1, m, dt)``, is exact: the exit
    point is uniform on the rho-sphere, drawn per chunk (c m normals) before
    any Euler normal, and no window opens during that leg.  From there the
    path is stepped until it leaves D(0, r_trunc); V is u at that exit point
    (at rho = 0 every start is 0, the walk from the origin).  For every
    scheduled radius the first grid crossing opens the observation window,
    and the running min/max of u along the remaining path gives the sup
    exactly.  The horizon bounds the stepped leg alone.  Censored paths
    (horizon hit) are excluded and counted against the tightness allowance
    2^(1-k), k the largest with N_{2,k} < horizon, which still holds because
    the stepped leg is never longer than the exit time from 0.  That search
    stops by k = 25: tightness_N(2.0, 26) exceeds 2^53, so a horizon past
    N_{2,25} raises ValueError before any path runs.
    """
    if not sched.radii[-1] < r_trunc < 1.0:
        raise ValueError("need max schedule radius < r_trunc < 1")
    k = 0
    try:
        while tightness_N(2.0, k + 1) < cfg.horizon:
            k += 1
    except ValueError:
        raise ValueError(f"horizon {cfg.horizon:g} lies past every tightness bound N_(2,k) below 2^53") from None
    allowance = 2.0 ** (-k + 1)
    radii = sched.radii
    q_max = radii.size
    rho = first_leg_radius(float(radii[0]), cfg.m, cfg.dt)

    def run(rng, c: int):
        umin = np.full((c, q_max), np.inf)
        umax = np.full((c, q_max), -np.inf)
        crossed = np.zeros((c, q_max), dtype=bool)

        def windows(rows, xs, levels, _t, valid):
            # radii increase, so q=1 opens first: only paths whose q=1 window
            # is open or opens in this block are looked at
            cols = np.flatnonzero(crossed[rows, 0] | np.any(valid & (levels >= radii[0]), axis=0))
            if not cols.size:
                return
            wrows, v = rows[cols], valid.take(cols, axis=1)[..., None]
            lv = levels.take(cols, axis=1)[..., None]
            opened = crossed[wrows] | np.logical_or.accumulate(v & (lv >= radii), axis=0)
            inwin = v & opened  # (k, n, q): step i lies in path n's window q
            seen = inwin[..., 0]
            pts = xs.take(cols, axis=1).reshape(-1, xs.shape[-1]).take(np.flatnonzero(seen), axis=0)
            uv = np.zeros(seen.shape)
            uv[seen] = eval_on_points(u.eval, pts)
            umin[wrows] = np.minimum(umin[wrows], np.where(inwin, uv[..., None], np.inf).min(axis=0))
            umax[wrows] = np.maximum(umax[wrows], np.where(inwin, uv[..., None], -np.inf).max(axis=0))
            crossed[wrows] = opened[-1]

        x0 = rho * uniform_sphere_sample(rng, cfg.m, size=c)
        ex = euler_chunk(rng, x0, c, cfg.dt, cfg.n_steps, r_trunc, observe=windows)
        _, exit_pts = exit_points(ex, r_trunc, cfg.dt)
        cen = ex.censored
        good = ~cen
        vhat = np.full(c, np.nan)
        vhat[good] = eval_on_points(u.eval, exit_pts[good])
        dev = np.maximum(umax - vhat[:, None], vhat[:, None] - umin)
        dev[~np.isfinite(dev)] = 0.0  # window never opened or empty
        dev[cen] = np.nan
        gap = np.zeros(c)
        if u.boundary_fn is not None:
            gap[good] = np.abs(vhat[good] - eval_on_points(u.boundary_fn, exit_pts[good] / r_trunc))
        return dev, cen, gap

    sup_dev, censored, trunc_gap = run_chunks(cfg, n_paths, run, workers)

    n_cen = int(censored.sum())
    n_ok = n_paths - n_cen
    rows: list[LimitRow] = []
    for j in range(q_max):
        bound = 2.0 ** (-(j + 1) + 4)
        thr = 2.0 ** (-(j + 1) + 3)
        devs = sup_dev[~censored, j]
        p = float(np.mean(devs > thr)) if n_ok else 1.0
        se = binomial_se(p, max(n_ok, 1))
        rows.append(LimitRow(j + 1, float(radii[j]), bound, p, se, p <= bound + 3.0 * se))

    cen_frac = n_cen / n_paths
    cen_se = binomial_se(cen_frac, n_paths)
    cen_ok = cen_frac <= allowance + 3.0 * cen_se
    gap = float(np.max(trunc_gap)) if u.boundary_fn is not None and n_ok else None
    return LimitReport(
        rows=rows,
        n_paths=n_paths,
        n_censored=n_cen,
        censor_allowance=allowance,
        censor_ok=cen_ok,
        truncation_gap=gap,
    )
