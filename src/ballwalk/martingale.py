"""The convex witness function, the martingale maximal inequality, and the
exit-time martingale of a harmonic function.

The key object is Y_r = u(B at the exit of D(0, r)), sampled jointly over an
increasing radius ladder by chaining exact exit points, so the maximal
inequality can be checked without time-discretization bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brownian import wos_from_many
from .harmonic import HarmonicFn, hardy_table, radius_ladder
from .sphere import SurfaceQuadrature, eval_on_points
from .stats import binomial_se, mc_estimate

_SERIES_CUTOFF = 1e-4


def lambda_bar(v):
    """exp(-|v|) - 1 + |v|, the symmetric convex witness with lambda_bar <= |v|.

    For |v| below 1e-4 the alternating series v^2/2! - |v|^3/3! + ... is used
    so the three-term cancellation cannot eat the value; above, expm1 keeps
    full precision.  Accepts scalars or arrays.
    """
    a = np.abs(np.asarray(v, dtype=float))
    small = a < _SERIES_CUTOFF
    out = np.empty_like(a)
    out[small] = lambda_bar_series(a[small])
    out[~small] = lambda_bar_closed(a[~small])
    return float(out) if np.isscalar(v) or np.asarray(v).ndim == 0 else out


def lambda_bar_series(v):
    """Series branch of ``lambda_bar`` regardless of magnitude, elementwise."""
    s = np.abs(np.asarray(v, dtype=float))
    return 0.5 * s * s * (1.0 - (s / 3.0) * (1.0 - (s / 4.0) * (1.0 - s / 5.0)))


def lambda_bar_closed(v):
    """Closed-form branch of ``lambda_bar`` regardless of magnitude, elementwise."""
    s = np.abs(np.asarray(v, dtype=float))
    return np.expm1(-s) + s


@dataclass(frozen=True)
class MartingaleSample:
    """Sampled martingale: values[i, j] is path i observed at stage j."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError("values must be (paths, stages) with at least one stage")
        object.__setattr__(self, "values", v)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MaximalInequalityReport:
    """Both sides of the premise with 3-sigma margins, and the conclusion's
    exceedance with its standard error.

    ``premise_holds`` is decided conservatively: the left side plus three
    standard errors must stay below the right side evaluated at means shifted
    three standard errors against us.  When the premise fails the theorem is
    vacuous and the exceedance is no test of it.
    """

    premise_holds: bool
    lhs: float
    lhs_se: float
    rhs: float
    exceedance: float
    exceedance_se: float
    bound: float


def maximal_inequality_check(z: MartingaleSample, eps: float) -> MaximalInequalityReport:
    """Check E lb(Z_n) - E lb(Z_0) < (1/6) eps^3 exp(-(3/eps)(E|Z_0| v E|Z_n|))
    and estimate P(max_k |Z_k - Z_0| > eps), which the theorem bounds by eps
    when the premise holds."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    vals = z.values
    z0, zn = vals[:, 0], vals[:, -1]
    diff = lambda_bar(zn) - lambda_bar(z0)
    lhs_est = mc_estimate(diff)
    e0, en = mc_estimate(np.abs(z0)), mc_estimate(np.abs(zn))
    worst_mean = max(e0.mean + 3.0 * e0.std_error, en.mean + 3.0 * en.std_error)
    rhs = (eps**3 / 6.0) * math.exp(-(3.0 / eps) * worst_mean)
    premise = (lhs_est.mean + 3.0 * lhs_est.std_error) < rhs
    dev = np.max(np.abs(vals - z0[:, None]), axis=1)
    exc = float(np.mean(dev > eps))
    exc_se = binomial_se(exc, z.n_paths)
    return MaximalInequalityReport(
        premise_holds=premise,
        lhs=lhs_est.mean,
        lhs_se=lhs_est.std_error,
        rhs=rhs,
        exceedance=exc,
        exceedance_se=exc_se,
        bound=eps,
    )


def sample_Y_skeleton(
    rng: np.random.Generator, u: HarmonicFn, radii, n_paths: int
) -> MartingaleSample:
    """Joint sample of (Y_{r_1}, ..., Y_{r_k}) over n_paths Brownian paths.

    Chains exact exit points through the increasing balls: start at 0, draw
    the exit point of D(0, r_1), from there the exit point of D(0, r_2), and
    so on.  The joint law is exact; no time grid is involved.
    """
    radii = radius_ladder(radii)
    xs = np.zeros((n_paths, u.dim))
    values = np.empty((n_paths, radii.size))
    for j, r in enumerate(radii):
        xs = wos_from_many(rng, xs, float(r))
        values[:, j] = eval_on_points(u.eval, xs)
    return MartingaleSample(values)


@dataclass(frozen=True)
class MonotonicityReport:
    max_down_step: float   # worst downward step of I1 and I3 (provably monotone)
    i2_down_step: float    # worst downward step of I2 (no direction in general)
    identity_defect: float  # max |I3 - (I2 - 1 + I1)| over the grid
    i2_max: float


def monotonicity_report(u: HarmonicFn, r_grid, quad: SurfaceQuadrature) -> MonotonicityReport:
    """The largest downward steps of I1, I2 and I3 on a radius grid, the
    defect of I3 = I2 - 1 + I1 and the largest I2.

    I1 and I3 are provably nondecreasing and I2 <= 1.  I2 carries no
    direction: any member with u(0) = 0 starts I2 at 1 and stays <= 1, so
    I2 can only come down.
    """
    grid = radius_ladder(r_grid, "r_grid")
    i1, i2, i3 = hardy_table(u, grid, quad)
    down = 0.0
    i2_down = 0.0
    if grid.size > 1:
        down = float(min(np.min(np.diff(i1)), np.min(np.diff(i3))))
        i2_down = float(np.min(np.diff(i2)))
    identity = float(np.max(np.abs(i3 - (i2 - 1.0 + i1))))
    return MonotonicityReport(down, i2_down, identity, float(np.max(i2)))
