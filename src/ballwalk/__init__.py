"""Harmonic functions on the unit ball meet Brownian exit times.

Numerics for the full chain: surface-area quadrature on (m-1)-spheres,
Poisson-kernel harmonic extension, first-exit simulation (discretized and
exact), the martingale maximal inequality, and boundary-limit experiments
for harmonic functions with integrable boundary growth.
"""

from .harmonic import (
    HarmonicFn,
    InvariantViolation,
    RateData,
    catalog,
    estimate_rates,
    hardy_integrals,
    laplacian_fd,
    mean_value_residual,
    poisson_extend,
    poisson_kernel,
    zero_fn,
)
from .hardy_limit import (
    LimitReport,
    RadiusSchedule,
    delta3,
    gamma_limit,
    limit_experiment,
    radius_schedule,
)
from .brownian import (
    CensoredExit,
    ExitEvent,
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
from .martingale import (
    MartingaleSample,
    lambda_bar,
    maximal_inequality_check,
    monotonicity_report,
    sample_Y_skeleton,
)
from .sphere import (
    SurfaceQuadrature,
    surface_area,
    surface_integral,
    uniform_sphere_sample,
)
from .stats import KsReport, McEstimate, ks_one_sample, ks_two_sample, mc_estimate
from .streams import rng_stream

__all__ = [
    "CensoredExit",
    "ExitEvent",
    "HarmonicFn",
    "InvariantViolation",
    "KsReport",
    "LimitReport",
    "MartingaleSample",
    "McEstimate",
    "PathConfig",
    "RadiusSchedule",
    "RateData",
    "SurfaceQuadrature",
    "catalog",
    "delta3",
    "estimate_rates",
    "exit_continuity_check",
    "exit_points_batch",
    "gamma_limit",
    "hardy_integrals",
    "ks_one_sample",
    "ks_two_sample",
    "lambda_bar",
    "laplacian_fd",
    "limit_experiment",
    "maximal_inequality_check",
    "mc_estimate",
    "mean_value_residual",
    "monotonicity_report",
    "poisson_extend",
    "poisson_kernel",
    "radius_schedule",
    "reflection_crossing_mc",
    "reflection_prob",
    "rng_stream",
    "sample_Y_skeleton",
    "scaling_check",
    "simulate_exit",
    "surface_area",
    "surface_integral",
    "tightness_N",
    "uniform_sphere_sample",
    "wos_exit_points",
    "zero_fn",
]

__version__ = "0.1.0"
