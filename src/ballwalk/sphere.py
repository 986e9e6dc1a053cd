"""Surface-area integration and uniform sampling on (m-1)-spheres.

The sphere is charted by its first m-1 coordinates theta over the unit
(m-1)-disc, one chart per hemisphere, with area element
r^(m-1) / sqrt(1 - |theta|^2).  The singular weight is never evaluated near
the equator: for m = 2 Chebyshev-Gauss quadrature has exactly that weight,
and for m = 3 the substitution rho = sin(u) cancels it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .stats import McEstimate, mc_estimate


def surface_area(m: int, r: float = 1.0) -> float:
    """Total surface area of the (m-1)-sphere of radius r.

    sigma_{m,1} = pi^(m/2) m / (m/2)!  for even m, and
    2^((m+1)/2) pi^((m-1)/2) / (1*3*...*(m-2))  for odd m.
    """
    if m < 2:
        raise ValueError("surface_area needs dimension m >= 2")
    if not r > 0.0:
        raise ValueError("radius must be positive")
    if m % 2 == 0:
        s1 = math.pi ** (m // 2) * m / math.factorial(m // 2)
    else:
        odd = 1
        for i in range(1, m - 1, 2):
            odd *= i
        s1 = 2.0 ** ((m + 1) // 2) * math.pi ** ((m - 1) // 2) / odd
    return r ** (m - 1) * s1


@dataclass(frozen=True)
class SurfaceQuadrature:
    """A deterministic chart rule for integrating over the sphere ``|z| = r``
    in R^m, m in {2, 3}; for m = 3 ``node_count`` is the per-axis resolution
    (total nodes 4 n^2).
    """

    m: int
    r: float = 1.0
    node_count: int = 256

    def __post_init__(self):
        if self.m not in (2, 3):
            raise ValueError("the chart rule is only available for m in {2, 3}")
        if not self.r > 0.0:
            raise ValueError("radius must be positive")
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights for n points on [-1, 1].

    Tricomi's guesses -cos(pi (k - 1/4) / (n + 1/2)), made exactly odd, take
    five Newton steps on the three-term recurrence for P_n; the weights are
    2 / ((1 - x^2) P_n'(x)^2).  Every step is odd in x, so the nodes are
    exactly antisymmetric and the weights exactly symmetric.  No LAPACK call.
    """
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    x = (x - x[::-1]) / 2.0
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def quad_nodes(quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on the sphere ``|z| = r`` and weights summing to ~surface_area.

    Every node pairs the two hemisphere points over the same chart point, so
    integrands odd in the last coordinate cancel exactly.
    """
    m, r, n = quad.m, quad.r, quad.node_count
    if m == 2:
        k = np.arange(1, n + 1)
        theta = np.cos((2 * k - 1) * math.pi / (2 * n))  # Chebyshev-Gauss nodes
        h = np.sqrt(1.0 - theta**2)
        pts = np.concatenate(
            [np.column_stack([theta, h]), np.column_stack([theta, -h])]
        )
        w = np.full(2 * n, r * math.pi / n)
        return r * pts, w
    # m == 3: rho = sin(u) turns the disc integral into r^2 sin(u) du dphi.
    gl_x, gl_w = gauss_legendre(n)
    u = (gl_x + 1.0) * (math.pi / 4.0)
    wu = gl_w * (math.pi / 4.0) * np.sin(u)
    nphi = 2 * n
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    wphi = 2.0 * math.pi / nphi
    su, cu = np.sin(u), np.cos(u)
    x1 = np.outer(su, np.cos(phi)).ravel()
    x2 = np.outer(su, np.sin(phi)).ravel()
    x3 = np.outer(cu, np.ones(nphi)).ravel()
    pts = np.concatenate(
        [np.column_stack([x1, x2, x3]), np.column_stack([x1, x2, -x3])]
    )
    w = np.concatenate([np.outer(wu, np.full(nphi, wphi)).ravel()] * 2) * r**2
    return r * pts, w


def eval_on_points(g: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized g on the rows of pts; one value per row, else ValueError."""
    vals = np.asarray(g(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"g must map {pts.shape[0]} rows to shape ({pts.shape[0]},), got {vals.shape}")
    return vals


def surface_integral(g: Callable, quad: SurfaceQuadrature) -> float:
    """Approximation of the surface-area integral of g over ``|z| = r``."""
    pts, w = quad_nodes(quad)
    return float(np.sum(w * eval_on_points(g, pts)))


def mc_surface_area(m: int, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo estimate of surface_area(m, 1) from n weighted disc samples.

    In polar chart coordinates the total area is
    2 sigma_{m-1,1} * integral of rho^(m-2) / sqrt(1 - rho^2) over (0, 1);
    the substitution rho = sin(u) removes the singular weight, leaving a
    plain average of sin(u)^(m-2) with u uniform on (0, pi/2).
    """
    if m < 3:
        raise ValueError("the radial chart estimator needs m >= 3")
    u = rng.uniform(0.0, math.pi / 2.0, size=n)
    scale = 2.0 * surface_area(m - 1, 1.0) * (math.pi / 2.0)
    est = mc_estimate(np.sin(u) ** (m - 2))
    return McEstimate(scale * est.mean, scale * est.std_error)


def uniform_sphere_sample(rng: np.random.Generator, m: int, *, size: int | None = None):
    """Uniform point(s) on the unit sphere about 0.

    Normalizes a vector of independent standard Gaussians.  A row's norm is
    below 1e-300 with probability p < 1e-300 (its first coordinate alone is
    that small with probability under 0.8e-300), so the redraw cap that
    ``brownian.wos_from_many`` uses, ceil(-64 ln 2 / ln p) rounds, is one
    round here: such a row raises RuntimeError, naming it, instead of
    being redrawn.
    """
    if m < 1:
        raise ValueError("dimension must be >= 1")
    n = 1 if size is None else int(size)
    x = rng.standard_normal((n, m))
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(norms < 1e-300)
    if bad.size:
        raise RuntimeError(f"uniform_sphere_sample: rows {bad[:8].tolist()} ({bad.size} in all) "
                           "still have norm below 1e-300 after 1 round")
    pts = x / norms[:, None]
    return pts[0] if size is None else pts
