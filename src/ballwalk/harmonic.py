"""Poisson kernel, harmonic extension, and a catalog of harmonic functions.

Everything lives on the open unit ball unless a center/radius pair says
otherwise.  Catalog members carry enough metadata (modulus of continuity,
boundary values, convergence-rate data for the boundary integrals) to drive
the boundary-limit experiments downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import tolerances as tol
from .sphere import SurfaceQuadrature, eval_on_points, quad_nodes


class InvariantViolation(RuntimeError):
    """A numerically checked mathematical invariant failed beyond tolerance."""


@dataclass(frozen=True)
class RateData:
    """Limits and rates of the boundary integrals of a harmonic function.

    ``delta1``/``delta2`` map a tolerance eps to a band width d in (0, 1):
    whenever 1 - r < d, the integral is within eps below its limit.  They are
    nondecreasing in eps and shrink to 0 as eps does.
    """

    b1: float
    delta1: Callable[[float], float]
    b2: float
    delta2: Callable[[float], float]


@dataclass(frozen=True)
class HarmonicFn:
    """A harmonic function on the open unit ball plus test metadata.

    ``eval`` accepts an (..., m) array and returns shape (...,).
    ``modulus_of_continuity(r, eps)`` gives a step d such that values move by
    at most eps between points of the closed r-ball at distance below d.
    """

    name: str
    dim: int
    eval: Callable
    modulus_of_continuity: Callable[[float, float], float]
    boundary_fn: Callable | None = None
    hardy: RateData | None = None

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))


def _as_eval(u) -> Callable:
    return u.eval if isinstance(u, HarmonicFn) else u


def poisson_kernel(y, r: float, x, z):
    """Poisson kernel (1/r) (r^2 - |y - x|^2) / |z - x|^m for the ball D(y, r).

    x must lie in the open ball; z may be one sphere point or an array of
    them (rows), each on the sphere within SPHERE_POINT_TOL.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    m = y.shape[0]
    dxy = float(np.linalg.norm(x - y))
    if not dxy < r:
        raise ValueError("x must lie in the open ball")
    zz = z[None, :] if z.ndim == 1 else z
    if np.max(np.abs(np.linalg.norm(zz - y, axis=1) - r)) > tol.SPHERE_POINT_TOL:
        raise ValueError("z must lie on the sphere |z - y| = r")
    vals = (r * r - dxy * dxy) / (r * np.linalg.norm(zz - x, axis=1) ** m)
    return float(vals[0]) if z.ndim == 1 else vals


def poisson_extend(g: Callable, y, r: float, x, quad: SurfaceQuadrature) -> float:
    """Harmonic extension of boundary data g evaluated at x inside D(y, r).

    Integrates the kernel-weighted boundary values and divides by the kernel
    mass on the same nodes.  Self-normalizing keeps g = 1 exact, cancels the
    kernel's constant prefactor on balls of any radius, and absorbs most of
    the quadrature error of the sharply peaked kernel near the boundary.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    pts, w = quad_nodes(quad)
    pts = pts + y
    k = w * poisson_kernel(y, r, x, pts)
    vals = eval_on_points(g, pts)
    return float(np.sum(k * vals) / np.sum(k))


def mean_value_residual(u, y, r: float, quad: SurfaceQuadrature) -> float:
    """|u(y) - average of u over the sphere |z - y| = r|.

    The closed ball about y must sit inside the open unit ball, and ``quad``
    must be a rule on the sphere of radius r.
    """
    y = np.asarray(y, dtype=float)
    if quad.r != r:
        raise ValueError(f"quadrature radius {quad.r} differs from r = {r}")
    if float(np.linalg.norm(y)) + r >= 1.0:
        raise ValueError("closed ball must be contained in the open unit ball")
    f = _as_eval(u)
    pts, w = quad_nodes(quad)
    avg = float(np.sum(w * eval_on_points(f, pts + y)) / np.sum(w))
    center = float(eval_on_points(f, y[None, :])[0])
    return abs(center - avg)


def laplacian_fd(u, x, h: float = tol.FD_STEP) -> float:
    """Central second-difference estimate of the Laplacian of u at x."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    if float(np.linalg.norm(x)) + h >= 1.0:
        raise ValueError("step too large: FD stencil leaves the unit ball")
    f = _as_eval(u)
    pts = np.concatenate([x[None, :] + h * np.eye(m), x[None, :] - h * np.eye(m), x[None, :]])
    vals = eval_on_points(f, pts)
    return float(np.sum(vals[:m] + vals[m : 2 * m] - 2.0 * vals[2 * m]) / (h * h))


def radius_ladder(radii, name: str = "radii") -> np.ndarray:
    """``radii`` as a float array; ValueError unless it is one-dimensional,
    nonempty and strictly increasing inside (0, 1)."""
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 1 or not (r[0] > 0.0 and r[-1] < 1.0 and np.all(np.diff(r) > 0.0)):
        raise ValueError(f"{name} must be strictly increasing inside (0, 1)")
    return r


def hardy_integrals(u, r: float, quad: SurfaceQuadrature) -> tuple[float, float, float]:
    """(I1, I2, I3) at radius r: ``hardy_table`` on the one-radius grid [r]."""
    i1, i2, i3 = hardy_table(u, [r], quad)
    return float(i1[0]), float(i2[0]), float(i3[0])


def hardy_table(u, grid, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I1, I2, I3) over the radii of ``grid``: the sphere averages of
    |u(r z)|, e^{-|u(r z)|} and e^{-|u(r z)|} - 1 + |u(r z)|, as three arrays
    from one rule built once, so I3 = I2 - 1 + I1 holds to roundoff.  Raises
    ValueError for a radius outside (0, 1) or a rule off the unit sphere.
    """
    radii = [float(r) for r in grid]
    if not all(0.0 < r < 1.0 for r in radii):
        raise ValueError("r must lie in (0, 1)")
    if abs(quad.r - 1.0) > 1e-15:
        raise ValueError("the Hardy integrals need a unit-sphere quadrature")
    f = _as_eval(u)
    pts, w = quad_nodes(quad)
    w = w / np.sum(w)
    table = np.empty((3, len(radii)))
    for j, r in enumerate(radii):
        a = np.abs(eval_on_points(f, r * pts))
        e = np.expm1(-a)  # expm1 keeps u = 0 at exactly I2 = 1
        table[:, j] = np.sum(w * a), 1.0 + np.sum(w * e), np.sum(w * (e + a))
    return tuple(table)


DEFAULT_RATE_GRID = np.concatenate([np.linspace(0.1, 0.98, 23), [0.985, 0.99]])


def estimate_rates(
    u,
    r_grid=None,
    quad: SurfaceQuadrature | None = None,
) -> RateData:
    """Numerical RateData for u from its boundary integrals on a radius grid.

    Limits extrapolate the grid tail to r = 1.  The rate functions are
    step-function inverses of |limit - I| over the grid, shrunk by a safety
    factor of 1/2 and capped at the smallest grid gap, so radii inside the
    certified band sit a factor two deeper than the grid point that earned
    the certificate.  Raises
    InvariantViolation if I1 or I3 decreases beyond quadrature tolerance,
    which would contradict their proven monotonicity.  I2 carries no
    direction: for any member with u(0) = 0 it starts at 1 and can only come
    down, so only its convergence band is certified.
    """
    dim = u.dim if isinstance(u, HarmonicFn) else None
    if quad is None:
        if dim not in (2, 3):
            raise ValueError("estimate_rates needs an explicit quadrature for m not in {2, 3}")
        # |u| hits chart kinks for sign-changing u, so convergence is only
        # algebraic; 2048 nodes keep the extrapolated limits below 1e-7 error.
        quad = SurfaceQuadrature(dim, node_count=2048 if dim == 2 else 192)
    grid = radius_ladder(DEFAULT_RATE_GRID if r_grid is None else r_grid, "r_grid")
    if grid.size < 2:
        raise ValueError("r_grid needs >= 2 points")
    i1, i2, i3 = hardy_table(u, grid, quad)
    for name, vals in (("I1", i1), ("I3", i3)):
        worst = float(np.min(np.diff(vals)))
        if worst < -tol.QUAD_MONOTONE_TOL:
            raise InvariantViolation(
                f"{name} decreases by {-worst:.3e} on the grid; "
                "monotonicity of the boundary integrals is violated"
            )
    gap_min = float(np.min(np.diff(grid)))

    def _extrapolate(vals: np.ndarray) -> float:
        # quadratic through the last three points: exact for the linear and
        # gently curved integrals, and far less biased than a chord for the
        # convex ones (r^4-type members)
        k = min(3, grid.size)
        coeffs = np.polyfit(grid[-k:], vals[-k:], k - 1)
        return float(np.polyval(coeffs, 1.0))

    b1 = float(max(_extrapolate(i1), i1[-1]))
    b2 = float(min(1.0, max(0.0, _extrapolate(i2))))

    def _step_inverse(b: float, vals: np.ndarray) -> Callable[[float], float]:
        def delta(eps: float) -> float:
            if not eps > 0.0:
                raise ValueError("eps must be positive")
            ok = np.abs(b - vals) < eps
            j = vals.size - 1  # start of the trailing run where the band holds
            if ok[-1]:
                while j > 0 and ok[j - 1]:
                    j -= 1
            return min(gap_min, (1.0 - float(grid[j])) / 2.0)

        return delta

    return RateData(
        b1=b1,
        delta1=_step_inverse(b1, i1),
        b2=b2,
        delta2=_step_inverse(b2, i2),
    )


def _coordinate(i: int) -> Callable:
    return lambda x: np.asarray(x, dtype=float)[..., i]


def _slice_kernel(m: int) -> Callable:
    # x -> k_{0,1}(x, e1); positive and harmonic, boundary integral I1 == 1.
    # |x|^2 and |x - e1|^2 by m - 1 column adds: numpy reduces slowly over a
    # length-m last axis, and this order gives the bits that np.linalg.norm
    # and np.sum(x * x, axis=-1) gave
    def f(x):
        x = np.asarray(x, dtype=float)
        r2 = x[..., 0] * x[..., 0]
        d2 = (x[..., 0] - 1.0) * (x[..., 0] - 1.0)
        for i in range(1, m):
            sq = x[..., i] * x[..., i]
            r2 += sq
            d2 += sq
        return (1.0 - r2) / np.sqrt(d2) ** m

    return f


def _slice_modulus(m: int) -> Callable[[float, float], float]:
    def mod(r: float, eps: float) -> float:
        lip = 2.0 / (1.0 - r) ** m + 2.0 * m / (1.0 - r) ** (m + 1)
        return eps / lip

    return mod


def _lipschitz_modulus(lip: float) -> Callable[[float, float], float]:
    return lambda r, eps: eps / lip


def catalog(m: int = 2, with_rates: bool = True):
    """Harmonic test functions for dimension m.

    Always includes the coordinate functions and the Poisson-kernel slice
    x -> k_{0,1}(x, e1); for m = 2 the real and imaginary parts of
    (x1 + i x2)^n for n <= 4, for m = 3 the products x1 x2 and x1 x2 x3.
    All members except the kernel slice vanish at the origin; the slice is
    kept positive (value 1 at 0) so its boundary integral stays identically 1.
    """
    if m < 2:
        raise ValueError("catalog needs dimension m >= 2")
    members: list[HarmonicFn] = []

    def add(name, fn, modulus, boundary=None):
        members.append(
            HarmonicFn(name=name, dim=m, eval=fn, modulus_of_continuity=modulus, boundary_fn=boundary)
        )

    for i in range(m):
        add(f"x{i + 1}", _coordinate(i), _lipschitz_modulus(1.0), _coordinate(i))
    if m == 2:
        for n in range(2, 5):
            def re(x, n=n):
                x = np.asarray(x, dtype=float)
                return ((x[..., 0] + 1j * x[..., 1]) ** n).real

            def im(x, n=n):
                x = np.asarray(x, dtype=float)
                return ((x[..., 0] + 1j * x[..., 1]) ** n).imag

            add(f"re((x1+ix2)^{n})", re, _lipschitz_modulus(float(n)), re)
            add(f"im((x1+ix2)^{n})", im, _lipschitz_modulus(float(n)), im)
    if m == 3:
        def x1x2(x):
            x = np.asarray(x, dtype=float)
            return x[..., 0] * x[..., 1]

        def x1x2x3(x):
            x = np.asarray(x, dtype=float)
            return x[..., 0] * x[..., 1] * x[..., 2]

        add("x1*x2", x1x2, _lipschitz_modulus(math.sqrt(2.0)), x1x2)
        add("x1*x2*x3", x1x2x3, _lipschitz_modulus(math.sqrt(3.0)), x1x2x3)
    add("poisson-slice", _slice_kernel(m), _slice_modulus(m))

    if with_rates:
        members = [replace(u, hardy=estimate_rates(u)) for u in members]
    return members


def zero_fn(m: int) -> HarmonicFn:
    """The zero function on the unit ball of R^m; its I1 = 0 and I2 = 1 exactly."""

    def zero(x):
        return np.zeros(np.asarray(x).shape[:-1])

    return HarmonicFn("0", m, zero, _lipschitz_modulus(1.0), boundary_fn=zero)
