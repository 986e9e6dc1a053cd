import math

import mpmath
import numpy as np
import pytest

from ballwalk.sphere import (
    SurfaceQuadrature,
    eval_on_points,
    gauss_legendre,
    mc_surface_area,
    quad_nodes,
    surface_area,
    surface_integral,
    uniform_sphere_sample,
)
from ballwalk.stats import ks_one_sample
from ballwalk.streams import rng_stream

GAUSS2 = SurfaceQuadrature(2, node_count=512)
GAUSS3 = SurfaceQuadrature(3, node_count=128)


def ones(z):
    return np.ones(z.shape[0])


def random_rotation(rng, m):
    """Haar-ish random member of SO(m) via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestClosedForms:
    def test_even_odd_formulas(self):
        assert surface_area(2, 1.0) == pytest.approx(2 * math.pi, abs=0)
        assert surface_area(3, 1.0) == pytest.approx(4 * math.pi, abs=0)
        assert surface_area(4, 1.0) == 2 * math.pi**2
        assert surface_area(5, 1.0) == pytest.approx(8 * math.pi**2 / 3, rel=1e-15)

    def test_radius_scaling(self):
        for m in (2, 3, 4, 7):
            assert surface_area(m, 2.0) == pytest.approx(2 ** (m - 1) * surface_area(m, 1.0), rel=1e-14)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            surface_area(1, 1.0)


class TestQuadratureConstruction:
    def test_gauss_only_low_dim(self):
        with pytest.raises(ValueError):
            SurfaceQuadrature(4, node_count=64)

    def test_node_count_positive(self):
        with pytest.raises(ValueError):
            SurfaceQuadrature(2, node_count=0)

    def test_nodes_on_sphere(self):
        for quad in (GAUSS2, GAUSS3, SurfaceQuadrature(3, 2.0, node_count=64)):
            pts, w = quad_nodes(quad)
            assert np.allclose(np.linalg.norm(pts, axis=1), quad.r, atol=1e-12)
            assert np.all(w > 0)


GL_SIZES = [1, 2, 3, 64, 128, 192, 224]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", GL_SIZES)
    def test_even_moments_exact_to_degree_2n_minus_1(self, n):
        x, w = gauss_legendre(n)
        for j in range(n):  # x^(2j) for every even degree 2j <= 2n - 1
            assert abs(math.fsum(w * x ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-14, j

    @pytest.mark.parametrize("n", GL_SIZES)
    def test_symmetric(self, n):
        x, w = gauss_legendre(n)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("n", GL_SIZES)
    def test_nodes_match_leggauss(self, n):
        x, _ = gauss_legendre(n)
        assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 2e-16

    def test_weights_match_mpmath_at_224(self):
        # the weight at each node polished by Newton steps on P_n in 40-digit arithmetic
        n = 224
        x, w = gauss_legendre(n)
        with mpmath.workdps(40):
            for xi, wi in zip(x, w):
                t = mpmath.mpf(float(xi))
                for _ in range(5):
                    p = mpmath.legendre(n, t)
                    dp = n * (t * p - mpmath.legendre(n - 1, t)) / (t * t - 1)
                    t -= p / dp
                ref = 2 / ((1 - t * t) * dp * dp)
                assert abs(float((wi - ref) / ref)) <= 1e-11, xi


class TestSurfaceIntegral:
    def test_constant_m2(self):
        assert surface_integral(ones, GAUSS2) == pytest.approx(2 * math.pi, abs=1e-10)

    def test_constant_m3(self):
        assert surface_integral(ones, GAUSS3) == pytest.approx(4 * math.pi, abs=1e-8)

    def test_sum_rounding_does_not_grow_with_nodes(self):
        # the pairwise sum stays within a few ulps; an in-order sum per SIMD lane was 4.3e-13 off at 4096
        for quad in [SurfaceQuadrature(2, node_count=n) for n in (512, 2048, 4096, 50_176)]:
            assert abs(surface_integral(ones, quad) - 2 * math.pi) <= 4e-15, quad.node_count
        assert abs(surface_integral(ones, SurfaceQuadrature(3, node_count=224)) - 4 * math.pi) <= 8e-15

    def test_odd_function_vanishes(self):
        assert surface_integral(lambda z: z[:, 0], GAUSS3) == pytest.approx(0.0, abs=1e-8)

    def test_coordinate_second_moment(self):
        # z1^2 integrates to sigma/3 by symmetry; cross-check with uniform samples
        got = surface_integral(lambda z: z[:, 0] ** 2, GAUSS3)
        assert got == pytest.approx(4 * math.pi / 3, abs=1e-6)
        z1sq = 4 * math.pi * uniform_sphere_sample(rng_stream(11), 3, size=200_000)[:, 0] ** 2
        assert abs(z1sq.mean() - got) <= 5 * z1sq.std(ddof=1) / math.sqrt(z1sq.size)

    def test_scaling_identity_random_polynomials(self, rng):
        # integral over radius r equals r^(m-1) times integral of g(r z) at radius 1
        for r in (0.5, 2.0):
            for m, base in ((2, GAUSS2), (3, GAUSS3)):
                c = rng.standard_normal(m)
                d = rng.standard_normal()

                def g(z, c=c, d=d):
                    return (z @ c) ** 2 + d * z[:, 0]

                lhs = surface_integral(g, SurfaceQuadrature(m, r, node_count=base.node_count))
                rhs = r ** (m - 1) * surface_integral(lambda z: g(r * z), base)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_rotation_invariance(self, rng):
        # |z3| has a chart kink, so its rule and tolerance are heavier
        smooth = SurfaceQuadrature(3, node_count=128)
        kinked = SurfaceQuadrature(3, node_count=512)
        tests = [
            (lambda z: z[:, 0] ** 2, smooth, 1e-9),
            (lambda z: np.exp(z[:, 1]), smooth, 1e-9),
            (lambda z: np.abs(z[:, 2]) + z[:, 0] * z[:, 1], kinked, 5e-6),
        ]
        refs = [surface_integral(g, quad) for g, quad, _ in tests]
        for _ in range(100):
            a = random_rotation(rng, 3)
            for (g, quad, quad_tol), ref in zip(tests, refs):
                rot = surface_integral(lambda z: g(z @ a.T), quad)
                assert rot == pytest.approx(ref, abs=quad_tol)

    def test_scaled_sphere_change_of_variables(self):
        # averages over |z| = r equal averages of f(r .) over the unit sphere
        r = 0.75
        f = lambda z: np.cos(z[:, 0]) + z[:, 1] ** 2
        quad_r = SurfaceQuadrature(2, r, node_count=512)
        lhs = surface_integral(f, quad_r) / surface_area(2, r)
        rhs = surface_integral(lambda z: f(r * z), GAUSS2) / surface_area(2, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMcSurfaceArea:
    def test_m5_within_5_sigma(self):
        est = mc_surface_area(5, 200_000, rng_stream(21))
        assert abs(est.mean - surface_area(5, 1.0)) <= 5 * est.std_error
        assert est.std_error > 0


class TestUniformSampling:
    def test_samples_on_sphere(self, rng):
        pts = uniform_sphere_sample(rng, 3, size=500)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12

    def test_size_is_keyword_only(self, rng):
        # perfbench counts sampled rows from ``size=`` alone; a positional size would count as one row
        with pytest.raises(TypeError):
            uniform_sphere_sample(rng, 3, 5)

    def test_norm_below_1e_300_raises_at_the_one_round_cap(self):
        # the cap ceil(-64 ln 2 / ln p) is one round for p = 1e-300, so a stub whose
        # normals vanish in rows 1 and 3 raises at once and names those rows
        assert math.ceil(-64.0 * math.log(2.0) / math.log(1e-300)) == 1

        class VanishingRows:
            def standard_normal(self, shape):
                x = np.ones(shape)
                x[[1, 3]] = 0.0
                return x

        with pytest.raises(RuntimeError, match=r"rows \[1, 3\] \(2 in all\)"):
            uniform_sphere_sample(VanishingRows(), 3, size=5)

    def test_mean_first_coordinate(self, rng):
        pts = uniform_sphere_sample(rng, 3, size=100_000)
        assert abs(pts[:, 0].mean()) <= 3.0 / math.sqrt(100_000)

    def test_archimedes_projection(self, rng):
        # z1 of a uniform point on the 2-sphere is uniform on [-1, 1]; the
        # chart integral of the indicator gives the same CDF.
        pts = uniform_sphere_sample(rng, 3, size=100_000)
        rep = ks_one_sample(pts[:, 0], lambda t: np.clip((t + 1) / 2, 0, 1))
        assert rep.statistic < rep.threshold
        quad = SurfaceQuadrature(3, node_count=128)
        for t in (-0.5, 0.0, 0.4):
            chart_cdf = surface_integral(lambda z: (z[:, 0] <= t).astype(float), quad)
            chart_cdf /= surface_area(3, 1.0)
            assert chart_cdf == pytest.approx((t + 1) / 2, abs=0.01)


class TestEvalOnPoints:
    def test_one_call_and_errors_propagate(self):
        pts = uniform_sphere_sample(rng_stream(33), 3, size=5)
        calls = []

        def norm(p):
            calls.append(p.shape)
            return np.linalg.norm(p)  # one value for all rows, not one per row

        with pytest.raises(ValueError, match="shape"):
            eval_on_points(norm, pts)
        assert calls == [(5, 3)]

        def scalar_only(p):
            if p.ndim != 1:
                raise TypeError("scalar input only")
            return float(p[0])

        with pytest.raises(TypeError):
            eval_on_points(scalar_only, pts)
        assert np.array_equal(eval_on_points(lambda p: p[:, 0], pts), pts[:, 0])
