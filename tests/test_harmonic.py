import math

import numpy as np
import pytest
from scipy import integrate

from ballwalk.harmonic import (
    DEFAULT_RATE_GRID,
    HarmonicFn,
    InvariantViolation,
    catalog,
    estimate_rates,
    hardy_integrals,
    hardy_table,
    laplacian_fd,
    mean_value_residual,
    poisson_extend,
    poisson_kernel,
    radius_ladder,
    zero_fn,
)
from ballwalk import harmonic
from ballwalk.hardy_limit import RadiusSchedule
from ballwalk.martingale import monotonicity_report, sample_Y_skeleton
from ballwalk.sphere import SurfaceQuadrature, quad_nodes, surface_area, surface_integral, uniform_sphere_sample
from ballwalk.streams import rng_stream

GAUSS2 = SurfaceQuadrature(2, node_count=512)
GAUSS3 = SurfaceQuadrature(3, node_count=128)
ORIGIN2 = np.zeros(2)


class TestPoissonKernel:
    def test_center_is_one(self, rng):
        for m in (2, 3, 5):
            z = uniform_sphere_sample(rng, m, size=20)
            vals = poisson_kernel(np.zeros(m), 1.0, np.zeros(m), z)
            assert np.allclose(vals, 1.0, atol=1e-14)

    def test_direct_value_m2(self):
        got = poisson_kernel(ORIGIN2, 1.0, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(3.0, abs=1e-15)

    def test_lower_bound_on_inner_sphere(self, rng):
        # minimum over the sphere at |x| = s is (1 - s^2) / (1 + s)^m
        for m, s in ((2, 0.5), (3, 0.7)):
            bound = (1 - s * s) / (1 + s) ** m
            if m == 2 and s == 0.5:
                assert bound == pytest.approx(1.0 / 3.0, abs=1e-15)
            x = s * uniform_sphere_sample(rng, m)
            z = uniform_sphere_sample(rng, m, size=2000)
            vals = poisson_kernel(np.zeros(m), 1.0, x, z)
            assert np.all(vals >= bound - 1e-12)
            assert np.min(vals) <= bound * 1.05  # bound is attained at the far pole

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_kernel(ORIGIN2, 1.0, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            poisson_kernel(ORIGIN2, 1.0, np.array([0.5, 0.0]), np.array([0.5, 0.0]))

    def test_normalization(self, rng):
        # raw kernel mass against the uniform distribution, no self-normalization
        rules = {2: SurfaceQuadrature(2, node_count=2048), 3: GAUSS3}
        for m, quad in rules.items():
            for _ in range(50):
                x = uniform_sphere_sample(rng, m) * rng.uniform(0.0, 0.9)
                mass = surface_integral(lambda z: poisson_kernel(np.zeros(m), 1.0, x, z), quad)
                assert mass / surface_area(m, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_kernel_harmonic_in_x(self, rng):
        z0 = np.array([1.0, 0.0])
        kernel = lambda ps: np.array([poisson_kernel(ORIGIN2, 1.0, p, z0) for p in ps])
        for _ in range(50):
            x = uniform_sphere_sample(rng, 2) * rng.uniform(0.0, 0.3)
            assert abs(laplacian_fd(kernel, x, 1e-3)) <= 1e-3


class TestPoissonExtend:
    def test_coordinate_boundary_data(self):
        # z1 is harmonic with itself as boundary values
        for m, quad in ((2, GAUSS2), (3, GAUSS3)):
            rng = rng_stream(4)
            for _ in range(20):
                x = uniform_sphere_sample(rng, m) * rng.uniform(0.0, 0.85)
                val = poisson_extend(lambda z: z[:, 0], np.zeros(m), 1.0, x, quad)
                assert val == pytest.approx(x[0], abs=1e-6)

    def test_harmonic_polynomial(self, rng):
        g = lambda z: z[:, 0] ** 2 - z[:, 1] ** 2
        for _ in range(20):
            x = uniform_sphere_sample(rng, 2) * rng.uniform(0.0, 0.85)
            val = poisson_extend(g, ORIGIN2, 1.0, x, GAUSS2)
            assert val == pytest.approx(x[0] ** 2 - x[1] ** 2, abs=1e-6)

    def test_offcenter_ball(self, rng):
        # extension of z1 over D(y, r) reproduces x1 as well
        y = np.array([0.2, -0.1])
        quad = SurfaceQuadrature(2, 0.5, node_count=512)
        for _ in range(10):
            x = y + uniform_sphere_sample(rng, 2) * rng.uniform(0.0, 0.4)
            val = poisson_extend(lambda z: z[:, 0], y, 0.5, x, quad)
            assert val == pytest.approx(x[0], abs=1e-6)

    def test_boundary_limit_monotone(self, rng):
        # extension approaches the boundary data radially, monotonically here;
        # at distance 1e-4 the kernel peak is narrower than the node spacing,
        # so the tail tolerance is quadrature-limited
        z = uniform_sphere_sample(rng, 2)
        errs = []
        for k in range(1, 5):
            x = (1.0 - 10.0**-k) * z
            quad = SurfaceQuadrature(2, node_count=4096)
            errs.append(abs(poisson_extend(lambda w: w[:, 0], ORIGIN2, 1.0, x, quad) - z[0]))
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(3))
        assert errs[-1] <= 1e-3


class TestMeanValue:
    def test_linear(self):
        quad = SurfaceQuadrature(2, 0.2, node_count=256)
        y = np.array([0.3, 0.0])
        assert mean_value_residual(lambda x: x[:, 0], y, 0.2, quad) <= 1e-8

    def test_odd_product(self):
        quad = SurfaceQuadrature(3, 0.4, node_count=64)
        u = lambda x: x[:, 0] * x[:, 1]
        assert mean_value_residual(u, np.zeros(3), 0.4, quad) <= 1e-8

    def test_squared_norm_is_not_harmonic(self):
        # the sphere average of |x|^2 at radius r is r^2, not 0
        quad = SurfaceQuadrature(2, 0.5, node_count=256)
        u = lambda x: x[:, 0] ** 2 + x[:, 1] ** 2
        assert mean_value_residual(u, ORIGIN2, 0.5, quad) == pytest.approx(0.25, abs=1e-10)

    def test_ball_must_fit(self):
        quad = SurfaceQuadrature(2, 0.5, node_count=64)
        with pytest.raises(ValueError):
            mean_value_residual(lambda x: x[:, 0], np.array([0.6, 0.0]), 0.5, quad)

    def test_rule_radius_must_match(self):
        # a unit rule averages the slice over |z - y| = 1, outside the ball, and
        # reported a residual of 2.857 where the rule of radius 0.2 gives 2.2e-16
        u = next(f for f in catalog(2, with_rates=False) if f.name == "poisson-slice")
        y = np.array([0.3, 0.0])
        assert mean_value_residual(u, y, 0.2, SurfaceQuadrature(2, 0.2, node_count=256)) <= 1e-14
        with pytest.raises(ValueError, match="radius"):
            mean_value_residual(u, y, 0.2, SurfaceQuadrature(2, node_count=256))


class TestLaplacianFd:
    def test_linear(self):
        assert abs(laplacian_fd(lambda x: x[:, 0], np.array([0.1, 0.2]), 1e-3)) <= 1e-6

    def test_saddle(self):
        u = lambda x: x[:, 0] ** 2 - x[:, 1] ** 2
        assert abs(laplacian_fd(u, np.array([0.3, -0.2]), 1e-3)) <= 1e-6

    def test_squared_norm_m3(self):
        u = lambda x: np.sum(x * x, axis=-1)
        got = laplacian_fd(u, np.array([0.1, 0.0, 0.2]), 1e-3)
        assert got == pytest.approx(6.0, abs=1e-4)

    def test_step_outside_ball(self):
        with pytest.raises(ValueError):
            laplacian_fd(lambda x: x[:, 0], np.array([0.9995, 0.0]), 1e-3)


class TestHardyIntegrals:
    def test_coordinate_closed_form(self):
        # I1 for x1 in the plane is 2 r / pi; oracle: adaptive quadrature
        u = catalog(2, with_rates=False)[0]
        for r in (0.25, 0.5, 0.75):
            i1, i2, i3 = hardy_integrals(u, r, GAUSS2)
            assert i1 == pytest.approx(2 * r / math.pi, abs=2e-6)
            oracle = integrate.quad(lambda t: abs(r * math.cos(t)) / (2 * math.pi), 0, 2 * math.pi)[0]
            assert i1 == pytest.approx(oracle, abs=2e-6)
            oracle2 = integrate.quad(
                lambda t: math.exp(-abs(r * math.cos(t))) / (2 * math.pi), 0, 2 * math.pi
            )[0]
            assert i2 == pytest.approx(oracle2, abs=2e-6)

    def test_zero_function(self):
        i1, i2, i3 = hardy_integrals(zero_fn(2), 0.5, GAUSS2)
        assert (i1, i2, i3) == (0.0, 1.0, 0.0)

    def test_identity_and_bound_across_catalog(self):
        for m, quad in ((2, GAUSS2), (3, GAUSS3)):
            for u in catalog(m, with_rates=False):
                for r in (0.3, 0.8):
                    i1, i2, i3 = hardy_integrals(u, r, quad)
                    assert i2 <= 1.0 + 1e-15
                    assert abs(i3 - (i2 - 1.0 + i1)) <= 1e-12

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            hardy_integrals(zero_fn(2), 1.0, GAUSS2)


MONOTONE_GRID = np.arange(0.1, 0.951, 0.05)  # the martingale suite's 18 radii


def _row_with_own_rule(u, r, quad):
    # the per-radius arithmetic, with the rule rebuilt at every radius
    pts, w = quad_nodes(quad)
    w = w / np.sum(w)
    a = np.abs(u.eval(r * pts))
    e = np.expm1(-a)
    return float(np.sum(w * a)), 1.0 + float(np.sum(w * e)), float(np.sum(w * (e + a)))


class TestHardyTable:
    @pytest.mark.parametrize("m", [2, 3])
    def test_rows_equal_per_radius_integrals_bit_for_bit(self, m):
        small = SurfaceQuadrature(m, node_count=128)
        big = SurfaceQuadrature(m, node_count=2048 if m == 2 else 224)
        for u in [*catalog(m, with_rates=False), zero_fn(m)]:
            quad = big if u.name == "poisson-slice" else small
            table = np.column_stack(hardy_table(u, MONOTONE_GRID, quad))
            for r, row in zip(MONOTONE_GRID, table):
                assert tuple(row) == hardy_integrals(u, float(r), quad), (u.name, r)
                assert tuple(row) == _row_with_own_rule(u, float(r), quad), (u.name, r)

    def test_one_rule_per_table(self, monkeypatch):
        calls = []

        def counting(quad):
            calls.append(quad)
            return quad_nodes(quad)

        monkeypatch.setattr(harmonic, "quad_nodes", counting)
        hardy_table(catalog(2, with_rates=False)[0], MONOTONE_GRID, GAUSS2)
        assert calls == [GAUSS2]
        estimate_rates(catalog(3, with_rates=False)[0])
        assert len(calls) == 2

    @pytest.mark.parametrize("grid", [[0.0, 0.5, 0.9], [0.3, 1.0, 0.6], [0.2, 0.4, 1.0], [0.5, -0.1]])
    def test_radius_outside_open_interval_raises(self, grid):
        with pytest.raises(ValueError):
            hardy_table(zero_fn(2), grid, GAUSS2)

    def test_off_unit_sphere_rule_raises(self):
        quad = SurfaceQuadrature(2, 0.5, node_count=64)
        with pytest.raises(ValueError):
            hardy_table(zero_fn(2), [0.3, 0.6], quad)
        with pytest.raises(ValueError):
            hardy_integrals(zero_fn(2), 0.3, quad)


class TestRadiusLadder:
    NOT_LADDERS = {"empty": [], "2-d": [[0.2, 0.4], [0.6, 0.8]], "tie": [0.5, 0.5], "falling": [0.9, 0.5],
                   "zero": [0.0, 0.5], "one": [0.5, 1.0], "nan": [float("nan")], "inner-nan": [0.2, float("nan"), 0.8]}

    def test_accepts_an_increasing_ladder_inside_the_ball(self):
        r = radius_ladder([0.25, 0.5, 0.999])
        assert r.dtype == float and r.tolist() == [0.25, 0.5, 0.999]

    @pytest.mark.parametrize("radii", NOT_LADDERS.values(), ids=NOT_LADDERS.keys())
    def test_every_ladder_taker_rejects_what_is_no_ladder(self, radii):
        # one check for every taker: checks written per taker let an empty grid make monotonicity_report
        # raise IndexError, a 2-d grid raise numpy's ambiguous-truth error, and RadiusSchedule take NaN radii
        u = catalog(2, with_rates=False)[0]
        takers = [
            lambda: radius_ladder(radii),
            lambda: RadiusSchedule(radii),
            lambda: sample_Y_skeleton(rng_stream(1), u, radii, 10),
            lambda: monotonicity_report(u, radii, GAUSS2),
            lambda: estimate_rates(u, radii, GAUSS2),
        ]
        for take in takers:
            with pytest.raises(ValueError, match="strictly increasing inside"):
                take()

    def test_estimate_rates_needs_two_points(self):
        with pytest.raises(ValueError, match=">= 2 points"):
            estimate_rates(catalog(2, with_rates=False)[0], [0.5], GAUSS2)


class TestEstimateRates:
    def test_zero_function(self):
        # I1 = 0 and I2 = 1 exactly on any rule, so the rule cannot move the rates
        u = zero_fn(2)
        coarse, fine = estimate_rates(u, quad=SurfaceQuadrature(2, node_count=64)), estimate_rates(u)
        assert (coarse.b1, coarse.b2) == (fine.b1, fine.b2)
        for rates in (coarse, fine):
            assert rates.b1 == pytest.approx(0.0, abs=1e-12)
            assert rates.b2 == pytest.approx(1.0, abs=1e-12)
            gap = float(np.min(np.diff(DEFAULT_RATE_GRID)))
            assert rates.delta1(0.3) == pytest.approx(gap)
            assert rates.delta2(0.3) == pytest.approx(gap)

    def test_coordinate_limit(self):
        rates = estimate_rates(catalog(2, with_rates=False)[0])
        assert rates.b1 == pytest.approx(2 / math.pi, abs=1e-6)

    def test_deltas_nondecreasing_in_eps(self):
        # delta(eps) -> 0 as eps -> 0, so larger tolerance gives a wider band
        rates = estimate_rates(catalog(2, with_rates=False)[0])
        eps_grid = [1e-4, 1e-3, 1e-2, 0.1, 0.5]
        d1 = [rates.delta1(e) for e in eps_grid]
        d2 = [rates.delta2(e) for e in eps_grid]
        assert all(x <= y + 1e-15 for x, y in zip(d1, d1[1:]))
        assert all(x <= y + 1e-15 for x, y in zip(d2, d2[1:]))
        assert all(0.0 < d < 1.0 for d in d1 + d2)

    def test_monotonicity_violation_raises(self):
        # I1 of this radial bump decreases in r, impossible for harmonic u
        bad = HarmonicFn(
            name="bump",
            dim=2,
            eval=lambda x: np.maximum(0.0, 0.5 - np.linalg.norm(x, axis=-1)),
            modulus_of_continuity=lambda r, e: e,
        )
        with pytest.raises(InvariantViolation):
            estimate_rates(bad, quad=SurfaceQuadrature(2, node_count=256))


class TestCatalog:
    def test_contents(self):
        names2 = {u.name for u in catalog(2, with_rates=False)}
        assert {"x1", "x2", "poisson-slice"} <= names2
        assert any("re((x1+ix2)^4" in n for n in names2)
        names3 = {u.name for u in catalog(3, with_rates=False)}
        assert {"x1", "x2", "x3", "x1*x2", "x1*x2*x3", "poisson-slice"} <= names3

    def test_members_vanish_at_origin_except_slice(self):
        for m in (2, 3, 4, 5):
            for u in [*catalog(m, with_rates=False), zero_fn(m)]:
                v0 = float(u(np.zeros((1, m)))[0])
                if u.name == "poisson-slice":
                    assert v0 == pytest.approx(1.0, abs=1e-14)
                else:
                    assert v0 == 0.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_harmonicity_witness(self, m, rng):
        # 100 interior points per member; h = 1e-4 keeps the truncation term
        # of the curved members below the witness tolerance
        for u in catalog(m, with_rates=False):
            for _ in range(100):
                x = uniform_sphere_sample(rng, m) * rng.uniform(0.0, 0.6)
                assert abs(laplacian_fd(u, x, 1e-4)) <= 1e-4

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_slice_equals_norm_form_bit_for_bit(self, m):
        # the reference is the kernel as np.linalg.norm and np.sum(x * x, axis=-1) computed it
        def norm_slice(x):
            e1 = np.zeros(m)
            e1[0] = 1.0
            return (1.0 - np.sum(x * x, axis=-1)) / np.linalg.norm(x - e1, axis=-1) ** m

        u = next(f for f in catalog(m, with_rates=False) if f.name == "poisson-slice")
        rng = rng_stream(20260809, 105)
        # rule nodes (the chart rule at m = 2, 3; uniform points beyond)
        sphere = quad_nodes(SurfaceQuadrature(m, node_count=64))[0] if m <= 3 else uniform_sphere_sample(rng, m, size=4096)
        near = 1.0 - np.logspace(-9, -1, 200)  # |x| up to 1 - 1e-9, toward e1
        tilt = rng.normal(scale=1e-3, size=(200, m))
        tilt[:, 0] = 0.0
        e1_ward = np.column_stack([near, np.zeros((200, m - 1))]) + tilt * (1.0 - near)[:, None]
        # an Euler observer's (k, n, m) block: positions after each of k steps of n paths
        start = uniform_sphere_sample(rng, m, size=300) * 0.9
        block = start + np.cumsum(rng.normal(scale=1e-2, size=(16, 300, m)), axis=0)
        for x in [*(r * sphere for r in (0.1, 0.5, 0.95, 0.999)), e1_ward, block]:
            assert np.array_equal(u(x).view(np.int64), norm_slice(x).view(np.int64))

    def test_slice_boundary_integral_is_one(self):
        quad = SurfaceQuadrature(2, node_count=1024)
        u = [f for f in catalog(2, with_rates=False) if f.name == "poisson-slice"][0]
        for r in np.linspace(0.1, 0.95, 9):
            i1, _, _ = hardy_integrals(u, float(r), quad)
            assert i1 == pytest.approx(1.0, abs=1e-8)

    def test_rate_data_attached(self):
        members = catalog(2, with_rates=True)
        by_name = {u.name: u for u in members}
        assert by_name["x1"].hardy.b1 == pytest.approx(2 / math.pi, abs=1e-6)
        assert by_name["poisson-slice"].hardy.b1 == pytest.approx(1.0, abs=1e-6)

    def test_maximum_modulus_on_compact_ball(self, rng):
        for m in (2, 3):
            for u in catalog(m, with_rates=False):
                interior = uniform_sphere_sample(rng, m, size=10_000)
                interior *= (rng.uniform(0.0, 1.0, size=10_000) ** (1.0 / m) * 0.8)[:, None]
                boundary = 0.8 * uniform_sphere_sample(rng, m, size=10_000)
                vi = np.max(np.abs(u(interior)))
                vb = np.max(np.abs(u(boundary)))
                assert vi <= vb + 1e-8

    def test_mean_value_and_laplacian_jointly(self, rng):
        for m in (2, 3):
            for u in catalog(m, with_rates=False):
                for _ in range(5):
                    y = uniform_sphere_sample(rng, m) * rng.uniform(0.0, 0.5)
                    r = rng.uniform(0.05, 0.8 * (1.0 - np.linalg.norm(y)))
                    n = 512 if u.name == "poisson-slice" else 128
                    quad = SurfaceQuadrature(m, float(r), node_count=n)
                    assert mean_value_residual(u, y, float(r), quad) <= 1e-6
