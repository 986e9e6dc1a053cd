import hashlib
import math
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk import brownian
from ballwalk.brownian import (
    ChunkExits,
    PathConfig,
    euler_chunk,
    exit_continuity_check,
    exit_points,
    exit_points_batch,
    reflection_crossing_mc,
    reflection_prob,
    scaling_check,
    simulate_exit,
    tightness_N,
    wos_exit_points,
    wos_from_many,
)
from ballwalk.hardy_limit import RadiusSchedule, limit_experiment
from ballwalk.harmonic import zero_fn
from ballwalk.sphere import uniform_sphere_sample
from ballwalk.stats import ks_one_sample, ks_two_sample, mc_estimate
from ballwalk.streams import rng_stream


def erf_series(x: float) -> float:
    """erf(x) = 2/sqrt(pi) sum (-1)^k x^(2k+1) / (k! (2k+1)), scipy-free oracle."""
    s = 0.0
    t = x
    for k in range(0, 120):
        s += t / (2 * k + 1)
        t *= -x * x / (k + 1)
    return 2.0 / math.sqrt(math.pi) * s


def phi_oracle(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


class TestReflectionProb:
    def test_value_at_unit_args(self):
        assert reflection_prob(1.0, 1.0) == pytest.approx(2 * (1 - phi_oracle(1.0)), abs=1e-8)
        assert reflection_prob(1.0, 1.0) == pytest.approx(0.317310508, abs=1e-8)

    def test_tail_limit(self):
        assert reflection_prob(1.0, 40.0) <= 1e-300

    def test_depends_on_ratio_only(self):
        assert reflection_prob(4.0, 2.0) == reflection_prob(1.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            reflection_prob(0.0, 1.0)
        with pytest.raises(ValueError):
            reflection_prob(1.0, 0.0)


class TestTightnessN:
    def test_k0_is_one(self):
        assert tightness_N(2.0, 0) == 1

    def test_k1_is_nine(self):
        # oracle: direct scan with the series CDF
        assert tightness_N(2.0, 1) == 9
        assert 2 * phi_oracle(2 / math.sqrt(8)) - 1 >= 0.5  # N=8 fails
        assert 2 * phi_oracle(2 / math.sqrt(9)) - 1 < 0.5  # N=9 passes

    def test_matches_bruteforce_scan(self):
        for r, k in ((2.0, 2), (2.0, 3), (0.7, 2), (5.0, 1)):
            n = tightness_N(r, k)
            target = 2.0**-k
            assert 2 * phi_oracle(r / math.sqrt(n)) - 1 < target
            if n > 1:
                assert 2 * phi_oracle(r / math.sqrt(n - 1)) - 1 >= target

    @given(st.integers(0, 8), st.floats(0.2, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_k(self, k, r):
        assert tightness_N(r, k + 1) >= tightness_N(r, k)

    @pytest.mark.parametrize("k", [14, 16, 18, 20])
    def test_exact_against_mpmath(self, k):
        # 2 Phi(y) - 1 in double precision cancels here and picked a wrong N
        with mpmath.workdps(50):
            for r in (0.7, 2.0, 3.0924, 5.0):
                n = tightness_N(r, k)
                target = mpmath.mpf(2) ** -k
                assert mpmath.erf(r / mpmath.sqrt(2 * n)) < target, (r, k, n)
                assert mpmath.erf(r / mpmath.sqrt(2 * (n - 1))) >= target, (r, k, n)

    @pytest.mark.parametrize("k", [26, 30])
    def test_large_k_returns_or_raises_within_1s(self, k):
        # a linear scan from a quantile guess ran for minutes here
        got = []

        def call():
            try:
                got.append(tightness_N(2.0, k))
            except ValueError as err:
                got.append(err)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(1.0)
        assert got, "still running after 1 s"
        if isinstance(got[0], ValueError):
            assert "r_tilde=2.0" in str(got[0]) and f"k={k}" in str(got[0])
        else:
            assert got[0] >= tightness_N(2.0, 20)

    def test_past_2_pow_53_raises(self):
        with pytest.raises(ValueError, match="k=60"):
            tightness_N(2.0, 60)


class TestSimulateExit:
    CFG = PathConfig(m=2, dt=1e-3, horizon=50.0, seed=99)

    def test_exit_on_sphere_with_trace(self):
        tau, trace = simulate_exit(self.CFG, 1.0)
        assert tau > 0
        assert trace.shape[1] == 3  # (t, x1, x2)
        assert trace[0, 0] == 0.0 and trace[-1, 0] == tau
        assert abs(np.linalg.norm(trace[-1, 1:]) - 1.0) <= 1e-9  # the exit point

    def test_censoring(self):
        cfg = PathConfig(m=2, dt=1e-3, horizon=0.002, seed=99)
        tau, trace = simulate_exit(cfg, 5.0)
        assert math.isnan(tau)
        assert trace[-1, 0] >= 0.002  # the elapsed time, at the censoring point
        assert np.linalg.norm(trace[-1, 1:]) < 5.0

    def test_deterministic(self):
        tau_a, trace_a = simulate_exit(self.CFG, 1.0)
        tau_b, trace_b = simulate_exit(self.CFG, 1.0)
        assert tau_a == tau_b and np.array_equal(trace_a, trace_b)

    def test_start_outside_rejected(self):
        # the path starts at the origin, which no ball D(0, r) with r <= 0 holds
        for r in (0.0, -1.0):
            with pytest.raises(ValueError, match="start must lie in the open ball"):
                simulate_exit(self.CFG, r)


class TestExitPointsBatch:
    def test_on_sphere_and_positive_tau(self):
        cfg = PathConfig(m=3, dt=1e-3, horizon=100.0, seed=42)
        taus, pts, cen = exit_points_batch(cfg, np.zeros(3), 1.0, 500)
        assert not cen.any()
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-9
        assert np.all(taus > 0)

    def test_worker_count_invariance(self):
        # three chunks; the 8192-path ones step in blocks of k = 2
        cfg = PathConfig(m=2, dt=1e-3, horizon=100.0, seed=7)
        a = exit_points_batch(cfg, np.zeros(2), 1.0, 20_000, workers=1)
        b = exit_points_batch(cfg, np.zeros(2), 1.0, 20_000, workers=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y, equal_nan=True)
        # (taus, pts, cen) bytes, recorded with numpy 2.4.6 and scipy 1.17.1
        # (see test_cli.TestGoldenOutputs for when a digest may change)
        digest = hashlib.sha256(b"".join(x.tobytes() for x in a)).hexdigest()
        assert digest == "7d2b6e071e8643a6d354ca709df72089051321f4bcf3b19f4e371604b49b42c5"

    def test_start_of_another_dimension_rejected(self):
        cfg = PathConfig(m=3, dt=1e-3, horizon=10.0, seed=1)
        for x0 in (np.zeros(2), np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="coordinates"):
                exit_points_batch(cfg, x0, 1.0, 5)

    def test_mean_exit_time(self):
        # E tau from the center of the unit ball is 1/m
        cfg = PathConfig(m=3, dt=2e-4, horizon=100.0, seed=10)
        taus, _, cen = exit_points_batch(cfg, np.zeros(3), 1.0, 4000)
        est = mc_estimate(taus[~cen])
        assert abs(est.mean - 1.0 / 3.0) <= 3 * est.std_error + 2e-3


class TestNoPaths:
    def test_entry_points_reject_fewer_than_one_path(self):
        cfg = PathConfig(m=2, dt=1e-3, horizon=10.0, seed=1)
        unit = PathConfig(m=1, dt=1e-3, horizon=1.0, seed=1)
        long = PathConfig(m=2, dt=1e-3, horizon=400.0, seed=1)
        u = zero_fn(2)
        sched = RadiusSchedule(np.array([0.5]))
        for n in (0, -5):
            calls = {
                "exit_points_batch": lambda: exit_points_batch(cfg, np.zeros(2), 1.0, n),
                "reflection_crossing_mc": lambda: reflection_crossing_mc(unit, 1.0, n),
                "scaling_check": lambda: scaling_check(long, 1.0, n),
                "exit_continuity_check": lambda: exit_continuity_check(long, 0.9, 0.9, 5, n),
                "limit_experiment": lambda: limit_experiment(u, sched, cfg, n, 0.9),
            }
            for name, call in calls.items():
                with pytest.raises(ValueError, match="n_paths must be >= 1"):
                    call()
                    pytest.fail(f"{name} accepted n_paths={n}")

    def test_entry_points_reject_nonpositive_dt(self):
        # every Euler entry point takes its dt inside a PathConfig
        u = zero_fn(2)
        sched = RadiusSchedule(np.array([0.5]))
        for dt in (0.0, -1e-3):
            def cfg(m=2, dt=dt):
                return PathConfig(m=m, dt=dt, horizon=10.0, seed=1)

            calls = {
                "simulate_exit": lambda: simulate_exit(cfg(), 1.0),
                "exit_points_batch": lambda: exit_points_batch(cfg(), np.zeros(2), 1.0, 10),
                "reflection_crossing_mc": lambda: reflection_crossing_mc(cfg(m=1), 1.0, 10),
                "scaling_check": lambda: scaling_check(cfg(), 1.0, 10),
                "exit_continuity_check": lambda: exit_continuity_check(cfg(), 0.9, 0.9, 5, 10),
                "limit_experiment": lambda: limit_experiment(u, sched, cfg(), 10, 0.9),
            }
            for name, call in calls.items():
                with pytest.raises(ValueError, match="dt must be positive"):
                    call()
                    pytest.fail(f"{name} accepted dt={dt}")


class TestEulerChunk:
    @pytest.mark.parametrize("cells", [brownian.BLOCK_CELLS, 2**8])
    def test_observer_sees_each_step_once_across_blocks(self, monkeypatch, cells):
        # with 2^8 cells a block holds at most two steps of 64 paths
        monkeypatch.setattr(brownian, "BLOCK_CELLS", cells)
        c, dt, n_steps = 64, 1e-3, 600
        seen = [[] for _ in range(c)]
        blocks = []

        def record(rows, xs, levels, t, valid):
            blocks.append(xs.shape[0])
            assert np.allclose(levels, np.linalg.norm(xs, axis=-1), rtol=0, atol=1e-15)
            assert np.all(levels[valid] < 1.0)
            for col, row in enumerate(rows):
                for i in np.flatnonzero(valid[:, col]):
                    seen[row].append((t + (i + 1) * dt, xs[i, col]))

        ex = euler_chunk(rng_stream(31), np.zeros(2), c, dt, n_steps, 1.0, observe=record)
        assert len(blocks) > 2 and sum(blocks) <= n_steps
        assert 0 < ex.censored.sum() < c
        for row in range(c):
            times = np.array([tt for tt, _ in seen[row]])
            assert np.allclose(times, dt * np.arange(1, times.size + 1), rtol=0, atol=1e-12)
            if ex.censored[row]:
                assert times.size == n_steps
            if times.size:
                assert times[-1] == ex.t0[row]
                assert np.array_equal(seen[row][-1][1], ex.before[row])
            else:
                assert ex.t0[row] == 0.0 and not ex.censored[row]

    def test_censored_count_uses_exact_step_count(self):
        cfg = PathConfig(m=2, dt=1e-3, horizon=0.0105, seed=3)
        assert cfg.n_steps == 11
        ex = euler_chunk(rng_stream(3), np.zeros(2), 50, cfg.dt, cfg.n_steps, 5.0)
        assert ex.censored.all()
        assert np.allclose(ex.t0, cfg.n_steps * cfg.dt, rtol=0, atol=1e-15)


def bisect_crossing(a, d, r):
    """Test oracle: the fraction s of the chord a -> a + d where |a + s d| = r."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(a + mid * d) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestExitPoints:
    def test_closed_form_crossing_matches_bisection(self):
        rng = rng_stream(32)
        r = 0.999
        cases = []
        while len(cases) < 400:
            m = int(rng.integers(1, 5))
            if len(cases) % 2:
                a = uniform_sphere_sample(rng, m) * r * rng.uniform(0.0, 1.0) ** 0.1
                d = rng.standard_normal(m) * 10.0 ** rng.uniform(-3.0, 0.5)
            else:  # from just inside, across the ball: b < 0 and c tiny
                a = uniform_sphere_sample(rng, m) * r * (1.0 - 10.0 ** rng.uniform(-9.0, -4.0))
                d = -a * rng.uniform(1.5, 2.5) + 0.2 * rng.standard_normal(m)
            if np.linalg.norm(a + d) >= r:
                cases.append((a, d))
        for m in range(1, 5):
            batch = [(a, d) for a, d in cases if a.size == m]
            a = np.array([a for a, _ in batch])
            d = np.array([d for _, d in batch])
            n = a.shape[0]
            ex = ChunkExits(np.zeros(n), a, a + d, np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
            tau, pts = exit_points(ex, r, 1.0)
            oracle = np.array([bisect_crossing(ai, di, r) for ai, di in batch])
            assert np.max(np.abs(tau - oracle)) <= 1e-12
            assert np.max(np.abs(np.linalg.norm(pts, axis=1) - r)) <= 1e-12
        assert any(np.dot(a, d) < 0 for a, d in cases) and any(np.dot(a, d) >= 0 for a, d in cases)


class TestWalkOnSpheres:
    def test_centered_is_symmetric(self):
        rng = rng_stream(12)
        z = wos_exit_points(rng, np.zeros(3), 1.0, 100_000)
        est = mc_estimate(z[:, 0])
        assert abs(est.mean) <= 3 * est.std_error
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_offcenter_mean_is_harmonic_extension(self):
        rng = rng_stream(13)
        z = wos_exit_points(rng, np.array([0.5, 0.0]), 1.0, 100_000)
        est = mc_estimate(z[:, 0])
        assert abs(est.mean - 0.5) <= 3 * est.std_error

    def test_scaled_radius(self):
        rng = rng_stream(15)
        z = wos_exit_points(rng, np.array([1.0, 0.0]), 2.0, 2000)
        assert np.allclose(np.linalg.norm(z, axis=1), 2.0, atol=1e-12)

    def test_many_starts(self):
        rng = rng_stream(16)
        xs = uniform_sphere_sample(rng, 2, size=300) * 0.9
        z = wos_from_many(rng, xs, 1.0)
        assert z.shape == (300, 2)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_outside_start_rejected(self):
        rng = rng_stream(17)
        with pytest.raises(ValueError):
            wos_exit_points(rng, np.array([1.1, 0.0]), 1.0, 10)

    @staticmethod
    def exit_cdf(m, s, c):
        """Closed-form P(z1 <= c) for the exit point of the unit ball from (s, 0, ...)."""
        if m == 2:
            return 1.0 - (2.0 / math.pi) * np.arctan((1.0 + s) / (1.0 - s) * np.tan(np.arccos(c) / 2.0))
        if s == 0.0:
            return (c + 1.0) / 2.0
        # z1 has density (1 - s^2) / 2 (1 + s^2 - 2 s t)^(-3/2) on [-1, 1]
        return (1.0 - s * s) / (2.0 * s) * (1.0 / np.sqrt(1.0 + s * s - 2.0 * s * c) - 1.0 / (1.0 + s))

    @pytest.mark.parametrize("m", [2, 3])
    def test_exit_law_ks_for_mixed_starts(self, m):
        # one call whose rows mix three starts; each start's z1 against its
        # closed-form law, at the 0.1% level (KS coefficient 1.95)
        ss = (0.0, 0.5, 0.9)
        n = 3000
        xs = np.zeros((3 * n, m))
        xs[:, 0] = np.tile(ss, n)
        z = wos_from_many(rng_stream(20260809, 18, m), xs, 1.0)
        for i, s in enumerate(ss):
            rep = ks_one_sample(np.clip(z[i::3, 0], -1.0, 1.0), lambda c: self.exit_cdf(m, s, c))
            assert rep.statistic * math.sqrt(n) < 1.95, (s, rep.statistic)

    @staticmethod
    def zonal_cdf(m, s):
        """P(z.xh <= c) for the exit point from |x| = s: density proportional
        to (1 - t^2)^((m-3)/2) (1 + s^2 - 2 s t)^(-m/2).  Closed form at m = 2, 3;
        at m >= 4 ``quad`` in log(1 - t), summed between consecutive sorted points."""
        if m in (2, 3):
            return lambda c: TestWalkOnSpheres.exit_cdf(m, s, np.clip(c, -1.0, 1.0))
        from scipy import integrate

        d = 1.0 - s

        def h(v):  # density in v = log(1 - t), including the Jacobian 1 - t
            y = math.exp(v)
            return (y * (2.0 - y)) ** ((m - 3) / 2.0) * (d * d + 2.0 * s * y) ** (-m / 2.0) * y

        def upper(c):  # the mass above each sorted c, from the top down
            vs = np.log(np.maximum(1.0 - c, 1e-300))[::-1]
            lo, acc, out = math.log(1e-40), 0.0, []
            for v in vs:
                if v > lo:
                    acc += integrate.quad(h, lo, v, points=[math.log(d * d)] if lo < 2 * math.log(d) < v else None,
                                          limit=200)[0]
                    lo = v
                out.append(acc)
            return np.array(out[::-1])

        total = upper(np.array([-1.0]))[0]
        return lambda c: 1.0 - upper(np.asarray(c, dtype=float)) / total

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_exit_law_ks_near_the_boundary(self, m):
        # one call mixing five starts off the axes, up to 1 - s = 1e-6; each
        # start's z.xh against the exact law, at the 0.1% level (KS 1.95)
        ss = (0.3, 0.7, 0.989, 0.999, 1.0 - 1e-6)
        n = 2000
        dirs = uniform_sphere_sample(rng_stream(20260809, 19), m, size=len(ss))
        xs = np.tile(np.array(ss)[:, None] * dirs, (n, 1))
        z = wos_from_many(rng_stream(20260809, 20, m), xs, 1.0)
        for i, s in enumerate(ss):
            t = z[i:: len(ss)] @ dirs[i]
            rep = ks_one_sample(np.clip(t, -1.0, 1.0), self.zonal_cdf(m, s))
            assert rep.statistic * math.sqrt(n) < 1.95, (s, rep.statistic)

    @pytest.mark.parametrize("m", [3, 4])
    def test_mean_is_the_start_off_the_axes(self, m):
        x = 0.8 * np.linspace(1.0, 2.0, m) / np.linalg.norm(np.linspace(1.0, 2.0, m))
        z = wos_exit_points(rng_stream(20260809, 21, m), x, 1.0, 40_000)
        assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) <= 1e-12
        se = z.std(axis=0) / math.sqrt(z.shape[0])
        assert np.all(np.abs(z.mean(axis=0) - x) <= 3.0 * se), (z.mean(axis=0) - x) / se

    def test_no_accept_uniform_at_m2_and_m3(self):
        # m = 2 and centred starts take one sphere row per point and nothing
        # else; an off-centre start at m = 3 one sphere row and one uniform
        for m, x, uniforms in ((2, [0.7, 0.0], 0), (3, [0.0, 0.0, 0.0], 0), (3, [0.0, 0.7, 0.0], 500)):
            a, b = rng_stream(22), rng_stream(22)
            z = wos_exit_points(a, np.array(x), 1.0, 500)
            assert z.shape == (500, m)
            uniform_sphere_sample(b, m, size=500)
            b.random(uniforms)
            assert a.random() == b.random()

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_proposals_per_point(self, monkeypatch, m):
        # sphere rows drawn per point: exactly 1 at m = 3; at m >= 4 a
        # geometric count with mean 2 c_m = 2 Gamma(m/2) / (sqrt(pi) Gamma((m-1)/2))
        # at every start, here within 3 se over starts from s = 0.3 to 1 - 1e-6
        rows = []
        draw = brownian.uniform_sphere_sample

        def counted(*args, **kwargs):
            rows.append(kwargs["size"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(brownian, "uniform_sphere_sample", counted)
        n = 20_000
        xs = np.zeros((n, m))
        xs[:, m - 1] = np.tile([0.3, 0.9, 0.999, 1.0 - 1e-6], n // 4)
        wos_from_many(rng_stream(20260809, 24, m), xs, 1.0)
        per_point = sum(rows) / n
        if m == 3:
            assert per_point == 1.0
            return
        mean = 2.0 * math.exp(math.lgamma(m / 2.0) - math.lgamma((m - 1) / 2.0)) / math.sqrt(math.pi)
        se = math.sqrt((mean - 1.0) * mean / n)  # geometric with success rate 1 / mean
        assert abs(per_point - mean) <= 3.0 * se, (per_point, mean, se)

    def test_antipode_stays_on_the_sphere(self):
        # U = 0 gives V = 1, the antipode, where rounding puts h above 1 at
        # many s; clipped, the point is -xh up to rounding rather than NaN
        class ZeroUniform:
            standard_normal = rng_stream(26).standard_normal

            def random(self, n):
                return np.zeros(n)

        ss = np.linspace(0.001, 1.0 - 1e-6, 2001)
        xs = np.zeros((ss.size, 3))
        xs[:, 0] = ss
        z = wos_from_many(ZeroUniform(), xs, 1.0)
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z - [-1.0, 0.0, 0.0])) <= 1e-4

    def test_thinning_round_caps(self):
        assert [brownian.thinning_rounds(m) for m in (2, 3, 4, 5, 10)] == [1, 1, 29, 41, 80]

    @pytest.mark.parametrize("accept_round", [None, 29])
    def test_thinning_stops_at_its_cap(self, accept_round):
        # a stub whose accept uniforms reject every proposal until round accept_round:
        # rows accepted in the last allowed round return, rows pending past it raise
        class Rejecting:
            standard_normal = rng_stream(27).standard_normal

            def __init__(self):
                self.calls = 0

            def random(self, n):
                self.calls += 1  # odd calls draw a round's U, even ones its accept uniform
                if self.calls % 2:
                    return np.full(n, 0.5)
                return np.full(n, 0.0 if self.calls // 2 == accept_round else 1.0)

        m, cap = 4, brownian.thinning_rounds(4)
        xs = np.zeros((6, m))
        xs[:, 0] = 0.5
        xs[0, 0] = 0.0  # a centred row takes its point before the rounds
        gen = Rejecting()
        if accept_round is None:
            with pytest.raises(RuntimeError, match=r"rows \[1, 2, 3, 4, 5\] \(5 in all\) still pending after 29"):
                wos_from_many(gen, xs, 1.0)
        else:
            z = wos_from_many(gen, xs, 1.0)
            assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) <= 1e-12
        assert gen.calls == 2 * cap

    def test_exponent_one_half_too_high_fails_ks(self):
        # negative control: accepting with g^((m-2)/2) in place of g^((m-3)/2)
        # gives the correct law thinned by a further g^(1/2),
        # g = (1 - t^2) / (1 - 2 s t + s^2); the KS that passes on the sample
        # must fail on the thinned one
        m, s, n = 4, 0.7, 20_000
        law = self.zonal_cdf(m, s)
        t = np.clip(wos_exit_points(rng_stream(20260809, 23), np.array([s, 0.0, 0.0, 0.0]), 1.0, n)[:, 0], -1.0, 1.0)
        assert ks_one_sample(t, law).statistic * math.sqrt(n) < 1.95
        g = (1.0 - t * t) / (1.0 - 2.0 * s * t + s * s)
        thinned = t[rng_stream(20260809, 25).random(n) < np.sqrt(g)]
        rep = ks_one_sample(thinned, law)
        assert rep.statistic * math.sqrt(thinned.size) > 1.95, rep.statistic


class TestEngineAgreement:
    def test_offcenter_two_sample_ks(self):
        # 16,000 paths per engine: at 4,000 the Euler sample of stream 3 sits
        # at the 0.5% tail of the closed-form law, so the verdict turned on it
        cfg = PathConfig(m=2, dt=1e-4, horizon=100.0, seed=20260809, stream_id=3)
        _, pts, cen = exit_points_batch(cfg, np.array([0.5, 0.0]), 1.0, 16_000)
        rng = rng_stream(20260809, 4)
        zw = wos_exit_points(rng, np.array([0.5, 0.0]), 1.0, 16_000)
        rep = ks_two_sample(pts[~cen, 0], zw[:, 0])
        assert rep.statistic < rep.threshold


class TestReflectionMc:
    def test_crossing_probability(self):
        est = reflection_crossing_mc(PathConfig(m=1, dt=1e-4, horizon=1.0, seed=20260809), 1.0, 4000)
        assert abs(est.mean - reflection_prob(1.0, 1.0)) <= 3 * est.std_error + 0.004

    def test_worker_invariance(self):
        cfg = PathConfig(m=1, dt=1e-3, horizon=1.0, seed=5)
        a = reflection_crossing_mc(cfg, 1.0, 20_000, workers=1)
        b = reflection_crossing_mc(cfg, 1.0, 20_000, workers=4)
        assert a == b


class TestScaling:
    def test_same_radius_same_law(self):
        rep = scaling_check(PathConfig(m=2, dt=5e-4, horizon=200.0, seed=20260809), 1.0, 2000)
        assert rep.ks.statistic < rep.ks.threshold

    def test_radius_two_vs_four_tau_unit(self):
        rep = scaling_check(PathConfig(m=2, dt=5e-4, horizon=400.0, seed=20260810), 4.0, 2000)
        assert rep.ks.statistic < rep.ks.threshold
        assert abs(rep.mean_scaled - rep.mean_unit_scaled) <= 3 * rep.mean_se + 0.02
        assert rep.censored == 0


class TestExitContinuity:
    def test_spec_preconditions_enforced(self):
        # the gap 0.9 * 2^-4 = 0.05625 pushes the CDF statistic to 0.1264,
        # just over the 2^-(kappa+1) = 0.125 requirement
        cfg = PathConfig(m=2, dt=1e-4, horizon=400.0, seed=1)
        with pytest.raises(ValueError, match="precondition"):
            exit_continuity_check(cfg, 0.9, 0.9 + 0.05625, 2, 100)
        with pytest.raises(ValueError, match="precondition"):
            exit_continuity_check(cfg, 0.9, 0.9 + 0.2, 2, 100)
        # the paths start at the origin, which must lie inside D(0, r1)
        with pytest.raises(ValueError, match="inner ball"):
            exit_continuity_check(cfg, 0.0, 0.0, 2, 100)

    def test_zero_gap_has_zero_exceedance(self):
        rep = exit_continuity_check(PathConfig(m=2, dt=1e-3, horizon=100.0, seed=2), 0.9, 0.9, 5, 400)
        assert rep.exceedance == 0.0
        assert rep.min_diff == 0.0

    def test_compliant_gap_bound_holds(self):
        rep = exit_continuity_check(PathConfig(m=2, dt=5e-4, horizon=100.0, seed=3), 0.9, 0.945, 2, 2000)
        assert rep.min_diff >= 0.0
        assert rep.exceedance <= rep.bound + 3.0 * rep.exceedance_se
        assert rep.bound == 0.5 and rep.gap_bound == 4.0

    def test_worker_invariance(self):
        args = (PathConfig(m=2, dt=1e-3, horizon=100.0, seed=4), 0.9, 0.945, 2, 9000)
        a = exit_continuity_check(*args, workers=1)
        b = exit_continuity_check(*args, workers=3)
        assert a == b


class TestPathConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathConfig(m=0, dt=1e-3, horizon=1.0, seed=1)
        with pytest.raises(ValueError):
            PathConfig(m=2, dt=0.0, horizon=1.0, seed=1)
        with pytest.raises(ValueError, match="^dt 0.001 exceeds the horizon 0.0001$"):
            PathConfig(m=2, dt=1e-3, horizon=1e-4, seed=1)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon must be finite"):
                PathConfig(m=2, dt=1e-3, horizon=horizon, seed=1)
