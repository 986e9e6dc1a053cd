import math

import numpy as np
import pytest

from ballwalk import brownian, hardy_limit
from ballwalk.brownian import PathConfig, euler_chunk, exit_points
from ballwalk.harmonic import HarmonicFn, RateData, catalog, estimate_rates, hardy_integrals, zero_fn
from ballwalk.hardy_limit import (
    RadiusSchedule,
    delta3,
    first_leg_radius,
    limit_experiment,
    radius_schedule,
    schedule_epsilons,
)
from ballwalk.sphere import SurfaceQuadrature, uniform_sphere_sample
from ballwalk.stats import ks_two_sample
from ballwalk.streams import rng_stream

KS_1E4 = math.sqrt(-math.log(1e-4 / 2.0) / 2.0)  # two-sample KS coefficient at level 1e-4

GAUSS2 = SurfaceQuadrature(2, node_count=512)


def synthetic_rates(d1, d2, b1=0.0, b2=1.0):
    return RateData(b1=b1, delta1=d1, b2=b2, delta2=d2)


class TestDelta3:
    def test_plugin_example(self):
        rates = synthetic_rates(lambda e: e, lambda e: e * e)
        assert delta3(rates, 0.2) == pytest.approx(0.01, abs=1e-15)

    def test_nondecreasing_in_eps(self):
        rates = estimate_rates(catalog(2, with_rates=False)[0])
        grid = [1e-3, 1e-2, 0.1, 0.5]
        vals = [delta3(rates, e) for e in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestRadiusSchedule:
    def test_identity_rates_first_radius(self):
        # delta3(eps) = eps/2 and eps_1 = 1/24 give r_1 = 1 - 1/48
        rates = synthetic_rates(lambda e: e, lambda e: e)
        sched = radius_schedule(rates, 1, "paper-133")
        assert sched.radii[0] == pytest.approx(1.0 - 1.0 / 48.0, abs=1e-15)

    def test_increasing_to_one_for_identity_rates(self):
        rates = synthetic_rates(lambda e: e, lambda e: e)
        sched = radius_schedule(rates, 8, "paper-133")
        assert np.all(np.diff(sched.radii) > 0)
        assert sched.radii[-1] > 1 - 1e-3

    def test_conservative_min_dominates(self):
        for rates in (
            synthetic_rates(lambda e: e, lambda e: e, b1=0.3),
            estimate_rates(catalog(2, with_rates=False)[0]),
        ):
            cons = radius_schedule(rates, 4, "conservative-min").radii
            for variant in ("paper-133", "paper-step10"):
                other = radius_schedule(rates, 4, variant).radii
                assert np.all(cons >= other - 1e-15)

    def test_epsilon_variants_ordering(self):
        for q in range(1, 6):
            e133 = schedule_epsilons(q, 0.5, "paper-133")
            es10 = schedule_epsilons(q, 0.5, "paper-step10")
            emin = schedule_epsilons(q, 0.5, "conservative-min")
            assert emin == min(e133, es10)

    def test_saturated_rates_still_strictly_increasing(self):
        # estimated rates saturate at the grid floor; ties must be broken
        rates = estimate_rates(catalog(2, with_rates=False)[0])
        sched = radius_schedule(rates, 5)
        assert np.all(np.diff(sched.radii) > 0)
        assert sched.radii[-1] < 1.0

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            radius_schedule(synthetic_rates(lambda e: e, lambda e: e), 2, "nope")

    def test_schedule_invariants(self):
        with pytest.raises(ValueError):
            RadiusSchedule(np.array([0.5, 0.5]))


class TestGammaConsistency:
    def test_catalog_band(self):
        # whenever 1 - r < delta3(eps), the I3 limit gap sits in [0, eps).
        # The kernel slice converges like sqrt(1 - r) near the boundary, so its
        # certificate needs a geometric tail grid and a very dense rule.
        tail = 1.0 - np.geomspace(0.05, 1e-4, 18)
        dense = np.concatenate([np.linspace(0.1, 0.9, 9), tail])
        big = SurfaceQuadrature(2, node_count=2**17)
        mid = SurfaceQuadrature(2, node_count=4096)
        for u in catalog(2, with_rates=False):
            if u.name == "poisson-slice":
                rates = estimate_rates(u, r_grid=dense, quad=big)
                quad = big
            else:
                rates = estimate_rates(u)
                quad = mid
            g = rates.b2 - 1.0 + rates.b1  # the limit of I3 as r -> 1
            for eps in (0.1, 0.01):
                d = delta3(rates, eps)
                for frac in (0.5, 0.9):
                    r = 1.0 - d * frac
                    i3 = hardy_integrals(u, r, quad)[2]
                    assert -1e-7 <= g - i3 < eps, (u.name, eps, d, g - i3)


class TestLimitExperiment:
    CFG = PathConfig(m=2, dt=5e-4, horizon=100.0, seed=20260809)

    def test_zero_function_zero_exceedance(self):
        sched = radius_schedule(estimate_rates(zero_fn(2)), 3)
        rep = limit_experiment(zero_fn(2), sched, self.CFG, 400, 0.999)
        assert all(row.exceedance == 0.0 for row in rep.rows)
        assert all(r.passed for r in rep.rows) and rep.censor_ok

    def test_coordinate_passes_with_small_truncation_gap(self):
        u = catalog(2, with_rates=True)[0]
        sched = radius_schedule(u.hardy, 3)
        rep = limit_experiment(u, sched, self.CFG, 800, 0.999)
        assert all(r.passed for r in rep.rows) and rep.censor_ok
        assert rep.truncation_gap <= 2e-3
        assert [row.bound for row in rep.rows] == [8.0, 4.0, 2.0]

    def test_worker_invariance(self):
        u = catalog(2, with_rates=True)[0]
        sched = radius_schedule(u.hardy, 2)
        a = limit_experiment(u, sched, self.CFG, 9000, 0.999, workers=1)
        b = limit_experiment(u, sched, self.CFG, 9000, 0.999, workers=3)
        assert [r.exceedance for r in a.rows] == [r.exceedance for r in b.rows]
        assert a.truncation_gap == b.truncation_gap

    def test_r_trunc_must_clear_schedule(self):
        u = catalog(2, with_rates=True)[0]
        sched = radius_schedule(u.hardy, 3)
        with pytest.raises(ValueError):
            limit_experiment(u, sched, self.CFG, 10, float(sched.radii[-1]))


class TestLimitExperimentValues:
    """The q-window sups against a brute force over the kernel's own blocks.

    u = 8 x1 on the ladder 0.8, 0.9, 0.95 puts every exceedance strictly
    inside (0, 1) at the thresholds 8, 4 and 2; the catalog members give 0.
    """

    U = HarmonicFn("8x1", 2, lambda p: 8.0 * p[..., 0], lambda r, eps: eps / 8.0)
    SCHED = RadiusSchedule(np.array([0.8, 0.9, 0.95]))
    CFG = PathConfig(m=2, dt=1e-3, horizon=100.0, seed=20260809, stream_id=5)
    N, R_TRUNC = 300, 0.99

    def brute_force_exceedance(self):
        steps = [[] for _ in range(self.N)]

        def record(rows, xs, levels, _t, valid):
            for col, row in enumerate(rows):
                k = int(valid[:, col].sum())  # the valid steps lead each column
                steps[row].append((xs[:k, col], levels[:k, col]))

        cfg = self.CFG
        rng = rng_stream(cfg.seed, cfg.stream_id, 0)
        # the exact first leg: uniform starts on the rho-sphere, drawn before any Euler normal
        x0 = first_leg_radius(self.SCHED.radii[0], 2, cfg.dt) * uniform_sphere_sample(rng, 2, size=self.N)
        ex = euler_chunk(rng, x0, self.N, cfg.dt, cfg.n_steps, self.R_TRUNC, observe=record)
        assert not ex.censored.any()
        _, pts = exit_points(ex, self.R_TRUNC, cfg.dt)
        v = self.U.eval(pts)
        dev = np.zeros((self.N, 3))
        for row in range(self.N):
            xs = np.concatenate([b[0] for b in steps[row]])
            levels = np.concatenate([b[1] for b in steps[row]])
            for q, r in enumerate(self.SCHED.radii):
                past = np.flatnonzero(levels >= r)
                if past.size:  # the window runs from the first crossing of r to the exit step
                    dev[row, q] = np.max(np.abs(v[row] - self.U.eval(xs[past[0]:])))
        return [float(np.mean(dev[:, q] > 2.0 ** (2 - q))) for q in range(3)]

    @pytest.mark.parametrize("cells", [brownian.BLOCK_CELLS, 2**8])
    def test_exceedance_matches_brute_force(self, monkeypatch, cells):
        # with 2^8 cells a block holds at most two steps of the 300 paths
        monkeypatch.setattr(brownian, "BLOCK_CELLS", cells)
        rep = limit_experiment(self.U, self.SCHED, self.CFG, self.N, self.R_TRUNC)
        assert rep.n_censored == 0
        got = [row.exceedance for row in rep.rows]
        assert all(0.0 < p < 1.0 for p in got), got
        assert got == self.brute_force_exceedance()


class TestFirstLeg:
    """The exact first leg: paths start uniformly on the rho-sphere just inside r_1.

    The hardy-limit verdicts cannot fail (their bounds are 8, 4 and 2), so the
    change of start is judged here: the per-path window sups of u = 8 x1 from
    the exact start and from the origin share one law at each q.
    """

    U = TestLimitExperimentValues.U
    SCHED = TestLimitExperimentValues.SCHED
    N, R_TRUNC = 20_000, 0.99

    def window_sups(self, monkeypatch, stream_id, dt=1e-3, n_paths=N):
        """Per-path sups of |V - u| over the q = 1..3 windows, uncensored paths only,
        and the starts every chunk was stepped from."""
        got, starts = [], []

        def recording_chunks(*args, **kwargs):
            got.append(brownian.run_chunks(*args, **kwargs))
            return got[-1]

        def recording_euler(rng, x0, *args, **kwargs):
            starts.append(np.asarray(x0))
            return euler_chunk(rng, x0, *args, **kwargs)

        monkeypatch.setattr(hardy_limit, "run_chunks", recording_chunks)
        monkeypatch.setattr(hardy_limit, "euler_chunk", recording_euler)
        cfg = PathConfig(m=2, dt=dt, horizon=100.0, seed=20260809, stream_id=stream_id)
        limit_experiment(self.U, self.SCHED, cfg, n_paths, self.R_TRUNC)
        dev, censored, _ = got[0]
        return dev[~censored], starts

    def ks_statistics(self, monkeypatch) -> tuple[list, float]:
        exact, _ = self.window_sups(monkeypatch, 7)
        monkeypatch.setattr(hardy_limit, "first_leg_radius", lambda r1, m, dt: 0.0)
        origin, _ = self.window_sups(monkeypatch, 8)
        threshold = KS_1E4 * math.sqrt((len(exact) + len(origin)) / (len(exact) * len(origin)))
        return [ks_two_sample(exact[:, q], origin[:, q]).statistic for q in range(3)], threshold

    def test_window_sups_match_the_walk_from_the_origin(self, monkeypatch):
        stats, threshold = self.ks_statistics(monkeypatch)
        assert max(stats) < threshold, (stats, threshold)

    def test_starts_on_the_e1_axis_fail(self, monkeypatch):
        # named defect: every path starts at rho e1 instead of a uniform point of the rho-sphere
        monkeypatch.setattr(hardy_limit, "uniform_sphere_sample", lambda rng, m, size: np.tile(np.eye(m)[0], (size, 1)))
        stats, threshold = self.ks_statistics(monkeypatch)
        assert max(stats) >= threshold, (stats, threshold)

    def test_starts_lie_on_the_sphere_below_r1(self, monkeypatch):
        rho = first_leg_radius(0.8, 2, 1e-3)
        assert 0.0 < rho < 0.8
        _, starts = self.window_sups(monkeypatch, 7)
        x0 = np.concatenate(starts)
        assert x0.shape == (self.N, 2)
        assert np.max(np.abs(np.linalg.norm(x0, axis=1) - rho)) <= 1e-15

    def test_coarse_dt_starts_at_the_origin(self, monkeypatch):
        assert first_leg_radius(0.8, 2, 0.1) == 0.0
        _, starts = self.window_sups(monkeypatch, 7, dt=0.1, n_paths=50)
        assert np.all(np.concatenate(starts) == 0.0)
