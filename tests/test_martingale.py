import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk import martingale
from ballwalk.harmonic import catalog, hardy_integrals, hardy_table, zero_fn
from ballwalk.martingale import (
    MartingaleSample,
    lambda_bar,
    lambda_bar_closed,
    lambda_bar_series,
    maximal_inequality_check,
    monotonicity_report,
    sample_Y_skeleton,
)
from ballwalk.sphere import SurfaceQuadrature
from ballwalk.stats import mc_estimate
from ballwalk.streams import rng_stream

GAUSS2 = SurfaceQuadrature(2, node_count=512)


def lambda_oracle(v: float) -> float:
    with mpmath.workdps(60):
        a = mpmath.fabs(mpmath.mpf(repr(v)))
        return float(mpmath.exp(-a) - 1 + a)


class TestLambdaBar:
    def test_at_zero(self):
        assert lambda_bar(0.0) == 0.0

    def test_at_one(self):
        assert lambda_bar(1.0) == pytest.approx(math.exp(-1.0), abs=1e-16)

    def test_at_minus_two(self):
        assert lambda_bar(-2.0) == pytest.approx(math.exp(-2.0) + 1.0, abs=1e-16)

    @given(st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_abs(self, v):
        lb = lambda_bar(v)
        assert 0.0 <= lb <= abs(v)

    @given(st.floats(-8.0, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_convexity_second_differences(self, v):
        h = 1e-2
        assert lambda_bar(v - h) - 2 * lambda_bar(v) + lambda_bar(v + h) >= -1e-12

    def test_both_branches_match_high_precision_oracle(self):
        for v in (1e-6, 1e-5, 1e-4, 1e-3, 0.1):
            assert lambda_bar(v) == pytest.approx(lambda_oracle(v), rel=1e-12, abs=1e-22)

    def test_branch_agreement_at_switchover(self):
        # float64 floor: two distinct evaluation orders of a value near 5e-9
        # can only match in absolute (not relative-to-value) terms
        for v in (1e-4, -1e-4):
            gap = abs(lambda_bar_series(v) - lambda_bar_closed(v))
            assert gap <= 1e-16

    def test_lambda_bar_runs_the_branch_functions(self, monkeypatch):
        # the switchover verdict compares the branch functions, so lambda_bar
        # must be built from them and not from copies of their expressions
        monkeypatch.setattr(martingale, "lambda_bar_series", lambda s: np.full_like(s, 123.0))
        assert lambda_bar(1e-5) == 123.0
        assert lambda_bar(1.0) == pytest.approx(lambda_oracle(1.0), rel=1e-12)
        monkeypatch.setattr(martingale, "lambda_bar_closed", lambda s: np.full_like(s, 456.0))
        assert lambda_bar(-1.0) == 456.0
        assert list(lambda_bar(np.array([1e-5, 2.0]))) == [123.0, 456.0]

    def test_array_input(self):
        v = np.array([-2.0, 0.0, 1.0])
        out = lambda_bar(v)
        assert out.shape == (3,)
        assert out[1] == 0.0


class TestMartingaleSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            MartingaleSample(np.zeros(5))
        with pytest.raises(ValueError):
            MartingaleSample(np.zeros((5, 0)))

    def test_shape_accessors(self):
        s = MartingaleSample(np.zeros((5, 2)))
        assert s.n_paths == 5


class TestMaximalInequality:
    def test_constant_martingale(self):
        z = MartingaleSample(np.full((100, 2), 0.7))
        for eps in (0.1, 1.0):
            rep = maximal_inequality_check(z, eps)
            assert rep.premise_holds
            assert rep.exceedance == 0.0

    def test_fair_coin_premise_fails(self):
        vals = np.array([[0.0, 1.0], [0.0, -1.0]] * 500)
        rep = maximal_inequality_check(MartingaleSample(vals), 0.5)
        assert not rep.premise_holds
        assert rep.lhs == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert rep.rhs == pytest.approx((0.5**3 / 6) * math.exp(-6.0), rel=1e-12)

    def test_skeleton_premise_and_conclusion(self):
        u = catalog(2, with_rates=False)[0]
        rng = rng_stream(20260809, 41)
        sk = sample_Y_skeleton(rng, u, np.array([0.90, 0.91]), 20_000)
        rep = maximal_inequality_check(sk, 0.7)
        assert rep.premise_holds
        assert rep.exceedance < 0.7
        # the premise left side is the I3 increment, computable by quadrature
        i3a = hardy_integrals(u, 0.90, GAUSS2)[2]
        i3b = hardy_integrals(u, 0.91, GAUSS2)[2]
        assert rep.lhs == pytest.approx(i3b - i3a, abs=3 * rep.lhs_se)


    def test_skeleton_premise_and_conclusion_m3(self):
        # the Mobius sampler makes s = 0.90 / 0.91 cheap at m = 3 too
        u = catalog(3, with_rates=False)[0]
        sk = sample_Y_skeleton(rng_stream(20260809, 43), u, np.array([0.90, 0.91]), 20_000)
        rep = maximal_inequality_check(sk, 0.7)
        assert rep.premise_holds and rep.exceedance < 0.7
        quad = SurfaceQuadrature(3, node_count=128)
        i3a = hardy_integrals(u, 0.90, quad)[2]
        i3b = hardy_integrals(u, 0.91, quad)[2]
        assert rep.lhs == pytest.approx(i3b - i3a, abs=3 * rep.lhs_se)

class TestYSkeleton:
    def test_stage_means_and_boundary_integrals(self):
        u = catalog(2, with_rates=False)[0]
        rng = rng_stream(20260809, 42)
        sk = sample_Y_skeleton(rng, u, np.array([0.5, 0.9]), 50_000)
        for j, r in enumerate((0.5, 0.9)):
            stage = sk.values[:, j]
            est = mc_estimate(stage)
            assert abs(est.mean) <= 3 * est.std_error
            i1, i2, _ = hardy_integrals(u, r, GAUSS2)
            abs_est = mc_estimate(np.abs(stage))
            assert abs(abs_est.mean - i1) <= 3 * abs_est.std_error
            exp_est = mc_estimate(np.exp(-np.abs(stage)))
            assert abs(exp_est.mean - i2) <= 3 * exp_est.std_error

    def test_martingale_drift_witness(self):
        u = catalog(2, with_rates=False)[0]
        rng = rng_stream(20260809, 43)
        sk = sample_Y_skeleton(rng, u, np.array([0.6, 0.8, 0.9]), 20_000)
        # conditional increments vanish: E[Y_next - Y_prev | Y_prev decile] ~ 0
        for j in range(sk.values.shape[1] - 1):
            prev, nxt = sk.values[:, j], sk.values[:, j + 1]
            edges = np.quantile(prev, np.linspace(0.0, 1.0, 11))
            bucket = np.clip(np.searchsorted(edges, prev, side="right") - 1, 0, 9)
            for b in range(10):
                est = mc_estimate(nxt[bucket == b] - prev[bucket == b])
                assert abs(est.mean) <= 4.0 * est.std_error

    def test_radii_must_increase(self):
        u = catalog(2, with_rates=False)[0]
        with pytest.raises(ValueError):
            sample_Y_skeleton(rng_stream(1), u, np.array([0.9, 0.5]), 10)


def sound(rep) -> bool:
    """The martingale suite's judge: I1, I3 nondecreasing, I2 <= 1, I3 = I2 - 1 + I1."""
    return rep.max_down_step >= -1e-8 and rep.i2_max <= 1.0 + 1e-12 and rep.identity_defect <= 1e-12


class TestMonotonicityReport:
    GRID = np.arange(0.1, 0.951, 0.05)

    def test_zero_function_all_flat(self):
        rep = monotonicity_report(zero_fn(2), self.GRID, GAUSS2)
        assert rep.max_down_step == 0.0
        assert rep.i2_down_step == 0.0
        assert rep.identity_defect == 0.0
        assert rep.i2_max == 1.0

    def test_coordinate_i1_linear(self):
        u = catalog(2, with_rates=False)[0]
        rep = monotonicity_report(u, self.GRID, GAUSS2)
        assert sound(rep)
        assert np.allclose(hardy_table(u, self.GRID, GAUSS2)[0], 2 * self.GRID / math.pi, atol=2e-6)
        # I2 genuinely decreases for members vanishing at the origin
        assert rep.i2_down_step < -1e-3
        assert rep.i2_max <= 1.0

    def test_slice_has_flat_i1_and_rising_i2(self):
        u = [f for f in catalog(2, with_rates=False) if f.name == "poisson-slice"][0]
        quad = SurfaceQuadrature(2, node_count=2048)
        rep = monotonicity_report(u, self.GRID, quad)
        assert sound(rep)
        assert np.allclose(hardy_table(u, self.GRID, quad)[0], 1.0, atol=1e-8)
        assert rep.i2_down_step >= -1e-8

    def test_i1_bounded_by_declared_b0(self):
        for u in catalog(2, with_rates=True):
            # I1 rises to its limit b1 (the declared bound, with the same
            # rounding allowance the removed b0 field carried)
            assert np.max(hardy_table(u, self.GRID, GAUSS2)[0]) <= u.hardy.b1 * (1.0 + 1e-9) + 1e-12
