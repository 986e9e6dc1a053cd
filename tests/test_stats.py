import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk.stats import binomial_se, ks_one_sample, ks_two_sample, mc_estimate
from ballwalk.streams import rng_stream


class TestMcEstimate:
    def test_constant_sample(self):
        est = mc_estimate([1.0, 1.0, 1.0, 1.0])
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_two_point_sample(self):
        # unbiased variance (0.5)^2 * 2 / 1 = 0.5; se = sqrt(0.5 / 2) = 0.5
        est = mc_estimate([0.0, 1.0])
        assert est.mean == 0.5
        assert est.std_error == pytest.approx(0.5, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc_estimate([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance_bit_exact(self, xs):
        a = mc_estimate(xs)
        b = mc_estimate(list(reversed(xs)))
        rng = np.random.default_rng(0)
        c = mc_estimate(rng.permutation(xs))
        assert a.mean == b.mean == c.mean
        assert a.std_error == b.std_error == c.std_error

    def test_variance_matches_per_element_fsum(self):
        # more than two 2^16 slices, the last one partial
        xs = rng_stream(20260809, 103).normal(3.0, 2.0, size=150_000)
        mean = math.fsum(xs) / xs.size
        var = math.fsum((float(x) - mean) ** 2 for x in xs) / (xs.size - 1)
        assert mc_estimate(xs).std_error == math.sqrt(var / xs.size)


class TestBinomialSe:
    @given(st.integers(0, 1000), st.integers(1, 1000))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_inline_form(self, hits, n):
        p = min(hits, n) / n
        assert binomial_se(p, n) == math.sqrt(max(p * (1 - p), 1e-300) / n)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_floored_at_certain_outcomes(self, p):
        assert binomial_se(p, 100) == math.sqrt(1e-300 / 100) > 0.0


class TestKsOneSample:
    def test_seeded_uniform_sample_passes(self):
        rng = rng_stream(20260809, 100)
        xs = rng.uniform(0.0, 1.0, size=100_000)
        rep = ks_one_sample(xs, lambda t: np.clip(t, 0.0, 1.0))
        assert rep.statistic < rep.threshold
        assert rep.threshold == pytest.approx(1.36 / math.sqrt(100_000))

    def test_constant_sample_fails(self):
        rep = ks_one_sample(np.full(200, 0.5), lambda t: np.clip(t, 0.0, 1.0))
        assert rep.statistic >= 0.5
        assert not rep.statistic < rep.threshold

    def test_statistic_in_unit_interval(self):
        rng = rng_stream(20260809, 101)
        xs = rng.normal(size=500)
        rep = ks_one_sample(xs, lambda t: np.clip(t, 0.0, 1.0))
        assert 0.0 <= rep.statistic <= 1.0

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_one_sample(np.zeros(49), lambda t: t)

    def test_cdf_called_once_and_shape_checked(self):
        xs = np.linspace(0.0, 1.0, 100)
        calls = []

        def scalar_cdf(t):
            calls.append(np.shape(t))
            return float(np.clip(np.max(t), 0.0, 1.0))

        with pytest.raises(ValueError, match="shape"):
            ks_one_sample(xs, scalar_cdf)
        assert calls == [(100,)]


class TestKsTwoSample:
    def test_identical_samples(self):
        xs = np.linspace(0, 1, 100)
        rep = ks_two_sample(xs, xs)
        assert rep.statistic == 0.0
        assert rep.statistic < rep.threshold

    def test_disjoint_supports(self):
        rep = ks_two_sample(np.linspace(0, 1, 60), np.linspace(5, 6, 60))
        assert rep.statistic == 1.0
        assert not rep.statistic < rep.threshold

    def test_same_law_seeded_draw_passes(self):
        rng = rng_stream(20260809, 102)
        a = rng.normal(size=20_000)
        b = rng.normal(size=20_000)
        rep = ks_two_sample(a, b)
        assert rep.statistic < rep.threshold
        expected = 1.36 * math.sqrt(2.0 / 20_000)
        assert rep.threshold == pytest.approx(expected)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.zeros(100), np.zeros(10))
