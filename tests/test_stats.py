import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk.stats import SLICE, McEstimate, binomial_se, exact_sum, ks_one_sample, ks_two_sample, mc_estimate
from ballwalk.streams import rng_stream

DBL_MAX = float(np.finfo(float).max)
FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and both zeros included


def fsum_estimate(samples) -> McEstimate:
    """The reference: mc_estimate with every sum taken by math.fsum."""
    xs = np.asarray(samples, dtype=float).ravel()
    n = xs.size
    mean = math.fsum(xs) / n
    if n == 1:
        return McEstimate(mean, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        var = math.fsum(np.square(xs - mean)) / (n - 1)
    return McEstimate(mean, math.sqrt(var / n))


def rounded_sum(xs) -> float:
    """math.fsum, or, where its partials overflow, the exact rational sum rounded once."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return float(sum(map(Fraction, xs), Fraction(0)))  # raises OverflowError past the float range


def outcome(f, *args):
    """f(*args), or the type of the exception it raised; floats by repr, so -0.0 and NaN compare too."""
    try:
        value = f(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return repr(value) if isinstance(value, float) else tuple(map(repr, (value.mean, value.std_error)))


class TestExactSum:
    @given(st.lists(FINITE, max_size=80), st.sampled_from([1, 3, SLICE]))
    @settings(max_examples=400, deadline=None)
    def test_equals_correctly_rounded_sum(self, xs, block):
        arr = np.array(xs, dtype=float)
        blocks = [arr[i : i + block] for i in range(0, arr.size, block)]
        assert outcome(exact_sum, blocks) == outcome(rounded_sum, xs)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40), st.lists(FINITE, max_size=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_heavy_cancellation(self, xs, small, rnd):
        # pairs x, -x cancel, leaving only the small terms and the rounding of nothing else
        vals = xs + [-x for x in xs] + [v * 1e-300 for v in small]
        rnd.shuffle(vals)
        assert outcome(exact_sum, [np.array(vals)]) == outcome(rounded_sum, vals)

    def test_intermediate_overflow_returns_exact_sum(self):
        # fsum's running partials overflow, though the exact sum is 1e308
        xs = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError):
            math.fsum(xs)
        assert exact_sum([np.array(xs)]) == 1e308
        with np.errstate(over="ignore"):  # the squared deviations overflow to inf
            assert mc_estimate(xs) == McEstimate(1e308 / 3, math.inf)

    @pytest.mark.parametrize("xs", [[1e308, 1e308], [DBL_MAX, DBL_MAX, -DBL_MAX, DBL_MAX]])
    def test_overflowing_total_raises(self, xs):
        with pytest.raises(OverflowError):
            exact_sum([np.array(xs)])
        with pytest.raises(OverflowError):
            mc_estimate(xs)

    def test_rejects_blocks_past_exact_bin_sums(self):
        with pytest.raises(ValueError, match="2\\^27"):
            exact_sum([np.broadcast_to(0.0, (2**27,))])  # a view: no memory is held


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
        est = mc_estimate(xs)
        assert est.mean == mean
        assert est.std_error == math.sqrt(var / xs.size)

    @given(st.lists(FINITE, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_forms_bit_for_bit(self, xs):
        ref = outcome(fsum_estimate, xs)
        with np.errstate(over="ignore"):
            got = outcome(mc_estimate, xs)
        if ref is not OverflowError:
            assert got == ref
            return
        # fsum's partials overflowed: the mean is the exact sum, rounded, over n,
        # and a sum of squares past the float range still raises
        mean = outcome(lambda: rounded_sum(xs) / len(xs))
        if mean is OverflowError:
            assert got is OverflowError
        elif got is not OverflowError:
            assert got[0] == mean

    @pytest.mark.parametrize(
        "xs",
        [
            [math.nan, 1.0],
            [1.0, math.inf],
            [-math.inf, 2.0, 3.0],
            [math.inf, math.inf],
            [math.inf, -math.inf],  # fsum: ValueError
            [math.nan, math.inf, -math.inf],  # ValueError before NaN
            [math.nan],
            [-math.inf],
        ],
    )
    def test_non_finite_samples_unchanged(self, xs):
        with np.errstate(invalid="ignore"):
            assert outcome(mc_estimate, xs) == outcome(fsum_estimate, xs)

    def test_non_finite_samples_across_slices(self):
        xs = rng_stream(20260809, 104).normal(size=3 * SLICE)
        for specials in ({5: math.inf}, {5: math.inf, 2 * SLICE + 9: -math.inf}, {SLICE + 1: math.nan}):
            ys = xs.copy()
            ys[list(specials)] = list(specials.values())
            with np.errstate(invalid="ignore"):
                assert outcome(mc_estimate, ys) == outcome(fsum_estimate, ys)


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
