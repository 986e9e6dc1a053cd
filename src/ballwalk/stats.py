"""Monte Carlo estimates and Kolmogorov-Smirnov statistics.

Every statistical acceptance test in this package runs through these two
primitives at fixed 5% asymptotic thresholds and sample sizes where the
asymptotics are safe; a KS report carries its statistic and threshold, and
the caller compares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

KS_COEFF_5PCT = 1.36
SLICE = 2**16  # values per exact_sum block in mc_estimate: bounds the temporaries, not exactness
_MAX_BLOCK = 2**27  # a block's float64 bin sums are exact below this many values
_ROUND = 1.5 * 2.0**26  # (v + _ROUND) - _ROUND rounds v in (-1, 1) to a multiple of 2^-26
_ZERO_EXP = 1073  # bin of frexp exponent 0, which holds zeros, NaN and the infinities
_BINS = _ZERO_EXP + 1025  # frexp exponents run from -1073 (the least subnormal) to 1024


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


@dataclass(frozen=True)
class KsReport:
    statistic: float
    threshold: float


def exact_sum(blocks: Iterable[np.ndarray]) -> float:
    """The correctly rounded sum of the values in 1-D float64 blocks.

    ``np.frexp`` splits each value into a mantissa in (-1, 1), a multiple of
    2^-53, and an exponent.  The mantissa's top part, a multiple of 2^-26,
    and its remainder, under 2^-27, are each summed per exponent by
    ``np.bincount``; below 2^27 values a block's bin sums hold at most 53
    significant bits, so float64 sums them exactly, and they are carried
    across blocks as int64 (exact below 2^37 values in all).  The bins are
    then added as one Python int, and a single int / int true division
    rounds it to the nearest float: Shewchuk's exact sum, held in Neal's
    exponent-indexed superaccumulator (arXiv:1505.05571).

    So the result equals ``math.fsum`` of the same values, whatever their
    order, with one exception: fsum raises OverflowError as soon as its
    running partials overflow ([1e308, 1e308, -1e308], or such values
    beside an infinity), where this returns the rounded exact sum (1e308) or
    the special value.  A total that rounds past the float range raises
    OverflowError.  NaN and infinities follow fsum's rules: a NaN gives NaN,
    +inf and -inf together raise ValueError, and otherwise the infinity is
    the sum.
    """
    top = np.zeros(_BINS, dtype=np.int64)
    low = np.zeros(_BINS, dtype=np.int64)
    specials = []
    for x in blocks:
        if x.size >= _MAX_BLOCK:
            raise ValueError(f"exact_sum blocks must hold fewer than 2^27 values, got {x.size}")
        mant, exp = np.frexp(x)
        idx = np.add(exp, _ZERO_EXP, dtype=np.intp)
        hi = (mant + _ROUND) - _ROUND
        hi_bins = np.bincount(idx, hi, _BINS)
        if not math.isfinite(hi_bins[_ZERO_EXP]):
            specials.append(x[~np.isfinite(x)])
            continue
        top += (hi_bins * 2.0**26).astype(np.int64)
        low += (np.bincount(idx, mant - hi, _BINS) * 2.0**53).astype(np.int64)
    if specials:
        return math.fsum(np.concatenate(specials))
    # bin i holds mantissas of exponent i - 1073 in units of 2^-53: (top 2^27 + low) 2^(i - 1126)
    total = 0
    for i in np.flatnonzero(top | low).tolist():
        total += ((int(top[i]) << 27) + int(low[i])) << i
    return total / (1 << 1126)


def mc_estimate(samples) -> McEstimate:
    """Sample mean with standard error.

    The mean and the sum of squared deviations are exact sums rounded once
    (``exact_sum``): the values' integer mantissas are added per exponent
    with no rounding, so each sum equals ``math.fsum`` of the same values
    bit for bit wherever fsum returns, and the estimate does not depend on
    the order of the input.  The samples and their squared deviations are
    summed in slices of SLICE, so no n-float list or array is held.  The standard error uses the unbiased
    variance estimator, std_error = sqrt(sum((x - mean)^2) / (n - 1)) / sqrt(n).
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError("mc_estimate of an empty sample")
    n = int(xs.size)
    mean = exact_sum(xs[i : i + SLICE] for i in range(0, n, SLICE)) / n
    if n == 1:
        return McEstimate(mean, 0.0)
    var = exact_sum(np.square(xs[i : i + SLICE] - mean) for i in range(0, n, SLICE)) / (n - 1)
    return McEstimate(mean, math.sqrt(var / n))


def binomial_se(p: float, n) -> float:
    """Standard error sqrt(p (1 - p) / n) of a proportion p over n trials.

    The variance is floored at 1e-300, so a proportion of exactly 0 or 1
    still gets a positive standard error.
    """
    return math.sqrt(max(p * (1.0 - p), 1e-300) / n)


def ks_one_sample(samples, cdf: Callable) -> KsReport:
    """Sup-norm distance of the empirical CDF from ``cdf``, with its 5% threshold.

    Threshold 1.36 / sqrt(n); requires n >= 50 so the asymptotic threshold
    is meaningful.  ``cdf`` is called once on the sorted sample and must
    return one value per point.
    """
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    n = int(xs.size)
    if n < 50:
        raise ValueError("one-sample KS needs n >= 50")
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise ValueError(f"cdf returned shape {f.shape} for {xs.shape} points")
    grid = np.arange(1, n + 1) / n
    d = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    thr = KS_COEFF_5PCT / math.sqrt(n)
    return KsReport(d, thr)


def ks_two_sample(a, b) -> KsReport:
    """Two-sample KS statistic with 5% threshold 1.36 sqrt((na+nb)/(na*nb))."""
    xs = np.sort(np.asarray(a, dtype=float).ravel())
    ys = np.sort(np.asarray(b, dtype=float).ravel())
    na, nb = int(xs.size), int(ys.size)
    if na < 50 or nb < 50:
        raise ValueError("two-sample KS needs n >= 50 in each sample")
    both = np.concatenate([xs, ys])
    fa = np.searchsorted(xs, both, side="right") / na
    fb = np.searchsorted(ys, both, side="right") / nb
    d = float(np.max(np.abs(fa - fb)))
    thr = KS_COEFF_5PCT * math.sqrt((na + nb) / (na * nb))
    return KsReport(d, thr)
