"""Monte Carlo estimates and Kolmogorov-Smirnov statistics.

Every statistical acceptance test in this package runs through these two
primitives at fixed 5% asymptotic thresholds and sample sizes where the
asymptotics are safe; a KS report carries its statistic and threshold, and
the caller compares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

KS_COEFF_5PCT = 1.36


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


@dataclass(frozen=True)
class KsReport:
    statistic: float
    threshold: float


def mc_estimate(samples) -> McEstimate:
    """Sample mean with standard error.

    The mean uses exactly-rounded summation (math.fsum), so it is bit-exact
    under any permutation of the input.  The standard error uses the unbiased
    variance estimator, std_error = sqrt(sum((x - mean)^2) / (n - 1)) / sqrt(n).
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError("mc_estimate of an empty sample")
    n = int(xs.size)
    mean = math.fsum(memoryview(xs)) / n
    if n == 1:
        return McEstimate(mean, 0.0)
    # squared deviations in slices of 2^16, so no n-float list or array is held
    blocks = (memoryview(np.square(xs[i : i + 2**16] - mean)) for i in range(0, n, 2**16))
    var = math.fsum(chain.from_iterable(blocks)) / (n - 1)
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
