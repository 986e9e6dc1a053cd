"""Brownian paths, first-exit engines, and exit-time distribution checks.

Two engines produce exit points from a ball centered at the origin:

* a discretized Euler walk with a half-space Brownian-bridge correction for
  sub-step excursions (the standard remedy for exit-detection bias), and
* an exact-in-distribution sampler, ``wos_from_many``: at m = 2 the Mobius
  image of a uniform point, with no rejection; at m >= 3 the polar angle
  from the start's direction drawn from its zonal law, in closed form at
  m = 3 and by one exact thinning of the m = 3 law at m >= 4, whose cost
  in proposals per point depends on m alone (1.27 at m = 4, 1.5 at m = 5).

Every Euler check runs through one kernel, ``euler_chunk``, which steps a
chunk of paths, many time steps per numpy call, until a level (|x|, or x1
for a half-line) reaches a bound; ``exit_points`` turns its exit steps into
exit times and sphere points.
Every discretized-path check takes a ``PathConfig``, whose ``n_steps`` is
the one step count.  The many-path checks run their chunks of CHUNK paths
through ``run_chunks``, which alone keys chunk i's Philox stream by (seed,
stream_id, i); ``simulate_exit`` draws its one path from the stream (seed,
stream_id) itself.  Results are a function of (seed, stream_id, config)
alone, independent of how chunks are scheduled across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .sphere import uniform_sphere_sample
from .stats import KsReport, McEstimate, binomial_se, ks_two_sample, mc_estimate
from .streams import rng_stream

CHUNK = 8192  # paths per rng stream; fixed so worker count cannot matter


def reflection_prob(t: float, lam: float) -> float:
    """P(sup over [0, t] of a standard 1-d Brownian motion >= lam).

    Equals 2 (1 - Phi(lam / sqrt(t))) = erfc(lam / sqrt(2 t)); erfc keeps full
    relative accuracy at large lam / sqrt(t).
    """
    if not (t > 0.0 and lam > 0.0):
        raise ValueError("reflection_prob needs t > 0 and lam > 0")
    return math.erfc(lam / math.sqrt(2.0 * t))


def tightness_N(r_tilde: float, k: int) -> int:
    """Smallest positive integer N with 2 Phi(r_tilde / sqrt(N)) - 1 < 2^-k.

    Tested as erf(r_tilde / sqrt(2 N)) < 2^-k, which does not cancel at small
    arguments; found by doubling, then bisecting, in O(log N) calls to erf.
    Raises ValueError past N = 2^53, where consecutive N are not told apart.
    Nondecreasing in k; bounds P(exit time > t) <= 2^(1-k) for t > N.
    """
    if not r_tilde > 0.0:
        raise ValueError("r_tilde must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    target = 2.0 ** (-k)

    def ok(n: int) -> bool:
        return math.erf(r_tilde / math.sqrt(2.0 * n)) < target

    lo, hi = 0, 1  # N lies in (lo, hi] from the first ok(hi) on
    while not ok(hi):
        if hi >= 2**53:
            raise ValueError(f"tightness_N(r_tilde={r_tilde}, k={k}) exceeds 2^53")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


@dataclass(frozen=True)
class PathConfig:
    """Discretized-path settings; (seed, stream_id) key the random stream."""

    m: int
    dt: float
    horizon: float
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("dimension must be >= 1")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.dt <= self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and >= dt, got {self.horizon}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.dt))


def run_chunks(cfg: PathConfig, n_paths: int, fn, workers: int = 1) -> tuple:
    """``fn(rng, c)`` for every chunk of c <= CHUNK paths, chunk i drawing from
    stream (cfg.seed, cfg.stream_id, i); ``fn`` returns a tuple of arrays, and
    each position is concatenated over the chunks in chunk order."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")

    def run(i: int):
        return fn(rng_stream(cfg.seed, cfg.stream_id, i), min(CHUNK, n_paths - i * CHUNK))

    chunks = range((n_paths + CHUNK - 1) // CHUNK)
    if workers <= 1:
        parts = [run(i) for i in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, chunks))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _radius(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _first_coordinate(x: np.ndarray) -> np.ndarray:
    return x[..., 0]


@dataclass(frozen=True)
class ChunkExits:
    """Per path: the clock before its exit step, the positions on either side
    of that step, whether the step ended outside (otherwise the bridge fired),
    and whether the horizon censored it.  A censored path carries the elapsed
    time and its last position on both sides."""

    t0: np.ndarray
    before: np.ndarray
    after: np.ndarray
    outside: np.ndarray
    censored: np.ndarray


MAX_BLOCK = 1024  # time steps per block
BLOCK_CELLS = 2**15  # steps x live paths x m per block: caps a block's memory
ROW_ADD_BLOCK = 64  # blocks up to this many steps sum their rows in a loop
BRIDGE_CUTOFF = 20.0  # d0 d1 / dt above this: bridge probability below e^-40


def euler_chunk(rng, x0, c: int, dt: float, n_steps: int, bound: float,
                level=_radius, bridge: bool = True, observe=None) -> ChunkExits:
    """Step c paths from x0 until ``level(x) >= bound``, for at most n_steps steps.

    x0 is one start of shape (m,) that every path shares, or one start per
    path, of shape (c, m).  Live paths advance in blocks of k = min(steps left, MAX_BLOCK,
    BLOCK_CELLS // (live m)) steps: one (k, live, m) Gaussian block is summed
    from the current positions, and a path exits at its first step that ends
    at or above the bound.  k depends on the live count alone, so the draws
    are a function of the stream; normals are drawn for whole blocks, past a
    path's exit too.  With ``bridge`` a step that stays below also exits
    with probability exp(-2 d0 d1 / dt), d0 and d1 the distances below the
    bound before and after it (the half-space bridge correction); a uniform
    is drawn, after the block's normals, only for steps before a path's
    first crossing with d0 d1 <= BRIDGE_CUTOFF dt, as elsewhere that
    probability is below e^-40.

    ``observe(rows, xs, levels, t, valid)`` sees each block: the chunk rows
    live at its start, positions xs[k, n, m] and levels[k, n] after each
    step, the clock t at its start (step i ends at t + (i+1) dt), and
    valid[k, n], true for the steps before each path's exit step.
    """
    x0 = np.asarray(x0, dtype=float)
    m = x0.shape[-1]
    x = np.array(np.broadcast_to(x0, (c, m)))
    lv = level(x)
    if np.any(lv >= bound):
        raise ValueError("start must lie in the open ball")
    sq = math.sqrt(dt)
    live = np.arange(c)
    t0 = np.empty(c)
    before = np.empty((c, m))
    after = np.empty((c, m))
    outside = np.zeros(c, dtype=bool)
    cutoff = BRIDGE_CUTOFF * dt if bridge else 0.0
    t = 0.0  # every live path shares one clock
    left = n_steps
    while live.size and left:
        n = live.size
        k = min(left, MAX_BLOCK, max(1, BLOCK_CELLS // (n * m)))
        xs = rng.standard_normal((k, n, m))
        xs *= sq
        xs[0] += x
        if k <= ROW_ADD_BLOCK:  # cumsum over a short first axis is slow in numpy
            for s in range(1, k):
                xs[s] += xs[s - 1]
        else:
            np.cumsum(xs, axis=0, out=xs)
        ls = level(xs)
        d1 = bound - ls
        d0d1 = np.concatenate([(bound - lv)[None], d1[:-1]]) * d1
        # d0 d1 <= 0 at every step that first ends outside, so one scan finds
        # the grid crossings and the steps near enough for the bridge
        i, col = np.nonzero(d0d1 <= cutoff)
        hard = d1[i, col] <= 0.0
        j = np.full(n, k)  # each path's exit step in the block, k if none
        np.minimum.at(j, col[hard], i[hard])
        if bridge:
            near = ~hard & (i < j[col])
            i, col = i[near], col[near]
            fire = rng.random(i.size) < np.exp(-2.0 * d0d1[i, col] / dt)
            np.minimum.at(j, col[fire], i[fire])
        if observe is not None:
            observe(live, xs, ls, t, np.arange(k)[:, None] < j)
        keep = j == k
        e = np.flatnonzero(~keep)
        je, rows = j[e], live[e]
        t0[rows] = t + je * dt
        before[rows] = np.where((je > 0)[:, None], xs[je - 1, e], x[e])
        after[rows] = xs[je, e]
        outside[rows] = d1[je, e] <= 0.0
        # a boolean row mask with a trailing axis copies element by element;
        # gathering the surviving rows by position copies each row whole
        kept = np.flatnonzero(keep)
        live, x, lv = live[kept], xs[-1].take(kept, axis=0), ls[-1].take(kept)
        t += k * dt
        left -= k
    censored = np.zeros(c, dtype=bool)
    censored[live] = True
    t0[live] = t
    before[live] = x
    after[live] = x
    return ChunkExits(t0, before, after, outside, censored)


def exit_points(ex: ChunkExits, r: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exit times and exit points on |x| = r for a chunk's exit steps.

    A step a -> a + d that ended outside exits at the root s in [0, 1] of
    |a + s d| = r, in the form of the quadratic formula that does not cancel
    for the sign of a.d; a bridge exit happens at mid-step, at the step's
    midpoint projected radially to the sphere.  Censored rows keep their
    elapsed time and get NaN points.
    """
    tau = ex.t0.copy()
    pts = np.full(ex.before.shape, np.nan)

    def project(p):
        return p * (r / np.linalg.norm(p, axis=-1, keepdims=True))

    hard = ex.outside
    if np.any(hard):
        a = ex.before[hard]
        d = ex.after[hard] - a
        b = np.einsum("ij,ij->i", a, d)
        dd = np.einsum("ij,ij->i", d, d)
        c = r * r - np.einsum("ij,ij->i", a, a)
        root = np.sqrt(b * b + dd * c)  # > |b|, and dd > 0: neither form divides by 0
        s = np.where(b >= 0.0, c / (b + root), (root - b) / dd)
        tau[hard] = ex.t0[hard] + s * dt
        pts[hard] = project(a + s[:, None] * d)
    soft = ~hard & ~ex.censored
    if np.any(soft):
        tau[soft] = ex.t0[soft] + 0.5 * dt
        pts[soft] = project(0.5 * (ex.before[soft] + ex.after[soft]))
    return tau, pts


def simulate_exit(cfg: PathConfig, r: float) -> tuple[float, np.ndarray]:
    """One discretized path from the origin until it leaves D(0, r); returns (tau, trace).

    The trace rows are (t, x_1 .. x_m) from the start to the exit point, or to
    the censoring point, where tau is NaN as in ``exit_points_batch``'s
    points.  The path is one row of ``euler_chunk`` drawn from the stream
    (seed, stream_id), not through ``run_chunks``, with the exit placed by
    ``exit_points``.
    """
    x0 = np.zeros(cfg.m)
    rows = [np.zeros((1, cfg.m + 1))]

    def trace(_rows, xs, _levels, t, valid):
        k = int(valid[:, 0].sum())
        rows.append(np.column_stack([t + cfg.dt * np.arange(1, k + 1), xs[:k, 0]]))

    ex = euler_chunk(rng_stream(cfg.seed, cfg.stream_id), x0, 1, cfg.dt, cfg.n_steps, r, observe=trace)
    if ex.censored[0]:
        return math.nan, np.concatenate(rows)
    tau, pts = exit_points(ex, r, cfg.dt)
    rows.append(np.concatenate([tau[:1], pts[0]])[None])
    return float(tau[0]), np.concatenate(rows)


def exit_points_batch(cfg: PathConfig, x0, r: float, n_paths: int, workers: int = 1):
    """Vectorized discretized exits for many paths.

    Returns (taus, points, censored): censored paths carry the elapsed time
    in ``taus`` and NaN rows in ``points``.  ``run_chunks`` draws chunk i
    from stream (seed, stream_id, i); output is byte-identical for any
    ``workers``.  Raises ValueError unless x0 has cfg.m coordinates.
    """
    if np.shape(x0) != (cfg.m,):
        raise ValueError(f"x0 must have cfg.m = {cfg.m} coordinates, got shape {np.shape(x0)}")

    def run(rng, c: int):
        ex = euler_chunk(rng, x0, c, cfg.dt, cfg.n_steps, r)
        return (*exit_points(ex, r, cfg.dt), ex.censored)

    return run_chunks(cfg, n_paths, run, workers)


def wos_exit_points(rng: np.random.Generator, x, r: float, n: int) -> np.ndarray:
    """Exact-in-distribution exit points of D(0, r) for n paths from x (rows)."""
    return wos_from_many(rng, np.tile(np.asarray(x, dtype=float), (n, 1)), r)


def wos_from_many(rng: np.random.Generator, xs: np.ndarray, r: float) -> np.ndarray:
    """Exact-in-distribution exit points of D(0, r), one path from each row of xs.

    In units of r, a row starts at x = s xh (|xh| = 1, delta = 1 - s).  At
    m = 2, and at s = 0 in every dimension, the Mobius map
    z = ((1 - s^2)(w + x) + |w + x|^2 x) / |w + x|^2 sends a uniform w to the
    exit law itself, so such a row takes one uniform point and nothing else;
    |w + x|^2 is evaluated as delta^2 + s |w + xh|^2.

    Otherwise the exit law is zonal about xh: z = (1 - 2h) xh + 2 sqrt(h (1 - h)) v,
    v uniform on the unit sphere orthogonal to xh (w with its xh component
    removed, normalised), and h = sin^2(phi / 2), phi the angle from xh, has
    density proportional to (4h (1 - h))^((m-3)/2) / (delta^2 + 4 s h)^(m/2).
    * m = 3: P(H <= h) = (1 + s) / (2s) (1 - delta / sqrt(delta^2 + 4 s h)).
      Set to V = 1 - U in (0, 1] it inverts to h = delta^2 V (2 - y) /
      (2 (1 + s) (1 - y)^2), y = 2 s V / (1 + s): no division by s and no
      cancellation near xh.  h is clipped at 1, which rounding passes near
      the antipode V = 1.
    * m >= 4: the density is the m = 3 one times a multiple of g^((m-3)/2),
      g = 4h (1 - h) / (delta^2 + 4 s h), and g <= 1 because the difference
      of the two sides is (delta - 2h)^2 >= 0.  Accepting an m = 3 draw with
      probability g^((m-3)/2) is exact, at 2 Gamma(m/2) / (sqrt(pi)
      Gamma((m-1)/2)) proposals per point whatever s is.

    Off-centre rows at m >= 3 run in rounds: each round draws, for every
    pending row, one sphere point w, then one uniform U, then at m >= 4 one
    accept uniform; a row keeps its first accepted draw.  A row stays
    pending with probability 1 - 1/c per round, c the proposals per point,
    so after ``thinning_rounds(m)`` rounds, 29 at m = 4 and 41 at m = 5, it
    is pending with probability at most 2^-64; rows still pending then
    raise RuntimeError, naming them, rather than return a biased point.
    """
    xs = np.asarray(xs, dtype=float)
    n, m = xs.shape
    xb = xs / r
    s = _radius(xb)
    if not np.all(s < 1.0):
        raise ValueError("all starts must lie in the open ball")
    delta = 1.0 - s
    xh = np.divide(xb, s[:, None], out=np.zeros_like(xb), where=s[:, None] > 0.0)
    xh[s == 0.0, 0] = 1.0  # any axis will do for a centred start
    out = np.empty((n, m))
    polar = (s > 0.0) & (m > 2)
    plain = np.flatnonzero(~polar)
    if plain.size:
        w = uniform_sphere_sample(rng, m, size=plain.size)
        d, e = delta[plain, None], xh[plain]
        a = (1.0 - d) * e  # the start x
        wa2 = d * d + (1.0 - d) * np.einsum("ij,ij->i", w + e, w + e)[:, None]  # |w + x|^2
        out[plain] = (d * (2.0 - d) * (w + a) + wa2 * a) / wa2
    pending = np.flatnonzero(polar)
    cap = thinning_rounds(m)
    for _ in range(cap):
        if not pending.size:
            break
        p = pending.size
        w = uniform_sphere_sample(rng, m, size=p)
        v = 1.0 - rng.random(p)
        sp, d = s[pending], delta[pending]
        y = 2.0 * sp * v / (1.0 + sp)
        h = np.minimum(d * d * v * (2.0 - y) / (2.0 * (1.0 + sp) * (1.0 - y) ** 2), 1.0)
        ok = np.ones(p, dtype=bool) if m == 3 else (
            rng.random(p) < (4.0 * h * (1.0 - h) / (d * d + 4.0 * sp * h)) ** ((m - 3) / 2.0))
        hit, e = pending[ok], xh[pending[ok]]
        w, h = w[ok], h[ok, None]
        w -= np.einsum("ij,ij->i", w, e)[:, None] * e
        w /= _radius(w)[:, None]
        out[hit] = (1.0 - 2.0 * h) * e + 2.0 * np.sqrt(h * (1.0 - h)) * w
        pending = pending[~ok]
    if pending.size:
        raise RuntimeError(f"wos_from_many: rows {pending[:8].tolist()} ({pending.size} in all) "
                           f"still pending after {cap} thinning rounds")
    return r * out


def thinning_rounds(m: int) -> int:
    """The cap R = ceil(-64 ln 2 / ln(1 - 1/c)) on ``wos_from_many``'s rounds at
    dimension m, c = 2 Gamma(m/2) / (sqrt(pi) Gamma((m-1)/2)) its proposals per
    point: a row outlives R rounds with probability (1 - 1/c)^R <= 2^-64.
    Every draw is accepted at m <= 3, so R = 1 there."""
    if m <= 3:
        return 1
    c = 2.0 * math.exp(math.lgamma(m / 2.0) - math.lgamma((m - 1) / 2.0)) / math.sqrt(math.pi)
    return math.ceil(-64.0 * math.log(2.0) / math.log(1.0 - 1.0 / c))


def reflection_crossing_mc(cfg: PathConfig, lam: float, n_paths: int, workers: int = 1) -> McEstimate:
    """Monte Carlo P(sup over [0, t] of a 1-d Brownian path >= lam), t = cfg.horizon.

    Euler steps of x1 from the origin of R^cfg.m (m = 1 suffices) up to the
    level lam, with the half-space bridge correction for sub-step crossings,
    over cfg.n_steps steps: the empirical counterpart of ``reflection_prob``.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")

    def run(rng, c: int):
        ex = euler_chunk(rng, np.zeros(cfg.m), c, cfg.dt, cfg.n_steps, lam, level=_first_coordinate)
        return (~ex.censored,)

    (hit,) = run_chunks(cfg, n_paths, run, workers)
    p = float(np.mean(hit))
    return McEstimate(p, binomial_se(p, n_paths))


@dataclass(frozen=True)
class ScalingReport:
    ks: KsReport
    mean_scaled: float
    mean_unit_scaled: float
    mean_se: float
    censored: int


def scaling_check(cfg: PathConfig, r: float, n_paths: int, workers: int = 1) -> ScalingReport:
    """Exit times from radius sqrt(r) against r times exit times from radius 1.

    Both start at the origin of R^cfg.m; the first sample draws from stream
    cfg.stream_id and the second from cfg.stream_id + 1.  Time scaling says
    the two laws are equal; the report carries the two-sample KS verdict and
    the two means.
    """
    if not r > 0.0:
        raise ValueError("r must be positive")
    x0 = np.zeros(cfg.m)
    tau_a, _, cen_a = exit_points_batch(cfg, x0, math.sqrt(r), n_paths, workers)
    tau_b, _, cen_b = exit_points_batch(replace(cfg, stream_id=cfg.stream_id + 1), x0, 1.0, n_paths, workers)
    a = tau_a[~cen_a]
    b = r * tau_b[~cen_b]
    ks = ks_two_sample(a, b)
    ea, eb = mc_estimate(a), mc_estimate(b)
    se = math.hypot(ea.std_error, eb.std_error)
    return ScalingReport(ks, ea.mean, eb.mean, se, int(cen_a.sum() + cen_b.sum()))


@dataclass(frozen=True)
class ContinuityReport:
    exceedance: float
    exceedance_se: float
    bound: float
    gap_bound: float
    min_diff: float


def exit_continuity_check(
    cfg: PathConfig, r1: float, r2: float, kappa: int, n_paths: int, workers: int = 1
) -> ContinuityReport:
    """Coupled exits from the nested balls D(0, r1) and D(0, r2), paths from
    the origin stepped under ``cfg`` for at most cfg.n_steps steps.

    Preconditions (checked, named on failure): 0 <= r2 - r1 < 2^(-kappa-1)
    and erf((r2 - r1) / sqrt(2^-kappa)) = 2 Phi((r2 - r1) / sqrt(2^(-kappa-1)))
    - 1 < 2^(-kappa-1).  The report compares the empirical P(tau2 - tau1 >
    2^(-kappa+4)) with the bound 2^(-kappa+1).  Both crossings are grid times
    read off the same Euler path (no bridge correction), so the coupling is
    exact and tau2 >= tau1 pathwise by construction.  When the horizon
    censors every path there is no evidence: exceedance 1.0, above every
    bound, and min_diff NaN.
    """
    if not r1 > 0.0:
        raise ValueError("r1 must be positive: the origin must lie inside the inner ball")
    gap = r2 - r1
    half = 2.0 ** (-kappa - 1)
    if not 0.0 <= gap < half:
        raise ValueError(f"precondition failed: r2 - r1 = {gap} not in [0, 2^-(kappa+1)) = [0, {half})")
    stat = math.erf(gap / math.sqrt(2.0 * half))
    if not stat < half:
        raise ValueError(f"precondition failed: erf((r2-r1)/sqrt(2^-kappa)) = {stat:.6f} >= {half}")
    exceed_thr = 2.0 ** (-kappa + 4)

    def run(rng, c: int):
        tau1 = np.full(c, np.nan)

        def first_past_r1(rows, _xs, levels, t, valid):
            past = valid & (levels >= r1)
            first = np.flatnonzero(np.isnan(tau1[rows]) & past.any(axis=0))
            tau1[rows[first]] = t + (past.take(first, axis=1).argmax(axis=0) + 1) * cfg.dt

        ex = euler_chunk(rng, np.zeros(cfg.m), c, cfg.dt, cfg.n_steps, r2, bridge=False, observe=first_past_r1)
        done = ~ex.censored
        tau2 = ex.t0[done] + cfg.dt
        # a path that passes r1 on its exit step has tau1 = tau2
        return (tau2 - np.where(np.isnan(tau1[done]), tau2, tau1[done]),)

    (diffs,) = run_chunks(cfg, n_paths, run, workers)
    bound = 2.0 ** (-kappa + 1)
    if not diffs.size:  # every path censored: no evidence, so the check fails
        return ContinuityReport(1.0, 0.0, bound, exceed_thr, math.nan)
    p = int(np.sum(diffs > exceed_thr)) / diffs.size
    se = binomial_se(p, diffs.size)
    return ContinuityReport(p, se, bound, exceed_thr, float(np.min(diffs)))
