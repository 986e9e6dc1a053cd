"""Per-layer spans and counts for ballwalk, recorded from outside the program.

``Tracer.install()`` replaces each public function named in ``TARGETS`` with
a wrapper, in every ``ballwalk`` module that binds it: ``cli``,
``hardy_limit`` and ``martingale`` take their names with ``from .x import y``,
so patching only the defining module would miss their calls.  Calls inside
closures such as ``run_chunk`` are seen when they go through a patched
module-level name; private helpers such as ``_crossing_fraction`` are not
wrapped.

A span is one call of a wrapped function.  Its self time is its duration
minus the time in wrapped children on the same thread: spans opened in
pool threads have no parent there.  Counts are made at the same boundaries
from arguments and results (path steps from exit times, rows from sizes), so
they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _enclosing(stack, prefix):
    for frame in reversed(stack[:-1]):
        if frame.name.startswith(prefix):
            return frame
    return None


def _exit_steps(tr, frame, args, kwargs, result):
    # A path that exits during step k has tau in ((k-1) dt, k dt]; a censored
    # path carries its elapsed time, a whole number of steps.
    taus = result[0]
    dt = _arg(args, kwargs, 0, "cfg").dt
    frame.add("path_steps", float(np.sum(np.ceil(taus / dt - 1e-6))))
    frame.add("paths", taus.size)


def _paths(index, name):
    def count(tr, frame, args, kwargs, result):
        frame.add("paths", _arg(args, kwargs, index, name))

    return count


def _sphere_rows(tr, frame, args, kwargs, result):
    size = kwargs.get("size", args[4] if len(args) > 4 else None)
    rows = 1 if size is None else int(size)
    frame.add("rows", rows)
    sampler = _enclosing(tr.stack(), "brownian.wos_")
    if sampler is not None:
        sampler.add("proposals", rows)
        sampler.add("rounds", 1)


def _wos_points(tr, frame, args, kwargs, result):
    # Starts at the centre take one uniform draw each, in one extra call;
    # the rejection figures count only the off-centre starts.
    starts = np.atleast_2d(args[1])
    r = args[2]
    m = starts.shape[1]
    central = int(np.sum(np.linalg.norm(starts, axis=1) / r < 1e-12))
    if starts.shape[0] == 1:
        central *= result.shape[0]
    frame.add(f"m{m}.points", result.shape[0] - central)
    frame.add(f"m{m}.proposals", frame.counts.pop("proposals", 0) - central)
    frame.add(f"m{m}.rounds", frame.counts.pop("rounds", 0) - (central > 0))


def _eval_points(tr, frame, args, kwargs, result):
    frame.add("points", len(args[1]))


def _quad_rule(tr, frame, args, kwargs, result):
    tr.add_rule(args[0])
    owner = _enclosing(tr.stack(), "harmonic.hardy_integrals")
    if owner is not None:
        owner.add("nodes", len(result[0]))


def _mc_samples(tr, frame, args, kwargs, result):
    frame.add("samples", np.size(args[0]))


def _limit(tr, frame, args, kwargs, result):
    from ballwalk.brownian import CHUNK

    n = _arg(args, kwargs, 3, "n_paths")
    chunks = [min(CHUNK, n - lo) for lo in range(0, n, CHUNK)]
    loads = [0, 0]  # two workers take chunks in submission order
    for c in chunks:
        loads[loads.index(min(loads))] += c
    frame.add("paths", n)
    frame.add("censored", result.n_censored)
    frame.add("makespan_paths", max(loads))


def _stream_key(tr, frame, args, kwargs, result):
    tr.add_stream(tuple(int(a) for a in args))


def _csv_bytes(tr, frame, args, kwargs, result):
    frame.add("bytes", Path(args[0]).stat().st_size)


# (module, function, count hook, measure process CPU time)
TARGETS = [
    ("brownian", "exit_points_batch", _exit_steps, False),
    ("brownian", "reflection_crossing_mc", _paths(3, "n_paths"), False),
    ("brownian", "exit_continuity_check", _paths(5, "n_paths"), False),
    ("brownian", "simulate_exit", None, False),
    ("brownian", "scaling_check", None, False),
    ("brownian", "wos_exit_points", _wos_points, False),
    ("brownian", "wos_from_many", _wos_points, False),
    ("hardy_limit", "limit_experiment", _limit, True),
    ("hardy_limit", "radius_schedule", None, False),
    ("sphere", "eval_on_points", _eval_points, False),
    ("sphere", "uniform_sphere_sample", _sphere_rows, False),
    ("sphere", "quad_nodes", _quad_rule, False),
    ("sphere", "mc_surface_area", None, False),
    ("harmonic", "hardy_integrals", None, False),
    ("harmonic", "estimate_rates", None, False),
    ("martingale", "sample_Y_skeleton", None, False),
    ("martingale", "monotonicity_report", None, False),
    ("martingale", "maximal_inequality_check", None, False),
    ("stats", "mc_estimate", _mc_samples, False),
    ("stats", "ks_one_sample", None, False),
    ("stats", "ks_two_sample", None, False),
    ("streams", "rng_stream", _stream_key, False),
    ("cli", "write_csv", _csv_bytes, False),
    ("cli", "write_suite", None, False),
]


class _Frame:
    __slots__ = ("name", "child_s", "counts")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Spans and counts, kept in memory and written once at the end."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals = defaultdict(lambda: defaultdict(float))
        self.rules = set()
        self.stream_steps = defaultdict(set)
        self.steps = {}
        self.step = None
        self.spans = 0
        self.hook_s = 0.0

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_rule(self, quad):
        with self._lock:
            self.rules.add(quad)

    def add_stream(self, key):
        with self._lock:
            self.stream_steps[key].add(self.step)

    def begin_step(self, name):
        self.step = name

    def end_step(self, label, seconds):
        self.steps[label] = seconds
        self.step = None

    def wrap(self, name, fn, hook=None, cpu=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack()
            frame = _Frame(name)
            stack.append(frame)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                seconds = time.perf_counter() - t0
                h0 = time.perf_counter()
                if hook is not None:
                    hook(self, frame, args, kwargs, result)
                hook_s = time.perf_counter() - h0
            finally:
                stack.pop()
            if stack:
                stack[-1].child_s += seconds
            with self._lock:
                agg = self.totals[name]
                agg["calls"] += 1
                agg["total_s"] += seconds
                agg["self_s"] += seconds - frame.child_s
                if cpu:
                    agg["cpu_s"] += time.process_time() - c0
                for key, value in frame.counts.items():
                    agg[key] += value
                self.spans += 1
                self.hook_s += hook_s
            return result

        return wrapper

    def install(self):
        """Wrap every target in every ballwalk module that binds it."""
        import ballwalk  # noqa: F401  (imports every module of the package)

        modules = [m for n, m in list(sys.modules.items()) if n == "ballwalk" or n.startswith("ballwalk.")]
        for mod, fname, hook, cpu in TARGETS:
            original = getattr(sys.modules[f"ballwalk.{mod}"], fname)
            wrapper = self.wrap(f"{mod}.{fname}", original, hook, cpu)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _span_cost(self, n=20000) -> float:
        """Seconds one wrapper adds to a call, measured on a no-op."""
        probe = Tracer()

        def noop():
            return None

        wrapped = probe.wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        return max(time.perf_counter() - t0 - bare, 0.0) / n

    def metrics(self) -> dict:
        """Per-layer figures by name: ``{name: [value, unit]}``."""
        t = self.totals
        out = {}

        def put(name, value, unit):
            out[name] = [float(value), unit]

        def per(a, b):
            return a / b if b > 0 else 0.0

        for mod, fname, _, _ in TARGETS:
            put(f"{mod}.{fname}.calls", t[f"{mod}.{fname}"]["calls"], "count")
            put(f"{mod}.{fname}.self_s", t[f"{mod}.{fname}"]["self_s"], "s")
        b = "brownian."
        put(b + "exit_points_batch.path_steps", t[b + "exit_points_batch"]["path_steps"], "count")
        put(b + "exit_points_batch.path_steps_per_s",
            per(t[b + "exit_points_batch"]["path_steps"], t[b + "exit_points_batch"]["self_s"]), "1/s")
        for fn in ("reflection_crossing_mc", "exit_continuity_check"):
            put(f"{b}{fn}.paths_per_s", per(t[b + fn]["paths"], t[b + fn]["self_s"]), "1/s")
        for fn in ("wos_from_many", "wos_exit_points"):
            agg = t[b + fn]
            dims = sorted({k.split(".")[0] for k in agg if k[0] == "m" and "." in k})
            for label, group in [("", dims), *((d + ".", [d]) for d in dims)]:
                total = {q: sum(agg[f"{d}.{q}"] for d in group) for q in ("points", "proposals", "rounds")}
                put(f"{b}{fn}.{label}points", total["points"], "count")
                put(f"{b}{fn}.{label}proposals_per_point", per(total["proposals"], total["points"]), "ratio")
                put(f"{b}{fn}.{label}rounds", total["rounds"], "count")
        lim = t["hardy_limit.limit_experiment"]
        put("hardy_limit.limit_experiment.total_s", lim["total_s"], "s")
        put("hardy_limit.limit_experiment.paths", lim["paths"], "count")
        put("hardy_limit.limit_experiment.censored", lim["censored"], "count")
        put("hardy_limit.limit_experiment.cpu_per_wall", per(lim["cpu_s"], lim["total_s"]), "ratio")
        put("hardy_limit.limit_experiment.chunk_balance", per(lim["paths"], lim["makespan_paths"]), "ratio")
        put("sphere.eval_on_points.points", t["sphere.eval_on_points"]["points"], "count")
        put("sphere.uniform_sphere_sample.rows", t["sphere.uniform_sphere_sample"]["rows"], "count")
        put("sphere.quad_nodes.distinct_rules", len(self.rules), "count")
        hi = t["harmonic.hardy_integrals"]
        put("harmonic.hardy_integrals.nodes_per_s", per(hi["nodes"], hi["total_s"]), "1/s")
        put("stats.mc_estimate.samples", t["stats.mc_estimate"]["samples"], "count")
        shared = sum(1 for steps in self.stream_steps.values() if len(steps) > 1)
        put("streams.rng_stream.shared_keys", shared, "count")
        put("cli.write_csv.bytes", t["cli.write_csv"]["bytes"], "bytes")
        for label, seconds in self.steps.items():
            put(f"{label}.wall_s", seconds, "s")
        put("trace.spans", self.spans, "count")
        put("trace.overhead_s", self.spans * self._span_cost() + self.hook_s, "s")
        return out

    def write(self, path: Path):
        path.write_text(json.dumps(self.metrics(), indent=1, sort_keys=True) + "\n")
