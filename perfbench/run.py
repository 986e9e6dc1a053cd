"""Benchmark for ballwalk: time to a checked verdict on three workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a ballwalk checkout; it needs nothing built.  Each
workload repetition is one child process (``child.py``) that runs CLI suites
and library steps in sequence at the suite seed ``--seed`` (default the
pinned 20260809).  The parent times the child from launch to exit and reads
its CPU time and peak RSS from ``os.wait4``; set-up is launch until
``ballwalk.cli`` is imported, sampled by extra import-only children too.
Repetitions, each at its own suite seed, run until the next one would end
more than half of itself past ``--seconds``, and each metric is the median
over them.

Every step's outputs are checked (``check_step``) and hashed.  A step fails
when it exits other than 0/1, writes no CSV or verdict JSON, reports a
verdict that does not hold, or writes outputs that differ from the first
run of the same program source, workload definition and seed; digests
persist across runs in ``.perfbench/digests.json``.

``--trace 1`` runs one traced repetition (``spans.py``) and prints the
per-layer figures; a workload with a multi-worker step is rerun traced at
``--workers 1``, which must give the same outputs, and the ratio of the two
``limit_experiment`` times is the pool's measured speed-up.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
carries the run's metadata, the per-step failures and, when traced, every
per-layer figure.  Both are also kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import WORKLOADS, Z_1E4

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
DEFAULT_SEED = 20260809
SETUP_SAMPLES = 3
CHILD_LIMIT_S = 150.0
# Repetition i runs at suite seed seed + i * REP_SEED_STRIDE (0 for the first).
# The exit-time and rejection tails make a repetition's cost vary with the
# seed, so a run's median over independent seeds is steadier than repeats of
# one; determinism is checked against earlier runs at the same suite seed.
REP_SEED_STRIDE = 1_000_003

# The suites run here at cut path counts, where the program's own 5%-level KS
# verdicts and the reflection suite's fixed 0.005 tolerance fail on some seeds
# from sampling noise alone.  Such a failed verdict is judged again from the
# same statistic at the 1e-4 level; every other verdict must hold as written.
KS_5PCT = 1.36
KS_1E4 = 2.226  # sqrt(-ln(1e-4 / 2) / 2)
THREE_SE_CLAIMS = ("within 3 combined standard errors", "equals the harmonic extension value")


def verdict_holds(v: dict, step: str, csv_path: Path) -> bool:
    if v["pass"]:
        return True
    claim, est, target, tol = v["claim"], v["estimate"], v["target"], v["tolerance"]
    if None in (est, target, tol):
        return False
    if "(KS at 5%)" in claim:
        return est < tol * KS_1E4 / KS_5PCT
    if any(c in claim for c in THREE_SE_CLAIMS):
        return abs(est - target) <= tol * Z_1E4 / 3.0
    if step == "reflection":
        lines = csv_path.read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        return abs(est - target) <= Z_1E4 * float(row["std_error"])
    return False


def check_step(out: Path, step: str, code) -> list[str]:
    """Problems with one step's outputs; empty when the step is correct."""
    if code not in (0, 1):
        return [f"exit code {code}"]
    csv_path, json_path = out / f"{step}.csv", out / f"{step}.json"
    if not (csv_path.is_file() and json_path.is_file()):
        return ["no CSV or verdict JSON"]
    try:
        data = json.loads(json_path.read_text())
        verdicts = data["verdicts"]
        passed = data["pass"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verdict JSON: {exc!r}"]
    problems = []
    if not verdicts or passed != all(v["pass"] for v in verdicts):
        problems.append("verdict JSON is inconsistent")
    if code != (0 if passed else 1):
        problems.append(f"exit code {code} disagrees with pass={passed}")
    problems += [f"verdict fails: {v['claim']}" for v in verdicts if not verdict_holds(v, step, csv_path)]
    return problems


def step_digest(out: Path, step: str) -> str:
    """Hash of a step's CSVs and verdict JSON, the latter without its worker count."""
    h = hashlib.sha256()
    for path in sorted(out.glob(f"{step}*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    data = json.loads((out / f"{step}.json").read_text())
    data.get("config", {}).pop("workers", None)
    h.update(json.dumps(data, sort_keys=True).encode())
    return h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ballwalk").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Digests:
    """First-seen output digests per (program source, workload definition,
    workload, seed, step), kept on disk."""

    def __init__(self, source: str, workload: str):
        self.path = WORK / "digests.json"
        steps = hashlib.sha256(CHILD.read_bytes()).hexdigest()[:16]
        self.prefix = f"{source}:{steps}:{workload}:"
        self.all = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def matches(self, seed: int, step: str, digest: str) -> bool:
        seen = self.all.setdefault(f"{self.prefix}{seed}", {})
        return seen.setdefault(step, digest) == digest

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        tmp.replace(self.path)


def _kill(pidfd: int):
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(out: Path, *args: str) -> dict:
    """Run child.py once; wall, CPU and peak RSS of that process alone."""
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(out / "_stdout.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), "--out", str(out), *args],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        # A pidfd keeps naming this child after it is reaped, so a late
        # kill cannot reach a process that reused its pid.
        pidfd = os.pidfd_open(proc.pid)
        killer = threading.Timer(CHILD_LIMIT_S, _kill, (pidfd,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
            os.close(pidfd)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record_path = out / "_child.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else None
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "setup_s": record["setup_done"] - t0 if record else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "steps": record["steps"] if record else {},
    }


def judge(run: dict, out: Path, workload: str, seed: int, digests: Digests) -> list[str]:
    """One line per failed step of a repetition."""
    failures = []
    for _, step, _, _ in WORKLOADS[workload]:
        if run["exit"] != 0:
            log = (out / "_stdout.log").read_text(errors="replace").strip().splitlines()
            failures.append(f"{step}: child exited with {run['exit']}: {log[-1] if log else ''}")
            continue
        problems = check_step(out, step, run["steps"].get(step, {}).get("code"))
        if not problems and not digests.matches(seed, step, step_digest(out, step)):
            problems = ["outputs differ from the first run of this source and seed"]
        if problems:
            failures.append(f"{step}: {'; '.join(problems)}")
    return failures


def metadata(source: str) -> dict:
    meta = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "git_commit": None,
        "source_digest": source,
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        found = re.search(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.M)
        meta["cpu_model"] = found.group(1) if found else None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.is_file():
                ref = ref_path.read_text().strip()
            elif packed.is_file():
                found = re.search(rf"^(\w+) {re.escape(ref[5:])}$", packed.read_text(), re.M)
                ref = found.group(1) if found else None
        meta["git_commit"] = ref
    meta.update(library_versions())
    return meta


def library_versions() -> dict:
    """numpy, scipy and OpenBLAS versions and the BLAS thread count."""
    import numpy
    import scipy

    info = {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": None, "blas_threads": None}
    maps = Path("/proc/self/maps")
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text()))) if maps.is_file() else []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads and get_config:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["blas_threads"] = get_threads()
                info["openblas"] = get_config().decode()
                return info
    return info


def median(values):
    return statistics.median(values) if values else 0.0


def benchmark_metrics(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def timed_run(ns, digests: Digests, tag: str):
    """Repetitions until --seconds is used up; end-to-end medians."""
    t_start = time.monotonic()
    setups = []
    for i in range(SETUP_SAMPLES):
        probe = launch(WORK / "work" / f"{tag}-setup{i}", "--setup-only")
        if probe["exit"] == 0 and probe["setup_s"] is not None:
            setups.append(probe["setup_s"])
    reps, failures = [], []
    while True:
        out = WORK / "work" / f"{tag}-rep{len(reps)}"
        seed = ns.seed + REP_SEED_STRIDE * len(reps)
        run = launch(out, "--workload", ns.workload, "--seed", str(seed))
        failures += judge(run, out, ns.workload, seed, digests)
        run["seed"] = seed
        reps.append(run)
        if run["setup_s"] is not None:
            setups.append(run["setup_s"])
        # Stop when the next repetition would end more than half of it past
        # --seconds, so the run ends near --seconds on average instead of
        # leaving up to a whole repetition unused.
        used = time.monotonic() - t_start
        if used + 0.5 * median([r["wall_s"] for r in reps]) > ns.seconds:
            break
    metrics = {
        "wall_s": (median([r["wall_s"] for r in reps]), "s"),
        "setup_s": (median(setups), "s"),
        "cpu_s": (median([r["cpu_s"] for r in reps]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
    }
    keep = ("seed", "wall_s", "setup_s", "cpu_s", "peak_rss_mb", "steps")
    detail = {"repetitions": [{k: r[k] for k in keep} for r in reps],
              "setup_samples": setups}
    attempted = len(reps) * len(WORKLOADS[ns.workload])
    return metrics, attempted, failures, detail


def traced_run(ns, digests: Digests, tag: str):
    """One traced repetition, plus a serial rerun when the workload uses workers."""
    variants = [None]
    if any((w or 1) > 1 for _, _, _, w in WORKLOADS[ns.workload]):
        variants.append(1)
    figures, failures = [], []
    for workers in variants:
        out = WORK / "work" / f"{tag}-traced-w{workers or 'default'}"
        trace_file = out.with_suffix(".trace.json")
        args = ["--workload", ns.workload, "--seed", str(ns.seed), "--trace", str(trace_file)]
        if workers:
            args += ["--workers", str(workers)]
        run = launch(out, *args)
        failures += judge(run, out, ns.workload, ns.seed, digests)
        figures.append(json.loads(trace_file.read_text()) if trace_file.is_file() else {})
    layer = {name: tuple(v) for name, v in figures[0].items()}
    pool = "hardy_limit.limit_experiment.total_s"
    speedup = 0.0
    if len(figures) > 1 and figures[0].get(pool, [0])[0] > 0:
        speedup = figures[1].get(pool, [0])[0] / figures[0][pool][0]
    layer["hardy_limit.limit_experiment.speedup_w2"] = (speedup, "ratio")
    attempted = len(variants) * len(WORKLOADS[ns.workload])
    return layer, attempted, failures, {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if ns.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "ballwalk" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("run.py: run this from the root of a ballwalk checkout (no src/ballwalk here)", file=sys.stderr)
        return 2

    wanted = benchmark_metrics("per_layer" if ns.trace else "end_to_end")
    source = source_digest()
    digests = Digests(source, ns.workload)
    tag = f"{ns.workload}-{ns.seed}"
    for stale in (WORK / "work").glob(f"{tag}-*"):
        shutil.rmtree(stale) if stale.is_dir() else stale.unlink()
    run = traced_run if ns.trace else timed_run
    measured, attempted, failures, detail = run(ns, digests, tag)
    digests.save()

    missing = [name for name in wanted if name not in measured]
    if missing and not failures:
        print(f"run.py: no figure for {missing}", file=sys.stderr)
        return 3
    # A child that crashed leaves no figures; its failures are reported.
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": measured.get(name, (0.0,))[0], "unit": unit} for name, unit in wanted.items()},
    }
    info = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
        "meta": metadata(source), "failures": failures, **detail,
    }
    if ns.trace:
        info["per_layer"] = {name: value for name, value in sorted(measured.items())}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{tag}-trace{ns.trace}-{stamp}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
