import hashlib
import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from ballwalk import cli, hardy_limit
from ballwalk.cli import (
    EXIT_CONFIG_ERROR,
    STREAMS,
    SUITES,
    RunConfig,
    at_least,
    at_most,
    ks_below,
    main,
    within,
)
from ballwalk.martingale import MonotonicityReport
from ballwalk.stats import KsReport
from ballwalk.streams import rng_stream
from conftest import src_env


def run_cli(*args) -> int:
    return main(list(args))


class TestConfigFile:
    def test_invalid_value_exits_64(self, tmp_path):
        assert run_cli("scaling", "--out", str(tmp_path), "--dt", "-0.5") == EXIT_CONFIG_ERROR
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("suite", ["scaling", "hardy-limit"])
    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon_exits_64(self, tmp_path, capsys, suite, horizon):
        assert run_cli(suite, "--out", str(tmp_path), "--horizon", horizon) == EXIT_CONFIG_ERROR
        assert f"config error: horizon must be finite and >= dt, got {horizon}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_seed_exits_64_before_any_work(self, tmp_path, capsys):
        assert run_cli("constants", "--out", str(tmp_path), "--seed", "-1") == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
        assert not list(tmp_path.iterdir())

    def test_suite_value_error_exits_64(self, tmp_path, capsys):
        # the two-sample KS of the scaling suite needs 50 paths per sample
        assert run_cli("scaling", "--out", str(tmp_path), "--paths", "20", "--dt", "0.01") == EXIT_CONFIG_ERROR
        assert "config error: two-sample KS needs n >= 50" in capsys.readouterr().err

    def test_hardy_limit_horizon_past_the_tightness_bounds_exits_64_before_any_path(self, tmp_path, capsys,
                                                                                  monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a chunk of paths ran")

        monkeypatch.setattr(hardy_limit, "run_chunks", unreachable)
        args = ["--out", str(tmp_path), "--paths", "10000", "--dt", "0.0001", "--horizon", "1e16"]
        assert run_cli("hardy-limit", *args) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: horizon 1e+16 lies past every tightness bound")
        assert not list(tmp_path.iterdir())

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(q_max=0).validate()
        with pytest.raises(ValueError):
            RunConfig(variant="x").validate()


# the flags each subcommand takes besides --out, and an argument that each flag accepts
TAKES = {
    "constants": {"--seed"},
    "exit-dist": {"--seed", "--dt", "--horizon", "--paths", "--workers"},
    "reflection": {"--seed", "--dt", "--paths", "--workers"},
    "tightness": {"--seed", "--dt", "--m", "--paths", "--workers"},
    "scaling": {"--seed", "--dt", "--horizon", "--m", "--paths", "--workers"},
    "continuity": {"--seed", "--dt", "--horizon", "--m", "--paths", "--workers"},
    "martingale": {"--seed", "--paths"},
    "hardy-limit": {"--seed", "--dt", "--horizon", "--paths", "--q-max", "--variant", "--workers"},
    "report": set(),
}
FLAG_ARGS = {"--seed": "1", "--dt": "0.01", "--horizon": "5", "--m": "3", "--paths": "100", "--q-max": "2",
             "--variant": "paper-133", "--workers": "2", "--config": "run.cfg"}


class TestSuiteSettings:
    """Each subcommand takes only the settings it reads, and its outputs echo only those."""

    @pytest.mark.parametrize("command,flag", [(c, f) for c in TAKES for f in FLAG_ARGS if f not in TAKES[c]])
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--out", str(tmp_path), flag, FLAG_ARGS[flag])
        assert exc.value.code == 2
        # the subcommand's own usage, with the flags it does take, not the list of subcommands
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ballwalk {command} [-h] [--out OUT_DIR]"), err
        assert f"ballwalk {command}: error: unrecognized arguments: {flag}" in err
        assert "{constants," not in err
        assert not list(tmp_path.iterdir())

    def test_config_echoes_the_settings_each_suite_reads(self, small_run):
        out, _ = small_run
        echo = {suite: set(json.loads((out / f"{suite}.json").read_text())["config"]) for suite in SUITES}
        path = {"seed", "dt", "n_paths"}
        assert echo == {
            "constants": {"seed"},
            "exit-dist": path | {"horizon"},
            "reflection": path,
            "tightness": path | {"m"},
            "scaling": path | {"horizon", "m"},
            "continuity": path | {"horizon", "m"},
            "martingale": {"seed", "n_paths"},
            "hardy-limit": path | {"horizon", "q_max", "variant"},
        }

    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_reads_no_field_outside_its_entry(self, tmp_path, suite):
        # every RunConfig field the suite does not declare is None, so reading one raises
        declared = cli.suite_fields(suite)
        args = vars(cli.build_parser()[0].parse_args([suite, *SMALL_ARGS[suite]]))
        values = {f.name: None for f in fields(RunConfig)}
        values.update({key: getattr(RunConfig(), key) if args[key] is None else args[key] for key in declared})
        values["out_dir"] = str(tmp_path)
        assert cli._RUNNERS[suite][0](RunConfig(**values), tmp_path) in (True, False)
        assert (tmp_path / f"{suite}.json").is_file()


class TestVerdictHelpers:
    def test_inclusive_comparisons_pass_at_equality(self):
        assert within("c", 1.0, 1.5, 0.5)["pass"] is True
        assert at_most("c", 0.0, 0.25, 0.25)["pass"] is True
        assert at_least("c", 1.0, 0.75, 0.25)["pass"] is True

    def test_comparisons_fail_past_the_bound(self):
        assert within("c", 1.0, 0.25, 0.5)["pass"] is False
        assert at_most("c", 0.0, 0.5, 0.25)["pass"] is False
        assert at_least("c", 1.0, 0.5, 0.25)["pass"] is False
        assert ks_below("c", KsReport(0.3, 0.2))["pass"] is False

    def test_ks_fails_at_equality(self):
        v = ks_below("c", KsReport(0.2, 0.2))
        assert v["pass"] is False
        assert (v["target"], v["estimate"], v["tolerance"]) == (0.0, 0.2, 0.2)
        assert ks_below("c", KsReport(0.1, 0.2))["pass"] is True

    def test_nan_estimate_fails_every_helper(self):
        nan = math.nan
        assert within("c", 0.0, nan, 1.0)["pass"] is False
        assert at_most("c", 0.0, nan, 1.0)["pass"] is False
        assert at_least("c", 0.0, nan, 1.0)["pass"] is False
        assert ks_below("c", KsReport(nan, 1.0))["pass"] is False

    def test_reported_numbers_are_the_compared_ones(self):
        v = within("claim", 9, 9, 0)
        assert v == {"claim": "claim", "target": 9.0, "estimate": 9.0, "tolerance": 0.0, "pass": True}


class TestConstantsSuite:
    def test_runs_and_formats(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("constants", "--out", str(out), "--seed", "3") == 0
        csv = (out / "constants.csv").read_text().splitlines()
        assert csv[0].startswith("# suite=constants seed=3")
        assert csv[1] == "m,closed_form,quadrature,abs_err"
        assert len(csv) == 6
        # floats carry 17 significant digits
        sigma2 = csv[2].split(",")[1]
        assert sigma2 == "6.2831853071795862"
        data = json.loads((out / "constants.json").read_text())
        assert data["pass"] is True
        for v in data["verdicts"]:
            assert set(v) == {"claim", "target", "estimate", "tolerance", "pass"}


class TestReport:
    def test_all_pass_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("constants", "--out", str(out)) == 0
        assert run_cli("report", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed"] == 0
        assert [s["suite"] for s in summary["suites"]] == ["constants"]

    def test_injected_failure_counts(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("constants", "--out", str(out)) == 0
        fake = {"suite": "scaling", "seed": 0, "config": {}, "verdicts": [], "pass": False}
        (out / "scaling.json").write_text(json.dumps(fake))
        assert run_cli("report", "--out", str(out)) == 1
        summary = json.loads((out / "summary.json").read_text())
        names = [s["suite"] for s in summary["suites"]]
        assert sorted(names) == ["constants", "scaling"]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("text", ['{"suite": "scaling", "pass": tr', '{"suite": "scaling", "verdicts": []}'])
    def test_unreadable_verdict_file_exits_64(self, tmp_path, capsys, text):
        # a truncated verdict file and one without "pass" are bad inputs, not a failed suite
        (tmp_path / "scaling.json").write_text(text)
        assert run_cli("report", "--out", str(tmp_path)) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "scaling.json" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "summary.json").exists()

    def test_missing_out_directory_exits_64(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run_cli("report", "--out", str(missing)) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"config error: [Errno 2] No such file or directory: '{missing}")
        assert not missing.exists()


class TestDeterminism:
    def test_repeat_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("tightness", "--out", str(out), "--paths", "400", "--dt", "0.01", "--seed", "11") == 0
        assert (a / "tightness.csv").read_bytes() == (b / "tightness.csv").read_bytes()
        assert (a / "tightness.json").read_bytes() == (b / "tightness.json").read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w4"
        assert run_cli("scaling", "--out", str(a), "--paths", "400", "--dt", "0.005", "--seed", "12", "--workers", "1") == 0
        assert run_cli("scaling", "--out", str(b), "--paths", "400", "--dt", "0.005", "--seed", "12", "--workers", "4") == 0
        for name in ("scaling.csv", "scaling.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_continuity_worker_count_invariance(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w2"
        for out, workers in ((a, "1"), (b, "2")):
            args = ["--out", str(out), "--paths", "9000", "--dt", "0.005", "--seed", "13", "--workers", workers]
            assert run_cli("continuity", *args) == 0
        for name in ("continuity.csv", "continuity.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_blas_thread_count_invariance(self, tmp_path):
        # the quadrature suites' sums and rules run no threaded BLAS or LAPACK code,
        # so a one-thread OpenBLAS gives the bytes of this process's default pool
        one, default = tmp_path / "one", tmp_path / "default"
        env = src_env(OPENBLAS_NUM_THREADS="1")
        for suite in ("constants", "martingale"):
            proc = subprocess.run([sys.executable, "-m", "ballwalk", suite, "--out", str(one), *SMALL_ARGS[suite]],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode in (0, 1), proc.stderr
            assert run_cli(suite, "--out", str(default), *SMALL_ARGS[suite]) in (0, 1)
        digests = [{p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} for out in (one, default)]
        assert len(digests[0]) == 4
        assert digests[0] == digests[1]


class TestContinuitySuite:
    def test_all_censored_fails_and_writes_strict_json(self, tmp_path):
        # a horizon of 10 steps censors every path: no evidence must not pass,
        # and the verdict JSON must hold no Infinity or NaN token
        args = ["--out", str(tmp_path), "--paths", "200", "--dt", "0.001", "--horizon", "0.01", "--m", "2"]
        assert run_cli("continuity", *args) == 1

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        data = json.loads((tmp_path / "continuity.json").read_text(), parse_constant=reject)
        exceed, pathwise = data["verdicts"]
        assert exceed["estimate"] == 1.0 and exceed["pass"] is False
        assert pathwise["estimate"] is None and pathwise["pass"] is False


class TestMartingaleSuite:
    @pytest.mark.parametrize(
        "broken",
        [{}, {"max_down_step": -1e-6}, {"i2_max": 1.0 + 1e-9}, {"identity_defect": 1e-9}],
        ids=["sound", "i1-i3-down-step", "i2-above-1", "identity-defect"],
    )
    def test_monotonicity_verdict_fails_on_each_broken_condition(self, tmp_path, monkeypatch, broken):
        # the suite judges monotonicity_report's numbers itself; each of its three
        # conditions alone must fail the verdict, and a sound report must pass it
        sound = {"max_down_step": 0.0, "i2_down_step": 0.0, "identity_defect": 0.0, "i2_max": 1.0}
        monkeypatch.setattr(cli, "monotonicity_report", lambda *args: MonotonicityReport(**{**sound, **broken}))
        code = run_cli("martingale", "--out", str(tmp_path), *SMALL_ARGS["martingale"])
        verdicts = json.loads((tmp_path / "martingale.json").read_text())["verdicts"]
        mono = [v for v in verdicts if v["claim"].startswith("I1, I3 nondecreasing")]
        assert mono and all(v["pass"] is (not broken) for v in mono)
        assert code == (1 if broken else 0)


# every suite at the smallest sizes it accepts (scaling's KS needs 50 paths)
SMALL_ARGS = {
    "constants": [],
    "exit-dist": ["--paths", "100", "--dt", "0.01"],
    "reflection": ["--paths", "100", "--dt", "0.01"],
    "tightness": ["--paths", "100", "--dt", "0.01"],
    "scaling": ["--paths", "50", "--dt", "0.01"],
    "continuity": ["--paths", "100", "--dt", "0.01"],
    "martingale": ["--paths", "200"],
    "hardy-limit": ["--paths", "20", "--dt", "0.01"],
}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One run of every suite at SMALL_ARGS and seed 20260809: its output directory, and every stream key
    the suites drew -> the suites that drew it."""
    users: dict = {}
    current = []

    def recording(seed, *key):
        users.setdefault((seed, *key), set()).add(current[-1])
        return rng_stream(seed, *key)

    out = tmp_path_factory.mktemp("small_run")
    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("ballwalk") and getattr(module, "rng_stream", None) is rng_stream:
                mp.setattr(module, "rng_stream", recording)
        for suite in SUITES:
            current.append(suite)
            assert run_cli(suite, "--out", str(out), "--seed", "20260809", *SMALL_ARGS[suite]) in (0, 1)
    return out, users


class TestStreams:
    def test_no_two_suites_share_a_stream(self, small_run):
        _, users = small_run
        assert set(SMALL_ARGS) == set(SUITES)
        shared = {key: sorted(suites) for key, suites in users.items() if len(suites) > 1}
        assert not shared

    def test_streams_lists_every_keyed_stream(self, small_run):
        _, users = small_run
        # every stream is (seed, id, ...) at the suite's seed, with its id in one of the
        # suite's STREAMS ranges
        seed = RunConfig().seed
        listed = {suite: {i for name, ids in STREAMS.items() if name.split("/")[0] == suite for i in ids}
                  for suite in SUITES}
        for (s, *key), suites in users.items():
            for suite in suites:
                assert s == seed and key and key[0] in listed[suite], (suite, s, *key)

    def test_stream_ranges_never_overlap(self):
        ids = [i for ids in STREAMS.values() for i in ids]
        assert len(ids) == len(set(ids))
        assert not {42, 60} & set(ids)  # keyed by perfbench/child.py


class TestImportPath:
    """No run path loads scipy: the normal CDF and N_k come from ``math``."""

    LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"

    def run(self, code: str) -> list[str]:
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_package_import_loads_nothing(self):
        # the package root re-exports nothing: importing it loads no submodule and no numpy
        code = "import sys, ballwalk\nprint(sorted(m for m in sys.modules if m.startswith(('ballwalk.', 'numpy'))))\n"
        assert self.run(code) == ["[]"]

    def test_cli_import_loads_no_scipy(self):
        from scipy import special

        code = (
            "import sys, ballwalk, ballwalk.cli\n" + self.LOADED
            + "from ballwalk.brownian import reflection_prob, tightness_N\n"
            "print(reflection_prob(1, 1).hex(), tightness_N(2.0, 1))\n" + self.LOADED
        )
        before, values, after = self.run(code)
        assert before == after == "[]"
        assert values == f"{float(2.0 * special.ndtr(-1.0)).hex()} 9"

    def test_suites_load_no_scipy(self, tmp_path):
        code = (
            "import sys\nfrom ballwalk.cli import main\n"
            f"for suite, args in {SMALL_ARGS!r}.items():\n"
            f"    assert main([suite, '--out', {str(tmp_path)!r}, *args]) in (0, 1), suite\n" + self.LOADED
        )
        assert self.run(code)[-1] == "[]"


class TestScripts:
    def test_exit_time_study_runs(self):
        root = Path(__file__).resolve().parents[1]
        script = str(root / "scripts" / "exit_time_study.py")
        proc = subprocess.run(
            [sys.executable, script, "--dims", "2", "3", "--paths", "200", "--dt", "1e-2"],
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "m=2:" in proc.stdout and "m=3:" in proc.stdout
        assert "engines z1 KS" in proc.stdout

    def test_run_all_stops_at_a_negative_seed(self, tmp_path):
        # the first suite rejects the seed before it computes anything, and the run stops with its code
        script = str(Path(__file__).resolve().parents[1] / "scripts" / "run_all.py")
        proc = subprocess.run([sys.executable, script, "--out", str(tmp_path), "--seed", "-1"], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert proc.stderr == "config error: seed must be >= 0\n"
        assert not (tmp_path / "summary.json").exists()

    def test_run_all_forwards_each_flag_to_the_suites_that_read_it(self, tmp_path):
        script = str(Path(__file__).resolve().parents[1] / "scripts" / "run_all.py")
        flags = ["--paths", "200", "--dt", "0.01", "--workers", "2", "--m", "3"]
        proc = subprocess.run([sys.executable, script, "--out", str(tmp_path), *flags], env=src_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == json.loads((tmp_path / "summary.json").read_text())["failed"], proc.stderr
        echo = {suite: json.loads((tmp_path / f"{suite}.json").read_text())["config"] for suite in SUITES}
        assert {suite: c.get("m") for suite, c in echo.items() if "m" in c} == dict.fromkeys(
            ("tightness", "scaling", "continuity"), 3)
        assert all(c.get("n_paths", 200) == 200 and c.get("dt", 0.01) == 0.01 for c in echo.values())
        bogus = subprocess.run([sys.executable, script, "--out", str(tmp_path / "bogus"), "--bogus", "1"],
                               env=src_env(), capture_output=True, text=True, timeout=60)
        assert bogus.returncode == 2 and "--bogus" in bogus.stderr
        assert not (tmp_path / "bogus").exists()

    @pytest.fixture(scope="class")
    def bench_layers_run(self, tmp_path_factory):
        # one end-to-end run of the harness at smoke sizes, read by the two tests below; they keep the
        # names of the two scripts it replaced.  Each side's cells and tables come from children of the
        # harness run against that side's src
        root = Path(__file__).resolve().parents[1]
        script = str(root / "scripts" / "bench_layers.py")
        out = tmp_path_factory.mktemp("bench_layers") / "bench.json"
        missing_out = subprocess.run([sys.executable, script, "--side", f"smoke={root}"], capture_output=True,
                                     text=True, timeout=60)
        wrote_without_out = out.exists()
        proc = subprocess.run(
            [sys.executable, script, "--side", f"smoke={root}", "--points", "200", "--tables", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        return missing_out, wrote_without_out, proc, out

    def test_bench_exit_sampler_writes_every_cell(self, bench_layers_run):
        missing_out, wrote_without_out, proc, out = bench_layers_run
        assert missing_out.returncode == 2 and "--out" in missing_out.stderr and not wrote_without_out
        assert proc.returncode == 0, proc.stderr
        cells = json.loads(out.read_text())["sampler"]["smoke"]
        assert len(cells) == 16
        assert cells["m=2 s=0.999"]["proposals_per_point"] == 1.0
        assert all(c["exits_per_s"] > 0 for c in cells.values())

    def test_bench_blas_free_tables_child_runs(self, bench_layers_run):
        # ROADMAP item 9's gate reads the keys the tables child writes
        _, _, proc, out = bench_layers_run
        assert proc.returncode == 0, proc.stderr
        record = json.loads(out.read_text())
        assert len(record["tables"]["smoke"]) == 2
        for tables in record["tables"]["smoke"]:
            assert set(tables) == {"m2_n2048", "m3_n224", "mc_estimate_1e6"}
            assert tables["m2_n2048"]["nodes_per_radius"] == 2 * 2048
            assert tables["m3_n224"]["nodes_per_radius"] == 4 * 224**2
            for k in ("m2_n2048", "m3_n224"):
                assert set(tables[k]) == {"nodes_per_radius", "tables", "nodes_per_s"}
                assert tables[k]["tables"] == 1 and tables[k]["nodes_per_s"] > 0
            mc = tables["mc_estimate_1e6"]
            assert set(mc) == {"samples", "calls", "samples_per_s"}
            assert mc["samples"] == 10**6 and mc["calls"] == 1 and mc["samples_per_s"] > 0

    def test_euler_cell_per_dimension(self, bench_layers_run):
        _, _, proc, out = bench_layers_run
        assert proc.returncode == 0, proc.stderr
        cells = json.loads(out.read_text())["euler"]["smoke"]
        assert set(cells) == {"m=1", "m=2", "m=3"}
        for figures in cells.values():
            assert figures["paths"] == 200 and figures["dt"] == 1e-4 and figures["path_steps_per_s"] > 0


class TestTracerHooks:
    def test_euler_exit_trace_counts_the_paths_it_ran(self, tmp_path):
        # perfbench/spans.py reads n_paths from the arguments of reflection_crossing_mc and
        # exit_continuity_check; a call that moves it breaks the hook or miscounts the paths
        root = Path(__file__).resolve().parents[1]
        trace = tmp_path / "trace.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), "--workload", "euler-exit", "--seed", "1",
             "--out", str(tmp_path), "--trace", str(trace)],
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        steps = json.loads((tmp_path / "_child.json").read_text())["steps"]
        assert steps and {step["code"] for step in steps.values()} <= {0, 1}
        figures = json.loads(trace.read_text())
        for fn, paths in (("reflection_crossing_mc", 100), ("exit_continuity_check", 300)):
            per_s, self_s = figures[f"brownian.{fn}.paths_per_s"][0], figures[f"brownian.{fn}.self_s"][0]
            assert round(per_s * self_s) == paths, fn

    @pytest.mark.parametrize("workload", ["hardy-limit-w2", "exact-martingale"])
    def test_library_steps_run_and_write_verdicts(self, tmp_path, workload):
        # perfbench/child.py calls catalog, estimate_rates, radius_schedule and
        # limit_experiment itself and reads LimitReport's fields; a library
        # change that breaks one of those calls fails its step here
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), "--workload", workload, "--seed", "1",
             "--out", str(tmp_path)],
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        steps = json.loads((tmp_path / "_child.json").read_text())["steps"]
        assert steps and {step["code"] for step in steps.values()} <= {0, 1}
        for name in steps:
            assert "verdicts" in json.loads((tmp_path / f"{name}.json").read_text()), name


class TestGoldenOutputs:
    """Every suite output at SMALL_ARGS and seed 20260809, pinned by sha256.

    Recorded with numpy 2.4.6.  A change that alters the random draws, the
    arithmetic or the settings the outputs echo on purpose updates these
    digests and says so in CHANGES.md.
    """

    DIGESTS = {
        "constants.csv": "9a90ccb424eb66a4f25cd2e50f46d0234ba786abdbbf766e054f13639dd12ef5",
        "constants.json": "a94becf5a75a8abf4d554b3980004b967c00039bd7a416e222204a62b9d2058e",
        "continuity.csv": "8bfd2ab34f4019c80cb8b8abf9312ab0af9488f35a87a92824edbe2c4df67d65",
        "continuity.json": "70bc85cc63bf7ec6a85250ae3dcab510359956f659a25bab816cfbe5bb020cb1",
        "exit-dist-trace.csv": "781919ffa4f740faf21da0bbb959fcaf3d766f69306f66da3dc0117ae3f7b2de",
        "exit-dist.csv": "1a7251cee74b12b9c1d56affc3ca9ca30b7071455d04a6668419372cd5e7cc92",
        "exit-dist.json": "443671855cf10f573bb00aea64e2b5cbd2817a4619f95a86d5c13be8472ed1fb",
        "hardy-limit.csv": "d1b49d9d31fbd9646817d5606f43069f7bd3e20e3d5321e3b489c43d7a192b87",
        "hardy-limit.json": "3e5ea16c2e88c368caa4b67fcc26e4ebd0fc571efce9af45b8446f4a8c1730bb",
        "martingale.csv": "bffb457f9d6cc768eca0d322515fa3cbcc1c63f28f7e5a965ffbe80137e30257",
        "martingale.json": "c9806394cc5e927bb3d13a3d4b32db4dd6e41c5fcb25fc89a94214d022c9543d",
        "reflection.csv": "3f94f20a88d6d93aa79bce42e70b5f4f52cb24c0ebdfa073e3cab76e0bc7bae8",
        "reflection.json": "7b8e26e2935c4e4da007858a8e493f9412384cad35fed6f618ab938abbddbed8",
        "scaling.csv": "7dc1cd7d3cb9a18a4dcea941ee778d648b22a5be037a8c789d6a0bfa7f07068c",
        "scaling.json": "e2c6db54c8a7c2c94f011a43f806e6d7573c6e4d00f503d7ffbf257773f332f7",
        "tightness.csv": "0eca15aba1cb5eeb4e4dd29f394925ddc178944eeb5548119c0fea577909ff76",
        "tightness.json": "81dcc83cb7a9461ea7af9610c20087526011c6f425b40bca7e6881bf4570d52f",
    }

    def test_outputs_match_recorded_digests(self, small_run):
        out, _ = small_run
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == self.DIGESTS
