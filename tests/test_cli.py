import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ballwalk.cli import (
    EXIT_CONFIG_ERROR,
    SUITES,
    ConfigError,
    RunConfig,
    main,
    parse_config_file,
)
from ballwalk.streams import rng_stream


def run_cli(*args) -> int:
    return main(list(args))


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\nm=3\ndt=0.001  # trailing\nn_paths=500\nvariant=paper-133\n\n")
        values = parse_config_file(str(p))
        assert values == {"m": 3, "dt": 0.001, "n_paths": 500, "variant": "paper-133"}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("paths=10\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(p))

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(p))

    def test_unknown_key_exits_64(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("nonsense=1\n")
        assert run_cli("constants", "--config", str(p)) == EXIT_CONFIG_ERROR

    def test_invalid_value_exits_64(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("dt=-0.5\n")
        assert run_cli("constants", "--config", str(p)) == EXIT_CONFIG_ERROR

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed=1\nout_dir=%s\n" % (tmp_path / "a"))
        assert run_cli("constants", "--config", str(p), "--seed", "2", "--out", str(tmp_path / "b")) == 0
        data = json.loads((tmp_path / "b" / "constants.json").read_text())
        assert data["seed"] == 2

    def test_suite_value_error_exits_64(self, tmp_path, capsys):
        # the two-sample KS of the scaling suite needs 50 paths per sample
        assert run_cli("scaling", "--out", str(tmp_path), "--paths", "20", "--dt", "0.01") == EXIT_CONFIG_ERROR
        assert "config error: two-sample KS needs n >= 50" in capsys.readouterr().err

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(q_max=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(r_trunc=1.5).validate()
        with pytest.raises(ConfigError):
            RunConfig(variant="x").validate()


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
        assert (a / "scaling.csv").read_bytes() == (b / "scaling.csv").read_bytes()

    def test_continuity_worker_count_invariance(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w2"
        for out, workers in ((a, "1"), (b, "2")):
            args = ["--out", str(out), "--paths", "9000", "--dt", "0.005", "--seed", "13", "--workers", workers]
            assert run_cli("continuity", *args) == 0
        assert (a / "continuity.csv").read_bytes() == (b / "continuity.csv").read_bytes()


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


class TestStreams:
    def test_no_two_suites_share_a_stream(self, tmp_path, monkeypatch):
        users: dict = {}
        current = []

        def recording(seed, *key):
            users.setdefault((seed, *key), set()).add(current[-1])
            return rng_stream(seed, *key)

        for name, module in list(sys.modules.items()):
            if name.startswith("ballwalk") and getattr(module, "rng_stream", None) is rng_stream:
                monkeypatch.setattr(module, "rng_stream", recording)
        for suite in SUITES:
            current.append(suite)
            assert run_cli(suite, "--out", str(tmp_path), *SMALL_ARGS[suite]) in (0, 1)
        assert set(SMALL_ARGS) == set(SUITES)
        shared = {key: sorted(suites) for key, suites in users.items() if len(suites) > 1}
        assert not shared


class TestScripts:
    def test_exit_time_study_runs(self):
        root = Path(__file__).resolve().parents[1]
        src = str(root / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = str(root / "scripts" / "exit_time_study.py")
        proc = subprocess.run(
            [sys.executable, script, "--dims", "2", "3", "--paths", "200", "--dt", "1e-2"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "m=2:" in proc.stdout and "m=3:" in proc.stdout
        assert "engines z1 KS" in proc.stdout
