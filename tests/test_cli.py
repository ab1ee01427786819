"""Command-line interface tests."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fugrant
from fugrant.cli import CSV_HEADER, main
from fugrant.model import ScenarioConfig


@pytest.fixture
def config_path(tmp_path):
    cfg = ScenarioConfig(
        n_processes=2,
        n_devices=4,
        n_slots=2,
        horizon=12,
        seed=5,
        eps0=[0.1, 0.2],
        eps1=[0.3, 0.4],
        q=[[0.5, 0.6, 0.7, 0.2], [0.2, 0.3, 0.4, 0.9]],
    )
    path = tmp_path / "scenario.json"
    path.write_text(cfg.to_json())
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_csv_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli("run", "--config", config_path, "--runs", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # 12 slots x 5 policies x {mean, std}
        assert len(lines) == 1 + 12 * 5 * 2
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "ra" and first[2] == "mean"

    def test_policy_subset_and_horizon_override(self, config_path, tmp_path):
        out = tmp_path / "out.csv"
        assert (
            run_cli(
                "run",
                "--config",
                config_path,
                "--policies",
                "tdd,ra",
                "--runs",
                "1",
                "--horizon",
                "7",
                "--out",
                str(out),
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 7 * 2 * 2
        assert {line.split(",")[1] for line in lines[1:]} == {"ra", "tdd"}

    def test_json_output(self, config_path, tmp_path):
        out = tmp_path / "out.json"
        assert (
            run_cli(
                "run",
                "--config",
                config_path,
                "--runs",
                "2",
                "--format",
                "json",
                "--out",
                str(out),
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["runs"] == 2
        assert payload["policies"] == ["ra", "tdd", "fu_limited", "fu_feedback", "genie"]
        assert len(payload["series"]["tdd"]["mean"]["regret_cum"]) == 12

    def test_summary_emit_final_slot_only(self, config_path, tmp_path):
        out = tmp_path / "out.csv"
        assert (
            run_cli(
                "run",
                "--config",
                config_path,
                "--runs",
                "1",
                "--emit",
                "summary",
                "--out",
                str(out),
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 * 2
        assert all(line.startswith("12,") for line in lines[1:])

    def test_zero_horizon_header_only(self, config_path, tmp_path):
        out = tmp_path / "out.csv"
        assert (
            run_cli(
                "run",
                "--config",
                config_path,
                "--runs",
                "1",
                "--horizon",
                "0",
                "--out",
                str(out),
            )
            == 0
        )
        assert out.read_text().splitlines() == [CSV_HEADER]

    def test_byte_identical_reruns(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("run", "--config", config_path, "--runs", "1", "--seed", "7")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("run", "--config", config_path, "--runs", "1", "--seed", "1", "--out", str(a))
        run_cli("run", "--config", config_path, "--runs", "1", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_preset_smoke(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert (
            run_cli(
                "run",
                "--preset",
                "fig3",
                "--runs",
                "1",
                "--horizon",
                "5",
                "--out",
                str(out),
            )
            == 0
        )
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_unknown_policy_lists_valid_names(self, config_path, tmp_path, capsys):
        code = run_cli(
            "run",
            "--config",
            config_path,
            "--policies",
            "tdd,bogus",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "bogus" in err
        for name in ("ra", "tdd", "fu_limited", "fu_feedback", "genie"):
            assert name in err

    @pytest.mark.parametrize(
        "flag,value", [("--runs", "0"), ("--seed", "-1"), ("--seed", str(1 << 64))]
    )
    def test_bad_runs_or_seed_names_flag(self, config_path, flag, value, tmp_path, capsys):
        code = run_cli(
            "run", "--config", config_path, flag, value, "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_config_names_key(self, tmp_path, capsys):
        payload = json.loads((ScenarioConfig(
            n_processes=1,
            n_devices=2,
            n_slots=1,
            horizon=3,
            seed=0,
            eps0=[0.1],
            eps1=[0.2],
            q=[[0.1, 0.2]],
        )).to_json())
        payload["q"][0][1] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "x.csv"))
        assert code != 0
        assert "q[0][1]" in capsys.readouterr().err

    def test_bool_seed_in_config_rejected(self, config_path, tmp_path, capsys):
        payload = json.loads(Path(config_path).read_text())
        payload["seed"] = True
        Path(config_path).write_text(json.dumps(payload))
        out = tmp_path / "x.csv"
        assert run_cli("run", "--config", config_path, "--runs", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert config_path in err and "seed" in err
        assert not out.exists()

    def test_filter_policy_beyond_capacity_names_key(self, tmp_path, capsys):
        n = 25
        cfg = ScenarioConfig(
            n_processes=n,
            n_devices=2,
            n_slots=1,
            horizon=3,
            seed=0,
            eps0=[0.1] * n,
            eps1=[0.2] * n,
            q=[[0.1, 0.2]] * n,
        )
        path = tmp_path / "big.json"
        path.write_text(cfg.to_json())
        out = tmp_path / "x.csv"
        code = run_cli(
            "run", "--config", str(path), "--policies", "fu_limited", "--runs", "1",
            "--out", str(out),
        )
        assert code == 2
        assert "n_processes" in capsys.readouterr().err
        assert not out.exists()

    def test_no_temp_files_left_behind(self, config_path, tmp_path):
        out = tmp_path / "out.csv"
        run_cli("run", "--config", config_path, "--runs", "1", "--out", str(out))
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []


class TestValidate:
    def test_valid_config(self, config_path, capsys):
        assert run_cli("validate", config_path) == 0
        out = capsys.readouterr().out
        assert "N=2 K=4 L=2" in out
        assert "stationary" in out

    def test_out_of_range_entry(self, tmp_path, capsys):
        payload = {
            "n_processes": 1,
            "n_devices": 2,
            "n_slots": 1,
            "horizon": 3,
            "seed": 0,
            "eps0": [0.1],
            "eps1": [0.2],
            "q": [[0.1, 1.5]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run_cli("validate", str(path)) != 0
        assert "q[0][1]" in capsys.readouterr().err

    def test_wrong_eps_length(self, tmp_path, capsys):
        payload = {
            "n_processes": 2,
            "n_devices": 2,
            "n_slots": 1,
            "horizon": 3,
            "seed": 0,
            "eps0": [0.1],
            "eps1": [0.2, 0.3],
            "q": [[0.1, 0.2], [0.3, 0.4]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run_cli("validate", str(path)) != 0
        assert "eps0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("seed", True), ("q", None)], ids=["seed-bool", "q-missing"]
    )
    def test_bad_config_names_file_and_key(self, config_path, key, value, capsys):
        payload = json.loads(Path(config_path).read_text())
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        Path(config_path).write_text(json.dumps(payload))
        assert run_cli("validate", config_path) == 2
        err = capsys.readouterr().err
        assert config_path in err and key in err

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unparseable_file_names_file(self, tmp_path, content, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run_cli("validate", str(path)) == 2
        assert str(path) in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("validate", str(path)) != 0
        assert "JSON" in capsys.readouterr().err


class TestOracle:
    def test_passes_at_default_tolerance(self, capsys):
        assert run_cli("oracle", "--instances", "5") == 0
        out = capsys.readouterr().out
        assert "forward max deviation" in out
        assert "log-evidence max deviation" in out
        assert "predictor max deviation" in out

    def test_zero_tolerance_fails_with_seed(self, capsys):
        assert run_cli("oracle", "--instances", "5", "--tolerance", "0") == 1
        assert "seed" in capsys.readouterr().err

    def test_max_n_guard(self, capsys):
        assert run_cli("oracle", "--max-n", "10") != 0
        assert "max_n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--instances", "--max-n", "--max-k", "--max-t"])
    def test_sizes_below_one_rejected(self, flag, capsys):
        assert run_cli("oracle", flag, "0") == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "deviation" not in captured.out

    @pytest.mark.parametrize(
        "max_n, max_t", [("4", "7"), ("3", "9")], ids=["4x7", "3x9"]
    )
    def test_path_enumeration_limit(self, max_n, max_t, capsys):
        assert run_cli("oracle", "--max-n", max_n, "--max-t", max_t, "--instances", "1") == 2
        captured = capsys.readouterr()
        assert "max_n" in captured.err and "max_t" in captured.err
        assert "deviation" not in captured.out

    def test_largest_enumeration_runs(self):
        assert run_cli("oracle", "--max-n", "4", "--max-t", "6", "--instances", "2") == 0

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "-1"), ("--seed", str(2**64)), ("--tolerance", "nan"), ("--tolerance", "-1")],
        ids=["seed-negative", "seed-2^64", "tolerance-nan", "tolerance-negative"],
    )
    def test_bad_seed_or_tolerance_rejected(self, flag, value, capsys):
        assert run_cli("oracle", "--instances", "1", flag, value) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "deviation" not in captured.out

    def test_last_instance_seed_beyond_64_bits(self, capsys):
        assert run_cli("oracle", "--seed", str(2**64 - 1), "--instances", "2") == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err and "instances" in captured.err
        assert "deviation" not in captured.out

    def test_massive_k_runs(self):
        assert run_cli("oracle", "--max-k", "100000", "--instances", "1") == 0


def run_declared_entry_point(*argv):
    """Run the `fugrant` console-script target from pyproject.toml.

    Calls it the way the script pip generates does, so the check needs no
    install: the declared module and function must resolve, and the
    function's return value becomes the exit status.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fugrant"]
    module, attr = target.split(":")
    package_parent = os.path.dirname(os.path.dirname(fugrant.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")])
    )
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestConsoleScript:
    def test_entry_point_runs(self, config_path, tmp_path):
        out = tmp_path / "out.csv"
        proc = run_declared_entry_point(
            "run", "--config", config_path, "--runs", "1", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith(CSV_HEADER)

        proc = run_declared_entry_point(
            "run",
            "--config",
            config_path,
            "--policies",
            "bogus",
            "--out",
            str(tmp_path / "bad.csv"),
        )
        assert proc.returncode == 2
        assert "bogus" in proc.stderr

    @pytest.mark.skipif(
        shutil.which("fugrant") is None,
        reason="no fugrant executable on PATH (package not installed)",
    )
    def test_installed_script_runs(self, config_path, tmp_path):
        out = tmp_path / "out.csv"
        exe = shutil.which("fugrant")
        proc = subprocess.run(
            [exe, "run", "--config", config_path, "--runs", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith(CSV_HEADER)
