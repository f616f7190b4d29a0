"""Command-line surface: exit codes, listing, small end-to-end runs."""

import json
import os

import pytest

from schromax import cli, harness


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListing:
    def test_list_enumerates_experiments(self, capsys):
        code, out, _ = run_cli(capsys, "--list")
        assert code == 0
        assert out.split() == list(harness.EXPERIMENTS)

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 1
        assert "usage" in out


class TestClassifySeq:
    def test_power_summary(self, capsys):
        code, out, _ = run_cli(capsys, "classify-seq", "--gen", "power",
                               "--alpha", "2", "--r", "0.5")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert 0.9 <= summary["weak_constant"] <= 1.5

    def test_weak_table(self, capsys):
        code, out, _ = run_cli(capsys, "classify-seq", "--gen", "geometric",
                               "--r", "1", "--weak")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "b,count,b_r_count"
        assert len(lines) > 10

    def test_requires_generator(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["classify-seq", "--r", "1"])


class TestExperimentCommands:
    def test_convergence_probe_pass(self, capsys, tmp_path):
        out_dir = tmp_path / "probe"
        code, out, _ = run_cli(capsys, "convergence-probe",
                               "--out", str(out_dir))
        assert code == 0
        assert "pass" in out
        assert (out_dir / "manifest.json").exists()

    def test_collision_is_error(self, capsys, tmp_path):
        out_dir = tmp_path / "probe"
        run_cli(capsys, "convergence-probe", "--out", str(out_dir))
        code, _, err = run_cli(capsys, "convergence-probe",
                               "--out", str(out_dir))
        assert code == 1
        assert "error" in err

    def test_force_overwrites(self, capsys, tmp_path):
        out_dir = tmp_path / "probe"
        run_cli(capsys, "convergence-probe", "--out", str(out_dir))
        code, _, _ = run_cli(capsys, "convergence-probe",
                             "--out", str(out_dir), "--force")
        assert code == 0

    def test_config_file_and_name_mismatch(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            harness.ExperimentConfig("seq-classify", {"r": 1.0}).to_json())
        code, _, err = run_cli(capsys, "convergence-probe",
                               "--config", str(cfg_path),
                               "--out", str(tmp_path / "x"))
        assert code == 1
        assert "config names experiment" in err

    def test_config_unknown_key_is_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"experiment": "eq6-scan", "params": {"lam_exponent": [4, 5]}}))
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "eq6-scan", "--config", str(cfg_path),
                               "--out", str(out_dir))
        assert code == 1
        assert "lam_exponent" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("doc,key", [
        pytest.param({"experiment": "eq6-scan", "params": {"lam_exponents": 5}},
                     "lam_exponents", id="list-not-list"),
        pytest.param({"experiment": "eq6-scan", "params": {"a": None}},
                     "'a'", id="number-null"),
        pytest.param({"params": {}}, "experiment", id="no-experiment"),
    ])
    def test_malformed_config_is_error(self, capsys, tmp_path, doc, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "eq6-scan", "--config", str(cfg_path),
                               "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error:") and key in err
        assert not out_dir.exists()

    def test_degenerate_scan_is_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"experiment": "theorem1-scan",
             "params": {"lam_exponents": [4], "seeds": [0]}}))
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "theorem1-scan", "--config", str(cfg_path),
                               "--out", str(out_dir))
        assert code == 1
        assert "two distinct lam_exponents" in err
        assert not out_dir.exists()

    def test_config_file_accepted(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            harness.ExperimentConfig("convergence-probe",
                                     {"tail_starts": [1, 5]}).to_json())
        code, _, _ = run_cli(capsys, "convergence-probe",
                             "--config", str(cfg_path),
                             "--out", str(tmp_path / "y"))
        assert code == 0

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("SCHROMAX_WORKERS", "3")
        assert cli._default_workers() == 3
        monkeypatch.delenv("SCHROMAX_WORKERS")
        assert cli._default_workers() is None


class TestCounterexampleCommand:
    def test_small_family(self, capsys, tmp_path):
        out_dir = tmp_path / "ce"
        code, out, _ = run_cli(capsys, "counterexample", "--octaves", "4",
                               "--out", str(out_dir))
        assert code == 0
        assert "pass" in out
        cols, rows = harness.read_csv(str(out_dir / "witnesses.csv"))
        assert cols[0] == "j"
        assert len(rows) == 4
        assert "with lines" in (out_dir / "plot.gp").read_text()


class TestBesselTable:
    def test_table_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bessel-table", "--two-nu", "0",
                               "--count", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,J_nu,K_nu_re,K_nu_im"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.1)

    def test_minus_half_kernel_column_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bessel-table", "--two-nu", "-1",
                               "--count", "3")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            parts = line.split(",")
            assert float(parts[2]) == 0.0 and float(parts[3]) == 0.0
