"""Command-line surface: exit codes, listing, small end-to-end runs."""

import argparse
import json
import math
import os

import pytest

from schromax import blowup, cli, harness, maximal, radial


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


class TestSeqClassifyCommand:
    """seq-classify through the experiment front end: the weak constant in
    summary.json and the (b, count, b^r count) table in classify.csv."""

    def run_config(self, capsys, tmp_path, params):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(harness.ExperimentConfig("seq-classify", params).to_json())
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "seq-classify", "--config", str(cfg_path),
                             "--out", str(out_dir))
        assert code == 0
        return out_dir

    def test_power_summary(self, capsys, tmp_path):
        out_dir = self.run_config(capsys, tmp_path, {"gen": "power", "alpha": 2.0, "r": 0.5})
        summary = json.loads((out_dir / "summary.json").read_text())
        assert 0.9 <= summary["weak_constant"] <= 1.5

    def test_weak_table(self, capsys, tmp_path):
        out_dir = self.run_config(capsys, tmp_path, {"gen": "geometric", "r": 1.0})
        lines = (out_dir / "classify.csv").read_text().strip().splitlines()
        assert lines[0] == "b,count,b_r_count"
        assert len(lines) > 10


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

    @pytest.mark.parametrize("name", ["prop3-bound", "thm6-ineq"])
    def test_zero_profiles_is_error(self, capsys, tmp_path, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": name, "params": {"profiles": 0}}))
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, name, "--config", str(cfg_path),
                               "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error:") and "profiles" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("name,params,key", [
        ("seq-classify", {"depth": 9.5}, "depth"),
        # exp(1 / b) overflows a float from b = 2^-10 on
        ("seq-classify", {"gen": "log", "depth": 10}, "depth"),
        ("theorem1-scan", {"a": 1000.0, "lam_exponents": [4, 5], "seeds": [0]}, "lam^-a"),
        ("theorem1-scan", {"a": 1072.0, "lam_exponents": [0, 1], "seeds": [0]}, "lam^-a"),
        ("theorem1-scan", {"a": 100.0, "lam_exponents": [0, 1], "seeds": [0]}, "lam^-a"),
        ("theorem1-scan", {"lam_exponents": [0, 1024], "seeds": [0]}, "lam_exponents"),
        ("prop3-bound", {"two_nu_values": []}, "two_nu_values"),
        ("prop3-bound", {"two_nu_values": [1]}, "two_nu_values"),
        ("prop3-bound", {"two_nu_values": [-1, 1]}, "two_nu_values"),
        ("prop3-bound", {"two_nu_values": [0, 0]}, "two_nu_values"),
        ("convergence-probe", {"tail_starts": []}, "tail_starts"),
        ("convergence-probe", {"tail_starts": [0, 1]}, "tail_starts"),
        ("seq-classify", {"r": 0.0}, "'r'"),
        ("seq-classify", {"r": -1.0}, "'r'"),
        # lam = 2^12 selects 4 * 2^24 - 2 members above lam^-2 / 4, the lam = 2^4
        # items fewer than 10^7
        ("lemma4-scan", {"lam_exponents": [4, 12], "seeds": [0]}, "lam = 4096.0, a = 2.0"),
        # (lam^-a / 4)^(-1 / alpha) overflows a float from lam = 2^5 on
        ("lemma4-scan", {"alpha": 0.01, "lam_exponents": [4, 5], "seeds": [0]},
         "alpha = 0.01"),
        # the bound shape lam^s overflows a float at s = 400, and is 0 at s = -400
        ("lemma4-scan", {"s": 400.0}, "bound shape"),
        ("lemma4-scan", {"s": -400.0}, "bound shape"),
        # 32^-210 is subnormal: the normalized ratio would overflow
        ("lemma4-scan", {"s": -210.0, "lam_exponents": [4, 5], "seeds": [0]},
         "bound shape at lam = 32.0"),
        ("eq6-scan", {"ball_radius": -0.1, "lam_exponents": [4, 5], "seeds": [0]},
         "'ball_radius'"),
        # drift_monotone compares the stages in list order
        ("counterexample-growth", {"j_values": [1, 1, 2, 3]}, "j_values"),
        ("counterexample-growth", {"j_values": [3, 2, 1]}, "j_values"),
        # the slope fit needs three stages
        ("counterexample-growth", {"j_values": [1, 2]}, "j_values"),
        # M_j = 2^(j+3) = 1 at j = -3
        ("counterexample-growth", {"j_values": [-3, 1, 2]}, "j_values"),
        ("convergence-probe", {"tail_starts": [20, 5, 1]}, "tail_starts"),
        ("convergence-probe", {"tail_starts": [1, 5, 5]}, "tail_starts"),
        # delta <= 0 counts the whole domain at every tail start
        ("convergence-probe", {"delta": -1.0}, "delta"),
        ("convergence-probe", {"delta": 0.0}, "delta"),
        # a = -1 makes the phase at xi = 0 NaN, and NaN never exceeds delta
        ("convergence-probe", {"a": -1.0}, "'a'"),
        # a = -1 makes the relative differences NaN
        ("prop2-check", {"a": -1.0}, "'a'"),
        ("prop2-check", {"a": 0.0}, "'a'"),
    ], ids=["fractional-depth", "overflowing-depth", "underflowing-step",
            "overflowing-count", "too-many-times", "overflowing-lambda", "no-orders",
            "only-zero-kernels", "zero-kernel-pair", "repeated-order", "no-tail-starts",
            "tail-start-below-one", "zero-r", "negative-r", "oversized-selection",
            "overflowing-selection", "overflowing-bound-shape", "vanishing-bound-shape",
            "subnormal-bound-shape", "negative-ball-radius",
            "repeated-stage", "decreasing-stages",
            "two-stages", "unit-stage-scale", "decreasing-tail-starts",
            "repeated-tail-start", "negative-delta", "zero-delta", "negative-probe-a",
            "negative-a", "zero-a"])
    def test_out_of_range_value_is_error(self, capsys, tmp_path, monkeypatch,
                                         name, params, key):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the config was rejected")
        monkeypatch.setattr(harness, "_map_items", no_work)
        monkeypatch.setattr(maximal, "convergence_probe", no_work)
        monkeypatch.setattr(blowup, "lower_bound_scan", no_work)
        monkeypatch.setattr(radial, "two_route_case", no_work)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": name, "params": params}))
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, name, "--config", str(cfg_path),
                               "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error:") and key in err
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

    def test_counterexample_growth_config_plot(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(harness.ExperimentConfig(
            "counterexample-growth", {"j_values": [1, 2, 3, 4]}).to_json())
        out_dir = tmp_path / "ce"
        code, out, _ = run_cli(capsys, "counterexample-growth", "--config", str(cfg_path),
                               "--out", str(out_dir))
        assert code == 0
        assert "pass" in out
        cols, rows = harness.read_csv(str(out_dir / "witnesses.csv"))
        assert cols[0] == "j"
        assert [row[0] for row in rows] == ["1", "2", "3", "4"]
        assert "with lines" in (out_dir / "plot.gp").read_text()

    def test_counterexample_command_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["counterexample", "--out", "x"])

    @pytest.mark.parametrize("flag,env", [
        (["--workers", "-3"], None), (["--workers", "0"], None), ([], "-2"), ([], "0"),
    ], ids=["negative-flag", "zero-flag", "negative-env", "zero-env"])
    def test_workers_below_one_is_error(self, capsys, tmp_path, monkeypatch, flag, env):
        monkeypatch.setattr(harness, "run", self.no_work)
        if env is not None:
            monkeypatch.setenv("SCHROMAX_WORKERS", env)
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "seq-classify", "--out", str(out_dir), *flag)
        assert code == 1
        assert err.startswith("error:") and "workers" in err
        assert not out_dir.exists()

    def test_workers_env_not_an_integer_is_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run", self.no_work)
        monkeypatch.setenv("SCHROMAX_WORKERS", "abc")
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "seq-classify", "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error:") and "SCHROMAX_WORKERS" in err and "'abc'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_run_experiment_rejects_workers_below_one(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(harness, "run", self.no_work)
        with pytest.raises(ValueError, match="workers"):
            harness.run_experiment(harness.ExperimentConfig("seq-classify"),
                                   str(tmp_path / "x"), workers=workers)
        assert not (tmp_path / "x").exists()

    @staticmethod
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the worker count was rejected")

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("SCHROMAX_WORKERS", "3")
        assert cli._default_workers() == 3
        monkeypatch.delenv("SCHROMAX_WORKERS")
        assert cli._default_workers() is None


def test_one_front_end_per_experiment():
    """The subcommands are the experiments of harness.EXPERIMENTS, each
    through run_experiment, plus bessel-table, which prints J_nu and K_nu."""
    sub, = (action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == [*harness.EXPERIMENTS, "bessel-table"]


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

    def test_three_halves_kernel_column(self, capsys):
        # K_{3/2}(r) = sqrt(2/pi) sin r / r; from R_{3/2} = 8 on the column is
        # its Hankel expansion, below it jv's value minus the main kernel
        code, out, _ = run_cli(capsys, "bessel-table", "--two-nu", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,J_nu,K_nu_re,K_nu_im"
        for line in lines[1:]:
            r, _, k_re, k_im = line.split(",")
            r = float(r)
            closed_form = math.sqrt(2 / math.pi) * math.sin(r) / r
            assert abs(float(k_re) - closed_form) <= (1e-15 if r >= 8.0 else 3e-14)
            assert k_im == "0.0"

    def test_minus_half_kernel_column_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bessel-table", "--two-nu", "-1",
                               "--count", "3")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            parts = line.split(",")
            assert float(parts[2]) == 0.0 and float(parts[3]) == 0.0
