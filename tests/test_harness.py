"""Experiment orchestration: configs, determinism, artifacts, plot emission."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from schromax import harness
from schromax.harness import ExperimentConfig

SCAN_NAMES = ("theorem1-scan", "theorem2-scan", "eq6-scan", "lemma4-scan")


class TestConfig:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentConfig("nonsense")

    def test_json_roundtrip(self):
        cfg = ExperimentConfig("seq-classify", {"gen": "power", "r": 0.5})
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        assert back.sha256() == cfg.sha256()

    def test_hash_sensitive_to_params(self):
        a = ExperimentConfig("seq-classify", {"r": 0.5})
        b = ExperimentConfig("seq-classify", {"r": 1.0})
        assert a.sha256() != b.sha256()

    @pytest.mark.parametrize("name", list(harness.EXPERIMENTS))
    def test_unknown_key_rejected_before_any_write(self, name, tmp_path):
        with pytest.raises(ValueError, match="lam_exponent'"):
            ExperimentConfig(name, {"lam_exponent": [4]})
        cfg = ExperimentConfig(name)
        cfg.params["lam_exponent"] = [4]  # bypass constructor validation
        out = tmp_path / "never"
        with pytest.raises(ValueError, match="lam_exponent'"):
            harness.run_experiment(cfg, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("doc,key", [
        pytest.param({"experiment": "eq6-scan", "params": {"lam_exponents": 5}},
                     "lam_exponents", id="list-not-list"),
        pytest.param({"experiment": "eq6-scan", "params": {"seeds": [0, "1"]}},
                     "seeds", id="list-of-strings"),
        pytest.param({"experiment": "eq6-scan", "params": {"seeds": [0.5, 1]}},
                     "seeds", id="list-of-fractions"),
        pytest.param({"experiment": "eq6-scan", "params": {"a": None}},
                     "'a'", id="number-null"),
        pytest.param({"experiment": "eq6-scan", "params": {"a": "2"}},
                     "'a'", id="number-string"),
        pytest.param({"experiment": "eq6-scan", "params": {"a": math.inf}},
                     "'a'", id="number-infinite"),
        pytest.param({"experiment": "eq6-scan", "params": {"a": math.nan}},
                     "'a'", id="number-nan"),
        pytest.param({"experiment": "thm7-identity", "params": {"profiles": 2.5}},
                     "profiles", id="int-fraction"),
        pytest.param({"experiment": "seq-classify", "params": {"depth": [9]}},
                     "depth", id="null-list"),
        pytest.param({"experiment": "seq-classify", "params": {"gen": 2}},
                     "gen", id="string-number"),
        pytest.param({"experiment": "eq6-scan", "params": [4]},
                     "params", id="params-not-object"),
        pytest.param({"params": {}}, "experiment", id="no-experiment"),
    ])
    def test_malformed_config_rejected_before_any_write(self, doc, key, tmp_path):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_json(json.dumps(doc))
        if "experiment" in doc:
            cfg = ExperimentConfig(doc["experiment"])
            cfg.params = doc["params"]  # bypass constructor validation
            out = tmp_path / "never"
            with pytest.raises(ValueError, match=key):
                harness.run_experiment(cfg, str(out))
            assert not out.exists()

    @pytest.mark.parametrize("name", SCAN_NAMES)
    @pytest.mark.parametrize("params", [{"lam_exponents": [4]},
                                        {"lam_exponents": [4, 4]},
                                        {"seeds": []}])
    def test_degenerate_scan_rejected_before_any_item(self, name, params,
                                                      monkeypatch, tmp_path):
        def no_items(*args):
            raise AssertionError("scan items ran")
        monkeypatch.setattr(harness, "_map_items", no_items)
        out = tmp_path / "never"
        with pytest.raises(ValueError, match="two distinct lam_exponents"):
            harness.run_experiment(ExperimentConfig(name, params), str(out))
        assert not out.exists()

    def test_values_take_the_default_type(self):
        # an int for a float parameter must still print as 2.0 in the CSV
        tables, _, _ = harness.run("theorem2-scan",
                                   {"a": 2, "lam_exponents": [4, 5], "seeds": [0]})
        a = tables["scan.csv"][1][0][3]
        assert type(a) is float and a == 2.0


class TestCsvFormat:
    def test_shortest_roundtrip_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        harness.write_csv(path, ("a", "b"), [(0.1, 1), (1 / 3, 2)])
        text = path.read_text()
        assert "0.1," in text
        assert repr(1 / 3) in text
        cols, rows = harness.read_csv(path)
        assert cols == ["a", "b"]
        assert float(rows[1][0]) == 1 / 3

    def test_numpy_scalars_plain_decimals(self, tmp_path):
        path = tmp_path / "t.csv"
        harness.write_csv(path, ("a", "b"), [(np.float64(0.11044985585722125), np.int64(3))])
        assert path.read_text() == "a,b\n0.11044985585722125,3\n"

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        harness.write_csv(path, ("a",), [(1.0,)])
        assert b"\r" not in path.read_bytes()


class TestRunExperiment:
    def test_collision_without_force(self, tmp_path):
        out = tmp_path / "run"
        cfg = ExperimentConfig("seq-classify", {"gen": "power", "r": 1.0})
        harness.run_experiment(cfg, str(out))
        with pytest.raises(FileExistsError):
            harness.run_experiment(cfg, str(out))
        harness.run_experiment(cfg, str(out), force=True)

    def test_unknown_experiment_writes_nothing(self, tmp_path):
        cfg = ExperimentConfig("seq-classify")
        cfg.experiment = "bogus"  # bypass constructor validation
        out = tmp_path / "never"
        with pytest.raises(ValueError):
            harness.run_experiment(cfg, str(out))
        assert not out.exists()

    def test_artifact_set_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        cfg = ExperimentConfig("seq-classify", {"gen": "geometric", "r": 1.0})
        manifest = harness.run_experiment(cfg, str(out))
        names = set(os.listdir(out))
        assert names == {"classify.csv", "summary.json", "config.json",
                         "manifest.json"}
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config_sha256"] == cfg.sha256()
        assert doc["version"] == harness.ARTIFACT_VERSION
        assert set(doc["files"]) == names - {"manifest.json"}
        assert manifest.verdict == "pass"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = ExperimentConfig("seq-classify", {"gen": "power", "r": 0.5})
        m1 = harness.run_experiment(cfg, str(tmp_path / "a"))
        m2 = harness.run_experiment(cfg, str(tmp_path / "b"))
        assert m1.files == m2.files
        assert (tmp_path / "a" / "classify.csv").read_bytes() == \
            (tmp_path / "b" / "classify.csv").read_bytes()

    def test_convergence_probe_runs(self, tmp_path):
        cfg = ExperimentConfig("convergence-probe")
        manifest = harness.run_experiment(cfg, str(tmp_path / "p"))
        assert manifest.verdict == "pass"
        summary = json.loads((tmp_path / "p" / "summary.json").read_text())
        assert len(summary["measures"]) == 3

    def test_manifest_records_resolved_params_workers_versions(self, tmp_path):
        harness.run_experiment(ExperimentConfig("convergence-probe"), str(tmp_path / "p"))
        doc = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert doc["params"]["N"] == 256
        assert doc["params"] == harness.EXPERIMENTS["convergence-probe"].defaults
        assert doc["workers"] == 1
        assert set(doc["versions"]) == {"python", "numpy", "scipy"}
        assert doc["versions"]["numpy"] == np.__version__

    def test_scan_writes_plot_files(self, tmp_path):
        cfg = ExperimentConfig("theorem2-scan", {"lam_exponents": [4, 5, 6], "seeds": [0]})
        manifest = harness.run_experiment(cfg, str(tmp_path / "s"))
        assert {"scan.csv", "plot.dat", "plot.gp"} <= set(manifest.files)
        data, script = harness.emit_plot_data(
            str(tmp_path / "s" / "scan.csv"), {"x": "lambda", "y": "normalized_ratio"})
        assert (tmp_path / "s" / "plot.dat").read_text() == data
        assert (tmp_path / "s" / "plot.gp").read_text() == script

    def test_config_verbatim(self, tmp_path):
        cfg = ExperimentConfig("seq-classify", {"gen": "log", "r": 2.0})
        harness.run_experiment(cfg, str(tmp_path / "c"))
        assert (tmp_path / "c" / "config.json").read_text() == cfg.to_json()


class TestProp3Runner:
    def test_margins_per_order(self):
        tables, summary, verdict = harness.run("prop3-bound", {"profiles": 3})
        margins = summary["worst_margin_by_two_nu"]
        assert set(margins) == {"-1", "0", "1", "2", "3"}
        # nu = +-1/2 have K = 0, so rem_norm = bound = 0; every other order has room
        assert margins["-1"] == 0.0
        assert margins["1"] == 0.0
        assert all(margins[t] < 0.0 for t in ("0", "2", "3"))
        assert summary["worst_margin"] == max(margins.values())
        rows = tables["remainder.csv"][1]
        assert verdict == "pass"
        assert all(rem_norm <= bound for _, _, rem_norm, bound in rows)


class TestSeqClassifyRunner:
    def test_log_flagged_growing(self):
        _, summary, verdict = harness.run("seq-classify", {"gen": "log", "r": 2.0})
        assert verdict == "pass"
        assert summary["growing"]
        assert not summary["lr_convergent"]

    def test_geometric_clean(self):
        _, summary, _ = harness.run("seq-classify", {"gen": "geometric", "r": 0.5})
        assert not summary["growing"]
        assert summary["lr_convergent"]

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            harness.run("seq-classify", {"gen": "zeta"})


class TestEmitPlotData:
    @pytest.fixture()
    def scan_csv(self, tmp_path):
        path = tmp_path / "scan.csv"
        harness.write_csv(path, harness.SCAN_COLUMNS,
                          [(16.0, 1.0, 0.0, 2.0, 0.0, 0, 3.0, 17.0, 3.0 / 17.0),
                           (32.0, 1.0, 0.0, 2.0, 0.0, 0, 4.0, 33.0, 4.0 / 33.0)])
        return path

    def test_projection(self, scan_csv):
        data, script = harness.emit_plot_data(
            str(scan_csv), {"x": "lambda", "y": "normalized_ratio"})
        lines = data.strip().splitlines()
        assert lines[0].split() == [repr(16.0), repr(3.0 / 17.0)]
        assert "set logscale xy" in script
        assert "plot 'plot.dat' with points" in script

    def test_log_transform_and_overlay(self, scan_csv):
        data, script = harness.emit_plot_data(
            str(scan_csv),
            {"x": "lambda", "y": "ratio", "transform_x": "log",
             "transform_y": "log", "overlay": (0.5, -1.0)})
        first_x = float(data.splitlines()[0].split()[0])
        assert first_x == pytest.approx(2.772588722239781)  # log 16
        assert "0.5*x + -1.0 with lines" in script
        assert "logscale" not in script

    def test_missing_column(self, scan_csv):
        with pytest.raises(ValueError):
            harness.emit_plot_data(str(scan_csv), {"x": "lambda", "y": "nope"})

    def test_empty_selection(self, scan_csv):
        with pytest.raises(ValueError):
            harness.emit_plot_data(str(scan_csv), {"x": "", "y": "ratio"})


def test_import_leaves_out_scipy_integrate():
    # scipy.special stays out of the scan processes too: every pool worker
    # is forked from the process that imported the harness
    code = ("import sys, schromax.harness, schromax.cli; "
            "print('scipy.integrate' in sys.modules); "
            "schromax.harness.run('eq6-scan', {'lam_exponents': [4, 5], 'seeds': [0]}); "
            "print('scipy.special' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "False"]
