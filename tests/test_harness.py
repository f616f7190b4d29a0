"""Experiment orchestration: configs, determinism, artifacts, plot emission."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from schromax import harness, maximal, sequences, special
from schromax.harness import ExperimentConfig

SCAN_NAMES = ("theorem1-scan", "eq6-scan", "lemma4-scan")


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
        pytest.param({"experiment": "thm6-ineq", "params": {"profiles": 2.5}},
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

    @pytest.mark.parametrize("s,lam", [(400.0, 16.0), (-400.0, 16.0), (-210.0, 32.0)],
                             ids=["400.0", "-400.0", "-210.0"])
    def test_bound_shape_rejected_before_any_item(self, s, lam, monkeypatch):
        # lam^s overflows a float at s = 400 and underflows to 0 at s = -400; at
        # s = -210, 32^s is subnormal, and a ratio divided by it would overflow
        def no_items(*args):
            raise AssertionError("scan items ran")
        monkeypatch.setattr(harness, "_map_items", no_items)
        with pytest.raises(ValueError, match=f"bound shape at lam = {lam}"):
            harness.run("lemma4-scan", {"s": s})

    def test_infinite_normalized_ratio_names_lambda(self):
        # the smallest normal shape still overflows a ratio of 4
        with pytest.raises(ValueError, match="normalized ratio at lam = 16.0"):
            harness._scan_rows_and_fit([(16.0, 0, 4.0)], {"a": 2.0},
                                       lambda lam, p: sys.float_info.min)

    def test_values_take_the_default_type(self):
        # an int for a float parameter must still print as 2.0 in the CSV
        tables, _, _ = harness.run("theorem1-scan",
                                   {"a": 2, "lam_exponents": [4, 5], "seeds": [0]})
        a = tables["scan.csv"][1][0][3]
        assert type(a) is float and a == 2.0


class TestCsvFormat:
    def test_shortest_roundtrip_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        text = harness._csv_text(("a", "b"), [(0.1, 1), (1 / 3, 2)])
        assert "0.1," in text
        assert repr(1 / 3) in text
        path.write_text(text)
        cols, rows = harness.read_csv(path)
        assert cols == ["a", "b"]
        assert float(rows[1][0]) == 1 / 3

    def test_numpy_scalars_plain_decimals(self):
        text = harness._csv_text(("a", "b"), [(np.float64(0.11044985585722125), np.int64(3))])
        assert text == "a,b\n0.11044985585722125,3\n"

    def test_lf_endings(self, tmp_path):
        cfg = ExperimentConfig("theorem1-scan", {"lam_exponents": [4, 5], "seeds": [0]})
        harness.run_experiment(cfg, str(tmp_path))
        for name in os.listdir(tmp_path):
            assert b"\r" not in (tmp_path / name).read_bytes(), name


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

    @pytest.mark.parametrize("name, params", [
        ("theorem1-scan", {"lam_exponents": [4, 5], "seeds": [0]}),
        ("seq-classify", {})])
    def test_manifest_digests_are_the_file_bytes(self, name, params, tmp_path):
        harness.run_experiment(ExperimentConfig(name, params), str(tmp_path))
        files = json.loads((tmp_path / "manifest.json").read_text())["files"]
        assert set(files) == set(os.listdir(tmp_path)) - {"manifest.json"}
        for file, digest in files.items():
            assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest

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

    def test_library_versions_match_package_metadata(self):
        # the module attributes read the versions that pip installed
        import platform
        from importlib import metadata
        assert harness._library_versions() == {
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}

    def test_scan_writes_plot_files(self, tmp_path):
        cfg = ExperimentConfig("theorem1-scan", {"lam_exponents": [4, 5, 6], "seeds": [0]})
        manifest = harness.run_experiment(cfg, str(tmp_path / "s"))
        assert {"scan.csv", "plot.dat", "plot.gp"} <= set(manifest.files)
        data, script = harness.emit_plot_data(
            *harness.read_csv(str(tmp_path / "s" / "scan.csv")),
            {"x": "lambda", "y": "normalized_ratio"})
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
        # the worst margin is taken over the orders with K_nu != 0
        assert summary["worst_margin"] == max(margins[t] for t in ("0", "2", "3"))
        rows = tables["remainder.csv"][1]
        assert verdict == "pass"
        assert all(rem_norm <= bound for _, _, rem_norm, bound in rows)
        quadrature = summary["schur_quadrature"]
        assert set(quadrature) == set(margins)
        for key in ("-1", "1"):
            assert quadrature[key]["panels"] == 0 and quadrature[key]["tail"] == 0.0
        for key in ("0", "2", "3"):
            nu = special.BesselOrder(int(key))
            assert quadrature[key]["far_radius"] == special.far_radius(nu)
            assert quadrature[key]["panels"] == special.schur_panel_edges(nu).size - 1
            # finite far_radius: the closed-form tail, below the sampled 2 C_nu / sqrt(U)
            assert quadrature[key]["tail"] == special.schur_constant_for_order(int(key)).tail
            assert 0.0 < quadrature[key]["tail"] < (
                2.0 * special.kernel_sup_constant(nu) / math.sqrt(special.SCHUR_UPPER))

    @pytest.mark.parametrize("orders", [[1], [-1, 1], [0, 0], [0, 3, 0]])
    def test_rejects_orders_that_check_nothing(self, orders, monkeypatch):
        # every K_nu = 0 (2nu = -1, 1) would pass with rem_norm = bound = 0, and a
        # repeated order writes duplicate rows
        def no_work(*args):
            raise AssertionError("a Schur constant was computed")
        monkeypatch.setattr(special, "schur_constant_for_order", no_work)
        with pytest.raises(ValueError, match="two_nu_values"):
            harness.run("prop3-bound", {"two_nu_values": orders, "profiles": 1})

    @pytest.mark.parametrize("name", ["prop3-bound", "thm6-ineq"])
    def test_defaults_compute_no_quadrature(self, name, monkeypatch):
        # their orders with K_nu != 0 (2 nu = 0, 2, 3) are tabulated
        def no_quadrature(*args):
            raise AssertionError("a Schur quadrature ran")
        monkeypatch.setattr(special, "schur_quadrature", no_quadrature)
        assert harness.run(name, {})[2] == "pass"

    def test_default_peak(self):
        # one operator per order, each profile's product in turn: 4.73 MiB
        # traced.  The 50 profiles' right-hand sides stacked as one product
        # would hold 384 x 8,000 complex entries, 47 MiB
        harness.run("prop3-bound", {"profiles": 1})
        tracemalloc.start()
        try:
            verdict = harness.run("prop3-bound", {})[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == "pass"
        assert peak <= 6 * 2 ** 20

    def test_vanishing_orders_beside_a_nonzero_kernel(self):
        # the radial workload's orders stay valid
        tables, _, verdict = harness.run("prop3-bound",
                                         {"two_nu_values": [-1, 0, 1, 3], "profiles": 1})
        assert verdict == "pass"
        assert [row[0] for row in tables["remainder.csv"][1]] == [-1, 0, 1, 3]


class TestWindowScan:
    """theorem1-scan fits both window bound shapes to one set of ratios."""

    @pytest.fixture(scope="class")
    def strict_run(self, tmp_path_factory):
        # theorem 1's slope is about -0.77 here and theorem 2's about -0.23
        out = tmp_path_factory.mktemp("window") / "run"
        params = {"lam_exponents": [4, 5, 6], "seeds": [0], "slope_tol": -0.5}
        manifest = harness.run_experiment(ExperimentConfig("theorem1-scan", params), str(out))
        columns, rows = harness.read_csv(str(out / "scan.csv"))
        table = [dict(zip(columns, map(float, row))) for row in rows]
        summary = json.loads((out / "summary.json").read_text())
        return manifest, table, summary

    def test_fits_equal_direct_polyfits(self, strict_run):
        _, table, summary = strict_run
        lams = np.log([row["lambda"] for row in table])
        shape1 = [row["normalized_ratio"] for row in table]
        shape2 = [row["ratio"] / (1.0 + row["J_len"] ** 0.25 * row["lambda"] ** (row["a"] / 4))
                  for row in table]
        slope1, intercept1 = np.polyfit(lams, np.log(shape1), 1)
        slope2, intercept2 = np.polyfit(lams, np.log(shape2), 1)
        assert (summary["slope"], summary["intercept"]) == (slope1, intercept1)
        assert (summary["theorem2"]["slope"], summary["theorem2"]["intercept"]) == (
            slope2, intercept2)
        assert summary["model"] == [0.5, 1.0]
        assert summary["theorem2"]["model"] == [0.25, 0.5]

    def test_verdict_needs_both_shapes(self, strict_run):
        manifest, _, summary = strict_run
        assert summary["slope"] <= -0.5 < summary["theorem2"]["slope"]
        assert summary["theorem2"]["verdict"] == "violation"
        assert summary["verdict"] == manifest.verdict == "violation"

    def test_theorem2_scan_is_gone(self):
        with pytest.raises(ValueError, match="theorem2-scan"):
            ExperimentConfig("theorem2-scan")


class TestScanTimeSamples:
    @pytest.mark.parametrize("name, item, keys, passes", [
        ("theorem1-scan", harness._window_scan_item, ("a", "window", "support"), 1),
        # r = 0.1 at lambda = 16 and 32 needs the edge pass B besides pass A
        ("eq6-scan", harness._product_scan_item, ("a", "window", "ball_radius"), 2),
    ], ids=["theorem1-scan", "eq6-scan"])
    def test_summary_sums_item_counts(self, name, item, keys, passes):
        params = {"lam_exponents": [4, 5], "seeds": [0, 1]}
        _, summary, _ = harness.run(name, params)
        p = harness._resolve_params(name, params)
        window = maximal.TimeWindow(0.0, p["window"])
        counts = [item((2.0 ** e, seed, *(p[k] for k in keys)))[3]
                  for e in (4, 5) for seed in (0, 1)]
        assert counts == [passes * window.time_count(2.0 ** e, p["a"])
                          for e in (4, 5) for seed in (0, 1)]
        assert summary["time_samples"] == sum(counts)

    def test_sequence_scan_records_no_time_samples(self):
        _, summary, _ = harness.run("lemma4-scan", {"lam_exponents": [4, 5], "seeds": [0]})
        assert "time_samples" not in summary


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that runs map serially and
    records the items in the order they arrive."""

    items = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        type(self).items.extend(items)
        return map(fn, items)


class TestScanOrder:
    def test_items_arrive_largest_lambda_first(self, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "items", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
        params = {"lam_exponents": [4, 6, 5], "seeds": [1, 0]}
        tables, _, _ = harness.run("lemma4-scan", params, workers=2)
        sent = [(lam, seed) for lam, seed, *_ in _RecordingPool.items]
        assert sent == [(64.0, 1), (64.0, 0), (32.0, 1), (32.0, 0), (16.0, 1), (16.0, 0)]
        rows = tables["scan.csv"][1]
        assert [(row[0], row[5]) for row in rows] == [
            (16.0, 1), (16.0, 0), (64.0, 1), (64.0, 0), (32.0, 1), (32.0, 0)]

    @pytest.mark.parametrize("name", ["theorem1-scan", "eq6-scan", "lemma4-scan"])
    def test_pool_writes_the_serial_bytes(self, name, tmp_path):
        cfg = ExperimentConfig(name, {"lam_exponents": [4, 5, 6], "seeds": [0, 1]})
        harness.run_experiment(cfg, str(tmp_path / "serial"), workers=1)
        harness.run_experiment(cfg, str(tmp_path / "pool"), workers=2)
        for f in ("scan.csv", "summary.json"):
            assert (tmp_path / "serial" / f).read_bytes() == (tmp_path / "pool" / f).read_bytes()


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

    @pytest.mark.parametrize("alpha", [80.0, 100.0])
    def test_harmonic_power_reads_divergent(self, alpha):
        # sum t_m^r at r = 1 / alpha is the harmonic series, though t_m
        # itself underflows inside the doubling window
        _, summary, verdict = harness.run("seq-classify",
                                          {"gen": "power", "alpha": alpha, "r": 1.0 / alpha})
        assert verdict == "pass"
        assert not summary["lr_convergent"]

    @pytest.mark.parametrize("params", [
        *({"gen": "power", "r": r} for r in (0.5, 1.0, 2.0)),
        *({"gen": "geometric", "r": r} for r in (0.25, 0.5, 1.0, 2.0, 4.0)),
        *({"gen": "log", "r": r} for r in (0.5, 1.0, 2.0, 4.0)),
        *({"gen": "power", "r": 1.0 / alpha, "alpha": alpha}
          for alpha in (0.5, 1.0, 2.0, 4.0, 8.0))])
    def test_known_classes_pass(self, params):
        # power alpha = 1 / r is in weak l^r, geometric in every l^r, log in
        # no weak l^r; the default depth grows with alpha
        assert harness.run("seq-classify", params)[2] == "pass"

    @pytest.mark.parametrize("params", [
        {"gen": "power", "r": 1.0, "alpha": 1.0, "depth": 16},
        {"gen": "power", "r": 0.8, "alpha": 2.0},
        {"gen": "power", "r": 0.2, "alpha": 2.0},
        {"gen": "geometric", "r": 1.0, "ratio": 0.5, "depth": 16},
        {"gen": "log", "r": 1.0, "depth": 9}])
    def test_a_wrong_trend_is_a_violation(self, params, monkeypatch):
        # the verdict reads the generator's class, so flipping the growth
        # flag of weak_lr_trend turns each pass into a violation
        assert harness.run("seq-classify", params)[2] == "pass"
        trend = sequences.weak_lr_trend

        def flipped(*args):
            coarse, fine, growing = trend(*args)
            return coarse, fine, not growing
        monkeypatch.setattr(sequences, "weak_lr_trend", flipped)
        assert harness.run("seq-classify", params)[2] == "violation"

    @pytest.mark.parametrize("params", [
        {"gen": "power", "r": 1.0, "alpha": 1.0, "depth": 16},
        {"gen": "geometric", "r": 1.0, "ratio": 0.5, "depth": 16},
        {"gen": "log", "r": 1.0, "depth": 9}])
    def test_a_miscount_is_a_violation(self, params, monkeypatch):
        # the verdict checks count_above against a direct count of the terms,
        # so one member too many turns each pass into a violation
        assert harness.run("seq-classify", params)[2] == "pass"
        count_above = sequences.TimeSequence.count_above
        monkeypatch.setattr(sequences.TimeSequence, "count_above",
                            lambda seq, b: count_above(seq, b) + 1)
        assert harness.run("seq-classify", params)[2] == "violation"

    @pytest.mark.parametrize("params", [
        {"gen": "power", "r": 1.0}, {"gen": "power", "r": 0.37, "alpha": 2.5},
        {"gen": "geometric", "r": 0.7, "ratio": 0.3}, {"gen": "log", "r": 2.0},
        {"gen": "power", "r": 1.3, "depth": 7}])
    def test_weak_constant_is_the_whole_grid_constant(self, params):
        # the summary takes the larger of the two half-grid constants
        tables, summary, _ = harness.run("seq-classify", params)
        p = harness._resolve_params("seq-classify", params)
        seq = sequences.TimeSequence(p["gen"], alpha=p["alpha"] or 1.0 / p["r"],
                                     ratio=p["ratio"])
        depth = ({"log": 9, "geometric": 16}.get(p["gen"])
                 or min(max(16, math.ceil(8 * seq.alpha)), 1074))
        grid = sequences.default_b_grid(p["depth"] or depth)
        assert summary["weak_constant"] == sequences.weak_lr_constant(seq, p["r"], grid)
        counts = [seq.count_above(b) for b in grid]
        assert [row[1] for row in tables["classify.csv"][1]] == counts


class TestEmitPlotData:
    @pytest.fixture()
    def scan_table(self):
        return (harness.SCAN_COLUMNS,
                [(16.0, 1.0, 0.0, 2.0, 0.0, 0, 3.0, 17.0, 3.0 / 17.0),
                 (32.0, 1.0, 0.0, 2.0, 0.0, 0, 4.0, 33.0, 4.0 / 33.0)])

    def test_projection(self, scan_table):
        data, script = harness.emit_plot_data(
            *scan_table, {"x": "lambda", "y": "normalized_ratio"})
        lines = data.strip().splitlines()
        assert lines[0].split() == [repr(16.0), repr(3.0 / 17.0)]
        assert "set logscale xy" in script
        assert "plot 'plot.dat' with points" in script

    def test_log_transform_and_overlay(self, scan_table):
        data, script = harness.emit_plot_data(
            *scan_table,
            {"x": "lambda", "y": "ratio", "transform_x": "log",
             "transform_y": "log", "overlay": (0.5, -1.0)})
        first_x = float(data.splitlines()[0].split()[0])
        assert first_x == pytest.approx(2.772588722239781)  # log 16
        assert "0.5*x + -1.0 with lines" in script
        assert "logscale" not in script

    def test_missing_column(self, scan_table):
        with pytest.raises(ValueError):
            harness.emit_plot_data(*scan_table, {"x": "lambda", "y": "nope"})

    def test_empty_selection(self, scan_table):
        with pytest.raises(ValueError):
            harness.emit_plot_data(*scan_table, {"x": "", "y": "ratio"})


def test_import_leaves_out_scipy_integrate(tmp_path):
    # scipy stays out of the scan and sequence processes altogether: the
    # uniform-grid (eq6) and the sequence (lemma4) sups, the sequence classes
    # and the convergence probe run on numpy alone, every pool worker is
    # forked from the process that imported the harness, and the manifest
    # reads the scipy version from scipy's version.py without importing it
    cfg = "{'lam_exponents': [4, 5], 'seeds': [0]}"
    code = ("import sys, schromax.harness, schromax.cli; "
            "print('scipy.integrate' in sys.modules); "
            "schromax.harness.run_experiment(schromax.harness.ExperimentConfig("
            f"'eq6-scan', {cfg}), {str(tmp_path / 'eq6')!r}); "
            f"schromax.harness.run('lemma4-scan', {cfg}); "
            "print('scipy.special' in sys.modules); "
            "schromax.harness.run('seq-classify', {}); "
            "schromax.harness.run('convergence-probe', {}); "
            "print('scipy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "False", "False"]
