"""The benchmark's output checks accept real outputs and reject perturbed ones.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from schromax import harness  # noqa: E402

SCANS = {
    "theorem1-scan": {"a": 2.0, "window": 1.0, "support": "ball", "slope_tol": 0.05,
                      "lam_exponents": [4, 5], "seeds": [3]},
    "eq6-scan": {"a": 2.0, "window": 0.25, "ball_radius": 0.1, "slope_tol": 0.05,
                 "lam_exponents": [4, 5], "seeds": [3]},
    "lemma4-scan": {"a": 2.0, "s": 0.5, "alpha": 1.0, "slope_tol": 0.05,
                    "lam_exponents": [4, 5], "seeds": [3]},
}
OTHERS = {
    "prop2-check": {"a": 2.0, "t": 0.1, "rel_tol": 1e-3, "seed": 0},
    "prop3-bound": {"two_nu_values": [-1, 0, 1], "profiles": 2},
    "thm6-ineq": {"n": 2, "k": 0, "profiles": 1},
    "counterexample-growth": {"a": 2.0, "s": 0.25, "n": 2, "eps": 0.02,
                              "j_values": [1, 2, 3, 4, 5, 6],
                              "slope_lo": 0.4, "slope_hi": 0.6},
    "seq-classify": {"gen": "power", "r": 1.0, "alpha": 1.0, "depth": 16},
    "convergence-probe": {"a": 2.0, "delta": 1e-3, "tail_starts": [1, 5, 20],
                          "N": 256, "L": 8.0},
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """experiment -> (params, output directory) from the real program."""
    base = tmp_path_factory.mktemp("out")
    result = {}
    for experiment, params in {**SCANS, **OTHERS}.items():
        out_dir = str(base / experiment)
        harness.run_experiment(harness.ExperimentConfig(experiment, params), out_dir)
        result[experiment] = (params, out_dir)
    return result


def _rows(outputs, experiment):
    params, out_dir = outputs[experiment]
    rows, _ = checks.read_table(os.path.join(out_dir, checks.DATA_FILES[experiment]))
    return params, rows


def _value_check(experiment):
    if experiment in checks.SCAN_SUPPORT:
        return lambda params, rows: checks.check_scan(experiment, params, rows)
    return checks._CHECKS[experiment]


@pytest.mark.parametrize("experiment", sorted({**SCANS, **OTHERS}))
def test_real_output_passes_value_checks(outputs, experiment):
    params, out_dir = outputs[experiment]
    _, wrong = checks.check_output(experiment, params, out_dir)
    assert wrong == []


def _perturbed(rows, index, column, factor):
    rows = copy.deepcopy(rows)
    rows[index][column] *= factor
    return rows


@pytest.mark.parametrize("experiment", sorted(SCANS))
def test_scan_ratio_scaled_down_is_rejected(outputs, experiment):
    params, rows = _rows(outputs, experiment)
    # row 0 is lambda = 16, where the direct sum covers the whole seed set
    assert checks.check_scan(experiment, params, _perturbed(rows, 0, "ratio", 0.9))


@pytest.mark.parametrize("experiment", sorted(SCANS))
def test_scan_ratio_above_linf_bound_is_rejected(outputs, experiment):
    params, rows = _rows(outputs, experiment)
    _, upper = checks.scan_reference(experiment, params, rows[1]["lambda"],
                                     int(rows[1]["seed"]))
    factor = 1.001 * upper / rows[1]["ratio"]
    assert checks.check_scan(experiment, params, _perturbed(rows, 1, "ratio", factor))


def test_scan_rows_must_match_the_request(outputs):
    params, rows = _rows(outputs, "theorem1-scan")
    assert checks.check_scan("theorem1-scan", params, rows[:1])
    asked_more = dict(params, seeds=[3, 4])
    assert checks.check_scan("theorem1-scan", asked_more, rows)


def test_schur_constant_lowered_one_percent_is_rejected(outputs):
    params, rows = _rows(outputs, "prop3-bound")
    index = next(i for i, row in enumerate(rows) if row["two_nu"] == 0)
    assert checks.check_prop3(params, _perturbed(rows, index, "bound", 0.99))


def test_prop3_margin_is_recomputed_from_rows(outputs):
    params, rows = _rows(outputs, "prop3-bound")
    index = next(i for i, row in enumerate(rows) if row["two_nu"] == 0)
    rows = copy.deepcopy(rows)
    rows[index]["rem_norm"] = rows[index]["bound"] * 1.01
    assert checks.check_prop3(params, rows)
    assert checks.prop3_worst_margins(rows)[0] > 0.0


def test_thm6_side_swap_is_rejected(outputs):
    params, rows = _rows(outputs, "thm6-ineq")
    rows = copy.deepcopy(rows)
    rows[0]["lhs"] = rows[0]["rhs"] * 1.01
    assert checks.check_thm6(params, rows)


def test_growth_slope_off_is_rejected(outputs):
    params, rows = _rows(outputs, "counterexample-growth")
    assert checks.check_growth(params, _perturbed(rows, len(rows) - 1, "ratio", 2.0))


def test_classify_count_off_by_one_is_rejected(outputs):
    params, rows = _rows(outputs, "seq-classify")
    rows = copy.deepcopy(rows)
    rows[5]["count"] += 1
    rows[5]["b_r_count"] = rows[5]["b"] ** params["r"] * rows[5]["count"]
    assert checks.check_classify(params, rows)


def test_probe_measure_increase_is_rejected(outputs):
    params, rows = _rows(outputs, "convergence-probe")
    rows = copy.deepcopy(rows)
    rows[-1]["measure"] = rows[0]["measure"] + 0.1
    assert checks.check_probe(params, rows)


def test_prop2_route_mismatch_is_rejected(outputs):
    params, rows = _rows(outputs, "prop2-check")
    assert checks.check_prop2(params, _perturbed(rows, 0, "hankel", 1.01))


def test_numpy_scalar_cells_are_a_format_problem(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("r,v\n1.5,np.float64(0.25)\n2.5,0.5\n")
    rows, problems = checks.read_table(str(path))
    assert rows == [{"r": 1.5, "v": 0.25}, {"r": 2.5, "v": 0.5}]
    assert problems


def test_checksum_mismatch_is_rejected(outputs, tmp_path):
    params, out_dir = outputs["counterexample-growth"]
    assert checks.check_manifest(out_dir, "witnesses.csv") == []
    copy_dir = tmp_path / "ce"
    copy_dir.mkdir()
    for name in os.listdir(out_dir):
        text = open(os.path.join(out_dir, name)).read()
        if name == "witnesses.csv":
            text = text.replace("16.0", "16.5", 1)
        (copy_dir / name).write_text(text)
    assert checks.check_manifest(str(copy_dir), "witnesses.csv")
