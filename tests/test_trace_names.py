"""The benchmark's tracer (perfbench/spans.py) wraps program functions and
methods by name.  This runs it in a fresh interpreter over small radial
experiments and small translation and window scans, and checks that their
spans and counters still record and that its time-sample count is the one
the scan summaries record."""

import json
import os
import subprocess
import sys

from schromax import maximal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
import spans
from schromax import harness

tracer = spans.Tracer()
spans.install(tracer)
harness.run("prop2-check", {})
harness.run("prop3-bound", {"two_nu_values": [-1, 0], "profiles": 1})
harness.run("thm6-ineq", {"profiles": 1})
harness.run("counterexample-growth", {"j_values": [1, 2, 3]})


def inside(span, name):
    parent = span[3]
    while parent >= 0:
        if tracer.spans[parent][0] == name:
            return True
        parent = tracer.spans[parent][3]
    return False


nested = sum(inside(s, "radial.HankelEvolution.sup_field") for s in tracer.spans
             if s[0] == "radial.RemainderOperator.rem_sup")
print(json.dumps({"metrics": spans.layer_metrics(tracer), "nested": nested}))
"""


SCAN_SCRIPT = """
import json
import spans
from schromax import harness

tracer = spans.Tracer()
spans.install(tracer)
_, summary, _ = harness.run({name!r}, {{"lam_exponents": [4, 5], "seeds": [0]}})
print(json.dumps({{"metrics": spans.layer_metrics(tracer), "summary": summary}}))
"""


def _traced(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_tracer_finds_radial_names():
    result = _traced(SCRIPT)
    m = result["metrics"]
    # prop3-bound builds one operator per order; prop2-check and thm6-ineq
    # build one evolution each, and each of the three stages one evolution
    # and one operator on all of its radii
    assert m["radial.RemainderOperator.builds"] == 2 + 3
    assert m["radial.HankelEvolution.builds"] == 1 + 1 + 3
    assert m["blowup.lower_bound_scan.calls"] == 3
    assert m["radial.RemainderOperator.rem_sup.s"] > 0
    assert m["radial.HankelEvolution.sup_field.s"] > 0
    assert m["radial.RemainderOperator.kernel_entries"] > 0
    assert m["radial.two_route_case.s"] > 0
    assert m["radial.thm6_sides.s"] > 0
    assert result["nested"] == 0


def _time_count(window, lam):
    return maximal.TimeWindow(0.0, window).time_count(lam, 2.0)


def test_benchmark_tracer_finds_translation_names():
    result = _traced(SCAN_SCRIPT.format(name="eq6-scan"))
    m, summary = result["metrics"], result["summary"]
    # one maximal_over_E call per (lambda, seed) item
    assert m["maximal.maximal_over_E.calls"] == 2
    assert m["maximal.offsets"] > 0
    assert m["spectral.sup_over_times.samples"] > 0
    # r = 0.1 at lambda = 16 and 32: pass A and the edge pass B, each
    # evaluated once on the item's time grid
    assert m["spectral.sup_over_times.calls"] == 2 * 2
    assert m["maximal.time_samples"] == summary["time_samples"] == 2 * (
        _time_count(0.25, 16.0) + _time_count(0.25, 32.0))


def test_benchmark_tracer_counts_window_samples():
    result = _traced(SCAN_SCRIPT.format(name="theorem1-scan"))
    m, summary = result["metrics"], result["summary"]
    assert m["maximal.maximal_over_window.calls"] == 2
    # one pass per item over its time grid
    assert m["spectral.sup_over_times.calls"] == 2
    assert m["maximal.time_samples"] == summary["time_samples"] == (
        _time_count(1.0, 16.0) + _time_count(1.0, 32.0))
