"""The benchmark's tracer (perfbench/spans.py) wraps program functions and
methods by name.  This runs it in a fresh interpreter over small radial
experiments and a small translation scan, and checks that their spans and
counters still record."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
import spans
from schromax import harness

tracer = spans.Tracer()
spans.install(tracer)
harness.run("prop3-bound", {"two_nu_values": [-1, 1], "profiles": 1})
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


TRANSLATION_SCRIPT = """
import json
import spans
from schromax import harness

tracer = spans.Tracer()
spans.install(tracer)
harness.run("eq6-scan", {"lam_exponents": [4, 5], "seeds": [0]})
print(json.dumps(spans.layer_metrics(tracer)))
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
    # prop3-bound builds one operator per order; each of the three stages
    # builds one evolution and one operator on all of its radii
    assert m["radial.RemainderOperator.builds"] == 2 + 3
    assert m["radial.HankelEvolution.builds"] == 3
    assert m["blowup.lower_bound_scan.calls"] == 3
    assert m["radial.RemainderOperator.rem_sup.s"] > 0
    assert m["radial.HankelEvolution.sup_field.s"] > 0
    assert m["radial.RemainderOperator.kernel_entries"] > 0
    assert result["nested"] == 0


def test_benchmark_tracer_finds_translation_names():
    m = _traced(TRANSLATION_SCRIPT)
    # one maximal_over_E call per (lambda, seed) item
    assert m["maximal.maximal_over_E.calls"] == 2
    assert m["maximal.offsets"] > 0
    assert m["spectral.sup_over_times.samples"] > 0
