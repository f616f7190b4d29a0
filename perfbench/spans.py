"""Span tracing around the public functions of each schromax module.

The wrappers live here, not in the program: ``install`` replaces each traced
function or method at every place its callers look it up (several modules
bind functions by name at import time), records one span per call, and
``layer_metrics`` folds the spans into the per-layer metrics.  Spans are kept
in memory and written out once, when the traced round ends.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, payload]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, payload=None):
        """fn wrapped so each call records a span.

        payload(args, kwargs, result) -> number is stored with the span after
        the call returns (a work count such as samples or offsets).
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if payload is not None:
                span[4] = payload(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn, amount=None):
        """fn wrapped to add amount(args, kwargs) (default 1) to a counter; no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += amount(args, kwargs) if amount is not None else 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, value in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "payload": value}) + "\n")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _offset_count(args, kwargs, result):
    # maximal_over_E(F, E, a): spatial offsets of the seed lattice
    F, E = _arg(args, kwargs, 0, "F"), _arg(args, kwargs, 1, "E")
    return float(np.size(E.seed_offsets(F.band_limit)))


def _kernel_entries(args, kwargs, result):
    # __init__(self, f1, nu, out_nodes): kernel matrix size
    f1, out_nodes = _arg(args, kwargs, 1, "f1"), _arg(args, kwargs, 3, "out_nodes")
    return float(np.size(out_nodes)) * np.size(f1.nodes)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions wherever their callers look them up."""
    from schromax import blowup, maximal, radial, sequences, special, spectral

    def patch(modules, attr, wrapped):
        for mod in modules:
            if hasattr(mod, attr):
                setattr(mod, attr, wrapped)

    def sup_samples(args, kwargs, result):
        # sup_over_times(F, t_values, a, ...): one inverse FFT row per time
        F, t_values = _arg(args, kwargs, 0, "F"), _arg(args, kwargs, 1, "t_values")
        rows, n = float(np.size(t_values)), F.grid.point_count
        tracer.counts["spectral.sup_over_times.samples"] += rows * n
        tracer.counts["spectral.sup_over_times.fft_flops"] += 5.0 * rows * n * math.log2(n)
        return rows

    sup = tracer.wrap("spectral.sup_over_times", spectral.sup_over_times, sup_samples)
    patch((spectral, maximal, radial), "sup_over_times", sup)
    for attr in ("propagate", "inverse_transform"):
        patch((spectral, maximal), attr,
              tracer.wrap(f"spectral.{attr}", getattr(spectral, attr)))
    spectral.make_bandlimited_random = tracer.wrap(
        "spectral.make_bandlimited_random", spectral.make_bandlimited_random)

    maximal.maximal_over_window = tracer.wrap(
        "maximal.maximal_over_window", maximal.maximal_over_window,
        lambda args, kwargs, result: 1.0)
    maximal.maximal_over_E = tracer.wrap(
        "maximal.maximal_over_E", maximal.maximal_over_E, _offset_count)
    maximal.maximal_over_sequence = tracer.wrap(
        "maximal.maximal_over_sequence", maximal.maximal_over_sequence,
        lambda args, kwargs, result: float(result[1]))
    maximal.convergence_probe = tracer.wrap(
        "maximal.convergence_probe", maximal.convergence_probe)

    seq_cls = sequences.TimeSequence
    seq_cls.members_in = tracer.wrap("sequences.members_in", seq_cls.members_in,
                                     lambda args, kwargs, result: float(np.size(result)))
    seq_cls.count_above = tracer.count("sequences.count_above.calls", seq_cls.count_above)
    for attr in ("weak_lr_constant", "weak_lr_trend", "lr_converges"):
        setattr(sequences, attr,
                tracer.wrap("sequences.classify", getattr(sequences, attr)))

    special.schur_constant_for_order = tracer.wrap(
        "special.schur_constant_for_order", special.schur_constant_for_order)
    special.kernel_sup_constant = tracer.wrap(
        "special.kernel_sup_constant", special.kernel_sup_constant)
    # called once per quadrature node inside quad, so the counter stays cheap:
    # a Python float has no .size and counts as one evaluation
    patch((special, radial), "remainder_kernel",
          tracer.count("special.remainder_kernel.evals", special.remainder_kernel,
                       lambda args, kwargs: getattr(_arg(args, kwargs, 1, "r"), "size", 1)))

    for cls in (radial.RemainderOperator, radial.HankelEvolution):
        name = f"radial.{cls.__name__}"
        cls.__init__ = tracer.wrap(f"{name}.build", cls.__init__, _kernel_entries)
    radial.RemainderOperator.rem_sup = tracer.wrap(
        "radial.RemainderOperator.rem_sup", radial.RemainderOperator.rem_sup)
    radial.HankelEvolution.sup_field = tracer.wrap(
        "radial.HankelEvolution.sup_field", radial.HankelEvolution.sup_field)
    radial.thm6_sides = tracer.wrap("radial.thm6_sides", radial.thm6_sides)
    radial.two_route_case = tracer.wrap("radial.two_route_case", radial.two_route_case)

    blowup.lower_bound_scan = tracer.wrap("blowup.lower_bound_scan", blowup.lower_bound_scan)


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("spectral.sup_over_times.s", "s", "lower"),
    ("spectral.sup_over_times.calls", "count", "lower"),
    ("spectral.sup_over_times.samples", "count", "lower"),
    ("spectral.sup_over_times.msamples_per_s", "Msamples/s", "higher"),
    ("spectral.sup_over_times.fft_flops", "flop", "lower"),
    ("spectral.propagate.s", "s", "lower"),
    ("spectral.inverse_transform.s", "s", "lower"),
    ("spectral.make_bandlimited_random.s", "s", "lower"),
    ("maximal.maximal_over_window.s", "s", "lower"),
    ("maximal.maximal_over_window.self_s", "s", "lower"),
    ("maximal.maximal_over_window.calls", "count", "lower"),
    ("maximal.maximal_over_E.s", "s", "lower"),
    ("maximal.maximal_over_E.self_s", "s", "lower"),
    ("maximal.maximal_over_E.calls", "count", "lower"),
    ("maximal.maximal_over_sequence.s", "s", "lower"),
    ("maximal.maximal_over_sequence.members", "count", "lower"),
    ("maximal.convergence_probe.s", "s", "lower"),
    ("maximal.offsets", "count", "lower"),
    ("maximal.time_samples", "count", "lower"),
    ("maximal.refine_rounds", "count", "lower"),
    ("maximal.refine_capped", "count", "lower"),
    ("sequences.members_in.s", "s", "lower"),
    ("sequences.members_in.members", "count", "lower"),
    ("sequences.count_above.calls", "count", "lower"),
    ("sequences.classify.s", "s", "lower"),
    ("special.schur_constant_for_order.s", "s", "lower"),
    ("special.schur_constant_for_order.calls", "count", "lower"),
    ("special.kernel_sup_constant.s", "s", "lower"),
    ("special.remainder_kernel.evals", "count", "lower"),
    ("radial.RemainderOperator.builds", "count", "lower"),
    ("radial.RemainderOperator.build_s", "s", "lower"),
    ("radial.RemainderOperator.kernel_entries", "count", "lower"),
    ("radial.RemainderOperator.rem_sup.s", "s", "lower"),
    ("radial.HankelEvolution.builds", "count", "lower"),
    ("radial.HankelEvolution.build_s", "s", "lower"),
    ("radial.HankelEvolution.kernel_entries", "count", "lower"),
    ("radial.HankelEvolution.sup_field.s", "s", "lower"),
    ("radial.thm6_sides.s", "s", "lower"),
    ("radial.two_route_case.s", "s", "lower"),
    ("blowup.lower_bound_scan.s", "s", "lower"),
    ("blowup.lower_bound_scan.calls", "count", "lower"),
    ("harness.theorem1-scan.s", "s", "lower"),
    ("harness.eq6-scan.s", "s", "lower"),
    ("harness.lemma4-scan.s", "s", "lower"),
    ("harness.seq-classify.s", "s", "lower"),
    ("harness.convergence-probe.s", "s", "lower"),
    ("harness.prop2-check.s", "s", "lower"),
    ("harness.prop3-bound.s", "s", "lower"),
    ("harness.thm6-ineq.s", "s", "lower"),
    ("harness.counterexample-growth.s", "s", "lower"),
    ("harness.emit_s", "s", "lower"),
    ("harness.artifact_bytes", "bytes", "lower"),
    ("harness.pool_utilization", "ratio", "higher"),
    ("trace.serial_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# max_rounds of the time refinement in maximal (calls reaching it are 'capped').
REFINE_MAX_ROUNDS = 12


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the recorded spans into the traced per-layer metrics.

    ``.s`` is the time inside outermost spans of a name (nested calls of the
    same name are not counted twice); ``.self_s`` subtracts the time covered
    by child spans.  Refinement rounds are read off the span tree: a
    maximal_over_window / maximal_over_E call evaluates its seed grid once
    and each round once more, per spatial offset.
    """
    spans = tracer.spans
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    payload = defaultdict(float)
    child_time = [0.0] * len(spans)
    sup_children = defaultdict(int)
    sup_child_rows = defaultdict(float)
    for name, start, end, parent, value in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "spectral.sup_over_times":
                sup_children[parent] += 1
                sup_child_rows[parent] += value
    for idx, (name, start, end, parent, value) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        payload[name] += value
        self_time[name] += duration - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] += duration

    rounds = capped = time_samples = 0.0
    for idx, (name, _, _, _, value) in enumerate(spans):
        if name in ("maximal.maximal_over_window", "maximal.maximal_over_E"):
            passes = sup_children[idx] / max(value, 1.0)
            rounds += max(passes - 1.0, 0.0)
            capped += passes - 1.0 >= REFINE_MAX_ROUNDS
            time_samples += sup_child_rows[idx]

    samples = tracer.counts["spectral.sup_over_times.samples"]
    sup_s = total["spectral.sup_over_times"]
    out = {
        "spectral.sup_over_times.s": sup_s,
        "spectral.sup_over_times.calls": calls["spectral.sup_over_times"],
        "spectral.sup_over_times.samples": samples,
        "spectral.sup_over_times.msamples_per_s": samples / sup_s / 1e6 if sup_s else 0.0,
        "spectral.sup_over_times.fft_flops": tracer.counts["spectral.sup_over_times.fft_flops"],
        "spectral.propagate.s": total["spectral.propagate"],
        "spectral.inverse_transform.s": total["spectral.inverse_transform"],
        "spectral.make_bandlimited_random.s": total["spectral.make_bandlimited_random"],
        "maximal.maximal_over_sequence.s": total["maximal.maximal_over_sequence"],
        "maximal.maximal_over_sequence.members": payload["maximal.maximal_over_sequence"],
        "maximal.convergence_probe.s": total["maximal.convergence_probe"],
        "maximal.offsets": payload["maximal.maximal_over_E"],
        "maximal.time_samples": time_samples,
        "maximal.refine_rounds": rounds,
        "maximal.refine_capped": capped,
        "sequences.members_in.s": total["sequences.members_in"],
        "sequences.members_in.members": payload["sequences.members_in"],
        "sequences.count_above.calls": tracer.counts["sequences.count_above.calls"],
        "sequences.classify.s": total["sequences.classify"],
        "special.schur_constant_for_order.s": total["special.schur_constant_for_order"],
        "special.schur_constant_for_order.calls": calls["special.schur_constant_for_order"],
        "special.kernel_sup_constant.s": total["special.kernel_sup_constant"],
        "special.remainder_kernel.evals": tracer.counts["special.remainder_kernel.evals"],
        "radial.thm6_sides.s": total["radial.thm6_sides"],
        "radial.two_route_case.s": total["radial.two_route_case"],
        "blowup.lower_bound_scan.s": total["blowup.lower_bound_scan"],
        "blowup.lower_bound_scan.calls": calls["blowup.lower_bound_scan"],
    }
    for fn in ("maximal_over_window", "maximal_over_E"):
        name = f"maximal.{fn}"
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_time[name]
        out[f"{name}.calls"] = calls[name]
    for cls in ("RemainderOperator", "HankelEvolution"):
        name = f"radial.{cls}"
        out[f"{name}.builds"] = calls[f"{name}.build"]
        out[f"{name}.build_s"] = total[f"{name}.build"]
        out[f"{name}.kernel_entries"] = payload[f"{name}.build"]
    out["radial.RemainderOperator.rem_sup.s"] = total["radial.RemainderOperator.rem_sup"]
    out["radial.HankelEvolution.sup_field.s"] = total["radial.HankelEvolution.sup_field"]
    return out
