"""Time-to-verdict benchmark for schromax.

    python3 perfbench/run.py --workload {window,translation,sequence,radial}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the workload runs in rounds, each in a fresh
process, until about ``--seconds`` have been spent, and the end-to-end
metrics are the medians over the rounds.  With ``--trace 1`` it runs one
timed round, one serial untraced round and one serial traced round, and
reports the per-layer metrics and the tracing overhead.  Every experiment's
output is checked after its round; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_BASE = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; no round may start a wait beyond this.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median over at least this many fresh processes per run;
# import-only probes run between the rounds, so the samples spread over the
# run rather than over one moment of machine load.
SETUP_SAMPLES = 11
PROBES_PER_ROUND = 2

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def threads_per_process(workers: int) -> int:
    """BLAS/OpenMP threads so that workers x threads <= nproc."""
    return max(1, nproc() // workers)


class Bench:
    """One benchmark run: starts round processes and checks their outputs."""

    def __init__(self, workload: str, seed: int, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.rounds = 0          # processes started, for output directory names
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []     # value checks that failed
        self.start_method = ""
        self.setups: list[float] = []  # setup_s of every process started

    def _start(self, workers: int, data_round: int, extra: list[str]) -> tuple[dict, float]:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in THREAD_VARS:
            env[var] = str(threads_per_process(workers))
        self.rounds += 1
        out = os.path.join(self.out_dir, f"round{self.rounds}")
        cmd = [sys.executable, os.path.join(HERE, "one_round.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--round", str(data_round), "--out", out,
               "--workers", str(workers)] + extra
        budget = DEADLINE_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise BenchError("out of time before the round could start")
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"round did not finish within {budget:.0f} s") from None
        finally:
            _kill_group(proc.pid)
        if proc.returncode != 0:
            raise BenchError(f"round process failed ({proc.returncode}):\n{stderr}")
        return json.loads(stdout.strip().splitlines()[-1]), spawned

    def guard(self, workers: int) -> None:
        """Before timing: each scan honours its lambda and seed request."""
        if not workloads.has_scans(self.workload):
            return
        report, spawned = self._start(workers, 0, ["--guard"])
        self.setups.append(report["setup_done"] - spawned)
        if report["problems"]:
            raise BenchError("workload config guard: " + "; ".join(report["problems"]))

    def setup_probe(self, workers: int) -> None:
        """A process that only imports schromax and builds the configs."""
        report, spawned = self._start(workers, 0, ["--setup-only"])
        self.setups.append(report["setup_done"] - spawned)

    def round(self, workers: int, data_round: int, trace_path: str = "") -> dict:
        """One round in a fresh process, on the data seeds of ``data_round``;
        its outputs are checked afterwards."""
        report, spawned = self._start(workers, data_round,
                                      ["--trace", trace_path] if trace_path else [])
        report["setup_s"] = report["setup_done"] - spawned
        self.setups.append(report["setup_s"])
        self.start_method = report["start_method"]
        for run in report["runs"]:
            self.attempted += 1
            if "error" in run:
                failure = [f"{run['experiment']} raised {run['error']}"]
            else:
                failure = [] if run["verdict"] == "pass" else \
                    [f"{run['experiment']}: verdict {run['verdict']}"]
                malformed, wrong = checks.check_output(
                    run["experiment"], run["params"], run["out_dir"])
                if run["experiment"] == "prop3-bound":
                    rows, _ = checks.read_table(os.path.join(run["out_dir"], "remainder.csv"))
                    print(f"prop3 worst margin by 2nu: {checks.prop3_worst_margins(rows)}",
                          file=sys.stderr)
                self.wrong += wrong
                failure += malformed + wrong
            if failure:
                self.failed += 1
                print("FAILED " + "; ".join(failure), file=sys.stderr)
        shutil.rmtree(os.path.join(self.out_dir, f"round{self.rounds}"), ignore_errors=True)
        return report


def _kill_group(pid: int) -> None:
    """Stop any process the round left behind (pool workers share its group)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_metrics(bench: Bench, seconds: float, workers: int) -> dict:
    """Rounds until about ``seconds`` are spent, each on fresh data seeds;
    medians of the round metrics."""
    reports = []
    spent = 0.0
    while True:
        began = time.monotonic()
        reports.append(bench.round(workers, len(reports)))
        for _ in range(PROBES_PER_ROUND):
            bench.setup_probe(workers)
        spent += time.monotonic() - began
        # start another round only if at least half of it fits
        if spent + 0.5 * spent / len(reports) >= seconds:
            break
    while len(bench.setups) < SETUP_SAMPLES:
        bench.setup_probe(workers)
    values = {
        "wall_s": [r["wall_s"] for r in reports],
        "cpu_s": [r["cpu_s"] for r in reports],
        "peak_rss_mib": [r["peak_rss_kib"] / 1024.0 for r in reports],
        "setup_s": bench.setups,
    }
    for name, _ in END_TO_END:
        print(f"{name} by round: " + " ".join(f"{v:.4g}" for v in values[name]),
              file=sys.stderr)
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def traced_metrics(bench: Bench, workers: int, spans_path: str) -> dict:
    """Per-layer metrics from a serial traced round, plus the timed-round
    harness figures and the tracing overhead against a serial untraced round.
    All three rounds run on the same data (round 0's seeds)."""
    timed = bench.round(workers, 0)
    serial = bench.round(1, 0) if workers > 1 else timed
    traced = bench.round(1, 0, trace_path=spans_path)
    layers = dict(traced["layers"])

    per_experiment: dict[str, float] = {}
    emit = pooled_cpu = pooled_wall = 0.0
    for run in timed["runs"]:
        name = run["experiment"]
        per_experiment[name] = per_experiment.get(name, 0.0) + run["wall_s"]
        if "runner_s" in run:
            emit += run["wall_s"] - run["runner_s"]
        if name in workloads.SCAN_EXPERIMENTS and workers > 1:
            pooled_cpu += run["cpu_s"]
            pooled_wall += run["wall_s"]
    for name, _, _ in spans.LAYER_METRICS:
        if name.startswith("harness.") and name.endswith(".s"):
            layers[name] = per_experiment.get(name[len("harness."):-len(".s")], 0.0)
    layers["harness.emit_s"] = emit
    layers["harness.artifact_bytes"] = float(sum(run.get("bytes", 0) for run in timed["runs"]))
    layers["harness.pool_utilization"] = (
        pooled_cpu / (pooled_wall * workers) if pooled_wall else 0.0)
    layers["trace.serial_wall_s"] = serial["wall_s"]
    layers["trace.traced_wall_s"] = traced["wall_s"]
    layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / serial["wall_s"] - 1.0)
    return {name: {"value": float(layers[name]), "unit": unit}
            for name, unit, _ in spans.LAYER_METRICS}


def environment(workers: int, start_method: str) -> dict:
    threads = threads_per_process(workers)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "workers": workers,
        "threads_per_process": {var: threads for var in THREAD_VARS},
        "pool_start_method": start_method,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts every workload's data seeds (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "schromax", "harness.py")):
        print(f"error: no schromax sources under {SRC}", file=sys.stderr)
        return 2

    workers = nproc() if workloads.has_scans(args.workload) else 1
    os.makedirs(OUT_BASE, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_BASE)
    bench = Bench(args.workload, args.seed, out_dir)
    try:
        bench.guard(workers)
        if args.trace:
            spans_path = os.path.join(OUT_BASE, f"spans-{args.workload}.jsonl")
            metrics = traced_metrics(bench, workers, spans_path)
        else:
            metrics = timed_metrics(bench, args.seconds, workers)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print("env " + json.dumps(environment(workers, bench.start_method), sort_keys=True))
    print(json.dumps({"correct": not bench.wrong, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
