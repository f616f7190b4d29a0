"""One round of a workload in a fresh process: import schromax, build the
configs, run every experiment through harness.run_experiment, and print one
JSON line with timings and the output directories.

run.py starts this file; it is not meant to be started by hand.  Every round
is a new process because users pay the import and the cold lru_cache'd Schur
constants on every CLI run.

    python3 perfbench/one_round.py --workload W --seed N --round R --out DIR
        --workers K [--trace SPANS.jsonl] [--guard | --setup-only]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def _guard(harness, configs, out: str) -> list[str]:
    """Run each scan once, shrunk, and check that it honoured the request."""
    import workloads

    problems = []
    for k, cfg in enumerate(configs):
        if cfg.experiment not in workloads.SCAN_EXPERIMENTS:
            continue
        try:
            params = workloads.guard_config(cfg.experiment, cfg.params)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        out_dir = os.path.join(out, f"guard{k}")
        harness.run_experiment(harness.ExperimentConfig(cfg.experiment, params), out_dir)
        columns, rows = harness.read_csv(os.path.join(out_dir, "scan.csv"))
        lam, seed = columns.index("lambda"), columns.index("seed")
        got = [(float(row[lam]), int(row[seed])) for row in rows]
        want = [(2.0 ** e, s) for e in params["lam_exponents"] for s in params["seeds"]]
        if got != want:
            problems.append(f"{cfg.experiment}: config not honoured, "
                            f"asked for (lambda, seed) {want}, got {got}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", default="")
    parser.add_argument("--guard", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from schromax import harness
    import workloads

    configs = [harness.ExperimentConfig(name, params)
               for name, params in workloads.experiments(args.workload, args.seed, args.round)]
    setup_done = time.monotonic()

    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0
    if args.guard:
        problems = _guard(harness, configs, args.out)
        print(json.dumps({"setup_done": setup_done, "problems": problems}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    workers = args.workers if args.workers > 1 else None
    runs = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for k, cfg in enumerate(configs):
        out_dir = os.path.join(args.out, f"{k}-{cfg.experiment}")
        c0, w0 = _cpu_seconds(), time.perf_counter()
        run = {"experiment": cfg.experiment, "params": cfg.params, "out_dir": out_dir}
        try:
            manifest = harness.run_experiment(cfg, out_dir, workers=workers)
            run["verdict"] = manifest.verdict
            run["runner_s"] = manifest.timings["total_seconds"]
        except Exception as exc:  # one failed operation; the round goes on
            run["error"] = f"{type(exc).__name__}: {exc}"
        run["wall_s"] = time.perf_counter() - w0
        run["cpu_s"] = _cpu_seconds() - c0
        runs.append(run)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0

    for run in runs:
        if os.path.isdir(run["out_dir"]):
            run["bytes"] = _dir_bytes(run["out_dir"])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kib": own + child,
        "start_method": multiprocessing.get_start_method(),
        "runs": runs,
    }
    if tracer is not None:
        import spans
        report["layers"] = spans.layer_metrics(tracer)
        tracer.dump(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
