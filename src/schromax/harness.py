"""Experiment registry, deterministic orchestration and CSV/plot emission.

Every experiment is a pure function of its parameter block; identical configs
produce byte-identical CSV bodies.  Each output directory receives the data
files, the verbatim config, and exactly one manifest with checksums and
timings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from schromax import blowup, maximal, radial, sequences, special, spectral

ARTIFACT_VERSION = "0.1.0"

EXPERIMENT_NAMES = (
    "theorem1-scan",
    "theorem2-scan",
    "eq6-scan",
    "lemma4-scan",
    "prop2-check",
    "prop3-bound",
    "thm6-ineq",
    "thm7-identity",
    "counterexample-growth",
    "seq-classify",
    "convergence-probe",
)

SCAN_COLUMNS = ("lambda", "J_len", "ball_r", "a", "s", "seed",
                "ratio", "predictor", "normalized_ratio")


@dataclass
class ExperimentConfig:
    """Named experiment plus its parameter block (JSON-serializable)."""

    experiment: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.experiment!r}")

    def to_json(self) -> str:
        return json.dumps({"experiment": self.experiment, "params": self.params},
                          sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        return cls(doc["experiment"], doc.get("params", {}))

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass
class RunManifest:
    """Provenance record written once per output directory."""

    experiment: str
    config_sha256: str
    version: str
    files: dict
    timings: dict
    verdict: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"


def _fmt(value) -> str:
    """Shortest-round-trip decimal formatting; bit-stable across platforms."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        columns = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return columns, rows


# ---------------------------------------------------------------------------
# scan machinery shared by the theorem experiments
# ---------------------------------------------------------------------------

def _window_scan_item(args):
    lam, seed, a, window_len, support = args
    grid = spectral.grid_for_bandlimit(lam)
    F = spectral.make_bandlimited_random(lam, support, seed, grid)
    sup = maximal.maximal_over_window(
        F, maximal.TimeWindow(0.0, window_len), a)
    return lam, seed, sup.l2() / F.l2_spatial()


def _product_scan_item(args):
    lam, seed, a, window_len, ball_r = args
    grid = spectral.grid_for_bandlimit(lam)
    F = spectral.make_bandlimited_random(lam, "ball", seed, grid)
    E = maximal.ProductSet(ball_r, maximal.TimeWindow(0.0, window_len))
    sup = maximal.maximal_over_E(F, E, a)
    return lam, seed, sup.l2() / F.l2_spatial()


def _sequence_scan_item(args):
    lam, seed, a, alpha = args
    grid = spectral.grid_for_bandlimit(lam)
    F = spectral.make_bandlimited_random(lam, "annulus", seed, grid)
    seq = sequences.TimeSequence("power", alpha=alpha)
    sup, _ = maximal.maximal_over_sequence(F, seq, a)
    return lam, seed, sup.l2() / F.l2_spatial()


def _map_items(fn, items, workers):
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _scan_rows_and_fit(results, *, a, s, window_len, ball_r, predictor_fn):
    rows = []
    lams, normalized = [], []
    for lam, seed, ratio in results:
        pred = predictor_fn(lam)
        norm = ratio / pred
        rows.append((float(lam), window_len, ball_r, a, s, seed,
                     ratio, pred, norm))
        lams.append(lam)
        normalized.append(norm)
    slope, intercept = np.polyfit(np.log(lams), np.log(normalized), 1)
    return rows, float(slope), float(intercept)


def _run_window_scan(params, workers, model):
    a = float(params.get("a", 2.0))
    window_len = float(params.get("window", 1.0))
    exponents = params.get("lam_exponents", [4, 5, 6, 7, 8, 9])
    seeds = params.get("seeds", [0, 1, 2, 3, 4])
    support = params.get("support", "ball")
    slope_tol = float(params.get("slope_tol", 0.05))
    p, q = model(a)
    items = [(2.0 ** e, seed, a, window_len, support)
             for e in exponents for seed in seeds]
    results = _map_items(_window_scan_item, items, workers)
    rows, slope, intercept = _scan_rows_and_fit(
        results, a=a, s=0.0, window_len=window_len, ball_r=0.0,
        predictor_fn=lambda lam: 1.0 + window_len ** p * lam ** q)
    verdict = "pass" if slope <= slope_tol else "violation"
    summary = {"slope": slope, "intercept": intercept,
               "model": [p, q], "slope_tol": slope_tol, "verdict": verdict}
    return {"scan.csv": (SCAN_COLUMNS, rows)}, summary, verdict


def run_theorem1_scan(params, workers=None):
    return _run_window_scan(params, workers, lambda a: (0.5, a / 2.0))


def run_theorem2_scan(params, workers=None):
    return _run_window_scan(params, workers, lambda a: (0.25, a / 4.0))


def run_eq6_scan(params, workers=None):
    a = float(params.get("a", 2.0))
    window_len = float(params.get("window", 0.25))
    ball_r = float(params.get("ball_radius", 0.1))
    exponents = params.get("lam_exponents", [4, 5, 6, 7, 8])
    seeds = params.get("seeds", [0, 1, 2])
    slope_tol = float(params.get("slope_tol", 0.05))
    items = [(2.0 ** e, seed, a, window_len, ball_r)
             for e in exponents for seed in seeds]
    results = _map_items(_product_scan_item, items, workers)
    rows, slope, intercept = _scan_rows_and_fit(
        results, a=a, s=0.0, window_len=window_len, ball_r=ball_r,
        predictor_fn=lambda lam: maximal.thm3_predictor(lam, window_len, ball_r, a))
    verdict = "pass" if slope <= slope_tol else "violation"
    summary = {"slope": slope, "intercept": intercept,
               "slope_tol": slope_tol, "verdict": verdict}
    return {"scan.csv": (SCAN_COLUMNS, rows)}, summary, verdict


def run_lemma4_scan(params, workers=None):
    a = float(params.get("a", 2.0))
    s = float(params.get("s", 0.5))
    alpha = float(params.get("alpha", 1.0))
    exponents = params.get("lam_exponents", [4, 5, 6, 7, 8])
    seeds = params.get("seeds", [0, 1, 2])
    slope_tol = float(params.get("slope_tol", 0.05))
    items = [(2.0 ** e, seed, a, alpha) for e in exponents for seed in seeds]
    results = _map_items(_sequence_scan_item, items, workers)
    rows, slope, intercept = _scan_rows_and_fit(
        results, a=a, s=s, window_len=0.0, ball_r=0.0,
        predictor_fn=lambda lam: lam ** s)
    verdict = "pass" if slope <= slope_tol else "violation"
    summary = {"slope": slope, "intercept": intercept,
               "slope_tol": slope_tol, "verdict": verdict}
    return {"scan.csv": (SCAN_COLUMNS, rows)}, summary, verdict


# ---------------------------------------------------------------------------
# dimension-reduction experiments
# ---------------------------------------------------------------------------

def run_prop2_check(params, workers=None):
    a = float(params.get("a", 2.0))
    t = float(params.get("t", 0.1))
    tol = float(params.get("rel_tol", 1e-3))
    case = radial.two_route_case(seed=int(params.get("seed", 0)), t=t, a=a)
    rows = [(float(r), h, o, abs(h - o) / o)
            for r, h, o in zip(case["radii"], case["hankel"], case["oracle"])]
    worst = max(row[3] for row in rows)
    verdict = "pass" if worst <= tol else "violation"
    summary = {"max_rel_diff": worst, "rel_tol": tol, "verdict": verdict}
    return ({"two_route.csv": (("r", "hankel", "oracle", "rel_diff"), rows)},
            summary, verdict)


def run_prop3_bound(params, workers=None):
    orders = [int(two_nu) for two_nu in params.get("two_nu_values", [-1, 0, 1, 2, 3])]
    n_profiles = int(params.get("profiles", 50))
    times = np.linspace(0.0, 1.0, 160)
    rows = []
    margins = {}
    for two_nu in orders:
        nu = special.BesselOrder(two_nu)
        bound = special.schur_constant_for_order(two_nu)
        op = None
        for seed in range(n_profiles):
            f1 = radial.random_profile(seed)
            # every profile shares the nodes, so the kernels are built once per order
            op = radial.RemainderOperator(f1, nu, f1.nodes) if op is None else op.for_profile(f1)
            sup = op.rem_sup(times, 2.0)
            rem_norm = float(np.sqrt(np.sum(f1.weights * sup ** 2)))
            rhs = bound * f1.norm()
            margins[two_nu] = max(margins.get(two_nu, -math.inf), rem_norm - rhs)
            rows.append((two_nu, seed, rem_norm, rhs))
    worst_margin = max(margins.values(), default=-math.inf)
    verdict = "pass" if worst_margin <= 0.0 else "violation"
    summary = {"worst_margin": worst_margin,
               "worst_margin_by_two_nu": {str(t): m for t, m in margins.items()},
               "verdict": verdict}
    return ({"remainder.csv": (("two_nu", "seed", "rem_norm", "bound"), rows)},
            summary, verdict)


def run_thm6_ineq(params, workers=None):
    n = int(params.get("n", 2))
    k = int(params.get("k", 0))
    n_profiles = int(params.get("profiles", 10))
    rows = []
    worst = -math.inf
    evolution = radial.thm6_evolution(0, n, k)
    for seed in range(n_profiles):
        lhs, rhs = radial.thm6_sides(seed, n=n, k=k, evolution=evolution)
        rows.append((seed, lhs, rhs))
        worst = max(worst, lhs - rhs)
    verdict = "pass" if worst <= 0.0 else "violation"
    summary = {"worst_margin": worst, "verdict": verdict}
    return ({"ineq.csv": (("seed", "lhs", "rhs"), rows)}, summary, verdict)


def run_thm7_identity(params, workers=None):
    n_profiles = int(params.get("profiles", 5))
    tol = float(params.get("rel_tol", 1e-4))
    rows = []
    worst = 0.0
    for seed in range(n_profiles):
        left, right = radial.thm7_sides(seed)
        diff = abs(left - right) / right
        worst = max(worst, diff)
        rows.append((seed, left, right, diff))
    verdict = "pass" if worst <= tol else "violation"
    summary = {"max_rel_diff": worst, "rel_tol": tol, "verdict": verdict}
    return ({"identity.csv": (("seed", "n4k0", "n2k1", "rel_diff"), rows)},
            summary, verdict)


# ---------------------------------------------------------------------------
# counterexample, sequences, convergence
# ---------------------------------------------------------------------------

def run_counterexample_growth(params, workers=None):
    a = float(params.get("a", 2.0))
    s = float(params.get("s", 0.25))
    n = int(params.get("n", 2))
    eps = float(params.get("eps", 0.02))
    j_values = params.get("j_values", [1, 2, 3, 4, 5, 6])
    slope_lo = float(params.get("slope_lo", 0.4))
    slope_hi = float(params.get("slope_hi", 0.6))
    bp = blowup.BlowupParams(a=a, s=s, n=n, eps=eps)
    reports = blowup.run_family(bp, j_values)
    rows = [(r.scales.j, r.scales.M, r.scales.b, r.scales.lam, r.scales.rho,
             r.hs_norm, r.maximal_norm, r.ratio) for r in reports]
    slope, intercept = blowup.growth_exponent(reports)
    ok = (slope_lo <= slope <= slope_hi
          and all(r.scales.rho / r.scales.lam <= eps * (1 + 1e-12) for r in reports)
          and blowup.drift_monotone(reports)
          and all(r.surrogate_sup <= 0.5 for r in reports if r.scales.j >= 2))
    verdict = "pass" if ok else "violation"
    summary = {"slope": slope, "intercept": intercept,
               "expected_slope": (a - 4.0 * s) / a,
               "surrogates": [r.surrogate_sup for r in reports],
               "ratio_full": [r.ratio_full for r in reports],
               "spurious_fractions": [r.spurious_fraction for r in reports],
               "verdict": verdict}
    return ({"witnesses.csv":
             (("j", "M", "b", "lambda", "rho", "hs_norm", "max_norm", "ratio"),
              rows)},
            summary, verdict)


def run_seq_classify(params, workers=None):
    gen = params.get("gen", "power")
    r = float(params.get("r", 1.0))
    depth = int(params.get("depth", 16 if gen != "log" else 9))
    if gen == "power":
        seq = sequences.TimeSequence("power", alpha=float(params.get("alpha", 1.0 / r)))
    elif gen == "geometric":
        seq = sequences.TimeSequence("geometric", ratio=float(params.get("ratio", 0.5)))
    elif gen == "log":
        seq = sequences.TimeSequence("log")
    else:
        raise ValueError(f"unknown sequence generator {gen!r}")
    b_grid = sequences.default_b_grid(depth)
    rows = [(float(b), seq.count_above(float(b)),
             float(b) ** r * seq.count_above(float(b))) for b in b_grid]
    coarse, fine, growing = sequences.weak_lr_trend(seq, r, b_grid)
    constant = sequences.weak_lr_constant(seq, r, b_grid)
    summary = {"weak_constant": float(constant), "coarse": float(coarse),
               "fine": float(fine), "growing": bool(growing),
               "lr_convergent": sequences.lr_converges(seq, r),
               "verdict": "pass"}
    return ({"classify.csv": (("b", "count", "b_r_count"), rows)},
            summary, "pass")


def run_convergence_probe(params, workers=None):
    a = float(params.get("a", 2.0))
    delta = float(params.get("delta", 1e-3))
    tail_starts = params.get("tail_starts", [1, 5, 20])
    grid = spectral.GridSpec(int(params.get("N", 256)),
                             float(params.get("L", 8.0)))
    xi = grid.xi_nodes()
    F = spectral.SpectralFunction1D(grid, np.exp(-0.5 * xi * xi))
    seq = sequences.TimeSequence("geometric", ratio=0.5)
    rows = []
    measures = []
    for ts in tail_starts:
        m = maximal.convergence_probe(F, seq, a, delta, int(ts))
        rows.append((int(ts), m))
        measures.append(m)
    decreasing = all(m2 <= m1 for m1, m2 in zip(measures, measures[1:]))
    verdict = "pass" if decreasing else "violation"
    summary = {"measures": measures, "verdict": verdict}
    return ({"probe.csv": (("tail_start", "measure"), rows)}, summary, verdict)


RUNNERS = {
    "theorem1-scan": run_theorem1_scan,
    "theorem2-scan": run_theorem2_scan,
    "eq6-scan": run_eq6_scan,
    "lemma4-scan": run_lemma4_scan,
    "prop2-check": run_prop2_check,
    "prop3-bound": run_prop3_bound,
    "thm6-ineq": run_thm6_ineq,
    "thm7-identity": run_thm7_identity,
    "counterexample-growth": run_counterexample_growth,
    "seq-classify": run_seq_classify,
    "convergence-probe": run_convergence_probe,
}


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def run_experiment(cfg: ExperimentConfig, out_dir: str, force: bool = False,
                   workers: int | None = None) -> RunManifest:
    """Execute the named experiment into out_dir and write its manifest.

    Raises on unknown experiments (before any file is written) and on output
    collisions unless force is set.
    """
    runner = RUNNERS.get(cfg.experiment)
    if runner is None:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise FileExistsError(f"output directory {out_dir!r} is not empty "
                              "(use force to overwrite)")
    start = time.perf_counter()
    tables, summary, verdict = runner(cfg.params, workers)
    elapsed = time.perf_counter() - start

    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, (columns, rows) in tables.items():
        path = os.path.join(out_dir, name)
        write_csv(path, columns, rows)
        files[name] = _sha256_file(path)
    with open(os.path.join(out_dir, "summary.json"), "w", newline="\n") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    files["summary.json"] = _sha256_file(os.path.join(out_dir, "summary.json"))
    with open(os.path.join(out_dir, "config.json"), "w", newline="\n") as fh:
        fh.write(cfg.to_json())
    files["config.json"] = _sha256_file(os.path.join(out_dir, "config.json"))

    manifest = RunManifest(
        experiment=cfg.experiment,
        config_sha256=cfg.sha256(),
        version=ARTIFACT_VERSION,
        files=files,
        timings={"total_seconds": elapsed},
        verdict=verdict,
    )
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="\n") as fh:
        fh.write(manifest.to_json())
    return manifest


def emit_plot_data(csv_path: str, spec: dict) -> tuple[str, str]:
    """Project a result CSV onto gnuplot data + script text.

    spec keys: x, y (column names, required), log (bool, default True),
    transform_x / transform_y ("log" applies natural log to the data column),
    overlay (optional (slope, intercept) line in the transformed coordinates).
    Returns (data_text, script_text); writes nothing.
    """
    if not spec.get("x") or not spec.get("y"):
        raise ValueError("plot spec needs x and y column selections")
    columns, rows = read_csv(csv_path)
    try:
        ix = columns.index(spec["x"])
        iy = columns.index(spec["y"])
    except ValueError as exc:
        raise ValueError(f"missing column in {csv_path}: {exc}") from None

    def conv(value, which):
        v = float(value)
        if spec.get(f"transform_{which}") == "log":
            v = math.log(v)
        return v

    data_lines = [f"{_fmt(conv(row[ix], 'x'))} {_fmt(conv(row[iy], 'y'))}"
                  for row in rows]
    data_text = "\n".join(data_lines) + "\n"
    data_name = spec.get("data_name", "plot.dat")
    logscale = "set logscale xy\n" if spec.get("log", True) and \
        not spec.get("transform_x") else ""
    script = [f"set xlabel '{spec['x']}'", f"set ylabel '{spec['y']}'"]
    if logscale:
        script.append(logscale.strip())
    plot = f"plot '{data_name}' with points"
    if "overlay" in spec:
        slope, intercept = spec["overlay"]
        plot += f", {_fmt(float(slope))}*x + {_fmt(float(intercept))} with lines"
    script.append(plot)
    return data_text, "\n".join(script) + "\n"
