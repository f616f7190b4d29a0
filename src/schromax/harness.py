"""Experiment table, deterministic orchestration and CSV/plot emission.

Every experiment is a pure function of its parameter block; identical configs
produce byte-identical CSV bodies.  Each output directory receives the data
files, the verbatim config, the gnuplot projection of experiments that have
a plot spec, and exactly one manifest with checksums and timings.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

# radial, special and blowup import scipy.special; they are imported inside
# the runners that use them, so the scans and their pool workers go without.
from schromax import maximal, sequences, spectral

ARTIFACT_VERSION = "0.1.0"

SCAN_COLUMNS = ("lambda", "J_len", "ball_r", "a", "s", "seed",
                "ratio", "predictor", "normalized_ratio")


@dataclass(frozen=True)
class Experiment:
    """One row of EXPERIMENTS.

    ``runner(p, workers)`` returns (tables, summary, ok) for the resolved
    parameters p (see _resolve_params); run turns ok into the verdict.
    ``defaults`` is the only parameter spec: a config may set its keys and
    no others.  ``plot``, if set, holds the emit_plot_data spec that
    run_experiment writes to plot.dat / plot.gp, plus ``csv``, the table it
    projects, and optionally ``overlay_scale`` k, which draws the line
    (k slope, k intercept) of the summary's fit.
    """

    runner: Callable
    defaults: dict
    plot: dict | None = None


def _is_number(value) -> bool:
    """A finite real number; JSON's NaN and Infinity are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_integer(value) -> bool:
    return _is_number(value) and float(value).is_integer()


def _resolve_params(name: str, params: dict) -> dict:
    """The experiment's defaults updated by params.

    Each value must have its default's kind: a list of integers for a list
    (every list parameter holds integers), a string for a string, None or a
    finite number for None, an integer for an int and a finite number for a
    float; numbers are converted to the default's type.  Raises ValueError
    for an unknown experiment, params that are not a dict, a key not in the
    defaults, or a value of the wrong kind, naming the key.
    """
    row = EXPERIMENTS.get(name) if isinstance(name, str) else None
    if row is None:
        raise ValueError(f"unknown experiment {name!r}")
    if not isinstance(params, dict):
        raise ValueError(f"{name} params must be an object, got {params!r}")
    unknown = sorted(set(params) - set(row.defaults))
    if unknown:
        raise ValueError(f"{name} has no parameter {', '.join(map(repr, unknown))} "
                         f"(its parameters: {', '.join(sorted(row.defaults))})")
    p = dict(row.defaults)
    for key, value in params.items():
        default = row.defaults[key]
        if isinstance(default, list):
            kind = "a list of integers"
            ok = isinstance(value, list) and all(map(_is_integer, value))
        elif isinstance(default, str):
            ok, kind = isinstance(value, str), "a string"
        elif default is None:
            ok, kind = value is None or _is_number(value), "null or a finite number"
        elif isinstance(default, int):
            ok, kind = _is_integer(value), "an integer"
        else:
            ok, kind = _is_number(value), "a finite number"
        if not ok:
            raise ValueError(f"{name} parameter {key!r} must be {kind}, got {value!r}")
        if isinstance(default, list):
            value = [int(v) for v in value]
        elif isinstance(default, (float, int)):
            value = type(default)(value)
        p[key] = value
    return p


def _verdict(ok: bool) -> str:
    return "pass" if ok else "violation"


def run(name: str, params: dict, workers: int | None = None):
    """(tables, summary, verdict) of the named experiment, computed in memory;
    the summary records the verdict too."""
    p = _resolve_params(name, params)
    tables, summary, ok = EXPERIMENTS[name].runner(p, workers)
    summary["verdict"] = _verdict(ok)
    return tables, summary, summary["verdict"]


@dataclass
class ExperimentConfig:
    """Named experiment plus its parameter block (JSON-serializable).

    Construction rejects what _resolve_params rejects.
    """

    experiment: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _resolve_params(self.experiment, self.params)

    def to_json(self) -> str:
        return json.dumps({"experiment": self.experiment, "params": self.params},
                          sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict) or "experiment" not in doc:
            raise ValueError('a config must be an object with an "experiment" key')
        return cls(doc["experiment"], doc.get("params", {}))

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass
class RunManifest:
    """Provenance record written once per output directory: besides checksums
    and timings, the resolved parameters, the worker count the runner was
    given and the python, numpy and scipy versions."""

    experiment: str
    config_sha256: str
    version: str
    params: dict
    workers: int
    versions: dict
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


def _csv_text(columns, rows) -> str:
    return "".join(",".join(map(_fmt, line)) + "\n" for line in (columns, *rows))


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        columns = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return columns, rows


# ---------------------------------------------------------------------------
# the scaling scans
# ---------------------------------------------------------------------------

def _window_scan_item(args):
    """(lambda, seed, ratio, time samples) of one window-scan item."""
    lam, seed, a, window_len, support = args
    grid = spectral.grid_for_bandlimit(lam)
    F = spectral.make_bandlimited_random(lam, support, seed, grid)
    sup, samples = maximal.maximal_over_window(F, maximal.TimeWindow(0.0, window_len), a)
    return lam, seed, sup.l2() / F.l2_spatial(), samples


def _product_scan_item(args):
    lam, seed, a, window_len, ball_r = args
    grid = spectral.grid_for_bandlimit(lam)
    F = spectral.make_bandlimited_random(lam, "ball", seed, grid)
    E = maximal.ProductSet(ball_r, maximal.TimeWindow(0.0, window_len))
    sup, samples = maximal.maximal_over_E(F, E, a)
    return lam, seed, sup.l2() / F.l2_spatial(), samples


def _sequence_scan_item(args):
    lam, seed, a, alpha = args
    grid = spectral.grid_for_bandlimit(lam)
    F = spectral.make_bandlimited_random(lam, "annulus", seed, grid)
    seq = sequences.TimeSequence("power", alpha=alpha)
    sup, _ = maximal.maximal_over_sequence(F, seq, a)
    return lam, seed, sup.l2() / F.l2_spatial()


def _sequence_scan_check(lam, p):
    """Reject a lambda whose lemma4 sup would select more sequence members
    above the floor lam^-a / 4 than TimeSequence.members_in allows."""
    floor = maximal.phase_floor(lam, p["a"])
    try:
        count = sequences.TimeSequence("power", alpha=p["alpha"]).count_above(floor)
    except OverflowError:
        count = math.inf
    if count > sequences.MEMBER_CAP:
        raise ValueError(f"lemma4-scan at lam = {lam}, a = {p['a']} and alpha = "
                         f"{p['alpha']} selects {count} sequence members above "
                         f"lam^-a / 4, more than {sequences.MEMBER_CAP}")


def _map_items(fn, items, workers):
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _scan_rows_and_fit(results, p, predictor):
    """scan.csv rows and the (slope, intercept) of log(ratio / predictor)
    against log(lambda).  A column the scan has no parameter for reads 0.0;
    a ratio / predictor that is not finite raises ValueError."""
    window, ball_r, s = p.get("window", 0.0), p.get("ball_radius", 0.0), p.get("s", 0.0)
    rows = []
    for lam, seed, ratio, *_ in results:
        pred = predictor(lam, p)
        normalized = ratio / pred
        if not math.isfinite(normalized):
            raise ValueError(f"the normalized ratio at lam = {lam} is not finite: "
                             f"{ratio} / {pred}")
        rows.append((float(lam), window, ball_r, p["a"], s, seed, ratio, pred, normalized))
    slope, intercept = np.polyfit(np.log([row[0] for row in rows]),
                                  np.log([row[8] for row in rows]), 1)
    return rows, float(slope), float(intercept)


def _run_scan(p, workers, *, item, item_keys, predictor, check=None):
    """Measure item((lambda, seed, *p[item_keys])) for lambda = 2^e, e in
    lam_exponents, and every seed; the scan passes when the fitted slope
    of the normalized ratio is at most slope_tol.  A scan whose items end
    with their time-sample count adds the total to the summary as
    time_samples.  The fit needs two distinct lambdas and at least one
    seed, the random data lambda >= 1, a finite float 2^e, a > 0, and
    ball_radius >= 0 where the scan has one.
    Each lambda's time grid (maximal.TimeWindow.time_count) must have a
    nonzero step and fit in an array; lemma4, which resolves times down to
    lam^-a / 4, the step of a unit window's grid, is checked as a unit window.
    check(lam, p), if set, raises ValueError for a lambda the items cannot
    run, and predictor(lam, p) must be a normal positive finite float at
    every lambda; every check runs before any item.

    The items go to _map_items largest lambda first, so that a pool starts
    the longest items first, and their rows are written in the config's
    order."""
    if len(set(p["lam_exponents"])) < 2 or not p["seeds"]:
        raise ValueError("a scan needs two distinct lam_exponents and a seed, got "
                         f"lam_exponents {p['lam_exponents']} and seeds {p['seeds']}")
    exps = p["lam_exponents"]
    if not (0 <= min(exps) and max(exps) < sys.float_info.max_exp and p["a"] > 0):
        raise ValueError(f"a scan needs 0 <= lam_exponents < {sys.float_info.max_exp} "
                         f"and a > 0, got lam_exponents {exps} and a {p['a']}")
    if not p.get("ball_radius", 0.0) >= 0.0:
        raise ValueError(f"a scan's 'ball_radius' must be nonnegative, "
                         f"got {p['ball_radius']!r}")
    window = maximal.TimeWindow(0.0, p.get("window", 1.0))
    for lam in (2.0 ** e for e in exps):
        window.time_count(lam, p["a"])
        if check is not None:
            check(lam, p)
        try:
            shape = predictor(lam, p)
        except OverflowError:
            shape = math.inf
        if not (isinstance(shape, float) and sys.float_info.min <= shape < math.inf):
            raise ValueError(f"the bound shape at lam = {lam} must be a normal "
                             f"positive finite float, got {shape}")
    items = [(2.0 ** e, seed, *(p[key] for key in item_keys))
             for e in exps for seed in p["seeds"]]
    order = sorted(range(len(items)), key=lambda i: -items[i][0])
    results = [None] * len(items)
    for i, result in zip(order, _map_items(item, [items[i] for i in order], workers)):
        results[i] = result
    rows, slope, intercept = _scan_rows_and_fit(results, p, predictor)
    summary = {"slope": slope, "intercept": intercept, "slope_tol": p["slope_tol"]}
    if len(results[0]) > 3:
        summary["time_samples"] = sum(result[3] for result in results)
    return {"scan.csv": (SCAN_COLUMNS, rows)}, summary, slope <= p["slope_tol"]


def _window_scan(p, workers):
    """The window scan against the predictor 1 + |J|^e lam^{a e} of theorem
    1's bound shape, e = 1/2, in scan.csv and the top-level fit, and of
    theorem 2's, e = 1/4, in the summary's theorem2 entry, fitted to the
    same ratios.  It passes when both slopes are at most slope_tol."""
    def shape(e):
        return lambda lam, _: 1.0 + p["window"] ** e * lam ** (p["a"] * e)
    tables, summary, ok = _run_scan(
        p, workers, item=_window_scan_item, item_keys=("a", "window", "support"),
        predictor=shape(0.5))
    ratios = [(row[0], row[5], row[6]) for row in tables["scan.csv"][1]]
    _, slope, intercept = _scan_rows_and_fit(ratios, p, shape(0.25))
    ok2 = slope <= p["slope_tol"]
    summary["model"] = [0.5, p["a"] * 0.5]
    summary["theorem2"] = {"slope": slope, "intercept": intercept,
                           "model": [0.25, p["a"] * 0.25], "verdict": _verdict(ok2)}
    return tables, summary, ok and ok2


# ---------------------------------------------------------------------------
# dimension-reduction experiments
# ---------------------------------------------------------------------------

def _require_profiles(p):
    """A profile gate with no profile would pass on nothing."""
    if p["profiles"] < 1:
        raise ValueError(f"profiles must be at least 1, got {p['profiles']}")


def _require_positive(name, p, key):
    """Reject a parameter that is not positive, naming the experiment and key."""
    if not p[key] > 0.0:
        raise ValueError(f"{name} parameter {key!r} must be positive, got {p[key]!r}")


def _prop2_check(p, workers):
    _require_positive("prop2-check", p, "a")
    from schromax import radial
    case = radial.two_route_case(seed=p["seed"], t=p["t"], a=p["a"])
    rows = [(float(r), h, o, abs(h - o) / o)
            for r, h, o in zip(case["radii"], case["hankel"], case["oracle"])]
    worst = max(row[3] for row in rows)
    summary = {"max_rel_diff": worst, "rel_tol": p["rel_tol"]}
    return ({"two_route.csv": (("r", "hankel", "oracle", "rel_diff"), rows)},
            summary, worst <= p["rel_tol"])


def _prop3_bound(p, workers):
    _require_profiles(p)
    from schromax import radial, special
    orders = [special.BesselOrder(int(t)) for t in p["two_nu_values"]]
    # K_nu = 0 for 2nu = -1, 1, where rem_norm = bound = 0 checks nothing
    if (len(set(orders)) < len(orders)
            or all(nu.kernel_vanishes for nu in orders)):
        raise ValueError("prop3-bound needs distinct two_nu_values with at least one "
                         f"outside -1, 1 (K_nu = 0 there), got {p['two_nu_values']!r}")
    times = np.linspace(0.0, 1.0, 160)
    profiles = [radial.random_profile(seed) for seed in range(p["profiles"])]
    rows = []
    margins = {}
    quadrature = {}
    for nu in orders:
        two_nu = nu.two_nu
        schur = special.schur_constant_for_order(two_nu)
        bound = schur.value
        radius = special.far_radius(nu)
        # the tail bounds the part of A_nu beyond SCHUR_UPPER: in closed form
        # where far_radius is finite, from the sampled C_nu where it is null
        quadrature[str(two_nu)] = {
            "far_radius": radius if math.isfinite(radius) else None,
            "panels": schur.panels, "tail": schur.tail}
        # every profile shares the nodes, so the kernel is built once per order
        op = radial.RemainderOperator(profiles[0], nu, profiles[0].nodes)
        for seed, (f1, sup) in enumerate(zip(profiles, op.rem_sup(profiles, times, 2.0))):
            rem_norm = float(np.sqrt(np.sum(f1.weights * sup ** 2)))
            rhs = bound * f1.norm()
            margins[two_nu] = max(margins.get(two_nu, -math.inf), rem_norm - rhs)
            rows.append((two_nu, seed, rem_norm, rhs))
        del op, sup     # this order's kernel and sups, before the next order's
    worst_margin = max(margins[nu.two_nu] for nu in orders if not nu.kernel_vanishes)
    summary = {"worst_margin": worst_margin,
               "worst_margin_by_two_nu": {str(t): m for t, m in margins.items()},
               "schur_quadrature": quadrature}
    return ({"remainder.csv": (("two_nu", "seed", "rem_norm", "bound"), rows)},
            summary, worst_margin <= 0.0)


def _thm6_ineq(p, workers):
    _require_profiles(p)
    from schromax import radial, special
    nu = special.BesselOrder.from_dimension(p["n"], p["k"])
    seeds = range(p["profiles"])
    rows = [(seed, *radial.thm6_sides(seed, nu, sup))
            for seed, sup in zip(seeds, radial.thm6_sups(seeds, nu))]
    worst = max(lhs - rhs for _, lhs, rhs in rows)
    return ({"ineq.csv": (("seed", "lhs", "rhs"), rows)}, {"worst_margin": worst},
            worst <= 0.0)


# ---------------------------------------------------------------------------
# counterexample, sequences, convergence
# ---------------------------------------------------------------------------

def _counterexample_growth(p, workers):
    j = p["j_values"]
    # three stages for the slope fit, in the order drift_monotone compares; M_j > 1
    if not (len(j) >= 3 and np.all(np.diff(j) > 0) and min(j) >= -2):
        raise ValueError("counterexample-growth parameter 'j_values' must hold at least 3 "
                         f"strictly increasing stages j >= -2, got {j}")
    from schromax import blowup
    a, s, eps = p["a"], p["s"], p["eps"]
    reports = blowup.run_family(blowup.BlowupParams(a=a, s=s, n=p["n"], eps=eps),
                                p["j_values"])
    rows = [(r.scales.j, r.scales.M, r.scales.b, r.scales.lam, r.scales.rho,
             r.hs_norm, r.maximal_norm, r.ratio) for r in reports]
    slope, intercept = blowup.growth_exponent(reports)
    ok = (p["slope_lo"] <= slope <= p["slope_hi"]
          and all(r.scales.rho / r.scales.lam <= eps * (1 + 1e-12) for r in reports)
          and blowup.drift_monotone(reports)
          and all(r.surrogate_sup <= 0.5 for r in reports if r.scales.j >= 2))
    summary = {"slope": slope, "intercept": intercept,
               "expected_slope": (a - 4.0 * s) / a,
               "surrogates": [r.surrogate_sup for r in reports],
               "ratio_full": [r.ratio_full for r in reports],
               "spurious_fractions": [r.spurious_fraction for r in reports]}
    return ({"witnesses.csv":
             (("j", "M", "b", "lambda", "rho", "hs_norm", "max_norm", "ratio"),
              rows)},
            summary, ok)


def _seq_classify(p, workers):
    gen, r = p["gen"], p["r"]
    depth = p["depth"]
    if depth is not None and not (_is_integer(depth) and depth >= 1):
        raise ValueError(f"seq-classify parameter 'depth' must be null or a "
                         f"positive integer, got {depth!r}")
    _require_positive("seq-classify", p, "r")
    alpha = float(p["alpha"]) if p["alpha"] is not None else 1.0 / r
    seq = sequences.TimeSequence(gen, alpha=alpha, ratio=p["ratio"])
    # power data hold about 2^(depth / alpha) members above 2^-depth, so the default
    # depth 8 alpha reaches 2^8 of them; 2^-1074 is the least positive float
    if depth is None:
        depth = ({"log": 9, "geometric": 16}.get(gen)
                 or min(max(16, math.ceil(8 * seq.alpha)), 1074))
    b_grid = sequences.default_b_grid(int(depth))
    try:
        counts = [seq.count_above(float(b)) for b in b_grid]
    except (OverflowError, ValueError):
        raise ValueError(f"seq-classify parameter 'depth' = {depth} is too large: 2^-depth "
                         "or the count above it leaves the float range") from None
    rows = [(float(b), c, float(b) ** r * c) for b, c in zip(b_grid, counts)]
    # the halves partition the grid, so their larger constant is the grid's
    coarse, fine, growing = sequences.weak_lr_trend(seq, r, b_grid)
    summary = {"weak_constant": max(coarse, fine), "coarse": float(coarse),
               "fine": float(fine), "growing": bool(growing),
               "lr_convergent": sequences.lr_converges(seq, r)}
    # the verdict: the summary reads the generator's known class.  The power
    # sequence is in weak l^{1/alpha} with a constant near 1, and in no weak
    # l^r for r < 1/alpha; geometric is in every l^r, log in no weak l^r
    if gen == "power" and math.isclose(r * seq.alpha, 1.0):
        ok = 0.9 <= summary["weak_constant"] <= 1.5 and not growing
    elif gen == "power":
        ok = growing == (r < 1.0 / seq.alpha)
    elif gen == "geometric":
        ok = summary["lr_convergent"] and not growing
    else:
        ok = growing
    # and the closed-form counts must match a direct count over the terms,
    # each within the slice of one prefix that holds them all
    checked = [(b, c) for b, c in zip(b_grid, counts) if c <= 2 ** 16]
    if ok and checked:
        terms = seq.prefix(max(c for _, c in checked) + 2)
        ok = all(np.count_nonzero(terms[:c + 2] > b) == c for b, c in checked)
    return ({"classify.csv": (("b", "count", "b_r_count"), rows)}, summary, ok)


def _convergence_probe(p, workers):
    starts = p["tail_starts"]
    if not starts or min(starts) < 1 or np.any(np.diff(starts) <= 0):
        raise ValueError("convergence-probe needs tail_starts, a nonempty strictly "
                         f"increasing list of sequence indices >= 1, got {starts}")
    _require_positive("convergence-probe", p, "a")
    _require_positive("convergence-probe", p, "delta")
    grid = spectral.GridSpec(p["N"], p["L"])
    xi = grid.xi_nodes()
    F = spectral.SpectralFunction1D(grid, np.exp(-0.5 * xi * xi))
    seq = sequences.TimeSequence("geometric", ratio=0.5)
    measures = [maximal.convergence_probe(F, seq, p["a"], p["delta"], ts) for ts in starts]
    rows = list(zip(starts, measures))
    decreasing = all(m2 <= m1 for m1, m2 in zip(measures, measures[1:]))
    return ({"probe.csv": (("tail_start", "measure"), rows)}, {"measures": measures},
            decreasing)


_SCAN_PLOT = {"csv": "scan.csv", "x": "lambda", "y": "normalized_ratio"}

EXPERIMENTS = {
    "theorem1-scan": Experiment(
        _window_scan,
        {"a": 2.0, "window": 1.0, "support": "ball", "slope_tol": 0.05,
         "lam_exponents": [4, 5, 6, 7, 8, 9], "seeds": [0, 1, 2, 3, 4]},
        _SCAN_PLOT),
    "eq6-scan": Experiment(
        partial(_run_scan, item=_product_scan_item,
                item_keys=("a", "window", "ball_radius"),
                predictor=lambda lam, p: maximal.thm3_predictor(
                    lam, p["window"], p["ball_radius"], p["a"])),
        {"a": 2.0, "window": 0.25, "ball_radius": 0.1, "slope_tol": 0.05,
         "lam_exponents": [4, 5, 6, 7, 8], "seeds": [0, 1, 2]},
        _SCAN_PLOT),
    "lemma4-scan": Experiment(
        partial(_run_scan, item=_sequence_scan_item, item_keys=("a", "alpha"),
                predictor=lambda lam, p: lam ** p["s"], check=_sequence_scan_check),
        {"a": 2.0, "s": 0.5, "alpha": 1.0, "slope_tol": 0.05,
         "lam_exponents": [4, 5, 6, 7, 8], "seeds": [0, 1, 2]},
        _SCAN_PLOT),
    "prop2-check": Experiment(
        _prop2_check, {"a": 2.0, "t": 0.1, "rel_tol": 1e-3, "seed": 0}),
    "prop3-bound": Experiment(
        _prop3_bound, {"two_nu_values": [-1, 0, 1, 2, 3], "profiles": 50}),
    "thm6-ineq": Experiment(_thm6_ineq, {"n": 2, "k": 0, "profiles": 10}),
    "counterexample-growth": Experiment(
        _counterexample_growth,
        {"a": 2.0, "s": 0.25, "n": 2, "eps": 0.02, "j_values": [1, 2, 3, 4, 5, 6],
         "slope_lo": 0.4, "slope_hi": 0.6},
        # growth_exponent fits log(ratio^2), so the line in (log M, log ratio)
        # has half its slope and intercept
        {"csv": "witnesses.csv", "x": "M", "y": "ratio", "transform_x": "log",
         "transform_y": "log", "overlay_scale": 0.5}),
    "seq-classify": Experiment(
        # depth None: 9 for gen "log", 16 for "geometric", ceil(8 alpha) in
        # [16, 1074] for "power"; alpha None: 1 / r
        _seq_classify,
        {"gen": "power", "r": 1.0, "depth": None, "alpha": None, "ratio": 0.5}),
    "convergence-probe": Experiment(
        _convergence_probe,
        {"a": 2.0, "delta": 1e-3, "tail_starts": [1, 5, 20], "N": 256, "L": 8.0}),
}


def _library_versions() -> dict:
    """The python, numpy and scipy versions.  scipy's is read from the
    `version = "..."` line of the version.py that `import scipy` would read,
    so that processes which load no scipy otherwise do not import it."""
    import importlib.util
    import platform
    import re

    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    with open(os.path.join(scipy_dir, "version.py"), encoding="utf-8") as fh:
        scipy_version = re.search(r'^version = "(.+)"$', fh.read(), re.M).group(1)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version}


def run_experiment(cfg: ExperimentConfig, out_dir: str, force: bool = False,
                   workers: int | None = None) -> RunManifest:
    """Execute the named experiment into out_dir and write its manifest,
    whose digests are the SHA-256 of each artifact's text as written (UTF-8).

    Raises ValueError on a malformed config (see _resolve_params) or a
    worker count below 1 before any work or file write, and FileExistsError
    on output collisions unless force is set.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise FileExistsError(f"output directory {out_dir!r} is not empty "
                              "(use force to overwrite)")
    params = _resolve_params(cfg.experiment, cfg.params)
    start = time.perf_counter()
    tables, summary, verdict = run(cfg.experiment, params, workers)
    elapsed = time.perf_counter() - start

    texts = {name: _csv_text(*table) for name, table in tables.items()}
    texts["summary.json"] = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    texts["config.json"] = cfg.to_json()
    plot = EXPERIMENTS[cfg.experiment].plot
    if plot is not None:
        spec = dict(plot)
        columns, rows = tables[spec.pop("csv")]
        scale = spec.pop("overlay_scale", None)
        if scale is not None:
            spec["overlay"] = (scale * summary["slope"], scale * summary["intercept"])
        texts["plot.dat"], texts["plot.gp"] = emit_plot_data(columns, rows, spec)
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        files[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    manifest = RunManifest(
        experiment=cfg.experiment,
        config_sha256=cfg.sha256(),
        version=ARTIFACT_VERSION,
        params=params,
        workers=workers or 1,
        versions=_library_versions(),
        files=files,
        timings={"total_seconds": elapsed},
        verdict=verdict,
    )
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="\n") as fh:
        fh.write(manifest.to_json())
    return manifest


def emit_plot_data(columns, rows, spec: dict) -> tuple[str, str]:
    """Project a result table (a runner's, or one read_csv read back: each
    plotted cell goes through float()) onto gnuplot data + script text.

    spec keys: x, y (column names, required), transform_x / transform_y
    ("log" applies natural log to the data column; without transform_x the
    axes are log-scaled instead), overlay (optional (slope, intercept) line
    in the transformed coordinates).  Returns (data_text, script_text) for
    plot.dat / plot.gp; writes nothing.
    """
    if not spec.get("x") or not spec.get("y"):
        raise ValueError("plot spec needs x and y column selections")
    try:
        ix = list(columns).index(spec["x"])
        iy = list(columns).index(spec["y"])
    except ValueError as exc:
        raise ValueError(f"missing plot column: {exc}") from None

    def conv(value, which):
        v = float(value)
        if spec.get(f"transform_{which}") == "log":
            v = math.log(v)
        return v

    data_lines = [f"{_fmt(conv(row[ix], 'x'))} {_fmt(conv(row[iy], 'y'))}"
                  for row in rows]
    data_text = "\n".join(data_lines) + "\n"
    script = [f"set xlabel '{spec['x']}'", f"set ylabel '{spec['y']}'"]
    if not spec.get("transform_x"):
        script.append("set logscale xy")
    plot = "plot 'plot.dat' with points"
    if "overlay" in spec:
        slope, intercept = spec["overlay"]
        plot += f", {_fmt(float(slope))}*x + {_fmt(float(intercept))} with lines"
    script.append(plot)
    return data_text, "\n".join(script) + "\n"
