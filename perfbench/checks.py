"""Output checks that do not rely on the code under test.

Each check reads the files an experiment wrote and compares them with values
the benchmark computes itself, with numpy and scipy only: direct O(N^2)
Fourier sums for the scan ratios, a Gauss-Legendre quadrature built on
scipy.special.jv for the Schur constants, and brute-force term counts for
the sequence classes.  A check returns a list of problems; an empty list
means the output holds.  References are pure functions of the parameters and
are cached, so a run computes each one once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re

import numpy as np
from scipy.special import jv

# Relative tolerance of the time refinement in schromax.maximal (rel_tol).
REFINE_TOL = 1e-3
# (time, offset) pairs summed directly per scan row.
DIRECT_PAIRS = 1024
# The Schur reference integrates |K_nu(r)| r^{-1/2} over [0, SCHUR_R_MAX].
SCHUR_R_MAX = 1e4
# Relative quadrature error allowed to the Schur reference.
SCHUR_QUAD_TOL = 1e-5
# seq-classify rows whose count exceeds this many terms are beyond brute force.
BRUTE_FORCE_TERMS = 1 << 24
# The fitted witness growth slope may differ from (a - 4s)/a by this much.
GROWTH_SLOPE_TOL = 0.1

_TWO_PI = 2.0 * math.pi


_NUMPY_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def read_table(path: str) -> tuple[list[dict], list[str]]:
    """A data CSV as ({column: float} rows, format problems).

    Cells must be plain decimal numbers.  A cell written as a numpy scalar
    repr, ``np.float64(x)``, is a format problem; its value x is still read
    so that the value checks can run.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    columns = lines[0].split(",")
    rows, wrapped = [], 0
    for line in lines[1:]:
        values = []
        for cell in line.split(","):
            match = _NUMPY_SCALAR.match(cell)
            wrapped += match is not None
            values.append(float(match.group(1) if match else cell))
        rows.append(dict(zip(columns, values)))
    problems = [f"{os.path.basename(path)}: {wrapped} cells are numpy scalar reprs, "
                "not decimal numbers"] if wrapped else []
    return rows, problems


# ---------------------------------------------------------------------------
# scans: direct Fourier sums
# ---------------------------------------------------------------------------

def line_coefficients(lam: float, support: str, seed: int):
    """The benchmark's own copy of the seeded band-limited input.

    Grid: the smallest power of two N >= 256 with N >= 2 lam / pi on [-1, 1),
    xi_k = (k - N/2) pi; Gaussian coefficients on the ball |xi| <= lam or the
    annulus lam/2 <= |xi| <= lam, scaled to unit spatial L2 norm.
    """
    n = 256
    while n < 2.0 * lam / math.pi:
        n *= 2
    xi = (np.arange(n) - n // 2) * math.pi
    mag = np.abs(xi)
    mask = mag <= lam if support == "ball" else (mag >= lam / 2.0) & (mag <= lam)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(n, dtype=np.complex128)
    m = int(mask.sum())
    coeffs[mask] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    coeffs /= math.sqrt(float(np.sum(np.abs(coeffs) ** 2)) * math.pi / _TWO_PI)
    return xi, coeffs


def direct_ratio(xi, coeffs, a: float, times, offsets) -> float:
    """||max_j |u(x + y_j, t_j)| ||_{L2(x)} / ||f|| by direct summation,

    u(x, t) = (1/2pi) sum_k F_k e^{i xi_k x + i t |xi_k|^a} dxi on the grid
    x_j = -1 + j dx, over the (t_j, y_j) pairs given.
    """
    n = xi.size
    dxi, dx = math.pi, 2.0 / n
    x = -1.0 + dx * np.arange(n)
    basis = np.exp(1j * np.outer(x, xi))
    phase = np.outer(np.abs(xi) ** a, times) + np.outer(xi, offsets)
    field = basis @ (coeffs[:, None] * np.exp(1j * phase)) * (dxi / _TWO_PI)
    sup = np.abs(field).max(axis=1)
    norm = math.sqrt(float(np.sum(np.abs(coeffs) ** 2)) * dxi / _TWO_PI)
    return math.sqrt(float(np.sum(sup ** 2)) * dx) / norm


def linf_ratio(coeffs) -> float:
    """(dxi/2pi) sum |F_k| sqrt(2L) / ||f||: no sup over x, t or y exceeds it."""
    dxi = math.pi
    norm = math.sqrt(float(np.sum(np.abs(coeffs) ** 2)) * dxi / _TWO_PI)
    return dxi / _TWO_PI * float(np.sum(np.abs(coeffs))) * math.sqrt(2.0) / norm


def _spread(values: np.ndarray, count: int) -> np.ndarray:
    """At most count entries of values, evenly spaced, first and last included."""
    idx = np.unique(np.round(np.linspace(0, values.size - 1, min(count, values.size))))
    return values[idx.astype(int)]


def seed_times(length: float, lam: float, a: float) -> np.ndarray:
    """Initial time grid on [0, length]: step <= min(length/2, lam^-a / 2)."""
    step = min(0.5 * length, 0.5 * lam ** (-a))
    return np.linspace(0.0, length, max(2, math.ceil(length / step) + 1))


def scan_pairs(experiment: str, params: dict, lam: float):
    """(times, offsets) inside the experiment's set, at most DIRECT_PAIRS of them."""
    a = params["a"]
    if experiment == "theorem1-scan":
        times = _spread(seed_times(params["window"], lam, a), DIRECT_PAIRS)
        return times, np.zeros_like(times)
    if experiment == "eq6-scan":
        r = params["ball_radius"]
        ys = np.linspace(-r, r, max(2, math.ceil(2.0 * r / (0.5 / lam)) + 1))
        ts = seed_times(params["window"], lam, a)
        if ys.size * ts.size > DIRECT_PAIRS:
            ys = _spread(ys, 8)
            ts = _spread(ts, DIRECT_PAIRS // ys.size)
        yy, tt = np.meshgrid(ys, ts)
        return tt.ravel(), yy.ravel()
    if experiment == "lemma4-scan":
        # power sequence t_m = (m + 1)^-alpha: every member above the
        # resolution floor lam^-a / 4, plus the largest member below it
        alpha, floor = params["alpha"], 0.25 * lam ** (-a)
        m = np.arange(1.0, math.ceil(floor ** (-1.0 / alpha)) + 3.0)
        t = (m + 1.0) ** (-alpha)
        members = np.concatenate([t[t > floor], t[t <= floor][:1]])
        times = _spread(members, DIRECT_PAIRS)
        return times, np.zeros_like(times)
    raise ValueError(f"{experiment} is not a scan")


SCAN_SUPPORT = {"theorem1-scan": "ball", "eq6-scan": "ball", "lemma4-scan": "annulus"}


@functools.lru_cache(maxsize=None)
def _scan_reference(experiment: str, params_json: str, lam: float, seed: int):
    params = json.loads(params_json)
    xi, coeffs = line_coefficients(lam, params.get("support", SCAN_SUPPORT[experiment]), seed)
    times, offsets = scan_pairs(experiment, params, lam)
    return direct_ratio(xi, coeffs, params["a"], times, offsets), linf_ratio(coeffs)


def scan_reference(experiment: str, params: dict, lam: float, seed: int):
    """(direct-sum lower value, L-infinity upper value) for one scan row."""
    return _scan_reference(experiment, json.dumps(params, sort_keys=True), lam, seed)


def check_scan(experiment: str, params: dict, rows: list[dict]) -> list[str]:
    want = [(2.0 ** e, s) for e in params["lam_exponents"] for s in params["seeds"]]
    got = [(row["lambda"], int(row["seed"])) for row in rows]
    if got != want:
        return [f"{experiment}: rows (lambda, seed) {got} != requested {want}"]
    problems = []
    for row in rows:
        lam, seed, ratio = row["lambda"], int(row["seed"]), row["ratio"]
        lower, upper = scan_reference(experiment, params, lam, seed)
        if not ratio >= lower * (1.0 - REFINE_TOL):
            problems.append(f"{experiment} lambda={lam:g} seed={seed}: ratio {ratio!r} "
                            f"below the direct sum {lower!r}")
        if not ratio <= upper * (1.0 + 1e-12):
            problems.append(f"{experiment} lambda={lam:g} seed={seed}: ratio {ratio!r} "
                            f"above the L-infinity bound {upper!r}")
    return problems


# ---------------------------------------------------------------------------
# radial: Schur constants, margins, inequality sides, growth slope
# ---------------------------------------------------------------------------

def _gauss_panels(edges: np.ndarray, order: int = 16):
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


@functools.lru_cache(maxsize=None)
def schur_reference(two_nu: int, r_max: float = SCHUR_R_MAX) -> float:
    """integral_0^r_max |K_nu(r)| r^{-1/2} dr, a lower value for A_nu.

    K_nu(r) = r^{1/2} J_nu(r) - 2 Re(gamma_nu e^{ir}) with
    gamma_nu = (2pi)^{-1/2} e^{-i(pi nu/2 + pi/4)}, built on scipy.special.jv.
    [0, 1] is integrated in u = sqrt(r) (integrand 2|K(u^2)|), [1, r_max] in
    r on panels of width 1/2, 16 Gauss-Legendre nodes each.
    """
    nu = two_nu / 2.0
    gamma = np.exp(-1j * (math.pi * nu / 2.0 + math.pi / 4.0)) / math.sqrt(_TWO_PI)

    def k_abs(r):
        return np.abs(np.sqrt(r) * jv(nu, r) - 2.0 * (gamma * np.exp(1j * r)).real)

    u, wu = _gauss_panels(np.linspace(0.0, 1.0, 33))
    r, wr = _gauss_panels(np.linspace(1.0, r_max, int(round(2.0 * (r_max - 1.0))) + 1))
    return float(np.sum(wu * 2.0 * k_abs(u * u)) + np.sum(wr * k_abs(r) / np.sqrt(r)))


def check_prop3(params: dict, rows: list[dict]) -> list[str]:
    """Margins from the rows themselves (the summary's worst_margin is pinned
    at 0 by the nu = -1/2 row), and each bound against the Schur reference.

    The profiles have unit norm, so a row's bound column is A_nu itself.
    """
    want = [(t, s) for t in params["two_nu_values"] for s in range(params["profiles"])]
    got = [(int(row["two_nu"]), int(row["seed"])) for row in rows]
    if got != want:
        return [f"prop3-bound: rows (two_nu, seed) {got} != requested {want}"]
    problems = []
    for row in rows:
        two_nu = int(row["two_nu"])
        if not row["rem_norm"] <= row["bound"]:
            problems.append(f"prop3-bound two_nu={two_nu} seed={int(row['seed'])}: "
                            f"rem_norm {row['rem_norm']!r} above bound {row['bound']!r}")
        ref = schur_reference(two_nu)
        if not row["bound"] >= ref * (1.0 - SCHUR_QUAD_TOL) - 1e-12:
            problems.append(f"prop3-bound two_nu={two_nu}: A_nu {row['bound']!r} below "
                            f"the reference quadrature {ref!r}")
    return problems


def prop3_worst_margins(rows: list[dict]) -> dict[int, float]:
    """max(rem_norm - bound) per order, recomputed from remainder.csv."""
    worst: dict[int, float] = {}
    for row in rows:
        two_nu = int(row["two_nu"])
        worst[two_nu] = max(worst.get(two_nu, -math.inf), row["rem_norm"] - row["bound"])
    return worst


def check_thm6(params: dict, rows: list[dict]) -> list[str]:
    if [int(row["seed"]) for row in rows] != list(range(params["profiles"])):
        return ["thm6-ineq: rows do not match the requested profiles"]
    return [f"thm6-ineq seed={int(row['seed'])}: lhs {row['lhs']!r} > rhs {row['rhs']!r}"
            for row in rows if not row["lhs"] <= row["rhs"]]


def check_prop2(params: dict, rows: list[dict]) -> list[str]:
    if not rows:
        return ["prop2-check: no radii"]
    worst = max(abs(row["hankel"] - row["oracle"]) / row["oracle"] for row in rows)
    if not worst <= params["rel_tol"]:
        return [f"prop2-check: routes differ by {worst!r} > {params['rel_tol']!r}"]
    return []


def check_growth(params: dict, rows: list[dict]) -> list[str]:
    if [int(row["j"]) for row in rows] != list(params["j_values"]):
        return ["counterexample-growth: rows do not match the requested stages"]
    slope = float(np.polyfit(np.log([row["M"] for row in rows]),
                             np.log([row["ratio"] ** 2 for row in rows]), 1)[0])
    expected = (params["a"] - 4.0 * params["s"]) / params["a"]
    if not abs(slope - expected) <= GROWTH_SLOPE_TOL:
        return [f"counterexample-growth: slope {slope!r} not within "
                f"{GROWTH_SLOPE_TOL} of {expected!r}"]
    return []


# ---------------------------------------------------------------------------
# sequences and convergence
# ---------------------------------------------------------------------------

def sequence_terms(params: dict, m: np.ndarray) -> np.ndarray:
    """t_m of the seq-classify generator, 1-indexed m."""
    gen = params["gen"]
    if gen == "power":
        return (m + 1.0) ** (-params["alpha"])
    if gen == "geometric":
        return params["ratio"] ** m
    if gen == "log":
        return 1.0 / np.log(m + 2.0)
    raise ValueError(f"unknown generator {gen!r}")


@functools.lru_cache(maxsize=None)
def _brute_count(params_json: str, b: float) -> int | None:
    params = json.loads(params_json)
    chunk, count = 1 << 10, 0
    while count <= BRUTE_FORCE_TERMS:
        m = np.arange(count + 1, count + chunk + 1, dtype=float)
        above = int(np.count_nonzero(sequence_terms(params, m) > b))
        count += above
        if above < chunk:          # the terms decrease, so the rest are <= b
            return count
        chunk = min(2 * chunk, 1 << 20)
    return None


def brute_count(params: dict, b: float) -> int | None:
    """#{m : t_m > b} by enumerating terms; None beyond BRUTE_FORCE_TERMS."""
    return _brute_count(json.dumps(params, sort_keys=True), b)


def check_classify(params: dict, rows: list[dict]) -> list[str]:
    b_grid = [2.0 ** -k for k in range(1, params["depth"] + 1)]
    if [row["b"] for row in rows] != b_grid:
        return [f"seq-classify {params['gen']}: rows do not match the b grid"]
    problems = []
    for row in rows:
        want = brute_count(params, row["b"])
        if want is not None and row["count"] != want:
            problems.append(f"seq-classify {params['gen']} b={row['b']!r}: count "
                            f"{row['count']!r} != brute force {want}")
        if not math.isclose(row["b_r_count"], row["b"] ** params["r"] * row["count"],
                            rel_tol=1e-12):
            problems.append(f"seq-classify {params['gen']} b={row['b']!r}: "
                            f"b_r_count {row['b_r_count']!r} inconsistent")
    return problems


def check_probe(params: dict, rows: list[dict]) -> list[str]:
    if [int(row["tail_start"]) for row in rows] != list(params["tail_starts"]):
        return ["convergence-probe: rows do not match the requested tail starts"]
    measures = [row["measure"] for row in rows]
    if any(later > earlier for earlier, later in zip(measures, measures[1:])):
        return [f"convergence-probe: measures increase: {measures}"]
    return []


# ---------------------------------------------------------------------------
# per experiment
# ---------------------------------------------------------------------------

DATA_FILES = {
    "theorem1-scan": "scan.csv", "eq6-scan": "scan.csv", "lemma4-scan": "scan.csv",
    "prop2-check": "two_route.csv", "prop3-bound": "remainder.csv",
    "thm6-ineq": "ineq.csv", "counterexample-growth": "witnesses.csv",
    "seq-classify": "classify.csv", "convergence-probe": "probe.csv",
}

_CHECKS = {
    "prop2-check": check_prop2, "prop3-bound": check_prop3, "thm6-ineq": check_thm6,
    "counterexample-growth": check_growth, "seq-classify": check_classify,
    "convergence-probe": check_probe,
}


def check_manifest(out_dir: str, data_file: str) -> list[str]:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    problems = [] if data_file in manifest["files"] else [f"{data_file}: not in manifest.json"]
    for name, digest in manifest["files"].items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"{name}: checksum does not match manifest.json")
    return problems


def check_output(experiment: str, params: dict, out_dir: str) -> tuple[list[str], list[str]]:
    """Every check for one experiment's output directory.

    Returns (format problems, value problems): both fail the operation; only
    a value problem means the program computed a wrong result.
    """
    rows, format_problems = read_table(os.path.join(out_dir, DATA_FILES[experiment]))
    if experiment in SCAN_SUPPORT:
        check = functools.partial(check_scan, experiment)
    else:
        check = _CHECKS[experiment]
    return format_problems, check_manifest(out_dir, DATA_FILES[experiment]) + check(params, rows)
