"""The four benchmark workloads: which experiments each one runs, with which
parameters, derived from the benchmark seed.

Every parameter a check relies on is spelled out, even where it equals the
runner's default, so that the checks never depend on a default inside the
program.  Only keys that the runners read are used; the guard in one_round.py
confirms that the scan runners honoured them.
"""

from __future__ import annotations

WORKLOAD_NAMES = ("window", "translation", "sequence", "radial")

# The scans: the only experiments whose items run in the harness worker pool.
SCAN_EXPERIMENTS = ("theorem1-scan", "eq6-scan", "lemma4-scan")


# Rounds one run can hold; data seeds of different runs never overlap below it.
MAX_ROUNDS = 1000


def data_seeds(seed: int, round_index: int, count: int) -> list[int]:
    """count consecutive data seeds for one round of one run.

    Each round draws fresh data, so a run averages the data-dependent work
    (how many refinement rounds an item needs) over more items.  Seed 0,
    round 0 gives the runners' own default seeds.
    """
    base = (seed * MAX_ROUNDS + round_index) * count
    return list(range(base, base + count))


def experiments(workload: str, seed: int, round_index: int = 0) -> list[tuple[str, dict]]:
    """The (experiment, params) list one round of the workload runs, in order."""
    if workload == "window":
        # lambda = 2^4..2^8: the 2^9 items alone cost ~30 s of CPU, which
        # would leave room for a single round per run.
        return [("theorem1-scan", {
            "a": 2.0, "window": 1.0, "support": "ball", "slope_tol": 0.05,
            "lam_exponents": [4, 5, 6, 7, 8], "seeds": data_seeds(seed, round_index, 5)})]
    if workload == "translation":
        # lambda capped at 2^6 (26 spatial offsets), with 12 seeds a round.
        # About one item in seven needs a second refinement round, which
        # doubles its cost; at 2^7 (52 offsets, 3.5 s an item) too few items
        # fit in a run to average that out.
        return [("eq6-scan", {
            "a": 2.0, "window": 0.25, "ball_radius": 0.1, "slope_tol": 0.05,
            "lam_exponents": [4, 5, 6], "seeds": data_seeds(seed, round_index, 12)})]
    if workload == "sequence":
        return [
            ("lemma4-scan", {
                "a": 2.0, "s": 0.5, "alpha": 1.0, "slope_tol": 0.05,
                "lam_exponents": [4, 5, 6, 7, 8], "seeds": data_seeds(seed, round_index, 3)}),
            ("seq-classify", {"gen": "power", "r": 1.0, "alpha": 1.0, "depth": 16}),
            ("seq-classify", {"gen": "geometric", "r": 1.0, "ratio": 0.5, "depth": 16}),
            ("seq-classify", {"gen": "log", "r": 1.0, "depth": 9}),
            ("convergence-probe", {"a": 2.0, "delta": 1e-3, "tail_starts": [1, 5, 20],
                                   "N": 256, "L": 8.0}),
        ]
    if workload == "radial":
        return [
            # prop2-check writes numpy scalar reprs into two_route.csv for
            # every seed; its seed stays fixed so that the failure is the
            # same in every run.
            ("prop2-check", {"a": 2.0, "t": 0.1, "rel_tol": 1e-3, "seed": 0}),
            # 10 profiles of the default 50 and four of the five orders (2nu = 2,
            # an integer order like 0, is left out): a round keeps the cold
            # Schur quadrature of an integer and a half-integer order and 40
            # per-profile kernel builds, and stays near 20 s instead of 45 s
            ("prop3-bound", {"two_nu_values": [-1, 0, 1, 3], "profiles": 10}),
            ("thm6-ineq", {"n": 2, "k": 0, "profiles": 3}),
            ("counterexample-growth", {"a": 2.0, "s": 0.25, "n": 2, "eps": 0.02,
                                       "j_values": [1, 2, 3, 4, 5, 6],
                                       "slope_lo": 0.4, "slope_hi": 0.6}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def has_scans(workload: str) -> bool:
    """Whether the workload runs scans, and so a worker pool (radial does not)."""
    return any(name in SCAN_EXPERIMENTS for name, _ in experiments(workload, 0))


def guard_config(experiment: str, params: dict) -> dict:
    """The same keys with the scan shrunk to two lambdas and one seed.

    A key the runner does not read (misspelled here, or renamed in the
    program) makes it fall back to its defaults, which produce other rows
    than this trimmed request, so the guard sees it.
    """
    missing = {"lam_exponents", "seeds"} - params.keys()
    if missing:
        raise ValueError(f"{experiment} config lacks {sorted(missing)}")
    trimmed = dict(params)
    trimmed["lam_exponents"] = params["lam_exponents"][:2]
    trimmed["seeds"] = params["seeds"][:1]
    return trimmed
