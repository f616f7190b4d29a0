"""Acceptance gate: one test (or tightly grouped set) per criterion.

The two window-scan criteria share a single measurement fixture (same inputs,
different bound predictors), and the worker pool is sized from
SCHROMAX_WORKERS or the host CPU count to stay inside the runtime budgets.
"""

import math
import os

import numpy as np
import pytest

from schromax import blowup, harness, maximal, radial, sequences, special, spectral


def _workers() -> int:
    env = os.environ.get("SCHROMAX_WORKERS")
    if env:
        return int(env)
    return min(4, os.cpu_count() or 1)


# -------------------------------------------------------------------------
# 1. propagator unitarity and group law
# -------------------------------------------------------------------------

def test_criterion_1_unitarity_and_group_law():
    grid = spectral.GridSpec(256, 8.0)
    rng = np.random.default_rng(0)
    worst_unitary = 0.0
    worst_group = 0.0
    for trial in range(100):
        lam = float(rng.uniform(1.0, 0.95 * grid.xi_max))
        F = spectral.make_bandlimited_random(lam, "ball", trial, grid)
        t = float(rng.uniform(0.0, 1.0))
        t2 = float(rng.uniform(0.0, 1.0 - t))
        Ft = spectral.propagate(F, t, 2.0)
        worst_unitary = max(worst_unitary,
                            abs(Ft.l2_spatial() / F.l2_spatial() - 1.0))
        chained = spectral.propagate(Ft, t2, 2.0)
        direct = spectral.propagate(F, t + t2, 2.0)
        worst_group = max(worst_group, float(np.max(
            np.abs(chained.coefficients - direct.coefficients))))
    assert worst_unitary < 1e-10
    assert worst_group < 1e-12


# -------------------------------------------------------------------------
# 2. transform oracle (direct O(N^2) summation)
# -------------------------------------------------------------------------

def test_criterion_2_transform_oracle():
    grid = spectral.GridSpec(256, 8.0)
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    f = spectral.GridFunction1D(grid, samples)
    F = spectral.forward_transform(f)
    x, xi = grid.x_nodes(), grid.xi_nodes()
    direct_fwd = grid.dx * np.exp(-1j * np.outer(xi, x)) @ f.samples
    assert np.max(np.abs(F.coefficients - direct_fwd)) < 1e-9
    back = spectral.inverse_transform(F)
    direct_inv = (grid.dxi / (2 * math.pi)) * \
        np.exp(1j * np.outer(x, xi)) @ F.coefficients
    assert np.max(np.abs(back.samples - direct_inv)) < 1e-9


# -------------------------------------------------------------------------
# 3 + 4. window-scan shapes (shared measurements, two predictors)
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def window_scan_results():
    items = [(2.0 ** e, seed, 2.0, 1.0, "ball")
             for e in range(4, 10) for seed in range(5)]
    return harness._map_items(harness._window_scan_item, items, _workers())


def _normalized_scan_slope(results, p, q):
    lams = np.array([lam for lam, _, _, _ in results])
    ratios = np.array([ratio for _, _, ratio, _ in results])
    predictor = 1.0 + 1.0 ** p * lams ** q
    slope, _ = np.polyfit(np.log(lams), np.log(ratios / predictor), 1)
    return float(slope)


def test_criterion_3_window_bound_shape(window_scan_results):
    assert len(window_scan_results) == 30
    assert _normalized_scan_slope(window_scan_results, 0.5, 1.0) <= 0.05


def test_criterion_4_quarter_power_shape(window_scan_results):
    assert _normalized_scan_slope(window_scan_results, 0.25, 0.5) <= 0.05


# -------------------------------------------------------------------------
# 5. translation-time scan
# -------------------------------------------------------------------------

def test_criterion_5_translation_time_shape():
    _, summary, verdict = harness.run("eq6-scan", {}, workers=_workers())
    assert verdict == "pass"
    assert summary["slope"] <= 0.05


# -------------------------------------------------------------------------
# 6. sequence maximal scan against lam^s
# -------------------------------------------------------------------------

def test_criterion_6_sequence_bound_shape():
    _, summary, verdict = harness.run("lemma4-scan", {}, workers=_workers())
    assert verdict == "pass"
    assert summary["slope"] <= 0.05


# -------------------------------------------------------------------------
# 7. Hankel stack: isometry, two-route agreement, remainder bound
# -------------------------------------------------------------------------

def test_criterion_7_isometry():
    h_step = 0.01
    out_nodes = h_step * np.arange(1, 10001)
    out_weights = radial.simpson_weights(10000, h_step)
    for seed in range(3):
        f1 = radial.random_profile(seed, count=768)
        h = radial.hankel_propagate(f1, 0.0, 2.0, special.BesselOrder(0),
                                    out_nodes, out_weights)
        assert abs(h.norm() - f1.norm()) < 1e-6


def test_criterion_7_two_route_agreement():
    case = radial.two_route_case(seed=0, t=0.1, a=2.0)
    radii = case["radii"]
    assert radii[0] >= 1.0 and radii[-1] <= 10.0
    rel = np.abs(case["hankel"] - case["oracle"]) / case["oracle"]
    assert np.max(rel) < 1e-3


def test_criterion_7_remainder_schur_bound():
    tables, summary, verdict = harness.run(
        "prop3-bound", {"two_nu_values": [-1, 0, 1, 2, 3], "profiles": 50})
    assert verdict == "pass"
    _, rows = tables["remainder.csv"]
    assert len(rows) == 250
    for two_nu, seed, rem_norm, bound in rows:
        if two_nu == -1:
            assert rem_norm < 1e-8
        else:
            assert rem_norm <= bound


# -------------------------------------------------------------------------
# 8. the dimension-reduction inequality
# -------------------------------------------------------------------------

def test_criterion_8_reduction_inequality():
    _, summary, verdict = harness.run("thm6-ineq", {"profiles": 10})
    assert verdict == "pass"
    assert summary["worst_margin"] <= 0.0


# -------------------------------------------------------------------------
# 9. sequence summability classes
# -------------------------------------------------------------------------

def test_criterion_9_sequence_classes():
    for r in (0.5, 1.0, 2.0):
        seq = sequences.TimeSequence("power", alpha=1.0 / r)
        assert 0.9 <= sequences.weak_lr_constant(seq, r) <= 1.5
    geom = sequences.TimeSequence("geometric", ratio=0.5)
    for r in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert sequences.lr_converges(geom, r)
        _, _, growing = sequences.weak_lr_trend(geom, r)
        assert not growing
    log_seq = sequences.TimeSequence("log")
    grid = sequences.default_b_grid(9)
    for r in (0.5, 1.0, 2.0, 4.0):
        _, _, growing = sequences.weak_lr_trend(log_seq, r, grid)
        assert growing


# -------------------------------------------------------------------------
# 10. blow-up witness growth law
# -------------------------------------------------------------------------

def test_criterion_10_counterexample_growth():
    _, summary, verdict = harness.run("counterexample-growth", {})
    assert verdict == "pass"
    assert 0.4 <= summary["slope"] <= 0.6
    # per-witness structural checks are re-asserted from the raw reports
    params = blowup.BlowupParams(a=2.0, s=0.25, n=2, eps=0.02)
    reports = blowup.run_family(params, [1, 2, 3, 4, 5, 6])
    assert blowup.drift_monotone(reports)
    for rep in reports:
        assert rep.scales.rho / rep.scales.lam <= params.eps * (1 + 1e-12)
        if rep.scales.j >= 2:
            assert rep.surrogate_sup <= 0.5


# -------------------------------------------------------------------------
# 11. convergence probe
# -------------------------------------------------------------------------

def test_criterion_11_convergence_probe():
    _, summary, verdict = harness.run(
        "convergence-probe", {"tail_starts": [1, 5, 20]})
    assert verdict == "pass"
    m1, m5, m20 = summary["measures"]
    assert m20 < m5
    assert m5 <= m1 and m20 <= m1
