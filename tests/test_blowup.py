"""Blow-up witness family: scale derivation, phases and the growth law."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schromax import blowup, radial
from schromax.blowup import BlowupParams
from schromax.special import BesselOrder, gamma_kernel

PARAMS = BlowupParams(a=2.0, s=0.25, n=2, eps=0.02)


class TestParams:
    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            BlowupParams(a=1.0, s=0.2, n=2, eps=0.02)   # degenerate a
        with pytest.raises(ValueError):
            BlowupParams(a=2.0, s=0.5, n=2, eps=0.02)   # s >= a/4
        with pytest.raises(ValueError):
            BlowupParams(a=2.0, s=0.25, n=2, eps=0.5)
        with pytest.raises(ValueError):
            BlowupParams(a=2.0, s=0.25, n=1, eps=0.02)

    def test_stage_schedule(self):
        assert PARAMS.stage_m(1) == 16.0
        assert PARAMS.stage_m(6) == 512.0
        assert PARAMS.stage_b(3) == 1.0 / 64.0


class TestScales:
    def test_worked_example(self):
        # a = 2, s = 1/4: lam = M b^{-1}, rho = eps b^{-1/2}
        sc = blowup.derive_scales(16.0, 1.0 / 16.0, PARAMS, j=1)
        assert sc.lam == pytest.approx(16.0 * 16.0)
        assert sc.rho == pytest.approx(0.02 * 4.0)
        assert sc.drift == pytest.approx(sc.rho * sc.lam * sc.b)

    @given(j=st.integers(1, 8))
    def test_consistency_checks_pass_on_schedule(self, j):
        sc = blowup.derive_scales(PARAMS.stage_m(j), PARAMS.stage_b(j), PARAMS, j)
        assert sc.rho / sc.lam <= PARAMS.eps * (1 + 1e-12)
        lo, hi = sc.interval_j
        ilo, ihi = sc.interval_i
        assert ilo <= lo < hi <= ihi

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            blowup.derive_scales(0.5, 0.5, PARAMS, 0)
        with pytest.raises(ValueError):
            blowup.derive_scales(16.0, 2.0, PARAMS, 0)

    def test_drift_increases_along_schedule(self):
        drifts = [blowup.derive_scales(PARAMS.stage_m(j), PARAMS.stage_b(j),
                                       PARAMS, j).drift for j in range(1, 7)]
        assert all(d2 > d1 for d1, d2 in zip(drifts, drifts[1:]))

    def test_stationary_time_is_critical_point(self):
        sc = blowup.derive_scales(16.0, 1.0 / 16.0, PARAMS, j=1)
        x = 0.4 * sc.interval_i[1]
        t = sc.stationary_time(x)
        # d/ds (-x s + t s^a) = 0 at s = lam
        eps = 1e-6 * sc.lam
        d = ((-x * (sc.lam + eps) + t * (sc.lam + eps) ** sc.a)
             - (-x * (sc.lam - eps) + t * (sc.lam - eps) ** sc.a)) / (2 * eps)
        assert abs(d) < 1e-6 * x

    def test_aligned_time_near_stationary(self):
        sc = blowup.derive_scales(16.0, 1.0 / 16.0, PARAMS, j=1)
        x = 0.3 * sc.interval_i[1]
        t = sc.aligned_time(x)
        period = 2 * math.pi / sc.lam ** sc.a
        assert abs(t - sc.stationary_time(x)) <= 0.5 * period + 1e-15
        # top-frequency phase lands on 2 pi Z
        phase0 = -x * sc.lam + t * sc.lam ** sc.a
        assert abs(phase0 - 2 * math.pi * round(phase0 / (2 * math.pi))) < 1e-6


class TestWitness:
    def test_profile_support_and_amplitude(self):
        sc = blowup.derive_scales(16.0, 1.0 / 16.0, PARAMS, j=1)
        f1 = blowup.build_witness_profile(sc, 2)
        assert f1.nodes[0] == pytest.approx(sc.lam - 0.5 * sc.rho)
        assert f1.nodes[-1] == pytest.approx(sc.lam + 0.5 * sc.rho)
        # center value: sqrt(|S^1|) lam^{1/2} g(0)/rho
        from schromax.special import surface_area
        from schromax.spectral import bump_value
        mid = f1.values[f1.nodes.size // 2]
        expected = (math.sqrt(surface_area(2)) * math.sqrt(sc.lam)
                    * bump_value(0.0) / sc.rho)
        assert abs(mid) == pytest.approx(expected, rel=1e-6)

    def test_hs_norm_scaling(self):
        # ||f||_{H^s}^2 ~ rho^{-1} lam^{2s + n - 1} const across stages
        consts = []
        for j in (2, 4, 6):
            sc = blowup.derive_scales(PARAMS.stage_m(j), PARAMS.stage_b(j),
                                      PARAMS, j)
            f1 = blowup.build_witness_profile(sc, 2)
            hs = blowup.hs_norm_witness(f1, PARAMS.s, 2)
            consts.append(hs ** 2 * sc.rho / sc.lam ** (2 * PARAMS.s + 1))
        assert max(consts) / min(consts) == pytest.approx(1.0, rel=1e-3)


class TestGrowth:
    def test_stage_report_fields(self):
        rep = blowup.lower_bound_scan(PARAMS, 2)
        assert rep.ratio == pytest.approx(rep.maximal_norm / rep.hs_norm)
        assert rep.ratio_full > 0.0
        assert rep.surrogate_sup >= 0.0

    def test_growth_exponent_on_synthetic_reports(self):
        reports = blowup.run_family(PARAMS, [1, 2, 3])
        slope, _ = blowup.growth_exponent(reports)
        assert math.isfinite(slope)
        with pytest.raises(ValueError):
            blowup.growth_exponent(reports[:2])

    def test_family_slope_near_half(self):
        reports = blowup.run_family(PARAMS, [1, 2, 3, 4, 5, 6])
        slope, _ = blowup.growth_exponent(reports)
        assert 0.4 <= slope <= 0.6
        assert blowup.drift_monotone(reports)
        for rep in reports:
            if rep.scales.j >= 2:
                assert rep.surrogate_sup <= 0.5


def per_radius_norms(params, j, x_count, t_count):
    """The stationary-branch and full-field maximal norms of lower_bound_scan,
    radius by radius: a one-row Hankel evolution per radius for the full
    field, and the stationary branch summed directly at the aligned time."""
    scales = blowup.derive_scales(params.stage_m(j), params.stage_b(j), params, j)
    f1 = blowup.build_witness_profile(scales, params.n)
    nu = BesselOrder.from_dimension(params.n, 0)
    g = gamma_kernel(nu)
    xs = np.linspace(*scales.interval_j, x_count)
    t_offsets = np.linspace(-math.pi, math.pi, t_count) / scales.lam ** scales.a
    wv = f1.values * f1.weights
    main, full = [], []
    for x in xs:
        t = scales.aligned_time(x)
        evo = radial.HankelEvolution(f1, nu, np.array([x]))
        full.append(evo.sup_field(t + t_offsets, scales.a)[0])
        phi = -x * f1.nodes + t * f1.nodes ** scales.a
        main.append(abs(np.conj(g) * np.sum(np.exp(1j * phi) * wv)))
    dx = xs[1] - xs[0]
    w = np.full(x_count, dx)
    w[0] = w[-1] = 0.5 * dx
    return tuple(math.sqrt(float(np.sum(w * np.square(h)))) / radial.alpha(params.n)
                 for h in (main, full))


def test_scan_matches_per_radius_oracle():
    rep = blowup.lower_bound_scan(PARAMS, 2)
    main, full = per_radius_norms(PARAMS, 2, 9, 33)
    assert rep.maximal_norm == pytest.approx(main, rel=1e-12)
    assert rep.ratio_full * rep.hs_norm == pytest.approx(full, rel=1e-12)
