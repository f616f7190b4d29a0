"""Hankel-type evolution, kernel split and the dimensional lift identities."""

import math
from functools import partial

import numpy as np
import pytest
from schromax import radial, special, spectral
from schromax.radial import HarmonicContext, RadialProfile
from schromax.special import BesselOrder


def bump_profile(count=256):
    func = lambda s: spectral.bump_value(s - 2.5)
    return radial.uniform_profile(func, 5.0, count)


class TestRadialProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialProfile([1.0, 0.5], [1, 1], [0.1, 0.1])     # not increasing
        with pytest.raises(ValueError):
            RadialProfile([0.0, 1.0], [1, 1], [0.1, 0.1])     # nonpositive node
        with pytest.raises(ValueError):
            RadialProfile([1.0, 2.0], [1, 1], [0.1, 0.0])     # zero weight

    def test_norm_of_indicator(self):
        # unit values on [0, 1] with h-weights: norm ~ 1
        prof = radial.uniform_profile(lambda s: np.ones_like(s), 1.0, 200)
        assert prof.norm() == pytest.approx(1.0, abs=5e-3)


class TestQuadratureWeights:
    def test_trapezoid_integrates_linear_exactly(self):
        nodes = np.linspace(0.5, 4.0, 29)
        w = radial.trapezoid_weights(nodes)
        # integral of 2r over [0, 4]: exact for the piecewise-linear rule
        # with value 0 at r = 0
        assert float(w @ (2 * nodes)) == pytest.approx(16.0, rel=1e-12)

    def test_simpson_oracle(self):
        h = 0.01
        w = radial.simpson_weights(400, h)
        nodes = h * np.arange(1, 401)
        # integral_0^4 r^3 dr = 64 (Simpson exact on cubics)
        assert float(w @ nodes ** 3) == pytest.approx(64.0, rel=1e-12)

    def test_simpson_rejects_odd_count(self):
        with pytest.raises(ValueError):
            radial.simpson_weights(401, 0.01)


class TestHankelEvolution:
    @staticmethod
    def _long_range_quadrature():
        h = 0.01
        nodes = h * np.arange(1, 8001)
        return nodes, radial.simpson_weights(8000, h)

    def test_isometry_at_t0(self):
        f1 = bump_profile(384)
        nodes, weights = self._long_range_quadrature()
        h = radial.hankel_propagate(f1, 0.0, 2.0, BesselOrder(0), nodes, weights)
        assert abs(h.norm() - f1.norm()) < 1e-6

    def test_unitary_in_time(self):
        # e^{i t s^a} is a unimodular multiplier before the transform:
        # the t = 0 isometry extends to every t
        f1 = bump_profile(384)
        nodes, weights = self._long_range_quadrature()
        h = radial.hankel_propagate(f1, 0.37, 2.0, BesselOrder(0), nodes, weights)
        assert abs(h.norm() - f1.norm()) < 1e-6

    def test_minus_half_is_cosine_transform(self):
        f1 = bump_profile(256)
        out = np.linspace(0.1, 10.0, 50)
        h = radial.hankel_propagate(f1, 0.0, 2.0, BesselOrder(-1), out,
                                    radial.trapezoid_weights(out))
        # sqrt(2/pi) integral cos(rs) f1(s) ds: the nu = -1/2, t = 0 reduction
        cos = math.sqrt(2.0 / math.pi) * (np.cos(np.outer(out, f1.nodes))
                                          @ (f1.values * f1.weights))
        assert np.max(np.abs(h.values - cos)) < 1e-12

    @pytest.mark.parametrize("kernel", ["bessel", "remainder", "main"])
    def test_field_matches_quadrature_oracle(self, kernel):
        from scipy.special import jv
        f1 = bump_profile(256)
        nu = BesselOrder(0)
        out = np.array([0.4, 1.7, 9.0])
        if kernel == "bessel":
            evo = radial.HankelEvolution(f1, nu, out)
        elif kernel == "remainder":
            evo = radial.RemainderOperator(f1, nu, out)
        else:
            evo = radial.KernelEvolution(f1, out, partial(special.main_kernel, nu))
        got = evo.field(0.2, 2.0)
        gamma = np.exp(-1j * math.pi / 4.0) / math.sqrt(2.0 * math.pi)
        for i, r in enumerate(out):
            rs = r * f1.nodes
            bessel = jv(0.0, rs) * np.sqrt(rs)
            main = gamma * np.exp(1j * rs) + np.conj(gamma) * np.exp(-1j * rs)
            k = {"bessel": bessel, "remainder": bessel - main, "main": main}[kernel]
            integrand = k * f1.values * np.exp(1j * 0.2 * f1.nodes ** 2)
            assert got[i] == pytest.approx(complex(np.sum(integrand * f1.weights)),
                                           abs=1e-12)

    def test_sup_field_dominates_single_time(self):
        f1 = bump_profile(128)
        out = np.linspace(0.5, 10.0, 40)
        evo = radial.HankelEvolution(f1, BesselOrder(0), out)
        ts = np.linspace(0.0, 1.0, 9)
        sup = evo.sup_field(ts, 2.0)
        for t in ts:
            assert np.all(sup + 1e-14 >= np.abs(evo.field(t, 2.0)))

    def test_hankel_propagate_validation(self):
        f1 = bump_profile(64)
        with pytest.raises(ValueError):
            radial.hankel_propagate(f1, -1.0, 2.0, BesselOrder(0))
        with pytest.raises(ValueError):
            radial.hankel_propagate(f1, 0.0, -2.0, BesselOrder(0))


class TestRemainderSplit:
    @staticmethod
    def _main(f1, nu):
        return radial.KernelEvolution(f1, f1.nodes, partial(special.main_kernel, nu))

    def test_exact_reconstruction(self):
        f1 = bump_profile(192)
        nu = BesselOrder(0)
        rem = radial.RemainderOperator(f1, nu, f1.nodes)
        h = radial.hankel_propagate(f1, 0.3, 2.0, nu)
        assert np.max(np.abs(self._main(f1, nu).field(0.3, 2.0)
                             + rem.field(0.3, 2.0) - h.values)) < 1e-12

    def test_minus_half_remainder_vanishes(self):
        # the main part alone is H_t f1, so the zero remainder kernel is exact
        f1 = bump_profile(192)
        nu = BesselOrder(-1)
        h = radial.hankel_propagate(f1, 0.3, 2.0, nu)
        assert np.max(np.abs(self._main(f1, nu).field(0.3, 2.0) - h.values)) < 1e-13
        assert not np.any(radial.RemainderOperator(f1, nu, f1.nodes).field(0.3, 2.0))

    def test_sup_below_dominator(self):
        f1 = radial.random_profile(3)
        nu = BesselOrder(0)
        op = radial.RemainderOperator(f1, nu, f1.nodes)
        sup = op.rem_sup(np.linspace(0.0, 1.0, 64), 2.0)
        # the pointwise dominating operator integral |K_nu(rs)| |f1(s)| ds
        kernel = special.remainder_kernel(nu, np.outer(f1.nodes, f1.nodes))
        dominator = np.abs(kernel) @ (np.abs(f1.values) * f1.weights)
        assert np.all(sup <= dominator + 1e-12)

    @pytest.mark.parametrize("two_nu", [0, 3])
    def test_shared_kernel_matches_fresh_build(self, two_nu):
        nu = BesselOrder(two_nu)
        times = np.linspace(0.0, 1.0, 32)
        f0, f1, f2 = (radial.random_profile(seed, count=128) for seed in (0, 1, 2))
        rem = radial.RemainderOperator(f0, nu, f0.nodes)
        evo = radial.HankelEvolution(f0, nu, np.linspace(0.1, 20.0, 64))
        for f in (f1, f2):
            fresh_rem = radial.RemainderOperator(f, nu, f.nodes)
            assert np.array_equal(rem.for_profile(f).rem_sup(times, 2.0),
                                  fresh_rem.rem_sup(times, 2.0))
            fresh_evo = radial.HankelEvolution(f, nu, evo.out_nodes)
            assert np.array_equal(evo.for_profile(f).sup_field(times, 2.0),
                                  fresh_evo.sup_field(times, 2.0))
        # the original keeps its own profile
        assert rem.f1 is f0 and evo.f1 is f0

    def test_shared_kernel_needs_same_nodes(self):
        f1 = radial.random_profile(0, count=128)
        op = radial.RemainderOperator(f1, BesselOrder(0), f1.nodes)
        with pytest.raises(ValueError):
            op.for_profile(radial.random_profile(0, count=64))

class TestDimensionalLift:
    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (2, 1), (4, 0)])
    def test_lift_norm_identity(self, n, k):
        # alpha_n ||S_E^{*(n)} f_P|| = ||H_E^* f1||_{L2(R_+)}: the polar lift
        # on midpoint nodes (trapezoid weights on [nodes[0], mid[-1]]) against
        # the radial norm on the profile's own nodes, two independent
        # quadratures of the same sup field
        f1 = radial.random_profile(0, count=256)
        ctx = HarmonicContext(n, k)
        times = np.linspace(0.0, 0.5, 16)
        mid = 0.5 * (f1.nodes[:-1] + f1.nodes[1:])
        edges = np.concatenate([f1.nodes[:1], mid])
        mid_w = np.append(0.5 * (edges[2:] - edges[:-2]), 0.5 * (mid[-1] - mid[-2]))
        sup = radial.HankelEvolution(f1, ctx.order, mid).sup_field(times, 2.0)
        lhs = radial._polar_lift_norm(ctx, mid, mid_w, sup)
        sup = radial.HankelEvolution(f1, ctx.order, f1.nodes).sup_field(times, 2.0)
        rhs = math.sqrt(float(np.sum(f1.weights * sup ** 2)))
        assert lhs == pytest.approx(rhs, rel=5e-3)

    def test_two_route_agreement(self):
        case = radial.two_route_case(seed=1)
        rel = np.abs(case["hankel"] - case["oracle"]) / case["oracle"]
        assert np.max(rel) < 1e-3

    def test_oracle_requires_support_bound(self):
        # the support bound must lie inside the grid's Nyquist frequency
        with pytest.raises(ValueError):
            radial.oracle_2d_propagate(lambda r: np.exp(-r), 0.1, 2.0,
                                       spectral.GridSpec(64, 8.0), 100.0)

    def test_thm7_sides_close(self):
        left, right = radial.thm7_sides(0)
        assert abs(left - right) / right < 1e-6

    def test_thm6_inequality_sample(self):
        lhs, rhs = radial.thm6_sides(0)
        assert lhs <= rhs

    def test_thm6_shared_evolution_matches_fresh(self):
        shared = radial.thm6_sides(1, evolution=radial.thm6_evolution(0, 2, 0))
        assert shared == radial.thm6_sides(1)
        with pytest.raises(ValueError):
            radial.thm6_sides(1, n=3, evolution=radial.thm6_evolution(0, 2, 0))


class TestRandomProfiles:
    def test_unit_norm_and_support(self):
        prof = radial.random_profile(5)
        assert prof.norm() == pytest.approx(1.0, rel=1e-12)
        assert prof.nodes[-1] == pytest.approx(6.0)

    def test_seed_determinism(self):
        a = radial.random_profile(9)
        b = radial.random_profile(9)
        assert np.array_equal(a.values, b.values)
