"""Hankel-type evolution, kernel split and the dimensional lift identities."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from schromax import blowup, radial, special, spectral
from schromax.blowup import BlowupParams
from schromax.radial import RadialProfile
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

    @pytest.mark.parametrize("count", [384, 768, 1536])
    def test_uniform_profile_takes_trapezoid_weights(self, count):
        prof = radial.uniform_profile(lambda s: np.ones_like(s), 6.0, count)
        assert np.array_equal(prof.weights, radial.trapezoid_weights(prof.nodes))
        h = 6.0 / count
        assert np.all(prof.weights[:-1] == h) and prof.weights[-1] == 0.5 * h

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

    @pytest.mark.parametrize("two_nu", [-1, 1])
    def test_vanishing_order_sup_equals_zero_product(self, two_nu):
        # rem_sup skips the product where K_nu = 0; the zero kernel's sup_field
        # gives the same bytes
        nu = BesselOrder(two_nu)
        f1 = radial.random_profile(2)
        op = radial.RemainderOperator(f1, nu, f1.nodes)
        times = np.linspace(0.0, 1.0, 160)
        sup = op.rem_sup(times, 2.0)
        assert sup.dtype == np.float64
        assert np.array_equal(sup, op.sup_field(times, 2.0))
        assert not np.signbit(sup).any()

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

    def test_phase_table_follows_times_and_exponent(self):
        # the copy and the original share one phase table; alternating time
        # sets and exponents, and a time array changed in place, must not
        # reuse a table built for other times
        nu = BesselOrder(0)
        f0, f1 = (radial.random_profile(seed, count=128) for seed in (0, 1))
        out = np.linspace(0.1, 20.0, 64)
        base = radial.HankelEvolution(f0, nu, out)
        shared = base.for_profile(f1)
        early, late = np.linspace(0.0, 1.0, 32), np.linspace(0.5, 2.0, 32)
        for times, a in [(early, 2.0), (late, 2.0), (early, 3.0), (early, 2.0), (late, 3.0)]:
            for evo, f in ((shared, f1), (base, f0)):
                fresh = radial.HankelEvolution(f, nu, out)
                assert np.array_equal(evo.sup_field(times, a), fresh.sup_field(times, a))
        shared.sup_field(early, 2.0)
        early *= 0.5
        assert np.array_equal(shared.sup_field(early, 2.0),
                              radial.HankelEvolution(f1, nu, out).sup_field(early, 2.0))
        assert shared._phase_memo is base._phase_memo

    def test_shared_profile_allocates_no_matrix(self):
        evo = radial.HankelEvolution(radial.thm6_profile(0), BesselOrder.from_dimension(2, 0),
                                     radial.THM6_OUT_NODES)
        f1 = radial.uniform_profile(radial.random_profile_func(1)[0], 6.0, 768)
        tracemalloc.start()
        try:
            shared = evo.for_profile(f1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shared._kernel is evo._kernel and shared.f1 is f1
        # a weighted copy of the 2000 x 768 kernel would be 23.4 MiB
        assert peak < 2 ** 20

    def test_shared_kernel_needs_same_nodes(self):
        f1 = radial.random_profile(0, count=128)
        op = radial.RemainderOperator(f1, BesselOrder(0), f1.nodes)
        with pytest.raises(ValueError):
            op.for_profile(radial.random_profile(0, count=64))


def _kernel_reference(evo, times, a):
    """The complex weighted-matrix product: (kernel * (v w)) @ e^{i t s^a}."""
    weighted = evo._kernel * (evo.f1.values * evo.f1.weights)[None, :]
    return weighted @ np.exp(1j * np.outer(times, evo.f1.nodes ** a)).T


def _assert_close(got, want, rel=1e-13):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestKernelProducts:
    """field and sup_field against the complex weighted-matrix product."""

    TIMES = np.linspace(0.0, 1.0, 16)
    OUT = np.linspace(0.1, 20.0, 64)

    def _check(self, evo):
        want = _kernel_reference(evo, self.TIMES, 2.0)
        _assert_close(evo.sup_field(self.TIMES, 2.0), np.abs(want).max(axis=1))
        for j in (0, 7):
            _assert_close(evo.field(self.TIMES[j], 2.0), want[:, j])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("two_nu", [0, 3])
    @pytest.mark.parametrize("cls", [radial.HankelEvolution, radial.RemainderOperator])
    def test_real_kernel(self, cls, two_nu, seed):
        evo = cls(radial.random_profile(seed), BesselOrder(two_nu), self.OUT)
        assert not np.iscomplexobj(evo._kernel)
        self._check(evo)

    @pytest.mark.parametrize("two_nu", [-1, 0, 1, 2, 3])
    def test_symmetric_kernel_is_the_full_evaluation(self, two_nu):
        # out_nodes = nodes: one evaluation per pair, mirrored across row blocks
        nu = BesselOrder(two_nu)
        f1 = radial.random_profile(two_nu + 1)
        evo = radial.RemainderOperator(f1, nu, f1.nodes)
        products = np.outer(f1.nodes, f1.nodes)
        want = (np.zeros(products.shape) if nu.kernel_vanishes
                else special.remainder_kernel(nu, products))
        assert np.array_equal(evo._kernel, want)

    def test_blocked_kernel_is_the_full_evaluation(self, monkeypatch):
        # the thm6 pass builds its kernel in row blocks that together are the
        # full evaluation, each row once and in order
        blocks = []

        def recording(kernel, rows, cols):
            blocks.append(_kernel_matrix(kernel, rows, cols))
            return blocks[-1]

        _kernel_matrix = radial._kernel_matrix
        monkeypatch.setattr(radial, "_kernel_matrix", recording)
        nu = BesselOrder.from_dimension(2, 0)
        radial.thm6_sups([0, 1], nu)
        assert len(blocks) == 48
        nodes = radial.thm6_profile(0).nodes
        want = special.bessel_kernel(nu, np.outer(radial.THM6_OUT_NODES, nodes))
        assert np.array_equal(np.concatenate(blocks), want)

    def test_thm6_left_side_peak(self):
        nu = BesselOrder.from_dimension(2, 0)
        tracemalloc.start()
        try:
            sups = radial.thm6_sups(range(3), nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 6.12 MiB measured: the 768 x 180 stacked right-hand sides (2.1 MiB),
        # one phase table and one kernel block's temporaries.  The 2000 x 768
        # kernel alone is 11.72 MiB; holding it, as one evolution per
        # experiment did, peaked at 15.24 MiB.
        assert sups.shape == (3, 2000)
        assert peak <= 8 * 2 ** 20

    def test_complex_kernels_are_the_full_evaluation(self):
        # blowup's stationary and counter-rotating branches on its radii, and
        # a complex kernel on the profile's own nodes (the symmetric path)
        params = BlowupParams(a=2.0, s=0.25, n=2, eps=0.02)
        scales = blowup.derive_scales(params.stage_m(3), params.stage_b(3), params, 3)
        f1 = blowup.build_witness_profile(scales, params.n)
        xs = np.linspace(*scales.interval_j, blowup.X_COUNT)
        g = special.gamma_kernel(BesselOrder(0))
        for out, kernel in ((xs, lambda rs: np.conj(g) * np.exp(-1j * rs)),
                            (xs, lambda rs: g * np.exp(1j * rs)),
                            (f1.nodes, lambda rs: np.exp(1j * rs))):
            evo = radial.KernelEvolution(f1, out, kernel)
            assert np.array_equal(evo._kernel, kernel(np.outer(out, f1.nodes)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complex_kernel(self, seed):
        g = special.gamma_kernel(BesselOrder(0))
        evo = radial.KernelEvolution(radial.random_profile(seed), self.OUT,
                                     lambda rs: g * np.exp(1j * rs))
        self._check(evo)


class TestStreamedSups:
    """hankel_sups, byte for byte, against the full kernel matrix's product."""

    NU = BesselOrder.from_dimension(2, 0)
    TIMES = np.linspace(0.0, 1.0, 60)

    def _full(self, f1, out):
        kernel = special.bessel_kernel(self.NU, np.outer(out, f1.nodes))
        rhs = (f1.values * f1.weights)[:, None] * np.exp(
            1j * (f1.nodes ** 2.0)[:, None] * self.TIMES[None, :])
        return np.abs((kernel @ rhs.view(np.float64)).view(np.complex128)).max(axis=1)

    # kernel entries per block: 42 (the default), 128, 500 and 2000 rows of
    # 768 columns; 2000 output nodes are 47 full blocks of 42 and one of 26
    @pytest.mark.parametrize("entries", [radial._KERNEL_BLOCK, 128 * 768, 500 * 768,
                                         2000 * 768])
    def test_equal_to_full_matrix(self, monkeypatch, entries):
        monkeypatch.setattr(radial, "_KERNEL_BLOCK", entries)
        profiles = [radial.thm6_profile(seed) for seed in range(3)]
        out = radial.THM6_OUT_NODES
        stacked = radial.hankel_sups(profiles, self.NU, out, self.TIMES, 2.0)
        for f1, row in zip(profiles, stacked):
            want = self._full(f1, out)
            assert np.array_equal(row, want)
            assert np.array_equal(radial.hankel_sups([f1], self.NU, out, self.TIMES, 2.0)[0],
                                  want)

    def test_odd_sizes(self):
        # 100 nodes give blocks of 327 rows: 1000 output nodes are three full
        # blocks and one of 19
        profiles = [radial.random_profile(seed, count=100) for seed in (4, 5)]
        out = np.linspace(0.05, 30.0, 1000)
        stacked = radial.hankel_sups(profiles, self.NU, out, self.TIMES, 2.0)
        for f1, row in zip(profiles, stacked):
            assert np.array_equal(row, self._full(f1, out))


def _oracle_full_ifft2(f1, t, a, grid, radii):
    """The oracle over the whole (N, N) plane: the spectrum on every grid
    point, one centred inverse 2-D FFT, then |f| read at the radius rows of
    the x_2 = 0 column."""
    xi = grid.xi_nodes()
    rr = np.hypot(xi[:, None], xi[None, :])
    with np.errstate(divide="ignore"):
        radial_factor = np.where(rr > 0, rr ** -0.5, 0.0)
    spec = (np.asarray(f1(rr), dtype=np.complex128) * radial_factor
            * np.exp(1j * t * rr ** a) / spectral.SQRT_TWO_PI)
    sign = spectral.alternating_signs(grid.point_count)
    checker = np.outer(sign, sign)
    samples = checker * np.fft.ifft2(checker * spec) / grid.dx ** 2
    rows = np.clip(np.searchsorted(grid.x_nodes(), radii), 0, grid.point_count - 1)
    return np.abs(samples[rows, grid.point_count // 2])


class TestTwoDimensionalOracle:
    GRID = spectral.GridSpec(1024, 80.0)

    def _radii(self):
        x = self.GRID.x_nodes()
        return x[(x >= 1.0) & (x <= 10.0)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_plane_transform(self, seed):
        func, support = radial.random_profile_func(seed)
        radii = self._radii()
        for t in (0.0, 0.1):
            for a in (2.0, 3.0):
                want = _oracle_full_ifft2(func, t, a, self.GRID, radii)
                got = radial.oracle_2d_propagate(func, t, a, self.GRID, support, radii)
                assert np.max(np.abs(got - want) / want) < 1e-13

    def test_block_reaches_the_support_bound(self):
        # nonzero on all of (0, 6), so a block smaller than |xi| <= 6 misses
        # part of it; |f| falls to 3e-5 of its peak on [1, 10], so the
        # comparison is relative to the peak
        func = lambda r: spectral.bump_value((r - 3.0) / 6.0)
        radii = self._radii()
        for t, a in ((0.0, 2.0), (0.1, 3.0)):
            _assert_close(radial.oracle_2d_propagate(func, t, a, self.GRID, 6.0, radii),
                          _oracle_full_ifft2(func, t, a, self.GRID, radii))

    def test_evaluates_only_the_support_block(self):
        func, support = radial.random_profile_func(0)
        seen = []

        def recording(r):
            seen.append(np.array(r, dtype=float))
            return func(r)

        radial.oracle_2d_propagate(recording, 0.1, 2.0, self.GRID, support, self._radii())
        r = np.concatenate([v.ravel() for v in seen])
        # |xi_k| <= 6 holds for k = -152..152 on the step pi / 80
        assert r.size <= 305 ** 2
        assert np.all(r <= math.sqrt(2.0) * support)

    def test_bounded_temporaries(self):
        tracemalloc.start()
        try:
            radial.two_route_case(seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one complex 1024^2 plane alone is 16 MiB
        assert peak <= 16 * 2 ** 20


class TestDimensionalLift:
    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (2, 1), (4, 0)])
    def test_lift_norm_identity(self, n, k):
        # alpha_n ||S_E^{*(n)} f_P|| = ||H_E^* f1||_{L2(R_+)}: the lift leaves
        # only the order nu of (n, k), so (2, 1) and (4, 0) are one case. The
        # radial norm on midpoint nodes (trapezoid weights on [nodes[0],
        # mid[-1]]) against the one on the profile's own nodes, two
        # independent quadratures of the same sup field
        f1 = radial.random_profile(0, count=256)
        nu = BesselOrder.from_dimension(n, k)
        times = np.linspace(0.0, 0.5, 16)
        mid = 0.5 * (f1.nodes[:-1] + f1.nodes[1:])
        edges = np.concatenate([f1.nodes[:1], mid])
        mid_w = np.append(0.5 * (edges[2:] - edges[:-2]), 0.5 * (mid[-1] - mid[-2]))
        sup = radial.HankelEvolution(f1, nu, mid).sup_field(times, 2.0)
        lhs = math.sqrt(float(np.sum(mid_w * sup ** 2)))
        sup = radial.HankelEvolution(f1, nu, f1.nodes).sup_field(times, 2.0)
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
                                       spectral.GridSpec(64, 8.0), 100.0,
                                       np.array([1.0]))

    def test_alpha(self):
        assert radial.alpha(1) == pytest.approx(spectral.SQRT_TWO_PI, rel=1e-15)
        assert radial.alpha(2) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_thm6_inequality_sample(self):
        nu = BesselOrder.from_dimension(2, 0)
        lhs, rhs = radial.thm6_sides(0, nu, radial.thm6_sups([0], nu)[0])
        assert lhs <= rhs

    def test_thm6_shared_evolution_matches_fresh(self):
        # seed 1's row of the pass over seeds 0-2 against a fresh evolution of
        # its profile alone
        nu = BesselOrder.from_dimension(2, 0)
        shared = radial.thm6_sups([0, 1, 2], nu)[1]
        fresh = radial.HankelEvolution(radial.thm6_profile(1), nu, radial.THM6_OUT_NODES)
        assert np.array_equal(shared, fresh.sup_field(radial.default_time_set(), 2.0))
        alone = radial.thm6_sups([1], nu)[0]
        assert np.array_equal(shared, alone)
        assert radial.thm6_sides(1, nu, shared) == radial.thm6_sides(1, nu, alone)


class TestRandomProfiles:
    def test_unit_norm_and_support(self):
        prof = radial.random_profile(5)
        assert prof.norm() == pytest.approx(1.0, rel=1e-12)
        assert prof.nodes[-1] == pytest.approx(6.0)

    def test_seed_determinism(self):
        a = radial.random_profile(9)
        b = radial.random_profile(9)
        assert np.array_equal(a.values, b.values)
