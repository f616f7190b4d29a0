"""Hankel-type evolution, kernel split and the dimensional lift identities."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schromax import radial, special, spectral
from schromax.radial import HarmonicContext, RadialProfile
from schromax.special import BesselOrder, gamma_unit


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

    def test_interp_zero_outside(self):
        prof = bump_profile()
        assert radial.trapezoid_weights(prof.nodes).shape == prof.nodes.shape
        assert prof.interp(100.0) == 0.0

    def test_csv_emission(self, tmp_path):
        prof = bump_profile(16)
        path = tmp_path / "p.csv"
        prof.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,re,im,weight"
        assert len(lines) == 17


class TestQuadratureWeights:
    def test_trapezoid_integrates_linear_exactly(self):
        nodes = np.linspace(0.5, 4.0, 29)
        w = radial.trapezoid_weights(nodes, left_edge=0.5)
        # integral of (2r + 1) over [0.5, 4]: exact for piecewise-linear rule
        assert float(w @ (2 * nodes + 1)) == pytest.approx(
            (16.0 + 4.0) - (0.25 + 0.5), rel=1e-12)

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
        cos = radial.cosine_transform(f1, out)
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


class TestEvenOddAndSymmetry:
    @given(seed=st.integers(0, 50))
    def test_even_odd_reconstruction_and_pythagoras(self, seed):
        grid = spectral.GridSpec(128, 8.0)
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        F = spectral.SpectralFunction1D(grid, c)
        even, odd = radial.even_odd_split(F)
        assert np.max(np.abs(even.coefficients + odd.coefficients
                             - F.coefficients)) < 1e-14
        total = even.l2_coefficients() ** 2 + odd.l2_coefficients() ** 2
        assert total == pytest.approx(F.l2_coefficients() ** 2, rel=1e-12)

    def test_symmetrize_prop1_satisfies_phase_symmetry(self):
        # construction passes the SymmetrizedLine validator
        f1 = bump_profile(128)
        grid = spectral.GridSpec(256, 16.0)
        line = radial.symmetrize(f1, BesselOrder(0), "prop1", grid)
        assert line.two_nu == 0

    def test_symmetrized_line_validator_rejects_asymmetric(self):
        grid = spectral.GridSpec(128, 8.0)
        coeffs = np.zeros(128, dtype=complex)
        coeffs[70] = 1.0  # positive-frequency mass only
        F = spectral.SpectralFunction1D(grid, coeffs)
        with pytest.raises(ValueError):
            radial.SymmetrizedLine(F, 0)

    def test_lemma7_combination_modulus(self):
        # P + Q recombine to c = 2|sin(pi(nu - nu1)/2)| times the profile
        f1 = bump_profile(128)
        grid = spectral.GridSpec(256, 16.0)
        nu, nu1 = BesselOrder(2), BesselOrder(0)
        P = radial.symmetrize(f1, nu, "lemma7_P", grid, nu1)
        Q = radial.symmetrize(f1, nu, "lemma7_Q", grid, nu1)
        xi = grid.xi_nodes()
        pos = xi > 0
        combo = P.line.coefficients[pos] + Q.line.coefficients[pos]
        base = f1.interp(xi[pos])
        mask = np.abs(base) > 1e-6
        from schromax.special import symmetry_constant
        c = symmetry_constant(nu, nu1)
        assert np.max(np.abs(np.abs(combo[mask]) - c * np.abs(base[mask]))) < 1e-10

    def test_symmetrize_rejects_degenerate_pair(self):
        f1 = bump_profile(64)
        grid = spectral.GridSpec(128, 8.0)
        with pytest.raises(ValueError):
            radial.symmetrize(f1, BesselOrder(4), "lemma7_P", grid, BesselOrder(0))


class TestRemainderSplit:
    def test_exact_reconstruction(self):
        f1 = bump_profile(192)
        main, rem = radial.remainder_decompose(f1, BesselOrder(0), 0.3, 2.0)
        h = radial.hankel_propagate(f1, 0.3, 2.0, BesselOrder(0))
        assert np.max(np.abs(main.values + rem.values - h.values)) < 1e-12

    def test_minus_half_remainder_vanishes(self):
        f1 = bump_profile(192)
        _, rem = radial.remainder_decompose(f1, BesselOrder(-1), 0.3, 2.0)
        assert np.max(np.abs(rem.values)) < 1e-13

    def test_sup_below_dominator(self):
        f1 = radial.random_profile(3)
        op = radial.RemainderOperator(f1, BesselOrder(0), f1.nodes)
        sup = op.rem_sup(np.linspace(0.0, 1.0, 64), 2.0)
        assert np.all(sup <= op.rem_dominator() + 1e-12)

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

    def test_schur_apply_oracle(self):
        f = bump_profile(256)
        out = np.array([0.5, 1.0, 2.0])
        got = radial.schur_apply(lambda rs: np.exp(-rs), f, out)
        for i, r in enumerate(out):
            direct = np.sum(np.exp(-r * f.nodes) * f.values * f.weights)
            assert got.values[i] == pytest.approx(complex(direct), abs=1e-14)


class TestDimensionalLift:
    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (2, 1), (4, 0)])
    def test_lift_norm_identity(self, n, k):
        f1 = radial.random_profile(0, count=256)
        lhs, rhs = radial.lift_norm_identity(
            f1, HarmonicContext(n, k), np.linspace(0.0, 0.5, 16), 2.0)
        # two independent quadratures of the same sup field
        assert lhs == pytest.approx(rhs, rel=5e-3)

    def test_two_route_agreement(self):
        case = radial.two_route_case(seed=1)
        rel = np.abs(case["hankel"] - case["oracle"]) / case["oracle"]
        assert np.max(rel) < 1e-3

    def test_oracle_requires_support_bound(self):
        with pytest.raises(ValueError):
            radial.oracle_2d_propagate(lambda r: np.exp(-r), 0.1, 2.0,
                                       spectral.GridSpec(64, 8.0))

    def test_thm7_sides_close(self):
        left, right = radial.thm7_sides(0)
        assert abs(left - right) / right < 1e-6

    def test_thm6_inequality_sample(self):
        lhs, rhs = radial.thm6_sides(0)
        assert lhs <= rhs

    def test_thm6_shared_evolution_matches_fresh(self):
        shared = radial.thm6_sides(1, evolution=radial.thm6_evolution(0))
        assert shared == radial.thm6_sides(1)
        with pytest.raises(ValueError):
            radial.thm6_sides(1, n=3, evolution=radial.thm6_evolution(0))


class TestRandomProfiles:
    def test_unit_norm_and_support(self):
        prof = radial.random_profile(5)
        assert prof.norm() == pytest.approx(1.0, rel=1e-12)
        assert prof.nodes[-1] == pytest.approx(6.0)

    def test_seed_determinism(self):
        a = radial.random_profile(9)
        b = radial.random_profile(9)
        assert np.array_equal(a.values, b.values)
