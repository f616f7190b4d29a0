"""Transform conventions, propagator algebra and the frequency toolbox."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schromax import spectral


GRID = spectral.GridSpec(256, 8.0)


def random_field(seed, grid=GRID):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(grid.point_count) \
        + 1j * rng.standard_normal(grid.point_count)
    return spectral.GridFunction1D(grid, samples)


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            spectral.GridSpec(100, 8.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            spectral.GridSpec(256, 0.0)

    def test_resolution_identity(self):
        assert GRID.dx * GRID.dxi * GRID.point_count == pytest.approx(2 * math.pi)

    def test_xi_grid_is_centered(self):
        xi = GRID.xi_nodes()
        assert xi[GRID.point_count // 2] == 0.0
        assert xi[0] == -GRID.xi_max

    def test_grid_for_bandlimit(self):
        g = spectral.grid_for_bandlimit(512.0)
        assert g.xi_max >= 512.0
        assert g.point_count // 2 * g.dxi >= 512.0 > g.point_count // 4 * g.dxi

    def test_grid_for_bandlimit_min_points(self):
        assert spectral.grid_for_bandlimit(2.0).point_count == 256


class TestTransforms:
    def test_roundtrip(self):
        f = random_field(0)
        back = spectral.inverse_transform(spectral.forward_transform(f))
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12

    def test_parseval(self):
        f = random_field(1)
        F = spectral.forward_transform(f)
        assert F.l2_coefficients() == pytest.approx(
            math.sqrt(2 * math.pi) * f.l2(), rel=1e-12)

    def test_forward_matches_direct_summation(self):
        # independent O(N^2) oracle for the centered-FFT sign trick
        f = random_field(2)
        F = spectral.forward_transform(f)
        x = GRID.x_nodes()
        xi = GRID.xi_nodes()
        direct = GRID.dx * np.exp(-1j * np.outer(xi, x)) @ f.samples
        assert np.max(np.abs(F.coefficients - direct)) < 1e-10

    def test_gaussian_pair(self):
        # F.T. of e^{-x^2/2} is sqrt(2 pi) e^{-xi^2/2} under this convention
        x = GRID.x_nodes()
        f = spectral.GridFunction1D(GRID, np.exp(-0.5 * x * x))
        F = spectral.forward_transform(f)
        xi = GRID.xi_nodes()
        expected = math.sqrt(2 * math.pi) * np.exp(-0.5 * xi * xi)
        assert np.max(np.abs(F.coefficients - expected)) < 1e-10


class TestPropagator:
    @given(st.floats(0.0, 1.0), st.floats(0.5, 3.0))
    def test_unitary(self, t, a):
        F = spectral.forward_transform(random_field(3))
        Ft = spectral.propagate(F, t, a)
        assert Ft.l2_coefficients() == pytest.approx(F.l2_coefficients(), rel=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_group_law(self, t1, t2):
        F = spectral.forward_transform(random_field(4))
        one = spectral.propagate(spectral.propagate(F, t1, 2.0), t2, 2.0)
        two = spectral.propagate(F, t1 + t2, 2.0)
        assert np.max(np.abs(one.coefficients - two.coefficients)) < 1e-11

    def test_t_zero_is_identity(self):
        F = spectral.forward_transform(random_field(5))
        assert np.array_equal(spectral.propagate(F, 0.0, 2.0).coefficients,
                              F.coefficients)

    def test_rejects_bad_exponent(self):
        F = spectral.forward_transform(random_field(6))
        with pytest.raises(ValueError):
            spectral.propagate(F, 0.1, 0.0)
        with pytest.raises(ValueError):
            spectral.propagate(F, math.inf, 2.0)

    def test_phase_matrix_uniform_fast_path(self):
        xi_pow = np.abs(GRID.xi_nodes()) ** 2
        ts = np.linspace(0.0, 1.0, 97)
        fast = spectral._phase_matrix(xi_pow, ts)
        direct = np.exp(1j * ts[:, None] * xi_pow[None, :])
        assert np.max(np.abs(fast - direct)) < 1e-10

    def test_phase_matrix_nonuniform(self):
        xi_pow = np.abs(GRID.xi_nodes()) ** 2
        ts = np.array([0.0, 0.1, 0.15, 0.7])
        fast = spectral._phase_matrix(xi_pow, ts)
        direct = np.exp(1j * ts[:, None] * xi_pow[None, :])
        assert np.array_equal(fast, direct)

    def test_sup_over_times_matches_loop(self):
        F = spectral.make_bandlimited_random(8.0, "ball", 0, GRID)
        ts = np.linspace(0.0, 0.5, 11)
        sup = spectral.sup_over_times(F, ts, 2.0)
        loop = np.zeros(GRID.point_count)
        for t in ts:
            field = spectral.inverse_transform(spectral.propagate(F, t, 2.0))
            np.maximum(loop, np.abs(field.samples), out=loop)
        assert np.max(np.abs(sup - loop)) < 1e-11


class TestRandomData:
    def test_bandlimited_support_and_norm(self):
        F = spectral.make_bandlimited_random(4.0, "ball", 0, GRID)
        xi = np.abs(GRID.xi_nodes())
        assert np.all(F.coefficients[xi > 4.0] == 0)
        assert F.l2_spatial() == pytest.approx(1.0, rel=1e-12)

    def test_annulus_support(self):
        F = spectral.make_bandlimited_random(8.0, "annulus", 0, GRID)
        xi = np.abs(GRID.xi_nodes())
        assert np.all(F.coefficients[xi < 4.0] == 0)

    def test_seed_determinism(self):
        a = spectral.make_bandlimited_random(4.0, "ball", 7, GRID)
        b = spectral.make_bandlimited_random(4.0, "ball", 7, GRID)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_band_limit_exceeding_grid_rejected(self):
        with pytest.raises(ValueError):
            spectral.make_bandlimited_random(1e6, "ball", 0, GRID)

    def test_band_limit_enforced_on_construction(self):
        with pytest.raises(ValueError):
            spectral.SpectralFunction1D(GRID, np.ones(GRID.point_count),
                                        band_limit=1.0)


class TestBump:
    def test_support(self):
        u = np.linspace(-1, 1, 401)
        v = spectral.bump_value(u)
        assert np.all(v[np.abs(u) >= 0.5] == 0)
        assert np.all(v[np.abs(u) < 0.5] > 0)

    def test_unit_integral(self):
        u = np.linspace(-0.5, 0.5, 4001)
        total = np.trapezoid(spectral.bump_value(u), u)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_even(self):
        u = np.linspace(0, 0.49, 50)
        assert np.array_equal(spectral.bump_value(u), spectral.bump_value(-u))

    def test_mass_literal_is_the_quadrature_value(self):
        from scipy.integrate import quad
        mass = quad(lambda u: math.exp(-1.0 / (1.0 - 4.0 * u * u)),
                    -0.5, 0.5, epsabs=1e-14, epsrel=1e-13)[0]
        assert spectral._BUMP_MASS == mass
