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


def loop_sup(F, ts, a=2.0):
    """sup over ts of |S_t f|, one propagate and inverse transform per time."""
    loop = np.zeros(F.grid.point_count)
    for t in ts:
        field = spectral.inverse_transform(spectral.propagate(F, t, a))
        np.maximum(loop, np.abs(field.samples), out=loop)
    return loop


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

    def test_step_table_matches_direct_exp(self):
        xi_pow = np.abs(GRID.xi_nodes()) ** 2
        ts = np.linspace(0.3, 1.0, 97)
        distinct, where = np.unique(xi_pow, return_inverse=True)
        table = spectral._step_table(distinct, where, ts[1] - ts[0], ts.size)
        first = np.exp(1j * ts[0] * xi_pow)
        direct = np.exp(1j * ts[:, None] * xi_pow[None, :])
        assert np.max(np.abs(first * table - direct)) < 1e-10

    def test_sup_over_times_matches_loop(self):
        F = spectral.make_bandlimited_random(8.0, "ball", 0, GRID)
        ts = np.linspace(0.0, 0.5, 11)
        sup = spectral.sup_over_times(F, ts, 2.0)
        assert np.max(np.abs(sup - loop_sup(F, ts))) < 1e-11


def padded_modulated(F, m, y):
    """F zero-padded to N m points and translated by y, shaped like the fine
    pass of maximal_over_E."""
    n = F.grid.point_count
    fine = spectral.GridSpec(n * m, F.grid.half_length)
    padded = np.zeros(n * m, dtype=np.complex128)
    padded[(n * m - n) // 2:(n * m + n) // 2] = F.coefficients
    return spectral.SpectralFunction1D(
        fine, padded * np.exp(1j * fine.xi_nodes() * y), band_limit=F.band_limit)


class TestSupOverTimes:
    @pytest.mark.parametrize("count", [513, 514])
    def test_table_across_chunks_and_short_tail(self, count, single_pass):
        # 513 and 514 times leave tail chunks of one and two times
        F = spectral.make_bandlimited_random(40.0, "ball", 1, GRID)
        ts = np.linspace(0.1, 0.6, count)
        assert spectral._uniform_step(ts) is not None
        sup = spectral.sup_over_times(F, ts, 2.0)
        assert np.max(np.abs(sup - loop_sup(F, ts))) < 1e-11
        assert np.array_equal(sup, single_pass(spectral.sup_over_times, F, ts, 2.0))

    def test_modulated_zero_padded_input(self, single_pass):
        # shaped like the fine pass of maximal_over_E: N m points, 1/m of them nonzero
        shifted = padded_modulated(spectral.make_bandlimited_random(16.0, "ball", 2, GRID),
                                   4, -0.3)
        ts = np.linspace(0.0, 0.5, 300)
        sup = spectral.sup_over_times(shifted, ts, 2.0)
        assert np.max(np.abs(sup - loop_sup(shifted, ts))) < 1e-11
        assert np.array_equal(sup, single_pass(spectral.sup_over_times, shifted, ts, 2.0))

    @pytest.mark.parametrize("nonzero", [slice(0, 12), slice(244, 256), [0, 255]],
                             ids=["first", "last", "both-ends"])
    def test_support_at_the_grid_edge(self, nonzero, single_pass):
        rng = np.random.default_rng(3)
        coeffs = np.zeros(GRID.point_count, dtype=np.complex128)
        coeffs[nonzero] = 1.0 + rng.standard_normal(coeffs[nonzero].size)
        F = spectral.SpectralFunction1D(GRID, coeffs)
        ts = np.linspace(0.0, 0.01, 300)
        sup = spectral.sup_over_times(F, ts, 2.0)
        assert np.max(np.abs(sup - loop_sup(F, ts))) < 1e-11
        assert np.array_equal(sup, single_pass(spectral.sup_over_times, F, ts, 2.0))

    def test_zero_coefficients(self):
        F = spectral.SpectralFunction1D(GRID, np.zeros(GRID.point_count))
        sup = spectral.sup_over_times(F, np.linspace(0.0, 1.0, 300), 2.0)
        assert np.array_equal(sup, np.zeros(GRID.point_count))

    def test_nonuniform_grid(self):
        F = spectral.make_bandlimited_random(40.0, "ball", 4, GRID)
        ts = 1.0 / np.arange(1, 400)
        assert spectral._uniform_step(ts) is None
        assert np.max(np.abs(spectral.sup_over_times(F, ts, 2.0) - loop_sup(F, ts))) < 1e-11

    def test_uniform_step_detection(self):
        ts = np.linspace(0.25, 0.75, 5001)
        assert spectral._uniform_step(ts) == pytest.approx(1e-4, rel=1e-12)
        merged = np.empty(2 * ts.size - 1)
        merged[0::2], merged[1::2] = ts, 0.5 * (ts[:-1] + ts[1:])
        assert spectral._uniform_step(merged) == pytest.approx(5e-5, rel=1e-12)
        assert spectral._uniform_step(ts[:2]) is None
        for k in (700, 4500):
            bent = ts.copy()
            bent[k] += 1e-13
            assert spectral._uniform_step(bent) is None


class TestScreen:
    """The complex64 screen of _screened_sup against one complex128 pass."""

    @pytest.mark.parametrize("case", ["N=256", "N=1024", "E-fine-grid"])
    def test_screen_error_within_margin(self, case):
        # the measured |mod32 - mod64| over 1024 times stays below eta / 20
        if case == "N=256":
            F = spectral.make_bandlimited_random(40.0, "ball", 0, GRID)
        elif case == "N=1024":
            grid = spectral.grid_for_bandlimit(1024.0)
            assert grid.point_count == 1024
            F = spectral.make_bandlimited_random(1024.0, "ball", 1, grid)
        else:
            F = padded_modulated(spectral.make_bandlimited_random(40.0, "ball", 2, GRID),
                                 4, -0.3)
        n = F.grid.point_count
        base = spectral.alternating_signs(n) * F.coefficients
        support = np.flatnonzero(base)
        lo, hi = support[0], support[-1] + 1
        ts = np.linspace(0.0, 1.0, 1024)
        phases = np.exp(1j * ts[:, None] * np.abs(F.grid.xi_nodes()[lo:hi]) ** 2.0)
        s, eta = spectral._screen_margin(base[lo:hi], n)

        def moduli(spectra):
            buffers = spectral._chunk_buffers(ts.size, n, spectra.dtype)
            buffers[0][:, lo:hi] = spectra
            return spectral._moduli(*buffers)
        mod64 = moduli(phases * base[lo:hi])
        mod32 = moduli(phases.astype(np.complex64) * (s * base[lo:hi]).astype(np.complex64))
        assert mod32.dtype == np.float32
        assert np.max(np.abs(mod32 - s * mod64)) <= eta / 20.0

    def test_flat_in_time_marks_every_row(self, moduli_rows, single_pass):
        # coefficients only at +-xi_0 give |S_t f(x)| constant in t: every row
        # ties with the max, so every time is recomputed
        coeffs = np.zeros(GRID.point_count, dtype=np.complex128)
        xi = GRID.xi_nodes()
        coeffs[np.abs(xi) == xi[GRID.point_count // 2 + 5]] = [1.0 + 2.0j, 0.5 - 1.0j]
        F = spectral.SpectralFunction1D(GRID, coeffs)
        ts = np.linspace(0.0, 1.0, 600)
        sup = spectral.sup_over_times(F, ts, 2.0)
        assert moduli_rows == {"complex64": ts.size, "complex128": ts.size}
        assert np.array_equal(sup, single_pass(spectral.sup_over_times, F, ts, 2.0))

    def test_any_scale_equals_single_pass(self, single_pass):
        # 2^e, e < -126, makes the complex64 values subnormal (or zero), and
        # e >= 118 makes some of them overflow, unless the screen rescales
        F = spectral.make_bandlimited_random(40.0, "ball", 3, GRID)
        ts = np.linspace(0.0, 0.5, 700)
        for e in [*range(-150, -118), *range(118, 131)]:
            G = spectral.SpectralFunction1D(GRID, F.coefficients * 2.0 ** e)
            assert np.array_equal(spectral.sup_over_times(G, ts, 2.0),
                                  single_pass(spectral.sup_over_times, G, ts, 2.0)), e

    def test_nan_coefficient_equals_single_pass(self, single_pass):
        coeffs = spectral.make_bandlimited_random(40.0, "ball", 3, GRID).coefficients.copy()
        coeffs[np.flatnonzero(coeffs)[7]] = math.nan
        G = spectral.SpectralFunction1D(GRID, coeffs)
        ts = np.linspace(0.0, 0.5, 700)
        sup = spectral.sup_over_times(G, ts, 2.0)
        assert np.isnan(sup).all()
        assert np.array_equal(sup, single_pass(spectral.sup_over_times, G, ts, 2.0),
                              equal_nan=True)


class TestUniformGrids:
    """Uniform grids through the bisection of _screened_sup, against one
    complex128 pass over every time (conftest.single_pass)."""

    @pytest.mark.parametrize("length", [1.0, 0.25, 0.01])
    @pytest.mark.parametrize("shape", ["ball", "annulus"])
    def test_no_time_screened_twice(self, length, shape, moduli_rows, single_pass):
        F = spectral.make_bandlimited_random(40.0, shape, 11, GRID)
        ts = np.linspace(0.2, 0.2 + length, 3001)
        assert spectral._uniform_step(ts) is not None
        sup = spectral.sup_over_times(F, ts, 2.0)
        assert np.array_equal(sup, single_pass(spectral.sup_over_times, F, ts, 2.0))
        assert moduli_rows["complex64"] <= ts.size
        assert 0 < moduli_rows["complex128"] <= moduli_rows["complex64"]


class TestArbitraryTimes:
    """Times that are not uniform through the complex128 screen, against one
    complex128 pass over every time (conftest.single_pass)."""

    @staticmethod
    def check(F, ts, single_pass, moduli_rows=None):
        assert spectral._uniform_step(ts) is None
        sup = spectral.sup_over_times(F, ts, 2.0)
        assert np.array_equal(sup, single_pass(spectral.sup_over_times, F, ts, 2.0),
                              equal_nan=True)
        if moduli_rows is not None:
            # the screen is the complex128 pass: no complex64 row, and no
            # time transformed twice
            assert moduli_rows["complex64"] == 0
            assert moduli_rows["complex128"] <= ts.size
        return sup

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unsorted_times(self, seed, moduli_rows, single_pass):
        F = spectral.make_bandlimited_random(40.0, "annulus", seed, GRID)
        ts = np.random.default_rng(seed).permutation(1.0 / np.arange(1, 3000))
        self.check(F, ts, single_pass, moduli_rows)

    def test_duplicate_times(self, moduli_rows, single_pass):
        F = spectral.make_bandlimited_random(40.0, "ball", 6, GRID)
        ts = np.repeat(1.0 / np.arange(1, 1000), 3)[::-1]
        self.check(F, ts, single_pass, moduli_rows)

    @pytest.mark.parametrize("ts", [[0.3], [0.3, 0.3], [0.7, 0.2]])
    def test_one_and_two_times(self, ts, moduli_rows, single_pass):
        F = spectral.make_bandlimited_random(40.0, "ball", 7, GRID)
        self.check(F, np.array(ts), single_pass, moduli_rows)

    def test_one_distinct_frequency_power(self, moduli_rows, single_pass):
        # coefficients only at +-xi_0: K = 0 and |S_t f(x)| is constant in t,
        # so every row ties with the max
        coeffs = np.zeros(GRID.point_count, dtype=np.complex128)
        xi = GRID.xi_nodes()
        coeffs[np.abs(xi) == xi[GRID.point_count // 2 + 5]] = [1.0 + 2.0j, 0.5 - 1.0j]
        F = spectral.SpectralFunction1D(GRID, coeffs)
        self.check(F, 1.0 / np.arange(1, 5000), single_pass, moduli_rows)

    def test_geometric_sequence(self, moduli_rows, single_pass):
        F = spectral.make_bandlimited_random(40.0, "annulus", 8, GRID)
        self.check(F, 2.0 ** -np.arange(1.0, 61.0), single_pass, moduli_rows)

    def test_sparse_then_dense(self, moduli_rows, single_pass):
        # 1/m for m <= 10, then 10^4 members 1/m near 1e-6, about 1e-12 apart
        F = spectral.make_bandlimited_random(40.0, "ball", 9, GRID)
        ts = np.concatenate([1.0 / np.arange(1, 11), 1.0 / np.arange(10 ** 6, 10 ** 6 + 10 ** 4)])
        self.check(F, ts, single_pass, moduli_rows)

    def test_cluster_marks_every_row(self, moduli_rows, single_pass):
        # 600 times within 1e-12 of each other: every row ties with the max
        # to far below the rounding slack, so every time is screened
        F = spectral.make_bandlimited_random(40.0, "ball", 5, GRID)
        ts = 0.3 + 1e-12 * np.random.default_rng(0).random(600)
        self.check(F, ts, single_pass)
        assert moduli_rows == {"complex64": 0, "complex128": ts.size}

    def test_single_coefficient(self, moduli_rows, single_pass):
        coeffs = np.zeros(GRID.point_count, dtype=np.complex128)
        coeffs[140] = 0.5 - 2.0j
        ts = 1.0 / np.arange(1, 400)
        self.check(spectral.SpectralFunction1D(GRID, coeffs), ts, single_pass)
        assert moduli_rows == {"complex64": 0, "complex128": ts.size}

    def test_zero_coefficients(self, moduli_rows, single_pass):
        F = spectral.SpectralFunction1D(GRID, np.zeros(GRID.point_count))
        sup = self.check(F, 1.0 / np.arange(1, 400), single_pass)
        assert np.array_equal(sup, np.zeros(GRID.point_count))
        assert moduli_rows == {"complex64": 0, "complex128": 0}

    def test_nan_coefficient(self, single_pass):
        coeffs = spectral.make_bandlimited_random(40.0, "ball", 3, GRID).coefficients.copy()
        coeffs[np.flatnonzero(coeffs)[7]] = math.nan
        sup = self.check(spectral.SpectralFunction1D(GRID, coeffs), 1.0 / np.arange(1, 400),
                         single_pass)
        assert np.isnan(sup).all()


class TestTimeSlope:
    """_time_curvature's bound, which lets the screen rule out a range of
    times by its two screened ends, on complex128 rows built as the screen
    builds them."""

    @given(seed=st.integers(0, 2 ** 32 - 1), a=st.sampled_from([1.5, 2.0, 3.0]),
           t=st.floats(0.0, 1.0), gap=st.floats(1e-9, 1e-1), inner=st.floats(0.0, 1.0))
    def test_inner_moduli_within_bound_of_the_ends(self, seed, a, t, gap, inner):
        # an inner time's modulus exceeds the larger end's by at most
        # K H^2 / 8, the reach by which the screen drops an interval between
        # two screened times
        rng = np.random.default_rng(seed)
        n = GRID.point_count
        lo = int(rng.integers(0, n - 1))
        hi = int(rng.integers(lo + 1, n + 1))
        row = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
        distinct, where = np.unique(np.abs(GRID.xi_nodes()[lo:hi]) ** a, return_inverse=True)
        ts = np.array([t, t + inner * gap, t + gap])
        curvature, phase = spectral._time_curvature(row, distinct[where], ts, n)
        s, eta = spectral._screen_margin(row, n)
        unit = eta / (7.0 * (math.log2(n) + 1.0)) / s
        buffers = spectral._chunk_buffers(3, n, np.complex128)
        spectral._time_rows(ts, distinct, where)(buffers[0][:, lo:hi], np.arange(3), row)
        mod = spectral._moduli(*buffers)
        h = ts[2] - ts[0]
        reach = curvature * h * h / 8.0
        assert np.all(mod[1] <= np.maximum(mod[0], mod[2]) + reach + 2.0 * (unit + phase))


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
