"""Bessel evaluation, asymptotics, kernel split constants."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import jv as scipy_jv

from schromax import radial, special
from schromax.special import BesselOrder

ORDERS = [BesselOrder(t) for t in (-1, 0, 1, 2, 3)]


def bessel_j_series(nu, r):
    """sum_m (-1)^m (r/2)^{2m+nu} / (m! Gamma(m+nu+1)), m < 60: an evaluation
    path independent of scipy's jv."""
    half = r / 2.0
    total = 0.0
    term = half ** nu.nu / math.gamma(nu.nu + 1.0)
    for m in range(60):
        total += term
        term *= -half * half / ((m + 1.0) * (m + 1.0 + nu.nu))
    return total


def hankel_a(order, terms):
    """a_m = gamma_nu i^m p_m, m < terms: the coefficients of e^{ir} r^{-m-1/2}
    in the Hankel expansion of J_nu(r)."""
    p = np.array(special._hankel_poly_coeffs(order.two_nu, terms))
    return special.gamma_kernel(order) * 1j ** np.arange(terms) * p


def asymptotic_value(order, terms, r):
    """sum_{m < terms} [a_m e^{ir} + conj(a_m) e^{-ir}] / r^{m+1/2}."""
    a = hankel_a(order, terms)
    return sum(2.0 * (a[m] * np.exp(1j * r)).real / r ** (m + 0.5)
               for m in range(terms))


class TestBesselOrder:
    def test_rejects_below_minus_half(self):
        with pytest.raises(ValueError):
            BesselOrder(-2)

    @given(st.integers(1, 6), st.integers(0, 4))
    def test_from_dimension(self, n, k):
        nu = BesselOrder.from_dimension(n, k)
        assert nu.nu == n / 2 + k - 1

    def test_from_dimension_validation(self):
        with pytest.raises(ValueError):
            BesselOrder.from_dimension(0, 0)


class TestBesselEvaluation:
    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"2nu={o.two_nu}")
    def test_series_agrees_with_scipy(self, order):
        for r in np.linspace(0.05, 12.0, 40):
            assert special.bessel_j(order, float(r)) == pytest.approx(
                bessel_j_series(order, float(r)), abs=1e-12)

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"2nu={o.two_nu}")
    def test_agrees_with_mpmath(self, order):
        for r in (0.3, 1.7, 9.4, 31.0):
            expected = float(mpmath.besselj(order.nu, r))
            assert special.bessel_j(order, r) == pytest.approx(expected, abs=1e-13)

    def test_half_integer_closed_forms(self):
        # J_{-1/2}(r) = sqrt(2/(pi r)) cos r, J_{1/2}(r) = sqrt(2/(pi r)) sin r
        r = np.linspace(0.1, 20.0, 100)
        c = np.sqrt(2.0 / (math.pi * r))
        assert np.max(np.abs(special.bessel_j(BesselOrder(-1), r) - c * np.cos(r))) < 1e-13
        assert np.max(np.abs(special.bessel_j(BesselOrder(1), r) - c * np.sin(r))) < 1e-13

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            special.bessel_j(BesselOrder(0), -1.0)

    def test_minus_half_diverges_at_zero(self):
        with pytest.raises(ValueError):
            special.bessel_j(BesselOrder(-1), 0.0)


class TestAsymptoticExpansion:
    """The Hankel expansion from p_m and gamma_nu against J_nu itself."""

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"2nu={o.two_nu}")
    def test_remainder_order(self, order):
        # three terms leave an error of order r^{-3-1/2}: the scaled sup is bounded
        r = np.geomspace(12.0, 1e4, 400)
        err = np.abs(special.bessel_j(order, r) - asymptotic_value(order, 3, r))
        assert np.max(err * r ** 3.5) < 10.0

    def test_more_terms_tighter_beyond_cutoff(self):
        order = BesselOrder(0)
        r = np.geomspace(20.0, 200.0, 50)
        err2 = np.abs(special.bessel_j(order, r) - asymptotic_value(order, 2, r))
        err4 = np.abs(special.bessel_j(order, r) - asymptotic_value(order, 4, r))
        assert np.max(err4) < np.max(err2)

    def test_leading_term_prefactor(self):
        # leading coefficient has modulus (2 pi)^{-1/2} in e^{ir} pairing
        a = hankel_a(BesselOrder(0), 3)
        assert abs(a[0]) == pytest.approx(0.5 * math.sqrt(2.0 / math.pi))


class TestSphereFourier:
    def test_surface_area_values(self):
        assert special.surface_area(2) == pytest.approx(2 * math.pi)
        assert special.surface_area(3) == pytest.approx(4 * math.pi)
        assert special.surface_area(4) == pytest.approx(2 * math.pi ** 2)


class TestKernelSplit:
    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"2nu={o.two_nu}")
    def test_gamma_unit_modulus(self, order):
        assert abs(special.gamma_unit(order)) == pytest.approx(1.0, abs=1e-15)

    def test_remainder_kernel_minus_half_vanishes(self):
        r = np.linspace(0.1, 50.0, 200)
        assert np.max(np.abs(special.remainder_kernel(BesselOrder(-1), r))) < 1e-13

    def test_remainder_kernel_half_vanishes(self):
        # r^{1/2} J_{1/2}(r) = sqrt(2/pi) sin r matches the two-phase main part
        r = np.linspace(0.1, 50.0, 200)
        assert np.max(np.abs(special.remainder_kernel(BesselOrder(1), r))) < 1e-13

    @pytest.mark.parametrize("two_nu", [0, 2, 3])
    def test_kernel_decay_envelope(self, two_nu):
        nu = BesselOrder(two_nu)
        c = special.kernel_sup_constant(nu)
        r = np.geomspace(1e-2, 1e3, 500)
        assert np.all(np.abs(special.remainder_kernel(nu, r)) <= c / (1.0 + r) + 1e-12)

    def test_remainder_kernel_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            special.remainder_kernel(BesselOrder(0), 0.0)


def mp_kernels(two_nu, r):
    """(r^{1/2} J_nu(r), K_nu(r)) at 40 significant digits."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(two_nu) / 2
        x = mpmath.mpf(float(r))
        field = mpmath.sqrt(x) * mpmath.besselj(nu, x)
        main = mpmath.sqrt(2 / mpmath.pi) * mpmath.cos(x - mpmath.pi * (2 * nu + 1) / 4)
        return float(field), float(field - main)


KERNEL_ORDERS = (0, 2, 3, 4, 6)
KERNEL_RADII = np.geomspace(1e-3, 1e6, 241)


@pytest.fixture(scope="module")
def kernel_reference():
    """{2 nu: (r^{1/2} J_nu, K_nu) on KERNEL_RADII} from mpmath."""
    return {t: np.array([mp_kernels(t, r) for r in KERNEL_RADII]).T
            for t in KERNEL_ORDERS}


class TestKernelEvaluator:
    """r^{1/2} J_nu and K_nu on both sides of R_nu against 40-digit mpmath."""

    @pytest.mark.parametrize("two_nu", KERNEL_ORDERS)
    def test_far_field_absolute_error(self, two_nu, kernel_reference):
        nu = BesselOrder(two_nu)
        far = KERNEL_RADII >= special.far_radius(nu)
        assert far.sum() > 100
        k = special.remainder_kernel(nu, KERNEL_RADII[far])
        assert np.max(np.abs(k - kernel_reference[two_nu][1][far])) <= 1e-16

    @pytest.mark.parametrize("two_nu", KERNEL_ORDERS)
    def test_near_field_absolute_error(self, two_nu, kernel_reference):
        nu = BesselOrder(two_nu)
        near = KERNEL_RADII < special.far_radius(nu)
        assert near.sum() > 20
        field, k = kernel_reference[two_nu]
        r = KERNEL_RADII[near]
        assert np.max(np.abs(special.remainder_kernel(nu, r) - k[near])) <= 3e-14
        assert np.max(np.abs(special.bessel_kernel(nu, r) - field[near])) <= 3e-14

    @pytest.mark.parametrize("two_nu", KERNEL_ORDERS)
    def test_bessel_kernel_continuous_at_far_radius(self, two_nu):
        nu = BesselOrder(two_nu)
        radius = special.far_radius(nu)
        below = np.nextafter(radius, 0.0)
        got = special.bessel_kernel(nu, np.array([below, radius]))
        want = np.array([mp_kernels(two_nu, below)[0], mp_kernels(two_nu, radius)[0]])
        assert abs(np.diff(got)[0] - np.diff(want)[0]) <= 1e-15

    def test_three_halves_closed_form(self):
        # r^{1/2} J_{3/2}(r) = sqrt(2/pi) (sin r / r - cos r): K_{3/2} = sqrt(2/pi) sin r / r
        nu = BesselOrder(3)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.sqrt(2 / mpmath.pi) * mpmath.sin(r) / r)
                             for r in map(mpmath.mpf, KERNEL_RADII)])
        err = np.abs(special.remainder_kernel(nu, KERNEL_RADII) - want)
        far = KERNEL_RADII >= special.far_radius(nu)
        assert np.max(err[far]) <= 1e-16
        assert np.max(err[~far]) <= 3e-14

    def test_far_radius_rule(self):
        # the expansion at 2 nu = +-1 is empty, so K_nu is exactly 0 everywhere;
        # at 2 nu = 3 it is the single term sqrt(2/pi) sin r / r, first used where
        # it is 1/8 of the main kernel's size
        assert special.far_radius(BesselOrder(-1)) == special.far_radius(BesselOrder(1)) == 0.0
        assert special.far_radius(BesselOrder(3)) == 8.0
        assert not np.any(special.remainder_kernel(BesselOrder(1), KERNEL_RADII))
        # the far field of nu = 0, 1 starts below 32, where j0 and j1 hold 1e-15
        assert special.far_radius(BesselOrder(0)) < 32.0
        assert special.far_radius(BesselOrder(2)) < 32.0
        # beyond nu = 9 + 1/2 the first omitted term need not bound the error
        assert special.far_radius(BesselOrder(19)) < math.inf
        assert special.far_radius(BesselOrder(20)) == math.inf

    def test_half_orders_are_the_main_kernel(self):
        # r^{1/2} J_{-1/2}(r) = sqrt(2/pi) cos r and r^{1/2} J_{1/2}(r) = sqrt(2/pi) sin r,
        # also at r = 0 and where 1/r^2 overflows
        r = np.array([0.0, 1e-200, 0.5, 30.0, 1e5])
        c = math.sqrt(2.0 / math.pi)
        for two_nu, want in ((-1, c * np.cos(r)), (1, c * np.sin(r))):
            got = special.bessel_kernel(BesselOrder(two_nu), r)
            assert np.max(np.abs(got - want)) <= 1e-16

    @pytest.mark.parametrize("two_nu", [0, 2, 4, 6, 10, 19])
    def test_far_radius_bounds_the_truncation(self, two_nu):
        nu = BesselOrder(two_nu)
        radius = special.far_radius(nu)
        p = special._hankel_poly_coeffs(two_nu, special._FAR_TERMS + 2)
        omitted = sum(abs(p[m]) * radius ** -m
                      for m in (special._FAR_TERMS, special._FAR_TERMS + 1))
        assert 2.0 * abs(special.gamma_kernel(nu)) * omitted <= 1e-17 * (1 + 1e-12)

    def test_real_values(self):
        nu = BesselOrder(0)
        assert type(special.remainder_kernel(nu, 3.0)) is float
        assert special.remainder_kernel(nu, np.array([3.0, 300.0])).dtype == np.float64
        assert special.bessel_kernel(nu, np.ones((2, 3))).dtype == np.float64


class TestFarFieldAvoidsJv:
    """The far field does not drift back onto scipy's jv."""

    @pytest.fixture
    def jv_radii(self, monkeypatch):
        """Every argument array scipy's jv receives from special, by order."""
        seen = []

        def recording(nu, r):
            seen.append((nu, np.asarray(r, dtype=float).copy()))
            return scipy_jv(nu, r)

        monkeypatch.setattr(special, "jv", recording)
        special.schur_quadrature.cache_clear()
        return seen

    @pytest.mark.parametrize("two_nu", [0, 2])
    def test_integer_orders_never_call_jv(self, jv_radii, two_nu):
        special.schur_quadrature(two_nu)
        assert jv_radii == []

    @pytest.mark.parametrize("two_nu", [3, 4])
    def test_jv_only_below_far_radius(self, jv_radii, two_nu):
        special.schur_quadrature(two_nu)
        radius = special.far_radius(BesselOrder(two_nu))
        assert jv_radii
        assert all(nu == two_nu / 2 and np.all(r < radius) for nu, r in jv_radii)

    def test_hankel_evolution_never_calls_jv(self, jv_radii):
        radial.thm6_evolution(0, 2, 0)
        assert jv_radii == []


# A_nu from the 40-panel adaptive quad rule the panel quadrature replaced.
ADAPTIVE_QUAD_VALUES = {0: 0.563194673765964, 2: 1.2937863267107907,
                        3: 2.6837715258241674}


class TestSchurConstants:
    def test_exact_power_kernel(self):
        # K(r) = e^{-r}: A = integral e^{-r} r^{-1/2} dr = Gamma(1/2) = sqrt(pi)
        val = special.schur_integral(lambda r: np.exp(-r), np.linspace(0.0, 50.0, 101))
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_order_constants(self):
        assert special.schur_constant_for_order(-1) == (0.0, 0, 0.0)
        assert special.schur_constant_for_order(1).value < 1e-10
        a0 = special.schur_constant_for_order(0).value
        a2 = special.schur_constant_for_order(2).value
        a3 = special.schur_constant_for_order(3).value
        assert 0.4 < a0 < 0.8
        assert a0 < a2 < a3

    @pytest.mark.parametrize("two_nu", sorted(special._SCHUR_TABLE))
    def test_table_is_the_quadrature(self, two_nu):
        tabulated, computed = special._SCHUR_TABLE[two_nu], special.schur_quadrature(two_nu)
        for field in special.SchurConstant._fields:
            assert getattr(tabulated, field) == getattr(computed, field)
        assert special.schur_constant_for_order(two_nu) is tabulated

    @pytest.mark.parametrize("two_nu", [-1, 1, 5])
    def test_untabulated_orders_take_the_quadrature(self, two_nu):
        assert two_nu not in special._SCHUR_TABLE
        assert special.schur_constant_for_order(two_nu) == special.schur_quadrature(two_nu)

    @pytest.mark.parametrize("two_nu", [0, 2, 3])
    def test_refined_rule_agrees(self, two_nu):
        nu = BesselOrder(two_nu)

        def k_abs(r):
            return np.abs(special.remainder_kernel(nu, r))

        edges = special.schur_panel_edges(nu)
        base = special.schur_integral(k_abs, edges)
        more_nodes = special.schur_integral(k_abs, edges, nodes=2 * special.GAUSS_NODES)
        halved = special.schur_integral(
            k_abs, np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])))
        assert abs(more_nodes - base) < 1e-9 * base
        assert abs(halved - base) < 1e-9 * base

    @pytest.mark.parametrize("two_nu", [0, 2, 3])
    def test_agrees_with_adaptive_quad(self, two_nu):
        # the adaptive rule carried the sampled tail 2 C_nu / sqrt(U); compare
        # the parts on [0, U]
        schur = special.schur_constant_for_order(two_nu)
        sampled_tail = (2.0 * special.kernel_sup_constant(BesselOrder(two_nu))
                        / math.sqrt(special.SCHUR_UPPER))
        assert schur.value - schur.tail == pytest.approx(
            ADAPTIVE_QUAD_VALUES[two_nu] - sampled_tail, rel=5e-5)

    @pytest.mark.parametrize("two_nu", [0, 2, 3, 5])
    def test_tail_sandwich(self, two_nu):
        # |K_nu| r^{-1/2} ~ c |sin| r^{-3/2}, so the integral over [U, 2U], scaled by
        # 1 / (1 - 2^{-1/2}), estimates the tail; the bound replaces |sin| by 1,
        # a factor pi / 2
        nu = BesselOrder(two_nu)
        upper = special.SCHUR_UPPER
        # h_k - k pi = (nu/2 + 1/4) pi <= 3 pi / 2: these k hold every zero in (U, 2U)
        k = np.arange(math.floor(upper / math.pi) - 3, math.ceil(2.0 * upper / math.pi))
        edges = special._far_zeros(nu, k.astype(float))
        edges = np.concatenate([[upper], edges[(edges > upper) & (edges < 2.0 * upper)],
                                [2.0 * upper]])
        estimate = special.schur_integral(
            lambda r: np.abs(special.remainder_kernel(nu, r)), edges) / (1.0 - 2.0 ** -0.5)
        tail = special.schur_constant_for_order(two_nu).tail
        assert estimate <= tail <= 1.6 * estimate

    @pytest.mark.parametrize("two_nu", [0, 2, 3, 5, 20])
    def test_far_edges_hold_zeros(self, two_nu):
        # far edges from the 6-term expansion; 2 nu = 20 evaluates K_nu on jv
        nu = BesselOrder(two_nu)
        edges = special.schur_panel_edges(nu)
        r_near = max(special._FAR_ZEROS_RADIUS, 2.0 * nu.nu ** 2) + 0.5 * math.pi
        far = edges[(edges > r_near) & (edges < special.SCHUR_UPPER)]
        assert far.size > 3e5
        p1 = special._hankel_poly_coeffs(two_nu, 2)[1]
        envelope = 2.0 * abs(special.gamma_kernel(nu) * p1) / far
        assert np.max(np.abs(special.remainder_kernel(nu, far)) / envelope) <= 1e-6

    def test_edges_hold_the_kinks(self):
        # every zero of K_nu in a panel's interior would be a kink of |K_nu|
        nu = BesselOrder(0)
        edges = special.schur_panel_edges(nu)
        x = np.linspace(0.001, 0.999, 50)
        for lo in (0, np.searchsorted(edges, 15.0), edges.size // 2, edges.size - 41):
            a, b = edges[lo:lo + 40], edges[lo + 1:lo + 41]
            k = special.remainder_kernel(nu, a[:, None] + (b - a)[:, None] * x)
            assert np.all(np.abs(np.diff(np.sign(k), axis=1)) == 0)

    def test_bounded_temporaries(self):
        tracemalloc.start()
        try:
            special.schur_quadrature.__wrapped__(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the far region has ~3.2e5 edges (2.4 MiB); all nodes at once would be 40 MiB
        assert peak < 8 * 2 ** 20
