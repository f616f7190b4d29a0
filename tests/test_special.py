"""Bessel evaluation, asymptotics, kernel split constants."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schromax import special
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


def asymptotic_value(expansion, r):
    """sum_m [a_m e^{ir} + conj(a_m) e^{-ir}] / r^{m+1/2} from the expansion's
    coefficients."""
    a = expansion.a_coefficients()
    return sum(2.0 * (a[m] * np.exp(1j * r)).real / r ** (m + 0.5)
               for m in range(expansion.terms))


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
    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"2nu={o.two_nu}")
    def test_remainder_order(self, order):
        exp = special.AsymptoticExpansion(order, terms=3)
        # error decays at the advertised power: the scaled sup is bounded
        r = np.geomspace(12.0, 1e4, 400)
        err = np.abs(special.bessel_j(order, r) - asymptotic_value(exp, r))
        assert np.max(err * r ** 3.5) < 10.0

    def test_more_terms_tighter_beyond_cutoff(self):
        r = np.geomspace(20.0, 200.0, 50)
        e2 = special.AsymptoticExpansion(BesselOrder(0), terms=2)
        e4 = special.AsymptoticExpansion(BesselOrder(0), terms=4)
        err2 = np.abs(special.bessel_j(BesselOrder(0), r) - asymptotic_value(e2, r))
        err4 = np.abs(special.bessel_j(BesselOrder(0), r) - asymptotic_value(e4, r))
        assert np.max(err4) < np.max(err2)

    def test_leading_term_prefactor(self):
        # leading coefficient has modulus (2 pi)^{-1/2} in e^{ir} pairing
        a = special.AsymptoticExpansion(BesselOrder(0), terms=3).a_coefficients()
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


# A_nu from the 40-panel adaptive quad rule the panel quadrature replaced.
ADAPTIVE_QUAD_VALUES = {0: 0.563194673765964, 2: 1.2937863267107907,
                        3: 2.6837715258241674}


class TestSchurConstants:
    def test_exact_power_kernel(self):
        # K(r) = e^{-r}: A = integral e^{-r} r^{-1/2} dr = Gamma(1/2) = sqrt(pi)
        val = special.schur_integral(lambda r: np.exp(-r), np.linspace(0.0, 50.0, 101))
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_finite_upper_with_tail(self):
        edges = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 400)])
        val = special.schur_integral(lambda r: 1.0 / (1.0 + r), edges,
                                     tail_constant=1.0)
        # exact integral is pi; tail correction keeps it an upper estimate
        assert math.pi <= val < math.pi + 0.01

    def test_order_constants(self):
        assert special.schur_constant_for_order(-1) == 0.0
        assert special.schur_constant_for_order(1) < 1e-10
        a0 = special.schur_constant_for_order(0)
        a2 = special.schur_constant_for_order(2)
        a3 = special.schur_constant_for_order(3)
        assert 0.4 < a0 < 0.8
        assert a0 < a2 < a3

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
        assert special.schur_constant_for_order(two_nu) == pytest.approx(
            ADAPTIVE_QUAD_VALUES[two_nu], rel=5e-5)

    def test_edges_hold_the_kinks(self):
        # every zero of K_nu in a panel's interior would be a kink of |K_nu|
        nu = BesselOrder(0)
        edges = special.schur_panel_edges(nu)
        x = np.linspace(0.001, 0.999, 50)
        for lo in (0, np.searchsorted(edges, 15.0), edges.size // 2, edges.size - 41):
            a, b = edges[lo:lo + 40], edges[lo + 1:lo + 41]
            k = special.remainder_kernel(nu, a[:, None] + (b - a)[:, None] * x).real
            assert np.all(np.abs(np.diff(np.sign(k), axis=1)) == 0)

    def test_bounded_temporaries(self):
        tracemalloc.start()
        try:
            special.schur_constant_for_order.__wrapped__(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the far region has ~3.2e5 edges (2.4 MiB); all nodes at once would be 40 MiB
        assert peak < 8 * 2 ** 20
