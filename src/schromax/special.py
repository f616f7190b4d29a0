"""Bessel functions of half-integer step order, their large-argument expansion,
the sphere-measure Fourier transform, the unit phases gamma(nu), and the
remainder kernel K_nu with its Schur constant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import jv

from schromax.spectral import SQRT_TWO_PI


@dataclass(frozen=True)
class BesselOrder:
    """Order nu = two_nu / 2 with two_nu an integer >= -1."""

    two_nu: int

    def __post_init__(self):
        if self.two_nu < -1:
            raise ValueError("order must satisfy nu >= -1/2")

    @property
    def nu(self) -> float:
        return self.two_nu / 2.0

    @classmethod
    def from_dimension(cls, n: int, k: int) -> "BesselOrder":
        """nu = n/2 + k - 1 for dimension n >= 1 and harmonic degree k >= 0."""
        if n < 1 or k < 0:
            raise ValueError("need n >= 1 and k >= 0")
        return cls(n + 2 * k - 2)

    @property
    def is_half_integer(self) -> bool:
        return self.two_nu % 2 != 0

    @property
    def kernel_vanishes(self) -> bool:
        """K_nu = 0 exactly: r^{1/2} J_{+-1/2}(r) = 2 Re(gamma_nu e^{ir})."""
        return self.two_nu in (-1, 1)


def bessel_j(nu: BesselOrder, r) -> np.ndarray | float:
    """J_nu(r) for r >= 0 (r > 0 required at nu = -1/2 where the value diverges)."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("argument must be nonnegative")
    if nu.two_nu == -1 and np.any(r_arr == 0):
        raise ValueError("J_{-1/2} diverges at r = 0")
    out = jv(nu.nu, r_arr)
    return out if np.ndim(r) else float(out)


def bessel_j_series(nu: BesselOrder, r: float) -> float:
    """Power series sum_m (-1)^m (r/2)^{2m+nu} / (m! Gamma(m+nu+1)), m < 60.

    Independent evaluation path, also the small-argument oracle in tests.
    """
    if r < 0:
        raise ValueError("argument must be nonnegative")
    v = nu.nu
    if r == 0.0:
        return 1.0 if nu.two_nu == 0 else 0.0
    half = r / 2.0
    total = 0.0
    term = half ** v / gamma_fn(v + 1.0)
    for m in range(60):
        total += term
        term *= -half * half / ((m + 1.0) * (m + 1.0 + v))
    return total


@lru_cache(maxsize=None)
def _hankel_poly_coeffs(two_nu: int, count: int) -> tuple[float, ...]:
    # a_m(nu) = prod_{i=1..m} (4 nu^2 - (2i-1)^2) / (m! 8^m)
    nu2 = (two_nu / 2.0) ** 2
    coeffs = [1.0]
    val = 1.0
    for m in range(1, count):
        val *= (4.0 * nu2 - (2 * m - 1) ** 2) / (8.0 * m)
        coeffs.append(val)
    return tuple(coeffs)


@dataclass(frozen=True)
class AsymptoticExpansion:
    """J_nu(r) ~ sum_m [ a_m e^{ir} + b_m e^{-ir} ] / r^{m+1/2} for r >= 12.

    b_m = conj(a_m); the truncation remainder is O(r^{-terms-1/2}) beyond
    r = 12, which the test suite validates against bessel_j.
    """

    order: BesselOrder
    terms: int = 3

    def a_coefficients(self) -> np.ndarray:
        poly = _hankel_poly_coeffs(self.order.two_nu, self.terms)
        front = 0.5 * math.sqrt(2.0 / math.pi) * np.exp(
            -1j * (math.pi * self.order.nu / 2.0 + math.pi / 4.0))
        return front * (1j ** np.arange(self.terms)) * np.array(poly)

    def evaluate(self, r) -> np.ndarray | float:
        r_arr = np.asarray(r, dtype=float)
        a = self.a_coefficients()
        total = np.zeros_like(r_arr, dtype=np.complex128)
        for m in range(self.terms):
            total += (a[m] * np.exp(1j * r_arr)
                      + np.conj(a[m]) * np.exp(-1j * r_arr)) / r_arr ** (m + 0.5)
        out = total.real
        return out if np.ndim(r) else float(out)

    def remainder_bound_constant(self) -> float:
        """sup of |J_nu - expansion| * r^{terms + 1/2} at 400 geometric
        samples of [12, 1e4]."""
        r = np.geomspace(12.0, 1e4, 400)
        err = np.abs(bessel_j(self.order, r) - self.evaluate(r))
        return float(np.max(err * r ** (self.terms + 0.5)))


def sphere_fourier(n: int, rho) -> np.ndarray | complex:
    """Fourier transform of the unit-sphere surface measure in R^n.

    sigma_hat(rho) = (2 pi)^{n/2} rho^{1-n/2} J_{(n-2)/2}(rho); the constant is
    pinned by sigma_hat(0) = |S^{n-1}| and the n = 2, 3 closed forms.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho_arr < 0):
        raise ValueError("rho must be nonnegative")
    m = (n - 2) / 2.0
    c = (2.0 * math.pi) ** (n / 2.0)
    out = np.empty(rho_arr.shape, dtype=np.complex128)
    pos = rho_arr > 0
    out[pos] = c * rho_arr[pos] ** (1.0 - n / 2.0) * jv(m, rho_arr[pos])
    # limit rho -> 0: J_m(rho) rho^{-m} -> 1 / (2^m Gamma(m+1))
    out[~pos] = c / (2.0 ** m * gamma_fn(m + 1.0))
    return out if np.ndim(rho) else complex(out[0])


def surface_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


def gamma_unit(nu: BesselOrder) -> complex:
    """gamma(nu) = e^{-i (pi nu / 2 + pi / 4)}, a unit phase."""
    return complex(np.exp(-1j * (math.pi * nu.nu / 2.0 + math.pi / 4.0)))


def gamma_kernel(nu: BesselOrder) -> complex:
    """gamma_nu = (2 pi)^{-1/2} e^{-i (pi nu / 2 + pi / 4)}."""
    return gamma_unit(nu) / SQRT_TWO_PI


def symmetry_constant(nu: BesselOrder, nu1: BesselOrder) -> float:
    """c = 2 |sin(pi (nu - nu1) / 2)|, exactly sqrt(2) or 2 for half-integer gaps.

    Degenerate when 2 nu1 = 2 nu (mod 4), where c would vanish.
    """
    diff = nu.two_nu - nu1.two_nu
    residue = diff % 4
    if residue == 0:
        raise ValueError("degenerate pair: 2 nu1 = 2 nu (mod 4) gives c = 0")
    if residue == 2:
        return 2.0
    return math.sqrt(2.0)


def main_kernel(nu: BesselOrder, r) -> np.ndarray:
    """gamma_nu e^{ir} + conj(gamma_nu) e^{-ir}, the main part of r^{1/2} J_nu(r)."""
    g = gamma_kernel(nu)
    return g * np.exp(1j * r) + np.conj(g) * np.exp(-1j * r)


def remainder_kernel(nu: BesselOrder, r) -> np.ndarray | complex:
    """K_nu(r) = r^{1/2} J_nu(r) - main_kernel(nu, r).

    Identically zero at nu = +-1/2 (up to roundoff; see
    BesselOrder.kernel_vanishes); otherwise bounded by C_nu / (1 + r).
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise ValueError("r must be positive")
    out = np.sqrt(r_arr) * jv(nu.nu, r_arr) - main_kernel(nu, r_arr)
    return out if np.ndim(r) else complex(out)


def kernel_sup_constant(nu: BesselOrder) -> float:
    """Numerically fitted sup of (1 + r) |K_nu(r)| — the operative C_nu —
    at 4000 geometric samples of [1e-3, 1e4]."""
    r = np.geomspace(1e-3, 1e4, 4000)
    return float(np.max((1.0 + r) * np.abs(remainder_kernel(nu, r))))


# Gauss-Legendre nodes per panel of the Schur quadrature.
GAUSS_NODES = 8
# Panels per vectorised kernel call: 4096 x 8 nodes keeps each array under 1 MiB.
_PANEL_CHUNK = 4096
# Upper end U of the Schur quadrature; the tail beyond it is bounded.
SCHUR_UPPER = 1e6
# Beyond about max(this radius, 2 nu^2) the panel edges come from the Hankel
# expansion, whose terms then shrink fast.
_FAR_RADIUS = 20.0


def schur_integral(kernel, edges, tail_constant: float = 0.0,
                   nodes: int = GAUSS_NODES) -> float:
    """integral_0^U kernel(r) r^{-1/2} dr + 2 C / sqrt(U), with U = edges[-1].

    The substitution r = u^2 turns the integral into integral 2 kernel(u^2) du,
    and each panel [sqrt(edges[i]), sqrt(edges[i+1])] gets a ``nodes``-point
    Gauss-Legendre rule; ``_PANEL_CHUNK`` panels are evaluated per call of the
    vectorised ``kernel``.  The edges run from 0 to U, and ``kernel`` must be
    smooth inside each panel (kinks on edges).  If kernel(r) <= C / (1 + r)
    beyond U, the tail is at most integral_U^inf C r^{-3/2} dr = 2 C / sqrt(U);
    adding it with ``tail_constant`` C makes the result an upper estimate.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.asarray(edges, dtype=float)
    total = 0.0
    for lo in range(0, edges.size - 1, _PANEL_CHUNK):
        u = np.sqrt(edges[lo:lo + _PANEL_CHUNK + 1])
        half = 0.5 * (u[1:] - u[:-1])
        u_nodes = 0.5 * (u[1:] + u[:-1])[:, None] + half[:, None] * x
        total += float(half @ (2.0 * kernel(u_nodes * u_nodes) @ w))
    return total + 2.0 * tail_constant / math.sqrt(edges[-1])


def _near_zeros(nu: BesselOrder, r_max: float) -> np.ndarray:
    """Zeros of K_nu on (0, r_max): sign changes on a grid of step 1/16,
    each narrowed by bisection to float resolution."""
    r = np.arange(1, int(16 * r_max) + 1) / 16.0
    k = remainder_kernel(nu, r).real
    left = np.nonzero(np.sign(k[:-1]) * np.sign(k[1:]) < 0)[0]
    lo, hi, k_lo = r[left], r[left + 1], k[left]
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        k_mid = remainder_kernel(nu, mid).real
        same = np.sign(k_mid) == np.sign(k_lo)
        lo, k_lo = np.where(same, mid, lo), np.where(same, k_mid, k_lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _far_zeros(nu: BesselOrder, k: np.ndarray) -> np.ndarray:
    """The zero of K_nu next to each half-period k pi + nu pi/2 + pi/4.

    The Hankel expansion gives K_nu(r) ~ 2 Re(e^{ir} S(r)) with
    S(r) = sum_{m=1}^{5} a_m r^{-m}; the half-periods are the zeros of its
    leading term, and the zeros of the sum are the fixed points of
    r = half-period - arg(S(r) conj(a_1)), reached in two iterations.
    """
    a = AsymptoticExpansion(nu, terms=6).a_coefficients()
    half_periods = (k + nu.nu / 2.0 + 0.25) * math.pi
    r = half_periods
    for _ in range(2):
        s = np.polyval(a[:0:-1], 1.0 / r) / r
        r = half_periods - np.angle(s * np.conj(a[1]))
    return r


def schur_panel_edges(nu: BesselOrder) -> np.ndarray:
    """Panel edges on [0, U], U = ``SCHUR_UPPER``, with every zero of K_nu,
    so every kink of |K_nu|, on an edge.

    Near region, up to the point r_split midway between the half-periods
    just below and just past max(``_FAR_RADIUS``, 2 nu^2): a uniform grid of
    step 1/2 plus the zeros of K_nu found by bisection.  Far region: one
    panel per half-period, edged by the zeros of the Hankel expansion
    (``_far_zeros``), then U itself.  Arrays stay within a few MiB: at
    U = 1e6 the far region has about 3.2e5 edges, computed
    ``_PANEL_CHUNK`` at a time.
    """
    phase = nu.nu / 2.0 + 0.25
    k_first = math.ceil(max(_FAR_RADIUS, 2.0 * nu.nu ** 2) / math.pi - phase)
    r_split = (k_first - 0.5 + phase) * math.pi
    near = np.union1d(np.append(np.arange(0.0, r_split, 0.5), r_split),
                      _near_zeros(nu, r_split))
    k_end = math.floor(SCHUR_UPPER / math.pi - phase) + 1
    far = [_far_zeros(nu, np.arange(k, min(k + _PANEL_CHUNK, k_end), dtype=float))
           for k in range(k_first, k_end, _PANEL_CHUNK)]
    if far:
        far[-1] = far[-1][far[-1] < SCHUR_UPPER]
    return np.concatenate([near[near < SCHUR_UPPER], *far, [SCHUR_UPPER]])


@lru_cache(maxsize=None)
def schur_constant_for_order(two_nu: int) -> float:
    """A_nu = integral |K_nu(r)| r^{-1/2} dr, the Schur bound of Prop-3 type.

    ``schur_integral`` of |K_nu| on ``schur_panel_edges(nu)`` with
    ``GAUSS_NODES`` nodes a panel, plus the tail bound 2 C_nu / sqrt(U),
    U = ``SCHUR_UPPER``, with the fitted C_nu of ``kernel_sup_constant``;
    the value is an upper estimate.  It is exactly 0 where K_nu vanishes
    (2 nu = +-1).
    """
    nu = BesselOrder(two_nu)
    if nu.kernel_vanishes:
        return 0.0
    return schur_integral(lambda r: np.abs(remainder_kernel(nu, r)),
                          schur_panel_edges(nu),
                          tail_constant=kernel_sup_constant(nu))
