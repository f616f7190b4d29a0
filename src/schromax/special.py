"""Bessel functions of half-integer step order, the coefficients of their
large-argument expansion, the unit phases gamma(nu), and the remainder kernel
K_nu with its Schur constant.

The kernels r^{1/2} J_nu(r) and K_nu(r) are evaluated in two ranges split at
R_nu (``far_radius``): below it from ``j0`` / ``j1`` at nu = 0, 1 and from
``jv`` at other orders; from R_nu on, K_nu comes from its Hankel expansion
and r^{1/2} J_nu from the main kernel plus K_nu.  ``bessel_j`` stays on
``jv``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import j0, j1, jv

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


@lru_cache(maxsize=None)
def _hankel_poly_coeffs(two_nu: int, count: int) -> tuple[float, ...]:
    """p_0 .. p_{count-1}, p_m = prod_{i=1..m} (4 nu^2 - (2i-1)^2) / (m! 8^m): the
    Hankel expansion r^{1/2} J_nu(r) ~ 2 Re(gamma_nu e^{ir} sum_m i^m p_m r^{-m})."""
    nu2 = (two_nu / 2.0) ** 2
    coeffs = [1.0]
    val = 1.0
    for m in range(1, count):
        val *= (4.0 * nu2 - (2 * m - 1) ** 2) / (8.0 * m)
        coeffs.append(val)
    return tuple(coeffs)


def surface_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


def gamma_unit(nu: BesselOrder) -> complex:
    """gamma(nu) = e^{-i (pi nu / 2 + pi / 4)} = e^{-i k pi / 4}, k = 2 nu + 1,
    an eighth root of unity, from exact values of the cosine."""
    cos = (1.0, math.sqrt(0.5), 0.0, -math.sqrt(0.5), -1.0, -math.sqrt(0.5), 0.0,
           math.sqrt(0.5))
    k = (nu.two_nu + 1) % 8
    return complex(cos[k], -cos[(k - 2) % 8])


def gamma_kernel(nu: BesselOrder) -> complex:
    """gamma_nu = (2 pi)^{-1/2} e^{-i (pi nu / 2 + pi / 4)}."""
    return gamma_unit(nu) / SQRT_TWO_PI


def _phases(nu: BesselOrder, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2 Re(gamma_nu e^{ir}) and 2 Im(gamma_nu e^{ir}) in real arithmetic."""
    g = gamma_kernel(nu)
    cos, sin = np.cos(r), np.sin(r)
    return 2.0 * (g.real * cos - g.imag * sin), 2.0 * (g.real * sin + g.imag * cos)


def main_kernel(nu: BesselOrder, r) -> np.ndarray:
    """gamma_nu e^{ir} + conj(gamma_nu) e^{-ir} = 2 Re(gamma_nu e^{ir}), the main
    part of r^{1/2} J_nu(r)."""
    return _phases(nu, r)[0]


# Hankel-expansion coefficients p_0 .. p_{_FAR_TERMS - 1} give the far field.
# Its cosine series holds the even m, its sine series the odd m, 9 terms each;
# for nu <= 9 + 1/2 either truncation error is at most its first omitted term
# (Watson, Bessel Functions, 7.32; DLMF 10.17(iii)), so larger orders stay on
# jv everywhere.  With 18 terms R_nu stays below 32 for nu <= 1, where j0 and
# j1 are accurate to 1e-15 in r^{1/2} J_nu (beyond 32 their phase x - pi/4
# rounds to a coarser step).
_FAR_TERMS = 18
# Bound on the absolute truncation error of the far-field K_nu.
_FAR_TRUNCATION = 1e-17


class _FarSeries(NamedTuple):
    radius: float
    even: np.ndarray   # (-1)^{m/2} p_m, m = 2, 4, ..., highest m first
    odd: np.ndarray    # (-1)^{(m-1)/2} p_m, m = 1, 3, ..., highest m first


@lru_cache(maxsize=None)
def _far_series(two_nu: int) -> _FarSeries:
    """R_nu and the two Horner coefficient lists of the far-field K_nu.

    With p_m of ``_hankel_poly_coeffs``, R_nu is the smallest radius at which
    - the first correction term is at most 1/8 of the leading one
      (r >= 8 |p_1|), and the terms kept decrease from there
      (r >= |p_m / p_{m-1}|), so the sum neither cancels nor reaches the
      size of the main kernel, and
    - both first omitted terms 2 |gamma_nu| |p_m| r^{-m},
      m = ``_FAR_TERMS`` and ``_FAR_TERMS`` + 1, are below
      ``_FAR_TRUNCATION`` / 2.
    An expansion that terminates (nu a half-integer) has no truncation
    error.  Orders above ``_FAR_TERMS`` / 2 + 1/2 get R_nu = inf.
    """
    p = _hankel_poly_coeffs(two_nu, _FAR_TERMS + 2)
    radius = math.inf
    if two_nu <= _FAR_TERMS + 1:
        scale = 4.0 * abs(gamma_kernel(BesselOrder(two_nu))) / _FAR_TRUNCATION
        omitted = (_FAR_TERMS, _FAR_TERMS + 1)
        radius = max([8.0 * abs(p[1])]
                     + [abs(p[m] / p[m - 1]) for m in range(2, _FAR_TERMS) if p[m - 1]]
                     + [(scale * abs(p[m])) ** (1.0 / m) for m in omitted])
    signed = [(-1) ** (m // 2) * p[m] for m in range(_FAR_TERMS)]
    even, odd = np.trim_zeros(signed[2::2], "b"), np.trim_zeros(signed[1::2], "b")
    return _FarSeries(radius, np.array(even[::-1]), np.array(odd[::-1]))


def far_radius(nu: BesselOrder) -> float:
    """R_nu: from here on K_nu comes from its Hankel expansion (see _far_series)."""
    return _far_series(nu.two_nu).radius


def _horner(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.full(y.shape, coeffs[0]) if coeffs.size else np.zeros(y.shape)
    for c in coeffs[1:]:
        out *= y
        out += c
    return out


# Kernel values per block of _split_kernel: its dozen temporaries then stay
# within a few MiB however large the kernel matrix.
_KERNEL_BLOCK = 32768


def _split_kernel(nu: BesselOrder, r, remainder: bool) -> np.ndarray:
    """K_nu(r) (``remainder``) or r^{1/2} J_nu(r), real, for r >= 0.

    Below R_nu: r^{1/2} J_nu(r) from j0 / j1 at 2 nu = 0, 2 and jv otherwise,
    and K_nu as that minus the main kernel.  From R_nu on:
    K_nu = 2 Re(gamma_nu e^{ir} S(1/r)), S(x) = sum_{1 <= m < 18} i^m p_m x^m,
    summed as a cosine series P and a sine series Q in real arithmetic, and
    r^{1/2} J_nu = main + K_nu; the difference of two O(1) numbers is never
    formed there.  Evaluated ``_KERNEL_BLOCK`` values at a time.
    """
    r = np.asarray(r, dtype=float)
    series = _far_series(nu.two_nu)
    bessel = j0 if nu.two_nu == 0 else j1 if nu.two_nu == 2 else partial(jv, nu.nu)
    out = np.empty(r.shape)
    flat_r, flat_out = r.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_r.size, _KERNEL_BLOCK):
        block = flat_r[lo:lo + _KERNEL_BLOCK]
        block_out = flat_out[lo:lo + _KERNEL_BLOCK]
        far = block >= series.radius
        near = ~far
        rn = block[near]
        field = np.sqrt(rn) * bessel(rn)
        block_out[near] = field - main_kernel(nu, rn) if remainder else field
        rf = block[far]
        if rf.size:
            re, im = _phases(nu, rf)
            k = 0.0   # 2 nu = +-1: the expansion ends at p_0, so K_nu = 0 for r >= 0
            if series.odd.size:
                x = 1.0 / rf
                y = x * x
                k = re * y * _horner(series.even, y) - im * x * _horner(series.odd, y)
            block_out[far] = k if remainder else re + k
    return out


def bessel_kernel(nu: BesselOrder, r) -> np.ndarray:
    """r^{1/2} J_nu(r) for r >= 0, the kernel of the Hankel evolution."""
    return _split_kernel(nu, r, remainder=False)


def remainder_kernel(nu: BesselOrder, r) -> np.ndarray | float:
    """K_nu(r) = r^{1/2} J_nu(r) - main_kernel(nu, r), real.

    Exactly zero at nu = +-1/2, whose Hankel expansion ends at p_0 (see
    BesselOrder.kernel_vanishes).  For nu <= 9 + 1/2 and every r > 0,
    |K_nu(r)| <= 2 |gamma_nu| sum_{m=1}^{19} |p_m| r^{-m}: the terms kept by
    ``_far_series`` plus its two first omitted terms.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise ValueError("r must be positive")
    out = _split_kernel(nu, r_arr, remainder=True)
    return out if np.ndim(r) else float(out)


def kernel_sup_constant(nu: BesselOrder) -> float:
    """Numerically fitted sup of (1 + r) |K_nu(r)|, C_nu, at 4000 geometric
    samples of [1e-3, 1e4]; the Schur tail rests on it only where R_nu = inf."""
    r = np.geomspace(1e-3, 1e4, 4000)
    return float(np.max((1.0 + r) * np.abs(remainder_kernel(nu, r))))


# Gauss-Legendre nodes per panel of the Schur quadrature.
GAUSS_NODES = 8
# Panels per vectorised kernel call: 4096 x 8 nodes keeps each array under 1 MiB.
_PANEL_CHUNK = 4096
# Upper end U of the Schur quadrature; the tail beyond it is bounded.
SCHUR_UPPER = 1e6
# Beyond about max(this radius, 2 nu^2) the panel edges come from the zeros of
# the Hankel expansion, whose terms then shrink fast.
_FAR_ZEROS_RADIUS = 20.0


def schur_integral(kernel, edges, nodes: int = GAUSS_NODES) -> float:
    """integral kernel(r) r^{-1/2} dr from edges[0] to edges[-1].

    The substitution r = u^2 turns the integral into integral 2 kernel(u^2) du,
    and each panel [sqrt(edges[i]), sqrt(edges[i+1])] gets a ``nodes``-point
    Gauss-Legendre rule; ``_PANEL_CHUNK`` panels are evaluated per call of the
    vectorised ``kernel``, which must be smooth inside each panel (kinks on
    edges).
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.asarray(edges, dtype=float)
    total = 0.0
    for lo in range(0, edges.size - 1, _PANEL_CHUNK):
        u = np.sqrt(edges[lo:lo + _PANEL_CHUNK + 1])
        half = 0.5 * (u[1:] - u[:-1])
        u_nodes = 0.5 * (u[1:] + u[:-1])[:, None] + half[:, None] * x
        total += float(half @ (2.0 * kernel(u_nodes * u_nodes) @ w))
    return total


def _near_zeros(nu: BesselOrder, r_max: float) -> np.ndarray:
    """Zeros of K_nu on (0, r_max): sign changes on a grid of step 1/16,
    each narrowed by bisection to float resolution."""
    r = np.arange(1, int(16 * r_max) + 1) / 16.0
    k = remainder_kernel(nu, r)
    left = np.nonzero(np.sign(k[:-1]) * np.sign(k[1:]) < 0)[0]
    lo, hi, k_lo = r[left], r[left + 1], k[left]
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        k_mid = remainder_kernel(nu, mid)
        same = np.sign(k_mid) == np.sign(k_lo)
        lo, k_lo = np.where(same, mid, lo), np.where(same, k_mid, k_lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _half_period(nu: BesselOrder, k):
    """h_k = (k + nu/2 + 1/4) pi, the zeros of the leading term of K_nu."""
    return (k + nu.nu / 2.0 + 0.25) * math.pi


def _far_zeros(nu: BesselOrder, k: np.ndarray) -> np.ndarray:
    """The zero of K_nu next to each half-period h_k.

    As in ``_split_kernel``, K_nu = re y P(y) - im x Q(y) with x = 1/r,
    y = x^2 and re, im = ``_phases(nu, r)`` = 2 |gamma_nu| (cos, sin)(r - h_0),
    here with the terms m <= 5 of P and Q (the tails of the Horner lists).
    Its zeros solve tan(r - h_k) = x P(y) / Q(y), and two fixed-point steps
    r <- h_k + arctan(x P(y) / Q(y)) from r = h_k reach them.
    """
    series = _far_series(nu.two_nu)
    even, odd = series.even[-2:], series.odd[-3:]
    half_periods = _half_period(nu, k)
    r = half_periods
    for _ in range(2):
        x = 1.0 / r
        y = x * x
        r = half_periods + np.arctan(x * _horner(even, y) / _horner(odd, y))
    return r


def schur_panel_edges(nu: BesselOrder) -> np.ndarray:
    """Panel edges on [0, U], U = ``SCHUR_UPPER``, with every zero of K_nu,
    so every kink of |K_nu|, on an edge.

    Near region, up to the point r_split midway between the half-periods
    just below and just past max(``_FAR_ZEROS_RADIUS``, 2 nu^2): a uniform
    grid of step 1/2 plus the zeros of K_nu found by bisection.  Far region: one
    panel per half-period, edged by the zeros of the Hankel expansion
    (``_far_zeros``), then U itself.  Arrays stay within a few MiB: at
    U = 1e6 the far region has about 3.2e5 edges, computed
    ``_PANEL_CHUNK`` at a time.
    """
    h_0 = _half_period(nu, 0)
    k_first = math.ceil((max(_FAR_ZEROS_RADIUS, 2.0 * nu.nu ** 2) - h_0) / math.pi)
    r_split = _half_period(nu, k_first - 0.5)
    near = np.union1d(np.append(np.arange(0.0, r_split, 0.5), r_split),
                      _near_zeros(nu, r_split))
    k_end = math.floor((SCHUR_UPPER - h_0) / math.pi) + 1
    far = [_far_zeros(nu, np.arange(k, min(k + _PANEL_CHUNK, k_end), dtype=float))
           for k in range(k_first, k_end, _PANEL_CHUNK)]
    if far:
        far[-1] = far[-1][far[-1] < SCHUR_UPPER]
    return np.concatenate([near[near < SCHUR_UPPER], *far, [SCHUR_UPPER]])


class SchurConstant(NamedTuple):
    """A_nu with what its quadrature rests on."""

    value: float   # A_nu, an upper estimate
    panels: int    # Gauss-Legendre panels on [0, U]
    tail: float    # the bound on the part of A_nu beyond U, included in value


@lru_cache(maxsize=None)
def schur_quadrature(two_nu: int) -> SchurConstant:
    """A_nu = integral |K_nu(r)| r^{-1/2} dr, the Schur bound of Prop-3 type.

    ``schur_integral`` of |K_nu| on ``schur_panel_edges(nu)`` (``GAUSS_NODES``
    nodes a panel) on [0, U], U = ``SCHUR_UPPER``, plus a bound on the tail:
    where R_nu is finite (nu <= 9 + 1/2), the integral of the envelope in
    ``remainder_kernel``, 2 |gamma_nu| sum_{m=1}^{19} |p_m| U^{1/2-m} / (m - 1/2);
    elsewhere 2 C_nu / sqrt(U) with the sampled C_nu of ``kernel_sup_constant``.
    An upper estimate, exactly 0 where K_nu vanishes (2 nu = +-1).
    """
    nu = BesselOrder(two_nu)
    if nu.kernel_vanishes:
        return SchurConstant(0.0, 0, 0.0)
    edges = schur_panel_edges(nu)
    if math.isfinite(far_radius(nu)):
        p = _hankel_poly_coeffs(two_nu, _FAR_TERMS + 2)
        tail = 2.0 * abs(gamma_kernel(nu)) * sum(
            abs(p[m]) * SCHUR_UPPER ** (0.5 - m) / (m - 0.5)
            for m in range(1, _FAR_TERMS + 2))
    else:
        tail = 2.0 * kernel_sup_constant(nu) / math.sqrt(SCHUR_UPPER)
    value = schur_integral(lambda r: np.abs(remainder_kernel(nu, r)), edges) + tail
    return SchurConstant(value, edges.size - 1, tail)


# schur_quadrature's values at the orders with K_nu != 0 that the default
# prop3-bound and thm6-ineq runs read (the test suite re-derives them)
_SCHUR_TABLE = {
    0: SchurConstant(0.5623266626620553, 318354, 0.00019947117760157852),
    2: SchurConstant(1.2931933531744546, 318351, 0.0005984134829369131),
    3: SchurConstant(2.682680120098036, 318351, 0.0015957691216057308),
}


def schur_constant_for_order(two_nu: int) -> SchurConstant:
    """A_nu of ``schur_quadrature``: exactly 0 where K_nu vanishes (2 nu = +-1),
    read from ``_SCHUR_TABLE`` where tabulated, computed otherwise."""
    if BesselOrder(two_nu).kernel_vanishes:
        return SchurConstant(0.0, 0, 0.0)
    return _SCHUR_TABLE.get(two_nu) or schur_quadrature(two_nu)
