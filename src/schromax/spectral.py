"""One-dimensional spectral representation and the dispersive propagator.

Conventions (fixed once, everything downstream depends on them):

    forward :  F(xi) = integral e^{-i xi x} f(x) dx        (no prefactor)
    inverse :  f(x)  = (2 pi)^{-1} integral e^{i xi x} F(xi) dxi
    evolve  :  multiply F(xi) by e^{i t |xi|^a}

With these, ||F||_{L^2} = sqrt(2 pi) ||f||_{L^2} in one dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-L, L) with N points and the matching frequency grid.

    Frequencies are xi_k = (k - N/2) * dxi with dxi = pi / L; the redundant
    +xi_max endpoint is excluded.  dx * dxi * N = 2 pi holds exactly.
    """

    point_count: int
    half_length: float

    def __post_init__(self):
        if not _is_power_of_two(self.point_count) or self.point_count < 8:
            raise ValueError("point_count must be a power of two >= 8")
        if not (self.half_length > 0 and math.isfinite(self.half_length)):
            raise ValueError("half_length must be positive and finite")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.point_count

    @property
    def dxi(self) -> float:
        return math.pi / self.half_length

    @property
    def xi_max(self) -> float:
        return self.point_count * self.dxi / 2.0

    def x_nodes(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.point_count)

    def xi_nodes(self) -> np.ndarray:
        return (np.arange(self.point_count) - self.point_count // 2) * self.dxi


@dataclass
class SpectralFunction1D:
    """A function given by complex Fourier coefficients on a GridSpec.

    ``band_limit`` asserts the coefficients vanish for |xi| > band_limit.
    """

    grid: GridSpec
    coefficients: np.ndarray
    band_limit: float | None = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape != (self.grid.point_count,):
            raise ValueError("coefficient count must equal grid.point_count")
        if self.band_limit is not None:
            xi = self.grid.xi_nodes()
            outside = np.abs(xi) > self.band_limit
            if np.any(np.abs(self.coefficients[outside]) > 0):
                raise ValueError("coefficients must vanish outside the band limit")

    def l2_coefficients(self) -> float:
        """||F||_{L^2(dxi)}; equals sqrt(2 pi) times the spatial L2 norm."""
        return float(np.sqrt(np.sum(np.abs(self.coefficients) ** 2) * self.grid.dxi))

    def l2_spatial(self) -> float:
        return self.l2_coefficients() / SQRT_TWO_PI


@dataclass
class GridFunction1D:
    """Complex samples at the spatial nodes x_j = -L + j dx."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.shape != (self.grid.point_count,):
            raise ValueError("sample count must equal grid.point_count")

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.dx))


def alternating_signs(n: int) -> np.ndarray:
    """(-1)^j for j < n: the phase that centers the grid in a plain FFT."""
    sign = np.ones(n)
    sign[1::2] = -1.0
    return sign


def forward_transform(f: GridFunction1D) -> SpectralFunction1D:
    """Discrete approximation of F(xi) = integral e^{-i xi x} f(x) dx."""
    g = f.grid
    sign = alternating_signs(g.point_count)
    # With x_j and xi_k both centered, the phase splits into (-1)^j, (-1)^k
    # and a unit factor (N divisible by 4), reducing to a plain FFT.
    coeffs = g.dx * sign * np.fft.fft(sign * f.samples)
    return SpectralFunction1D(g, coeffs)


def inverse_transform(F: SpectralFunction1D) -> GridFunction1D:
    """Inverse under the (2 pi)^{-1} convention; exact inverse of forward_transform."""
    g = F.grid
    sign = alternating_signs(g.point_count)
    samples = (1.0 / g.dx) * sign * np.fft.ifft(sign * F.coefficients)
    return GridFunction1D(g, samples)


def propagate(F: SpectralFunction1D, t: float, a: float) -> SpectralFunction1D:
    """Multiply each coefficient by e^{i t |xi|^a}; unitary, band limit preserved."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if not (a > 0 and math.isfinite(a)):
        raise ValueError("a must be positive")
    xi = F.grid.xi_nodes()
    phase = np.exp(1j * t * np.abs(xi) ** a)
    return SpectralFunction1D(F.grid, F.coefficients * phase, band_limit=F.band_limit)


# Times per batch of sup_over_times; the chunk's phase rounding is ~1e-14.
_TIME_CHUNK = 256


def _phase_matrix(xi_pow: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """e^{i t xi_pow} for a batch of times, shape (len(ts), N).

    Uniformly spaced batches use a cumulative product (one exp per row chain
    instead of one per entry); accumulated rounding over a chunk is ~1e-14.
    Other batches take one exp per distinct value of xi_pow, which on the
    symmetric grid is about half the entries, and equal the direct formula
    exactly.
    """
    if ts.size >= 3:
        dt = np.diff(ts)
        if np.all(np.abs(dt - dt[0]) <= 1e-12 * max(float(np.max(np.abs(ts))), 1e-300)):
            first = np.exp(1j * ts[0] * xi_pow)
            step = np.exp(1j * dt[0] * xi_pow)
            rows = np.vstack([first[None, :],
                              np.broadcast_to(step, (ts.size - 1, xi_pow.size))])
            return np.cumprod(rows, axis=0)
    distinct, where = np.unique(xi_pow, return_inverse=True)
    return np.exp(1j * ts[:, None] * distinct[None, :])[:, where]


def sup_over_times(F: SpectralFunction1D, t_values, a: float,
                   modulation: np.ndarray | None = None) -> np.ndarray:
    """Pointwise sup of |S_t f| over the given times (nonnegative, real)."""
    g = F.grid
    coeffs = F.coefficients if modulation is None else F.coefficients * modulation
    sign = alternating_signs(g.point_count)
    base = sign * coeffs
    xi_pow = np.abs(g.xi_nodes()) ** a
    t_values = np.asarray(t_values, dtype=float)
    sup = np.zeros(g.point_count)
    for start in range(0, t_values.size, _TIME_CHUNK):
        ts = t_values[start:start + _TIME_CHUNK]
        spec = base[None, :] * _phase_matrix(xi_pow, ts)
        fields = np.abs(np.fft.ifft(spec, axis=1)) / g.dx
        np.maximum(sup, fields.max(axis=0), out=sup)
    return sup


def grid_for_bandlimit(lam: float, half_length: float = 1.0,
                       min_points: int = 256) -> GridSpec:
    """Smallest power-of-two grid on [-L, L) resolving frequencies up to lam."""
    need = 2.0 * lam * half_length / math.pi
    n = max(min_points, 8)
    while n < need:
        n *= 2
    return GridSpec(n, half_length)


def make_bandlimited_random(lam: float, shape: str, seed: int,
                            grid: GridSpec) -> SpectralFunction1D:
    """Seeded random coefficients on a ball or annulus, unit spatial L2 norm.

    shape = "ball" supports on {|xi| <= lam}; "annulus" on {lam/2 <= |xi| <= lam}.
    """
    if lam < 1.0:
        raise ValueError("band limit must be >= 1")
    if lam > grid.xi_max:
        raise ValueError("band limit exceeds the grid Nyquist frequency")
    xi = np.abs(grid.xi_nodes())
    if shape == "ball":
        mask = xi <= lam
    elif shape == "annulus":
        mask = (xi >= lam / 2.0) & (xi <= lam)
    else:
        raise ValueError(f"unknown support shape {shape!r}")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.point_count, dtype=np.complex128)
    m = int(mask.sum())
    coeffs[mask] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    norm = np.sqrt(np.sum(np.abs(coeffs) ** 2) * grid.dxi / TWO_PI)
    if norm == 0:
        raise ValueError("empty frequency support")
    return SpectralFunction1D(grid, coeffs / norm, band_limit=lam)


def _bump_unnormalized(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 0.5
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - 4.0 * ui * ui))
    return out


# integral of exp(-1/(1-4u^2)) over (-1/2, 1/2), as adaptive quadrature at
# epsabs=1e-14, epsrel=1e-13 gives it (the test suite re-derives it)
_BUMP_MASS = 0.22199690808403968


def bump_value(u) -> np.ndarray:
    """Even smooth bump supported in [-1/2, 1/2] with unit integral."""
    return _bump_unnormalized(u) / _BUMP_MASS
