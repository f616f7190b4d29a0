"""Dimension reduction of radial/symmetric evolution to one dimension.

The Hankel-type evolution acts on a profile g on (0, inf) as

    (H_t g)(r) = integral_0^inf J_nu(rs) (rs)^{1/2} g(s) e^{i t s^a} ds,

and splitting the kernel as r^{1/2} J_nu(r) = gamma_nu e^{ir} +
conj(gamma_nu) e^{-ir} + K_nu(r) expresses it as a one-dimensional evolution
plus a remainder controlled by the Schur constant of |K_nu|; each part is a
``KernelEvolution``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import jv

from schromax.special import BesselOrder, remainder_kernel
from schromax.spectral import (
    SQRT_TWO_PI,
    TWO_PI,
    GridSpec,
    SpectralFunction1D,
    alternating_signs,
    bump_value,
    sup_over_times,
)


@dataclass
class RadialProfile:
    """Complex samples f1(r_i) on increasing positive nodes with quadrature weights."""

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=np.complex128)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (self.nodes.shape == self.values.shape == self.weights.shape):
            raise ValueError("node/value/weight counts must match")
        if np.any(self.nodes <= 0) or np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing and positive")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def norm(self) -> float:
        """Discrete L2(R_+) norm."""
        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights on [0, nodes[-1]] (value 0 at r = 0)."""
    edges = np.concatenate([[0.0], nodes])
    w = np.empty(nodes.size)
    w[:-1] = 0.5 * (edges[2:] - edges[:-2])
    w[-1] = 0.5 * (nodes[-1] - edges[-2])
    return w


def simpson_weights(count: int, h: float) -> np.ndarray:
    """Simpson weights for nodes h, 2h, ..., count*h with an implicit zero at 0.

    count must be even (an even number of equal segments over [0, count*h]).
    """
    if count % 2 != 0:
        raise ValueError("simpson weights need an even node count")
    w = np.empty(count + 1)
    w[0] = 1.0
    w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * w[1:]


def uniform_profile(func, r_max: float, count: int) -> RadialProfile:
    """Sample a callable on the uniform nodes h, 2h, ..., r_max with trapezoid
    weights (value 0 at r = 0)."""
    h = r_max / count
    nodes = h * np.arange(1, count + 1)
    values = np.asarray(func(nodes), dtype=np.complex128)
    weights = np.full(count, h)
    weights[-1] = 0.5 * h
    return RadialProfile(nodes, values, weights)


@dataclass(frozen=True)
class HarmonicContext:
    """(n, k) with the derived Bessel order nu = n/2 + k - 1 and alpha_n."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 0:
            raise ValueError("need n >= 1 and k >= 0")

    @property
    def order(self) -> BesselOrder:
        return BesselOrder.from_dimension(self.n, self.k)

    @property
    def alpha_n(self) -> float:
        return TWO_PI ** (self.n / 2.0)


class KernelEvolution:
    """sum_s k(rs) f1(s) w_s e^{i t s^a} at fixed output nodes r, for a kernel k.

    ``kernel`` maps the matrix of products rs to the kernel matrix, built once;
    a batch of times then costs one matrix product, and ``for_profile`` reuses
    the matrix for other profiles on the same nodes.
    """

    def __init__(self, f1: RadialProfile, out_nodes: np.ndarray, kernel):
        self.f1 = f1
        self.out_nodes = np.asarray(out_nodes, dtype=float)
        self._kernel = kernel(np.outer(self.out_nodes, f1.nodes))
        self._weighted = self._kernel * (f1.values * f1.weights)[None, :]

    def for_profile(self, f1: RadialProfile) -> "KernelEvolution":
        """The evolution of f1 (same nodes as this profile), sharing the kernel matrix."""
        if not np.array_equal(f1.nodes, self.f1.nodes):
            raise ValueError("profile nodes differ from the kernel's nodes")
        evo = copy.copy(self)
        evo.f1 = f1
        evo._weighted = self._kernel * (f1.values * f1.weights)[None, :]
        return evo

    def field(self, t: float, a: float) -> np.ndarray:
        return self._weighted @ np.exp(1j * t * self.f1.nodes ** a)

    def sup_field(self, t_values, a: float) -> np.ndarray:
        """sup over the time batch of |field| at each output node."""
        s_pow = self.f1.nodes ** a
        phases = np.exp(1j * np.asarray(t_values, dtype=float)[:, None] * s_pow[None, :])
        return np.abs(self._weighted @ phases.T).max(axis=1)


class HankelEvolution(KernelEvolution):
    """H_t f1 on fixed output nodes: the kernel (rs)^{1/2} J_nu(rs)."""

    def __init__(self, f1: RadialProfile, nu: BesselOrder, out_nodes: np.ndarray):
        self.nu = nu
        super().__init__(f1, out_nodes, lambda rs: jv(nu.nu, rs) * np.sqrt(rs))


def hankel_propagate(f1: RadialProfile, t: float, a: float, nu: BesselOrder,
                     out_nodes: np.ndarray | None = None,
                     out_weights: np.ndarray | None = None) -> RadialProfile:
    """Quadrature evaluation of H_t f1; an isometry on L2(R_+) at t = 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if a <= 0:
        raise ValueError("a must be positive")
    if out_nodes is None:
        out_nodes, out_weights = f1.nodes, f1.weights
    else:
        out_nodes = np.asarray(out_nodes, dtype=float)
        if out_weights is None:
            out_weights = trapezoid_weights(out_nodes)
    return RadialProfile(out_nodes, HankelEvolution(f1, nu, out_nodes).field(t, a), out_weights)


class RemainderOperator(KernelEvolution):
    """The remainder part of H_t on fixed node sets: the kernel K_nu(rs).

    The main part, with kernel gamma_nu e^{irs} + conj e^{-irs}, equals
    alpha_1 S_t^{(1)} f on r > 0 for the symmetrized line f; the remainder
    obeys sup_t |rem| <= integral |K_nu(rs)||f1(s)| ds.
    """

    def __init__(self, f1: RadialProfile, nu: BesselOrder, out_nodes: np.ndarray):
        kernel = (partial(np.zeros_like, dtype=np.complex128) if nu.kernel_vanishes
                  else partial(remainder_kernel, nu))
        super().__init__(f1, out_nodes, kernel)

    rem_sup = KernelEvolution.sup_field


def _polar_lift_norm(ctx: HarmonicContext, nodes: np.ndarray, weights: np.ndarray,
                     sup: np.ndarray) -> float:
    """alpha_n ||S_E^{*(n)} f_P|| from sup_E |H_t f1| on radial nodes.

    Integrates the pointwise formula |S_t f_P(x)| = alpha_n^{-1}
    |x|^{(1-n)/2} |H_t f1(|x|)| |P(-x')| in polar coordinates; the angular
    integral of |P|^2 over the sphere is 1 by normalization.
    """
    amp = (1.0 / ctx.alpha_n) * nodes ** ((1 - ctx.n) / 2.0) * sup
    return ctx.alpha_n * math.sqrt(float(np.sum(weights * amp ** 2 * nodes ** (ctx.n - 1))))


# ---------------------------------------------------------------------------
# two-dimensional tensor-grid oracle (n = 2, k = 0 only)
# ---------------------------------------------------------------------------

def oracle_2d_propagate(f1, t: float, a: float, grid: GridSpec,
                        support_max: float) -> np.ndarray:
    """Full 2-D spectral propagation of the planar function f_P built from f1.

    The 2-D spectrum is F(xi) = P f1(|xi|) |xi|^{-1/2} with the constant
    harmonic P = (2 pi)^{-1/2}; f1 is a callable, evaluated exactly on the
    grid, that vanishes beyond support_max.  Returns the propagated spatial
    samples on the (N, N) tensor grid.  Used only as an independent
    cross-check of the Hankel route.
    """
    if support_max > grid.xi_max:
        raise ValueError("profile support exceeds the 2-D grid Nyquist frequency")
    xi = grid.xi_nodes()
    rr = np.hypot(xi[:, None], xi[None, :])
    p_const = 1.0 / SQRT_TWO_PI
    with np.errstate(divide="ignore"):
        radial_factor = np.where(rr > 0, rr ** -0.5, 0.0)
    spec = p_const * np.asarray(f1(rr), dtype=np.complex128) * radial_factor
    spec = spec * np.exp(1j * t * rr ** a)
    sign = alternating_signs(grid.point_count)
    checker = np.outer(sign, sign)
    # inverse 2-D transform under the (2 pi)^{-2} convention
    samples = checker * np.fft.ifft2(checker * spec) / grid.dx ** 2
    return samples


def oracle_2d_radius_sweep(samples: np.ndarray, grid: GridSpec,
                           radii: np.ndarray) -> np.ndarray:
    """|f| at the points (r, 0) of the tensor grid nearest to the given radii."""
    x = grid.x_nodes()
    j0 = grid.point_count // 2  # x = 0 row
    idx = np.searchsorted(x, radii)
    idx = np.clip(idx, 0, grid.point_count - 1)
    return np.abs(samples[idx, j0])


# ---------------------------------------------------------------------------
# random smooth test profiles and the theorem-level two-sided checks
# ---------------------------------------------------------------------------

def random_profile_func(seed: int):
    """Seeded smooth random profile: a complex combination of four bumps
    supported strictly inside (0, 6).  Returns (callable, support_max)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(1.5, 4.5, 4)
    widths = rng.uniform(0.5, 1.5, 4)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def func(s):
        s = np.asarray(s, dtype=float)
        total = np.zeros(s.shape, dtype=np.complex128)
        for c, mu, w in zip(coeffs, centers, widths):
            total += c * bump_value((s - mu) / w)
        return total

    return func, 6.0


def random_profile(seed: int, count: int = 384) -> RadialProfile:
    """The sampled, unit-norm version of random_profile_func."""
    func, r_max = random_profile_func(seed)
    prof = uniform_profile(func, r_max, count)
    scale = prof.norm()
    return RadialProfile(prof.nodes, prof.values / scale, prof.weights)


def two_route_case(seed: int = 0, t: float = 0.1, a: float = 2.0) -> dict:
    """|S_t f_P| on radii in [1, 10] for n = 2, k = 0, by two routes.

    Route one is the Hankel reduction (exact quadrature of the profile);
    route two is the full 2-D tensor-grid propagation on 1024^2 points of
    [-80, 80)^2.  Radii are snapped to the tensor grid so both routes
    evaluate at identical points.
    """
    func, support = random_profile_func(seed)
    ctx = HarmonicContext(n=2, k=0)
    grid = GridSpec(1024, 80.0)
    x = grid.x_nodes()
    radii = x[(x >= 1.0) & (x <= 10.0)][::8]

    samples = oracle_2d_propagate(func, t, a, grid, support_max=support)
    oracle = oracle_2d_radius_sweep(samples, grid, radii)

    f1 = uniform_profile(func, support, 1536)
    evo = HankelEvolution(f1, ctx.order, radii)
    # |S_t f_P|(r) = alpha_2^{-1} (2 pi)^{-1/2} r^{-1/2} |H_t f1(r)|
    hankel = (np.abs(evo.field(t, a))
              / (ctx.alpha_n * SQRT_TWO_PI * np.sqrt(radii)))
    return {"radii": radii, "hankel": hankel, "oracle": oracle}


def default_time_set() -> np.ndarray:
    """A fixed finite E subset of [0, 1] (60 times) used by the inequality checks."""
    return np.linspace(0.0, 1.0, 60)


def thm6_evolution(seed: int, n: int, k: int) -> HankelEvolution:
    """The Hankel evolution of the seed's profile on the output nodes of the
    thm6_sides and thm7_sides left sides."""
    func, support = random_profile_func(seed)
    f1 = uniform_profile(func, support, 768)
    return HankelEvolution(f1, HarmonicContext(n=n, k=k).order,
                           np.linspace(0.02, 40.0, 2000))


def thm6_sides(seed: int, n: int = 2, k: int = 0,
               evolution: HankelEvolution | None = None) -> tuple[float, float]:
    """Both sides of the dimension-reduction inequality

    alpha_n ||S_E^{*(n)} f_P|| <= alpha_1 sqrt(2) ||S_E^{*(1)} check(f1)|| + A_nu ||f1||.

    The left side is the radial maximal norm via the Hankel reduction; the
    right side evolves the line function with spectrum f1 (supported on the
    positive axis) on a periodic grid of 1024 points on [-32, 32).
    Truncations only lower the left side, so the check is one-sided safe.  ``evolution``, from ``thm6_evolution``
    for any seed and the same (n, k), lends its kernel matrix to this seed.
    """
    from schromax.special import schur_constant_for_order

    func, support = random_profile_func(seed)
    ctx = HarmonicContext(n=n, k=k)
    if evolution is None:
        evo = thm6_evolution(seed, n, k)
    elif evolution.nu != ctx.order:
        raise ValueError("evolution order differs from the (n, k) order")
    else:
        evo = evolution.for_profile(uniform_profile(func, support, 768))
    f1 = evo.f1
    times = default_time_set()
    sup = evo.sup_field(times, 2.0)
    lhs = float(np.sqrt(np.sum(trapezoid_weights(evo.out_nodes) * sup ** 2)))

    line_grid = GridSpec(1024, 32.0)
    xi = line_grid.xi_nodes()
    coeffs = np.where(xi > 0, func(np.abs(xi)), 0.0)
    F = SpectralFunction1D(line_grid, coeffs)
    sup = sup_over_times(F, times, 2.0)
    line_norm = float(np.sqrt(np.sum(sup ** 2) * line_grid.dx))
    a_nu = schur_constant_for_order(ctx.order.two_nu)
    rhs = SQRT_TWO_PI * math.sqrt(2.0) * line_norm + a_nu * f1.norm()
    return lhs, rhs


def thm7_sides(seed: int) -> tuple[float, float]:
    """alpha_n ||S_E^{*(n)} f_P|| for (n, k) = (4, 0) and (2, 1).

    Both pairs share nu = 1, so one evolution serves both and the maximal
    norms coincide; each side goes through its own dimensional polar lift.
    """
    evo = thm6_evolution(seed, 4, 0)
    sup = evo.sup_field(default_time_set(), 2.0)
    w = trapezoid_weights(evo.out_nodes)
    return (_polar_lift_norm(HarmonicContext(4, 0), evo.out_nodes, w, sup),
            _polar_lift_norm(HarmonicContext(2, 1), evo.out_nodes, w, sup))
