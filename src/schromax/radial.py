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

from schromax.special import (
    BesselOrder,
    gamma_unit,
    main_kernel,
    remainder_kernel,
)
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

    def interp(self, r, left: float = 0.0, right: float = 0.0) -> np.ndarray:
        """Linear interpolation of the profile, zero outside the node range."""
        r = np.asarray(r, dtype=float)
        re = np.interp(r, self.nodes, self.values.real, left=left, right=right)
        im = np.interp(r, self.nodes, self.values.imag, left=left, right=right)
        return re + 1j * im

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("r,re,im,weight\n")
            for r, v, w in zip(self.nodes, self.values, self.weights):
                fh.write(f"{float(r)!r},{float(v.real)!r},"
                         f"{float(v.imag)!r},{float(w)!r}\n")


def trapezoid_weights(nodes: np.ndarray, left_edge: float = 0.0) -> np.ndarray:
    """Composite trapezoid weights on [left_edge, nodes[-1]] (value 0 at the edge)."""
    edges = np.concatenate([[left_edge], nodes])
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


def _output_quadrature(f1: RadialProfile, out_nodes, out_weights):
    """(nodes, weights) to evaluate on: the profile's own quadrature when
    out_nodes is None, else out_nodes with out_weights (default trapezoid)."""
    if out_nodes is None:
        return f1.nodes, f1.weights
    out_nodes = np.asarray(out_nodes, dtype=float)
    return out_nodes, trapezoid_weights(out_nodes) if out_weights is None else out_weights


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


@dataclass
class SymmetrizedLine:
    """A line spectrum satisfying gamma(nu) F(-r) = conj(gamma(nu)) F(r)."""

    line: SpectralFunction1D
    two_nu: int

    def __post_init__(self):
        nu = BesselOrder(self.two_nu)
        g = gamma_unit(nu)
        F = self.line.coefficients
        n = self.line.grid.point_count
        # grid index k maps xi -> -xi to index n - k (k >= 1)
        pos = F[n // 2 + 1:]
        neg = F[1:n // 2][::-1]
        if np.max(np.abs(g * neg - np.conj(g) * pos)) > 1e-12 * max(1.0, np.max(np.abs(F))):
            raise ValueError("line data does not satisfy the phase symmetry")


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
    out_nodes, out_weights = _output_quadrature(f1, out_nodes, out_weights)
    return RadialProfile(out_nodes, HankelEvolution(f1, nu, out_nodes).field(t, a), out_weights)


def cosine_transform(f1: RadialProfile, out_nodes: np.ndarray) -> np.ndarray:
    """sqrt(2/pi) * integral cos(rs) f1(s) ds — the nu = -1/2, t = 0 reduction."""
    rs = np.outer(np.asarray(out_nodes, dtype=float), f1.nodes)
    return math.sqrt(2.0 / math.pi) * (np.cos(rs) @ (f1.values * f1.weights))


def even_odd_split(F: SpectralFunction1D) -> tuple[SpectralFunction1D, SpectralFunction1D]:
    """F = F_even + F_odd by reflecting the coefficient grid; Pythagoras holds."""
    c = F.coefficients
    n = F.grid.point_count
    refl = np.empty_like(c)
    refl[0] = c[0]          # -xi_max has no partner on the grid
    refl[1:] = c[1:][::-1]
    even = 0.5 * (c + refl)
    odd = 0.5 * (c - refl)
    odd[0] = 0.0
    even[0] = c[0]
    return (SpectralFunction1D(F.grid, even, band_limit=F.band_limit),
            SpectralFunction1D(F.grid, odd, band_limit=F.band_limit))


def symmetrize(f1: RadialProfile, nu: BesselOrder, variant: str,
               grid: GridSpec, nu1: BesselOrder | None = None) -> SymmetrizedLine:
    """Build the line spectrum realizing the requested phase symmetry.

    variant "prop1": F(xi) = gamma(nu) f1(xi) for xi > 0 and
    conj(gamma(nu)) f1(-xi) for xi < 0.  The "lemma7_P" / "lemma7_Q" pair
    treats f1 as a spectrum supported on the positive axis and builds the two
    symmetrized combinations whose sum has modulus c = 2|sin(pi(nu-nu1)/2)|
    times the original.
    """
    xi = grid.xi_nodes()
    pos_vals = f1.interp(np.abs(xi))
    coeffs = np.zeros(grid.point_count, dtype=np.complex128)
    if variant == "prop1":
        g = gamma_unit(nu)
        coeffs[xi > 0] = g * pos_vals[xi > 0]
        coeffs[xi < 0] = np.conj(g) * pos_vals[xi < 0]
        two_nu = nu.two_nu
    elif variant in ("lemma7_P", "lemma7_Q"):
        if nu1 is None:
            raise ValueError("lemma7 variants need the second order nu1")
        from schromax.special import symmetry_constant
        symmetry_constant(nu, nu1)  # rejects the degenerate c = 0 case
        if variant == "lemma7_P":
            base = -np.conj(gamma_unit(nu1)) * pos_vals
            g = gamma_unit(nu)
            two_nu = nu.two_nu
        else:
            base = np.conj(gamma_unit(nu)) * pos_vals
            g = gamma_unit(nu1)
            two_nu = nu1.two_nu
        coeffs[xi > 0] = g * base[xi > 0]
        coeffs[xi < 0] = np.conj(g) * base[xi < 0]
    else:
        raise ValueError(f"unknown symmetrize variant {variant!r}")
    line = SpectralFunction1D(grid, coeffs)
    return SymmetrizedLine(line, two_nu)


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

    rem = KernelEvolution.field
    rem_sup = KernelEvolution.sup_field

    def rem_dominator(self) -> np.ndarray:
        """Pointwise dominating operator: integral |K_nu(rs)| |f1(s)| ds."""
        return np.abs(self._kernel) @ (np.abs(self.f1.values) * self.f1.weights)


def remainder_decompose(f1: RadialProfile, nu: BesselOrder, t: float, a: float,
                        out_nodes: np.ndarray | None = None,
                        ) -> tuple[RadialProfile, RadialProfile]:
    """Split H_t f1 into the one-dimensional main part and the K-kernel remainder.

    main + rem reconstructs H_t f1 exactly at the quadrature level.
    """
    out_nodes, out_weights = _output_quadrature(f1, out_nodes, None)
    main = KernelEvolution(f1, out_nodes, partial(main_kernel, nu)).field(t, a)
    rem = RemainderOperator(f1, nu, out_nodes).rem(t, a)
    return (RadialProfile(out_nodes, main, out_weights),
            RadialProfile(out_nodes, rem, out_weights))


def schur_apply(kernel, f: RadialProfile,
                out_nodes: np.ndarray | None = None) -> RadialProfile:
    """T f(s) = integral K(r s) f(r) dr on the profile's quadrature."""
    out_nodes, out_weights = _output_quadrature(f, out_nodes, None)
    rs = np.outer(out_nodes, f.nodes)
    kvals = np.asarray(kernel(rs), dtype=float)
    values = kvals @ (f.values * f.weights)
    return RadialProfile(out_nodes, values, out_weights)


def radial_sup_norm(f1: RadialProfile, nu: BesselOrder, t_values, a: float,
                    out_nodes: np.ndarray | None = None,
                    out_weights: np.ndarray | None = None) -> float:
    """|| sup_{t in E} |H_t f1| ||_{L2(R_+)} on the output quadrature."""
    out_nodes, out_weights = _output_quadrature(f1, out_nodes, out_weights)
    sup = HankelEvolution(f1, nu, out_nodes).sup_field(t_values, a)
    return float(np.sqrt(np.sum(out_weights * sup ** 2)))


def _polar_lift_norm(ctx: HarmonicContext, nodes: np.ndarray, weights: np.ndarray,
                     sup: np.ndarray) -> float:
    """alpha_n ||S_E^{*(n)} f_P|| from sup_E |H_t f1| on radial nodes.

    Integrates the pointwise formula |S_t f_P(x)| = alpha_n^{-1}
    |x|^{(1-n)/2} |H_t f1(|x|)| |P(-x')| in polar coordinates; the angular
    integral of |P|^2 over the sphere is 1 by normalization.
    """
    amp = (1.0 / ctx.alpha_n) * nodes ** ((1 - ctx.n) / 2.0) * sup
    return ctx.alpha_n * math.sqrt(float(np.sum(weights * amp ** 2 * nodes ** (ctx.n - 1))))


def lift_norm_identity(f1: RadialProfile, ctx: HarmonicContext, t_values,
                       a: float) -> tuple[float, float]:
    """Both sides of alpha_n ||S_E^{*(n)} f_P|| = ||H_E^* f1||_{L2(R_+)}.

    The left side is the polar lift (``_polar_lift_norm``) on an offset
    radial grid; the right side is the direct radial maximal norm on the
    profile's own nodes.
    """
    nu = ctx.order
    # left: polar route on midpoint nodes (independent quadrature)
    mid = 0.5 * (f1.nodes[:-1] + f1.nodes[1:])
    mid_w = trapezoid_weights(mid, left_edge=f1.nodes[0])
    sup = HankelEvolution(f1, nu, mid).sup_field(t_values, a)
    lhs = _polar_lift_norm(ctx, mid, mid_w, sup)
    rhs = radial_sup_norm(f1, nu, t_values, a)
    return lhs, rhs


# ---------------------------------------------------------------------------
# two-dimensional tensor-grid oracle (n = 2, k = 0 only)
# ---------------------------------------------------------------------------

def oracle_2d_propagate(f1, t: float, a: float, grid: GridSpec,
                        support_max: float | None = None) -> np.ndarray:
    """Full 2-D spectral propagation of the planar function f_P built from f1.

    The 2-D spectrum is F(xi) = P f1(|xi|) |xi|^{-1/2} with the constant
    harmonic P = (2 pi)^{-1/2}; f1 may be a RadialProfile (linear interp) or
    a callable evaluated exactly on the grid.  Returns the propagated spatial
    samples on the (N, N) tensor grid.  Used only as an independent
    cross-check of the Hankel route.
    """
    if callable(f1):
        if support_max is None:
            raise ValueError("callable profile needs an explicit support_max")
        evaluate = f1
    else:
        support_max = f1.nodes[-1]
        evaluate = f1.interp
    if support_max > grid.xi_max:
        raise ValueError("profile support exceeds the 2-D grid Nyquist frequency")
    xi = grid.xi_nodes()
    rr = np.hypot(xi[:, None], xi[None, :])
    p_const = 1.0 / SQRT_TWO_PI
    with np.errstate(divide="ignore"):
        radial_factor = np.where(rr > 0, rr ** -0.5, 0.0)
    spec = p_const * np.asarray(evaluate(rr), dtype=np.complex128) * radial_factor
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


def thm6_evolution(seed: int = 0, n: int = 2, k: int = 0) -> HankelEvolution:
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
