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

from schromax.special import _KERNEL_BLOCK, BesselOrder, bessel_kernel, remainder_kernel
from schromax.spectral import (
    SQRT_TWO_PI,
    TWO_PI,
    GridSpec,
    SpectralFunction1D,
    bump_value,
    inverse_transform,
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
    nodes = (r_max / count) * np.arange(1, count + 1)
    values = np.asarray(func(nodes), dtype=np.complex128)
    return RadialProfile(nodes, values, trapezoid_weights(nodes))


def alpha(n: int) -> float:
    """alpha_n = (2 pi)^{n/2}, the Fourier normalization in dimension n."""
    return TWO_PI ** (n / 2.0)


def _kernel_matrix(kernel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """kernel(np.outer(rows, cols)) without the outer product.

    The matrix is filled a block of rows at a time, about ``_KERNEL_BLOCK``
    entries each.  Where rows equals cols the kernel is evaluated once per
    unordered pair, on the upper triangle, and mirrored: a float product
    commutes exactly, so r_i r_j = r_j r_i.  For an elementwise kernel both
    give the bytes of the full evaluation.  The kernel's value on an empty
    array sets the matrix's dtype.  ``kernel`` None is the zero kernel.
    """
    if kernel is None:
        return np.zeros((rows.size, cols.size))
    out = np.empty((rows.size, cols.size), dtype=kernel(np.empty(0)).dtype)
    symmetric = np.array_equal(rows, cols)
    step = max(1, _KERNEL_BLOCK // max(cols.size, 1))
    for lo in range(0, rows.size, step):
        hi = min(lo + step, rows.size)
        if symmetric:
            upper = np.arange(lo, cols.size) >= np.arange(lo, hi)[:, None]
            values = kernel((rows[lo:hi, None] * cols[lo:])[upper])
            out[lo:hi, lo:][upper] = values
            out[lo:, lo:hi].T[upper] = values
        else:
            out[lo:hi] = kernel(rows[lo:hi, None] * cols)
    return out


def _product(kernel: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """kernel @ rhs for a complex rhs; a real kernel takes one real product over
    the interleaved re/im columns."""
    if np.iscomplexobj(kernel):
        return kernel @ rhs
    return (kernel @ rhs.view(np.float64)).view(np.complex128)


def _phase_table(nodes: np.ndarray, t: np.ndarray, a: float) -> np.ndarray:
    """e^{i t s^a} of shape (nodes, times)."""
    return np.exp(1j * (nodes ** a)[:, None] * t[None, :])


class KernelEvolution:
    """sum_s k(rs) f1(s) w_s e^{i t s^a} at fixed output nodes r, for a kernel k.

    ``kernel`` maps an array of products rs, of any shape, to the kernel
    matrix.  It must be elementwise, each value depending on its own product
    alone whatever the array's size, because the matrix is built in blocks
    and, where ``out_nodes`` are the profile's nodes, from its upper triangle
    (``_kernel_matrix``).  numpy evaluates ``c * tmp`` on a temporary of
    256 KiB or more in place, as ``tmp * c``, and a complex product rounds
    differently with its operands swapped; blowup's complex kernels stay
    below that size.  None is the zero kernel.  The matrix is built once; a
    batch of times then costs one matrix product, and ``for_profile`` reuses
    the matrix and the phase table of the last time batch for other profiles
    on the same nodes.
    """

    def __init__(self, f1: RadialProfile, out_nodes: np.ndarray, kernel):
        self.f1 = f1
        self.out_nodes = np.asarray(out_nodes, dtype=float)
        self._kernel = _kernel_matrix(kernel, self.out_nodes, f1.nodes)
        # (a, times, e^{i t s^a}) of the last sup_field batch; for_profile
        # copies share this dict, and with it the table
        self._phase_memo = {}

    def for_profile(self, f1: RadialProfile) -> "KernelEvolution":
        """The evolution of f1 (same nodes as this profile), sharing the kernel
        matrix and the phase table."""
        if not np.array_equal(f1.nodes, self.f1.nodes):
            raise ValueError("profile nodes differ from the kernel's nodes")
        evo = copy.copy(self)
        evo.f1 = f1
        return evo

    def _apply(self, phases: np.ndarray) -> np.ndarray:
        """kernel @ (values * weights * phases), phases of shape (nodes, times)."""
        return _product(self._kernel, (self.f1.values * self.f1.weights)[:, None] * phases)

    def field(self, t: float, a: float) -> np.ndarray:
        return self._apply(np.exp(1j * t * self.f1.nodes ** a)[:, None])[:, 0]

    def _phases(self, t_values, a: float) -> np.ndarray:
        """The table e^{i t s^a} of shape (nodes, times), computed once per
        (times, a) in a row."""
        t = np.array(t_values, dtype=float)
        memo = self._phase_memo
        if not (memo and memo["a"] == a and np.array_equal(memo["t"], t)):
            memo.update(a=a, t=t, table=_phase_table(self.f1.nodes, t, a))
        return memo["table"]

    def sup_field(self, t_values, a: float) -> np.ndarray:
        """sup over the time batch of |field| at each output node."""
        return np.abs(self._apply(self._phases(t_values, a))).max(axis=1)


class HankelEvolution(KernelEvolution):
    """H_t f1 on fixed output nodes: the kernel (rs)^{1/2} J_nu(rs)."""

    def __init__(self, f1: RadialProfile, nu: BesselOrder, out_nodes: np.ndarray):
        self.nu = nu
        super().__init__(f1, out_nodes, partial(bessel_kernel, nu))


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


def hankel_sups(profiles: list[RadialProfile], nu: BesselOrder, out_nodes: np.ndarray,
                t_values, a: float) -> np.ndarray:
    """sup over the time batch of |H_t f1| at each output node, for each profile
    (all on the same nodes): shape (profiles, out_nodes).

    The rows are ``HankelEvolution(f1, nu, out_nodes).sup_field`` for each
    f1, but no kernel matrix is held.  The kernel is built a row block at a
    time, about ``_KERNEL_BLOCK`` entries (``_kernel_matrix``), and each block
    is multiplied once by every profile's right-hand side, stacked as columns;
    only each profile's max over its own times is kept.  The tests check the
    bytes against the full matrix's product.
    """
    nodes = profiles[0].nodes
    out_nodes = np.asarray(out_nodes, dtype=float)
    t = np.array(t_values, dtype=float)
    phases = _phase_table(nodes, t, a)
    rhs = np.empty((nodes.size, len(profiles), t.size), dtype=np.complex128)
    for j, f1 in enumerate(profiles):
        np.multiply((f1.values * f1.weights)[:, None], phases, out=rhs[:, j])
    rhs = rhs.reshape(nodes.size, -1)
    kernel = partial(bessel_kernel, nu)
    sups = np.empty((len(profiles), out_nodes.size))
    step = max(1, _KERNEL_BLOCK // max(nodes.size, 1))
    for lo in range(0, out_nodes.size, step):
        block = _kernel_matrix(kernel, out_nodes[lo:lo + step], nodes)
        field = _product(block, rhs).reshape(block.shape[0], len(profiles), t.size)
        sups[:, lo:lo + step] = np.abs(field).max(axis=2).T
    return sups


class RemainderOperator(KernelEvolution):
    """The remainder part of H_t on fixed node sets: the kernel K_nu(rs).

    The main part, with kernel gamma_nu e^{irs} + conj e^{-irs}, equals
    alpha_1 S_t^{(1)} f on r > 0 for the symmetrized line f; the remainder
    obeys sup_t |rem| <= integral |K_nu(rs)||f1(s)| ds.
    """

    def __init__(self, f1: RadialProfile, nu: BesselOrder, out_nodes: np.ndarray):
        self.nu = nu
        kernel = None if nu.kernel_vanishes else partial(remainder_kernel, nu)
        super().__init__(f1, out_nodes, kernel)

    def rem_sup(self, t_values, a: float) -> np.ndarray:
        """sup_field; zeros, with no phases and no product, where K_nu = 0."""
        if self.nu.kernel_vanishes:
            return np.zeros(self.out_nodes.size)
        return self.sup_field(t_values, a)


# ---------------------------------------------------------------------------
# two-dimensional tensor-grid oracle (n = 2, k = 0 only)
# ---------------------------------------------------------------------------

def oracle_2d_propagate(f1, t: float, a: float, grid: GridSpec,
                        support_max: float, radii: np.ndarray) -> np.ndarray:
    """|S_t f_P| at the points (r, 0) of the (N, N) tensor grid, by exact 2-D
    spectral propagation of the planar function f_P built from f1.

    The 2-D spectrum is F(xi) = P f1(|xi|) |xi|^{-1/2} with the constant
    harmonic P = (2 pi)^{-1/2}; f1 is a callable that vanishes beyond
    support_max, so F is evaluated only on the block |xi_1|, |xi_2| <=
    support_max and is exactly zero elsewhere.  On the row x_2 = 0 the inverse
    2-D DFT ((2 pi)^{-2} convention) is dxi / (2 pi) times the 1-D inverse of
    the spectrum summed over xi_2 (N/2 is even, so the checker sign of that
    row is +1).  Each radius reads the first grid node at or above it.  Used
    only as an independent cross-check of the Hankel route.
    """
    if support_max > grid.xi_max:
        raise ValueError("profile support exceeds the 2-D grid Nyquist frequency")
    xi = grid.xi_nodes()
    block = np.abs(xi) <= support_max
    rr = np.hypot(xi[block, None], xi[None, block])
    with np.errstate(divide="ignore"):
        radial_factor = np.where(rr > 0, rr ** -0.5, 0.0)
    spec = np.asarray(f1(rr), dtype=np.complex128) * radial_factor * np.exp(1j * t * rr ** a)
    column = np.zeros(grid.point_count, dtype=np.complex128)
    column[block] = spec.sum(axis=1)
    line = inverse_transform(SpectralFunction1D(grid, column)).samples
    rows = np.clip(np.searchsorted(grid.x_nodes(), radii), 0, grid.point_count - 1)
    return grid.dxi / (TWO_PI * SQRT_TWO_PI) * np.abs(line[rows])


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
    route two is the 2-D tensor-grid propagation on 1024^2 points of
    [-80, 80)^2.  Radii are snapped to the tensor grid so both routes
    evaluate at identical points.
    """
    func, support = random_profile_func(seed)
    grid = GridSpec(1024, 80.0)
    x = grid.x_nodes()
    radii = x[(x >= 1.0) & (x <= 10.0)][::8]

    oracle = oracle_2d_propagate(func, t, a, grid, support, radii)

    f1 = uniform_profile(func, support, 1536)
    evo = HankelEvolution(f1, BesselOrder.from_dimension(2, 0), radii)
    # |S_t f_P|(r) = alpha_2^{-1} (2 pi)^{-1/2} r^{-1/2} |H_t f1(r)|
    hankel = (np.abs(evo.field(t, a))
              / (alpha(2) * SQRT_TWO_PI * np.sqrt(radii)))
    return {"radii": radii, "hankel": hankel, "oracle": oracle}


def default_time_set() -> np.ndarray:
    """A fixed finite E subset of [0, 1] (60 times) used by the inequality checks."""
    return np.linspace(0.0, 1.0, 60)


THM6_OUT_NODES = np.linspace(0.02, 40.0, 2000)


def thm6_profile(seed: int) -> RadialProfile:
    """The seed's profile f1 on the 768 nodes of the thm6 check."""
    return uniform_profile(*random_profile_func(seed), 768)


def thm6_sups(seeds, nu: BesselOrder) -> np.ndarray:
    """sup_E |H_t f1| on ``THM6_OUT_NODES`` for each seed's profile, a row per
    seed, all seeds in one pass over the kernel (``hankel_sups``)."""
    return hankel_sups([thm6_profile(seed) for seed in seeds], nu, THM6_OUT_NODES,
                       default_time_set(), 2.0)


def thm6_sides(seed: int, nu: BesselOrder, sup: np.ndarray) -> tuple[float, float]:
    """Both sides of the dimension-reduction inequality

    alpha_n ||S_E^{*(n)} f_P|| <= alpha_1 sqrt(2) ||S_E^{*(1)} check(f1)|| + A_nu ||f1||.

    The left side is the radial maximal norm via the Hankel reduction, from
    ``sup``, the seed's row of ``thm6_sups``; the right side evolves the line
    function with spectrum f1 (supported on the positive axis) on a periodic
    grid of 1024 points on [-32, 32).  Truncations only lower the left side,
    so the check is one-sided safe.
    """
    from schromax.special import schur_constant_for_order

    lhs = float(np.sqrt(np.sum(trapezoid_weights(THM6_OUT_NODES) * sup ** 2)))

    func, _ = random_profile_func(seed)
    line_grid = GridSpec(1024, 32.0)
    xi = line_grid.xi_nodes()
    coeffs = np.where(xi > 0, func(np.abs(xi)), 0.0)
    F = SpectralFunction1D(line_grid, coeffs)
    line_sup = sup_over_times(F, default_time_set(), 2.0)
    line_norm = float(np.sqrt(np.sum(line_sup ** 2) * line_grid.dx))
    a_nu = schur_constant_for_order(nu.two_nu).value
    rhs = SQRT_TWO_PI * math.sqrt(2.0) * line_norm + a_nu * thm6_profile(seed).norm()
    return lhs, rhs
