"""Blow-up witness family for sequential convergence along slow sequences.

Each stage j carries a frequency scale lam, an annular shell width rho and a
time cutoff b tied together by

    lam = M^{2/a} b^{-1/(a-4s)},    rho = eps b^{-1/2} lam^{1-a/2},

so that the maximal-to-Sobolev ratio squared of the witness grows like
eps * M^{(a-4s)/a}.  The witness is radial in dimension n with a bump-shaped
annular spectrum; evaluation goes through the one-dimensional Hankel-type
evolution, which is exact for radial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from schromax.radial import (
    HankelEvolution,
    KernelEvolution,
    RadialProfile,
    RemainderOperator,
    alpha,
)
from schromax.special import BesselOrder, gamma_kernel, surface_area
from schromax.spectral import TWO_PI, bump_value

# The witness scan's sizes: radii across J, times across one top-frequency
# period, and trapezoid panels across the shell width
X_COUNT = 9
T_COUNT = 33
NODES_PER_RHO = 256


@dataclass(frozen=True)
class BlowupParams:
    """Family parameters: exponents (a, s), dimension n and the tilt eps.

    The stage schedules are M_j = 2^{j+3} and b_j = 1/M_j.  Validity
    needs 0 < s < a/4 and eps < 1 / (10 (a + 2)).
    """

    a: float
    s: float
    n: int
    eps: float

    def __post_init__(self):
        if not (self.a > 0 and self.a != 1.0 and 0.0 < self.s < self.a / 4.0):
            raise ValueError("need a > 0, a != 1 and 0 < s < a/4")
        if not (0.0 < self.eps < 0.1 / (self.a + 2.0)):
            raise ValueError("eps must satisfy 0 < eps < 1/(10(a+2))")
        if self.n < 2:
            raise ValueError("the witness family needs n >= 2")

    def stage_m(self, j: int) -> float:
        return 2.0 ** (j + 3)

    def stage_b(self, j: int) -> float:
        return 1.0 / self.stage_m(j)


def derive_scales(M: float, b: float, params: BlowupParams,
                  j: int) -> "StageScales":
    """Compute (lam, rho) from (M, b) and cross-check the equivalent forms."""
    if not (M > 1.0 and 0.0 < b < 1.0):
        raise ValueError("need M > 1 and 0 < b < 1")
    a, s, eps = params.a, params.s, params.eps
    lam = M ** (2.0 / a) * b ** (-1.0 / (a - 4.0 * s))
    rho = eps * b ** -0.5 * lam ** (1.0 - a / 2.0)
    # equivalent closed form in (M, b) alone
    rho_alt = (eps * M ** ((2.0 - a) / a)
               * b ** (-0.5 + (a / 2.0 - 1.0) / (a - 4.0 * s)))
    if abs(rho - rho_alt) > 1e-12 * rho:
        raise AssertionError("inconsistent shell-width closed forms")
    drift = rho * lam ** (a - 1.0) * b
    drift_alt = eps * M * b ** (-2.0 * s / (a - 4.0 * s))
    if abs(drift - drift_alt) > 1e-9 * drift:
        raise AssertionError("inconsistent drift closed forms")
    scales = StageScales(j=j, a=a, s=s, eps=eps, M=M, b=b, lam=lam, rho=rho)
    if scales.rho / scales.lam > eps * (1.0 + 1e-12):
        raise ValueError("shell width violates rho/lam <= eps")
    return scales


@dataclass(frozen=True)
class StageScales:
    """All scale quantities of one stage of the family."""

    j: int
    a: float
    s: float
    eps: float
    M: float
    b: float
    lam: float
    rho: float

    @property
    def drift(self) -> float:
        """rho lam^{a-1} b — increasing in j (the separation mechanism)."""
        return self.rho * self.lam ** (self.a - 1.0) * self.b

    @property
    def interval_i(self) -> tuple[float, float]:
        """I = [0, a lam^{a-1} b / 2]."""
        return 0.0, 0.5 * self.a * self.lam ** (self.a - 1.0) * self.b

    @property
    def interval_j(self) -> tuple[float, float]:
        """J = [a lam^{a-1} b / 4, a lam^{a-1} b / 2], the scan window."""
        hi = self.interval_i[1]
        return 0.5 * hi, hi

    def stationary_time(self, x: float) -> float:
        """t*(x) = x / (a lam^{a-1}), where the phase -xs + ts^a is stationary
        at s = lam."""
        return x / (self.a * self.lam ** (self.a - 1.0))

    def aligned_time(self, x: float) -> float:
        """t*(x) shifted by a multiple of the top-frequency period 2 pi / lam^a
        so that the stationary phase value -x lam + t lam^a lands on 2 pi Z."""
        la = self.lam ** self.a
        t_star = self.stationary_time(x)
        k = round((t_star * la - x * self.lam) / TWO_PI)
        return (x * self.lam + TWO_PI * k) / la


def build_witness_profile(scales: StageScales, n: int) -> RadialProfile:
    """The reduced profile f1(s) = sqrt(|S^{n-1}|) s^{(n-1)/2} fhat(s) of the
    radial witness with annular spectrum fhat(s) = (1/rho) g((s - lam)/rho).

    g is the unit-integral smooth bump supported in [-1/2, 1/2], so the nodes
    cover exactly [lam - rho/2, lam + rho/2] and the endpoint values vanish
    to all orders (trapezoid quadrature is then spectrally accurate).
    """
    if scales.lam < 1.0 or not (0.0 < scales.rho <= scales.eps * scales.lam):
        raise ValueError("scales violate lam >= 1 or 0 < rho <= eps lam")
    count = NODES_PER_RHO
    nodes = np.linspace(scales.lam - 0.5 * scales.rho,
                        scales.lam + 0.5 * scales.rho, count + 1)
    h = nodes[1] - nodes[0]
    u = (nodes - scales.lam) / scales.rho
    fhat = bump_value(u) / scales.rho
    values = math.sqrt(surface_area(n)) * nodes ** ((n - 1) / 2.0) * fhat
    return RadialProfile(nodes, values, np.full(count + 1, h))


def hs_norm_witness(f1: RadialProfile, s: float, n: int) -> float:
    """H^s norm of the radial witness from its reduced profile:
    ||f||_{H^s} = alpha_n^{-1} ( integral (1 + r^2)^s |f1(r)|^2 dr )^{1/2}."""
    w = (1.0 + f1.nodes ** 2) ** s
    return float(np.sqrt(np.sum(f1.weights * w * np.abs(f1.values) ** 2))) / alpha(n)


@dataclass
class StageReport:
    """Measured quantities of one stage scan."""

    scales: StageScales
    hs_norm: float
    maximal_norm: float         # stationary-branch maximal norm (the growth law)
    ratio: float
    ratio_full: float           # full-field maximal norm over hs_norm, for diagnostics
    surrogate_sup: float        # sup over (x, s) of |e^{i Phi} - 1| at aligned t
    spurious_fraction: float    # (remainder + counter-rotating branch) / main branch


def lower_bound_scan(params: BlowupParams, j: int) -> StageReport:
    """Scan sup_t |S_t f| on the shell |x| in J at times near t*(x).

    For each radius the time grid spans one full top-frequency period around
    the aligned stationary time.  Two maximal norms are recorded: the
    stationary-branch norm (the kernel branch that is phase-stationary at
    t*(x), which carries the predicted growth law) and the full-field norm.
    At small stages the counter-rotating branch is not yet suppressed, so the
    full field sits above the law by an O(1) factor; spurious_fraction
    records that contamination.
    """
    scales = derive_scales(params.stage_m(j), params.stage_b(j), params, j)
    n = params.n
    f1 = build_witness_profile(scales, n)
    nu = BesselOrder.from_dimension(n, 0)
    a = scales.a
    x_lo, x_hi = scales.interval_j
    xs = np.linspace(x_lo, x_hi, X_COUNT)
    t_offsets = np.linspace(-math.pi, math.pi, T_COUNT) / scales.lam ** a
    t_aligned = [scales.aligned_time(x) for x in xs]

    def at_aligned(evo: KernelEvolution) -> np.ndarray:
        """|evo| at each radius (row i) and its aligned time."""
        return np.abs([evo.field(t, a)[i] for i, t in enumerate(t_aligned)])

    # every kernel is built once on all radii
    g = gamma_kernel(nu)
    full = HankelEvolution(f1, nu, xs)
    sup_h = np.array([full.sup_field(t + t_offsets, a)[i] for i, t in enumerate(t_aligned)])
    main_h = at_aligned(KernelEvolution(f1, xs, lambda rs: np.conj(g) * np.exp(-1j * rs)))
    # diagnostics at the aligned times: the remainder and the counter-rotating branch
    spurious_h = (at_aligned(RemainderOperator(f1, nu, xs))
                  + at_aligned(KernelEvolution(f1, xs, lambda rs: g * np.exp(1j * rs))))
    phi = -np.outer(xs, f1.nodes) + np.outer(t_aligned, f1.nodes ** a)
    surrogate = float(np.max(np.abs(np.exp(1j * phi) - 1.0)))

    # annulus L2 of the n-dimensional sup equals alpha_n^{-1} times the
    # radial L2 of sup|H_t f1| over J
    alpha_n = alpha(n)
    dx = xs[1] - xs[0]
    w = np.full(X_COUNT, dx)
    w[0] = w[-1] = 0.5 * dx
    maximal_main = float(np.sqrt(np.sum(w * main_h ** 2))) / alpha_n
    maximal_full = float(np.sqrt(np.sum(w * sup_h ** 2))) / alpha_n
    hs = hs_norm_witness(f1, params.s, n)
    return StageReport(
        scales=scales,
        hs_norm=hs,
        maximal_norm=maximal_main,
        ratio=maximal_main / hs,
        ratio_full=maximal_full / hs,
        surrogate_sup=surrogate,
        spurious_fraction=float(np.max(spurious_h / main_h)),
    )


def run_family(params: BlowupParams, j_values) -> list[StageReport]:
    return [lower_bound_scan(params, int(j)) for j in j_values]


def growth_exponent(reports: list[StageReport]) -> tuple[float, float]:
    """(slope, intercept) of log(ratio^2) against log(M).

    The predicted slope is (a - 4s)/a; e.g. 1/2 at (a, s) = (2, 1/4).
    """
    if len(reports) < 3:
        raise ValueError("need at least 3 stages for a growth fit")
    x = np.log([r.scales.M for r in reports])
    y = np.log([r.ratio ** 2 for r in reports])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def drift_monotone(reports: list[StageReport]) -> bool:
    """Check rho lam^{a-1} b strictly increasing across the stages."""
    drifts = [r.scales.drift for r in reports]
    return all(d2 > d1 for d1, d2 in zip(drifts, drifts[1:]))
