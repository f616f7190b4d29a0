"""Maximal functions over time windows, sequences and translation-time sets,
and the bound shape of the translation-time scan."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from schromax.sequences import TimeSequence
from schromax.spectral import (
    GridFunction1D,
    GridSpec,
    SpectralFunction1D,
    propagate,
    inverse_transform,
    sup_over_times,
)


@dataclass(frozen=True)
class TimeWindow:
    """An interval J = [t0, t0 + length] inside [0, 1]."""

    t0: float
    length: float

    def __post_init__(self):
        if not (0.0 <= self.t0 <= 1.0 and self.length >= 0.0
                and self.t0 + self.length <= 1.0 + 1e-12):
            raise ValueError("window must satisfy J subset of [0, 1]")

    def time_count(self, lam: float, a: float) -> int:
        """Number of times on the grid of `times`, counted without building
        it: 1 when |J| = 0, else max(3, 2 ceil(|J| / s) + 1) with the seed
        step s = min(|J|, lam^-a) / 2.  Raises ValueError when s is zero or
        |J| / s is not finite, or when the count exceeds the largest array
        index."""
        if self.length == 0.0:
            return 1
        step = min(0.5 * self.length, 0.5 * lam ** (-a))
        spans = self.length / step if step > 0 else math.inf
        count = max(3, 2 * math.ceil(spans) + 1) if math.isfinite(spans) else math.inf
        if count > np.iinfo(np.intp).max:
            raise ValueError(
                f"the time grid on |J| = {self.length} at lam = {lam} and a = {a} "
                "needs a nonzero step min(|J|, lam^-a) / 2 and at most "
                f"{np.iinfo(np.intp).max} times")
        return count

    def times(self, lam: float, a: float) -> np.ndarray:
        """The uniform t-grid of a sup over J: the seed grid of step s (see
        time_count) and its midpoints, so the step h is at most
        min(|J|, lam^-a) / 4.

        For data band-limited to lam, e^{-i c t} S_t f(x), c the midpoint of
        the range of |xi|^a, is an exponential sum in t of type B <= lam^a / 2,
        so theta = B h / 2 <= 1/16.  That is the resolution of the Bernstein
        bracket G <= M <= G / cos(theta) = 1.00196 G between the grid sup G
        and the sup M over the times (Duffin-Schaeffer; Boas, Entire
        Functions, ch. 11).
        """
        return self.t0 + np.linspace(0.0, self.length, self.time_count(lam, a))


@dataclass(frozen=True)
class ProductSet:
    """E = B x J with B a ball of radius ball_radius around ball_center."""

    ball_radius: float
    window: TimeWindow
    ball_center: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.ball_radius < math.inf:
            raise ValueError("ball_radius must be finite and nonnegative, "
                             f"got {self.ball_radius!r}")

    def seed_offsets(self, lam: float) -> np.ndarray:
        if self.ball_radius == 0.0:
            return np.array([self.ball_center])
        step = 0.5 / lam
        n = max(2, int(math.ceil(2.0 * self.ball_radius / step)) + 1)
        return self.ball_center + np.linspace(-self.ball_radius, self.ball_radius, n)


def phase_floor(lam: float, a: float) -> float:
    """1/(4 lam^a), the phase-resolution floor at frequency lam."""
    return 0.25 * lam ** (-a)


def _top_frequency(F: SpectralFunction1D) -> float:
    """The band limit of F, else the grid's xi_max."""
    return F.band_limit if F.band_limit is not None else F.grid.xi_max


def maximal_over_window(F: SpectralFunction1D, J: TimeWindow, a: float,
                        ) -> tuple[GridFunction1D, int]:
    """Pointwise sup over t in J of |S_t f| on the grid J.times(lam, a)
    (theta <= 1/16, see TimeWindow.times), and the number of times evaluated:
    the sup over B x J with B the point 0.
    """
    return maximal_over_E(F, ProductSet(0.0, J), a)


def maximal_over_sequence(F: SpectralFunction1D, seq: TimeSequence, a: float,
                          ) -> tuple[GridFunction1D, int]:
    """Pointwise sup of |S_{t_m} f| over the sequence members.

    Members below the phase-resolution floor 1/(4 lam^a) are indistinguishable
    from t = 0 at the top frequency and are represented by the single largest
    such member.  Returns (field, number of members used).
    """
    t_floor = phase_floor(_top_frequency(F), a)
    members = seq.members_in(t_floor, 1.0) if t_floor < 1.0 else np.empty(0)
    # one representative for the unresolved cluster below the floor
    rep = float(seq.term(seq.count_above(t_floor) + 1))
    members = np.concatenate([members, [rep]])
    sup = sup_over_times(F, members, a)
    return GridFunction1D(F.grid, sup), int(members.size)


def maximal_over_E(F: SpectralFunction1D, E: ProductSet, a: float,
                   ) -> tuple[GridFunction1D, int]:
    """sup over (y, t) in B x J of |S_t f(x + y)| with t on the grid
    E.window.times(lam, a) (theta <= 1/16, see TimeWindow.times), and the
    number of time samples evaluated, summed over the passes.

    Translation is exact spectral modulation by e^{i xi y}, so offsets need
    not lie on the spatial grid, and the sups over y and t commute.  With the
    end points c +- r and the step h of E.seed_offsets(lam), let m be the
    least power of two with delta = dx / m <= h (m = 1 when r = 0) and
    K = floor(2r / delta).  B is sampled on the lattice

        {c - r + k delta : 0 <= k <= K}  U  {c + r},

    which keeps both end points and is never coarser than h.  Pass A evolves
    the coefficients zero-padded to N m points (exact trigonometric
    interpolation) and modulated by e^{i xi (c - r)}; its t-sup M_A at the
    fine nodes gives out(x_j) = max_{0 <= k <= K} M_A[(j m + k) mod N m], a
    wrapped sliding maximum.  Pass B, the offset c + r on the coarse grid,
    runs only when K delta < 2r.  Each pass is evaluated once on the time
    grid; modulation leaves the type B in t unchanged.

    Each pass screens against a level (see sup_over_times) that rules out
    the nodes whose sup the result does not use, so that only the sups it
    uses are exact:

    - Pass A (_ball_level): at a fine node, the least over the windows of
      K + 1 nodes that hold it of the largest top in the window, or +inf
      in no window.  Let x* be a complex128 argmax of window W, with sup
      M_W in the screen's units.  Every top in W is at most M_W + eta, so
      the level at x* is at most M_W + eta = sup64(x*) + eta: the level
      covers x*, and pass A's sup at x* is exact.  Elsewhere in W it is at
      most sup64 <= M_W, so W's max is M_W bit for bit.
    - Pass B (_floor_level): the larger of its own top and out, pass A's
      result, times unit and rounded down.  Where B's complex128 sup v
      exceeds out, so does the quotient that the 1/dx scale rounds to v
      (rounding is monotone), and the level there is at most that quotient
      times unit plus eta: B's sup there is exact.  Elsewhere it is at most
      v <= out.  Either way max(out, B's sup) is max(out, v).

    With r = 0 (K = 0, m = 1) each window is one node and pass A's level is
    its top, the level sup_over_times takes without one.
    """
    if F.band_limit is None:
        raise ValueError("maximal estimates require a band-limited input")
    lam = F.band_limit
    g = F.grid
    guard = 0.25 * g.half_length
    if E.ball_radius > guard:
        raise ValueError("ball radius exceeds the domain guard zone L/4")
    offsets = E.seed_offsets(lam)
    low, high = offsets[0], offsets[-1]
    m = 1
    if offsets.size > 1:
        while g.dx / m > offsets[1] - offsets[0]:
            m *= 2
    delta = g.dx / m
    K = math.floor((high - low) / delta)

    n = g.point_count
    fine = GridSpec(n * m, g.half_length)
    padded = np.zeros(n * m, dtype=np.complex128)
    padded[(n * m - n) // 2:(n * m + n) // 2] = F.coefficients
    G = SpectralFunction1D(fine, padded, band_limit=lam)
    times = E.window.times(lam, a)
    sup_a = sup_over_times(_modulation(G, low), times, a,
                           level=_ball_level(K, m) if K else None)
    out = _window_peaks(sup_a, K, m)
    passes = 1
    if K * delta < high - low:
        edge = sup_over_times(_modulation(F, high), times, a, level=_floor_level(out))
        np.maximum(out, edge, out=out)
        passes = 2
    return GridFunction1D(g, out), int(times.size) * passes


def _window_peaks(values: np.ndarray, K: int, m: int) -> np.ndarray:
    """max of values[(j m + k) mod values.size] over 0 <= k <= K, for each j:
    the wrapped sliding maximum of maximal_over_E's windows."""
    wrapped = np.concatenate([values, values[:K]])
    return sliding_window_view(wrapped, K + 1)[::m].max(axis=1)


def _ball_level(K: int, m: int):
    """The level of maximal_over_E's pass A, as sup_over_times takes it: at
    fine node i m + rho (rho < m), the least of the window peaks of top for
    the windows j = i - d, ..., i (mod N) that hold it, d = floor((K - rho)
    / m), which is K // m for rho <= K % m and one less above; +inf where
    d < 0."""
    q, p = divmod(K, m)

    def level(top, unit):
        peaks = _window_peaks(top, K, m)
        n = peaks.size
        out = np.full((n, m), np.inf, dtype=top.dtype)
        for d, rho in ((q, slice(0, p + 1)), (q - 1, slice(p + 1, m))):
            if d >= 0:
                held = np.concatenate([peaks[n - d:], peaks])
                out[:, rho] = sliding_window_view(held, d + 1).min(axis=1)[:, None]
        return out.ravel()
    return level


def _floor_level(out: np.ndarray):
    """The level of maximal_over_E's pass B, as sup_over_times takes it: the
    larger of top and out * unit, the latter cast to top's dtype and then
    moved one step down, which puts it below the real product."""
    def level(top, unit):
        return np.maximum(top, np.nextafter((out * unit).astype(top.dtype), -np.inf))
    return level


def _modulation(F: SpectralFunction1D, y: float) -> SpectralFunction1D:
    """F translated by y: its coefficients times e^{i xi y} (F itself at y = 0)."""
    return F if y == 0.0 else SpectralFunction1D(
        F.grid, F.coefficients * np.exp(1j * F.grid.xi_nodes() * y), band_limit=F.band_limit)


def thm3_predictor(lam: float, window_length: float, ball_radius: float,
                   a: float) -> float:
    """|J|^{1/4} lam^{a/2} + r^{1/2} lam^{1/2} + 1, the n = 1, a != 1
    translation-time bound shape."""
    return (window_length ** 0.25 * lam ** (a / 2.0)
            + ball_radius ** 0.5 * lam ** 0.5 + 1.0)


def convergence_probe(F: SpectralFunction1D, seq: TimeSequence, a: float,
                      delta: float, tail_start: int) -> float:
    """Grid measure of {x : sup_{m >= tail_start} |S_{t_m} f(x) - f(x)| > delta}.

    Uses the 60 members from tail_start on, down to the phase-resolution
    floor (t_{tail_start} is always kept); decays to 0 as tail_start grows
    when f is smooth.
    """
    g = F.grid
    f0 = inverse_transform(F).samples
    ms = np.arange(tail_start, tail_start + 60)
    times = np.asarray(seq.term(ms), dtype=float)
    times = times[times >= min(phase_floor(_top_frequency(F), a), times[0])]
    worst = np.zeros(g.point_count)
    for t in times:
        ft = inverse_transform(propagate(F, float(t), a)).samples
        np.maximum(worst, np.abs(ft - f0), out=worst)
    return float(np.count_nonzero(worst > delta) * g.dx)
