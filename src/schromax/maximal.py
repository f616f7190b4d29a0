"""Maximal functions over time windows, sequences and translation-time sets,
and the bound shape of the translation-time scan."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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

    def seed_times(self, lam: float, a: float) -> np.ndarray:
        """Initial t-grid: step <= min(0.5 |J|, 1/(2 lam^a)) so the multiplier
        phase at the top frequency moves by less than pi between samples."""
        if self.length == 0.0:
            return np.array([self.t0])
        step = min(0.5 * self.length, 0.5 * lam ** (-a))
        n = max(2, int(math.ceil(self.length / step)) + 1)
        return self.t0 + np.linspace(0.0, self.length, n)


@dataclass(frozen=True)
class ProductSet:
    """E = B x J with B a ball of radius ball_radius around ball_center."""

    ball_radius: float
    window: TimeWindow
    ball_center: float = 0.0

    def __post_init__(self):
        if self.ball_radius < 0:
            raise ValueError("ball radius must be nonnegative")

    def seed_offsets(self, lam: float) -> np.ndarray:
        if self.ball_radius == 0.0:
            return np.array([self.ball_center])
        step = 0.5 / lam
        n = max(2, int(math.ceil(2.0 * self.ball_radius / step)) + 1)
        return self.ball_center + np.linspace(-self.ball_radius, self.ball_radius, n)


# Midpoint-doubling rounds after which the time refinement stops unconverged.
REFINE_MAX_ROUNDS = 12


class Refinement(NamedTuple):
    """How the time refinement of one maximal_over_window / maximal_over_E
    call ended."""

    time_samples: int   # evolutions evaluated, summed over the passes
    residual: float     # relative change of the L2 norm in the last round
    capped: bool        # stopped after REFINE_MAX_ROUNDS rounds above rel_tol


def _phase_floor(F: SpectralFunction1D, a: float) -> float:
    """1/(4 lam^a), lam the band limit (else xi_max): the phase-resolution floor."""
    lam = F.band_limit if F.band_limit is not None else F.grid.xi_max
    return 0.25 * lam ** (-a)


def _refine_until_stable(grid, a, times, passes, reduce, rel_tol):
    """Pointwise sup over t of several evolutions, with midpoint doubling of
    the t-grid until the L2 norm of the reduced sup on grid moves by less
    than rel_tol.

    passes is a list of (spectral function, modulation) pairs; each keeps its
    own running sup over the times, and reduce maps the list of those sups to
    the sup on grid.  Returns (sup_field, Refinement).
    """
    pass_sups = [sup_over_times(G, times, a, modulation=mod) for G, mod in passes]
    sup = reduce(pass_sups)
    total = times.size * len(passes)
    norm = np.sqrt(np.sum(sup ** 2) * grid.dx)
    residual, capped = math.inf, False
    for _ in range(REFINE_MAX_ROUNDS):
        if times.size < 2:
            residual = 0.0
            break
        mids = 0.5 * (times[:-1] + times[1:])
        for (G, mod), pass_sup in zip(passes, pass_sups):
            np.maximum(pass_sup, sup_over_times(G, mids, a, modulation=mod), out=pass_sup)
        total += mids.size * len(passes)
        sup = reduce(pass_sups)
        new_norm = np.sqrt(np.sum(sup ** 2) * grid.dx)
        residual = (new_norm - norm) / norm if norm > 0 else 0.0
        norm = new_norm
        if residual < rel_tol:
            break
        merged = np.empty(times.size + mids.size)
        merged[0::2] = times
        merged[1::2] = mids
        times = merged
    else:
        capped = True
    return sup, Refinement(total, residual, capped)


def maximal_over_window(F: SpectralFunction1D, J: TimeWindow, a: float,
                        rel_tol: float = 1e-3) -> tuple[GridFunction1D, Refinement]:
    """Pointwise sup over t in J of |S_t f| on an adaptively refined t-grid,
    and how the refinement ended.

    Refinement doubles the grid until the L2 norm of the sup changes by less
    than rel_tol (default 0.1%); the sup is monotone under refinement.
    """
    if F.band_limit is None:
        raise ValueError("maximal estimates require a band-limited input")
    times = J.seed_times(F.band_limit, a)
    sup, refinement = _refine_until_stable(F.grid, a, times, [(F, None)],
                                           lambda sups: sups[0], rel_tol)
    return GridFunction1D(F.grid, sup), refinement


def maximal_over_sequence(F: SpectralFunction1D, seq: TimeSequence, a: float,
                          cutoffs: tuple[float, float] | None = None,
                          ) -> tuple[GridFunction1D, int]:
    """Pointwise sup of |S_{t_m} f| over sequence members in (b_low, b_high].

    Members below the phase-resolution floor 1/(4 lam^a) are indistinguishable
    from t = 0 at the top frequency and are represented by the single largest
    such member.  Returns (field, number of members used); an empty selection
    returns the zero field with count 0.
    """
    t_floor = _phase_floor(F, a)
    b_low, b_high = cutoffs if cutoffs is not None else (0.0, 1.0)
    lo = max(b_low, t_floor)
    members = seq.members_in(lo, b_high) if lo < b_high else np.empty(0)
    if b_low < t_floor:
        # one representative for the unresolved cluster below the floor
        rep = float(seq.term(seq.count_above(t_floor) + 1))
        if b_low < rep <= b_high:
            members = np.concatenate([members, [rep]])
    if members.size == 0:
        return GridFunction1D(F.grid, np.zeros(F.grid.point_count)), 0
    sup = sup_over_times(F, members, a)
    return GridFunction1D(F.grid, sup), int(members.size)


def maximal_over_E(F: SpectralFunction1D, E: ProductSet, a: float,
                   rel_tol: float = 1e-3) -> tuple[GridFunction1D, Refinement]:
    """sup over (y, t) in B x J of |S_t f(x + y)|, and how the time
    refinement ended.

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
    runs only when K delta < 2r.  The t-axis is refined adaptively for both
    passes together.
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
    passes = [(G, _modulation(fine, low))]
    if K * delta < high - low:
        passes.append((F, _modulation(g, high)))

    def reduce(sups):
        wrapped = np.concatenate([sups[0], sups[0][:K]])
        out = sliding_window_view(wrapped, K + 1)[::m].max(axis=1)
        for edge in sups[1:]:
            np.maximum(out, edge, out=out)
        return out

    times = E.window.seed_times(lam, a)
    sup, refinement = _refine_until_stable(g, a, times, passes, reduce, rel_tol)
    return GridFunction1D(g, sup), refinement


def _modulation(grid: GridSpec, y: float) -> np.ndarray | None:
    """e^{i xi y} on the grid's frequencies (None at y = 0): translation by y."""
    return np.exp(1j * grid.xi_nodes() * y) if y != 0.0 else None


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
    floor; decays to 0 as tail_start grows when f is smooth.
    """
    g = F.grid
    f0 = inverse_transform(F).samples
    ms = np.arange(tail_start, tail_start + 60)
    times = np.asarray(seq.term(ms), dtype=float)
    times = times[times >= min(_phase_floor(F, a), times[0])]
    if times.size == 0:
        times = np.array([seq.term(tail_start)])
    worst = np.zeros(g.point_count)
    for t in times:
        ft = inverse_transform(propagate(F, float(t), a)).samples
        np.maximum(worst, np.abs(ft - f0), out=worst)
    return float(np.count_nonzero(worst > delta) * g.dx)
