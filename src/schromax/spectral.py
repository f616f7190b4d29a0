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


# Times per batch of _screened_sup, and rows of its step table; an initial
# range of the screen holds at most 16 batches' worth of times.
_TIME_CHUNK = 256


def _uniform_step(ts: np.ndarray) -> float | None:
    """dt when ts[k] = ts[0] + k dt for every k to within 16 ulps of the
    largest |t|, for at least three times; otherwise None.  The check runs
    over blocks of 4096 times (32 KiB temporaries), so it makes no temporary
    the size of ts."""
    n = ts.size
    if n < 3:
        return None
    dt = (ts[-1] - ts[0]) / (n - 1)
    tol = 16.0 * np.finfo(float).eps * max(abs(ts[0]), abs(ts[-1]))
    for start in range(0, n, 4096):
        block = ts[start:start + 4096]
        lattice = ts[0] + dt * np.arange(start, start + block.size)
        if np.max(np.abs(block - lattice)) > tol:
            return None
    return dt


def _ascending(ts: np.ndarray) -> np.ndarray:
    """ts in ascending order: ts itself or its reversed view when it is
    sorted either way, else one sorted copy.  The check runs over blocks of
    4096 times, so it makes no temporary the size of ts."""
    for view in (ts, ts[::-1]):
        if all(np.all(np.diff(view[start:start + 4097]) >= 0)
               for start in range(0, view.size, 4096)):
            return view
    return np.sort(ts)


def _step_table(distinct: np.ndarray, where: np.ndarray, dt: float,
                rows: int) -> np.ndarray:
    """e^{i j dt v} for j < rows and v = distinct[where], shape
    (rows, where.size) in row order, with one exp per distinct value and
    row."""
    return np.take(np.exp(1j * np.outer(dt * np.arange(rows), distinct)), where, axis=1)


def _time_rows(t_values: np.ndarray, distinct: np.ndarray, where: np.ndarray,
               dt: float | None = None):
    """The row filler of _screened_sup: fill(out, idx, row) writes into out,
    in out's precision, the spectra row e^{i t v} (v = distinct[where]) of
    the times with the ascending indices idx.  Each index has an anchor:
    itself for any times, and for times uniform with step dt the multiple
    of _TIME_CHUNK at or below it.  One exp per distinct value and anchor
    gives the anchor rows row e^{i t_anchor v} in complex128, each cast once
    to out's precision.  Without dt that is the row; with dt it is then
    multiplied by row idx - anchor of the step table, one multiply per entry
    with no accumulated rounding.  The table is made in complex128 and kept
    in one precision at a time, so that the two never take memory together:
    complex64 from the start, for the screen, and complex128 from its first
    complex128 call on."""
    period = _TIME_CHUNK if dt is not None else 1
    table = {}

    def steps(dtype):
        if dtype not in table:
            table.clear()
            rows = min(_TIME_CHUNK, t_values.size)
            table[dtype] = _step_table(distinct, where, dt, rows).astype(dtype, copy=False)
        return table[dtype]
    if dt is not None:
        steps(np.dtype(np.complex64))

    def fill(out, idx, row):
        anchors, pick = np.unique(idx - idx % period, return_inverse=True)
        phase = np.take(np.exp(1j * t_values[anchors][:, None] * distinct), where, axis=1)
        if dt is None:
            np.multiply(row, phase, out=out, casting="same_kind")
        else:
            first = np.multiply(row, phase, out=phase).astype(out.dtype)
            np.multiply(steps(out.dtype)[idx - anchors[pick]], first[pick], out=out)
    return fill


def _chunk_buffers(rows: int, n: int, dtype) -> tuple[np.ndarray, ...]:
    """(spectra, fields, moduli) for _moduli: rows of n zeros in the complex
    dtype, and the arrays their transforms and moduli are written to."""
    real = np.finfo(dtype).dtype
    return (np.zeros((rows, n), dtype), np.empty((rows, n), dtype),
            np.empty((rows, n), real))


def _moduli(spectra: np.ndarray, fields: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """|ifft| of each row of spectra, written through fields to moduli (and
    returned), in the precision of spectra.  numpy transforms each row on
    its own, so a row's modulus does not depend on which other rows share
    the call."""
    np.fft.ifft(spectra, axis=1, out=fields)
    return np.abs(fields, out=moduli)


def _screen_margin(row: np.ndarray, n: int) -> tuple[float, float]:
    """(s, eta): s = 2^-e puts the largest |row| in [1/2, 1), and eta bounds
    |mod32 - mod64| for the length-n spectra of s * row.

    With eps the complex64 machine epsilon (2u, u its unit roundoff) and
    U = eps ||s row||_2 / sqrt(n), the unit of the a-priori bound: each
    spectrum of a chunk has the 2-norm of s * row, so its inverse DFT y has
    ||y||_2 = ||s row||_2 / sqrt(n) = U / eps, which also bounds every |y_j|.

    - The complex64 spectra: a step-table row and the chunk's first row,
      each rounded to complex64, and their complex64 product move each
      entry by at most (2u + sqrt(2) gamma_2) = (1 + sqrt(2)) eps times its
      modulus; a row built in complex128 and rounded once to complex64, by
      at most u.  Either way y moves by at most 2.5 U.
    - The FFT: Higham, Accuracy and Stability of Numerical Algorithms, 2nd
      ed., Thm 24.2, bounds ||fl(y) - y||_2 by log2(n) (mu + gamma_4
      (sqrt(2) + mu)) ||y||_2 for radix-2 Cooley-Tukey with twiddles
      accurate to mu <= u, about 3.33 log2(n) U; it is doubled to
      7 log2(n) U as a safety factor for pocketfft's radix-4 passes.  The
      1/n scale is exact for n a power of two.
    - The complex64 modulus (a scaled hypot, a few ulps) and the float32
      threshold M - 2 eta: at most 3 U.
    - The complex128 side's own error, the same bound with an epsilon
      2^-29 times smaller: at most 1 U.

    So eta = 7 (log2(n) + 1) U.  Scaling by s is exact and keeps the
    complex64 values normal whatever the size of row; a row that is not
    finite gives eta = nan or inf, which makes every time a candidate.
    """
    s = 2.0 ** -math.frexp(float(np.max(np.abs(row))))[1]
    unit = float(np.finfo(np.float32).eps) * float(np.linalg.norm(s * row)) / math.sqrt(n)
    return s, 7.0 * (math.log2(n) + 1.0) * unit


def _time_curvature(row: np.ndarray, values: np.ndarray, times: np.ndarray,
                    n: int) -> tuple[float, float]:
    """(K, p) for the length-n spectra row e^{i t values} at the monotone
    times: K a bound on the second t-derivative of their inverse DFTs, up
    to a phase, and p a bound on how far the float64 rounding of the phases
    moves a computed modulus.

    With mu the |row|-weighted mean of v, g(t) = e^{-i mu t} u(t, x_j) =
    (1/n) sum_k row_k e^{i t (v_k - mu)} e^{2 pi i j k / n} has |g| = |u|
    and |g''| <= (1/n) sum_k |row_k| (v_k - mu)^2 term by term (a Bernstein
    bound for the exponential sum in t); K is its float64 value rounded up
    by the factor 1 + 2 (n + 4) eps64, more than the rounding of the terms
    and of their sum.  A phase t v of an anchor row of _time_rows is
    computed with an error of at most u64 |t| v.  A row built from the step
    table is that of the time t_anchor + j dt, within 35 eps64 max|t| of its
    own time by _uniform_step's tolerance, with phase errors of at most
    5 u64 max|t| v.  A phase error d moves each |u| by at most d max v
    ||row||_1 / n, so p = 40 eps64 max|t| max v ||row||_1 / n covers both.
    """
    magnitude = np.abs(row)
    total = float(np.sum(magnitude))
    mean = np.dot(magnitude, values) / total
    eps = float(np.finfo(float).eps)
    curvature = float(np.dot(magnitude, (values - mean) ** 2)) * (1.0 + 2.0 * (n + 4) * eps) / n
    t_max = max(abs(float(times[0])), abs(float(times[-1])))
    return curvature, 40.0 * eps * t_max * float(np.max(values)) * total / n


def _initial_ranges(times: np.ndarray, width: float):
    """The first index of each initial time range of _screened_sup, as one
    array per block of 16 _TIME_CHUNK consecutive times: a block is cut
    wherever floor(|t - t_block| / width) changes, so that each range spans
    less than width.  A width that is not positive gives single-time
    ranges."""
    block = 16 * _TIME_CHUNK
    for start in range(0, times.size, block):
        if width > 0:
            bins = np.floor(np.abs(times[start:start + block] - times[start]) / width)
            yield start + np.flatnonzero(np.diff(bins, prepend=-1.0))
        else:
            yield np.arange(start, min(start + block, times.size))


def _interpolated_peak(e_low: np.ndarray, e_high: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """max over s in [0, 1] of (1 - s) e_low + s e_high + 4 reach s (1 - s),
    in float64: max(e_low, e_high) + (reach - |e_high - e_low| / 4)_+^2 / reach,
    whose last term is 0 where reach = 0 and nan where an e is nan.

    The concave quadratic in s peaks at s = 1/2 + (e_high - e_low) / (8 reach),
    which lies in [0, 1] exactly when |e_high - e_low| <= 4 reach; there its
    value is the formula, and otherwise the peak is the larger end."""
    peak = np.subtract(e_high, e_low, dtype=float)
    np.abs(peak, out=peak)
    peak *= -0.25
    peak += reach
    np.maximum(peak, 0.0, out=peak)
    # r / reach <= 1, and fmin turns its 0 / 0 at reach = 0 into 1
    with np.errstate(invalid="ignore"):
        ratio = np.divide(peak, reach)
    np.fmin(ratio, 1.0, out=ratio)
    peak *= ratio
    peak += np.maximum(e_low, e_high)
    return peak


def _screened_sup(fill, row: np.ndarray, lo: int, n: int, times: np.ndarray,
                  values: np.ndarray, dtype=np.complex64, level=None) -> np.ndarray:
    """max over the monotone times of |ifft| of length-n spectra that are
    zero outside columns lo:lo + row.size.  fill(out, idx, row) writes into
    out, in out's precision, the spectra there of the times with the
    ascending indices idx, for the coefficients row; values, the |xi|^a of
    each column of row, gives the bound that rules out the times between
    two screened ones together.

    The screen works in dtype: in complex64 on s * row (s and eta from
    _screen_margin), or in complex128 on row itself with s = 1 and eta = 0.
    It keeps top(x), the running max of the moduli it has computed, and a
    level L(x): top itself, or level(top, s) when level is given.  A
    screened time t is transformed in a batch of _TIME_CHUNK, top is raised,
    L is taken, and t records one scalar, the difference (whose sign is
    exact)

        e_t = max over x of mod_t(x) - (L(x) - 2 eta).

    In complex64, t is kept when e_t >= 0 (not < 0, so that nan keeps the
    row); a complex128 screen keeps no list.  With K and p from
    _time_curvature for s * row, the first times screened are the first
    time of each range of _initial_ranges with width sqrt(8 rho / K) (rho =
    ||s row||_2 / n, the RMS modulus; inf for K = 0) and the last time, and
    the first intervals run between consecutive ones.  Then it goes round
    by round: an interval between screened times a < c (indices) with
    c - a > 1 is dropped when

        max(e_a, e_c) + (R - |e_c - e_a| / 4)_+^2 / R < -(eps + 2^-20 (R + eps)),

    R = K H^2 / 8 and H = |t_c - t_a| (the middle term, from
    _interpolated_peak, is 0 for R = 0 and at most R), and otherwise its
    middle (a + c) // 2 is screened and splits it in two for the next
    round.  max over x of max(f, g) is max(max f, max g), so each e is
    exact up to the rounding of its difference.  After a complex64 screen
    its buffers are freed, and only the kept times are filled from row,
    transformed and reduced in complex128, in batches of _TIME_CHUNK / 2,
    exactly as a single complex128 pass over every time would compute them.
    A complex128 screen returns top itself.

    The level: level(top, s) returns, in top's dtype and units (s times the
    moduli of row's spectra), one level per node.  Call a node x covered
    when every L(x) taken is at most s sup64(x) + eta, sup64(x) the
    complex128 sup over every time at x.  top covers every node, since
    top(x) <= s sup64(x) + eta at every batch.  The result equals the
    single pass at every covered node and is at most it elsewhere, a max of
    the same complex128 moduli over fewer times.  At a covered node L, like
    top, is at most ||s row||_2 / sqrt(n) + eta, so the float32 threshold
    L - 2 eta rounds within eta's budget.

    The bound: every t = (1 - s) t_a + s t_c, 0 <= s <= 1, has at every x

        |u(t, x)| <= (1 - s) |u(t_a, x)| + s |u(t_c, x)| + 4 R s (1 - s).

    g(t) = e^{-i mu t} u(t, x), mu the weighted mean of _time_curvature, has
    |g| = |u| and |g''| <= K.  The linear interpolant of g between t_a and
    t_c has modulus at most (1 - s) |g(t_a)| + s |g(t_c)|, and the
    interpolation error is the integral of a Peano kernel G >= 0 against
    g'', with the integral of G equal to H^2 s (1 - s) / 2, so complex values
    need no sqrt(2).  The largest value of (1 - s) e_a + s e_c + 4 R s (1 - s)
    over s in [0, 1] is the left side of the drop test (_interpolated_peak).

    The error budget: eta bounds |mod32 - mod64| (eta = 0 when the screen
    is the complex128 pass), so top <= max64 + eta.  A computed mod64 is
    within U + s p of the exact modulus, U the unit of _screen_margin for
    s * row (the complex128 rows' own rounding, as there) and p the phase
    bound of _time_curvature; eps = 2 (U + s p).

    Why no max is lost: let x be a covered node, t* a complex128 argmax at
    x, at fraction s of an interval with ends a and c, and T the larger of
    the thresholds L(x) - 2 eta of the batches of a and c.  Each of e_a and
    e_c bounds its difference against T, and T <= mod64(t*) - eta.  Then

        (1 - s) (mod(a) - T) + s (mod(c) - T) + 4 R s (1 - s) + eps
            >= mod64(t*) - eta - T >= 0,

    so the peak over s of the exact differences, plus eps, is at least 0.
    A recorded e is the rounding of its exact difference, within 2^-23 of
    its size.  When e_a, e_c < 0 (as a drop needs), the exact differences
    are at most (1 - 2^-23) times them, so their peak is at most
    (1 - 2^-23) times the peak of the recorded ones plus 2^-23 R, R read up
    by its own rounding; the margin 2^-20 (R + eps) covers that and the
    rounding of the peak and of eps.  So no interval that holds t* is
    dropped.  Intervals only shrink, so t* is screened in some round.  A
    complex128 screen computes each row as the single pass does, so top(x)
    is mod64(t*, x) once t* is screened.  A complex64 screen keeps t*, its
    mod32 being at least mod64(t*) - eta >= L(x) - 2 eta, so the max over
    the kept times at x is the max over every time.  A max does not depend
    on the order or the grouping of its rows, so either way the result
    equals the single pass bit for bit.  Each time is the first of one range, the
    last time or the middle of one interval, so none is screened twice.
    """
    sup = np.zeros(n)
    count = times.size
    if count == 0:
        return sup
    recompute = dtype == np.complex64
    s, eta = _screen_margin(row, n)
    unit = eta / (7.0 * (math.log2(n) + 1.0)) / s   # U of _screen_margin for row
    if not recompute:
        s, eta = 1.0, 0.0
    scaled = s * row
    cols = slice(lo, lo + row.size)
    curvature, phase = _time_curvature(row, values, times, n)
    bend, slack = s * curvature, 2.0 * s * (unit + phase)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sqrt(8 rho / K), in which s cancels: inf for K = 0, nan for a row
        # that is not finite
        width = np.sqrt(8.0 * np.linalg.norm(row) / n / curvature)
    # top and kept go before the complex64 buffers, so that freeing those
    # leaves memory the complex128 buffers can reuse
    top = np.zeros(n, dtype=np.finfo(dtype).dtype)
    kept = []
    spectra, fields, moduli = _chunk_buffers(min(_TIME_CHUNK, count), n, dtype)

    def screen(idx):
        """e of each of the ascending indices idx, screened in batches."""
        excess = np.empty(idx.size, dtype=top.dtype)
        for b in range(0, idx.size, _TIME_CHUNK):
            part = idx[b:b + _TIME_CHUNK]
            m = part.size
            fill(spectra[:m, cols], part, scaled)
            chunk = _moduli(spectra[:m], fields[:m], moduli[:m])
            np.maximum(top, chunk.max(axis=0), out=top)
            levels = top if level is None else level(top, s)
            np.subtract(chunk, levels - 2.0 * eta, out=chunk)
            chunk.max(axis=1, out=excess[b:b + m])
            if recompute:
                kept.append(part[~(excess[b:b + m] < 0)])
        return excess

    def live(low, high, e_low, e_high):
        """Whether each interval has inner times that its ends do not rule out."""
        reach = np.subtract(times[high], times[low])
        np.multiply(reach, reach, out=reach)
        reach *= bend / 8.0
        peak = _interpolated_peak(e_low, e_high, reach)
        # reach becomes the threshold -(eps + 2^-20 (R + eps))
        reach += slack
        reach *= -2.0 ** -20
        reach -= slack
        return (high - low > 1) & ~(peak < reach)

    ends = np.concatenate([*_initial_ranges(times, width), [count - 1]])
    ends = ends[np.diff(ends, prepend=-1) > 0]   # the last time may start a range
    excess = screen(ends)
    intervals = [ends[:-1], ends[1:], excess[:-1], excess[1:]]
    del ends, excess
    keep = live(*intervals)
    intervals = [part[keep] for part in intervals]
    while intervals[0].size:
        low, high, e_low, e_high = intervals
        middle = (low + high) // 2
        e_middle = screen(middle)
        # the live halves in ascending order
        keep = np.stack((live(low, middle, e_low, e_middle),
                         live(middle, high, e_middle, e_high)), axis=1).ravel()
        intervals = [np.stack(pair, axis=1).ravel()[keep] for pair in (
            (low, middle), (middle, high), (e_low, e_middle), (e_middle, e_high))]
    if not recompute:
        return top
    del spectra, fields, moduli
    kept = np.sort(np.concatenate(kept))
    # complex128 batches of half as many rows fit in the freed complex64 buffers
    batch = _TIME_CHUNK // 2
    spectra, fields, moduli = _chunk_buffers(min(batch, kept.size), n, np.complex128)
    for b in range(0, kept.size, batch):
        idx = kept[b:b + batch]
        k = idx.size
        fill(spectra[:k, cols], idx, row)
        np.maximum(sup, _moduli(spectra[:k], fields[:k], moduli[:k]).max(axis=0), out=sup)
    return sup


def sup_over_times(F: SpectralFunction1D, t_values, a: float, level=None) -> np.ndarray:
    """Pointwise sup of |S_t f| over the given times (nonnegative, real).

    Only the coefficients matter that are nonzero: they lie in columns
    lo:hi.  _time_rows gives their phases with one exp per distinct |xi|^a
    among them and per time, or, on a uniformly spaced grid (see
    _uniform_step), per anchor of a step table; other times are taken in
    ascending order (_ascending).  _screened_sup screens the first time of
    each initial range and the last time, then bisects the intervals
    between screened times, ruling out the times inside one by its ends'
    moduli, interpolated linearly, plus the curvature bound of
    _time_curvature.  On a uniform grid it screens in complex64 and
    recomputes in complex128 only the times within 2 eta of the level at
    some x, eta = 7 (log2 N + 1) eps32 ||c||_2 / sqrt(N) the a-priori FFT
    rounding bound of _screen_margin for the coefficient vector c scaled by
    a power of two.  On other times it screens in complex128 with eta = 0,
    and the result is its running max top.  Either way the result is the
    complex128 sup over every time, bit for bit, at every node that the
    level covers.  The 1/dx scale is applied after the max, which is exact
    because correctly rounded division is monotone.

    The level is the running max top of the screen itself, which covers
    every node, unless level is given (only maximal_over_E gives one).
    Then level(top, unit) is called after each screened batch and returns
    one level per node in top's dtype and units; top reads unit times the
    quotients that the 1/dx scale rounds into the result.  A node is
    covered when no level there exceeds unit times its complex128 sup's
    quotient, plus eta; elsewhere the result is at most that sup
    (_screened_sup).
    """
    g = F.grid
    n = g.point_count
    base = alternating_signs(n) * F.coefficients
    nonzero = np.flatnonzero(base)
    if nonzero.size == 0:
        return np.zeros(n)
    lo, hi = nonzero[0], nonzero[-1] + 1
    xi_pow = np.abs(g.xi_nodes()) ** a
    distinct, inverse = np.unique(xi_pow[nonzero], return_inverse=True)
    # entries of base that are zero take the phase distinct[0]; it multiplies 0
    where = np.zeros(hi - lo, dtype=np.intp)
    where[nonzero - lo] = inverse
    t_values = np.asarray(t_values, dtype=float)
    dt = _uniform_step(t_values)
    if dt is None:
        t_values = _ascending(t_values)
    fill = _time_rows(t_values, distinct, where, dt)
    # a grid keeps about a fifth of its times after the bisection, and there
    # the complex64 screen is faster; other times keep a few percent, and a
    # complex128 screen saves the recompute of most of them
    dtype = np.complex64 if dt is not None else np.complex128
    # the screen's top reads s * dx times the result, s its power of two
    screen_level = None if level is None else (lambda top, s: level(top, s * g.dx))
    return _screened_sup(fill, base[lo:hi], lo, n, t_values, distinct[where], dtype,
                         screen_level) / g.dx


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
