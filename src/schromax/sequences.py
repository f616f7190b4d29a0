"""Decreasing time sequences, their counting functions and the summability
classes used by the sequence experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# the most members one members_in call returns
MEMBER_CAP = 10_000_000
# the terms lr_doubling_sums evaluates at a time
SUM_BLOCK = 4096


@dataclass(frozen=True)
class TimeSequence:
    """A strictly decreasing sequence 1 > t_1 > t_2 > ... > 0.

    kind:
      power      t_m = (m + 1)^{-alpha}   (alpha > 0; the +1 shift keeps t_1 < 1)
      geometric  t_m = ratio^m            (0 < ratio < 1)
      log        t_m = 1 / log(m + 2)     (slowly decaying; in no l^{r,inf})
    """

    kind: str
    alpha: float = 1.0
    ratio: float = 0.5

    def __post_init__(self):
        if self.kind not in ("power", "geometric", "log"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "power" and self.alpha <= 0:
            raise ValueError("power sequence needs alpha > 0")
        if self.kind == "geometric" and not (0 < self.ratio < 1):
            raise ValueError("geometric sequence needs 0 < ratio < 1")
        if not 0.0 < self.term(1) < 1.0:
            raise ValueError("need 1 > t_1 > 0")

    def term(self, m) -> np.ndarray | float:
        """t_m for 1-indexed m (vectorized)."""
        m_arr = np.asarray(m, dtype=float)
        if self.kind == "power":
            out = (m_arr + 1.0) ** (-self.alpha)
        elif self.kind == "geometric":
            out = self.ratio ** m_arr
        else:
            out = 1.0 / np.log(m_arr + 2.0)
        return out if np.ndim(m) else float(out)

    def prefix(self, M: int) -> np.ndarray:
        return self.term(np.arange(1, M + 1))

    def count_above(self, b: float) -> int:
        """#{m >= 1 : t_m > b} (finite for b > 0; exact closed-form count)."""
        if b <= 0:
            raise ValueError("b must be positive")
        if self.term(1) <= b:
            return 0
        if self.kind == "power":
            # t_m > b  <=>  m + 1 < b^{-1/alpha}
            count = int(math.ceil(b ** (-1.0 / self.alpha))) - 2
        elif self.kind == "geometric":
            count = int(math.floor(math.log(b) / math.log(self.ratio)))
        else:
            count = int(math.ceil(math.exp(1.0 / b))) - 2
        # closed forms can be off by one at exact boundaries; fix locally.
        # Beyond exact float-integer range the boundary comparison cannot
        # resolve anyway (and the walk would not terminate), so return as is.
        count = max(count, 0)
        if count > 10 ** 15:
            return count
        while count >= 1 and not self.term(count) > b:
            count -= 1
        while self.term(count + 1) > b:
            count += 1
        return count

    def members_in(self, low: float, high: float) -> np.ndarray:
        """All t_m with low < t_m <= high, in decreasing order; at most
        MEMBER_CAP of them."""
        if not (0 <= low < high):
            raise ValueError("need 0 <= low < high")
        n_hi = self.count_above(high)   # members strictly above high: skip
        n_lo = self.count_above(low) if low > 0 else None
        if n_lo is None:
            raise ValueError("low = 0 would select infinitely many members")
        if n_lo - n_hi > MEMBER_CAP:
            raise ValueError("selection too large; raise low")
        if n_lo == n_hi:
            return np.empty(0)
        return self.term(np.arange(n_hi + 1, n_lo + 1, dtype=float))


def default_b_grid(depth: int = 16) -> np.ndarray:
    return 2.0 ** (-np.arange(1, depth + 1))


def weak_lr_constant(seq: TimeSequence, r: float, b_grid=None) -> float:
    """sup over the b-grid of b^r * #{m : t_m > b} — the weak-type constant.

    Stable under grid refinement => l^{r,inf} evidence; growth => evidence of
    non-membership (see weak_lr_trend).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if b_grid is None:
        b_grid = default_b_grid()
    b_grid = np.asarray(b_grid, dtype=float)
    counts = np.array([seq.count_above(b) for b in b_grid])
    return float(np.max(b_grid ** r * counts))


def weak_lr_trend(seq: TimeSequence, r: float, b_grid=None) -> tuple[float, float, bool]:
    """(constant on coarse half, constant on fine half, growing?).

    The grid is ordered from large to small b; "growing" means the fine-b half
    exceeds the coarse-b half by more than 25%.
    """
    if b_grid is None:
        b_grid = default_b_grid()
    b_grid = np.asarray(b_grid, dtype=float)
    half = b_grid.size // 2
    coarse = weak_lr_constant(seq, r, b_grid[:half])
    fine = weak_lr_constant(seq, r, b_grid[half:])
    return coarse, fine, bool(fine > 1.25 * coarse)


def lr_doubling_sums(seq: TimeSequence, r: float, M: int = 100_000) -> tuple[float, float]:
    """(S_M, S_2M), the partial sums of t_m^r over m <= M and m <= 2M.

    The terms are evaluated once, SUM_BLOCK at a time, up to the first block
    that ends in 0.0: the terms decrease, so every later one is 0.0 too and
    adds nothing.  At r = 0 every term is 1 (0.0 ** 0 is 1).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return float(M), float(2 * M)
    blocks = []
    for start in range(1, 2 * M + 1, SUM_BLOCK):
        blocks.append(seq.term(np.arange(start, min(start + SUM_BLOCK, 2 * M + 1))) ** r)
        if blocks[-1][-1] == 0.0:
            break
    terms = np.concatenate(blocks)
    return float(np.sum(terms[:M])), float(np.sum(terms))


def lr_converges(seq: TimeSequence, r: float) -> bool:
    """Doubling heuristic: the sum looks convergent if S_{2M} - S_M is below
    1% of S_{2M}, M = 10^5."""
    s1, s2 = lr_doubling_sums(seq, r)
    if s1 == 0:
        return True
    return (s2 - s1) / s2 < 0.01
