"""Decreasing time sequences, counting arithmetic, summability classes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from schromax import sequences
from schromax.sequences import TimeSequence


class TestConstruction:
    def test_power_first_term_below_one(self):
        seq = TimeSequence("power", alpha=0.01)
        assert 0.0 < seq.term(1) < 1.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TimeSequence("fibonacci")

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TimeSequence("power", alpha=0.0)
        with pytest.raises(ValueError):
            TimeSequence("geometric", ratio=1.0)

    @pytest.mark.parametrize("seq", [
        TimeSequence("power", alpha=1.0),
        TimeSequence("power", alpha=0.5),
        TimeSequence("geometric", ratio=0.5),
        TimeSequence("log"),
    ], ids=["power1", "power.5", "geom", "log"])
    def test_strictly_decreasing_positive(self, seq):
        t = seq.prefix(500)
        assert np.all(t > 0)
        assert np.all(np.diff(t) < 0)
        assert t[0] < 1.0


class TestCounting:
    @pytest.mark.parametrize("seq", [
        TimeSequence("power", alpha=1.0),
        TimeSequence("power", alpha=2.0),
        TimeSequence("geometric", ratio=0.5),
        TimeSequence("geometric", ratio=0.3),
        TimeSequence("log"),
    ], ids=["power1", "power2s", "geom5", "geom3s", "log"])
    @given(b=st.floats(1e-2, 0.95))
    def test_count_above_matches_brute_force(self, seq, b):
        # only meaningful when the 3000-term prefix reaches below b
        assume(seq.term(3000) <= b)
        brute = int(np.count_nonzero(seq.prefix(3000) > b))
        assert seq.count_above(b) == brute

    def test_count_above_exact_boundary(self):
        # t_m = (m+1)^{-1}: b = 1/4 is hit exactly at m = 3 (not counted)
        seq = TimeSequence("power", alpha=1.0)
        assert seq.count_above(0.25) == 2
        assert seq.count_above(0.2500001) == 2
        assert seq.count_above(0.2499999) == 3

    def test_count_above_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimeSequence("log").count_above(0.0)

    @given(low=st.floats(1e-2, 0.4), width=st.floats(1e-2, 0.5))
    def test_members_in_consistency(self, low, width):
        seq = TimeSequence("power", alpha=1.5)
        high = low + width
        members = seq.members_in(low, high)
        assert members.size == seq.count_above(low) - seq.count_above(high)
        if members.size:
            assert np.all((members > low) & (members <= high))
            assert np.all(np.diff(members) < 0)

    def test_members_in_rejects_zero_low(self):
        with pytest.raises(ValueError):
            TimeSequence("power").members_in(0.0, 0.5)


class TestWeakClasses:
    def test_power_weak_constant_near_one(self):
        for r in (0.5, 1.0, 2.0):
            seq = TimeSequence("power", alpha=1.0 / r)
            c = sequences.weak_lr_constant(seq, r)
            assert 0.9 <= c <= 1.5

    def test_geometric_weak_stable(self):
        seq = TimeSequence("geometric", ratio=0.5)
        coarse, fine, growing = sequences.weak_lr_trend(seq, 1.0)
        assert not growing

    def test_log_weak_grows(self):
        seq = TimeSequence("log")
        grid = sequences.default_b_grid(9)
        for r in (0.5, 1.0, 2.0, 4.0):
            _, _, growing = sequences.weak_lr_trend(seq, r, grid)
            assert growing

    def test_geometric_lr_converges_all_r(self):
        seq = TimeSequence("geometric", ratio=0.5)
        for r in (0.25, 0.5, 1.0, 2.0):
            assert sequences.lr_converges(seq, r)

    def test_power_lr_dichotomy(self):
        # sum (m+1)^{-alpha r} converges iff alpha r > 1
        seq = TimeSequence("power", alpha=1.0)
        assert sequences.lr_converges(seq, 2.0)
        assert not sequences.lr_converges(seq, 1.0)

    @pytest.mark.parametrize("alpha", [50.0, 80.0, 100.0])
    def test_power_lr_diverges_past_underflow(self, alpha):
        # at r = 1 / alpha the sum is the harmonic one.  t_m is 0.0 from m
        # near 10^(324 / alpha) on, but t_m^r = (m + 1)^-1 is not, so the
        # doubling window keeps its mass
        seq = TimeSequence("power", alpha=alpha)
        r = 1.0 / alpha
        assert seq.term_power(2 * 10 ** 5, r) == pytest.approx(1.0 / (2 * 10 ** 5 + 1))
        s1, s2 = sequences.lr_doubling_sums(seq, r)
        assert s2 - s1 == pytest.approx(math.log(2.0), rel=1e-4)
        assert not sequences.lr_converges(seq, r)

    @pytest.mark.parametrize("seq", [
        TimeSequence("power", alpha=0.5), TimeSequence("power", alpha=80.0),
        TimeSequence("geometric", ratio=0.5), TimeSequence("log"),
    ], ids=["power.5", "power80", "geom.5", "log"])
    def test_term_is_the_closed_form(self, seq):
        # t_m = term_power(m, 1) has the bytes of the plain closed forms, for
        # arrays and for scalars
        m = np.arange(1, 3000, dtype=float)
        want = {"power": lambda m: (m + 1.0) ** (-seq.alpha),
                "geometric": lambda m: seq.ratio ** m,
                "log": lambda m: 1.0 / np.log(m + 2.0)}[seq.kind]
        assert np.array_equal(seq.term(m), want(m))
        assert [seq.term(k) for k in (1, 7, 2999)] == [float(want(np.float64(k)))
                                                      for k in (1, 7, 2999)]

    def test_partial_sum_oracle(self):
        seq = TimeSequence("geometric", ratio=0.5)
        # sum_{m=1..M} 2^{-m} = 1 - 2^{-M}
        s1, s2 = sequences.lr_doubling_sums(seq, 1.0, 20)
        assert s1 == pytest.approx(1.0 - 2.0 ** -20)
        assert s2 == pytest.approx(1.0 - 2.0 ** -40)

    @pytest.mark.parametrize("seq", [
        TimeSequence("geometric", ratio=0.5),     # 0.0 from m = 1,075 on
        TimeSequence("geometric", ratio=0.999),   # no zero term
        TimeSequence("power", alpha=80.0),        # 0.0 from m near 11,000 on
        TimeSequence("log"),
    ], ids=["geom.5", "geom.999", "power80", "log"])
    @pytest.mark.parametrize("r", [0.0, 0.25, 1.0, 2.0])
    def test_doubling_sums_match_full_evaluation(self, seq, r):
        # the sums that stop at the first block ending in 0.0 against both
        # partial sums over every term up to M and 2M
        M = 100_000
        full = [float(np.sum(seq.prefix(n) ** r)) for n in (M, 2 * M)]
        sums = sequences.lr_doubling_sums(seq, r, M)
        assert sums == pytest.approx(full, rel=4 * np.finfo(float).eps, abs=0.0)
        converges = full[0] == 0 or (full[1] - full[0]) / full[1] < 0.01
        assert sequences.lr_converges(seq, r) == converges
        if r == 0:
            assert sums == (M, 2 * M) and not converges
