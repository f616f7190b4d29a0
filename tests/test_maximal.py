"""Maximal scans over windows, sequences and translation-time sets."""

import math
import tracemalloc

import numpy as np
import pytest

from schromax import harness, maximal, sequences, spectral
from schromax.maximal import ProductSet, TimeWindow


GRID = spectral.GridSpec(256, 8.0)
LAM = 8.0


def band_input(seed=0, shape="ball", lam=LAM):
    return spectral.make_bandlimited_random(lam, shape, seed, GRID)


class TestTimeWindow:
    def test_rejects_window_outside_unit_interval(self):
        with pytest.raises(ValueError):
            TimeWindow(0.5, 0.6)
        with pytest.raises(ValueError):
            TimeWindow(-0.1, 0.2)

    def test_zero_length_single_time(self):
        assert np.array_equal(TimeWindow(0.3, 0.0).times(8.0, 2.0), [0.3])
        assert TimeWindow(0.3, 0.0).time_count(8.0, 2.0) == 1

    def test_seed_step_resolves_top_frequency(self):
        times = TimeWindow(0.0, 1.0).times(LAM, 2.0)
        assert times[2] - times[0] <= 0.5 * LAM ** -2.0
        assert times[1] - times[0] <= 0.25 * LAM ** -2.0
        assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("t0, length", [(0.0, 1.0), (0.1, 0.5), (0.2, 0.01)])
    def test_seed_grid_and_its_midpoints(self, t0, length):
        # the seed grid has step min(|J|, lam^-a) / 2; every seed time and every
        # midpoint is on the grid
        step = min(0.5 * length, 0.5 * LAM ** -2.0)
        n = max(2, math.ceil(length / step) + 1)
        window = TimeWindow(t0, length)
        times = window.times(LAM, 2.0)
        assert window.time_count(LAM, 2.0) == times.size == 2 * n - 1
        seeds = t0 + np.linspace(0.0, length, n)
        assert np.max(np.abs(times[0::2] - seeds)) < 1e-15
        assert np.max(np.abs(times[1::2] - 0.5 * (seeds[:-1] + seeds[1:]))) < 1e-15

    @pytest.mark.parametrize("lam, a", [
        (2.0, 1072.0),   # step 2^-1073 is nonzero, but |J| / step overflows
        (2.0, 2000.0),   # lam^-a underflows to a zero step
        (2.0, 100.0),    # 2^102 + 1 times exceed the largest array index
    ])
    def test_rejects_unrepresentable_grid(self, lam, a):
        with pytest.raises(ValueError, match="lam\\^-a"):
            TimeWindow(0.0, 1.0).time_count(lam, a)
        with pytest.raises(ValueError, match="lam\\^-a"):
            TimeWindow(0.0, 1.0).times(lam, a)


class TestProductSet:
    def test_zero_radius_single_offset(self):
        E = ProductSet(0.0, TimeWindow(0.0, 0.5))
        assert np.array_equal(E.seed_offsets(8.0), [0.0])

    def test_offset_step(self):
        E = ProductSet(0.5, TimeWindow(0.0, 0.5))
        offs = E.seed_offsets(8.0)
        assert offs[0] == -0.5 and offs[-1] == 0.5
        assert offs[1] - offs[0] <= 0.5 / 8.0

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            ProductSet(-0.1, TimeWindow(0.0, 0.5))


class TestMaximalOverWindow:
    def test_dominates_each_time_slice(self):
        F = band_input()
        sup, _ = maximal.maximal_over_window(F, TimeWindow(0.0, 0.5), 2.0)
        for t in (0.0, 0.123, 0.5):
            field = spectral.inverse_transform(spectral.propagate(F, t, 2.0))
            # the grid may miss exact t, but the sup cannot sit far below
            assert np.all(sup.samples.real + 1e-6 >= np.abs(field.samples) * 0.999)

    def test_monotone_in_window(self):
        F = band_input()
        small, _ = maximal.maximal_over_window(F, TimeWindow(0.0, 0.25), 2.0)
        large, _ = maximal.maximal_over_window(F, TimeWindow(0.0, 0.5), 2.0)
        assert large.l2() >= small.l2() * (1.0 - 1e-9)

    def test_zero_window_is_single_slice(self):
        F = band_input()
        sup, _ = maximal.maximal_over_window(F, TimeWindow(0.2, 0.0), 2.0)
        field = spectral.inverse_transform(spectral.propagate(F, 0.2, 2.0))
        assert np.max(np.abs(sup.samples - np.abs(field.samples))) < 1e-12

    def test_requires_band_limit(self):
        F = spectral.SpectralFunction1D(GRID, np.ones(GRID.point_count))
        with pytest.raises(ValueError):
            maximal.maximal_over_window(F, TimeWindow(0.0, 0.5), 2.0)

    def test_ratio_at_least_one(self):
        F = band_input()
        sup, _ = maximal.maximal_over_window(F, TimeWindow(0.0, 1.0), 2.0)
        assert sup.l2() / F.l2_spatial() >= 1.0 - 1e-9


class TestTimeSamples:
    def test_window_evaluates_its_grid_once(self):
        window = TimeWindow(0.0, 0.5)
        # seed step min(0.25, 1/128) gives n = 65 seed times
        _, samples = maximal.maximal_over_window(band_input(), window, 2.0)
        assert samples == window.time_count(LAM, 2.0) == 2 * 65 - 1

    def test_single_time(self):
        _, samples = maximal.maximal_over_window(band_input(), TimeWindow(0.2, 0.0), 2.0)
        assert samples == 1

    def test_translation_counts_both_passes(self):
        # r = 0.3 at lam = 8 needs the edge pass B besides the fine pass A
        E = ProductSet(0.3, TimeWindow(0.0, 0.01))
        _, samples = maximal.maximal_over_E(band_input(), E, 2.0)
        assert samples == 2 * E.window.time_count(LAM, 2.0)


class TestWindowMemory:
    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_bounded_temporaries_at_top_lambda(self, seed):
        # lam = 2^8 evaluates 262,145 times (2 MiB) in one pass
        grid = spectral.grid_for_bandlimit(256.0)
        F = spectral.make_bandlimited_random(256.0, "ball", seed, grid)
        tracemalloc.start()
        try:
            maximal.maximal_over_window(F, TimeWindow(0.0, 1.0), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20


class TestScreenedSupBytes:
    """maximal_over_window and maximal_over_E against the same calls with
    spectral.sup_over_times replaced by one complex128 pass over every time
    (conftest.single_pass): equal bit for bit."""

    # a workload item (lam = 2^8, |J| = 1, a = 2) has 2^18 + 1 times on 256
    # points; cases with more samples than that are left out
    MAX_SAMPLES = (2 ** 18 + 1) * 256

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
    def test_equal_to_single_pass(self, a, single_pass):
        compared = 0
        for e in range(9):
            lam = 2.0 ** e
            grid = spectral.grid_for_bandlimit(lam)
            for shape in ("ball", "annulus"):
                if shape == "annulus" and lam < 4.0:
                    continue   # no frequency node in [lam / 2, lam]
                F = spectral.make_bandlimited_random(lam, shape, e, grid)
                for t0, length in ((0.0, 1.0), (0.3, 0.25), (0.1, 1e-5)):
                    window = TimeWindow(t0, length)
                    samples = window.time_count(lam, a) * grid.point_count
                    if samples <= self.MAX_SAMPLES:
                        got = maximal.maximal_over_window(F, window, a)[0].samples
                        ref = single_pass(maximal.maximal_over_window, F, window, a)
                        assert np.array_equal(got, ref[0].samples)
                        compared += 1
                    E = ProductSet(0.1, window)
                    m = explicit_lattice(E, lam, grid.dx)[0]
                    if 2 * m * samples <= self.MAX_SAMPLES:
                        got = maximal.maximal_over_E(F, E, a)[0].samples
                        ref = single_pass(maximal.maximal_over_E, F, E, a)
                        assert np.array_equal(got, ref[0].samples)
                        compared += 1
        assert compared >= 60

    @pytest.mark.parametrize("name, params", [
        ("theorem1-scan", {"lam_exponents": [4, 6], "seeds": [0, 1]}),
        ("eq6-scan", {"lam_exponents": [4, 5], "seeds": [0, 1]}),
        ("thm6-ineq", {"profiles": 2}),
    ])
    def test_experiment_csvs_equal_single_pass(self, name, params, tmp_path, single_pass):
        cfg = harness.ExperimentConfig(name, params)
        got = harness.run_experiment(cfg, str(tmp_path / "two-pass"))
        ref = single_pass(harness.run_experiment, cfg, str(tmp_path / "one-pass"))
        csvs = [f for f in got.files if f.endswith(".csv")]
        assert csvs and got.verdict == ref.verdict
        for f in csvs:
            assert (tmp_path / "two-pass" / f).read_bytes() \
                == (tmp_path / "one-pass" / f).read_bytes()

    # each fault scales K of _time_curvature: with K = 0 the screen drops
    # intervals by their ends alone, and with K / 2 it drops those whose peak
    # the true bound only just keeps; at least this many of the 12 cases of
    # each test below see the half-curvature fault
    HALF_CURVATURE_CAUGHT = 4

    @staticmethod
    def scaled_curvature(factor):
        bounds = spectral._time_curvature

        def scaled(*args):
            curvature, phase = bounds(*args)
            return factor * curvature, phase
        return scaled

    def test_a_zero_curvature_is_caught(self, monkeypatch, single_pass):
        # the comparison with the single pass sees the lost maxima
        window = TimeWindow(0.0, 1.0)
        differs = {0.0: 0, 0.5: 0}
        for lam in (16.0, 32.0):
            grid = spectral.grid_for_bandlimit(lam)
            for shape in ("annulus", "ball"):
                for seed in range(3):
                    F = spectral.make_bandlimited_random(lam, shape, seed, grid)
                    ref = single_pass(maximal.maximal_over_window, F, window, 2.0)[0]
                    for factor in differs:
                        with monkeypatch.context() as patched:
                            patched.setattr(spectral, "_time_curvature",
                                            self.scaled_curvature(factor))
                            got = maximal.maximal_over_window(F, window, 2.0)[0]
                        differs[factor] += not np.array_equal(got.samples, ref.samples)
        assert differs[0.0] > 0
        assert differs[0.5] >= self.HALF_CURVATURE_CAUGHT

    def test_a_zero_curvature_is_caught_off_the_grid(self, monkeypatch, single_pass):
        # the same faults on the path for times that are not uniform: window
        # grids moved by up to 1e-3 of a step, which _uniform_step rejects
        differs = {0.0: 0, 0.5: 0}
        for lam in (16.0, 32.0):
            grid = spectral.grid_for_bandlimit(lam)
            times = TimeWindow(0.0, 1.0).times(lam, 2.0)
            jitter = np.random.default_rng(0).random(times.size)
            times = times + 1e-3 * (times[1] - times[0]) * jitter
            assert spectral._uniform_step(times) is None
            for shape in ("annulus", "ball"):
                for seed in range(3):
                    F = spectral.make_bandlimited_random(lam, shape, seed, grid)
                    ref = single_pass(spectral.sup_over_times, F, times, 2.0)
                    assert np.array_equal(spectral.sup_over_times(F, times, 2.0), ref)
                    for factor in differs:
                        with monkeypatch.context() as patched:
                            patched.setattr(spectral, "_time_curvature",
                                            self.scaled_curvature(factor))
                            got = spectral.sup_over_times(F, times, 2.0)
                        differs[factor] += not np.array_equal(got, ref)
        assert differs[0.0] > 0
        assert differs[0.5] >= self.HALF_CURVATURE_CAUGHT

    @pytest.mark.parametrize("lam", [32.0, 64.0])
    def test_two_cluster_spectrum_equal_to_single_pass(self, lam, single_pass):
        # random coefficients for |xi| <= lam / 10 and 5% of them for
        # 0.9 lam <= |xi| <= lam: two clusters of |xi|^2 far apart, whose
        # weighted spread makes the curvature bound loose, so the bisection
        # screens more times than on ball or annulus data; the sups must
        # still be those of the single pass, on a window grid and on a
        # sequence
        grid = spectral.grid_for_bandlimit(lam)
        xi = np.abs(grid.xi_nodes())
        seq = sequences.TimeSequence("power", alpha=1.0)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            coeffs = np.zeros(grid.point_count, dtype=np.complex128)
            for mask, scale in ((xi <= 0.1 * lam, 1.0), ((xi >= 0.9 * lam) & (xi <= lam), 0.05)):
                m = int(mask.sum())
                coeffs[mask] = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            F = spectral.SpectralFunction1D(grid, coeffs, band_limit=lam)
            window = TimeWindow(0.0, 1.0)
            assert np.array_equal(
                maximal.maximal_over_window(F, window, 2.0)[0].samples,
                single_pass(maximal.maximal_over_window, F, window, 2.0)[0].samples)
            assert np.array_equal(
                maximal.maximal_over_sequence(F, seq, 2.0)[0].samples,
                single_pass(maximal.maximal_over_sequence, F, seq, 2.0)[0].samples)


class TestScreenedRecompute:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recomputes_at_most_two_percent_at_top_lambda(self, seed, moduli_rows,
                                                          single_pass):
        # lam = 2^8, |J| = 1: of 262,145 times, at most 23% screened in
        # complex64 and at most 2% rebuilt in complex128, with the bytes of
        # one complex128 pass over every time
        grid = spectral.grid_for_bandlimit(256.0)
        F = spectral.make_bandlimited_random(256.0, "ball", seed, grid)
        window = TimeWindow(0.0, 1.0)
        sup, times = maximal.maximal_over_window(F, window, 2.0)
        assert times == 2 ** 18 + 1
        assert moduli_rows["complex64"] <= 0.23 * times
        assert 0 < moduli_rows["complex128"] <= 0.02 * times
        assert np.array_equal(sup.samples,
                              single_pass(maximal.maximal_over_window, F, window, 2.0)[0].samples)


class TestSequenceSupBytes:
    """maximal_over_sequence against the same call with spectral.sup_over_times
    replaced by one complex128 pass over every time (conftest.single_pass):
    equal bit for bit, with the members screened in complex128 alone and
    none transformed twice."""

    # a workload item (lam = 2^8, a = 2, alpha = 1) has 2^18 - 2 members;
    # cases with more are left out
    MAX_MEMBERS = 2 ** 18 - 2

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
    def test_equal_to_single_pass(self, a, single_pass, moduli_rows):
        seq = sequences.TimeSequence("power", alpha=1.0)
        compared = 0
        for e in range(4, 9):
            lam = 2.0 ** e
            if seq.count_above(0.25 * lam ** -a) > self.MAX_MEMBERS:
                continue
            grid = spectral.grid_for_bandlimit(lam)
            for shape in ("annulus", "ball"):
                for seed in range(3):
                    F = spectral.make_bandlimited_random(lam, shape, seed, grid)
                    moduli_rows.update(complex64=0, complex128=0)
                    got, members = maximal.maximal_over_sequence(F, seq, a)
                    assert moduli_rows["complex64"] == 0
                    assert 0 < moduli_rows["complex128"] <= members
                    ref, _ = single_pass(maximal.maximal_over_sequence, F, seq, a)
                    assert np.array_equal(got.samples, ref.samples)
                    compared += 1
        assert compared >= 12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bisection_screens_few_members_at_top_lambda(self, seed, moduli_rows):
        # the lemma4 workload item at lam = 2^8 (a = 2, annulus data): of its
        # 262,143 members, most lie within 1e-10 of their neighbours, and the
        # curvature bound rules them out in runs, so at most 2% are screened
        grid = spectral.grid_for_bandlimit(256.0)
        F = spectral.make_bandlimited_random(256.0, "annulus", seed, grid)
        seq = sequences.TimeSequence("power", alpha=1.0)
        _, members = maximal.maximal_over_sequence(F, seq, 2.0)
        assert members == 2 ** 18 - 1
        assert moduli_rows["complex64"] == 0
        assert 0 < moduli_rows["complex128"] <= 0.02 * members

    def test_a_zero_curvature_is_caught(self, monkeypatch, single_pass):
        # the lemma4 workload item at lam = 2^8 (a = 2, ball data): with K = 0
        # the screen drops intervals of members by their ends alone, and the
        # comparison with the single pass sees the lost maxima
        grid = spectral.grid_for_bandlimit(256.0)
        seq = sequences.TimeSequence("power", alpha=1.0)
        bounds = spectral._time_curvature
        differs = 0
        for seed in range(3):
            F = spectral.make_bandlimited_random(256.0, "ball", seed, grid)
            ref = single_pass(maximal.maximal_over_sequence, F, seq, 2.0)[0].samples
            assert np.array_equal(maximal.maximal_over_sequence(F, seq, 2.0)[0].samples, ref)
            with monkeypatch.context() as patched:
                patched.setattr(spectral, "_time_curvature",
                                lambda *args: (0.0, bounds(*args)[1]))
                got = maximal.maximal_over_sequence(F, seq, 2.0)[0].samples
            differs += not np.array_equal(got, ref)
        assert differs > 0


class TestSequenceMemory:
    def test_bounded_temporaries_at_top_lambda(self):
        # lam = 2^8, a = 2: 262,143 members (2 MiB), screened through their
        # reversed view; the peak is members_in's three member-sized arrays
        grid = spectral.grid_for_bandlimit(256.0)
        F = spectral.make_bandlimited_random(256.0, "annulus", 0, grid)
        seq = sequences.TimeSequence("power", alpha=1.0)
        tracemalloc.start()
        try:
            maximal.maximal_over_sequence(F, seq, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2 ** 20


def _finer_times(window, lam, a):
    """An 8x finer grid over the span of window.times(lam, a)."""
    return np.linspace(window.t0, window.t0 + window.length,
                       8 * window.time_count(lam, a) - 7)


class TestBernsteinBracket:
    """The sup G on the time grid against the sup on an 8x finer grid: pointwise
    fine <= G / cos(theta), theta = B h / 2 with h the grid step and B half the
    span of |xi|^a over the support."""

    @staticmethod
    def ratios_and_thetas(run, window, monkeypatch):
        """(largest pointwise fine / G, theta) per ball item at lam = 2^4..2^6
        and seeds 0-3."""
        out = []
        for lam in (16.0, 32.0, 64.0):
            grid = spectral.grid_for_bandlimit(lam)
            times = window.times(lam, 2.0)
            for seed in range(4):
                F = spectral.make_bandlimited_random(lam, "ball", seed, grid)
                G = run(F).samples.real
                with monkeypatch.context() as patched:
                    patched.setattr(TimeWindow, "times", _finer_times)
                    fine = run(F).samples.real
                xi_pow = np.abs(grid.xi_nodes()[F.coefficients != 0]) ** 2.0
                B = 0.5 * (xi_pow.max() - xi_pow.min())
                out.append((float(np.max(fine / G)), 0.5 * B * (times[1] - times[0])))
        return out

    @pytest.mark.parametrize("kind", ["window", "E"])
    def test_finer_grid_within_bracket(self, kind, monkeypatch):
        if kind == "window":
            window = TimeWindow(0.0, 1.0)
            run = lambda F: maximal.maximal_over_window(F, window, 2.0)[0]
        else:
            window = TimeWindow(0.0, 0.25)
            run = lambda F: maximal.maximal_over_E(F, ProductSet(0.1, window), 2.0)[0]
        measured = self.ratios_and_thetas(run, window, monkeypatch)
        assert all(theta <= 1.0 / 16.0 for _, theta in measured)
        assert all(ratio <= 1.0 / math.cos(theta) for ratio, theta in measured)
        # with B halved the bracket is too narrow, so the check above can fail
        assert any(ratio > 1.0 / math.cos(0.5 * theta) for ratio, theta in measured)


class TestMaximalOverSequence:
    def test_matches_explicit_sup(self):
        F = band_input(shape="annulus")
        seq = sequences.TimeSequence("geometric", ratio=0.5)
        sup, count = maximal.maximal_over_sequence(F, seq, 2.0)
        # the floor LAM^-2 / 4 is 2^-8: the members 2^-1 .. 2^-7 lie above
        # it, and 2^-8, the largest one at or below it, represents the rest
        assert maximal.phase_floor(LAM, 2.0) == 2.0 ** -8
        members = 0.5 ** np.arange(1.0, 9.0)
        assert count == members.size
        direct = spectral.sup_over_times(F, members, 2.0)
        assert np.max(np.abs(sup.samples - direct)) < 1e-12

    def test_floor_cluster_has_representative(self):
        F = band_input(shape="annulus")
        seq = sequences.TimeSequence("geometric", ratio=0.5)
        _, count = maximal.maximal_over_sequence(F, seq, 2.0)
        floor = 0.25 * LAM ** -2.0
        resolved = seq.members_in(floor, 1.0).size
        assert count == resolved + 1


class TestMaximalOverE:
    def test_zero_radius_matches_window(self):
        # at r = 0 the sup over B x J is one pass on J's time grid: the
        # window sup, and the plain sup over those times, bit for bit
        window = TimeWindow(0.0, 0.25)
        for shape in ("ball", "annulus"):
            F = band_input(shape=shape)
            for a in (1.5, 2.0, 3.0):
                on_e, e_count = maximal.maximal_over_E(F, ProductSet(0.0, window), a)
                on_j, j_count = maximal.maximal_over_window(F, window, a)
                times = window.times(LAM, a)
                assert np.array_equal(on_e.samples, on_j.samples)
                assert np.array_equal(on_e.samples, spectral.sup_over_times(F, times, a))
                assert e_count == j_count == times.size

    def test_translation_dominates_origin(self):
        F = band_input()
        window = TimeWindow(0.0, 0.25)
        small, _ = maximal.maximal_over_E(F, ProductSet(0.0, window), 2.0)
        big, _ = maximal.maximal_over_E(F, ProductSet(0.2, window), 2.0)
        assert big.l2() >= small.l2() * (1.0 - 1e-9)

    def test_exact_modulation_shift(self):
        # zero-length window, one offset: |S_0 f(x + y)| via modulation
        F = band_input()
        y = 0.3
        E = ProductSet(0.0, TimeWindow(0.0, 0.0), ball_center=y)
        sup, _ = maximal.maximal_over_E(F, E, 2.0)
        xi = GRID.xi_nodes()
        shifted = spectral.SpectralFunction1D(
            GRID, F.coefficients * np.exp(1j * xi * y), band_limit=F.band_limit)
        field = spectral.inverse_transform(shifted)
        assert np.max(np.abs(sup.samples - np.abs(field.samples))) < 1e-12

    def test_guard_zone(self):
        F = band_input()
        with pytest.raises(ValueError):
            maximal.maximal_over_E(
                F, ProductSet(3.0, TimeWindow(0.0, 0.25)), 2.0)


def translated(F, xi, y):
    """F translated by y: coefficients times e^{i xi y}."""
    return spectral.SpectralFunction1D(F.grid, F.coefficients * np.exp(1j * xi * y))


def explicit_lattice(E, lam, dx):
    """(m, pass B runs, offsets) of the lattice maximal_over_E documents:
    {c - r + k delta : 0 <= k <= K} U {c + r}, delta = dx / m <= h."""
    offs = E.seed_offsets(lam)
    low, high = offs[0], offs[-1]
    m = 1
    while offs.size > 1 and dx / m > offs[1] - offs[0]:
        m *= 2
    delta = dx / m
    K = math.floor((high - low) / delta)
    return m, K * delta < high - low, np.append(low + delta * np.arange(K + 1), high)


class TestMaximalOverELattice:
    """The sliding-maximum evaluation against the sup over the explicit lattice,
    one modulated evolution per offset."""

    @pytest.mark.parametrize("lam, radius, center, m, edge_pass", [
        (4.0, 0.3, 0.0, 1, True),
        (8.0, 0.3, 0.0, 2, True),
        (8.0, 0.3, 0.7, 2, True),
        (8.0, 0.5, 0.0, 1, False),   # 2r / delta = 16
    ])
    def test_matches_explicit_lattice_at_one_time(self, lam, radius, center, m,
                                                  edge_pass):
        F = band_input(seed=1, lam=lam)
        E = ProductSet(radius, TimeWindow(0.2, 0.0), ball_center=center)
        got_m, got_edge, offsets = explicit_lattice(E, lam, GRID.dx)
        assert (got_m, got_edge) == (m, edge_pass)
        xi = GRID.xi_nodes()
        direct = np.max([spectral.sup_over_times(translated(F, xi, y), [0.2], 2.0)
                         for y in offsets], axis=0)
        sup, _ = maximal.maximal_over_E(F, E, 2.0)
        assert np.max(np.abs(sup.samples - direct)) < 1e-12

    def test_dominates_end_points_over_seed_times(self):
        F = band_input(seed=2)
        E = ProductSet(0.3, TimeWindow(0.1, 0.25), ball_center=0.4)
        sup = maximal.maximal_over_E(F, E, 2.0)[0].samples.real
        xi = GRID.xi_nodes()
        times = E.window.times(LAM, 2.0)
        for y in (0.1, 0.7):
            edge = spectral.sup_over_times(translated(F, xi, y), times, 2.0)
            assert np.all(sup >= edge * (1.0 - 1e-12))


def dilated_inputs(lam, seed):
    """lam-band random ball data on [-1, 1), and band-1 data with the same
    seed on [-lam, lam)."""
    return (spectral.make_bandlimited_random(lam, "ball", seed, spectral.GridSpec(256, 1.0)),
            spectral.make_bandlimited_random(1.0, "ball", seed, spectral.GridSpec(256, lam)))


def dilated_ratios(lam, a, seed, radius):
    """The maximal_over_E L2-ratios of the dilated_inputs: the first over
    B x J, J = [0, |J|] and B of radius r, the second over J = [0, lam^a |J|]
    and radius lam r, with |J| = min(0.25, 0.9 lam^-a)."""
    length = min(0.25, 0.9 * lam ** -a)
    F, G = dilated_inputs(lam, seed)
    f, _ = maximal.maximal_over_E(F, ProductSet(radius, TimeWindow(0.0, length)), a)
    g, _ = maximal.maximal_over_E(
        G, ProductSet(lam * radius, TimeWindow(0.0, lam ** a * length)), a)
    return f.l2() / F.l2_spatial(), g.l2() / G.l2_spatial()


DILATION_CASES = [(a, lam, seed, radius) for a in (1.5, 2.0, 3.0) for lam in (2.0, 4.0)
                  for seed in range(3) for radius in (0.0, 0.05)]


class TestDilationIdentity:
    """Both grids hold the frequencies k pi / L for the same k, so the two
    inputs share their coefficients up to a constant: g(y) = c f(y / lam)
    and S_t g(y) = c S_{t / lam^a} f(y / lam).  Their time grids and offset
    lattices are dilates of each other, so the L2-ratios of the maximal
    functions agree; the window sup is the case r = 0.  At lam = 2 the
    ball |xi| <= 2 holds only xi = 0, so only lam = 4 can show a wrong
    exponent."""

    @pytest.mark.parametrize("a, lam, seed, radius", DILATION_CASES)
    def test_ratios_agree(self, a, lam, seed, radius):
        f_ratio, g_ratio = dilated_ratios(lam, a, seed, radius)
        assert g_ratio == pytest.approx(f_ratio, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_sequence_sup_agrees(self, a, seed):
        # lemma4's members t > lam^-a / 4 (power alpha = 1) with lam^a t <= 1,
        # times of no uniform grid; g's samples are f's over sqrt(lam)
        lam = 4.0
        F, G = dilated_inputs(lam, seed)
        times = sequences.TimeSequence("power", alpha=1.0).members_in(
            maximal.phase_floor(lam, a), lam ** -a)
        f_sup = spectral.sup_over_times(F, times, a)
        g_sup = spectral.sup_over_times(G, lam ** a * times, a)
        assert np.max(np.abs(f_sup - math.sqrt(lam) * g_sup)) <= 1e-12 * np.max(f_sup)

    def test_wrong_exponent_is_caught(self, monkeypatch):
        # phases t |xi| on time grids built for a: the identity fails
        exact = spectral.sup_over_times
        monkeypatch.setattr(maximal, "sup_over_times", lambda F, t, a: exact(F, t, 1.0))
        for a, lam, seed, radius in DILATION_CASES:
            if lam == 4.0:
                f_ratio, g_ratio = dilated_ratios(lam, a, seed, radius)
                assert abs(g_ratio - f_ratio) > 0.01 * f_ratio


class TestFits:
    def test_thm3_predictor_shape(self):
        # lam = 1 collapses to |J|^{1/4} + r^{1/2} + 1
        assert maximal.thm3_predictor(1.0, 0.0625, 0.25, 2.0) == pytest.approx(
            0.0625 ** 0.25 + 0.5 + 1.0)
        assert maximal.thm3_predictor(4.0, 1.0, 0.0, 2.0) == pytest.approx(5.0)


class TestConvergenceProbe:
    def test_smooth_input_measure_decays(self):
        xi = GRID.xi_nodes()
        F = spectral.SpectralFunction1D(GRID, np.exp(-0.5 * xi * xi))
        seq = sequences.TimeSequence("geometric", ratio=0.5)
        m1 = maximal.convergence_probe(F, seq, 2.0, 1e-3, 1)
        m20 = maximal.convergence_probe(F, seq, 2.0, 1e-3, 20)
        assert m20 <= m1

    def test_huge_delta_gives_zero_measure(self):
        xi = GRID.xi_nodes()
        F = spectral.SpectralFunction1D(GRID, np.exp(-0.5 * xi * xi))
        seq = sequences.TimeSequence("geometric", ratio=0.5)
        assert maximal.convergence_probe(F, seq, 2.0, 1e6, 1) == 0.0
