"""Maximal scans over windows, sequences and translation-time sets."""

import math

import numpy as np
import pytest

from schromax import maximal, sequences, spectral
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
        assert np.array_equal(TimeWindow(0.3, 0.0).seed_times(8.0, 2.0), [0.3])

    def test_seed_step_resolves_top_frequency(self):
        times = TimeWindow(0.0, 1.0).seed_times(LAM, 2.0)
        step = times[1] - times[0]
        assert step <= 0.5 * LAM ** -2.0
        assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)


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
        sup = maximal.maximal_over_window(F, TimeWindow(0.0, 0.5), 2.0)
        for t in (0.0, 0.123, 0.5):
            field = spectral.inverse_transform(spectral.propagate(F, t, 2.0))
            # refinement may miss exact t, but the sup cannot sit far below
            assert np.all(sup.samples.real + 1e-6 >= np.abs(field.samples) * 0.999)

    def test_monotone_in_window(self):
        F = band_input()
        small = maximal.maximal_over_window(F, TimeWindow(0.0, 0.25), 2.0)
        large = maximal.maximal_over_window(F, TimeWindow(0.0, 0.5), 2.0)
        assert large.l2() >= small.l2() * (1.0 - 1e-9)

    def test_zero_window_is_single_slice(self):
        F = band_input()
        sup = maximal.maximal_over_window(F, TimeWindow(0.2, 0.0), 2.0)
        field = spectral.inverse_transform(spectral.propagate(F, 0.2, 2.0))
        assert np.max(np.abs(sup.samples - np.abs(field.samples))) < 1e-12

    def test_requires_band_limit(self):
        F = spectral.SpectralFunction1D(GRID, np.ones(GRID.point_count))
        with pytest.raises(ValueError):
            maximal.maximal_over_window(F, TimeWindow(0.0, 0.5), 2.0)

    def test_ratio_at_least_one(self):
        F = band_input()
        sup = maximal.maximal_over_window(F, TimeWindow(0.0, 1.0), 2.0)
        assert sup.l2() / F.l2_spatial() >= 1.0 - 1e-9


class TestMaximalOverSequence:
    def test_matches_explicit_sup(self):
        F = band_input(shape="annulus")
        seq = sequences.TimeSequence("geometric", ratio=0.5)
        sup, count = maximal.maximal_over_sequence(F, seq, 2.0,
                                                   cutoffs=(0.05, 1.0))
        members = seq.members_in(0.05, 1.0)
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

    def test_empty_selection(self):
        F = band_input(shape="annulus")
        seq = sequences.TimeSequence("power", alpha=1.0)   # t_1 = 1/2
        sup, count = maximal.maximal_over_sequence(F, seq, 2.0,
                                                   cutoffs=(0.95, 0.99))
        assert count == 0
        assert np.all(sup.samples == 0)


class TestMaximalOverE:
    def test_zero_radius_matches_window(self):
        F = band_input()
        window = TimeWindow(0.0, 0.25)
        a = maximal.maximal_over_E(F, ProductSet(0.0, window), 2.0)
        b = maximal.maximal_over_window(F, window, 2.0)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-12

    def test_translation_dominates_origin(self):
        F = band_input()
        window = TimeWindow(0.0, 0.25)
        small = maximal.maximal_over_E(F, ProductSet(0.0, window), 2.0)
        big = maximal.maximal_over_E(F, ProductSet(0.2, window), 2.0)
        assert big.l2() >= small.l2() * (1.0 - 1e-9)

    def test_exact_modulation_shift(self):
        # zero-length window, one offset: |S_0 f(x + y)| via modulation
        F = band_input()
        y = 0.3
        E = ProductSet(0.0, TimeWindow(0.0, 0.0), ball_center=y)
        sup = maximal.maximal_over_E(F, E, 2.0)
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
        direct = np.max([spectral.sup_over_times(F, [0.2], 2.0,
                                                 modulation=np.exp(1j * xi * y))
                         for y in offsets], axis=0)
        sup = maximal.maximal_over_E(F, E, 2.0)
        assert np.max(np.abs(sup.samples - direct)) < 1e-12

    def test_dominates_end_points_over_seed_times(self):
        F = band_input(seed=2)
        E = ProductSet(0.3, TimeWindow(0.1, 0.25), ball_center=0.4)
        sup = maximal.maximal_over_E(F, E, 2.0).samples.real
        xi = GRID.xi_nodes()
        times = E.window.seed_times(LAM, 2.0)
        for y in (0.1, 0.7):
            edge = spectral.sup_over_times(F, times, 2.0, modulation=np.exp(1j * xi * y))
            assert np.all(sup >= edge * (1.0 - 1e-12))


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
