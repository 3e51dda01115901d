"""Linear-response stick spectra, broadening, and peak clustering."""

import math
import re

import numpy as np
import pytest

from spincat import (
    Coupling,
    SpinSystem,
    Spectrum,
    ferro_state,
    linear_response_spectrum,
    peak_list,
    pseudopure,
    thermal_state,
)
from spincat import dynamics
from _support import kronecker_total_spin_operator, random_density_matrix, ring7_system


def test_single_spin_reference_line():
    system = SpinSystem(1, ("system",), (123.0,))
    spectrum = linear_response_spectrum(ferro_state(1, "up"), system, observe=[0])
    assert spectrum.frequencies_hz.tolist() == [pytest.approx(123.0)]
    assert spectrum.amplitudes.tolist() == [pytest.approx(1.0)]
    # Unit-area Lorentzian of FWHM 2 Hz peaks at 2/(pi*linewidth).
    peak_height = spectrum.trace.max()
    assert peak_height == pytest.approx(2.0 / (np.pi * 2.0), rel=1e-6)
    assert spectrum.grid_hz[np.argmax(spectrum.trace)] == pytest.approx(123.0)


def test_inverted_spin_gives_negative_line():
    system = SpinSystem(1, ("system",), (123.0,))
    spectrum = linear_response_spectrum(ferro_state(1, "down"), system, observe=[0])
    assert spectrum.frequencies_hz.tolist() == [pytest.approx(123.0)]
    assert spectrum.amplitudes.tolist() == [pytest.approx(-1.0)]


@pytest.mark.parametrize("seed", range(10))
def test_total_amplitude_rule(seed):
    # Sum of all stick amplitudes telescopes to Tr(2*Sz_obs*rho),
    # whatever the couplings and with or without decoupling.
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 3)
    system = SpinSystem(
        3,
        ("control", "system", "system"),
        tuple(rng.normal(0.0, 40.0, size=3)),
        (
            Coupling(0, 1, float(rng.normal(0, 30)), "heteronuclear_zz"),
            Coupling(1, 2, float(rng.normal(0, 30)), "homonuclear_dipolar"),
        ),
    )
    observe = [1, 2]
    sz_obs = kronecker_total_spin_operator("z", observe, 3)
    expected = complex(np.trace(rho.matrix @ (2.0 * sz_obs)))
    coupled = linear_response_spectrum(rho, system, observe)
    decoupled = linear_response_spectrum(rho, system, observe, decouple=[0])
    assert coupled.total_amplitude == pytest.approx(expected, abs=1e-9)
    assert decoupled.total_amplitude == pytest.approx(expected, abs=1e-9)


def test_decoupled_ring_collapses_to_one_line():
    system = ring7_system()
    rho = pseudopure(ferro_state(7, "up"), 0.8)
    spectrum = linear_response_spectrum(rho, system, observe=list(range(1, 7)), decouple=[0])
    peaks = peak_list(spectrum)
    assert len(peaks) == 1
    # every observed spin contributes: total amplitude f * 2 * (6/2)
    assert peaks[0].amplitude.real == pytest.approx(0.8 * 6.0, abs=1e-9)


def test_coupled_ring_splits_and_mirrors():
    system = ring7_system()
    up = linear_response_spectrum(
        pseudopure(ferro_state(7, "up"), 1.0), system, observe=list(range(1, 7))
    )
    down = linear_response_spectrum(
        pseudopure(ferro_state(7, "down"), 1.0), system, observe=list(range(1, 7))
    )
    up_peaks = peak_list(up)
    down_peaks = peak_list(down)
    assert len(up_peaks) > 1
    assert len(up_peaks) == len(down_peaks)
    # Global spin flip is a symmetry of the Hamiltonian: the inverted
    # state answers at negated frequencies with negated amplitudes.
    for u, d in zip(up_peaks, reversed(down_peaks)):
        assert d.frequency_hz == pytest.approx(-u.frequency_hz, abs=1e-9)
        assert d.amplitude.real == pytest.approx(-u.amplitude.real, abs=1e-9)


def test_equal_heteronuclear_couplings_collapse_the_coupled_line():
    system = ring7_system(one_bond_hz=20.0, remote_hz=20.0)
    rho = pseudopure(ferro_state(7, "up"), 1.0)
    spectrum = linear_response_spectrum(rho, system, observe=list(range(1, 7)))
    assert len(peak_list(spectrum)) == 1


def test_distinct_heteronuclear_couplings_split_fully():
    couplings = tuple(
        Coupling(0, p, d, "heteronuclear_zz")
        for p, d in zip(range(1, 7), (160.0, 40.0, 20.0, 10.0, 5.0, 2.5))
    )
    system = SpinSystem(7, ("control",) + ("system",) * 6, (0.0,) * 7, couplings)
    rho = pseudopure(ferro_state(7, "up"), 1.0)
    spectrum = linear_response_spectrum(rho, system, observe=list(range(1, 7)), linewidth_hz=0.5)
    assert len(peak_list(spectrum)) == 6


def test_stick_amplitudes_scale_linearly_with_purity():
    system = ring7_system()
    full = linear_response_spectrum(
        pseudopure(ferro_state(7, "up"), 1.0), system, observe=list(range(1, 7))
    )
    third = linear_response_spectrum(
        pseudopure(ferro_state(7, "up"), 0.3), system, observe=list(range(1, 7))
    )
    np.testing.assert_allclose(third.frequencies_hz, full.frequencies_hz, atol=1e-9)
    np.testing.assert_allclose(third.amplitudes, 0.3 * full.amplitudes, atol=1e-9)


def test_thermal_state_doublet():
    system = SpinSystem(
        2, ("control", "system"), (0.0, 0.0), (Coupling(0, 1, 50.0, "heteronuclear_zz"),)
    )
    spectrum = linear_response_spectrum(thermal_state(2), system, observe=[1])
    np.testing.assert_allclose(spectrum.frequencies_hz, [-50.0, 50.0], atol=1e-9)
    np.testing.assert_allclose(spectrum.amplitudes.real, [5e-4, 5e-4], atol=1e-12)


def test_trace_integral_matches_total_amplitude():
    system = SpinSystem(1, ("system",), (40.0,))
    spectrum = linear_response_spectrum(
        ferro_state(1, "up"), system, observe=[0], grid_hz=(-260.0, 340.0, 6001)
    )
    integral = np.trapezoid(spectrum.trace, spectrum.grid_hz)
    assert integral == pytest.approx(1.0, rel=0.05)


def test_explicit_grid_is_honored():
    system = SpinSystem(1, ("system",), (10.0,))
    spectrum = linear_response_spectrum(
        ferro_state(1, "up"), system, observe=[0], grid_hz=(-5.0, 25.0, 31)
    )
    assert spectrum.grid_hz[0] == -5.0
    assert spectrum.grid_hz[-1] == 25.0
    assert spectrum.grid_hz.size == 31
    numpy_count = linear_response_spectrum(
        ferro_state(1, "up"), system, observe=[0], grid_hz=(-5.0, 25.0, np.int64(31))
    )
    np.testing.assert_array_equal(numpy_count.grid_hz, spectrum.grid_hz)
    with pytest.raises(ValueError):
        linear_response_spectrum(
            ferro_state(1, "up"), system, observe=[0], grid_hz=(5.0, -5.0, 31)
        )


def test_argument_validation():
    system = SpinSystem(2, ("control", "system"), (0.0, 0.0))
    rho = ferro_state(2, "up")
    with pytest.raises(ValueError):
        linear_response_spectrum(rho, system, observe=[])
    with pytest.raises(ValueError):
        linear_response_spectrum(rho, system, observe=[1], decouple=[1])
    with pytest.raises(ValueError):
        linear_response_spectrum(ferro_state(1, "up"), system, observe=[0])


@pytest.mark.parametrize("points", [2.7, "5", np.float64(3.0), True, 1])
def test_grid_point_count_must_be_an_integer_of_at_least_two(points):
    # The rule spectrum.grid.points follows in a config; 2.7 once gave a 2-point grid.
    system = SpinSystem(1, ("system",), (10.0,))
    with pytest.raises(ValueError, match="grid needs an integer count of at least two points"):
        linear_response_spectrum(
            ferro_state(1, "up"), system, observe=[0], grid_hz=(0.0, 50.0, points)
        )


def _not_built(system):
    raise AssertionError("the Hamiltonian was built before the arguments were checked")


@pytest.mark.parametrize("grid", [(5.0, -5.0, 31), (0.0, math.inf, 31), (0.0, 50.0, 2.7)])
def test_a_bad_grid_is_rejected_before_the_hamiltonian_is_built(monkeypatch, grid):
    monkeypatch.setattr(dynamics, "build_hamiltonian", _not_built)
    with pytest.raises(ValueError, match="grid"):
        linear_response_spectrum(ferro_state(1, "up"), SpinSystem(1, ("system",), (10.0,)), [0], grid_hz=grid)


@pytest.mark.parametrize(
    "observe, message",
    [
        ([1.5], "site 1.5 outside register of 3 spins"),
        ([1, True], "site True outside register of 3 spins"),
        ([2, 2], "duplicate sites"),
        ([1, 2, 1, 1], "duplicate sites"),
    ],
    ids=["float", "bool", "repeated", "repeated-thrice"],
)
def test_bad_observed_sites_are_rejected_before_the_hamiltonian_is_built(monkeypatch, observe, message):
    # Observed sites were once checked only after the eigendecomposition.
    monkeypatch.setattr(dynamics, "build_hamiltonian", _not_built)
    system = SpinSystem(3, ("control", "system", "system"), (0.0, 10.0, 30.0))
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        linear_response_spectrum(ferro_state(3, "up"), system, observe)


@pytest.mark.parametrize("site", [1.5, True, np.float64(0.0), -1, 3])
def test_decoupled_sites_are_checked_as_observed_sites_are(site):
    # 1.5 once decoupled nothing, True site 1 and np.float64(0.0) site 0.
    coupling = Coupling(0, 1, 50.0, "heteronuclear_zz")
    system = SpinSystem(3, ("control", "system", "system"), (0.0, 10.0, 30.0), (coupling,))
    for observe, decouple in (([2], [site]), ([site], [])):
        with pytest.raises(ValueError, match=rf"^site {re.escape(repr(site))} outside register of 3 spins$"):
            linear_response_spectrum(ferro_state(3, "up"), system, observe=observe, decouple=decouple)


@pytest.mark.parametrize("linewidth", [math.nan, math.inf, 0.0, -1.0])
def test_linewidth_must_be_finite_and_positive(linewidth):
    system = SpinSystem(2, ("control", "system"), (0.0, 0.0))
    with pytest.raises(ValueError, match="linewidth must be finite and positive"):
        linear_response_spectrum(ferro_state(2, "up"), system, observe=[1], linewidth_hz=linewidth)


class TestPeakList:
    @staticmethod
    def _make(freqs, amps, linewidth=2.0):
        freqs = np.asarray(freqs, dtype=float)
        amps = np.asarray(amps, dtype=complex)
        grid = np.linspace(-100.0, 100.0, 201)
        return Spectrum(freqs, amps, linewidth, grid, np.zeros_like(grid))

    def test_distant_sticks_stay_separate(self):
        spectrum = self._make([0.0, 20.0], [1.0, 1.0])
        assert len(peak_list(spectrum)) == 2

    def test_nearby_sticks_merge(self):
        spectrum = self._make([0.0, 0.5], [1.0, 3.0])
        peaks = peak_list(spectrum)
        assert len(peaks) == 1
        assert peaks[0].amplitude == pytest.approx(4.0)
        assert peaks[0].frequency_hz == pytest.approx(0.375)  # |amp|-weighted centroid

    def test_threshold_drops_weak_clusters(self):
        spectrum = self._make([0.0, 50.0], [1.0, 0.005])
        assert len(peak_list(spectrum, threshold_fraction=0.01)) == 1
        assert len(peak_list(spectrum, threshold_fraction=0.001)) == 2

    def test_threshold_validation(self):
        spectrum = self._make([0.0], [1.0])
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                peak_list(spectrum, threshold_fraction=bad)

    def test_empty_spectrum(self):
        spectrum = self._make([], [])
        assert peak_list(spectrum) == []
