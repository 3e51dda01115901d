"""Stick spectra and Lorentzian traces from linear response.

The observable signal after a small tipping pulse on the observed
spins, detected while the system evolves under the secular Hamiltonian,
decomposes into sticks at the eigenvalue differences.  In the
Hamiltonian eigenbasis ``{|a>}``:

    amplitude(a, b) = <a|S+_obs|b> * <b|[S-_obs, rho]|a>
    frequency(a, b) = (E_a - E_b) / (2*pi)

The identity component of ``rho`` commutes with ``S-`` and contributes
nothing, so pseudopure stick amplitudes scale linearly with the purity
fraction.  Summing all amplitudes telescopes to ``Tr(2*Sz_obs * rho)``,
independent of decoupling.

Decoupling is modeled as dropping every coupling that touches a
decoupled spin during detection; offsets are kept.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from . import dynamics, operators
from .dynamics import SpinSystem
from .states import DensityMatrix

_STICK_CUTOFF = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Stick list plus a broadened trace on a frequency grid (Hz)."""

    frequencies_hz: np.ndarray
    amplitudes: np.ndarray
    linewidth_hz: float
    grid_hz: np.ndarray = field(repr=False)
    trace: np.ndarray = field(repr=False)

    @property
    def total_amplitude(self) -> complex:
        return complex(np.sum(self.amplitudes))


@dataclass(frozen=True)
class Peak:
    """Cluster of sticks closer than half a linewidth."""

    frequency_hz: float
    amplitude: complex


def linear_response_spectrum(
    rho: DensityMatrix,
    system: SpinSystem,
    observe: Sequence[int],
    decouple: Sequence[int] = (),
    linewidth_hz: float = 2.0,
    grid_hz: tuple[float, float, int] | None = None,
) -> Spectrum:
    """Stick spectrum of ``rho`` detected on the ``observe`` spins.

    ``grid_hz`` is ``(min, max, points)`` for the broadened trace; by
    default the grid spans the sticks padded by ten linewidths.
    """
    observe = list(observe)
    decouple = list(decouple)
    if rho.n_spins != system.n_spins:
        raise ValueError("state and spin system sizes differ")
    if not observe:
        raise ValueError("empty observe set")
    operators._check_sites(observe, system.n_spins)
    for site in decouple:
        operators._check_site(site, system.n_spins)
    if set(observe) & set(decouple):
        raise ValueError("observe and decouple sets overlap")
    _check_linewidth(linewidth_hz)
    if grid_hz is not None:
        _check_grid(grid_hz)

    h = dynamics.build_hamiltonian(_without_couplings_to(system, decouple))
    energies, vectors = np.linalg.eigh(h)
    s_plus = operators.total_spin_operator("plus", observe, system.n_spins)
    s_minus = s_plus.conj().T
    commutator = s_minus @ rho.matrix - rho.matrix @ s_minus
    plus_eig = vectors.conj().T @ s_plus @ vectors
    comm_eig = vectors.conj().T @ commutator @ vectors
    amplitude_matrix = plus_eig * comm_eig.T
    frequency_matrix = (energies[:, None] - energies[None, :]) / (2.0 * math.pi)

    magnitudes = np.abs(amplitude_matrix)
    cutoff = _STICK_CUTOFF * max(1.0, float(magnitudes.max()))
    keep = magnitudes > cutoff
    frequencies = frequency_matrix[keep]
    amplitudes = amplitude_matrix[keep]
    order = np.argsort(frequencies, kind="stable")
    frequencies = frequencies[order]
    amplitudes = amplitudes[order]

    grid = _make_grid(frequencies, linewidth_hz, grid_hz)
    trace = _lorentzian_trace(frequencies, amplitudes.real, grid, linewidth_hz)
    return Spectrum(frequencies, amplitudes, float(linewidth_hz), grid, trace)


def peak_list(spectrum: Spectrum, threshold_fraction: float = 0.01) -> list[Peak]:
    """Merge sticks closer than half a linewidth and drop weak clusters.

    A cluster ends where the next stick lies half a linewidth or more
    above the last.  Clusters whose total magnitude falls below
    ``threshold_fraction`` of the strongest cluster are discarded.
    """
    _check_threshold(threshold_fraction)
    starts = np.flatnonzero(np.diff(spectrum.frequencies_hz) >= 0.5 * spectrum.linewidth_hz) + 1
    peaks = []
    for freqs, amps in zip(
        np.split(spectrum.frequencies_hz, starts), np.split(spectrum.amplitudes, starts)
    ):
        weights = np.abs(amps)
        total_weight = float(weights.sum())
        if total_weight == 0.0:
            continue
        centroid = float(np.sum(freqs * weights) / total_weight)
        peaks.append(Peak(centroid, complex(np.sum(amps))))
    if not peaks:
        return []
    strongest = max(abs(p.amplitude) for p in peaks)
    return [p for p in peaks if abs(p.amplitude) >= threshold_fraction * strongest]


def _without_couplings_to(system: SpinSystem, decouple: Sequence[int]) -> SpinSystem:
    dropped = set(decouple)
    kept = tuple(
        c for c in system.couplings if c.site_a not in dropped and c.site_b not in dropped
    )
    return dataclasses.replace(system, couplings=kept)


def _check_linewidth(linewidth_hz: float) -> None:
    if not (math.isfinite(linewidth_hz) and linewidth_hz > 0.0):
        raise ValueError(f"linewidth must be finite and positive, got {linewidth_hz}")


def _check_threshold(threshold_fraction: float) -> None:
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError(f"threshold fraction must lie strictly in (0, 1), got {threshold_fraction}")


def _check_grid(grid_hz: tuple[float, float, int]) -> None:
    lo, hi, points = grid_hz
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError("grid bounds must be finite with max > min")
    if not operators._is_integer(points) or points < 2:
        raise ValueError(f"grid needs an integer count of at least two points, got {points!r}")


def _make_grid(
    frequencies: np.ndarray,
    linewidth_hz: float,
    grid_hz: tuple[float, float, int] | None,
) -> np.ndarray:
    if grid_hz is not None:
        lo, hi, points = grid_hz
        return np.linspace(float(lo), float(hi), int(points))
    pad = 10.0 * linewidth_hz
    lo = (float(frequencies.min()) if frequencies.size else 0.0) - pad
    hi = (float(frequencies.max()) if frequencies.size else 0.0) + pad
    return np.linspace(lo, hi, 2001)


def _lorentzian_trace(
    frequencies: np.ndarray,
    amplitudes: np.ndarray,
    grid: np.ndarray,
    linewidth_hz: float,
) -> np.ndarray:
    """Unit-area Lorentzians of FWHM ``linewidth_hz`` at each stick."""
    half_width = 0.5 * linewidth_hz
    trace = np.zeros_like(grid)
    for nu0, amp in zip(frequencies, amplitudes):
        trace += amp * (linewidth_hz / (2.0 * math.pi)) / ((grid - nu0) ** 2 + half_width**2)
    return trace
