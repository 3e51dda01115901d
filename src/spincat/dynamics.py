"""Spin systems, coherent evolution, and noise channels.

The Hamiltonian is secular (high-field) throughout:

    H = sum_i 2*pi*nu_i * Sz_i + sum_{i<j} 2*pi*d_ij * T_ij

with ``T_ij = 2*Sz_i*Sz_j - Sx_i*Sx_j - Sy_i*Sy_j`` for couplings
between like spins (``homonuclear_dipolar``) and the truncated form
``T_ij = 2*Sz_i*Sz_j`` between unlike spins (``heteronuclear_zz``).
Offsets and couplings are configured in Hz and converted to rad/s here.

Both noise channels have exact closed forms, derived from their
Lindblad generators, so no time stepping is involved:

- Dephasing with jump operators ``sqrt(gamma_i)*Sz_i`` multiplies each
  matrix element ``(r, c)`` by ``exp(-t/2 * sum_i gamma_i * [r_i != c_i])``.
  An order-``n`` coherence over spins with equal rates decays at
  ``n*gamma/2``.
- Symmetric flip relaxation with jump operators ``sqrt(kappa_i)*S+_i``
  and ``sqrt(kappa_i)*S-_i`` drives each spin toward the maximally
  mixed state: per-spin polarization decays as ``exp(-2*kappa_i*t)``
  and elements off-diagonal in spin ``i`` pick up ``exp(-kappa_i*t)``.
  Per-spin channels commute, so the product form is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import operators
from .states import DensityMatrix

COUPLING_KINDS = ("homonuclear_dipolar", "heteronuclear_zz")
ROLES = ("control", "system")
_AXES = ("x", "y", "z")


@dataclass(frozen=True)
class Coupling:
    """Pairwise coupling ``d_ij`` in Hz between two distinct sites."""

    site_a: int
    site_b: int
    strength_hz: float
    kind: str

    def __post_init__(self) -> None:
        if self.site_a == self.site_b:
            raise ValueError(f"self-coupling on site {self.site_a}")
        if self.kind not in COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if not np.isfinite(self.strength_hz):
            raise ValueError("non-finite coupling strength")

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.site_a, self.site_b), max(self.site_a, self.site_b))


@dataclass(frozen=True)
class SpinSystem:
    """Static description of the register: roles, offsets, couplings."""

    n_spins: int
    roles: tuple[str, ...]
    offsets_hz: tuple[float, ...]
    couplings: tuple[Coupling, ...] = ()

    def __post_init__(self) -> None:
        operators._check_register_size(self.n_spins)
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "offsets_hz", tuple(float(v) for v in self.offsets_hz))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if len(self.roles) != self.n_spins:
            raise ValueError(f"expected {self.n_spins} roles, got {len(self.roles)}")
        for role in self.roles:
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r}")
        if len(self.offsets_hz) != self.n_spins:
            raise ValueError(f"expected {self.n_spins} offsets, got {len(self.offsets_hz)}")
        seen: set[tuple[int, int]] = set()
        for coupling in self.couplings:
            for site in (coupling.site_a, coupling.site_b):
                if not 0 <= site < self.n_spins:
                    raise ValueError(f"coupling site {site} outside register")
            if coupling.pair in seen:
                raise ValueError(f"duplicate coupling for pair {coupling.pair}")
            seen.add(coupling.pair)

    @property
    def control_sites(self) -> tuple[int, ...]:
        return tuple(i for i, role in enumerate(self.roles) if role == "control")

    @property
    def system_sites(self) -> tuple[int, ...]:
        return tuple(i for i, role in enumerate(self.roles) if role == "system")


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin noise rates, all in 1/s, plus Monte Carlo settings.

    ``mc_phase_sigma`` holds per-spin standard deviations (radians) of
    the Gaussian phase kicks used by :func:`apply_phase_kicks_mc`;
    ``None`` disables the Monte Carlo path.
    """

    dephasing_per_s: tuple[float, ...]
    flip_per_s: tuple[float, ...]
    mc_phase_sigma: tuple[float, ...] | None = None
    mc_trajectories: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "dephasing_per_s", tuple(float(v) for v in self.dephasing_per_s))
        object.__setattr__(self, "flip_per_s", tuple(float(v) for v in self.flip_per_s))
        if self.mc_phase_sigma is not None:
            object.__setattr__(self, "mc_phase_sigma", tuple(float(v) for v in self.mc_phase_sigma))
        if len(self.dephasing_per_s) != len(self.flip_per_s):
            raise ValueError("dephasing and flip rate lists differ in length")
        for rates in (self.dephasing_per_s, self.flip_per_s, self.mc_phase_sigma or ()):
            for value in rates:
                if not np.isfinite(value) or value < 0.0:
                    raise ValueError(f"rates must be finite and nonnegative, got {value}")
        if self.mc_phase_sigma is not None and len(self.mc_phase_sigma) != self.n_spins:
            raise ValueError("mc_phase_sigma length does not match the rate lists")
        if self.mc_trajectories < 1:
            raise ValueError("need at least one trajectory")

    @property
    def n_spins(self) -> int:
        return len(self.dephasing_per_s)

    @classmethod
    def uniform(
        cls,
        n_spins: int,
        dephasing_per_s: float = 0.0,
        flip_per_s: float = 0.0,
        mc_phase_sigma: float | None = None,
        mc_trajectories: int = 1000,
    ) -> "NoiseModel":
        sigma = None if mc_phase_sigma is None else (float(mc_phase_sigma),) * n_spins
        return cls(
            (float(dephasing_per_s),) * n_spins,
            (float(flip_per_s),) * n_spins,
            sigma,
            mc_trajectories,
        )


def dephasing_rate_for_lifetime(lifetime_s: float, n_sites: int) -> float:
    """Per-spin rate gamma such that the ``n_sites``-order coherence decays
    with the given lifetime: amplitude(t) = amplitude(0) * exp(-t/lifetime)."""
    if lifetime_s <= 0.0:
        raise ValueError("lifetime must be positive")
    return 2.0 / (n_sites * lifetime_s)


def flip_rate_for_lifetime(lifetime_s: float) -> float:
    """Per-spin rate kappa such that polarization <Sz_i> decays with the
    given lifetime."""
    if lifetime_s <= 0.0:
        raise ValueError("lifetime must be positive")
    return 1.0 / (2.0 * lifetime_s)


@dataclass(frozen=True)
class Pulse:
    """Ideal instantaneous rotation of the target spins.

    The generator is ``sum_targets S_axis`` rotated about z by
    ``phase_rad``, applied as ``exp(-i * angle_rad * generator)``.
    """

    targets: tuple[int, ...]
    axis: str
    angle_rad: float
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise ValueError("pulse needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate pulse targets")
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if not np.isfinite(self.angle_rad) or not np.isfinite(self.phase_rad):
            raise ValueError("non-finite pulse angle or phase")


def build_hamiltonian(system: SpinSystem) -> np.ndarray:
    """Secular Hamiltonian of the system in rad/s."""
    n = system.n_spins
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for site, nu in enumerate(system.offsets_hz):
        if nu != 0.0:
            h += (2.0 * math.pi * nu) * operators.single_spin_operator("z", site, n)
    for coupling in system.couplings:
        i, j = coupling.site_a, coupling.site_b
        zz = operators.single_spin_operator("z", i, n) @ operators.single_spin_operator("z", j, n)
        term = 2.0 * zz
        if coupling.kind == "homonuclear_dipolar":
            xx = operators.single_spin_operator("x", i, n) @ operators.single_spin_operator("x", j, n)
            yy = operators.single_spin_operator("y", i, n) @ operators.single_spin_operator("y", j, n)
            term = term - xx - yy
        h += (2.0 * math.pi * coupling.strength_hz) * term
    return h


def evolve(rho: DensityMatrix, h: np.ndarray, t: float) -> DensityMatrix:
    """Coherent evolution ``U rho U+`` with ``U = exp(-i*h*t)``."""
    if t < 0.0:
        raise ValueError("negative evolution time")
    u = operators.propagator(h, t)
    return apply_unitary(rho, u)


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    return DensityMatrix(
        u @ rho.matrix @ u.conj().T, rho.n_spins, rho.pseudopure_background
    )


def pulse_unitary(pulse: Pulse, n_spins: int) -> np.ndarray:
    generator = _pulse_generator(pulse, n_spins)
    return operators.propagator(generator, pulse.angle_rad)


def apply_pulse(rho: DensityMatrix, pulse: Pulse) -> DensityMatrix:
    return apply_unitary(rho, pulse_unitary(pulse, rho.n_spins))


def apply_dephasing(rho: DensityMatrix, noise: NoiseModel, t: float) -> DensityMatrix:
    """Exact dephasing channel: elementwise decay set by the bits where
    row and column indices differ."""
    _check_channel_args(rho, noise, t)
    bits = operators.bit_table(rho.n_spins)
    rates = np.asarray(noise.dephasing_per_s)
    # decay[r, c] = sum_i gamma_i * [r_i != c_i]
    differs = bits[:, :, None] != bits[:, None, :]
    decay = np.tensordot(rates, differs, axes=1)
    factor = np.exp(-0.5 * t * decay)
    return DensityMatrix(rho.matrix * factor, rho.n_spins, rho.pseudopure_background)


def apply_flip_relaxation(rho: DensityMatrix, noise: NoiseModel, t: float) -> DensityMatrix:
    """Exact symmetric flip channel, one commuting factor per spin."""
    _check_channel_args(rho, noise, t)
    n = rho.n_spins
    matrix = np.array(rho.matrix)
    for site, rate in enumerate(noise.flip_per_s):
        if rate > 0.0:
            matrix = _flip_one_site(matrix, site, n, rate * t)
    return DensityMatrix(matrix, n, rho.pseudopure_background)


def apply_phase_kicks_mc(rho: DensityMatrix, noise: NoiseModel, seed: int) -> DensityMatrix:
    """Monte Carlo dephasing: average over random collective z rotations.

    Each trajectory draws one Gaussian phase per spin and applies the
    diagonal unitary ``exp(-i * sum_i phi_i * Sz_i)``.  Trajectories are
    seeded by counter-based splitting of ``seed`` and accumulated in a
    fixed order, so results are reproducible for a given trajectory
    count.  The ensemble mean multiplies an order-``q_i``-difference
    element by ``exp(-sigma_i^2/2)`` per spin, matching the analytic
    channel at ``sigma_i = sqrt(gamma_i * t)``.
    """
    if noise.mc_phase_sigma is None:
        raise ValueError("noise model has no Monte Carlo phase widths")
    if noise.n_spins != rho.n_spins:
        raise ValueError("noise model size does not match the state")
    sigma = np.asarray(noise.mc_phase_sigma)
    # Sz eigenvalue of every spin in every basis state: +1/2 or -1/2.
    sz_signs = 0.5 - operators.bit_table(rho.n_spins)
    accumulated = np.zeros_like(rho.matrix)
    for child in np.random.SeedSequence(seed).spawn(noise.mc_trajectories):
        rng = np.random.default_rng(child)
        phases = rng.normal(0.0, sigma)
        diag = np.exp(-1j * (phases @ sz_signs))
        accumulated += (diag[:, None] * rho.matrix) * diag.conj()[None, :]
    accumulated /= noise.mc_trajectories
    return DensityMatrix(accumulated, rho.n_spins, rho.pseudopure_background)


def conditional_flip(rho: DensityMatrix, condition_mask: int, flip_mask: int) -> DensityMatrix:
    """Conjugate by the permutation that flips the ``flip_mask`` bits of
    every basis index whose ``condition_mask`` bits are all set (down).

    With disjoint masks the permutation is an involution, so conjugating
    by it is one reindexing of rows and columns and is its own inverse.
    """
    if condition_mask & flip_mask:
        raise ValueError("flipped spins overlap the condition spins")
    if not flip_mask:
        raise ValueError("empty target set")
    index = np.arange(rho.dim)
    perm = np.where(index & condition_mask == condition_mask, index ^ flip_mask, index)
    matrix = rho.matrix[np.ix_(perm, perm)]
    return DensityMatrix(matrix, rho.n_spins, rho.pseudopure_background)


def controlled_not_all(rho: DensityMatrix, control: int, targets: Sequence[int]) -> DensityMatrix:
    """Conjugate by the collective controlled-NOT, which flips every
    target spin when the control is down.  It is its own inverse."""
    n = rho.n_spins
    return conditional_flip(rho, operators.site_mask([control], n), operators.site_mask(targets, n))


def _pulse_generator(pulse: Pulse, n_spins: int) -> np.ndarray:
    if pulse.axis == "z":
        return operators.total_spin_operator("z", pulse.targets, n_spins)
    cos_p = math.cos(pulse.phase_rad)
    sin_p = math.sin(pulse.phase_rad)
    x = operators.total_spin_operator("x", pulse.targets, n_spins)
    y = operators.total_spin_operator("y", pulse.targets, n_spins)
    if pulse.axis == "x":
        return cos_p * x + sin_p * y
    return cos_p * y - sin_p * x


def _flip_one_site(matrix: np.ndarray, site: int, n_spins: int, kappa_t: float) -> np.ndarray:
    """Apply one spin's flip factor.  Populations in the 2x2 block of the
    spin mix toward their average at rate 2*kappa; the block's
    off-diagonals decay at kappa."""
    e1 = math.exp(-kappa_t)
    e2 = math.exp(-2.0 * kappa_t)
    view = matrix.reshape((2,) * (2 * n_spins))

    def block(row_bit: int, col_bit: int) -> tuple:
        index: list = [slice(None)] * (2 * n_spins)
        index[site] = row_bit
        index[n_spins + site] = col_bit
        return tuple(index)

    uu = np.array(view[block(0, 0)])
    dd = np.array(view[block(1, 1)])
    out = np.array(view)
    out[block(0, 0)] = 0.5 * (1.0 + e2) * uu + 0.5 * (1.0 - e2) * dd
    out[block(1, 1)] = 0.5 * (1.0 - e2) * uu + 0.5 * (1.0 + e2) * dd
    out[block(0, 1)] = e1 * view[block(0, 1)]
    out[block(1, 0)] = e1 * view[block(1, 0)]
    return out.reshape(matrix.shape)


def _check_channel_args(rho: DensityMatrix, noise: NoiseModel, t: float) -> None:
    if noise.n_spins != rho.n_spins:
        raise ValueError(
            f"noise model for {noise.n_spins} spins applied to {rho.n_spins}-spin state"
        )
    if not np.isfinite(t) or t < 0.0:
        raise ValueError(f"channel time must be nonnegative, got {t}")
