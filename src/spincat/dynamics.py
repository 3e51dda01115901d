"""Spin systems, coherent evolution, and noise channels.

The Hamiltonian is secular (high-field) throughout:

    H = sum_i 2*pi*nu_i * Sz_i + sum_{i<j} 2*pi*d_ij * T_ij

with ``T_ij = 2*Sz_i*Sz_j - Sx_i*Sx_j - Sy_i*Sy_j`` for couplings
between like spins (``homonuclear_dipolar``) and the truncated form
``T_ij = 2*Sz_i*Sz_j`` between unlike spins (``heteronuclear_zz``).
Offsets and couplings are configured in Hz and converted to rad/s here.
The matrix is written from its index structure: the Zeeman and
``2*Sz_i*Sz_j`` terms fill the diagonal, and a homonuclear flip-flop
``-(Sx_i*Sx_j + Sy_i*Sy_j)`` is ``-1/2`` between ``r`` and
``r ^ site_mask([i, j])`` wherever spins ``i`` and ``j`` are antiparallel.

Both noise channels have exact closed forms, derived from their
Lindblad generators, so no time stepping is involved:

- Dephasing with jump operators ``sqrt(gamma_i)*Sz_i`` multiplies each
  matrix element ``(r, c)`` by ``exp(-t/2 * sum_i gamma_i * [r_i != c_i])``.
  The factor depends only on the pattern ``r ^ c`` of differing spins,
  so it is read from a table of ``D`` values.  An order-``n`` coherence
  over spins with equal rates decays at ``n*gamma/2``.
- Symmetric flip relaxation with jump operators ``sqrt(kappa_i)*S+_i``
  and ``sqrt(kappa_i)*S-_i`` drives each spin toward the maximally
  mixed state: per-spin polarization decays as ``exp(-2*kappa_i*t)``
  and elements off-diagonal in spin ``i`` pick up ``exp(-kappa_i*t)``.
  Per-spin channels commute, so the product form is exact; the spins'
  factors are applied one after another.

Neither channel moves an element out of its coherence class, the set of
elements ``(r, r ^ x)`` with one spin-difference pattern ``x``: a flip
of spin ``i`` mixes ``(r, c)`` only with ``(r ^ b_i, c ^ b_i)``.  So both
act on the classes the state occupies, each gathered as a length-``D``
vector, and scatter them once into a zeroed matrix.  A protocol state
occupies at most two classes, the diagonal and the top-order cat
coherence, so a channel costs O(D) work beside that one matrix; a dense
state occupies all ``D`` classes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import operators
from .states import DensityMatrix

COUPLING_KINDS = ("homonuclear_dipolar", "heteronuclear_zz")
ROLES = ("control", "system")
_AXES = ("x", "y", "z")
# Trajectories per matrix product in apply_phase_kicks_mc: bounds the
# rows of Phi held at once.  At 10 spins and 1000 trajectories (one
# OpenBLAS thread) a kick with blocks of 256 took 0.40 s against 0.36 s
# for one unblocked product and held 12 MiB less; blocks of 128 took 0.44 s.
_KICK_BLOCK = 256


@dataclass(frozen=True)
class Coupling:
    """Pairwise coupling ``d_ij`` in Hz between two distinct sites."""

    site_a: int
    site_b: int
    strength_hz: float
    kind: str

    def __post_init__(self) -> None:
        for site in (self.site_a, self.site_b):
            if not operators._is_integer(site):
                raise ValueError(f"coupling site must be an integer, got {site!r}")
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
    """Per-spin noise rates, all in 1/s, plus the number of Monte Carlo
    trajectories that :func:`apply_phase_kicks_mc` averages over."""

    dephasing_per_s: tuple[float, ...]
    flip_per_s: tuple[float, ...]
    mc_trajectories: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "dephasing_per_s", tuple(float(v) for v in self.dephasing_per_s))
        object.__setattr__(self, "flip_per_s", tuple(float(v) for v in self.flip_per_s))
        if len(self.dephasing_per_s) != len(self.flip_per_s):
            raise ValueError("dephasing and flip rate lists differ in length")
        for value in self.dephasing_per_s + self.flip_per_s:
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"rates must be finite and nonnegative, got {value}")
        trajectories = self.mc_trajectories
        if isinstance(trajectories, bool) or not isinstance(trajectories, numbers.Integral):
            raise ValueError(f"trajectory count must be an integer, got {trajectories!r}")
        if trajectories < 1:
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
        mc_trajectories: int = 1000,
    ) -> "NoiseModel":
        return cls((float(dephasing_per_s),) * n_spins, (float(flip_per_s),) * n_spins, mc_trajectories)


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
    """Secular Hamiltonian of the system in rad/s: a diagonal plus the
    homonuclear flip-flop entries (see the module docstring)."""
    n = system.n_spins
    dim = 1 << n
    # Sz eigenvalue of every spin in every basis state: +1/2 or -1/2.
    sz = 0.5 - operators.bit_table(n)
    diagonal = np.zeros(dim)
    for site, nu in enumerate(system.offsets_hz):
        if nu != 0.0:
            diagonal += (2.0 * math.pi * nu) * sz[site]
    h = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    for coupling in system.couplings:
        i, j = coupling.site_a, coupling.site_b
        omega = 2.0 * math.pi * coupling.strength_hz
        diagonal += omega * (2.0 * sz[i] * sz[j])
        if coupling.kind == "homonuclear_dipolar":
            rows = index[sz[i] != sz[j]]
            h[rows, rows ^ operators.site_mask([i, j], n)] = -0.5 * omega
    np.fill_diagonal(h, diagonal)
    return h


def evolve(rho: DensityMatrix, h: np.ndarray, t: float) -> DensityMatrix:
    """Coherent evolution ``U rho U+`` with ``U = exp(-i*h*t)``."""
    if t < 0.0:
        raise ValueError("negative evolution time")
    u = operators.propagator(h, t)
    return apply_unitary(rho, u)


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.n_spins)


def pulse_unitary(pulse: Pulse, n_spins: int) -> np.ndarray:
    generator = _pulse_generator(pulse, n_spins)
    return operators.propagator(generator, pulse.angle_rad)


def apply_pulse(rho: DensityMatrix, pulse: Pulse) -> DensityMatrix:
    return apply_unitary(rho, pulse_unitary(pulse, rho.n_spins))


def apply_dephasing(rho: DensityMatrix, noise: NoiseModel, t: float) -> DensityMatrix:
    """Exact dephasing channel: each coherence class ``x = r ^ c`` decays
    by one factor, read from a table over the ``D`` patterns."""
    _check_channel_args(rho, noise, t)
    rates = np.asarray(noise.dephasing_per_s)
    # decay[x] = sum_i gamma_i * x_i
    decay = np.tensordot(rates, operators.bit_table(rho.n_spins), axes=1)
    factor = np.exp(-0.5 * t * decay)
    classes, values = _gather_classes(rho)
    values *= factor[classes][:, None]
    return _scatter_classes(classes, values, rho.n_spins)


def apply_flip_relaxation(rho: DensityMatrix, noise: NoiseModel, t: float) -> DensityMatrix:
    """Exact symmetric flip channel, one commuting factor per spin,
    applied in place to the gathered coherence classes."""
    _check_channel_args(rho, noise, t)
    n = rho.n_spins
    classes, values = _gather_classes(rho)
    for site, rate in enumerate(noise.flip_per_s):
        if rate > 0.0:
            _flip_one_site(values, classes, site, n, rate * t)
    return _scatter_classes(classes, values, n)


def draw_kick_phases(sigma: Sequence[float], trajectories: int, seed: int) -> np.ndarray:
    """Gaussian phase kicks, one row of per-spin phases per trajectory.

    Trajectory ``k`` draws its phases from its own generator, seeded by
    the ``k``-th child of ``SeedSequence(seed).spawn``, so its phases do
    not depend on how many trajectories are drawn.  Scaling standard
    normals by ``sigma`` gives the same numbers as ``normal(0, sigma)``
    without its per-call argument checks.
    """
    sigma = np.asarray(sigma, dtype=float)
    phases = np.empty((trajectories, sigma.size))
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(trajectories)):
        phases[k] = np.random.default_rng(child).standard_normal(sigma.size)
    phases *= sigma
    return phases


def apply_phase_kicks_mc(rho: DensityMatrix, noise: NoiseModel, t: float, seed: int) -> DensityMatrix:
    """Monte Carlo dephasing: average over random collective z rotations.

    Each trajectory draws one Gaussian phase per spin (see
    :func:`draw_kick_phases`) and applies the diagonal unitary
    ``exp(-i * sum_i phi_i * Sz_i)``.  The mean over ``K`` trajectories
    of ``diag(Phi[k]) rho diag(Phi[k])^*`` is the elementwise product
    ``rho * C`` with the empirical characteristic matrix
    ``C = Phi^T Phi^* / K``, where ``Phi[k, r] = exp(-i * phi_k . s_r)``
    and ``s_r`` holds the Sz eigenvalues of basis state ``r``.  The
    product vanishes in every row and column where ``rho`` is zero, so
    ``C`` is formed only on the basis states where ``rho`` has an entry:
    all ``D`` of them for a full-rank state, two for a cat.  It is
    accumulated by one matrix product per block of trajectories, so the
    extra memory is one product beside ``C`` and a block of rows of
    ``Phi``, whatever ``K`` is.  The ensemble mean multiplies an
    element that differs in spin ``i`` by ``exp(-sigma_i^2/2)``; the
    widths ``sigma_i = sqrt(gamma_i * t)`` make that the analytic
    channel's factor for time ``t``.
    """
    _check_channel_args(rho, noise, t)
    sigma = np.sqrt(np.asarray(noise.dephasing_per_s) * t)
    phases = draw_kick_phases(sigma, noise.mc_trajectories, seed)
    support = np.flatnonzero(np.any(rho.matrix, axis=0) | np.any(rho.matrix, axis=1))
    # Sz eigenvalue of every spin in every supported basis state: +1/2 or -1/2.
    sz_signs = 0.5 - operators.bit_table(rho.n_spins)[:, support]
    characteristic = np.zeros((support.size, support.size), dtype=complex)
    for start in range(0, len(phases), _KICK_BLOCK):
        phi = np.exp(-1j * (phases[start : start + _KICK_BLOCK] @ sz_signs))
        characteristic += phi.T @ phi.conj()
    characteristic /= noise.mc_trajectories
    if support.size == rho.dim:
        characteristic *= rho.matrix
        kicked = characteristic
    else:
        kicked = np.zeros_like(rho.matrix)
        block = np.ix_(support, support)
        kicked[block] = characteristic * rho.matrix[block]
    return DensityMatrix(kicked, rho.n_spins)


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
    return DensityMatrix(rho.matrix[np.ix_(perm, perm)], rho.n_spins)


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


def _gather_classes(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The coherence classes ``x`` that ``rho`` occupies, ascending, and
    the ``(K, D)`` array of their elements ``values[k, r] = rho[r, r ^ x_k]``.
    A state without a kept nonzero pattern occupies all ``D`` classes."""
    rows, cols = rho._pattern[:2]
    index = np.arange(rho.dim)
    classes = index if rows is None else np.flatnonzero(np.bincount(rows ^ cols, minlength=rho.dim))
    return classes, rho.matrix[index, index ^ classes[:, None]]


def _scatter_classes(classes: np.ndarray, values: np.ndarray, n_spins: int) -> DensityMatrix:
    """The state whose classes ``classes`` hold ``values`` and which is
    zero elsewhere; the inverse of :func:`_gather_classes`."""
    dim = values.shape[1]
    matrix = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    matrix[index, index ^ classes[:, None]] = values
    return DensityMatrix(matrix, n_spins)


def _flip_one_site(
    values: np.ndarray, classes: np.ndarray, site: int, n_spins: int, kappa_t: float
) -> None:
    """Apply one spin's flip factor in place to the gathered classes.

    A class that differs in the spin decays at kappa.  In a class that
    does not, the elements with the spin up in both indices and those
    with it down in both mix toward their average at rate 2*kappa.
    """
    e1 = math.exp(-kappa_t)
    e2 = math.exp(-2.0 * kappa_t)
    bit = 1 << (n_spins - 1 - site)
    differs = (classes & bit) != 0
    values[differs] *= e1
    kept = np.flatnonzero(~differs)
    # Row index split as (spins before, this spin, spins after).
    block = values[kept].reshape(kept.size, 1 << site, 2, bit)
    uu = block[:, :, 0, :]
    dd = block[:, :, 1, :]
    mixed_up = 0.5 * (1.0 + e2) * uu + 0.5 * (1.0 - e2) * dd
    dd[...] = 0.5 * (1.0 - e2) * uu + 0.5 * (1.0 + e2) * dd
    uu[...] = mixed_up
    values[kept] = block.reshape(kept.size, -1)


def _check_channel_args(rho: DensityMatrix, noise: NoiseModel, t: float) -> None:
    if noise.n_spins != rho.n_spins:
        raise ValueError(
            f"noise model for {noise.n_spins} spins applied to {rho.n_spins}-spin state"
        )
    if not np.isfinite(t) or t < 0.0:
        raise ValueError(f"channel time must be nonnegative, got {t}")
