"""Spin systems, the secular Hamiltonian, noise channels and controlled flips.

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
act on the classes a :class:`~spincat.states.DensityMatrix` stores, each
a length-``D`` vector, and return the same classes.  A protocol state
occupies two classes, the diagonal and the top-order cat coherence, so
a channel costs O(D); a dense state occupies all ``D`` classes.  The
controlled flips move each element ``(r, r ^ x)`` to ``(pr, p(r ^ x))``
under their permutation ``p``, which lands it in class ``x`` or
``x ^ flip_mask``, again in O(D) per class; the permutation is worked out
per call from the two masks.  Flip relaxation mixes each element with
its partner along the spin's axis of its class row, a view that
:mod:`~spincat.operators` supplies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Sequence

import numpy as np

from . import operators, states
from .states import DensityMatrix

COUPLING_KINDS = ("homonuclear_dipolar", "heteronuclear_zz")
ROLES = ("control", "system")
# Trajectories per block in apply_phase_kicks_mc, summed block by block.
# A state checked whole holds this many rows of Phi at once: at 10 spins
# and 1000 trajectories (one OpenBLAS thread) its kick with blocks of 256
# took 0.40 s against 0.36 s for one unblocked product and held 12 MiB
# less; blocks of 128 took 0.44 s.  A state of pairs holds this many rows
# of its K x p phase angles, 4 MiB at 2048 pairs, and forms no C.
_KICK_BLOCK = 256
# Rows of C per matrix product: only the products on and below C's
# diagonal are formed.  At 10 spins and 1000 trajectories the full-rank
# product took 0.19 s with rows of 64 or 128 and 0.20 s with 256, against
# 0.26 s for the whole of C.
_KICK_ROWS = 128


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
                raise ValueError(f"sites: coupling site must be an integer, got {site!r}")
        if self.site_a == self.site_b:
            raise ValueError(f"sites: self-coupling on site {self.site_a}")
        if self.kind not in COUPLING_KINDS:
            raise ValueError(f"kind must be one of {COUPLING_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.strength_hz):
            raise ValueError("strength_hz: non-finite coupling strength")

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
            raise ValueError(f"roles: expected {self.n_spins} entries, got {len(self.roles)}")
        for k, role in enumerate(self.roles):
            if role not in ROLES:
                raise ValueError(f"roles[{k}] must be one of {ROLES}, got {role!r}")
        if len(self.offsets_hz) != self.n_spins:
            raise ValueError(f"offsets_hz: expected {self.n_spins} entries, got {len(self.offsets_hz)}")
        for k, offset in enumerate(self.offsets_hz):
            if not math.isfinite(offset):
                raise ValueError(f"offsets_hz[{k}]: non-finite offset {offset}")
        seen: set[tuple[int, int]] = set()
        for k, coupling in enumerate(self.couplings):
            for site in (coupling.site_a, coupling.site_b):
                if not 0 <= site < self.n_spins:
                    raise ValueError(f"couplings[{k}]: coupling site {site} outside register")
            if coupling.pair in seen:
                raise ValueError(f"couplings[{k}]: duplicate coupling for pair {coupling.pair}")
            seen.add(coupling.pair)

    @cached_property
    def control_sites(self) -> tuple[int, ...]:
        """The ``"control"`` sites, ascending; found once, as roles are frozen."""
        return tuple(i for i, role in enumerate(self.roles) if role == "control")

    @cached_property
    def system_sites(self) -> tuple[int, ...]:
        """The ``"system"`` sites, ascending; found once, as roles are frozen."""
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
        if len(self.flip_per_s) != len(self.dephasing_per_s):
            raise ValueError(
                f"flip_per_s has {len(self.flip_per_s)} rates, dephasing_per_s has {self.n_spins}"
            )
        for name in ("dephasing_per_s", "flip_per_s"):
            for k, value in enumerate(getattr(self, name)):
                if not math.isfinite(value) or value < 0.0:
                    raise ValueError(f"{name}[{k}] must be finite and nonnegative, got {value}")
        trajectories = self.mc_trajectories
        if isinstance(trajectories, bool) or not isinstance(trajectories, numbers.Integral):
            raise ValueError(f"mc_trajectories must be an integer, got {trajectories!r}")
        if trajectories < 1:
            raise ValueError(f"mc_trajectories must be at least 1, got {trajectories}")

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
    _check_lifetime(lifetime_s)
    if not (operators._is_integer(n_sites) and n_sites >= 1):
        raise ValueError(f"need an integer count of at least one site, got {n_sites!r}")
    return 2.0 / (n_sites * lifetime_s)


def flip_rate_for_lifetime(lifetime_s: float) -> float:
    """Per-spin rate kappa such that polarization <Sz_i> decays with the
    given lifetime."""
    _check_lifetime(lifetime_s)
    return 1.0 / (2.0 * lifetime_s)


def _check_lifetime(lifetime_s: float) -> None:
    if not (math.isfinite(lifetime_s) and lifetime_s > 0.0):
        raise ValueError(f"lifetime must be finite and positive, got {lifetime_s}")


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


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.n_spins)


def apply_dephasing(rho: DensityMatrix, noise: NoiseModel, t: float) -> DensityMatrix:
    """Exact dephasing channel: each coherence class ``x = r ^ c`` decays
    by one factor, read from a table over the ``D`` patterns."""
    _check_channel_args(rho, noise, t)
    rates = np.asarray(noise.dephasing_per_s)
    # decay[x] = sum_i gamma_i * x_i
    decay = np.tensordot(rates, operators.bit_table(rho.n_spins), axes=1)
    factor = np.exp(-0.5 * t * decay)
    values = rho._values * factor[rho._classes][:, None]
    return DensityMatrix._of_classes(rho._classes, values, rho.n_spins)


def apply_flip_relaxation(rho: DensityMatrix, noise: NoiseModel, t: float) -> DensityMatrix:
    """Exact symmetric flip channel, one commuting factor per spin,
    applied in place to a copy of the state's classes.

    A class that differs in the spin decays at kappa.  In a class that
    does not, each element and its partner at ``r ^ b`` in the same class,
    ``b`` the spin's bit, move toward their average at rate 2*kappa: a
    2x2 map along the spin's axis of the class row.
    """
    _check_channel_args(rho, noise, t)
    n = rho.n_spins
    values = rho._values.copy()
    for site, rate in enumerate(noise.flip_per_s):
        if rate > 0.0:
            kappa_t = rate * t
            e1 = math.exp(-kappa_t)
            e2 = math.exp(-2.0 * kappa_t)
            keep, move = 0.5 * (1.0 + e2), 0.5 * (1.0 - e2)
            bit = operators.site_mask([site], n)
            for x, pairs in zip(rho._classes, operators._spin_axis(values, site, n)):
                if x & bit:
                    pairs *= e1
                else:
                    partner = pairs[:, ::-1] * move
                    pairs *= keep
                    pairs += partner
    return DensityMatrix._of_classes(rho._classes, values, n)


def draw_kick_phases(sigma: Sequence[float], trajectories: int, seed: int) -> np.ndarray:
    """Gaussian phase kicks, one row of per-spin phases per trajectory.

    One generator, ``default_rng(seed)``, draws all ``K x n`` phases of
    the kick in one call; row ``k`` is trajectory ``k``.  The block is
    filled row by row, so a draw of ``K`` trajectories starts with the
    rows of any shorter draw: trajectory ``k``'s phases do not depend on
    ``K``.  Scaling standard normals by ``sigma`` gives the same numbers
    as ``normal(0, sigma, (K, n))`` without its argument checks.
    """
    operators._check_seed(seed)
    sigma = np.asarray(sigma, dtype=float)
    return np.random.default_rng(seed).standard_normal((trajectories, sigma.size)) * sigma


def apply_phase_kicks_mc(rho: DensityMatrix, noise: NoiseModel, t: float, seed: int) -> DensityMatrix:
    """Monte Carlo dephasing: average over random collective z rotations.

    Trajectory ``k`` takes row ``k`` of one ``K x n`` Gaussian draw from
    a single generator seeded by ``seed`` (see :func:`draw_kick_phases`),
    one phase per spin, and applies the diagonal unitary
    ``exp(-i * sum_i phi_i * Sz_i)``.  The mean over ``K`` trajectories
    of ``diag(Phi[k]) rho diag(Phi[k])^*`` is the elementwise product
    ``rho * C`` with the empirical characteristic matrix
    ``C = Phi^T Phi^* / K``, where ``Phi[k, r] = exp(-i * phi_k . s_r)``
    and ``s_r`` holds the Sz eigenvalues of basis state ``r``.  Only the
    nonzero elements off the diagonal are multiplied, since the diagonal
    of ``C`` is exactly 1; every other element is kept as it is.

    A state of 1x1 and 2x2 blocks, every state of the protocol, needs
    ``C`` at its pairs' elements only: a pair ``(low, high)`` is
    multiplied by ``C[low, high] = mean_k exp(-i * phi_k . (s_low - s_high))``
    and its transposed element by the conjugate, see :func:`_kick_pairs`.
    That costs O(K*n*p) for ``p`` pairs, plus the O(D) copy and the
    validated construction of the result, and forms no ``C``.  The kick
    keeps the state's classes, so the result is read as pairs again, from
    its own class row.  A state of three or more classes, checked as one
    whole block, is kicked by :func:`_kick_whole`, which
    forms ``C`` on the basis states where it has a nonzero element off
    the diagonal.  The ensemble mean multiplies an element that differs
    in spin ``i`` by ``exp(-sigma_i^2/2)``; the widths
    ``sigma_i = sqrt(gamma_i * t)`` make that the analytic channel's
    factor for time ``t``.
    """
    _check_channel_args(rho, noise, t)
    sigma = np.sqrt(np.asarray(noise.dephasing_per_s) * t)
    phases = draw_kick_phases(sigma, noise.mc_trajectories, seed)
    if rho._blocks is None:
        kicked = _kick_whole(rho, phases)
    else:
        kicked = _kick_pairs(rho, phases)
    return DensityMatrix._of_classes(rho._classes, kicked, rho.n_spins)


def _kick_pairs(rho: DensityMatrix, phases: np.ndarray) -> np.ndarray:
    """The kicked values of a state of 1x1 and 2x2 blocks, in O(K*n*p).

    Every pair ``(low, high)`` lies in the state's last class row, of
    class ``x = low ^ high``, which holds ``rho[low, high]`` at column
    ``low`` and ``rho[high, low]`` at column ``high``.  The first is
    multiplied by ``f = mean_k exp(-i * phi_k . (s_low - s_high))``, the
    element ``C[low, high]``, and the second by ``conj(f)``; the
    difference of the Sz eigenvalues is nonzero only on the bits of
    ``x``.  Exact zeros, as in a pair with a nonzero element in one
    triangle only, are kept, so no zero element turns nonzero.  The
    angles of ``_KICK_BLOCK`` trajectories for every pair are held at a
    time.
    """
    low, high = rho._blocks.T
    bits = operators.bit_table(rho.n_spins)
    # s_low - s_high = bit_high - bit_low, one column per pair.
    difference = (bits.take(high, axis=1) - bits.take(low, axis=1)).astype(float)
    cos_sum = sin_sum = 0.0
    for start in range(0, len(phases), _KICK_BLOCK):
        angles = phases[start : start + _KICK_BLOCK] @ difference
        cos_sum = cos_sum + np.cos(angles).sum(axis=0)
        sin_sum = sin_sum + np.sin(angles).sum(axis=0)
    factor = (cos_sum - 1j * sin_sum) / len(phases)
    kicked = rho._values.copy()
    row = kicked[-1]
    for at, pair_factor in zip((low, high), (factor, factor.conj())):
        element = row[at]
        row[at] = np.multiply(pair_factor, element, out=element, where=element != 0)
    return kicked


def _kick_whole(rho: DensityMatrix, phases: np.ndarray) -> np.ndarray:
    """The kicked values of a state checked as one whole block.

    ``C`` is formed on the basis states where ``rho`` has a nonzero
    element off the diagonal, and read at those elements: all ``D``
    states for a full-rank state.  ``C`` is Hermitian, so only its blocks
    on and below the diagonal are multiplied out, one block of rows of
    ``C`` and one block of trajectories at a time, and the rest is their
    conjugate transpose; the extra memory is one block of rows beside
    ``C`` and a block of rows of ``Phi``, whatever ``K`` is.
    """
    classes, values = rho._classes, rho._values
    nonzero = values[1:] != 0
    supported = nonzero.any(axis=0)
    if not supported.all():
        for part, cols in states._class_slices(classes[1:], rho.dim):
            supported |= states._mirrors(nonzero[part], cols).any(axis=0)
    support = supported.nonzero()[0]
    # Sz eigenvalue of every spin in every supported basis state: +1/2 or -1/2.
    sz_signs = 0.5 - operators.bit_table(rho.n_spins)[:, support]
    size = support.size
    characteristic = np.zeros((size, size), dtype=complex)
    for start in range(0, len(phases), _KICK_BLOCK):
        phi = np.exp(-1j * (phases[start : start + _KICK_BLOCK] @ sz_signs))
        for low in range(0, size, _KICK_ROWS):
            high = low + _KICK_ROWS
            characteristic[low:high, :high] += phi[:, low:high].T @ phi[:, :high].conj()
    for low in range(0, size, _KICK_ROWS):
        high = low + _KICK_ROWS
        characteristic[low:high, high:] = characteristic[high:, low:high].conj().T
    characteristic /= len(phases)
    # C is read at the nonzero elements, whose rows and columns are all
    # supported; every other element is kept as it is.
    position = np.cumsum(supported) - 1
    kicked = values.copy()
    for part, cols in states._class_slices(classes[1:], rho.dim):
        factor = np.take(characteristic, np.maximum(position[cols] + position * size, 0))
        off = kicked[1:][part]
        np.multiply(factor, off, out=off, where=nonzero[part])
    del characteristic
    return kicked


def conditional_flip(rho: DensityMatrix, condition_mask: int, flip_mask: int) -> DensityMatrix:
    """Conjugate by the permutation that flips the ``flip_mask`` bits of
    every basis index whose ``condition_mask`` bits are all set (down).

    With disjoint masks the permutation is an involution, so conjugating
    by it is one reindexing of rows and columns and is its own inverse.
    It moves the elements of each class, in O(D) per class.
    """
    if condition_mask & flip_mask:
        raise ValueError("flipped spins overlap the condition spins")
    if not flip_mask:
        raise ValueError("empty target set")
    dim = rho.dim
    index = np.arange(dim)
    perm = np.where(index & condition_mask == condition_mask, index ^ flip_mask, index)
    classes, values = rho._classes, rho._values
    # Element (r, r ^ x) moves to (perm[r], perm[r ^ x]), of class x or x ^ flip_mask.
    moved = perm ^ perm[index ^ classes[:, None]]
    image_classes = states._class_set(np.concatenate((classes, classes ^ flip_mask)), dim)
    image = np.zeros((image_classes.size, dim), dtype=complex)
    image[np.searchsorted(image_classes, moved), perm] = values
    return DensityMatrix._of_classes(image_classes, image, rho.n_spins)


def controlled_not_all(rho: DensityMatrix, control: int, targets: Sequence[int]) -> DensityMatrix:
    """Conjugate by the collective controlled-NOT, which flips every
    target spin when the control is down.  It is its own inverse."""
    n = rho.n_spins
    return conditional_flip(rho, operators.site_mask([control], n), operators.site_mask(targets, n))


def _check_channel_args(rho: DensityMatrix, noise: NoiseModel, t: float) -> None:
    if noise.n_spins != rho.n_spins:
        raise ValueError(
            f"noise model for {noise.n_spins} spins applied to {rho.n_spins}-spin state"
        )
    _check_time(t, "channel time")


def _check_time(t: float, name: str) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"{name} must be finite and nonnegative, got {t}")
