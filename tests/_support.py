"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from spincat import CatWeights, Coupling, DensityMatrix, NoiseModel, ProtocolConfig, SpinSystem
from spincat.dynamics import dephasing_rate_for_lifetime, flip_rate_for_lifetime
from spincat.operators import bit_table, single_spin_operator

REPO_ROOT = Path(__file__).resolve().parent.parent
RING7_CONFIG = REPO_ROOT / "configs" / "ring7.json"


def random_density_matrix(rng: np.random.Generator, n_spins: int) -> DensityMatrix:
    dim = 1 << n_spins
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = a @ a.conj().T
    return DensityMatrix(matrix / matrix.trace(), n_spins)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ring7_system(one_bond_hz: float = 160.0, remote_hz: float = 6.0) -> SpinSystem:
    """Control spin at site 0 plus a symmetric hexagon of six system spins.

    Mirrors the shipped example config: ortho/meta/para ring couplings
    of -60/-12/-8 Hz and heteronuclear couplings to the control.
    """
    ring = list(range(1, 7))
    couplings: list[Coupling] = []
    seen = set()

    def add(a: int, b: int, strength: float, kind: str) -> None:
        pair = (min(a, b), max(a, b))
        if pair not in seen:
            seen.add(pair)
            couplings.append(Coupling(pair[0], pair[1], strength, kind))

    for k in range(6):
        add(ring[k], ring[(k + 1) % 6], -60.0, "homonuclear_dipolar")
    for k in range(6):
        add(ring[k], ring[(k + 2) % 6], -12.0, "homonuclear_dipolar")
    for k in range(3):
        add(ring[k], ring[k + 3], -8.0, "homonuclear_dipolar")
    add(0, 1, one_bond_hz, "heteronuclear_zz")
    for p in ring[1:]:
        add(0, p, remote_hz, "heteronuclear_zz")
    return SpinSystem(7, ("control",) + ("system",) * 6, (0.0,) * 7, tuple(couplings))


def bare_system(n_spins: int) -> SpinSystem:
    """Coupling-free register with the control at site 0."""
    return SpinSystem(n_spins, ("control",) + ("system",) * (n_spins - 1), (0.0,) * n_spins)


def protocol_config(n_spins: int, purity_fraction: float = 0.83) -> ProtocolConfig:
    """A ``protocol_n10``-style run on a bare register: unbalanced
    weights, dephasing calibrated to a 29 ms cat and flips on."""
    return ProtocolConfig(
        system=bare_system(n_spins),
        noise=NoiseModel(
            (dephasing_rate_for_lifetime(0.029, n_spins),) * n_spins,
            (0.0,) + (flip_rate_for_lifetime(0.49),) * (n_spins - 1),
        ),
        weights=CatWeights(0.8, 0.6 * np.exp(1.1j)),
        delay_s=0.021,
        purity_fraction=purity_fraction,
        include_flip_relaxation=True,
    )


def _mask(sites, n_spins: int) -> int:
    """Bitmask of the listed sites; spin 0 is the most significant bit."""
    return sum(1 << (n_spins - 1 - site) for site in sites)


def cat_rotation_unitary(n_total: int, system_sites, weights) -> np.ndarray:
    """Dense reference for step B: rotates ``|all system up>`` to
    ``a|u> + b|d>`` in every sector of the remaining spins."""
    mask = _mask(system_sites, n_total)
    dim = 1 << n_total
    u = np.eye(dim, dtype=complex)
    a, b = weights.a, weights.b
    for base in range(dim):
        if base & mask:
            continue
        up, down = base, base | mask
        u[up, up] = a
        u[down, up] = b
        u[up, down] = -np.conj(b)
        u[down, down] = np.conj(a)
    return u


def _flip_unitary(n_spins: int, condition_mask: int, flip_mask: int) -> np.ndarray:
    dim = 1 << n_spins
    u = np.zeros((dim, dim), dtype=complex)
    for index in range(dim):
        image = index ^ flip_mask if index & condition_mask == condition_mask else index
        u[image, index] = 1.0
    return u


def entangle_unitary(n_total: int, control_site: int, system_sites) -> np.ndarray:
    """Dense reference for step C: flips the control wherever all system spins are down."""
    return _flip_unitary(n_total, _mask(system_sites, n_total), _mask([control_site], n_total))


def controlled_not_unitary(n_spins: int, control: int, targets) -> np.ndarray:
    """Dense reference for step E: flips every target spin when the control is down."""
    return _flip_unitary(n_spins, _mask([control], n_spins), _mask(targets, n_spins))


def coherence_components(rho: np.ndarray, n_spins: int) -> dict[int, np.ndarray]:
    """Fixed-order parts of ``rho``: the order of element ``(r, c)`` is the
    up-spin surplus of ``r`` over ``c``, counted here by explicit popcounts."""
    dim = 1 << n_spins
    components = {q: np.zeros((dim, dim), dtype=complex) for q in range(-n_spins, n_spins + 1)}
    for r in range(dim):
        for c in range(dim):
            q = (n_spins - bin(r).count("1")) - (n_spins - bin(c).count("1"))
            components[q][r, c] = rho[r, c]
    return components


def nq_coherence_operator(n_spins: int, sites=None) -> np.ndarray:
    """Dense highest-order coherence observable: the product of S+ over
    ``sites`` (all spins by default) plus its adjoint."""
    sites = range(n_spins) if sites is None else sites
    mask = _mask(sites, n_spins)
    dim = 1 << n_spins
    raising = np.zeros((dim, dim), dtype=complex)
    for base in range(dim):
        if not base & mask:
            raising[base, base | mask] = 1.0
    return raising + raising.conj().T


def phase_kicks_reference(rho: np.ndarray, n_spins: int, sigma, trajectories: int, seed: int) -> np.ndarray:
    """Per-trajectory reference for ``apply_phase_kicks_mc``: applies each
    trajectory's diagonal unitary ``exp(-i * sum_i phi_i * Sz_i)`` to
    ``rho`` and averages, with the same per-trajectory seeding."""
    sigma = np.asarray(sigma)
    # Sz eigenvalue of every spin in every basis state: +1/2 or -1/2.
    sz_signs = 0.5 - bit_table(n_spins)
    accumulated = np.zeros_like(rho, dtype=complex)
    for child in np.random.SeedSequence(seed).spawn(trajectories):
        rng = np.random.default_rng(child)
        phases = rng.normal(0.0, sigma)
        diag = np.exp(-1j * (phases @ sz_signs))
        accumulated += (diag[:, None] * rho) * diag.conj()[None, :]
    return accumulated / trajectories


def dephasing_reference(rho: np.ndarray, n_spins: int, rates, t: float) -> np.ndarray:
    """Dense reference for ``apply_dephasing``: the decay exponent of every
    element summed over an n x D x D table of differing bits."""
    bits = bit_table(n_spins)
    # decay[r, c] = sum_i gamma_i * [r_i != c_i]
    differs = bits[:, :, None] != bits[:, None, :]
    decay = np.tensordot(np.asarray(rates), differs, axes=1)
    return rho * np.exp(-0.5 * t * decay)


def flip_one_site_reference(matrix: np.ndarray, site: int, n_spins: int, kappa_t: float) -> np.ndarray:
    """Reference for one spin's flip factor, on a 2n-axis view and a
    fresh copy of the matrix."""
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


def hamiltonian_reference(system: SpinSystem) -> np.ndarray:
    """Dense reference for ``build_hamiltonian``: sums of products of
    Kronecker-embedded one-spin operators."""
    n = system.n_spins
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for site, nu in enumerate(system.offsets_hz):
        if nu != 0.0:
            h += (2.0 * math.pi * nu) * single_spin_operator("z", site, n)
    for coupling in system.couplings:
        i, j = coupling.site_a, coupling.site_b
        zz = single_spin_operator("z", i, n) @ single_spin_operator("z", j, n)
        term = 2.0 * zz
        if coupling.kind == "homonuclear_dipolar":
            xx = single_spin_operator("x", i, n) @ single_spin_operator("x", j, n)
            yy = single_spin_operator("y", i, n) @ single_spin_operator("y", j, n)
            term = term - xx - yy
        h += (2.0 * math.pi * coupling.strength_hz) * term
    return h


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray | None, jumps: list[np.ndarray]) -> np.ndarray:
    """Master-equation right-hand side, written independently of the
    package's channel code for use as a brute-force oracle."""
    out = np.zeros_like(rho)
    if hamiltonian is not None:
        out += -1j * (hamiltonian @ rho - rho @ hamiltonian)
    for jump in jumps:
        jd = jump.conj().T
        out += jump @ rho @ jd - 0.5 * (jd @ jump @ rho + rho @ jd @ jump)
    return out


def rk4_evolve(
    rho: np.ndarray,
    t: float,
    steps: int,
    hamiltonian: np.ndarray | None,
    jumps: list[np.ndarray],
) -> np.ndarray:
    """Fixed-step fourth-order Runge-Kutta integration of the master equation."""
    dt = t / steps
    rho = np.array(rho, dtype=complex)
    for _ in range(steps):
        k1 = lindblad_rhs(rho, hamiltonian, jumps)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, hamiltonian, jumps)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, hamiltonian, jumps)
        k4 = lindblad_rhs(rho + dt * k3, hamiltonian, jumps)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho
