"""Shared helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from spincat import Coupling, DensityMatrix, SpinSystem

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
