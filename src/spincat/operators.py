"""Dense operator algebra for registers of spin-1/2 particles.

Conventions used throughout the package:

- Basis states of an ``n``-spin register are indexed by integers in
  ``[0, 2**n)``.  Spin 0 occupies the most significant bit.  Bit value
  0 means "up", bit value 1 means "down", so the all-up state ``|u>``
  is index 0 and the all-down state ``|d>`` is index ``2**n - 1``.
- Cartesian spin operators carry the conventional factor 1/2 (``Sz``
  has eigenvalue +1/2 on an up spin).  ``S+ = Sx + i*Sy`` raises a
  down spin to up.
- Hamiltonians are Hermitian matrices in angular-frequency units
  (rad/s); propagators are ``exp(-i*H*t)``.

Everything is dense complex128.  Registers beyond 12 spins are
rejected because a dense matrix no longer fits comfortably in memory.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

MAX_SPINS = 12

# Largest |M - M^dagger| element accepted as Hermitian, for states and generators alike.
HERMITIAN_TOL = 1e-10

SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

_SINGLE = {"x": SX, "y": SY, "z": SZ, "plus": SP, "minus": SM}


def n_spins_of(matrix: np.ndarray) -> int:
    """Register size implied by a square matrix of dimension ``2**n``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    return n


def site_mask(sites: Iterable[int], n_spins: int) -> int:
    """Bitmask with the bit of every listed site set."""
    mask = 0
    for site in sites:
        _check_site(site, n_spins)
        mask |= 1 << (n_spins - 1 - site)
    return mask


def bit_table(n_spins: int) -> np.ndarray:
    """Array of shape ``(n_spins, 2**n_spins)`` with each spin's bit per index."""
    index = np.arange(1 << n_spins)
    shifts = n_spins - 1 - np.arange(n_spins)
    return (index[None, :] >> shifts[:, None]) & 1


def sz_eigenvalues(sites: Sequence[int], n_spins: int) -> np.ndarray:
    """Eigenvalue of the total Sz over ``sites`` for every basis index:
    +1/2 per listed spin that is up, -1/2 per listed spin that is down.
    This is the diagonal of ``total_spin_operator("z", sites, n_spins)``."""
    for site in sites:
        _check_site(site, n_spins)
    return (0.5 - bit_table(n_spins)[list(sites)]).sum(axis=0)


def single_spin_operator(kind: str, site: int, n_spins: int) -> np.ndarray:
    """Embed a one-spin operator into the full register.

    ``kind`` is one of ``x``, ``y``, ``z``, ``plus``, ``minus``.
    """
    if kind not in _SINGLE:
        raise ValueError(f"unknown operator kind {kind!r}")
    _check_register_size(n_spins)
    _check_site(site, n_spins)
    left = np.eye(1 << site, dtype=complex)
    right = np.eye(1 << (n_spins - 1 - site), dtype=complex)
    return np.kron(np.kron(left, _SINGLE[kind]), right)


def total_spin_operator(kind: str, sites: Sequence[int], n_spins: int) -> np.ndarray:
    """Sum of one-spin operators over the listed sites."""
    if len(sites) == 0:
        raise ValueError("empty site list")
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate sites")
    out = np.zeros((1 << n_spins, 1 << n_spins), dtype=complex)
    for site in sites:
        out += single_spin_operator(kind, site, n_spins)
    return out


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary ``exp(-i*h*t)`` of a Hermitian generator, via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    if not is_hermitian(h, HERMITIAN_TOL * scale):
        raise ValueError("generator is not Hermitian")
    if not np.isfinite(t):
        raise ValueError("non-finite time")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out all spins not in ``keep``; kept spins retain their order.

    ``keep`` must be a nonempty set of distinct site indices.  The
    result is a ``2**len(keep)`` square matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_spins_of(rho)
    keep = list(keep)
    if not keep:
        raise ValueError("empty keep list")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate sites in keep list")
    if sorted(keep) != keep:
        raise ValueError("keep list must be in ascending site order")
    for site in keep:
        _check_site(site, n)
    kept = set(keep)
    tensor = rho.reshape((2,) * (2 * n))
    row_labels = list(range(n))
    col_labels = [n + i if i in kept else i for i in range(n)]
    out_labels = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    dim = 1 << len(keep)
    return reduced.reshape(dim, dim)


def is_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    matrix = np.asarray(matrix)
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= tol)


def _check_register_size(n_spins: int) -> None:
    if not isinstance(n_spins, (int, np.integer)) or n_spins < 1:
        raise ValueError(f"register size must be a positive integer, got {n_spins!r}")
    if n_spins > MAX_SPINS:
        raise ValueError(f"register of {n_spins} spins exceeds the dense limit of {MAX_SPINS}")


def _check_site(site: int, n_spins: int) -> None:
    if not isinstance(site, (int, np.integer)) or not 0 <= site < n_spins:
        raise ValueError(f"site {site!r} outside register of {n_spins} spins")
