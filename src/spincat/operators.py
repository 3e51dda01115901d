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
  (rad/s).

Operators are written from the index structure of the basis, with no
Kronecker products: ``Sz`` is diagonal, and ``S+`` of spin ``i`` maps
index ``r`` to ``r ^ b_i`` wherever spin ``i`` of ``r`` is down, where
``b_i`` is the bit of spin ``i``.

The operators here are dense complex128 matrices.  Registers beyond 12
spins are rejected because a dense matrix, which the spectrum and the
dense view of a state still need, no longer fits comfortably in memory.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

MAX_SPINS = 12

_KINDS = ("x", "y", "z", "plus", "minus")


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


def total_spin_operator(kind: str, sites: Sequence[int], n_spins: int) -> np.ndarray:
    """Sum over the listed sites of one-spin operators of ``kind``, one of
    ``x``, ``y``, ``z``, ``plus``, ``minus``.

    ``S+`` is 1 at ``(r ^ b_i, r)`` for every index ``r`` in which site
    ``i`` is down; ``S-`` is its transpose, ``Sx = (S+ + S-)/2``,
    ``Sy = (S+ - S-)/(2i)``, and ``Sz`` is the diagonal of
    :func:`sz_eigenvalues`.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    _check_register_size(n_spins)
    if len(sites) == 0:
        raise ValueError("empty site list")
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate sites")
    # Every site is checked before the D x D allocation.
    bits = [site_mask([site], n_spins) for site in sites]
    dim = 1 << n_spins
    out = np.zeros((dim, dim), dtype=complex)
    if kind == "z":
        np.fill_diagonal(out, sz_eigenvalues(sites, n_spins))
        return out
    index = np.arange(dim)
    for bit in bits:
        down = index[(index & bit) != 0]
        out[down ^ bit, down] = 1.0
    if kind == "plus":
        return out
    if kind == "minus":
        return np.ascontiguousarray(out.T)
    if kind == "x":
        return 0.5 * (out + out.T)
    return -0.5j * (out - out.T)


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out all spins not in ``keep``; kept spins retain their order.

    ``keep`` must be a nonempty set of distinct site indices.  The
    result is a ``2**len(keep)`` square matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_spins_of(rho)
    keep = _kept_sites(keep, n)
    kept = set(keep)
    tensor = rho.reshape((2,) * (2 * n))
    row_labels = list(range(n))
    col_labels = [n + i if i in kept else i for i in range(n)]
    out_labels = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    dim = 1 << len(keep)
    return reduced.reshape(dim, dim)


def _is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer; ``bool`` is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _kept_sites(keep: Sequence[int], n_spins: int) -> list[int]:
    """``keep`` as a list, checked to be a nonempty ascending list of
    distinct sites of the register."""
    keep = list(keep)
    if not keep:
        raise ValueError("empty keep list")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate sites in keep list")
    if sorted(keep) != keep:
        raise ValueError("keep list must be in ascending site order")
    for site in keep:
        _check_site(site, n_spins)
    return keep


def _check_register_size(n_spins: int) -> None:
    if not _is_integer(n_spins) or n_spins < 1:
        raise ValueError(f"register size must be a positive integer, got {n_spins!r}")
    if n_spins > MAX_SPINS:
        raise ValueError(f"register of {n_spins} spins exceeds the dense limit of {MAX_SPINS}")


def _check_site(site: int, n_spins: int) -> None:
    if not _is_integer(site) or not 0 <= site < n_spins:
        raise ValueError(f"site {site!r} outside register of {n_spins} spins")
