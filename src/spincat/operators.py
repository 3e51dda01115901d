"""Basis conventions and register layout tables for registers of spin-1/2
particles, and the two operators the package builds as dense matrices.

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

Every table that depends only on the register layout, the map of a spin
to its bit included, is built here on first use and kept, read-only, in
a bounded cache, so a layout in use is worked out once:

- :func:`bit_table`, each spin's bit of every index, per register size;
- ``_popcounts``, the number of down spins of every index, per size;
- ``_sz_table``, the total Sz over a site list, per size and sites;
- ``_site_mask``, the bitmask of a site list, per size and sites;
- ``_trace_plan``, the index tables of a partial trace, per size and
  kept sites;
- ``_flip_permutation``, each index's image under a conditional flip, per
  size and masks; with no condition, its partner ``r ^ flip_mask``;
- ``_pair_table``, the pairs ``(r, r ^ x)`` of a pattern, per size and ``x``.

The caches keyed on sites are typed, so a site such as ``True`` or
``1.0`` is checked on its own first call and never reads the table of
site 1.  None of them holds a state or a noise rate.

Only :func:`total_spin_operator`, the spectrum's ``S+``, and
:func:`partial_trace` build dense complex128 matrices; the rest of the
module is index tables.  Registers beyond 12 spins are rejected because
a dense matrix, which the spectrum and the dense view of a state still
need, no longer fits comfortably in memory.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

MAX_SPINS = 12


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
    """Bitmask with the bit of every listed site set; worked out once per
    ``sites`` and ``n_spins`` and kept."""
    return _site_mask(n_spins, *sites)


# Typed, as _sz_table is: True or 1.0 is checked on its own first call.
@functools.lru_cache(maxsize=64, typed=True)
def _site_mask(n_spins: int, *sites: int) -> int:
    mask = 0
    for site in sites:
        _check_site(site, n_spins)
        mask |= 1 << (n_spins - 1 - site)
    return mask


@functools.lru_cache(maxsize=MAX_SPINS)
def bit_table(n_spins: int) -> np.ndarray:
    """Array of shape ``(n_spins, 2**n_spins)`` with each spin's bit per
    index; built once per register size and kept, so it is read-only.
    The register size is checked before anything is allocated."""
    _check_register_size(n_spins)
    index = np.arange(1 << n_spins)
    shifts = n_spins - 1 - np.arange(n_spins)
    table = (index[None, :] >> shifts[:, None]) & 1
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=MAX_SPINS)
def _popcounts(n_spins: int) -> np.ndarray:
    """Number of down spins, set bits, of every basis index; built once
    per register size and kept, so it is read-only."""
    table = bit_table(n_spins).sum(axis=0)
    table.flags.writeable = False
    return table


def sz_eigenvalues(sites: Sequence[int], n_spins: int) -> np.ndarray:
    """Eigenvalue of the total Sz over ``sites`` for every basis index:
    +1/2 per listed spin that is up, -1/2 per listed spin that is down.
    Like :func:`total_spin_operator`, it rejects a site listed twice.  The
    table is built once per ``sites`` and ``n_spins`` and kept, so it is
    read-only."""
    return _sz_table(n_spins, *sites)


# Typed, so that a site that equals a valid one, such as True or 1.0, is
# checked on its own first call instead of reading the valid one's table.
# A rejected list is never cached, so it is checked on every call.
@functools.lru_cache(maxsize=64, typed=True)
def _sz_table(n_spins: int, *sites: int) -> np.ndarray:
    _check_sites(sites, n_spins)
    table = (0.5 - bit_table(n_spins)[list(sites)]).sum(axis=0)
    table.flags.writeable = False
    return table


def total_spin_operator(kind: str, sites: Sequence[int], n_spins: int) -> np.ndarray:
    """Sum over the listed sites of the one-spin raising operator ``S+``,
    the only ``kind``, ``"plus"``, that the package builds.

    ``S+`` is 1 at ``(r ^ b_i, r)`` for every index ``r`` in which site
    ``i`` is down.  The total Sz is the diagonal of :func:`sz_eigenvalues`.
    """
    if kind != "plus":
        raise ValueError(f"unknown operator kind {kind!r}")
    _check_register_size(n_spins)
    if len(sites) == 0:
        raise ValueError("empty site list")
    _check_sites(sites, n_spins)  # before the D x D allocation
    dim = 1 << n_spins
    out = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    for site in sites:
        bit = site_mask([site], n_spins)
        down = index[(index & bit) != 0]
        out[down ^ bit, down] = 1.0
    return out


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
    _check_sites(keep, n_spins)
    if sorted(keep) != keep:
        raise ValueError("keep list must be in ascending site order")
    return keep


class _TracePlan(NamedTuple):
    """A partial trace of one register layout; see :func:`_trace_plan`."""

    traced_mask: int
    order: np.ndarray
    shape: tuple[int, int]
    reduced_classes: np.ndarray


# Typed, as _sz_table is: True or 1.0 is checked on its own first call.
@functools.lru_cache(maxsize=32, typed=True)
def _trace_plan(n_spins: int, *keep: int) -> _TracePlan:
    """The partial trace of an ``n_spins`` register onto the sites
    ``keep``, checked as :func:`partial_trace` checks them, built once and
    kept, its arrays read-only:

    - ``traced_mask``, the bits of the traced spins;
    - ``order``, every basis index with the kept spins' bits first and the
      traced spins' after, each in site order: ``order.reshape(shape)[k, t]``
      is the index whose kept spins read ``k`` and traced spins ``t``;
    - ``shape``, ``(2**kept, 2**traced)``;
    - ``reduced_classes``, the pattern of the kept spins' bits of every
      pattern, as a pattern of the reduced register.
    """
    keep = _kept_sites(keep, n_spins)
    traced = [site for site in range(n_spins) if site not in keep]
    weights = 1 << np.arange(len(keep))[::-1]
    reduced_classes = weights @ bit_table(n_spins)[keep]
    order = np.arange(1 << n_spins).reshape((2,) * n_spins).transpose(keep + traced).reshape(-1)
    order.flags.writeable = False
    reduced_classes.flags.writeable = False
    return _TracePlan(
        sum(1 << (n_spins - 1 - site) for site in traced),
        order,
        (1 << len(keep), 1 << len(traced)),
        reduced_classes,
    )


@functools.lru_cache(maxsize=32, typed=True)
def _flip_permutation(
    n_spins: int, condition_mask: int, flip_mask: int
) -> tuple[np.ndarray, np.ndarray]:
    """The basis indices and their images under the permutation that flips
    the ``flip_mask`` bits of every index whose ``condition_mask`` bits are
    all set (down); kept, so both are read-only."""
    index = np.arange(1 << n_spins)
    perm = np.where(index & condition_mask == condition_mask, index ^ flip_mask, index)
    index.flags.writeable = False
    perm.flags.writeable = False
    return index, perm


@functools.lru_cache(maxsize=32)
def _pair_table(n_spins: int, pattern: int) -> np.ndarray:
    """Every pair ``(r, r ^ pattern)`` of an ``n_spins`` register, lower
    index first and ascending, as a ``(p, 2)`` array; none for pattern 0.
    Built once per register size and pattern and kept, so it is
    read-only."""
    index = np.arange(1 << n_spins)
    low = index[index < index ^ pattern]
    table = np.stack((low, low ^ pattern), axis=1)
    table.flags.writeable = False
    return table


def _check_register_size(n_spins: int) -> None:
    if not _is_integer(n_spins) or n_spins < 1:
        raise ValueError(f"register size must be a positive integer, got {n_spins!r}")
    if n_spins > MAX_SPINS:
        raise ValueError(f"register of {n_spins} spins exceeds the dense limit of {MAX_SPINS}")


def _check_site(site: int, n_spins: int) -> None:
    if not _is_integer(site) or not 0 <= site < n_spins:
        raise ValueError(f"site {site!r} outside register of {n_spins} spins")


def _check_sites(sites: Sequence[int], n_spins: int) -> None:
    """Every site lies in the register, and none is listed twice."""
    for site in sites:
        _check_site(site, n_spins)
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate sites")


def _check_seed(seed: int) -> None:
    """A library seed must be a non-negative integer; ``bool`` is not one."""
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
