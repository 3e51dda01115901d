"""Density matrices, reference states, and coherence-order bookkeeping.

A :class:`DensityMatrix` wraps a dense complex matrix together with the
register size and validates the physical invariants on construction:
unit trace, Hermiticity, and positivity up to a small numerical
tolerance.  Violations raise :class:`StateInvariantError`.

Positivity is certified by a Cholesky factorisation of
``rho + POSITIVITY_TOL * I``, which exists, up to rounding, exactly
when every eigenvalue of ``rho`` exceeds ``-POSITIVITY_TOL``, and which
costs a fraction of an eigendecomposition.  Only when the factorisation
fails does ``eigvalsh`` run, and its smallest eigenvalue decides the
verdict, so a rejection always rests on the eigenvalue criterion.  The
factorisation reads the lower triangle only; that is sound because
Hermiticity to ``HERMITIAN_TOL`` (1e-10) is checked first.

Validation runs block by block.  Every state the protocol builds is a
diagonal plus a few off-diagonal nonzeros, so it is block-diagonal
under a permutation of the basis, with blocks of size 1 and 2.  A
matrix of that form is Hermitian, or positive semidefinite, exactly
when each of its blocks is, and its spectrum is the union of the
blocks' spectra.  The nonzero pattern is found in one vectorised pass
over the matrix, 64 rows at a time, which stops as soon as more than D
entries off the diagonal are nonzero.  When it does not stop, the
blocks are the connected components of the pattern's off-diagonal
entries, and an index with none is a 1x1 block.  A denser matrix, such
as a random state or a user's ``.npy`` file, is one block of every
index, read in place.  The blocks of one size form one stack, and
Hermiticity, the certificate and its ``eigvalsh`` fallback run stack by
stack; a 1x1 block is its own eigenvalue.  The state keeps its pattern
and blocks, so :func:`von_neumann_entropy` reads the spectrum block by
block and :func:`coherence_orders` bins the nonzero entries, without
scanning again.

Coherence order of a matrix element ``(r, c)`` is the magnetization
difference ``m(r) - m(c)`` of the two basis states, i.e. the number of
up spins in ``r`` minus the number in ``c``.  A cat state of ``n``
spins carries orders ``-n``, ``0`` and ``+n`` only.

Traces of products are read elementwise in O(D^2), without a matrix
product, and coherence weights are one weighted histogram of
``|rho|^2`` over the element orders: over the nonzero entries of a
state with a pattern, over all D^2 entries of a dense one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from . import operators

TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8
_ENTROPY_EIG_FLOOR = 1e-14
# Rows per slice of the nonzero scan in _nonzero_pattern.
_SCAN_ROWS = 64


class StateInvariantError(ValueError):
    """A density matrix violated trace, Hermiticity, or positivity."""


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix of an ``n_spins`` register.

    Construction checks the register size (an integer from 1 to
    ``MAX_SPINS``, else ``ValueError``) and the dimension before it
    copies ``matrix``, then unit trace to
    ``TRACE_TOL``, Hermiticity and positivity, block by block as the
    module docstring describes.  The stored copy is C-contiguous and
    bit-identical to the input.  A matrix with NaN or inf entries fails
    the trace or Hermiticity check before the factorisation runs.

    Beside the matrix and the register size, the private ``_pattern``
    keeps what validation found: ``(rows, cols, blocks)`` as returned by
    ``_block_structure``, or ``(None, None, [arange(D)[None, :]])``, one
    block of every index, for a dense matrix.  It is not an init
    argument, not shown by ``repr`` and not compared.
    """

    matrix: np.ndarray
    n_spins: int
    _pattern: tuple[np.ndarray | None, np.ndarray | None, list[np.ndarray]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        operators._check_register_size(self.n_spins)
        given = np.asarray(self.matrix)
        if operators.n_spins_of(given) != self.n_spins:
            raise StateInvariantError(
                f"matrix dimension {given.shape[0]} does not match {self.n_spins} spins"
            )
        matrix = np.array(given, dtype=complex, order="C")
        trace = matrix.trace()
        if abs(trace - 1.0) > TRACE_TOL:
            raise StateInvariantError(f"trace {trace} differs from 1 beyond {TRACE_TOL}")
        # A dense matrix is one block of every index.
        structure = _block_structure(matrix) or (
            None, None, [np.arange(matrix.shape[0])[None, :]]
        )
        stacks = [_gather(matrix, index) for index in structure[2]]
        if not all(operators.is_hermitian(stack) for stack in stacks):
            raise StateInvariantError("matrix is not Hermitian")
        eigmin = _uncertified_eigmin(stacks)
        if eigmin < -POSITIVITY_TOL:
            raise StateInvariantError(f"negative eigenvalue {eigmin} beyond {POSITIVITY_TOL}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_pattern", structure)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _block_structure(
    matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None:
    """Nonzero entries and diagonal blocks of a C-contiguous complex
    square matrix, or ``None`` when more than D entries off the diagonal
    are nonzero.

    Otherwise returns ``(rows, cols, blocks)``: ``matrix[rows, cols]``
    are the nonzero entries in C order, exactly as ``np.nonzero`` lists
    them, and ``blocks`` partitions the indices.  Two indices share a
    block when a chain of off-diagonal nonzeros, in either triangle,
    joins them; an index with none is a 1x1 block.  Each block lists its
    indices in ascending order, so its lower triangle lies in the
    matrix's lower triangle, and the blocks of one size ``k`` form one
    ``(m, k)`` array.
    """
    pattern = _nonzero_pattern(matrix)
    if pattern is None:
        return None
    rows, cols = pattern
    off = rows != cols
    parent: dict[int, int] = {}

    def root(i: int) -> int:
        parent.setdefault(i, i)
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r, c in zip(rows[off].tolist(), cols[off].tolist()):
        parent[root(r)] = root(c)
    components: dict[int, list[int]] = {}
    for i in sorted(parent):
        components.setdefault(root(i), []).append(i)
    by_size: dict[int, list[list[int]]] = {}
    for members in components.values():
        by_size.setdefault(len(members), []).append(members)
    touched = np.zeros(matrix.shape[0], dtype=bool)
    touched[list(parent)] = True
    blocks = [np.flatnonzero(~touched)[:, None]]
    blocks += [np.array(members) for _, members in sorted(by_size.items())]
    return rows, cols, blocks


def _nonzero_pattern(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``np.nonzero(matrix)``, or ``None`` once more than D entries off the
    diagonal are found nonzero.

    The ``float64`` view of the matrix is scanned ``_SCAN_ROWS`` rows at
    a time.  An entry's real and imaginary parts sit side by side, so
    halving a part's flat index gives the entry's, and an entry with both
    parts nonzero appears twice in a row.  A part compares as nonzero as
    in ``np.nonzero``: ``-0.0`` is zero, NaN is not.  Temporaries span
    one slice, and a dense matrix stops after its first.
    """
    dim = matrix.shape[0]
    parts = matrix.view(np.float64)
    diagonal_nonzero = matrix.diagonal() != 0
    found: list[np.ndarray] = []
    off_diagonal = 0
    for start in range(0, dim, _SCAN_ROWS):
        stop = min(start + _SCAN_ROWS, dim)
        entries = np.flatnonzero(parts[start:stop] != 0) >> 1
        if entries.size > 1:
            entries = entries[np.concatenate(([True], entries[1:] != entries[:-1]))]
        off_diagonal += entries.size - np.count_nonzero(diagonal_nonzero[start:stop])
        if off_diagonal > dim:
            return None
        found.append(entries + start * dim)
    rows, cols = np.divmod(np.concatenate(found), dim)
    return rows, cols


def _gather(matrix: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The ``(m, k, k)`` stack of blocks ``matrix[index[j]][:, index[j]]``;
    a block of every index is the view ``matrix[None]``, not a copy."""
    if index.shape[1] == matrix.shape[0]:
        return matrix[None]
    return matrix[index[:, :, None], index[:, None, :]]


def _block_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each block of the ``(m, k, k)`` stack, shape
    ``(m, k)``; a 1x1 block is its own eigenvalue."""
    if stack.shape[-1] == 1:
        return stack.real[:, :, 0]
    return np.linalg.eigvalsh(stack)


def _uncertified_eigmin(stacks: list[np.ndarray]) -> float:
    """Smallest eigenvalue of the blocks the shifted Cholesky does not
    certify, and of every 1x1 block; ``inf`` when there are none.

    A rejection thus reads the smallest eigenvalue of the whole matrix:
    every certified block has all its eigenvalues above
    ``-POSITIVITY_TOL``.
    """
    eigmin = math.inf
    for stack in stacks:
        if stack.shape[-1] > 1 and _shifted_cholesky_succeeds(stack):
            continue
        eigmin = min(eigmin, float(_block_eigenvalues(stack).min(initial=math.inf)))
    return eigmin


def _shifted_cholesky_succeeds(stack: np.ndarray) -> bool:
    """Whether every block of the ``(m, k, k)`` stack plus
    ``POSITIVITY_TOL * I`` has a Cholesky factor.

    The shift is added to the diagonals in place and the saved diagonals
    are written back afterwards, so ``stack`` ends bit-identical, and a
    whole matrix, whose stack is a view of it, is factorised without a
    second D x D array beside it and the factor.
    """
    diagonals = np.einsum("...ii->...i", stack)
    saved = diagonals.copy()
    diagonals += POSITIVITY_TOL
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    finally:
        diagonals[...] = saved
    return True


@dataclass(frozen=True)
class CatWeights:
    """Superposition weights (a, b) with ``|a|^2 + |b|^2 = 1``.

    Inputs off unit norm by more than 1e-9, or NaN, are rejected; smaller
    deviations are renormalized so downstream amplitude identities hold
    to machine precision.
    """

    a: complex
    b: complex

    def __post_init__(self) -> None:
        a = complex(self.a)
        b = complex(self.b)
        norm_sq = abs(a) ** 2 + abs(b) ** 2
        if not abs(norm_sq - 1.0) <= 1e-9:
            raise ValueError(f"unnormalized weights: |a|^2 + |b|^2 = {norm_sq}")
        norm = math.sqrt(norm_sq)
        object.__setattr__(self, "a", a / norm)
        object.__setattr__(self, "b", b / norm)

    @classmethod
    def balanced(cls) -> "CatWeights":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)


def basis_state(n_spins: int, amplitudes: Mapping[int, complex]) -> DensityMatrix:
    """Pure superposition ``sum_k c_k |k>`` of ``amplitudes = {k: c_k}``,
    a state supported on a few basis indices."""
    psi = np.zeros(1 << n_spins, dtype=complex)
    psi[list(amplitudes)] = list(amplitudes.values())
    # Written in full: a few entries set in np.zeros leave calloc'd pages
    # that numpy marks for huge pages, which raised the peak RSS of scans.
    return DensityMatrix(np.outer(psi, psi.conj()), n_spins)


def ferro_state(n_spins: int, which: str) -> DensityMatrix:
    """Projector onto the all-up (``which="up"``) or all-down corner state."""
    if which not in ("up", "down"):
        raise ValueError(f"which must be 'up' or 'down', got {which!r}")
    return basis_state(n_spins, {0 if which == "up" else (1 << n_spins) - 1: 1.0})


def cat_state(n_spins: int, weights: CatWeights) -> DensityMatrix:
    """Pure superposition ``a|u> + b|d>`` of the two corner states."""
    return basis_state(n_spins, {0: weights.a, (1 << n_spins) - 1: weights.b})


def decohered_mixture(n_system: int, weights: CatWeights) -> DensityMatrix:
    """Classical mixture left after the entangled pair loses its coherences.

    The entangled pair ``a|up>|u> + b|down>|d>`` of the control (site 0)
    and ``n_system`` spins is the cat of the combined register.
    """
    n_total = n_system + 1
    populations = np.zeros(1 << n_total)
    populations[[0, -1]] = np.abs(np.array([weights.a, weights.b], dtype=complex)) ** 2
    # np.diag writes the matrix in full, for the reason given in basis_state.
    return DensityMatrix(np.diag(populations), n_total)


def thermal_state(n_spins: int, polarization: float = 1e-3) -> DensityMatrix:
    """High-temperature equilibrium state: identity plus a small equal
    polarization on every spin, ``(I + polarization * 2*Sz_total) / D``."""
    if not 0.0 <= polarization < 1.0 / max(n_spins, 1):
        raise ValueError(f"polarization must lie in [0, 1/n_spins), got {polarization}")
    sz_total = operators.sz_eigenvalues(range(n_spins), n_spins)
    matrix = np.diag(1.0 + polarization * 2.0 * sz_total) / (1 << n_spins)
    return DensityMatrix(matrix, n_spins)


def pseudopure(target: DensityMatrix, purity_fraction: float) -> DensityMatrix:
    """Mix ``target`` with the maximally mixed state: ``(1-f)*I/D + f*target``."""
    f = float(purity_fraction)
    if not 0.0 < f <= 1.0:
        raise ValueError(f"purity fraction must lie in (0, 1], got {f}")
    dim = target.dim
    matrix = (1.0 - f) * np.eye(dim, dtype=complex) / dim + f * target.matrix
    return DensityMatrix(matrix, target.n_spins)


def coherence_orders(rho: DensityMatrix) -> dict[int, float]:
    """Frobenius weight of each coherence order ``-n..n``.

    The fixed-order components are elementwise disjoint, so each weight
    is the square root of the sum of ``|rho_rc|^2`` over the elements of
    that order.
    """
    n = rho.n_spins
    ups = n - operators.bit_table(n).sum(axis=0)
    rows, cols = rho._pattern[:2]
    if rows is None:
        shifted_order = (ups[:, None] - ups[None, :] + n).ravel()
        power = np.abs(rho.matrix.ravel()) ** 2
    else:
        # The nonzero entries in C order: the same sums as over the whole
        # matrix, less the exact zeros.
        shifted_order = ups[rows] - ups[cols] + n
        power = np.abs(rho.matrix[rows, cols]) ** 2
    totals = np.bincount(shifted_order, weights=power, minlength=2 * n + 1)
    return {q: float(math.sqrt(totals[q + n])) for q in range(-n, n + 1)}


def reduced_state(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace over every spin not in ``keep``."""
    reduced = operators.partial_trace(rho.matrix, keep)
    return DensityMatrix(reduced, len(keep))


def nq_amplitude(rho: DensityMatrix, sites: Sequence[int] | None = None) -> complex:
    """Highest-order coherence amplitude ``<u|rho|d>`` over the listed spins.

    Spins outside ``sites`` are traced out first.
    """
    if sites is None or list(sites) == list(range(rho.n_spins)):
        matrix = rho.matrix
    else:
        matrix = reduced_state(rho, sites).matrix
    return complex(matrix[0, matrix.shape[0] - 1])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy ``-sum(lam * ln lam)`` in nats; eigenvalues below 1e-14 are dropped.

    The eigenvalues come block by block, from the blocks validation found.
    """
    stacks = (_gather(rho.matrix, index) for index in rho._pattern[2])
    eigs = np.sort(np.concatenate([_block_eigenvalues(stack).ravel() for stack in stacks]))
    eigs = eigs[eigs >= _ENTROPY_EIG_FLOOR]
    return max(float(-np.sum(eigs * np.log(eigs))), 0.0)


def purity(rho: DensityMatrix) -> float:
    """``Tr(rho^2)``, the squared Frobenius norm of a Hermitian ``rho``."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def fidelity(rho: DensityMatrix, target: DensityMatrix) -> float:
    """Overlap ``Tr(rho * target)`` with a pure target state."""
    if abs(purity(target) - 1.0) > 1e-8:
        raise ValueError("fidelity target must be pure (rank one)")
    # Tr(rho T) = sum_rc rho_rc T_cr = sum_rc conj(T_rc) rho_rc for Hermitian T.
    return float(np.vdot(target.matrix, rho.matrix).real)


def expectation(rho: DensityMatrix, observable: np.ndarray) -> complex:
    """``Tr(rho * observable)``; real for Hermitian observables."""
    observable = np.asarray(observable, dtype=complex)
    if observable.shape != rho.matrix.shape:
        raise ValueError("observable dimension does not match the state")
    return complex(np.sum(rho.matrix * observable.T))


def magnetization(rho: DensityMatrix, sites: Sequence[int]) -> float:
    """Expectation of the total Sz over ``sites``, read from the populations."""
    sz = operators.sz_eigenvalues(sites, rho.n_spins)
    return float(np.diagonal(rho.matrix).real @ sz)
