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

Coherence order of a matrix element ``(r, c)`` is the magnetization
difference ``m(r) - m(c)`` of the two basis states, i.e. the number of
up spins in ``r`` minus the number in ``c``.  A cat state of ``n``
spins carries orders ``-n``, ``0`` and ``+n`` only.

Traces of products are read elementwise in O(D^2), without a matrix
product, and coherence weights are one weighted histogram of
``|rho|^2`` over the element orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from . import operators

TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8
_ENTROPY_EIG_FLOOR = 1e-14


class StateInvariantError(ValueError):
    """A density matrix violated trace, Hermiticity, or positivity."""


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix of an ``n_spins`` register.

    Construction copies ``matrix`` and checks, in order: the dimension,
    unit trace to ``TRACE_TOL``, Hermiticity, and positivity.  For
    positivity ``matrix + POSITIVITY_TOL * I`` must factor by Cholesky;
    only if it does not is the smallest ``eigvalsh`` eigenvalue compared
    with ``-POSITIVITY_TOL``.  The stored copy is bit-identical to the
    input.  A matrix with NaN or inf entries fails the trace or
    Hermiticity check before the factorisation runs.  Nothing but the
    matrix and the register size is stored.
    """

    matrix: np.ndarray
    n_spins: int

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        if operators.n_spins_of(matrix) != self.n_spins:
            raise StateInvariantError(
                f"matrix dimension {matrix.shape[0]} does not match {self.n_spins} spins"
            )
        trace = matrix.trace()
        if abs(trace - 1.0) > TRACE_TOL:
            raise StateInvariantError(f"trace {trace} differs from 1 beyond {TRACE_TOL}")
        if not operators.is_hermitian(matrix):
            raise StateInvariantError("matrix is not Hermitian")
        if not _shifted_cholesky_succeeds(matrix):
            eigmin = float(np.linalg.eigvalsh(matrix)[0])
            if eigmin < -POSITIVITY_TOL:
                raise StateInvariantError(f"negative eigenvalue {eigmin} beyond {POSITIVITY_TOL}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _shifted_cholesky_succeeds(matrix: np.ndarray) -> bool:
    """Whether ``matrix + POSITIVITY_TOL * I`` has a Cholesky factor.

    The shift is added to the diagonal in place and the saved diagonal
    is written back afterwards, so ``matrix`` ends bit-identical and no
    second D x D array is held beside it and the factor.
    """
    diagonal = matrix.diagonal().copy()
    np.fill_diagonal(matrix, diagonal + POSITIVITY_TOL)
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(matrix, diagonal)
    return True


@dataclass(frozen=True)
class CatWeights:
    """Superposition weights (a, b) with ``|a|^2 + |b|^2 = 1``.

    Inputs off unit norm by more than 1e-9 are rejected; smaller
    deviations are renormalized so downstream amplitude identities hold
    to machine precision.
    """

    a: complex
    b: complex

    def __post_init__(self) -> None:
        a = complex(self.a)
        b = complex(self.b)
        norm_sq = abs(a) ** 2 + abs(b) ** 2
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"unnormalized weights: |a|^2 + |b|^2 = {norm_sq}")
        norm = math.sqrt(norm_sq)
        object.__setattr__(self, "a", a / norm)
        object.__setattr__(self, "b", b / norm)

    @classmethod
    def balanced(cls) -> "CatWeights":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)


def basis_state(n_spins: int, amplitudes: Mapping[int, complex], coherent: bool = True) -> DensityMatrix:
    """State supported on a few basis indices.

    With ``coherent`` it is the pure superposition ``sum_k c_k |k>`` of
    ``amplitudes = {k: c_k}``; without, the classical mixture of the
    same basis states with weights ``|c_k|^2``.
    """
    psi = np.zeros(1 << n_spins, dtype=complex)
    psi[list(amplitudes)] = list(amplitudes.values())
    # Written in full: a few entries set in np.zeros leave calloc'd pages
    # that numpy marks for huge pages, which raised the peak RSS of scans.
    matrix = np.outer(psi, psi.conj()) if coherent else np.diag(np.abs(psi) ** 2)
    return DensityMatrix(matrix, n_spins)


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
    return basis_state(n_total, {0: weights.a, (1 << n_total) - 1: weights.b}, coherent=False)


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
    shifted_order = ups[:, None] - ups[None, :] + n
    power = np.abs(rho.matrix) ** 2
    totals = np.bincount(shifted_order.ravel(), weights=power.ravel(), minlength=2 * n + 1)
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
    """Entropy ``-sum(lam * ln lam)`` in nats; eigenvalues below 1e-14 are dropped."""
    eigs = np.linalg.eigvalsh(rho.matrix)
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
