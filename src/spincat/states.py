"""Density matrices, reference states, and coherence-order bookkeeping.

A :class:`DensityMatrix` stores a state of an ``n``-spin register by its
coherence classes.  The class of an element ``(r, c)`` is the pattern
``x = r ^ c`` of spins in which its two basis states differ, and the
state keeps only the classes it occupies: ascending ``classes`` and a
``(K, D)`` array with ``values[k, r] = rho[r, r ^ classes[k]]``.  Class
0, the diagonal, is always kept; a class whose elements are all zero is
dropped.  Every state of the protocol is a diagonal plus one cat
coherence, so it has K = 2 rows and costs O(D); a dense matrix occupies
all ``D`` classes.  The dense matrix itself is built only when
``DensityMatrix.matrix`` is first read, and kept.

Construction validates the physical invariants, and violations raise
:class:`StateInvariantError`:

- unit trace, read from class 0;
- Hermiticity within each class: ``values[k, r ^ x_k]`` must equal
  ``conj(values[k, r])`` to ``HERMITIAN_TOL``;
- positivity up to ``POSITIVITY_TOL``, block by block.

The blocks come from the classes, by one rule.  An index with no
nonzero element off the diagonal is a 1x1 block, and a pair
``(r, r ^ x)`` whose element of class ``x`` is nonzero, in either
triangle, is a 2x2 block.  A matrix is Hermitian, or positive
semidefinite, exactly when each of its blocks is, and its spectrum is
the union of the blocks' spectra.  Every state of the protocol is such
a diagonal plus pairs.  A state with more than D nonzero elements off
the diagonal, such as a random state, or with an index in two pairs,
which only a user's matrix has, is one block of every index: its dense
matrix, built for the factorisation and dropped again.  The blocks of
one size form one stack.  Positivity is certified by a Cholesky
factorisation of each block plus ``POSITIVITY_TOL * I``, which exists,
up to rounding, exactly when every eigenvalue exceeds
``-POSITIVITY_TOL``, and which costs a fraction of an
eigendecomposition.  Only when it fails does ``eigvalsh`` run, and its
smallest eigenvalue decides the verdict, so a rejection always rests on
the eigenvalue criterion.  The factorisation reads the lower triangle
only; that is sound because Hermiticity is checked first.  A 1x1 block
is its own eigenvalue.  The state keeps its blocks, so
:func:`von_neumann_entropy` reads the spectrum block by block without
finding them again.

Coherence order of a matrix element ``(r, c)`` is the magnetization
difference ``m(r) - m(c)`` of the two basis states, i.e. the number of
up spins in ``r`` minus the number in ``c``.  A cat state of ``n``
spins carries orders ``-n``, ``0`` and ``+n`` only.

Traces of products, partial traces and coherence weights are read from
the classes, in O(K·D), without a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from . import operators

TRACE_TOL = 1e-10
# Largest |M - M^dagger| element accepted as Hermitian.
HERMITIAN_TOL = 1e-10
POSITIVITY_TOL = 1e-8
_ENTROPY_EIG_FLOOR = 1e-14
# Elements per slice when a dense matrix is converted to or from its
# classes: bounds the index and value temporaries at 768 KiB.
_SLICE_ELEMENTS = 1 << 15


class StateInvariantError(ValueError):
    """A density matrix violated trace, Hermiticity, or positivity."""


class DensityMatrix:
    """Validated density matrix of an ``n_spins`` register.

    ``DensityMatrix(matrix, n_spins)`` takes a dense ``D x D`` array.  It
    checks the register size (an integer from 1 to ``MAX_SPINS``, else
    ``ValueError``) and the dimension before it reads ``matrix``, gathers
    the occupied classes, and validates them as the module docstring
    describes.  A matrix with NaN or inf entries fails the trace or
    Hermiticity check before the factorisation runs.  The input is
    copied, never modified.

    ``_classes`` and ``_values`` hold the state; ``_values`` is
    read-only.  ``_blocks`` keeps the blocks validation found:
    ``[singles, pairs]``, the ``(m, 1)`` and ``(p, 2)`` index arrays of
    the 1x1 and 2x2 blocks, or ``None`` for one block of every index.
    ``matrix`` is the dense matrix, read-only, built on first access and
    then kept; a dense state holds no D x D array but its classes until
    then.  Every construction, also the
    package's own from classes, runs :meth:`__post_init__` once.
    """

    __slots__ = ("n_spins", "_source", "_classes", "_values", "_blocks", "_dense")

    def __init__(self, matrix: np.ndarray, n_spins: int) -> None:
        object.__setattr__(self, "_source", matrix)
        object.__setattr__(self, "n_spins", n_spins)
        self.__post_init__()

    @classmethod
    def _of_classes(cls, classes: np.ndarray, values: np.ndarray, n_spins: int) -> DensityMatrix:
        """The state whose ascending ``classes``, 0 first, hold ``values``
        and which is zero elsewhere.  The state takes ``values`` over: the
        caller must not write to it."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "_source", _ClassSource(classes, values))
        object.__setattr__(rho, "n_spins", n_spins)
        rho.__post_init__()
        return rho

    def __post_init__(self) -> None:
        operators._check_register_size(self.n_spins)
        source = self._source
        object.__delattr__(self, "_source")
        gathered = type(source) is not _ClassSource
        if gathered:
            given = np.asarray(source)
            if operators.n_spins_of(given) != self.n_spins:
                raise StateInvariantError(
                    f"matrix dimension {given.shape[0]} does not match {self.n_spins} spins"
                )
            classes, values = _classes_of(given)
        else:
            classes, values = source.classes, source.values
        del source
        occupied = values.any(axis=1)
        occupied[0] = True
        if not occupied.all():
            classes, values = classes[occupied], values[occupied]
        trace = values[0].sum()
        if abs(trace - 1.0) > TRACE_TOL:
            raise StateInvariantError(f"trace {trace} differs from 1 beyond {TRACE_TOL}")
        if not _hermitian_classes(classes, values):
            raise StateInvariantError("matrix is not Hermitian")
        blocks = _block_structure(classes, values)
        if blocks is None:
            # One block of every index, factorised as a dense matrix.  The
            # classes of a dense input are read again from it afterwards, so
            # validation holds at most two D x D arrays at once, the factor
            # included.
            dense = _dense_of(classes, values, 1 << self.n_spins)
            if gathered:
                del values
            eigmin = _uncertified_eigmin([dense[None]])
            if gathered:
                values = _classes_of(dense, classes)[1]
            del dense
        else:
            eigmin = _uncertified_eigmin([_stack(classes, values, index) for index in blocks if len(index)])
        if eigmin < -POSITIVITY_TOL:
            raise StateInvariantError(f"negative eigenvalue {eigmin} beyond {POSITIVITY_TOL}")
        values.flags.writeable = False
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_dense", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"DensityMatrix is immutable; cannot set {name!r}")

    def __reduce__(self):
        # Copies and unpickled states are rebuilt, and validated, from the classes.
        return (DensityMatrix._of_classes, (self._classes, np.array(self._values), self.n_spins))

    def __repr__(self) -> str:
        return f"DensityMatrix(n_spins={self.n_spins}, classes={getattr(self, '_classes', None)})"

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``D x D`` matrix, read-only, built on first access."""
        if self._dense is None:
            dense = _dense_of(self._classes, self._values, self.dim)
            dense.flags.writeable = False
            object.__setattr__(self, "_dense", dense)
        return self._dense


class _ClassSource:
    """Classes and values handed to :class:`DensityMatrix` by the package:
    a type no user input has, so a matrix given as nested tuples is never
    read as classes."""

    __slots__ = ("classes", "values")

    def __init__(self, classes: np.ndarray, values: np.ndarray) -> None:
        self.classes = classes
        self.values = values


def _classes_of(
    matrix: np.ndarray, classes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The classes of a dense square matrix and the ``(K, D)`` array of
    their elements ``values[k, r] = matrix[r, r ^ classes[k]]``, as
    ``complex``.

    Without ``classes``, the occupied ones: class 0 and every class with
    a nonzero element, ascending.  An element is nonzero as in
    ``np.nonzero``: ``-0.0`` is zero, NaN is not.  A slice of classes at a
    time is read, so the temporaries stay small.
    """
    dim = matrix.shape[0]
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    row_starts = np.arange(0, dim * dim, dim)
    if classes is None:
        occupied = np.empty(dim, dtype=bool)
        for part, cols in _class_slices(np.arange(dim), dim):
            occupied[part] = flat[cols + row_starts].any(axis=1)
        occupied[0] = True
        classes = np.flatnonzero(occupied)
    values = np.empty((classes.size, dim), dtype=complex)
    for part, cols in _class_slices(classes, dim):
        np.take(flat, cols + row_starts, out=values[part])
    return classes, values


def _dense_of(classes: np.ndarray, values: np.ndarray, dim: int) -> np.ndarray:
    """The dense matrix whose classes ``classes`` hold ``values`` and which
    is zero elsewhere; the inverse of :func:`_classes_of`."""
    dense = np.zeros((dim, dim), dtype=complex)
    flat = dense.reshape(-1)
    row_starts = np.arange(0, dim * dim, dim)
    for part, cols in _class_slices(classes, dim):
        flat[cols + row_starts] = values[part]
    return dense


def _class_slices(classes: np.ndarray, dim: int):
    """Slices of ``classes``, a few thousand elements at a time, each with
    the ``(k, D)`` array of its elements' columns ``r ^ x``."""
    index = np.arange(dim)
    rows = max(1, _SLICE_ELEMENTS // dim)
    for start in range(0, classes.size, rows):
        yield slice(start, start + rows), index ^ classes[start : start + rows, None]


def _mirrors(classes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values[k, r ^ classes[k]]`` for every ``k`` and ``r``: each element's
    transposed partner, which lies in the same class."""
    k, dim = values.shape
    partners = np.arange(dim) ^ classes[:, None]
    partners += np.arange(0, k * dim, dim)[:, None]
    return np.take(np.ascontiguousarray(values).reshape(-1), partners)


def _hermitian_classes(classes: np.ndarray, values: np.ndarray) -> bool:
    """Whether ``|rho[c, r] - conj(rho[r, c])|`` stays within
    ``HERMITIAN_TOL`` for every element; NaN fails.  A slice of classes
    at a time."""
    # inf - inf is NaN, which fails the comparison below without a warning.
    with np.errstate(invalid="ignore"):
        for part, _ in _class_slices(classes, values.shape[1]):
            residual = _mirrors(classes[part], values[part])
            np.conjugate(residual, out=residual)
            residual -= values[part]
            if not np.abs(residual).max(initial=0.0) <= HERMITIAN_TOL:
                return False
    return True


def _block_structure(classes: np.ndarray, values: np.ndarray) -> list[np.ndarray] | None:
    """The diagonal blocks of a state, ``[singles, pairs]``, or ``None`` for
    one block of every index.

    ``singles`` is the ``(m, 1)`` array of the indices with no nonzero
    element off the diagonal.  ``pairs`` is the ``(p, 2)`` array of the
    pairs ``(r, r ^ x)`` of any class ``x`` that hold a nonzero element in
    either triangle, lower index first, in ascending order.  Either may
    be empty.  The result is ``None`` when more than D elements off the
    diagonal are nonzero, checked first so that a dense state builds no
    index array, or when an index lies in two pairs.
    """
    dim = values.shape[1]
    index = np.arange(dim)
    nonzero = values[1:] != 0
    count = np.count_nonzero(nonzero)
    if count > dim:
        return None
    if count == 0:
        return [index[:, None], np.empty((0, 2), dtype=index.dtype)]
    ks, rows = np.nonzero(nonzero)
    cols = rows ^ classes[1:][ks]
    # Each index's partner; an index in two pairs keeps only one of them,
    # and an element of the other then fails the check.
    partner = np.full(dim, -1)
    partner[rows] = cols
    partner[cols] = rows
    if (partner[rows] != cols).any() or (partner[cols] != rows).any():
        return None
    low = np.flatnonzero(index < partner)
    return [np.flatnonzero(partner < 0)[:, None], np.column_stack((low, partner[low]))]


def _class_set(patterns: np.ndarray, dim: int) -> np.ndarray:
    """The distinct ``patterns`` and class 0, ascending, in O(D)."""
    present = np.zeros(dim, dtype=bool)
    present[patterns] = True
    present[0] = True
    return np.flatnonzero(present)


def _read(classes: np.ndarray, values: np.ndarray, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Elements ``rho[rows, rows ^ x]`` (broadcast), zero where class ``x``
    is not occupied."""
    position = np.minimum(np.searchsorted(classes, x), classes.size - 1)
    return np.where(classes[position] == x, values[position, rows], 0.0)


def _stack(classes: np.ndarray, values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The ``(m, k, k)`` stack of blocks ``rho[index[j]][:, index[j]]``."""
    rows = index[:, :, None]
    if index.shape[1] == 1:
        return values[0, rows]
    return _read(classes, values, rows ^ index[:, None, :], rows)


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
    dense matrix is factorised without a second D x D array beside it
    and the factor.
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
    a state supported on a few basis indices.

    Its element ``(i, j)`` is ``c_i * conj(c_j)``, in class ``i ^ j``.
    """
    operators._check_register_size(n_spins)
    dim = 1 << n_spins
    index = np.arange(dim)[list(amplitudes)]
    psi = np.array(list(amplitudes.values()), dtype=complex)
    pattern = index[:, None] ^ index[None, :]
    classes = _class_set(pattern, dim)
    values = np.zeros((classes.size, dim), dtype=complex)
    values[np.searchsorted(classes, pattern), index[:, None]] = psi[:, None] * psi.conj()
    return DensityMatrix._of_classes(classes, values, n_spins)


def _diagonal_state(diagonal: np.ndarray, n_spins: int) -> DensityMatrix:
    """The state with populations ``diagonal`` and no coherences."""
    values = np.asarray(diagonal, dtype=complex)[None, :]
    return DensityMatrix._of_classes(np.zeros(1, dtype=int), values, n_spins)


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
    operators._check_register_size(n_total)
    populations = np.zeros(1 << n_total)
    populations[[0, -1]] = np.abs(np.array([weights.a, weights.b], dtype=complex)) ** 2
    return _diagonal_state(populations, n_total)


def thermal_state(n_spins: int, polarization: float = 1e-3) -> DensityMatrix:
    """High-temperature equilibrium state: identity plus a small equal
    polarization on every spin, ``(I + polarization * 2*Sz_total) / D``."""
    if not 0.0 <= polarization < 1.0 / max(n_spins, 1):
        raise ValueError(f"polarization must lie in [0, 1/n_spins), got {polarization}")
    sz_total = operators.sz_eigenvalues(range(n_spins), n_spins)
    return _diagonal_state((1.0 + polarization * 2.0 * sz_total) / (1 << n_spins), n_spins)


def pseudopure(target: DensityMatrix, purity_fraction: float) -> DensityMatrix:
    """Mix ``target`` with the maximally mixed state: ``(1-f)*I/D + f*target``."""
    f = float(purity_fraction)
    if not 0.0 < f <= 1.0:
        raise ValueError(f"purity fraction must lie in (0, 1], got {f}")
    values = f * target._values
    values[0] += (1.0 - f) / target.dim
    # The mixed part's zeros, added as well: a -0.0 part becomes 0.0.
    values[1:] += 0.0
    return DensityMatrix._of_classes(target._classes, values, target.n_spins)


def coherence_orders(rho: DensityMatrix) -> dict[int, float]:
    """Frobenius weight of each coherence order ``-n..n``.

    The fixed-order components are elementwise disjoint, so each weight
    is the square root of the sum of ``|rho_rc|^2`` over the elements of
    that order, whose order is ``ups[r] - ups[r ^ x]`` in class ``x``.
    """
    n = rho.n_spins
    ups = n - operators.bit_table(n).sum(axis=0)
    classes, values = rho._classes, rho._values
    # The elements in C order, row by row with ascending columns: the same
    # sums as over the whole matrix, whose other elements are zero.  A
    # slice of rows at a time; each slice's sums continue from the totals
    # so far, which lead its weights, so the order of the additions holds.
    bins = np.arange(2 * n + 1)
    totals = np.zeros(bins.size)
    step = max(1, _SLICE_ELEMENTS // classes.size)
    for start in range(0, rho.dim, step):
        rows = np.arange(start, min(start + step, rho.dim))
        cols = rows[:, None] ^ classes
        by_column = np.argsort(cols, axis=1)
        cols = np.take_along_axis(cols, by_column, axis=1)
        power = np.abs(np.take_along_axis(values[:, rows].T, by_column, axis=1)) ** 2
        shifted_order = ups[rows, None] - ups[cols] + n
        totals = np.bincount(
            np.concatenate((bins, shifted_order.ravel())),
            weights=np.concatenate((totals, power.ravel())),
            minlength=bins.size,
        )
    return {q: float(math.sqrt(totals[q + n])) for q in range(-n, n + 1)}


def reduced_state(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace over every spin not in ``keep``.

    Only the classes that differ in no traced spin survive, and each is
    summed over the traced spins' values in O(D): one traced index after
    another, from zero, as ``operators.partial_trace`` sums.
    """
    n = rho.n_spins
    keep = operators._kept_sites(keep, n)
    traced = [site for site in range(n) if site not in keep]
    classes = rho._classes
    kept = classes & operators.site_mask(traced, n) == 0
    # Axes (class, spin 0, ..., spin n-1) to (class, kept spins, traced spins).
    tensor = rho._values[kept].reshape((-1,) + (2,) * n)
    tensor = tensor.transpose([0] + [1 + site for site in keep] + [1 + site for site in traced])
    tensor = tensor.reshape(tensor.shape[0], 1 << len(keep), 1 << len(traced))
    reduced = np.cumsum(tensor, axis=2)[:, :, -1] + 0.0
    bits = (classes[kept, None] >> (n - 1 - np.array(keep))) & 1
    reduced_classes = bits @ (1 << np.arange(len(keep))[::-1])
    return DensityMatrix._of_classes(reduced_classes, reduced, len(keep))


def nq_amplitude(rho: DensityMatrix, sites: Sequence[int] | None = None) -> complex:
    """Highest-order coherence amplitude ``<u|rho|d>`` over the listed spins.

    Spins outside ``sites`` are traced out first.
    """
    if sites is not None and list(sites) != list(range(rho.n_spins)):
        rho = reduced_state(rho, sites)
    return complex(_read(rho._classes, rho._values, np.array(rho.dim - 1), np.array(0)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy ``-sum(lam * ln lam)`` in nats; eigenvalues below 1e-14 are dropped.

    The eigenvalues come block by block, from the blocks validation found.
    """
    if rho._blocks is None:
        stacks = [_dense_of(rho._classes, rho._values, rho.dim)[None]]
    else:
        stacks = [_stack(rho._classes, rho._values, index) for index in rho._blocks if len(index)]
    eigs = np.sort(np.concatenate([_block_eigenvalues(stack).ravel() for stack in stacks]))
    eigs = eigs[eigs >= _ENTROPY_EIG_FLOOR]
    return max(float(-np.sum(eigs * np.log(eigs))), 0.0)


def purity(rho: DensityMatrix) -> float:
    """``Tr(rho^2)``, the squared Frobenius norm of a Hermitian ``rho``."""
    return float(np.vdot(rho._values, rho._values).real)


def fidelity(rho: DensityMatrix, target: DensityMatrix) -> float:
    """Overlap ``Tr(rho * target)`` with a pure target state."""
    if rho.n_spins != target.n_spins:
        raise ValueError("fidelity target and state differ in register size")
    if abs(purity(target) - 1.0) > 1e-8:
        raise ValueError("fidelity target must be pure (rank one)")
    # Tr(rho T) = sum_rc conj(T_rc) rho_rc for Hermitian T, over T's nonzero elements.
    ks, rows = np.nonzero(target._values)
    entries = _read(rho._classes, rho._values, target._classes[ks], rows)
    return float(np.vdot(target._values[ks, rows], entries).real)


def expectation(rho: DensityMatrix, observable: np.ndarray) -> complex:
    """``Tr(rho * observable)``; real for Hermitian observables."""
    observable = np.asarray(observable, dtype=complex)
    if observable.shape != rho.matrix.shape:
        raise ValueError("observable dimension does not match the state")
    return complex(np.sum(rho.matrix * observable.T))


def magnetization(rho: DensityMatrix, sites: Sequence[int]) -> float:
    """Expectation of the total Sz over ``sites``, read from the populations."""
    sz = operators.sz_eigenvalues(sites, rho.n_spins)
    return float(rho._values[0].real @ sz)
