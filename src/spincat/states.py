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

A state comes in by one of two ways.  ``DensityMatrix(matrix, n_spins)``
gathers a dense matrix into its occupied classes; the package's own
constructors hand in classes and values, and never build the dense
matrix.  Both ways make one call to the same validation.

Construction validates the physical invariants, in this order, and
violations raise :class:`StateInvariantError`:

- unit trace, read from class 0;
- Hermiticity: ``values[k, r ^ x_k]`` must equal ``conj(values[k, r])``
  to ``HERMITIAN_TOL`` in every class;
- positivity up to ``POSITIVITY_TOL``, block by block; a NaN
  eigenvalue, which ``eigvalsh`` returns where the spectrum overflows,
  fails it.

The blocks come from the class set, by one rule.  A state of class 0
and at most one other class ``x`` is made of blocks by construction: the
indices ``r`` and ``r ^ x`` meet only in the pair ``(r, r ^ x)``.  A
pair whose element is nonzero, in either triangle, is a 2x2 block, and
every index outside such a pair is a 1x1 block.  A matrix is Hermitian,
or positive semidefinite, exactly when each of its blocks is, and its
spectrum is the union of the blocks' spectra, which for 1x1 and 2x2
blocks have a closed form.  Every state of the protocol is populations
plus the one coherence between the all-up and all-down corners, so it
is such a state.  The pairs are read from the last class row, ``x``'s,
against a table of the class's pairs kept per register size and pattern.

A state of three or more classes, such as a random state or a user's
matrix with pairs in several classes, is one block of every index: its
dense matrix, built for the check and dropped again.  Its positivity is
certified by a Cholesky factorisation of the matrix plus
``POSITIVITY_TOL * I``, which exists, up to rounding, exactly when every
eigenvalue exceeds ``-POSITIVITY_TOL``, and which costs a fraction of an
eigendecomposition; only when it fails does ``eigvalsh`` run.  Either way
the smallest eigenvalue decides the verdict, so a rejection always rests
on the eigenvalue criterion.  The closed form, the factorisation and
``eigvalsh`` read the lower triangle only; that is sound because
Hermiticity is checked before them.  The state keeps its pairs, so
:func:`von_neumann_entropy` and the Monte Carlo kick read them without
finding them again.

The pairs are read between the trace and Hermiticity, and they say where
Hermiticity is read.  A state of pairs is nonzero only on its diagonal
and at each pair's two elements, so it is checked there, in one pass;
the residuals are those of every class at its only nonzero elements.
Occupancy reads the coherence row only, as class 0 is kept anyway.  A
sum is finite exactly when every term is, so a trace that passed is NaN
only for a non-finite diagonal.  Positivity reads the real diagonal with
both entries of each pair set to the pair's smaller eigenvalue; the
larger, no smaller after rounding, is never formed.  A state checked
whole is checked over every element of every class.  Non-finite sums
and residuals fail their checks without a floating-point warning.

Coherence order of a matrix element ``(r, c)`` is the magnetization
difference ``m(r) - m(c)`` of the two basis states, i.e. the number of
up spins in ``r`` minus the number in ``c``.  A cat state of ``n``
spins carries orders ``-n``, ``0`` and ``+n`` only.

Traces of products, partial traces and coherence weights are read from
the classes, in O(K·D), without a matrix product.  The coherence weights
are summed class by class, a slice of classes at a time.  In every
state the package builds, each order's nonzero terms come from one
class, in ascending row order, so the weights equal those of one
histogram over the whole matrix bit for bit; for any other state they
agree with it within a relative 1e-13.
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
# Largest |Tr(rho^2) - 1| of a target that fidelity accepts as pure.
PURITY_TOL = 1e-8
# Largest ||a|^2 + |b|^2 - 1| of CatWeights renormalized rather than rejected.
CAT_NORM_TOL = 1e-9
_ENTROPY_EIG_FLOOR = 1e-14
# Elements per slice when classes are read a slice at a time: to convert
# a dense matrix to or from its classes, to check Hermiticity and to sum
# coherence weights.  Bounds the index and value temporaries at 768 KiB.
_SLICE_ELEMENTS = 1 << 15


class StateInvariantError(ValueError):
    """A density matrix violated trace, Hermiticity, or positivity."""


class DensityMatrix:
    """Validated density matrix of an ``n_spins`` register.

    ``DensityMatrix(matrix, n_spins)`` takes a dense ``D x D`` array and
    gathers its occupied classes; the package's constructors hand in
    classes and values through :meth:`_of_classes`.  Either way
    :meth:`__post_init__` runs once: it checks the register size (an
    integer from 1 to ``MAX_SPINS``, else ``ValueError``), and, for a
    matrix, the dimension before it reads the elements, and then
    validates the classes as the module docstring describes: trace, then
    the pairs of a state of at most two classes, then Hermiticity and
    positivity, in one pass over the diagonal and the pairs or over every
    class.  A matrix with NaN or inf entries fails the trace or
    Hermiticity check before any eigenvalue is read.  The input is
    copied, never modified.

    ``_classes`` and ``_values`` hold the state; ``_values`` is
    read-only.  ``_blocks`` keeps the pairs validation read, the
    ``(p, 2)`` index array of the 2x2 blocks, lower index first and
    ascending, with every other index a 1x1 block; their elements lie in
    the last class row, ``_values[-1]``.  It is ``None`` for a state of
    three or more classes, one block of every index.
    ``matrix`` is the dense matrix, read-only, built on first access and
    then kept; a dense state holds no D x D array but its classes until
    then.
    """

    __slots__ = ("n_spins", "_classes", "_values", "_blocks", "_dense")

    def __init__(self, matrix: np.ndarray, n_spins: int) -> None:
        self.__post_init__(n_spins, matrix)

    @classmethod
    def _of_classes(cls, classes: np.ndarray, values: np.ndarray, n_spins: int) -> DensityMatrix:
        """The state whose ascending ``classes``, 0 first, hold ``values``
        and which is zero elsewhere, validated as every state is: a class
        left all zero is dropped, and a state left with at most two classes
        is read as pairs.  The state takes ``values`` over: the caller must
        not write to it."""
        rho = cls.__new__(cls)
        rho.__post_init__(n_spins, classes=classes, values=values)
        return rho

    # Named as the package's dataclasses name their validation, because
    # perfbench traces every construction through ``__post_init__``.
    @np.errstate(invalid="ignore", over="ignore")
    def __post_init__(
        self,
        n_spins: int,
        matrix: np.ndarray | None = None,
        *,
        classes: np.ndarray | None = None,
        values: np.ndarray | None = None,
    ) -> None:
        operators._check_register_size(n_spins)
        gathered = classes is None
        if gathered:
            given = np.asarray(matrix)
            if operators.n_spins_of(given) != n_spins:
                raise StateInvariantError(
                    f"matrix dimension {given.shape[0]} does not match {n_spins} spins"
                )
            classes, values = _classes_of(given)
        if classes.size > 2:
            occupied = values.any(axis=1)
            occupied[0] = True
            if not occupied.all():
                classes, values = classes[occupied], values[occupied]
        elif classes.size == 2 and not values[1].any():
            # Class 0 alone, copied as the boolean selection above copies it.
            classes, values = classes[:1], values[:1].copy()
        trace = values[0].sum()
        if abs(trace - 1.0) > TRACE_TOL:
            raise StateInvariantError(f"trace {trace} differs from 1 beyond {TRACE_TOL}")
        pairs = _pairs_of(classes, values, n_spins)
        if pairs is None:
            if not _hermitian_classes(classes, values):
                raise StateInvariantError("matrix is not Hermitian")
            # One block of every index, factorised as a dense matrix.  The
            # classes of a dense input are read again from it afterwards, so
            # validation holds at most two D x D arrays at once, the factor
            # included.
            dense = _dense_of(classes, values, 1 << n_spins)
            if gathered:
                del values
            eigmin = _uncertified_eigmin(dense)
            if gathered:
                values = _classes_of(dense, classes)[1]
            del dense
        else:
            # A NaN trace is a non-finite diagonal.  On a finite one the
            # residual is 2|Im d|, and |Im d| meets the exactly halved tolerance.
            if trace != trace or not np.abs(values[0].imag).max() <= 0.5 * HERMITIAN_TOL:
                raise StateInvariantError("matrix is not Hermitian")
            spectrum = values[0].real
            if pairs.size:
                upper, lower = values[-1].take(pairs.T)
                if not np.abs(np.conj(upper) - lower).max() <= HERMITIAN_TOL:
                    raise StateInvariantError("matrix is not Hermitian")
                # Both entries of each pair: its smaller eigenvalue, as
                # _block_spectrum computes it.
                p, q = (0.5 * spectrum[pairs]).T
                spectrum = spectrum.copy()
                spectrum[pairs] = ((p + q) - np.hypot(p - q, np.abs(lower)))[:, None]
            eigmin = float(spectrum.min())
        # NaN, from an eigvalsh that overflowed, fails this comparison.
        if not eigmin >= -POSITIVITY_TOL:
            raise StateInvariantError(f"negative eigenvalue {eigmin} beyond {POSITIVITY_TOL}")
        values.flags.writeable = False
        object.__setattr__(self, "n_spins", n_spins)
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_blocks", pairs)
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


def _mirrors(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``values[k, cols[k, r]]``; with the columns ``r ^ x_k`` of
    :func:`_class_slices`, each element's transposed partner in its class."""
    k, dim = cols.shape
    return values.take(cols + np.arange(0, k * dim, dim)[:, None])


def _hermitian_classes(classes: np.ndarray, values: np.ndarray) -> bool:
    """Whether ``|rho[c, r] - conj(rho[r, c])|`` stays within
    ``HERMITIAN_TOL`` for every element; NaN fails.  A slice of classes
    at a time, under the validation's floating-point error state."""
    for part, cols in _class_slices(classes, values.shape[1]):
        residual = _mirrors(values[part], cols)
        np.conjugate(residual, out=residual)
        residual -= values[part]
        if not np.abs(residual).max(initial=0.0) <= HERMITIAN_TOL:
            return False
    return True


def _pairs_of(classes: np.ndarray, values: np.ndarray, n_spins: int) -> np.ndarray | None:
    """The pairs of a state of class 0 and at most one other class ``x``,
    or ``None`` for a state of more classes, one block of every index.

    The pairs are the ``(p, 2)`` array of the pairs ``(r, r ^ x)``, lower
    index first and ascending, whose element in the last class row is
    nonzero in either triangle, as in ``np.nonzero``: ``-0.0`` is zero,
    NaN is not.  Every other index is a 1x1 block.  A state of class 0
    alone has none.
    """
    if classes.size > 2:
        return None
    table = operators._pair_table(n_spins, int(classes[-1]))
    if classes.size == 1:
        return table
    nonzero = values[-1] != 0
    return table[nonzero[table[:, 0]] | nonzero[table[:, 1]]]


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


def _block_spectrum(diagonal: np.ndarray, pairs: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian state with real ``diagonal`` whose
    ``pairs`` hold ``lower``, in index order: the diagonal, with each
    pair's two entries replaced by its smaller and its larger eigenvalue.

    An index outside every pair is its own eigenvalue, its diagonal
    element.  A pair ``(low, high)`` is the block ``[[p, conj(c)], [c, q]]``
    with ``c = rho[high, low]``, its element in ``lower``, which
    ``eigvalsh`` also reads; its eigenvalues are
    ``(p + q)/2 -+ hypot((p - q)/2, |c|)``.
    """
    low, high = pairs.T
    # Halved before they are added, exactly above the subnormal range, so
    # that finite p and q never overflow and an overflowing |c| gives -inf,
    # not NaN.
    p, q = 0.5 * diagonal[low], 0.5 * diagonal[high]
    mean = p + q
    radius = np.hypot(p - q, np.abs(lower))
    spectrum = diagonal.copy()
    spectrum[low] = mean - radius
    spectrum[high] = mean + radius
    return spectrum


def _uncertified_eigmin(dense: np.ndarray) -> float:
    """Smallest eigenvalue of the whole matrix ``dense``, or ``inf`` when a
    Cholesky factor of ``dense + POSITIVITY_TOL * I`` certifies that every
    eigenvalue exceeds ``-POSITIVITY_TOL``.

    The shift is added to the diagonal in place and the saved diagonal is
    written back afterwards, so ``dense`` ends bit-identical, and it is
    factorised without a second D x D array beside it and the factor.
    """
    diagonal = np.einsum("ii->i", dense)
    saved = diagonal.copy()
    diagonal += POSITIVITY_TOL
    try:
        np.linalg.cholesky(dense)
        certified = True
    except np.linalg.LinAlgError:
        certified = False
    finally:
        diagonal[...] = saved
    return math.inf if certified else float(np.linalg.eigvalsh(dense)[0])


@dataclass(frozen=True)
class CatWeights:
    """Superposition weights (a, b) with ``|a|^2 + |b|^2 = 1``.

    Inputs off unit norm by more than ``CAT_NORM_TOL``, or NaN, are rejected; smaller
    deviations are renormalized so downstream amplitude identities hold
    to machine precision.
    """

    a: complex
    b: complex

    def __post_init__(self) -> None:
        a = complex(self.a)
        b = complex(self.b)
        norm_sq = abs(a) ** 2 + abs(b) ** 2
        if not abs(norm_sq - 1.0) <= CAT_NORM_TOL:
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
    Every key must be an integer in ``[0, D)``; a mapping's keys are
    distinct, so then no index is named twice.
    """
    operators._check_register_size(n_spins)
    dim = 1 << n_spins
    for key in amplitudes:
        if not (operators._is_integer(key) and 0 <= key < dim):
            raise ValueError(f"basis index {key!r} is not an integer in [0, {dim})")
    index = np.array(list(amplitudes), dtype=np.intp)
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
    _check_purity_fraction(f)
    values = f * target._values
    values[0] += (1.0 - f) / target.dim
    # The mixed part's zeros, added as well: a -0.0 part becomes 0.0.
    values[1:] += 0.0
    return DensityMatrix._of_classes(target._classes, values, target.n_spins)


def _check_purity_fraction(f: float) -> None:
    if not 0.0 < f <= 1.0:
        raise ValueError(f"purity_fraction must lie in (0, 1], got {f}")


def coherence_orders(rho: DensityMatrix) -> dict[int, float]:
    """Frobenius weight of each coherence order ``-n..n``.

    The fixed-order components are elementwise disjoint, so each weight
    is the square root of the sum of ``|rho_rc|^2`` over the elements of
    that order, whose order is ``ups[r] - ups[r ^ x]`` in class ``x``.
    The sums run class by class, a slice of classes at a time, and within
    a class by ascending row.  Every state the package builds is class 0
    plus at most one class ``x``, whose nonzero elements pair the all-up
    and all-down settings of ``x``'s spins and so have order ``+-|x|``,
    never 0.  Each order's nonzero terms then come from one class, in
    ascending row order, and the weights equal those of one histogram
    over the whole matrix bit for bit.  For any other state the additions
    come in another order, and the weights agree within a relative 1e-13.
    """
    n = rho.n_spins
    ups = n - operators._popcounts(n)
    totals = np.zeros(2 * n + 1)
    for part, cols in _class_slices(rho._classes, rho.dim):
        order = ups - ups[cols] + n
        power = np.abs(rho._values[part]) ** 2
        totals += np.bincount(order.ravel(), weights=power.ravel(), minlength=totals.size)
    return dict(zip(range(-n, n + 1), np.sqrt(totals).tolist()))


def reduced_state(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace over every spin not in ``keep``.

    Only the classes that differ in no traced spin survive, and each is
    summed over the traced spins' values in O(D): one traced index after
    another, from zero, as ``operators.partial_trace`` sums.  The index
    tables of the trace are built once per register size and ``keep``.
    """
    plan = operators._trace_plan(rho.n_spins, *keep)
    classes = rho._classes
    kept = classes & plan.traced_mask == 0
    # Each row (class) to (kept spins, traced spins), the traced ones summed.
    tensor = rho._values[kept].take(plan.order, axis=1).reshape(-1, *plan.shape)
    if plan.shape[1] == 2:
        # cumsum runs its inner loop once per kept index; over one traced
        # spin, a single addition is the same sum.
        summed = tensor[:, :, 0] + tensor[:, :, 1]
    else:
        summed = np.cumsum(tensor, axis=2)[:, :, -1]
    return DensityMatrix._of_classes(plan.reduced_classes[classes[kept]], summed + 0.0, len(keep))


def nq_amplitude(rho: DensityMatrix, sites: Sequence[int] | None = None) -> complex:
    """Highest-order coherence amplitude ``<u|rho|d>`` over the listed spins.

    Spins outside ``sites`` are traced out first.  ``sites`` is checked
    as :func:`reduced_state` checks it, also when it lists every spin.
    """
    if sites is not None and operators._kept_sites(sites, rho.n_spins) != list(range(rho.n_spins)):
        rho = reduced_state(rho, sites)
    # rho[0, D - 1] lies in the highest class, D - 1, the last one when occupied.
    return complex(rho._values[-1, 0]) if rho._classes[-1] == rho.dim - 1 else 0j


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy ``-sum(lam * ln lam)`` in nats; eigenvalues below 1e-14 are dropped.

    The eigenvalues come in closed form from the pairs validation found;
    a state of one block of every index is diagonalised whole.
    """
    classes, values, pairs = rho._classes, rho._values, rho._blocks
    if pairs is None:
        eigs = np.linalg.eigvalsh(_dense_of(classes, values, rho.dim))
    else:
        lower = values[-1].take(pairs[:, 1])
        eigs = np.sort(_block_spectrum(values[0].real, pairs, lower))
    eigs = eigs[eigs >= _ENTROPY_EIG_FLOOR]
    return max(float(-np.sum(eigs * np.log(eigs))), 0.0)


def purity(rho: DensityMatrix) -> float:
    """``Tr(rho^2)``, the squared Frobenius norm of a Hermitian ``rho``."""
    return float(np.vdot(rho._values, rho._values).real)


def fidelity(rho: DensityMatrix, target: DensityMatrix) -> float:
    """Overlap ``Tr(rho * target)`` with a pure target state."""
    if rho.n_spins != target.n_spins:
        raise ValueError("fidelity target and state differ in register size")
    if abs(purity(target) - 1.0) > PURITY_TOL:
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
