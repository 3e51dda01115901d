"""State constructors, coherence orders, entropy, fidelity."""

import contextlib
import copy
import dataclasses
import functools
import math
import pickle
import re
import tracemalloc
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest

from spincat import (
    CatWeights,
    DensityMatrix,
    NoiseModel,
    StateInvariantError,
    apply_dephasing,
    apply_flip_relaxation,
    apply_phase_kicks_mc,
    cat_state,
    coherence_orders,
    decohered_mixture,
    ferro_state,
    fidelity,
    nq_amplitude,
    pseudopure,
    purity,
    reduced_state,
    run_protocol,
    thermal_state,
    von_neumann_entropy,
)
from spincat import operators, protocol, states
from _support import (
    KICK_BLOCK,
    coherence_components,
    dense_entropy,
    dephasing_reference,
    flip_one_site_reference,
    index_order_partial_trace,
    is_hermitian,
    kronecker_total_spin_operator,
    no_characteristic_matrix,
    pair_tables_built,
    phase_kicks_reference,
    popcount_weights,
    protocol_config,
    random_density_matrix,
    random_unitary,
    record_factorised_sizes,
    record_pair_reads,
    spectrum_entropy,
    state_bytes,
    state_of_classes,
    stored_classes,
    traced_memory,
)


def test_ferro_states():
    up = ferro_state(2, "up")
    down = ferro_state(2, "down")
    expected_up = np.zeros((4, 4))
    expected_up[0, 0] = 1.0
    expected_down = np.zeros((4, 4))
    expected_down[3, 3] = 1.0
    np.testing.assert_array_equal(up.matrix, expected_up)
    np.testing.assert_array_equal(down.matrix, expected_down)
    with pytest.raises(ValueError):
        ferro_state(2, "sideways")


def test_cat_weights_normalization():
    w = CatWeights.balanced()
    assert abs(abs(w.a) ** 2 + abs(w.b) ** 2 - 1.0) < 1e-15
    # 1e-10 off unit norm: accepted and renormalized exactly
    w = CatWeights(np.sqrt(0.5 + 1e-10), np.sqrt(0.5))
    assert abs(abs(w.a) ** 2 + abs(w.b) ** 2 - 1.0) < 1e-15
    # 1e-6 off unit norm: rejected
    with pytest.raises(ValueError):
        CatWeights(np.sqrt(0.5 + 1e-6), np.sqrt(0.5))
    with pytest.raises(ValueError):
        CatWeights(0.6, 0.6)


@pytest.mark.parametrize("a", [float("nan"), complex(0.0, float("nan")), complex(float("nan"), 1.0)])
def test_cat_weights_reject_nan(a):
    # abs(nan - 1) > 1e-9 is False, so NaN must fail a comparison that it cannot pass.
    with pytest.raises(ValueError, match="unnormalized weights"):
        CatWeights(a, 1.0)
    with pytest.raises(ValueError, match="unnormalized weights"):
        CatWeights(1.0, a)


def test_cat_state_matrix_elements():
    rho = cat_state(3, CatWeights(0.6, 0.8j))
    assert rho.matrix[0, 0] == pytest.approx(0.36)
    assert rho.matrix[7, 7] == pytest.approx(0.64)
    # <u|rho|d> = a * conj(b)
    assert rho.matrix[0, 7] == pytest.approx(-0.48j)
    assert rho.matrix[7, 0] == pytest.approx(0.48j)
    assert np.count_nonzero(rho.matrix) == 4
    assert purity(rho) == pytest.approx(1.0)


def test_coherence_orders_of_cat_state():
    rho = cat_state(3, CatWeights.balanced())
    weights = coherence_orders(rho)
    assert sorted(weights) == list(range(-3, 4))
    nonzero = {q for q, w in weights.items() if w > 1e-12}
    assert nonzero == {-3, 0, 3}
    assert weights[3] == weights[-3] == pytest.approx(0.5)
    assert weights[0] == pytest.approx(np.sqrt(0.5))


@pytest.mark.parametrize("mode", ["analytic", "monte_carlo"])
def test_run_protocol_finds_each_pattern_once(monkeypatch, mode):
    # Every state of a run is read as pairs, from the table of its class
    # pattern, which is built once per register size and pattern and kept:
    # a second run builds none.  Entropies reuse the pairs validation read.
    config = dataclasses.replace(protocol_config(4), noise_mode=mode)
    run_protocol(config)
    built = pair_tables_built()
    constructions, reads = record_pair_reads(monkeypatch)
    run_protocol(config)
    assert pair_tables_built() == built
    assert len(constructions) <= 24
    assert len(reads) == len(constructions)
    assert all(pairs is not None for pairs in reads)


def test_decohered_mixture_is_stripped_entangled_state():
    # The entangled pair of the control and 2 system spins is the cat of
    # all 3; stripping every coherence keeps its order-0 part.
    w = CatWeights(0.6, 0.8j)
    entangled = cat_state(3, w)
    stripped = coherence_components(entangled.matrix, 3)[0]
    np.testing.assert_array_equal(stripped, decohered_mixture(2, w).matrix)
    assert von_neumann_entropy(decohered_mixture(2, w)) == pytest.approx(
        -(0.36 * np.log(0.36) + 0.64 * np.log(0.64))
    )


@pytest.mark.parametrize(
    "weights",
    [CatWeights.balanced(), CatWeights(0.6, 0.8), CatWeights(0.8, 0.6 * np.exp(1.1j))],
    ids=["balanced", "unbalanced", "complex"],
)
@pytest.mark.parametrize("n_system", [1, 2, 6])
def test_decohered_mixture_matrix_is_unchanged(n_system, weights):
    # The diagonal of |a|^2, |b|^2 at the two corners, built as it was when
    # basis_state still made classical mixtures: |c_k|^2 of a complex vector.
    psi = np.zeros(1 << (n_system + 1), dtype=complex)
    psi[[0, -1]] = weights.a, weights.b
    expected = np.array(np.diag(np.abs(psi) ** 2), dtype=complex)
    rho = decohered_mixture(n_system, weights)
    assert rho.n_spins == n_system + 1
    assert rho.matrix.tobytes() == expected.tobytes()


_S = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize(
    "amplitudes, named",
    [
        # Each once taken as an index of np.arange(D): -1 wrapped to D - 1,
        # 4 and True raised IndexError, and -3 named index 1 a second time.
        ({-1: 1.0}, "-1"),
        ({4: 1.0}, "4"),
        ({True: 1.0}, "True"),
        ({1: _S, -3: _S}, "-3"),
        ({1.0: 1.0}, "1.0"),
    ],
    ids=["negative", "beyond", "bool", "wraps-onto-another", "float"],
)
def test_basis_state_rejects_a_key_that_is_no_index_of_the_register(amplitudes, named):
    with pytest.raises(ValueError, match=rf"^basis index {re.escape(named)} is not an integer in \[0, 4\)$"):
        states.basis_state(2, amplitudes)


def test_basis_state_takes_numpy_integer_indices():
    rho = states.basis_state(2, {np.int64(0): _S, np.uint8(3): _S})
    assert rho.matrix.tobytes() == states.basis_state(2, {0: _S, 3: _S}).matrix.tobytes()


def test_pseudopure_mixing_and_background():
    target = ferro_state(2, "up")
    rho = pseudopure(target, 0.9)
    expected = 0.9 * target.matrix + 0.1 * np.eye(4) / 4.0
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)
    with pytest.raises(ValueError):
        pseudopure(target, 0.0)
    with pytest.raises(ValueError):
        pseudopure(target, 1.2)


@pytest.mark.parametrize("fraction", [1.0, 0.7, 0.3])
def test_nq_amplitude_scales_with_purity(fraction):
    rho = pseudopure(cat_state(2, CatWeights.balanced()), fraction)
    assert nq_amplitude(rho) == pytest.approx(0.5 * fraction)


def test_nq_amplitude_subset_traces_out_the_rest():
    w = CatWeights.balanced()
    entangled = cat_state(3, w)
    # Tracing the control kills the system coherence.
    assert nq_amplitude(entangled, sites=[1, 2]) == pytest.approx(0.0)
    assert nq_amplitude(entangled) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "sites, named",
    [([0.0, 1, 2], "0.0"), ([np.float64(0), 1.0, 2], "np.float64(0.0)"), ((0, 1.0, 2), "1.0")],
    ids=["float", "numpy-float", "tuple"],
)
def test_nq_amplitude_checks_a_site_list_of_every_spin(sites, named):
    # Equal to range(3) by value, such a list once skipped the check and
    # read the whole register; it is checked as reduced_state checks it.
    rho = pseudopure(cat_state(3, CatWeights(0.6, 0.8j)), 0.9)
    for read in (nq_amplitude, reduced_state):
        with pytest.raises(ValueError, match=rf"^site {re.escape(named)} outside register of 3 spins$"):
            read(rho, sites)
    assert nq_amplitude(rho, range(3)) == nq_amplitude(rho, np.arange(3)) == nq_amplitude(rho)


def test_von_neumann_entropy_reference_values():
    assert von_neumann_entropy(ferro_state(3, "up")) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(8) / 8.0, 3)
    assert von_neumann_entropy(mixed) == pytest.approx(3.0 * np.log(2.0))
    # Reduced control of a balanced entangled pair is maximally mixed.
    control = reduced_state(cat_state(3, CatWeights.balanced()), [0])
    assert von_neumann_entropy(control) == pytest.approx(np.log(2.0))


def test_fidelity_values_and_validation():
    target = cat_state(2, CatWeights.balanced())
    assert fidelity(target, target) == pytest.approx(1.0)
    assert fidelity(ferro_state(2, "up"), target) == pytest.approx(0.5)
    orthogonal = cat_state(2, CatWeights(1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)))
    assert fidelity(orthogonal, target) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(4) / 4.0, 2)
    with pytest.raises(ValueError):
        fidelity(target, mixed)


def test_density_matrix_validation():
    with pytest.raises(StateInvariantError):
        DensityMatrix(np.eye(4) / 2.0, 2)  # trace 2
    bad_herm = np.eye(4, dtype=complex) / 4.0
    bad_herm[0, 1] = 0.5
    with pytest.raises(StateInvariantError):
        DensityMatrix(bad_herm, 2)
    with pytest.raises(StateInvariantError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), 2)
    with pytest.raises(StateInvariantError):
        DensityMatrix(np.eye(4) / 4.0, 3)  # wrong register size
    with pytest.raises(ValueError, match=re.escape("expected a square matrix, got shape ()")):
        DensityMatrix(None, 1)
    with pytest.raises(ValueError):
        DensityMatrix([[0.5, 0.0], [0.5]], 1)  # ragged
    frozen = ferro_state(1, "up")
    with pytest.raises(ValueError):
        frozen.matrix[0, 0] = 2.0


def test_density_matrix_is_immutable_and_copies_by_value(monkeypatch):
    rho = pseudopure(cat_state(3, CatWeights(0.6, 0.8j)), 0.7)
    with pytest.raises(AttributeError):
        rho.n_spins = 4
    with pytest.raises(AttributeError):
        rho.matrix = np.eye(8) / 8.0
    with pytest.raises(ValueError):
        stored_classes(rho)[1][0, 0] = 1.0
    constructions, reads = record_pair_reads(monkeypatch)
    for twin in (copy.deepcopy(rho), pickle.loads(pickle.dumps(rho))):
        assert twin.n_spins == 3
        assert twin.matrix.tobytes() == rho.matrix.tobytes()
        assert not stored_classes(twin)[1].flags.writeable
    # Each copy is validated once, from its classes.
    assert constructions == [3, 3]
    assert len(reads) == 2


def test_a_dropped_coherence_row_leaves_the_state_its_own_diagonal():
    values = np.zeros((2, 8), dtype=complex)
    values[0] = 0.125
    given = values.copy()
    rho = state_of_classes(np.array([0, 5]), values, 3)
    classes, kept = stored_classes(rho)
    assert classes.tolist() == [0] and kept.tobytes() == given[:1].tobytes()
    assert not np.shares_memory(kept, values)
    assert not kept.flags.writeable and values.flags.writeable
    values[0, 0] = 2.0
    assert kept.tobytes() == given[:1].tobytes()


@pytest.mark.parametrize("fraction", [1.0, 0.7])
def test_ten_spin_corner_states_pass_without_eigendecomposition(monkeypatch, fraction):
    sizes = record_factorised_sizes(monkeypatch)
    cat = cat_state(10, CatWeights(0.6, 0.8j))
    rho = pseudopure(cat, fraction)
    assert sizes == [] and rho.dim == 1024
    assert np.array_equal(rho.matrix, (1.0 - fraction) * np.eye(1024) / 1024 + fraction * cat.matrix)


def test_thermal_state():
    rho = thermal_state(3, polarization=1e-3)
    assert abs(rho.matrix.trace() - 1.0) < 1e-12
    diag = np.diag(rho.matrix).real
    assert diag[0] > diag[-1]  # all-up slightly favored
    with pytest.raises(ValueError):
        thermal_state(3, polarization=0.5)


@pytest.mark.parametrize("noise_mode", ["analytic", "monte_carlo"])
def test_ten_spin_protocol_makes_no_factorisation(monkeypatch, noise_mode):
    # Every protocol state is a diagonal plus a few corner coherences, so
    # every validation and entropy of the run reads 1x1 and 2x2 blocks in
    # closed form.
    sizes = record_factorised_sizes(monkeypatch)
    n = 10
    report = run_protocol(dataclasses.replace(protocol_config(n), noise_mode=noise_mode))
    assert sizes == []
    system = reduced_state(report.final_state, list(range(1, n)))
    assert report.step("recover").system_entropy == pytest.approx(dense_entropy(system.matrix), abs=1e-12)
    assert report.final_control_entropy > 0.0


@pytest.mark.parametrize("n_spins", [2, 4, 7])
def test_dense_state_is_one_block_of_every_index(monkeypatch, n_spins):
    rho = random_density_matrix(np.random.default_rng(n_spins), n_spins)
    dim = rho.dim
    np.testing.assert_array_equal(stored_classes(rho)[0], np.arange(dim))
    # The state keeps its classes only, so the first read of the dense view
    # builds it; its spectrum, read from the one block, is the matrix's,
    # bit for bit, and leaves no dense view behind.
    with traced_memory() as view:
        rho.matrix
    dense = np.array(rho.matrix)
    expected = dense_entropy(dense)
    sizes = record_factorised_sizes(monkeypatch)
    twin = DensityMatrix(dense, n_spins)
    assert von_neumann_entropy(twin) == expected
    assert sizes == [dim, dim]
    with traced_memory() as twin_view:
        twin.matrix
    assert min(view.retained, twin_view.retained) >= 16 * dim * dim
    assert twin.matrix.tobytes() == dense.tobytes()
    assert twin.matrix is twin.matrix


@pytest.mark.parametrize("make", ["input", "kicked"])
def test_dense_ten_spin_state_retains_one_matrix(monkeypatch, make):
    # Traced memory a dense state holds, in units of one D x D complex
    # matrix: its classes (1.0) until the dense view is read (2.0).
    n, dim = 10, 1024
    rho = random_density_matrix(np.random.default_rng(4), n)
    matrix = np.array(rho.matrix)
    noise = NoiseModel.uniform(n, dephasing_per_s=1.0, mc_trajectories=16)
    sizes = record_factorised_sizes(monkeypatch)
    tracemalloc.start()
    try:
        if make == "input":
            state = DensityMatrix(matrix, n)
        else:
            state = apply_phase_kicks_mc(rho, noise, 0.3, seed=1)
        retained = tracemalloc.get_traced_memory()[0]
        state.matrix
        viewed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Checked whole: factorised as one D x D matrix.
    assert sizes == [dim]
    assert retained <= 1.05 * dim * dim * 16
    assert viewed >= 2.0 * dim * dim * 16


@pytest.mark.parametrize(
    "convert", [lambda m: tuple(map(tuple, m)), lambda m: m.tolist()], ids=["tuples", "lists"]
)
@pytest.mark.parametrize("n_spins", [1, 2, 3])
def test_density_matrix_from_nested_sequences(convert, n_spins):
    # A matrix given as nested tuples or lists is read as a matrix,
    # whatever its number of rows.
    rho = pseudopure(cat_state(n_spins, CatWeights(0.6, 0.8j)), 0.7)
    twin = DensityMatrix(convert(rho.matrix), n_spins)
    assert twin.matrix.tobytes() == rho.matrix.tobytes()
    assert DensityMatrix(((0.5, 0), (0, 0.5)), 1).matrix.tolist() == [[0.5, 0], [0, 0.5]]
    with pytest.raises(StateInvariantError, match="trace"):
        DensityMatrix(((1.0, 0), (0, 1.0)), 1)
    with pytest.raises(StateInvariantError, match="does not match"):
        DensityMatrix(convert(rho.matrix), n_spins + 1)


@pytest.mark.parametrize("kind, bound", [("dense", 2.1), ("cat", 1.1)])
def test_ten_spin_validation_memory(kind, bound):
    # Traced peak of one validation, in units of one D x D complex matrix.
    # Checking whole copies the matrix and factorises it (2.0); a cat is
    # only copied (1.0).  Index arrays of the dense pattern would add more.
    n, dim = 10, 1024
    if kind == "dense":
        matrix = np.array(random_density_matrix(np.random.default_rng(4), n).matrix)
    else:
        matrix = np.array(pseudopure(cat_state(n, CatWeights(0.6, 0.8j)), 0.7).matrix)
    with traced_memory() as memory:
        DensityMatrix(matrix, n)
    assert memory.peak <= bound * dim * dim * 16


def test_register_size_is_checked_before_the_copy():
    # The cap is checked on the input as given, before a 1 GiB copy.
    huge = np.broadcast_to(np.complex128(0.0), (8192, 8192))
    with traced_memory() as memory:
        with pytest.raises(ValueError, match="exceeds the dense limit of 12"):
            DensityMatrix(huge, 13)
    assert memory.peak < 1 << 20


@pytest.mark.parametrize("size", [True, 1.0, 0])
def test_register_size_must_be_a_positive_integer(size):
    with pytest.raises(ValueError, match="positive integer"):
        DensityMatrix(np.eye(2) / 2.0, size)


# The validation zoo: named matrices, and a few states the package builds,
# each checked by one oracle, test_validation_matches_the_dense_oracles.
TOL, HTOL = states.POSITIVITY_TOL, states.HERMITIAN_TOL
NAN, INF = float("nan"), float("inf")


def _state_with_smallest_eigenvalue(rng, n_spins, eigmin):
    """Random Hermitian unit-trace matrix whose smallest eigenvalue is ``eigmin``."""
    dim = 1 << n_spins
    eigs = rng.uniform(0.1, 1.0, size=dim)
    eigs[0] = 0.0
    eigs *= (1.0 - eigmin) / eigs.sum()
    eigs[0] = eigmin
    u = random_unitary(rng, dim)
    matrix = (u * eigs) @ u.conj().T
    return (matrix + matrix.conj().T) / 2.0


def _certificate_states(seed, n_spins):
    """States of smallest eigenvalue -0.5 and -2 POSITIVITY_TOL, in turn from one generator."""
    rng = np.random.default_rng(seed)
    return [_state_with_smallest_eigenvalue(rng, n_spins, f * TOL) for f in (-0.5, -2.0)]


def _block_permuted_state(rng, layout, eigmin=None, negative_size=None):
    """Unit-trace Hermitian matrix, block-diagonal with blocks of the sizes
    in ``layout`` after a random permutation of the basis.  A layout of
    pairs, then singles, places every pair as ``(r, r ^ x)`` of one random
    class ``x``, so that the matrix has two classes.  With ``eigmin``, the
    first block of size ``negative_size`` has smallest eigenvalue
    ``eigmin``, and every other eigenvalue is larger."""
    dim = sum(layout)
    starts = np.cumsum((0,) + layout[:-1])
    eigs = rng.uniform(0.1, 1.0, size=dim)
    if eigmin is not None:
        low = next(s for s, k in zip(starts, layout) if k == negative_size)
        eigs[low] = 0.0
        eigs *= (1.0 - eigmin) / eigs.sum()
        eigs[low] = eigmin
    else:
        eigs /= eigs.sum()
    blocks = np.zeros((dim, dim), dtype=complex)
    for start, k in zip(starts, layout):
        u = random_unitary(rng, k)
        blocks[start : start + k, start : start + k] = (u * eigs[start : start + k]) @ u.conj().T
    n_pairs = layout.count(2)
    if layout == (2,) * n_pairs + (1,) * (dim - 2 * n_pairs):
        # Basis index of each block position: the pairs of class x first.
        x = int(rng.integers(1, dim))
        index = np.arange(dim)
        low = rng.permutation(index[index < index ^ x])[:n_pairs]
        rest = rng.permutation(np.setdiff1d(index, np.concatenate((low, low ^ x))))
        perm = np.argsort(np.concatenate((np.stack((low, low ^ x), axis=1).ravel(), rest)))
    else:
        perm = rng.permutation(dim)
    matrix = blocks[np.ix_(perm, perm)]
    return (matrix + matrix.conj().T) / 2.0


# 40 nonzeros off the diagonal of a 64 x 64 matrix, in many classes;
# 16 pairs of one class; 126 nonzeros off the diagonal.
SPARSE_LAYOUT = (3,) * 4 + (2,) * 8 + (1,) * 36
PAIRS_LAYOUT = (2,) * 16 + (1,) * 32
DENSE_LAYOUT = (3,) * 21 + (1,)
# 6-spin states whose negative eigenvalue, if any, lies in a block of the
# given size: (layout, that size, largest block); None is a dense state.
BLOCK_ROUTES = {
    "pairs-1x1": (PAIRS_LAYOUT, 1, 2),
    "pairs-2x2": (PAIRS_LAYOUT, 2, 2),
    "blocks-1x1": (SPARSE_LAYOUT, 1, 3),
    "blocks-2x2": (SPARSE_LAYOUT, 2, 3),
    "blocks-3x3": (SPARSE_LAYOUT, 3, 3),
    "dense-blocks": (DENSE_LAYOUT, 3, 64),
    "dense-random": (None, None, 64),
}
ENTROPY_LAYOUTS = {
    "mixed": SPARSE_LAYOUT,
    "dense-blocks": DENSE_LAYOUT,
    "pairs": (2,) * 32,
    "diagonal": (1,) * 64,
    "few": (3, 3, 2) + (1,) * 56,
}


def _block_route_state(layout, negative_size, block, factor):
    rng = np.random.default_rng([negative_size or 0, block, int(4 * factor) + 8])
    if layout is None:
        return _state_with_smallest_eigenvalue(rng, 6, factor * TOL)
    return _block_permuted_state(rng, layout, factor * TOL, negative_size)


# Pair blocks (p, q, smallest eigenvalue in units of POSITIVITY_TOL or None
# for a pure block, imaginary part of the pair's diagonal in units of
# HERMITIAN_TOL), at the boundaries of the closed form.
PAIR_CASES = {
    "eigmin+0.5": (0.3, 0.2, 0.5, 0.0),
    "eigmin-0.5": (0.3, 0.2, -0.5, 0.0),
    "eigmin+2": (0.3, 0.2, 2.0, 0.0),
    "eigmin-2": (0.3, 0.2, -2.0, 0.0),
    "pure": (0.3, 0.2, None, 0.0),
    "wide-range": (1.0 - 1e-12, 1e-12, None, 0.0),
    "imaginary-residue": (0.3, 0.2, -0.5, 0.4),
}


def _pair_state(case, seed):
    """One pair (low, high) of a random class, the block ``PAIR_CASES[case]``,
    on a diagonal of singles."""
    p, q, eigmin, residue = PAIR_CASES[case]
    rng = np.random.default_rng([15, seed])
    dim = 1 << int(rng.integers(2, 6))
    low = int(rng.integers(dim))
    low, high = sorted((low, low ^ int(rng.integers(1, dim))))
    if eigmin is None:
        modulus = math.sqrt(p * q)
    else:
        modulus = math.sqrt((0.5 * (p + q) - eigmin * TOL) ** 2 - (0.5 * (p - q)) ** 2)
    matrix = np.zeros((dim, dim), dtype=complex)
    rest = [i for i in range(dim) if i not in (low, high)]
    weights = rng.uniform(0.5, 1.0, len(rest))
    matrix[rest, rest] = (1.0 - p - q) * weights / weights.sum()
    matrix[low, low] = p + 1j * residue * HTOL
    matrix[high, high] = q - 1j * residue * HTOL
    matrix[high, low] = modulus * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    matrix[low, high] = np.conj(matrix[high, low])
    return matrix


def _pair_with_diagonal(*entries):
    """A pure pair of ``_pair_state`` with ``entries`` at the start of its diagonal."""
    matrix = _pair_state("pure", 1)
    matrix[range(len(entries)), range(len(entries))] = entries
    return matrix


def _pair_rounded_above_its_diagonal():
    """A pair of the block ``[[-2e-8, 1e-20], [1e-20, 0.2]]``, whose smaller
    eigenvalue in closed form, -1.9999999989472883e-08, rounds above its
    smaller diagonal entry."""
    matrix = np.diag([-2e-8, 0.4 + 1e-8, 0.4 + 1e-8, 0.2]).astype(complex)
    matrix[0, 3] = matrix[3, 0] = 1e-20
    return matrix


def _with_entries(dim, value, *entries):
    """The maximally mixed state with ``value`` at ``entries``."""
    matrix = np.eye(dim, dtype=complex) / dim
    for entry in entries:
        matrix[entry] = value
    return matrix


def _scan_case(dim, case):
    """A ``dim x dim`` matrix with off-diagonal nonzeros laid out for
    ``case``.  Each is within ``0.5 * HERMITIAN_TOL`` of zero on a
    diagonal of unit trace, so that every case but ``non-finite`` is a
    state, whatever its pattern."""
    rng = np.random.default_rng([dim, len(case)])
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[np.diag_indices(dim)] = rng.uniform(0.5, 1.0, dim)
    last, small = dim - 1, 0.4 * HTOL
    if case == "slice-boundary":
        # Classes on both sides of the boundaries of the 32-class slices
        # that D = 1024 is read in, one pair each at rows spread by D / 8,
        # alternately in one triangle and in both: a state of more than
        # two classes, checked whole, except at D = 2.
        for k, x in enumerate(sorted({31, 32, 63, 64, last} & set(range(1, dim)))):
            r = k * dim // 8
            matrix[r, r ^ x] = small * (0.5 + 1j)
            if k % 2:
                matrix[r ^ x, r] = small * (0.5 - 1j)
    elif case == "imaginary-only":
        matrix[0, last], matrix[last, 0] = small * 1j, -small * 1j
        odd = np.arange(1, dim, 2)
        matrix[odd, odd] = small * 1j * (-1.0) ** np.arange(odd.size)
    elif case == "negative-zero":
        # (-0.0, -0.0) is zero; (-0.0, x) and (x, -0.0) are not.
        matrix[0, last], matrix[last, 0] = complex(-0.0, -0.0), complex(-0.0, small)
        matrix[last // 2, 0] = complex(small, -0.0)
        matrix.real[np.arange(0, dim, 2), np.arange(0, dim, 2)] = -0.0
    elif case == "non-finite":
        matrix[0, last], matrix[last, 0] = np.nan, complex(0.0, np.inf)
        # Off the diagonal, so the trace holds, in the class of the pair
        # above; at D = 2 no place is free.  Its modulus is NaN and its
        # mirror zero: a read that skipped it would miss its pair.
        if last // 2:
            matrix[1, last ^ 1] = complex(small, np.nan)
        assert np.isnan(matrix[np.nonzero(matrix)]).any()
    else:
        # Exactly D or D + 1 nonzeros at random off-diagonal places.
        count = dim + (case == "count-D+1")
        flat = rng.choice(np.flatnonzero(~np.eye(dim, dtype=bool)), count, replace=False)
        matrix.ravel()[flat] = small * np.exp(2j * np.pi * rng.random(count))
        assert np.count_nonzero(matrix) == dim + count
    matrix.real[np.diag_indices(dim)] /= np.diagonal(matrix).real.sum()
    return matrix


SCAN_CASES = [
    (dim, case)
    for dim in (2, 64, 128, 1024)
    for case in ("slice-boundary", "imaginary-only", "negative-zero", "non-finite", "count-D", "count-D+1")
    # Two off-diagonal places cannot hold D + 1 = 3 nonzeros.
    if (dim, case) != (2, "count-D+1")
]


def _random_pairs_state(rng, n_spins, couple, indefinite, n_classes=None):
    """A sparse matrix of unit trace, Hermitian to ``HERMITIAN_TOL``, and
    the pairs it holds: a positive diagonal plus disjoint pairs
    ``(r, r ^ x)``, lower index first, from ``n_classes`` classes ``x``,
    by default one to three drawn at random; with more than one, the
    matrix is checked whole.  Every pair is
    positive definite but, with ``indefinite``, one.  With
    ``couple``, one more element joins an index of a pair to a second
    partner: a Hermitian pair of elements (``"both"``), or one element
    within ``HERMITIAN_TOL`` in the lower or upper triangle."""
    dim = 1 << n_spins
    matrix = np.diag(rng.uniform(0.2, 1.0, dim)).astype(complex)
    free = np.ones(dim, dtype=bool)
    pairs = []
    for x in rng.choice(np.arange(1, dim), size=n_classes or rng.integers(1, 4), replace=False):
        # The first free pair of each class, then some of the rest.
        first = len(pairs)
        for r in rng.permutation(dim):
            if free[r] and free[r ^ x] and (len(pairs) == first or rng.random() < 0.15):
                free[r] = free[r ^ x] = False
                pairs.append(sorted((int(r), int(r ^ x))))
    for number, (low, high) in enumerate(pairs):
        scale = 1.3 if indefinite and number == 0 else rng.uniform(0.0, 0.9)
        element = scale * math.sqrt(matrix[low, low].real * matrix[high, high].real)
        matrix[low, high] = element * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        matrix[high, low] = np.conj(matrix[low, high])
    matrix /= np.trace(matrix).real
    if couple:
        pair = pairs[rng.integers(len(pairs))]
        index = pair[rng.integers(2)]
        other = int(rng.choice([i for i in range(dim) if i not in pair]))
        if couple == "both":
            element = 0.1 * math.sqrt(matrix[index, index].real * matrix[other, other].real)
            matrix[index, other] = element * np.exp(0.7j)
            matrix[other, index] = np.conj(matrix[index, other])
        else:
            row, col = sorted((index, other), reverse=couple == "lower")
            matrix[row, col] = 0.5 * states.HERMITIAN_TOL
    return matrix, sorted(pairs)


@functools.cache
def _random_pair_trials(seed):
    """20 ``_random_pairs_state`` draws in turn from one generator: trials
    2, 4 and 6 of every 7 couple one more element, every third has an
    indefinite pair."""
    rng = np.random.default_rng([14, seed])
    trials = []
    for trial in range(20):
        n_spins, indefinite = int(rng.integers(3, 7)), trial % 3 == 2
        couple = (None, None, "both", None, "lower", None, "upper")[trial % 7]
        trials.append(_random_pairs_state(rng, n_spins, couple, indefinite))
    return trials


def _random_pair_variant(seed, trial, variant):
    """A trial, or its diagonal alone, or with its first pair's upper
    element off by 0.9 or 1.1 times HERMITIAN_TOL (``"skewed"``), which
    eigvalsh and the closed form do not read."""
    matrix, pairs = _random_pair_trials(seed)[trial]
    if variant == "diagonal":
        return np.diag(np.diag(matrix))
    if variant == "skewed":
        matrix = matrix.copy()
        matrix[pairs[0][0], pairs[0][1]] += (0.9, 1.1)[trial % 2] * HTOL * np.exp(0.3j)
    return matrix


# Edits (kind, value) of one pair (low, high) of a random pair state, and
# the verdict of is_hermitian each must get, None where it is random:
# - "mismatch": rho[high, low] = conj(rho[low, high]) + value * HERMITIAN_TOL
#   * e^0.4i, or every pair's lower element off by up to 2 HERMITIAN_TOL;
# - "upper-facing" / "lower-facing": value * HERMITIAN_TOL * e^0.4i in
#   that triangle, facing a -0.0;
# - "upper", "lower", "both": a non-finite value in the pair's triangles;
# - "diagonal": rho[low, low] with the value as its real part, or replaced
#   by a complex value; "diagonal-imaginary": the value as its imaginary part;
# - "diagonal-state": the diagonal alone with the imaginary part value *
#   HERMITIAN_TOL at low; "diagonal-state-imaginary": the diagonal alone
#   with the imaginary part value at low and -value at high;
# - "antisymmetric": rho[low, high] = value and rho[high, low] = -value,
#   whose residual overflows.
HERMITIAN_EDGES = [
    (("mismatch", None), None),
    (("mismatch", 0.9), True),
    (("mismatch", 1.1), False),
    (("upper-facing", 0.5), True),
    (("upper-facing", 2.0), False),
    (("lower-facing", 0.5), True),
    (("lower-facing", 2.0), False),
    (("diagonal-state", 0.4), True),
    (("diagonal-state", 0.6), False),
    # 2|Im d| exactly HERMITIAN_TOL, one float above, beyond the float limit.
    (("diagonal-state-imaginary", 0.5 * HTOL), True),
    (("diagonal-state-imaginary", float(np.nextafter(0.5 * HTOL, 1.0))), False),
    (("diagonal-state-imaginary", 1e308), False),
    *(
        ((place, value), False)
        for value in (NAN, INF, -INF, complex(0.0, NAN))
        for place in ("upper", "lower", "both", "diagonal")
    ),
    *((("diagonal-imaginary", value), False) for value in (NAN, INF, -INF)),
    (("antisymmetric", 1e308), False),
]


def _edited(rng, matrix, pairs, kind, value):
    """``matrix`` with the edit ``(kind, value)`` of ``HERMITIAN_EDGES`` at its first pair."""
    matrix = matrix.copy()
    low, high = pairs[0]
    if kind == "mismatch" and value is None:
        for low, high in pairs:
            skew = rng.uniform(0.0, 2.0) * HTOL * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            matrix[high, low] = np.conj(matrix[low, high]) + skew
    elif kind == "mismatch":
        matrix[high, low] = np.conj(matrix[low, high]) + value * HTOL * np.exp(0.4j)
    elif kind.endswith("-facing"):
        matrix[low, high] = matrix[high, low] = complex(-0.0, -0.0)
        matrix[(low, high) if kind == "upper-facing" else (high, low)] = value * HTOL * np.exp(0.4j)
    elif kind.startswith("diagonal-state"):
        matrix = np.diag(np.diag(matrix))
        if kind == "diagonal-state":
            matrix.imag[low, low] = value * HTOL
        else:
            matrix.imag[low, low], matrix.imag[high, high] = value, -value
    elif kind == "diagonal":
        matrix[low, low] = value if isinstance(value, complex) else complex(value, 0.0)
    elif kind == "diagonal-imaginary":
        matrix.imag[low, low] = value
    elif kind == "antisymmetric":
        matrix[low, high], matrix[high, low] = value, -value
    else:
        for element in {"upper": [(low, high)], "lower": [(high, low)]}.get(
            kind, [(low, high), (high, low)]
        ):
            matrix[element] = value
    return matrix


@functools.cache
def _hermitian_edge_trials(edge, seed):
    """Four random pair states of 2 to 8 spins, in turn from one generator,
    each with the edit ``HERMITIAN_EDGES[edge]``."""
    rng = np.random.default_rng([18, seed])
    trials = []
    for _ in range(4):
        matrix, pairs = _random_pairs_state(rng, int(rng.integers(2, 9)), None, False)
        trials.append(_edited(rng, matrix, pairs, *HERMITIAN_EDGES[edge][0]))
    return trials


def _overflowing_state(whole):
    """Finite, Hermitian and of unit trace, yet the pair (0, 1) has an
    eigenvalue near -3e308, beyond the float limit; with ``whole``, a
    second partner of index 0 puts the state on the whole route."""
    matrix = np.zeros((16, 16), dtype=complex)
    matrix[[0, 1, 2, 4, 5], [0, 1, 2, 4, 5]] = -1e308, -1e308, 1.0, 1e308, 1e308
    matrix[1, 0] = 1.5e308 + 1.5e308j
    matrix[0, 1] = np.conj(matrix[1, 0])
    if whole:
        matrix[2, 0] = matrix[0, 2] = 1e-3
    assert np.trace(matrix) == 1.0
    return matrix


def _overlapping_classes_state(eigmin=None):
    """A 4-spin state whose off-diagonal classes 3, 5 and 3 ^ 5 = 6 overlap:
    a full 3x3 block on the 3-cycle {0, 3, 6} and a tridiagonal one on the
    chain 8 - 11 - 14 (classes 3 and 5, the element of class 6 between its
    ends zero).  So it is one block of every index, although only 10
    elements off the diagonal are nonzero.  With ``eigmin``, the chain
    block's smallest eigenvalue is ``eigmin``."""
    rng = np.random.default_rng(17)
    matrix = np.zeros((16, 16), dtype=complex)
    cycle, chain = [0, 3, 6], [8, 11, 14]
    singles = [i for i in range(16) if i not in cycle + chain]
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    matrix[np.ix_(cycle, cycle)] = g @ g.conj().T
    matrix[chain, chain] = rng.uniform(1.0, 2.0, 3)
    matrix[8, 11], matrix[11, 14] = 0.4 + 0.3j, 0.5 - 0.2j
    matrix[11, 8], matrix[14, 11] = 0.4 - 0.3j, 0.5 + 0.2j
    matrix[singles, singles] = rng.uniform(0.5, 1.0, len(singles))
    matrix /= np.trace(matrix).real
    if eigmin is not None:
        # Lower the chain block onto eigmin; the singles keep the trace at 1.
        shift = np.linalg.eigvalsh(matrix[np.ix_(chain, chain)])[0] - eigmin
        matrix[chain, chain] -= shift
        matrix[singles, singles] += 3.0 * shift / len(singles)
    return matrix


class Row(NamedTuple):
    """``make()`` gives a matrix or a state the package built; the rest is
    what the row is designed to be, where it is."""

    make: Callable[[], np.ndarray | DensityMatrix]
    eigmin: float | None = None  # smallest eigenvalue, in units of POSITIVITY_TOL
    hermitian: bool | None = None  # the verdict of is_hermitian
    message: str | None = None  # the whole error message
    no_cholesky: bool = False  # every Cholesky factorisation fails, so eigvalsh decides


# (name, spins, seed, smallest eigenvalues) of _certificate_states.
CERTIFICATES = [
    *(("certificate", n, n, (-0.5, -2.0)) for n in (1, 3, 6, 8)),
    *(("fallback", n, 10 + n, (-0.5, -2.0)) for n in (1, 6)),
    *(("untouched", 4, seed, (-0.5,)) for seed in range(3)),
]
W = CatWeights(0.6, 0.8j)
ZOO = {
    **{
        f"{name}-{n}-{seed}-{f}": Row(
            lambda s=seed, n=n, k=k: _certificate_states(s, n)[k], f, no_cholesky=name == "fallback"
        )
        for name, n, seed, eigmins in CERTIFICATES
        for k, f in enumerate(eigmins)
    },
    **{
        f"block-route-{name}-{f}": Row(lambda args=args, f=f: _block_route_state(*args, f), f)
        for name, args in BLOCK_ROUTES.items()
        for f in (0.5, -0.5, -2.0)
    },
    **{
        f"entropy-{name}-{seed}": Row(lambda ly=layout, s=seed: _block_permuted_state(np.random.default_rng(s), ly))
        for name, layout in ENTROPY_LAYOUTS.items()
        for seed in range(4)
    },
    **{
        f"pair-{case}-{seed}": Row(lambda c=case, s=seed: _pair_state(c, s), PAIR_CASES[case][2])
        for case in PAIR_CASES
        for seed in range(3)
    },
    # m[r, c] != 0 with m[c, r] = 0: the entry alone is the residual.
    **{
        f"one-sided-{n}-{side}-{f}": Row(
            lambda d=1 << n, e=e, f=f: _with_entries(d, f * HTOL * np.exp(0.3j), e(d)), hermitian=f < 1
        )
        for n in (2, 4)
        for side, e in (("upper", lambda d: (1, d - 1)), ("lower", lambda d: (d - 1, 1)))
        for f in (0.5, 2.0)
    },
    **{
        f"non-finite-{place}-{value}": Row(lambda e=entry, v=value: _with_entries(4, v, e, e[::-1]))
        for value in (NAN, INF, -INF, complex(0.0, NAN))
        for place, entry in (("diagonal", (0, 0)), ("off-diagonal", (0, 1)))
    },
    # A trace of NaN passes the trace check: validation reads it as a
    # non-finite diagonal.  A finite diagonal whose sum overflows fails the trace.
    "non-finite-pair-diagonal-inf-and-minus-inf": Row(lambda: _pair_with_diagonal(INF, -INF), hermitian=False),
    "non-finite-pair-diagonal-real-nan": Row(lambda: _pair_with_diagonal(complex(NAN, 0.0)), hermitian=False),
    "overflowing-trace": Row(lambda: _pair_with_diagonal(1e308, 1e308), hermitian=True),
    # The message names the pair's smaller eigenvalue, not its diagonal entry -2e-08.
    "pair-rounded-above-its-diagonal": Row(
        _pair_rounded_above_its_diagonal, hermitian=True, message="negative eigenvalue -1.9999999989472883e-08 beyond 1e-08"
    ),
    **{
        f"corner-{name}-{f}": Row(lambda make=make, f=f: make(f))
        for name, make in {
            "cat": lambda f: pseudopure(cat_state(7, W), f),
            "mixture": lambda f: pseudopure(decohered_mixture(6, W), f),
            "system": lambda f: reduced_state(pseudopure(cat_state(7, W), f), [1, 2, 3, 4, 5, 6]),
            "control": lambda f: reduced_state(pseudopure(cat_state(7, W), f), [0]),
        }.items()
        for f in (1.0, 0.7)
    },
    **{f"scan-{dim}-{case}": Row(lambda d=dim, c=case: _scan_case(d, c)) for dim, case in SCAN_CASES},
    **{
        f"random-pairs-{seed}-{trial}{variant}": Row(
            lambda s=seed, t=trial, v=variant: _random_pair_variant(s, t, v[1:]),
            hermitian=trial % 2 == 0 if variant == "-skewed" else None,
        )
        for seed in range(10)
        for trial in range(20)
        # A trial with a second partner is not varied.
        for variant in (("",) if trial % 7 in (2, 4, 6) else ("", "-skewed", "-diagonal"))
    },
    **{
        f"hermitian-{kind}-{value}-{seed}-{trial}": Row(
            lambda e=edge, s=seed, t=trial: _hermitian_edge_trials(e, s)[t], hermitian=verdict
        )
        for edge, ((kind, value), verdict) in enumerate(HERMITIAN_EDGES)
        for seed in range(3)
        for trial in range(4)
    },
    # The closed form reads the pair's eigenvalue as -inf; eigvalsh of the
    # whole matrix returns NaN.
    **{
        f"overflow-{route}": Row(
            lambda w=route == "whole": _overflowing_state(w), message=f"negative eigenvalue {x} beyond 1e-08"
        )
        for route, x in (("pairs", "-inf"), ("whole", "nan"))
    },
    **{
        f"overlapping-{f}": Row(lambda f=f: _overlapping_classes_state(None if f is None else f * TOL), f)
        for f in (None, 0.5, -0.5, -2.0)
    },
}


def _no_factor(matrix):
    raise np.linalg.LinAlgError("forced failure")


@pytest.mark.parametrize("name", ZOO)
def test_validation_matches_the_dense_oracles(monkeypatch, name):
    row = ZOO[name]
    built = row.make()
    given = np.array(built.matrix) if isinstance(built, DensityMatrix) else built.copy()
    dim, matrix = given.shape[0], given.copy()
    # What validation must find, read from the dense matrix: the verdict
    # from its trace, is_hermitian and eigvalsh, in that order; its classes
    # from np.nonzero, in which -0.0 is zero and NaN is not; and its pairs,
    # lower index first and ascending, none if the elements off the
    # diagonal lie in more than one class.
    rows, cols = np.nonzero(matrix)
    classes = np.union1d(rows ^ cols, [0])
    pairs = sorted({(min(r, c), max(r, c)) for r, c in zip(rows.tolist(), cols.tolist()) if r != c})
    pairs = np.array(pairs, dtype=int).reshape(-1, 2) if classes.size <= 2 else None
    hermitian = is_hermitian(matrix)
    assert row.hermitian is None or hermitian is row.hermitian
    # inf - inf is NaN, and a sum beyond the float limit inf.
    with np.errstate(invalid="ignore", over="ignore"):
        trace_holds = not abs(np.trace(matrix) - 1.0) > states.TRACE_TOL
    # Above 8 spins an eigendecomposition takes half a second; the rows
    # there, the scan's, are states by design.
    eigs = None
    if trace_holds and hermitian and row.message is None and dim <= 256:
        eigs = np.linalg.eigvalsh(matrix)
        assert row.eigmin is None or eigs[0] == pytest.approx(row.eigmin * TOL, rel=1e-4)
    negative = row.message is not None or eigs is not None and not eigs[0] >= -TOL
    if not trace_holds:
        error = "trace"
    elif not hermitian:
        error = "not Hermitian"
    else:
        error = "negative eigenvalue" if negative else None
    if row.no_cholesky:
        monkeypatch.setattr(np.linalg, "cholesky", _no_factor)
    sizes = record_factorised_sizes(monkeypatch)
    _, reads = record_pair_reads(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = pytest.raises(StateInvariantError, match=error) if error else contextlib.nullcontext()
        with expected as excinfo:
            rho = DensityMatrix(given, dim.bit_length() - 1)
    # The input is left as it was.  The pairs are read once, after the
    # trace.  A state of pairs is checked in closed form; a state checked
    # whole is factorised once, shifted by POSITIVITY_TOL, and again by
    # eigvalsh where that fails.
    assert given.tobytes() == matrix.tobytes()
    assert len(reads) == trace_holds
    if reads:
        assert reads[0] is None if pairs is None else np.array_equal(reads[0], pairs)
    factorised = pairs is None and error in (None, "negative eigenvalue")
    assert sizes == [dim] * factorised * (1 + (row.no_cholesky or error is not None))
    if error == "negative eigenvalue":
        message = str(excinfo.value)
        if row.message:
            assert message == row.message
        else:
            assert float(message.split()[2]) == pytest.approx(eigs[0], abs=1e-12)
        assert row.eigmin is None or float(message.split()[2]) == pytest.approx(row.eigmin * TOL, rel=1e-4)
    if error:
        return
    # An accepted state stores the classes of its nonzero elements and
    # class 0, and every element bit for bit, in a read-only copy.
    assert stored_classes(rho)[0].dtype == rows.dtype
    np.testing.assert_array_equal(stored_classes(rho)[0], classes)
    assert rho.matrix.tobytes() == matrix.tobytes() and not rho.matrix.flags.writeable
    given[0, 0] = 2.0
    assert rho.matrix.tobytes() == matrix.tobytes()
    if eigs is not None:
        # A state of pairs reads its entropy in closed form, too.
        for state in (rho, built) if isinstance(built, DensityMatrix) else (rho,):
            assert von_neumann_entropy(state) == pytest.approx(spectrum_entropy(eigs), abs=1e-14)
        assert pairs is None or sizes == []


# The state zoo: states of every kind the state functions and channels
# meet, each passed through all of them by the oracle tables TestStateZoo.
def _run_states(n_spins, mode="analytic", purity_fraction=0.83):
    """The state after each of the steps A-E of a run on a bare register."""
    config = dataclasses.replace(protocol_config(n_spins, purity_fraction), noise_mode=mode)
    out = [protocol.step_a_initialize(config)]
    for step in (protocol.step_b_create_cat, protocol.step_c_entangle,
                 protocol.step_d_decohere, protocol.step_e_recover):
        out.append(step(out[-1], config))
    return out


def _ket_mixture():
    """A 5-spin mixture of four kets on a few indices each."""
    kets = [{1: 0.6, 6: 0.8j}, {3: 0.5, 20: -0.5j, 9: np.sqrt(0.5)}, {30: 1.0}, {12: 0.8, 17: 0.6}]
    psi = np.zeros((4, 32), dtype=complex)
    for row, amplitudes in zip(psi, kets):
        row[list(amplitudes)] = list(amplitudes.values())
    return DensityMatrix((psi.T * [0.4, 0.3, 0.2, 0.1]) @ psi.conj(), 5)


def _on_basis_states(n_spins, size):
    """A random state whose nonzero elements fill a block on ``size`` basis states."""
    rng = np.random.default_rng([24, n_spins, size])
    support = np.sort(rng.choice(1 << n_spins, size, replace=False))
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    matrix = np.zeros((1 << n_spins, 1 << n_spins), dtype=complex)
    matrix[np.ix_(support, support)] = g @ g.conj().T / np.linalg.norm(g) ** 2
    return DensityMatrix(matrix, n_spins)


def _pairs_of_classes(n_spins, n_classes, one_sided=False):
    """Disjoint pairs of ``n_classes`` classes on a diagonal: read as pairs
    for one class, checked whole for more.  With ``one_sided``, one more
    element within ``HERMITIAN_TOL`` above the diagonal at ``(r, c)``, in
    no pair: row ``c`` holds nothing off the diagonal, so the kick of a
    state checked whole finds ``c`` only as the column of that element."""
    rng = np.random.default_rng([38, n_spins, n_classes])
    matrix, pairs = _random_pairs_state(rng, n_spins, None, False, n_classes)
    assert len({low ^ high for low, high in pairs}) == n_classes
    if one_sided:
        r, c = np.setdiff1d(np.arange(1 << n_spins), pairs)[:2]
        matrix[r, c] = 0.5 * HTOL * np.exp(0.4j)
    return DensityMatrix(matrix, n_spins)


def _order_zero_pair_state(seed):
    """A 2-spin state with one pair ``(1, 2)`` of coherence order 0.  Its
    weight of order 0, summed class by class or over the whole matrix, adds
    the same terms in two orders, which round differently on the seeds used."""
    rng = np.random.default_rng([19, seed])
    matrix = np.diag(rng.uniform(0.2, 1.0, 4)).astype(complex)
    element = 0.9 * math.sqrt(matrix[1, 1].real * matrix[2, 2].real)
    matrix[2, 1] = element * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    matrix[1, 2] = np.conj(matrix[2, 1])
    matrix /= np.trace(matrix).real
    d, c = np.abs(np.diag(matrix)) ** 2, np.abs(matrix[2, 1]) ** 2
    assert d[0] + d[1] + c + c + d[2] + d[3] != d[0] + d[1] + d[2] + d[3] + c + c
    return DensityMatrix(matrix, 2)


def _cancelling_state():
    """A 3-spin state whose elements ``rho[0, 4] = 0.1`` and ``rho[1, 5] =
    -0.1`` cancel in the reduced state of spin 0, leaving their class zero."""
    matrix = _with_entries(8, 0.1, (0, 4), (4, 0))
    matrix[1, 5] = matrix[5, 1] = -0.1
    return DensityMatrix(matrix, 3)


# Each state is built once: a ``DensityMatrix`` is immutable.
STATE_ZOO = {name: functools.cache(make) for name, make in {
    **{f"random-{n}": lambda n=n: random_density_matrix(np.random.default_rng([21, n]), n) for n in range(1, 7)},
    "cat-5": lambda: cat_state(5, W),
    "pseudopure-cat-5": lambda: pseudopure(cat_state(5, W), 0.7),
    **{
        f"protocol-{mode}-{name}": lambda mode=mode, k=k: _run_states(4, mode)[k]
        for mode in protocol.NOISE_MODES
        for k, name in enumerate(protocol.STEP_NAMES)
    },
    **{
        f"step-{step}-{n}": lambda n=n, k=k: _run_states(n, "analytic", 0.7)[k]
        for k, step in ((1, "b"), (2, "c")) for n in range(3, 7)
    },
    "mixture-5": _ket_mixture,
    **{f"pairs-{n}-{c}": lambda n=n, c=c: _pairs_of_classes(n, c) for n in (3, 5, 8) for c in (1, 2, 3)},
    **{f"support-{n}-{k}": lambda n=n, k=k: _on_basis_states(n, k) for n, k in ((5, 1), (3, 2), (3, 5), (5, 31))},
    "diagonal": lambda: thermal_state(6, polarization=0.01),
    "one-triangle": lambda: DensityMatrix(_with_entries(16, 0.6 * HTOL * np.exp(0.4j), (12, 3)), 4),
    **{f"order-zero-pair-{seed}": lambda seed=seed: _order_zero_pair_state(seed) for seed in (3, 12)},
    "cancelling": _cancelling_state,
    # Classes 3, 5 and 6 that share indices: one block of every index.
    "overlapping-classes": lambda: DensityMatrix(_overlapping_classes_state(), 4),
    "one-sided-whole": lambda: _pairs_of_classes(5, 2, one_sided=True),
}.items()}


def _keep_sets(n_spins):
    """Every nonempty ascending list of sites of a register of up to four
    spins; above that, the control and the system of a run."""
    if n_spins > 4:
        return [[0], list(range(1, n_spins))]
    return [[site for site in range(n_spins) if mask >> site & 1] for mask in range(1, 1 << n_spins)]


def _zoo_row(name):
    """A zoo state, its register size, dense view, class row and bytes."""
    rho = STATE_ZOO[name]()
    return rho, rho.n_spins, np.array(rho.matrix), stored_classes(rho)[0], state_bytes(rho)


def _assert_made_afresh(rho, given, results=()):
    """Every state made stores what a state built afresh from its dense view
    stores, bit for bit, and so has its entropy, whatever made it: where an
    element or a whole class decays or underflows to zero, or a class of a
    reduced state sums to zero.  The state given is left as it was."""
    for result in results:
        assert state_bytes(result) == state_bytes(DensityMatrix(result.matrix, result.n_spins))
    assert state_bytes(rho) == given


@pytest.mark.parametrize("name", STATE_ZOO)
class TestStateZoo:
    """Each zoo state through each state function and channel."""

    def test_coherence_weights(self, name):
        # Bit-identical where each order's terms come in the matrix's order,
        # as in every state the package builds (at most two classes, none of
        # order 0 off the diagonal); else within ten times the largest
        # deviation measured, 8.8e-15.  Their squares partition the norm.
        rho, n, dense, classes, given = _zoo_row(name)
        weights, oracle = coherence_orders(rho), popcount_weights(dense, n)
        ups = n - operators.bit_table(n).sum(axis=0)
        order_zero = (ups[:, None] == ups[None, :]) & ~np.eye(rho.dim, dtype=bool)
        if classes.size <= 2 and not dense[order_zero].any():
            assert weights == oracle
        else:
            assert weights == pytest.approx(oracle, rel=1e-13, abs=0.0)
        total = sum(w**2 for w in weights.values())
        assert total == pytest.approx(np.linalg.norm(dense) ** 2, rel=1e-14)
        assert total == pytest.approx(purity(rho), rel=1e-14)
        _assert_made_afresh(rho, given)

    def test_traces(self, name):
        # Traces of products and the entropy; mixtures with the maximally
        # mixed state, down to a fraction whose elements underflow.
        rho, n, dense, _, given = _zoo_row(name)
        rng = np.random.default_rng([28, n])
        psi = rng.normal(size=rho.dim) + 1j * rng.normal(size=rho.dim)
        psi /= np.linalg.norm(psi)
        observable = rng.normal(size=dense.shape) + 1j * rng.normal(size=dense.shape)
        assert purity(rho) == pytest.approx(np.trace(dense @ dense).real, rel=1e-13)
        for target in (DensityMatrix(np.outer(psi, psi.conj()), n), cat_state(n, W)):
            expected = np.trace(dense @ target.matrix).real
            assert fidelity(rho, target) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert states.expectation(rho, observable) == pytest.approx(np.trace(dense @ observable), rel=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(dense_entropy(dense), abs=1e-14)
        _assert_made_afresh(rho, given, [pseudopure(rho, f) for f in (0.83, 1.0, 1e-322)])

    def test_reduced_states(self, name):
        rho, n, dense, _, given = _zoo_row(name)
        results = []
        for keep in _keep_sets(n):
            expected = np.trace(dense @ kronecker_total_spin_operator("z", keep, n)).real
            assert states.magnetization(rho, keep) == pytest.approx(expected, rel=1e-12, abs=1e-15)
            results.append(reduced_state(rho, keep))
            assert results[-1].matrix.tobytes() == index_order_partial_trace(dense, n, keep).tobytes(), keep
        _assert_made_afresh(rho, given, results)

    def test_dephasing(self, name):
        # One spin undephased, at times up to one that takes one class's
        # factor to about 1e-323, so that some or all of its elements round
        # to zero, and 1e5, which zeroes every class differing in a dephased spin.
        rho, n, dense, classes, given = _zoo_row(name)
        rates = np.random.default_rng([28, n]).uniform(0.1, 20.0, n)
        if n > 1:
            rates[-1] = 0.0
        noise = NoiseModel(tuple(rates), (0.0,) * n)
        decay = 0.5 * rates @ operators.bit_table(n)[:, classes[1:]]
        results = []
        for t in (0.0, 0.004, 0.17, 2.5, 1e5, *(743.5 / decay[decay > 0])[:1]):
            results.append(apply_dephasing(rho, noise, t))
            np.testing.assert_array_equal(results[-1].matrix, dephasing_reference(dense, n, rates, t))
        _assert_made_afresh(rho, given, results)

    def test_flip_relaxation(self, name):
        # At the first site, the last and every one.
        rho, n, dense, _, given = _zoo_row(name)
        flips, results = np.random.default_rng([28, n]).uniform(0.2, 3.0, n), []
        for sites in ([0], [n - 1], list(range(n))):
            at_sites = np.zeros(n)
            at_sites[sites] = flips[sites]
            noise = NoiseModel((0.0,) * n, tuple(at_sites))
            for t in (0.0, 0.37):
                expected = dense
                for site in sites:
                    expected = flip_one_site_reference(expected, site, n, at_sites[site] * t)
                results.append(apply_flip_relaxation(rho, noise, t))
                assert results[-1].matrix.tobytes() == expected.tobytes(), (sites, t)
        _assert_made_afresh(rho, given, results)

    def test_phase_kicks(self, name):
        # On either side of the kick's blocks of trajectories.  A state of
        # pairs is kicked at them, with no characteristic matrix; a diagonal
        # state comes back bit for bit.
        rho, n, dense, classes, given = _zoo_row(name)
        kicks, results = np.random.default_rng([28, n]).uniform(0.01, 3.2, n), []
        for trajectories in (1, KICK_BLOCK - 1, KICK_BLOCK, KICK_BLOCK + 1, 3 * KICK_BLOCK + 7):
            noise = NoiseModel(tuple(kicks), (0.0,) * n, trajectories)
            with no_characteristic_matrix() if classes.size <= 2 else contextlib.nullcontext():
                results.append(apply_phase_kicks_mc(rho, noise, 0.7, seed=trajectories))
            reference = phase_kicks_reference(dense, n, np.sqrt(kicks * 0.7), trajectories, seed=trajectories)
            np.testing.assert_allclose(results[-1].matrix, reference, rtol=0.0, atol=1e-13)
            assert np.diagonal(results[-1].matrix).tobytes() == np.diagonal(dense).tobytes()
            if classes.size == 1:
                assert state_bytes(results[-1]) == given
        _assert_made_afresh(rho, given, results)
