"""State constructors, coherence orders, entropy, fidelity."""

import copy
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from spincat import (
    CatWeights,
    DensityMatrix,
    NoiseModel,
    StateInvariantError,
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
    coherence_components,
    is_hermitian,
    protocol_config,
    random_density_matrix,
    random_unitary,
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


def _assert_coherence_orders_match_oracles(rho):
    weights = coherence_orders(rho)
    components = coherence_components(rho.matrix, rho.n_spins)
    assert sorted(weights) == sorted(components)
    for q, component in components.items():
        assert weights[q] == pytest.approx(np.linalg.norm(component), rel=1e-12, abs=1e-15)
    # The whole-matrix histogram: a kept pattern drops only exact zeros
    # from the same sums in the same order, so the weights are bit-identical.
    n = rho.n_spins
    ups = n - operators.bit_table(n).sum(axis=0)
    order = (ups[:, None] - ups[None, :] + n).ravel()
    totals = np.bincount(order, weights=np.abs(rho.matrix.ravel()) ** 2, minlength=2 * n + 1)
    assert weights == {q: float(np.sqrt(totals[q + n])) for q in range(-n, n + 1)}


def test_coherence_orders_against_popcount_oracle():
    rng = np.random.default_rng(2)
    for n_spins in (1, 3, 5):
        _assert_coherence_orders_match_oracles(random_density_matrix(rng, n_spins))


def _four_spin_protocol_states():
    """The state after each of the steps A-E of a 4-spin ``run_protocol``."""
    config = protocol_config(4)
    rho = protocol.step_a_initialize(config)
    out = [rho]
    for step in (
        protocol.step_b_create_cat,
        protocol.step_c_entangle,
        protocol.step_d_decohere,
        protocol.step_e_recover,
    ):
        rho = step(rho, config)
        out.append(rho)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: cat_state(5, CatWeights(0.6, 0.8j)),
        lambda: pseudopure(cat_state(5, CatWeights(0.6, 0.8j)), 0.7),
        *(lambda k=k: _four_spin_protocol_states()[k] for k in range(5)),
    ],
    ids=["cat", "pseudopure-cat", *(f"protocol-{name}" for name in protocol.STEP_NAMES)],
)
def test_coherence_orders_of_block_states_against_popcount_oracle(make):
    rho = make()
    # Stored by a few classes and checked block by block, not as one dense block.
    assert rho._blocks is not None and rho._classes.size <= 2
    _assert_coherence_orders_match_oracles(rho)


def test_run_protocol_finds_each_pattern_once(monkeypatch):
    # Validation finds the blocks, once per state; entropies reuse them.
    scans = []
    constructions = []
    scan = states._block_structure
    validate = DensityMatrix.__post_init__

    def counted_scan(classes, values):
        scans.append(values.shape)
        return scan(classes, values)

    def counted_validate(self):
        constructions.append(self.n_spins)
        validate(self)

    monkeypatch.setattr(states, "_block_structure", counted_scan)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_validate)
    run_protocol(protocol_config(4))
    assert len(constructions) == 24
    assert len(scans) == len(constructions)


def test_coherence_components_are_orthogonal():
    # Fixed-order components are elementwise disjoint, hence orthogonal,
    # so their squared weights partition the squared Frobenius norm.
    rng = np.random.default_rng(8)
    rho = random_density_matrix(rng, 3)
    total = sum(w**2 for w in coherence_orders(rho).values())
    assert total == pytest.approx(np.linalg.norm(rho.matrix) ** 2, rel=1e-14)
    assert total == pytest.approx(purity(rho), rel=1e-14)


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


def test_von_neumann_entropy_reference_values():
    assert von_neumann_entropy(ferro_state(3, "up")) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(8) / 8.0, 3)
    assert von_neumann_entropy(mixed) == pytest.approx(3.0 * np.log(2.0))
    # Reduced control of a balanced entangled pair is maximally mixed.
    control = reduced_state(cat_state(3, CatWeights.balanced()), [0])
    assert von_neumann_entropy(control) == pytest.approx(np.log(2.0))


@pytest.mark.parametrize("seed", range(20))
def test_entropy_invariant_under_unitaries(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2)
    u = random_unitary(rng, 4)
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, 2)
    assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


def test_fidelity_values_and_validation():
    target = cat_state(2, CatWeights.balanced())
    assert fidelity(target, target) == pytest.approx(1.0)
    assert fidelity(ferro_state(2, "up"), target) == pytest.approx(0.5)
    orthogonal = cat_state(2, CatWeights(1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)))
    assert fidelity(orthogonal, target) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(4) / 4.0, 2)
    with pytest.raises(ValueError):
        fidelity(target, mixed)


@pytest.mark.parametrize("seed", range(5))
def test_traces_match_dense_products(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 3)
    psi = random_unitary(rng, 8)[:, 0]
    target = DensityMatrix(np.outer(psi, psi.conj()), 3)
    observable = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert purity(rho) == pytest.approx(np.trace(rho.matrix @ rho.matrix).real, rel=1e-13)
    assert fidelity(rho, target) == pytest.approx(
        np.trace(rho.matrix @ target.matrix).real, rel=1e-12, abs=1e-15
    )
    assert states.expectation(rho, observable) == pytest.approx(
        np.trace(rho.matrix @ observable), rel=1e-12
    )
    sz = operators.total_spin_operator("z", [0, 2], 3)
    assert states.magnetization(rho, [0, 2]) == pytest.approx(
        np.trace(rho.matrix @ sz).real, rel=1e-12, abs=1e-15
    )


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
    frozen = ferro_state(1, "up")
    with pytest.raises(ValueError):
        frozen.matrix[0, 0] = 2.0


def test_density_matrix_is_immutable_and_copies_by_value():
    rho = pseudopure(cat_state(3, CatWeights(0.6, 0.8j)), 0.7)
    with pytest.raises(AttributeError):
        rho.n_spins = 4
    with pytest.raises(AttributeError):
        rho.matrix = np.eye(8) / 8.0
    with pytest.raises(ValueError):
        rho._values[0, 0] = 1.0
    for twin in (copy.deepcopy(rho), pickle.loads(pickle.dumps(rho))):
        assert twin.n_spins == 3
        assert twin.matrix.tobytes() == rho.matrix.tobytes()
        assert not twin._values.flags.writeable


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


@pytest.mark.parametrize("n_spins", [1, 3, 6, 8])
def test_positivity_certificate_matches_eigenvalue_criterion(n_spins):
    rng = np.random.default_rng(n_spins)
    tol = states.POSITIVITY_TOL
    inside = _state_with_smallest_eigenvalue(rng, n_spins, -0.5 * tol)
    DensityMatrix(inside, n_spins)
    outside = _state_with_smallest_eigenvalue(rng, n_spins, -2.0 * tol)
    with pytest.raises(StateInvariantError, match="negative eigenvalue") as excinfo:
        DensityMatrix(outside, n_spins)
    reported = float(str(excinfo.value).split()[2])
    assert reported == pytest.approx(-2.0 * tol, rel=1e-4)


@pytest.mark.parametrize("n_spins", [1, 6])
def test_eigenvalue_fallback_decides_when_cholesky_fails(monkeypatch, n_spins):
    def no_factor(matrix):
        raise np.linalg.LinAlgError("forced failure")

    rng = np.random.default_rng(10 + n_spins)
    tol = states.POSITIVITY_TOL
    inside = _state_with_smallest_eigenvalue(rng, n_spins, -0.5 * tol)
    outside = _state_with_smallest_eigenvalue(rng, n_spins, -2.0 * tol)
    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    assert np.array_equal(DensityMatrix(inside, n_spins).matrix, inside)
    with pytest.raises(StateInvariantError, match="negative eigenvalue"):
        DensityMatrix(outside, n_spins)


@pytest.mark.parametrize("fraction", [1.0, 0.7])
def test_ten_spin_corner_states_pass_without_eigendecomposition(monkeypatch, fraction):
    def no_eigvalsh(matrix):
        raise AssertionError("eigvalsh ran on a positive state")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    cat = cat_state(10, CatWeights(0.6, 0.8j))
    rho = pseudopure(cat, fraction)
    assert rho.dim == 1024
    assert np.array_equal(rho.matrix, (1.0 - fraction) * np.eye(1024) / 1024 + fraction * cat.matrix)


@pytest.mark.parametrize("seed", range(3))
def test_validation_leaves_matrix_and_input_untouched(seed):
    rng = np.random.default_rng(seed)
    given = _state_with_smallest_eigenvalue(rng, 4, -0.5 * states.POSITIVITY_TOL)
    snapshot = given.copy()
    rho = DensityMatrix(given, 4)
    assert np.array_equal(rho.matrix, snapshot)
    assert np.array_equal(given, snapshot)
    assert given.flags.writeable and not rho.matrix.flags.writeable
    given[0, 0] = 2.0
    assert rho.matrix[0, 0] == snapshot[0, 0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_non_finite_entries_fail_before_the_factorisation(monkeypatch, value, entry):
    def not_reached(matrix):
        raise AssertionError("positivity check ran on a non-finite matrix")

    matrix = np.eye(4, dtype=complex) / 4.0
    matrix[entry] = value
    matrix[entry[::-1]] = value
    monkeypatch.setattr(np.linalg, "cholesky", not_reached)
    monkeypatch.setattr(np.linalg, "eigvalsh", not_reached)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateInvariantError):
            DensityMatrix(matrix, 2)


def test_thermal_state():
    rho = thermal_state(3, polarization=1e-3)
    assert abs(rho.matrix.trace() - 1.0) < 1e-12
    diag = np.diag(rho.matrix).real
    assert diag[0] > diag[-1]  # all-up slightly favored
    with pytest.raises(ValueError):
        thermal_state(3, polarization=0.5)


# 4 blocks of 3, 8 of 2 and 36 of 1: 40 nonzeros off the diagonal of a
# 64 x 64 matrix, but its 3x3 blocks put indices in two pairs, so it is
# checked whole.
SPARSE_LAYOUT = (3,) * 4 + (2,) * 8 + (1,) * 36
# 16 pairs, each in its own class, and 32 singles: checked block by block.
PAIRS_LAYOUT = (2,) * 16 + (1,) * 32
# 21 blocks of 3 and one of 1: 126 nonzeros off the diagonal, more than
# D = 64, so the same kind of matrix is checked whole.
DENSE_LAYOUT = (3,) * 21 + (1,)


def _block_permuted_state(rng, layout, eigmin=None, negative_size=None):
    """Unit-trace Hermitian matrix, block-diagonal with blocks of the sizes
    in ``layout`` after a random permutation of the basis.

    With ``eigmin``, the first block of size ``negative_size`` has
    smallest eigenvalue ``eigmin``, and every other eigenvalue is larger.
    """
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
    perm = rng.permutation(dim)
    matrix = blocks[np.ix_(perm, perm)]
    return (matrix + matrix.conj().T) / 2.0


def _record_factorised_sizes(monkeypatch):
    """Patch ``cholesky`` and ``eigvalsh`` to record the order of every matrix they see."""
    sizes = []
    for name in ("cholesky", "eigvalsh"):

        def recorded(a, *args, _original=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return sizes


@pytest.mark.parametrize("factor", [0.5, -0.5, -2.0])
@pytest.mark.parametrize(
    "layout, negative_size, block, largest",
    [
        (PAIRS_LAYOUT, 1, 2, 2),
        (PAIRS_LAYOUT, 2, 2, 2),
        (SPARSE_LAYOUT, 1, 3, 64),
        (SPARSE_LAYOUT, 2, 3, 64),
        (SPARSE_LAYOUT, 3, 3, 64),
        (DENSE_LAYOUT, 3, 64, 64),
        (None, None, 64, 64),
    ],
    ids=[
        "pairs-1x1",
        "pairs-2x2",
        "blocks-1x1",
        "blocks-2x2",
        "blocks-3x3",
        "dense-blocks",
        "dense-random",
    ],
)
def test_block_route_verdict_matches_eigenvalue_criterion(
    monkeypatch, layout, negative_size, block, largest, factor
):
    rng = np.random.default_rng([negative_size or 0, block, int(4 * factor) + 8])
    tol = states.POSITIVITY_TOL
    if layout is None:
        matrix = _state_with_smallest_eigenvalue(rng, 6, factor * tol)
    else:
        matrix = _block_permuted_state(rng, layout, factor * tol, negative_size)
    eigmin = float(np.linalg.eigvalsh(matrix)[0])
    assert eigmin == pytest.approx(factor * tol, rel=1e-4)
    sizes = _record_factorised_sizes(monkeypatch)
    if eigmin >= -tol:
        assert np.array_equal(DensityMatrix(matrix, 6).matrix, matrix)
    else:
        with pytest.raises(StateInvariantError, match="negative eigenvalue") as excinfo:
            DensityMatrix(matrix, 6)
        reported = float(str(excinfo.value).split()[2])
        assert reported == pytest.approx(eigmin, rel=1e-4)
    # Pairs and singles are factorised block by block, nothing larger than
    # a pair; any larger block makes the whole matrix one block.
    assert max(sizes) == largest


@pytest.mark.parametrize("n_spins", [2, 4])
@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_hermiticity_on_a_one_sided_entry(n_spins, lower, factor):
    # m[r, c] != 0 with m[c, r] = 0: its transpose is missing from the
    # nonzero pattern, and the entry alone is the residual.
    dim = 1 << n_spins
    matrix = np.eye(dim, dtype=complex) / dim
    entry = (dim - 1, 1) if lower else (1, dim - 1)
    matrix[entry] = factor * states.HERMITIAN_TOL * np.exp(0.3j)
    assert is_hermitian(matrix) == (factor < 1.0)
    if factor < 1.0:
        assert np.array_equal(DensityMatrix(matrix, n_spins).matrix, matrix)
    else:
        with pytest.raises(StateInvariantError, match="not Hermitian"):
            DensityMatrix(matrix, n_spins)


def _entropy_reference(matrix):
    eigs = np.linalg.eigvalsh(matrix)
    eigs = eigs[eigs >= 1e-14]
    return max(float(-np.sum(eigs * np.log(eigs))), 0.0)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "layout",
    [SPARSE_LAYOUT, DENSE_LAYOUT, (2,) * 32, (1,) * 64, (3, 3, 2) + (1,) * 56],
    ids=["mixed", "dense-blocks", "pairs", "diagonal", "few"],
)
def test_entropy_of_block_states_matches_eigvalsh(layout, seed):
    rng = np.random.default_rng(seed)
    matrix = _block_permuted_state(rng, layout)
    rho = DensityMatrix(matrix, 6)
    assert von_neumann_entropy(rho) == pytest.approx(_entropy_reference(matrix), abs=1e-12)


@pytest.mark.parametrize("n_spins", [2, 4, 7])
def test_dense_state_is_one_block_of_every_index(n_spins):
    rho = random_density_matrix(np.random.default_rng(n_spins), n_spins)
    assert rho._blocks is None
    np.testing.assert_array_equal(rho._classes, np.arange(rho.dim))
    # The state keeps its classes only; its spectrum, read from the one
    # block, is the matrix's, bit for bit, and leaves no dense view behind.
    assert rho._dense is None
    dense = np.array(rho.matrix)
    twin = DensityMatrix(dense, n_spins)
    assert von_neumann_entropy(twin) == _entropy_reference(dense)
    assert twin._dense is None
    assert twin.matrix.tobytes() == dense.tobytes()
    assert twin.matrix is twin.matrix


@pytest.mark.parametrize("make", ["input", "kicked"])
def test_dense_ten_spin_state_retains_one_matrix(make):
    # Traced memory a dense state holds, in units of one D x D complex
    # matrix: its classes (1.0) until the dense view is read (2.0).
    n, dim = 10, 1024
    rho = random_density_matrix(np.random.default_rng(4), n)
    matrix = np.array(rho.matrix)
    noise = NoiseModel.uniform(n, dephasing_per_s=1.0, mc_trajectories=16)
    tracemalloc.start()
    try:
        if make == "input":
            state = DensityMatrix(matrix, n)
        else:
            state = apply_phase_kicks_mc(rho, noise, 0.3, seed=1)
        retained = tracemalloc.get_traced_memory()[0]
        assert state._blocks is None
        state.matrix
        viewed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
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


@pytest.mark.parametrize("fraction", [1.0, 0.7])
def test_entropy_of_corner_states_matches_eigvalsh(fraction):
    w = CatWeights(0.6, 0.8j)
    for rho in (
        pseudopure(cat_state(7, w), fraction),
        pseudopure(decohered_mixture(6, w), fraction),
        reduced_state(pseudopure(cat_state(7, w), fraction), [1, 2, 3, 4, 5, 6]),
        reduced_state(pseudopure(cat_state(7, w), fraction), [0]),
    ):
        assert von_neumann_entropy(rho) == pytest.approx(_entropy_reference(rho.matrix), abs=1e-12)


def test_ten_spin_protocol_runs_on_blocks_of_at_most_two(monkeypatch):
    # Every protocol state is a diagonal plus a few corner coherences, so
    # validation and entropies never factorise more than a 2 x 2 block.
    def at_most_two(original):
        def call(a, *args, **kwargs):
            if np.shape(a)[-1] > 2:
                raise AssertionError(f"{original.__name__} ran on a {np.shape(a)} array")
            return original(a, *args, **kwargs)

        return call

    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, at_most_two(getattr(np.linalg, name)))
    n = 10
    report = run_protocol(protocol_config(n))
    monkeypatch.undo()
    system = reduced_state(report.final_state, list(range(1, n)))
    assert report.step("recover").system_entropy == pytest.approx(
        _entropy_reference(system.matrix), abs=1e-12
    )
    assert report.final_control_entropy > 0.0


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
    tracemalloc.start()
    try:
        DensityMatrix(matrix, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * dim * dim * 16


def test_register_size_is_checked_before_the_copy():
    # The cap is checked on the input as given, before a 1 GiB copy.
    huge = np.broadcast_to(np.complex128(0.0), (8192, 8192))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the dense limit of 12"):
            DensityMatrix(huge, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("size", [True, 1.0, 0])
def test_register_size_must_be_a_positive_integer(size):
    with pytest.raises(ValueError, match="positive integer"):
        DensityMatrix(np.eye(2) / 2.0, size)


def _scan_case(dim, case):
    """A ``dim x dim`` complex matrix with a full diagonal and off-diagonal
    nonzeros laid out for ``case``."""
    rng = np.random.default_rng([dim, len(case)])
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[np.diag_indices(dim)] = rng.uniform(0.5, 1.0, dim)
    last = dim - 1
    if case == "slice-boundary":
        # Classes on both sides of the boundaries of the 32-class slices
        # that D = 1024 is read in, one pair each at rows spread by D / 8,
        # alternately in one triangle and in both.  At D = 128 the pairs
        # of classes 31 and 63 share index 31.
        xs = sorted({31, 32, 63, 64, last} & set(range(1, dim)))
        for k, x in enumerate(xs):
            r = k * dim // 8
            matrix[r, r ^ x] = 0.25 + 0.5j
            if k % 2:
                matrix[r ^ x, r] = 0.25 - 0.5j
    elif case == "imaginary-only":
        matrix[0, last] = 0.5j
        matrix[last, 0] = -0.5j
        odd = np.arange(1, dim, 2)
        matrix[odd, odd] = 0.5j
    elif case == "negative-zero":
        # (-0.0, -0.0) is zero; (-0.0, x) and (x, -0.0) are not.
        matrix[0, last] = complex(-0.0, -0.0)
        matrix[last, 0] = complex(-0.0, 0.5)
        matrix[last // 2, 0] = complex(0.5, -0.0)
        even = np.arange(0, dim, 2)
        matrix.real[even, even] = -0.0
    elif case == "non-finite":
        matrix[0, last] = np.nan
        matrix[last, 0] = complex(0.0, np.inf)
        matrix[last // 2, 0] = complex(-np.inf, np.nan)
    else:
        # Exactly D or D + 1 nonzeros at random off-diagonal places.
        count = dim + (case == "count-D+1")
        flat = rng.choice(np.flatnonzero(~np.eye(dim, dtype=bool)), count, replace=False)
        matrix.ravel()[flat] = rng.normal(size=count) + 1j * rng.normal(size=count)
    return matrix


SCAN_CASES = [
    (dim, case)
    for dim in (2, 64, 128, 1024)
    for case in (
        "slice-boundary",
        "imaginary-only",
        "negative-zero",
        "non-finite",
        "count-D",
        "count-D+1",
    )
    # Two off-diagonal places cannot hold D + 1 = 3 nonzeros.
    if (dim, case) != (2, "count-D+1")
]


@pytest.mark.parametrize("dim, case", SCAN_CASES, ids=[f"{d}-{c}" for d, c in SCAN_CASES])
def test_block_structure_scan_matches_np_nonzero(dim, case):
    matrix = _scan_case(dim, case)
    rows, cols = np.nonzero(matrix)
    off_diagonal = np.count_nonzero(rows != cols)
    assert off_diagonal == {"count-D": dim, "count-D+1": dim + 1}.get(case, off_diagonal)
    classes, values = states._classes_of(matrix)
    # The occupied classes are those of the nonzero elements, and class 0;
    # they hold every element of those classes, bit for bit.
    assert classes.dtype == rows.dtype
    np.testing.assert_array_equal(classes, np.union1d(rows ^ cols, [0]))
    index = np.arange(dim)
    assert values.tobytes() == matrix[index, index ^ classes[:, None]].tobytes()
    np.testing.assert_array_equal(states._dense_of(classes, values, dim), matrix)
    blocks = states._block_structure(classes, values)
    pairs = {frozenset(pair) for pair in zip(rows.tolist(), cols.tolist())} - {
        frozenset([i]) for i in range(dim)
    }
    shared = len({i for pair in pairs for i in pair}) < 2 * len(pairs)
    assert (blocks is None) == (off_diagonal > dim or shared)
    if blocks is not None:
        # The singles and the pairs, lower index first and ascending,
        # partition the indices, and each nonzero element lies in one.
        singles, pair_blocks = blocks
        assert singles.shape[1] == 1 and pair_blocks.shape[1] == 2
        np.testing.assert_array_equal(pair_blocks, sorted(sorted(pair) for pair in pairs))
        members = np.concatenate([block.ravel() for block in blocks])
        np.testing.assert_array_equal(np.sort(members), index)
        block_of = np.empty(dim, dtype=int)
        for number, block in enumerate(b for group in blocks for b in group):
            block_of[block] = number
        np.testing.assert_array_equal(block_of[rows], block_of[cols])


def _random_pairs_state(rng, n_spins, couple, indefinite):
    """A sparse matrix of unit trace, Hermitian to ``HERMITIAN_TOL``, and
    the pairs it holds: a positive diagonal plus disjoint pairs
    ``(r, r ^ x)``, lower index first, from one to three classes ``x``.
    Every pair is positive definite but, with ``indefinite``, one.  With
    ``couple``, one more element joins an index of a pair to a second
    partner: a Hermitian pair of elements (``"both"``), or one element
    within ``HERMITIAN_TOL`` in the lower or upper triangle."""
    dim = 1 << n_spins
    matrix = np.diag(rng.uniform(0.2, 1.0, dim)).astype(complex)
    free = np.ones(dim, dtype=bool)
    pairs = []
    for x in rng.choice(np.arange(1, dim), size=rng.integers(1, 4), replace=False):
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


@pytest.mark.parametrize("seed", range(10))
def test_random_pair_states_match_eigvalsh(seed):
    # Disjoint pairs from several classes are 2x2 blocks; a second partner
    # of any index, also by one element in one triangle, makes the state one
    # block of every index.  Either way the verdict and the entropy are those
    # of the dense spectrum.
    rng = np.random.default_rng([14, seed])
    tol = states.POSITIVITY_TOL
    for trial in range(20):
        n_spins, indefinite = int(rng.integers(3, 7)), trial % 3 == 2
        couple = (None, None, "both", None, "lower", None, "upper")[trial % 7]
        matrix, pairs = _random_pairs_state(rng, n_spins, couple, indefinite)
        classes, values = states._classes_of(matrix)
        blocks = states._block_structure(classes, values)
        if couple:
            assert blocks is None
        else:
            np.testing.assert_array_equal(blocks[1], np.array(pairs).reshape(-1, 2))
        eigmin = float(np.linalg.eigvalsh(matrix)[0])
        if eigmin < -tol:
            with pytest.raises(StateInvariantError, match="negative eigenvalue") as excinfo:
                DensityMatrix(matrix, n_spins)
            assert float(str(excinfo.value).split()[2]) == pytest.approx(eigmin, abs=1e-12)
        else:
            rho = DensityMatrix(matrix, n_spins)
            assert von_neumann_entropy(rho) == pytest.approx(_entropy_reference(matrix), abs=1e-12)


def _overlapping_classes_state(eigmin=None):
    """A 4-spin state whose off-diagonal classes 3, 5 and 3 ^ 5 = 6 overlap:
    a full 3x3 block on the 3-cycle {0, 3, 6} (0 ^ 3 = 3, 3 ^ 6 = 5,
    0 ^ 6 = 6) and a tridiagonal one on the chain 8 - 11 - 14 (classes 3
    and 5, with the element of class 6 between its ends zero).  With
    ``eigmin``, the chain block's smallest eigenvalue is ``eigmin``."""
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


@pytest.mark.parametrize("factor", [None, 0.5, -0.5, -2.0], ids=["positive", "0.5", "-0.5", "-2"])
def test_overlapping_classes_are_checked_whole(monkeypatch, factor):
    tol = states.POSITIVITY_TOL
    matrix = _overlapping_classes_state(None if factor is None else factor * tol)
    eigmin = float(np.linalg.eigvalsh(matrix)[0])
    if factor is not None:
        assert eigmin == pytest.approx(factor * tol, rel=1e-4)
    sizes = _record_factorised_sizes(monkeypatch)
    if eigmin < -tol:
        with pytest.raises(StateInvariantError, match="negative eigenvalue") as excinfo:
            DensityMatrix(matrix, 4)
        assert float(str(excinfo.value).split()[2]) == pytest.approx(eigmin, rel=1e-4)
        assert max(sizes) == 16
        return
    rho = DensityMatrix(matrix, 4)
    monkeypatch.undo()
    # Classes 3, 5 and 6 share indices, so the state is one block of
    # every index, although only 10 elements off the diagonal are nonzero.
    np.testing.assert_array_equal(rho._classes, [0, 3, 5, 6])
    assert rho._blocks is None
    assert max(sizes) == 16
    assert np.array_equal(rho.matrix, matrix)
    assert von_neumann_entropy(rho) == pytest.approx(_entropy_reference(matrix), abs=1e-14)
