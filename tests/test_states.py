"""State constructors, coherence orders, entropy, fidelity."""

import copy
import dataclasses
import itertools
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from spincat import (
    CatWeights,
    DensityMatrix,
    NoiseModel,
    StateInvariantError,
    apply_dephasing,
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
    dense_entropy,
    is_hermitian,
    kronecker_total_spin_operator,
    popcount_weights,
    protocol_config,
    random_density_matrix,
    random_unitary,
    record_factorised_sizes,
    record_pair_scans,
    state_bytes,
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


def _assert_coherence_orders_match_oracles(rho):
    weights = coherence_orders(rho)
    components = coherence_components(rho.matrix, rho.n_spins)
    assert sorted(weights) == sorted(components)
    for q, component in components.items():
        assert weights[q] == pytest.approx(np.linalg.norm(component), rel=1e-12, abs=1e-15)
    # The whole-matrix histogram: a kept pattern drops only exact zeros
    # from the same sums in the same order, so the weights are bit-identical.
    assert weights == popcount_weights(rho.matrix, rho.n_spins)


def test_coherence_orders_against_popcount_oracle():
    rng = np.random.default_rng(2)
    for n_spins in (1, 3, 5):
        _assert_coherence_orders_match_oracles(random_density_matrix(rng, n_spins))


def _four_spin_protocol_states(mode="analytic"):
    """The state after each of the steps A-E of a 4-spin ``run_protocol``."""
    config = dataclasses.replace(protocol_config(4), noise_mode=mode)
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


def _order_zero_pair_state(seed):
    """A 2-spin state with one pair ``(1, 2)`` of coherence order 0, whose
    elements fall in the diagonal's bin.  Row 2 holds its partner before its
    diagonal element, and on the seeds used the two orders of addition
    round the sum of order 0 differently."""
    rng = np.random.default_rng([19, seed])
    matrix = np.diag(rng.uniform(0.2, 1.0, 4)).astype(complex)
    element = 0.9 * math.sqrt(matrix[1, 1].real * matrix[2, 2].real)
    matrix[2, 1] = element * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    matrix[1, 2] = np.conj(matrix[2, 1])
    matrix /= np.trace(matrix).real
    d, c = np.abs(np.diag(matrix)) ** 2, np.abs(matrix[2, 1]) ** 2
    assert d[0] + d[1] + c + c + d[2] + d[3] != d[0] + d[1] + c + d[2] + c + d[3]
    return DensityMatrix(matrix, 2)


BLOCK_STATES = {
    "cat": (lambda: cat_state(5, CatWeights(0.6, 0.8j)), 2),
    "pseudopure-cat": (lambda: pseudopure(cat_state(5, CatWeights(0.6, 0.8j)), 0.7), 2),
    **{
        f"protocol-{name}": (lambda k=k: _four_spin_protocol_states()[k], 2)
        for k, name in enumerate(protocol.STEP_NAMES)
    },
    **{
        f"protocol-monte_carlo-{name}": (lambda k=k: _four_spin_protocol_states("monte_carlo")[k], 2)
        for k, name in enumerate(protocol.STEP_NAMES)
    },
    "diagonal": (lambda: thermal_state(6, polarization=0.01), 1),
    **{
        f"order-zero-pair-{seed}": (lambda seed=seed: _order_zero_pair_state(seed), 2)
        for seed in (3, 12)
    },
    # One to three classes, of any order, with pairs in any rows.
    **{
        f"random-pairs-{n_spins}": (
            lambda n_spins=n_spins: DensityMatrix(
                _random_pairs_state(np.random.default_rng([20, n_spins]), n_spins, None, False)[0],
                n_spins,
            ),
            4,
        )
        for n_spins in range(2, 9)
    },
}


@pytest.mark.parametrize("make, max_classes", BLOCK_STATES.values(), ids=BLOCK_STATES)
def test_coherence_orders_of_block_states_against_popcount_oracle(monkeypatch, make, max_classes):
    # Stored by a few classes and checked block by block, with no
    # factorisation, not as one dense block.
    sizes = record_factorised_sizes(monkeypatch)
    rho = make()
    assert sizes == [] and stored_classes(rho)[0].size <= max_classes
    _assert_coherence_orders_match_oracles(rho)


@pytest.mark.parametrize("mode", ["analytic", "monte_carlo"])
def test_run_protocol_finds_each_pattern_once(monkeypatch, mode):
    # Validation finds the pairs once per pattern: pseudopure and step D's
    # dephasing or kick keep their input's pattern and take its pairs over
    # unscanned, and entropies reuse the pairs they find.
    constructions, scans = record_pair_scans(monkeypatch)
    run_protocol(dataclasses.replace(protocol_config(4), noise_mode=mode))
    assert len(constructions) <= 24
    assert len(scans) <= len(constructions) - 2


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


def _spread(bits: int, sites: tuple[int, ...], n_spins: int) -> int:
    """The basis index whose ``sites`` read ``bits``, first site most
    significant, and whose other spins are up."""
    index = 0
    for j, site in enumerate(sites):
        index |= ((bits >> (len(sites) - 1 - j)) & 1) << (n_spins - 1 - site)
    return index


@pytest.mark.parametrize("seed", range(3))
def test_reduced_state_sums_the_traced_spins_in_index_order(seed):
    # Each element is summed over the traced spins from traced index 0
    # upwards, one addition at a time, whether one spin or several are traced.
    n = 4
    rho = random_density_matrix(np.random.default_rng(seed), n)
    dense = rho.matrix
    for size in range(1, n + 1):
        for keep in itertools.combinations(range(n), size):
            traced = tuple(site for site in range(n) if site not in keep)
            expected = np.zeros((1 << size, 1 << size), dtype=complex)
            for row, col in itertools.product(range(1 << size), repeat=2):
                r, c = _spread(row, keep, n), _spread(col, keep, n)
                total = dense[r, c]
                for t in range(1, 1 << len(traced)):
                    u = _spread(t, traced, n)
                    total = total + dense[r | u, c | u]
                expected[row, col] = total + 0.0
            assert reduced_state(rho, keep).matrix.tobytes() == expected.tobytes(), keep


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
    sz = kronecker_total_spin_operator("z", [0, 2], 3)
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
    constructions, scans = record_pair_scans(monkeypatch)
    for twin in (copy.deepcopy(rho), pickle.loads(pickle.dumps(rho))):
        assert twin.n_spins == 3
        assert twin.matrix.tobytes() == rho.matrix.tobytes()
        assert not stored_classes(twin)[1].flags.writeable
    # Each copy is validated once, from its classes.
    assert constructions == [3, 3]
    assert len(scans) == 2


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
    sizes = record_factorised_sizes(monkeypatch)
    cat = cat_state(10, CatWeights(0.6, 0.8j))
    rho = pseudopure(cat, fraction)
    assert sizes == [] and rho.dim == 1024
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
    matrix = np.eye(4, dtype=complex) / 4.0
    matrix[entry] = value
    matrix[entry[::-1]] = value
    sizes = record_factorised_sizes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateInvariantError):
            DensityMatrix(matrix, 2)
    assert sizes == []


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


@pytest.mark.parametrize("factor", [0.5, -0.5, -2.0])
@pytest.mark.parametrize(
    "layout, negative_size, block, largest",
    [
        (PAIRS_LAYOUT, 1, 2, 0),
        (PAIRS_LAYOUT, 2, 2, 0),
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
    sizes = record_factorised_sizes(monkeypatch)
    if eigmin >= -tol:
        assert np.array_equal(DensityMatrix(matrix, 6).matrix, matrix)
    else:
        with pytest.raises(StateInvariantError, match="negative eigenvalue") as excinfo:
            DensityMatrix(matrix, 6)
        reported = float(str(excinfo.value).split()[2])
        assert reported == pytest.approx(eigmin, rel=1e-4)
    # Pairs and singles are read in closed form, with no factorisation at
    # all (largest 0); any larger block makes the whole matrix one block,
    # whose factor, shifted by POSITIVITY_TOL, exists exactly when it is
    # accepted; only a rejection runs eigvalsh as well.
    assert sizes == [largest] * (0 if largest == 0 else 1 if eigmin >= -tol else 2)


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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", PAIR_CASES)
def test_pair_blocks_in_closed_form_match_eigvalsh(monkeypatch, case, seed):
    # One pair (low, high) of a random class on a diagonal of singles; its
    # eigenvalues come from the closed form, with no factorisation.
    p, q, eigmin, residue = PAIR_CASES[case]
    tol = states.POSITIVITY_TOL
    rng = np.random.default_rng([15, seed])
    n_spins = int(rng.integers(2, 6))
    dim = 1 << n_spins
    low = int(rng.integers(dim))
    low, high = sorted((low, low ^ int(rng.integers(1, dim))))
    if eigmin is None:
        modulus = math.sqrt(p * q)
    else:
        modulus = math.sqrt((0.5 * (p + q) - eigmin * tol) ** 2 - (0.5 * (p - q)) ** 2)
    matrix = np.zeros((dim, dim), dtype=complex)
    rest = [i for i in range(dim) if i not in (low, high)]
    weights = rng.uniform(0.5, 1.0, len(rest))
    matrix[rest, rest] = (1.0 - p - q) * weights / weights.sum()
    matrix[low, low] = p + 1j * residue * states.HERMITIAN_TOL
    matrix[high, high] = q - 1j * residue * states.HERMITIAN_TOL
    matrix[high, low] = modulus * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    matrix[low, high] = np.conj(matrix[high, low])
    assert (np.linalg.eigvalsh(matrix)[0] < -tol) == (eigmin == -2.0)
    sizes, scans = _assert_verdict_of_eigvalsh(monkeypatch, matrix, n_spins)
    assert sizes == []
    np.testing.assert_array_equal(scans[0], [[low, high]])


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
    assert von_neumann_entropy(rho) == pytest.approx(dense_entropy(matrix), abs=1e-12)


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


@pytest.mark.parametrize("fraction", [1.0, 0.7])
def test_entropy_of_corner_states_matches_eigvalsh(fraction):
    w = CatWeights(0.6, 0.8j)
    for rho in (
        pseudopure(cat_state(7, w), fraction),
        pseudopure(decohered_mixture(6, w), fraction),
        reduced_state(pseudopure(cat_state(7, w), fraction), [1, 2, 3, 4, 5, 6]),
        reduced_state(pseudopure(cat_state(7, w), fraction), [0]),
    ):
        assert von_neumann_entropy(rho) == pytest.approx(dense_entropy(rho.matrix), abs=1e-12)


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


def _scan_case(dim, case):
    """A ``dim x dim`` matrix with off-diagonal nonzeros laid out for
    ``case``.  Each is within ``0.5 * HERMITIAN_TOL`` of zero on a
    diagonal of unit trace, so that every case but ``non-finite`` is a
    state, whatever its pattern."""
    rng = np.random.default_rng([dim, len(case)])
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[np.diag_indices(dim)] = rng.uniform(0.5, 1.0, dim)
    last = dim - 1
    small = 0.4 * states.HERMITIAN_TOL
    if case == "slice-boundary":
        # Classes on both sides of the boundaries of the 32-class slices
        # that D = 1024 is read in, one pair each at rows spread by D / 8,
        # alternately in one triangle and in both.  At D = 128 the pairs
        # of classes 31 and 63 share index 31.
        xs = sorted({31, 32, 63, 64, last} & set(range(1, dim)))
        for k, x in enumerate(xs):
            r = k * dim // 8
            matrix[r, r ^ x] = small * (0.5 + 1j)
            if k % 2:
                matrix[r ^ x, r] = small * (0.5 - 1j)
    elif case == "imaginary-only":
        matrix[0, last] = small * 1j
        matrix[last, 0] = -small * 1j
        odd = np.arange(1, dim, 2)
        matrix[odd, odd] = small * 1j * (-1.0) ** np.arange(odd.size)
    elif case == "negative-zero":
        # (-0.0, -0.0) is zero; (-0.0, x) and (x, -0.0) are not.
        matrix[0, last] = complex(-0.0, -0.0)
        matrix[last, 0] = complex(-0.0, small)
        matrix[last // 2, 0] = complex(small, -0.0)
        even = np.arange(0, dim, 2)
        matrix.real[even, even] = -0.0
    elif case == "non-finite":
        matrix[0, last] = np.nan
        matrix[last, 0] = complex(0.0, np.inf)
        # Off the diagonal, so the trace holds; at D = 2 no place is free.
        # Its modulus is NaN and its mirror zero: a scan that skipped it
        # would find one pair, and leave it unchecked.
        if last // 2:
            matrix[last // 2, 0] = complex(small, np.nan)
    else:
        # Exactly D or D + 1 nonzeros at random off-diagonal places.
        count = dim + (case == "count-D+1")
        flat = rng.choice(np.flatnonzero(~np.eye(dim, dtype=bool)), count, replace=False)
        matrix.ravel()[flat] = small * np.exp(2j * np.pi * rng.random(count))
    matrix.real[np.diag_indices(dim)] /= np.diagonal(matrix).real.sum()
    return matrix


SCAN_CASES = [
    (dim, case)
    for dim in (2, 64, 128, 1024)
    for case in ("slice-boundary", "imaginary-only", "negative-zero", "non-finite", "count-D", "count-D+1")
    # Two off-diagonal places cannot hold D + 1 = 3 nonzeros.
    if (dim, case) != (2, "count-D+1")
]


@pytest.mark.parametrize("dim, case", SCAN_CASES, ids=[f"{d}-{c}" for d, c in SCAN_CASES])
def test_block_structure_scan_matches_np_nonzero(monkeypatch, dim, case):
    matrix = _scan_case(dim, case)
    rows, cols = np.nonzero(matrix)
    off_diagonal = np.count_nonzero(rows != cols)
    assert off_diagonal == {"count-D": dim, "count-D+1": dim + 1}.get(case, off_diagonal)
    # The pairs of the nonzero elements, lower index first and ascending,
    # or none when more than D elements off the diagonal are nonzero or an
    # index lies in two pairs: then the state is one block of every index.
    pairs = {frozenset(pair) for pair in zip(rows.tolist(), cols.tolist())} - {
        frozenset([i]) for i in range(dim)
    }
    shared = len({i for pair in pairs for i in pair}) < 2 * len(pairs)
    whole = off_diagonal > dim or shared
    sizes = record_factorised_sizes(monkeypatch)
    _, scans = record_pair_scans(monkeypatch)
    n_spins = dim.bit_length() - 1
    if case == "non-finite":
        # NaN counts as nonzero, as in np.nonzero, so the scan below meets it.
        assert np.isnan(matrix[rows, cols]).any()
        with pytest.raises(StateInvariantError, match="not Hermitian"):
            DensityMatrix(matrix, n_spins)
    else:
        rho = DensityMatrix(matrix, n_spins)
        # The stored classes are those of the nonzero elements, and class 0;
        # they hold every element of those classes, bit for bit.
        classes = stored_classes(rho)[0]
        assert classes.dtype == rows.dtype
        np.testing.assert_array_equal(classes, np.union1d(rows ^ cols, [0]))
        assert rho.matrix.tobytes() == matrix.tobytes()
        assert sizes == ([dim] if whole else [])
    # The pairs are scanned for once, after the trace.
    assert len(scans) == 1
    if whole:
        assert scans == [None]
    else:
        np.testing.assert_array_equal(scans[0], sorted(sorted(pair) for pair in pairs))


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
def test_random_pair_states_match_eigvalsh(monkeypatch, seed):
    # Disjoint pairs from several classes are 2x2 blocks; a second partner
    # of any index, also by one element in one triangle, makes the state one
    # block of every index.  Either way the verdict and the entropy are those
    # of the dense spectrum.
    rng = np.random.default_rng([14, seed])
    for trial in range(20):
        n_spins, indefinite = int(rng.integers(3, 7)), trial % 3 == 2
        couple = (None, None, "both", None, "lower", None, "upper")[trial % 7]
        matrix, pairs = _random_pairs_state(rng, n_spins, couple, indefinite)
        _, scans = _assert_verdict_of_eigvalsh(monkeypatch, matrix, n_spins)
        if couple:
            assert scans == [None]
            continue
        np.testing.assert_array_equal(scans[0], np.array(pairs).reshape(-1, 2))
        # The same state with its first pair's upper element off by 0.9 or
        # 1.1 times HERMITIAN_TOL, which eigvalsh and the closed form do
        # not read, and its diagonal alone.
        factor = (0.9, 1.1)[trial % 2]
        low, high = pairs[0]
        skewed = matrix.copy()
        skewed[low, high] += factor * states.HERMITIAN_TOL * np.exp(0.3j)
        if factor > 1.0:
            with pytest.raises(StateInvariantError, match="not Hermitian"):
                DensityMatrix(skewed, n_spins)
        else:
            _assert_verdict_of_eigvalsh(monkeypatch, skewed, n_spins)
        _assert_verdict_of_eigvalsh(monkeypatch, np.diag(np.diag(matrix)), n_spins)


def _assert_verdict_of_eigvalsh(monkeypatch, matrix, n_spins):
    """Validation accepts ``matrix`` exactly when its smallest eigenvalue,
    by eigvalsh, exceeds ``-POSITIVITY_TOL``, reports that eigenvalue when
    it does not, and gives an accepted state the dense entropy.  Returns
    the sizes factorised and the pair scans made on the way."""
    eigmin, expected = float(np.linalg.eigvalsh(matrix)[0]), dense_entropy(matrix)
    monkeypatch.undo()
    sizes = record_factorised_sizes(monkeypatch)
    _, scans = record_pair_scans(monkeypatch)
    if eigmin < -states.POSITIVITY_TOL:
        with pytest.raises(StateInvariantError, match="negative eigenvalue") as excinfo:
            DensityMatrix(matrix, n_spins)
        assert float(str(excinfo.value).split()[2]) == pytest.approx(eigmin, abs=1e-12)
    else:
        assert von_neumann_entropy(DensityMatrix(matrix, n_spins)) == pytest.approx(expected, abs=1e-12)
    return sizes, scans


NAN, INF = float("nan"), float("inf")
# Edits (kind, value) of one pair (low, high) of a random pair state, and
# the Hermiticity verdict each must get, None where it is random:
# - "mismatch": rho[high, low] = conj(rho[low, high]) + value * HERMITIAN_TOL
#   * e^0.4i, or every pair's lower element off by up to 2 HERMITIAN_TOL;
# - "upper-facing" / "lower-facing": value * HERMITIAN_TOL * e^0.4i in
#   that triangle, facing a -0.0;
# - "upper", "lower", "both": a non-finite value in the pair's triangles;
# - "diagonal": rho[low, low] with the value as its real part, or replaced
#   by a complex value; "diagonal-imaginary": the value as its imaginary part;
# - "diagonal-state": the diagonal alone, no pairs, with the imaginary part
#   value * HERMITIAN_TOL at low; "diagonal-state-imaginary": the diagonal
#   alone with the imaginary part value at low and -value at high, so that
#   the trace stays real;
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
    # |conj(d) - d| = 2|Im d| is exactly HERMITIAN_TOL, then one float above
    # it, then beyond the float limit.
    (("diagonal-state-imaginary", 0.5 * states.HERMITIAN_TOL), True),
    (("diagonal-state-imaginary", float(np.nextafter(0.5 * states.HERMITIAN_TOL, 1.0))), False),
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
    """``matrix`` with the edit ``(kind, value)`` of ``HERMITIAN_EDGES`` at
    its first pair."""
    tol = states.HERMITIAN_TOL
    matrix = matrix.copy()
    low, high = pairs[0]
    if kind == "mismatch" and value is None:
        for low, high in pairs:
            skew = rng.uniform(0.0, 2.0) * tol * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            matrix[high, low] = np.conj(matrix[low, high]) + skew
    elif kind == "mismatch":
        matrix[high, low] = np.conj(matrix[low, high]) + value * tol * np.exp(0.4j)
    elif kind.endswith("-facing"):
        element = (low, high) if kind == "upper-facing" else (high, low)
        matrix[low, high] = matrix[high, low] = complex(-0.0, -0.0)
        matrix[element] = value * tol * np.exp(0.4j)
    elif kind == "diagonal-state":
        matrix = np.diag(np.diag(matrix))
        matrix.imag[low, low] = value * tol
    elif kind == "diagonal-state-imaginary":
        matrix = np.diag(np.diag(matrix))
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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "edit, hermitian", HERMITIAN_EDGES, ids=[f"{k}-{v}" for (k, v), _ in HERMITIAN_EDGES]
)
def test_pair_hermiticity_matches_the_whole_class_check(monkeypatch, edit, hermitian, seed):
    # A state of 1x1 and 2x2 blocks is checked over its diagonal and its
    # pairs' two elements; the verdict is that of every element of the
    # whole matrix, for non-finite entries too, and validation raises as
    # it does.
    _, scans = record_pair_scans(monkeypatch)
    rng = np.random.default_rng([18, seed])
    for _ in range(4):
        n_spins = int(rng.integers(2, 9))
        matrix, pairs = _random_pairs_state(rng, n_spins, None, False)
        matrix = _edited(rng, matrix, pairs, *edit)
        verdict = is_hermitian(matrix)
        assert verdict is (hermitian if hermitian is not None else verdict)
        trace = np.trace(matrix)
        scans.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if abs(trace - 1.0) > states.TRACE_TOL:
                with pytest.raises(StateInvariantError, match="trace"):
                    DensityMatrix(matrix, n_spins)
                continue
            if not verdict:
                with pytest.raises(StateInvariantError, match="not Hermitian"):
                    DensityMatrix(matrix, n_spins)
            else:
                DensityMatrix(matrix, n_spins)
        expected_pairs = [] if edit[0].startswith("diagonal-state") else pairs
        np.testing.assert_array_equal(scans[0], np.array(expected_pairs).reshape(-1, 2))


def _assert_blocks_match_a_scan(rho):
    # A state built afresh from the dense view is scanned: it stores the
    # same classes, values and pairs, bit for bit.
    fresh = DensityMatrix(rho.matrix, rho.n_spins)
    assert state_bytes(rho) == state_bytes(fresh)
    assert von_neumann_entropy(rho) == von_neumann_entropy(fresh)


def _cancelling_state():
    """A 3-spin state whose class 0b100, of spin 0 alone, holds
    ``rho[0, 4] = 0.1`` and ``rho[1, 5] = -0.1``: its partial sums over
    spins 1 and 2 cancel to zero, so the reduced state of spin 0 keeps the
    class, all zeros, until validation drops it."""
    matrix = np.eye(8, dtype=complex) / 8
    matrix[0, 4] = matrix[4, 0] = 0.1
    matrix[1, 5] = matrix[5, 1] = -0.1
    return DensityMatrix(matrix, 3)


def _keep_sets(n_spins):
    """Every nonempty ascending list of sites of an ``n_spins`` register."""
    return [
        [site for site in range(n_spins) if mask >> site & 1] for mask in range(1, 1 << n_spins)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_carried_blocks_never_outlive_their_pattern(monkeypatch, seed):
    # pseudopure, dephasing and the Monte Carlo kick take their input's
    # pairs over while its nonzero pattern holds.  Where an element or a
    # whole class decays or underflows to zero, the result is scanned.  A
    # reduced state is always scanned, also where a class sums to zero.
    cancelling = _cancelling_state()
    assert stored_classes(reduced_state(cancelling, [0]))[0].tolist() == [0]
    for keep in _keep_sets(3):
        _assert_blocks_match_a_scan(reduced_state(cancelling, keep))
    rng = np.random.default_rng([17, seed])
    sizes = record_factorised_sizes(monkeypatch)
    for trial in range(4):
        n_spins = int(rng.integers(2, 9))
        matrix, _ = _random_pairs_state(rng, n_spins, None, False)
        sizes.clear()
        rho = DensityMatrix(matrix, n_spins)
        assert sizes == []
        rates = tuple(rng.choice([0.0, 1.0, 2.5], n_spins))
        noise = NoiseModel(rates, (0.0,) * n_spins)
        classes = stored_classes(rho)[0]
        decay = 0.5 * np.asarray(rates) @ operators.bit_table(n_spins)[:, classes[1:]]
        # 0.4 keeps every element; 743.5 / decay brings one class's
        # factor to about 1e-323, so some or all of its elements round to
        # zero;
        # 1e5 zeroes every class that differs in a spin of nonzero rate.
        times = [0.4, 1e5] + [743.5 / d for d in decay[decay > 0][:1]]
        results = [apply_dephasing(rho, noise, t) for t in times]
        for trajectories in (1, 200):
            kick_noise = dataclasses.replace(noise, mc_trajectories=trajectories)
            results.append(apply_phase_kicks_mc(rho, kick_noise, 0.7, seed=trial))
        results += [pseudopure(rho, f) for f in (0.83, 1.0, 1e-322)]
        results += [reduced_state(rho, keep) for keep in _keep_sets(n_spins)]
        for result in results:
            _assert_blocks_match_a_scan(result)


@pytest.mark.parametrize("route, reported", [("pairs", "-inf"), ("whole", "nan")])
def test_overflowing_spectrum_is_rejected(route, reported):
    # Finite, Hermitian and of unit trace, yet the pair (0, 1) has an
    # eigenvalue near -3e308, beyond the float limit.  The closed form
    # reads it as -inf; on the whole route, where a second partner of
    # index 0 puts the state, eigvalsh returns NaN.  Positivity fails
    # either way, with no warning.
    matrix = np.zeros((16, 16), dtype=complex)
    matrix[[0, 1], [0, 1]] = -1e308
    matrix[[4, 5], [4, 5]] = 1e308
    matrix[2, 2] = 1.0
    matrix[1, 0] = 1.5e308 + 1.5e308j
    matrix[0, 1] = np.conj(matrix[1, 0])
    if route == "whole":
        matrix[2, 0] = matrix[0, 2] = 1e-3
    assert np.trace(matrix) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateInvariantError) as excinfo:
            DensityMatrix(matrix, 4)
    assert str(excinfo.value) == f"negative eigenvalue {reported} beyond 1e-08"


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
    sizes = record_factorised_sizes(monkeypatch)
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
    np.testing.assert_array_equal(stored_classes(rho)[0], [0, 3, 5, 6])
    assert max(sizes) == 16
    assert np.array_equal(rho.matrix, matrix)
    assert von_neumann_entropy(rho) == pytest.approx(dense_entropy(matrix), abs=1e-14)
    _assert_coherence_orders_match_oracles(rho)
