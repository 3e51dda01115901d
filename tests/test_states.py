"""State constructors, coherence orders, entropy, fidelity."""

import warnings

import numpy as np
import pytest

from spincat import (
    CatWeights,
    DensityMatrix,
    StateInvariantError,
    cat_state,
    coherence_orders,
    decohered_mixture,
    ferro_state,
    fidelity,
    nq_amplitude,
    pseudopure,
    purity,
    reduced_state,
    thermal_state,
    von_neumann_entropy,
)
from spincat import operators, states
from _support import coherence_components, random_density_matrix, random_unitary


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


def test_coherence_orders_against_popcount_oracle():
    rng = np.random.default_rng(2)
    for n_spins in (1, 3, 5):
        rho = random_density_matrix(rng, n_spins)
        weights = coherence_orders(rho)
        components = coherence_components(rho.matrix, n_spins)
        assert sorted(weights) == sorted(components)
        for q, component in components.items():
            assert weights[q] == pytest.approx(np.linalg.norm(component), rel=1e-12, abs=1e-15)


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
