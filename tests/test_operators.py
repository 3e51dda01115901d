"""Operator algebra: conventions, embeddings, propagators, partial trace."""

import numpy as np
import pytest

from spincat import operators, states
from _support import nq_coherence_operator, random_density_matrix

SQ2 = 1.0 / np.sqrt(2.0)


def test_pauli_halves():
    np.testing.assert_array_equal(operators.SX, 0.5 * np.array([[0, 1], [1, 0]]))
    np.testing.assert_array_equal(operators.SY, 0.5 * np.array([[0, -1j], [1j, 0]]))
    np.testing.assert_array_equal(operators.SZ, 0.5 * np.array([[1, 0], [0, -1]]))
    np.testing.assert_array_equal(operators.SP, operators.SX + 1j * operators.SY)
    np.testing.assert_array_equal(operators.SM, operators.SP.conj().T)


def test_raising_operator_acts_on_down_spin():
    # |down> is index 1; S+ |down> = |up>
    down = np.array([0.0, 1.0], dtype=complex)
    np.testing.assert_array_equal(operators.SP @ down, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n_spins", [1, 2, 3])
@pytest.mark.parametrize("site", [0, 1, 2])
def test_su2_algebra_per_site(n_spins, site):
    if site >= n_spins:
        pytest.skip("site outside register")
    sx = operators.single_spin_operator("x", site, n_spins)
    sy = operators.single_spin_operator("y", site, n_spins)
    sz = operators.single_spin_operator("z", site, n_spins)
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-15)
    np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-15)
    np.testing.assert_allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-15)
    plus = operators.single_spin_operator("plus", site, n_spins)
    np.testing.assert_allclose(plus, sx + 1j * sy, atol=1e-15)


def test_kron_two_transverse_operators():
    # Hand-written 4x4: (sigma_x/2) tensor (sigma_x/2) is the antidiagonal over 4.
    expected = 0.25 * np.fliplr(np.eye(4))
    xx = operators.single_spin_operator("x", 0, 2) @ operators.single_spin_operator("x", 1, 2)
    np.testing.assert_array_equal(xx, expected)
    # It maps |up,up> (index 0) to |down,down>/4 (index 3).
    e0 = np.zeros(4)
    e0[0] = 1.0
    np.testing.assert_array_equal(xx @ e0, 0.25 * np.eye(4)[3])


def test_single_spin_operator_placement():
    # Spin 0 is the most significant bit: site 1 of 3 toggles with period 2.
    sz1 = operators.single_spin_operator("z", 1, 3)
    expected_diag = 0.5 * np.array([1, 1, -1, -1, 1, 1, -1, -1], dtype=float)
    np.testing.assert_array_equal(np.diag(sz1).real, expected_diag)
    assert np.count_nonzero(sz1 - np.diag(np.diag(sz1))) == 0


def test_register_limits():
    with pytest.raises(ValueError):
        operators.single_spin_operator("z", 0, 13)
    with pytest.raises(ValueError):
        operators.single_spin_operator("z", 3, 3)
    with pytest.raises(ValueError):
        operators.single_spin_operator("w", 0, 2)


def test_bit_conventions():
    # index 4 = 0b100 on 3 spins: spin 0 down, spins 1 and 2 up
    np.testing.assert_array_equal(operators.bit_table(3)[:, 4], [1, 0, 0])
    sz = operators.sz_eigenvalues(range(3), 3)
    assert (sz[0], sz[7], sz[4]) == (1.5, -1.5, 0.5)
    np.testing.assert_array_equal(operators.sz_eigenvalues([1], 3), [0.5, 0.5, -0.5, -0.5] * 2)
    with pytest.raises(ValueError):
        operators.sz_eigenvalues([3], 3)
    assert operators.site_mask([0], 3) == 0b100
    assert operators.site_mask([0, 2], 3) == 0b101
    table = operators.bit_table(2)
    np.testing.assert_array_equal(table, [[0, 0, 1, 1], [0, 1, 0, 1]])


# The dense highest-order coherence observable lives in the test support
# as the reference that ``nq_amplitude`` reads out: Tr(rho * NQ) = 2 Re <u|rho|d>.


def test_nq_coherence_operator_two_spins():
    # Independent oracle: explicit product of the embedded raising operators.
    product = operators.single_spin_operator("plus", 0, 2) @ operators.single_spin_operator(
        "plus", 1, 2
    )
    expected = product + product.conj().T
    np.testing.assert_array_equal(nq_coherence_operator(2), expected)
    hand = np.zeros((4, 4))
    hand[0, 3] = hand[3, 0] = 1.0
    np.testing.assert_array_equal(nq_coherence_operator(2), hand)


@pytest.mark.parametrize("n_spins", range(1, 9))
def test_nq_coherence_operator_corners_only(n_spins):
    op = nq_coherence_operator(n_spins)
    dim = 1 << n_spins
    assert op[0, dim - 1] == 1.0
    assert op[dim - 1, 0] == 1.0
    rho = random_density_matrix(np.random.default_rng(n_spins), n_spins)
    assert states.expectation(rho, op) == pytest.approx(2.0 * states.nq_amplitude(rho).real, rel=1e-12)
    op[0, dim - 1] = op[dim - 1, 0] = 0.0
    assert np.count_nonzero(op) == 0


def test_nq_coherence_operator_subset_sites():
    product = operators.single_spin_operator("plus", 0, 3) @ operators.single_spin_operator(
        "plus", 2, 3
    )
    expected = product + product.conj().T
    op = nq_coherence_operator(3, sites=[0, 2])
    np.testing.assert_array_equal(op, expected)
    rho = random_density_matrix(np.random.default_rng(4), 3)
    amplitude = states.nq_amplitude(rho, [0, 2])
    assert states.expectation(rho, op) == pytest.approx(2.0 * amplitude.real, rel=1e-12)


def test_propagator_identity_at_zero_time():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = a + a.conj().T
    np.testing.assert_allclose(operators.propagator(h, 0.0), np.eye(8), atol=1e-14)


def test_propagator_single_spin_phase():
    # H = 2*pi*nu*Sz rotates |up> and |down> by opposite phases.
    nu, t = 100.0, 1e-3
    h = 2.0 * np.pi * nu * operators.SZ
    u = operators.propagator(h, t)
    phase = np.pi * nu * t
    expected = np.diag([np.exp(-1j * phase), np.exp(1j * phase)])
    np.testing.assert_allclose(u, expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(100))
def test_propagator_unitary_and_group_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) * rng.uniform(0.1, 10.0)
    t1, t2 = rng.uniform(-2.0, 2.0, size=2)
    u1 = operators.propagator(h, t1)
    assert np.abs(u1.conj().T @ u1 - np.eye(8)).max() <= 1e-10
    np.testing.assert_allclose(
        u1 @ operators.propagator(h, t2), operators.propagator(h, t1 + t2), atol=1e-10
    )


def test_propagator_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        operators.propagator(bad, 1.0)


def test_partial_trace_two_spin_pure_state():
    # a|up,up> + b|down,down> with a=0.6, b=0.8: tracing either spin
    # leaves diag(0.36, 0.64).
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = 0.6, 0.8
    rho = np.outer(psi, psi.conj())
    expected = np.diag([0.36, 0.64])
    np.testing.assert_allclose(operators.partial_trace(rho, [0]), expected, atol=1e-15)
    np.testing.assert_allclose(operators.partial_trace(rho, [1]), expected, atol=1e-15)


def test_partial_trace_product_state_factorization():
    rng = np.random.default_rng(11)
    rho_a = random_density_matrix(rng, 1).matrix
    rho_b = random_density_matrix(rng, 2).matrix
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(operators.partial_trace(joint, [0]), rho_a, atol=1e-12)
    np.testing.assert_allclose(operators.partial_trace(joint, [1, 2]), rho_b, atol=1e-12)


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng, 3).matrix
    np.testing.assert_array_equal(operators.partial_trace(rho, [0, 1, 2]), rho)


def test_partial_trace_against_loop_oracle():
    # Independent elementwise oracle with explicit bit arithmetic.
    rng = np.random.default_rng(19)
    rho = random_density_matrix(rng, 3).matrix
    reduced = np.zeros((4, 4), dtype=complex)
    for r in range(4):
        for c in range(4):
            # kept spins 0 and 2; spin 1 occupies the middle bit
            for mid in range(2):
                row = ((r >> 1) << 2) | (mid << 1) | (r & 1)
                col = ((c >> 1) << 2) | (mid << 1) | (c & 1)
                reduced[r, c] += rho[row, col]
    np.testing.assert_allclose(operators.partial_trace(rho, [0, 2]), reduced, atol=1e-14)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_density_matrix(rng, 3).matrix
        keep = sorted(rng.choice(3, size=rng.integers(1, 3), replace=False).tolist())
        reduced = operators.partial_trace(rho, keep)
        assert abs(reduced.trace() - 1.0) < 1e-12
        assert operators.is_hermitian(reduced, 1e-12)
        assert np.linalg.eigvalsh(reduced)[0] > -1e-10


def test_partial_trace_argument_validation():
    rho = np.eye(4) / 4.0
    with pytest.raises(ValueError):
        operators.partial_trace(rho, [])
    with pytest.raises(ValueError):
        operators.partial_trace(rho, [1, 0])
    with pytest.raises(ValueError):
        operators.partial_trace(rho, [0, 0])
    with pytest.raises(ValueError):
        operators.partial_trace(rho, [2])
    with pytest.raises(ValueError):
        operators.partial_trace(np.eye(3) / 3.0, [0])


def test_total_spin_operator():
    sz = operators.total_spin_operator("z", [0, 1], 2)
    np.testing.assert_array_equal(np.diag(sz).real, [1.0, 0.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        operators.total_spin_operator("z", [], 2)
    with pytest.raises(ValueError):
        operators.total_spin_operator("z", [0, 0], 2)
