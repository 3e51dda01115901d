"""Operator algebra: conventions, total spin operators, partial trace.

The package writes its operators from index structure.  The dense
Kronecker-product references (one-spin operators embedded in the
register, their sums and propagators) live in the test support and are
checked here too, so that they can serve as independent oracles."""

import itertools

import numpy as np
import pytest

from spincat import DensityMatrix, dynamics, linear_response_spectrum, operators, states
from _support import (
    SM,
    SP,
    SX,
    SY,
    SZ,
    bare_system,
    is_hermitian,
    kronecker_total_spin_operator,
    nq_coherence_operator,
    pair_table_cache,
    propagator,
    random_density_matrix,
    single_spin_operator,
    traced_memory,
)

def test_pauli_halves():
    np.testing.assert_array_equal(SX, 0.5 * np.array([[0, 1], [1, 0]]))
    np.testing.assert_array_equal(SY, 0.5 * np.array([[0, -1j], [1j, 0]]))
    np.testing.assert_array_equal(SZ, 0.5 * np.array([[1, 0], [0, -1]]))
    np.testing.assert_array_equal(SP, SX + 1j * SY)
    np.testing.assert_array_equal(SM, SP.conj().T)


def test_raising_operator_acts_on_down_spin():
    # |down> is index 1; S+ |down> = |up>
    down = np.array([0.0, 1.0], dtype=complex)
    np.testing.assert_array_equal(SP @ down, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n_spins", [1, 2, 3])
@pytest.mark.parametrize("site", [0, 1, 2])
def test_su2_algebra_per_site(n_spins, site):
    if site >= n_spins:
        pytest.skip("site outside register")
    sx = single_spin_operator("x", site, n_spins)
    sy = single_spin_operator("y", site, n_spins)
    sz = single_spin_operator("z", site, n_spins)
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-15)
    np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-15)
    np.testing.assert_allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-15)
    plus = single_spin_operator("plus", site, n_spins)
    np.testing.assert_allclose(plus, sx + 1j * sy, atol=1e-15)


def test_kron_two_transverse_operators():
    # Hand-written 4x4: (sigma_x/2) tensor (sigma_x/2) is the antidiagonal over 4.
    expected = 0.25 * np.fliplr(np.eye(4))
    xx = single_spin_operator("x", 0, 2) @ single_spin_operator("x", 1, 2)
    np.testing.assert_array_equal(xx, expected)
    # It maps |up,up> (index 0) to |down,down>/4 (index 3).
    e0 = np.zeros(4)
    e0[0] = 1.0
    np.testing.assert_array_equal(xx @ e0, 0.25 * np.eye(4)[3])


def test_single_spin_operator_placement():
    # Spin 0 is the most significant bit: site 1 of 3 toggles with period 2.
    sz1 = single_spin_operator("z", 1, 3)
    expected_diag = 0.5 * np.array([1, 1, -1, -1, 1, 1, -1, -1], dtype=float)
    np.testing.assert_array_equal(np.diag(sz1).real, expected_diag)
    assert np.count_nonzero(sz1 - np.diag(np.diag(sz1))) == 0


def test_register_limits():
    with pytest.raises(ValueError):
        single_spin_operator("z", 0, 13)
    with pytest.raises(ValueError):
        single_spin_operator("z", 3, 3)
    with pytest.raises(ValueError):
        single_spin_operator("w", 0, 2)


@pytest.mark.parametrize("value", [True, False, 1.0, "1"])
def test_register_sizes_and_sites_must_be_integers(value):
    # bool is an int subclass, but True is not a register of one spin or site 1.
    with pytest.raises(ValueError, match="positive integer"):
        single_spin_operator("z", 0, value)
    with pytest.raises(ValueError, match="outside register"):
        single_spin_operator("z", value, 2)
    with pytest.raises(ValueError, match="outside register"):
        operators.site_mask([value], 2)
    assert operators.site_mask([np.int64(1)], 2) == 0b01


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


def test_bit_table_is_built_once_and_read_only():
    table = operators.bit_table(9)
    assert operators.bit_table(9) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    for n in range(1, operators.MAX_SPINS + 1):
        # Spin 0 is the most significant bit of the index.
        fresh = [[(index >> (n - 1 - site)) & 1 for index in range(1 << n)] for site in range(n)]
        np.testing.assert_array_equal(operators.bit_table(n), fresh)


def test_bit_table_rejects_a_register_beyond_the_limit_before_allocating():
    # 13 spins is one past the limit; the table is the first thing thermal_state builds.
    operators.bit_table.cache_clear()
    too_many = operators.MAX_SPINS + 1
    with pytest.raises(ValueError, match="exceeds the dense limit"):
        states.thermal_state(too_many)
    with pytest.raises(ValueError, match="exceeds the dense limit"):
        operators.bit_table(too_many)
    assert operators.bit_table.cache_info().currsize == 0


# The dense highest-order coherence observable lives in the test support
# as the reference that ``nq_amplitude`` reads out: Tr(rho * NQ) = 2 Re <u|rho|d>.


def test_nq_coherence_operator_two_spins():
    # Independent oracle: explicit product of the embedded raising operators.
    product = single_spin_operator("plus", 0, 2) @ single_spin_operator(
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
    product = single_spin_operator("plus", 0, 3) @ single_spin_operator(
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
    np.testing.assert_allclose(propagator(h, 0.0), np.eye(8), atol=1e-14)


def test_propagator_single_spin_phase():
    # H = 2*pi*nu*Sz rotates |up> and |down> by opposite phases.
    nu, t = 100.0, 1e-3
    h = 2.0 * np.pi * nu * SZ
    u = propagator(h, t)
    phase = np.pi * nu * t
    expected = np.diag([np.exp(-1j * phase), np.exp(1j * phase)])
    np.testing.assert_allclose(u, expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(100))
def test_propagator_unitary_and_group_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) * rng.uniform(0.1, 10.0)
    t1, t2 = rng.uniform(-2.0, 2.0, size=2)
    u1 = propagator(h, t1)
    assert np.abs(u1.conj().T @ u1 - np.eye(8)).max() <= 1e-10
    np.testing.assert_allclose(
        u1 @ propagator(h, t2), propagator(h, t1 + t2), atol=1e-10
    )


def test_propagator_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        propagator(bad, 1.0)


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
        assert is_hermitian(reduced, 1e-12)
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
    # S+ of spin 0 (bit 2) and of spin 1 (bit 1) raise a down spin to up.
    plus = operators.total_spin_operator("plus", [0, 1], 2)
    np.testing.assert_array_equal(np.argwhere(plus), [[0, 1], [0, 2], [1, 3], [2, 3]])
    assert np.all(plus[plus != 0] == 1.0)
    with pytest.raises(ValueError):
        operators.total_spin_operator("plus", [], 2)
    with pytest.raises(ValueError):
        operators.total_spin_operator("plus", [0, 0], 2)
    with pytest.raises(ValueError, match="unknown operator kind"):
        operators.total_spin_operator("z", [0], 2)


@pytest.mark.parametrize("n_spins", range(1, 7))
def test_total_spin_operator_matches_kronecker_sum(n_spins):
    # Every site subset, in ascending order and reversed, against the sum
    # of Kronecker-embedded one-spin operators.
    for size in range(1, n_spins + 1):
        for subset in itertools.combinations(range(n_spins), size):
            for sites in (list(subset), list(subset)[::-1]):
                plus = operators.total_spin_operator("plus", sites, n_spins)
                reference = kronecker_total_spin_operator("plus", sites, n_spins)
                assert plus.shape == reference.shape and plus.dtype == complex
                assert plus.tobytes() == reference.tobytes(), sites


def test_sz_eigenvalues_are_built_once_and_read_only():
    table = operators.sz_eigenvalues([0, 2], 3)
    assert operators.sz_eigenvalues((0, 2), 3) is table
    assert not table.flags.writeable
    # A site equal to a valid one, of another type, is checked on its own.
    for sites in ([False, 2], [0.0, 2]):
        with pytest.raises(ValueError, match="outside register"):
            operators.sz_eigenvalues(sites, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate sites"):
            operators.sz_eigenvalues([0, 2, 0], 3)


def test_layout_tables_are_built_once_and_read_only():
    rho = states.cat_state(3, states.CatWeights.balanced())
    states.reduced_state(rho, [0, 2])
    plan = operators._trace_plan(3, 0, 2)
    assert operators._trace_plan(3, 0, 2) is plan
    hits = operators._trace_plan.cache_info().hits
    states.reduced_state(rho, (0, 2))
    assert operators._trace_plan.cache_info().hits == hits + 1
    assert plan.traced_mask == operators.site_mask([1], 3) == 0b010
    assert plan.shape == (4, 2)
    np.testing.assert_array_equal(plan.order, [0, 2, 1, 3, 4, 6, 5, 7])
    np.testing.assert_array_equal(plan.reduced_classes, [0, 1, 0, 1, 2, 3, 2, 3])
    popcounts = operators._popcounts(3)
    assert operators._popcounts(3) is popcounts
    np.testing.assert_array_equal(popcounts, operators.bit_table(3).sum(axis=0))
    index, perm = operators._flip_permutation(3, 0b100, 0b011)
    assert operators._flip_permutation(3, 0b100, 0b011)[1] is perm
    np.testing.assert_array_equal(index, range(8))
    np.testing.assert_array_equal(perm, [0, 1, 2, 3, 7, 6, 5, 4])
    # With no condition, every index's image is its partner under the flip.
    partner = operators._flip_permutation(3, 0, 0b010)[1]
    np.testing.assert_array_equal(partner, [2, 3, 0, 1, 6, 7, 4, 5])
    # Validation of the cat read the table of its pattern, which is kept.
    pairs = pair_table_cache()(3, 0b111)
    hits = pair_table_cache().cache_info().hits
    states.cat_state(3, states.CatWeights.balanced())
    assert pair_table_cache().cache_info().hits == hits + 1
    assert pair_table_cache()(3, 0b111) is pairs
    np.testing.assert_array_equal(pairs, [[0, 7], [1, 6], [2, 5], [3, 4]])
    np.testing.assert_array_equal(pair_table_cache()(3, 0b101), [[0, 5], [1, 4], [2, 7], [3, 6]])
    for table in (plan.order, plan.reduced_classes, popcounts, index, perm, partner, pairs):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


@pytest.mark.parametrize("site", [True, 1.0, np.int64(1)])
def test_layout_tables_of_site_1_are_not_read_for_an_equal_site_of_another_type(site):
    # From empty caches, so that only site 1's tables are there to be read.
    operators._site_mask.cache_clear()
    operators._trace_plan.cache_clear()
    rho = states.cat_state(3, states.CatWeights.balanced())
    operators.site_mask([1], 3)
    states.reduced_state(rho, [0, 1])
    for cache, call in (
        (operators._site_mask, lambda: operators.site_mask([site], 3)),
        (operators._trace_plan, lambda: states.reduced_state(rho, [0, site])),
    ):
        hits = cache.cache_info().hits
        if operators._is_integer(site):
            call()
        else:
            with pytest.raises(ValueError, match="outside register"):
                call()
        assert cache.cache_info().hits == hits
    if operators._is_integer(site):
        assert operators.site_mask([site], 3) == 0b010
        assert operators._trace_plan(3, 0, site) is not operators._trace_plan(3, 0, 1)


@pytest.mark.parametrize(
    "keep, message",
    [
        ([0, 0], "duplicate sites"),
        ([2, 1], "ascending site order"),
        ([], "empty keep list"),
        ([0, 3], "outside register"),
    ],
)
def test_reduced_state_rejects_a_bad_keep_list_on_every_call(keep, message):
    rho = states.cat_state(3, states.CatWeights.balanced())
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            states.reduced_state(rho, keep)


def test_layout_caches_stay_within_their_bounds():
    # More layouts than any cache keeps: each fills up to its bound and stays there.
    rho = states.cat_state(7, states.CatWeights.balanced())
    for size in range(1, 8):
        for keep in itertools.combinations(range(7), size):
            states.reduced_state(rho, keep)
            operators.site_mask(keep, 7)
            operators.sz_eigenvalues(keep, 7)
    small = states.cat_state(4, states.CatWeights.balanced())
    for condition in range(1, 16):
        for flip in range(1, 16):
            if not condition & flip:
                dynamics.conditional_flip(small, condition, flip)
    # Validation reads the pair table of every pattern off the diagonal.
    for pattern in range(1, 1 << 7):
        states.basis_state(7, {0: 0.6, pattern: 0.8})
    for n in range(1, operators.MAX_SPINS + 1):
        operators._popcounts(n)
        operators.bit_table(n)
    caches = (
        operators.bit_table,
        operators._popcounts,
        operators._sz_table,
        operators._site_mask,
        operators._trace_plan,
        operators._flip_permutation,
        pair_table_cache(),
    )
    for cache in caches:
        bound = cache.cache_parameters()["maxsize"]
        assert bound is not None and cache.cache_info().currsize == bound, cache


@pytest.mark.parametrize("sites", [[1, 1], (0, 2, 0), [2, 1, 2, 1]])
def test_sz_eigenvalues_reject_duplicate_sites_like_the_operator(sites):
    # The Sz table rejects what the operator rejects, rather than counting
    # a repeated spin twice; so does the magnetization read from it.
    with pytest.raises(ValueError, match="duplicate sites"):
        operators.total_spin_operator("plus", sites, 3)
    with pytest.raises(ValueError, match="duplicate sites"):
        operators.sz_eigenvalues(sites, 3)
    with pytest.raises(ValueError, match="duplicate sites"):
        states.magnetization(states.ferro_state(3, "up"), sites)
    assert states.magnetization(states.ferro_state(3, "up"), sorted(set(sites))) == 0.5 * len(
        set(sites)
    )


@pytest.mark.parametrize("n_spins", [1, 3, 7])
def test_total_spin_operator_rejects_a_site_out_of_range(n_spins):
    with pytest.raises(ValueError, match="outside register"):
        operators.total_spin_operator("plus", [0, n_spins], n_spins)
    with pytest.raises(ValueError, match="outside register"):
        operators.total_spin_operator("plus", [-1], n_spins)
    rho = DensityMatrix(np.eye(1 << n_spins, dtype=complex) / (1 << n_spins), n_spins)
    with pytest.raises(ValueError, match="outside register"):
        linear_response_spectrum(rho, bare_system(n_spins), observe=[n_spins])
    with pytest.raises(ValueError, match="unknown operator kind"):
        operators.total_spin_operator("w", [0], n_spins)


@pytest.mark.parametrize("kind", ["plus"])
def test_total_spin_operator_checks_the_register_before_allocating(kind):
    # A 13-spin operator would be an 8192 x 8192 complex matrix (1 GiB).
    with traced_memory() as memory:
        with pytest.raises(ValueError, match="exceeds the dense limit of 12"):
            operators.total_spin_operator(kind, [0], 13)
        for size in (True, 1.0, "1", 0):
            with pytest.raises(ValueError, match="positive integer"):
                operators.total_spin_operator(kind, [0], size)
    assert memory.peak < 1 << 20


@pytest.mark.parametrize("entry", [(0, 1), (3, 200), (200, 3), (255, 254), (130, 130)])
def test_is_hermitian_finds_one_bad_entry_in_any_row_block(entry):
    rng = np.random.default_rng(31)
    g = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    matrix = g + g.conj().T
    assert is_hermitian(matrix)
    matrix[entry] += 1e-9j
    assert not is_hermitian(matrix)
    assert is_hermitian(matrix, tol=1e-8)
    # The same entry in one matrix of an (m, k, k) stack of Hermitian ones.
    hermitian = g + g.conj().T
    stack = np.stack([hermitian, hermitian.conj(), hermitian.real.astype(complex)])
    assert is_hermitian(stack)
    stack[sum(entry) % 3][entry] += 1e-9j
    assert not is_hermitian(stack)
    assert is_hermitian(stack, tol=1e-8)
    assert is_hermitian(np.zeros((0, 1, 1), dtype=complex))
    blocks = np.zeros((4, 2, 2), dtype=complex)
    blocks[sum(entry) % 4, 1, 0] = np.nan
    assert not is_hermitian(blocks)
