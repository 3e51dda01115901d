"""The five-step protocol: exactness, decay laws, and recovery."""

import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from spincat import (
    CatWeights,
    NoiseModel,
    ProtocolConfig,
    apply_unitary,
    cat_state,
    dephasing_rate_for_lifetime,
    fidelity,
    ferro_state,
    fit_exponential,
    flip_rate_for_lifetime,
    measure_diagonal_decay,
    measure_nq_decay,
    nq_amplitude,
    reduced_state,
    run_protocol,
    von_neumann_entropy,
)
from spincat import protocol, states
from _support import (
    REPO_ROOT,
    bare_system,
    cat_rotation_unitary,
    controlled_not_unitary,
    entangle_unitary,
    phase_kicks_reference,
    protocol_config,
    random_density_matrix,
    random_unitary,
)

GAMMA_7Q = dephasing_rate_for_lifetime(0.029, 7)


def make_config(n_total=7, weights=None, delay=0.0, gamma=GAMMA_7Q, **kwargs):
    system = bare_system(n_total)
    noise = kwargs.pop("noise", None) or NoiseModel.uniform(n_total, dephasing_per_s=gamma)
    return ProtocolConfig(
        system=system,
        noise=noise,
        weights=weights or CatWeights.balanced(),
        delay_s=delay,
        **kwargs,
    )


class TestConfigValidation:
    def test_control_must_be_single_and_at_site_zero(self):
        from spincat import SpinSystem

        noise = NoiseModel.uniform(3)
        weights = CatWeights.balanced()
        with pytest.raises(ValueError):
            ProtocolConfig(
                SpinSystem(3, ("system", "control", "system"), (0.0,) * 3), noise, weights, 0.0
            )
        with pytest.raises(ValueError):
            ProtocolConfig(
                SpinSystem(3, ("control", "control", "system"), (0.0,) * 3), noise, weights, 0.0
            )

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            make_config(delay=-0.1)
        with pytest.raises(ValueError):
            make_config(purity_fraction=0.0)
        with pytest.raises(ValueError):
            make_config(noise_mode="stochastic")
        with pytest.raises(ValueError):
            make_config(noise=NoiseModel.uniform(5))

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, "3", None, True, False])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # Rejected up front, naming the seed, rather than inside step D's SeedSequence.
        with pytest.raises(ValueError, match="seed"):
            make_config(n_total=3, noise_mode="monte_carlo", seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(7), 2**70])
    def test_integer_seeds_are_accepted(self, seed):
        config = make_config(n_total=3, noise_mode="monte_carlo", delay=0.01, seed=seed)
        assert run_protocol(config).steps[-1].fidelity > 0.0


class TestIdealSteps:
    def test_step_a_pseudopure(self):
        config = make_config(purity_fraction=0.8)
        rho = protocol.step_a_initialize(config)
        expected = 0.8 * ferro_state(7, "up").matrix + 0.2 * np.eye(128) / 128.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_step_b_touches_only_system_spins(self):
        config = make_config(weights=CatWeights(0.6, 0.8j))
        rho = protocol.step_b_create_cat(protocol.step_a_initialize(config), config)
        control = reduced_state(rho, [0])
        np.testing.assert_allclose(control.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        system = reduced_state(rho, list(range(1, 7)))
        np.testing.assert_allclose(
            system.matrix, cat_state(6, CatWeights(0.6, 0.8j)).matrix, atol=1e-12
        )

    def test_step_c_matches_entangled_pair_state(self):
        weights = CatWeights(0.6, 0.8j)
        config = make_config(weights=weights)
        rho = protocol.step_a_initialize(config)
        rho = protocol.step_b_create_cat(rho, config)
        rho = protocol.step_c_entangle(rho, config)
        # The entangled pair a|up>|u> + b|down>|d> is the cat of all 7 spins.
        np.testing.assert_allclose(rho.matrix, cat_state(7, weights).matrix, atol=1e-14)

    def test_step_c_is_an_involution(self):
        config = make_config(weights=CatWeights(0.28, np.sqrt(1 - 0.28**2)))
        rho = protocol.step_b_create_cat(protocol.step_a_initialize(config), config)
        once = protocol.step_c_entangle(rho, config)
        twice = protocol.step_c_entangle(once, config)
        np.testing.assert_array_equal(twice.matrix, rho.matrix)

    def test_unitaries_are_unitary(self):
        # The dense references the structured steps are checked against.
        u_cat = cat_rotation_unitary(4, (1, 2, 3), CatWeights(0.6, 0.8j))
        np.testing.assert_allclose(u_cat @ u_cat.conj().T, np.eye(16), atol=1e-14)
        u_ent = entangle_unitary(4, 0, (1, 2, 3))
        np.testing.assert_allclose(u_ent @ u_ent.conj().T, np.eye(16), atol=1e-14)
        np.testing.assert_array_equal(u_ent, u_ent.conj().T)

    @pytest.mark.parametrize("n_total", [3, 4, 5])
    def test_steps_match_dense_unitaries_on_random_states(self, n_total):
        # Random full-rank states populate every sector, so a step that
        # rotated or permuted only part of the register would fail here;
        # on a pseudopure corner state it could pass, as U (I/D) U+ = I/D.
        rng = np.random.default_rng(40 + n_total)
        weights = CatWeights(0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j))
        config = make_config(n_total=n_total, weights=weights)
        system = config.system.system_sites
        rho = random_density_matrix(rng, n_total)
        steps = [
            (protocol.step_b_create_cat, cat_rotation_unitary(n_total, system, weights)),
            (protocol.step_c_entangle, entangle_unitary(n_total, 0, system)),
            (protocol.step_e_recover, controlled_not_unitary(n_total, 0, system)),
        ]
        for step, u in steps:
            expected = u @ rho.matrix @ u.conj().T
            np.testing.assert_allclose(step(rho, config).matrix, expected, rtol=0, atol=1e-14)


class TestZeroNoiseRun:
    @pytest.mark.parametrize("weights", [CatWeights.balanced(), CatWeights(0.6, 0.8j)])
    def test_every_step_has_unit_fidelity(self, weights):
        config = make_config(weights=weights, gamma=0.0, delay=0.2)
        report = run_protocol(config)
        for record in report.steps:
            assert abs(record.fidelity - 1.0) <= 1e-10, record.name
        assert abs(report.final_system_fidelity - 1.0) <= 1e-10

    def test_final_control_holds_the_superposition(self):
        config = make_config(weights=CatWeights(0.6, 0.8), gamma=0.0)
        report = run_protocol(config)
        control = reduced_state(report.final_state, [0])
        np.testing.assert_allclose(
            control.matrix, np.array([[0.36, 0.48], [0.48, 0.64]]), atol=1e-12
        )

    def test_coherence_orders_per_step(self):
        report = run_protocol(make_config(gamma=0.0))
        expected = {
            "initialize": {0},
            "create_cat": {-6, 0, 6},
            "entangle": {-7, 0, 7},
            "decohere": {-7, 0, 7},
            "recover": {-1, 0, 1},
        }
        for record in report.steps:
            assert set(record.coherence_weights) == expected[record.name], record.name


class TestDecoherenceAndRecovery:
    def test_system_magnetization_constant_from_cat_to_decay(self):
        config = make_config(weights=CatWeights(0.6, 0.8), delay=0.1)
        report = run_protocol(config)
        values = [report.step(name).system_magnetization for name in ("create_cat", "entangle", "decohere")]
        assert values[0] == pytest.approx(3.0 * (0.36 - 0.64), abs=1e-12)
        assert max(values) - min(values) < 1e-12

    def test_top_coherence_decay_factor(self):
        config = make_config(delay=0.029)
        report = run_protocol(config)
        weight_0 = run_protocol(make_config(delay=0.0)).step("decohere").coherence_weights[7]
        weight_t = report.step("decohere").coherence_weights[7]
        assert weight_t / weight_0 == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_long_delay_approaches_decohered_mixture(self):
        weights = CatWeights(0.6, 0.8)
        lifetime = 2.0 / (7.0 * GAMMA_7Q)
        config = make_config(weights=weights, delay=15.0 * lifetime)
        rho = protocol.step_d_decohere(
            protocol.step_c_entangle(
                protocol.step_b_create_cat(protocol.step_a_initialize(config), config), config
            ),
            config,
        )
        target = states.decohered_mixture(6, weights)
        assert np.abs(rho.matrix - target.matrix).max() < 1e-6

    def test_recovery_is_exact_for_pure_dephasing(self):
        # Dephasing only damages the off-diagonal pair; both surviving
        # branches return every system spin to up, at any delay.
        config = make_config(delay=0.2)
        report = run_protocol(config)
        assert abs(report.final_system_fidelity - 1.0) <= 1e-12
        assert report.final_total_magnetization == pytest.approx(3.0, abs=1e-9)

    def test_control_entropy_after_recovery(self):
        config = make_config(delay=0.2)
        report = run_protocol(config)
        epsilon = 0.5 * np.exp(-7.0 * GAMMA_7Q * 0.2 / 2.0)
        p = 0.5 + epsilon
        expected = -(p * np.log(p) + (1 - p) * np.log(1 - p))
        assert report.final_control_entropy == pytest.approx(expected, abs=1e-12)

    def test_flip_relaxation_damps_recovered_polarization(self):
        # Flips on the system spins only; the recovered polarization
        # then falls by exp(-t/tau_diag) relative to the zero-delay run.
        kappa = flip_rate_for_lifetime(0.49)
        noise = NoiseModel((GAMMA_7Q,) * 7, (0.0,) + (kappa,) * 6)
        base = make_config(noise=noise, include_flip_relaxation=True, delay=0.0)
        late = dataclasses.replace(base, delay_s=0.2)
        m0 = run_protocol(base).final_total_magnetization
        m2 = run_protocol(late).final_total_magnetization
        assert m2 / m0 == pytest.approx(np.exp(-0.2 / 0.49), rel=1e-12)
        assert run_protocol(late).final_system_fidelity < 1.0

    def test_monte_carlo_mode_agrees_with_analytic(self):
        noise = NoiseModel.uniform(4, dephasing_per_s=3.0, mc_trajectories=4000)
        analytic = make_config(n_total=4, gamma=3.0, delay=0.1)
        stochastic = dataclasses.replace(analytic, noise=noise, noise_mode="monte_carlo")
        a = run_protocol(analytic)
        s = run_protocol(stochastic)
        assert s.final_control_entropy == pytest.approx(a.final_control_entropy, abs=0.02)
        assert abs(s.final_system_fidelity - 1.0) <= 1e-10

    def test_monte_carlo_mode_is_deterministic(self):
        noise = NoiseModel.uniform(3, dephasing_per_s=2.0, mc_trajectories=200)
        config = make_config(n_total=3, noise=noise, noise_mode="monte_carlo", delay=0.1, seed=7)
        a = run_protocol(config)
        b = run_protocol(config)
        np.testing.assert_array_equal(a.final_state.matrix, b.final_state.matrix)

    @pytest.mark.parametrize("state", ["entangled", "full_rank"])
    def test_monte_carlo_step_d_derives_widths_from_rates_and_delay(self, state):
        # Step D kicks with sigma_i = sqrt(gamma_i * delay), one rate per spin.
        rates = (1.5, 4.0, 0.3, 9.0)
        delay = 0.037
        noise = NoiseModel(rates, (0.0,) * 4, mc_trajectories=300)
        config = make_config(n_total=4, noise=noise, noise_mode="monte_carlo", delay=delay, seed=11)
        if state == "entangled":
            rho = protocol.step_c_entangle(
                protocol.step_b_create_cat(protocol.step_a_initialize(config), config), config
            )
        else:
            rho = random_density_matrix(np.random.default_rng(5), 4)
        sigma = np.sqrt(np.asarray(rates) * delay)
        reference = phase_kicks_reference(rho.matrix, 4, sigma, 300, seed=11)
        decayed = protocol.step_d_decohere(rho, config)
        np.testing.assert_allclose(decayed.matrix, reference, rtol=0.0, atol=1e-13)


class TestDecayScans:
    def test_nq_scan_follows_the_closed_form(self):
        config = make_config()
        delays = [0.0, 0.01, 0.03, 0.06, 0.1]
        points = measure_nq_decay(config, delays)
        assert points[0][1] == pytest.approx(0.5, rel=1e-12)
        for t, amplitude in points:
            assert amplitude == pytest.approx(0.5 * np.exp(-7.0 * GAMMA_7Q * t / 2.0), rel=1e-10)

    def test_monte_carlo_scan_points_kick_with_their_own_seeds(self):
        # Each point's step D runs on the config with its own seed, so
        # points at one delay are independent estimates.
        noise = NoiseModel.uniform(3, dephasing_per_s=4.0, mc_trajectories=50)
        config = make_config(n_total=3, noise=noise, noise_mode="monte_carlo", seed=3)
        amplitudes = [y for _, y in measure_nq_decay(config, [0.1, 0.1, 0.1])]
        assert len(set(amplitudes)) == 3

    def test_nq_scan_round_trips_the_lifetime(self):
        config = make_config()
        delays = list(np.linspace(0.0, 0.1, 12))
        points = measure_nq_decay(config, delays)
        fit = fit_exponential([t for t, _ in points], [a for _, a in points])
        assert fit.tau_s == pytest.approx(0.029, rel=1e-9)
        assert fit.r_squared > 0.9999

    def test_nq_scan_baseline_scales_with_purity(self):
        config = make_config(purity_fraction=0.4)
        points = measure_nq_decay(config, [0.0])
        assert points[0][1] == pytest.approx(0.4 * 0.5, rel=1e-12)

    def test_diagonal_scan_round_trips_the_lifetime(self):
        kappa = flip_rate_for_lifetime(0.49)
        config = make_config(
            weights=CatWeights(np.sqrt(0.8), np.sqrt(0.2)),
            noise=NoiseModel((GAMMA_7Q,) * 7, (kappa,) * 7),
            include_flip_relaxation=True,
        )
        delays = list(np.linspace(0.0, 1.0, 12))
        points = measure_diagonal_decay(config, delays)
        assert points[0][1] == pytest.approx(3.0 * 0.6, rel=1e-12)
        fit = fit_exponential([t for t, _ in points], [y for _, y in points])
        assert fit.tau_s == pytest.approx(0.49, rel=1e-9)

    def test_diagonal_scan_requires_flips(self):
        with pytest.raises(ValueError):
            measure_diagonal_decay(make_config(), [0.0, 0.1])

    def test_diagonal_scan_degenerates_at_balanced_weights(self):
        kappa = flip_rate_for_lifetime(0.49)
        config = make_config(
            noise=NoiseModel((GAMMA_7Q,) * 7, (kappa,) * 7), include_flip_relaxation=True
        )
        points = measure_diagonal_decay(config, [0.0, 0.1, 0.2])
        assert max(abs(y) for _, y in points) < 1e-12


def test_run_protocol_holds_at_most_five_and_a_half_states():
    # At the peak, in flip relaxation: the entangled and the dephased
    # states, the channel's zeroed matrix and its validated copy, and the
    # entangled reference.  Holding all four references for the whole run
    # made eight.
    config = protocol_config(9)
    run_protocol(config)
    tracemalloc.start()
    try:
        run_protocol(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 16 * 4**9


def test_run_protocol_allocates_no_dense_matrix():
    # Every state of the run is two classes of D elements: at 11 spins, flips
    # on, the peak stays under 64 such vectors, where one dense state is 2048.
    config = protocol_config(11)
    run_protocol(config)
    tracemalloc.start()
    try:
        report = run_protocol(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 16 * 2**11
    assert report.final_state._classes.size == 2


def test_final_state_matrix_is_a_read_only_view_built_once():
    report = run_protocol(protocol_config(5))
    rho = report.final_state
    assert rho._dense is None
    matrix = rho.matrix
    assert rho.matrix is matrix
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0
    # The dense view holds the two classes and zeros elsewhere.
    index = np.arange(rho.dim)
    for x, values in zip(rho._classes, rho._values):
        assert matrix[index, index ^ x].tobytes() == values.tobytes()
    assert np.count_nonzero(matrix) == np.count_nonzero(rho._values)


def test_dense_operations_accept_a_state_stored_by_classes():
    # apply_unitary and expectation read the dense view of a protocol state.
    rho = run_protocol(protocol_config(4)).final_state
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 16)
    rotated = apply_unitary(rho, u)
    np.testing.assert_allclose(rotated.matrix, u @ rho.matrix @ u.conj().T, atol=1e-15)
    assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
    observable = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    assert states.expectation(rho, observable) == pytest.approx(
        np.trace(rho.matrix @ observable), rel=1e-12
    )


def test_run_protocol_does_not_import_numpy_ma():
    # numpy.ma costs a CLI run its import time; np.unique's first call pulls it in.
    code = (
        "import sys\n"
        "from spincat import run_protocol\n"
        "from _support import protocol_config\n"
        "report = run_protocol(protocol_config(10))\n"
        "assert 0.0 < report.final_system_fidelity <= 1.0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def _child_env() -> dict[str, str]:
    """The environment of a child process: the package and the test support
    on the path, one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    paths = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


_TWELVE_SPIN_RUN = """
import dataclasses, json, resource, sys
from spincat import run_protocol
from _support import protocol_config
config = dataclasses.replace(protocol_config(12), noise_mode=sys.argv[1])
report = run_protocol(config)
print(json.dumps({
    "trajectories": config.noise.mc_trajectories,
    "fidelity": report.final_system_fidelity,
    "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _run_twelve_spins(noise_mode: str) -> tuple[float, dict]:
    """Wall time and outcome of one 12-spin run in a fresh process."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", _TWELVE_SPIN_RUN, noise_mode],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert 0.0 < outcome["fidelity"] <= 1.0
    return elapsed, outcome


# MAX_SPINS is 12: one run with 11 system spins and flips, in a fresh process
# with one BLAS thread, the import included.  On a 2-core host analytic
# dephasing measured 0.30 s and 37.2 MiB RSS, Monte Carlo with the ring7 count
# of 1000 trajectories 0.29 s and 39.6 MiB (medians of 5 fresh processes); each
# bound is under three times that.


@pytest.mark.slow
def test_twelve_spin_run_fits_the_advertised_limit():
    elapsed, outcome = _run_twelve_spins("analytic")
    assert elapsed < 0.9
    assert outcome["max_rss_kib"] * 1024 < 110 * 1024**2


@pytest.mark.slow
def test_twelve_spin_monte_carlo_run_fits_the_advertised_limit():
    elapsed, outcome = _run_twelve_spins("monte_carlo")
    assert outcome["trajectories"] == 1000
    assert elapsed < 1.05
    assert outcome["max_rss_kib"] * 1024 < 120 * 1024**2
