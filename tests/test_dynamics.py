"""Hamiltonians, pulses, noise channels, and the collective gate."""

import math

import numpy as np
import pytest

from spincat import (
    CatWeights,
    Coupling,
    DensityMatrix,
    NoiseModel,
    SpinSystem,
    apply_dephasing,
    apply_flip_relaxation,
    apply_phase_kicks_mc,
    build_hamiltonian,
    cat_state,
    controlled_not_all,
    dephasing_rate_for_lifetime,
    ferro_state,
    flip_rate_for_lifetime,
    nq_amplitude,
)
from spincat import load_config, operators
from spincat.dynamics import COUPLING_KINDS, draw_kick_phases
from spincat.spectra import _without_couplings_to
from spincat.states import HERMITIAN_TOL
from _support import (
    KICK_BLOCK,
    RING7_CONFIG,
    SZ,
    Pulse,
    apply_pulse,
    controlled_not_unitary,
    elements,
    evolve,
    hamiltonian_reference,
    is_hermitian,
    kronecker_total_spin_operator,
    no_characteristic_matrix,
    phase_kicks_reference,
    pulse_unitary,
    random_density_matrix,
    record_pair_reads,
    rk4_evolve,
    run_child,
    single_spin_operator,
    state_of_classes,
    traced_memory,
)

TWO_PI = 2.0 * np.pi


def _plus_state() -> DensityMatrix:
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex), 1)


class TestSpinSystem:
    def test_role_and_length_validation(self):
        with pytest.raises(ValueError):
            SpinSystem(2, ("control",), (0.0, 0.0))
        with pytest.raises(ValueError):
            SpinSystem(2, ("control", "carbon"), (0.0, 0.0))
        with pytest.raises(ValueError):
            SpinSystem(2, ("control", "system"), (0.0,))
        # A non-finite offset, rejected as a non-finite coupling strength is,
        # would otherwise reach the spectrum as NaN sticks.
        for offset in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite offset"):
                SpinSystem(2, ("control", "system"), (offset, 0.0))

    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            Coupling(1, 1, 5.0, "heteronuclear_zz")
        with pytest.raises(ValueError):
            Coupling(0, 1, 5.0, "scalar")
        with pytest.raises(ValueError):
            SpinSystem(
                2,
                ("control", "system"),
                (0.0, 0.0),
                (
                    Coupling(0, 1, 5.0, "heteronuclear_zz"),
                    Coupling(1, 0, 3.0, "heteronuclear_zz"),
                ),
            )
        with pytest.raises(ValueError):
            SpinSystem(
                2, ("control", "system"), (0.0, 0.0), (Coupling(0, 2, 5.0, "heteronuclear_zz"),)
            )

    @pytest.mark.parametrize("sites", [(0.5, 1), (0, 1.0), (True, 0), (1, False), ("0", 1)])
    def test_coupling_sites_must_be_integers(self, sites):
        with pytest.raises(ValueError, match="coupling site must be an integer"):
            Coupling(*sites, 10.0, "heteronuclear_zz")

    def test_numpy_integer_coupling_sites_are_accepted(self):
        coupling = Coupling(np.int64(0), np.int64(1), 10.0, "heteronuclear_zz")
        system = SpinSystem(2, ("control", "system"), (0.0, 0.0), (coupling,))
        expected = SpinSystem(
            2, ("control", "system"), (0.0, 0.0), (Coupling(0, 1, 10.0, "heteronuclear_zz"),)
        )
        np.testing.assert_array_equal(build_hamiltonian(system), build_hamiltonian(expected))

    @pytest.mark.parametrize("size", [True, 1.0, 2.5, "2"])
    def test_register_size_must_be_an_integer(self, size):
        with pytest.raises(ValueError, match="positive integer"):
            SpinSystem(size, ("control",), (0.0,))

    def test_site_role_partition(self):
        system = SpinSystem(3, ("system", "control", "system"), (0.0,) * 3)
        assert system.control_sites == (1,)
        assert system.system_sites == (0, 2)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel((-1.0,), (0.0,))
        with pytest.raises(ValueError):
            NoiseModel((1.0, 1.0), (0.0,))
        with pytest.raises(ValueError):
            NoiseModel((1.0,), (0.0,), mc_trajectories=0)
        # A trajectory count must be an integer, as in the config: a float
        # would fail later inside the kick's draw, and True is not 1.
        for count in (2.5, 2.0, True, "3", None):
            with pytest.raises(ValueError, match="^mc_trajectories must be an integer"):
                NoiseModel.uniform(2, mc_trajectories=count)
        assert NoiseModel.uniform(2, mc_trajectories=np.int64(3)).mc_trajectories == 3

    def test_uniform_factory(self):
        noise = NoiseModel.uniform(3, dephasing_per_s=2.0, flip_per_s=0.5)
        assert noise.dephasing_per_s == (2.0, 2.0, 2.0)
        assert noise.flip_per_s == (0.5, 0.5, 0.5)

    def test_lifetime_calibration(self):
        # N-spin coherence lifetime tau means per-spin rate 2/(N*tau).
        assert dephasing_rate_for_lifetime(0.029, 7) == pytest.approx(9.852216748768472)
        assert flip_rate_for_lifetime(0.49) == pytest.approx(1.0204081632653061)
        gamma = dephasing_rate_for_lifetime(0.029, 7)
        assert dephasing_rate_for_lifetime(0.029, np.int64(7)) == gamma
        rho = cat_state(7, CatWeights.balanced())
        decayed = apply_dephasing(rho, NoiseModel.uniform(7, dephasing_per_s=gamma), 0.029)
        assert abs(nq_amplitude(decayed)) == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "helper, args, message",
        [
            (dephasing_rate_for_lifetime, (0.0, 7), "lifetime"),
            (flip_rate_for_lifetime, (-1.0,), "lifetime"),
            (dephasing_rate_for_lifetime, (0.1, 0), "at least one site"),
            (dephasing_rate_for_lifetime, (0.1, -2), "at least one site"),
            (dephasing_rate_for_lifetime, (0.1, True), "at least one site"),
            (dephasing_rate_for_lifetime, (0.1, 2.5), "at least one site"),
            (dephasing_rate_for_lifetime, (0.1, np.float64(3.0)), "at least one site"),
            (dephasing_rate_for_lifetime, (math.nan, 3), "lifetime"),
            (dephasing_rate_for_lifetime, (math.inf, 3), "lifetime"),
            (flip_rate_for_lifetime, (math.nan,), "lifetime"),
            (flip_rate_for_lifetime, (math.inf,), "lifetime"),
        ],
    )
    def test_lifetime_helpers_reject_bad_inputs(self, helper, args, message):
        with pytest.raises(ValueError, match=message):
            helper(*args)


class TestHamiltonian:
    def test_heteronuclear_two_spin_matrix(self):
        system = SpinSystem(
            2, ("control", "system"), (0.0, 0.0), (Coupling(0, 1, 100.0, "heteronuclear_zz"),)
        )
        h = build_hamiltonian(system)
        expected = TWO_PI * 50.0 * np.diag([1.0, -1.0, -1.0, 1.0])
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_homonuclear_matrix_frozen(self):
        system = SpinSystem(2, ("system", "system"), (0.0, 0.0), (Coupling(0, 1, 10.0, "homonuclear_dipolar"),))
        h = build_hamiltonian(system)
        expected = TWO_PI * 10.0 * np.array(
            [
                [0.5, 0.0, 0.0, 0.0],
                [0.0, -0.5, -0.5, 0.0],
                [0.0, -0.5, -0.5, 0.0],
                [0.0, 0.0, 0.0, 0.5],
            ]
        )
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_offsets_only_precession(self):
        system = SpinSystem(1, ("system",), (100.0,))
        rho = evolve(_plus_state(), build_hamiltonian(system), 1e-3)
        assert rho.matrix[0, 1] == pytest.approx(0.5 * np.exp(-1j * TWO_PI * 0.1), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_conserves_total_sz(self, seed):
        rng = np.random.default_rng(seed)
        kinds = ["homonuclear_dipolar", "heteronuclear_zz"]
        couplings = []
        for i in range(3):
            for j in range(i + 1, 3):
                couplings.append(
                    Coupling(i, j, float(rng.normal(0.0, 50.0)), kinds[int(rng.integers(2))])
                )
        system = SpinSystem(
            3, ("control", "system", "system"), tuple(rng.normal(0.0, 100.0, size=3)), tuple(couplings)
        )
        h = build_hamiltonian(system)
        sz = kronecker_total_spin_operator("z", [0, 1, 2], 3)
        assert np.abs(h @ sz - sz @ h).max() < 1e-9
        assert is_hermitian(h, 1e-9)

    @pytest.mark.parametrize("offsets", ["zero", "mixed"])
    @pytest.mark.parametrize("n_spins", range(2, 7))
    def test_matches_kronecker_reference(self, n_spins, offsets):
        # Both coupling kinds, pairs listed either way round, and offsets
        # all zero or zero on every other site only.
        rng = np.random.default_rng(70 + n_spins)
        pairs = [(i, j) for i in range(n_spins) for j in range(i + 1, n_spins)]
        couplings = tuple(
            Coupling(
                *((j, i) if (k // 2) % 2 else (i, j)),
                float(rng.normal(0.0, 80.0)),
                COUPLING_KINDS[k % 2],
            )
            for k, (i, j) in enumerate(pairs)
        )
        nu = rng.normal(0.0, 200.0, n_spins) if offsets == "mixed" else np.zeros(n_spins)
        nu[::2] = 0.0
        system = SpinSystem(n_spins, ("control",) + ("system",) * (n_spins - 1), tuple(nu), couplings)
        np.testing.assert_array_equal(build_hamiltonian(system), hamiltonian_reference(system))

    @pytest.mark.parametrize("decouple", [(), (0,)])
    def test_ring7_matches_kronecker_reference(self, decouple):
        system = _without_couplings_to(load_config(RING7_CONFIG).system, decouple)
        np.testing.assert_array_equal(build_hamiltonian(system), hamiltonian_reference(system))


class TestPulse:
    def test_pi_pulse_inverts(self):
        rho = apply_pulse(ferro_state(1, "up"), Pulse((0,), "x", np.pi))
        np.testing.assert_allclose(rho.matrix, ferro_state(1, "down").matrix, atol=1e-14)

    def test_half_pi_creates_transverse_state(self):
        rho = apply_pulse(ferro_state(1, "up"), Pulse((0,), "y", np.pi / 2.0))
        np.testing.assert_allclose(rho.matrix, _plus_state().matrix, atol=1e-14)

    def test_phase_rotates_axis(self):
        u_phase = pulse_unitary(Pulse((0, 1), "x", 0.7, phase_rad=np.pi / 2.0), 2)
        u_y = pulse_unitary(Pulse((0, 1), "y", 0.7), 2)
        np.testing.assert_allclose(u_phase, u_y, atol=1e-12)
        u_z1 = pulse_unitary(Pulse((0,), "z", 0.7), 1)
        u_z2 = pulse_unitary(Pulse((0,), "z", 0.7, phase_rad=1.1), 1)
        np.testing.assert_allclose(u_z1, u_z2, atol=1e-15)

    def test_full_turn_is_identity_on_states(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, 2)
        turned = apply_pulse(rho, Pulse((0, 1), "x", 2.0 * np.pi))
        np.testing.assert_allclose(turned.matrix, rho.matrix, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Pulse((), "x", 1.0)
        with pytest.raises(ValueError):
            Pulse((0, 0), "x", 1.0)
        with pytest.raises(ValueError):
            Pulse((0,), "q", 1.0)
        with pytest.raises(ValueError):
            Pulse((0,), "x", float("nan"))


class TestDephasing:
    def test_single_spin_off_diagonal_rate(self):
        # gamma = 2, t = 0.5: off-diagonal decays by exp(-gamma*t/2).
        noise = NoiseModel.uniform(1, dephasing_per_s=2.0)
        rho = apply_dephasing(_plus_state(), noise, 0.5)
        assert rho.matrix[0, 1] == pytest.approx(0.5 * np.exp(-0.5), rel=1e-14)
        np.testing.assert_array_equal(np.diag(rho.matrix), np.diag(_plus_state().matrix))

    @pytest.mark.parametrize("n_spins", range(1, 7))
    def test_top_order_rate_scales_with_size(self, n_spins):
        gamma, t = 3.0, 0.21
        rho = cat_state(n_spins, CatWeights.balanced())
        decayed = apply_dephasing(rho, NoiseModel.uniform(n_spins, dephasing_per_s=gamma), t)
        expected = 0.5 * np.exp(-n_spins * gamma * t / 2.0)
        assert abs(nq_amplitude(decayed)) == pytest.approx(expected, rel=1e-12)

    def test_matches_master_equation_oracle(self):
        rng = np.random.default_rng(31)
        rho = random_density_matrix(rng, 2)
        rates = (0.7, 1.3)
        t = 0.3
        jumps = [
            np.sqrt(rates[i]) * single_spin_operator("z", i, 2) for i in range(2)
        ]
        oracle = rk4_evolve(rho.matrix, t, 600, None, jumps)
        channel = apply_dephasing(rho, NoiseModel(rates, (0.0, 0.0)), t)
        assert np.abs(channel.matrix - oracle).max() < 1e-8

    def test_commutes_with_diagonal_hamiltonian(self):
        system = SpinSystem(
            2, ("control", "system"), (30.0, -17.0), (Coupling(0, 1, 45.0, "heteronuclear_zz"),)
        )
        h = build_hamiltonian(system)
        noise = NoiseModel.uniform(2, dephasing_per_s=1.5)
        rng = np.random.default_rng(6)
        rho = random_density_matrix(rng, 2)
        a = apply_dephasing(evolve(rho, h, 0.01), noise, 0.2)
        b = evolve(apply_dephasing(rho, noise, 0.2), h, 0.01)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)

@pytest.mark.parametrize("t", [-0.1, float("nan")])
@pytest.mark.parametrize(
    "channel",
    [
        apply_dephasing,
        apply_flip_relaxation,
        lambda rho, noise, t: apply_phase_kicks_mc(rho, noise, t, seed=0),
    ],
    ids=["dephasing", "flips", "kicks"],
)
def test_channel_time_validation(channel, t):
    # Every step-D channel checks its arguments through _check_channel_args.
    with pytest.raises(ValueError, match="channel time must be finite and nonnegative"):
        channel(_plus_state(), NoiseModel.uniform(1, dephasing_per_s=1.0, flip_per_s=1.0), t)
    with pytest.raises(ValueError, match="noise model for 2 spins"):
        channel(_plus_state(), NoiseModel.uniform(2, dephasing_per_s=1.0, flip_per_s=1.0), 0.1)


# Flip relaxation of the state that step D of a run relaxes, classes 0
# and D - 1, at every site, against the dense reference bit for bit.  The
# reference holds D x D arrays, so it runs in a child process, as the
# ten-spin kick below does.  Its peak RSS is 0.37 GB at 11 spins and
# 1.35 GB at 12, so 11 spins is the largest case run.
_PROTOCOL_FLIPS = """
import sys
import numpy as np
from spincat import NoiseModel, apply_flip_relaxation, protocol
from _support import flip_one_site_reference, protocol_config, stored_classes

n = int(sys.argv[1])
config = protocol_config(n)
rho = protocol.step_a_initialize(config)
rho = protocol.step_c_entangle(protocol.step_b_create_cat(rho, config), config)
np.testing.assert_array_equal(stored_classes(rho)[0], [0, rho.dim - 1])
rates = np.random.default_rng(n).uniform(0.2, 3.0, n)
t = 0.37
expected = rho.matrix
for site, rate in enumerate(rates):
    expected = flip_one_site_reference(expected, site, n, rate * t)
relaxed = apply_flip_relaxation(rho, NoiseModel((0.0,) * n, tuple(rates)), t)
assert relaxed.matrix.tobytes() == expected.tobytes()
"""


class TestFlipRelaxation:
    def test_polarization_decay_rate(self):
        # <Sz>(t) = <Sz>(0) * exp(-2*kappa*t)
        noise = NoiseModel.uniform(1, flip_per_s=1.0)
        rho = apply_flip_relaxation(ferro_state(1, "up"), noise, 0.35)
        sz = float(np.real(np.trace(rho.matrix @ SZ)))
        assert sz == pytest.approx(0.5 * np.exp(-0.7), rel=1e-12)

    def test_off_diagonal_decay_rate(self):
        noise = NoiseModel.uniform(1, flip_per_s=1.0)
        rho = apply_flip_relaxation(_plus_state(), noise, 0.35)
        assert rho.matrix[0, 1] == pytest.approx(0.5 * np.exp(-0.35), rel=1e-12)

    def test_long_time_limit_is_maximally_mixed(self):
        noise = NoiseModel.uniform(2, flip_per_s=1.0)
        rng = np.random.default_rng(9)
        rho = apply_flip_relaxation(random_density_matrix(rng, 2), noise, 50.0)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-12)

    def test_matches_master_equation_oracle(self):
        rng = np.random.default_rng(37)
        rho = random_density_matrix(rng, 2)
        rates = (0.9, 0.4)
        t = 0.4
        jumps = []
        for i, kappa in enumerate(rates):
            jumps.append(np.sqrt(kappa) * single_spin_operator("plus", i, 2))
            jumps.append(np.sqrt(kappa) * single_spin_operator("minus", i, 2))
        oracle = rk4_evolve(rho.matrix, t, 800, None, jumps)
        channel = apply_flip_relaxation(rho, NoiseModel((0.0, 0.0), rates), t)
        assert np.abs(channel.matrix - oracle).max() < 1e-8

    @pytest.mark.parametrize("n_spins", [10, 11])
    def test_protocol_state_matches_reference(self, n_spins):
        run_child("-c", _PROTOCOL_FLIPS, str(n_spins))

    def test_commutes_with_dephasing(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(rng, 3)
        noise = NoiseModel((0.5, 1.0, 1.5), (0.2, 0.0, 0.8))
        a = apply_flip_relaxation(apply_dephasing(rho, noise, 0.3), noise, 0.3)
        b = apply_dephasing(apply_flip_relaxation(rho, noise, 0.3), noise, 0.3)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-13)


class TestKickPhases:
    SIGMA = (0.3, 1.7, 0.05, 2.2)

    def test_trajectory_phases_do_not_depend_on_the_count(self):
        longer = draw_kick_phases(self.SIGMA, 300, seed=9)
        assert longer.shape == (300, 4)
        assert longer[:200].tobytes() == draw_kick_phases(self.SIGMA, 200, seed=9).tobytes()

    def test_rows_are_one_normal_draw(self):
        expected = np.random.default_rng(9).normal(0.0, self.SIGMA, (300, 4))
        assert draw_kick_phases(self.SIGMA, 300, seed=9).tobytes() == expected.tobytes()

    def test_one_generator_per_kick(self, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        noise = NoiseModel.uniform(3, dephasing_per_s=2.0, mc_trajectories=1000)
        apply_phase_kicks_mc(cat_state(3, CatWeights.balanced()), noise, 0.1, seed=4)
        assert built == [(4,)]


class TestPhaseKicks:
    def test_deterministic_for_fixed_seed(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=0.16, mc_trajectories=300)
        rho = cat_state(2, CatWeights.balanced())
        a = apply_phase_kicks_mc(rho, noise, 1.0, seed=17)
        b = apply_phase_kicks_mc(rho, noise, 1.0, seed=17)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        c = apply_phase_kicks_mc(rho, noise, 1.0, seed=18)
        assert np.abs(a.matrix - c.matrix).max() > 0.0

    def test_single_spin_mean_within_standard_error(self):
        sigma = 0.6
        trials = 20000
        noise = NoiseModel.uniform(1, dephasing_per_s=sigma**2, mc_trajectories=trials)
        kicked = apply_phase_kicks_mc(_plus_state(), noise, 1.0, seed=101)
        target = 0.5 * np.exp(-(sigma**2) / 2.0)
        variance = 0.5 * (1.0 + np.exp(-2.0 * sigma**2)) - np.exp(-(sigma**2))
        standard_error = 0.5 * np.sqrt(variance / trials)
        assert abs(kicked.matrix[0, 1].real - target) < 4.0 * standard_error

    def test_matches_analytic_channel(self):
        gamma, t = 3.0, 0.1
        rho = cat_state(3, CatWeights.balanced())
        noise = NoiseModel.uniform(3, dephasing_per_s=gamma, mc_trajectories=20000)
        analytic = apply_dephasing(rho, noise, t)
        kicked = apply_phase_kicks_mc(rho, noise, t, seed=42)
        assert abs(kicked.matrix[0, 7] - analytic.matrix[0, 7]) < 0.01

    @pytest.mark.parametrize("state", ["full_rank", "cat"])
    def test_zero_rates_return_the_state_unchanged(self, state):
        # Zero widths give unit phases, so C is exactly one everywhere.
        if state == "cat":
            rho = cat_state(3, CatWeights(0.6, 0.8))
        else:
            rho = random_density_matrix(np.random.default_rng(8), 3)
        noise = NoiseModel.uniform(3, dephasing_per_s=0.0, flip_per_s=2.0, mc_trajectories=KICK_BLOCK + 5)
        kicked = apply_phase_kicks_mc(rho, noise, 0.4, seed=3)
        assert np.array_equal(kicked.matrix, rho.matrix)


# The kick of the state that step D of a 10-spin Monte Carlo run kicks,
# against the per-trajectory reference.  The reference costs D^2 per
# trajectory, so the kick keeps few of them.
_TEN_SPIN_CAT_KICK = """
import dataclasses
import numpy as np
from spincat import apply_phase_kicks_mc, protocol
from _support import no_characteristic_matrix, phase_kicks_reference, protocol_config

base = protocol_config(10)
noise = dataclasses.replace(base.noise, mc_trajectories=24)
config = dataclasses.replace(base, noise=noise, noise_mode="monte_carlo", seed=31)
rho = protocol.step_a_initialize(config)
rho = protocol.step_c_entangle(protocol.step_b_create_cat(rho, config), config)
with no_characteristic_matrix():
    kicked = apply_phase_kicks_mc(rho, noise, config.delay_s, config.seed)
sigma = np.sqrt(np.asarray(noise.dephasing_per_s) * config.delay_s)
reference = phase_kicks_reference(rho.matrix, 10, sigma, 24, config.seed)
np.testing.assert_allclose(kicked.matrix, reference, rtol=0.0, atol=1e-13)
"""


class TestPairKicks:
    """The pair route of ``apply_phase_kicks_mc``: a state of 1x1 and 2x2
    blocks, class 0 and at most one other, is kicked at its pairs'
    elements, with no characteristic matrix."""

    @pytest.mark.parametrize("triangle", ["lower", "upper"])
    def test_pair_in_one_triangle_keeps_its_zero(self, monkeypatch, triangle):
        # A pair whose element in one triangle is within HERMITIAN_TOL of
        # zero, and exactly zero in the other: the zero stays as it is.  It
        # is a negative zero, whose sign bits a multiplication would change.
        n, low, high = 4, 3, 12
        matrix = np.diag(np.full(16, 1.0 / 16)).astype(complex)
        small = 0.6 * HERMITIAN_TOL * np.exp(0.4j)
        row, col = (high, low) if triangle == "lower" else (low, high)
        matrix[row, col] = small
        matrix[col, row] = complex(-0.0, -0.0)
        _, reads = record_pair_reads(monkeypatch)
        rho = DensityMatrix(matrix, n)
        np.testing.assert_array_equal(reads[0], [[low, high]])
        noise = NoiseModel((0.9, 2.5, 0.3, 1.7), (0.0,) * n, KICK_BLOCK + 9)
        with no_characteristic_matrix():
            kicked = apply_phase_kicks_mc(rho, noise, 0.5, seed=6)
        sigma = np.sqrt(np.asarray(noise.dephasing_per_s) * 0.5)
        reference = phase_kicks_reference(matrix, n, sigma, noise.mc_trajectories, 6)
        np.testing.assert_allclose(kicked.matrix, reference, rtol=0.0, atol=1e-13)
        assert kicked.matrix[col, row].tobytes() == matrix[col, row].tobytes()
        assert kicked.matrix[row, col] != small and abs(kicked.matrix[row, col]) < abs(small)

    def test_ten_spin_protocol_cat_matches_reference(self):
        # The state that step D of a Monte Carlo run kicks: the pseudopure
        # cat entangled with the control.  The reference holds D x D arrays,
        # so it runs in a child process: here it would raise this process's
        # peak RSS, which every later child inherits in ru_maxrss.
        run_child("-c", _TEN_SPIN_CAT_KICK)

    def test_twelve_spin_pairs_stay_within_a_block_of_phases(self):
        # 2048 pairs of one class cover every index of a 12-spin register.
        # C over that support would be 4096 x 4096 complex, 256 MiB.
        n, dim = 12, 4096
        rng = np.random.default_rng(12)
        index = np.arange(dim)
        pattern = 0b0011_1111_1111
        partner = index ^ pattern
        populations = rng.uniform(0.1, 1.0, dim)
        populations /= populations.sum()
        low = index[index < partner]
        high = partner[low]
        bound = np.sqrt(populations[low] * populations[high])
        coherence = 0.9 * bound * np.exp(1j * rng.uniform(0.0, 2 * np.pi, low.size))
        classes = np.array([0, pattern])
        values = np.zeros((classes.size, dim), dtype=complex)
        values[0] = populations
        values[1, low] = coherence
        values[1, high] = coherence.conj()
        rho = state_of_classes(classes, values, n)
        assert low.size == 2048
        rates = rng.uniform(0.5, 3.0, n)
        noise = NoiseModel(tuple(rates), (0.0,) * n, 1000)
        with traced_memory() as memory, no_characteristic_matrix():
            kicked = apply_phase_kicks_mc(rho, noise, 0.2, seed=5)
        assert memory.peak < 32 * 1024**2
        assert elements(kicked, index, index).tobytes() == values[0].tobytes()
        # A few pairs against the mean over trajectories of their phases.
        phases = np.random.default_rng(5).normal(0.0, np.sqrt(rates * 0.2), (1000, n))
        sz_signs = 0.5 - operators.bit_table(n)
        k = rng.choice(low.size, 8, replace=False)
        factor = np.exp(-1j * (phases @ (sz_signs[:, low[k]] - sz_signs[:, high[k]]))).mean(axis=0)
        expected = factor * coherence[k]
        np.testing.assert_allclose(elements(kicked, low[k], high[k]), expected, rtol=1e-12)
        np.testing.assert_allclose(elements(kicked, high[k], low[k]), expected.conj(), rtol=1e-12)


class TestControlledNot:
    def test_truth_table(self):
        # Control at site 0 flips the target only when the control is down.
        u = controlled_not_unitary(2, 0, [1])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = 1.0
        expected[3, 2] = expected[2, 3] = 1.0
        np.testing.assert_array_equal(u, expected)
        rho = controlled_not_all(ferro_state(2, "down"), 0, [1])
        assert rho.matrix[2, 2] == pytest.approx(1.0)

    def test_involution(self):
        rng = np.random.default_rng(12)
        rho = random_density_matrix(rng, 3)
        twice = controlled_not_all(controlled_not_all(rho, 1, [0, 2]), 1, [0, 2])
        np.testing.assert_array_equal(twice.matrix, rho.matrix)

    def test_unitary_is_permutation(self):
        # The dense reference is the permutation that flips spins 1 and 2
        # where spin 0 is down, and the reindexing equals conjugation by it
        # on a full-rank state.
        u = controlled_not_unitary(3, 0, [1, 2])
        assert np.array_equal(np.abs(u) ** 2, np.abs(u))
        np.testing.assert_array_equal(u.argmax(axis=0), [0, 1, 2, 3, 7, 6, 5, 4])
        np.testing.assert_array_equal(u @ u, np.eye(8))
        rho = random_density_matrix(np.random.default_rng(13), 3)
        np.testing.assert_array_equal(
            controlled_not_all(rho, 0, [1, 2]).matrix, u @ rho.matrix @ u.conj().T
        )

    def test_validation(self):
        rho = ferro_state(2, "up")
        with pytest.raises(ValueError):
            controlled_not_all(rho, 0, [0])
        with pytest.raises(ValueError):
            controlled_not_all(rho, 0, [])
