"""Exponential fitting and coherence-order scaling studies."""

import math
import os

import numpy as np
import pytest

from spincat import (
    CatWeights,
    DensityMatrix,
    FitError,
    NoiseModel,
    cat_state,
    fit_exponential,
    linear_regression,
    nq_amplitude,
    scaling_study,
)
from spincat import analysis
import mutants
from _support import REPO_ROOT, phase_kicks_reference, run_child, traced_memory

GAMMA_7Q = 9.852216748768472  # 2 / (7 * 0.029)


class TestFitExponential:
    def test_exact_data_recovers_parameters(self):
        t = np.linspace(0.0, 0.25, 11)
        fit = fit_exponential(t, 0.5 * np.exp(-t / 0.029))
        assert fit.tau_s == pytest.approx(0.029, rel=1e-9)
        assert fit.amplitude == pytest.approx(0.5, rel=1e-9)
        assert fit.residual_rms < 1e-12
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_slow_decay(self):
        t = np.linspace(0.0, 2.0, 9)
        fit = fit_exponential(t, 3.0 * np.exp(-t / 0.49))
        assert fit.tau_s == pytest.approx(0.49, rel=1e-9)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-9)

    def test_amplitude_scale_equivariance(self):
        t = np.linspace(0.0, 1.0, 8)
        y = np.exp(-2.0 * t)
        base = fit_exponential(t, y)
        scaled = fit_exponential(t, 1e4 * y)
        assert scaled.tau_s == pytest.approx(base.tau_s, rel=1e-9)
        assert scaled.amplitude == pytest.approx(1e4 * base.amplitude, rel=1e-9)

    def test_subset_of_points_gives_same_answer(self):
        t = np.linspace(0.0, 0.2, 21)
        y = 0.7 * np.exp(-t / 0.05)
        full = fit_exponential(t, y)
        sparse = fit_exponential(t[::5], y[::5])
        assert sparse.tau_s == pytest.approx(full.tau_s, rel=1e-9)

    def test_noisy_data_within_tolerance(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 0.3, 31)
        y = np.exp(-t / 0.1) * (1.0 + rng.normal(0.0, 0.01, t.size))
        fit = fit_exponential(t, y)
        assert fit.tau_s == pytest.approx(0.1, rel=0.05)
        assert fit.r_squared > 0.99

    @pytest.mark.parametrize(
        "times, values",
        [
            ([0.0, 1.0], [1.0, 0.5]),  # too few points
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),  # constant
            ([0.0, 1.0, 2.0, 3.0], [1.0, -0.1, -0.2, -0.3]),  # mostly non-positive
            ([-1.0, 0.0, 1.0], [2.0, 1.0, 0.5]),  # negative time
            ([0.0, 1.0, 2.0], [1.0, 2.0, 4.0]),  # growing
            ([0.0, 1.0, 2.0], [1.0, np.nan, 0.2]),  # non-finite
            ([0.0, 0.0, 0.0], [3.0, 2.0, 1.0]),  # no time spread
            ([0.5, 0.5, 0.5, 1.0, 2.0], [3.0, 2.0, 1.0, -0.1, -0.2]),  # positives share one time
        ],
    )
    def test_degenerate_inputs_raise(self, times, values):
        with pytest.raises(FitError):
            fit_exponential(times, values)

    def test_fit_in_a_cli_process_does_not_import_numpy_ma(self):
        # numpy.ma costs a CLI run its import time; np.unique's first call pulls it in.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import spincat.cli\n"
            "from spincat.analysis import fit_exponential\n"
            "t = np.linspace(0.0, 0.25, 11)\n"
            "fit = fit_exponential(t, 0.5 * np.exp(-t / 0.029))\n"
            "assert abs(fit.tau_s - 0.029) < 1e-9, fit\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        run_child("-c", code)

    def test_shape_mismatch_raises(self):
        with pytest.raises(FitError):
            fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5])

    def test_zero_crossings_tolerated_in_minority(self):
        # One non-positive tail point must not abort the fit.
        t = np.linspace(0.0, 0.5, 10)
        y = np.exp(-t / 0.05)
        y[-1] = 0.0
        fit = fit_exponential(t, y)
        assert fit.tau_s == pytest.approx(0.05, rel=0.05)


class TestScalingStudy:
    @pytest.mark.parametrize("mode", ["analytic", "monte_carlo"])
    def test_one_decayed_state_alive_at_a_time(self, mode):
        # The cat and each decayed state are two coherence classes of D
        # elements, and no D x D array is formed: the peak stays under 64
        # vectors of D elements (it measured 19 at 8 spins), a quarter of
        # one dense state.
        n, dim = 8, 1 << 8
        noise = NoiseModel.uniform(1, dephasing_per_s=4.0, mc_trajectories=20)
        delays = [0.0, 0.01, 0.02, 0.03]
        scaling_study([2], noise, delays, mode=mode, seed=1)  # first-call set-up, outside the count
        with traced_memory() as memory:
            scaling_study([n], noise, delays, mode=mode, seed=1)
        assert memory.peak < 64 * dim * 16

    def test_analytic_rates_scale_with_register_size(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=GAMMA_7Q)
        delays = np.linspace(0.0, 0.05, 6)
        results = scaling_study(range(2, 8), noise, delays)
        assert [n for n, _ in results] == list(range(2, 8))
        for n, rate in results:
            assert rate == pytest.approx(n * GAMMA_7Q / 2.0, rel=1e-9)

    def test_rates_regress_to_linear_law(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=4.0)
        results = scaling_study(range(2, 7), noise, np.linspace(0.0, 0.2, 5))
        reg = linear_regression([n for n, _ in results], [r for _, r in results])
        assert reg.slope == pytest.approx(2.0, rel=1e-9)  # gamma / 2
        assert abs(reg.intercept) < 1e-9
        assert reg.pearson_r == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_tracks_analytic(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=4.0, mc_trajectories=4000)
        delays = np.linspace(0.0, 0.15, 5)
        analytic = scaling_study([2, 3], noise, delays)
        sampled = scaling_study([2, 3], noise, delays, mode="monte_carlo", seed=11)
        for (n, exact), (m, estimate) in zip(analytic, sampled):
            assert n == m
            assert estimate == pytest.approx(exact, rel=0.05)

    def test_monte_carlo_is_deterministic(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=4.0, mc_trajectories=500)
        delays = [0.0, 0.05, 0.1, 0.15]
        first = scaling_study([2, 3], noise, delays, mode="monte_carlo", seed=3)
        second = scaling_study([2, 3], noise, delays, mode="monte_carlo", seed=3)
        assert first == second
        shifted = scaling_study([2, 3], noise, delays, mode="monte_carlo", seed=4)
        assert first != shifted

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_monte_carlo_rates_match_per_trajectory_kicks(self, n):
        gamma, trajectories, seed = 4.0, 300, 7
        noise = NoiseModel.uniform(2, dephasing_per_s=gamma, mc_trajectories=trajectories)
        delays = [0.0, 0.05, 0.1, 0.15]
        [(size, rate)] = scaling_study([n], noise, delays, mode="monte_carlo", seed=seed)
        cat = cat_state(n, CatWeights.balanced()).matrix
        amplitudes = []
        for k, t in enumerate(delays):
            point_seed = int(np.random.SeedSequence((seed, n, k)).generate_state(1)[0])
            sigma = [math.sqrt(gamma * t)] * n
            kicked = phase_kicks_reference(cat, n, sigma, trajectories, point_seed)
            amplitudes.append(abs(nq_amplitude(DensityMatrix(kicked, n))))
        assert size == n
        assert rate == pytest.approx(1.0 / fit_exponential(delays, amplitudes).tau_s, rel=1e-12)

    def test_monte_carlo_rates_do_not_depend_on_scan_order(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=4.0, mc_trajectories=300)
        delays = [0.0, 0.05, 0.1, 0.15]
        forward = scaling_study([2, 3], noise, delays, mode="monte_carlo", seed=5)
        backward = scaling_study([3, 2], noise, delays, mode="monte_carlo", seed=5)
        assert dict(forward) == dict(backward)
        assert [n for n, _ in backward] == [3, 2]

    @pytest.mark.parametrize("mode", ["analytic", "monte_carlo"])
    @pytest.mark.parametrize("delay", [-0.1, math.nan, math.inf])
    def test_bad_delay_rejected_before_any_fit(self, monkeypatch, mode, delay):
        def not_fitted(*args):
            raise AssertionError("a fit ran before the delays were checked")

        monkeypatch.setattr(analysis, "fit_exponential", not_fitted)
        noise = NoiseModel.uniform(2, dephasing_per_s=1.0, mc_trajectories=8)
        with pytest.raises(ValueError, match="^channel time must be finite and nonnegative"):
            scaling_study([2, 3], noise, [0.0, 0.1, delay], mode=mode, seed=1)

    def test_non_uniform_rates_rejected(self):
        noise = NoiseModel((1.0, 2.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            scaling_study([2], noise, [0.0, 0.1, 0.2])

    def test_zero_rate_rejected(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=0.0)
        with pytest.raises(ValueError):
            scaling_study([2], noise, [0.0, 0.1, 0.2])

    def test_unknown_mode_rejected(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=1.0)
        with pytest.raises(ValueError):
            scaling_study([2], noise, [0.0, 0.1, 0.2], mode="exact")

    def test_oversized_register_rejected(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=1.0)
        with pytest.raises(ValueError):
            scaling_study([13], noise, [0.0, 0.1, 0.2])

    @pytest.mark.parametrize("size", [2.7, 3.0, True, "3"])
    def test_register_sizes_must_be_integers(self, size):
        # Checked as given: int(2.7) would run 2 spins and int(True) one.
        noise = NoiseModel.uniform(2, dephasing_per_s=1.0)
        with pytest.raises(ValueError, match="positive integer"):
            scaling_study([size, 3], noise, [0.0, 0.1, 0.2])

    def test_numpy_integer_register_sizes_are_accepted(self):
        noise = NoiseModel.uniform(2, dephasing_per_s=1.0)
        results = scaling_study(np.arange(2, 4), noise, [0.0, 0.1, 0.2])
        assert results == scaling_study([2, 3], noise, [0.0, 0.1, 0.2])


def test_seed_sweep_script_runs():
    # tests/seed_sweep.py repeats three single-seed Monte Carlo tests over
    # many seeds; two seeds show that it still runs and reports all three.
    stdout = run_child(str(REPO_ROOT / "tests" / "seed_sweep.py"), "--seeds", "2", timeout=120)
    lines = [line for line in stdout.splitlines() if ": passed " in line]
    assert len(lines) == 3, stdout


def test_mutation_table_runs():
    # tests/mutants.py plants each recorded fault in a copy of the checkout
    # and runs tier-1 there.  One mutant no entry touches, run against one
    # test file, shows that it still runs (whatever the copy it is run in),
    # and a mutant whose text is gone is reported, not run.
    popcounts = "= bit_table(n_spins).sum(axis=0)\n"
    read_only = popcounts + "    table.flags.writeable = False"
    writable = mutants.Mutant("writable popcounts", "src/spincat/operators.py", read_only, popcounts)
    operators_tests = ("tests/test_operators.py",)
    assert mutants.outcome(writable, operators_tests).startswith("killed by tests/test_operators.py::")
    assert mutants.outcome(writable._replace(old="no such text"), operators_tests) == "does not apply"
    # Every entry applies to the checkout, and so a change that moves the
    # text of one fails here.  In a copy with a mutant planted, that
    # mutant's text is gone, and the unmutated copy has made this check.
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    if not os.environ.get(mutants.PLANTED):
        assert [mutant.name for mutant in mutants.MUTANTS if not mutants.applies(mutant)] == []


def test_output_digest_script_runs():
    # tests/output_digest.py hashes the outputs of a grid of protocol runs
    # and scaling studies; registers of 2 and 3 spins and one seed show
    # that it still runs and covers both parts.
    stdout = run_child(str(REPO_ROOT / "tests" / "output_digest.py"), "--n-max", "3", "--seeds", "1", timeout=120)
    lines = stdout.splitlines()
    assert lines[0] == "# 8 protocol runs, 2 scaling studies", stdout
    # The digest of this small grid is pinned, so a change that moves one
    # output bit fails here, not only in the full script.
    assert lines[1:] == [
        "sha256 632181a90a501ec8abacc06d18b67b57a4b70a7579cd64b0617514d834af446f"
    ], stdout


class TestLinearRegression:
    def test_exact_line(self):
        x = np.arange(6.0)
        reg = linear_regression(x, -2.0 * x + 1.0)
        assert reg.slope == pytest.approx(-2.0, abs=1e-12)
        assert reg.intercept == pytest.approx(1.0, abs=1e-12)
        assert reg.pearson_r == pytest.approx(-1.0, abs=1e-12)

    def test_constant_input_has_zero_correlation(self):
        reg = linear_regression([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        assert reg.slope == pytest.approx(0.0, abs=1e-12)
        assert reg.pearson_r == 0.0

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError):
            linear_regression([1.0], [2.0])
        with pytest.raises(ValueError):
            linear_regression([1.0, 2.0], [2.0])
        # A constant x determines no line; np.polyfit would warn and guess one.
        with pytest.raises(ValueError, match="x is constant"):
            linear_regression([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_input_raises(self, bad, side, capfd):
        samples = {"x": [1.0, 2.0, 3.0], "y": [2.0, 4.0, 7.0]}
        samples[side][1] = bad
        with pytest.raises(ValueError, match="need two finite"):
            linear_regression(samples["x"], samples["y"])
        # Without the check, LAPACK printed its parameter error to stderr.
        assert capfd.readouterr().err == ""

    def test_two_dimensional_input_raises(self):
        with pytest.raises(ValueError, match="1-d"):
            linear_regression([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]])
