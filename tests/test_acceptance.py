"""Acceptance gate: eight end-to-end criteria with stated tolerances.

Each test prints exactly one ``acceptance criterion k (<name>): PASS``
or ``FAIL`` line outside the capture machinery so the verdicts stay
visible in plain ``pytest -v`` runs.
"""

import json
import math
import time

import numpy as np

from spincat import (
    CatWeights,
    NoiseModel,
    ProtocolConfig,
    apply_dephasing,
    apply_flip_relaxation,
    apply_phase_kicks_mc,
    apply_unitary,
    cat_state,
    controlled_not_all,
    ferro_state,
    linear_regression,
    linear_response_spectrum,
    nq_amplitude,
    peak_list,
    pseudopure,
    run_protocol,
    scaling_study,
    von_neumann_entropy,
)
from spincat.cli import main
from _support import (
    RING7_CONFIG,
    Pulse,
    apply_pulse,
    random_density_matrix,
    random_unitary,
    rk4_evolve,
    ring7_system,
    single_spin_operator,
)

GAMMA_7Q = 2.0 / (7.0 * 0.029)  # 7-spin coherence lifetime 0.029 s


def _finish(capfd, number: int, name: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    with capfd.disabled():
        print(f"\nacceptance criterion {number} ({name}): {verdict}", flush=True)
    assert not failures, "; ".join(failures)


def _check_state(matrix: np.ndarray, label: str, failures: list[str]) -> None:
    trace = complex(np.trace(matrix))
    if abs(trace - 1.0) > 1e-10:
        failures.append(f"{label}: trace {trace}")
    if np.abs(matrix - matrix.conj().T).max() > 1e-10:
        failures.append(f"{label}: not Hermitian")
    eigmin = float(np.linalg.eigvalsh(matrix).min())
    if eigmin < -1e-8:
        failures.append(f"{label}: negative eigenvalue {eigmin}")


def test_criterion_1_end_to_end_recovery(capfd):
    started = time.perf_counter()
    config = ProtocolConfig(
        system=ring7_system(),
        noise=NoiseModel.uniform(7, dephasing_per_s=GAMMA_7Q),
        weights=CatWeights.balanced(),
        delay_s=0.2,
        purity_fraction=1.0,
        include_flip_relaxation=False,
    )
    report = run_protocol(config)
    failures = []
    if not report.final_system_fidelity >= 0.999:
        failures.append(f"final system fidelity {report.final_system_fidelity} < 0.999")
    entropy_gap = abs(report.final_control_entropy - math.log(2.0))
    if not entropy_gap <= 1e-3:
        failures.append(f"control entropy off ln 2 by {entropy_gap}")
    elapsed = time.perf_counter() - started
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 5 s")
    _finish(capfd, 1, "end-to-end recovery", failures)


def test_criterion_2_zero_noise_reversibility(capfd):
    started = time.perf_counter()
    config = ProtocolConfig(
        system=ring7_system(),
        noise=NoiseModel.uniform(7),
        weights=CatWeights.balanced(),
        delay_s=0.0,
    )
    report = run_protocol(config)
    failures = [
        f"step {record.name}: fidelity {record.fidelity}"
        for record in report.steps
        if abs(record.fidelity - 1.0) > 1e-10
    ]
    elapsed = time.perf_counter() - started
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
    _finish(capfd, 2, "zero-noise reversibility", failures)


def test_criterion_3_lifetime_round_trips(capfd, tmp_path):
    failures = []

    started = time.perf_counter()
    out_nq = tmp_path / "nq"
    code = main(["decay-scan", "--config", str(RING7_CONFIG), "--out", str(out_nq), "--which", "nq"])
    elapsed_nq = time.perf_counter() - started
    if code != 0:
        failures.append(f"nq scan exit code {code}")
    else:
        fit = json.loads((out_nq / "decay_nq_fit.json").read_text())["fit"]
        if abs(fit["tau_s"] - 0.029) > 0.01 * 0.029:
            failures.append(f"nq tau {fit['tau_s']} off 0.029 by more than 1%")
        if fit["r_squared"] < 0.9999:
            failures.append(f"nq r^2 {fit['r_squared']} < 0.9999")
    if elapsed_nq > 10.0:
        failures.append(f"nq runtime {elapsed_nq:.2f} s exceeds 10 s")

    data = json.loads(RING7_CONFIG.read_text())
    data["protocol"]["include_flip_relaxation"] = True
    data["protocol"]["weights"] = {
        "a": [math.sqrt(0.8), 0.0],
        "b": [math.sqrt(0.2), 0.0],
    }
    diag_config = tmp_path / "diagonal.json"
    diag_config.write_text(json.dumps(data))
    started = time.perf_counter()
    out_diag = tmp_path / "diag"
    code = main(
        ["decay-scan", "--config", str(diag_config), "--out", str(out_diag), "--which", "diagonal"]
    )
    elapsed_diag = time.perf_counter() - started
    if code != 0:
        failures.append(f"diagonal scan exit code {code}")
    else:
        fit = json.loads((out_diag / "decay_diagonal_fit.json").read_text())["fit"]
        if abs(fit["tau_s"] - 0.49) > 0.01 * 0.49:
            failures.append(f"diagonal tau {fit['tau_s']} off 0.49 by more than 1%")
        if fit["r_squared"] < 0.9999:
            failures.append(f"diagonal r^2 {fit['r_squared']} < 0.9999")
    if elapsed_diag > 10.0:
        failures.append(f"diagonal runtime {elapsed_diag:.2f} s exceeds 10 s")

    _finish(capfd, 3, "lifetime round-trips", failures)


def test_criterion_4_scaling_law(capfd):
    started = time.perf_counter()
    gamma = GAMMA_7Q
    noise = NoiseModel.uniform(2, dephasing_per_s=gamma)
    rates = scaling_study(range(2, 8), noise, np.linspace(0.0, 0.04, 6))
    fit = linear_regression([n for n, _ in rates], [r for _, r in rates])
    failures = []
    if abs(fit.slope - gamma / 2.0) > 0.005 * gamma / 2.0:
        failures.append(f"slope {fit.slope} off gamma/2 = {gamma / 2.0} by more than 0.5%")
    if abs(fit.intercept) > 1e-6 * gamma:
        failures.append(f"intercept {fit.intercept} exceeds 1e-6*gamma")
    elapsed = time.perf_counter() - started
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 30 s")
    _finish(capfd, 4, "coherence-order scaling law", failures)


def test_criterion_5_channel_oracle_equivalence(capfd):
    started = time.perf_counter()
    failures = []
    cases = {
        2: ((2.0, 1.1), (0.6, 0.3)),
        3: ((2.0, 1.1, 0.7), (0.6, 0.3, 0.45)),
    }
    gamma_ref = 2.0
    for n, (dephasing, flips) in cases.items():
        rho = random_density_matrix(np.random.default_rng(100 + n), n)
        noise = NoiseModel(dephasing, flips)
        jumps = []
        for site, rate in enumerate(dephasing):
            jumps.append(math.sqrt(rate) * single_spin_operator("z", site, n))
        for site, rate in enumerate(flips):
            jumps.append(math.sqrt(rate) * single_spin_operator("plus", site, n))
            jumps.append(math.sqrt(rate) * single_spin_operator("minus", site, n))
        for scale in (0.1, 1.0, 10.0):
            t = scale / gamma_ref
            steps = max(800, int(1200 * t))
            oracle = rk4_evolve(rho.matrix, t, steps, None, jumps)
            channel = apply_flip_relaxation(apply_dephasing(rho, noise, t), noise, t)
            difference = float(np.abs(channel.matrix - oracle).max())
            if difference > 1e-8:
                failures.append(f"n={n}, t={t}: channel vs oracle differ by {difference}")
    elapsed = time.perf_counter() - started
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 30 s")
    _finish(capfd, 5, "channel oracle equivalence", failures)


def test_criterion_6_monte_carlo_convergence(capfd):
    started = time.perf_counter()
    failures = []
    sigma = 0.25
    trajectories = 10_000
    for n in (2, 4, 6):
        # sigma = sqrt(gamma * t) = sqrt(0.0625 * 1.0) = 0.25 exactly.
        noise = NoiseModel.uniform(n, dephasing_per_s=0.0625, mc_trajectories=trajectories)
        rho = apply_phase_kicks_mc(cat_state(n, CatWeights.balanced()), noise, 1.0, seed=20260815 + n)
        measured = abs(nq_amplitude(rho))
        variance_term = n * sigma**2
        expected = 0.5 * math.exp(-variance_term / 2.0)
        # per-trajectory variance of cos(sum of n Gaussian phases)
        variance = 0.5 * (1.0 + math.exp(-2.0 * variance_term)) - math.exp(-variance_term)
        standard_error = 0.5 * math.sqrt(variance / trajectories)
        if abs(measured - expected) > 3.0 * standard_error:
            failures.append(
                f"n={n}: |{measured} - {expected}| exceeds 3*SE = {3.0 * standard_error}"
            )
    elapsed = time.perf_counter() - started
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 60 s")
    _finish(capfd, 6, "monte carlo convergence", failures)


def test_criterion_7_spectral_structure(capfd):
    started = time.perf_counter()
    failures = []
    system = ring7_system()
    observe = list(range(1, 7))
    up = pseudopure(ferro_state(7, "up"), 1.0)

    decoupled = linear_response_spectrum(up, system, observe, decouple=[0])
    peaks = peak_list(decoupled, threshold_fraction=0.01)
    if len(peaks) != 1:
        failures.append(f"decoupled spectrum has {len(peaks)} peaks, expected exactly 1")

    flipped = apply_pulse(up, Pulse(tuple(range(7)), "x", math.pi))
    up_peaks = peak_list(linear_response_spectrum(up, system, observe))
    down_peaks = peak_list(linear_response_spectrum(flipped, system, observe))
    if len(up_peaks) != len(down_peaks):
        failures.append("global 180-degree pulse changed the peak count")
    else:
        for original, mirrored in zip(up_peaks, reversed(down_peaks)):
            if abs(mirrored.frequency_hz + original.frequency_hz) > 1e-9:
                failures.append("mirrored peak frequency mismatch")
                break
            if abs(mirrored.amplitude + original.amplitude) > 1e-9:
                failures.append("mirrored peak amplitude mismatch")
                break

    full = linear_response_spectrum(up, system, observe)
    scaled = linear_response_spectrum(pseudopure(ferro_state(7, "up"), 0.4), system, observe)
    if np.abs(scaled.frequencies_hz - full.frequencies_hz).max() > 1e-9:
        failures.append("pseudopure scaling moved stick frequencies")
    if np.abs(scaled.amplitudes - 0.4 * full.amplitudes).max() > 1e-9:
        failures.append("stick amplitudes do not scale linearly with the pure fraction")

    elapsed = time.perf_counter() - started
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 5 s")
    _finish(capfd, 7, "spectral structure", failures)


def test_criterion_8_invariant_suite(capfd):
    started = time.perf_counter()
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 2
        rho = random_density_matrix(rng, n)
        noise = NoiseModel(
            tuple(rng.uniform(0.2, 3.0, size=n)), tuple(rng.uniform(0.1, 2.0, size=n))
        )
        t = float(rng.uniform(0.01, 0.8))

        _check_state(apply_dephasing(rho, noise, t).matrix, f"seed {seed} dephasing", failures)
        _check_state(apply_flip_relaxation(rho, noise, t).matrix, f"seed {seed} flips", failures)

        rotated = apply_unitary(rho, random_unitary(rng, 1 << n))
        _check_state(rotated.matrix, f"seed {seed} unitary", failures)
        entropy_drift = abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho))
        if entropy_drift > 1e-10:
            failures.append(f"seed {seed}: entropy drifted {entropy_drift} under a unitary")

        pulse = Pulse(
            tuple(range(n)),
            ("x", "y", "z")[seed % 3],
            float(rng.uniform(0.0, 2.0 * math.pi)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        _check_state(apply_pulse(rho, pulse).matrix, f"seed {seed} pulse", failures)

        targets = tuple(range(1, n))
        twice = controlled_not_all(controlled_not_all(rho, 0, targets), 0, targets)
        if np.abs(twice.matrix - rho.matrix).max() > 1e-12:
            failures.append(f"seed {seed}: controlled-NOT-all is not an involution")

        cat = cat_state(n, CatWeights.balanced())
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        rotated_all = apply_pulse(cat, Pulse(tuple(range(n)), "z", phi))
        rotated_one = apply_pulse(cat, Pulse((0,), "z", n * phi))
        if np.abs(rotated_all.matrix - rotated_one.matrix).max() > 1e-10:
            failures.append(f"seed {seed}: z-rotation phase equivalence broken")

    # deterministic grid of the same equivalence across register sizes
    for n in range(2, 8):
        cat = cat_state(n, CatWeights.balanced())
        for phi in np.linspace(0.0, 2.0 * math.pi, 16):
            rotated_all = apply_pulse(cat, Pulse(tuple(range(n)), "z", float(phi)))
            rotated_one = apply_pulse(cat, Pulse((0,), "z", float(n * phi)))
            gap = np.abs(rotated_all.matrix - rotated_one.matrix).max()
            if gap > 1e-10:
                failures.append(f"n={n}, phi={phi}: rotation equivalence gap {gap}")

    elapsed = time.perf_counter() - started
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 60 s")
    _finish(capfd, 8, "invariant suite", failures)
