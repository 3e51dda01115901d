"""End-to-end command-line runs: files, exit codes, determinism."""

import errno
import json
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from spincat import (
    DensityMatrix,
    ferro_state,
    linear_response_spectrum,
    load_config,
    protocol,
    pseudopure,
    run_protocol,
)
from spincat.cli import MAX_SCALING_SPINS, STATE_NAMES, _resolve_state, _write_atomic, main
from _support import RING7_CONFIG, child_process, traced_memory

GAMMA_7Q = 9.852216748768472
KAPPA_PROTON = 1.0204081632653061
COMMANDS = ("run-protocol", "decay-scan", "spectrum", "scaling")


def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "spin_system": {
            "n_spins": 4,
            "roles": ["control", "system", "system", "system"],
        },
        "noise": {
            "dephasing_per_s": [GAMMA_7Q] * 4,
            "flip_per_s": [0.0] * 4,
        },
        "protocol": {
            "delays_s": [0.0, 0.01, 0.02, 0.03, 0.04],
            "seed": 42,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class TestRunProtocol:
    def test_ring_config_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run-protocol", "--config", str(RING7_CONFIG), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "protocol_report.json").read_text())
        assert len(report["runs"]) == 9
        assert len(report["config_sha256"]) == 64
        first, last = report["runs"][0], report["runs"][-1]
        assert first["final_system_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert last["final_system_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert first["final_control_entropy"] == pytest.approx(0.0, abs=1e-9)
        assert last["final_control_entropy"] == pytest.approx(np.log(2.0), abs=1e-3)
        csv_lines = (out / "coherence_orders.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# config_sha256: ")
        assert csv_lines[1] == "# seed: 20260815"
        assert csv_lines[2] == "delay_s,step,order,weight"
        stdout = capsys.readouterr().out
        assert stdout.count("system fidelity") == 9

    def test_dump_states(self, tmp_path):
        config = write_config(tmp_path, protocol={"delays_s": [0.0, 0.1]})
        out = tmp_path / "out"
        assert main(["run-protocol", "--config", str(config), "--out", str(out), "--dump-states"]) == 0
        run = load_config(config)
        for k, delay in enumerate(run.delays_s):
            matrix = np.load(out / f"state_final_{k:02d}.npy")
            assert matrix.shape == (16, 16)
            assert np.trace(matrix) == pytest.approx(1.0)
            expected = run_protocol(run.protocol_config(delay, run.seed)).final_state.matrix
            np.testing.assert_array_equal(matrix, expected)
        # Every write went through a temp file that was renamed away.
        assert sorted(p.name for p in out.iterdir()) == [
            "coherence_orders.csv",
            "protocol_report.json",
            "state_final_00.npy",
            "state_final_01.npy",
        ]

    def test_dump_states_holds_one_dense_view_at_a_time(self, tmp_path):
        # Traced peak of a 9-spin run of six delays, in units of one D x D
        # complex matrix: each delay's dense view, written straight from the
        # array before the next delay runs.  A copy of its .npy bytes would
        # add one view, and views kept for every delay one per delay.
        n, dim = 9, 512
        config = write_config(
            tmp_path,
            spin_system={"n_spins": n, "roles": ["control"] + ["system"] * (n - 1)},
            noise={"dephasing_per_s": [GAMMA_7Q] * n, "flip_per_s": [0.0] * n},
            protocol={"delays_s": [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]},
        )
        out = tmp_path / "out"
        with traced_memory() as memory:
            main(["run-protocol", "--config", str(config), "--out", str(out), "--dump-states"])
        assert len(list(out.glob("state_final_*.npy"))) == 6
        assert memory.peak <= 1.5 * dim * dim * 16

    def test_atomic_write_leaves_other_temp_files_alone(self, tmp_path):
        # A fixed "<name>.tmp" is what another run writing here could be using.
        other = tmp_path / "protocol_report.json.tmp"
        other.write_text("partial output of another run")
        _write_atomic(tmp_path / "protocol_report.json", lambda handle: handle.write(b"{}\n"))
        assert (tmp_path / "protocol_report.json").read_bytes() == b"{}\n"
        assert other.read_text() == "partial output of another run"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "protocol_report.json",
            "protocol_report.json.tmp",
        ]

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run-protocol", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["run-protocol", "--config", str(config), "--out", str(out_b)]) == 0
        first, second = read_outputs(out_a), read_outputs(out_b)
        assert first.keys() == second.keys()
        assert first == second

    def test_seed_override_lands_in_outputs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run-protocol", "--config", str(config), "--out", str(out), "--seed", "7"]) == 0
        assert json.loads((out / "protocol_report.json").read_text())["seed"] == 7
        assert "# seed: 7" in (out / "coherence_orders.csv").read_text()

    def test_format_restriction(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run-protocol", "--config", str(config), "--out", str(out), "--format", "csv"]) == 0
        names = set(read_outputs(out))
        assert "coherence_orders.csv" in names
        assert "protocol_report.json" not in names


class TestDecayScan:
    def test_nq_scan_recovers_lifetime(self, tmp_path, capsys):
        # The entangled coherence spans the full register (control plus
        # three system spins), so calibrate gamma against n = 4.
        config = write_config(
            tmp_path,
            noise={"dephasing_per_s": [2.0 / (4.0 * 0.029)] * 4},
        )
        out = tmp_path / "out"
        assert main(["decay-scan", "--config", str(config), "--out", str(out), "--which", "nq"]) == 0
        fit = json.loads((out / "decay_nq_fit.json").read_text())
        assert fit["observable"] == "nq"
        assert fit["fit"]["tau_s"] == pytest.approx(0.029, rel=1e-6)
        assert fit["fit"]["r_squared"] == pytest.approx(1.0, abs=1e-9)
        rows = [
            line for line in (out / "decay_nq.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert rows[0] == "delay_s,normalized_amplitude"
        assert len(rows) == 6
        assert "tau 0.029" in capsys.readouterr().out

    def test_diagonal_scan_recovers_flip_lifetime(self, tmp_path):
        config = write_config(
            tmp_path,
            noise={
                "dephasing_per_s": [GAMMA_7Q] * 4,
                "flip_per_s": [0.0, KAPPA_PROTON, KAPPA_PROTON, KAPPA_PROTON],
            },
            protocol={
                "delays_s": [0.0, 0.05, 0.1, 0.15, 0.2],
                "include_flip_relaxation": True,
                "weights": {"a": [0.8944271909999159, 0.0], "b": [0.4472135954999579, 0.0]},
            },
        )
        out = tmp_path / "out"
        assert main(["decay-scan", "--config", str(config), "--out", str(out), "--which", "diagonal"]) == 0
        fit = json.loads((out / "decay_diagonal_fit.json").read_text())
        assert fit["fit"]["tau_s"] == pytest.approx(0.49, rel=1e-9)
        # 3 system spins at polarization imbalance 0.8 - 0.2
        assert fit["baseline_amplitude"] == pytest.approx(0.9, rel=1e-9)

    def test_noiseless_scan_is_an_analysis_failure(self, tmp_path, capsys):
        config = write_config(tmp_path, noise={"dephasing_per_s": [0.0] * 4})
        code = main(["decay-scan", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "analysis failure" in capsys.readouterr().err

    def test_balanced_diagonal_scan_is_an_analysis_failure(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            noise={"flip_per_s": [0.0, 1.0, 1.0, 1.0]},
            protocol={"include_flip_relaxation": True},
        )
        code = main(
            ["decay-scan", "--config", str(config), "--out", str(tmp_path / "out"), "--which", "diagonal"]
        )
        assert code == 3
        assert "baseline" in capsys.readouterr().err

    def test_diagonal_scan_without_flips_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(
            ["decay-scan", "--config", str(config), "--out", str(tmp_path / "out"), "--which", "diagonal"]
        )
        assert code == 1
        assert "flip relaxation" in capsys.readouterr().err


class TestSpectrum:
    def test_decoupled_ring_single_peak(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["spectrum", "--config", str(RING7_CONFIG), "--out", str(out), "--decouple"]
        )
        assert code == 0
        peaks = json.loads((out / "spectrum_peaks.json").read_text())
        assert peaks["decoupled"] is True
        assert len(peaks["peaks"]) == 1
        assert peaks["peaks"][0]["amplitude_re"] == pytest.approx(6.0, abs=1e-9)
        assert peaks["total_amplitude_re"] == pytest.approx(6.0, abs=1e-9)
        assert (out / "spectrum_sticks.csv").exists()
        assert (out / "spectrum_trace.csv").exists()
        assert "1 peak(s)" in capsys.readouterr().out

    def test_coupled_ring_splits(self, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(RING7_CONFIG), "--out", str(out)]) == 0
        peaks = json.loads((out / "spectrum_peaks.json").read_text())
        assert len(peaks["peaks"]) > 1
        total = sum(p["amplitude_re"] for p in peaks["peaks"])
        assert total == pytest.approx(6.0, rel=0.01)

    @pytest.mark.parametrize("state", ["pseudopure-down", "cat", "entangled", "decohered", "thermal"])
    def test_named_states_run(self, tmp_path, state):
        out = tmp_path / "out"
        code = main(
            ["spectrum", "--config", str(RING7_CONFIG), "--out", str(out), "--state", state]
        )
        assert code == 0

    @pytest.mark.parametrize("state, corner", [("cat", 0b0111111), ("entangled", 0b1111111)])
    def test_cat_and_entangled_spectra_are_those_of_the_written_out_states(
        self, tmp_path, state, corner
    ):
        # The named state is the pseudopure a|0> + b|corner>, with the
        # control at the most significant bit; every stick matches exactly.
        run = load_config(RING7_CONFIG)
        out = tmp_path / "out"
        code = main(
            ["spectrum", "--config", str(RING7_CONFIG), "--out", str(out), "--state", state]
        )
        assert code == 0
        psi = np.zeros(128, dtype=complex)
        psi[[0, corner]] = run.weights.a, run.weights.b
        rho = pseudopure(DensityMatrix(np.outer(psi, psi.conj()), 7), run.purity_fraction)
        expected = linear_response_spectrum(
            rho,
            run.system,
            list(run.system.system_sites),
            linewidth_hz=run.spectrum.linewidth_hz,
            grid_hz=run.spectrum.grid_hz,
        )
        lines = (out / "spectrum_sticks.csv").read_text().splitlines()
        assert lines[2] == "frequency_hz,amplitude_re,amplitude_im"
        sticks = np.array([[float(v) for v in line.split(",")] for line in lines[3:]])
        np.testing.assert_array_equal(sticks[:, 0], expected.frequencies_hz)
        np.testing.assert_array_equal(sticks[:, 1] + 1j * sticks[:, 2], expected.amplitudes)

    def test_npy_state_input(self, tmp_path):
        config = write_config(
            tmp_path,
            spin_system={
                "n_spins": 2,
                "roles": ["control", "system"],
                "couplings": [{"sites": [0, 1], "strength_hz": 50.0, "kind": "heteronuclear_zz"}],
            },
            noise={"dephasing_per_s": [0.0, 0.0], "flip_per_s": [0.0, 0.0]},
        )
        state_path = tmp_path / "state.npy"
        np.save(state_path, ferro_state(2, "up").matrix)
        out = tmp_path / "out"
        code = main(
            ["spectrum", "--config", str(config), "--out", str(out), "--state", str(state_path)]
        )
        assert code == 0
        peaks = json.loads((out / "spectrum_peaks.json").read_text())
        assert len(peaks["peaks"]) == 1
        assert peaks["peaks"][0]["frequency_hz"] == pytest.approx(50.0)

    def test_invalid_npy_state_is_an_invariant_violation(self, tmp_path, capsys):
        config = write_config(tmp_path)
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        state_path = tmp_path / "bad.npy"
        np.save(state_path, bad)
        code = main(
            ["spectrum", "--config", str(config), "--out", str(tmp_path / "out"), "--state", str(state_path)]
        )
        assert code == 2
        assert "invariant violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "array, message",
        [
            (np.array(0.5), "expected a square matrix, got shape ()"),
            (np.array([0.5, 0.5]), "expected a square matrix, got shape (2,)"),
            (np.zeros((2, 4)), "expected a square matrix, got shape (2, 4)"),
            # A register of no spins, not one of the size 0 that no one gave.
            (np.ones((1, 1)), "matrix dimension 1 is not 2**n for a register of n >= 1 spins"),
        ],
        ids=["0-d", "1-d", "2x4", "1x1"],
    )
    def test_non_square_npy_state_is_a_config_error(self, tmp_path, capsys, array, message):
        config = write_config(tmp_path)
        state_path = tmp_path / "flat.npy"
        np.save(state_path, array)
        code = main(
            ["spectrum", "--config", str(config), "--out", str(tmp_path / "out"), "--state", str(state_path)]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: state file {state_path}: {message}"]

    def test_npz_archive_under_an_npy_name_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        state_path = tmp_path / "s.npy"
        with open(state_path, "wb") as handle:
            np.savez(handle, state=ferro_state(2, "up").matrix)
        code = main(
            ["spectrum", "--config", str(config), "--out", str(tmp_path / "out"), "--state", str(state_path)]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: state file {state_path}: expected one array, got an .npz archive"
        ]

    def test_npy_state_beyond_the_register_cap_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # 8192 x 8192 is 13 spins; the cap is checked before the matrix is copied.
        config = write_config(tmp_path)
        monkeypatch.setattr(
            np, "load", lambda name, mmap_mode=None: np.broadcast_to(np.complex128(0.0), (8192, 8192))
        )
        with traced_memory() as memory:
            code = main(
                ["spectrum", "--config", str(config), "--out", str(tmp_path / "out"), "--state", "big.npy"]
            )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: register of 13 spins exceeds the dense limit of 12"
        ]
        assert memory.peak < 16 << 20

    def test_npy_state_file_beyond_the_register_cap_is_not_read(self, tmp_path, capsys):
        # A sparse 13-spin float64 file: 512 MiB of zeros that take no disk
        # space.  The cap is checked on the header, before any element is read.
        config = write_config(tmp_path)
        state_path = tmp_path / "big.npy"
        dim = 8192
        with open(state_path, "wb") as handle:
            np.lib.format.write_array_header_1_0(
                handle, {"descr": "<f8", "fortran_order": False, "shape": (dim, dim)}
            )
            handle.seek(dim * dim * 8 - 1, 1)
            handle.write(b"\0")
        with traced_memory() as memory:
            with pytest.raises(ValueError, match="exceeds the dense limit of 12"):
                _resolve_state(str(state_path), load_config(config))
        assert memory.peak < 1 << 20
        code = main(
            ["spectrum", "--config", str(config), "--out", str(tmp_path / "out"), "--state", str(state_path)]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: register of 13 spins exceeds the dense limit of 12"
        ]

    def test_missing_npy_state(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(
            ["spectrum", "--config", str(config), "--out", str(tmp_path / "out"), "--state", "absent.npy"]
        )
        assert code == 1
        assert "cannot read state file" in capsys.readouterr().err


class TestScaling:
    def test_analytic_slope(self, tmp_path, capsys):
        config = write_config(tmp_path, noise={"dephasing_per_s": [4.0] * 4})
        out = tmp_path / "out"
        code = main(["scaling", "--config", str(config), "--out", str(out), "--n-max", "5"])
        assert code == 0
        fit = json.loads((out / "scaling_fit.json").read_text())
        assert [entry["n_spins"] for entry in fit["rates"]] == [2, 3, 4, 5]
        assert fit["fit"]["slope"] == pytest.approx(2.0, rel=1e-9)
        assert abs(fit["fit"]["intercept"]) < 1e-9
        assert "rate slope 2" in capsys.readouterr().out

    def test_monte_carlo_mode_runs(self, tmp_path):
        # The 2-point slope's standard deviation over seeds is about
        # 0.4 at 400 trajectories and 0.04 at 50 000, so the 10%
        # tolerance is about five standard deviations wide.
        config = write_config(tmp_path, noise={"dephasing_per_s": [4.0] * 4})
        out = tmp_path / "out"
        code = main(
            [
                "scaling", "--config", str(config), "--out", str(out),
                "--n-max", "3", "--mode", "monte_carlo", "--trajectories", "50000",
            ]
        )
        assert code == 0
        fit = json.loads((out / "scaling_fit.json").read_text())
        assert fit["fit"]["slope"] == pytest.approx(2.0, rel=0.1)

    def test_monte_carlo_runs_at_the_size_guardrail(self, tmp_path):
        config = write_config(tmp_path, noise={"dephasing_per_s": [4.0] * 4})
        out = tmp_path / "out"
        code = main(
            [
                "scaling", "--config", str(config), "--out", str(out),
                "--n-max", str(MAX_SCALING_SPINS), "--mode", "monte_carlo", "--trajectories", "200",
            ]
        )
        assert code == 0
        fit = json.loads((out / "scaling_fit.json").read_text())
        assert [entry["n_spins"] for entry in fit["rates"]] == list(range(2, MAX_SCALING_SPINS + 1))
        # Over 150 seeds of this config the fitted slope's relative error had a
        # standard deviation of 0.066; allow five of them.
        assert fit["fit"]["slope"] == pytest.approx(2.0, rel=0.33)


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run-protocol", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [b"[" * 100_000, b"\xff\xfe{"], ids=["nested-too-deep", "not-utf-8"]
    )
    def test_undecodable_config_is_one_error_line_naming_it(self, tmp_path, content):
        # A fresh process, so that an uncaught error would print Python's traceback.
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        result = child_process(
            "-m", "spincat.cli", "run-protocol", "--config", str(path), "--out", str(tmp_path / "o")
        )
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {path}: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args, overrides, message",
        [
            pytest.param(["run-protocol"], {"protcol": {}}, "config.protcol: unknown key", id="unknown-key"),
            pytest.param(
                ["run-protocol"],
                {"protocol": {"delays_s": [0, 0.01, 10**400]}},
                "protocol.delays_s[2]: expected a finite number",
                id="integer-beyond-every-float",
            ),
            # spectrum and scaling build no ProtocolConfig from the file, yet
            # every command loads the whole file, protocol rules included.
            *(
                pytest.param(
                    [command],
                    {"spin_system": {"roles": ["system", "control", "system", "system"]}},
                    "spin_system.roles: protocol needs exactly one control spin, at site 0",
                    id=f"control-off-site-0-{command}",
                )
                for command in COMMANDS
            ),
            *(
                pytest.param(
                    [command],
                    {"protocol": {"seed": -1}},
                    "protocol.seed must be a non-negative integer, got -1",
                    id=f"config-seed-{command}",
                )
                for command in ("run-protocol", "decay-scan")
            ),
            *(
                pytest.param(
                    [command, "--seed", "-3"],
                    {},
                    "--seed must be a non-negative integer, got -3",
                    id=f"seed-flag-{command}",
                )
                for command in COMMANDS
            ),
            pytest.param(
                ["spectrum", "--seed", "abc"],
                {},
                "argument --seed: invalid int value: 'abc'",
                id="seed-flag-not-an-integer",
            ),
            pytest.param(
                ["scaling", "--trajectories", "0"],
                {},
                "--trajectories must be at least 1, got 0",
                id="trajectories-0",
            ),
            pytest.param(
                ["scaling", "--n-max", str(MAX_SCALING_SPINS + 1)],
                {},
                f"--n-max {MAX_SCALING_SPINS + 1} exceeds the scaling guardrail of {MAX_SCALING_SPINS}",
                id="n-max-above-the-guardrail",
            ),
            # Registers of 2 to --n-max spins: the rate fit needs 3 at least.
            *(
                pytest.param(
                    ["scaling", "--n-max", n_max],
                    {},
                    f"--n-max must be at least 3, got {n_max}",
                    id=f"n-max-{n_max}",
                )
                for n_max in ("2", "1", "-3")
            ),
            pytest.param(
                ["spectrum", "--state", "bell"],
                {},
                f"unknown state 'bell'; use one of {STATE_NAMES} or a .npy path",
                id="state-name-unknown",
            ),
            pytest.param(
                ["spectrum", "--state", "3x3.npy"],
                {},
                "state file 3x3.npy: matrix dimension 3 is not 2**n for a register of n >= 1 spins",
                id="state-file-3x3",
            ),
        ],
    )
    def test_bad_input_exits_1_before_the_output_directory(
        self, tmp_path, capsys, monkeypatch, args, overrides, message
    ):
        # The config and these flags are checked, each rule by the library
        # function that owns it, before the output directory is made.  A
        # relative --state path is read from tmp_path.
        monkeypatch.chdir(tmp_path)
        np.save("3x3.npy", np.eye(3) / 3)
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(args + ["--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-protocol", "scaling"])
    def test_out_naming_a_file_is_a_config_error(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        assert main([command, "--config", str(config), "--out", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(blocker) in err

    @pytest.mark.parametrize("command", ["run-protocol", "scaling"])
    def test_out_beneath_a_file_is_a_config_error(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("failure", ["directory-in-the-way", "unwritable-directory"])
    def test_an_output_that_cannot_be_written_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, failure
    ):
        config, out = write_config(tmp_path), tmp_path / "out"
        if failure == "directory-in-the-way":
            path, code = out / "protocol_report.json", errno.EISDIR
            path.mkdir(parents=True)
        else:
            path, code = out, errno.EACCES

            def refuse(self, *args, **kwargs):
                raise PermissionError(code, os.strerror(code), str(self))

            monkeypatch.setattr(Path, "mkdir", refuse)
        assert main(["run-protocol", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {path}: {os.strerror(code)}\n"
        if path != out:
            # The temp file that could not replace the report is gone.
            assert [p.name for p in out.iterdir()] == [path.name]

    def test_missing_required_argument(self, capsys):
        assert main(["run-protocol"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "error",
        [np.linalg.LinAlgError("Matrix is not positive definite"), MemoryError("Unable to allocate 2 GiB")],
        ids=["LinAlgError", "MemoryError"],
    )
    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch, error):
        def fail(config):
            raise error

        monkeypatch.setattr(protocol, "run_protocol", fail)
        config = write_config(tmp_path)
        code = main(["run-protocol", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"numerical failure: {type(error).__name__}: {error}\n"


@pytest.mark.skipif(shutil.which("spincat") is None, reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    result = subprocess.run(
        [
            "spincat", "decay-scan",
            "--config", str(RING7_CONFIG),
            "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "tau 0.029" in result.stdout
