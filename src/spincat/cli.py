"""Command-line interface.

Subcommands: ``run-protocol``, ``decay-scan``, ``spectrum``,
``scaling``.  Exit codes: 0 success, 1 configuration or argument error
or an output that cannot be written, 2 numerical failure (a
linear-algebra error or running out of memory) or invariant violation,
3 analysis failure.  The config, ``--seed``, ``--n-max`` and
``--trajectories`` are checked before the output directory is made, each
rule by the function that owns it, and a flag's error names the flag.

Every output file is written atomically (a uniquely named temp file in
the output directory, then rename), but a run is not: one that fails
part-way keeps the files it had already replaced.  Every CSV and JSON
output starts with the sha256 of the configuration and the seed in use,
so runs are traceable and byte-reproducible: the same config and seed
always produce identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import analysis, dynamics, operators, protocol, spectra, states
from .analysis import FitError
from .config import ConfigError, RunConfig, _build, load_config
from .states import DensityMatrix, StateInvariantError

# Largest --n-max of the scaling command.  Every state of the study is
# O(D), so memory no longer sets it: the Monte Carlo read-out does.  Its
# noise floor, about 1/2 * K**-0.5, is fitted as signal once the top-order
# amplitude decays toward it, which biases the rates of larger registers
# low; the cap stays until the read-out is unbiased (see the Monte Carlo
# item of ROADMAP.md).
MAX_SCALING_SPINS = 10

STATE_NAMES = (
    "pseudopure-up",
    "pseudopure-down",
    "cat",
    "entangled",
    "decohered",
    "thermal",
)


class _Parser(argparse.ArgumentParser):
    """Routes argparse usage errors through the config-error exit path."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except StateInvariantError as error:
        print(f"invariant violation: {error}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, MemoryError) as error:
        # LinAlgError is a ValueError, so it must be caught before the
        # configuration-error branch below.
        print(f"numerical failure: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FitError as error:
        print(f"analysis failure: {error}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spincat", description=__doc__)
    sub = parser.add_subparsers(required=True)

    run = sub.add_parser("run-protocol", parents=[_common()], add_help=True)
    run.add_argument("--dump-states", action="store_true", help="save final states as .npy")
    run.set_defaults(handler=cmd_run_protocol)

    scan = sub.add_parser("decay-scan", parents=[_common()], add_help=True)
    scan.add_argument("--which", choices=("nq", "diagonal"), default="nq")
    scan.set_defaults(handler=cmd_decay_scan)

    spect = sub.add_parser("spectrum", parents=[_common()], add_help=True)
    spect.add_argument(
        "--state",
        default="pseudopure-up",
        help=f"one of {', '.join(STATE_NAMES)}, or a path to a .npy density matrix",
    )
    spect.add_argument("--decouple", action="store_true", help="drop couplings to control spins")
    spect.set_defaults(handler=cmd_spectrum)

    scaling = sub.add_parser("scaling", parents=[_common()], add_help=True)
    scaling.add_argument("--n-max", type=int, default=7)
    scaling.add_argument("--mode", choices=protocol.NOISE_MODES, default="analytic")
    scaling.add_argument("--trajectories", type=int, default=None)
    scaling.set_defaults(handler=cmd_scaling)
    return parser


def _common() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run configuration")
    common.add_argument("--out", default=None, help="output directory (defaults to the config's)")
    common.add_argument("--seed", type=int, default=None, help="override the configured seed")
    common.add_argument("--format", choices=("csv", "json"), default=None, help="restrict outputs")
    return common


def cmd_run_protocol(args: argparse.Namespace) -> int:
    run = _RunContext(args)
    runs, rows, lines = [], [], []
    for k, delay in enumerate(run.config.delays_s):
        report = protocol.run_protocol(run.config.protocol_config(delay, run.seed))
        if args.dump_states:
            # Written before the next delay runs, and the report dropped, so
            # that one dense view is alive at a time.
            _write_atomic(
                run.out_dir / f"state_final_{k:02d}.npy",
                lambda handle: np.save(handle, report.final_state.matrix),
            )
        runs.append(report.to_dict())
        rows += [
            (report.delay_s, record.name, order, weight)
            for record in report.steps
            for order, weight in sorted(record.coherence_weights.items())
        ]
        lines.append(
            f"delay {report.delay_s:.6g} s: system fidelity {report.final_system_fidelity:.9f}, "
            f"control entropy {report.final_control_entropy:.6f} nats, "
            f"total magnetization {report.final_total_magnetization:.6f}"
        )
        del report
    payload = run.meta()
    payload["runs"] = runs
    run.write_json("protocol_report.json", payload)
    run.write_csv("coherence_orders.csv", ("delay_s", "step", "order", "weight"), rows)
    for line in lines:
        print(line)
    return 0


def cmd_decay_scan(args: argparse.Namespace) -> int:
    run = _RunContext(args)
    config = run.config.protocol_config(run.config.delays_s[0], run.seed)
    delays = list(run.config.delays_s)
    if args.which == "nq":
        points = protocol.measure_nq_decay(config, delays)
    else:
        points = protocol.measure_diagonal_decay(config, delays)
    baseline = points[0][1]
    if not math.isfinite(baseline) or abs(baseline) < 1e-15:
        raise FitError("zero-amplitude baseline at the first delay")
    normalized = [(t, y / baseline) for t, y in points]
    fit = analysis.fit_exponential([t for t, _ in normalized], [y for _, y in normalized])
    run.write_csv(f"decay_{args.which}.csv", ("delay_s", "normalized_amplitude"), normalized)
    payload = run.meta()
    payload["observable"] = args.which
    payload["baseline_amplitude"] = baseline
    payload["fit"] = dataclasses.asdict(fit)
    run.write_json(f"decay_{args.which}_fit.json", payload)
    print(
        f"{args.which} decay: tau {fit.tau_s:.6g} s, amplitude {fit.amplitude:.6g}, "
        f"r^2 {fit.r_squared:.6f}"
    )
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    run = _RunContext(args)
    config = run.config
    rho = _resolve_state(args.state, config)
    observe = list(config.system.system_sites)
    decouple = list(config.system.control_sites) if args.decouple else []
    spectrum = spectra.linear_response_spectrum(
        rho,
        config.system,
        observe,
        decouple,
        linewidth_hz=config.spectrum.linewidth_hz,
        grid_hz=config.spectrum.grid_hz,
    )
    peaks = spectra.peak_list(spectrum, config.spectrum.peak_threshold)
    run.write_csv(
        "spectrum_sticks.csv",
        ("frequency_hz", "amplitude_re", "amplitude_im"),
        [(f, a.real, a.imag) for f, a in zip(spectrum.frequencies_hz, spectrum.amplitudes)],
    )
    run.write_csv(
        "spectrum_trace.csv",
        ("frequency_hz", "amplitude"),
        list(zip(spectrum.grid_hz, spectrum.trace)),
    )
    payload = run.meta()
    payload["state"] = args.state
    payload["decoupled"] = bool(args.decouple)
    payload["linewidth_hz"] = spectrum.linewidth_hz
    payload["total_amplitude_re"] = spectrum.total_amplitude.real
    payload["peaks"] = [
        {"frequency_hz": p.frequency_hz, "amplitude_re": p.amplitude.real, "amplitude_im": p.amplitude.imag}
        for p in peaks
    ]
    run.write_json("spectrum_peaks.json", payload)
    summary = ", ".join(f"{p.frequency_hz:.6g} Hz" for p in peaks) or "none"
    print(f"{len(peaks)} peak(s) above threshold: {summary}")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    if args.n_max > MAX_SCALING_SPINS:
        raise ConfigError(
            f"--n-max {args.n_max} exceeds the scaling guardrail of {MAX_SCALING_SPINS}"
        )
    # The rate fit needs two points, registers of 2 and 3 spins at least.
    if args.n_max < 3:
        raise ConfigError(f"--n-max must be at least 3, got {args.n_max}")
    run = _RunContext(args)
    n_values = list(range(2, args.n_max + 1))
    rates = analysis.scaling_study(
        n_values, run.noise, list(run.config.delays_s), mode=args.mode, seed=run.seed
    )
    regression = analysis.linear_regression([n for n, _ in rates], [r for _, r in rates])
    run.write_csv("scaling.csv", ("n_spins", "rate_per_s"), rates)
    payload = run.meta()
    payload["mode"] = args.mode
    payload["rates"] = [{"n_spins": n, "rate_per_s": r} for n, r in rates]
    payload["fit"] = dataclasses.asdict(regression)
    run.write_json("scaling_fit.json", payload)
    print(
        f"rate slope {regression.slope:.6g} per spin (intercept {regression.intercept:.3g}, "
        f"pearson {regression.pearson_r:.6f})"
    )
    return 0


class _RunContext:
    """Shared command plumbing: config, seed and trajectory overrides, output writing."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.config: RunConfig = load_config(args.config)
        self.seed: int = self.config.seed if args.seed is None else args.seed
        _build("", operators._check_seed, self.seed, paths={"seed": "--seed"})
        self.noise = noise = self.config.noise
        if getattr(args, "trajectories", None) is not None:  # a scaling flag
            self.noise = _build(
                "", dynamics.NoiseModel, noise.dephasing_per_s, noise.flip_per_s, args.trajectories,
                paths={"mc_trajectories": "--trajectories"},
            )
        self.formats = (args.format,) if args.format else self.config.output.formats
        self.out_dir = Path(args.out) if args.out else Path(self.config.output.directory)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise _write_error(self.out_dir, error) from error

    def meta(self) -> dict:
        return {"config_sha256": self.config.sha256, "seed": self.seed}

    def write_json(self, name: str, payload: dict) -> None:
        if "json" not in self.formats:
            return
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_atomic(self.out_dir / name, lambda handle: handle.write(text.encode()))

    def write_csv(self, name: str, columns: tuple[str, ...], rows) -> None:
        if "csv" not in self.formats:
            return
        lines = [
            f"# config_sha256: {self.config.sha256}",
            f"# seed: {self.seed}",
            ",".join(columns),
        ]
        for row in rows:
            lines.append(",".join(_format_value(value) for value in row))
        text = "\n".join(lines) + "\n"
        _write_atomic(self.out_dir / name, lambda handle: handle.write(text.encode()))


def _resolve_state(name: str, config: RunConfig) -> DensityMatrix:
    if name.endswith(".npy"):
        # Mapped, not read: the shape checks below and the register cap see
        # the header before any element is loaded.
        try:
            matrix = np.load(name, mmap_mode="r")
        except OSError as error:
            raise ConfigError(f"cannot read state file {name}: {error}") from error
        if not isinstance(matrix, np.ndarray):
            matrix.close()
            raise ConfigError(f"state file {name}: expected one array, got an .npz archive")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigError(f"state file {name}: expected a square 2-D array, got shape {matrix.shape}")
        n_spins = max(int(matrix.shape[0]).bit_length() - 1, 0)
        return DensityMatrix(matrix, n_spins)
    n = config.system.n_spins
    if name == "pseudopure-up":
        target = states.ferro_state(n, "up")
    elif name == "pseudopure-down":
        target = states.ferro_state(n, "down")
    elif name in ("cat", "entangled"):
        step = "create_cat" if name == "cat" else "entangle"
        amplitudes = protocol.ideal_step_states(config.protocol_config(0.0))[step]
        target = states.basis_state(n, amplitudes)
    elif name == "decohered":
        target = states.decohered_mixture(len(config.system.system_sites), config.weights)
    elif name == "thermal":
        return states.thermal_state(n)
    else:
        raise ConfigError(f"unknown state {name!r}; use one of {STATE_NAMES} or a .npy path")
    return states.pseudopure(target, config.purity_fraction)


def _format_value(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_atomic(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Call ``write`` on a temp file beside ``path``, opened for binary
    writing, then rename the file over ``path``.  ``np.save`` given the
    file writes straight from the array, with no copy of its bytes.

    The temp name is random and created exclusively, so runs writing
    into one directory at once cannot clash.  Unlike ``mkstemp``, which
    makes the file owner-only, the file gets the umask's permissions.
    An ``OSError``, such as ``path`` naming a directory, is raised as the
    ``ConfigError`` of :func:`_write_error`.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException as error:
        tmp.unlink(missing_ok=True)
        if isinstance(error, OSError):
            raise _write_error(path, error) from error
        raise


def _write_error(path: Path, error: OSError) -> ConfigError:
    """The one-line error of an output path that cannot be written."""
    return ConfigError(f"cannot write {path}: {error.strerror or error}")


if __name__ == "__main__":
    raise SystemExit(main())
