"""Workload process: set one workload up, then time its operations.

Started by ``perfbench/run.py`` with BLAS pinned to one thread and
``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload protocol_n10 --seed 1 --mode run \
        --seconds 20 --trace 0 --work-dir .perfbench_work/x

It prints ``READY`` once imports, input generation, config parsing and
warm-up are done, then times one calibration; ``--mode probe`` prints that
and exits.  ``--mode run`` then runs operations in a closed loop (one
client, next operation after the last one ends) until ``--seconds`` have
passed, with a calibration after each one, checks every output, and
prints one JSON line of results.  With ``--trace 1`` the loop alternates
untraced and traced operations, so the tracing overhead is measured in
the same process.  ``--mode sweep`` runs one traced protocol at
``--n-spins`` spins.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import ctypes
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spincat import analysis, dynamics, protocol
from spincat.config import load_config
from spincat.dynamics import NoiseModel, SpinSystem
from spincat.states import CatWeights

import checks
import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RING7 = ROOT / "configs" / "ring7.json"


class ProtocolWorkload:
    """``run_protocol`` on a bare register: 1 control spin, n - 1 system spins, no couplings.

    Dephasing is analytic and calibrated so the n-spin cat lives 29 ms;
    flip relaxation is on.  The seed draws the purity fraction, unbalanced
    weights and the delay.
    """

    in_process = True

    def __init__(self, seed: int, n_spins: int = 10) -> None:
        rng = random.Random(seed)
        self.purity = rng.uniform(0.6, 0.95)
        theta = rng.uniform(0.3, 0.6)  # clear of pi/4, so |a| != |b|
        self.a = math.cos(theta)
        self.b = math.sin(theta) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        self.delay_s = rng.uniform(0.005, 0.045)
        self.config = self._config(n_spins)

    def _config(self, n: int) -> protocol.ProtocolConfig:
        gamma = dynamics.dephasing_rate_for_lifetime(0.029, n)
        kappa = dynamics.flip_rate_for_lifetime(0.49)
        return protocol.ProtocolConfig(
            system=SpinSystem(n, ("control",) + ("system",) * (n - 1), (0.0,) * n),
            noise=NoiseModel((gamma,) * n, (0.0,) + (kappa,) * (n - 1)),
            weights=CatWeights(self.a, self.b),
            delay_s=self.delay_s,
            purity_fraction=self.purity,
            include_flip_relaxation=True,
        )

    def warm_up(self) -> None:
        protocol.run_protocol(self._config(4))

    def op(self, traced: bool = False):
        return protocol.run_protocol(self.config).to_dict()

    def check(self, report: dict) -> list[str]:
        c = self.config
        expected = checks.protocol_expectations(
            c.n_total, c.purity_fraction, c.weights.a, c.weights.b,
            list(c.noise.dephasing_per_s), list(c.noise.flip_per_s), c.delay_s, True,
        )
        return checks.check_protocol_report(report, expected)


class McScalingWorkload:
    """``scaling_study`` for n = 2..9 in Monte Carlo mode, 200 trajectories, ring7 delays.

    The seed draws a uniform dephasing rate and the Monte Carlo seed.
    """

    N_VALUES = tuple(range(2, 10))
    TRAJECTORIES = 200
    in_process = True

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.gamma = rng.uniform(0.8, 2.0)
        self.mc_seed = rng.getrandbits(32)
        self.delays_s = list(load_config(RING7).delays_s)
        self.noise = NoiseModel.uniform(1, dephasing_per_s=self.gamma, mc_trajectories=self.TRAJECTORIES)

    def warm_up(self) -> None:
        noise = NoiseModel.uniform(1, dephasing_per_s=self.gamma, mc_trajectories=10)
        analysis.scaling_study([2, 3], noise, self.delays_s, mode="monte_carlo", seed=self.mc_seed)

    def op(self, traced: bool = False):
        return analysis.scaling_study(
            self.N_VALUES, self.noise, self.delays_s, mode="monte_carlo", seed=self.mc_seed
        )

    def check(self, rates) -> list[str]:
        if [n for n, _ in rates] != list(self.N_VALUES):
            return [f"scaling sizes {[n for n, _ in rates]}"]
        return checks.check_mc_rates(rates, self.gamma)


class Ring7CliWorkload:
    """Four CLI commands on configs/ring7.json, each a fresh subprocess with ``--seed``."""

    in_process = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.cli_seed = random.Random(seed).getrandbits(31)
        config = load_config(RING7)
        self.ring7 = {
            "n_spins": config.system.n_spins,
            "dephasing_per_s": list(config.noise.dephasing_per_s),
            "flip_per_s": list(config.noise.flip_per_s),
            "flips_on": config.include_flip_relaxation,
            "purity": config.purity_fraction,
            "a": config.weights.a,
            "b": config.weights.b,
            "delays_s": list(config.delays_s),
        }
        self.out_dir = work_dir / "out"
        self.work_dir = work_dir

    def _argv(self, command: tuple[str, ...], spans_file: Path | None) -> list[str]:
        args = [*command, "--config", str(RING7), "--out", str(self.out_dir), "--seed", str(self.cli_seed)]
        if spans_file is None:
            return [sys.executable, "-m", "spincat.cli", *args]
        return [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *args]

    def warm_up(self) -> None:
        self._run(checks.RING7_COMMANDS[2], None)

    def _run(self, command: tuple[str, ...], spans_file: Path | None) -> tuple[float, float]:
        """Wall time and the child's own peak RSS (MB) of one command."""
        started = time.perf_counter()
        child = subprocess.Popen(self._argv(command, spans_file), stdout=subprocess.DEVNULL, cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - started
        if child.returncode != 0:
            raise RuntimeError(f"spincat {command[0]} exited with {child.returncode}")
        return wall, usage.ru_maxrss / 1024.0

    def op(self, traced: bool = False) -> dict[str, float]:
        """Run the four commands; per-layer values of the run, spans included when traced."""
        for stale in self.out_dir.glob("*"):
            stale.unlink()
        layers: dict[str, float] = {}
        for command in checks.RING7_COMMANDS:
            spans_file = self.work_dir / f"spans-{command[0]}.json" if traced else None
            wall, rss = self._run(command, spans_file)
            layers[f"cli.{command[0]}.s"] = wall
            layers[f"cli.{command[0]}.peak_rss_mb"] = rss
            if spans_file is not None:
                for key, value in json.loads(spans_file.read_text()).items():
                    layers[key] = layers.get(key, 0) + value
        return layers

    def check(self, layers: dict) -> list[str]:
        return checks.check_ring7_outputs(self.out_dir, self.ring7)

    def identical(self) -> int:
        return checks.identical_outputs(self.out_dir, self.cli_seed)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it exports the query."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, name):
                return int(getattr(library, name)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and memory-bound numpy work.

    The mix is the one whose time tracked the workloads' own best when the
    host sped up or slowed down: a pure-Python loop, as in the CLI's start-up,
    and the broadcast products on MB-sized complex arrays that dominate the
    Monte Carlo kicks and the protocol's elementwise steps.  Its arrays total
    6 MB, less than any in-process workload holds during an operation.  The
    timed part allocates nothing: otherwise its time would depend on what the
    allocator kept from the operation before it.
    """
    rows = np.exp(1j * np.linspace(0.0, 1.0, 256))[:, None]
    columns = np.exp(-1j * np.linspace(0.0, 2.0, 512))[None, :]
    matrix = (np.arange(256 * 512).reshape(256, 512) % 5 + 1j).astype(np.complex128)
    product = np.empty_like(matrix)
    accumulated = np.zeros_like(matrix)
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    for _ in range(65):
        np.multiply(rows, matrix, out=product)
        product *= columns
        accumulated += product
    return time.perf_counter() - started


# A calibration next to a long operation repeats until it has taken this share
# of the operation's time: one 0.1 s sample is too noisy beside a 9 s operation.
CALIBRATION_SHARE = 0.05


def calibration(operation_s: float = 0.0) -> float:
    """Mean time of ``calibrate``, repeated up to ``CALIBRATION_SHARE`` of ``operation_s``."""
    samples = [calibrate()]
    while sum(samples) < CALIBRATION_SHARE * operation_s:
        samples.append(calibrate())
    return statistics.fmean(samples)


def make_workload(name: str, seed: int, work_dir: Path, n_spins: int | None):
    if name == "protocol_n10":
        return ProtocolWorkload(seed, n_spins or 10)
    if name == "mc_scaling_n9":
        return McScalingWorkload(seed)
    if name == "ring7_cli":
        return Ring7CliWorkload(seed, work_dir)
    raise SystemExit(f"unknown workload {name!r}")


def timed_loop(workload, seconds: float, traced: bool) -> dict:
    """Closed loop until ``seconds`` pass.  With tracing, every second operation is traced.

    A calibration precedes the first operation and follows every operation;
    ``op_s`` are host-normalized by the two around each operation and
    ``wall_op_s`` are the same operations' wall times.
    """
    result = {"op_s": [], "traced_op_s": [], "wall_op_s": [], "calibration_s": [calibration()],
              "attempted": 0, "failed": 0, "failures": [], "layers": [], "peak_rss_mb": [], "identical": []}
    started = time.perf_counter()
    at_least = 2 if traced else 1  # a traced run needs one untraced and one traced operation
    while result["attempted"] < at_least or time.perf_counter() - started < seconds:
        trace_this = traced and result["attempted"] % 2 == 1
        result["attempted"] += 1
        tracer = spans.Tracer()
        traced_in_process = trace_this and workload.in_process
        began = time.perf_counter()
        try:
            with tracer.installed() if traced_in_process else contextlib.nullcontext():
                began = time.perf_counter()
                output = workload.op(trace_this)
                elapsed = time.perf_counter() - began
        except Exception as error:  # a failed operation is counted, not fatal
            result["failed"] += 1
            result["failures"].append(f"operation raised {error!r}")
            continue
        finally:
            result["calibration_s"].append(calibration(time.perf_counter() - began))
        normalized = stats.host_normalized(elapsed, result["calibration_s"][-2:])
        if trace_this:
            result["traced_op_s"].append(normalized)
        else:
            result["op_s"].append(normalized)
            result["wall_op_s"].append(elapsed)
        try:
            problems = workload.check(output)
        except Exception as error:
            problems = [f"output check raised {error!r}"]
        if problems:
            result["failed"] += 1
            result["failures"].extend(problems[:3])
        if not workload.in_process:
            result["identical"].append(workload.identical())
            result["peak_rss_mb"].append(max(v for k, v in output.items() if k.endswith(".peak_rss_mb")))
        if trace_this:
            result["layers"].append(tracer.metrics() if traced_in_process else output)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "sweep"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-spins", type=int, default=None)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    workload = make_workload(args.workload, args.seed, args.work_dir, args.n_spins)
    workload.warm_up()
    print("READY", flush=True)
    if args.mode == "probe":
        print(json.dumps({"calibration_s": [calibration()]}), flush=True)
        return 0
    if args.mode == "sweep":
        tracer = spans.Tracer()
        began = time.perf_counter()
        with tracer.installed():
            report = workload.op(True)
        elapsed = time.perf_counter() - began
        result = {"op_s": elapsed, "failures": workload.check(report), "layers": tracer.metrics()}
    else:
        result = timed_loop(workload, args.seconds, bool(args.trace))
        result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
