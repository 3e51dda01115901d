"""spincat benchmark: one workload, its end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload protocol_n10 --seed 1 --seconds 20 --trace 0

Run from the root of a spincat checkout; it reads ``src/`` and ``configs/``
and writes only under ``.perfbench_work/``, which it removes again.  Every
workload process gets ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``.

``--trace 0`` reports the end-to-end metrics of untraced operations.  Their
times are host-normalized: each is scaled by a calibration timed next to it
(see ``stats.CALIBRATION_REFERENCE_S``), so that the host's drift in speed
cancels.  The wall times are printed alongside.
``--trace 1`` reports per-layer metrics: spans around each spincat
module's public functions, the CLI subprocesses, the tracing overhead and,
on ``protocol_n10``, a size sweep at 7, 11 and 12 spins behind a memory
guard.  Lines starting with ``#`` are a readable summary; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status is 0 when a result was printed, non-zero otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload -> largest register it simulates (for the memory guard).
WORKLOADS = {"protocol_n10": 10, "mc_scaling_n9": 9, "ring7_cli": 7}

END_TO_END = {"op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_SAMPLES = 9

SWEEP_SIZES = (7, 11, 12)
SWEEP_SPANS = tuple(s for s in spans.SPANS if s.startswith("protocol.") and s != "protocol.measure_nq_decay")
MEMORY_SHARE = 0.75
# A run must end within 180 s; the 11-spin sweep is skipped if it would not fit.
DEADLINE_S = 170.0
SWEEP_TIME_FACTOR = 8.0  # dense O(D^3) steps: one more spin costs up to 8x


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in spans.SPANS:
        units.update({f"{span}.calls": "count", f"{span}.s": "s", f"{span}.self_s": "s"})
    for count, _, _ in spans.COUNTS.values():
        units[count] = "count"
    for command, *_ in checks.RING7_COMMANDS:
        units.update({f"cli.{command}.s": "s", f"cli.{command}.peak_rss_mb": "MB"})
    units["cli.outputs_identical"] = "count"
    units["trace.overhead_s"] = "s"
    for n in SWEEP_SIZES[:2]:
        units.update({f"sweep.n{n}.{span}.s": "s" for span in SWEEP_SPANS})
        units[f"sweep.n{n}.peak_rss_mb"] = "MB"
    units[f"sweep.n{SWEEP_SIZES[2]}.skipped"] = "count"
    units[f"sweep.n{SWEEP_SIZES[2]}.projected_gb"] = "GB"
    return units


PER_LAYER = per_layer_units()


def projected_bytes(n_spins: int) -> int:
    """Largest allocation of ``run_protocol``: ``coherence_orders`` holds 2n+1 dense copies."""
    return (2 * n_spins + 1) * 16 * 4**n_spins


def mem_total_bytes() -> int:
    with open("/proc/meminfo") as meminfo:
        for line in meminfo:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def guard(n_spins: int) -> str | None:
    """Reason to skip a size whose projected allocation exceeds the memory share, else None."""
    need, total = projected_bytes(n_spins), mem_total_bytes()
    if need <= MEMORY_SHARE * total:
        return None
    return (f"{n_spins} spins projects {need / 1e9:.2f} GB ((2n+1)*16*4^n bytes in coherence_orders), "
            f"over {MEMORY_SHARE:.0%} of MemTotal {total / 1e9:.2f} GB")


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Worker:
    """One workload process: the time until it reports READY, its result line and peak RSS.

    The process leads its own process group.  At the deadline the whole group,
    CLI subprocesses included, is killed, and the group is waited out.
    """

    def __init__(self, argv: list[str], env: dict, deadline: float) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
        self.timed_out = False
        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), self._kill)
        timer.start()
        try:
            ready = self.process.stdout.readline()
            self.setup_s = time.perf_counter() - started if ready.strip() == "READY" else None
            lines = self.process.stdout.read().splitlines()
        finally:
            _, status, usage = os.wait4(self.process.pid, 0)
            timer.cancel()
            self.process.returncode = os.waitstatus_to_exitcode(status)
            self.process.stdout.close()
            if self.timed_out:
                self._wait_for_group()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.result = json.loads(lines[-1]) if self.process.returncode == 0 and lines else None
        self.ok = self.setup_s is not None and self.process.returncode == 0

    def _kill(self) -> None:
        self.timed_out = True
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.process.pid, signal.SIGKILL)

    def _wait_for_group(self, limit_s: float = 5.0) -> None:
        until = time.perf_counter() + limit_s
        while time.perf_counter() < until:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def sweep(args, env: dict, work_dir: Path, started: float, n10_op_s: float, out: dict, notes: list[str]) -> tuple[int, int]:
    """Traced protocol runs at 7 and 11 spins; 12 spins records only the guard's skip."""
    attempted = failed = 0
    for n in SWEEP_SIZES:
        reason = guard(n)
        if reason is None and n > 10:
            projected_s = n10_op_s * SWEEP_TIME_FACTOR ** (n - 10)
            if time.perf_counter() - started + projected_s > DEADLINE_S - 10.0:
                reason = f"{n} spins projects {projected_s:.0f} s, past the {DEADLINE_S:.0f} s run deadline"
        if reason is not None:
            notes.append(f"sweep skipped: {reason}")
            if n == SWEEP_SIZES[2]:
                out[f"sweep.n{n}.skipped"] = 1
                out[f"sweep.n{n}.projected_gb"] = projected_bytes(n) / 1e9
            continue
        worker = Worker(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--mode", "sweep", "--n-spins", str(n), "--work-dir", str(work_dir)],
            env, started + DEADLINE_S,
        )
        if worker.timed_out:
            notes.append(f"sweep at {n} spins stopped at the {DEADLINE_S:.0f} s run deadline")
            continue
        attempted += 1
        if worker.result is None or worker.result["failures"]:
            failed += 1
            notes.append(f"sweep at {n} spins failed: {worker.result and worker.result['failures'][:3]}")
            continue
        for span in SWEEP_SPANS:
            out[f"sweep.n{n}.{span}.s"] = worker.result["layers"].get(f"{span}.s", 0.0)
        out[f"sweep.n{n}.peak_rss_mb"] = worker.peak_rss_mb
        notes.append(f"sweep at {n} spins: run_protocol {worker.result['op_s']:.3f} s, peak RSS {worker.peak_rss_mb:.1f} MB")
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "spincat" / "__init__.py").is_file() or not (ROOT / "configs" / "ring7.json").is_file():
        print(f"error: {ROOT} is not a spincat checkout (src/spincat and configs/ring7.json are needed)", file=sys.stderr)
        return 2
    reason = guard(WORKLOADS[args.workload])
    if reason is not None:
        print(f"error: workload {args.workload} skipped: {reason}", file=sys.stderr)
        return 3

    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--work-dir", str(work_dir)]
    deadline = started + DEADLINE_S
    notes: list[str] = []
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            probe = Worker(base + ["--mode", "probe"], env, deadline)
            if not probe.ok:
                print(f"error: set-up failed (exit {probe.process.returncode})", file=sys.stderr)
                return 1
            setups.append(stats.host_normalized(probe.setup_s, probe.result["calibration_s"][:1]))
        run = Worker(base + ["--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
        if not run.ok or run.result is None:
            print(f"error: workload process failed (exit {run.process.returncode})", file=sys.stderr)
            return 1
        result = run.result
        setups.append(stats.host_normalized(run.setup_s, result["calibration_s"][:1]))
        attempted, failed = result["attempted"], result["failed"]
        op_s = result["op_s"]
        if not op_s:
            print("error: every operation raised", file=sys.stderr)
            for failure in result["failures"]:
                print(f"# failure: {failure}")
            return 1

        if args.trace:
            metrics = stats.median_by_key(result["layers"], list(PER_LAYER))
            if result["traced_op_s"]:
                metrics["trace.overhead_s"] = stats.tracing_overhead(result["traced_op_s"], op_s)
            if result["identical"]:
                metrics["cli.outputs_identical"] = statistics.median(result["identical"])
            if args.workload == "protocol_n10":
                extra = sweep(args, env, work_dir, started, statistics.median(result["wall_op_s"]), metrics, notes)
                attempted, failed = attempted + extra[0], failed + extra[1]
            units = PER_LAYER
        else:
            rss = statistics.median(result["peak_rss_mb"]) if result["peak_rss_mb"] else run.peak_rss_mb
            metrics = {
                "op_s_p50": stats.percentile(op_s, 50),
                "ops_per_s": len(op_s) / sum(op_s),
                "peak_rss_mb": rss,
                "setup_s": statistics.median(setups),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    env_record = dict(result["env"], commit=commit(), mem_total_bytes=mem_total_bytes(), seed=args.seed)
    print(f"# workload {args.workload}: closed loop, 1 client; seed {args.seed}; {args.seconds:g} s window; trace {args.trace}")
    print(f"# environment {json.dumps(env_record, sort_keys=True)}")
    print(f"# host-normalized op_s {[round(v, 4) for v in op_s]}; traced {[round(v, 4) for v in result['traced_op_s']]}")
    print(f"# wall op_s {[round(v, 4) for v in result['wall_op_s']]}; calibration median "
          f"{statistics.median(result['calibration_s']):.4f} s (reference {stats.CALIBRATION_REFERENCE_S} s)")
    print(f"# host-normalized set-up samples {[round(v, 4) for v in setups]}")
    print(f"# fail_ratio = {failed}/{attempted} = {failed / attempted:.3f}")
    for failure in result["failures"][:10]:
        print(f"# failure: {failure}")
    for note in notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"# {name} = {metrics.get(name, 0):.6g} {unit}")
    payload = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
