"""Tests of the benchmark's own arithmetic and checks (stdlib unittest, no pytest).

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import copy
import json
import math
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestStats(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(stats.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertAlmostEqual(stats.percentile([0.0, 10.0], 90), 9.0)
        self.assertEqual(stats.percentile([5.0], 99), 5.0)

    def test_percentile_matches_median(self):
        values = [0.7, 1.9, 0.2, 5.5, 3.3, 1.1]
        self.assertEqual(stats.percentile(values, 50), statistics.median(values))

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_quartile_spread(self):
        values = [float(v) for v in range(1, 11)]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / median)
        self.assertEqual(stats.quartile_spread([2.0] * 10), 0.0)

    def test_host_normalized_cancels_host_speed(self):
        reference = stats.CALIBRATION_REFERENCE_S
        self.assertAlmostEqual(stats.host_normalized(2.0, [reference, reference]), 2.0)
        # A host 25% slower stretches the operation and its calibrations alike.
        self.assertAlmostEqual(stats.host_normalized(2.5, [1.25 * reference]), 2.0)
        self.assertAlmostEqual(stats.host_normalized(3.0, [reference, 2.0 * reference]), 2.0)

    def test_tracing_overhead(self):
        self.assertAlmostEqual(stats.tracing_overhead([1.2, 1.4, 1.3], [1.0, 1.1]), 1.3 - 1.05)

    def test_median_by_key_counts_missing_as_zero(self):
        merged = stats.median_by_key([{"a": 1.0, "b": 4.0}, {"a": 3.0}, {"a": 2.0}], ["a", "b", "c"])
        self.assertEqual(merged, {"a": 2.0, "b": 0.0, "c": 0.0})


class TestSelfTime(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertEqual(spans.covered([]), 0.0)
        self.assertEqual(spans.covered([(0.0, 1.0), (2.0, 3.0)]), 2.0)
        self.assertEqual(spans.covered([(0.0, 2.0), (1.0, 3.0), (1.5, 1.7)]), 3.0)

    def test_aggregate_subtracts_children(self):
        records = [
            ["outer", 0.0, 10.0, -1],
            ["inner", 1.0, 4.0, 0],
            ["leaf", 2.0, 3.0, 1],
            ["inner", 5.0, 7.0, 0],
        ]
        out = spans.aggregate(records)
        self.assertEqual(out["outer"], {"calls": 1, "s": 10.0, "self_s": 5.0})
        self.assertEqual(out["inner"], {"calls": 2, "s": 5.0, "self_s": 4.0})
        self.assertEqual(out["leaf"], {"calls": 1, "s": 1.0, "self_s": 1.0})

    def test_aggregate_counts_recursion_once_in_inclusive_time(self):
        out = spans.aggregate([["f", 0.0, 4.0, -1], ["g", 1.0, 3.0, 0], ["f", 1.5, 2.5, 1]])
        self.assertEqual(out["f"], {"calls": 2, "s": 4.0, "self_s": 2.0 + 1.0})

    def test_tracer_records_nesting_with_a_fake_clock(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def leaf():
            clock.now += 2.0

        traced_leaf = tracer.wrap("leaf", leaf)

        def outer():
            clock.now += 1.0
            traced_leaf()
            traced_leaf()
            clock.now += 3.0

        tracer.wrap("outer", outer)()
        metrics = tracer.metrics()
        self.assertEqual(metrics["outer.s"], 8.0)
        self.assertEqual(metrics["outer.self_s"], 4.0)
        self.assertEqual(metrics["leaf.calls"], 2)
        self.assertEqual(metrics["leaf.self_s"], 4.0)

    def test_tracer_closes_span_on_exception(self):
        tracer = spans.Tracer(FakeClock())

        def boom():
            raise RuntimeError("x")

        with self.assertRaises(RuntimeError):
            tracer.wrap("boom", boom)()
        self.assertEqual(tracer.metrics()["boom.calls"], 1)
        self.assertEqual(tracer._stack, [])


class TestTracerOnSpincat(unittest.TestCase):
    def test_install_traces_and_restores(self):
        from spincat import protocol, states
        import worker

        original_hook = states.DensityMatrix.__dict__["__post_init__"]
        original_fidelity = protocol.states.fidelity
        workload = worker.ProtocolWorkload(seed=5, n_spins=4)
        tracer = spans.Tracer()
        with tracer.installed():
            report = workload.op()
        metrics = tracer.metrics()
        self.assertEqual(metrics["protocol.run_protocol.calls"], 1)
        self.assertEqual(metrics["states.DensityMatrix.calls"], 24)
        self.assertEqual(metrics["protocol.step_b_create_cat.calls"], 1)
        self.assertGreater(metrics["operators.bit_table.calls"], 0)
        self.assertIs(states.DensityMatrix.__dict__["__post_init__"], original_hook)
        self.assertIs(protocol.states.fidelity, original_fidelity)
        self.assertEqual(workload.check(report), [])

    def test_trajectory_count(self):
        import worker

        workload = worker.McScalingWorkload(seed=2)
        workload.N_VALUES = (2, 3)
        tracer = spans.Tracer()
        with tracer.installed():
            workload.op()
        delays = len(workload.delays_s)
        self.assertEqual(tracer.counts["dynamics.apply_phase_kicks_mc.trajectories"], 2 * delays * 200)
        self.assertEqual(tracer.metrics()["dynamics.apply_phase_kicks_mc.calls"], 2 * delays)


class TestChecks(unittest.TestCase):
    def test_closed_form_catches_a_wrong_value(self):
        import worker

        workload = worker.ProtocolWorkload(seed=11, n_spins=5)
        report = workload.op()
        self.assertEqual(workload.check(report), [])
        broken = copy.deepcopy(report)
        broken["steps"][3]["fidelity"] += 1e-6
        self.assertEqual(len(workload.check(broken)), 1)

    def test_mc_tolerance(self):
        exact = [(n, 0.5 * n * 1.5) for n in range(2, 10)]
        self.assertEqual(checks.check_mc_rates(exact, 1.5), [])
        off_one = [(n, r * (1.5 if n == 5 else 1.0)) for n, r in exact]
        self.assertEqual(len(checks.check_mc_rates(off_one, 1.5)), 1)
        biased = [(n, r * 1.2) for n, r in exact]
        self.assertEqual(len(checks.check_mc_rates(biased, 1.5)), 1)

    def test_analytic_rates(self):
        self.assertEqual(checks.check_analytic_rates([(3, 1.5)], 1.0), [])
        self.assertEqual(len(checks.check_analytic_rates([(3, 1.6)], 1.0)), 1)


class TestWorkerDeadline(unittest.TestCase):
    def test_deadline_kills_the_whole_group(self):
        import os
        import time

        script = (
            "import subprocess, sys, time; "
            "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
            "print('READY', flush=True); time.sleep(60)"
        )
        started = time.perf_counter()
        worker = run.Worker([sys.executable, "-c", script], dict(os.environ), started + 1.0)
        self.assertLess(time.perf_counter() - started, 20.0)
        self.assertTrue(worker.timed_out)
        self.assertFalse(worker.ok)
        self.assertIsNotNone(worker.setup_s)
        with self.assertRaises(ProcessLookupError):
            os.killpg(worker.process.pid, 0)


class TestTimedLoop(unittest.TestCase):
    class Flaky:
        """An in-process workload whose second operation raises."""

        in_process = True

        def __init__(self) -> None:
            self.calls = 0

        def op(self, traced: bool = False) -> int:
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("boom")
            return self.calls

        def check(self, output: int) -> list[str]:
            return []

    def test_every_operation_is_bracketed_by_calibrations(self):
        import worker

        result = worker.timed_loop(self.Flaky(), 0.0, traced=True)  # traced: at least two operations
        self.assertEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(len(result["calibration_s"]), result["attempted"] + 1)
        self.assertEqual(len(result["op_s"]), 1)
        self.assertEqual(result["traced_op_s"], [])
        expected = stats.host_normalized(result["wall_op_s"][0], result["calibration_s"][:2])
        self.assertAlmostEqual(result["op_s"][0], expected)


class TestBenchmarkFile(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))

    def test_memory_guard_projection(self):
        self.assertAlmostEqual(run.projected_bytes(12) / 1e9, 6.71, places=2)
        self.assertEqual(run.projected_bytes(10), 21 * 16 * 4**10)
        self.assertTrue(math.isfinite(run.mem_total_bytes()))


if __name__ == "__main__":
    unittest.main()
