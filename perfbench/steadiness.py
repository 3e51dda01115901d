"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/steadiness.py --workloads protocol_n10 ring7_cli --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median over the runs
and the quartile spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to a third of the metric's bound
from BENCHMARK.json, and the spread ``op_s_p50`` would have without host
normalization.  Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        wall_medians = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{out.stdout}")
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for line in out.stdout.splitlines():
                if line.startswith(("# host-normalized op_s", "# wall op_s")):
                    print(f"{workload} seed {seed}: {line[2:]}")
                if line.startswith("# wall op_s "):
                    wall_medians.append(statistics.median(json.loads(line[len("# wall op_s "):line.index("]") + 1])))
            print(f"{workload} seed {seed}: fail_ratio {result['failed']}/{result['attempted']}, "
                  + ", ".join(f"{k} {m['value']:.5g} {m['unit']}" for k, m in result["metrics"].items()), flush=True)
        for name, series in values.items():
            spread = stats.quartile_spread(series) if len(series) > 1 else 0.0
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"{workload} {name}: median {statistics.median(series):.5g}, spread {spread:.4f} "
                  f"(third of bound {bounds[name] / 3:.4f}) {'ok' if ok else 'TOO WIDE'}", flush=True)
        if len(wall_medians) > 1:
            print(f"{workload} op_s_p50 before host normalization: median {statistics.median(wall_medians):.5g}, "
                  f"spread {stats.quartile_spread(wall_medians):.4f}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
