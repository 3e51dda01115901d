"""Regenerate the benchmark's stored references and tolerance calibration.

    PYTHONPATH=src python3 perfbench/make_reference.py ring7      # reference/ring7/*, reference/ring7_spectrum.json
    PYTHONPATH=src python3 perfbench/make_reference.py mc-spread  # prints the Monte Carlo rate spread

``ring7`` writes the four ring7 command outputs at seed 0; the benchmark
counts how many files a later commit reproduces byte for byte
(``cli.outputs_identical``).  Rerun it only when a change to the outputs
is intended, and say so.

``mc-spread`` simulates the Monte Carlo estimator of ``scaling_study``
(200 trajectories, ring7 delays) without the density matrix: the corner
element averages ``exp(-i X)`` with ``X ~ N(0, n*gamma*t)``.  It prints
the relative standard deviation of the fitted rate per size, from which
``checks.MC_RATE_REL_TOL`` is set.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def ring7() -> None:
    out = HERE / "reference" / "ring7"
    out.mkdir(parents=True, exist_ok=True)
    for command in checks.RING7_COMMANDS:
        subprocess.run(
            [sys.executable, "-m", "spincat.cli", *command, "--config", str(ROOT / "configs" / "ring7.json"),
             "--out", str(out), "--seed", "0"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
    peaks = json.loads((out / "spectrum_peaks.json").read_text())["peaks"]
    (HERE / "reference" / "ring7_spectrum.json").write_text(
        json.dumps({"decoupled_peaks_hz": [p["frequency_hz"] for p in peaks]}, indent=2) + "\n"
    )


def mc_spread(replicates: int = 2000) -> None:
    import numpy as np
    from spincat.analysis import fit_exponential
    from spincat.config import load_config

    delays = list(load_config(ROOT / "configs" / "ring7.json").delays_s)
    rng = np.random.default_rng(0)
    for gamma in (0.8, 2.0):
        for n in range(2, 10):
            errors = []
            for _ in range(replicates):
                amplitudes = [
                    0.5 * abs(np.mean(np.exp(-1j * rng.normal(0.0, np.sqrt(n * gamma * t), 200)))) for t in delays
                ]
                rate = 1.0 / fit_exponential(delays, amplitudes).tau_s
                errors.append(rate / (0.5 * n * gamma) - 1.0)
            errors = np.asarray(errors)
            print(f"gamma {gamma} n {n}: mean {errors.mean():+.4f} sd {errors.std():.4f} max |err| {np.abs(errors).max():.4f}")


if __name__ == "__main__":
    {"ring7": ring7, "mc-spread": mc_spread}[sys.argv[1]]()
