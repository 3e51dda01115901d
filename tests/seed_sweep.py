"""Pass rates of the suite's single-seed Monte Carlo assertions over many seeds.

    python3 tests/seed_sweep.py --seeds 1000

Each check below repeats the arithmetic and the bound of one test, with
the test's seed replaced by one of ``--seeds`` consecutive seeds (the
first is the test's own):

- ``test_acceptance::test_criterion_6_monte_carlo_convergence``
- ``test_analysis::TestScalingStudy::test_monte_carlo_tracks_analytic``
- ``test_cli::TestScaling::test_monte_carlo_mode_runs``

It prints each pass rate beside the rate the bound implies.  Criterion 6
bounds three independent sizes at 3 standard errors each, so its implied
rate is ``P(|Z| <= 3)**3``.  The other two bound a fitted rate or slope by
a relative tolerance; their implied rate treats each estimate as normal,
with the mean and standard deviation measured over the seeds, and
multiplies over the independent sizes.  A pass rate well below its
implied rate points at a bias or at a seed-dependent defect.  The script
is not collected by pytest; it changes no bound.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spincat import (  # noqa: E402
    CatWeights,
    NoiseModel,
    apply_phase_kicks_mc,
    cat_state,
    linear_regression,
    nq_amplitude,
    scaling_study,
)


def _normal_within(mean: float, sd: float, low: float, high: float) -> float:
    """``P(low <= X <= high)`` for ``X ~ N(mean, sd^2)``."""
    if sd == 0.0:
        return float(low <= mean <= high)
    cdf = lambda x: 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0))))  # noqa: E731
    return cdf(high) - cdf(low)


def criterion_6(seeds: int) -> tuple[int, float, str]:
    """Three cat sizes, 10 000 trajectories, each within 3 standard errors."""
    sigma, trajectories, sizes = 0.25, 10_000, (2, 4, 6)
    passed = 0
    for i in range(seeds):
        ok = True
        for n in sizes:
            noise = NoiseModel.uniform(n, dephasing_per_s=0.0625, mc_trajectories=trajectories)
            cat = cat_state(n, CatWeights.balanced())
            rho = apply_phase_kicks_mc(cat, noise, 1.0, seed=20260815 + 10 * i + n)
            variance_term = n * sigma**2
            expected = 0.5 * math.exp(-variance_term / 2.0)
            variance = 0.5 * (1.0 + math.exp(-2.0 * variance_term)) - math.exp(-variance_term)
            standard_error = 0.5 * math.sqrt(variance / trajectories)
            ok &= abs(abs(nq_amplitude(rho)) - expected) <= 3.0 * standard_error
        passed += ok
    implied = math.erf(3.0 / math.sqrt(2.0)) ** len(sizes)
    return passed, implied, "3 SE on each of 3 sizes"


def tracks_analytic(seeds: int) -> tuple[int, float, str]:
    """Fitted rates of 2- and 3-spin cats at 4000 trajectories within 5%."""
    noise = NoiseModel.uniform(2, dephasing_per_s=4.0, mc_trajectories=4000)
    delays = np.linspace(0.0, 0.15, 5)
    exact = dict(scaling_study([2, 3], noise, delays))
    estimates = np.array([
        [rate for _, rate in scaling_study([2, 3], noise, delays, mode="monte_carlo", seed=11 + i)]
        for i in range(seeds)
    ])
    tolerance = np.array([max(0.05 * exact[n], 1e-12) for n in (2, 3)])
    passed = int(np.all(np.abs(estimates - [exact[2], exact[3]]) <= tolerance, axis=1).sum())
    implied, spreads = 1.0, []
    for column, n in enumerate((2, 3)):
        mean, sd = estimates[:, column].mean(), estimates[:, column].std(ddof=1)
        width = tolerance[column]
        implied *= _normal_within(mean, sd, exact[n] - width, exact[n] + width)
        spreads.append(f"n={n}: 5% = {width / sd:.1f} SD")
    return passed, implied, ", ".join(spreads)


def monte_carlo_mode_runs(seeds: int) -> tuple[int, float, str]:
    """The CLI's 2-point scaling slope at 50 000 trajectories within 10% of 2."""
    noise = NoiseModel.uniform(4, dephasing_per_s=4.0, mc_trajectories=50_000)
    delays = [0.0, 0.01, 0.02, 0.03, 0.04]
    slopes = []
    for i in range(seeds):
        rates = scaling_study([2, 3], noise, delays, mode="monte_carlo", seed=42 + i)
        slopes.append(linear_regression([n for n, _ in rates], [r for _, r in rates]).slope)
    slopes = np.array(slopes)
    tolerance = 0.1 * 2.0
    passed = int((np.abs(slopes - 2.0) <= tolerance).sum())
    sd = slopes.std(ddof=1)
    implied = _normal_within(slopes.mean(), sd, 2.0 - tolerance, 2.0 + tolerance)
    return passed, implied, f"10% = {tolerance / sd:.1f} SD"


CHECKS = {
    "test_acceptance::test_criterion_6_monte_carlo_convergence": criterion_6,
    "test_analysis::TestScalingStudy::test_monte_carlo_tracks_analytic": tracks_analytic,
    "test_cli::TestScaling::test_monte_carlo_mode_runs": monte_carlo_mode_runs,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1000, help="seeds per check (default 1000)")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    print(f"# {args.seeds} seeds per check")
    for name, check in CHECKS.items():
        started = time.perf_counter()
        passed, implied, bound = check(args.seeds)
        elapsed = time.perf_counter() - started
        print(
            f"{name}: passed {passed}/{args.seeds} = {passed / args.seeds:.2%}, "
            f"bound implies {implied:.4%} ({bound}; {elapsed:.1f} s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
