"""Small statistics shared by the benchmark and its steadiness check (stdlib only)."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# The host this benchmark shares runs the same code up to 20% faster or slower
# from one minute to the next, interpreter and BLAS code alike.  Each timing is
# therefore scaled by the time of a fixed calibration workload taken next to it
# (``worker.calibrate``), and reads as seconds at the host speed at which the
# calibration takes CALIBRATION_REFERENCE_S, its median on the machine that
# defined the benchmark.
CALIBRATION_REFERENCE_S = 0.1


def host_normalized(wall_s: float, calibration_s: list[float]) -> float:
    """``wall_s`` at the reference host speed, given calibrations taken around it."""
    return wall_s * CALIBRATION_REFERENCE_S / statistics.fmean(calibration_s)


def tracing_overhead(traced_s: list[float], untraced_s: list[float]) -> float:
    """Median traced operation time minus median untraced operation time."""
    return statistics.median(traced_s) - statistics.median(untraced_s)


def median_by_key(samples: list[dict[str, float]], keys: list[str]) -> dict[str, float]:
    """Per-key median over samples; a key missing from a sample counts as 0."""
    return {key: statistics.median([sample.get(key, 0.0) for sample in samples]) for key in keys}
