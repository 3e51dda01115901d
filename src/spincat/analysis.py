"""Decay-curve fitting and coherence-order scaling studies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import dynamics, operators, states
from .dynamics import NoiseModel
from .protocol import NOISE_MODES
from .states import CatWeights


class FitError(RuntimeError):
    """Decay data could not be fitted with a decaying exponential."""


@dataclass(frozen=True)
class DecayFit:
    """Result of an ``A * exp(-t/tau)`` fit."""

    tau_s: float
    amplitude: float
    residual_rms: float
    r_squared: float


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    pearson_r: float


def fit_exponential(times_s: Sequence[float], values: Sequence[float]) -> DecayFit:
    """Fit ``A * exp(-t/tau)`` to real decay data.

    A log-linear regression on the positive values seeds one
    Gauss-Newton refinement pass over all points.  Raises
    :class:`FitError` on degenerate input: fewer than 3 points,
    negative times, constant values, a majority of non-positive values
    (which signals the wrong observable), or a non-decaying trend.
    """
    t = np.asarray(times_s, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise FitError("times and values must be 1-d arrays of equal length")
    if t.size < 3:
        raise FitError(f"need at least 3 points, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise FitError("non-finite input")
    if np.any(t < 0.0):
        raise FitError("negative times")
    if np.ptp(y) == 0.0:
        raise FitError("constant values carry no decay information")
    positive = y > 0.0
    if 2 * np.count_nonzero(~positive) > t.size:
        raise FitError("majority of values are non-positive; wrong observable?")
    # Not np.unique: its first call imports numpy.ma, a cost every CLI run would pay.
    if np.count_nonzero(positive) < 3 or not np.ptp(t[positive]) > 0.0:
        raise FitError("fewer than 3 usable positive points")

    slope, intercept = np.polyfit(t[positive], np.log(y[positive]), 1)
    rate = -float(slope)
    amplitude = math.exp(float(intercept))

    # One Gauss-Newton step on all points, including any non-positive ones.
    model = amplitude * np.exp(-rate * t)
    jacobian = np.column_stack([np.exp(-rate * t), -amplitude * t * np.exp(-rate * t)])
    delta, *_ = np.linalg.lstsq(jacobian, y - model, rcond=None)
    refined_amplitude = amplitude + float(delta[0])
    refined_rate = rate + float(delta[1])
    if np.isfinite(refined_amplitude) and np.isfinite(refined_rate) and refined_rate > 0.0:
        amplitude, rate = refined_amplitude, refined_rate

    if rate <= 0.0 or not np.isfinite(rate):
        raise FitError("fitted curve does not decay")
    residuals = y - amplitude * np.exp(-rate * t)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return DecayFit(
        tau_s=1.0 / rate,
        amplitude=amplitude,
        residual_rms=math.sqrt(ss_res / t.size),
        r_squared=1.0 - ss_res / ss_tot,
    )


def scaling_study(
    n_values: Sequence[int],
    noise: NoiseModel,
    delays_s: Sequence[float],
    mode: str = "analytic",
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Fitted decay rate of the order-``n`` coherence of an ``n``-spin cat.

    ``noise`` must carry a uniform per-spin dephasing rate gamma; for
    each register size the balanced cat's top-order amplitude is decayed
    over ``delays_s`` and fitted.  One ``n``-spin noise model with rate
    gamma and ``noise.mc_trajectories`` serves every delay, in either
    mode.  The analytic channel gives rates ``n * gamma / 2`` exactly.

    ``mode="monte_carlo"`` replaces the channel with
    :func:`dynamics.apply_phase_kicks_mc`: the mean over
    ``noise.mc_trajectories`` Gaussian phase kicks, whose widths
    ``sqrt(gamma * t)`` the kick derives itself.  The kick at delay ``k``
    draws all its phases from one generator seeded by
    ``SeedSequence((seed, n, k))``, so results do not depend on the order
    of ``n_values``.
    The read-out is the corner ``<u|rho|d>``, which for the kicked cat is
    ``1/2 * mean_k exp(-i * sum_i phi_ki)``.  The cat is two coherence
    classes of D elements with a coherence between two basis states, so
    the kick forms its characteristic matrix there only, in O(K*n), and
    the cat, the decayed states and their validation cost O(D) each.
    """
    if mode not in NOISE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rates = set(noise.dephasing_per_s)
    if len(rates) != 1:
        raise ValueError("scaling study needs a uniform per-spin dephasing rate")
    gamma = rates.pop()
    if gamma <= 0.0:
        raise ValueError("scaling study needs a positive dephasing rate")
    results = []
    for n in n_values:
        operators._check_register_size(n)
        n = int(n)
        rho = states.cat_state(n, CatWeights.balanced())
        register_noise = NoiseModel.uniform(
            n, dephasing_per_s=gamma, mc_trajectories=noise.mc_trajectories
        )
        amplitudes = []
        for k, t in enumerate(delays_s):
            if mode == "analytic":
                decayed = dynamics.apply_dephasing(rho, register_noise, float(t))
            else:
                point_seed = int(np.random.SeedSequence((seed, n, k)).generate_state(1)[0])
                decayed = dynamics.apply_phase_kicks_mc(rho, register_noise, float(t), point_seed)
            amplitudes.append(abs(states.nq_amplitude(decayed)))
        fit = fit_exponential(list(delays_s), amplitudes)
        results.append((n, 1.0 / fit.tau_s))
    return results


def linear_regression(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Least-squares line with the Pearson correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equal-length samples of at least 2 points")
    slope, intercept = np.polyfit(x, y, 1)
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        pearson = 0.0
    else:
        pearson = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
    return RegressionResult(float(slope), float(intercept), pearson)
