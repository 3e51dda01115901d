"""``run_protocol`` against the dense reference pipeline, over a zoo of configs.

``_support.dense_run_protocol`` composes the dense references of each
step on plain arrays.  Step A's state and every figure read from it use
the same arithmetic on both sides, so its record must agree exactly.
Everywhere else the arithmetic differs, and the bound says by how much:

- analytic runs: a conjugation by a dense unitary, a whole-matrix
  ``eigvalsh`` and ``Tr(rho T)`` round differently from the structured
  steps, block eigenvalues and entry reads, by at most a few ulps of 1
  (``system_entropy`` moved by 9e-16 when entropies went block by block);
- Monte Carlo runs: the reference averages the kicked state trajectory by
  trajectory, each element picking up the rounding of its phase factors,
  and the D-term sums of magnetizations and entropies add those up.
"""

import numpy as np
import pytest

from spincat import (
    CatWeights,
    NoiseModel,
    ProtocolConfig,
    dephasing_rate_for_lifetime,
    flip_rate_for_lifetime,
    measure_diagonal_decay,
    measure_nq_decay,
    run_protocol,
)
from _support import bare_system, dense_decay_scan, dense_run_protocol

ANALYTIC_TOL = 1e-15
MONTE_CARLO_TOL = 3e-14
FIELDS = ("fidelity", "control_entropy", "system_entropy", "system_magnetization")
FINAL_FIELDS = ("final_system_fidelity", "final_control_entropy", "final_total_magnetization")

WEIGHTS = {
    "balanced": CatWeights.balanced(),
    "unbalanced": CatWeights(0.6, 0.8),
    "complex": CatWeights(0.8, 0.6 * np.exp(1.1j)),
}
LONG_DELAY = 0.2  # about 7 lifetimes of the 7-spin cat, 2 of the 2-spin one

# (spins, purity, weights, flips on, noise mode, trajectories, delay)
ZOO = [
    (2, 1.0, "balanced", False, "analytic", 1, 0.0),
    (2, 0.6, "complex", True, "monte_carlo", 257, LONG_DELAY),
    (3, 0.6, "unbalanced", True, "analytic", 1, LONG_DELAY),
    (3, 1.0, "complex", False, "monte_carlo", 1, LONG_DELAY),
    (4, 1.0, "unbalanced", True, "monte_carlo", 257, 0.0),
    (4, 0.6, "balanced", False, "analytic", 1, LONG_DELAY),
    (5, 0.6, "complex", True, "analytic", 1, 0.0),
    (5, 1.0, "balanced", True, "monte_carlo", 1, LONG_DELAY),
    (6, 1.0, "complex", True, "analytic", 1, LONG_DELAY),
    (6, 0.6, "unbalanced", False, "monte_carlo", 257, LONG_DELAY),
    (7, 0.6, "complex", True, "monte_carlo", 257, LONG_DELAY),
    (7, 1.0, "unbalanced", False, "analytic", 1, LONG_DELAY),
    (8, 0.6, "balanced", True, "monte_carlo", 1, LONG_DELAY),
    (8, 1.0, "complex", True, "analytic", 1, LONG_DELAY),
    (8, 0.6, "unbalanced", True, "analytic", 1, 0.0),
]
ZOO_IDS = [
    f"{n}-p{purity}-{weights}-{'flips' if flips else 'noflips'}-{mode}{trajectories if mode == 'monte_carlo' else ''}-t{delay}"
    for n, purity, weights, flips, mode, trajectories, delay in ZOO
]
SCAN_DELAYS = [0.0, 0.03, LONG_DELAY]


def _config(n, purity, weights, flips, mode, trajectories, delay) -> ProtocolConfig:
    # Flips on every spin, the control included, so the cat block spreads.
    gamma = dephasing_rate_for_lifetime(0.029, n)
    kappa = flip_rate_for_lifetime(0.49) if flips else 0.0
    noise = NoiseModel((gamma,) * n, (kappa,) * n, trajectories)
    return ProtocolConfig(
        bare_system(n), noise, WEIGHTS[weights], delay, purity, flips, mode, seed=5
    )


def _assert_close(label, got, want, tol):
    assert abs(got - want) <= tol, f"{label}: {got!r} against {want!r}, beyond {tol:g}"


@pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
def test_run_protocol_matches_the_dense_pipeline(case):
    config = _config(*case)
    tol = ANALYTIC_TOL if config.noise_mode == "analytic" else MONTE_CARLO_TOL
    report = run_protocol(config)
    got = report.to_dict()
    want = dense_run_protocol(config)
    assert got["delay_s"] == want["delay_s"]
    assert [step["name"] for step in got["steps"]] == [step["name"] for step in want["steps"]]
    for step, reference in zip(got["steps"], want["steps"]):
        weights = {int(q): w for q, w in step["coherence_weights"].items()}
        assert sorted(weights) == sorted(reference["coherence_weights"]), step["name"]
        if step["name"] == "initialize":
            assert weights == reference["coherence_weights"]
            for field in FIELDS:
                assert step[field] == reference[field], f"initialize {field}"
            continue
        for q, w in weights.items():
            _assert_close(f"{step['name']} order {q}", w, reference["coherence_weights"][q], tol)
        for field in FIELDS:
            _assert_close(f"{step['name']} {field}", step[field], reference[field], tol)
    for field in FINAL_FIELDS:
        _assert_close(field, got[field], want[field], tol)
    assert np.abs(report.final_state.matrix - want["final_state"]).max() <= tol

    for which, scan in (("nq", measure_nq_decay), ("diagonal", measure_diagonal_decay)):
        if which == "diagonal" and not config.include_flip_relaxation:
            continue
        points = scan(config, SCAN_DELAYS)
        reference = dense_decay_scan(config, SCAN_DELAYS, which)
        assert [t for t, _ in points] == [t for t, _ in reference]
        for (t, y), (_, y_ref) in zip(points, reference):
            _assert_close(f"{which} scan at {t}", y, y_ref, tol)
