"""Output checks that feed ``failed``: closed forms first, stored references elsewhere.

Every check returns a list of failure messages; an empty list means the
output is correct.  Tolerances are stated here and nowhere else.  No
check compares hashes: a refactor that keeps the physics passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

# Closed forms are exact up to float rounding through a few D x D products.
EXACT_ABS_TOL = 1e-9
# Spectrum peak positions against reference/ring7_spectrum.json.
PEAK_FREQ_TOL_HZ = 1e-6
# Monte Carlo scaling rates: the relative error of one fitted rate with 200
# trajectories over the ring7 delays has a standard deviation of about 0.065
# for every n = 2..9 and gamma in [0.8, 2] /s (make_reference.py mc-spread).
# One rate may miss n*gamma/2 by 6 of those; the mean over the 8 sizes, whose
# errors are independent, by 6 * 0.065 / sqrt(8).
MC_RATE_REL_TOL = 0.40
MC_MEAN_REL_TOL = 0.14

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The ring7_cli operation: four spincat commands, run in this order.
RING7_COMMANDS = (
    ("run-protocol",),
    ("decay-scan", "--which", "nq"),
    ("spectrum", "--decouple"),
    ("scaling", "--n-max", "7"),
)


def _close(label: str, got: float, want: float, tol: float = EXACT_ABS_TOL) -> list[str]:
    if isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, expected {want!r} within {tol:g}"]


def protocol_expectations(
    n_total: int,
    purity: float,
    a: complex,
    b: complex,
    dephasing_per_s: list[float],
    flip_per_s: list[float],
    delay_s: float,
    flips_on: bool,
) -> dict:
    """Closed-form figures of ``run_protocol`` with the control at site 0.

    The protocol applies no free evolution, so couplings play no part.
    Every channel is a product of per-spin maps, so
    the pseudopure cat keeps its corner structure through every step:
    ``rho = p * Lambda(|psi><psi|) + (1 - p) * I / D``.  Needs no flip rate
    on the control.
    """
    if flips_on and flip_per_s[0] != 0.0:
        raise ValueError("closed form assumes no flip relaxation on the control")
    t = delay_s
    kappa = [k if flips_on else 0.0 for k in flip_per_s[1:]]
    aa, bb = abs(a) ** 2, abs(b) ** 2
    dim = 1 << n_total
    # Probability that a system spin keeps its value; survival of the corner coherence.
    keep = math.prod(0.5 * (1.0 + math.exp(-2.0 * k * t)) for k in kappa)
    corner = math.exp(-0.5 * t * sum(dephasing_per_s)) * math.prod(math.exp(-k * t) for k in kappa)
    mixed = (1.0 - purity) / dim
    clean = purity + mixed
    noisy = purity * ((aa * aa + bb * bb) * keep + 2.0 * aa * bb * corner) + mixed
    bloch = purity * math.sqrt((aa - bb) ** 2 + 4.0 * aa * bb * corner**2)
    entropy = -sum(lam * math.log(lam) for lam in (0.5 * (1 + bloch), 0.5 * (1 - bloch)) if lam > 0)
    top = purity * abs(a) * abs(b)
    return {
        "step_fidelity": {
            "initialize": clean,
            "create_cat": clean,
            "entangle": clean,
            "decohere": noisy,
            "recover": noisy,
        },
        # step -> (coherence order, weight)
        "top_coherence": {
            "create_cat": (n_total - 1, top),
            "entangle": (n_total, top),
            "decohere": (n_total, top * corner),
            "recover": (1, top * corner),
        },
        "final_system_fidelity": purity * keep + (1.0 - purity) / (dim >> 1),
        "final_control_entropy": entropy,
        "final_total_magnetization": purity * (0.5 * (aa - bb) + sum(0.5 * math.exp(-2.0 * k * t) for k in kappa)),
    }


def check_protocol_report(report: dict, expected: dict, label: str = "protocol") -> list[str]:
    """Compare a ``ProtocolReport.to_dict()`` with :func:`protocol_expectations`."""
    failures: list[str] = []
    steps = {step["name"]: step for step in report["steps"]}
    for name, want in expected["step_fidelity"].items():
        failures += _close(f"{label} {name} fidelity", steps[name]["fidelity"], want)
    for name, (order, want) in expected["top_coherence"].items():
        got = steps[name]["coherence_weights"].get(str(order), 0.0)
        failures += _close(f"{label} {name} order-{order} weight", got, want)
    for key in ("final_system_fidelity", "final_control_entropy", "final_total_magnetization"):
        failures += _close(f"{label} {key}", report[key], expected[key])
    return failures


def check_analytic_rates(rates: list[tuple[int, float]], gamma: float, rel_tol: float = EXACT_ABS_TOL) -> list[str]:
    """Analytic dephasing decays the order-n coherence at exactly n * gamma / 2."""
    failures: list[str] = []
    for n, rate in rates:
        want = 0.5 * n * gamma
        failures += _close(f"scaling rate n={n}", rate / want, 1.0, rel_tol)
    return failures


def check_mc_rates(rates: list[tuple[int, float]], gamma: float) -> list[str]:
    """Monte Carlo rates agree with n * gamma / 2 within the statistical tolerance."""
    errors = [rate / (0.5 * n * gamma) - 1.0 for n, rate in rates]
    failures: list[str] = []
    for (n, _), error in zip(rates, errors):
        if not abs(error) <= MC_RATE_REL_TOL:
            failures.append(f"monte carlo rate n={n}: relative error {error:.3f} beyond {MC_RATE_REL_TOL}")
    mean = sum(errors) / len(errors)
    if not abs(mean) <= MC_MEAN_REL_TOL:
        failures.append(f"monte carlo rates: mean relative error {mean:.3f} beyond {MC_MEAN_REL_TOL}")
    return failures


def _csv_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))[1:]


def check_ring7_outputs(out_dir: Path, ring7: dict) -> list[str]:
    """Check the four ring7 command outputs against closed forms and stored peaks.

    ``ring7`` holds the parsed config figures: ``n_spins``, ``dephasing_per_s``,
    ``flip_per_s``, ``flips_on``, ``purity``, ``a``, ``b``, ``delays_s``.
    """
    failures: list[str] = []
    gammas = ring7["dephasing_per_s"]
    try:
        report = json.loads((out_dir / "protocol_report.json").read_text())
        delays = [run["delay_s"] for run in report["runs"]]
        if delays != list(ring7["delays_s"]):
            failures.append(f"run-protocol: delays {delays}, expected {ring7['delays_s']}")
        for run in report["runs"]:
            expected = protocol_expectations(
                ring7["n_spins"], ring7["purity"], ring7["a"], ring7["b"],
                gammas, ring7["flip_per_s"], run["delay_s"], ring7["flips_on"],
            )
            failures += check_protocol_report(run, expected, f"run-protocol t={run['delay_s']}")

        tau = 2.0 / sum(gammas)
        fit = json.loads((out_dir / "decay_nq_fit.json").read_text())["fit"]
        failures += _close("decay-scan tau_s", fit["tau_s"] / tau, 1.0)
        failures += _close("decay-scan amplitude", fit["amplitude"], 1.0)
        for t, y in _csv_rows((out_dir / "decay_nq.csv").read_text()):
            failures += _close(f"decay-scan amplitude t={t}", float(y), math.exp(-float(t) / tau))

        peaks = json.loads((out_dir / "spectrum_peaks.json").read_text())
        reference = json.loads((REFERENCE_DIR / "ring7_spectrum.json").read_text())
        # Sticks telescope to Tr(2 Sz_obs rho): one unit per observed up spin.
        observed = ring7["n_spins"] - 1
        failures += _close("spectrum total amplitude", peaks["total_amplitude_re"], ring7["purity"] * observed)
        got = [p["frequency_hz"] for p in peaks["peaks"]]
        want = reference["decoupled_peaks_hz"]
        if len(got) != len(want):
            failures.append(f"spectrum: {len(got)} peaks, expected {len(want)}")
        else:
            for g, w in zip(got, want):
                failures += _close(f"spectrum peak {w} Hz", g, w, PEAK_FREQ_TOL_HZ)

        gamma = gammas[0]
        scaling = json.loads((out_dir / "scaling_fit.json").read_text())
        rates = [(row["n_spins"], row["rate_per_s"]) for row in scaling["rates"]]
        if [n for n, _ in rates] != list(range(2, 8)):
            failures.append(f"scaling: sizes {[n for n, _ in rates]}, expected 2..7")
        failures += check_analytic_rates(rates, gamma)
    except (OSError, KeyError, ValueError, TypeError) as error:
        failures.append(f"ring7 outputs unreadable: {error!r}")
    return failures


def identical_outputs(out_dir: Path, seed: int) -> int:
    """Number of output files byte-identical to the stored ring7 reference.

    The references were written with seed 0; only the seed header differs
    between seeds because ring7 runs the analytic channels.
    """
    identical = 0
    for reference in sorted((REFERENCE_DIR / "ring7").iterdir()):
        expected = reference.read_bytes()
        for before, after in ((b"# seed: 0\n", b"# seed: %d\n"), (b'"seed": 0,', b'"seed": %d,'), (b'"seed": 0\n', b'"seed": %d\n')):
            expected = expected.replace(before, after % seed)
        produced = out_dir / reference.name
        if produced.is_file() and produced.read_bytes() == expected:
            identical += 1
    return identical
