"""Cat-state preparation, entanglement, decoherence, and recovery.

The register holds one control spin at site 0 and ``n`` system spins at
sites 1..n.  The five steps:

A. initialize: pseudopure all-up state.
B. create_cat: rotate the system subspace so ``|u> -> a|u> + b|d>``;
   the control is untouched.  This is a two-level rotation of each
   index pair ``(base, base | system_mask)``.
C. entangle: flip the control wherever every system spin is down,
   taking ``|up>(a|u> + b|d>)`` to ``a|up>|u> + b|down>|d>``.  The
   permutation is an involution, so the same step also serves as the
   read-out inverse.
D. decohere: apply dephasing for the configured delay (closed form, or
   a Monte Carlo phase-kick average), plus optional flip relaxation.
   Both are elementwise channels.
E. recover: collective controlled-NOT conditioned on the control,
   restoring every system spin to up in both branches.  Which-path
   information ends up in the control spin alone.

Steps B, C, and E are exact target unitaries (basis rotations and
permutations), not pulse sequences; pulse-level compilation is out of
scope here.  They are applied by their structure, without forming a
dense D x D unitary, to the coherence classes that a
:class:`~spincat.states.DensityMatrix` stores.  Every state of the run
is a diagonal plus one cat coherence, two classes of D elements, so
each step, channel and diagnostic costs O(D), and the reference states
are built the same way.  No dense matrix is formed unless
``final_state.matrix`` is read.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, operators, states
from .dynamics import NoiseModel, SpinSystem
from .states import CatWeights, DensityMatrix

NOISE_MODES = ("analytic", "monte_carlo")
STEP_NAMES = ("initialize", "create_cat", "entangle", "decohere", "recover")


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one protocol run needs.

    ``delay_s`` is the decoherence interval of step D.  In
    ``monte_carlo`` mode the dephasing part of step D is replaced by
    :func:`dynamics.apply_phase_kicks_mc` over ``noise.mc_trajectories``
    trajectories seeded by ``seed``; it derives the per-spin widths
    ``sqrt(gamma_i * delay)`` from ``noise.dephasing_per_s``.  Flip
    relaxation always uses the closed form.
    """

    system: SpinSystem
    noise: NoiseModel
    weights: CatWeights
    delay_s: float
    purity_fraction: float = 1.0
    include_flip_relaxation: bool = False
    noise_mode: str = "analytic"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.system.roles[0] != "control" or len(self.system.control_sites) != 1:
            raise ValueError("system.roles: protocol needs exactly one control spin, at site 0")
        if self.noise.n_spins != self.system.n_spins:
            raise ValueError(
                f"noise.dephasing_per_s: {self.noise.n_spins} rates for {self.system.n_spins} spins"
            )
        dynamics._check_time(self.delay_s, "delay_s")
        states._check_purity_fraction(self.purity_fraction)
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}")
        operators._check_seed(self.seed)

    @property
    def n_total(self) -> int:
        return self.system.n_spins

    @property
    def n_system(self) -> int:
        return len(self.system.system_sites)


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics recorded after one protocol step.

    ``fidelity`` is the overlap with the ideal pure state of that step
    (unit purity fraction, zero noise).  ``coherence_weights`` holds the
    Frobenius weight of each nonzero coherence order of the full
    register.  Entropies are in nats.  ``system_magnetization`` is the
    total Sz expectation of the system spins; it is untouched by the
    entangling step and by dephasing, so it stays constant from step B
    through step D whenever flips are off.
    """

    name: str
    fidelity: float
    coherence_weights: dict[int, float]
    control_entropy: float
    system_entropy: float
    system_magnetization: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fidelity": self.fidelity,
            "coherence_weights": {str(q): w for q, w in sorted(self.coherence_weights.items())},
            "control_entropy": self.control_entropy,
            "system_entropy": self.system_entropy,
            "system_magnetization": self.system_magnetization,
        }


@dataclass(frozen=True)
class ProtocolReport:
    """Per-step records plus the figures of merit of the final state."""

    delay_s: float
    steps: tuple[StepRecord, ...]
    final_system_fidelity: float
    final_control_entropy: float
    final_total_magnetization: float
    final_state: DensityMatrix = field(repr=False)

    def step(self, name: str) -> StepRecord:
        for record in self.steps:
            if record.name == name:
                return record
        raise KeyError(f"no step named {name!r}")

    def to_dict(self) -> dict:
        return {
            "delay_s": self.delay_s,
            "steps": [record.to_dict() for record in self.steps],
            "final_system_fidelity": self.final_system_fidelity,
            "final_control_entropy": self.final_control_entropy,
            "final_total_magnetization": self.final_total_magnetization,
        }


def step_a_initialize(config: ProtocolConfig) -> DensityMatrix:
    """Pseudopure all-up state of the full register."""
    target = states.ferro_state(config.n_total, "up")
    return states.pseudopure(target, config.purity_fraction)


def step_b_create_cat(rho: DensityMatrix, config: ProtocolConfig) -> DensityMatrix:
    """``U rho U+`` for the rotation taking ``|all system up>`` to
    ``a|u> + b|d>`` in each control sector, identity elsewhere.

    ``U`` acts as ``[[a, -conj(b)], [b, conj(a)]]`` on every index pair
    ``(base, base | system_mask)``: rows are rotated by ``U``, then
    columns by ``conj(U)``.  Either rotation pairs each element of class
    ``x`` with one of class ``x ^ system_mask``, so the state's classes
    are rotated pairwise, in O(D) per class.
    """
    mask = operators.site_mask(config.system.system_sites, config.n_total)
    # Every index and its partner r ^ mask.
    index, flipped = operators._flip_permutation(config.n_total, 0, mask)
    dim = rho.dim
    classes = states._class_set(np.concatenate((rho._classes, rho._classes ^ mask)), dim)
    values = np.zeros((classes.size, dim), dtype=complex)
    values[np.searchsorted(classes, rho._classes)] = rho._values
    # Row of class x ^ mask for each class x.
    partner = np.searchsorted(classes, classes ^ mask)
    a, b = config.weights.a, config.weights.b
    rotation = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
    # Rows: (r, r ^ x) pairs with (r ^ mask, r ^ x), which lies in class x ^ mask.
    rows = np.broadcast_to(index & mask, values.shape)
    partners = values.take(partner, axis=0).take(flipped, axis=1)
    _rotate_pairs(values, partners, rows == 0, rows == mask, rotation)
    # Columns: (r, r ^ x) pairs with (r, r ^ x ^ mask), in class x ^ mask.
    columns = (index ^ classes[:, None]) & mask
    partners = values.take(partner, axis=0)
    _rotate_pairs(values, partners, columns == 0, columns == mask, rotation.conj())
    return DensityMatrix._of_classes(classes, values, rho.n_spins)


def step_c_entangle(rho: DensityMatrix, config: ProtocolConfig) -> DensityMatrix:
    """Flip the control wherever every system spin is down; an involution."""
    n = config.n_total
    system_mask = operators.site_mask(config.system.system_sites, n)
    control_mask = operators.site_mask(config.system.control_sites, n)
    return dynamics.conditional_flip(rho, system_mask, control_mask)


def step_d_decohere(rho: DensityMatrix, config: ProtocolConfig) -> DensityMatrix:
    """Free decay for the configured delay."""
    noise = config.noise
    t = config.delay_s
    if config.noise_mode == "analytic":
        rho = dynamics.apply_dephasing(rho, noise, t)
    else:
        rho = dynamics.apply_phase_kicks_mc(rho, noise, t, config.seed)
    if config.include_flip_relaxation:
        rho = dynamics.apply_flip_relaxation(rho, noise, t)
    return rho


def step_e_recover(rho: DensityMatrix, config: ProtocolConfig) -> DensityMatrix:
    control = config.system.control_sites[0]
    return dynamics.controlled_not_all(rho, control, config.system.system_sites)


def ideal_step_states(config: ProtocolConfig) -> dict[str, dict[int, complex]]:
    """Pure reference state of each step at unit purity and zero noise,
    as the ``{index: amplitude}`` map that :func:`states.basis_state` takes."""
    n = config.n_total
    a, b = config.weights.a, config.weights.b
    control_mask = operators.site_mask(config.system.control_sites, n)
    system_mask = operators.site_mask(config.system.system_sites, n)
    entangled = {0: a, control_mask | system_mask: b}
    return {
        "initialize": {0: 1.0},
        "create_cat": {0: a, system_mask: b},
        "entangle": entangled,
        "decohere": entangled,
        "recover": {0: a, control_mask: b},
    }


def run_protocol(config: ProtocolConfig) -> ProtocolReport:
    """Run steps A through E and collect diagnostics.

    Each reference state is built just before the first record that
    reads it and dropped after the last, so at most one is alive at a time.
    """
    ideals = ideal_step_states(config)
    control = config.system.control_sites[0]
    system_sites = list(config.system.system_sites)

    def reference(name: str) -> DensityMatrix:
        return states.basis_state(config.n_total, ideals[name])

    def record(name: str, rho: DensityMatrix, ideal: DensityMatrix) -> StepRecord:
        weights = {q: w for q, w in states.coherence_orders(rho).items() if w > 1e-12}
        return StepRecord(
            name=name,
            fidelity=states.fidelity(rho, ideal),
            coherence_weights=weights,
            control_entropy=states.von_neumann_entropy(states.reduced_state(rho, [control])),
            system_entropy=states.von_neumann_entropy(states.reduced_state(rho, system_sites)),
            system_magnetization=states.magnetization(rho, system_sites),
        )

    rho = step_a_initialize(config)
    records = [record("initialize", rho, reference("initialize"))]
    rho = step_b_create_cat(rho, config)
    records.append(record("create_cat", rho, reference("create_cat")))
    rho = step_c_entangle(rho, config)
    # One entangled reference serves steps C and D.
    entangled = reference("entangle")
    records.append(record("entangle", rho, entangled))
    rho = step_d_decohere(rho, config)
    records.append(record("decohere", rho, entangled))
    del entangled
    rho = step_e_recover(rho, config)
    records.append(record("recover", rho, reference("recover")))

    system_target = states.ferro_state(config.n_system, "up")
    return ProtocolReport(
        delay_s=config.delay_s,
        steps=tuple(records),
        final_system_fidelity=states.fidelity(states.reduced_state(rho, system_sites), system_target),
        final_control_entropy=states.von_neumann_entropy(states.reduced_state(rho, [control])),
        final_total_magnetization=states.magnetization(rho, range(config.n_total)),
        final_state=rho,
    )


def measure_nq_decay(config: ProtocolConfig, delays_s: list[float]) -> list[tuple[float, float]]:
    """Highest-order coherence amplitude surviving a decay interval.

    For each delay: run A through D, undo the entangling step, and
    report the magnitude of the recovered system coherence
    ``|<u|rho_system|d>|``.  With equal dephasing rates gamma on all
    ``N`` spins and flips off, the amplitude decays as
    ``exp(-N*gamma*t/2)``.
    """
    system_sites = list(config.system.system_sites)

    def readout(rho: DensityMatrix) -> float:
        return abs(states.nq_amplitude(step_c_entangle(rho, config), system_sites))

    return _scan_delays(config, delays_s, readout)


def measure_diagonal_decay(config: ProtocolConfig, delays_s: list[float]) -> list[tuple[float, float]]:
    """Total system Sz after A through D per delay.

    Requires flip relaxation (the diagonal has no dephasing decay) and
    unbalanced weights: at ``|a| = |b|`` the prepared diagonal carries
    no net polarization and there is nothing to fit.
    """
    if not config.include_flip_relaxation or max(config.noise.flip_per_s) <= 0.0:
        raise ValueError("diagonal decay needs flip relaxation enabled with a nonzero rate")
    system_sites = list(config.system.system_sites)
    return _scan_delays(config, delays_s, lambda rho: states.magnetization(rho, system_sites))


def _scan_delays(
    config: ProtocolConfig, delays_s: list[float], readout: Callable[[DensityMatrix], float]
) -> list[tuple[float, float]]:
    """Prepare A through C once, then decohere for each delay and read out.

    In Monte Carlo mode each point draws its own seed, so a point does
    not depend on the others in the scan.  The analytic channel reads no
    seed, so none is drawn.
    """
    prepared = step_c_entangle(step_b_create_cat(step_a_initialize(config), config), config)
    if config.noise_mode == "monte_carlo":
        seeds = _per_point_seeds(config.seed, len(delays_s))
    else:
        seeds = [config.seed] * len(delays_s)
    results = []
    for delay, point_seed in zip(delays_s, seeds):
        point_config = dataclasses.replace(config, delay_s=float(delay), seed=point_seed)
        rho = step_d_decohere(prepared, point_config)
        results.append((float(delay), float(readout(rho))))
    return results


def _per_point_seeds(seed: int, count: int) -> list[int]:
    """Independent deterministic seeds for the points of a scan."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def _rotate_pairs(
    values: np.ndarray, partners: np.ndarray, first: np.ndarray, second: np.ndarray, u: np.ndarray
) -> None:
    """Apply the 2x2 matrix ``u`` in place to each pair of elements: the
    element of ``values`` where ``first`` holds takes the first component,
    and the element where ``second`` holds the second, with ``partners``
    the other element of each pair, read before the update."""
    own_first, own_second = values[first], values[second]
    values[first] = u[0, 0] * own_first + u[0, 1] * partners[first]
    values[second] = u[1, 0] * partners[second] + u[1, 1] * own_second
