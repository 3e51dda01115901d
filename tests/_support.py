"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spincat import CatWeights, Coupling, DensityMatrix, NoiseModel, ProtocolConfig, SpinSystem
from spincat import dynamics, operators, protocol, states
from spincat.dynamics import apply_unitary, dephasing_rate_for_lifetime, flip_rate_for_lifetime
from spincat.operators import _check_register_size, _check_site, bit_table
from spincat.states import HERMITIAN_TOL

REPO_ROOT = Path(__file__).resolve().parent.parent
RING7_CONFIG = REPO_ROOT / "configs" / "ring7.json"

# Rows compared per step by is_hermitian.
_HERMITIAN_ROWS = 64


# Hooks on the representation of a DensityMatrix and on the cost of its
# operations.  They are the only code outside the package that names its
# private parts (REPRESENTATION_NAMES; test_api checks that no test
# module does), so a change of representation edits only this section.
REPRESENTATION_NAMES = """_blocks _classes _values _dense _of_classes _pairs_of _pair_table
_block_spectrum _hermitian_classes _classes_of _dense_of _class_slices _read
_kick_pairs _kick_whole _KICK_BLOCK""".split()

# Trajectories per block of the Monte Carlo kick; kick tests straddle it.
KICK_BLOCK = dynamics._KICK_BLOCK


def stored_classes(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The ascending classes a state stores and their values,
    ``values[k, r] = rho[r, r ^ classes[k]]``: the arrays themselves."""
    return rho._classes, rho._values


def state_bytes(rho: DensityMatrix) -> bytes:
    """A state's classes, values and pair table, with the table's shape."""
    parts = [rho._classes.tobytes(), rho._values.tobytes()]
    if rho._blocks is not None:
        pairs = rho._blocks
        parts += [repr(pairs.shape).encode(), pairs.astype(np.int64).tobytes()]
    return b"".join(parts)


def state_of_classes(classes: np.ndarray, values: np.ndarray, n_spins: int) -> DensityMatrix:
    """The validated state whose ascending ``classes``, 0 first, hold
    ``values``, built without a dense matrix."""
    return DensityMatrix._of_classes(classes, values, n_spins)


def elements(rho: DensityMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``rho[rows, cols]``, read from the stored classes, without a dense view."""
    classes, values = rho._classes, rho._values
    patterns = np.bitwise_xor(rows, cols)
    k = np.minimum(np.searchsorted(classes, patterns), classes.size - 1)
    return np.where(classes[k] == patterns, values[k, rows], 0.0)


def record_factorised_sizes(monkeypatch) -> list[int]:
    """Record the order of every matrix ``cholesky`` and ``eigvalsh`` see.
    A state of 1x1 and 2x2 blocks is validated, and its entropy read,
    without either; a state checked whole is factorised as one matrix."""
    sizes = []
    for name in ("cholesky", "eigvalsh"):

        def recorded(a, *args, _original=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return sizes


def record_pair_reads(monkeypatch) -> tuple[list[int], list]:
    """Record every ``DensityMatrix`` construction, by its register size,
    and the pairs validation reads for it once its trace holds: the
    ascending ``(p, 2)`` array of the pairs ``(low, high)`` of its 2x2
    blocks, or ``None`` for a state of three or more classes, checked as
    one block of every index."""
    constructions, reads = [], []
    read, validate = states._pairs_of, DensityMatrix.__post_init__

    def counted_read(classes, values, n_spins):
        reads.append(read(classes, values, n_spins))
        return reads[-1]

    def counted_validate(self, n_spins, *args, **kwargs):
        constructions.append(n_spins)
        validate(self, n_spins, *args, **kwargs)

    monkeypatch.setattr(states, "_pairs_of", counted_read)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_validate)
    return constructions, reads


def record_states(monkeypatch) -> list[DensityMatrix]:
    """Record every ``DensityMatrix`` that passes validation, in the order
    they are built."""
    built, validate = [], DensityMatrix.__post_init__

    def recorded_validate(self, *args, **kwargs):
        validate(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", recorded_validate)
    return built


def pair_tables_built() -> int:
    """How many tables of a class's pairs validation has built in this
    process; each is built once per register size and pattern, then kept
    while it is in use."""
    return operators._pair_table.cache_info().misses


def pair_table_cache():
    """The kept table of a class's pairs that validation reads: called
    with a register size and a pattern it returns the ``(p, 2)`` table,
    and it has ``cache_info`` and ``cache_parameters`` like the other
    layout tables of ``spincat.operators``."""
    return operators._pair_table


@contextlib.contextmanager
def no_characteristic_matrix():
    """Within the context, a Monte Carlo kick that would form the
    characteristic matrix, as for a state checked whole, fails."""

    def refuse(*args):
        raise AssertionError("a state of pairs took the characteristic-matrix route")

    kick_whole, dynamics._kick_whole = dynamics._kick_whole, refuse
    try:
        yield
    finally:
        dynamics._kick_whole = kick_whole


@contextlib.contextmanager
def no_class_scan():
    """Within the context, a read of a state by ``(K, D)`` tables of its
    classes' columns, or of its elements by a search of its classes, as
    for a state of three or more classes, fails."""

    def refuse(*args):
        raise AssertionError("a state of pairs was read by a scan of its classes")

    scans = states._class_slices, states._read
    states._class_slices = states._read = refuse
    try:
        yield
    finally:
        states._class_slices, states._read = scans


@contextlib.contextmanager
def traced_memory():
    """Trace the allocations within the context; at its end the yielded
    object holds the traced bytes still allocated, ``retained``, and their
    ``peak``."""
    memory = types.SimpleNamespace(retained=0, peak=0)
    tracemalloc.start()
    try:
        yield memory
        memory.retained, memory.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def child_process(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """``python *args`` run to its end in a child process with the package
    and the test support on the path and one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    paths = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def run_child(*args: str, timeout: float = 60) -> str:
    """The output of :func:`child_process`, which must exit with 0."""
    result = child_process(*args, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


def is_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Whether no entry of ``matrix - matrix^dagger`` exceeds ``tol`` in
    modulus; for an ``(m, k, k)`` stack, of any matrix in it.  NaN fails."""
    matrix = np.asarray(matrix)
    # A block of rows at a time, so the temporaries are not D x D.
    # inf - inf is NaN, and a residual beyond the float limit inf, which
    # fail the comparison below without a warning.
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, matrix.shape[-1], _HERMITIAN_ROWS):
            rows = slice(start, start + _HERMITIAN_ROWS)
            adjoint = matrix[..., :, rows].conj().swapaxes(-1, -2)
            if not np.abs(matrix[..., rows, :] - adjoint).max(initial=0.0) <= tol:
                return False
    return True


# Dense Kronecker-product references: one-spin operators embedded in
# the register, their sums, propagators exp(-i*H*t) and ideal pulses.

SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

_SINGLE = {"x": SX, "y": SY, "z": SZ, "plus": SP, "minus": SM}
_AXES = ("x", "y", "z")


def single_spin_operator(kind: str, site: int, n_spins: int) -> np.ndarray:
    """Embed a one-spin operator into the full register.

    ``kind`` is one of ``x``, ``y``, ``z``, ``plus``, ``minus``.
    """
    if kind not in _SINGLE:
        raise ValueError(f"unknown operator kind {kind!r}")
    _check_register_size(n_spins)
    _check_site(site, n_spins)
    left = np.eye(1 << site, dtype=complex)
    right = np.eye(1 << (n_spins - 1 - site), dtype=complex)
    return np.kron(np.kron(left, _SINGLE[kind]), right)


def kronecker_total_spin_operator(kind: str, sites, n_spins: int) -> np.ndarray:
    """Dense reference for a total spin operator, such as the ``S+`` of
    ``total_spin_operator``: the sum over ``sites`` of embedded one-spin
    operators of ``kind``."""
    return sum(single_spin_operator(kind, site, n_spins) for site in sites)


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary ``exp(-i*h*t)`` of a Hermitian generator, via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    if not is_hermitian(h, HERMITIAN_TOL * scale):
        raise ValueError("generator is not Hermitian")
    if not np.isfinite(t):
        raise ValueError("non-finite time")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def evolve(rho: DensityMatrix, h: np.ndarray, t: float) -> DensityMatrix:
    """Coherent evolution ``U rho U+`` with ``U = exp(-i*h*t)``."""
    if t < 0.0:
        raise ValueError("negative evolution time")
    u = propagator(h, t)
    return apply_unitary(rho, u)


@dataclass(frozen=True)
class Pulse:
    """Ideal instantaneous rotation of the target spins.

    The generator is ``sum_targets S_axis`` rotated about z by
    ``phase_rad``, applied as ``exp(-i * angle_rad * generator)``.
    """

    targets: tuple[int, ...]
    axis: str
    angle_rad: float
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise ValueError("pulse needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate pulse targets")
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if not np.isfinite(self.angle_rad) or not np.isfinite(self.phase_rad):
            raise ValueError("non-finite pulse angle or phase")


def pulse_unitary(pulse: Pulse, n_spins: int) -> np.ndarray:
    generator = _pulse_generator(pulse, n_spins)
    return propagator(generator, pulse.angle_rad)


def apply_pulse(rho: DensityMatrix, pulse: Pulse) -> DensityMatrix:
    return apply_unitary(rho, pulse_unitary(pulse, rho.n_spins))


def _pulse_generator(pulse: Pulse, n_spins: int) -> np.ndarray:
    if pulse.axis == "z":
        return kronecker_total_spin_operator("z", pulse.targets, n_spins)
    cos_p = math.cos(pulse.phase_rad)
    sin_p = math.sin(pulse.phase_rad)
    x = kronecker_total_spin_operator("x", pulse.targets, n_spins)
    y = kronecker_total_spin_operator("y", pulse.targets, n_spins)
    if pulse.axis == "x":
        return cos_p * x + sin_p * y
    return cos_p * y - sin_p * x


def random_density_matrix(rng: np.random.Generator, n_spins: int) -> DensityMatrix:
    dim = 1 << n_spins
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = a @ a.conj().T
    return DensityMatrix(matrix / matrix.trace(), n_spins)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ring7_system(one_bond_hz: float = 160.0, remote_hz: float = 6.0) -> SpinSystem:
    """Control spin at site 0 plus a symmetric hexagon of six system spins.

    Mirrors the shipped example config: ortho/meta/para ring couplings
    of -60/-12/-8 Hz and heteronuclear couplings to the control.
    """
    ring = list(range(1, 7))
    couplings: list[Coupling] = []
    seen = set()

    def add(a: int, b: int, strength: float, kind: str) -> None:
        pair = (min(a, b), max(a, b))
        if pair not in seen:
            seen.add(pair)
            couplings.append(Coupling(pair[0], pair[1], strength, kind))

    for k in range(6):
        add(ring[k], ring[(k + 1) % 6], -60.0, "homonuclear_dipolar")
    for k in range(6):
        add(ring[k], ring[(k + 2) % 6], -12.0, "homonuclear_dipolar")
    for k in range(3):
        add(ring[k], ring[k + 3], -8.0, "homonuclear_dipolar")
    add(0, 1, one_bond_hz, "heteronuclear_zz")
    for p in ring[1:]:
        add(0, p, remote_hz, "heteronuclear_zz")
    return SpinSystem(7, ("control",) + ("system",) * 6, (0.0,) * 7, tuple(couplings))


def closed_form_report(config: ProtocolConfig) -> dict:
    """Closed-form figures of an analytic ``run_protocol(config)``, with
    the control at site 0 and no flip rate on it: each step's fidelity,
    the weight of the top coherence order of steps B to E, as ``(order,
    weight)``, and the three final figures, under their report keys.

    No step evolves the register freely, so couplings play no part, and
    every channel is a product of per-spin maps, so the pseudopure cat
    keeps its corner structure through every step:
    ``rho = p * Lambda(|psi><psi|) + (1 - p) * I / D``.
    """
    noise, t, p = config.noise, config.delay_s, config.purity_fraction
    if config.system.control_sites != (0,) or config.include_flip_relaxation and noise.flip_per_s[0]:
        raise ValueError("the closed form needs the control at site 0 and no flips on it")
    n, dim = config.n_total, 1 << config.n_total
    kappa = [k if config.include_flip_relaxation else 0.0 for k in noise.flip_per_s[1:]]
    a, b = abs(config.weights.a), abs(config.weights.b)
    aa, bb = a**2, b**2
    # Probability that a system spin keeps its value; survival of the corner coherence.
    keep = math.prod(0.5 * (1.0 + math.exp(-2.0 * k * t)) for k in kappa)
    corner = math.exp(-0.5 * t * sum(noise.dephasing_per_s)) * math.prod(math.exp(-k * t) for k in kappa)
    mixed = (1.0 - p) / dim
    clean = p + mixed
    noisy = p * ((aa * aa + bb * bb) * keep + 2.0 * aa * bb * corner) + mixed
    bloch = p * math.sqrt((aa - bb) ** 2 + 4.0 * aa * bb * corner**2)
    top = p * a * b
    return {
        "step_fidelity": dict(zip(protocol.STEP_NAMES, (clean, clean, clean, noisy, noisy))),
        "top_coherence": {
            "create_cat": (n - 1, top),
            "entangle": (n, top),
            "decohere": (n, top * corner),
            "recover": (1, top * corner),
        },
        "final_system_fidelity": p * keep + (1.0 - p) / (dim >> 1),
        "final_control_entropy": -sum(
            lam * math.log(lam) for lam in (0.5 * (1.0 + bloch), 0.5 * (1.0 - bloch)) if lam > 0.0
        ),
        "final_total_magnetization": p * (0.5 * (aa - bb) + sum(0.5 * math.exp(-2.0 * k * t) for k in kappa)),
    }


def bare_system(n_spins: int) -> SpinSystem:
    """Coupling-free register with the control at site 0."""
    return SpinSystem(n_spins, ("control",) + ("system",) * (n_spins - 1), (0.0,) * n_spins)


def protocol_config(n_spins: int, purity_fraction: float = 0.83) -> ProtocolConfig:
    """A ``protocol_n10``-style run on a bare register: unbalanced
    weights, dephasing calibrated to a 29 ms cat and flips on."""
    return ProtocolConfig(
        system=bare_system(n_spins),
        noise=NoiseModel(
            (dephasing_rate_for_lifetime(0.029, n_spins),) * n_spins,
            (0.0,) + (flip_rate_for_lifetime(0.49),) * (n_spins - 1),
        ),
        weights=CatWeights(0.8, 0.6 * np.exp(1.1j)),
        delay_s=0.021,
        purity_fraction=purity_fraction,
        include_flip_relaxation=True,
    )


def _mask(sites, n_spins: int) -> int:
    """Bitmask of the listed sites; spin 0 is the most significant bit."""
    return sum(1 << (n_spins - 1 - site) for site in sites)


def cat_rotation_unitary(n_total: int, system_sites, weights) -> np.ndarray:
    """Dense reference for step B: rotates ``|all system up>`` to
    ``a|u> + b|d>`` in every sector of the remaining spins."""
    mask = _mask(system_sites, n_total)
    dim = 1 << n_total
    u = np.eye(dim, dtype=complex)
    a, b = weights.a, weights.b
    for base in range(dim):
        if base & mask:
            continue
        up, down = base, base | mask
        u[up, up] = a
        u[down, up] = b
        u[up, down] = -np.conj(b)
        u[down, down] = np.conj(a)
    return u


def _flip_unitary(n_spins: int, condition_mask: int, flip_mask: int) -> np.ndarray:
    dim = 1 << n_spins
    u = np.zeros((dim, dim), dtype=complex)
    for index in range(dim):
        image = index ^ flip_mask if index & condition_mask == condition_mask else index
        u[image, index] = 1.0
    return u


def entangle_unitary(n_total: int, control_site: int, system_sites) -> np.ndarray:
    """Dense reference for step C: flips the control wherever all system spins are down."""
    return _flip_unitary(n_total, _mask(system_sites, n_total), _mask([control_site], n_total))


def controlled_not_unitary(n_spins: int, control: int, targets) -> np.ndarray:
    """Dense reference for step E: flips every target spin when the control is down."""
    return _flip_unitary(n_spins, _mask([control], n_spins), _mask(targets, n_spins))


def coherence_components(rho: np.ndarray, n_spins: int) -> dict[int, np.ndarray]:
    """Fixed-order parts of ``rho``: the order of element ``(r, c)`` is the
    up-spin surplus of ``r`` over ``c``, counted here by explicit popcounts."""
    dim = 1 << n_spins
    components = {q: np.zeros((dim, dim), dtype=complex) for q in range(-n_spins, n_spins + 1)}
    for r in range(dim):
        for c in range(dim):
            q = (n_spins - bin(r).count("1")) - (n_spins - bin(c).count("1"))
            components[q][r, c] = rho[r, c]
    return components


def nq_coherence_operator(n_spins: int, sites=None) -> np.ndarray:
    """Dense highest-order coherence observable: the product of S+ over
    ``sites`` (all spins by default) plus its adjoint."""
    sites = range(n_spins) if sites is None else sites
    mask = _mask(sites, n_spins)
    dim = 1 << n_spins
    raising = np.zeros((dim, dim), dtype=complex)
    for base in range(dim):
        if not base & mask:
            raising[base, base | mask] = 1.0
    return raising + raising.conj().T


def phase_kicks_reference(rho: np.ndarray, n_spins: int, sigma, trajectories: int, seed: int) -> np.ndarray:
    """Per-trajectory reference for ``apply_phase_kicks_mc``: applies each
    trajectory's diagonal unitary ``exp(-i * sum_i phi_i * Sz_i)`` to
    ``rho`` and averages, at the nonzero elements; the rest stay zero.  Row
    ``k`` of one ``normal(0, sigma, (K, n))`` draw from ``default_rng(seed)``
    holds trajectory ``k``'s phases."""
    sigma = np.asarray(sigma)
    # Sz eigenvalue of every spin in every basis state: +1/2 or -1/2.
    sz_signs = 0.5 - bit_table(n_spins)
    rows, cols = np.nonzero(rho)
    accumulated = np.zeros_like(rho, dtype=complex)
    draws = np.random.default_rng(seed).normal(0.0, sigma, size=(trajectories, sigma.size))
    for phases in draws:
        diag = np.exp(-1j * (phases @ sz_signs))
        accumulated[rows, cols] += (diag[rows] * rho[rows, cols]) * diag.conj()[cols]
    return accumulated / trajectories


def dephasing_reference(rho: np.ndarray, n_spins: int, rates, t: float) -> np.ndarray:
    """Dense reference for ``apply_dephasing``: the decay exponent of every
    element summed over an n x D x D table of differing bits."""
    bits = bit_table(n_spins)
    # decay[r, c] = sum_i gamma_i * [r_i != c_i]
    differs = bits[:, :, None] != bits[:, None, :]
    decay = np.tensordot(np.asarray(rates), differs, axes=1)
    return rho * np.exp(-0.5 * t * decay)


def flip_one_site_reference(matrix: np.ndarray, site: int, n_spins: int, kappa_t: float) -> np.ndarray:
    """Reference for one spin's flip factor, on a 2n-axis view and a
    fresh copy of the matrix."""
    e1 = math.exp(-kappa_t)
    e2 = math.exp(-2.0 * kappa_t)
    view = matrix.reshape((2,) * (2 * n_spins))

    def block(row_bit: int, col_bit: int) -> tuple:
        index: list = [slice(None)] * (2 * n_spins)
        index[site] = row_bit
        index[n_spins + site] = col_bit
        return tuple(index)

    uu = np.array(view[block(0, 0)])
    dd = np.array(view[block(1, 1)])
    out = np.array(view)
    out[block(0, 0)] = 0.5 * (1.0 + e2) * uu + 0.5 * (1.0 - e2) * dd
    out[block(1, 1)] = 0.5 * (1.0 - e2) * uu + 0.5 * (1.0 + e2) * dd
    out[block(0, 1)] = e1 * view[block(0, 1)]
    out[block(1, 0)] = e1 * view[block(1, 0)]
    return out.reshape(matrix.shape)


def hamiltonian_reference(system: SpinSystem) -> np.ndarray:
    """Dense reference for ``build_hamiltonian``: sums of products of
    Kronecker-embedded one-spin operators."""
    n = system.n_spins
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for site, nu in enumerate(system.offsets_hz):
        if nu != 0.0:
            h += (2.0 * math.pi * nu) * single_spin_operator("z", site, n)
    for coupling in system.couplings:
        i, j = coupling.site_a, coupling.site_b
        zz = single_spin_operator("z", i, n) @ single_spin_operator("z", j, n)
        term = 2.0 * zz
        if coupling.kind == "homonuclear_dipolar":
            xx = single_spin_operator("x", i, n) @ single_spin_operator("x", j, n)
            yy = single_spin_operator("y", i, n) @ single_spin_operator("y", j, n)
            term = term - xx - yy
        h += (2.0 * math.pi * coupling.strength_hz) * term
    return h


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray | None, jumps: list[np.ndarray]) -> np.ndarray:
    """Master-equation right-hand side, written independently of the
    package's channel code for use as a brute-force oracle."""
    out = np.zeros_like(rho)
    if hamiltonian is not None:
        out += -1j * (hamiltonian @ rho - rho @ hamiltonian)
    for jump in jumps:
        jd = jump.conj().T
        out += jump @ rho @ jd - 0.5 * (jd @ jump @ rho + rho @ jd @ jump)
    return out


def rk4_evolve(
    rho: np.ndarray,
    t: float,
    steps: int,
    hamiltonian: np.ndarray | None,
    jumps: list[np.ndarray],
) -> np.ndarray:
    """Fixed-step fourth-order Runge-Kutta integration of the master equation."""
    dt = t / steps
    rho = np.array(rho, dtype=complex)
    for _ in range(steps):
        k1 = lindblad_rhs(rho, hamiltonian, jumps)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, hamiltonian, jumps)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, hamiltonian, jumps)
        k4 = lindblad_rhs(rho + dt * k3, hamiltonian, jumps)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


# Dense reference pipeline: run_protocol composed from the dense
# references above, on plain arrays, with no DensityMatrix.


def _ket_projector(amplitudes: dict, dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    for index, amplitude in amplitudes.items():
        psi[index] = amplitude
    return np.outer(psi, psi.conj())


def _dense_partial_trace(rho: np.ndarray, n_spins: int, keep) -> np.ndarray:
    """Partial trace by one ``np.einsum`` over the 2n-axis view of ``rho``."""
    keep = list(keep)
    rows = list(range(n_spins))
    cols = [n_spins + i if i in keep else i for i in range(n_spins)]
    out = keep + [n_spins + i for i in keep]
    reduced = np.einsum(rho.reshape((2,) * (2 * n_spins)), rows + cols, out)
    return reduced.reshape(1 << len(keep), 1 << len(keep))


def index_order_partial_trace(rho: np.ndarray, n_spins: int, keep) -> np.ndarray:
    """Partial trace that sums each element over the traced spins one
    addition at a time, from traced index 0 upwards, the order in which
    ``reduced_state`` sums, so that the two agree bit for bit."""
    traced = [site for site in range(n_spins) if site not in keep]
    kept = _spread(np.arange(1 << len(keep)), keep, n_spins)
    rows, cols = kept[:, None], kept[None, :]
    total = rho[rows, cols]
    for t in range(1, 1 << len(traced)):
        spread = _spread(t, traced, n_spins)
        total = total + rho[rows | spread, cols | spread]
    return total + 0.0


def _spread(bits, sites, n_spins: int):
    """The basis index whose ``sites`` read ``bits``, first site most
    significant, and whose other spins are up."""
    index = 0
    for j, site in enumerate(sites):
        index = index | ((bits >> (len(sites) - 1 - j)) & 1) << (n_spins - 1 - site)
    return index


def dense_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy from ``eigvalsh`` of the whole matrix, in nats;
    eigenvalues below 1e-14 are dropped."""
    return spectrum_entropy(np.linalg.eigvalsh(rho))


def spectrum_entropy(eigs: np.ndarray) -> float:
    """:func:`dense_entropy` of a matrix whose ``eigvalsh`` is ``eigs``."""
    eigs = eigs[eigs >= 1e-14]
    return max(float(-np.sum(eigs * np.log(eigs))), 0.0)


def popcount_weights(rho: np.ndarray, n_spins: int) -> dict[int, float]:
    """The weight of every coherence order, from one histogram over all
    D^2 elements in C order."""
    ups = n_spins - bit_table(n_spins).sum(axis=0)
    order = (ups[:, None] - ups[None, :] + n_spins).ravel()
    totals = np.bincount(order, weights=np.abs(rho.ravel()) ** 2, minlength=2 * n_spins + 1)
    return {q: float(np.sqrt(totals[q + n_spins])) for q in range(-n_spins, n_spins + 1)}


def _dense_magnetization(rho: np.ndarray, n_spins: int, sites) -> float:
    sz = (0.5 - bit_table(n_spins)[list(sites)]).sum(axis=0)
    return float(np.diagonal(rho).real @ sz)


def _dense_decohere(rho: np.ndarray, config: ProtocolConfig) -> np.ndarray:
    n = config.n_total
    noise = config.noise
    t = config.delay_s
    if config.noise_mode == "analytic":
        rho = dephasing_reference(rho, n, noise.dephasing_per_s, t)
    else:
        sigma = np.sqrt(np.asarray(noise.dephasing_per_s) * t)
        rho = phase_kicks_reference(rho, n, sigma, noise.mc_trajectories, config.seed)
    if config.include_flip_relaxation:
        for site, rate in enumerate(noise.flip_per_s):
            if rate > 0.0:
                rho = flip_one_site_reference(rho, site, n, rate * t)
    return rho


def _dense_prepared(config: ProtocolConfig) -> tuple[list[np.ndarray], np.ndarray]:
    """The states after steps A, B and C, and the step-C unitary."""
    n = config.n_total
    dim = 1 << n
    f = config.purity_fraction
    system = config.system.system_sites
    after_a = (1.0 - f) * np.eye(dim, dtype=complex) / dim + f * _ket_projector({0: 1.0}, dim)
    u_b = cat_rotation_unitary(n, system, config.weights)
    after_b = u_b @ after_a @ u_b.conj().T
    u_c = entangle_unitary(n, 0, system)
    after_c = u_c @ after_b @ u_c.conj().T
    return [after_a, after_b, after_c], u_c


def dense_run_protocol(config: ProtocolConfig) -> dict:
    """Dense reference for ``run_protocol(config)``.

    Steps B, C and E are conjugations by the dense unitaries above, step D
    the dense channel references.  Partial traces come from ``np.einsum``,
    entropies from ``eigvalsh`` of the whole reduced matrix, and fidelities
    as ``Tr(rho T)`` with the projector ``T`` of each ideal ket.  Returns the
    report's ``to_dict()`` fields and the final matrix under ``"final_state"``.
    """
    n = config.n_total
    dim = 1 << n
    system = list(config.system.system_sites)
    a, b = config.weights.a, config.weights.b
    control_mask = _mask([0], n)
    system_mask = _mask(system, n)
    ideals = {
        "initialize": {0: 1.0},
        "create_cat": {0: a, system_mask: b},
        "entangle": {0: a, control_mask | system_mask: b},
        "decohere": {0: a, control_mask | system_mask: b},
        "recover": {0: a, control_mask: b},
    }
    (after_a, after_b, after_c), _ = _dense_prepared(config)
    after_d = _dense_decohere(after_c, config)
    u_e = controlled_not_unitary(n, 0, system)
    after_e = u_e @ after_d @ u_e.conj().T
    steps = []
    for name, rho in zip(ideals, (after_a, after_b, after_c, after_d, after_e)):
        steps.append(
            {
                "name": name,
                "fidelity": float(np.trace(rho @ _ket_projector(ideals[name], dim)).real),
                "coherence_weights": {
                    q: w for q, w in popcount_weights(rho, n).items() if w > 1e-12
                },
                "control_entropy": dense_entropy(_dense_partial_trace(rho, n, [0])),
                "system_entropy": dense_entropy(_dense_partial_trace(rho, n, system)),
                "system_magnetization": _dense_magnetization(rho, n, system),
            }
        )
    final_system = _dense_partial_trace(after_e, n, system)
    system_target = _ket_projector({0: 1.0}, 1 << len(system))
    return {
        "delay_s": config.delay_s,
        "steps": steps,
        "final_system_fidelity": float(np.trace(final_system @ system_target).real),
        "final_control_entropy": dense_entropy(_dense_partial_trace(after_e, n, [0])),
        "final_total_magnetization": _dense_magnetization(after_e, n, range(n)),
        "final_state": after_e,
    }


def dense_decay_scan(config: ProtocolConfig, delays_s, which: str) -> list[tuple[float, float]]:
    """Dense reference for ``measure_nq_decay`` (``which="nq"``) and
    ``measure_diagonal_decay`` (``which="diagonal"``), with the same
    per-point seeds."""
    n = config.n_total
    system = list(config.system.system_sites)
    (_, _, prepared), u_c = _dense_prepared(config)
    seeds = [int(v) for v in np.random.SeedSequence(config.seed).generate_state(len(delays_s))]
    points = []
    for delay, seed in zip(delays_s, seeds):
        rho = _dense_decohere(prepared, dataclasses.replace(config, delay_s=float(delay), seed=seed))
        if which == "nq":
            reduced = _dense_partial_trace(u_c @ rho @ u_c.conj().T, n, system)
            value = abs(complex(reduced[0, -1]))
        else:
            value = _dense_magnetization(rho, n, system)
        points.append((float(delay), float(value)))
    return points
