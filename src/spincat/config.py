"""JSON run configuration: parsing, strict validation, and hashing.

Unknown keys anywhere in the file are rejected, and every error message
names the offending key by its dotted path (for example
``spin_system.couplings[2].kind``), so typos fail loudly instead of
silently falling back to defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .dynamics import COUPLING_KINDS, ROLES, Coupling, NoiseModel, SpinSystem
from .protocol import NOISE_MODES, ProtocolConfig
from .states import CatWeights

_MISSING = object()
OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """A configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class SpectrumSettings:
    linewidth_hz: float = 2.0
    grid_hz: tuple[float, float, int] | None = None
    peak_threshold: float = 0.01


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    formats: tuple[str, ...] = OUTPUT_FORMATS


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    system: SpinSystem
    noise: NoiseModel
    weights: CatWeights
    delays_s: tuple[float, ...]
    purity_fraction: float
    include_flip_relaxation: bool
    noise_mode: str
    seed: int
    spectrum: SpectrumSettings
    output: OutputSettings
    sha256: str

    def protocol_config(self, delay_s: float, seed: int | None = None) -> ProtocolConfig:
        try:
            return ProtocolConfig(
                system=self.system,
                noise=self.noise,
                weights=self.weights,
                delay_s=float(delay_s),
                purity_fraction=self.purity_fraction,
                include_flip_relaxation=self.include_flip_relaxation,
                noise_mode=self.noise_mode,
                seed=self.seed if seed is None else int(seed),
            )
        except ValueError as error:
            raise ConfigError(str(error)) from error


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ConfigError(f"cannot read config file {path}: {error}") from error
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigError(f"{path}: invalid JSON: {error}") from error
    return parse_config(data)


def parse_config(data: object) -> RunConfig:
    """Validate a decoded JSON object and build the typed configuration."""
    sha256 = hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    root = _Section(data, "config")
    system = _parse_spin_system(root.take("spin_system"))
    noise = _parse_noise(root.take("noise", default={}), system.n_spins)
    protocol = _Section(root.take("protocol", default={}), "protocol")
    weights = _parse_weights(protocol.take("weights", default=None))
    delays = _number_list(protocol.take("delays_s", default=[0.0, 0.1, 0.2]), "protocol.delays_s")
    for k, delay in enumerate(delays):
        if delay < 0.0:
            raise ConfigError(f"protocol.delays_s[{k}]: delays must be nonnegative")
    if not delays:
        raise ConfigError("protocol.delays_s: need at least one delay")
    purity = _number(protocol.take("purity_fraction", default=1.0), "protocol.purity_fraction")
    if not 0.0 < purity <= 1.0:
        raise ConfigError(f"protocol.purity_fraction: must lie in (0, 1], got {purity}")
    flips = _boolean(
        protocol.take("include_flip_relaxation", default=False), "protocol.include_flip_relaxation"
    )
    mode = _string(protocol.take("noise_mode", default="analytic"), "protocol.noise_mode")
    if mode not in NOISE_MODES:
        raise ConfigError(f"protocol.noise_mode: must be one of {NOISE_MODES}, got {mode!r}")
    seed = _integer(protocol.take("seed", default=0), "protocol.seed")
    protocol.finish()
    spectrum = _parse_spectrum(root.take("spectrum", default={}))
    output = _parse_output(root.take("output", default={}))
    root.finish()
    return RunConfig(
        system=system,
        noise=noise,
        weights=weights,
        delays_s=tuple(delays),
        purity_fraction=purity,
        include_flip_relaxation=flips,
        noise_mode=mode,
        seed=seed,
        spectrum=spectrum,
        output=output,
        sha256=sha256,
    )


class _Section:
    """One JSON object; tracks consumed keys and reports leftovers."""

    def __init__(self, data: object, path: str) -> None:
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object")
        self.data = dict(data)
        self.path = path

    def take(self, key: str, default: object = _MISSING) -> object:
        if key in self.data:
            return self.data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self.path}.{key}: missing required key")
        return default

    def finish(self) -> None:
        if self.data:
            key = sorted(self.data)[0]
            raise ConfigError(f"{self.path}.{key}: unknown key")


def _parse_spin_system(data: object) -> SpinSystem:
    section = _Section(data, "spin_system")
    n_spins = _integer(section.take("n_spins"), "spin_system.n_spins")
    roles_raw = section.take("roles")
    if not isinstance(roles_raw, list):
        raise ConfigError("spin_system.roles: expected a list")
    roles = []
    for k, role in enumerate(roles_raw):
        role = _string(role, f"spin_system.roles[{k}]")
        if role not in ROLES:
            raise ConfigError(f"spin_system.roles[{k}]: must be one of {ROLES}, got {role!r}")
        roles.append(role)
    offsets = _number_list(
        section.take("offsets_hz", default=[0.0] * n_spins), "spin_system.offsets_hz"
    )
    couplings_raw = section.take("couplings", default=[])
    if not isinstance(couplings_raw, list):
        raise ConfigError("spin_system.couplings: expected a list")
    couplings = []
    for k, entry in enumerate(couplings_raw):
        couplings.append(_parse_coupling(entry, f"spin_system.couplings[{k}]"))
    section.finish()
    try:
        return SpinSystem(n_spins, tuple(roles), tuple(offsets), tuple(couplings))
    except ValueError as error:
        raise ConfigError(f"spin_system: {error}") from error


def _parse_coupling(data: object, path: str) -> Coupling:
    section = _Section(data, path)
    sites = section.take("sites")
    if not (isinstance(sites, list) and len(sites) == 2):
        raise ConfigError(f"{path}.sites: expected a pair of site indices")
    site_a = _integer(sites[0], f"{path}.sites[0]")
    site_b = _integer(sites[1], f"{path}.sites[1]")
    strength = _number(section.take("strength_hz"), f"{path}.strength_hz")
    kind = _string(section.take("kind"), f"{path}.kind")
    if kind not in COUPLING_KINDS:
        raise ConfigError(f"{path}.kind: must be one of {COUPLING_KINDS}, got {kind!r}")
    section.finish()
    try:
        return Coupling(site_a, site_b, strength, kind)
    except ValueError as error:
        raise ConfigError(f"{path}: {error}") from error


def _parse_noise(data: object, n_spins: int) -> NoiseModel:
    section = _Section(data, "noise")
    dephasing = _number_list(
        section.take("dephasing_per_s", default=[0.0] * n_spins), "noise.dephasing_per_s"
    )
    flips = _number_list(section.take("flip_per_s", default=[0.0] * n_spins), "noise.flip_per_s")
    if section.take("mc_phase_sigma", default=None) is not None:
        raise ConfigError(
            "noise.mc_phase_sigma: must be null; the Monte Carlo kick widths follow from "
            "noise.dephasing_per_s and the delay, sqrt(gamma_i * delay)"
        )
    trajectories = _integer(section.take("mc_trajectories", default=1000), "noise.mc_trajectories")
    section.finish()
    for name, values in (("dephasing_per_s", dephasing), ("flip_per_s", flips)):
        if len(values) != n_spins:
            raise ConfigError(f"noise.{name}: expected {n_spins} entries, got {len(values)}")
    try:
        return NoiseModel(tuple(dephasing), tuple(flips), mc_trajectories=trajectories)
    except ValueError as error:
        raise ConfigError(f"noise: {error}") from error


def _parse_weights(data: object) -> CatWeights:
    if data is None:
        return CatWeights.balanced()
    section = _Section(data, "protocol.weights")
    a = _complex_pair(section.take("a"), "protocol.weights.a")
    b = _complex_pair(section.take("b"), "protocol.weights.b")
    section.finish()
    try:
        return CatWeights(a, b)
    except ValueError as error:
        raise ConfigError(f"protocol.weights: {error}") from error


def _parse_spectrum(data: object) -> SpectrumSettings:
    section = _Section(data, "spectrum")
    linewidth = _number(section.take("linewidth_hz", default=2.0), "spectrum.linewidth_hz")
    if linewidth <= 0.0:
        raise ConfigError(f"spectrum.linewidth_hz: must be positive, got {linewidth}")
    grid_raw = section.take("grid", default=None)
    grid = None
    if grid_raw is not None:
        grid_section = _Section(grid_raw, "spectrum.grid")
        lo = _number(grid_section.take("min_hz"), "spectrum.grid.min_hz")
        hi = _number(grid_section.take("max_hz"), "spectrum.grid.max_hz")
        points = _integer(grid_section.take("points"), "spectrum.grid.points")
        grid_section.finish()
        if hi <= lo:
            raise ConfigError("spectrum.grid: max_hz must exceed min_hz")
        if points < 2:
            raise ConfigError("spectrum.grid.points: need at least 2 points")
        grid = (lo, hi, points)
    threshold = _number(section.take("peak_threshold", default=0.01), "spectrum.peak_threshold")
    if not 0.0 < threshold < 1.0:
        raise ConfigError(
            f"spectrum.peak_threshold: must lie strictly between 0 and 1, got {threshold}"
        )
    section.finish()
    return SpectrumSettings(linewidth, grid, threshold)


def _parse_output(data: object) -> OutputSettings:
    section = _Section(data, "output")
    directory = _string(section.take("directory", default="out"), "output.directory")
    formats_raw = section.take("formats", default=list(OUTPUT_FORMATS))
    if not isinstance(formats_raw, list) or not formats_raw:
        raise ConfigError("output.formats: expected a nonempty list")
    formats = []
    for k, fmt in enumerate(formats_raw):
        fmt = _string(fmt, f"output.formats[{k}]")
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output.formats[{k}]: must be one of {OUTPUT_FORMATS}, got {fmt!r}"
            )
        formats.append(fmt)
    section.finish()
    return OutputSettings(directory, tuple(dict.fromkeys(formats)))


def _number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if not _finite(value):
        raise ConfigError(f"{path}: expected a finite number")
    return float(value)


def _integer(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return int(value)


def _boolean(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _string(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _number_list(value: object, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of numbers")
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _complex_pair(value: object, path: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path}: expected [real, imaginary]")
    return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _finite(value: float) -> bool:
    return value == value and value not in (float("inf"), float("-inf"))
