"""JSON run configuration: the JSON layer over the library's own types.

Each key is read with its JSON type, unknown keys anywhere in the file
are rejected, and the values build ``SpinSystem``, ``Coupling``,
``NoiseModel``, ``CatWeights`` and one ``ProtocolConfig`` per delay, whose
own checks are the value rules; so every rule fires at load, whichever
command reads the file.  Each error starts with the offending key's
dotted path (for example ``spin_system.couplings[2].kind``), so typos
fail loudly.  The sha256 of a configuration, over its JSON with sorted
keys, is taken once every key has been read with its JSON type.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

from . import operators, spectra
from .dynamics import Coupling, NoiseModel, SpinSystem
from .protocol import ProtocolConfig
from .states import CatWeights

_MISSING = object()
_T = TypeVar("_T")
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
        return ProtocolConfig(
            system=self.system,
            noise=self.noise,
            weights=self.weights,
            delay_s=float(delay_s),
            purity_fraction=self.purity_fraction,
            include_flip_relaxation=self.include_flip_relaxation,
            noise_mode=self.noise_mode,
            seed=self.seed if seed is None else seed,
        )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigError(f"cannot read config file {path}: {error}") from error
    except UnicodeDecodeError as error:
        raise ConfigError(f"{path}: not UTF-8 text: {error}") from error
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as error:
        # ValueError covers JSONDecodeError and an integer literal past
        # Python's digit limit; RecursionError, arrays or objects nested
        # deeper than the interpreter's recursion limit.
        raise ConfigError(f"{path}: invalid JSON: {error}") from error
    return parse_config(data)


def parse_config(data: object) -> RunConfig:
    """Validate a decoded JSON object and build the typed configuration."""
    root = _Section(data, "config")
    system = _parse_spin_system(root.take("spin_system"))
    noise = _parse_noise(root.take("noise", default={}), system.n_spins)
    protocol = _Section(root.take("protocol", default={}), "protocol")
    weights = _parse_weights(protocol.take("weights", default=None))
    delays = _number_list(protocol.take("delays_s", default=[0.0, 0.1, 0.2]), "protocol.delays_s")
    if not delays:
        raise ConfigError("protocol.delays_s: need at least one delay")
    purity = _number(protocol.take("purity_fraction", default=1.0), "protocol.purity_fraction")
    flips = _boolean(
        protocol.take("include_flip_relaxation", default=False), "protocol.include_flip_relaxation"
    )
    mode = _string(protocol.take("noise_mode", default="analytic"), "protocol.noise_mode")
    seed = _integer(protocol.take("seed", default=0), "protocol.seed")
    protocol.finish()
    spectrum = _parse_spectrum(root.take("spectrum", default={}))
    output = _parse_output(root.take("output", default={}))
    root.finish()
    import hashlib  # not at the top: it loads OpenSSL, which only this hash needs

    sha256 = hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    config = RunConfig(
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
    # Every protocol rule fires here, at load, whichever command reads the file.
    for k, delay in enumerate(config.delays_s):
        paths = {"system": "spin_system", "noise": "noise", "delay_s": f"protocol.delays_s[{k}]"}
        _build("protocol.", config.protocol_config, delay, paths=paths)
    return config


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
            # str: a dict built in Python may mix key types.
            key = min(self.data, key=str)
            raise ConfigError(f"{self.path}.{key}: unknown key")


def _build(prefix: str, make: Callable[..., _T], *args: object, paths: dict | None = None) -> _T:
    """``make(*args)``, its ``ValueError`` re-raised as a ``ConfigError``
    whose message is ``prefix`` and the library's message.  A library type
    names the field it rejects first, by its JSON key, so the prefix
    ``spin_system.`` gives ``spin_system.roles[1] must be ...``; a check of
    one value takes ``path: ``.  ``paths`` maps a field that the config
    keeps under another key to that key's path.
    """
    try:
        return make(*args)
    except ValueError as error:
        message = str(error)
        field = re.match(r"\w*", message)[0]
        if paths and field in paths:
            raise ConfigError(paths[field] + message[len(field):]) from error
        raise ConfigError(prefix + message) from error


def _parse_spin_system(data: object) -> SpinSystem:
    section = _Section(data, "spin_system")
    n_spins = _integer(section.take("n_spins"), "spin_system.n_spins")
    # Checked before the default offsets, one per spin, are built.
    _build("spin_system.n_spins: ", operators._check_register_size, n_spins)
    roles = _string_list(section.take("roles"), "spin_system.roles")
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
    return _build("spin_system.", SpinSystem, n_spins, tuple(roles), tuple(offsets), tuple(couplings))


def _parse_coupling(data: object, path: str) -> Coupling:
    section = _Section(data, path)
    sites = section.take("sites")
    if not (isinstance(sites, list) and len(sites) == 2):
        raise ConfigError(f"{path}.sites: expected a pair of site indices")
    site_a = _integer(sites[0], f"{path}.sites[0]")
    site_b = _integer(sites[1], f"{path}.sites[1]")
    strength = _number(section.take("strength_hz"), f"{path}.strength_hz")
    kind = _string(section.take("kind"), f"{path}.kind")
    section.finish()
    return _build(f"{path}.", Coupling, site_a, site_b, strength, kind)


def _parse_noise(data: object, n_spins: int) -> NoiseModel:
    section = _Section(data, "noise")
    dephasing = _number_list(
        section.take("dephasing_per_s", default=[0.0] * n_spins), "noise.dephasing_per_s"
    )
    # Sized like the dephasing rates, so a wrong length is reported on the list given.
    flips = _number_list(
        section.take("flip_per_s", default=[0.0] * len(dephasing)), "noise.flip_per_s"
    )
    if section.take("mc_phase_sigma", default=None) is not None:
        raise ConfigError(
            "noise.mc_phase_sigma: must be null; the Monte Carlo kick widths follow from "
            "noise.dephasing_per_s and the delay, sqrt(gamma_i * delay)"
        )
    trajectories = _integer(section.take("mc_trajectories", default=1000), "noise.mc_trajectories")
    section.finish()
    # NoiseModel names flip_per_s for lists of unequal length; name the wrong one.
    wrong = len(flips) != len(dephasing) and len(dephasing) != n_spins
    prefix = "noise.dephasing_per_s: " if wrong else "noise."
    return _build(prefix, NoiseModel, tuple(dephasing), tuple(flips), trajectories)


def _parse_weights(data: object) -> CatWeights:
    if data is None:
        return CatWeights.balanced()
    section = _Section(data, "protocol.weights")
    a = _complex_pair(section.take("a"), "protocol.weights.a")
    b = _complex_pair(section.take("b"), "protocol.weights.b")
    section.finish()
    return _build("protocol.weights: ", CatWeights, a, b)


def _parse_spectrum(data: object) -> SpectrumSettings:
    section = _Section(data, "spectrum")
    linewidth = _number(section.take("linewidth_hz", default=2.0), "spectrum.linewidth_hz")
    _build("spectrum.linewidth_hz: ", spectra._check_linewidth, linewidth)
    grid_raw = section.take("grid", default=None)
    grid = None
    if grid_raw is not None:
        grid_section = _Section(grid_raw, "spectrum.grid")
        lo = _number(grid_section.take("min_hz"), "spectrum.grid.min_hz")
        hi = _number(grid_section.take("max_hz"), "spectrum.grid.max_hz")
        points = _integer(grid_section.take("points"), "spectrum.grid.points")
        grid_section.finish()
        grid = (lo, hi, points)
        _build("spectrum.grid: ", spectra._check_grid, grid)
    threshold = _number(section.take("peak_threshold", default=0.01), "spectrum.peak_threshold")
    _build("spectrum.peak_threshold: ", spectra._check_threshold, threshold)
    section.finish()
    return SpectrumSettings(linewidth, grid, threshold)


def _parse_output(data: object) -> OutputSettings:
    section = _Section(data, "output")
    directory = _string(section.take("directory", default="out"), "output.directory")
    formats = _string_list(section.take("formats", default=list(OUTPUT_FORMATS)), "output.formats")
    if not formats:
        raise ConfigError("output.formats: expected a nonempty list")
    for k, fmt in enumerate(formats):
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output.formats[{k}]: must be one of {OUTPUT_FORMATS}, got {fmt!r}"
            )
    section.finish()
    return OutputSettings(directory, tuple(dict.fromkeys(formats)))


def _number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        # A JSON integer literal can exceed every float.
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number")
    return number


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


def _string_list(value: object, path: str) -> list[str]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of strings")
    return [_string(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _number_list(value: object, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of numbers")
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _complex_pair(value: object, path: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path}: expected [real, imaginary]")
    return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))
