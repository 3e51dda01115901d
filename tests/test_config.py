"""JSON configuration parsing, strict validation, and hashing."""

import copy
import json

import pytest

from spincat import ConfigError, ProtocolConfig, load_config, parse_config
from _support import RING7_CONFIG

GAMMA_7Q = 9.852216748768472
KAPPA_PROTON = 1.0204081632653061


def minimal_config(**overrides):
    data = {
        "spin_system": {
            "n_spins": 2,
            "roles": ["control", "system"],
        }
    }
    data.update(copy.deepcopy(overrides))
    return data


class TestShippedConfig:
    def test_ring_config_loads(self):
        config = load_config(RING7_CONFIG)
        assert config.system.n_spins == 7
        assert config.system.roles == ("control",) + ("system",) * 6
        assert config.system.control_sites == (0,)
        assert config.system.system_sites == tuple(range(1, 7))
        ring = [c for c in config.system.couplings if c.kind == "homonuclear_dipolar"]
        hetero = [c for c in config.system.couplings if c.kind == "heteronuclear_zz"]
        assert len(ring) == 15  # 6 ortho + 6 meta + 3 para
        assert len(hetero) == 6  # control to every ring site
        one_bond = [c for c in hetero if c.pair == (0, 1)]
        assert one_bond[0].strength_hz == 160.0
        assert all(c.strength_hz == 6.0 for c in hetero if c.pair != (0, 1))

    def test_ring_noise_calibration(self):
        config = load_config(RING7_CONFIG)
        assert config.noise.dephasing_per_s == (GAMMA_7Q,) * 7
        assert config.noise.flip_per_s == (0.0,) + (KAPPA_PROTON,) * 6
        assert config.noise.mc_trajectories == 1000

    def test_ring_protocol_settings(self):
        config = load_config(RING7_CONFIG)
        assert config.delays_s[0] == 0.0
        assert config.delays_s[-1] == pytest.approx(0.2)
        assert len(config.delays_s) == 9
        assert config.purity_fraction == 1.0
        assert config.include_flip_relaxation is False
        assert config.noise_mode == "analytic"
        assert config.seed == 20260815
        assert abs(config.weights.a) == pytest.approx(abs(config.weights.b))

    def test_protocol_config_round_trip(self):
        config = load_config(RING7_CONFIG)
        protocol = config.protocol_config(0.2)
        assert isinstance(protocol, ProtocolConfig)
        assert protocol.delay_s == 0.2
        assert protocol.seed == config.seed
        assert config.protocol_config(0.1, seed=5).seed == 5

    def test_sha256_is_content_hash(self):
        config = load_config(RING7_CONFIG)
        raw = json.loads(RING7_CONFIG.read_text())
        assert config.sha256 == parse_config(raw).sha256
        # key order must not matter
        reordered = json.loads(json.dumps(raw, sort_keys=True))
        assert parse_config(reordered).sha256 == config.sha256
        raw["protocol"]["seed"] += 1
        assert parse_config(raw).sha256 != config.sha256


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        config = parse_config(minimal_config())
        assert config.noise.dephasing_per_s == (0.0, 0.0)
        assert config.noise.flip_per_s == (0.0, 0.0)
        assert config.delays_s == (0.0, 0.1, 0.2)
        assert config.purity_fraction == 1.0
        assert config.include_flip_relaxation is False
        assert config.noise_mode == "analytic"
        assert config.seed == 0
        assert config.weights.a == pytest.approx(config.weights.b)
        assert config.spectrum.linewidth_hz == 2.0
        assert config.spectrum.grid_hz is None
        assert config.spectrum.peak_threshold == 0.01
        assert config.output.directory == "out"
        assert config.output.formats == ("csv", "json")
        assert config.system.offsets_hz == (0.0, 0.0)
        assert config.system.couplings == ()

    def test_weights_section_parsed(self):
        data = minimal_config(protocol={"weights": {"a": [0.6, 0.0], "b": [0.0, 0.8]}})
        config = parse_config(data)
        assert config.weights.a == pytest.approx(0.6)
        assert config.weights.b == pytest.approx(0.8j)

    def test_spectrum_grid_parsed(self):
        data = minimal_config(
            spectrum={"grid": {"min_hz": -10.0, "max_hz": 10.0, "points": 101}}
        )
        assert parse_config(data).spectrum.grid_hz == (-10.0, 10.0, 101)

    def test_duplicate_output_formats_deduplicated(self):
        data = minimal_config(output={"formats": ["json", "json", "csv"]})
        assert parse_config(data).output.formats == ("json", "csv")


class TestValidation:
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("spin_system"), "config.spin_system"),
            (lambda d: d["spin_system"].pop("n_spins"), "spin_system.n_spins"),
            (lambda d: d["spin_system"].update(n_spins="two"), "spin_system.n_spins"),
            (lambda d: d["spin_system"].update(n_spins=True), "spin_system.n_spins"),
            (lambda d: d["spin_system"].update(rolez=[]), "spin_system.rolez"),
            (lambda d: d.update(extra=1), "config.extra"),
            (lambda d: d["spin_system"].update(roles=["control", "ancilla"]), "roles[1]"),
            (lambda d: d["spin_system"].update(offsets_hz=[0.0]), "spin_system"),
            (lambda d: d["spin_system"].update(offsets_hz=[0.0, "x"]), "offsets_hz[1]"),
            (lambda d: d.update(noise={"dephasing_per_s": [1.0]}), "noise.dephasing_per_s"),
            (lambda d: d.update(noise={"mc_trajectories": 0}), "noise"),
            (lambda d: d.update(protocol={"delays_s": [-0.1]}), "protocol.delays_s[0]"),
            (lambda d: d.update(protocol={"delays_s": []}), "protocol.delays_s"),
            (lambda d: d.update(protocol={"purity_fraction": 0.0}), "purity_fraction"),
            (lambda d: d.update(protocol={"purity_fraction": 1.5}), "purity_fraction"),
            (lambda d: d.update(protocol={"noise_mode": "stochastic"}), "noise_mode"),
            (lambda d: d.update(protocol={"seed": 1.5}), "protocol.seed"),
            (lambda d: d.update(protocol={"include_flip_relaxation": 1}), "include_flip"),
            (lambda d: d.update(protocol={"weights": {"a": [1.0, 0.0]}}), "weights.b"),
            (lambda d: d.update(protocol={"weights": {"a": [1.0], "b": [0.0, 0.0]}}), "weights.a"),
            (lambda d: d.update(protocol={"weights": {"a": [0.9, 0.0], "b": [0.9, 0.0]}}), "weights"),
            (lambda d: d.update(spectrum={"linewidth_hz": 0.0}), "linewidth_hz"),
            (lambda d: d.update(spectrum={"peak_threshold": 1.0}), "peak_threshold"),
            (
                lambda d: d.update(
                    spectrum={"grid": {"min_hz": 1.0, "max_hz": -1.0, "points": 5}}
                ),
                "spectrum.grid",
            ),
            (
                lambda d: d.update(
                    spectrum={"grid": {"min_hz": -1.0, "max_hz": 1.0, "points": 1}}
                ),
                "points",
            ),
            (lambda d: d.update(output={"formats": []}), "output.formats"),
            (lambda d: d.update(output={"formats": ["yaml"]}), "output.formats[0]"),
            (lambda d: d.update(output={"directory": 7}), "output.directory"),
        ],
    )
    def test_bad_configs_name_the_offending_path(self, mutate, fragment):
        data = minimal_config()
        mutate(data)
        with pytest.raises(ConfigError, match=fragment.replace("[", r"\[").replace("]", r"\]")):
            parse_config(data)

    @pytest.mark.parametrize("sigma", [[0.1, 0.2], [0.1], [], 0.3, "wide"])
    def test_mc_phase_sigma_must_be_null(self, sigma):
        # The kick widths are sqrt(gamma_i * delay); a configured width would go unread.
        with pytest.raises(
            ConfigError, match=r"noise\.mc_phase_sigma: .*noise\.dephasing_per_s and the delay"
        ):
            parse_config(minimal_config(noise={"mc_phase_sigma": sigma}))

    def test_mc_phase_sigma_null_or_absent_is_accepted(self):
        assert parse_config(minimal_config(noise={"mc_phase_sigma": None})).noise.mc_phase_sigma is None
        assert parse_config(minimal_config()).noise.mc_phase_sigma is None
        assert load_config(RING7_CONFIG).noise.mc_phase_sigma is None

    def test_coupling_errors_carry_index(self):
        data = minimal_config()
        data["spin_system"]["couplings"] = [
            {"sites": [0, 1], "strength_hz": 10.0, "kind": "heteronuclear_zz"},
            {"sites": [0, 1], "strength_hz": 10.0, "kind": "scalar"},
        ]
        with pytest.raises(ConfigError, match=r"couplings\[1\]\.kind"):
            parse_config(data)
        data["spin_system"]["couplings"][1]["kind"] = "heteronuclear_zz"
        with pytest.raises(ConfigError, match="spin_system"):
            parse_config(data)  # duplicate pair

    def test_coupling_site_out_of_range(self):
        data = minimal_config()
        data["spin_system"]["couplings"] = [
            {"sites": [0, 5], "strength_hz": 10.0, "kind": "heteronuclear_zz"}
        ]
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError, match="config"):
            parse_config([1, 2, 3])

    def test_non_finite_number_rejected(self):
        data = minimal_config(noise={"dephasing_per_s": [float("inf"), 0.0]})
        with pytest.raises(ConfigError, match="dephasing_per_s"):
            parse_config(data)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_round_trip_matches_parse(self, tmp_path):
        data = minimal_config()
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(data))
        assert load_config(path).sha256 == parse_config(data).sha256

    def test_protocol_config_requires_control_first(self):
        data = {
            "spin_system": {"n_spins": 2, "roles": ["system", "control"]}
        }
        config = parse_config(data)
        with pytest.raises(ConfigError):
            config.protocol_config(0.0)
