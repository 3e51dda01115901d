"""The public surface of the package: the names ``spincat`` exports and
the ones the README lists."""

import json
import os
import re
import subprocess
import sys
import types

import spincat
from _support import REPO_ROOT, REPRESENTATION_NAMES, RING7_CONFIG

# Adding or removing an export is a decision: change this set with it.
PUBLIC_NAMES = {
    "CatWeights",
    "ConfigError",
    "Coupling",
    "DecayFit",
    "DensityMatrix",
    "FitError",
    "NoiseModel",
    "Peak",
    "ProtocolConfig",
    "ProtocolReport",
    "RegressionResult",
    "RunConfig",
    "Spectrum",
    "SpinSystem",
    "StateInvariantError",
    "StepRecord",
    "apply_dephasing",
    "apply_flip_relaxation",
    "apply_phase_kicks_mc",
    "apply_unitary",
    "build_hamiltonian",
    "cat_state",
    "coherence_orders",
    "controlled_not_all",
    "decohered_mixture",
    "dephasing_rate_for_lifetime",
    "ferro_state",
    "fidelity",
    "fit_exponential",
    "flip_rate_for_lifetime",
    "linear_regression",
    "linear_response_spectrum",
    "load_config",
    "measure_diagonal_decay",
    "measure_nq_decay",
    "nq_amplitude",
    "parse_config",
    "partial_trace",
    "peak_list",
    "pseudopure",
    "purity",
    "reduced_state",
    "run_protocol",
    "scaling_study",
    "thermal_state",
    "total_spin_operator",
    "von_neumann_entropy",
}


def test_exported_names_are_pinned():
    # Submodules become attributes of the package as they are imported,
    # so they are not part of the pinned set.
    exported = {
        name
        for name, value in vars(spincat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_tests_name_no_part_of_the_state_representation():
    # Tests read states through the public API and the hooks of
    # tests/_support.py, so a change of representation edits that file alone.
    pattern = re.compile(r"\b(?:" + "|".join(REPRESENTATION_NAMES) + r")\b")
    tests = REPO_ROOT / "tests"
    named = [
        f"{path.name}:{number}: {line.strip()}"
        for path in [*sorted(tests.glob("test_*.py")), tests / "output_digest.py"]
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert named == []


def test_readme_api_paragraph_names_resolve():
    lines = (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    opening = "Lower-level pieces are importable directly"
    start = next(i for i, line in enumerate(lines) if line.startswith(opening))
    end = lines.index("", start)
    names = re.findall(r"`([^`]+)`", " ".join(lines[start:end]))
    assert len(names) >= 10
    missing = [name for name in names if not hasattr(spincat, name)]
    assert not missing


def test_cli_imports_only_numpy_beside_the_standard_library(tmp_path):
    # numpy is the only runtime dependency: the four ring7 commands load no
    # other package, even one that is installed.  Modules the interpreter
    # loaded at start-up (site hooks) are not the package's, and numpy's
    # compiled modules register Cython's runtime under names of their own.
    script = """
import json, sys
startup = set(sys.modules)
import spincat.cli
config, out = sys.argv[1:]
for command in (["run-protocol"], ["decay-scan", "--which", "nq"], ["spectrum", "--decouple"], ["scaling", "--n-max", "7"]):
    assert spincat.cli.main([*command, "--config", config, "--out", out, "--seed", "0"]) == 0
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - startup})))
"""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-B", "-c", script, str(RING7_CONFIG), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert {"numpy", "spincat"} <= set(loaded)
    foreign = [
        name
        for name in loaded
        if name not in sys.stdlib_module_names
        and name not in ("numpy", "spincat", "cython_runtime")
        and not name.startswith("_cython_")
    ]
    assert foreign == []
