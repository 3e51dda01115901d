"""The benchmark's hooks into the package must keep working.

``perfbench/spans.py`` lists, per spincat module, the public functions it
wraps with timing spans; a name that disappears from the package would
make every traced benchmark run fail.  The span list is read from the
file's source, so nothing is written under ``perfbench/``.  The
benchmark's own unit tests pin counts of the package's work (for
example the ``DensityMatrix`` constructions of one protocol run), so
they run here too, without writing bytecode under ``perfbench/``.  The
ring7 outputs are compared with the benchmark's stored reference here
too, as its ``cli.outputs_identical`` metric compares them.
"""

import importlib
import json
import math
import os
import subprocess
import sys
import types

from spincat import states
from spincat.cli import main
from _support import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"


def _snapshot() -> dict[str, tuple[int, int]]:
    return {
        str(path.relative_to(PERFBENCH)): (path.stat().st_mtime_ns, path.stat().st_size)
        for path in PERFBENCH.rglob("*")
    }


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_names_resolve_to_callables():
    before = _snapshot()
    traced = _load("spans").TRACED
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"spincat.{layer}"), name, None))
    ]
    assert missing == []
    # DensityMatrix is traced through its validation hook.
    assert "DensityMatrix" in traced["states"]
    assert "__post_init__" in vars(states.DensityMatrix)
    assert _snapshot() == before


def test_benchmark_unit_tests_pass():
    before = _snapshot()
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-B", "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    assert _snapshot() == before


def _pop_step_fidelities(report: dict) -> list[float]:
    return [step.pop("fidelity") for run in report["runs"] for step in run["steps"]]


def test_ring7_outputs_match_the_stored_reference(tmp_path, capsys):
    # The four ring7 commands run only analytic channels, so at seed 0
    # every output file is byte-identical to the stored reference but one:
    # the stored protocol report predates the step fidelities summed over
    # the target's four elements, which moved them by at most one ulp.
    before = _snapshot()
    commands = _load("checks").RING7_COMMANDS
    config = REPO_ROOT / "configs" / "ring7.json"
    for command in commands:
        assert main([*command, "--config", str(config), "--out", str(tmp_path), "--seed", "0"]) == 0
    capsys.readouterr()
    references = sorted((PERFBENCH / "reference" / "ring7").iterdir())
    assert [path.name for path in references] == sorted(path.name for path in tmp_path.iterdir())
    differing = [path.name for path in references if (tmp_path / path.name).read_bytes() != path.read_bytes()]
    assert differing in ([], ["protocol_report.json"])
    produced = json.loads((tmp_path / "protocol_report.json").read_text())
    expected = json.loads((PERFBENCH / "reference" / "ring7" / "protocol_report.json").read_text())
    got, want = _pop_step_fidelities(produced), _pop_step_fidelities(expected)
    assert produced == expected
    assert all(abs(g - w) <= math.ulp(w) for g, w in zip(got, want))
    assert _snapshot() == before
