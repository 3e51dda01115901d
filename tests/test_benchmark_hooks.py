"""The benchmark's hooks into the package must keep working.

``perfbench/spans.py`` lists, per spincat module, the public functions it
wraps with timing spans; a name that disappears from the package would
make every traced benchmark run fail.  The span list is read from the
file's source, so nothing is written under ``perfbench/``.  The
benchmark's own unit tests pin counts of the package's work (for
example the ``DensityMatrix`` constructions of one protocol run), so
they run here too, without writing bytecode under ``perfbench/``.
"""

import importlib
import os
import subprocess
import sys
import types

from spincat import states
from _support import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"


def _snapshot() -> dict[str, tuple[int, int]]:
    return {
        str(path.relative_to(PERFBENCH)): (path.stat().st_mtime_ns, path.stat().st_size)
        for path in PERFBENCH.rglob("*")
    }


def _load_spans() -> types.ModuleType:
    path = PERFBENCH / "spans.py"
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_names_resolve_to_callables():
    before = _snapshot()
    traced = _load_spans().TRACED
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
