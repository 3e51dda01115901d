"""Standing mutation table: the mutation checks of CHANGES.md, rerunnable.

    python3 tests/mutants.py

Each mutant is one exact text edit of one file, named after the fault it
plants and the commit whose CHANGES.md entry recorded the check, with the
test file that kills it.  For each mutant the whole checkout, without
``.git``, is copied to a temporary directory and edited there, and tests
run in the copy, stopping at their first failure; so the package,
``tests/_support.REPO_ROOT``, the CLI child processes and the benchmark's
unit tests all see the mutant, and the checkout is never written.  The
mutant's own test file runs first, and tier-1 runs only if the mutant
survives it.  Two mutants run at a time.  One line is printed per mutant, in table order: ``killed by
<nodeid>``, the first test that failed; ``SURVIVED``, tier-1 passed; or
``does not apply``, the old text is not found exactly once.  A mutant
that only tier-1 kills is marked ``(not by <its test file>)``, so that
the table's file can be corrected.  The unmutated copy must pass tier-1
first.  Tests in a mutated copy run with the mutant's name in the
environment variable ``SPINCAT_PLANTED_MUTANT``, so that the test that
every entry applies knows that one text is gone.

:func:`outcome` runs one mutant with any pytest arguments, the whole
suite by default.  pytest does not collect this file.  A run takes about
6 minutes on 2 cores.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
# Tier-1, stopped at the first failure, leaving no cache in the copy.
TIER_1 = ("-x", "-q", "-p", "no:cacheprovider")
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_work")
# A failure in pytest's short summary: "FAILED <nodeid> - <message>".
_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)
# The environment variable that names the mutant planted in a copy.
PLANTED = "SPINCAT_PLANTED_MUTANT"
# Mutants run at a time, one per core of a 2-core host.
WORKERS = 2


class Mutant(NamedTuple):
    """Replace ``old``, which must occur once, by ``new`` in ``path``;
    ``test`` is the test file that kills it, run first."""

    name: str
    path: str
    old: str
    new: str
    test: str


ANALYSIS, CLI, CONFIG = "src/spincat/analysis.py", "src/spincat/cli.py", "src/spincat/config.py"
DYNAMICS, OPERATORS = "src/spincat/dynamics.py", "src/spincat/operators.py"
PROTOCOL, STATES = "src/spincat/protocol.py", "src/spincat/states.py"


def M(name: str, path: str, old: str, new: str, test: str) -> Mutant:
    """An entry whose killing test file is ``tests/test_<test>.py``."""
    return Mutant(name, path, old, new, f"tests/test_{test}.py")


MUTANTS = (
    M("dephasing rate x0.9 (27fbdcc)", DYNAMICS, "rates = np.asarray(", "rates = 0.9 * np.asarray(",
      "acceptance"),
    M("kick width x1.3 (27fbdcc)", DYNAMICS, "sigma = np.sqrt(", "sigma = 1.3 * np.sqrt(",
      "acceptance"),
    M("Cholesky diagonal not restored (5954d9a)", STATES, "diagonal[...] = saved", "pass",
      "acceptance"),
    M("Cholesky diagonal restored only on success (5954d9a)", STATES,
      "True\n    except np.linalg.LinAlgError:\n        certified = False\n    finally:\n",
      "True\n        diagonal[...] = saved\n    except np.linalg.LinAlgError:\n"
      "        certified = False\n    if 0:\n", "states"),
    M("no Cholesky shift by POSITIVITY_TOL (5954d9a)", STATES, "diagonal += POSITIVITY_TOL", "pass",
      "states"),
    M("rejected on a failed Cholesky, no eigvalsh (5954d9a)", STATES,
      "float(np.linalg.eigvalsh(dense)[0])", "-math.inf", "states"),
    M("main without its LinAlgError branch (5954d9a)", CLI,
      "(np.linalg.LinAlgError, MemoryError)", "MemoryError", "cli"),
    M("Hamiltonian flip-flop at r | c (301b068)", DYNAMICS,
      "rows, rows ^ operators", "rows, rows | operators", "benchmark_hooks"),
    M("flip-flops on parallel pairs (301b068)", DYNAMICS, "index[sz[i] != sz[j]]", "index[sz[i] == sz[j]]",
      "acceptance"),
    M("an extra DensityMatrix per run (301b068)", PROTOCOL,
      'decohere", rho, entangled)', 'decohere", rho, reference("decohere"))', "benchmark_hooks"),
    M("kick widths sqrt(gamma) * t (d20306c)", DYNAMICS, "dephasing_per_s) * t)", "dephasing_per_s)) * t",
      "analysis"),
    M("step D kicking with seed 0 (d20306c)", PROTOCOL, "(rho, noise, t, config.seed)", "(rho, noise, t, 0)",
      "dense_oracle"),
    M("a scan without per-point seeds (d20306c)", PROTOCOL, ", seed=point_seed)", ")",
      "dense_oracle"),
    M("a bool trajectory count accepted (d20306c)", DYNAMICS, "isinstance(trajectories, bool) or ", "",
      "dynamics"),
    M("kick arguments unchecked (d20306c)", DYNAMICS,
      "_check_channel_args(rho, noise, t)\n    sigma", "sigma", "analysis"),
    M("pair Hermiticity read over no pairs (c5e3333)", STATES,
      "if pairs.size:\n                upper, lower", "if True:\n                upper, lower", "acceptance"),
    M("bool accepted as an integer (c5e3333)", OPERATORS, " and not isinstance(value, bool)", "",
      "analysis"),
    M("coupling sites unchecked (c5e3333)", DYNAMICS, "if not 0 <= site < self.n_spins:", "if False:",
      "config"),
    M("scaling study int(n) before its check (c5e3333)", ANALYSIS,
      "operators._check_register_size(n)\n        n = int(n)",
      "n = int(n)\n        operators._check_register_size(n)", "analysis"),
    M("flip relaxation without e^(-kappa t) (2a500c8)", DYNAMICS, "pairs *= e1", "pass",
      "acceptance"),
    M("seed checked by isinstance(seed, int) (2a500c8)", OPERATORS,
      "not _is_integer(seed)", "not isinstance(seed, int)", "config"),
    M("cat and entangled references swapped (2a500c8)", PROTOCOL,
      '"create_cat": {0: a, system_mask: b},\n        "entangle": entangled,',
      '"create_cat": entangled,\n        "entangle": {0: a, system_mask: b},', "acceptance"),
    M("S+ transposed (e838791)", OPERATORS, "out[down ^ bit, down]", "out[down, down ^ bit]",
      "benchmark_hooks"),
    M("decohered mixture weights swapped (e838791)", STATES,
      "[weights.a, weights.b]", "[weights.b, weights.a]", "protocol"),
    M("step A purity weight x(1 + 1e-9) (a22ab5e)", STATES,
      "values = f * target", "values = f * (1 + 1e-9) * target", "acceptance"),
    M("step B rotation phase e^(1e-9 i) (a22ab5e)", PROTOCOL,
      "rotation = np.array(", "rotation = np.exp(1e-9j) * np.array(", "analysis"),
    M("step C mask without one system spin (a22ab5e)", PROTOCOL,
      "system_sites, n)\n    control_mask", "system_sites[1:], n)\n    control_mask", "analysis"),
    M("step D dephasing factor x(1 + 1e-9) (a22ab5e)", DYNAMICS,
      "np.exp(-0.5 * t * decay)", "np.exp(-0.5 * (1 + 1e-9) * t * decay)", "analysis"),
    M("step D flip rate x(1 + 1e-9) (a22ab5e)", DYNAMICS,
      "kappa_t = rate * t", "kappa_t = rate * t * (1 + 1e-9)", "analysis"),
    M("step E with one target dropped (a22ab5e)", PROTOCOL,
      "control, config.system.system_sites)", "control, config.system.system_sites[1:])",
      "acceptance"),
    M("both pair eigenvalues mean + radius (73212dd)", STATES,
      "spectrum[low] = mean - radius", "spectrum[low] = mean + radius", "analysis"),
    M("pair eigenvalues without (p - q)/2 (73212dd)", STATES,
      "(p + q) - np.hypot(p - q, np.abs(lower))", "(p + q) - np.abs(lower)", "states"),
    M("|rho_rr| for its real part (73212dd)", STATES, "spectrum = values[0].real", "spectrum = abs(values[0])",
      "cli"),
    M("a writable bit_table (73212dd)", OPERATORS, "& 1\n    table.flags.writeable = False", "& 1",
      "operators"),
    M("the npz check disabled (73212dd)", CLI, "if not isinstance(matrix, np.ndarray):", "if False:",
      "cli"),
    M("scipy imported by the CLI (73212dd)", CLI,
      "import numpy as np\n", "import numpy as np\nimport scipy  # noqa: F401\n", "api"),
    M("the kick support read by row only (73212dd)", DYNAMICS,
      "supported |= states._mirrors(", "supported & states._mirrors(", "states"),
    M("positivity as eigmin < -tol (4c152f2)", STATES,
      "if not eigmin >= -POSITIVITY_TOL:", "if eigmin < -POSITIVITY_TOL:", "states"),
    M("an untyped Sz table cache (4c152f2)", OPERATORS, ", typed=True)\ndef _sz_table", ")\ndef _sz_table",
      "operators"),
    M("an untyped _trace_plan (6874059)", OPERATORS, ", typed=True)\ndef _trace_plan", ")\ndef _trace_plan",
      "operators"),
    M("an untyped _site_mask (6874059)", OPERATORS, ", typed=True)\ndef _site_mask", ")\ndef _site_mask",
      "operators"),
    M("a writable trace-plan order (6874059)", OPERATORS, "order.flags.writeable = False", "pass",
      "operators"),
    M("reduced_state summed by tensor.sum (6874059)", STATES,
      "np.cumsum(tensor, axis=2)[:, :, -1]", "tensor.sum(axis=2)", "analysis"),
    M("pair Hermiticity without conj (567daff)", STATES,
      "np.abs(np.conj(upper) - lower)", "np.abs(upper - lower)", "acceptance"),
    M("the diagonal |Im d| unchecked (567daff)", STATES,
      "np.abs(values[0].imag).max() <= 0.5 * HERMITIAN_TOL", "True", "states"),
    M("pair kick: lower element times f (567daff)", DYNAMICS,
      "(factor, factor.conj())", "(factor, factor)", "acceptance"),
    M("pair states kicked whole (567daff)", DYNAMICS, "if rho._blocks is None:", "if True:",
      "analysis"),
    M("the class scan skipping NaN (838f4a6)", STATES,
      "flat[cols + row_starts].any(axis=1)", "(abs(flat[cols + row_starts]) > 0).any(axis=1)",
      "states"),
    M("the pair read skipping NaN (7e3370a)", STATES,
      "nonzero = values[-1] != 0", "nonzero = abs(values[-1]) > 0", "states"),
    M("all-zero classes kept (7e3370a)", STATES, "if not occupied.all():", "if False:", "analysis"),
    M("flip partner of a wrong bit at 10 spins (a14e9f7)", DYNAMICS,
      "_spin_axis(values, site, n)", "_spin_axis(values, site if n < 10 else site + 1 if site + 1 < n else n - 2, n)",
      "dynamics"),
    M("hashlib imported with the package (9c30b6f)", CONFIG,
      "import json\n", "import hashlib  # noqa: F401\nimport json\n", "protocol"),
    M("coherence weights of the first two classes only (state zoo)", STATES,
      "_class_slices(rho._classes, rho.dim):\n            order",
      "_class_slices(rho._classes[:2], rho.dim):\n            order",
      "states"),
    M("purity of the first two classes only (state zoo)", STATES,
      "np.vdot(rho._values, rho._values)", "np.vdot(rho._values[:2], rho._values[:2])", "states"),
    M("fidelity over the target's first two classes only (state zoo)", STATES,
      "np.nonzero(target._values)", "np.nonzero(target._values[:2])", "states"),
    M("the whole kick's C read at basis indices, not support positions (state zoo)", DYNAMICS,
      "position = np.cumsum(supported) - 1", "position = np.arange(rho.dim)", "states"),
    M("the whole kick drops its last partial block of trajectories (state zoo)", DYNAMICS,
      "range(0, len(phases), _KICK_BLOCK):\n        phi",
      "range(0, max(len(phases) - _KICK_BLOCK + 1, 1), _KICK_BLOCK):\n        phi", "dynamics"),
    M("the NaN-trace term dropped (single pass)", STATES, "trace != trace or ", "", "states"),
    M("an all-zero coherence row kept on the pair route (single pass)", STATES,
      "elif classes.size == 2 and not values[1].any():", "elif False:", "states"),
    M("a dropped row's diagonal a view of the caller's array (single pass)", STATES,
      "values[:1].copy()", "values[:1]", "states"),
    M("positivity read from the diagonal alone (single pass)", STATES,
      "eigmin = float(spectrum.min())", "eigmin = float(values[0].real.min())", "states"),
    M("validation warning on an inf - inf trace (single pass)", STATES,
      '@np.errstate(invalid="ignore", over="ignore")\n    def __post_init__', "def __post_init__",
      "states"),
    M("a library error without its JSON path (one home per rule)", CONFIG,
      "raise ConfigError(prefix + message) from error", "raise ConfigError(message) from error",
      "cli"),
    M("a ProtocolConfig built at the first delay only (one home per rule)", CONFIG,
      "for k, delay in enumerate(config.delays_s):", "for k, delay in enumerate(config.delays_s[:1]):",
      "config"),
    M("purity fraction bound widened to 1.5 (one home per rule)", STATES,
      "if not 0.0 < f <= 1.0:", "if not 0.0 < f <= 1.5:", "config"),
    M("_RunContext without its seed check (one function per rule)", CLI,
      '        _build("", operators._check_seed, self.seed, paths={"seed": "--seed"})\n', "",
      "cli"),
    M("the shared site check accepting a repeat (one function per rule)", OPERATORS,
      "if len(set(sites)) != len(sites):", "if False:", "operators"),
    M("a flip mixed along a neighbouring spin's axis (index structure)", DYNAMICS,
      "_spin_axis(values, site, n)", "_spin_axis(values, (site + 1) % n, n)", "acceptance"),
    M("step B's columns rotated by u, not conj(u) (index structure)", PROTOCOL,
      "rotation.conj()", "rotation", "analysis"),
    M("coherence weights with every pair element at order 0 (pair diagnostics)", STATES,
      "order = ups.take(at) - ups.take(at ^ rho._classes[-1]) + n", "order = 0 * at + n", "analysis"),
    M("fidelity against a target of pairs read at its diagonal only (pair diagnostics)", STATES,
      "at = at[row.take(at) != 0]", "at = at[:0]", "acceptance"),
    M("fidelity reading a class of the target's that rho does not occupy (pair diagnostics)", STATES,
      "if rho._classes[k] == x else", "if True else", "states"),
    M("entropy of a state without pairs missing its smallest eigenvalue (pair diagnostics)", STATES,
      "eigs = np.sort(values[0].real)", "eigs = np.sort(values[0].real)[1:]", "analysis"),
)


@contextlib.contextmanager
def _checkout():
    """A copy of the checkout, without ``.git`` or bytecode, removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="spincat-mutant-") as tmp:
        root = Path(tmp) / "checkout"
        shutil.copytree(REPO_ROOT, root, ignore=_NOT_COPIED)
        yield root


def _first_failure(root: Path, pytest_args: tuple[str, ...], planted: str = "") -> str | None:
    """The node id of the first failure of ``TIER_1`` and ``pytest_args``
    run in the copy at ``root``, in which the mutant named ``planted``, if
    any, is planted, or ``None`` if it passed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env[PLANTED] = planted
    command = [sys.executable, "-m", "pytest", *TIER_1, *pytest_args]
    result = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return None
    failure = _FAILURE.search(result.stdout)
    return failure.group(1) if failure else f"pytest exit {result.returncode}"


def applies(mutant: Mutant) -> bool:
    """Whether ``mutant.old`` occurs exactly once in its file."""
    return (REPO_ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1


def outcome(mutant: Mutant, pytest_args: tuple[str, ...] = ()) -> str:
    """``killed by <nodeid>``, ``SURVIVED`` or ``does not apply``: ``mutant``
    in a fresh copy, under ``TIER_1`` and ``pytest_args`` (the whole suite
    by default)."""
    if not applies(mutant):
        return "does not apply"
    text = (REPO_ROOT / mutant.path).read_text(encoding="utf-8")
    with _checkout() as root:
        (root / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        failure = _first_failure(root, tuple(pytest_args), mutant.name)
    return "SURVIVED" if failure is None else f"killed by {failure}"


def verdict(mutant: Mutant) -> str:
    """:func:`outcome` of ``mutant`` under its own test file, and under
    the whole suite only if it survives that file."""
    result = outcome(mutant, (mutant.test,))
    if result != "SURVIVED":
        return result
    result = outcome(mutant)
    return result if result == "SURVIVED" else f"{result} (not by {mutant.test})"


def main() -> int:
    started = time.perf_counter()
    with _checkout() as root:
        failure = _first_failure(root, ())
    if failure is not None:
        print(f"unmutated checkout fails {failure}; no mutant run")
        return 1
    print(f"unmutated checkout passes; {len(MUTANTS)} mutants", flush=True)
    counts = Counter()
    with ThreadPoolExecutor(WORKERS) as pool:
        for mutant, result in zip(MUTANTS, pool.map(verdict, MUTANTS)):
            counts[result.partition(" by ")[0]] += 1
            print(f"{mutant.name}: {result}", flush=True)
    summary = ", ".join(f"{counts[key]} {key}" for key in ("killed", "SURVIVED", "does not apply"))
    print(f"# {summary}; {time.perf_counter() - started:.0f} s")
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
