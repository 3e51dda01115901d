"""Standing mutation table: the mutation checks of CHANGES.md, rerunnable.

    python3 tests/mutants.py

Each mutant is one exact text edit of one file, named after the fault it
plants and the commit whose CHANGES.md entry recorded the check.  For each
mutant the whole checkout, without ``.git``, is copied to a temporary
directory and edited there, and tier-1 runs in the copy, stopping at its
first failure; so the package, ``tests/_support.REPO_ROOT``, the CLI
child processes and the benchmark's unit tests all see the mutant, and
the checkout is never written.  One line is printed per mutant:
``killed by <nodeid>``, the first test that failed; ``SURVIVED``, tier-1
passed; or ``does not apply``, the old text is not found exactly once.
The unmutated copy must pass first.  Tier-1 in a mutated copy runs with
the mutant's name in the environment variable ``SPINCAT_PLANTED_MUTANT``,
so that the test that every entry applies knows that one text is gone.

The script takes no options and reads no environment variable;
:func:`outcome` runs one mutant with any pytest arguments.  pytest does
not collect it.  A whole run takes about 16 minutes on 2 cores.
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


class Mutant(NamedTuple):
    """Replace ``old``, which must occur once, by ``new`` in ``path``."""

    name: str
    path: str
    old: str
    new: str


ANALYSIS, CLI, CONFIG = "src/spincat/analysis.py", "src/spincat/cli.py", "src/spincat/config.py"
DYNAMICS, OPERATORS = "src/spincat/dynamics.py", "src/spincat/operators.py"
PROTOCOL, STATES = "src/spincat/protocol.py", "src/spincat/states.py"
M = Mutant
MUTANTS = (
    M("dephasing rate x0.9 (27fbdcc)", DYNAMICS, "rates = np.asarray(", "rates = 0.9 * np.asarray("),
    M("kick width x1.3 (27fbdcc)", DYNAMICS, "sigma = np.sqrt(", "sigma = 1.3 * np.sqrt("),
    M("Cholesky diagonal not restored (5954d9a)", STATES, "diagonal[...] = saved", "pass"),
    M("Cholesky diagonal restored only on success (5954d9a)", STATES,
      "True\n    except np.linalg.LinAlgError:\n        certified = False\n    finally:\n",
      "True\n        diagonal[...] = saved\n    except np.linalg.LinAlgError:\n"
      "        certified = False\n    if 0:\n"),
    M("no Cholesky shift by POSITIVITY_TOL (5954d9a)", STATES, "diagonal += POSITIVITY_TOL", "pass"),
    M("rejected on a failed Cholesky, no eigvalsh (5954d9a)", STATES,
      "float(np.linalg.eigvalsh(dense)[0])", "-math.inf"),
    M("main without its LinAlgError branch (5954d9a)", CLI,
      "(np.linalg.LinAlgError, MemoryError)", "MemoryError"),
    M("Hamiltonian flip-flop at r | c (301b068)", DYNAMICS,
      "rows, rows ^ operators", "rows, rows | operators"),
    M("flip-flops on parallel pairs (301b068)", DYNAMICS, "index[sz[i] != sz[j]]", "index[sz[i] == sz[j]]"),
    M("an extra DensityMatrix per run (301b068)", PROTOCOL,
      'decohere", rho, entangled)', 'decohere", rho, reference("decohere"))'),
    M("kick widths sqrt(gamma) * t (d20306c)", DYNAMICS, "dephasing_per_s) * t)", "dephasing_per_s)) * t"),
    M("step D kicking with seed 0 (d20306c)", PROTOCOL, "(rho, noise, t, config.seed)", "(rho, noise, t, 0)"),
    M("a scan without per-point seeds (d20306c)", PROTOCOL, ", seed=point_seed)", ")"),
    M("a bool trajectory count accepted (d20306c)", DYNAMICS, "isinstance(trajectories, bool) or ", ""),
    M("kick arguments unchecked (d20306c)", DYNAMICS,
      "_check_channel_args(rho, noise, t)\n    sigma", "sigma"),
    M("pair Hermiticity read over no pairs (c5e3333)", STATES, "if pairs.size:", "if True:"),
    M("bool accepted as an integer (c5e3333)", OPERATORS, " and not isinstance(value, bool)", ""),
    M("coupling sites unchecked (c5e3333)", DYNAMICS, "if not 0 <= site < self.n_spins:", "if False:"),
    M("scaling study int(n) before its check (c5e3333)", ANALYSIS,
      "operators._check_register_size(n)\n        n = int(n)",
      "n = int(n)\n        operators._check_register_size(n)"),
    M("flip relaxation without e^(-kappa t) (2a500c8)", DYNAMICS, "values[differs] *= e1", "pass"),
    M("seed checked by isinstance(seed, int) (2a500c8)", OPERATORS,
      "not _is_integer(seed)", "not isinstance(seed, int)"),
    M("cat and entangled references swapped (2a500c8)", PROTOCOL,
      '"create_cat": {0: a, system_mask: b},\n        "entangle": entangled,',
      '"create_cat": entangled,\n        "entangle": {0: a, system_mask: b},'),
    M("S+ transposed (e838791)", OPERATORS, "out[down ^ bit, down]", "out[down, down ^ bit]"),
    M("decohered mixture weights swapped (e838791)", STATES,
      "[weights.a, weights.b]", "[weights.b, weights.a]"),
    M("step A purity weight x(1 + 1e-9) (a22ab5e)", STATES,
      "values = f * target", "values = f * (1 + 1e-9) * target"),
    M("step B rotation phase e^(1e-9 i) (a22ab5e)", PROTOCOL,
      "rotation = np.array(", "rotation = np.exp(1e-9j) * np.array("),
    M("step C mask without one system spin (a22ab5e)", PROTOCOL,
      "system_sites, n)\n    control_mask", "system_sites[1:], n)\n    control_mask"),
    M("step D dephasing factor x(1 + 1e-9) (a22ab5e)", DYNAMICS,
      "np.exp(-0.5 * t * decay)", "np.exp(-0.5 * (1 + 1e-9) * t * decay)"),
    M("step D flip rate x(1 + 1e-9) (a22ab5e)", DYNAMICS,
      "site, n, rate * t)", "site, n, rate * t * (1 + 1e-9))"),
    M("step E with one target dropped (a22ab5e)", PROTOCOL,
      "control, config.system.system_sites)", "control, config.system.system_sites[1:])"),
    M("both pair eigenvalues mean + radius (73212dd)", STATES,
      "spectrum[low] = mean - radius", "spectrum[low] = mean + radius"),
    M("pair eigenvalues without (p - q)/2 (73212dd)", STATES,
      "(p + q) - np.hypot(p - q, np.abs(lower))", "(p + q) - np.abs(lower)"),
    M("|rho_rr| for its real part (73212dd)", STATES, "spectrum = values[0].real", "spectrum = abs(values[0])"),
    M("a writable bit_table (73212dd)", OPERATORS, "& 1\n    table.flags.writeable = False", "& 1"),
    M("the npz check disabled (73212dd)", CLI, "if not isinstance(matrix, np.ndarray):", "if False:"),
    M("scipy imported by the CLI (73212dd)", CLI,
      "import numpy as np\n", "import numpy as np\nimport scipy  # noqa: F401\n"),
    M("the kick support read by row only (73212dd)", DYNAMICS,
      "supported |= states._mirrors(", "supported & states._mirrors("),
    M("positivity as eigmin < -tol (4c152f2)", STATES,
      "if not eigmin >= -POSITIVITY_TOL:", "if eigmin < -POSITIVITY_TOL:"),
    M("an untyped Sz table cache (4c152f2)", OPERATORS, ", typed=True)\ndef _sz_table", ")\ndef _sz_table"),
    M("an untyped _trace_plan (6874059)", OPERATORS, ", typed=True)\ndef _trace_plan", ")\ndef _trace_plan"),
    M("an untyped _site_mask (6874059)", OPERATORS, ", typed=True)\ndef _site_mask", ")\ndef _site_mask"),
    M("an unbounded _flip_permutation (6874059)", OPERATORS,
      "maxsize=32, typed=True)\ndef _flip", "maxsize=None, typed=True)\ndef _flip"),
    M("a writable trace-plan order (6874059)", OPERATORS, "order.flags.writeable = False", "pass"),
    M("reduced_state summed by tensor.sum (6874059)", STATES,
      "np.cumsum(tensor, axis=2)[:, :, -1]", "tensor.sum(axis=2)"),
    M("pair Hermiticity without conj (567daff)", STATES,
      "np.abs(np.conj(upper) - lower)", "np.abs(upper - lower)"),
    M("the diagonal |Im d| unchecked (567daff)", STATES,
      "np.abs(values[0].imag).max() <= 0.5 * HERMITIAN_TOL", "True"),
    M("pair kick: lower element times f (567daff)", DYNAMICS,
      "(factor, factor.conj())", "(factor, factor)"),
    M("pair states kicked whole (567daff)", DYNAMICS, "if rho._blocks is None:", "if True:"),
    M("the class scan skipping NaN (838f4a6)", STATES,
      "flat[cols + row_starts].any(axis=1)", "(abs(flat[cols + row_starts]) > 0).any(axis=1)"),
    M("the pair read skipping NaN (7e3370a)", STATES,
      "nonzero = values[-1] != 0", "nonzero = abs(values[-1]) > 0"),
    M("all-zero classes kept (7e3370a)", STATES, "if not occupied.all():", "if False:"),
    M("flip partner of a wrong bit at 10 spins (a14e9f7)", DYNAMICS,
      "(n_spins, 0, bit)", "(n_spins, 0, bit if n_spins < 10 else bit >> 1 or 2)"),
    M("hashlib imported with the package (9c30b6f)", CONFIG,
      "import json\n", "import hashlib  # noqa: F401\nimport json\n"),
    M("coherence weights of the first two classes only (state zoo)", STATES,
      "_class_slices(rho._classes, rho.dim):\n        order", "_class_slices(rho._classes[:2], rho.dim):\n        order"),
    M("purity of the first two classes only (state zoo)", STATES,
      "np.vdot(rho._values, rho._values)", "np.vdot(rho._values[:2], rho._values[:2])"),
    M("fidelity over the target's first two classes only (state zoo)", STATES,
      "np.nonzero(target._values)", "np.nonzero(target._values[:2])"),
    M("the whole kick's C read at basis indices, not support positions (state zoo)", DYNAMICS,
      "position = np.cumsum(supported) - 1", "position = np.arange(rho.dim)"),
    M("the whole kick drops its last partial block of trajectories (state zoo)", DYNAMICS,
      "range(0, len(phases), _KICK_BLOCK):\n        phi",
      "range(0, max(len(phases) - _KICK_BLOCK + 1, 1), _KICK_BLOCK):\n        phi"),
    M("the NaN-trace term dropped (single pass)", STATES, "trace != trace or ", ""),
    M("an all-zero coherence row kept on the pair route (single pass)", STATES,
      "elif classes.size == 2 and not values[1].any():", "elif False:"),
    M("a dropped row's diagonal a view of the caller's array (single pass)", STATES,
      "values[:1].copy()", "values[:1]"),
    M("positivity read from the diagonal alone (single pass)", STATES,
      "eigmin = float(spectrum.min())", "eigmin = float(values[0].real.min())"),
    M("validation warning on an inf - inf trace (single pass)", STATES,
      '@np.errstate(invalid="ignore", over="ignore")\n    def __post_init__', "def __post_init__"),
    M("a library error without its JSON path (one home per rule)", CONFIG,
      "raise ConfigError(prefix + message) from error", "raise ConfigError(message) from error"),
    M("a ProtocolConfig built at the first delay only (one home per rule)", CONFIG,
      "for k, delay in enumerate(config.delays_s):", "for k, delay in enumerate(config.delays_s[:1]):"),
    M("purity fraction bound widened to 1.5 (one home per rule)", STATES,
      "if not 0.0 < f <= 1.0:", "if not 0.0 < f <= 1.5:"),
    M("_RunContext without its seed check (one function per rule)", CLI,
      '        _build("", operators._check_seed, self.seed, paths={"seed": "--seed"})\n', ""),
    M("the shared site check accepting a repeat (one function per rule)", OPERATORS,
      "if len(set(sites)) != len(sites):", "if False:"),
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


def main() -> int:
    started = time.perf_counter()
    with _checkout() as root:
        failure = _first_failure(root, ())
    if failure is not None:
        print(f"unmutated checkout fails {failure}; no mutant run")
        return 1
    print(f"unmutated checkout passes; {len(MUTANTS)} mutants", flush=True)
    counts = Counter()
    for mutant in MUTANTS:
        result = outcome(mutant)
        counts[result.partition(" by ")[0]] += 1
        print(f"{mutant.name}: {result}", flush=True)
    summary = ", ".join(f"{counts[key]} {key}" for key in ("killed", "SURVIVED", "does not apply"))
    print(f"# {summary}; {time.perf_counter() - started:.0f} s")
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
