"""One sha256 over the package's outputs on a fixed grid.

    python3 tests/output_digest.py

The digest covers, in this order:

- ``run_protocol(config).to_dict()``, the final state's classes and
  values, and the classes, values and pair table of every reduced state the
  run builds, for registers of 2 to ``--n-max`` spins (10 by default,
  at most the register limit of 12),
  both noise modes and purity fractions 0.83 and 1, on the configuration
  of ``_support.protocol_config``;
- ``scaling_study`` for registers of 2 to ``min(--n-max, 9)`` spins in
  both modes, with seeds 0 to ``--seeds - 1`` (3 by default), over the
  delays and the noise model of ``configs/ring7.json``.

Floats enter through their ``repr`` and arrays through their bytes, so
two checkouts print the same digest exactly when they produce the same
outputs bit for bit: a refactor that keeps the arithmetic keeps the
digest.  The script is not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from spincat import load_config, run_protocol, scaling_study, states  # noqa: E402
from spincat.operators import MAX_SPINS  # noqa: E402
from spincat.protocol import NOISE_MODES  # noqa: E402
from _support import protocol_config, state_bytes, stored_classes  # noqa: E402

# Largest register of the scaling part, as in the mc_scaling_n9 workload.
_SCALING_MAX_SPINS = 9


@contextlib.contextmanager
def _reduced_states():
    """A list that collects every state ``states.reduced_state`` returns,
    in call order, while the context is open."""
    reduce, built = states.reduced_state, []

    def recorded(rho, keep):
        built.append(reduce(rho, keep))
        return built[-1]

    states.reduced_state = recorded
    try:
        yield built
    finally:
        states.reduced_state = reduce


def digest(n_max: int, seeds: int) -> tuple[str, int, int]:
    """The hex digest, the number of protocol runs and of scaling studies."""
    sha = hashlib.sha256()
    runs = studies = 0
    for n in range(2, n_max + 1):
        for mode in NOISE_MODES:
            for fraction in (0.83, 1.0):
                config = dataclasses.replace(protocol_config(n, fraction), noise_mode=mode)
                with _reduced_states() as reduced:
                    report = run_protocol(config)
                sha.update(json.dumps(report.to_dict(), sort_keys=True).encode())
                for array in stored_classes(report.final_state):
                    sha.update(array.tobytes())
                for rho in reduced:
                    sha.update(state_bytes(rho))
                runs += 1
    ring7 = load_config(ROOT / "configs" / "ring7.json")
    sizes = range(2, min(n_max, _SCALING_MAX_SPINS) + 1)
    for mode in NOISE_MODES:
        for seed in range(seeds):
            rates = scaling_study(sizes, ring7.noise, ring7.delays_s, mode=mode, seed=seed)
            sha.update(repr(rates).encode())
            studies += 1
    return sha.hexdigest(), runs, studies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=10, help="largest register (default 10)")
    parser.add_argument("--seeds", type=int, default=3, help="scaling seeds (default 3)")
    args = parser.parse_args(argv)
    if not 2 <= args.n_max <= MAX_SPINS:
        parser.error(f"--n-max must lie in 2..{MAX_SPINS}")
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    hexdigest, runs, studies = digest(args.n_max, args.seeds)
    print(f"# {runs} protocol runs, {studies} scaling studies")
    print(f"sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
