"""Run one spincat CLI command with spans recorded, then write its per-layer metrics.

    python3 perfbench/cli_child.py SPANS.json run-protocol --config configs/ring7.json ...

The exit code is the command's own.
"""

import json
import sys
from pathlib import Path

import spincat.cli

import spans


def main() -> int:
    tracer = spans.Tracer()
    with tracer.installed():
        code = spincat.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.metrics()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
