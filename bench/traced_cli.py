"""Run one delaymoments CLI request in-process with the layer spans installed.

    PYTHONPATH=src python3 bench/traced_cli.py series --schur 2 --regime gamma --order 2

Stdout is the CLI's own output, byte for byte.  The span report follows the
CLI's stderr as one JSON line that starts with `layertrace.MARKER`.
"""

from __future__ import annotations

import json
import sys
import time

import layertrace


def main(argv: list[str]) -> int | str | None:
    start = time.perf_counter()
    from delaymoments import cli
    import_s = time.perf_counter() - start
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    wall_s = time.perf_counter() - start
    sys.stdout.flush()
    sys.stderr.write(layertrace.MARKER
                     + json.dumps(layertrace.report(tracer, wall_s, import_s)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
