"""Record the golden exit code and stdout digest of every pool request.

    python3 bench/record_golden.py

Each request runs twice as a cold process; both runs must agree, exit with
0, print no traceback and, for `verify`, report no hard failure.  Record only
from a commit whose outputs are known to be right: the benchmark counts any
later difference as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads


def main() -> int:
    golden: dict[str, dict] = {}
    problems = []
    for argv in workloads.all_requests():
        key = workloads.key(argv)
        first, second = (run.spawn(argv, traced=False,
                                   deadline=time.perf_counter() + run.REQUEST_TIMEOUT_S)
                         for _ in range(2))
        entry = {"exit": first.exit_code,
                 "sha256": hashlib.sha256(first.stdout).hexdigest()}
        reason = (run.failure_reason(first, {key: entry})
                  or run.failure_reason(second, {key: entry}))
        if reason is None and first.exit_code != 0:
            reason = f"exit code {first.exit_code}"
        if reason:
            problems.append(f"{key}: {reason}")
        golden[key] = entry
        print(f"{first.wall_s:7.3f} s  {key}", flush=True)
    if problems:
        print("not recorded:\n" + "\n".join(problems), file=sys.stderr)
        return 1
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
