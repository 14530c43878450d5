"""Closed-loop benchmark of the delaymoments command line.

    python3 bench/run.py --workload large-m --seed 1 --seconds 30 --trace 0

One client sends the workload's requests one after another, each as a cold
`PYTHONPATH=src python -m delaymoments.cli ...` process, never more than one
child at a time.  A pass is one round over the requests the seed picked;
passes repeat while the next one still fits in `--seconds`, each after a few
runs of the cheapest request.  Every output is checked against the golden
table in `golden.json`.

With `--trace 0` the run reports the end-to-end metrics.  `wall_s` and
`cpu_s` are the median pass taken request by request: the sum over the
pass's requests of each one's median across passes, which keeps a burst of
load on the shared machine from moving the whole pass.  `peak_rss_mb` is the
largest of the requests' median child max-RSS and `setup_s` the median wall
time of the cheapest request.  With `--trace 1` untraced and traced passes alternate; traced
requests run through `traced_cli.py`, which installs the layer spans of
`layertrace.py`, and the run reports the per-layer metrics.  The last line
of stdout is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

# Runs of the cheapest request before each pass, for setup_s.
SETUP_REPEATS = 3
# No run may take longer than this, whatever the children do.
RUN_DEADLINE_S = 170.0
REQUEST_TIMEOUT_S = 90.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
_HARD_FAILURES = re.compile(rb"summary: \d+ checks, (\d+) hard failures")


@dataclass
class Outcome:
    """One finished child process."""

    argv: tuple[str, ...]
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    failure: str | None = None
    trace: dict | None = None


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]


def spawn(argv: tuple[str, ...], traced: bool, deadline: float) -> Outcome:
    """Run one request to completion and reap it with its resource usage."""
    prefix = [str(BENCH_DIR / "traced_cli.py")] if traced else ["-m", "delaymoments.cli"]
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *prefix, *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    buffers = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in buffers:
            sel.register(pipe, selectors.EVENT_READ)
        limit = min(start + REQUEST_TIMEOUT_S, deadline)
        while sel.get_map():
            ready = sel.select(timeout=max(limit - time.perf_counter(), 0.0))
            if not ready:
                proc.kill()
                timed_out = True
                break
            for key, _ in ready:
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buffers[key.fileobj] += chunk
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stderr = bytes(buffers[proc.stderr])
    trace = None
    if traced:
        head, sep, tail = stderr.rpartition(layertrace.MARKER.encode())
        if sep:
            stderr, trace = head, json.loads(tail)
    outcome = Outcome(argv, proc.returncode, bytes(buffers[proc.stdout]), stderr,
                      wall_s, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      trace=trace)
    if timed_out:
        outcome.failure = "timed out"
    elif traced and trace is None:
        outcome.failure = "no layer trace"
    return outcome


def failure_reason(outcome: Outcome, golden: dict) -> str | None:
    """Why a finished request counts as failed, or None if it is correct."""
    if outcome.failure:
        return outcome.failure
    want = golden.get(workloads.key(outcome.argv))
    if want is None:
        return "no golden entry"
    if b"Traceback" in outcome.stderr:
        return "traceback on stderr"
    if outcome.exit_code != want["exit"]:
        return f"exit code {outcome.exit_code}, expected {want['exit']}"
    hard = _HARD_FAILURES.search(outcome.stdout)
    if hard and int(hard.group(1)):
        return "verify reported hard failures"
    if hashlib.sha256(outcome.stdout).hexdigest() != want["sha256"]:
        return "stdout digest differs from the golden one"
    return None


class Runner:
    """Runs requests, judges them and counts what was attempted and failed."""

    def __init__(self, golden: dict, deadline: float):
        self.golden = golden
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def request(self, argv: tuple[str, ...], traced: bool = False) -> Outcome:
        outcome = spawn(argv, traced, self.deadline)
        outcome.failure = failure_reason(outcome, self.golden)
        self.attempted += 1
        if outcome.failure:
            self.failures.append((workloads.key(argv), outcome.failure))
        return outcome

    def run_pass(self, requests: list[tuple[str, ...]], traced: bool) -> Pass:
        start = time.perf_counter()
        outcomes = [self.request(argv, traced) for argv in requests]
        return Pass(time.perf_counter() - start, outcomes)


def environment(load_start: tuple[float, ...]) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg())}


def _per_request_median(passes: list[Pass], attr: str) -> list[float]:
    """For each request of the pass, its median over the run's passes."""
    return [statistics.median(getattr(p.outcomes[i], attr) for p in passes)
            for i in range(len(passes[0].outcomes))]


def measure(args, runner: Runner, requests: list[tuple[str, ...]]) -> dict:
    # Untimed warm-up: compiles the .pyc files that every later start reuses.
    runner.request(workloads.SETUP_REQUEST)
    if args.trace:
        runner.request(workloads.SETUP_REQUEST, traced=True)

    start = time.perf_counter()
    longest_cycle = 0.0
    setup: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        cycle_start = time.perf_counter()
        setup += [runner.request(workloads.SETUP_REQUEST).wall_s
                  for _ in range(SETUP_REPEATS)]
        plain.append(runner.run_pass(requests, traced=False))
        if args.trace:
            traced.append(runner.run_pass(requests, traced=True))
        now = time.perf_counter()
        longest_cycle = max(longest_cycle, now - cycle_start)
        if now - start + longest_cycle > args.seconds or runner.failures:
            break

    print("pass wall s: untraced " + " ".join(f"{p.wall_s:.4f}" for p in plain)
          + (", traced " + " ".join(f"{p.wall_s:.4f}" for p in traced) if traced else ""))
    if args.trace:
        reports = [o.trace for p in traced for o in p.outcomes if o.trace]
        return layertrace.per_layer_metrics(
            reports, len(traced), [p.wall_s for p in traced], [p.wall_s for p in plain])

    values = {"wall_s": sum(_per_request_median(plain, "wall_s")),
              "cpu_s": sum(_per_request_median(plain, "cpu_s")),
              "peak_rss_mb": max(_per_request_median(plain, "maxrss_mb")),
              "setup_s": statistics.median(setup)}
    for name, unit in END_TO_END:
        print(f"{name:12s} {values[name]:10.4f} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "delaymoments" / "cli.py").is_file():
        print(f"error: no delaymoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    runner = Runner(json.loads(GOLDEN_PATH.read_text(encoding="utf-8")), deadline)
    requests = workloads.select(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + "; ".join(workloads.key(r) for r in requests))

    metrics = measure(args, runner, requests)

    failed = len(runner.failures)
    for request, reason in runner.failures:
        print(f"FAILED {request}: {reason}")
    print(f"failed_ratio {failed / runner.attempted:10.4f} ratio "
          f"({failed} of {runner.attempted} requests)")
    print("env " + json.dumps(environment(load_start)))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
