"""Byte-identity of the command line on the benchmark's request matrix.

Every request of `bench/workloads.all_requests()` runs in-process through
`cli.main`; its exit code and the sha256 of its stdout must equal the entry
recorded in `bench/golden.json`.  Both bench files are only read.

The requests run forward one test each, and again in reverse order in one
test from cold caches, so a series memoized at a wider order answers a
narrower request by truncation in one run and is widened in the other.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from delaymoments import engine, partitions, stats
from delaymoments.cli import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
REQUESTS = WORKLOADS.all_requests()


def test_every_request_has_a_golden_entry():
    assert sorted(GOLDEN) == sorted(WORKLOADS.key(argv) for argv in REQUESTS)


@pytest.mark.parametrize("argv", REQUESTS, ids=WORKLOADS.key)
def test_stdout_matches_golden(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    want = GOLDEN[WORKLOADS.key(argv)]
    assert code == want["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"]


def test_stdout_matches_golden_in_reverse_from_cold_caches(capsys):
    for module in (engine, partitions, stats):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    for argv in reversed(REQUESTS):
        code = main(list(argv))
        out = capsys.readouterr().out
        want = GOLDEN[WORKLOADS.key(argv)]
        assert code == want["exit"], argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"], argv
