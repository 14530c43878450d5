"""Byte-identity of the command line on the benchmark's request matrix.

Every request of `bench/workloads.all_requests()` runs in-process through
`cli.main`; its exit code and the sha256 of its stdout must equal the entry
recorded in `bench/golden.json`.  Both bench files are only read.
`HEAVY_GOLDEN`, owned by the tests, holds the same record for requests of
weight 6 and above, which no workload runs; each runs from cold caches.

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


# request -> (exit code, sha256 of stdout), recorded before the transform
# took weighted shapes.
HEAVY_GOLDEN = {
    "conjecture --n-max 6":
        (0, "728bd7d1d50220e04b3f66ac983cb93bb6d41d6cf2242a8b06983b554bed3f8f"),
    "series --wigner-moment 8 --regime gamma --order 0 --format json":
        (0, "fc3c0e91a18ede9d76aa2b65d1bfeaedcca3f1ccf45e778be138bc0656e440e4"),
    "series --cumulant 6 --regime inv-m --order 6 --format json":
        (0, "1dc80a53fa9c790dc45b6f1deed2af1f849e80177c17db2f2b8b9b58dcd0739c"),
    "series --trace-powers 3,2,1 --regime inv-gamma --order 12 --format json":
        (0, "8e08a3fd3f4864d01ddeedb1f7ce1d7a3844ca61c2147b1f76ed86025c7e0a6a"),
}


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


@pytest.mark.parametrize("request_line", HEAVY_GOLDEN)
def test_heavy_stdout_matches_golden_from_cold_caches(request_line, capsys):
    for module in (engine, partitions, stats):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    code = main(request_line.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == HEAVY_GOLDEN[request_line]
