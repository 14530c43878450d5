"""Self-tests of the benchmark: span arithmetic, wrapper removal, golden gate.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import layertrace
import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from delaymoments import algebra, cli, engine, reference, stats  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_time_minus_child_spans():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock)
    calls = {}

    def inner():
        clock.now += 2

    def outer():
        clock.now += 1
        calls["inner"]()
        clock.now += 3
        calls["inner"]()

    def recursive(n):
        clock.now += 1
        if n:
            calls["recursive"](n - 1)

    calls["inner"] = tracer.wrap("a.inner", inner)
    calls["recursive"] = tracer.wrap("a.recursive", recursive)
    tracer.wrap("b.outer", outer)()
    calls["recursive"](2)

    st = tracer.stats
    assert st["b.outer"][:4] == [1, 8.0, 4.0, 8.0]
    assert st["a.inner"][:4] == [2, 4.0, 4.0, 2.0]
    # Recursion: three spans, but only the outermost counts as inclusive time.
    assert st["a.recursive"][:4] == [3, 3.0, 3.0, 3.0]
    assert tracer.root[0] == 11.0

    report = {"wall_s": 12.0, "import_s": 0.5, "attributed_s": tracer.root[0],
              "spans": {name: s[:4] for name, s in st.items()}, "caches": {}}
    metrics = layertrace.per_layer_metrics([report], 1, [2.0], [1.0])
    assert [m for m, _, _ in layertrace.PER_LAYER] == list(metrics)
    assert metrics["trace.unattributed_s"]["value"] == 0.5
    assert metrics["trace.attributed_share"]["value"] == 11.5 / 12.0
    assert metrics["trace.overhead_ratio"]["value"] == 2.0


def _namespaces() -> list:
    modules = layertrace._package_modules()
    return modules + [algebra.Polynomial, algebra.RationalFunction,
                      algebra.TruncatedSeries, reference.Check]


def test_wrappers_are_removed_with_originals_and_caches_intact():
    before = {(id(ns), name): value for ns in _namespaces()
              for name, value in vars(ns).items()}
    original_moment = engine.delay_schur_moment
    tracer = layertrace.Tracer()
    out = io.StringIO()
    with layertrace.installed(tracer), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        # Importing modules see the wrapper, and so do method aliases.
        assert stats.delay_schur_moment is engine.delay_schur_moment
        assert stats.delay_schur_moment is not original_moment
        assert algebra.Polynomial.__rmul__ is algebra.Polynomial.__mul__
        assert cli.main(["series", "--schur", "2,1", "--regime", "gamma",
                         "--order", "3", "--format", "json"]) == 0
    after = {(id(ns), name): value for ns in _namespaces()
             for name, value in vars(ns).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert json.loads(out.getvalue())["terms"]
    for span in ("algebra.poly_mul", "engine.transform", "engine.reflection",
                 "stats.moment", "cli.command", "cli.render"):
        assert tracer.stats[span][layertrace.CALLS] > 0, span
    counts = layertrace.cache_counts()
    assert sum(counts["engine._delay_schur_moment"]) >= 1
    assert sum(counts["engine._reflection_gamma"]) >= 1


def test_corrupted_golden_digest_counts_as_failure():
    golden = json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))
    key = workloads.key(workloads.SETUP_REQUEST)
    far = float("inf")
    assert run.Runner(golden, far).request(workloads.SETUP_REQUEST).failure is None

    corrupted = dict(golden, **{key: dict(golden[key], sha256="0" * 64)})
    runner = run.Runner(corrupted, far)
    outcome = runner.request(workloads.SETUP_REQUEST)
    assert outcome.failure == "stdout digest differs from the golden one"
    assert runner.failures == [(key, outcome.failure)]

    broken = run.Outcome(workloads.SETUP_REQUEST, 0, outcome.stdout,
                         b"Traceback (most recent call last):\n", 0.1, 0.1, 20.0)
    assert run.failure_reason(broken, golden) == "traceback on stderr"


def test_traced_request_gives_same_stdout_and_a_report():
    golden = json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))
    outcome = run.Runner(golden, float("inf")).request(workloads.SETUP_REQUEST,
                                                       traced=True)
    assert outcome.failure is None
    assert outcome.trace["spans"]["cli.command"][layertrace.CALLS] == 1
    assert layertrace.MARKER.encode() not in outcome.stderr


def test_every_pool_request_has_a_golden_entry_and_selection_is_seeded():
    golden = json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert {workloads.key(r) for r in workloads.all_requests()} == set(golden)
    assert all(entry["exit"] == 0 for entry in golden.values())
    for name, slots in workloads.POOLS.items():
        picked = workloads.select(name, 7)
        assert picked == workloads.select(name, 7)
        assert len(picked) == len(slots)
        assert sorted(picked) == sorted(
            next(v for v in slot if v in picked) for slot in slots)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layertrace.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.POOLS)
