"""Layer spans for the delaymoments CLI, installed from outside the package.

`installed(tracer)` rebinds each entry point listed in SPANS to a timing
wrapper wherever the package looks it up: in every module that imported the
name, and on the class for methods (aliases such as `__rmul__` included).
Leaving the block puts every original object back, so the functools caches
and their `cache_info()` are untouched.  Per-`Fraction` work and
`Polynomial.__init__` are never wrapped.

Spans are aggregated as they close instead of being stored, because the
algebra layer opens millions of them in one request.  A span's self time is
its duration minus the duration of the spans opened inside it.  The
inclusive time of a name counts only its outermost spans, so recursion is
not counted twice.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "delaymoments"
MARKER = "layertrace: "
LAYERS = ("algebra", "partitions", "engine", "stats", "cli", "reference")

# (span name, "module" or "module:Class", attributes).  The layer is the
# first component of the span name.
SPANS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("algebra.poly_mul", "algebra:Polynomial", ("__mul__", "__pow__")),
    ("algebra.poly_add", "algebra:Polynomial",
     ("__add__", "__sub__", "__rsub__", "__neg__")),
    ("algebra.poly_divmod", "algebra:Polynomial", ("__divmod__",)),
    ("algebra.gcd", "algebra", ("polynomial_gcd",)),
    ("algebra.rf_normalize", "algebra:RationalFunction", ("__init__",)),
    ("algebra.rf_arith", "algebra:RationalFunction",
     ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__",
      "__rtruediv__", "__pow__", "evaluate")),
    ("algebra.series_ops", "algebra:TruncatedSeries",
     ("__add__", "__sub__", "__neg__", "__mul__", "scale", "shift_power",
      "truncate", "times_m_polynomial", "evaluate")),
    ("algebra.series_ops", "algebra", ("laurent_expand_inverse_power",)),
    ("partitions.lr", "partitions", ("schur_product", "lr_coefficient")),
    ("partitions.characters", "partitions",
     ("character_row", "character", "_character")),
    ("partitions.shapes", "partitions",
     ("enumerate_partitions", "subpartitions", "dimension", "class_size",
      "content_product", "durfee")),
    ("engine.reflection", "engine",
     ("reflection_schur_moment", "_reflection_inv_m", "_reflection_gamma",
      "_reflection_inv_gamma")),
    ("engine.durfee_sum", "engine",
     ("durfee_filtered_lr_sum", "_durfee_weighted_sum", "_dim_content_weight")),
    ("engine.transform", "engine",
     ("delay_schur_moment", "_delay_schur_moment", "binomial_determinant")),
    ("engine.weights", "engine",
     ("geometric_determinant", "rising_factorial", "falling_factorial",
      "absorption_weight")),
    ("stats.moment", "stats",
     ("compute_statistic", "power_sum_moment", "wigner_moment", "_wigner_moment",
      "cumulant", "_cumulant", "variance", "moments_from_cumulants")),
    ("stats.conjectures", "stats", ("validate_conjectures",)),
    ("reference.registration", "reference", ("all_checks",)),
    ("reference.check", "reference:Check", ("execute",)),
    ("cli.command", "cli", ("cmd_series", "cmd_verify", "cmd_eval", "cmd_conjecture")),
    ("cli.render", "cli",
     ("render_json", "render_text", "render_latex", "document_for_series")),
)

# Hit-ratio metric -> the functools caches (module, attribute) it reads.
HIT_RATIOS: dict[str, tuple[tuple[str, str], ...]] = {
    "partitions.lr.hit_ratio": (("partitions", "schur_product"),),
    "partitions.characters.hit_ratio": (("partitions", "character_row"),
                                        ("partitions", "_character")),
    "engine.reflection.hit_ratio": (("engine", "_reflection_inv_m"),
                                    ("engine", "_reflection_gamma"),
                                    ("engine", "_reflection_inv_gamma")),
    "engine.durfee_sum.hit_ratio": (("engine", "_durfee_weighted_sum"),),
    "engine.transform.hit_ratio": (("engine", "_delay_schur_moment"),),
    "stats.moment.hit_ratio": (("stats", "_wigner_moment"), ("stats", "_cumulant")),
}

# Per-layer metrics: (name, unit, better).  A `.self_s` metric sums self
# time, `.calls` counts spans and `.incl_s` is outermost-span time.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("algebra.self_s", "s", "lower"),
    ("algebra.poly_divmod.self_s", "s", "lower"),
    ("algebra.poly_divmod.calls", "count", "lower"),
    ("algebra.poly_mul.self_s", "s", "lower"),
    ("algebra.poly_mul.calls", "count", "lower"),
    ("algebra.gcd.incl_s", "s", "lower"),
    ("algebra.gcd.calls", "count", "lower"),
    ("algebra.rf_normalize.calls", "count", "lower"),
    ("algebra.series_ops.calls", "count", "lower"),
    ("partitions.self_s", "s", "lower"),
    ("partitions.lr.self_s", "s", "lower"),
    ("partitions.lr.calls", "count", "lower"),
    ("partitions.lr.hit_ratio", "ratio", "higher"),
    ("partitions.characters.self_s", "s", "lower"),
    ("partitions.characters.hit_ratio", "ratio", "higher"),
    ("engine.self_s", "s", "lower"),
    ("engine.reflection.self_s", "s", "lower"),
    ("engine.reflection.calls", "count", "lower"),
    ("engine.reflection.hit_ratio", "ratio", "higher"),
    ("engine.durfee_sum.hit_ratio", "ratio", "higher"),
    ("engine.transform.self_s", "s", "lower"),
    ("engine.transform.hit_ratio", "ratio", "higher"),
    ("engine.weights.self_s", "s", "lower"),
    ("stats.self_s", "s", "lower"),
    ("stats.moment.hit_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.render.incl_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("reference.self_s", "s", "lower"),
    ("reference.registration_s", "s", "lower"),
    ("reference.check_s.max", "s", "lower"),
    ("reference.checks", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
)

# Span statistics: [calls, inclusive s, self s, longest outermost span s,
# open spans of this name].
CALLS, INCL, SELF, LONGEST, DEPTH = range(5)


class Tracer:
    """Aggregates nested spans by name; `root[0]` is the time spent inside
    any span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = [0.0]
        self._stack = [self.root]
        self.stats: dict[str, list] = {}

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            st[DEPTH] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                st[DEPTH] -= 1
                st[CALLS] += 1
                st[SELF] += elapsed - children[0]
                if not st[DEPTH]:
                    st[INCL] += elapsed
                    if elapsed > st[LONGEST]:
                        st[LONGEST] = elapsed

        return traced


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    return getattr(module, class_name) if class_name else module


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every SPANS entry point for the duration of the block."""
    rebound: list[tuple[object, str, object]] = []   # (namespace, name, original)
    try:
        for span, path, attrs in SPANS:
            owner = _owner(path)
            for attr in attrs:
                original = vars(owner)[attr]
                wrapper = tracer.wrap(span, original)
                spaces = [owner] if isinstance(owner, type) else _package_modules()
                for space in spaces:
                    for name, value in list(vars(space).items()):
                        if value is original:
                            setattr(space, name, wrapper)
                            rebound.append((space, name, original))
        yield tracer
    finally:
        for space, name, original in reversed(rebound):
            setattr(space, name, original)


def cache_counts() -> dict[str, list[int]]:
    """Hits and misses of every cache HIT_RATIOS reads, keyed module.attr."""
    out = {}
    for caches in HIT_RATIOS.values():
        for module_name, attr in caches:
            info = getattr(_owner(module_name), attr).cache_info()
            out[f"{module_name}.{attr}"] = [info.hits, info.misses]
    return out


def report(tracer: Tracer, wall_s: float, import_s: float) -> dict:
    """What one traced process sends back to the benchmark."""
    return {"wall_s": wall_s, "import_s": import_s, "attributed_s": tracer.root[0],
            "spans": {name: st[:DEPTH] for name, st in tracer.stats.items()},
            "caches": cache_counts()}


def per_layer_metrics(reports: list[dict], passes: int,
                      traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Every PER_LAYER metric, per traced pass, from the processes' reports."""
    spans: dict[str, list] = {}
    caches: dict[str, list[int]] = {}
    for rep in reports:
        for name, (calls, incl, self_s, longest) in rep["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[CALLS] += calls
            acc[INCL] += incl
            acc[SELF] += self_s
            acc[LONGEST] = max(acc[LONGEST], longest)
        for name, (hits, misses) in rep["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses

    def field(span: str, index: int):
        return spans.get(span, [0, 0.0, 0.0, 0.0])[index]

    wall = sum(r["wall_s"] for r in reports)
    named = sum(r["import_s"] + r["attributed_s"] for r in reports)
    values: dict[str, float] = {
        "cli.import_s": sum(r["import_s"] for r in reports) / passes,
        "reference.registration_s": field("reference.registration", INCL) / passes,
        "reference.check_s.max": field("reference.check", LONGEST),
        "reference.checks": field("reference.check", CALLS) / passes,
        "trace.overhead_ratio": (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls)),
        "trace.unattributed_s": (wall - named) / passes,
        "trace.attributed_share": named / wall if wall else 0.0,
    }
    for metric, sources in HIT_RATIOS.items():
        hits = sum(caches.get(f"{m}.{a}", [0, 0])[0] for m, a in sources)
        total = hits + sum(caches.get(f"{m}.{a}", [0, 0])[1] for m, a in sources)
        values[metric] = hits / total if total else 0.0
    for metric, _, _ in PER_LAYER:
        if metric in values:
            continue
        target, _, kind = metric.rpartition(".")
        if target in LAYERS:
            values[metric] = sum(st[SELF] for name, st in spans.items()
                                 if name.startswith(target + ".")) / passes
        else:
            index = {"self_s": SELF, "calls": CALLS, "incl_s": INCL}[kind]
            values[metric] = field(target, index) / passes
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
