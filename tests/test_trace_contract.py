"""The names the layer tracer of `bench/layertrace.py` relies on still exist.

The tracer wraps every `SPANS` attribute and reads `cache_info()` from every
`HIT_RATIOS` target.  A package change that renames or deletes one of them
breaks a traced benchmark run; this test notices it without running one.
The bench file is only read.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "bench_layertrace", BENCH_DIR / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERTRACE = _load_layertrace()
SPAN_TARGETS = [(path, attr) for _, path, attrs in LAYERTRACE.SPANS for attr in attrs]
CACHE_TARGETS = [target for targets in LAYERTRACE.HIT_RATIOS.values()
                 for target in targets]


@pytest.mark.parametrize("path,attr", SPAN_TARGETS,
                         ids=[f"{path}.{attr}" for path, attr in SPAN_TARGETS])
def test_span_attribute_exists_on_its_owner(path, attr):
    # The tracer looks the attribute up in the owner's own namespace.
    assert attr in vars(LAYERTRACE._owner(path))


@pytest.mark.parametrize("module,attr", CACHE_TARGETS,
                         ids=[f"{module}.{attr}" for module, attr in CACHE_TARGETS])
def test_hit_ratio_target_is_a_cache(module, attr):
    info = getattr(LAYERTRACE._owner(module), attr).cache_info()
    assert info.hits >= 0 and info.misses >= 0
