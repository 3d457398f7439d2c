"""The benchmark finds every name it uses in the package.

bench/spans.py names each traced layer by (module, attribute) pairs, and
bench/coldstart.py fills the package's lazy caches by name; a refactor
that renames or moves one of those functions would otherwise surface only
in the slow bench smoke test or a bench run.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves_to_its_layer():
    spans = load_bench_module("spans")
    for layer, points in spans.WRAP_POINTS.items():
        home, name = layer.rsplit(".", 1)
        for module, attribute in points:
            target = getattr(importlib.import_module(module), attribute, None)
            assert callable(target), (layer, module, attribute)
            assert (target.__module__, target.__name__) == (f"qrmirror.{home}", name), (
                layer, module, attribute)


def test_cold_start_fills_every_cache():
    from qrmirror import formatinfo, grid, masks, rscode

    load_bench_module("coldstart").fill_caches(formatinfo, grid, masks, rscode)
