"""The benchmark's span tracer finds every layer it wraps.

bench/spans.py names each traced layer by (module, attribute) pairs; a
refactor that renames or moves one of those functions would otherwise
surface only in the slow bench smoke test.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_wrap_point_resolves_to_its_layer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, points in spans.WRAP_POINTS.items():
        home, name = layer.rsplit(".", 1)
        for module, attribute in points:
            target = getattr(importlib.import_module(module), attribute, None)
            assert callable(target), (layer, module, attribute)
            assert (target.__module__, target.__name__) == (f"qrmirror.{home}", name), (
                layer, module, attribute)
