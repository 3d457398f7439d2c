"""Span tracing from outside the program.

Each traced layer is one public qrmirror function. The tracer replaces it
with a timing wrapper at every name a caller looks it up under (a caller
that did ``from .verify import decode_grid`` holds its own reference), so
nothing under ``src/`` changes. Hot inner helpers such as ``gf_mul`` and
``mask_bit`` are never wrapped: the wrapper would cost more than they do.

Spans stay in memory as (name, start, end, parent, op, busy) tuples and are
written out once, when the run ends. ``busy`` equals end - start except for
the allocation generator, whose span covers only the time spent inside
``next()``; the consumer's work between items belongs to its siblings.
"""

import json
import sys
import time
from collections import defaultdict

FIELDS = ("name", "start", "end", "parent", "op", "busy")
NAME, START, END, PARENT, OP, BUSY = range(len(FIELDS))

ROOT = "bench.op"

# layer name -> every (module, attribute) a caller resolves it through
WRAP_POINTS = {
    "mirror.construct_double_sided": (("qrmirror.mirror", "construct_double_sided"),),
    "mirror.enumerate_error_allocations": (("qrmirror.mirror", "enumerate_error_allocations"),),
    "mirror.build_constraint_system": (("qrmirror.mirror", "build_constraint_system"),),
    "mirror.solve_gf2": (("qrmirror.mirror", "solve_gf2"),),
    "encoder.standard_physical_bits": (("qrmirror.encoder", "standard_physical_bits"),),
    "codec.assemble_payload": (("qrmirror.codec", "assemble_payload"),),
    "rscode.rs_encode": (("qrmirror.rscode", "rs_encode"),),
    "encoder.materialize": (("qrmirror.encoder", "materialize"),),
    "verify.decode_grid": (("qrmirror.mirror", "decode_grid"), ("qrmirror.verify", "decode_grid")),
    "verify.verify_double_sided": (("qrmirror.verify", "verify_double_sided"),),
    "rscode.rs_decode": (("qrmirror.rscode", "rs_decode"),),
    "formatinfo.bch_decode": (("qrmirror.verify", "bch_decode"),),
    "codec.parse_payload": (("qrmirror.codec", "parse_payload"),),
    "render.parse_pbm": (("qrmirror.render", "parse_pbm"),),
    "formatinfo.select_mirror_format": (
        ("qrmirror.mirror", "select_mirror_format"),
        ("qrmirror.formatinfo", "select_mirror_format"),
    ),
    "rscode.parity_matrix": (("qrmirror.rscode", "parity_matrix"),),
    "grid.overlap_partition": (("qrmirror.mirror", "overlap_partition"),),
}

GENERATOR_LAYERS = frozenset({"mirror.enumerate_error_allocations"})


def _build_counts(result):
    rows, cols = result.matrix.shape
    return {"rows": rows, "cols": cols}


def _solve_counts(result):
    if result is None:
        return {"infeasible": 1}
    return {"feasible": 1, "free_vars": result.free_variable_count}


# per-layer counts read off a successful call's result
RESULT_COUNTS = {
    "mirror.build_constraint_system": _build_counts,
    "mirror.solve_gf2": _solve_counts,
    "verify.decode_grid": lambda rep: {"corrected_bytes": len(rep.corrected_bytes)},
    "rscode.rs_decode": lambda out: {"corrected": len(out[1])},
}


class Tracer:
    """Collects spans while ``recording`` is true; wrappers pass straight
    through otherwise."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.recording = False
        self.counts = defaultdict(lambda: defaultdict(int))
        self.originals = []

    def install(self):
        """Wrap every layer at each of its lookup points."""
        for layer, points in WRAP_POINTS.items():
            for module_name, attr in points:
                module = sys.modules[module_name]
                fn = getattr(module, attr)
                self.originals.append((module, attr, fn))
                if layer in GENERATOR_LAYERS:
                    setattr(module, attr, self._wrap_generator(layer, fn))
                else:
                    setattr(module, attr, self._wrap(layer, fn))

    def uninstall(self):
        """Put the unwrapped functions back."""
        for module, attr, fn in reversed(self.originals):
            setattr(module, attr, fn)
        self.originals.clear()

    def _open(self, name):
        """Reserve the span's slot; closed spans are stored as tuples, which
        the garbage collector stops tracking, so a long run does not slow
        every collection down."""
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append(None)
        return (len(self.spans) - 1, name, time.perf_counter(), parent, self.op)

    def _close(self, opened, end, busy):
        index, name, start, parent, op = opened
        self.spans[index] = (name, start, end, parent, op, busy)

    def _wrap(self, layer, fn):
        counter = RESULT_COUNTS.get(layer)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            opened = self._open(layer)
            self.stack.append(opened)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self._close(opened, end, end - opened[2])
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[layer][key] += value
            return result

        return traced

    def _wrap_generator(self, layer, fn):
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.recording:
                return gen
            return self._timed_items(layer, self._open(layer), gen)

        return traced

    def _timed_items(self, layer, opened, gen):
        clock = time.perf_counter
        busy = 0.0
        yielded = 0
        try:
            while True:
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    busy += clock() - t0
                    return
                busy += clock() - t0
                yielded += 1
                yield item
        finally:
            self._close(opened, clock(), busy)
            self.counts[layer]["yielded"] += yielded

    def run_op(self, op_id, fn, *args):
        """Call fn as one benchmark operation under a root span."""
        self.op = op_id
        opened = self._open(ROOT)
        self.stack.append(opened)
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(opened, end, end - opened[2])
            self.op = None

    def write(self, path):
        """Write every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans):
    """Busy time minus the busy time of direct children, per span."""
    own = [span[BUSY] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[BUSY]
    return own


def layer_metrics(tracer):
    """Per-layer calls, busy ms, self ms and counts, keyed by metric name."""
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_ms = defaultdict(float)
    for span, s in zip(spans, own):
        calls[span[NAME]] += 1
        busy[span[NAME]] += span[BUSY] * 1e3
        self_ms[span[NAME]] += s * 1e3

    out = {}
    for layer in (ROOT,) + tuple(WRAP_POINTS):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.ms"] = (busy[layer], "ms")
        out[f"{layer}.self_ms"] = (self_ms[layer], "ms")

    counts = tracer.counts
    enum = counts["mirror.enumerate_error_allocations"]
    built = calls["mirror.build_constraint_system"]
    out["mirror.enumerate_error_allocations.yielded"] = (enum["yielded"], "count")
    out["mirror.enumerate_error_allocations.viable_ratio"] = (
        built / enum["yielded"] if enum["yielded"] else 0.0, "ratio")

    build = counts["mirror.build_constraint_system"]
    out["mirror.build_constraint_system.rows"] = (build["rows"] / built if built else 0.0, "count")
    out["mirror.build_constraint_system.cols"] = (build["cols"] / built if built else 0.0, "count")

    solve = counts["mirror.solve_gf2"]
    solved = calls["mirror.solve_gf2"]
    out["mirror.solve_gf2.infeasible"] = (solve["infeasible"], "count")
    out["mirror.solve_gf2.free_vars"] = (
        solve["free_vars"] / solve["feasible"] if solve["feasible"] else 0.0, "count")
    out["mirror.solve_gf2.hit_ratio"] = (solve["feasible"] / solved if solved else 0.0, "ratio")

    out["verify.decode_grid.corrected_bytes"] = (
        counts["verify.decode_grid"]["corrected_bytes"], "count")
    out["rscode.rs_decode.corrected"] = (counts["rscode.rs_decode"]["corrected"], "count")
    return out
