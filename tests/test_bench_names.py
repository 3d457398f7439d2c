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


def test_every_result_counter_reads_a_real_result_of_its_layer():
    from qrmirror import codec, mirror, rscode, verify
    from qrmirror.formatinfo import select_mirror_format

    counts = load_bench_module("spans").RESULT_COUNTS
    assert set(counts) == {"mirror.build_constraint_system", "mirror.solve_gf2",
                           "verify.decode_grid", "rscode.rs_decode"}
    fmt = select_mirror_format()
    pa, pb = codec.terminated_payload("HARRY"), codec.terminated_payload("BOVIK")
    alloc = mirror.ErrorAllocation(frozenset(), frozenset({0}))
    system = mirror.build_constraint_system(pa, pb, fmt.straight, alloc,
                                            mirrored_fmt=fmt.mirrored)
    rows, cols = system.matrix.shape
    assert counts["mirror.build_constraint_system"](system) == {"rows": rows, "cols": cols}

    solution = mirror.solve_gf2(system)
    assert solution is not None
    assert counts["mirror.solve_gf2"](solution) == {
        "feasible": 1, "free_vars": solution.free_variable_count}
    contradiction = mirror.build_constraint_system(pa, pa, fmt.straight,
                                                   mirror.ErrorAllocation(frozenset(), frozenset()))
    assert mirror.solve_gf2(contradiction) is None
    assert counts["mirror.solve_gf2"](None) == {"infeasible": 1}

    grid, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    report = verify.decode_grid(grid, "transposed")
    assert counts["verify.decode_grid"](report) == {
        "corrected_bytes": len(report.corrected_bytes)}

    data = bytes(range(rscode.DATA_BYTES))
    word = bytearray(data + rscode.rs_encode(data))
    word[4] ^= 0x5A
    assert counts["rscode.rs_decode"](rscode.rs_decode(word)) == {"corrected": 1}
