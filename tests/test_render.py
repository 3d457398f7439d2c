"""ASCII, PBM and SVG serialization."""

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qrmirror import encoder, mirror, render
from qrmirror.grid import SIZE, ModuleGrid, function_pattern_grid


def test_ascii_dimensions():
    art = render.to_ascii(encoder.encode_single("HELLO"))
    lines = art.splitlines()
    assert len(lines) == 21
    assert all(len(line) == 42 for line in lines)


def test_ascii_quiet_zone():
    art = render.to_ascii(encoder.encode_single("HELLO"), quiet=4)
    lines = art.splitlines()
    assert len(lines) == 29
    assert lines[0].strip() == ""
    assert all(line.startswith(" " * 8) for line in lines)


def test_ascii_all_light():
    empty = ModuleGrid(np.zeros((21, 21), dtype=np.uint8))
    blank = render.to_ascii(empty)
    assert set(blank) <= {" ", "\n"}
    assert len(blank.splitlines()) == 21


def test_pbm_header_scale1_quiet0():
    data = render.to_pbm(encoder.encode_single("HELLO"), scale=1, quiet=0)
    assert data.startswith(b"P1\n21 21\n")
    raster = [line for line in data.split(b"\n")[2:] if not line.startswith(b"#")]
    digits = [c for c in b"".join(raster).decode() if c in "01"]
    assert len(digits) == 441


def test_pbm_dimensions_scale10_quiet4():
    data = render.to_pbm(encoder.encode_single("HELLO"), scale=10, quiet=4)
    header = data.split(b"\n")[1]
    assert header == b"290 290"


def test_pbm_round_trip_all_scales_and_quiets():
    grid = encoder.encode_single("HELLO")
    for scale in range(1, 11):
        for quiet in range(0, 5):
            recovered = render.parse_pbm(render.to_pbm(grid, scale, quiet))
            assert recovered == grid


def test_pbm_round_trip_double_sided():
    grid, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    assert render.parse_pbm(render.to_pbm(grid, 3, 2)) == grid


def test_pbm_round_trip_without_metadata_comment():
    grid = encoder.encode_single("HELLO")
    data = render.to_pbm(grid, scale=4, quiet=4)
    stripped = b"\n".join(
        line for line in data.split(b"\n") if not line.startswith(b"#")
    )
    assert render.parse_pbm(stripped) == grid


def test_pbm_deterministic():
    grid, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    assert render.to_pbm(grid, 5, 4) == render.to_pbm(grid, 5, 4)


def test_pbm_rejects_bad_inputs():
    with pytest.raises(render.RenderError):
        render.parse_pbm(b"P4\n21 21\n")
    with pytest.raises(render.RenderError):
        render.parse_pbm(b"P1\n20 21\n" + b"0" * 420)
    with pytest.raises(render.RenderError):
        render.parse_pbm(b"P1\n22 22\n" + b"0" * 483 + b"1")
    with pytest.raises(render.RenderError):
        render.parse_pbm(b"P1\n4 4\nnope")
    for bad in (
        b"P1\n21 21\n# qrmirror scale=x quiet=0\n" + b"0" * 441,
        b"P1\n21 21\n# qrmirror scale=-1 quiet=-21\n" + b"0" * 441,
        b"P1\n0 0\n",
        b"P1\n0 0\n# qrmirror scale=0 quiet=0\n",
    ):
        with pytest.raises(render.RenderError):
            render.parse_pbm(bad)


def test_pbm_scale_validation():
    with pytest.raises(ValueError):
        render.to_pbm(function_pattern_grid(), scale=0)


def test_negative_quiet_zone_is_rejected():
    grid = encoder.encode_single("HELLO")
    for render_with_quiet in (render.to_ascii, render.to_pbm, render.to_svg):
        with pytest.raises(ValueError, match="quiet zone"):
            render_with_quiet(grid, quiet=-1)


def test_pbm_lines_within_70_columns():
    data = render.to_pbm(encoder.encode_single("X"), scale=10, quiet=4)
    assert all(len(line) <= 70 for line in data.split(b"\n"))


def test_svg_well_formed_and_counts_match():
    grid = encoder.encode_single("HELLO")
    svg = render.to_svg(grid, quiet=4)
    root = ET.fromstring(svg)
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # one background rectangle plus one per dark module
    assert len(rects) - 1 == int(grid.cells.sum())
    assert root.get("viewBox") == "0 0 29 29"


def test_svg_empty_grid_has_no_module_rects():
    empty = ModuleGrid(np.zeros((21, 21), dtype=np.uint8))
    svg = render.to_svg(empty, quiet=0)
    root = ET.fromstring(svg)
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == 1  # background only


def reference_to_ascii(grid, quiet=0):
    """The per-cell ASCII loop np.pad and one join per row replaced."""
    if quiet < 0:
        raise ValueError("quiet zone must not be negative")
    n = SIZE + 2 * quiet
    lines = []
    for r in range(n):
        row = []
        for c in range(n):
            inside = quiet <= r < quiet + SIZE and quiet <= c < quiet + SIZE
            dark = inside and grid.cells[r - quiet, c - quiet]
            row.append("##" if dark else "  ")
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def reference_to_pbm(grid, scale=1, quiet=0):
    """to_pbm with one str(int(v)) per pixel, as the digit rows were built."""
    if scale < 1:
        raise ValueError("scale must be at least 1")
    if quiet < 0:
        raise ValueError("quiet zone must not be negative")
    n = (SIZE + 2 * quiet) * scale
    img = np.zeros((n, n), dtype=np.uint8)
    start = quiet * scale
    img[start : start + SIZE * scale, start : start + SIZE * scale] = np.kron(
        grid.cells, np.ones((scale, scale), dtype=np.uint8)
    )
    lines = [f"P1", f"{n} {n}", f"# qrmirror scale={scale} quiet={quiet}"]
    for row in img:
        digits = "".join(str(int(v)) for v in row)
        lines.extend(digits[i : i + 70] for i in range(0, len(digits), 70))
    return ("\n".join(lines) + "\n").encode("ascii")


def reference_to_svg(grid, quiet=4):
    """The per-cell SVG loop np.argwhere replaced."""
    if quiet < 0:
        raise ValueError("quiet zone must not be negative")
    n = SIZE + 2 * quiet
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {n} {n}">',
        f'<rect width="{n}" height="{n}" fill="white"/>',
    ]
    for r in range(SIZE):
        for c in range(SIZE):
            if grid.cells[r, c]:
                parts.append(
                    f'<rect x="{c + quiet}" y="{r + quiet}" width="1" height="1"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_renderers_match_per_cell_reference():
    golden = Path(__file__).parent / "golden"
    grids = [render.parse_pbm((golden / name).read_bytes())
             for name in ("harry_bovik.pbm", "hello.pbm")]
    rng = np.random.default_rng(18004)
    for _ in range(24):  # random data and format fills on the template
        grids.append(encoder.materialize(rng.integers(0, 2, 208, dtype=np.uint8),
                                         int(rng.integers(0, 1 << 15))))
    grids.append(ModuleGrid(rng.integers(0, 2, (21, 21), dtype=np.uint8)))
    for grid in grids:
        for quiet in range(5):
            assert render.to_ascii(grid, quiet) == reference_to_ascii(grid, quiet)
            assert render.to_svg(grid, quiet) == reference_to_svg(grid, quiet)
            for scale in range(1, 5):
                data = render.to_pbm(grid, scale, quiet)
                assert data == reference_to_pbm(grid, scale, quiet), (scale, quiet)
                stripped = b"\n".join(
                    line for line in data.split(b"\n") if not line.startswith(b"#"))
                for scan in (data, stripped):
                    recovered = render.parse_pbm(scan)
                    assert recovered == grid
                    assert recovered.cells.dtype == np.uint8
                    assert np.array_equal(recovered.fixed, grid.fixed)
    assert render.to_ascii(grids[0]) == reference_to_ascii(grids[0])
    assert render.to_svg(grids[0]) == reference_to_svg(grids[0])
