"""ASCII, PBM and SVG serialization."""

import xml.etree.ElementTree as ET

import pytest

from qrmirror import encoder, mirror, render
from qrmirror.grid import function_pattern_grid


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
    import numpy as np
    from qrmirror.grid import ModuleGrid

    empty = ModuleGrid(np.zeros((21, 21), dtype=np.uint8),
                       function_pattern_grid().fixed)
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
    import numpy as np
    from qrmirror.grid import ModuleGrid

    empty = ModuleGrid(np.zeros((21, 21), dtype=np.uint8),
                       function_pattern_grid().fixed)
    svg = render.to_svg(empty, quiet=0)
    root = ET.fromstring(svg)
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == 1  # background only
