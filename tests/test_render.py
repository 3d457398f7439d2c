"""ASCII, PBM and SVG serialization."""

import importlib.util
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import qrmirror
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


def test_pbm_numbers_are_plain_decimals():
    # int() alone would read a '+' sign and '_' separators
    grid = encoder.encode_single("HELLO")
    rows = render.to_pbm(grid).split(b"\n", 3)[3]
    for header in (b"+21 +21", b"2_1 2_1"):
        with pytest.raises(render.RenderError, match="malformed PBM header"):
            render.parse_pbm(b"P1\n" + header + b"\n" + rows)
    for meta in (b"scale=+1 quiet=0", b"scale=1 quiet=0_0"):
        with pytest.raises(render.RenderError, match="scale or quiet is not an integer"):
            render.parse_pbm(b"P1\n21 21\n# qrmirror " + meta + b"\n" + rows)
    assert render.parse_pbm(b"P1\n21 21\n# qrmirror scale=1 quiet=0\n" + rows) == grid


def test_pbm_scale_validation():
    with pytest.raises(ValueError):
        render.to_pbm(function_pattern_grid(), scale=0)


def test_negative_quiet_zone_is_rejected():
    grid = encoder.encode_single("HELLO")
    for render_with_quiet in (render.to_ascii, render.to_pbm, render.to_svg):
        with pytest.raises(ValueError, match="quiet zone"):
            render_with_quiet(grid, quiet=-1)


def test_images_far_over_the_size_limit_are_refused():
    grid = encoder.encode_single("HELLO")
    for render_oversized in (lambda: render.to_pbm(grid, scale=10**6),
                             lambda: render.to_pbm(grid, quiet=10**9),
                             lambda: render.to_ascii(grid, quiet=10**9)):
        with pytest.raises(ValueError, match=f"over {render.MAX_SIDE}"):
            render_oversized()


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
                    assert parse_outcome(render.parse_pbm, scan) == parse_outcome(
                        reference_parse_pbm, scan)
                    recovered = render.parse_pbm(scan)
                    assert recovered == grid
                    assert recovered.cells.dtype == np.uint8
                    assert np.array_equal(recovered.fixed, grid.fixed)
    assert render.to_ascii(grids[0]) == reference_to_ascii(grids[0])
    assert render.to_svg(grids[0]) == reference_to_svg(grids[0])


def reference_tokenize_pbm(data):
    """The line loop one comment pattern replaced, kept as its reference."""
    text = data.decode("ascii", errors="replace")
    meta = {}
    body = []
    for line in text.split("\n"):
        if "#" in line:
            comment = line[line.index("#") + 1 :].strip()
            for part in comment.split():
                if "=" in part:
                    key, _, value = part.partition("=")
                    meta[key] = value
            line = line[: line.index("#")]
        body.append(line)
    return " ".join(body).split(), meta


def reference_parse_pbm(data):
    """Recover a ModuleGrid from a P1 stream written by to_pbm (or any
    square P1 whose module size is inferable)."""
    tokens, meta = reference_tokenize_pbm(data)
    if not tokens or tokens[0] != "P1":
        raise render.RenderError("not a plain PBM (P1) stream")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError):
        raise render.RenderError("malformed PBM header")
    if width != height:
        raise render.RenderError(f"image is {width}x{height}, not square")
    if width < SIZE:
        raise render.RenderError(f"image is {width}x{height}, smaller than {SIZE}x{SIZE}")
    digits = "".join(tokens[3:])
    if len(digits) != width * height or set(digits) - {"0", "1"}:
        raise render.RenderError("pixel data does not match the declared dimensions")
    img = np.frombuffer(digits.encode(), dtype=np.uint8).reshape(height, width) - ord("0")

    if "scale" in meta and "quiet" in meta:
        try:
            scale, quiet = int(meta["scale"]), int(meta["quiet"])
        except ValueError:
            raise render.RenderError("metadata scale or quiet is not an integer")
        if scale < 1 or quiet < 0 or (SIZE + 2 * quiet) * scale != width:
            raise render.RenderError("metadata disagrees with the image dimensions")
        top = left = quiet * scale
    else:
        scale, top, left = reference_infer_geometry(img)

    core = img[top : top + SIZE * scale, left : left + SIZE * scale]
    blocks = core.reshape(SIZE, scale, SIZE, scale).swapaxes(1, 2)
    counts = blocks.reshape(SIZE, SIZE, scale * scale).sum(axis=2)
    return ModuleGrid((counts * 2 > scale * scale).astype(np.uint8))


def reference_infer_geometry(img):
    """The content-box rule from the dark pixels' coordinates: the box's
    size gives the scale, its top-left corner is the code's."""
    n = img.shape[0]
    dark = np.argwhere(img)
    if not len(dark):
        if n % SIZE:
            raise render.RenderError(f"{n} pixels not divisible into 21 modules")
        return n // SIZE, 0, 0
    (top, left), (bottom, right) = dark.min(axis=0), dark.max(axis=0)
    side = max(bottom - top, right - left) + 1
    if side % SIZE:
        raise render.RenderError(f"content box of {side} pixels not divisible by 21")
    if img[top : top + side, left : left + side].shape != (side, side):
        raise render.RenderError("content box runs past the image edge")
    return side // SIZE, top, left


def parse_outcome(parse, data):
    """The grid a parser reads, or the type and message of what it raises."""
    try:
        grid = parse(data)
    except Exception as exc:
        return type(exc), str(exc)
    return grid.cells.tobytes(), grid.cells.shape, grid.cells.dtype


# Python's str whitespace that bytes.split and the C locale miss, bytes that
# decode to U+FFFD, the comment and metadata markers, and every digit
MUTATION_BYTES = b"\t\v\f\r\n \x1c\x1d\x1e\x1f\x85\xa0\xff#=P-x0123456789"


def repadded_scan(grid, rng):
    """A foreign scan: the code at some scale inside uneven light margins,
    no metadata line."""
    scale = rng.randint(1, 4)
    extra = rng.randint(0, 6 * scale + 1)
    top, left = rng.randint(0, extra), rng.randint(0, extra)
    return bare_scan(np.pad(np.kron(grid.cells, np.ones((scale, scale), dtype=np.uint8)),
                            ((top, extra - top), (left, extra - left))))


def bare_scan(img):
    """A square 0/1 image as a P1 stream without metadata."""
    n = img.shape[0]
    return f"P1\n{n} {n}\n".encode() + b"\n".join((row + ord("0")).tobytes() for row in img)


def mutated_scan(scan, rng):
    """One to three random edits of a scan."""
    data = bytearray(scan)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(data))
        edit = rng.randrange(6)
        if edit == 0 and pos < len(data):
            data[pos] = rng.choice(MUTATION_BYTES)
        elif edit == 1:
            del data[pos:]
        elif edit == 2:
            data[pos:pos] = bytes(rng.choices(MUTATION_BYTES, k=rng.randint(1, 3)))
        elif edit == 3:
            scale, quiet = rng.choices(("-1", "0", "1", "2", "3", "4", "x", "", "1=2"), k=2)
            data[pos:pos] = f"# qrmirror scale={scale} quiet={quiet}\n".encode()
        elif edit == 4:  # most positions fall inside the pixel rows
            comment = bytes(rng.choices(MUTATION_BYTES.replace(b"\n", b""), k=rng.randint(0, 8)))
            data[pos:pos] = b"#" + comment + b"\n"
        else:
            data = data.replace(b"\n", b"\r")
    return bytes(data)


def test_parse_matches_reference_on_mutated_scans():
    golden = Path(__file__).parent / "golden"
    grids = [render.parse_pbm((golden / name).read_bytes())
             for name in ("harry_bovik.pbm", "hello.pbm")]
    rng = random.Random(18004)
    grids.append(ModuleGrid(np.array(rng.choices((0, 1), k=441), dtype=np.uint8).reshape(21, 21)))
    grids.append(ModuleGrid(np.zeros((21, 21), dtype=np.uint8)))
    scans = []
    for grid in grids:
        for scale in range(1, 5):
            for quiet in range(5):
                data = render.to_pbm(grid, scale, quiet)
                scans += [data, b"".join(line for line in data.splitlines(keepends=True)
                                         if not line.startswith(b"#"))]
    for case in range(24_000):
        if case % 20 == 0:
            data = bytes(rng.choices(MUTATION_BYTES, k=rng.randint(0, 60)))
            if case % 40:
                data = b"P1 %d %d " % (rng.randint(19, 22), rng.randint(20, 21)) + data
        elif case % 20 == 1:
            data = repadded_scan(rng.choice(grids), rng)
        else:
            data = rng.choice(scans)
        if case % 20:
            data = mutated_scan(data, rng)
        assert parse_outcome(render.parse_pbm, data) == parse_outcome(
            reference_parse_pbm, data), data


def test_scans_in_uneven_margins_parse_back():
    golden = Path(__file__).parent / "golden"
    for name in ("harry_bovik.pbm", "hello.pbm"):
        grid = render.parse_pbm((golden / name).read_bytes())
        for scale in (1, 2, 3):
            cells = np.kron(grid.cells, np.ones((scale, scale), dtype=np.uint8))
            for near, far in ((3, 5), (2, 6), (5, 3), (0, 8)):
                for pad in (((near, far), (far, near)), ((far, near), (near, far)),
                            ((near, far), (near, far))):
                    scan = bare_scan(np.pad(cells, np.array(pad) * scale))
                    assert render.parse_pbm(scan) == grid, (name, scale, pad)


def test_content_box_past_the_image_edge_is_a_render_error():
    img = np.zeros((42, 42), dtype=np.uint8)
    img[0:21, 41] = 1  # a 1 x 21 box: its 21 x 21 square runs off the right edge
    with pytest.raises(render.RenderError, match="past the image edge"):
        render.parse_pbm(bare_scan(img))


def test_parse_matches_reference_on_benchmark_scans(monkeypatch):
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))  # workloads.py imports inputs
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    scans = workloads.DecodeScans(qrmirror)
    scans.prepare(1)
    assert len(scans.pool) == 160
    for pbm, _ in scans.pool:
        outcome = parse_outcome(render.parse_pbm, pbm)
        assert outcome == parse_outcome(reference_parse_pbm, pbm)
        assert outcome[1] == (SIZE, SIZE)
