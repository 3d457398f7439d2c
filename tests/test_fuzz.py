"""Malformed scans and grids fail with the reader's own errors, never a crash.

parse_pbm may raise only RenderError and decode_grid only DecodeError, so
the CLI's handlers turn every bad input into a named stage and exit 1.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qrmirror import encoder, render, rscode, verify
from qrmirror.formatinfo import FormatWord
from qrmirror.grid import ModuleGrid, format_positions, function_pattern_grid
from qrmirror.masks import data_mask

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

VALID = encoder.encode_single("HELLO WORLD", mask_id=2)
VALID_PBM = render.to_pbm(VALID, scale=2, quiet=1)
TEMPLATE = function_pattern_grid()
FORMAT_CELLS = np.zeros((21, 21), dtype=bool)
FORMAT_CELLS[tuple(np.array(format_positions()[0] + format_positions()[1]).T)] = True
# data and format cells: flipping them leaves the function patterns intact
READABLE_CELLS = [tuple(rc)
                  for rc in np.argwhere(~TEMPLATE.fixed.astype(bool) | FORMAT_CELLS)]


def read_pbm(data):
    try:
        render.parse_pbm(data)
    except render.RenderError:
        pass


def read_grid(cells):
    grid = ModuleGrid(cells.astype(np.uint8))
    for orientation in ("straight", "transposed"):
        try:
            verify.decode_grid(grid, orientation)
        except verify.DecodeError:
            pass


@FUZZ
@given(st.binary(max_size=400))
def test_parse_pbm_arbitrary_bytes(data):
    read_pbm(data)


PBM_TOKENS = ("0", "1", "01", "P1", "#", "\n", " ", "=", "-1", "x", "21", "42", "1e3",
              "\t", "\r", "\x0b", "\x1c", "\xa0", "# qrmirror scale=1 quiet=0")


@FUZZ
@given(st.integers(0, 60), st.integers(0, 60),
       st.one_of(st.none(), st.tuples(st.text(max_size=3), st.text(max_size=3))),
       st.booleans(), st.lists(st.sampled_from(PBM_TOKENS), max_size=20))
def test_parse_pbm_near_valid_headers(width, height, meta, dark, tail):
    lines = ["P1", f"{width} {height}"]
    if meta is not None:
        lines.append(f"# qrmirror scale={meta[0]} quiet={meta[1]}")
    lines.append(str(int(dark)) * (width * height))
    lines.append(" ".join(tail))
    read_pbm("\n".join(lines).encode("utf-8", errors="replace"))


@FUZZ
@given(st.lists(st.tuples(st.integers(0, len(VALID_PBM) - 1), st.integers(0, 255)),
                max_size=8),
       st.one_of(st.none(), st.integers(0, len(VALID_PBM))))
def test_parse_pbm_mutated_scan(edits, cut):
    data = bytearray(VALID_PBM[:cut])
    for pos, value in edits:
        if pos < len(data):
            data[pos] = value
    read_pbm(bytes(data))


@FUZZ
@given(st.binary(min_size=441, max_size=441))
def test_decode_arbitrary_grid(raw):
    read_grid(np.frombuffer(raw, dtype=np.uint8).reshape(21, 21) & 1)


@FUZZ
@given(st.binary(min_size=441, max_size=441), st.booleans())
def test_decode_random_cells_under_intact_function_patterns(raw, keep_format):
    # past the function-pattern check, so the format, RS and payload stages run
    cells = np.frombuffer(raw, dtype=np.uint8).reshape(21, 21) & 1
    kept = TEMPLATE.fixed.astype(bool) & (keep_format | ~FORMAT_CELLS)
    read_grid(np.where(kept, VALID.cells, cells))


@FUZZ
@given(st.binary(min_size=rscode.DATA_BYTES, max_size=rscode.DATA_BYTES),
       st.sampled_from(range(8)))
def test_decode_arbitrary_data_bytes_with_valid_parity(data, mask_id):
    # RS accepts the block, so the payload parser sees arbitrary bits
    logical = np.unpackbits(np.frombuffer(data + rscode.rs_encode(data), np.uint8))
    grid = encoder.materialize(logical ^ data_mask(mask_id),
                               FormatWord("L", mask_id).on_grid)
    read_grid(grid.cells)


@FUZZ
@given(st.lists(st.sampled_from(READABLE_CELLS), max_size=40))
def test_decode_valid_grid_with_flipped_cells(flips):
    cells = VALID.cells.copy()
    for r, c in flips:
        cells[r, c] ^= 1
    read_grid(cells)
