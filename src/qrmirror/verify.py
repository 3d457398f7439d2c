"""Standalone scanner emulation: decode a module grid in either
orientation and check double-sided constructions end to end."""

import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import codec, rscode
from .formatinfo import FormatWord, apply_format_mask, bch_decode
from .grid import SIZE, format_cells, function_pattern_grid, placement_cells
from .masks import data_mask

# the weight of each format bit, most significant first
_FORMAT_BIT_WEIGHTS = 1 << np.arange(14, -1, -1)


class DecodeError(ValueError):
    """Decoding failed; stage names the first pipeline step that broke."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class MirrorMismatch(ValueError):
    def __init__(self, side, expected, got):
        super().__init__(
            f"{side} side decoded {got!r}, expected {expected!r}"
        )
        self.side = side


@dataclass(frozen=True)
class DecodeReport:
    text: str
    mode: str
    mask_id: int
    ec_level: str
    format_distance: int
    corrected_bytes: frozenset
    orientation: str

    def to_json(self):
        fields = asdict(self)
        fields["corrected_bytes"] = sorted(self.corrected_bytes)
        return json.dumps(fields, sort_keys=True)


@lru_cache(maxsize=1)
def _cell_bounds():
    """Read-only low and high bound on each cell: a fixed cell other than a
    format cell must hold its template value, any other cell 0 or 1."""
    template = function_pattern_grid()
    values, checked = template.cells, template.fixed.copy()
    checked[format_cells()] = False  # format cells are read, not checked
    bounds = np.stack([values & checked, values | ~checked])
    bounds.setflags(write=False)
    return bounds


def _check_function_patterns(grid):
    cells = grid.cells
    if cells.shape != (SIZE, SIZE):
        raise DecodeError("function-pattern", "grid is not 21x21")
    if cells.dtype.kind not in "biu":  # bool, signed or unsigned integers
        raise DecodeError("function-pattern", f"cells are {cells.dtype}, not integers")
    low, high = _cell_bounds()
    mismatch = (cells < low) | (cells > high)
    if mismatch.any():  # argwhere is row-major, so this is the first cell a scan meets
        r, c = np.argwhere(mismatch)[0].tolist()
        value = cells[r, c]
        fault = "does not match the template" if value in (0, 1) else f"holds {value}, not 0 or 1"
        raise DecodeError("function-pattern", f"cell ({r}, {c}) {fault}")


def read_format_words(grid):
    """Both on-grid 15-bit format words, most significant bit first."""
    return (grid.cells[format_cells()] @ _FORMAT_BIT_WEIGHTS).tolist()


def read_codewords(grid, mask_id):
    """The 26 codeword bytes a reader takes off the grid under one mask."""
    return np.packbits(grid.cells[placement_cells()] ^ data_mask(mask_id)).tobytes()


def read_format_copies(grid):
    """Each on-grid format word with its decode, (info, distance) or None."""
    return [(word, bch_decode(apply_format_mask(word))) for word in read_format_words(grid)]


def _reconcile_format(grid):
    alive = [(decoded[1], copy, decoded)
             for copy, (_, decoded) in enumerate(read_format_copies(grid))
             if decoded is not None]
    if not alive:
        raise DecodeError("format", "neither format copy decodes within 3 bits")
    return min(alive)[2]  # smaller distance wins; ties go to copy 1


def decode_grid(grid, orientation="straight"):
    """Full decode of one orientation of a grid.

    Raises DecodeError with stage one of function-pattern, format, rs,
    payload.
    """
    if orientation not in ("straight", "transposed"):
        raise ValueError(f"unknown orientation {orientation!r}")
    g = grid.transposed() if orientation == "transposed" else grid
    _check_function_patterns(g)
    info, dist = _reconcile_format(g)
    fmt = FormatWord.from_info(info)
    if fmt.ec_level != "L":  # the data is read as the one 1-L block
        raise DecodeError("format", f"level {fmt.ec_level} is not supported, only L")

    try:
        data, corrected = rscode.rs_decode(read_codewords(g, fmt.mask_id))
    except rscode.RsDecodeError as exc:
        raise DecodeError("rs", str(exc))
    try:
        parsed = codec.parse_value(int.from_bytes(data, "big"), 8 * len(data))
    except codec.CodecError as exc:
        raise DecodeError("payload", str(exc))
    return DecodeReport(parsed.text, parsed.mode, fmt.mask_id, fmt.ec_level, dist, corrected,
                        orientation)


def verify_double_sided(grid, msg_a, msg_b):
    """Decode both orientations and insist on the expected pair of texts.

    Raises MirrorMismatch naming the offending side, whether it decoded to
    the wrong text or did not decode at all.
    """
    reports = []
    for side, orientation, expected in (("straight", "straight", msg_a),
                                        ("mirrored", "transposed", msg_b)):
        try:
            report = decode_grid(grid, orientation)
        except DecodeError as exc:
            raise MirrorMismatch(side, expected, f"undecodable ({exc.stage})")
        if report.text != expected:
            raise MirrorMismatch(side, expected, report.text)
        reports.append(report)
    return tuple(reports)
