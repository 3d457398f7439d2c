"""Standalone scanner emulation: decode a module grid in either
orientation and check double-sided constructions end to end."""

import json
from dataclasses import dataclass

import numpy as np

from . import codec, rscode
from .formatinfo import EC_NAME, apply_format_mask, bch_decode
from .grid import format_positions, function_pattern_grid, placement_cells
from .masks import data_mask


class DecodeError(ValueError):
    """Decoding failed; stage names the first pipeline step that broke."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class MirrorMismatch(ValueError):
    def __init__(self, side, expected, got, reports=()):
        super().__init__(
            f"{side} side decoded {got!r}, expected {expected!r}"
        )
        self.side = side
        self.reports = reports


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
        return json.dumps(
            {
                "text": self.text,
                "mode": self.mode,
                "mask_id": self.mask_id,
                "ec_level": self.ec_level,
                "format_distance": self.format_distance,
                "corrected_bytes": sorted(self.corrected_bytes),
                "orientation": self.orientation,
            },
            sort_keys=True,
        )


def _check_function_patterns(grid):
    template = function_pattern_grid()
    fmt_cells = set(format_positions()[0]) | set(format_positions()[1])
    for r in range(grid.cells.shape[0]):
        for c in range(grid.cells.shape[1]):
            if template.fixed[r, c] and (r, c) not in fmt_cells:
                if grid.cells[r, c] != template.cells[r, c]:
                    raise DecodeError(
                        "function-pattern",
                        f"cell ({r}, {c}) does not match the template",
                    )


def read_format_words(grid):
    """Both on-grid 15-bit format words, most significant bit first."""
    words = []
    for positions in format_positions():
        w = 0
        for pos in positions:
            w = (w << 1) | int(grid.cells[pos])
        words.append(w)
    return words


def read_codewords(grid, mask_id):
    """The 26 codeword bytes a reader takes off the grid under one mask."""
    return np.packbits(grid.cells[placement_cells()] ^ data_mask(mask_id)).tobytes()


def _reconcile_format(grid):
    decodes = []
    for w in read_format_words(grid):
        decodes.append(bch_decode(apply_format_mask(w)))
    alive = [(d, i) for i, d in enumerate(decodes) if d is not None]
    if not alive:
        raise DecodeError("format", "neither format copy decodes within 3 bits")
    # smaller distance wins; ties go to copy 1
    (info, dist), _ = min(alive, key=lambda t: (t[0][1], t[1]))
    return info, dist


def decode_grid(grid, orientation="straight"):
    """Full decode of one orientation of a grid.

    Raises DecodeError with stage one of function-pattern, format, rs,
    payload.
    """
    if orientation not in ("straight", "transposed"):
        raise ValueError(f"unknown orientation {orientation!r}")
    g = grid.transposed() if orientation == "transposed" else grid
    if g.cells.shape != (21, 21):
        raise DecodeError("function-pattern", "grid is not 21x21")
    _check_function_patterns(g)
    info, dist = _reconcile_format(g)
    ec_level = EC_NAME[info >> 3]
    mask_id = info & 7

    try:
        data, corrected = rscode.rs_decode(read_codewords(g, mask_id))
    except rscode.RsDecodeError as exc:
        raise DecodeError("rs", str(exc))
    try:
        parsed = codec.parse_payload(codec.bytes_to_bits(data))
    except codec.CodecError as exc:
        raise DecodeError("payload", str(exc))
    return DecodeReport(
        parsed.text,
        parsed.mode,
        mask_id,
        ec_level,
        dist,
        frozenset(corrected),
        orientation,
    )


def verify_double_sided(grid, msg_a, msg_b):
    """Decode both orientations and insist on the expected pair of texts.

    Raises MirrorMismatch naming the offending side, whether it decoded to
    the wrong text or did not decode at all.
    """
    reports = []
    for side, orientation, expected in (
        ("straight", "straight", msg_a),
        ("mirrored", "transposed", msg_b),
    ):
        try:
            report = decode_grid(grid, orientation)
        except DecodeError as exc:
            raise MirrorMismatch(side, expected, f"undecodable ({exc.stage})",
                                 tuple(reports))
        if report.text != expected:
            raise MirrorMismatch(side, expected, report.text, tuple(reports))
        reports.append(report)
    return tuple(reports)
