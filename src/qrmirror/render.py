"""Grid serialization: ASCII art, plain PBM (P1) and SVG, plus PBM
ingestion for round trips and interchange with external scanners."""

import re

import numpy as np

from .grid import SIZE, ModuleGrid

_COMMENT = re.compile(r"#([^\n]*)")  # a comment runs to the end of its line
MAX_SIDE = 4096  # pixels (modules for ASCII) on an image side, quiet zone included


class RenderError(ValueError):
    pass


def image_side(scale, quiet):
    """(21 + 2 quiet) scale pixels, checked before an image that size is made."""
    if scale < 1:
        raise ValueError("scale must be at least 1")
    if quiet < 0:
        raise ValueError("quiet zone must not be negative")
    if (side := (SIZE + 2 * quiet) * scale) > MAX_SIDE:
        raise ValueError(f"a {side}-pixel side is over {MAX_SIDE}")
    return side


def to_ascii(grid, quiet=0):
    """Two characters per module, '##' dark and '  ' light."""
    image_side(1, quiet)
    glyphs = np.where(np.pad(grid.cells != 0, quiet), "##", "  ")
    return "".join("".join(row) + "\n" for row in glyphs)


def to_pbm(grid, scale=1, quiet=0):
    """Plain PBM bitmap, dark modules as 1. Deterministic byte-for-byte.

    A comment records scale and quiet zone so parse_pbm can invert exactly;
    foreign files without the comment are handled by bounding-box
    detection.
    """
    n = image_side(scale, quiet)
    modules = np.pad(grid.cells.astype(np.uint8), quiet)
    img = np.kron(modules, np.ones((scale, scale), dtype=np.uint8))
    lines = [f"P1", f"{n} {n}", f"# qrmirror scale={scale} quiet={quiet}"]
    for row in img + ord("0"):
        digits = row.tobytes().decode()
        lines.extend(digits[i : i + 70] for i in range(0, len(digits), 70))
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_pbm(data):
    """Recover a ModuleGrid from a P1 stream written by to_pbm, or from any
    square P1 scan without metadata, whatever its margins (_infer_geometry)."""
    text = data.decode("ascii", errors="replace")
    meta = {}
    for comment in _COMMENT.findall(text):  # later comments win
        meta.update(part.split("=", 1) for part in comment.split() if "=" in part)
    tokens = _COMMENT.sub("", text).split()
    if not tokens or tokens[0] != "P1":
        raise RenderError("not a plain PBM (P1) stream")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError):
        raise RenderError("malformed PBM header")
    if width != height:
        raise RenderError(f"image is {width}x{height}, not square")
    if width < SIZE:
        raise RenderError(f"image is {width}x{height}, smaller than {SIZE}x{SIZE}")
    img = np.frombuffer("".join(tokens[3:]).encode("ascii", "replace"), np.uint8) - ord("0")
    if img.size != width * height or (img > 1).any():  # other bytes wrap past 1
        raise RenderError("pixel data does not match the declared dimensions")
    img = img.reshape(height, width)

    if "scale" in meta and "quiet" in meta:
        try:
            scale, quiet = int(meta["scale"]), int(meta["quiet"])
        except ValueError:
            raise RenderError("metadata scale or quiet is not an integer")
        if scale < 1 or quiet < 0 or (SIZE + 2 * quiet) * scale != width:
            raise RenderError("metadata disagrees with the image dimensions")
        top = left = quiet * scale
    else:
        scale, top, left = _infer_geometry(img)

    core = img[top : top + SIZE * scale, left : left + SIZE * scale]
    blocks = core.reshape(SIZE, scale, SIZE, scale).swapaxes(1, 2)
    counts = blocks.reshape(SIZE, SIZE, scale * scale).sum(axis=2)
    return ModuleGrid((counts * 2 > scale * scale).astype(np.uint8))


def _infer_geometry(img):
    """(scale, top, left) from the content box: its size, and its top-left
    corner, where every QR code has a finder pattern."""
    n = img.shape[0]
    rows = np.nonzero(img.any(axis=1))[0]
    cols = np.nonzero(img.any(axis=0))[0]
    if rows.size == 0:
        if n % SIZE:
            raise RenderError(f"{n} pixels not divisible into 21 modules")
        return n // SIZE, 0, 0
    side = max(rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    if side % SIZE:
        raise RenderError(f"content box of {side} pixels not divisible by 21")
    if max(rows[0], cols[0]) + side > n:
        raise RenderError("content box runs past the image edge")
    return side // SIZE, rows[0], cols[0]


def to_svg(grid, quiet=4):
    """SVG with one unit square per dark module."""
    if quiet < 0:
        raise ValueError("quiet zone must not be negative")
    n = SIZE + 2 * quiet
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {n} {n}">',
        f'<rect width="{n}" height="{n}" fill="white"/>',
    ]
    parts.extend(f'<rect x="{c + quiet}" y="{r + quiet}" width="1" height="1"/>'
                 for r, c in np.argwhere(grid.cells).tolist())
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
