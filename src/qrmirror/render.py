"""Grid serialization: ASCII art, plain PBM (P1) and SVG, plus PBM
ingestion for round trips and interchange with external scanners."""

import numpy as np

from .grid import SIZE, ModuleGrid, function_pattern_grid


class RenderError(ValueError):
    pass


def to_ascii(grid, quiet=0):
    """Two characters per module, '##' dark and '  ' light."""
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


def to_pbm(grid, scale=1, quiet=0):
    """Plain PBM bitmap, dark modules as 1. Deterministic byte-for-byte.

    A comment records scale and quiet zone so parse_pbm can invert exactly;
    foreign files without the comment are handled by bounding-box
    detection.
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
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


def _tokenize_pbm(data):
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


def parse_pbm(data):
    """Recover a ModuleGrid from a P1 stream written by to_pbm (or any
    square P1 whose module size is inferable)."""
    tokens, meta = _tokenize_pbm(data)
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
    digits = "".join(tokens[3:])
    if len(digits) != width * height or set(digits) - {"0", "1"}:
        raise RenderError("pixel data does not match the declared dimensions")
    img = np.frombuffer(digits.encode(), dtype=np.uint8).reshape(height, width) - ord("0")

    if "scale" in meta and "quiet" in meta:
        try:
            scale, quiet = int(meta["scale"]), int(meta["quiet"])
        except ValueError:
            raise RenderError("metadata scale or quiet is not an integer")
        if scale < 1 or quiet < 0 or (SIZE + 2 * quiet) * scale != width:
            raise RenderError("metadata disagrees with the image dimensions")
    else:
        scale, quiet = _infer_geometry(img)

    start = quiet * scale
    core = img[start : start + SIZE * scale, start : start + SIZE * scale]
    blocks = core.reshape(SIZE, scale, SIZE, scale).swapaxes(1, 2)
    counts = blocks.reshape(SIZE, SIZE, scale * scale).sum(axis=2)
    cells = (counts * 2 > scale * scale).astype(np.uint8)
    template = function_pattern_grid()
    return ModuleGrid(cells, template.fixed)


def _infer_geometry(img):
    n = img.shape[0]
    rows = np.nonzero(img.any(axis=1))[0]
    cols = np.nonzero(img.any(axis=0))[0]
    if rows.size == 0:
        if n % SIZE:
            raise RenderError(f"{n} pixels not divisible into 21 modules")
        return n // SIZE, 0
    side = max(rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    if side % SIZE:
        raise RenderError(f"content box of {side} pixels not divisible by 21")
    scale = side // SIZE
    margin = min(rows[0], cols[0])
    quiet = margin // scale
    if (SIZE + 2 * quiet) * scale != n:
        # margins may be uneven only through the quiet zone; re-derive
        quiet, rem = divmod(n - SIZE * scale, 2 * scale)
        if rem:
            raise RenderError("cannot reconcile quiet zone with image size")
    return scale, quiet


def to_svg(grid, quiet=4):
    """SVG with one unit square per dark module."""
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
