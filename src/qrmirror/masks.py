"""The eight data mask patterns and their behaviour under transposition."""

from functools import lru_cache

import numpy as np

from .grid import SIZE, placement_cells

MASK_CONDITIONS = (
    lambda r, c: (r + c) % 2 == 0,
    lambda r, c: r % 2 == 0,
    lambda r, c: c % 3 == 0,
    lambda r, c: (r + c) % 3 == 0,
    lambda r, c: (r // 2 + c // 3) % 2 == 0,
    lambda r, c: (r * c) % 2 + (r * c) % 3 == 0,
    lambda r, c: ((r * c) % 2 + (r * c) % 3) % 2 == 0,
    lambda r, c: ((r + c) % 2 + (r * c) % 3) % 2 == 0,
)


def _condition(mask_id):
    if not 0 <= mask_id <= 7:
        raise ValueError(f"mask id {mask_id} outside 0..7")
    return MASK_CONDITIONS[mask_id]


def mask_bit(mask_id, coord):
    """1 if mask mask_id inverts the cell at coord, else 0."""
    r, c = coord
    return 1 if _condition(mask_id)(r, c) else 0


@lru_cache(maxsize=8)
def mask_matrix(mask_id):
    """Full 21x21 inversion pattern of one mask, as a read-only array."""
    m = _condition(mask_id)(*np.indices((SIZE, SIZE))).astype(np.uint8)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=8)
def data_mask(mask_id):
    """One mask over the 208 data cells in placement order, read-only."""
    m = mask_matrix(mask_id)[placement_cells()]
    m.setflags(write=False)
    return m


@lru_cache(maxsize=1)
def symmetric_masks():
    """Mask ids whose pattern is invariant under transposition."""
    return frozenset(
        m for m in range(8) if np.array_equal(mask_matrix(m), mask_matrix(m).T)
    )
