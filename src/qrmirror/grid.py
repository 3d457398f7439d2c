"""Version 1 matrix geometry: function patterns, bit placement, format
positions, and the diagonal-reflection structure of the 21x21 grid.

Coordinates are (row, col) tuples with 0 <= row, col <= 20. The data region
holds 208 bit positions: 152 payload bits followed by 56 error-correction
bits in the standard two-column zigzag order.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

SIZE = 21
DATA_BITS = 152
ECC_BITS = 56
TOTAL_BITS = DATA_BITS + ECC_BITS
DARK_MODULE = (13, 8)  # (4 * version + 9, 8) for version 1

# Format bit positions, ordered by bit index 14 (most significant) down to 0.
# Copy 1 wraps around the top-left finder; copy 2 sits below the top-right
# finder and to the right of the bottom-left one. Bit 7 of copy 2 is the
# cell (8, 13), the transpose image of the dark module.
FORMAT_POSITIONS_1 = (
    (8, 0), (8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (8, 7), (8, 8),
    (7, 8), (5, 8), (4, 8), (3, 8), (2, 8), (1, 8), (0, 8),
)
FORMAT_POSITIONS_2 = (
    (20, 8), (19, 8), (18, 8), (17, 8), (16, 8), (15, 8), (14, 8), (8, 13),
    (8, 14), (8, 15), (8, 16), (8, 17), (8, 18), (8, 19), (8, 20),
)


@dataclass(eq=False)
class ModuleGrid:
    """A 21x21 module matrix: cells holds 1 for dark and 0 for light."""

    cells: np.ndarray

    @property
    def fixed(self):
        """Read-only mask of the cells outside the 208-bit data region
        (function patterns and format areas). It is the same for every grid
        and maps onto itself under transposition."""
        return _template()[1]

    def copy(self):
        return ModuleGrid(self.cells.copy())

    def transposed(self):
        """The grid as seen after reflection along the main diagonal."""
        return ModuleGrid(self.cells.T.copy())

    def __eq__(self, other):
        if not isinstance(other, ModuleGrid):
            return NotImplemented
        return np.array_equal(self.cells, other.cells)


def transpose_map(coord):
    """Image of a cell under reflection along the main diagonal."""
    r, c = coord
    return (c, r)


@lru_cache(maxsize=1)
def _template():
    """Read-only function-pattern cells and the mask of every fixed cell."""
    # a finder with its light separator band, as seen in the top-left corner;
    # the finder is symmetric, so flips give the other two corners
    corner = np.zeros((8, 8), dtype=np.uint8)
    corner[:7, :7] = 1
    corner[1:6, 1:6] = 0
    corner[2:5, 2:5] = 1
    cells = np.zeros((SIZE, SIZE), dtype=np.uint8)
    cells[:8, :8] = corner
    cells[:8, -8:] = corner[:, ::-1]
    cells[-8:, :8] = corner[::-1]
    fixed = np.zeros((SIZE, SIZE), dtype=bool)
    fixed[:8, :8] = fixed[:8, -8:] = fixed[-8:, :8] = True

    # timing patterns, dark on even coordinates
    cells[6, 8:13] = cells[8:13, 6] = 1 - np.arange(8, 13) % 2
    fixed[6, 8:13] = fixed[8:13, 6] = True

    cells[DARK_MODULE] = 1
    fixed[DARK_MODULE] = True

    # format areas: reserved, written later
    fixed[format_cells()] = True

    fixed.setflags(write=False)
    cells.setflags(write=False)
    return cells, fixed


def function_pattern_grid():
    """Fresh Version-1 template: function patterns set, data region light."""
    return ModuleGrid(_template()[0].copy())


def format_positions():
    """Both format copies as coordinate lists ordered by bit index 14..0."""
    return list(FORMAT_POSITIONS_1), list(FORMAT_POSITIONS_2)


@lru_cache(maxsize=1)
def format_cells():
    """Both format copies as read-only (rows, cols) index arrays.

    Each array has shape (2, 15): copy 1 then copy 2, bit 14 first, so
    indexing a 21x21 array with the pair reads or writes both words at once.
    """
    index = np.array((FORMAT_POSITIONS_1, FORMAT_POSITIONS_2), dtype=np.intp)
    index = index.transpose(2, 0, 1)
    index.setflags(write=False)
    return tuple(index)


@lru_cache(maxsize=1)
def data_placement_order():
    """All 208 data-region coordinates in standard placement order.

    Two-column pairs are walked from the right edge, alternating upward and
    downward, right cell before left; column 6 (the timing column) is
    skipped entirely. Indices 0..151 carry payload bits, 152..207 carry
    error-correction bits.
    """
    _, fixed = _template()
    order = []
    col = SIZE - 1
    upward = True
    while col > 0:
        if col == 6:
            col -= 1
        rows = range(SIZE - 1, -1, -1) if upward else range(SIZE)
        for r in rows:
            for c in (col, col - 1):
                if not fixed[r, c]:
                    order.append((r, c))
        upward = not upward
        col -= 2
    return tuple(order)


@lru_cache(maxsize=1)
def placement_cells():
    """data_placement_order() as read-only (rows, cols) index arrays.

    Indexing a 21x21 array with the pair reads or writes all 208 data
    cells at once, in placement order.
    """
    index = np.array(data_placement_order(), dtype=np.intp).T
    index.setflags(write=False)
    return tuple(index)


@lru_cache(maxsize=1)
def transpose_permutation():
    """sigma with sigma[i] = placement index of the transposed cell i.

    An involution on 0..207, as a read-only intp array: the bit read at
    position i of the mirrored code lives in the physical cell holding
    straight-side bit sigma[i].
    """
    index = np.zeros((SIZE, SIZE), dtype=np.intp)
    index[placement_cells()] = np.arange(TOTAL_BITS)
    sigma = index.T[placement_cells()]
    sigma.setflags(write=False)
    return sigma


ZONE_LABELS = {
    ("payload", "payload"): "a",
    ("payload", "free"): "b",
    ("payload", "ecc"): "c",
    ("free", "payload"): "d",
    ("free", "free"): "g",
    ("free", "ecc"): "h",
    ("ecc", "payload"): "e",
    ("ecc", "free"): "f",
    ("ecc", "ecc"): "i",
}

CONFLICT_ZONES = frozenset("acei")


@dataclass(frozen=True)
class OverlapPartition:
    """Classification of the data region by both sides' use of each cell.

    Zone labels follow the (straight role, mirrored role) pairs: a both
    payloads, b/d payload against free fill, c/e payload against the other
    side's parity, f/h parity against free fill, g free on both sides,
    i parity on both. Conflicts are exactly the zones where neither side is
    free: a, c, e, i. The zone sets are built on first read.
    """

    _lengths: tuple  # (straight, mirrored) declared bits
    _conflict_bytes: tuple  # (straight bytes, mirrored bytes)

    @cached_property
    def zones(self):
        """Zone label -> the set of its (row, col) cells."""
        # a cell's role on a side: how many of (declared length, DATA_BITS) its index reaches
        bits = (np.arange(TOTAL_BITS), transpose_permutation())
        role_a, role_b = (np.searchsorted((n, DATA_BITS), b, side="right")
                          for n, b in zip(self._lengths, bits))
        zones = {label: set() for label in ZONE_LABELS.values()}
        for cell, k in zip(data_placement_order(), (3 * role_a + role_b).tolist()):
            zones[_ZONE_BY_ROLES[k]].add(cell)
        return zones

    def conflict_bytes_a(self):
        """Straight-side codeword bytes touching any conflict zone."""
        return self._conflict_bytes[0]

    def conflict_bytes_b(self):
        """Mirrored-side codeword bytes touching any conflict zone."""
        return self._conflict_bytes[1]


_ROLES = ("payload", "free", "ecc")
# zone label of the role pair (a, b), at index 3 * a + b
_ZONE_BY_ROLES = tuple(ZONE_LABELS[(a, b)] for a in _ROLES for b in _ROLES)


def overlap_partition(len_a_bits, len_b_bits):
    """Partition the 208 data cells by role on each side of the code.

    len_a_bits / len_b_bits are the declared payload prefixes (bits that
    must carry the message as opposed to ignorable fill).
    """
    for n in (len_a_bits, len_b_bits):
        if not 0 <= n <= DATA_BITS:
            raise ValueError(f"payload length {n} outside 0..{DATA_BITS}")
    # a conflict cell is declared or parity on both sides: neither is free.
    # used holds each side's bits in its own order; read as uint64s, a
    # side's conflict cells in its order are nonzero on its conflict bytes
    used = np.ones((2, TOTAL_BITS), dtype=bool)
    used[0, len_a_bits:DATA_BITS] = used[1, len_b_bits:DATA_BITS] = False
    sigma = transpose_permutation()
    conflict = used[0] & used[1][sigma]  # per cell, cell k holding straight bit k
    conflict_bytes = tuple(tuple(np.flatnonzero(cells.view(np.uint64)).tolist())
                           for cells in (conflict, conflict[sigma]))
    return OverlapPartition((len_a_bits, len_b_bits), conflict_bytes)
