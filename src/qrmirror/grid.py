"""Version 1 matrix geometry: function patterns, bit placement, format
positions, and the diagonal-reflection structure of the 21x21 grid.

Coordinates are (row, col) tuples with 0 <= row, col <= 20. The data region
holds 208 bit positions: 152 payload bits followed by 56 error-correction
bits in the standard two-column zigzag order.
"""

from dataclasses import dataclass
from functools import lru_cache

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
    """A 21x21 module matrix.

    cells holds 1 for dark and 0 for light; fixed marks cells that do not
    belong to the 208-bit data region (function patterns and format areas).
    """

    cells: np.ndarray
    fixed: np.ndarray

    def copy(self):
        return ModuleGrid(self.cells.copy(), self.fixed.copy())

    def transposed(self):
        """The grid as seen after reflection along the main diagonal."""
        return ModuleGrid(self.cells.T.copy(), self.fixed.T.copy())

    def __eq__(self, other):
        if not isinstance(other, ModuleGrid):
            return NotImplemented
        return np.array_equal(self.cells, other.cells) and np.array_equal(
            self.fixed, other.fixed
        )


def transpose_map(coord):
    """Image of a cell under reflection along the main diagonal."""
    r, c = coord
    return (c, r)


def _finder(cells, fixed, r0, c0):
    for dr in range(7):
        for dc in range(7):
            ring = dr in (0, 6) or dc in (0, 6)
            core = 2 <= dr <= 4 and 2 <= dc <= 4
            cells[r0 + dr, c0 + dc] = 1 if (ring or core) else 0
            fixed[r0 + dr, c0 + dc] = True


@lru_cache(maxsize=1)
def _template():
    cells = np.zeros((SIZE, SIZE), dtype=np.uint8)
    fixed = np.zeros((SIZE, SIZE), dtype=bool)

    _finder(cells, fixed, 0, 0)
    _finder(cells, fixed, 0, SIZE - 7)
    _finder(cells, fixed, SIZE - 7, 0)

    # separators (light strips around the finders)
    for k in range(8):
        fixed[7, k] = fixed[k, 7] = True
        fixed[7, SIZE - 1 - k] = fixed[k, SIZE - 8] = True
        fixed[SIZE - 8, k] = fixed[SIZE - 1 - k, 7] = True

    # timing patterns, dark on even coordinates
    for k in range(8, 13):
        cells[6, k] = 1 - (k % 2)
        cells[k, 6] = 1 - (k % 2)
        fixed[6, k] = fixed[k, 6] = True

    cells[DARK_MODULE] = 1
    fixed[DARK_MODULE] = True

    # format areas: reserved, written later
    for pos in FORMAT_POSITIONS_1 + FORMAT_POSITIONS_2:
        fixed[pos] = True

    fixed.setflags(write=False)
    cells.setflags(write=False)
    return cells, fixed


def function_pattern_grid():
    """Fresh Version-1 template: function patterns set, data region light."""
    cells, fixed = _template()
    return ModuleGrid(cells.copy(), fixed.copy())


def format_positions():
    """Both format copies as coordinate lists ordered by bit index 14..0."""
    return list(FORMAT_POSITIONS_1), list(FORMAT_POSITIONS_2)


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
def placement_index():
    """Inverse of data_placement_order: coordinate -> bit index."""
    return {cell: i for i, cell in enumerate(data_placement_order())}


@lru_cache(maxsize=1)
def transpose_permutation():
    """sigma with sigma[i] = placement index of the transposed cell i.

    An involution on 0..207: the bit read at position i of the mirrored
    code lives in the physical cell holding straight-side bit sigma[i].
    """
    index = placement_index()
    return tuple(index[transpose_map(c)] for c in data_placement_order())


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
    free: a, c, e, i.
    """

    len_a: int
    len_b: int
    zones: dict

    @property
    def conflict_cells(self):
        out = set()
        for label in CONFLICT_ZONES:
            out |= self.zones[label]
        return out

    def side_a_bit(self, cell):
        """Straight-side bit index carried by a data cell."""
        return placement_index()[cell]

    def side_b_bit(self, cell):
        """Mirrored-side bit index carried by a data cell."""
        return transpose_permutation()[placement_index()[cell]]

    def conflict_bytes_a(self):
        """Straight-side codeword bytes touching any conflict zone."""
        return tuple(sorted({self.side_a_bit(c) // 8 for c in self.conflict_cells}))

    def conflict_bytes_b(self):
        """Mirrored-side codeword bytes touching any conflict zone."""
        return tuple(sorted({self.side_b_bit(c) // 8 for c in self.conflict_cells}))


def _role(i, declared):
    if i < declared:
        return "payload"
    if i >= DATA_BITS:
        return "ecc"
    return "free"


def overlap_partition(len_a_bits, len_b_bits):
    """Partition the 208 data cells by role on each side of the code.

    len_a_bits / len_b_bits are the declared payload prefixes (bits that
    must carry the message as opposed to ignorable fill).
    """
    for n in (len_a_bits, len_b_bits):
        if not 0 <= n <= DATA_BITS:
            raise ValueError(f"payload length {n} outside 0..{DATA_BITS}")
    sigma = transpose_permutation()
    zones = {label: set() for label in ZONE_LABELS.values()}
    for i, cell in enumerate(data_placement_order()):
        label = ZONE_LABELS[(_role(i, len_a_bits), _role(sigma[i], len_b_bits))]
        zones[label].add(cell)
    return OverlapPartition(len_a_bits, len_b_bits, zones)
