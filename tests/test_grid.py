"""Geometry: function patterns, placement order, transposition, zones."""

import dataclasses

import numpy as np
import pytest

from qrmirror import grid


def test_template_dimensions():
    g = grid.function_pattern_grid()
    assert g.cells.shape == (21, 21)
    assert g.fixed.shape == (21, 21)


def test_data_region_has_208_cells():
    g = grid.function_pattern_grid()
    assert int((~g.fixed).sum()) == 208


def test_dark_module_position_and_value():
    # 4 * version + 9 = 13 for version 1
    g = grid.function_pattern_grid()
    assert grid.DARK_MODULE == (13, 8)
    assert g.cells[13, 8] == 1
    assert g.fixed[13, 8]


def test_data_cells_start_light_and_unfixed():
    g = grid.function_pattern_grid()
    assert not g.cells[~g.fixed].any()


def test_finder_corners_dark():
    g = grid.function_pattern_grid()
    for corner in ((0, 0), (0, 20), (20, 0)):
        assert g.cells[corner] == 1


def test_timing_pattern_alternates():
    g = grid.function_pattern_grid()
    for k in range(8, 13):
        assert g.cells[6, k] == (1 if k % 2 == 0 else 0)
        assert g.cells[k, 6] == (1 if k % 2 == 0 else 0)


def test_placement_order_length_and_uniqueness():
    order = grid.data_placement_order()
    assert len(order) == 208
    assert len(set(order)) == 208


def test_placement_starts_bottom_right():
    assert grid.data_placement_order()[0] == (20, 20)


def test_placement_skips_timing_column():
    assert all(c != 6 for _, c in grid.data_placement_order())


def test_placement_is_bijection_onto_data_region():
    g = grid.function_pattern_grid()
    free = {(r, c) for r in range(21) for c in range(21) if not g.fixed[r, c]}
    assert set(grid.data_placement_order()) == free


def test_transpose_map_involution_all_cells():
    for r in range(21):
        for c in range(21):
            assert grid.transpose_map(grid.transpose_map((r, c))) == (r, c)


def test_transpose_map_examples():
    assert grid.transpose_map((0, 0)) == (0, 0)
    assert grid.transpose_map((13, 8)) == (8, 13)
    assert grid.transpose_map((20, 0)) == (0, 20)


def test_transpose_permutation_is_involution():
    sigma = grid.transpose_permutation()
    assert all(sigma[sigma[i]] == i for i in range(208))


def test_mode_indicator_cells_swap():
    # the first four placement cells form a 2x2 block; transposition swaps
    # the two off-diagonal cells, which is the source of the mode conflict
    sigma = grid.transpose_permutation()
    assert sigma[0] == 0
    assert sigma[1] == 2
    assert sigma[2] == 1
    assert sigma[3] == 3


def test_format_positions_distinct():
    copy1, copy2 = grid.format_positions()
    assert len(copy1) == 15 == len(set(copy1))
    assert len(copy2) == 15 == len(set(copy2))
    assert not set(copy1) & set(copy2)


def test_format_cells_index_both_copies_in_bit_order():
    rows, cols = grid.format_cells()
    assert rows.shape == cols.shape == (2, 15)
    assert not rows.flags.writeable and not cols.flags.writeable
    copies = [list(zip(r, c)) for r, c in zip(rows.tolist(), cols.tolist())]
    assert copies == list(grid.format_positions())


def test_format_copy1_transposes_onto_itself_reversed():
    copy1, _ = grid.format_positions()
    transposed = [grid.transpose_map(p) for p in copy1]
    assert transposed == copy1[::-1]


def test_dark_module_transpose_is_copy2_middle_bit():
    _, copy2 = grid.format_positions()
    image = grid.transpose_map(grid.DARK_MODULE)
    assert image in copy2
    # position list is ordered bit 14..0, so list index 7 is bit index 7,
    # the exact middle of the 15-bit word
    assert copy2.index(image) == 7


def test_format_copy2_transposes_onto_itself_except_dark_module():
    _, copy2 = grid.format_positions()
    transposed = [grid.transpose_map(p) for p in copy2]
    expected = copy2[::-1]
    mismatches = [i for i, (t, e) in enumerate(zip(transposed, expected)) if t != e]
    # only the middle bit escapes: its image is the dark module itself
    assert mismatches == [7]
    assert transposed[7] == grid.DARK_MODULE


def test_overlap_partition_is_a_partition():
    for la, lb in ((0, 0), (41, 41), (152, 152), (24, 57)):
        part = grid.overlap_partition(la, lb)
        union = set()
        total = 0
        for cells in part.zones.values():
            total += len(cells)
            union |= cells
        assert total == 208
        assert len(union) == 208


def test_overlap_partition_full_payload_overlap_is_100():
    part = grid.overlap_partition(152, 152)
    data_a = set().union(*(part.zones[z] for z in "abcdgh"))
    data_b = set().union(*(part.zones[z] for z in "abdefg"))
    assert len(data_a) == 152
    assert len(data_b) == 152
    assert len(data_a & data_b) == 100
    assert len(part.zones["a"]) == 100


def test_overlap_partition_payload_intersection_at_41_bits():
    part = grid.overlap_partition(41, 41)
    assert len(part.zones["a"]) == 4
    # the 4 contested cells are the mode-indicator block at the corner
    assert part.zones["a"] == {(20, 20), (20, 19), (19, 20), (19, 19)}


def test_overlap_partition_ecc_overlap_is_20_bits():
    part = grid.overlap_partition(41, 41)
    assert len(part.zones["c"]) + len(part.zones["e"]) + len(part.zones["i"]) == 20


def test_overlap_partition_zone_i_fixed():
    # parity-vs-parity overlap does not depend on payload lengths
    for la, lb in ((0, 0), (41, 41), (152, 152)):
        part = grid.overlap_partition(la, lb)
        assert part.zones["i"] == {(9, 9), (9, 10), (10, 9), (10, 10)}


def test_overlap_partition_zero_lengths():
    part = grid.overlap_partition(0, 0)
    assert not part.zones["a"] and not part.zones["b"] and not part.zones["c"]
    assert not part.zones["d"] and not part.zones["e"]
    # only parity-vs-data and parity-vs-parity conflicts remain
    assert set().union(*(part.zones[z] for z in grid.CONFLICT_ZONES)) == part.zones["i"]
    assert len(part.zones["f"]) == len(part.zones["h"]) == 52


def test_overlap_partition_control_zone_unions():
    part = grid.overlap_partition(41, 41)
    sigma = grid.transpose_permutation()
    index = {cell: i for i, cell in enumerate(grid.data_placement_order())}
    ecc_a = {cell for cell, i in index.items() if i >= 152}
    ecc_b = {cell for cell, i in index.items() if sigma[i] >= 152}
    assert part.zones["e"] | part.zones["f"] | part.zones["i"] == ecc_a
    assert part.zones["c"] | part.zones["h"] | part.zones["i"] == ecc_b


def test_overlap_partition_conflict_bytes():
    part = grid.overlap_partition(41, 41)
    assert part.conflict_bytes_a() == (0, 2, 3, 19, 21)
    assert part.conflict_bytes_b() == (0, 2, 3, 19, 21)


def test_overlap_partition_rejects_overlong():
    with pytest.raises(ValueError):
        grid.overlap_partition(153, 0)
    with pytest.raises(ValueError):
        grid.overlap_partition(0, -1)


def test_module_grid_transposed():
    g = grid.function_pattern_grid()
    g.cells[3, 17] = 1
    t = g.transposed()
    assert t.cells[17, 3] == 1
    assert t.transposed() == g


def reference_transpose_permutation():
    """The coordinate-dict construction the index-array sigma replaced."""
    index = {cell: i for i, cell in enumerate(grid.data_placement_order())}
    return tuple(index[grid.transpose_map(c)] for c in grid.data_placement_order())


def _reference_role(i, declared):
    if i < declared:
        return "payload"
    if i >= grid.DATA_BITS:
        return "ecc"
    return "free"


def reference_overlap_partition(len_a_bits, len_b_bits):
    """The per-cell partition loop and per-cell conflict-byte lookups the
    role arrays replaced: (zones, conflict cells, straight bytes, mirrored
    bytes)."""
    sigma = reference_transpose_permutation()
    zones = {label: set() for label in grid.ZONE_LABELS.values()}
    for i, cell in enumerate(grid.data_placement_order()):
        label = grid.ZONE_LABELS[(_reference_role(i, len_a_bits),
                                  _reference_role(sigma[i], len_b_bits))]
        zones[label].add(cell)
    conflict_cells = set()
    for label in grid.CONFLICT_ZONES:
        conflict_cells |= zones[label]
    index = {cell: i for i, cell in enumerate(grid.data_placement_order())}
    bytes_a = tuple(sorted({index[c] // 8 for c in conflict_cells}))
    bytes_b = tuple(sorted({sigma[index[c]] // 8 for c in conflict_cells}))
    return zones, conflict_cells, bytes_a, bytes_b


def test_partition_matches_per_cell_reference():
    sigma = grid.transpose_permutation()
    assert sigma.dtype == np.intp and not sigma.flags.writeable
    assert sigma.tolist() == list(reference_transpose_permutation())
    lattice = (0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 41, 57, 76, 100, 127, 150, 151, 152)
    for la in lattice:
        for lb in lattice:
            part = grid.overlap_partition(la, lb)
            zones, conflict_cells, bytes_a, bytes_b = reference_overlap_partition(la, lb)
            assert list(part.zones) == list(zones), (la, lb)
            assert part.zones == zones, (la, lb)
            assert set().union(*(part.zones[z] for z in grid.CONFLICT_ZONES)) == conflict_cells, (
                la, lb)
            assert part.conflict_bytes_a() == bytes_a, (la, lb)
            assert part.conflict_bytes_b() == bytes_b, (la, lb)
            # plain ints, as `qrmirror inspect` prints them in a list
            assert {type(b) for b in part.conflict_bytes_a() + part.conflict_bytes_b()} <= {int}


def _reference_finder(cells, fixed, r0, c0):
    for dr in range(7):
        for dc in range(7):
            ring = dr in (0, 6) or dc in (0, 6)
            core = 2 <= dr <= 4 and 2 <= dc <= 4
            cells[r0 + dr, c0 + dc] = 1 if (ring or core) else 0
            fixed[r0 + dr, c0 + dc] = True


def reference_template():
    """The per-cell finder, separator and timing loops the slices replaced."""
    SIZE = grid.SIZE
    DARK_MODULE = grid.DARK_MODULE
    format_cells = grid.format_cells
    _finder = _reference_finder
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
    fixed[format_cells()] = True

    fixed.setflags(write=False)
    cells.setflags(write=False)
    return cells, fixed


def test_template_matches_per_cell_reference():
    cells, fixed = grid._template()
    want_cells, want_fixed = reference_template()
    assert cells.dtype == want_cells.dtype and fixed.dtype == want_fixed.dtype
    assert np.array_equal(cells, want_cells)
    assert np.array_equal(fixed, want_fixed)
    assert not cells.flags.writeable and not fixed.flags.writeable
    # grids share one fixed mask, so it must map onto itself under reflection
    assert np.array_equal(fixed, fixed.T)
    # the function-pattern cells reflect onto themselves too; the dark module does not
    symmetric = cells == cells.T
    assert not symmetric[grid.DARK_MODULE] and not symmetric[grid.DARK_MODULE[::-1]]
    symmetric[grid.DARK_MODULE] = symmetric[grid.DARK_MODULE[::-1]] = True
    assert symmetric.all()


def test_module_grid_holds_only_cells():
    assert [f.name for f in dataclasses.fields(grid.ModuleGrid)] == ["cells"]
    _, want_fixed = reference_template()
    rng = np.random.default_rng(8)
    g = grid.ModuleGrid(rng.integers(0, 2, (21, 21), dtype=np.uint8))
    for other in (g, grid.function_pattern_grid(), g.copy(), g.transposed()):
        assert np.array_equal(other.fixed, want_fixed)
        assert not other.fixed.flags.writeable
        with pytest.raises(ValueError):
            other.fixed[0, 0] = False

    # copy: equal, independent cells
    c = g.copy()
    assert c == g and c.cells is not g.cells
    c.cells[10, 10] ^= 1
    assert c != g
    # transposed: the reflected cells, in a fresh writable array
    t = g.transposed()
    assert np.array_equal(t.cells, g.cells.T) and t.cells.flags.writeable
    assert t.cells.flags.c_contiguous and not np.shares_memory(t.cells, g.cells)
    assert t.transposed() == g
    # ==: equal cells, whatever the array; other types are not equal
    assert g == grid.ModuleGrid(g.cells.copy())
    assert g != grid.ModuleGrid(g.cells[:20])
    assert g != "grid"
    assert g.__eq__(g.cells) is NotImplemented
    # fresh templates stay writable copies of the read-only cells
    f = grid.function_pattern_grid()
    assert f.cells.flags.writeable
    f.cells[20, 20] = 1
    assert grid.function_pattern_grid().cells[20, 20] == 0
