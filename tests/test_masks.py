"""Mask patterns and their transposition behaviour."""

import numpy as np
import pytest

from qrmirror import masks


def test_mask0_checkerboard():
    # (row + col) mod 2 == 0 inverts the corner
    assert masks.mask_bit(0, (0, 0)) == 1
    assert masks.mask_bit(0, (0, 1)) == 0


def test_mask1_row_only():
    values = {masks.mask_bit(1, (5, c)) for c in range(21)}
    assert values == {0}
    values = {masks.mask_bit(1, (4, c)) for c in range(21)}
    assert values == {1}


def test_exactly_five_symmetric_masks():
    sym = masks.symmetric_masks()
    assert len(sym) == 5
    assert sym == frozenset({0, 3, 5, 6, 7})


def test_symmetry_definition_over_all_cells():
    for m in range(8):
        matrix = masks.mask_matrix(m)
        is_symmetric = all(
            masks.mask_bit(m, (r, c)) == masks.mask_bit(m, (c, r))
            for r in range(21)
            for c in range(21)
        )
        assert is_symmetric == (m in masks.symmetric_masks())
        assert np.array_equal(matrix, matrix.T) == is_symmetric
        assert all(matrix[r, c] == masks.mask_bit(m, (r, c))
                   for r in range(21) for c in range(21))


def test_asymmetric_masks_differ_somewhere():
    for m in range(8):
        if m not in masks.symmetric_masks():
            matrix = masks.mask_matrix(m)
            assert (matrix != matrix.T).sum() >= 1


def test_double_application_is_identity():
    rng = np.random.default_rng(7)
    cells = rng.integers(0, 2, size=(21, 21), dtype=np.uint8)
    for m in range(8):
        matrix = masks.mask_matrix(m)
        assert np.array_equal(cells ^ matrix ^ matrix, cells)


def test_mask_id_validation():
    with pytest.raises(ValueError):
        masks.mask_bit(8, (0, 0))
    with pytest.raises(ValueError):
        masks.mask_bit(-1, (0, 0))
