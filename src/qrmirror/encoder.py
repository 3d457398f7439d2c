"""Materialize grids: write data bits and format words onto the template,
and build ordinary single-sided Version 1-L codes."""

import numpy as np

from . import codec, rscode
from .formatinfo import FormatWord
from .grid import TOTAL_BITS, format_cells, function_pattern_grid, placement_cells
from .masks import data_mask


def write_format(grid, on_grid_word):
    """Write a 15-bit on-grid format word into both format copies."""
    grid.cells[format_cells()] = (on_grid_word >> np.arange(14, -1, -1)) & 1


def write_data_cells(grid, physical_bits):
    """Write the 208 physical (already masked) data-region values."""
    if len(physical_bits) != TOTAL_BITS:
        raise ValueError(f"need 208 physical bits, got {len(physical_bits)}")
    grid.cells[placement_cells()] = physical_bits


def materialize(physical_bits, on_grid_word):
    """Full grid from physical data bits and an on-grid format word."""
    grid = function_pattern_grid()
    write_data_cells(grid, physical_bits)
    write_format(grid, on_grid_word)
    return grid


def encode_single(text, mode="auto", mask_id=0):
    """Standard single-sided Version 1-L code for one message.

    No mask penalty scoring: the mask defaults to 0 and may be any of the
    eight patterns.
    """
    return materialize(standard_physical_bits(text, mode, mask_id),
                       FormatWord("L", mask_id).on_grid)


def standard_physical_bits(text, mode, mask_id):
    """Physical bits of the plain single-sided encoding of a message.

    The cells encode_single prints: rscode.codeword_bits of assemble_payload,
    the terminated payload padded, masked; a construction's straight code.
    """
    return rscode.codeword_bits(codec.assemble_payload(text, mode)) ^ data_mask(mask_id)
