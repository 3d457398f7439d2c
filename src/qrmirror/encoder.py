"""Materialize grids: write data bits and format words onto the template,
and build ordinary single-sided Version 1-L codes."""

from . import codec, rscode
from .formatinfo import FormatWord, word_bits
from .grid import TOTAL_BITS, format_positions, function_pattern_grid, placement_cells
from .masks import data_mask


def write_format(grid, on_grid_word):
    """Write a 15-bit on-grid format word into both format copies."""
    bits = word_bits(on_grid_word)
    for positions in format_positions():
        for pos, bit in zip(positions, bits):
            grid.cells[pos] = int(bit)


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


def codeword_bits(payload):
    """The 208-bit codeword stream (payload + Reed-Solomon parity)."""
    if not payload.padded:
        raise ValueError("payload must be padded to 152 bits before encoding")
    data = codec.bits_to_bytes(payload.bits)
    return payload.bits + codec.bytes_to_bits(rscode.rs_encode(data))


def physical_bits(logical_bits, mask_id):
    """Apply a mask to a 208-bit logical stream, yielding cell values."""
    return codec.bits_to_array(logical_bits) ^ data_mask(mask_id)


def encode_single(text, mode="auto", mask_id=0):
    """Standard single-sided Version 1-L code for one message.

    No mask penalty scoring: the mask defaults to 0 and may be any of the
    eight patterns.
    """
    payload = codec.assemble_payload(codec.make_segment(text, mode), pad=True)
    fmt = FormatWord("L", mask_id)
    return materialize(physical_bits(codeword_bits(payload), mask_id), fmt.on_grid)


def standard_physical_bits(text, mode, mask_id):
    """Physical bits of the plain single-sided encoding of a message.

    Used as the fill preference of the double-sided solver, so free cells
    default to what an ordinary encoder would have printed.
    """
    payload = codec.assemble_payload(codec.make_segment(text, mode), pad=True)
    return physical_bits(codeword_bits(payload), mask_id)
