"""The scanner-emulation decode pipeline."""

import random

import numpy as np
import pytest

from qrmirror import codec, encoder, mirror, verify
from qrmirror.formatinfo import FormatWord, apply_format_mask, codewords, word_bits
from qrmirror.grid import (ModuleGrid, data_placement_order, format_positions,
                           function_pattern_grid)
from qrmirror.masks import data_mask, symmetric_masks


def test_single_sided_round_trip_hello():
    report = verify.decode_grid(encoder.encode_single("HELLO"))
    assert report.text == "HELLO"
    assert report.corrected_bytes == frozenset()
    assert report.ec_level == "L"
    assert report.format_distance == 0


def test_round_trip_200_random_messages_every_symmetric_mask():
    rng = random.Random(20)
    for trial in range(200):
        mask = sorted(symmetric_masks())[trial % 5]
        if trial % 2:
            n = rng.randrange(0, 19)
            text = "".join(rng.choice(codec.ALPHANUMERIC) for _ in range(n))
            mode = "alphanumeric"
        else:
            n = rng.randrange(0, 18)
            text = "".join(chr(rng.randrange(32, 127)) for _ in range(n))
            mode = "byte"
        grid = encoder.encode_single(text, mode=mode, mask_id=mask)
        report = verify.decode_grid(grid)
        assert report.text == text
        assert report.mask_id == mask
        assert not report.corrected_bytes


def test_round_trip_every_asymmetric_mask_too():
    for mask in range(8):
        report = verify.decode_grid(encoder.encode_single("QR", mask_id=mask))
        assert (report.text, report.mask_id) == ("QR", mask)


def test_three_corrupted_codeword_bytes_recovered():
    rng = random.Random(21)
    grid = encoder.encode_single("HELLO")
    order = data_placement_order()
    victims = rng.sample(range(26), 3)
    for byte in victims:
        bit = byte * 8 + rng.randrange(8)
        grid.cells[order[bit]] ^= 1
    report = verify.decode_grid(grid)
    assert report.text == "HELLO"
    assert report.corrected_bytes == frozenset(victims)


def test_transpose_orientation_equivalence():
    grid, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    direct = verify.decode_grid(grid.transposed(), "straight")
    via_flag = verify.decode_grid(grid, "transposed")
    assert direct.text == via_flag.text == "BOVIK"
    assert direct.corrected_bytes == via_flag.corrected_bytes
    with pytest.raises(ValueError, match="unknown orientation 'mirrored'"):
        verify.decode_grid(grid, "mirrored")


def test_all_light_data_region_fails_loudly():
    grid = function_pattern_grid()
    from qrmirror.encoder import write_format
    from qrmirror.formatinfo import FormatWord

    write_format(grid, FormatWord("L", 0).on_grid)
    with pytest.raises(verify.DecodeError) as excinfo:
        verify.decode_grid(grid)
    assert excinfo.value.stage in ("rs", "payload")


def test_broken_function_pattern_detected():
    grid = encoder.encode_single("HELLO")
    grid.cells[6, 10] ^= 1  # timing pattern
    with pytest.raises(verify.DecodeError) as excinfo:
        verify.decode_grid(grid)
    assert excinfo.value.stage == "function-pattern"


# a data cell, a format cell and a timing-pattern cell, each given a value
# no module has, in the dtype that can hold it
@pytest.mark.parametrize("cell", [(10, 10), (8, 0), (6, 10)])
@pytest.mark.parametrize("value, dtype", [(2, np.uint8), (255, np.uint8), (-1, np.int8)])
def test_cell_values_other_than_0_and_1_fail_at_function_pattern(cell, value, dtype):
    kind = ("data" if cell in data_placement_order() else
            "format" if cell in format_positions()[0] + format_positions()[1] else "function")
    assert kind == {(10, 10): "data", (8, 0): "format", (6, 10): "function"}[cell]
    grid = ModuleGrid(encoder.encode_single("HELLO").cells.astype(dtype))
    grid.cells[cell] = value
    for orientation, named in (("straight", cell), ("transposed", cell[::-1])):
        with pytest.raises(verify.DecodeError) as info:
            verify.decode_grid(grid, orientation)
        assert str(info.value) == f"function-pattern: cell {named} holds {value}, not 0 or 1"


def test_malformed_grids_fail_at_function_pattern_and_integer_grids_decode():
    cells = encoder.encode_single("HELLO").cells
    # 2 added to the first 24 data cells: 3 bytes the RS decoder would
    # otherwise correct, so the grid read as HELLO
    shifted = cells.copy()
    shifted[tuple(np.array(data_placement_order()[:24]).T)] += 2
    malformed = [(shifted, "cell (9, 19) holds 2, not 0 or 1"),
                 (cells.astype(np.float64), "cells are float64, not integers"),
                 (cells[:20], "grid is not 21x21"),
                 (np.pad(cells, ((0, 0), (0, 1))), "grid is not 21x21")]
    for bad, message in malformed:
        with pytest.raises(verify.DecodeError) as info:
            verify.decode_grid(ModuleGrid(bad))
        assert info.value.stage == "function-pattern"
        assert str(info.value) == f"function-pattern: {message}"
    want = verify.decode_grid(ModuleGrid(cells))
    for dtype in (bool, np.int8, np.int64):
        assert verify.decode_grid(ModuleGrid(cells.astype(dtype))) == want


def test_unreadable_format_detected():
    grid = encoder.encode_single("HELLO")
    from qrmirror.formatinfo import apply_format_mask, bch_decode
    outside = next(w for w in range(1 << 15) if bch_decode(w) is None)
    from qrmirror.encoder import write_format

    write_format(grid, apply_format_mask(outside))
    with pytest.raises(verify.DecodeError) as excinfo:
        verify.decode_grid(grid)
    assert excinfo.value.stage == "format"


def test_format_reconciliation_prefers_smaller_distance():
    from qrmirror.formatinfo import FormatWord
    from qrmirror.grid import format_positions
    from qrmirror.formatinfo import word_bits

    grid = encoder.encode_single("HELLO", mask_id=0)
    # corrupt copy 1 by two bits; copy 2 stays clean and must win
    copy1, _ = format_positions()
    grid.cells[copy1[0]] ^= 1
    grid.cells[copy1[5]] ^= 1
    report = verify.decode_grid(grid)
    assert report.text == "HELLO"
    assert report.format_distance == 0


def reference_write_format(grid, on_grid_word):
    """The per-bit loop write_format replaced, kept as its reference."""
    bits = word_bits(on_grid_word)
    for positions in format_positions():
        for pos, bit in zip(positions, bits):
            grid.cells[pos] = int(bit)


def reference_read_format_words(grid):
    """The per-bit loop read_format_words replaced, kept as its reference."""
    words = []
    for positions in format_positions():
        w = 0
        for pos in positions:
            w = (w << 1) | int(grid.cells[pos])
        words.append(w)
    return words


def test_format_cells_match_per_bit_loops():
    for word in (apply_format_mask(cw) for cw in codewords()):  # all 32 on-grid words
        grid, expected = function_pattern_grid(), function_pattern_grid()
        encoder.write_format(grid, word)
        reference_write_format(expected, word)
        assert np.array_equal(grid.cells, expected.cells)
        assert verify.read_format_words(grid) == [word, word]
    rng = np.random.default_rng(21)
    for _ in range(200):
        grid = ModuleGrid(rng.integers(0, 2, (21, 21), dtype=np.uint8))
        words = verify.read_format_words(grid)
        assert words == reference_read_format_words(grid)
        assert all(type(w) is int for w in words)


def test_single_cell_robustness_sweep():
    # flipping any one data-region cell leaves the grid accepted (a single
    # byte error is well inside the budget) and never crashes the decoder
    grid, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    for cell in data_placement_order():
        mutant = grid.copy()
        mutant.cells[cell] ^= 1
        a, b = verify.verify_double_sided(mutant, "HARRY", "BOVIK")
        assert len(a.corrected_bytes) <= 3
        assert len(b.corrected_bytes) <= 3


def test_verify_double_sided_reports_failing_side():
    # a plain single-sided code does not decode at all when mirrored; the
    # mismatch still names the mirrored side
    grid = encoder.encode_single("HELLO", mask_id=3)
    with pytest.raises(verify.MirrorMismatch) as excinfo:
        verify.verify_double_sided(grid, "HELLO", "OTHER")
    assert excinfo.value.side == "mirrored"
    assert "undecodable" in str(excinfo.value)


def test_plain_code_fails_mirrored():
    grid = encoder.encode_single("HELLO", mask_id=3)
    with pytest.raises(verify.DecodeError):
        verify.decode_grid(grid, "transposed")


def test_mismatch_reported_with_side():
    grid, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    with pytest.raises(verify.MirrorMismatch) as excinfo:
        verify.verify_double_sided(grid, "HARRY", "WRONG")
    assert excinfo.value.side == "mirrored"
    with pytest.raises(verify.MirrorMismatch) as excinfo:
        verify.verify_double_sided(grid, "WRONG", "BOVIK")
    assert excinfo.value.side == "straight"


def test_report_json():
    import json

    report = verify.decode_grid(encoder.encode_single("HI"))
    data = json.loads(report.to_json())
    assert data["text"] == "HI"
    assert data["orientation"] == "straight"
    assert data["corrected_bytes"] == []


def test_placement_arrays_match_per_cell_loop():
    # writing, masking and reading the data region through the placement
    # arrays agrees with walking data_placement_order() cell by cell
    from qrmirror.masks import mask_bit

    rng = random.Random(9)
    order = data_placement_order()
    for mask_id in range(8):
        logical = "".join(rng.choice("01") for _ in range(208))
        want_physical = [int(b) ^ mask_bit(mask_id, cell) for b, cell in zip(logical, order)]
        physical = np.array(list(logical), dtype=np.uint8) ^ data_mask(mask_id)
        assert physical.dtype == np.uint8
        assert physical.tolist() == want_physical

        grid = function_pattern_grid()
        for wrong in (physical[1:], np.append(physical, 0)):
            with pytest.raises(ValueError, match="need 208 physical bits"):
                encoder.write_data_cells(grid, wrong)
        encoder.write_data_cells(grid, physical)
        want_grid = function_pattern_grid()
        for cell, bit in zip(order, want_physical):
            want_grid.cells[cell] = bit
        assert grid == want_grid

        bits = "".join(str(int(grid.cells[cell]) ^ mask_bit(mask_id, cell)) for cell in order)
        assert verify.read_codewords(grid, mask_id) == bytes(
            int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def reference_check_function_patterns(grid):
    """The cell-by-cell template walk the masked comparison replaced."""
    from qrmirror.grid import format_positions

    template = function_pattern_grid()
    fmt_cells = set(format_positions()[0]) | set(format_positions()[1])
    for r in range(grid.cells.shape[0]):
        for c in range(grid.cells.shape[1]):
            if template.fixed[r, c] and (r, c) not in fmt_cells:
                if grid.cells[r, c] != template.cells[r, c]:
                    raise verify.DecodeError(
                        "function-pattern",
                        f"cell ({r}, {c}) does not match the template",
                    )


def _pattern_verdict(check, grid):
    try:
        check(grid)
    except verify.DecodeError as exc:
        return exc.stage, str(exc)
    return None


def test_function_pattern_check_matches_cell_loop_reference():
    # 0-3 flipped fixed cells, format cells included (both checks skip them)
    built, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    bases = (built, built.transposed(), encoder.encode_single("HELLO"),
             function_pattern_grid())
    fixed_cells = np.argwhere(function_pattern_grid().fixed)
    rng = np.random.default_rng(6)
    verdicts = set()
    for trial in range(240):
        grid = bases[trial % len(bases)].copy()
        for r, c in fixed_cells[rng.choice(len(fixed_cells), trial % 4, replace=False)]:
            grid.cells[r, c] ^= 1
        want = _pattern_verdict(reference_check_function_patterns, grid)
        assert _pattern_verdict(verify._check_function_patterns, grid) == want, trial
        verdicts.add(want is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("level", ["M", "Q", "H"])
def test_levels_other_than_l_fail_at_format(level):
    # the data would be read as the 1-L block whatever the format word says
    bits = encoder.standard_physical_bits("HELLO", "auto", 2)
    assert verify.decode_grid(encoder.materialize(bits, FormatWord("L", 2).on_grid)).text == "HELLO"
    grid = encoder.materialize(bits, FormatWord(level, 2).on_grid)
    with pytest.raises(verify.DecodeError) as info:
        verify.decode_grid(grid)
    assert info.value.stage == "format"
    assert str(info.value) == f"format: level {level} is not supported, only L"
