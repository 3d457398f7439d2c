"""The scanner-emulation decode pipeline."""

import random

import numpy as np
import pytest

from qrmirror import codec, encoder, mirror, verify
from qrmirror.grid import data_placement_order, function_pattern_grid
from qrmirror.masks import symmetric_masks


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
        physical = encoder.physical_bits(logical, mask_id)
        assert physical.dtype == np.uint8
        assert physical.tolist() == want_physical

        grid = function_pattern_grid()
        encoder.write_data_cells(grid, physical)
        want_grid = function_pattern_grid()
        for cell, bit in zip(order, want_physical):
            want_grid.cells[cell] = bit
        assert grid == want_grid

        bits = "".join(str(int(grid.cells[cell]) ^ mask_bit(mask_id, cell)) for cell in order)
        assert verify.read_codewords(grid, mask_id) == codec.bits_to_bytes(bits)
