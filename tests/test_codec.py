"""Bitstream assembly and parsing."""

import random
from itertools import product

import numpy as np
import pytest

from qrmirror import codec, encoder, rscode
from qrmirror.codec import ALPHANUMERIC, CodecError, ParsedPayload
from qrmirror.grid import DATA_BITS
from qrmirror.masks import data_mask

HELLO_BITS = "0010" + "000000101" + "01100001011" + "01111000110" + "011000"


def as_array(bits):
    """A '0'/'1' string as a uint8 bit array."""
    return np.array(list(bits), dtype=np.uint8)


def as_string(bits):
    """A bit array as a '0'/'1' string."""
    return "".join(map(str, bits))


def test_hello_exact_bits():
    assert as_string(codec.encode_segment("HELLO", "alphanumeric")) == HELLO_BITS
    assert len(HELLO_BITS) == 41


def test_empty_alphanumeric_segment():
    bits = codec.encode_segment("", "alphanumeric")
    assert as_string(bits) == "0010" + "0" * 9


def test_ab_pair_value():
    # A=10, B=11 in the 45-character table
    assert codec.ALPHANUMERIC.index("A") * 45 + codec.ALPHANUMERIC.index("B") == 461
    bits = codec.encode_segment("AB", "alphanumeric")
    assert as_string(bits[13:]) == format(461, "011b")


def test_alphanumeric_length_formula():
    for n in range(0, 20):
        text = "ABCDEFGHIJKLMNOPQRST"[:n]
        bits = codec.encode_segment(text, "alphanumeric")
        assert len(bits) == 4 + 9 + 11 * (n // 2) + 6 * (n % 2)


def test_alphanumeric_rejects_lowercase():
    with pytest.raises(codec.CodecError):
        codec.encode_segment("hello", "alphanumeric")


def test_numeric_segment():
    bits = codec.encode_segment("12345", "numeric")
    assert as_string(bits) == ("0001" + format(5, "010b") + format(123, "010b")
                               + format(45, "07b"))


def test_byte_segment():
    bits = codec.encode_segment("Hi!", "byte")
    assert as_string(bits) == "0100" + format(3, "08b") + "010010000110100100100001"


def test_pick_mode():
    assert codec.pick_mode("1234") == "numeric"
    assert codec.pick_mode("HELLO") == "alphanumeric"
    assert codec.pick_mode("Hello") == "byte"
    assert codec.pick_mode("") == "alphanumeric"


def test_padded_payload_is_152_bits_with_fill_pattern():
    payload = codec.assemble_payload("HELLO")
    assert len(payload) == 152
    # terminator, zero fill to the byte edge, then alternating pad bytes
    tail = as_string(payload[48:])
    expected = ("11101100" + "00010001") * 7
    assert tail == expected[: len(tail)]


def test_padded_empty_payload():
    bits = as_string(codec.assemble_payload(""))
    assert len(bits) == 152
    assert bits[:13] == "0010" + "0" * 9
    assert bits[13:17] == "0000"  # terminator
    assert bits[17:24] == "0" * 7  # fill to the byte boundary


def test_payload_bits_are_read_only_uint8():
    for bits in (codec.encode_segment("HELLO"), codec.assemble_payload("HELLO"),
                 codec.terminated_payload("HELLO"),
                 codec.pad_payload(codec.terminated_payload("HELLO"))):
        assert bits.dtype == np.uint8
        assert set(bits.tolist()) <= {0, 1}
        with pytest.raises(ValueError):
            bits[0] = 1
        assert as_string(bits[:41]) == HELLO_BITS
    assert as_string(codec.terminated_payload("HELLO")) == HELLO_BITS + "0000"


def test_assemble_rejects_overflow():
    with pytest.raises(codec.CodecError):
        codec.assemble_payload("x" * 20, "byte")


def test_parse_ignores_trailing_bits():
    parsed = codec.parse_payload(as_array(HELLO_BITS + "10110100101011"))
    assert parsed.text == "HELLO"
    assert parsed.mode == "alphanumeric"


def test_parse_empty_message():
    parsed = codec.parse_payload(as_array("0010" + "0" * 9 + "111"))
    assert parsed.text == ""


def test_parse_rejects_eci():
    with pytest.raises(codec.CodecError):
        codec.parse_payload(as_array("0111" + "0" * 20))


def test_parse_rejects_truncated_data():
    with pytest.raises(codec.CodecError):
        codec.parse_payload(as_array("0010" + format(10, "09b") + "0" * 11))


def test_parse_terminator_only():
    parsed = codec.parse_payload(as_array("0000" + "0" * 20))
    assert parsed.text == ""
    assert parsed.mode == "terminator"


def test_round_trip_alphanumeric_up_to_18():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(0, 19)
        text = "".join(rng.choice(codec.ALPHANUMERIC) for _ in range(n))
        assert codec.parse_payload(codec.assemble_payload(text, "alphanumeric")).text == text


def test_round_trip_byte_up_to_17():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randrange(0, 18)
        text = "".join(chr(rng.randrange(32, 256)) for _ in range(n))
        assert codec.parse_payload(codec.assemble_payload(text, "byte")).text == text


def test_round_trip_numeric():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randrange(0, 42)
        text = "".join(rng.choice("0123456789") for _ in range(n))
        assert codec.parse_payload(codec.assemble_payload(text, "numeric")).text == text


def test_bits_bytes_helpers():
    # the reference converters, and the numpy calls that replaced them
    assert reference_bits_to_bytes("1110110000010001") == bytes([0xEC, 0x11])
    assert reference_bytes_to_bits(bytes([0xEC, 0x11])) == "1110110000010001"
    with pytest.raises(codec.CodecError):
        reference_bits_to_bytes("101")
    assert np.packbits(as_array("1110110000010001")).tobytes() == bytes([0xEC, 0x11])
    assert as_string(np.unpackbits(np.frombuffer(bytes([0xEC, 0x11]), np.uint8))) == (
        "1110110000010001")


# The '0'/'1' string codec the bit arrays replaced, kept verbatim (names
# prefixed) as the reference for the differential tests below.

REFERENCE_MODES = {
    "numeric": ("0001", 10, "0123456789", (4, 7, 10)),
    "alphanumeric": ("0010", 9, ALPHANUMERIC, (6, 11)),
    "byte": ("0100", 8, "".join(map(chr, range(256))), (8,)),
}
REFERENCE_MODE_OF_INDICATOR = {row[0]: mode for mode, row in REFERENCE_MODES.items()}

# per mode: every group of 1..len(widths) characters -> its bits, and
# bits -> group; a mode's group widths differ, so one dict each way holds
# every group size
REFERENCE_GROUP_BITS = {
    mode: {"".join(chars): format(value, f"0{width}b")
           for k, width in enumerate(widths, start=1)
           for value, chars in enumerate(product(alphabet, repeat=k))}
    for mode, (_, _, alphabet, widths) in REFERENCE_MODES.items()
}
REFERENCE_GROUP_TEXT = {mode: {bits: text for text, bits in table.items()}
                        for mode, table in REFERENCE_GROUP_BITS.items()}

REFERENCE_PAD_BYTES = ("11101100", "00010001")


def reference_bits_to_bytes(bits):
    if len(bits) % 8:
        raise CodecError(f"bit count {len(bits)} not a multiple of 8")
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def reference_bytes_to_bits(data):
    return "".join(format(b, "08b") for b in data)


def reference_string_encode_segment(text, mode):
    """Mode indicator + length field + character data as a bit string."""
    if mode == "auto":
        mode = reference_pick_mode(text)
    if mode not in REFERENCE_MODES:
        raise CodecError(f"unknown mode {mode!r}")
    indicator, width, _, widths = REFERENCE_MODES[mode]
    n = len(text)
    if n >= 1 << width:
        raise CodecError(f"{n} characters overflow the length field")
    table, k = REFERENCE_GROUP_BITS[mode], len(widths)
    try:
        groups = [table[text[i : i + k]] for i in range(0, n, k)]
    except KeyError:
        raise CodecError(f"text not encodable in {mode} mode: {text!r}")
    return indicator + format(n, f"0{width}b") + "".join(groups)


def reference_string_terminated_payload(text, mode):
    """The segment and its 0000 terminator, the terminator cut short at the
    152-bit capacity."""
    bits = reference_string_encode_segment(text, mode)
    if len(bits) > DATA_BITS:
        raise CodecError(f"{len(bits)} payload bits exceed capacity {DATA_BITS}")
    return bits + "0" * min(4, DATA_BITS - len(bits))


def reference_string_assemble_payload(text, mode):
    """The terminated segment padded to the full 152 bits."""
    bits = reference_string_terminated_payload(text, mode)
    if len(bits) % 8:
        bits += "0" * (8 - len(bits) % 8)
    k = 0
    while len(bits) < DATA_BITS:
        bits += REFERENCE_PAD_BYTES[k % 2]
        k += 1
    return bits


def reference_string_parse_payload(bits):
    """Decode mode, length and characters; trailing bits are ignored.

    Terminator and fill are deliberately not validated: the construction
    relies on readers treating everything past the declared character count
    as noise.
    """
    if len(bits) < 4:
        raise CodecError("payload shorter than a mode indicator")
    indicator = bits[:4]
    if indicator == "0000":
        return ParsedPayload("", "terminator")
    mode = REFERENCE_MODE_OF_INDICATOR.get(indicator)
    if mode is None:
        raise CodecError(f"unsupported mode indicator {indicator}")
    _, width, _, widths = REFERENCE_MODES[mode]
    if len(bits) < 4 + width:
        raise CodecError("payload truncated inside the length field")
    n = int(bits[4 : 4 + width], 2)
    pos = 4 + width
    table, k = REFERENCE_GROUP_TEXT[mode], len(widths)
    out = []
    for i in range(0, n, k):
        end = pos + widths[min(k, n - i) - 1]
        if end > len(bits):
            raise CodecError(f"declared length {n} needs more bits than available")
        group = table.get(bits[pos:end])
        if group is None:
            raise CodecError(f"{mode} group value {int(bits[pos:end], 2)} out of range")
        out.append(group)
        pos = end
    return ParsedPayload("".join(out), mode)


# The per-mode codec the mode table replaced, kept verbatim as the reference
# for the differential tests below.

MODE_INDICATOR = {"numeric": "0001", "alphanumeric": "0010", "byte": "0100"}
MODE_OF_INDICATOR = {v: k for k, v in MODE_INDICATOR.items()}
# character-count field width at version 1
LENGTH_FIELD = {"numeric": 10, "alphanumeric": 9, "byte": 8}


def reference_pick_mode(text):
    """Thriftiest mode whose alphabet covers the text."""
    if text and all(ch in "0123456789" for ch in text):
        return "numeric"
    if all(ch in ALPHANUMERIC for ch in text):
        return "alphanumeric"
    try:
        text.encode("latin-1")
    except UnicodeEncodeError:
        raise CodecError(f"text not encodable in byte mode: {text!r}")
    return "byte"


def _alnum_value(ch):
    v = ALPHANUMERIC.find(ch)
    if v < 0:
        raise CodecError(f"character {ch!r} outside the alphanumeric table")
    return v


def reference_encode_segment(text, mode):
    """Mode indicator + length field + character data as a bit string."""
    if mode not in MODE_INDICATOR:
        raise CodecError(f"unknown mode {mode!r}")
    n = len(text)
    if n >= 1 << LENGTH_FIELD[mode]:
        raise CodecError(f"{n} characters overflow the length field")
    bits = MODE_INDICATOR[mode] + format(n, f"0{LENGTH_FIELD[mode]}b")

    if mode == "alphanumeric":
        for i in range(0, n - 1, 2):
            pair = _alnum_value(text[i]) * 45 + _alnum_value(text[i + 1])
            bits += format(pair, "011b")
        if n % 2:
            bits += format(_alnum_value(text[-1]), "06b")
    elif mode == "numeric":
        if not all(ch in "0123456789" for ch in text):
            raise CodecError("numeric mode requires digits only")
        for i in range(0, n - n % 3, 3):
            bits += format(int(text[i : i + 3]), "010b")
        rest = n % 3
        if rest == 1:
            bits += format(int(text[-1]), "04b")
        elif rest == 2:
            bits += format(int(text[-2:]), "07b")
    else:  # byte
        try:
            raw = text.encode("latin-1")
        except UnicodeEncodeError:
            raise CodecError(f"text not encodable in byte mode: {text!r}")
        bits += reference_bytes_to_bits(raw)
    return bits


def reference_parse_payload(bits):
    """Decode mode, length and characters; trailing bits are ignored.

    Terminator and fill are deliberately not validated: the construction
    relies on readers treating everything past the declared character count
    as noise.
    """
    if len(bits) < 4:
        raise CodecError("payload shorter than a mode indicator")
    indicator = bits[:4]
    if indicator == "0000":
        return ParsedPayload("", "terminator")
    mode = MODE_OF_INDICATOR.get(indicator)
    if mode is None:
        raise CodecError(f"unsupported mode indicator {indicator}")
    width = LENGTH_FIELD[mode]
    if len(bits) < 4 + width:
        raise CodecError("payload truncated inside the length field")
    n = int(bits[4 : 4 + width], 2)
    pos = 4 + width

    def take(count):
        nonlocal pos
        if pos + count > len(bits):
            raise CodecError(
                f"declared length {n} needs more bits than available"
            )
        chunk = bits[pos : pos + count]
        pos += count
        return chunk

    out = []
    if mode == "alphanumeric":
        for _ in range(n // 2):
            v = int(take(11), 2)
            if v >= 45 * 45:
                raise CodecError(f"alphanumeric pair value {v} out of range")
            out.append(ALPHANUMERIC[v // 45])
            out.append(ALPHANUMERIC[v % 45])
        if n % 2:
            v = int(take(6), 2)
            if v >= 45:
                raise CodecError(f"alphanumeric value {v} out of range")
            out.append(ALPHANUMERIC[v])
    elif mode == "numeric":
        for _ in range(n // 3):
            out.append(format(int(take(10), 2), "03d"))
        rest = n % 3
        if rest == 1:
            out.append(format(int(take(4), 2), "01d"))
        elif rest == 2:
            out.append(format(int(take(7), 2), "02d"))
    else:
        raw = bytes(int(take(8), 2) for _ in range(n))
        out.append(raw.decode("latin-1"))
    text = "".join(out)
    if len(text) != n:
        raise CodecError("decoded character count mismatch")
    return ParsedPayload(text, mode)


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def exact_outcome(fn, *args):
    """fn's result with bit arrays as '0'/'1' strings, or the type and
    message of the exception it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are the outcome
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return as_string(result)
    return result


# character pools: each mode's alphabet, lowercase, Latin-1 beyond ASCII,
# and characters no mode encodes
POOLS = ("0123456789", ALPHANUMERIC, "abcxyz", "".join(map(chr, range(128, 256))),
         "".join(map(chr, range(256))), "Ā€中\U0001f600")
MODES_TRIED = ("numeric", "alphanumeric", "byte", "kanji")


def sample_texts(rng):
    """Texts of every length up to past the 152-bit capacity, drawn from
    one pool, from one pool with one stranger, and from several pools."""
    for n in range(0, 45):
        for pool in POOLS:
            text = [rng.choice(pool) for _ in range(n)]
            yield "".join(text)
            if n:
                text[rng.randrange(n)] = rng.choice(rng.choice(POOLS))
                yield "".join(text)
        yield "".join(rng.choice(rng.choice(POOLS)) for _ in range(n))
    # overflow each mode's length field
    for n in (255, 256, 511, 512, 1023, 1024):
        yield "7" * n


def test_encode_and_pick_mode_match_per_mode_reference():
    rng = random.Random(71)
    for text in sample_texts(rng):
        assert outcome(codec.pick_mode, text) == outcome(reference_pick_mode, text)
        for mode in MODES_TRIED:
            got = outcome(codec.encode_segment, text, mode)
            if isinstance(got, np.ndarray):
                got = as_string(got)
            assert got == outcome(reference_encode_segment, text, mode), (mode, text)


def test_parse_matches_per_mode_reference_on_random_bits():
    rng = random.Random(72)
    indicators = ["0001", "0010", "0100", "0000"] + [format(v, "04b") for v in range(16)]
    for _ in range(6000):
        bits = rng.choice(indicators)
        if rng.random() < 0.5 and bits in MODE_OF_INDICATOR:
            # a small declared count, so the groups behind it are reached
            width = LENGTH_FIELD[MODE_OF_INDICATOR[bits]]
            bits += format(rng.randrange(0, 50), f"0{width}b")
        bits += "".join(rng.choice("01") for _ in range(rng.randrange(0, 160)))
        bits = bits[: rng.randrange(0, len(bits) + 1)] if rng.random() < 0.2 else bits
        assert outcome(codec.parse_payload, as_array(bits)) == outcome(
            reference_parse_payload, bits), bits
        assert exact_outcome(codec.parse_payload, as_array(bits)) == exact_outcome(
            reference_string_parse_payload, bits), bits


def test_parse_matches_per_mode_reference_on_cut_and_flipped_encodings():
    rng = random.Random(73)
    for text in sample_texts(rng):
        for mode in MODES_TRIED[:3]:
            try:
                bits = reference_encode_segment(text, mode)
            except CodecError:
                continue
            variants = [bits, bits[: rng.randrange(0, len(bits) + 1)]]
            flipped = list(bits)
            for i in rng.sample(range(len(bits)), min(3, len(bits))):
                flipped[i] = "10"[int(flipped[i])]
            variants.append("".join(flipped))
            for v in variants:
                assert outcome(codec.parse_payload, as_array(v)) == outcome(
                    reference_parse_payload, v), v
                assert exact_outcome(codec.parse_payload, as_array(v)) == exact_outcome(
                    reference_string_parse_payload, v), v


def reference_string_physical_bits(text, mode, mask_id):
    """The string pipeline's single-sided physical bits: padded payload,
    bytes, Reed-Solomon parity, bits again, then the mask."""
    bits = reference_string_assemble_payload(text, mode)
    logical = bits + reference_bytes_to_bits(rscode.rs_encode(reference_bits_to_bytes(bits)))
    return as_array(logical) ^ data_mask(mask_id)


def test_bit_codec_matches_string_codec_on_seeded_messages():
    # every mode, lengths past capacity, and texts no mode encodes: the
    # same bits, or the same error with the same message
    rng = random.Random(74)
    physical_checked = 0
    for text in sample_texts(rng):
        for mode in ("auto", *MODES_TRIED):
            for fn, reference in ((codec.encode_segment, reference_string_encode_segment),
                                  (codec.assemble_payload, reference_string_assemble_payload),
                                  (codec.terminated_payload,
                                   reference_string_terminated_payload)):
                assert exact_outcome(fn, text, mode) == exact_outcome(
                    reference, text, mode), (fn.__name__, mode, text)
        for mode in ("auto", *MODES_TRIED[:3]):
            want = exact_outcome(reference_string_physical_bits, text, mode, 0)
            if isinstance(want, tuple):  # an error, masks aside
                assert exact_outcome(encoder.standard_physical_bits, text, mode, 0) == want
                continue
            for mask_id in range(8):
                got = encoder.standard_physical_bits(text, mode, mask_id)
                assert got.dtype == np.uint8
                assert np.array_equal(got, reference_string_physical_bits(text, mode, mask_id))
                physical_checked += 1
    assert physical_checked > 1000


def data_blocks(rng):
    """19-byte data blocks: the assembled payload of every text and mode
    that encodes, random bytes, and random indicator + count + bit streams
    cut or zero-padded to the 152 data bits."""
    for text in sample_texts(rng):
        for mode in ("auto", *MODES_TRIED[:3]):
            try:
                yield np.packbits(codec.assemble_payload(text, mode)).tobytes()
            except CodecError:
                pass
    for _ in range(2000):
        yield rng.randbytes(DATA_BITS // 8)
    for _ in range(2000):
        bits = format(rng.randrange(16), "04b")
        if bits in MODE_OF_INDICATOR:
            bits += format(rng.randrange(0, 60), f"0{LENGTH_FIELD[MODE_OF_INDICATOR[bits]]}b")
        bits += "".join(rng.choice("01") for _ in range(rng.randrange(0, 160)))
        yield reference_bits_to_bytes(bits[:DATA_BITS].ljust(DATA_BITS, "0"))


def test_parse_of_the_data_bytes_matches_parse_of_their_bits():
    # decode_grid parses the corrected data bytes as one number; it must
    # read what parse_payload reads from the same bytes' bits
    rng = random.Random(75)
    outcomes = set()
    for block in data_blocks(rng):
        want = exact_outcome(codec.parse_payload, np.unpackbits(np.frombuffer(block, np.uint8)))
        assert exact_outcome(codec.parse_value, int.from_bytes(block, "big"), DATA_BITS) == (
            want), block.hex()
        outcomes.add(want[0] if isinstance(want, tuple) else want.mode)
    assert outcomes == {CodecError, "numeric", "alphanumeric", "byte", "terminator"}, outcomes
