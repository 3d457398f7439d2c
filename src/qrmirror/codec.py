"""Payload bitstream assembly and parsing for Version 1 codes.

Text and mode go in ("auto" picks the thriftiest mode); read-only uint8
arrays of 0s and 1s come out. A padded payload is always exactly 152
bits: segment bits, a terminator of up to four zeros, zero fill to a byte
boundary, then the alternating pad bytes 11101100 / 00010001. A
terminated payload stops after the terminator.
"""

from dataclasses import dataclass

import numpy as np

from .grid import DATA_BITS

ALPHANUMERIC = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ $%*+-./:"

# mode -> (4-bit indicator, character-count field width at version 1,
# alphabet, bit widths of a group of 1, 2, ... characters). A group of k
# characters is a k-digit number in base len(alphabet), most significant
# first (ISO/IEC 18004:2015 section 7.4). A segment is full groups, then
# one shorter group for any characters left over.
MODES = {
    "numeric": (0b0001, 10, "0123456789", (4, 7, 10)),
    "alphanumeric": (0b0010, 9, ALPHANUMERIC, (6, 11)),
    "byte": (0b0100, 8, "".join(map(chr, range(256))), (8,)),
}
MODE_OF_INDICATOR = {row[0]: mode for mode, row in MODES.items()}

# the alternating pad bytes 0xEC 0x11 over the whole data capacity, as one
# DATA_BITS-bit number; its top k bits are the first k pad bits
PAD_VALUE = int.from_bytes(bytes([0xEC, 0x11] * DATA_BITS)[: DATA_BITS // 8], "big")


class CodecError(ValueError):
    pass


@dataclass(frozen=True)
class ParsedPayload:
    text: str
    mode: str


def pick_mode(text):
    """Thriftiest mode whose alphabet covers the text."""
    for mode, (_, _, alphabet, _) in MODES.items():
        if (text or mode != "numeric") and all(ch in alphabet for ch in text):
            return mode
    raise CodecError(f"text not encodable in byte mode: {text!r}")


def _bits(value, size):
    """The size-bit number value as a read-only bit array, most significant
    bit first."""
    data = (value << (-size % 8)).to_bytes((size + 7) // 8, "big")
    bits = np.unpackbits(np.frombuffer(data, np.uint8), count=size)
    bits.setflags(write=False)
    return bits


def _segment_value(text, mode):
    """Mode indicator + length field + character data as (number, bit count)."""
    if mode == "auto":
        mode = pick_mode(text)
    if mode not in MODES:
        raise CodecError(f"unknown mode {mode!r}")
    indicator, width, alphabet, widths = MODES[mode]
    n = len(text)
    if n >= 1 << width:
        raise CodecError(f"{n} characters overflow the length field")
    base, k = len(alphabet), len(widths)
    value, size = indicator << width | n, 4 + width
    for i in range(0, n, k):
        group = text[i : i + k]
        v = 0
        for ch in group:
            digit = alphabet.find(ch)
            if digit < 0:
                raise CodecError(f"text not encodable in {mode} mode: {text!r}")
            v = v * base + digit
        w = widths[len(group) - 1]
        value, size = value << w | v, size + w
    return value, size


def encode_segment(text, mode="auto"):
    """Mode indicator + length field + character data as a bit array."""
    return _bits(*_segment_value(text, mode))


def _declared(text, mode):
    """The segment as (number, bit count), checked against the capacity."""
    value, size = _segment_value(text, mode)
    if size > DATA_BITS:
        raise CodecError(f"{size} payload bits exceed capacity {DATA_BITS}")
    return value, size


def assemble_payload(text, mode="auto"):
    """The full 152 data bits of an ordinary code: the segment, a
    terminator, zero fill to the byte edge, then the pad bytes."""
    value, size = _declared(text, mode)
    end = min(size + 4, DATA_BITS)
    end += -end % 8
    return _bits(value << (DATA_BITS - size) | PAD_VALUE >> end, DATA_BITS)


def terminated_payload(text, mode="auto"):
    """The segment and its terminator, unpadded: the bits a double-sided
    construction pins for one message; every later bit is free for the
    solver.

    Strict readers parse segment after segment, so the nibble right after
    the message must not look like another mode indicator; pinning the
    terminator keeps them from wandering into the free fill.
    """
    value, size = _declared(text, mode)
    end = min(size + 4, DATA_BITS)  # the 0000 terminator, cut short at capacity
    return _bits(value << (end - size), end)


def parse_payload(bits):
    """Decode mode, length and characters; trailing bits are ignored.

    Terminator and fill are deliberately not validated: the construction
    relies on readers treating everything past the declared character count
    as noise.
    """
    size = len(bits)
    if size < 4:
        raise CodecError("payload shorter than a mode indicator")
    value = int.from_bytes(np.packbits(bits), "big") >> (-size % 8)
    rest = size - 4  # bits after the field just read
    indicator = value >> rest
    if indicator == 0:
        return ParsedPayload("", "terminator")
    mode = MODE_OF_INDICATOR.get(indicator)
    if mode is None:
        raise CodecError(f"unsupported mode indicator {indicator:04b}")
    _, width, alphabet, widths = MODES[mode]
    if rest < width:
        raise CodecError("payload truncated inside the length field")
    rest -= width
    n = value >> rest & ((1 << width) - 1)
    base, k = len(alphabet), len(widths)
    out = []
    for i in range(0, n, k):
        count = min(k, n - i)
        w = widths[count - 1]
        if w > rest:
            raise CodecError(f"declared length {n} needs more bits than available")
        rest -= w
        v = value >> rest & ((1 << w) - 1)
        if v >= base**count:
            raise CodecError(f"{mode} group value {v} out of range")
        group = ""
        for _ in range(count):  # least significant digit last
            v, digit = divmod(v, base)
            group = alphabet[digit] + group
        out.append(group)
    return ParsedPayload("".join(out), mode)
