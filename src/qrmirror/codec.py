"""Payload bitstream assembly and parsing for Version 1 codes.

Bit strings are plain '0'/'1' Python strings. A padded payload is always
exactly 152 bits: segment bits, a terminator of up to four zeros, zero fill
to a byte boundary, then the alternating pad bytes 11101100 / 00010001.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import DATA_BITS

ALPHANUMERIC = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ $%*+-./:"

# mode -> (indicator, character-count field width at version 1, alphabet,
# bit widths of a group of 1, 2, ... characters). A group of k characters
# is a k-digit number in base len(alphabet), most significant first
# (ISO/IEC 18004:2015 section 7.4). A segment is full groups, then one
# shorter group for any characters left over.
MODES = {
    "numeric": ("0001", 10, "0123456789", (4, 7, 10)),
    "alphanumeric": ("0010", 9, ALPHANUMERIC, (6, 11)),
    "byte": ("0100", 8, "".join(map(chr, range(256))), (8,)),
}
MODE_OF_INDICATOR = {row[0]: mode for mode, row in MODES.items()}

# per mode: every group of 1..len(widths) characters -> its bits, and
# bits -> group; a mode's group widths differ, so one dict each way holds
# every group size
GROUP_BITS = {
    mode: {"".join(chars): format(value, f"0{width}b")
           for k, width in enumerate(widths, start=1)
           for value, chars in enumerate(product(alphabet, repeat=k))}
    for mode, (_, _, alphabet, widths) in MODES.items()
}
GROUP_TEXT = {mode: {bits: text for text, bits in table.items()}
              for mode, table in GROUP_BITS.items()}

PAD_BYTES = ("11101100", "00010001")


class CodecError(ValueError):
    pass


@dataclass(frozen=True)
class Segment:
    mode: str
    text: str


@dataclass(frozen=True)
class Payload:
    bits: str
    declared_length: int  # characters
    padded: bool


@dataclass(frozen=True)
class ParsedPayload:
    text: str
    mode: str
    declared_length: int


def pick_mode(text):
    """Thriftiest mode whose alphabet covers the text."""
    for mode, table in GROUP_BITS.items():
        if (text or mode != "numeric") and all(ch in table for ch in text):
            return mode
    raise CodecError(f"text not encodable in byte mode: {text!r}")


def make_segment(text, mode="auto"):
    if mode == "auto":
        mode = pick_mode(text)
    return Segment(mode, text)


def bits_to_bytes(bits):
    if len(bits) % 8:
        raise CodecError(f"bit count {len(bits)} not a multiple of 8")
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def bits_to_array(bits):
    """A '0'/'1' string as a uint8 array of 0s and 1s."""
    return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")


def bytes_to_bits(data):
    return "".join(format(b, "08b") for b in data)


def encode_segment(seg):
    """Mode indicator + length field + character data as a bit string."""
    if seg.mode not in MODES:
        raise CodecError(f"unknown mode {seg.mode!r}")
    indicator, width, _, widths = MODES[seg.mode]
    n = len(seg.text)
    if n >= 1 << width:
        raise CodecError(f"{n} characters overflow the length field")
    table, k = GROUP_BITS[seg.mode], len(widths)
    try:
        groups = [table[seg.text[i : i + k]] for i in range(0, n, k)]
    except KeyError:
        raise CodecError(f"text not encodable in {seg.mode} mode: {seg.text!r}")
    return indicator + format(n, f"0{width}b") + "".join(groups)


def assemble_payload(segments, pad=True):
    """Concatenate segments and optionally pad to the full 152 bits.

    Without padding the remaining bits stay unspecified, which is what the
    double-sided construction wants: everything after the declared data is
    free for the solver.
    """
    if isinstance(segments, Segment):
        segments = [segments]
    bits = "".join(encode_segment(s) for s in segments)
    if len(bits) > DATA_BITS:
        raise CodecError(f"{len(bits)} payload bits exceed capacity {DATA_BITS}")
    declared = sum(len(s.text) for s in segments)
    if not pad:
        return Payload(bits, declared, False)

    bits = _terminated(bits)
    if len(bits) % 8:
        bits += "0" * (8 - len(bits) % 8)
    k = 0
    while len(bits) < DATA_BITS:
        bits += PAD_BYTES[k % 2]
        k += 1
    return Payload(bits, declared, True)


def _terminated(bits):
    """bits and the 0000 terminator, cut short at the 152-bit capacity."""
    return bits + "0" * min(4, DATA_BITS - len(bits))


def terminated_payload(segment):
    """The segment and its terminator, unpadded: the bits a double-sided
    construction pins for one message.

    Strict readers parse segment after segment, so the nibble right after
    the message must not look like another mode indicator; pinning the
    terminator keeps them from wandering into the free fill.
    """
    payload = assemble_payload(segment, pad=False)
    return Payload(_terminated(payload.bits), payload.declared_length, False)


def parse_payload(bits):
    """Decode mode, length and characters; trailing bits are ignored.

    Terminator and fill are deliberately not validated: the construction
    relies on readers treating everything past the declared character count
    as noise.
    """
    if len(bits) < 4:
        raise CodecError("payload shorter than a mode indicator")
    indicator = bits[:4]
    if indicator == "0000":
        return ParsedPayload("", "terminator", 0)
    mode = MODE_OF_INDICATOR.get(indicator)
    if mode is None:
        raise CodecError(f"unsupported mode indicator {indicator}")
    _, width, _, widths = MODES[mode]
    if len(bits) < 4 + width:
        raise CodecError("payload truncated inside the length field")
    n = int(bits[4 : 4 + width], 2)
    pos = 4 + width
    table, k = GROUP_TEXT[mode], len(widths)
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
    return ParsedPayload("".join(out), mode, n)
