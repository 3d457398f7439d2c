"""Payload bitstream assembly and parsing for Version 1 codes.

Bit strings are plain '0'/'1' Python strings. A padded payload is always
exactly 152 bits: segment bits, a terminator of up to four zeros, zero fill
to a byte boundary, then the alternating pad bytes 11101100 / 00010001.
"""

from dataclasses import dataclass

import numpy as np

from .grid import DATA_BITS

ALPHANUMERIC = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ $%*+-./:"

MODE_INDICATOR = {"numeric": "0001", "alphanumeric": "0010", "byte": "0100"}
MODE_OF_INDICATOR = {v: k for k, v in MODE_INDICATOR.items()}
# character-count field width at version 1
LENGTH_FIELD = {"numeric": 10, "alphanumeric": 9, "byte": 8}

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
    if text and all(ch in "0123456789" for ch in text):
        return "numeric"
    if all(ch in ALPHANUMERIC for ch in text):
        return "alphanumeric"
    try:
        text.encode("latin-1")
    except UnicodeEncodeError:
        raise CodecError(f"text not encodable in byte mode: {text!r}")
    return "byte"


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


def _alnum_value(ch):
    v = ALPHANUMERIC.find(ch)
    if v < 0:
        raise CodecError(f"character {ch!r} outside the alphanumeric table")
    return v


def encode_segment(seg):
    """Mode indicator + length field + character data as a bit string."""
    if seg.mode not in MODE_INDICATOR:
        raise CodecError(f"unknown mode {seg.mode!r}")
    n = len(seg.text)
    if n >= 1 << LENGTH_FIELD[seg.mode]:
        raise CodecError(f"{n} characters overflow the length field")
    bits = MODE_INDICATOR[seg.mode] + format(n, f"0{LENGTH_FIELD[seg.mode]}b")

    if seg.mode == "alphanumeric":
        for i in range(0, n - 1, 2):
            pair = _alnum_value(seg.text[i]) * 45 + _alnum_value(seg.text[i + 1])
            bits += format(pair, "011b")
        if n % 2:
            bits += format(_alnum_value(seg.text[-1]), "06b")
    elif seg.mode == "numeric":
        if not all(ch in "0123456789" for ch in seg.text):
            raise CodecError("numeric mode requires digits only")
        for i in range(0, n - n % 3, 3):
            bits += format(int(seg.text[i : i + 3]), "010b")
        rest = n % 3
        if rest == 1:
            bits += format(int(seg.text[-1]), "04b")
        elif rest == 2:
            bits += format(int(seg.text[-2:]), "07b")
    else:  # byte
        try:
            raw = seg.text.encode("latin-1")
        except UnicodeEncodeError:
            raise CodecError(f"text not encodable in byte mode: {seg.text!r}")
        bits += bytes_to_bits(raw)
    return bits


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

    bits += "0" * min(4, DATA_BITS - len(bits))
    if len(bits) % 8:
        bits += "0" * (8 - len(bits) % 8)
    k = 0
    while len(bits) < DATA_BITS:
        bits += PAD_BYTES[k % 2]
        k += 1
    return Payload(bits, declared, True)


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
    return ParsedPayload(text, mode, n)
