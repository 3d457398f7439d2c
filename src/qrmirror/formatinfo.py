"""Format information: BCH(15,5) codewords, the on-grid XOR pattern, and
the flip graph used to pick a control code readable from both sides.

Words are 15-bit integers, bit 14 most significant. The five information
bits are two error-correction level bits followed by three mask bits; the
published XOR pattern 101010000010010 is applied before a word goes on the
grid, so the flip graph exists in two flavours: over raw codewords and over
their on-grid forms. Real readers see the on-grid form, which is the one
the mirror construction trusts. One table holds the code's radius-3 ball
(_ball): bch_decode looks words up in it, the flip graph and the witness
selection walk it.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .masks import symmetric_masks

GENERATOR = 0b10100110111  # x^10 + x^8 + x^5 + x^4 + x^2 + x + 1
FORMAT_XOR = 0b101010000010010

EC_BITS = {"L": 0b01, "M": 0b00, "Q": 0b11, "H": 0b10}
EC_NAME = {v: k for k, v in EC_BITS.items()}

MIDDLE_BIT = 1 << 7


def bch_encode(info):
    """15-bit systematic codeword for 5 information bits."""
    if not 0 <= info < 32:
        raise ValueError(f"info value {info} outside 0..31")
    rem = info << 10
    for i in range(4, -1, -1):
        if rem & (1 << (i + 10)):
            rem ^= GENERATOR << i
    return (info << 10) | rem


@lru_cache(maxsize=1)
def codewords():
    return tuple(bch_encode(i) for i in range(32))


def bch_decode(word):
    """Nearest codeword within Hamming distance 3, as (info, distance).

    Returns None when every codeword is further away: one lookup in the
    radius-3 ball, unique because the code's minimum distance is 7.
    """
    if not 0 <= word < 1 << 15:
        raise ValueError(f"word {word} is not a 15-bit value")
    return _ball()[word]


@lru_cache(maxsize=1)
def _ball():
    """Read-only table over all 32,768 raw words: a word's (info, distance)
    if within 3 of a codeword, else None; one shared tuple per pair."""
    flips = [sum(1 << p for p in positions)
             for w in range(4) for positions in itertools.combinations(range(15), w)]
    table = [None] * (1 << 15)
    for info, word in enumerate(codewords()):
        hits = [(info, d) for d in range(4)]
        for e in flips:
            table[word ^ e] = hits[e.bit_count()]
    return tuple(table)


def apply_format_mask(word):
    """XOR with the fixed on-grid pattern (an involution)."""
    return word ^ FORMAT_XOR


_BYTE_REVERSED = tuple(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse_word(word):
    """The 15 bits in reversed order, as read after transposition.

    Reversing the two bytes gives the 16-bit reversal, whose lowest bit is
    the always-clear bit 15.
    """
    return _BYTE_REVERSED[word & 0xFF] << 7 | _BYTE_REVERSED[word >> 8] >> 1


def word_bits(word):
    return format(word, "015b")


@dataclass(frozen=True)
class FormatWord:
    """One of the 32 valid control codes."""

    ec_level: str
    mask_id: int

    @staticmethod
    def from_info(info):
        """The word of 5 information bits, one of 32 built once; KeyError
        outside 0..31."""
        return _FORMAT_WORDS[info]

    @property
    def info(self):
        return (EC_BITS[self.ec_level] << 3) | self.mask_id

    @property
    def on_grid(self):
        return apply_format_mask(bch_encode(self.info))


_FORMAT_WORDS = {info: FormatWord(EC_NAME[info >> 3], info & 7) for info in range(32)}


@dataclass(frozen=True)
class MirrorFormat:
    """A witness string plus both of its decodes."""

    witness: int
    straight: FormatWord
    mirrored: FormatWord
    distance_straight: int
    distance_mirrored: int

    @property
    def witness_bits(self):
        return word_bits(self.witness)


@dataclass(frozen=True)
class FlipGraph:
    """Graph over the 32 format codes: an edge (A, B) means some 15-bit
    string decodes as A straight and as B after bit reversal, each within
    the 3-bit correction budget. Edges keep their best MirrorFormat."""

    domain: str
    nodes: tuple
    edges: dict
    candidate_shell_size: int
    candidate_unique_size: int


def _mirror_readings(xor):
    """(witness, a, da, b, db) for each string within 3 of a code once
    xored with xor (FORMAT_XOR for on-grid strings, 0 for raw) whose
    reversal is too: it decodes as a at distance da straight and as b at
    distance db after bit reversal."""
    ball = _ball()
    for word, hit in enumerate(ball):
        witness = word ^ xor
        mirrored = hit and ball[reverse_word(witness) ^ xor]
        if mirrored:
            yield (witness, *hit, *mirrored)


def build_flip_graph(domain="grid"):
    """Enumerate radius-3 balls around all 32 codes and connect the codes
    whose balls meet under bit reversal."""
    if domain not in ("grid", "raw"):
        raise ValueError(f"unknown domain {domain!r}")
    best = {}
    for witness, a, da, b, db in _mirror_readings(FORMAT_XOR if domain == "grid" else 0):
        reading = (da + db, witness, da, db)
        if reading < best.setdefault((a, b), reading):
            best[(a, b)] = reading
    edges = {key: MirrorFormat(witness, *map(FormatWord.from_info, key), da, db)
             for key, (_, witness, da, db) in best.items()}
    shell = 32 * 455  # the C(15,3) shell around every code, 14560 strings
    unique = sum(1 for hit in _ball() if hit is not None and hit[1] == 3)
    return FlipGraph(domain, tuple(range(32)), edges, shell, unique)


@lru_cache(maxsize=1)
def select_mirror_format():
    """Best witness readable from both sides of the code.

    Both the straight and the reversed on-grid reading must decode (within
    3 bits) to level L with a transposition-symmetric mask, and the middle
    bit must be dark so the dark-module collision costs nothing. Ties
    prefer smaller combined distance, then self-loops, then the lower mask
    id.
    """
    sym = symmetric_masks()
    candidates = [
        (da + db, 0 if a == b else 1, a & 7, witness, a, da, b, db)
        for witness, a, da, b, db in _mirror_readings(FORMAT_XOR)
        if witness & MIDDLE_BIT and a >> 3 == b >> 3 == EC_BITS["L"]
        and (a & 7) in sym and (b & 7) in sym
    ]
    *_, witness, a, da, b, db = min(candidates)  # the key ends in the unique witness
    return MirrorFormat(witness, FormatWord.from_info(a), FormatWord.from_info(b), da, db)


def flip_graph_dot(graph):
    """DOT rendering: nodes carry 5-bit info labels, edges their witness."""
    lines = [f'graph flip_{graph.domain} {{']
    for info in graph.nodes:
        lines.append(f'  n{info} [label="{info:05b}"];')
    for (a, b), edge in sorted(graph.edges.items()):
        if a > b:
            continue  # the (b, a) twin carries the reversed witness
        lines.append(
            f'  n{a} -- n{b} [label="{word_bits(edge.witness)}'
            f' ({edge.distance_straight}+{edge.distance_mirrored})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
