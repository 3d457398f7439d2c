"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed and the standard library, so the
same seed always yields the same message strings. The program under test
never sees the generator; it receives only the strings (or PBM bytes built
from them during set-up).
"""

import random

ALNUM = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ $%*+-./:"
DIGITS = "0123456789"
LOWER = "abcdefghijklmnopqrstuvwxyz"

# (label, straight alphabet, straight lengths, mirrored alphabet, mirrored lengths)
SHORT_CLASSES = (
    ("alnum", ALNUM, (1, 6), ALNUM, (1, 6)),
    ("numeric", DIGITS, (1, 9), DIGITS, (1, 9)),
    ("byte-vs-alnum", LOWER, (1, 6), ALNUM, (1, 6)),
)

# alphanumeric lengths (straight, mirrored); 9+12 ends in either verdict
CAPACITY_LENGTHS = (9, 12)
INFEASIBLE_LENGTHS = (13, 13)


def _text(rng, alphabet, length):
    return "".join(rng.choice(alphabet) for _ in range(length))


def short_pair(rng, index):
    """One short pair; the class cycles so every run holds the same mix."""
    label, alpha_a, len_a, alpha_b, len_b = SHORT_CLASSES[index % len(SHORT_CLASSES)]
    msg_a = _text(rng, alpha_a, rng.randint(*len_a))
    return label, msg_a, _text(rng, alpha_b, rng.randint(*len_b))


def alnum_pair(rng, len_a, len_b):
    return f"{len_a}+{len_b}", _text(rng, ALNUM, len_a), _text(rng, ALNUM, len_b)


def single_message(rng):
    """A single-sided message in a random mode, anywhere up to 1-L capacity."""
    mode = rng.choice(("numeric", "alphanumeric", "byte"))
    if mode == "numeric":
        return mode, _text(rng, DIGITS, rng.randint(1, 41))
    if mode == "alphanumeric":
        return mode, _text(rng, ALNUM, rng.randint(1, 25))
    return mode, _text(rng, LOWER + DIGITS + " ", rng.randint(1, 17))


def new_rng(seed, stream):
    """Independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")
