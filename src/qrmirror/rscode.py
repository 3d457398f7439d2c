"""GF(256) arithmetic and the Reed-Solomon(26,19) code of Version 1-L.

Field reduction uses the QR polynomial x^8+x^4+x^3+x^2+1 (0x11d); the
generator has the seven roots alpha^0..alpha^6, so up to three byte errors
are correctable. parity_matrix() re-expresses the encoder as a GF(2) linear
map P, which the double-sided system is built from and codeword_bits() applies.

The decoder works from two tables built at import. A word's syndromes are
the xor of one _SYNDROME entry per byte, and every polynomial it evaluates
(the locator, Forney's omega and the locator's derivative) is the xor of one
_CHIEN entry per coefficient, at all 26 positions at once.
"""

from functools import lru_cache, reduce
from operator import getitem, xor

import numpy as np

DATA_BYTES = 19
PARITY_BYTES = 7
BLOCK_BYTES = DATA_BYTES + PARITY_BYTES
ERROR_BUDGET = PARITY_BYTES // 2  # the byte errors a word can have corrected

EXP = [0] * 512
LOG = [0] * 256
_x = 1
for _i in range(255):
    EXP[_i] = _x
    LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
for _i in range(255, 512):
    EXP[_i] = EXP[_i - 255]


class RsDecodeError(ValueError):
    pass


def gf_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def _generator_poly():
    """prod(x + alpha^i, i < 7), highest degree first."""
    g = [1]
    for i in range(PARITY_BYTES):
        g = [a ^ gf_mul(b, EXP[i]) for a, b in zip(g + [0], [0] + g)]
    return g


GENERATOR = _generator_poly()

# byte p of a word is the coefficient of x^(25-p)
_DEGREE = np.arange(BLOCK_BYTES - 1, -1, -1)


def _term_table(log_x):
    """uint8 table [a, v, b] = v * alpha^log_x[a, b] for every byte value v;
    the v = 0 row is zero. With log_x in 0..255, LOG[v] + log_x stays
    inside EXP's 512 entries, so no modulo is needed."""
    table = np.array(EXP, np.uint8)[np.array(LOG)[:, None] + log_x[:, None, :]]
    table[:, 0] = 0
    return table


def _syndrome_table():
    """[p][v]: the 7 syndromes of the word that is v at byte p and zero
    elsewhere, v * alpha^(i*(25-p)) for syndrome i, in bits 8i..8i+7."""
    terms = _term_table(_DEGREE[:, None] * np.arange(8))
    terms[..., PARITY_BYTES] = 0  # the eighth byte pads each entry to a uint64
    return terms.view("<u8")[..., 0].tolist()


def _chien_table():
    """[j][c]: c * X^-j at X = alpha^(25-p) for j <= 3, the term of
    position p in byte p of a 26-byte little-endian int."""
    flat = _term_table(255 - np.arange(ERROR_BUDGET + 1)[:, None] * _DEGREE).tobytes()
    rows = [int.from_bytes(flat[k : k + BLOCK_BYTES], "little")
            for k in range(0, len(flat), BLOCK_BYTES)]
    return [rows[j : j + 256] for j in range(0, len(rows), 256)]


_SYNDROME = _syndrome_table()
_CHIEN = _chien_table()


def _chien(poly):
    """Byte p is poly (lowest degree first, at most 4 coefficients) at X^-1,
    X = alpha^(25-p): the xor of one _CHIEN entry per coefficient."""
    return reduce(xor, map(getitem, _CHIEN, poly)).to_bytes(BLOCK_BYTES, "little")


def rs_encode(data):
    """Seven parity bytes for a 19-byte data block (systematic encoding)."""
    data = bytes(data)
    if len(data) != DATA_BYTES:
        raise ValueError(f"expected {DATA_BYTES} data bytes, got {len(data)}")
    rem = list(data) + [0] * PARITY_BYTES
    for i in range(DATA_BYTES):
        coef = rem[i]
        if coef:
            for j in range(1, len(GENERATOR)):
                rem[i + j] ^= gf_mul(GENERATOR[j], coef)
    return bytes(rem[-PARITY_BYTES:])


def _packed_syndromes(word):
    """The 7 syndromes of a 26-byte word, syndrome i in bits 8i..8i+7."""
    return reduce(xor, map(getitem, _SYNDROME, word))


def syndromes(codeword):
    """The 7 syndromes of a 26-byte word; all zero iff it is a codeword."""
    packed = _packed_syndromes(codeword)
    return [packed >> 8 * i & 255 for i in range(PARITY_BYTES)]


def _berlekamp_massey(synd):
    """Minimal error locator (lowest degree first) and its length."""
    c, b, L, m, bb = [1], [1], 0, 1, 1
    for n in range(len(synd)):
        d = synd[n]
        for i in range(1, min(L, len(c) - 1) + 1):
            d ^= gf_mul(c[i], synd[n - i])
        if d == 0:
            m += 1
            continue
        log_scale = (LOG[d] - LOG[bb]) % 255
        t, c = c, c + [0] * max(0, len(b) + m - len(c))
        for i, v in enumerate(b):
            if v:
                c[i + m] ^= EXP[LOG[v] + log_scale]
        if 2 * L <= n:
            L, b, bb, m = n + 1 - L, t, d, 1
        else:
            m += 1
    while c and c[-1] == 0:
        c.pop()
    return c, L


def rs_decode(codeword):
    """Correct up to 3 byte errors; return (data, corrected positions).

    Raises RsDecodeError when no codeword lies within the 3-error budget
    (more errors, an inconsistent locator, or a residual after correction).
    A clean word costs its 26 syndrome lookups; the Chien search, Forney's
    evaluations and the residual check are table lookups too (see _SYNDROME
    and _chien).
    """
    word = bytes(codeword)
    if len(word) != BLOCK_BYTES:
        raise ValueError(f"expected {BLOCK_BYTES} bytes, got {len(word)}")
    packed = _packed_syndromes(word)
    if not packed:
        return word[:DATA_BYTES], frozenset()

    synd = [packed >> 8 * i & 255 for i in range(PARITY_BYTES)]
    locator, errors = _berlekamp_massey(synd)
    if errors > ERROR_BUDGET:
        raise RsDecodeError(f"{errors} errors exceed the {ERROR_BUDGET}-byte budget")
    if len(locator) - 1 != errors:
        raise RsDecodeError("inconsistent error locator degree")

    # Chien search: byte p is the x^(25-p) term, so it is in error iff the
    # locator vanishes at X^-1 with X = alpha^(25-p).
    positions = [p for p, v in enumerate(_chien(locator)) if not v]
    if len(positions) != errors:
        raise RsDecodeError("error locator roots do not match its degree")

    # Forney: the error at X is X * omega(X^-1) / deriv(X^-1), with omega =
    # S * locator mod x^7 and deriv the locator's odd-power terms
    # (characteristic 2). The locator generates every syndrome from index
    # L = errors on, so omega's terms from x^L to x^6 are zero: omega has at
    # most 3 coefficients, few enough for _chien.
    omega = [reduce(xor, map(gf_mul, locator[: k + 1], synd[k::-1])) for k in range(errors)]
    deriv = [c if k % 2 else 0 for k, c in enumerate(locator)][1:]
    numerators, denominators = _chien(omega), _chien(deriv)
    word = bytearray(word)
    for p in positions:
        if not denominators[p]:
            raise RsDecodeError("degenerate error locator derivative")
        # omega(X^-1) is not 0: the locator is minimal, so no error value is 0
        word[p] ^= EXP[(BLOCK_BYTES - 1 - p + LOG[numerators[p]] - LOG[denominators[p]]) % 255]

    if _packed_syndromes(word):
        raise RsDecodeError("residual syndromes after correction")
    return bytes(word[:DATA_BYTES]), frozenset(positions)


@lru_cache(maxsize=1)
def parity_matrix():
    """56x152 GF(2) matrix M with parity bits = M @ data bits (mod 2).

    Column j is the parity of the unit data vector with only bit j set;
    bits are numbered most significant first within each byte.
    """
    units = np.packbits(np.eye(DATA_BYTES * 8, dtype=np.uint8), axis=1)
    parity = np.frombuffer(b"".join(rs_encode(data) for data in units), dtype=np.uint8)
    m = np.unpackbits(parity.reshape(-1, PARITY_BYTES), axis=1).T.copy()
    m.setflags(write=False)
    return m


def codeword_bits(data):
    """The 208-bit codeword of 152 data bits, or one per row of a 2-D
    input: the data, then parity_matrix() @ data mod 2. The float32
    product runs through BLAS; its sums, at most 152, are exact."""
    sums = np.asarray(data, np.float32) @ parity_matrix().T.astype(np.float32)
    return np.concatenate([data, sums.astype(np.uint8) & 1], axis=-1)
