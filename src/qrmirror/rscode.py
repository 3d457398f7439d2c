"""GF(256) arithmetic and the Reed-Solomon(26,19) code of Version 1-L.

Field reduction uses the QR polynomial x^8+x^4+x^3+x^2+1 (0x11d); the
generator has the seven roots alpha^0..alpha^6, so up to three byte errors
are correctable. parity_matrix() re-expresses the encoder as a GF(2) linear
map, which is what the double-sided constraint system is built from.
"""

from functools import lru_cache

import numpy as np

DATA_BYTES = 19
PARITY_BYTES = 7
BLOCK_BYTES = DATA_BYTES + PARITY_BYTES

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


def gf_div(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return EXP[(LOG[a] - LOG[b]) % 255]


def gf_inv(a):
    return EXP[255 - LOG[a]]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] ^= gf_mul(a, b)
    return out


def _poly_eval(p, x):
    r = 0
    for c in p:
        r = gf_mul(r, x) ^ c
    return r


def _generator_poly():
    g = [1]
    for i in range(PARITY_BYTES):
        g = _poly_mul(g, [1, EXP[i]])
    return g


GENERATOR = _generator_poly()


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


def syndromes(codeword):
    """The 7 syndromes of a 26-byte word; all zero iff it is a codeword."""
    return [_poly_eval(list(codeword), EXP[i]) for i in range(PARITY_BYTES)]


def _berlekamp_massey(synd):
    """Minimal error locator, returned with descending coefficients."""
    c = [1]  # ascending: c[i] is the coefficient of x^i
    b = [1]
    L = 0
    m = 1
    bb = 1
    for n in range(len(synd)):
        d = synd[n]
        for i in range(1, L + 1):
            if i < len(c):
                d ^= gf_mul(c[i], synd[n - i])
        if d == 0:
            m += 1
            continue
        scale = gf_div(d, bb)
        t = c[:]
        if len(b) + m > len(c):
            c = c + [0] * (len(b) + m - len(c))
        for i in range(len(b)):
            c[i + m] ^= gf_mul(scale, b[i])
        if 2 * L <= n:
            L = n + 1 - L
            b = t
            bb = d
            m = 1
        else:
            m += 1
    while c and c[-1] == 0:
        c.pop()
    return c[::-1], L


def rs_decode(codeword):
    """Correct up to 3 byte errors; return (data, corrected positions).

    Raises RsDecodeError when no codeword lies within the 3-error budget
    (more errors, an inconsistent locator, or a residual after correction).
    """
    word = list(codeword)
    if len(word) != BLOCK_BYTES:
        raise ValueError(f"expected {BLOCK_BYTES} bytes, got {len(word)}")
    synd = syndromes(word)
    if max(synd) == 0:
        return bytes(word[:DATA_BYTES]), frozenset()

    locator, errors = _berlekamp_massey(synd)
    if errors > PARITY_BYTES // 2:
        raise RsDecodeError(f"{errors} errors exceed the 3-byte budget")
    if len(locator) - 1 != errors:
        raise RsDecodeError("inconsistent error locator degree")

    # Chien search: byte p corresponds to the x^(25-p) term, so the root
    # test uses X = alpha^(25-p).
    positions = []
    for p in range(BLOCK_BYTES):
        x_inv = EXP[(-(BLOCK_BYTES - 1 - p)) % 255]
        if _poly_eval(locator, x_inv) == 0:
            positions.append(p)
    if len(positions) != errors:
        raise RsDecodeError("error locator roots do not match its degree")

    # Forney: omega = syndrome poly * locator mod x^7; the formal derivative
    # of the locator keeps odd-power terms only (characteristic 2).
    omega = _poly_mul(synd[::-1], locator)[-PARITY_BYTES:]
    deg = len(locator) - 1
    deriv = [locator[i] if (deg - i) % 2 == 1 else 0 for i in range(deg)]
    for p in positions:
        x = EXP[(BLOCK_BYTES - 1 - p) % 255]
        x_inv = gf_inv(x)
        denom = _poly_eval(deriv, x_inv)
        if denom == 0:
            raise RsDecodeError("degenerate error locator derivative")
        word[p] ^= gf_mul(x, gf_div(_poly_eval(omega, x_inv), denom))

    if max(syndromes(word)) != 0:
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
