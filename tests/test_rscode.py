"""Reed-Solomon(26,19) and the GF(2) parity matrix.

The oracles here avoid the module's own exp/log tables: field products are
recomputed with carry-less (Russian peasant) multiplication and syndromes
with a separate Horner loop over those products. The decoder is also
checked against the one it replaced, kept below as a reference.
"""

import random

import numpy as np
import pytest

from qrmirror import codec, rscode
from qrmirror.rscode import (
    BLOCK_BYTES,
    DATA_BYTES,
    EXP,
    LOG,
    PARITY_BYTES,
    RsDecodeError,
    gf_mul,
)


def peasant_mul(a, b):
    """GF(256) product by shift-and-reduce, independent of the log tables."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return out


def oracle_syndromes(word):
    alpha = 2
    synd = []
    x = 1
    for _ in range(7):
        acc = 0
        for byte in word:
            acc = peasant_mul(acc, x) ^ byte
        synd.append(acc)
        x = peasant_mul(x, alpha)
    return synd


def test_tables_consistent_with_peasant_multiplication():
    rng = random.Random(3)
    for _ in range(300):
        a, b = rng.randrange(256), rng.randrange(256)
        assert rscode.gf_mul(a, b) == peasant_mul(a, b)


def test_exp_log_structure():
    assert rscode.EXP[255] == 1  # alpha^255 == 1
    for k in range(255):
        assert rscode.LOG[rscode.EXP[k]] == k


def test_zero_data_zero_parity():
    assert rscode.rs_encode(bytes(19)) == bytes(7)


def test_hello_parity_and_syndromes():
    data = np.packbits(codec.assemble_payload("HELLO")).tobytes()
    assert list(data[:6]) == [0x20, 0x2B, 0x0B, 0x78, 0xCC, 0x00]
    parity = rscode.rs_encode(data)
    assert list(parity) == [110, 57, 221, 152, 142, 219, 31]
    assert oracle_syndromes(data + parity) == [0] * 7


def test_encode_is_linear():
    rng = random.Random(5)
    for _ in range(50):
        u = bytes(rng.randrange(256) for _ in range(19))
        v = bytes(rng.randrange(256) for _ in range(19))
        w = bytes(x ^ y for x, y in zip(u, v))
        pu, pv, pw = rscode.rs_encode(u), rscode.rs_encode(v), rscode.rs_encode(w)
        assert pw == bytes(x ^ y for x, y in zip(pu, pv))


def test_all_syndromes_zero_on_1000_random_blocks():
    rng = random.Random(6)
    for _ in range(1000):
        data = bytes(rng.randrange(256) for _ in range(19))
        cw = data + rscode.rs_encode(data)
        assert max(rscode.syndromes(cw)) == 0


def test_clean_codeword_decodes_without_corrections():
    data = bytes(range(19))
    cw = data + rscode.rs_encode(data)
    decoded, corrected = rscode.rs_decode(cw)
    assert decoded == data
    assert corrected == frozenset()


def test_decode_recovers_up_to_three_errors_1000_trials():
    rng = random.Random(7)
    for _ in range(1000):
        data = bytes(rng.randrange(256) for _ in range(19))
        cw = bytearray(data + rscode.rs_encode(data))
        k = rng.randrange(4)
        positions = rng.sample(range(26), k)
        for p in positions:
            cw[p] ^= rng.randrange(1, 256)
        decoded, corrected = rscode.rs_decode(bytes(cw))
        assert decoded == data
        assert corrected == frozenset(positions)


def test_four_errors_never_silently_wrong():
    rng = random.Random(8)
    for _ in range(300):
        data = bytes(rng.randrange(256) for _ in range(19))
        cw = bytearray(data + rscode.rs_encode(data))
        for p in rng.sample(range(26), 4):
            cw[p] ^= rng.randrange(1, 256)
        with pytest.raises(rscode.RsDecodeError):
            rscode.rs_decode(bytes(cw))


def test_decode_validates_length():
    with pytest.raises(ValueError):
        rscode.rs_decode(bytes(25))
    with pytest.raises(ValueError):
        rscode.rs_encode(bytes(18))


def test_parity_matrix_zero_vector():
    m = rscode.parity_matrix()
    assert m.shape == (56, 152)
    assert not (m @ np.zeros(152, dtype=np.uint8) % 2).any()


def test_parity_matrix_matches_encoder_on_hello():
    payload = codec.assemble_payload("HELLO")
    parity_bits = rscode.parity_matrix().astype(np.int32) @ payload % 2
    expected = np.unpackbits(np.frombuffer(rscode.rs_encode(np.packbits(payload)), np.uint8))
    assert parity_bits.tolist() == expected.tolist()


def test_parity_matrix_matches_encoder_on_100_random_inputs():
    # codeword_bits too: each input alone (1-D) and all 100 as one 2-D batch
    rng = np.random.default_rng(9)
    m = rscode.parity_matrix().astype(np.int32)
    inputs, want = rng.integers(0, 2, (100, 152), dtype=np.uint8), []
    for bits in inputs:
        via_matrix = m @ bits % 2
        parity = rscode.rs_encode(np.packbits(bits))
        via_encoder = np.unpackbits(np.frombuffer(parity, np.uint8))
        assert via_matrix.tolist() == via_encoder.tolist()
        want.append(np.concatenate([bits, via_encoder]))
        codeword = rscode.codeword_bits(bits)
        assert codeword.dtype == np.uint8 and codeword.tolist() == want[-1].tolist()
    batch = rscode.codeword_bits(inputs)
    assert batch.dtype == np.uint8 and np.array_equal(batch, want)


def test_parity_matrix_linearity():
    rng = np.random.default_rng(10)
    m = rscode.parity_matrix().astype(np.int32)
    for _ in range(20):
        u = rng.integers(0, 2, 152, dtype=np.uint8)
        v = rng.integers(0, 2, 152, dtype=np.uint8)
        assert np.array_equal(m @ ((u ^ v)) % 2, (m @ u + m @ v) % 2)


# The decoder the one-convention rewrite replaced, kept verbatim as the
# reference for the differential tests below: descending and ascending
# polynomials, with division, inverse and product helpers.

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


def reference_generator_poly():
    g = [1]
    for i in range(PARITY_BYTES):
        g = _poly_mul(g, [1, EXP[i]])
    return g


def reference_syndromes(codeword):
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


def reference_rs_decode(codeword):
    """Correct up to 3 byte errors; return (data, corrected positions).

    Raises RsDecodeError when no codeword lies within the 3-error budget
    (more errors, an inconsistent locator, or a residual after correction).
    """
    word = list(codeword)
    if len(word) != BLOCK_BYTES:
        raise ValueError(f"expected {BLOCK_BYTES} bytes, got {len(word)}")
    synd = reference_syndromes(word)
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

    if max(reference_syndromes(word)) != 0:
        raise RsDecodeError("residual syndromes after correction")
    return bytes(word[:DATA_BYTES]), frozenset(positions)


def _outcome(decode, word):
    try:
        return decode(word)
    except RsDecodeError as exc:
        return str(exc)


def _assert_decoders_agree(words):
    """Both decoders give the same result or message, and the same
    syndromes, on every word; returns how often each outcome came up."""
    seen = {}
    for word in words:
        want = _outcome(reference_rs_decode, word)
        assert _outcome(rscode.rs_decode, word) == want, word.hex()
        assert rscode.syndromes(word) == reference_syndromes(word), word.hex()
        kind = f"{len(want[1])} corrected" if isinstance(want, tuple) else want
        seen[kind] = seen.get(kind, 0) + 1
    return seen


def test_generator_matches_product_reference():
    assert rscode.GENERATOR == reference_generator_poly()


def test_decoder_matches_reference_on_corrupted_codewords():
    rng = random.Random(11)
    # a corruption that is a multiple of prod(x + alpha^i, 1 <= i <= 6)
    # leaves only the first syndrome nonzero; Berlekamp-Massey then ends on
    # a locator whose top coefficient is zero, which random corruptions
    # almost never reach
    tail_roots = [1]
    for i in range(1, PARITY_BYTES):
        tail_roots = _poly_mul(tail_roots, [1, EXP[i]])

    def corrupted():
        for n in range(51_000):
            data = rng.randbytes(DATA_BYTES)
            word = bytearray(data + rscode.rs_encode(data))
            if n < 50_000:
                for p in rng.sample(range(BLOCK_BYTES), rng.randrange(9)):
                    word[p] ^= rng.randrange(1, 256)
            else:
                scale, shift = rng.randrange(1, 256), rng.randrange(DATA_BYTES + 1)
                for k, c in enumerate(tail_roots):
                    word[shift + k] ^= gf_mul(scale, c)
            yield bytes(word)

    seen = _assert_decoders_agree(corrupted())
    # every outcome the corruptions can reach was taken
    for kind in ("0 corrected", "1 corrected", "2 corrected", "3 corrected",
                 "4 errors exceed the 3-byte budget",
                 "inconsistent error locator degree",
                 "error locator roots do not match its degree"):
        assert seen.get(kind, 0) > 0, (kind, seen)


def test_decoder_matches_reference_on_random_words():
    rng = random.Random(12)
    seen = _assert_decoders_agree(rng.randbytes(BLOCK_BYTES) for _ in range(5_000))
    assert seen.get("error locator roots do not match its degree", 0) > 0, seen


def test_syndrome_table_matches_the_oracle_on_every_entry():
    # entry [p][v] packs the syndromes of the word that is v at p and zero
    # elsewhere, syndrome i in bits 8i..8i+7
    for p in range(BLOCK_BYTES):
        for v in range(256):
            word = bytes(p) + bytes([v]) + bytes(BLOCK_BYTES - 1 - p)
            packed = sum(s << 8 * i for i, s in enumerate(oracle_syndromes(word)))
            assert rscode._SYNDROME[p][v] == packed, (p, v)


def test_chien_table_matches_the_reference_evaluation():
    # byte p of entry [j][c] is the term c * x^j of a locator at X^-1, with
    # X = alpha^(25-p) the root that marks byte p
    for p in range(BLOCK_BYTES):
        x_inv = EXP[-(BLOCK_BYTES - 1 - p) % 255]
        for j, row in enumerate(rscode._CHIEN):
            for c, entry in enumerate(row):
                assert entry >> 8 * p & 255 == _poly_eval([c] + [0] * j, x_inv), (j, c, p)
    assert len(rscode._CHIEN) == PARITY_BYTES // 2 + 1
    assert all(entry >> 8 * BLOCK_BYTES == 0 for row in rscode._CHIEN for entry in row)


def test_every_single_byte_error_decodes_like_the_reference():
    rng = random.Random(13)
    data = rng.randbytes(DATA_BYTES)
    codeword = data + rscode.rs_encode(data)

    def damaged():
        for p in range(BLOCK_BYTES):
            for v in range(1, 256):
                word = bytearray(codeword)
                word[p] ^= v
                yield bytes(word)

    assert _assert_decoders_agree(damaged()) == {"1 corrected": BLOCK_BYTES * 255}
