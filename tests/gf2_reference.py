"""What the solver tests share: the dense GF(2) reference solver, the one
dense -> int conversion, readers of the int form a build returns, and the
two ordinary codes a construction derives its target and preference from."""

from collections import namedtuple

import numpy as np

from qrmirror import codec, mirror, rscode
from qrmirror.grid import transpose_permutation
from qrmirror.masks import data_mask

ReferenceSolution = namedtuple("ReferenceSolution", "assignment free_columns rank")


def gf2_row_reduce(matrix, rhs):
    """Full RREF over GF(2) of the augmented array [A | b], eliminating the
    right-hand side along with the matrix; returns (A, b, pivot_cols)."""
    rows, cols = matrix.shape
    ab = np.empty((rows, cols + 1), dtype=np.uint8)
    ab[:, :cols] = matrix
    ab[:, cols] = rhs
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.flatnonzero(ab[r:, c])
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            ab[[r, p]] = ab[[p, r]]
        sel = ab[:, c].astype(bool)
        sel[r] = False
        if sel.any():
            ab[sel] ^= ab[r]
        pivot_cols.append(c)
        r += 1
    return ab[:, :cols], ab[:, cols], pivot_cols


def reference_solve_gf2(matrix, rhs, free_values=None):
    """The dense solver the bit-packed one replaced: full RREF of [A | b],
    then the pivots from the free values."""
    a, b, pivot_cols = gf2_row_reduce(matrix, rhs)
    r = len(pivot_cols)
    if b[r:].any():
        return None
    cols = a.shape[1]
    pivot_set = set(pivot_cols)
    free_cols = tuple(c for c in range(cols) if c not in pivot_set)
    x = np.zeros(cols, dtype=np.uint8)
    free_idx = np.array(free_cols, dtype=np.intp)
    if free_idx.size and free_values is not None:
        x[free_idx] = np.asarray(free_values, dtype=np.uint8)[free_idx]
    if r:
        vals = (b[:r].astype(np.int32) + a[:r].astype(np.int32) @ x.astype(np.int32)) % 2
        x[np.array(pivot_cols, dtype=np.intp)] = vals.astype(np.uint8)
    return ReferenceSolution(x, free_cols, r)


def pinned_columns(bits, cols):
    """The columns set in an int over a system's cols columns (column c at
    bit mirror._WIDTH - c)."""
    return [c for c in range(cols) if bits >> mirror._WIDTH - c & 1]


def conflicting_pins(system):
    """The columns the two sides of an int-form system pin to different
    values."""
    (pins_a, values_a), (pins_b, values_b) = system.pins
    return pinned_columns(pins_a & pins_b & (values_a ^ values_b), system.cols)


def dense_form(system):
    """(A, b) of a system in the int form: each side's pins as unit rows,
    lowest column first, then its rows."""
    top = mirror._WIDTH
    rows = [1 << n | values >> n & 1 for columns, values in system.pins
            for n in range(top, top - system.cols, -1) if columns >> n & 1] + list(system.rows)
    width = top // 8 + 1
    packed = np.frombuffer(b"".join(row.to_bytes(width, "big") for row in rows), np.uint8)
    ab = np.unpackbits(packed.reshape(len(rows), width), axis=1)
    first = 8 * width - 1 - top
    return ab[:, first : first + system.cols], ab[:, -1]


def int_system(matrix, rhs):
    """A dense system [A | b] in the solver's int form.

    Row i becomes an int with column c at bit mirror._WIDTH - c and b[i]
    at bit 0.
    A column's first unit row pins it on the straight side and its second
    on the mirrored side; every other row (a third unit row, a zero row,
    any heavier row) is kept, with the pins substituted as
    build_constraint_system substitutes them: the pinned columns cleared
    and their values' parity xored into bit 0.
    """
    matrix, rhs = np.asarray(matrix, dtype=np.uint8), np.asarray(rhs, dtype=np.uint8)
    pins = [[0, 0], [0, 0]]  # per side: pinned columns, their values
    rows = []
    for row, b in zip(matrix.tolist(), rhs.tolist()):
        bits = int("".join(map(str, row)), 2) << 1 + mirror._WIDTH - matrix.shape[1]
        open_sides = [side for side in pins if not side[0] & bits]
        if bits.bit_count() == 1 and open_sides:
            open_sides[0][0] |= bits
            open_sides[0][1] |= bits * b
        else:
            rows.append(bits | b)
    pinned, values = pins[0][0] | pins[1][0], pins[0][1] | pins[1][1]
    return mirror.LinearSystem(matrix.shape[1], tuple(map(tuple, pins)),
                               tuple(row & ~pinned ^ (row & values).bit_count() & 1
                                     for row in rows))


def ordinary_codes(bits_a, bits_b, straight, mirrored):
    """What construct_double_sided makes of two terminated payloads: both
    padded, and their ordinary codes, each in its own side's bit order and
    xored with its format word's mask."""
    payloads = np.array([codec.pad_payload(bits_a), codec.pad_payload(bits_b)])
    masks = np.array([data_mask(straight.mask_id), data_mask(mirrored.mask_id)])
    return payloads, rscode.codeword_bits(payloads) ^ masks


def overlay(bits_a, bits_b, straight, mirrored):
    """The quotient test's target g: the two ordinary codes overlaid, the
    mirrored one placed on the cells."""
    code_a, code_b = ordinary_codes(bits_a, bits_b, straight, mirrored)[1]
    return code_a ^ code_b[transpose_permutation()]


def preference(bits_a, bits_b, straight, mirrored, alloc):
    """construct_double_sided's free values for alloc's system: the straight
    code, then each aux byte's slice of its side's padded payload."""
    payloads, (code_a, _) = ordinary_codes(bits_a, bits_b, straight, mirrored)
    return np.concatenate([code_a, *(payloads[side, 8 * byte : 8 * byte + 8]
                                     for side, byte in mirror._aux_bytes(alloc))])
