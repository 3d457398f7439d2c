"""Double-sided construction.

The physical values of the 208 data-region cells are the variables of a
GF(2) linear system. Every row is a row of one cached 208x208 check
matrix: unit rows on the 152 data bits stacked on the parity-check matrix
H = [P | I] of the systematic Reed-Solomon code. Each side selects the
rows of its declared bits and of its parity bytes outside the error
allocation, and one index array places each codeword bit in its variable
column; the right-hand side is the target (declared bits, then zeros)
xor the rows applied to the mask. A byte listed in the allocation gives
no rows for its side, and the damage this leaves on the grid is later
absorbed by the decoder's 3-byte correction budget. Allocated data bytes
get eight auxiliary variables holding the intended (post-correction)
byte so the parity checks can still refer to it. _aux_bytes fixes their
order for both the system and the free-value preference. That
preference, which picks the solution among many, starts from both
messages' ordinary encodings. Only allocations that release every cell
the two sides pin to different values are considered at all. A system is
solved by substituting the message pins into the parity rows and
eliminating those on bit-packed rows. Every elimination here packs a row
into a Python int with its lowest column at its highest bit and files
its pivots in a list indexed by int.bit_length() (_eliminate), so the
pivot order is lowest column first.

Most allocations at the capacity edge have no solution, so every
allocation, the first one too, is decided without building a system. An
allocation S is solvable iff the target g lies in V + span{unit vectors
on the cells of S}, all over the 208 cells: g is each side's declared
bits, zero-filled, encoded and xored with its mask, the mirrored side's
placed through transpose_permutation(), summed; V is spanned by the
codewords of both sides' undeclared data bits, placed the same way. V
depends only on the declared lengths la and lb, so every cell's unit
vector reduced modulo V, an int on the k = la + lb - 96 quotient
coordinates (from 8+11 up), is cached per length pair. g reduced is the
xor of its set cells' vectors, and each verdict eliminates at most 48
allocated cells' vectors. Only the first admitted allocation is built
and solved as above, so every grid and report is the one the
build-every-allocation search gives, and an infeasible pair builds no
system at all.

The randomized baseline (method "brute") is the construction the analytic
method replaces: randomize the free fill, compute the straight side's
parity honestly, and measure how many bytes the mirrored side would need
corrected. It is kept for comparison, not as a fallback: in 200,000
trials it has not been seen to fit the correction budget, even for
one-character pairs.
"""

import itertools
import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import codec, encoder, rscode
from .formatinfo import select_mirror_format
from .grid import (
    DATA_BITS,
    TOTAL_BITS,
    overlap_partition,
    transpose_permutation,
)
from .masks import data_mask, symmetric_masks
from .verify import decode_grid


class ConstructionError(RuntimeError):
    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class ErrorAllocation:
    """Bytes whose errors each side's decoder is expected to correct."""

    side_a_bytes: frozenset
    side_b_bytes: frozenset

    def __post_init__(self):
        for name, bytes_ in (("side_a", self.side_a_bytes), ("side_b", self.side_b_bytes)):
            if len(bytes_) > 3:
                raise ValueError(f"{name} allocation exceeds the 3-byte budget")
            if any(not 0 <= b < 26 for b in bytes_):
                raise ValueError(f"{name} allocation has byte indices outside 0..25")


EMPTY_ALLOCATION = ErrorAllocation(frozenset(), frozenset())


@dataclass
class LinearSystem:
    """GF(2) rows over the shared cell variables (plus any auxiliaries):
    each side's declared-bit rows, then its kept parity checks."""

    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class Solution:
    """One satisfying assignment plus a description of the solution space:
    every solution is the assignment with some subset of the free columns'
    basis directions XORed in."""

    assignment: np.ndarray
    free_columns: tuple
    rank: int

    @property
    def free_variable_count(self):
        return len(self.free_columns)


def _eliminate(pivots, rows):
    """Reduce each row by the pivots and file what remains as a new pivot.

    Rows are ints with their lowest column at their highest bit;
    pivots[n] is the row whose leading bit is bit n - 1, or 0. Returns
    the number of new pivots.
    """
    rank = 0
    for row in rows:
        while row and (pivot := pivots[row.bit_length()]):
            row ^= pivot
        if row:
            pivots[row.bit_length()] = row
            rank += 1
    return rank


def solve_gf2(system, free_values=None):
    """Solve the system, or return None when it has no solution.

    Free variables default to zero; free_values supplies preferred values
    (indexed like the system's variables).
    Rows are ints, column c at bit cols - c and the right-hand side at
    bit 0, so a row's leading bit is its lowest column and a row reduced
    to bit 0 alone reads 0 = 1. The pinned columns and the leading bits
    of the substituted rows' echelon are the pivots of the unique RREF,
    so the free columns and the assignment are those of full row
    reduction.
    """
    matrix, rhs = system.matrix, system.rhs
    cols = matrix.shape[1]
    width = (cols + 8) // 8  # bytes per row: zero padding, the columns, the right-hand side
    pad = 8 * width - 1 - cols
    packed = np.packbits(np.column_stack([np.zeros((rhs.size, pad), dtype=np.uint8), matrix, rhs]),
                         axis=1).tobytes()
    rows = [int.from_bytes(packed[i : i + width], "big") for i in range(0, len(packed), width)]
    pinned = {}  # column bit of each single-coefficient row -> its value
    others = []
    for row in rows:
        if (row >> 1).bit_count() != 1:
            others.append(row)
        elif pinned.setdefault(row & ~1, row & 1) != row & 1:
            return None
    pin_mask = sum(pinned)
    x_pinned = sum(bit for bit, v in pinned.items() if v)
    pivots = [0] * (cols + 2)
    rank = _eliminate(pivots, [(row & ~pin_mask) ^ ((row & x_pinned).bit_count() & 1)
                               for row in others])
    if pivots[1]:
        return None

    def columns(bits):
        return np.unpackbits(np.frombuffer(bits.to_bytes(width, "big"), dtype=np.uint8))[pad:-1]

    pivot_mask = pin_mask | sum(1 << n - 1 for n, row in enumerate(pivots) if row)
    free_idx = np.flatnonzero(columns(pivot_mask) == 0)
    x = np.zeros(8 * width, dtype=np.uint8)
    if free_values is not None:
        x[pad + free_idx] = np.asarray(free_values, dtype=np.uint8)[free_idx]
    x[-1] = 1  # bit 0: the right-hand side
    xs = int.from_bytes(np.packbits(x).tobytes(), "big") | x_pinned
    for n, row in enumerate(pivots):  # every higher column is known
        if row and (row & xs).bit_count() & 1:
            xs |= 1 << n - 1
    return Solution(columns(xs), tuple(free_idx.tolist()), len(pinned) + rank)


def _aux_bytes(alloc):
    """(side, byte) of every allocated data byte, in aux-variable order;
    side 0 is the straight side, side 1 the mirrored one."""
    return [(side, byte)
            for side, bytes_ in enumerate((alloc.side_a_bytes, alloc.side_b_bytes))
            for byte in sorted(bytes_) if byte < rscode.DATA_BYTES]


@lru_cache(maxsize=1)
def _codeword_checks():
    """208x208 GF(2) rows over a codeword's bits: the identity with the
    parity matrix P in rows 152-207, columns 0-151. Row i < 152 picks
    data bit i; row 152 + j is the check of parity bit j, H = [P | I]."""
    checks = np.eye(TOTAL_BITS, dtype=np.uint8)
    checks[DATA_BITS:, :DATA_BITS] = rscode.parity_matrix()
    checks.setflags(write=False)
    return checks


@lru_cache(maxsize=1)
def _data_bit_codewords():
    """Read-only 2 x 152 x 208: each data bit's codeword on the 208 cells,
    [0] as the straight side places it, [1] as the mirrored side does
    (through transpose_permutation())."""
    straight = _codeword_checks()[:, :DATA_BITS].T
    codewords = np.stack([straight, straight[:, transpose_permutation()]])
    codewords.setflags(write=False)
    return codewords


@lru_cache(maxsize=256)  # every cover needs it; short messages alone give ~170 keys
def _quotient(la, lb):
    """Every cell's unit vector reduced modulo V, as an int per cell.

    V is spanned by the codewords of the straight side's undeclared data
    bits la..151 and of the mirrored side's lb..151, placed on their cells;
    it depends only on the two declared lengths. Its k = 208 - dim V
    non-pivot cells are the coordinates of the quotient by V, k = la + lb
    - 96 from 8+11 up, coordinate j at bit j. Returns a tuple of 208 ints
    in cell order: a non-pivot cell's entry is its own coordinate, 1 << j
    for the j-th such cell; a pivot cell's is its row of V's reduced row
    echelon form without the pivot. The generators are eliminated as ints
    with cell c at bit 207 - c. A pivot row's other cells are all later
    cells, so a pivot cell's entry is the xor of theirs.
    """
    codewords = _data_bit_codewords()
    gens = np.packbits(np.concatenate([codewords[0, la:], codewords[1, lb:]]), axis=1).tobytes()
    pivots = [0] * (TOTAL_BITS + 1)
    _eliminate(pivots, (int.from_bytes(gens[i : i + TOTAL_BITS // 8], "big")
                        for i in range(0, len(gens), TOTAL_BITS // 8)))
    reduced = [0] * (TOTAL_BITS + 1)  # like pivots: reduced[n] is cell 208 - n's entry
    j = pivots.count(0) - 1  # k, as pivots[0] is always 0
    for n in range(1, TOTAL_BITS + 1):  # the last cell first
        if not pivots[n]:
            j -= 1
            reduced[n] = 1 << j
            continue
        row, entry = pivots[n] ^ 1 << n - 1, 0
        while row:  # the pivot row's other cells are all later cells
            m = row.bit_length()
            entry ^= reduced[m]
            row ^= 1 << m - 1
        reduced[n] = entry
    return tuple(reduced[:0:-1])


def _admission(bits_a, bits_b, fmt, mirrored_fmt):
    """admits(alloc): whether build_constraint_system's system for alloc
    has a solution, decided without building it.

    A grid satisfies both sides iff it lies in g_a + V_a + U_a and in
    g_b + V_b + U_b: g is a side's declared bits, zero-filled, encoded and
    xored with its mask; V its undeclared data bits' codewords; U the unit
    vectors on its allocated bytes' cells, all placed on the cells. So
    alloc is solvable iff g = g_a ^ g_b lies in V + U, i.e. iff g reduced
    modulo V, the xor of its set cells' _quotient entries, lies in the
    span of the allocated cells' entries. The stream yields covers grouped
    by straight subset, so admits keeps the last one's pivots for the next
    cover.
    """
    la, lb = bits_a.size, bits_b.size
    reduced = _quotient(la, lb)
    sigma = transpose_permutation()
    declared = np.zeros((2, DATA_BITS), dtype=bool)  # each side's declared bits that are 1
    declared[0, :la], declared[1, :lb] = bits_a, bits_b
    g = (np.bitwise_xor.reduce(_data_bit_codewords()[declared], axis=0)
         ^ data_mask(fmt.mask_id) ^ data_mask(mirrored_fmt.mask_id)[sigma])
    target = 0
    for cell in np.flatnonzero(g).tolist():
        target ^= reduced[cell]
    cells = range(TOTAL_BITS), sigma.tolist()  # each side's bit k sits on cell cells[side][k]

    def rows(side, byte):
        return [reduced[c] for c in cells[side][byte * 8 : byte * 8 + 8]]

    straight = [None, None]  # the last straight subset, its pivots

    def admits(alloc):
        if straight[0] != alloc.side_a_bytes:
            pivots = [0] * (TOTAL_BITS + 1)
            _eliminate(pivots, (row for byte in alloc.side_a_bytes for row in rows(0, byte)))
            straight[:] = alloc.side_a_bytes, pivots
        pivots = straight[1].copy()
        _eliminate(pivots, (row for byte in alloc.side_b_bytes for row in rows(1, byte)))
        return not _eliminate(pivots, [target])

    return admits


def build_constraint_system(bits_a, bits_b, fmt, alloc, mirrored_fmt=None):
    """Rows for both sides of the code under one error allocation.

    fmt is the straight side's format word; the mirrored side defaults to
    the same word (a flip-graph self-loop) but may differ as long as both
    masks are transposition-symmetric. Variables are physical cell values,
    so mask inversions land on the right-hand side.
    """
    mirrored_fmt = mirrored_fmt or fmt
    sym = symmetric_masks()
    for word in (fmt, mirrored_fmt):
        if word.mask_id not in sym:
            raise ValueError(f"mask {word.mask_id} is not symmetric under transposition")
    if max(bits_a.size, bits_b.size) > DATA_BITS:
        raise ValueError("payload exceeds the 152-bit data capacity")

    # each side's codeword bit k lives in variable var[side, k]: a grid cell,
    # or for an allocated data byte one of the 8 aux variables holding the
    # intended byte the decoder will restore (mask 0: aux bits are logical)
    var = np.stack([np.arange(TOTAL_BITS), transpose_permutation()])
    mask = np.stack([data_mask(fmt.mask_id), data_mask(mirrored_fmt.mask_id)])
    aux = _aux_bytes(alloc)
    for k, (side, byte) in enumerate(aux):
        var[side, byte * 8 : byte * 8 + 8] = np.arange(8) + TOTAL_BITS + 8 * k
        mask[side, byte * 8 : byte * 8 + 8] = 0

    matrices = []
    rhs = []
    for side, (declared, alloc_bytes) in enumerate(((bits_a, alloc.side_a_bytes),
                                                    (bits_b, alloc.side_b_bytes))):
        # the declared bits' rows, then the parity bytes outside the allocation
        keep = np.ones(TOTAL_BITS, dtype=bool)
        keep[declared.size : DATA_BITS] = False
        for byte in alloc_bytes:
            if byte >= rscode.DATA_BYTES:
                keep[byte * 8 : byte * 8 + 8] = False
        rows = _codeword_checks()[keep]
        placed = np.zeros((rows.shape[0], TOTAL_BITS + 8 * len(aux)), dtype=np.uint8)
        placed[:, var[side]] = rows
        matrices.append(placed)
        # target (declared bits, then zeros) xor rows . mask mod 2
        target = np.zeros(rows.shape[0], dtype=np.uint8)
        target[: declared.size] = declared
        rhs.append(target ^ np.bitwise_xor.reduce(rows & mask[side], axis=1))

    return LinearSystem(np.concatenate(matrices), np.concatenate(rhs))


def enumerate_error_allocations(partition, max_per_side=3, conflicts=()):
    """Allocations over conflict-zone bytes that cover every pin conflict.

    The stream offers only bytes whose cells sit in zones a, c, e or i,
    deduplicated and exhausted up to max_per_side bytes on each side. That
    is a search restriction, not a theorem: sacrificing any other byte
    unties its cells from that side's parity rows, so at 3 bytes per side
    an allocation outside the candidates can solve where every candidate
    allocation fails, and the restriction loses it. conflicts holds
    (cell, straight byte, mirrored byte) triples of cells the two sides pin
    to different values; an allocation must sacrifice one byte of each
    pair, so it is a vertex cover of the bipartite conflict graph.

    Order: smallest total first, then fewest straight bytes, then
    lexicographic straight subsets, then lexicographic mirrored subsets.
    Each straight subset leaves a set of mirrored bytes that must be
    allocated; the mirrored subsets are that set plus every lexicographic
    choice of the remaining candidates, which keeps the order of the
    unfiltered stream.
    """
    cand_a = partition.conflict_bytes_a()
    cand_b = partition.conflict_bytes_b()
    max_a = min(max_per_side, len(cand_a))
    max_b = min(max_per_side, len(cand_b))
    # mirrored-byte bitmasks: bit j is cand_b[j]; a byte outside cand_b
    # sets the top bit, which no allocation can cover
    bit_b = {bb: 1 << j for j, bb in enumerate(cand_b)}
    outside = 1 << len(cand_b)
    needs = {}  # straight byte -> mirrored bytes needed when it is not allocated
    for _, ba, bb in conflicts:
        needs[ba] = needs.get(ba, 0) | bit_b.get(bb, outside)

    # per straight subset: the mirrored bytes it requires and those left free
    covers = []
    for ka in range(max_a + 1):
        viable = []
        for sa in itertools.combinations(cand_a, ka):
            req = 0
            for ba, mask in needs.items():
                if ba not in sa:
                    req |= mask
            if req & outside or req.bit_count() > max_b:
                continue
            viable.append((frozenset(sa), [bb for bb in cand_b if req & bit_b[bb]],
                           [bb for bb in cand_b if not req & bit_b[bb]]))
        covers.append(viable)

    for total in range(max_a + max_b + 1):
        for ka in range(min(total, max_a) + 1):
            kb = total - ka
            if kb > max_b:
                continue
            for sa, req, rest in covers[ka]:
                if len(req) > kb:
                    continue
                for extra in itertools.combinations(rest, kb - len(req)):
                    yield ErrorAllocation(sa, frozenset((*req, *extra)))


def _pin_conflict_cells(bits_a, bits_b, fmt, mirrored_fmt):
    """Cells both sides pin to different physical values: (cell index, a
    byte, b byte). A side's declared bit is xored with its own mask."""
    k = transpose_permutation()[: bits_b.size]
    delta = data_mask(fmt.mask_id)[k] ^ data_mask(mirrored_fmt.mask_id)[: bits_b.size]
    j = np.flatnonzero(k < bits_a.size)
    j = j[bits_a[k[j]] ^ bits_b[j] != delta[j]]
    return list(zip(k[j].tolist(), (k[j] // 8).tolist(), (j // 8).tolist()))


def _infeasible_reason(conflicts, attempted):
    """Why the analytic search came back empty-handed."""
    if attempted:
        return f"no solvable system among {attempted} viable allocations"
    pairs = ", ".join(f"({ba}, {bb})" for ba, bb in sorted({c[1:] for c in conflicts}))
    return (f"pin conflicts between (straight byte, mirrored byte) pairs {pairs}: "
            "no allocation of at most 3 bytes per side covers them")


@dataclass(frozen=True)
class ConstructionReport:
    method: str
    format_witness: str
    mask_id: int
    allocation: dict
    free_vars: int
    side_a_corrections: int
    side_b_corrections: int
    trials: int

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class BruteForceResult:
    grid: object
    trials_run: int
    best_damage: tuple


_BRUTE_BATCH = 1024  # random fills drawn and scored per numpy call


def brute_force_search(bits_a, bits_b, fmt, trials, seed):
    """Randomized baseline: try free fills until the mirrored side's damage
    fits the correction budget.

    fmt is a MirrorFormat; its witness goes onto any found grid. Each trial
    pins both sides' declared bits (the straight side wins any contested
    cell), randomizes every remaining fill cell, computes the straight
    side's parity honestly, and counts the bytes in which the mirrored
    reading differs from the codeword it is supposed to correct to.
    Reproducible for a given seed and budget.
    """
    if trials < 1:
        raise ValueError(f"brute force needs at least one trial, not {trials}")
    if seed < 0:
        raise ValueError(f"brute force seed must be non-negative, not {seed}")
    sigma = transpose_permutation()
    mu_a = data_mask(fmt.straight.mask_id)
    mu_b = data_mask(fmt.mirrored.mask_id)
    delta = mu_a[sigma] ^ mu_b
    la, lb = bits_a.size, bits_b.size
    parity = rscode.parity_matrix().astype(np.int32)

    base = np.zeros(DATA_BITS, dtype=np.uint8)
    pinned = np.zeros(DATA_BITS, dtype=bool)
    base[:la] = bits_a
    pinned[:la] = True
    k = sigma[:lb]
    b_only = (k >= la) & (k < DATA_BITS)  # data cells the straight side leaves free
    base[k[b_only]] = (bits_b ^ delta[:lb])[b_only]  # the mirrored side reads cell ^ delta
    pinned[k[b_only]] = True
    free_idx = np.nonzero(~pinned)[0]

    rng = np.random.default_rng(seed)
    best = (0, rscode.BLOCK_BYTES)
    done = 0
    while done < trials:
        n = min(_BRUTE_BATCH, trials - done)
        fills = rng.integers(0, 2, size=(n, free_idx.size), dtype=np.uint8)
        data = np.broadcast_to(base, (n, DATA_BITS)).copy()
        data[:, free_idx] = fills
        par = (data.astype(np.int32) @ parity.T % 2).astype(np.uint8)
        full = np.hstack([data, par])  # straight-side logical stream

        mirrored = full[:, sigma] ^ delta
        intended = mirrored[:, :DATA_BITS].copy()
        intended[:, :lb] = bits_b
        ipar = (intended.astype(np.int32) @ parity.T % 2).astype(np.uint8)
        diff = np.hstack([mirrored[:, :DATA_BITS] != intended,
                          mirrored[:, DATA_BITS:] != ipar])
        damage = diff.reshape(n, rscode.BLOCK_BYTES, 8).any(axis=2).sum(axis=1)

        hit = np.nonzero(damage <= 3)[0]
        if hit.size:
            i = int(hit[0])
            physical = full[i] ^ mu_a
            grid = encoder.materialize(physical, fmt.witness)
            return BruteForceResult(grid, done + i + 1, (0, int(damage[i])))
        batch_best = int(damage.min())
        best = min(best, (0, batch_best))
        done += n
    return BruteForceResult(None, done, best)


def _free_value_preference(msg_a, msg_b, straight_fmt, alloc):
    """Preferred free values for alloc's system.

    Free cells default to the straight side's ordinary encoding; aux bytes
    default to their side's ordinary codeword.
    """
    cells = encoder.standard_physical_bits(msg_a, "auto", straight_fmt.mask_id)
    data = [codec.assemble_payload(msg) for msg in (msg_a, msg_b)]
    aux = [data[side][byte * 8 : byte * 8 + 8] for side, byte in _aux_bytes(alloc)]
    return np.concatenate([cells, *aux])


def construct_double_sided(msg_a, msg_b, method="auto", trials=200_000, seed=0):
    """Build a grid reading msg_a straight and msg_b mirrored.

    method "analytic" (also spelled "auto", the default) walks error
    allocations in increasing size, deciding each by _admission; only the
    first admitted one has its system built, solved and materialized.
    method "brute" runs the randomized baseline for trials fills from
    seed. Either grid is self-verified before it is returned.
    """
    if method not in ("auto", "analytic", "brute"):
        raise ValueError(f"unknown method {method!r}")
    bits_a, bits_b = codec.terminated_payload(msg_a), codec.terminated_payload(msg_b)
    fmt = select_mirror_format()
    straight, mirrored = fmt.straight, fmt.mirrored

    if method == "brute":
        result = brute_force_search(bits_a, bits_b, fmt, trials, seed)
        if result.grid is None:
            raise ConstructionError(
                "RS budget",
                f"brute force exhausted {result.trials_run} trials; best damage "
                f"{result.best_damage[0]}+{result.best_damage[1]} bytes",
            )
        grid, free_vars, trials_run = result.grid, 0, result.trials_run
    else:
        partition = overlap_partition(bits_a.size, bits_b.size)
        conflicts = _pin_conflict_cells(bits_a, bits_b, straight, mirrored)
        admits = None
        attempted = 0
        for alloc in enumerate_error_allocations(partition, conflicts=conflicts):
            attempted += 1
            admits = admits or _admission(bits_a, bits_b, straight, mirrored)
            if admits(alloc):
                break
        else:
            raise ConstructionError("system infeasible",
                                    _infeasible_reason(conflicts, attempted))
        system = build_constraint_system(bits_a, bits_b, straight, alloc, mirrored_fmt=mirrored)
        solution = solve_gf2(system, _free_value_preference(msg_a, msg_b, straight, alloc))
        if solution is None:  # a wrong verdict: no other cover may stand in for it
            raise RuntimeError(f"the quotient test admitted {alloc}, whose system has no solution")
        grid = encoder.materialize(solution.assignment[:TOTAL_BITS], fmt.witness)
        method, free_vars, trials_run = "analytic", solution.free_variable_count, 0

    rep_a = decode_grid(grid, "straight")
    rep_b = decode_grid(grid, "transposed")
    if rep_a.text != msg_a or rep_b.text != msg_b:
        raise ConstructionError(
            "decode mismatch",
            f"{'solved' if method == 'analytic' else 'brute-force'} grid reads "
            f"{rep_a.text!r}/{rep_b.text!r}",
        )
    if method == "brute":  # the allocation is whatever the decoders corrected
        alloc = ErrorAllocation(rep_a.corrected_bytes, rep_b.corrected_bytes)
    report = ConstructionReport(
        method,
        fmt.witness_bits,
        straight.mask_id,
        {"side_a": sorted(alloc.side_a_bytes), "side_b": sorted(alloc.side_b_bytes)},
        free_vars,
        len(rep_a.corrected_bytes),
        len(rep_b.corrected_bytes),
        trials_run,
    )
    return grid, report
