"""Double-sided construction.

The 208 data-region cells' physical values are the variables of a GF(2)
system, built as Python ints (a row's lowest column at its highest bit),
never as a dense matrix: LinearSystem.matrix is a view for counting.
Each side's declared bits are pins, one (columns, values) int pair; its
rows are the parity checks H = [P | I] outside the error allocation,
with the mask and the pins substituted at build time. An allocated
byte's cells are in no row of its side; the decoder's 3-byte budget
absorbs the damage left there. An allocated data byte gets eight aux
variables, the intended (corrected) byte, so the checks still refer to
it; _aux_bytes orders them for the system and the free-value
preference. Each message is parsed once, and both padded payloads are
encoded in one codeword_bits call; the preference is the straight code,
then each aux byte's padded bits. The baseline takes the codec's
bit arrays as they are; the builder packs both payloads and both masks
into ints at once, the mirrored payload placed through
transpose_permutation(), and forms pins and rows from them with shifts.

The module caches no generator table: per code, the check ints H placed
on each side's cells (_placed_checks) and each cell's reach (_reach),
both read off P = rscode.parity_matrix(), and the transposition as ints
(_sigma); per length pair, the quotient (_quotient). Every codeword, the
quotient's generators too, comes from rscode.codeword_bits where it is
used. Every elimination files its pivots in a list indexed by
int.bit_length() (_eliminate).

Most allocations at the capacity edge have no solution, so each one is
decided without building a system (_admission): it is solvable iff the
target g, the two ordinary codes overlaid, lies in V + span{unit vectors
on its cells}, V spanned by both sides' undeclared data bits' codewords.
Any other fill of those bits moves g within V, which the quotient maps
to 0 and which is 0 on every forced cell, so the verdict is the same.
V depends only on the declared lengths, so every cell's unit vector
reduced modulo V is cached per length pair, at most 10 KB. Where g is 1
on a cell V does not touch, a solvable allocation holds one of the
cell's two bytes, so only covers of these forced cells are tried: every
pin conflict, and near full length some parity cells. A verdict keeps
nothing, so it does not depend on the covers before it.
Only the first admitted allocation is built and solved, so every grid
and report is the build-every-allocation search's; an admitted
allocation with no solution raises RuntimeError.

The randomized baseline (method "brute") is the construction the analytic
method replaces: random free fills, the straight side's parity computed
honestly, scored by the bytes the mirrored side would need corrected. A
mirrored declared bit on a straight-free cell is written xored with both
masks, so it reads as declared under any mask pair. One codeword step
serves both sides. Kept for comparison, not as a fallback: in 200,000
trials it has not been seen to fit the budget, even for 1-character pairs.
"""

import itertools
import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import codec, encoder, rscode
from .formatinfo import select_mirror_format
from .grid import DATA_BITS, TOTAL_BITS, overlap_partition, transpose_permutation
from .masks import data_mask, symmetric_masks
from .verify import decode_grid


_BUDGET = rscode.ERROR_BUDGET  # the byte errors each side's decoder corrects
_BYTE_INDICES = frozenset(range(rscode.BLOCK_BYTES))  # a word's byte positions


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
            if len(bytes_) > _BUDGET:
                raise ValueError(f"{name} allocation exceeds the {_BUDGET}-byte budget")
            if not _BYTE_INDICES.issuperset(bytes_):
                raise ValueError(f"{name} allocation has byte indices outside "
                                 f"0..{rscode.BLOCK_BYTES - 1}")


@dataclass(frozen=True)
class LinearSystem:
    """GF(2) constraints over the cells (plus any aux variables) as ints,
    column c at bit cols - c, the right-hand side at bit 0: each side's
    pins as a (columns, values) pair, then the kept parity checks with the
    pins substituted. matrix is a dense view for counting: pins as unit rows."""

    cols: int
    pins: tuple
    rows: tuple

    @property
    def matrix(self):
        pinned = np.flatnonzero(_unpack([columns for columns, _ in self.pins], self.cols)[:, :-1])
        return np.concatenate([np.eye(self.cols, dtype=np.uint8)[pinned % self.cols],
                               _unpack(self.rows, self.cols)[:, :-1]])


@dataclass(frozen=True)
class Solution:
    """One satisfying assignment plus a description of the solution space:
    every solution is the assignment with some subset of the free columns'
    basis directions XORed in."""

    assignment: np.ndarray
    free_columns: tuple

    @property
    def free_variable_count(self):
        return len(self.free_columns)


def _ints(rows):
    """Each row of a 2-D 0/1 array as an int, its first entry highest."""
    packed = np.packbits(rows, axis=1)
    width, pad, data = packed.shape[1], -np.shape(rows)[1] % 8, packed.tobytes()
    return [int.from_bytes(data[i : i + width], "big") >> pad for i in range(0, len(data), width)]


def _unpack(rows, cols):
    """Int rows (column c at bit cols - c, b at bit 0) as a 0/1 array [A | b]."""
    width = cols // 8 + 1
    packed = np.frombuffer(b"".join(row.to_bytes(width, "big") for row in rows), np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1)[:, 8 * width - 1 - cols :]


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
    (indexed like the system's variables). The pinned columns and the
    rows' leading bits are the pivots of the unique RREF, so the free
    columns and the assignment are those of full row reduction.
    """
    (pins_a, values_a), (pins_b, values_b) = system.pins
    if pins_a & pins_b & (values_a ^ values_b):  # a cell pinned both ways
        return None
    pivots = [0] * (system.cols + 2)
    _eliminate(pivots, system.rows)
    if pivots[1]:  # a row reduced to 0 = 1
        return None
    pivot_mask, xs = pins_a | pins_b, values_a | values_b | 1  # xs bit 0: the right-hand side
    if free_values is not None:
        xs |= _ints(np.asarray(free_values)[None])[0] << 1 & ~pivot_mask
    for row in filter(None, pivots):  # highest column first: each row fixes its leading bit
        lead = 1 << row.bit_length() - 1
        pivot_mask |= lead
        if (row & xs).bit_count() & 1:
            xs ^= lead
    assignment, free = _unpack([xs, pivot_mask ^ (2 << system.cols) - 1], system.cols)[:, :-1]
    return Solution(assignment, tuple(np.flatnonzero(free).tolist()))


def _aux_bytes(alloc):
    """(side, byte) of every allocated data byte, in aux-variable order;
    side 0 is the straight side, side 1 the mirrored one."""
    return [(side, byte)
            for side, bytes_ in enumerate((alloc.side_a_bytes, alloc.side_b_bytes))
            for byte in sorted(bytes_) if byte < rscode.DATA_BYTES]


@lru_cache(maxsize=1)
def _placed_checks():
    """Per side, its 56 parity checks H = [P | I], P = rscode.parity_matrix(),
    placed on its cells, as ints with cell c at bit 208 - c: a straight
    check's coefficients on data byte b are check >> 201 - 8b & 0xFF."""
    parity = rscode.parity_matrix()
    checks = np.zeros((TOTAL_BITS - DATA_BITS, TOTAL_BITS + 1), np.uint8)  # bit 0 stays 0
    checks[:, :DATA_BITS], checks[:, DATA_BITS:TOTAL_BITS] = parity, np.eye(len(parity))
    mirrored = np.append(transpose_permutation(), TOTAL_BITS)  # an involution: its own inverse
    return _ints(checks), _ints(checks[:, mirrored])


@lru_cache(maxsize=256)  # every cover needs it; short messages alone give ~170 keys
def _quotient(la, lb):
    """Every cell's unit vector reduced modulo V, as an int per cell.

    V is spanned by the codewords (one rscode.codeword_bits call) of the
    straight side's undeclared data bits la..151 and of the mirrored
    side's lb..151, placed on their cells; it depends only on the two
    declared lengths. Its k = 208 - dim V non-pivot cells are the
    coordinates of the quotient by V, k = la + lb - 96 from 8+11 up,
    coordinate j at bit j. Returns a tuple of 208 ints in cell order: a
    non-pivot cell's entry is its own coordinate, 1 << j for the j-th
    such cell; a pivot cell's is its row of V's reduced row echelon form
    without the pivot. The generators are eliminated as ints with cell c
    at bit 207 - c. A pivot row's other cells are all later cells, so a
    pivot cell's entry is the xor of theirs.
    """
    low = min(la, lb)
    codewords = rscode.codeword_bits(np.eye(DATA_BITS, dtype=np.uint8)[low:])  # row k: bit low + k
    pivots = [0] * (TOTAL_BITS + 1)
    _eliminate(pivots, _ints(codewords[la - low:])
               + _ints(codewords[lb - low:, transpose_permutation()]))
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


@lru_cache(maxsize=1)
def _reach():
    """Read-only 2 x 208: row 0 holds each cell's reach, one past the last
    data bit whose straight codeword is 1 on it: c + 1 for data cell c,
    for parity cell 152 + i one past the last 1 in row i of P (148-152).
    Row 1 holds the reach of the cell the mirrored side places there. No
    generator of V touches a cell iff reach[0] <= la and reach[1] <= lb."""
    last = rscode.parity_matrix()[:, ::-1].argmax(axis=1)  # counted from bit 151 down
    reach = np.concatenate([np.arange(1, DATA_BITS + 1), DATA_BITS - last])
    reach = np.stack([reach, reach[transpose_permutation()]])
    reach.setflags(write=False)
    return reach


@lru_cache(maxsize=1)
def _sigma():
    """transpose_permutation() as a tuple of ints: the mirrored side's bit
    k sits on cell _sigma()[k], and cell c holds its bit _sigma()[c]."""
    return tuple(transpose_permutation().tolist())


def _admission(la, lb, g):
    """(admits, forced): admits(alloc) is whether build_constraint_system's
    system for alloc has a solution, decided without building it.

    A grid satisfies both sides iff it lies in c_a + V_a + U_a and in
    c_b + V_b + U_b: c is a side's ordinary code, masked; V its undeclared
    data bits' codewords; U the unit vectors on its allocated bytes' cells,
    all placed on the cells. So alloc is solvable iff g = c_a ^ c_b lies in
    V + U, i.e. iff g reduced modulo V, the xor of its set cells' _quotient
    entries, lies in the span of the allocated cells' entries. Where g is 1
    on a cell V does not touch, U alone must supply it: forced lists those
    cells as (cell, straight byte, mirrored byte) triples, and every cell
    both sides pin to different values is one. g reduced waits for the
    first verdict.
    """
    placed, reach = _sigma(), _reach()
    cells = np.flatnonzero(g & (reach[0] <= la) & (reach[1] <= lb))  # the forced cells
    target = None  # g reduced, set by the first verdict

    def admits(alloc):
        nonlocal target
        reduced = _quotient(la, lb)
        if target is None:
            target = 0
            for cell in np.flatnonzero(g).tolist():
                target ^= reduced[cell]
        pivots = [0] * (TOTAL_BITS + 1)
        for byte in alloc.side_a_bytes:  # the straight side's bit k sits on cell k
            _eliminate(pivots, reduced[byte * 8 : byte * 8 + 8])
        _eliminate(pivots, [reduced[c] for byte in alloc.side_b_bytes
                            for c in placed[byte * 8 : byte * 8 + 8]])
        return not _eliminate(pivots, [target])

    return admits, [(c, c >> 3, placed[c] >> 3) for c in cells.tolist()]


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

    # each side's codeword bit k lives on a cell, k on the straight side and
    # sigma[k] on the mirrored one, or for an allocated data byte on one of
    # the 8 aux variables holding the intended byte the decoder will restore
    # (mask 0: aux bits are logical). With cell c at bit 208 - c, a side's
    # bits in its own order hold its declared prefix in their top bits, and
    # a symmetric mask reads the same on cell sigma[k] as on cell k
    la, lb = bits_a.size, bits_b.size
    sigma = transpose_permutation()
    at = np.zeros((6, TOTAL_BITS + 1), np.uint8)
    at[0, :la], at[1, :lb] = bits_a, bits_b
    at[2, sigma[:lb]], at[3, sigma[:lb]] = 1, bits_b  # the mirrored side's, placed
    at[4, :-1], at[5, :-1] = data_mask(fmt.mask_id), data_mask(mirrored_fmt.mask_id)
    declared_a, declared_b, placed_pins_b, placed_b, mask_a, mask_b = _ints(at)
    prefix_a, prefix_b = ((1 << n) - 1 << TOTAL_BITS + 1 - n for n in (la, lb))
    pins = [prefix_a, placed_pins_b]
    values = [(declared_a ^ mask_a) & prefix_a, (placed_b ^ mask_b) & placed_pins_b]
    masks, placed = [mask_a, mask_b], _placed_checks()

    aux = _aux_bytes(alloc)
    shift = 8 * len(aux)
    checks = placed
    if aux:
        # the cells an aux byte releases leave its side's pins and rows, and
        # its declared bits and check coefficients go to its aux columns
        kept = [-1, -1]
        for side, byte in aux:
            cells = _sigma()[8 * byte : 8 * byte + 8] if side else range(8 * byte, 8 * byte + 8)
            kept[side] &= ~sum(1 << TOTAL_BITS + shift - c for c in cells)
        pins, values = ([x << shift & k for x, k in zip(ints, kept)] for ints in (pins, values))
        masks = [mask << shift for mask in masks]
        checks = [[check << shift & k for check in side_checks]
                  for side_checks, k in zip(placed, kept)]
        for low, (side, byte) in zip(range(shift - 7, 0, -8), aux):  # aux byte k: its lowest bit
            first = TOTAL_BITS - 7 - 8 * byte  # the byte's lowest bit in its side's order
            prefix, declared = ((prefix_a, declared_a), (prefix_b, declared_b))[side]
            pins[side] |= (prefix >> first & 0xFF) << low
            values[side] |= (declared >> first & 0xFF) << low
            checks[side] = [check | (straight >> first & 0xFF) << low
                            for check, straight in zip(checks[side], placed[0])]

    # the kept checks: the right-hand side is the row applied to the mask,
    # and the pins are substituted
    unpinned, value = ~(pins[0] | pins[1]), values[0] | values[1]
    rows = []
    sides = zip(checks, (alloc.side_a_bytes, alloc.side_b_bytes), masks)
    for side_checks, alloc_bytes, mask in sides:
        if max(alloc_bytes, default=0) >= rscode.DATA_BYTES:  # allocated parity bytes' checks go
            side_checks = [check for p, check in enumerate(side_checks)
                           if rscode.DATA_BYTES + p // 8 not in alloc_bytes]
        substitute = mask ^ value
        rows += [row & unpinned | (row & substitute).bit_count() & 1 for row in side_checks]
    return LinearSystem(TOTAL_BITS + shift, tuple(zip(pins, values)), tuple(rows))


def enumerate_error_allocations(partition, conflicts=()):
    """Allocations over conflict-zone bytes that cover every conflict.

    The stream offers only bytes whose cells sit in zones a, c, e or i,
    deduplicated and exhausted up to the decoder's 3 bytes on each side. That
    is a search restriction, not a theorem: sacrificing any other byte
    unties its cells from that side's parity rows, so at 3 bytes per side
    an allocation outside the candidates can solve where every candidate
    allocation fails, and the restriction loses it. conflicts holds
    (cell, straight byte, mirrored byte) triples, such as _admission's
    forced cells; an allocation must sacrifice one byte of each pair, so
    it is a vertex cover of the bipartite conflict graph.

    Order: smallest total first, then fewest straight bytes, then
    lexicographic straight subsets, then lexicographic mirrored subsets.
    Each straight subset leaves a set of mirrored bytes that must be
    allocated; the mirrored subsets are that set plus every lexicographic
    choice of the remaining candidates, which keeps the order of the
    unfiltered stream.

    The straight subsets of size ka are scanned when the stream first
    reaches ka: at total ka, after every cover with fewer straight bytes.
    So the empty allocation comes after one subset scanned, any cover with
    at most one straight byte after C(n, <= 1), and a stream with no cover
    scans every size up to max_a.
    """
    cand_a = partition.conflict_bytes_a()
    cand_b = partition.conflict_bytes_b()
    max_a = min(_BUDGET, len(cand_a))
    max_b = min(_BUDGET, len(cand_b))
    # mirrored-byte bitmasks: bit j is cand_b[j]; a byte outside cand_b
    # sets the top bit, which no allocation can cover
    bit_b = {bb: 1 << j for j, bb in enumerate(cand_b)}
    outside = 1 << len(cand_b)
    needs = {}  # straight byte -> mirrored bytes needed when it is not allocated
    for _, ba, bb in conflicts:
        needs[ba] = needs.get(ba, 0) | bit_b.get(bb, outside)

    def scan(ka):
        """Each straight subset of size ka that leaves at most max_b mirrored
        bytes required, with those bytes and the ones left free."""
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
        return viable

    covers = []  # covers[ka]: scan(ka), made when the stream first reaches ka
    for total in range(max_a + max_b + 1):
        for ka in range(min(total, max_a) + 1):
            kb = total - ka
            if kb > max_b:
                continue
            if ka == len(covers):  # first reached at total = ka, kb = 0
                covers.append(scan(ka))
            for sa, req, rest in covers[ka]:
                if len(req) > kb:
                    continue
                for extra in itertools.combinations(rest, kb - len(req)):
                    yield ErrorAllocation(sa, frozenset((*req, *extra)))


def _infeasible_reason(conflicts, attempted):
    """Why the analytic search came back empty-handed."""
    if attempted:
        return f"no solvable system among {attempted} viable allocations"
    pairs = ", ".join(f"({ba}, {bb})" for ba, bb in sorted({c[1:] for c in conflicts}))
    return (f"the two sides fix different values on cells of (straight byte, mirrored byte) "
            f"pairs {pairs}: no allocation of at most {_BUDGET} bytes per side covers them")


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
    best_damage: int  # the mirrored side's; the straight side's parity is always honest


_BRUTE_BATCH = 1024  # random fills drawn and scored per numpy call


def brute_force_search(bits_a, bits_b, fmt, trials, seed):
    """Randomized baseline: try free fills until the mirrored side's damage
    fits the correction budget.

    fmt is a MirrorFormat; its witness goes onto any found grid. Each trial
    pins both sides' declared bits (the straight side wins any contested
    cell) and randomizes every other data cell. One codeword step gives both
    the straight side's codewords and those the mirrored decoder should
    correct its reading to; the damage counts the bytes where they differ.
    Reproducible for a given seed and budget.
    """
    if trials < 1:
        raise ValueError(f"brute force needs at least one trial, not {trials}")
    if seed < 0:
        raise ValueError(f"brute force seed must be non-negative, not {seed}")
    sigma = transpose_permutation()
    mu_a = data_mask(fmt.straight.mask_id)
    delta = mu_a[sigma] ^ data_mask(fmt.mirrored.mask_id)  # the mirrored side reads cell ^ delta
    la, lb = bits_a.size, bits_b.size
    base = np.zeros(DATA_BITS, dtype=np.uint8)
    free = np.ones(DATA_BITS, dtype=bool)
    base[:la], free[:la] = bits_a, False
    b_only = np.flatnonzero((sigma[:lb] >= la) & (sigma[:lb] < DATA_BITS))  # straight-free cells
    base[sigma[b_only]], free[sigma[b_only]] = bits_b[b_only] ^ delta[b_only], False

    rng = np.random.default_rng(seed)
    best, done = rscode.BLOCK_BYTES, 0
    while done < trials:
        n = min(_BRUTE_BATCH, trials - done)
        data = np.tile(base, (n, 1))
        data[:, free] = rng.integers(0, 2, size=(n, np.count_nonzero(free)), dtype=np.uint8)
        full = rscode.codeword_bits(data)  # the straight side's logical codewords
        read = full[:, sigma] ^ delta  # the mirrored side's reading
        intended = read[:, :DATA_BITS].copy()
        intended[:, :lb] = bits_b
        wrong = read != rscode.codeword_bits(intended)
        damage = wrong.reshape(n, rscode.BLOCK_BYTES, 8).any(axis=2).sum(axis=1)
        hit = np.flatnonzero(damage <= _BUDGET)
        if hit.size:
            i = int(hit[0])
            grid = encoder.materialize(full[i] ^ mu_a, fmt.witness)
            return BruteForceResult(grid, done + i + 1, int(damage[i]))
        best = min(best, int(damage.min()))
        done += n
    return BruteForceResult(None, done, best)


def construct_double_sided(msg_a, msg_b, method="auto", trials=200_000, seed=0):
    """Build a grid reading msg_a straight and msg_b mirrored.

    method "analytic" (also spelled "auto", the default) walks the covers
    of the forced cells in increasing size, deciding each by _admission;
    only the first admitted one has its system built, solved and
    materialized. method "brute" runs the randomized baseline for trials
    fills from seed. Either grid is self-verified before it is returned.
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
                f"0+{result.best_damage} bytes",
            )
        grid, free_vars, trials_run = result.grid, 0, result.trials_run
    else:
        # the two ordinary codes: both padded payloads, one codeword_bits call, masked
        payloads = np.array([codec.pad_payload(bits_a), codec.pad_payload(bits_b)])
        masks = np.array([data_mask(straight.mask_id), data_mask(mirrored.mask_id)])
        code_a, code_b = rscode.codeword_bits(payloads) ^ masks
        partition = overlap_partition(bits_a.size, bits_b.size)
        admits, conflicts = _admission(bits_a.size, bits_b.size,
                                       code_a ^ code_b[transpose_permutation()])
        attempted = 0
        for alloc in enumerate_error_allocations(partition, conflicts=conflicts):
            attempted += 1
            if admits(alloc):
                break
        else:
            raise ConstructionError("system infeasible",
                                    _infeasible_reason(conflicts, attempted))
        system = build_constraint_system(bits_a, bits_b, straight, alloc, mirrored_fmt=mirrored)
        aux = [payloads[side, byte * 8 : byte * 8 + 8] for side, byte in _aux_bytes(alloc)]
        solution = solve_gf2(system, np.concatenate([code_a, *aux]))
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
