"""Double-sided construction.

The physical values of the 208 data-region cells are the variables of a
GF(2) linear system. Each side contributes rows that pin its declared
payload bits and rows expressing its Reed-Solomon parity; a byte listed in
the error allocation contributes no rows for its side, and the damage this
leaves on the grid is later absorbed by the decoder's 3-byte correction
budget. Allocated data bytes get eight auxiliary variables holding the
intended (post-correction) byte so the parity rows can still refer to it.
_aux_bytes fixes their order for both the system and the free-value
preference. That preference, which picks the solution among many, starts
from both messages' ordinary encodings, computed once per message pair.

A randomized fallback mirrors the construction the analytic method
replaces: randomize the free fill, compute the straight side's parity
honestly, and measure how many bytes the mirrored side would need
corrected.
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import codec, encoder, rscode
from .formatinfo import select_mirror_format
from .grid import (
    DATA_BITS,
    ECC_BITS,
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

    @property
    def total(self):
        return len(self.side_a_bytes) + len(self.side_b_bytes)


EMPTY_ALLOCATION = ErrorAllocation(frozenset(), frozenset())


@dataclass
class LinearSystem:
    """GF(2) rows over the shared cell variables (plus any auxiliaries)."""

    matrix: np.ndarray
    rhs: np.ndarray
    provenance: tuple
    var_names: tuple
    n_cell_vars: int = TOTAL_BITS

    def conflicting_pins(self):
        """Variables pinned to contradictory constants, with their rows.

        Returns {var index: sorted row indices} for every variable that two
        single-coefficient rows force to different values.
        """
        seen = {}
        conflicts = {}
        weights = self.matrix.sum(axis=1)
        for row in np.nonzero(weights == 1)[0]:
            var = int(np.nonzero(self.matrix[row])[0][0])
            value = int(self.rhs[row])
            prev = seen.setdefault(var, (value, row))
            if prev[0] != value:
                conflicts.setdefault(var, {int(prev[1])}).add(int(row))
        return {v: sorted(rows) for v, rows in conflicts.items()}


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

    def satisfies(self, system):
        lhs = (system.matrix.astype(np.int32) @ self.assignment.astype(np.int32)) % 2
        return bool(np.array_equal(lhs.astype(np.uint8), system.rhs))


def gf2_row_reduce(matrix, rhs):
    """In-place-style full RREF over GF(2); returns (A, b, pivot_cols)."""
    a = matrix.astype(np.uint8).copy()
    b = rhs.astype(np.uint8).copy()
    rows, cols = a.shape
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
            b[[r, p]] = b[[p, r]]
        sel = a[:, c].astype(bool)
        sel[r] = False
        if sel.any():
            a[sel] ^= a[r]
            b[sel] ^= b[r]
        pivot_cols.append(c)
        r += 1
    return a, b, pivot_cols


def solve_gf2(system, free_values=None, rng=None):
    """Solve the system, or return None when a row reduces to 0 = 1.

    Free variables default to zero; free_values supplies preferred values
    (indexed like the system's variables) and rng randomizes them instead.
    """
    a, b, pivot_cols = gf2_row_reduce(system.matrix, system.rhs)
    r = len(pivot_cols)
    if b[r:].any():
        return None
    cols = a.shape[1]
    pivot_set = set(pivot_cols)
    free_cols = tuple(c for c in range(cols) if c not in pivot_set)
    x = np.zeros(cols, dtype=np.uint8)
    free_idx = np.array(free_cols, dtype=np.intp)
    if free_idx.size:
        if rng is not None:
            x[free_idx] = rng.integers(0, 2, free_idx.size, dtype=np.uint8)
        elif free_values is not None:
            x[free_idx] = np.asarray(free_values, dtype=np.uint8)[free_idx]
    if r:
        vals = (b[:r].astype(np.int32) + a[:r].astype(np.int32) @ x.astype(np.int32)) % 2
        x[np.array(pivot_cols, dtype=np.intp)] = vals.astype(np.uint8)
    return Solution(x, free_cols, r)


_CELL_NAMES = tuple(f"cell{i}" for i in range(TOTAL_BITS))


def _aux_bytes(alloc):
    """(side, byte) of every allocated data byte, in aux-variable order."""
    return [(name, byte)
            for name, bytes_ in (("A", alloc.side_a_bytes), ("B", alloc.side_b_bytes))
            for byte in sorted(bytes_) if byte < rscode.DATA_BYTES]


def build_constraint_system(payload_a, payload_b, fmt, alloc, mirrored_fmt=None):
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
    for payload in (payload_a, payload_b):
        if len(payload.bits) > DATA_BITS:
            raise ValueError("payload exceeds the 152-bit data capacity")

    sigma = np.array(transpose_permutation(), dtype=np.intp)
    straight = np.arange(TOTAL_BITS, dtype=np.intp)
    parity = rscode.parity_matrix()

    # auxiliary variables: 8 per allocated data byte, holding the intended
    # codeword byte that the decoder will restore
    aux = _aux_bytes(alloc)
    n_vars = TOTAL_BITS + 8 * len(aux)
    var_names = _CELL_NAMES + tuple(f"{name}.byte{byte:02d}.bit{j}"
                                    for name, byte in aux for j in range(8))

    matrices = []
    rhs = []
    provenance = []
    for name, payload, bitvar, word, alloc_bytes in (
        ("A", payload_a, straight, fmt, alloc.side_a_bytes),
        ("B", payload_b, sigma, mirrored_fmt, alloc.side_b_bytes),
    ):
        mu = data_mask(word.mask_id)
        # where each intended data bit lives: a grid cell or an aux bit
        data_var = bitvar[:DATA_BITS].copy()
        data_mu = mu[:DATA_BITS].copy()
        for k, (side, byte) in enumerate(aux):
            if side == name:
                data_var[byte * 8 : byte * 8 + 8] = np.arange(8) + TOTAL_BITS + 8 * k
                data_mu[byte * 8 : byte * 8 + 8] = 0

        declared = codec.bits_to_array(payload.bits)
        message = np.zeros((declared.size, n_vars), dtype=np.uint8)
        message[np.arange(declared.size), data_var[: declared.size]] = 1
        matrices.append(message)
        rhs.append(declared ^ data_mu[: declared.size])
        provenance.extend(zip(itertools.repeat(name), itertools.repeat("message"),
                              range(declared.size)))

        # parity bit rows of the bytes outside the allocation
        dropped = [b - rscode.DATA_BYTES for b in alloc_bytes if b >= rscode.DATA_BYTES]
        rows = np.delete(np.arange(ECC_BITS).reshape(-1, 8), dropped, axis=0).ravel()
        checks = np.zeros((rows.size, n_vars), dtype=np.uint8)
        checks[:, data_var] = parity[rows]
        checks[np.arange(rows.size), bitvar[DATA_BITS + rows]] ^= 1
        matrices.append(checks)
        rhs.append(((parity[rows] @ data_mu.astype(np.intp) + mu[DATA_BITS + rows]) % 2)
                   .astype(np.uint8))
        provenance.extend(zip(itertools.repeat(name), itertools.repeat("parity"),
                              (rscode.DATA_BYTES + rows // 8).tolist()))

    return LinearSystem(
        np.concatenate(matrices),
        np.concatenate(rhs),
        tuple(provenance),
        var_names,
    )


def enumerate_error_allocations(partition, max_per_side=3):
    """Allocations over conflict-zone bytes, smallest total first.

    Only bytes whose cells sit in zones a, c, e or i can ever need
    sacrificing, so the stream is restricted to those, deduplicated and
    exhausted up to max_per_side bytes on each side.
    """
    cand_a = partition.conflict_bytes_a()
    cand_b = partition.conflict_bytes_b()
    subs_a = [list(itertools.combinations(cand_a, k))
              for k in range(min(max_per_side, len(cand_a)) + 1)]
    subs_b = [list(itertools.combinations(cand_b, k))
              for k in range(min(max_per_side, len(cand_b)) + 1)]
    for total in range(len(subs_a) + len(subs_b) - 1):
        for ka in range(min(total, len(subs_a) - 1) + 1):
            kb = total - ka
            if kb >= len(subs_b):
                continue
            for sa in subs_a[ka]:
                for sb in subs_b[kb]:
                    yield ErrorAllocation(frozenset(sa), frozenset(sb))


def _with_terminator(payload):
    """Extend the declared bits with the 0000 terminator (room permitting).

    Strict readers parse segment after segment, so the nibble right after
    the message must not look like another mode indicator; pinning the
    terminator keeps them from wandering into the free fill.
    """
    extra = "0" * min(4, DATA_BITS - len(payload.bits))
    return codec.Payload(payload.bits + extra, payload.declared_length, False)


def _pin_conflict_cells(payload_a, payload_b):
    """Cells both sides pin to different values: (cell index, a byte, b byte)."""
    a = codec.bits_to_array(payload_a.bits)
    b = codec.bits_to_array(payload_b.bits)
    k = np.array(transpose_permutation()[: b.size], dtype=np.intp)
    j = np.flatnonzero(k < a.size)
    j = j[a[k[j]] != b[j]]
    return list(zip(k[j].tolist(), (k[j] // 8).tolist(), (j // 8).tolist()))


def _allocation_resolves_pins(conflicts, alloc):
    return all(
        ba in alloc.side_a_bytes or bb in alloc.side_b_bytes
        for _, ba, bb in conflicts
    )


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
        return json.dumps(
            {
                "method": self.method,
                "format_witness": self.format_witness,
                "mask_id": self.mask_id,
                "allocation": self.allocation,
                "free_vars": self.free_vars,
                "side_a_corrections": self.side_a_corrections,
                "side_b_corrections": self.side_b_corrections,
                "trials": self.trials,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class BruteForceResult:
    grid: object
    trials_run: int
    found_at: int
    best_damage: tuple


def brute_force_search(payload_a, payload_b, fmt, trials, seed, batch=1024):
    """Randomized fallback: try free fills until the mirrored side's damage
    fits the correction budget.

    fmt is a MirrorFormat; its witness goes onto any found grid. Each trial
    pins both sides' declared bits (the straight side wins any contested
    cell), randomizes every remaining fill cell, computes the straight
    side's parity honestly, and counts the bytes in which the mirrored
    reading differs from the codeword it is supposed to correct to.
    Reproducible for a given seed and budget.
    """
    sigma = np.array(transpose_permutation(), dtype=np.intp)
    mu_a = data_mask(fmt.straight.mask_id)
    mu_b = data_mask(fmt.mirrored.mask_id)
    delta = mu_a[sigma] ^ mu_b
    a_bits = codec.bits_to_array(payload_a.bits)
    b_bits = codec.bits_to_array(payload_b.bits)
    la, lb = len(a_bits), len(b_bits)
    parity = rscode.parity_matrix().astype(np.int32)

    base = np.zeros(DATA_BITS, dtype=np.uint8)
    pinned = np.zeros(DATA_BITS, dtype=bool)
    base[:la] = a_bits
    pinned[:la] = True
    k = sigma[:lb]
    b_only = (k >= la) & (k < DATA_BITS)  # data cells the straight side leaves free
    base[k[b_only]] = b_bits[b_only]
    pinned[k[b_only]] = True
    free_idx = np.nonzero(~pinned)[0]

    rng = np.random.default_rng(seed)
    best = (TOTAL_BITS, TOTAL_BITS)
    done = 0
    while done < trials:
        n = min(batch, trials - done)
        fills = rng.integers(0, 2, size=(n, free_idx.size), dtype=np.uint8)
        data = np.broadcast_to(base, (n, DATA_BITS)).copy()
        data[:, free_idx] = fills
        par = (data.astype(np.int32) @ parity.T % 2).astype(np.uint8)
        full = np.hstack([data, par])  # straight-side logical stream

        mirrored = full[:, sigma] ^ delta
        intended = mirrored[:, :DATA_BITS].copy()
        intended[:, :lb] = b_bits
        ipar = (intended.astype(np.int32) @ parity.T % 2).astype(np.uint8)
        diff = np.hstack([mirrored[:, :DATA_BITS] != intended,
                          mirrored[:, DATA_BITS:] != ipar])
        damage = diff.reshape(n, rscode.BLOCK_BYTES, 8).any(axis=2).sum(axis=1)

        hit = np.nonzero(damage <= 3)[0]
        if hit.size:
            i = int(hit[0])
            physical = full[i] ^ mu_a
            grid = encoder.materialize(physical, fmt.witness)
            return BruteForceResult(grid, done + i + 1, done + i + 1,
                                    (0, int(damage[i])))
        batch_best = int(damage.min())
        best = min(best, (0, batch_best))
        done += n
    return BruteForceResult(None, done, -1, best)


def _free_value_preference(msg_a, mode_a, msg_b, mode_b, straight_fmt):
    """Preferred free values, as a function of the allocation.

    Free cells default to the straight side's ordinary encoding; aux bytes
    default to their side's ordinary codeword. The ordinary encodings are
    computed once per message pair.
    """
    cells = encoder.standard_physical_bits(msg_a, mode_a, straight_fmt.mask_id)
    data = {}
    for name, msg, mode in (("A", msg_a, mode_a), ("B", msg_b, mode_b)):
        payload = codec.assemble_payload(codec.make_segment(msg, mode), pad=True)
        data[name] = codec.bits_to_array(payload.bits)

    def preference(alloc):
        aux = [data[name][byte * 8 : byte * 8 + 8] for name, byte in _aux_bytes(alloc)]
        return np.concatenate([cells, *aux])

    return preference


def construct_double_sided(msg_a, msg_b, method="auto", mode_a="auto", mode_b="auto",
                           trials=200_000, seed=0, max_per_side=3):
    """Build a grid reading msg_a straight and msg_b mirrored.

    The analytic path walks error allocations in increasing size, building
    and solving the constraint system for each; the first solvable one is
    materialized and self-verified. method "auto" falls back to the
    randomized search when every allocation is infeasible.
    """
    if method not in ("auto", "analytic", "brute"):
        raise ValueError(f"unknown method {method!r}")
    payload_a = _with_terminator(
        codec.assemble_payload(codec.make_segment(msg_a, mode_a), pad=False)
    )
    payload_b = _with_terminator(
        codec.assemble_payload(codec.make_segment(msg_b, mode_b), pad=False)
    )
    fmt = select_mirror_format()
    straight, mirrored = fmt.straight, fmt.mirrored

    grid = None
    free_vars = trials_run = 0
    if method in ("auto", "analytic"):
        partition = overlap_partition(len(payload_a.bits), len(payload_b.bits))
        conflicts = _pin_conflict_cells(payload_a, payload_b)
        preference = _free_value_preference(msg_a, mode_a, msg_b, mode_b, straight)
        attempted = 0
        for alloc in enumerate_error_allocations(partition, max_per_side):
            if not _allocation_resolves_pins(conflicts, alloc):
                continue
            system = build_constraint_system(payload_a, payload_b, straight, alloc,
                                             mirrored_fmt=mirrored)
            attempted += 1
            solution = solve_gf2(system, free_values=preference(alloc))
            if solution is not None:
                grid = encoder.materialize(solution.assignment[:TOTAL_BITS], fmt.witness)
                method, free_vars = "analytic", solution.free_variable_count
                break
        else:
            if method == "analytic":
                raise ConstructionError(
                    "system infeasible",
                    f"no solvable system among {attempted} viable allocations",
                )

    if grid is None:
        result = brute_force_search(payload_a, payload_b, fmt, trials, seed)
        if result.grid is None:
            raise ConstructionError(
                "RS budget",
                f"brute force exhausted {result.trials_run} trials; best damage "
                f"{result.best_damage[0]}+{result.best_damage[1]} bytes",
            )
        grid, method, trials_run = result.grid, "brute", result.found_at

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
