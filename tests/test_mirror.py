"""The double-sided constraint system, allocations, and construction."""

import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qrmirror import codec, encoder, mirror, rscode, verify
from qrmirror.formatinfo import FormatWord, select_mirror_format
from qrmirror.grid import DATA_BITS, TOTAL_BITS, overlap_partition, transpose_permutation
from qrmirror.masks import data_mask, symmetric_masks


def payload(text, mode="alphanumeric"):
    """The bits construct_double_sided pins for text: segment and terminator."""
    return codec.terminated_payload(text, mode)


def conflicting_pins(system):
    """Variables pinned to contradictory constants, with their rows.

    Returns {var index: sorted row indices} for every variable that two
    single-coefficient rows force to different values.
    """
    seen = {}
    conflicts = {}
    pin_rows = np.flatnonzero(np.count_nonzero(system.matrix, axis=1) == 1)
    pins = pin_rows, system.matrix[pin_rows].argmax(axis=1), system.rhs[pin_rows]
    for row, var, value in zip(*(a.tolist() for a in pins)):
        prev = seen.setdefault(var, (value, row))
        if prev[0] != value:
            conflicts.setdefault(var, {prev[1]}).add(row)
    return {v: sorted(rows) for v, rows in conflicts.items()}


def satisfies(solution, system):
    lhs = (system.matrix.astype(np.int32) @ solution.assignment.astype(np.int32)) % 2
    return bool(np.array_equal(lhs.astype(np.uint8), system.rhs))


def allocation_total(alloc):
    return len(alloc.side_a_bytes) + len(alloc.side_b_bytes)


FMT = FormatWord("L", 3)


def test_same_alphanumeric_messages_conflict_in_two_mode_bits():
    # both sides demand the 0010 indicator, which reads 0100 through the
    # mirror, so two of the four shared cells are pinned both ways
    system = mirror.build_constraint_system(
        payload("HELLO"), payload("HELLO"), FMT, mirror.EMPTY_ALLOCATION
    )
    conflicts = conflicting_pins(system)
    assert sorted(conflicts) == [1, 2]  # placement indices of (20,19), (19,20)
    assert mirror.solve_gf2(system) is None


def test_conflicting_pins_sit_in_the_mode_overlap():
    part = overlap_partition(41, 41)
    order_conflicts = {1, 2}
    from qrmirror.grid import data_placement_order

    cells = {data_placement_order()[i] for i in order_conflicts}
    assert cells <= part.zones["a"]


def test_allocating_byte_zero_resolves_the_mode_conflict():
    alloc = mirror.ErrorAllocation(frozenset(), frozenset({0}))
    system = mirror.build_constraint_system(
        payload("HELLO"), payload("HELLO"), FMT, alloc
    )
    assert not conflicting_pins(system)
    assert mirror.solve_gf2(system) is not None


def test_numeric_pair_solvable_without_any_allocation():
    # the numeric indicator 0001 is symmetric in the contested middle bits
    system = mirror.build_constraint_system(
        payload("12345", "numeric"), payload("67890", "numeric"),
        FMT, mirror.EMPTY_ALLOCATION,
    )
    assert not conflicting_pins(system)
    solution = mirror.solve_gf2(system)
    assert solution is not None
    assert satisfies(solution, system)


def test_system_rejects_asymmetric_mask():
    with pytest.raises(ValueError):
        mirror.build_constraint_system(
            payload("A"), payload("B"), FormatWord("L", 2), mirror.EMPTY_ALLOCATION
        )


def test_rows_are_each_sides_declared_bits_then_kept_checks():
    alloc = mirror.ErrorAllocation(frozenset({0}), frozenset({19}))
    pa, pb = payload("HI"), payload("YO")
    system = mirror.build_constraint_system(pa, pb, FMT, alloc)
    la, lb = pa.size, pb.size
    # side B dropped parity byte 19, side A keeps all seven
    assert system.matrix.shape[0] == la + 56 + lb + 48
    # a declared bit's row is a unit row, a parity check reads data bits too
    weights = np.count_nonzero(system.matrix, axis=1)
    assert (weights[:la] == 1).all() and (weights[la + 56 : la + 56 + lb] == 1).all()
    assert (weights[la : la + 56] > 1).all() and (weights[la + 56 + lb :] > 1).all()


def test_allocated_data_byte_moves_pins_to_aux_variables():
    alloc = mirror.ErrorAllocation(frozenset({0}), frozenset())
    system = mirror.build_constraint_system(payload("HELLO"), payload("WORLD"),
                                            FMT, alloc)
    assert system.matrix.shape[1] == 208 + 8
    # side A's first 8 message rows now pin the aux byte, not the grid
    for row in range(8):
        assert np.flatnonzero(system.matrix[row]).tolist() == [208 + row]


def test_every_solution_satisfies_all_rows():
    rng = np.random.default_rng(2)
    for alloc in (mirror.EMPTY_ALLOCATION,
                  mirror.ErrorAllocation(frozenset({2}), frozenset({0, 21}))):
        system = mirror.build_constraint_system(payload("AB"), payload("XY"),
                                                FMT, alloc)
        solution = mirror.solve_gf2(system,
                                    free_values=rng.integers(0, 2, system.matrix.shape[1]))
        if solution is not None:
            assert satisfies(solution, system)


def test_enumerate_allocations_ordering_and_bounds():
    part = overlap_partition(41, 41)
    allocations = list(mirror.enumerate_error_allocations(part))
    assert allocations[0] == mirror.EMPTY_ALLOCATION
    totals = [allocation_total(a) for a in allocations]
    assert totals == sorted(totals)
    assert max(len(a.side_a_bytes) for a in allocations) == 3
    assert max(len(a.side_b_bytes) for a in allocations) == 3
    assert len(set(allocations)) == len(allocations)
    # restricted to conflict bytes
    candidates = set(part.conflict_bytes_a())
    for a in allocations:
        assert a.side_a_bytes <= candidates


def test_enumerate_allocations_empty_conflicts():
    part = overlap_partition(0, 0)
    allocations = list(mirror.enumerate_error_allocations(part))
    # zone i is always conflicting, so byte 19 remains the one candidate
    assert allocations[0] == mirror.EMPTY_ALLOCATION
    assert all(a.side_a_bytes <= {19} and a.side_b_bytes <= {19}
               for a in allocations)


def test_allocation_validation():
    with pytest.raises(ValueError):
        mirror.ErrorAllocation(frozenset({1, 2, 3, 4}), frozenset())
    with pytest.raises(ValueError):
        mirror.ErrorAllocation(frozenset({26}), frozenset())


def test_construct_harry_bovik():
    grid, report = mirror.construct_double_sided("HARRY", "BOVIK")
    a, b = verify.verify_double_sided(grid, "HARRY", "BOVIK")
    assert report.method == "analytic"
    assert len(a.corrected_bytes) <= 3
    assert len(b.corrected_bytes) <= 3
    assert a.format_distance <= 3 and b.format_distance <= 3


def test_construct_identical_messages():
    # the mode indicator forces one corrected byte on one side; a grid with
    # zero corrections on both sides cannot exist for alphanumeric pairs
    grid, report = mirror.construct_double_sided("HELLO", "HELLO")
    a, b = verify.verify_double_sided(grid, "HELLO", "HELLO")
    assert len(a.corrected_bytes) + len(b.corrected_bytes) == 1


def test_construct_numeric_pair_needs_no_corrections():
    grid, report = mirror.construct_double_sided("12345", "67890")
    a, b = verify.verify_double_sided(grid, "12345", "67890")
    assert report.allocation == {"side_a": [], "side_b": []}
    assert not a.corrected_bytes and not b.corrected_bytes


def test_construct_empty_messages():
    grid, _ = mirror.construct_double_sided("", "")
    verify.verify_double_sided(grid, "", "")


def test_construct_mixed_modes():
    grid, _ = mirror.construct_double_sided("HELLO", "h i")
    a, b = verify.verify_double_sided(grid, "HELLO", "h i")
    assert a.mode == "alphanumeric"
    assert b.mode == "byte"


def test_construct_eight_by_eleven():
    grid, report = mirror.construct_double_sided("ABCDEFGH", "IJKLMNOPQRS")
    verify.verify_double_sided(grid, "ABCDEFGH", "IJKLMNOPQRS")
    assert report.side_a_corrections <= 3
    assert report.side_b_corrections <= 3


def test_construct_reports_infeasible_when_oversized():
    for method in ("analytic", "auto"):
        with pytest.raises(mirror.ConstructionError) as excinfo:
            mirror.construct_double_sided("ABCDEFGHIJKL", "MNOPQRSTUVWX",
                                          method=method)
        assert excinfo.value.stage == "system infeasible"


def test_construct_rejects_overlong_messages():
    with pytest.raises(codec.CodecError):
        mirror.construct_double_sided("A" * 30, "B")


def test_report_json_schema():
    _, report = mirror.construct_double_sided("HI", "YO")
    import json

    data = json.loads(report.to_json())
    assert set(data) == {"method", "format_witness", "mask_id", "allocation",
                         "free_vars", "side_a_corrections",
                         "side_b_corrections", "trials"}
    assert data["format_witness"] == "101100010001101"
    assert data["mask_id"] == 3


def test_physical_consistency_of_constructed_grid():
    # reading the transposed grid really is reading the transposed cells:
    # rebuild side B's stream from side A's frame and compare
    from qrmirror.grid import data_placement_order
    from qrmirror.masks import mask_matrix

    grid, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    sigma = transpose_permutation()
    order = data_placement_order()
    mask = mask_matrix(3)
    t = grid.transposed()
    for j in (0, 1, 5, 77, 151, 152, 207):
        direct = int(t.cells[order[j]]) ^ int(mask[order[j]])
        via_sigma = int(grid.cells[order[sigma[j]]]) ^ int(mask[order[sigma[j]]])
        assert direct == via_sigma


def test_brute_force_reproducible():
    fmt = select_mirror_format()
    pa, pb = payload("A"), payload("B")
    r1 = mirror.brute_force_search(pa, pb, fmt, trials=3000, seed=42)
    r2 = mirror.brute_force_search(pa, pb, fmt, trials=3000, seed=42)
    assert r1.trials_run == r2.trials_run == 3000
    assert r1.best_damage == r2.best_damage
    assert (r1.grid is None) == (r2.grid is None)
    r3 = mirror.brute_force_search(pa, pb, fmt, trials=3000, seed=43)
    assert r3.best_damage != r1.best_damage or r3.trials_run == r1.trials_run


def test_brute_force_damage_floor_documented():
    # the honest randomized search leaves the mirrored parity region to
    # chance; within a small budget the best trials stay well above the
    # 3-byte budget, which is why the analytic path exists
    fmt = select_mirror_format()
    result = mirror.brute_force_search(payload("A"), payload("B"), fmt,
                                       trials=20_000, seed=0)
    assert result.grid is None
    assert result.trials_run == 20_000
    assert result.best_damage[0] == 0  # the straight side is always clean
    assert result.best_damage[1] >= 4


def test_brute_force_not_found_for_long_messages():
    pa = payload("ABCDEFGHIJK")
    pb = payload("LMNOPQRSTUV")
    fmt = select_mirror_format()
    result = mirror.brute_force_search(pa, pb, fmt, trials=500, seed=1)
    assert result.grid is None


def test_construct_brute_method_raises_with_diagnostics():
    with pytest.raises(mirror.ConstructionError) as excinfo:
        mirror.construct_double_sided("HELLO", "WORLD", method="brute",
                                      trials=200, seed=0)
    assert excinfo.value.stage == "RS budget"
    assert "200 trials" in str(excinfo.value)


def test_brute_force_rejects_empty_budget_and_negative_seed():
    for kwargs, name in (({"trials": 0}, "trial"), ({"seed": -1}, "seed")):
        with pytest.raises(ValueError, match=name):
            mirror.construct_double_sided("A", "B", method="brute", **kwargs)
        with pytest.raises(ValueError, match=name):
            mirror.brute_force_search(payload("A"), payload("B"), select_mirror_format(),
                                      **{"trials": 10, "seed": 0, **kwargs})


def reference_brute_force_best_damage(bits_a, bits_b, fmt, trials, seed):
    """brute_force_search's best damage, scored one trial at a time from the
    physical cells: the same pins and the same random fills in the same
    order, each straight codeword rs-encoded, masked, read back through the
    transposition and the mirrored mask, and compared byte by byte with the
    codeword the mirrored decoder should correct it to."""
    sigma = transpose_permutation()
    mu_a, mu_b = data_mask(fmt.straight.mask_id), data_mask(fmt.mirrored.mask_id)
    base = np.zeros(DATA_BITS, dtype=np.uint8)
    pinned = np.zeros(DATA_BITS, dtype=bool)
    base[: bits_a.size], pinned[: bits_a.size] = bits_a, True
    for j in range(bits_b.size):
        cell = int(sigma[j])
        if cell < DATA_BITS and not pinned[cell]:
            # the mirrored reader sees physical cell ^ mu_b[j] as its bit j
            base[cell] = bits_b[j] ^ mu_b[j] ^ mu_a[cell]
            pinned[cell] = True
    free = np.flatnonzero(~pinned)

    def codeword(data):
        return np.concatenate([data, np.unpackbits(np.frombuffer(
            rscode.rs_encode(np.packbits(data)), np.uint8))])

    rng = np.random.default_rng(seed)
    best, done = rscode.BLOCK_BYTES, 0
    while done < trials:
        n = min(mirror._BRUTE_BATCH, trials - done)
        for fill in rng.integers(0, 2, size=(n, free.size), dtype=np.uint8):
            data = base.copy()
            data[free] = fill
            read = (codeword(data) ^ mu_a)[sigma] ^ mu_b
            intended = read[:DATA_BITS].copy()
            intended[: bits_b.size] = bits_b
            wrong = (read != codeword(intended)).reshape(rscode.BLOCK_BYTES, 8).any(axis=1)
            best = min(best, int(wrong.sum()))
        done += n
    return 0, best


@pytest.mark.parametrize("straight, mirrored", [(3, 3), (0, 7), (5, 6)])
def test_brute_force_pins_the_mirrored_bits_through_both_masks(straight, mirrored):
    # under different masks a straight-free cell must hold the mirrored bit
    # xor both masks; A/KLMNOPQRSTUV leaves 55 such cells
    fmt = replace(select_mirror_format(), straight=FormatWord("L", straight),
                  mirrored=FormatWord("L", mirrored))
    pa, pb = payload("A"), payload("KLMNOPQRSTUV")
    result = mirror.brute_force_search(pa, pb, fmt, trials=400, seed=3)
    assert result.grid is None and result.trials_run == 400
    assert result.best_damage == reference_brute_force_best_damage(pa, pb, fmt, 400, seed=3)


def reference_build_constraint_system(payload_a, payload_b, fmt, alloc, mirrored_fmt=None):
    """The per-row loop construction the vectorized builder replaced."""
    from qrmirror import rscode
    from qrmirror.grid import DATA_BITS, TOTAL_BITS, data_placement_order
    from qrmirror.masks import mask_bit

    def mask_offsets(mask_id):
        return np.array([mask_bit(mask_id, cell) for cell in data_placement_order()],
                        dtype=np.uint8)

    def payload_bits(bits):
        return np.array([int(ch) for ch in bits], dtype=np.uint8)

    mirrored_fmt = mirrored_fmt or fmt
    sigma = np.array(transpose_permutation(), dtype=np.intp)
    straight = np.arange(TOTAL_BITS, dtype=np.intp)
    parity = rscode.parity_matrix()
    sides = (
        ("A", payload_bits(payload_a), straight, mask_offsets(fmt.mask_id),
         sorted(alloc.side_a_bytes)),
        ("B", payload_bits(payload_b), sigma, mask_offsets(mirrored_fmt.mask_id),
         sorted(alloc.side_b_bytes)),
    )
    n_vars = TOTAL_BITS
    aux_base = {}
    for name, _, _, _, alloc_bytes in sides:
        for byte in alloc_bytes:
            if byte < rscode.DATA_BYTES:
                aux_base[(name, byte)] = n_vars
                n_vars += 8

    rows, rhs = [], []
    for name, declared, bitvar, mu, alloc_bytes in sides:
        allocated = set(alloc_bytes)
        data_var = bitvar[:DATA_BITS].copy()
        data_mu = mu[:DATA_BITS].copy()
        for byte in alloc_bytes:
            if byte < rscode.DATA_BYTES:
                base = aux_base[(name, byte)]
                data_var[byte * 8 : byte * 8 + 8] = np.arange(base, base + 8)
                data_mu[byte * 8 : byte * 8 + 8] = 0
        for i, bit in enumerate(declared):
            row = np.zeros(n_vars, dtype=np.uint8)
            row[data_var[i]] = 1
            rows.append(row)
            rhs.append(int(bit) ^ int(data_mu[i]))
        for pbyte in range(rscode.PARITY_BYTES):
            if rscode.DATA_BYTES + pbyte in allocated:
                continue
            for j in range(8):
                r = pbyte * 8 + j
                row = np.zeros(n_vars, dtype=np.uint8)
                nz = np.nonzero(parity[r])[0]
                row[data_var[nz]] = 1
                row[bitvar[DATA_BITS + r]] ^= 1
                rows.append(row)
                rhs.append(int(data_mu[nz].sum() + mu[DATA_BITS + r]) % 2)
    return mirror.LinearSystem(np.array(rows, dtype=np.uint8), np.array(rhs, dtype=np.uint8))


def test_constraint_system_matches_per_row_reference():
    rng = random.Random(31)
    symmetric = sorted(symmetric_masks())
    texts = [("", "alphanumeric"), ("HELLO", "alphanumeric"), ("0123456789", "numeric"),
             ("h i!", "byte"), ("ABCDEFGHIJKLM", "alphanumeric"), ("7", "numeric")]
    cases = []
    for trial in range(60):
        pa = payload(*rng.choice(texts))
        pb = payload(*rng.choice(texts))
        # data and parity bytes on both sides, 0 to 3 each
        alloc = mirror.ErrorAllocation(frozenset(rng.sample(range(26), rng.randint(0, 3))),
                                       frozenset(rng.sample(range(26), rng.randint(0, 3))))
        fmt = FormatWord("L", rng.choice(symmetric))
        kwargs = {"mirrored_fmt": FormatWord("L", rng.choice(symmetric))} if trial % 2 else {}
        cases.append((pa, pb, fmt, alloc, kwargs))
    # what construct_double_sided builds: terminated payloads of seeded short
    # and 9+12 pairs under their first covers, at the selected witness
    witness = select_mirror_format()
    lengths = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(6)] + [(9, 12)] * 4
    for la, lb in lengths:
        pair = seeded_alnum_pair(rng, la, lb)
        partition, conflicts = construction_inputs(*pair)
        covers = mirror.enumerate_error_allocations(partition, 3, conflicts)
        for alloc in itertools.islice(covers, 5):
            cases.append((*construction_payloads(*pair), witness.straight, alloc,
                          {"mirrored_fmt": witness.mirrored}))
    assert len(cases) == 60 + 5 * len(lengths)
    for pa, pb, fmt, alloc, kwargs in cases:
        got = mirror.build_constraint_system(pa, pb, fmt, alloc, **kwargs)
        want = reference_build_constraint_system(pa, pb, fmt, alloc, **kwargs)
        assert got.matrix.dtype == want.matrix.dtype == np.uint8
        assert got.rhs.dtype == want.rhs.dtype == np.uint8
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.rhs, want.rhs)


def reference_enumerate_error_allocations(partition, max_per_side=3):
    """Every allocation over conflict-zone bytes, before pin filtering."""
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
                    yield mirror.ErrorAllocation(frozenset(sa), frozenset(sb))


def reference_allocation_resolves_pins(conflicts, alloc):
    return all(
        ba in alloc.side_a_bytes or bb in alloc.side_b_bytes
        for _, ba, bb in conflicts
    )


def construction_payloads(msg_a, msg_b):
    """The declared payloads construct_double_sided pins on each side."""
    return codec.terminated_payload(msg_a), codec.terminated_payload(msg_b)


def construction_inputs(msg_a, msg_b, formats=None):
    """The partition and pin conflicts construct_double_sided searches over,
    at the selected witness's masks or at the given (straight, mirrored)
    format words."""
    pa, pb = construction_payloads(msg_a, msg_b)
    return (overlap_partition(pa.size, pb.size),
            mirror._pin_conflict_cells(pa, pb, *(formats or selected_formats())))


def seeded_alnum_pair(rng, len_a, len_b):
    return ("".join(rng.choice(codec.ALPHANUMERIC) for _ in range(len_a)),
            "".join(rng.choice(codec.ALPHANUMERIC) for _ in range(len_b)))


def seeded_short_pair(rng):
    """An alnum, numeric or byte-vs-alnum pair of 1-6 (digits 1-9) characters."""
    alphabet_a, alphabet_b, top = rng.choice([
        (codec.ALPHANUMERIC, codec.ALPHANUMERIC, 6), ("0123456789", "0123456789", 9),
        ("abcdefghijklmnopqrstuvwxyz", codec.ALPHANUMERIC, 6)])
    return tuple("".join(rng.choice(alphabet) for _ in range(rng.randint(1, top)))
                 for alphabet in (alphabet_a, alphabet_b))


def test_cover_stream_matches_filtered_reference():
    def check(partition, conflicts, label):
        for max_per_side in range(4):
            want = [alloc
                    for alloc in reference_enumerate_error_allocations(partition, max_per_side)
                    if reference_allocation_resolves_pins(conflicts, alloc)]
            got = list(mirror.enumerate_error_allocations(partition, max_per_side, conflicts))
            assert got == want, (label, max_per_side)

    rng = random.Random(47)
    pairs = [("HELLO", "HELLO"), ("", ""), ("12345", "abc"), ("h i", "HELLO")]
    pairs += [seeded_alnum_pair(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(3)]
    pairs += [seeded_alnum_pair(rng, la, lb)
              for la, lb in ((8, 11), (9, 12), (12, 12), (13, 13), (5, 14), (14, 5))]
    for pair in pairs:
        check(*construction_inputs(*pair), pair)
    # conflicts naming bytes outside the partition's candidates
    check(construction_inputs("AB", "CD")[0], construction_inputs(*pairs[-3])[1], "mixed")


def test_uncoverable_conflicts_are_named():
    msg_a, msg_b = seeded_alnum_pair(random.Random(0), 13, 13)
    partition, conflicts = construction_inputs(msg_a, msg_b)
    assert not list(mirror.enumerate_error_allocations(partition, 3, conflicts))
    with pytest.raises(mirror.ConstructionError) as excinfo:
        mirror.construct_double_sided(msg_a, msg_b, method="analytic")
    assert excinfo.value.stage == "system infeasible"
    message = str(excinfo.value)
    assert "at most 3 bytes per side" in message
    assert "viable allocations" not in message
    for _, ba, bb in conflicts:
        assert f"({ba}, {bb})" in message


def test_pin_conflicts_are_the_contradictory_pins_under_every_mask_pair():
    # a cell is in conflict iff the two sides' declared bits, each xored
    # with its own mask, differ there: exactly the variables the empty
    # allocation's system pins both ways, for all 25 ordered pairs of the
    # 5 transposition-symmetric masks
    rng = random.Random(23)
    pairs = [seeded_short_pair(rng) for _ in range(6)]
    pairs += [seeded_alnum_pair(rng, 9, 12) for _ in range(3)]
    sigma = transpose_permutation()
    inverse = np.argsort(sigma)
    masks = sorted(symmetric_masks())
    assert len(masks) == 5
    for pair in pairs:
        pa, pb = construction_payloads(*pair)
        for straight, mirrored in itertools.product(masks, repeat=2):
            fmts = FormatWord("L", straight), FormatWord("L", mirrored)
            got = mirror._pin_conflict_cells(pa, pb, *fmts)
            system = mirror.build_constraint_system(pa, pb, fmts[0], mirror.EMPTY_ALLOCATION,
                                                    mirrored_fmt=fmts[1])
            want = sorted(conflicting_pins(system))
            assert sorted(cell for cell, _, _ in got) == want, (pair, straight, mirrored)
            assert all((ba, bb) == (cell // 8, inverse[cell] // 8) for cell, ba, bb in got)


SINGLE_BYTE_ALLOCATIONS = [mirror.ErrorAllocation(a, b)
                           for a in [frozenset()] + [frozenset({b}) for b in range(26)]
                           for b in [frozenset()] + [frozenset({b}) for b in range(26)]]


def exhaustive_search_pairs():
    rng = random.Random(5)
    return [seeded_alnum_pair(rng, rng.randint(2, 6), rng.randint(3, 6)) for _ in range(16)]


def selected_formats():
    fmt = select_mirror_format()
    return fmt.straight, fmt.mirrored


def solves(pa, pb, alloc, formats=None):
    """Whether the allocation's system, built and eliminated, has a solution."""
    straight, mirrored = formats or selected_formats()
    return mirror.solve_gf2(mirror.build_constraint_system(
        pa, pb, straight, alloc, mirrored_fmt=mirrored)) is not None


def test_cover_stream_verdict_matches_exhaustive_search():
    # restricting allocations to conflict-zone bytes and pin-conflict
    # covers loses no solvable system: for one byte per side, every one of
    # the 27 x 27 allocations over all 26 bytes gives the same verdict
    verdicts = []
    for pair in exhaustive_search_pairs():
        pa, pb = construction_payloads(*pair)
        partition, conflicts = construction_inputs(*pair)
        covers = mirror.enumerate_error_allocations(partition, 1, conflicts)
        verdicts.append(any(solves(pa, pb, alloc) for alloc in covers))
        assert verdicts[-1] == any(solves(pa, pb, alloc)
                                   for alloc in SINGLE_BYTE_ALLOCATIONS), pair
    assert set(verdicts) == {True, False}


def admission(pa, pb, formats=None):
    straight, mirrored = formats or selected_formats()
    return mirror._admission(pa, pb, straight, mirrored)


@pytest.mark.parametrize("formats", [None, (FormatWord("L", 0), FormatWord("L", 5))])
def test_admission_matches_build_and_solve_on_every_cover(formats):
    # the quotient test decides each allocation as building and eliminating
    # its system does: every cover of seeded capacity-edge pairs, and the
    # 13+13 pairs whose pin conflicts leave any cover, at the selected
    # witness's masks and at two different ones
    rng = random.Random(12)
    cases = [seeded_alnum_pair(rng, 9, 12) for _ in range(12)]
    cases += [seeded_alnum_pair(rng, 13, 13) for _ in range(24)]
    checked = {True: 0, False: 0}
    for pair in cases:
        pa, pb = construction_payloads(*pair)
        partition, conflicts = construction_inputs(*pair, formats)
        admits = admission(pa, pb, formats)
        for alloc in mirror.enumerate_error_allocations(partition, conflicts=conflicts):
            verdict = solves(pa, pb, alloc, formats)
            assert admits(alloc) == verdict, (pair, alloc)
            checked[verdict] += 1
    assert checked[True] >= 2 and checked[False] >= 100


def test_admission_reuses_straight_pivots_only_for_the_same_straight_bytes():
    # one admits per pair sees its covers shuffled, each twice in a row,
    # and interleaved so the straight subset changes on every call
    rng = random.Random(16)
    verdicts = {True: 0, False: 0}
    for _ in range(6):
        pair = seeded_alnum_pair(rng, 9, 12)
        pa, pb = construction_payloads(*pair)
        partition, conflicts = construction_inputs(*pair)
        covers = list(mirror.enumerate_error_allocations(partition, conflicts=conflicts))
        want = {alloc: solves(pa, pb, alloc) for alloc in covers}
        shuffled = rng.sample(covers, len(covers))
        pending = {}
        for alloc in covers:
            pending.setdefault(alloc.side_a_bytes, []).append(alloc)
        interleaved = []
        while options := [sa for sa, left in pending.items() if left and not (
                interleaved and sa == interleaved[-1].side_a_bytes)]:
            interleaved.append(pending[max(options, key=lambda sa: len(pending[sa]))].pop())
        assert len(interleaved) > len(covers) // 2
        admits = admission(pa, pb)
        for alloc in shuffled + [a for alloc in shuffled for a in (alloc, alloc)] + interleaved:
            assert admits(alloc) == want[alloc], alloc
            verdicts[want[alloc]] += 1
    assert verdicts[True] and verdicts[False]


def test_admission_matches_build_and_solve_on_single_byte_allocations():
    # over all 26 bytes per side, not only the conflict-zone candidates
    verdicts = set()
    for pair in exhaustive_search_pairs():
        pa, pb = construction_payloads(*pair)
        admits = admission(pa, pb)
        for alloc in SINGLE_BYTE_ALLOCATIONS:
            verdict = solves(pa, pb, alloc)
            assert admits(alloc) == verdict, (pair, alloc)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("msg_a, msg_b, bytes_a, bytes_b", [
    (" IOT5BZVQ", "93BBFR21BQH+", {4, 6, 18}, {0, 5, 7}),
    ("6PF$P6+..", "J$7PI61GBX3G", {5, 6, 7}, {0, 6, 12}),
    ("BZQYTVUCN- ", "*91RAQAOKB0D", {6, 7, 22}, {0, 2, 6}),
    ("ABCDEFGHIJ", "KLMNOPQRSTUV", {0, 5, 6}, {2, 6, 25}),
])
def test_admission_accepts_allocations_outside_the_candidates(msg_a, msg_b, bytes_a, bytes_b):
    pa, pb = construction_payloads(msg_a, msg_b)
    alloc = mirror.ErrorAllocation(frozenset(bytes_a), frozenset(bytes_b))
    assert admission(pa, pb)(alloc)
    assert solves(pa, pb, alloc)


@pytest.mark.parametrize("len_a, len_b, k", [
    (0, 0, 4), (61, 78, 43), (67, 83, 54), (89, 89, 82), (152, 152, 208)],
    ids=["0-0", "61-78", "67-83", "89-89", "152-152"])
def test_quotient_has_the_kernel_dimension(len_a, len_b, k):
    # empty payloads, alnum 8+11, 9+12 and 13+13 terminated payloads, and
    # two full ones: k = la + lb - 96 from 8+11 up
    reduced = mirror._quotient(len_a, len_b)
    assert type(reduced) is tuple and len(reduced) == TOTAL_BITS
    assert all(type(entry) is int and 0 <= entry < 1 << k for entry in reduced)
    free, _ = reference_quotient(len_a, len_b)
    assert [reduced[c] for c in np.flatnonzero(free).tolist()] == [1 << j for j in range(k)]


def deep_size(reduced):
    return sys.getsizeof(reduced) + sum(sys.getsizeof(entry) for entry in reduced)


def test_quotient_cache_is_bounded_and_small_per_key():
    # a tuple of 208 ints of up to 208 bits each: 10,000 bytes at k = 208
    # on 64-bit CPython, so a full cache of 256 keys stays near 2 MB
    assert mirror._quotient.cache_info().maxsize == 256
    keys = [(la, lb) for la in range(0, 153, 10) for lb in range(0, 153, 10)]
    sizes = [deep_size(mirror._quotient(*key)) for key in keys + [(152, 152)]]
    assert len(keys) == 256 and max(sizes) <= 10 * 1024
    assert sum(sizes[:-1]) <= 2.25 * 1024 * 1024


def reference_quotient(la, lb):
    """mirror._quotient as it eliminated rows with cell c at bit c, keeping
    its pivots in a dict keyed by each row's lowest bit."""
    checks = mirror._codeword_checks()
    gens = np.zeros((2 * DATA_BITS - la - lb, TOTAL_BITS), dtype=np.uint8)
    gens[: DATA_BITS - la] = checks[:, la:DATA_BITS].T
    gens[DATA_BITS - la :, transpose_permutation()] = checks[:, lb:DATA_BITS].T
    pivots = {}  # lowest bit -> row; a row has no bit below its pivot
    for row in np.packbits(gens, axis=1, bitorder="little"):
        row = int.from_bytes(row.tobytes(), "little")
        while row:
            low = row & -row
            row ^= pivots.setdefault(low, row)  # a new pivot leaves 0
    pivot_bits = sum(pivots)
    for low in sorted(pivots, reverse=True):  # every higher pivot row is reduced
        row = pivots[low]
        above = row & ~low & pivot_bits
        while above:
            high = above & -above
            row ^= pivots[high]
            above ^= high
        pivots[low] = row
    order = sorted(pivots)
    rref = np.frombuffer(b"".join((pivots[low] ^ low).to_bytes(TOTAL_BITS // 8, "little")
                                  for low in order), dtype=np.uint8)
    rref = np.unpackbits(rref.reshape(len(order), TOTAL_BITS // 8), axis=1, bitorder="little")
    free = np.ones(TOTAL_BITS, dtype=bool)
    free[[low.bit_length() - 1 for low in order]] = False
    rows = np.packbits(rref[:, free], axis=1, bitorder="little")
    free.setflags(write=False)
    rows.setflags(write=False)
    return free, rows


def reference_reduced(la, lb):
    """reference_quotient's (free, rows) as one int per cell: a free cell's
    coordinate, 1 << j for the j-th free cell, or a pivot cell's row."""
    free, rows = reference_quotient(la, lb)
    pivot_rows = iter(rows)
    return tuple(1 << int(free[:cell].sum()) if free[cell]
                 else int.from_bytes(next(pivot_rows).tobytes(), "little")
                 for cell in range(TOTAL_BITS))


def test_quotient_matches_the_lowest_bit_reference():
    # the extreme lengths, the 9+12 and 13+13 keys, and the keys of seeded
    # short alnum, numeric and byte pairs
    keys = {(la, lb) for la in (0, 1, 151, 152) for lb in (0, 1, 151, 152)}
    keys |= {(67, 83), (89, 89)}
    rng = random.Random(15)
    short = set()
    while len(short) < 40:
        pa, pb = construction_payloads(*seeded_short_pair(rng))
        short.add((pa.size, pb.size))
    for key in sorted(keys | short):
        assert mirror._quotient(*key) == reference_reduced(*key), key


def test_widest_quotient_admits_exactly_the_allocations_holding_the_target():
    # with all 152 data bits declared on each side V is empty (k = 208), so
    # an allocation is solvable iff the target g, both sides' codewords
    # masked, placed on the cells and summed, lies on its cells
    straight, mirrored = selected_formats()
    sigma = transpose_permutation()

    def verdicts(pa, pb, allocs):
        assert pa.size == pb.size == DATA_BITS
        assert max(mirror._quotient(DATA_BITS, DATA_BITS)) == 1 << TOTAL_BITS - 1
        parity = [np.unpackbits(np.frombuffer(rscode.rs_encode(np.packbits(p)), np.uint8))
                  for p in (pa, pb)]
        physical = [np.concatenate([p, par]) ^ data_mask(fmt.mask_id)
                    for p, par, fmt in zip((pa, pb), parity, (straight, mirrored))]
        support = set(np.flatnonzero(physical[0] ^ physical[1][sigma]).tolist())
        admits = admission(pa, pb)
        for alloc in allocs:
            cells = {c for c in range(TOTAL_BITS)
                     if c // 8 in alloc.side_a_bytes or sigma[c] // 8 in alloc.side_b_bytes}
            assert admits(alloc) == (support <= cells) == solves(pa, pb, alloc), alloc
            yield support <= cells, len(support)

    # two all-zero 41-digit numeric messages: g's 58 cells outnumber the 48
    # any allocation releases, so every one of the 112,104 covers fails
    msg = "0" * 41
    partition, conflicts = construction_inputs(msg, msg)
    covers = list(mirror.enumerate_error_allocations(partition, conflicts=conflicts))
    assert len(covers) == 112_104
    sample = random.Random(17).sample(covers, 60)
    assert set(verdicts(*construction_payloads(msg, msg), sample)) == {(False, 58)}

    # the full data a constructed 9+12 grid decodes to on each side: the
    # bytes its decoders correct hold g, and dropping any one of them fails
    grid, _ = mirror.construct_double_sided("T*NH8B/0L", "WT%5LZ*:2OAS", method="analytic")
    reports = verify.decode_grid(grid, "straight"), verify.decode_grid(grid, "transposed")
    full = [np.unpackbits(np.frombuffer(rscode.rs_decode(
                verify.read_codewords(view, report.mask_id))[0], np.uint8))
            for view, report in zip((grid, grid.transposed()), reports)]
    corrected = mirror.ErrorAllocation(*(r.corrected_bytes for r in reports))
    assert len(corrected.side_a_bytes) == len(corrected.side_b_bytes) == 3
    dropped = [mirror.ErrorAllocation(corrected.side_a_bytes - {byte}, corrected.side_b_bytes)
               for byte in corrected.side_a_bytes]
    dropped += [mirror.ErrorAllocation(corrected.side_a_bytes, corrected.side_b_bytes - {byte})
                for byte in corrected.side_b_bytes]
    admitted = [ok for ok, _ in verdicts(*full, [corrected, *dropped])]
    assert admitted == [True] + [False] * 6


def test_construction_imports_no_module():
    # a stray numpy helper can pull a whole subpackage into every process
    # (np.setdiff1d loads numpy.ma, about 1.3 MB resident): constructing the
    # golden short pair, a capacity-edge pair and a 13+13 pair that ends
    # infeasible, each through the quotient test, must leave sys.modules as
    # importing left it
    script = (
        "import sys\n"
        "from qrmirror import mirror\n"
        "before = set(sys.modules)\n"
        "mirror.construct_double_sided('HARRY', 'BOVIK')\n"
        "mirror.construct_double_sided('T*NH8B/0L', 'WT%5LZ*:2OAS', method='analytic')\n"
        "try:\n"
        "    mirror.construct_double_sided('GI//B-E.9E-B8', '4YDI1R8/%0H95', method='analytic')\n"
        "except mirror.ConstructionError as exc:\n"
        "    assert exc.stage == 'system infeasible'\n"
        "else:\n"
        "    raise AssertionError('13+13 pair constructed')\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(mirror.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def reference_construct_analytic(msg_a, msg_b):
    """The analytic construction that builds and solves every cover in
    stream order until one solves, as construct_double_sided did before it
    decided covers from the quotient table."""
    payload_a, payload_b = construction_payloads(msg_a, msg_b)
    fmt = select_mirror_format()
    partition, conflicts = construction_inputs(msg_a, msg_b)
    attempted = 0
    for alloc in mirror.enumerate_error_allocations(partition, conflicts=conflicts):
        system = mirror.build_constraint_system(payload_a, payload_b, fmt.straight, alloc,
                                                mirrored_fmt=fmt.mirrored)
        attempted += 1
        solution = mirror.solve_gf2(
            system, free_values=mirror._free_value_preference(msg_a, msg_b, fmt.straight, alloc))
        if solution is not None:
            break
    else:
        raise mirror.ConstructionError("system infeasible",
                                       mirror._infeasible_reason(conflicts, attempted))
    grid = encoder.materialize(solution.assignment[:TOTAL_BITS], fmt.witness)
    rep_a = verify.decode_grid(grid, "straight")
    rep_b = verify.decode_grid(grid, "transposed")
    if rep_a.text != msg_a or rep_b.text != msg_b:
        raise mirror.ConstructionError(
            "decode mismatch", f"solved grid reads {rep_a.text!r}/{rep_b.text!r}")
    report = mirror.ConstructionReport(
        "analytic", fmt.witness_bits, fmt.straight.mask_id,
        {"side_a": sorted(alloc.side_a_bytes), "side_b": sorted(alloc.side_b_bytes)},
        solution.free_variable_count, len(rep_a.corrected_bytes), len(rep_b.corrected_bytes), 0)
    return grid, report


def construction_outcome(construct, msg_a, msg_b):
    """(grid cells, report JSON), or (stage, message) of the failure."""
    try:
        grid, report = construct(msg_a, msg_b)
    except mirror.ConstructionError as exc:
        return exc.stage, str(exc)
    return grid.cells.tobytes(), report.to_json()


def first_cover_fails(msg_a, msg_b):
    """Whether the pair's first cover exists and its system has no solution."""
    partition, conflicts = construction_inputs(msg_a, msg_b)
    first = next(mirror.enumerate_error_allocations(partition, conflicts=conflicts), None)
    return first is not None and not solves(*construction_payloads(msg_a, msg_b), first)


def test_construction_matches_the_build_every_cover_reference():
    # deciding covers by the quotient table, the first one too, moves no
    # grid, report or message, by either spelling of the analytic method;
    # an infeasible message still counts every cover examined
    rng = random.Random(14)
    pairs = [("HARRY", "BOVIK"), ("HELLO", "HELLO"), ("12345", "67890"), ("h i", "HELLO")]
    pairs += [seeded_alnum_pair(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(12)]
    pairs += [("".join(rng.choice("0123456789") for _ in range(rng.randint(1, 9))),
               "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 9))))
              for _ in range(6)]
    pairs += [seeded_alnum_pair(rng, 9, 12) for _ in range(10)]
    pairs += [seeded_alnum_pair(rng, 10, 12) for _ in range(4)]
    pairs += [seeded_alnum_pair(rng, 13, 13) for _ in range(12)]
    pairs += [seeded_short_pair(rng) for _ in range(80)]
    assert sum(first_cover_fails(*pair) for pair in pairs[-80:]) >= 8
    stages = set()
    for pair in pairs:
        want = construction_outcome(reference_construct_analytic, *pair)
        for method in ("analytic", "auto"):
            got = construction_outcome(
                lambda a, b: mirror.construct_double_sided(a, b, method=method), *pair)
            assert got == want, (pair, method)
        stages.add(want[0] if isinstance(want[0], str) else "solved")
        if "viable allocations" in want[1]:
            stages.add("counted")
    assert stages == {"solved", "system infeasible", "counted"}


def test_construction_builds_and_solves_only_the_admitted_cover(monkeypatch):
    # a solved pair builds and solves exactly one system, an infeasible one
    # none, also where the first cover has no solution
    rng = random.Random(19)
    short = [seeded_short_pair(rng) for _ in range(40)]
    assert sum(first_cover_fails(*pair) for pair in short) >= 5
    capacity = [seeded_alnum_pair(rng, 9, 12) for _ in range(8)]
    infeasible = [seeded_alnum_pair(rng, 13, 13) for _ in range(8)]
    calls = {"build": 0, "solve": 0, "solved": 0}
    build, solve = mirror.build_constraint_system, mirror.solve_gf2

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        calls["solve"] += 1
        solution = solve(*args, **kwargs)
        calls["solved"] += solution is not None
        return solution

    monkeypatch.setattr(mirror, "build_constraint_system", counting_build)
    monkeypatch.setattr(mirror, "solve_gf2", counting_solve)
    outcomes = set()
    for pair, method in ([(pair, "auto") for pair in short]
                         + [(pair, "analytic") for pair in capacity + infeasible]):
        calls.update(build=0, solve=0, solved=0)
        try:
            mirror.construct_double_sided(*pair, method=method)
        except mirror.ConstructionError as exc:
            assert exc.stage == "system infeasible", pair
            assert calls == {"build": 0, "solve": 0, "solved": 0}, pair
            outcomes.add("covers all fail" if "viable allocations" in str(exc) else "no cover")
        else:
            assert calls == {"build": 1, "solve": 1, "solved": 1}, pair
            outcomes.add(f"solved {len(pair[0])}+{len(pair[1])}")
    assert {"covers all fail", "no cover", "solved 9+12"} <= outcomes


def test_an_admitted_cover_without_a_solution_is_an_error(monkeypatch):
    # a wrong verdict must not let a later cover stand in for the winner
    rng = random.Random(21)
    while not first_cover_fails(*(pair := seeded_short_pair(rng))):
        pass
    msg_a, msg_b = pair
    partition, conflicts = construction_inputs(msg_a, msg_b)
    first = next(mirror.enumerate_error_allocations(partition, conflicts=conflicts))
    monkeypatch.setattr(mirror, "_admission", lambda *args: lambda alloc: True)
    with pytest.raises(RuntimeError) as excinfo:
        mirror.construct_double_sided(msg_a, msg_b)
    assert not isinstance(excinfo.value, mirror.ConstructionError)
    assert repr(first) in str(excinfo.value)


@pytest.mark.parametrize("msg_a, msg_b, bytes_a, bytes_b", [
    (" IOT5BZVQ", "93BBFR21BQH+", {4, 6, 18}, {0, 5, 7}),
    ("ABCDEFGHIJ", "KLMNOPQRSTUV", {0, 5, 6}, {2, 6, 25}),
])
def test_allocation_outside_the_candidates_can_solve(msg_a, msg_b, bytes_a, bytes_b):
    # at 3 bytes per side the conflict-zone restriction is a search
    # restriction: each of these codes sacrifices a byte the stream never
    # offers, yet it reads both texts after exactly those corrections
    fmt = select_mirror_format()
    pa, pb = construction_payloads(msg_a, msg_b)
    partition = overlap_partition(pa.size, pb.size)
    assert not (bytes_a <= set(partition.conflict_bytes_a())
                and bytes_b <= set(partition.conflict_bytes_b()))
    alloc = mirror.ErrorAllocation(frozenset(bytes_a), frozenset(bytes_b))
    solution = mirror.solve_gf2(mirror.build_constraint_system(
        pa, pb, fmt.straight, alloc, mirrored_fmt=fmt.mirrored))
    grid = encoder.materialize(solution.assignment[:TOTAL_BITS], fmt.witness)
    rep_a, rep_b = verify.verify_double_sided(grid, msg_a, msg_b)
    assert rep_a.corrected_bytes == bytes_a
    assert rep_b.corrected_bytes == bytes_b


MESSAGES = st.one_of(
    st.text("0123456789", max_size=9),
    st.text(codec.ALPHANUMERIC, max_size=6),
    st.text(st.characters(max_codepoint=255), max_size=6),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(MESSAGES, MESSAGES, st.booleans(), st.integers(0, 2**32 - 1))
@example("", "", False, 0)
@example("HELLO", "", True, 0)
def test_every_point_of_the_solution_space_decodes(msg_a, msg_b, identical, seed):
    if identical:
        msg_b = msg_a
    grid, report = mirror.construct_double_sided(msg_a, msg_b)
    verify.verify_double_sided(grid, msg_a, msg_b)
    # random free fills of the reported allocation's system
    alloc = mirror.ErrorAllocation(frozenset(report.allocation["side_a"]),
                                   frozenset(report.allocation["side_b"]))
    fmt = select_mirror_format()
    system = mirror.build_constraint_system(*construction_payloads(msg_a, msg_b),
                                            fmt.straight, alloc, mirrored_fmt=fmt.mirrored)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        solution = mirror.solve_gf2(system,
                                    free_values=rng.integers(0, 2, system.matrix.shape[1]))
        assert solution.free_variable_count == report.free_vars
        filled = encoder.materialize(solution.assignment[:TOTAL_BITS], fmt.witness)
        verify.verify_double_sided(filled, msg_a, msg_b)
