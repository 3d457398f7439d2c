"""The double-sided constraint system, allocations, and construction."""

import importlib
import itertools
import os
import pkgutil
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qrmirror
from qrmirror import codec, encoder, mirror, rscode, verify
from qrmirror.formatinfo import FormatWord, select_mirror_format
from qrmirror.grid import DATA_BITS, TOTAL_BITS, overlap_partition, transpose_permutation
from qrmirror.masks import data_mask, symmetric_masks

from gf2_reference import (conflicting_pins, dense_form, overlay, pinned_columns, preference,
                           reference_solve_gf2)
from test_bench_names import load_bench_module

EMPTY_ALLOCATION = mirror.ErrorAllocation(frozenset(), frozenset())


def payload(text, mode="alphanumeric"):
    """The bits construct_double_sided pins for text: segment and terminator."""
    return codec.terminated_payload(text, mode)


def satisfies(solution, system):
    """Whether the assignment meets each side's pins and every kept check."""
    # column c at bit mirror._WIDTH - c, bit 0: the right-hand side
    x = int("".join(map(str, solution.assignment)), 2) << 1 + mirror._WIDTH - system.cols | 1
    return (all(x & columns == values for columns, values in system.pins)
            and not any((row & x).bit_count() & 1 for row in system.rows))


def allocation_total(alloc):
    return len(alloc.side_a_bytes) + len(alloc.side_b_bytes)


FMT = FormatWord("L", 3)


def test_same_alphanumeric_messages_conflict_in_two_mode_bits():
    # both sides demand the 0010 indicator, which reads 0100 through the
    # mirror, so two of the four shared cells are pinned both ways
    system = mirror.build_constraint_system(
        payload("HELLO"), payload("HELLO"), FMT, EMPTY_ALLOCATION
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
        FMT, EMPTY_ALLOCATION,
    )
    assert not conflicting_pins(system)
    solution = mirror.solve_gf2(system)
    assert solution is not None
    assert satisfies(solution, system)


def test_system_rejects_payload_past_the_data_capacity():
    with pytest.raises(ValueError, match="152-bit"):
        mirror.build_constraint_system(
            np.zeros(DATA_BITS + 1, np.uint8), payload("B"), FMT, EMPTY_ALLOCATION
        )


def test_rows_are_each_sides_declared_bits_then_kept_checks():
    alloc = mirror.ErrorAllocation(frozenset({0}), frozenset({19}))
    pa, pb = payload("HI"), payload("YO")
    system = mirror.build_constraint_system(pa, pb, FMT, alloc)
    la, lb = pa.size, pb.size
    # each side pins its declared bits; side B dropped parity byte 19, side
    # A keeps all seven checks
    (pins_a, _), (pins_b, _) = system.pins
    assert (pins_a.bit_count(), pins_b.bit_count(), len(system.rows)) == (la, lb, 56 + 48)
    assert system.matrix.shape[0] == la + 56 + lb + 48
    # the pins are substituted: no kept check reads a pinned column
    assert not any(row & (pins_a | pins_b) for row in system.rows)


def test_allocated_data_byte_moves_pins_to_aux_variables():
    alloc = mirror.ErrorAllocation(frozenset({0}), frozenset())
    system = mirror.build_constraint_system(payload("HELLO"), payload("WORLD"),
                                            FMT, alloc)
    assert system.matrix.shape[1] == 208 + 8
    # side A's first 8 declared bits now pin the aux byte, not the grid
    pinned = pinned_columns(system.pins[0][0], system.cols)
    assert pinned[-8:] == list(range(208, 216)) and min(pinned) == 8


def test_every_solution_satisfies_all_rows():
    rng = np.random.default_rng(2)
    for alloc in (EMPTY_ALLOCATION,
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
    assert allocations[0] == EMPTY_ALLOCATION
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
    assert allocations[0] == EMPTY_ALLOCATION
    assert all(a.side_a_bytes <= {19} and a.side_b_bytes <= {19}
               for a in allocations)


def test_allocation_validation():
    # each side holds at most 3 of the byte indices 0..25; an index that is
    # no integer is outside them too, a ValueError rather than a TypeError
    mirror.ErrorAllocation(frozenset({0, 1, 25}), frozenset({0, 24, 25}))
    cases = [(frozenset({1, 2, 3, 4}), "exceeds the 3-byte budget"),
             (frozenset({26}), "has byte indices outside 0..25"),
             (frozenset({-1}), "has byte indices outside 0..25"),
             (frozenset({2.5}), "has byte indices outside 0..25"),
             (frozenset({"x"}), "has byte indices outside 0..25")]
    for bytes_, reason in cases:
        for side, sides in (("side_a", (bytes_, frozenset())), ("side_b", (frozenset(), bytes_))):
            with pytest.raises(ValueError) as excinfo:
                mirror.ErrorAllocation(*sides)
            assert str(excinfo.value) == f"{side} allocation {reason}"


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


def test_capacity_counts_of_the_readme():
    # README's Capacity paragraph: 300 seeded alphanumeric pairs per length
    # class, drawn as the benchmark draws them, and every pair not built
    # fails at the system stage. A solution lost fails here; one gained
    # updates the counts and the paragraph.
    inputs = load_bench_module("inputs")
    for (len_a, len_b), expected in (((8, 11), 300), ((9, 12), 134), ((10, 12), 23)):
        rng = inputs.new_rng(11, f"{len_a}+{len_b}")
        built = 0
        for _ in range(300):
            _, msg_a, msg_b = inputs.alnum_pair(rng, len_a, len_b)
            try:
                mirror.construct_double_sided(msg_a, msg_b, method="analytic")
                built += 1
            except mirror.ConstructionError as exc:
                assert exc.stage == "system infeasible", (msg_a, msg_b)
        assert built == expected, (len_a, len_b)


def test_construct_rejects_overlong_messages():
    with pytest.raises(codec.CodecError):
        mirror.construct_double_sided("A" * 30, "B")


def test_construct_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'fast'"):
        mirror.construct_double_sided("A", "B", method="fast")


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
    for seed, result in ((42, r1), (43, r3)):
        assert result.best_damage == reference_brute_force_best_damage(pa, pb, fmt, 3000, seed)


def test_brute_force_damage_floor_documented():
    # the honest randomized search leaves the mirrored parity region to
    # chance; within a small budget the best trials stay well above the
    # 3-byte budget, which is why the analytic path exists
    fmt = select_mirror_format()
    result = mirror.brute_force_search(payload("A"), payload("B"), fmt,
                                       trials=20_000, seed=0)
    assert result.grid is None
    assert result.trials_run == 20_000
    assert type(result.best_damage) is int and result.best_damage >= 4  # the mirrored side's


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


def reference_brute_force_trials(bits_a, bits_b, fmt, trials, seed):
    """brute_force_search's trials, scored one at a time from the physical
    cells: the same pins and the same random fills in the same order, each
    straight codeword rs-encoded, masked, read back through the
    transposition and the mirrored mask, and compared byte by byte with the
    codeword the mirrored decoder should correct it to. Yields each trial's
    physical cells and damage."""
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
    for done in range(0, trials, mirror._BRUTE_BATCH):
        n = min(mirror._BRUTE_BATCH, trials - done)
        for fill in rng.integers(0, 2, size=(n, free.size), dtype=np.uint8):
            data = base.copy()
            data[free] = fill
            physical = codeword(data) ^ mu_a
            read = physical[sigma] ^ mu_b
            intended = read[:DATA_BITS].copy()
            intended[: bits_b.size] = bits_b
            wrong = (read != codeword(intended)).reshape(rscode.BLOCK_BYTES, 8).any(axis=1)
            yield physical, int(wrong.sum())


def reference_brute_force_best_damage(bits_a, bits_b, fmt, trials, seed):
    """brute_force_search's best damage when no trial fits the budget: the
    mirrored side's, as the straight side's is always 0."""
    return min(d for _, d in reference_brute_force_trials(bits_a, bits_b, fmt, trials, seed))


@pytest.mark.parametrize("budget, seed, hit", [(26, 0, 1), (6, 5, 1957)])
def test_brute_force_returns_the_first_trial_within_the_budget(monkeypatch, budget, seed, hit):
    # no A/B trial has been seen within the real budget, so a raised one
    # reaches the found-grid path: at the first trial, and in the second batch
    monkeypatch.setattr(mirror, "_BUDGET", budget)
    fmt = select_mirror_format()
    pa, pb = payload("A"), payload("B")
    result = mirror.brute_force_search(pa, pb, fmt, trials=3000, seed=seed)
    trials = enumerate(reference_brute_force_trials(pa, pb, fmt, 3000, seed), start=1)
    first, (physical, damage) = next((i, trial) for i, trial in trials if trial[1] <= budget)
    assert result.trials_run == first == hit
    assert result.best_damage == damage
    assert result.grid == encoder.materialize(physical, fmt.witness)
    assert verify.decode_grid(result.grid, "straight").text == "A"


def test_brute_report_takes_its_allocation_from_the_decoders(monkeypatch):
    # no brute trial fits the real budget, so the search is stubbed with a
    # grid that does: the analytic one, found at a chosen trial
    grid, _ = mirror.construct_double_sided("HARRY", "BOVIK")
    found = mirror.BruteForceResult(grid, 1234, 1)
    monkeypatch.setattr(mirror, "brute_force_search", lambda *args: found)
    built, report = mirror.construct_double_sided("HARRY", "BOVIK", method="brute")
    rep_a, rep_b = verify.decode_grid(grid, "straight"), verify.decode_grid(grid, "transposed")
    assert built is grid
    assert report.method == "brute"
    assert report.allocation == {"side_a": sorted(rep_a.corrected_bytes),
                                 "side_b": sorted(rep_b.corrected_bytes)}
    assert (report.side_a_corrections, report.side_b_corrections) == (
        len(rep_a.corrected_bytes), len(rep_b.corrected_bytes))
    assert report.free_vars == 0 and report.trials == 1234


@pytest.mark.parametrize("failing", ["straight", "transposed"])
def test_a_self_verify_decode_failure_is_a_construction_error(monkeypatch, failing):
    real_decode = mirror.decode_grid

    def decode(grid, orientation):
        if orientation == failing:
            raise verify.DecodeError("rs", "residual syndromes after correction")
        return real_decode(grid, orientation)

    monkeypatch.setattr(mirror, "decode_grid", decode)
    with pytest.raises(mirror.ConstructionError) as caught:
        mirror.construct_double_sided("HARRY", "BOVIK")
    assert caught.value.stage == "decode mismatch"
    assert str(caught.value) == (f"decode mismatch: solved grid fails its {failing} read "
                                 "at rs: residual syndromes after correction")


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
    return np.array(rows, dtype=np.uint8), np.array(rhs, dtype=np.uint8)


def test_constraint_system_matches_per_row_reference():
    rng = random.Random(31)
    symmetric = set(symmetric_masks())
    texts = [("", "alphanumeric"), ("HELLO", "alphanumeric"), ("0123456789", "numeric"),
             ("h i!", "byte"), ("ABCDEFGHIJKLM", "alphanumeric"), ("7", "numeric")]
    cases = []
    for trial in range(60):
        pa = payload(*rng.choice(texts))
        pb = payload(*rng.choice(texts))
        # data and parity bytes on both sides, 0 to 3 each
        alloc = mirror.ErrorAllocation(frozenset(rng.sample(range(26), rng.randint(0, 3))),
                                       frozenset(rng.sample(range(26), rng.randint(0, 3))))
        # both masks from all 8: the mirrored one reads its own bit k on cell sigma[k]
        fmt = FormatWord("L", rng.randrange(8))
        kwargs = {"mirrored_fmt": FormatWord("L", rng.randrange(8))} if trial % 2 else {}
        cases.append((pa, pb, fmt, alloc, kwargs))
    # the widest allocation, 3 data bytes on each side, so every aux column
    # in use: seeded short pairs under mask pairs from all 8, the mirrored
    # side's bytes those of the forced cells, both filled up at random
    data_bytes = range(rscode.DATA_BYTES)
    for _ in range(6):
        pair = seeded_short_pair(rng)
        formats = FormatWord("L", rng.randrange(8)), FormatWord("L", rng.randrange(8))
        forced = sorted({bb for _, _, bb in construction_inputs(*pair, formats=formats)[1]
                         if bb < rscode.DATA_BYTES})[:3]
        side_b = forced + rng.sample([b for b in data_bytes if b not in forced], 3 - len(forced))
        alloc = mirror.ErrorAllocation(frozenset(rng.sample(data_bytes, 3)), frozenset(side_b))
        cases.append((*construction_payloads(*pair), formats[0], alloc,
                      {"mirrored_fmt": formats[1]}))
    # what construct_double_sided builds: terminated payloads of seeded short
    # and 9+12 pairs under their first covers, at the selected witness
    witness = select_mirror_format()
    lengths = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(6)] + [(9, 12)] * 4
    for la, lb in lengths:
        pair = seeded_alnum_pair(rng, la, lb)
        partition, conflicts = construction_inputs(*pair)
        covers = mirror.enumerate_error_allocations(partition, conflicts)
        for alloc in itertools.islice(covers, 5):
            cases.append((*construction_payloads(*pair), witness.straight, alloc,
                          {"mirrored_fmt": witness.mirrored}))
    assert len(cases) == 60 + 6 + 5 * len(lengths)
    conflicts, widest, asymmetric = 0, {"built": 0, "solved": 0}, 0
    for pa, pb, fmt, alloc, kwargs in cases:
        got = mirror.build_constraint_system(pa, pb, fmt, alloc, **kwargs)
        matrix, rhs = reference_build_constraint_system(pa, pb, fmt, alloc, **kwargs)
        assert got.matrix.dtype == np.uint8 and got.matrix.shape == matrix.shape
        assert np.array_equal(got.matrix, dense_form(got)[0])
        pins, rows = reference_int_form(matrix, rhs, pa.size, pb.size, alloc)
        assert got.cols == matrix.shape[1]
        assert got.pins == pins and got.rows == rows
        asymmetric += not {fmt.mask_id, kwargs.get("mirrored_fmt", fmt).mask_id} <= symmetric
        if conflicting_pins(got):
            conflicts += 1
            assert mirror.solve_gf2(got) is None
        if got.cols == mirror._WIDTH:
            free = np.array([rng.randrange(2) for _ in range(got.cols)], np.uint8)
            solution, want = mirror.solve_gf2(got, free), reference_solve_gf2(matrix, rhs, free)
            assert (solution is None) == (want is None)
            if want is not None:
                assert np.array_equal(solution.assignment, want.assignment)
                assert solution.free_columns == want.free_columns
            widest["built"] += 1
            widest["solved"] += want is not None
    assert 0 < conflicts < len(cases)
    assert asymmetric >= 20 and widest["built"] > widest["solved"] >= 6, widest


def test_int_build_and_solve_match_the_dense_reference_on_every_cover():
    # on every cover of 40 seeded pairs the int form, pins substituted at
    # build time, solves to the per-row dense reference's assignment and
    # free columns, or to its None: 8+11 and 10+13 pairs at the witness and
    # 10+13 pairs under four other mask pairs, with aux bytes on both sides
    # and allocated parity bytes
    rng = random.Random(41)
    witness = selected_formats()
    other = [(FormatWord("L", a), FormatWord("L", b)) for a, b in ((0, 7), (5, 6), (6, 0), (7, 5))]
    cases = [(seeded_alnum_pair(rng, 8, 11), witness) for _ in range(8)]
    cases += [(seeded_alnum_pair(rng, 10, 13), witness) for _ in range(24)]
    cases += [(seeded_alnum_pair(rng, 10, 13), formats) for formats in other for _ in range(2)]
    seen = {"pairs": 0, "covers": 0, "aux on both sides": 0, "parity byte": 0, "solved": 0}
    for pair, formats in cases:
        pa, pb = construction_payloads(*pair)
        partition, forced = construction_inputs(*pair, formats=formats)
        covers = list(mirror.enumerate_error_allocations(partition, conflicts=forced))
        seen["pairs"] += bool(covers)
        for alloc in covers:
            kwargs = {"mirrored_fmt": formats[1]}
            free = preference(pa, pb, *formats, alloc)
            got = mirror.solve_gf2(mirror.build_constraint_system(pa, pb, formats[0], alloc,
                                                                  **kwargs), free)
            want = reference_solve_gf2(*reference_build_constraint_system(
                pa, pb, formats[0], alloc, **kwargs), free)
            assert (got is None) == (want is None), (pair, formats, alloc)
            if want is not None:
                assert np.array_equal(got.assignment, want.assignment), (pair, formats, alloc)
                assert got.free_columns == want.free_columns, (pair, formats, alloc)
            aux_sides = {side for side, _ in mirror._aux_bytes(alloc)}
            seen["covers"] += 1
            seen["aux on both sides"] += aux_sides == {0, 1}
            seen["parity byte"] += max(alloc.side_a_bytes | alloc.side_b_bytes) >= rscode.DATA_BYTES
            seen["solved"] += want is not None
    assert seen["pairs"] >= 40
    assert 100 <= seen["solved"] < seen["covers"]
    assert seen["aux on both sides"] and seen["parity byte"]


def scaffold_build_constraint_system(bits_a, bits_b, fmt, alloc, mirrored_fmt=None):
    """build_constraint_system as it placed each side's released cells,
    pins, values and mask through per-call numpy arrays (var, mask, at)
    and packed them back into ints."""
    mirrored_fmt = mirrored_fmt or fmt
    var = np.array([np.arange(TOTAL_BITS), transpose_permutation()])
    mask = np.array([data_mask(fmt.mask_id), data_mask(mirrored_fmt.mask_id)])
    aux = mirror._aux_bytes(alloc)
    cols = TOTAL_BITS + 8 * len(aux)
    at = np.zeros((8, mirror._WIDTH + 1), dtype=np.uint8)  # per side: released, pins, values, mask
    for k, (side, byte) in enumerate(aux):
        at[4 * side][var[side, byte * 8 : byte * 8 + 8]] = 1
        var[side, byte * 8 : byte * 8 + 8] = np.arange(8) + TOTAL_BITS + 8 * k
        mask[side, byte * 8 : byte * 8 + 8] = 0
    for side, declared in enumerate((bits_a, bits_b)):
        at[4 * side + 1][var[side, : declared.size]] = 1
        at[4 * side + 2][var[side, : declared.size]] = declared ^ mask[side, : declared.size]
        at[4 * side + 3][var[side]] = mask[side]
    released_a, pins_a, values_a, mask_a, released_b, pins_b, values_b, mask_b = mirror._ints(at)
    placed = mirror._placed_checks()
    checks = [[check & kept for check in placed[side]]
              for side, kept in enumerate((~released_a, ~released_b))]
    lows = range(mirror._WIDTH - TOTAL_BITS - 7, 0, -8)  # aux byte k: its lowest bit
    for low, (side, byte) in zip(lows, aux):
        checks[side] = [check | (straight >> mirror._WIDTH - 7 - 8 * byte & 0xFF) << low
                        for check, straight in zip(checks[side], placed[0])]
    unpinned, values = ~(pins_a | pins_b), values_a | values_b
    sides = zip(checks, (alloc.side_a_bytes, alloc.side_b_bytes),
                (mask_a ^ values, mask_b ^ values))
    rows = tuple([row & unpinned | (row & substitute).bit_count() & 1
                  for side_checks, alloc_bytes, substitute in sides
                  for p in range(rscode.PARITY_BYTES) if rscode.DATA_BYTES + p not in alloc_bytes
                  for row in side_checks[8 * p : 8 * p + 8]])
    return mirror.LinearSystem(cols, ((pins_a, values_a), (pins_b, values_b)), rows)


def test_int_build_matches_the_numpy_scaffold_build_up_to_the_admitted_cover():
    # every cover the construction decides, up to and including the first
    # admitted one, builds the same (cols, pins, rows) as the numpy
    # scaffold did: seeded short (alnum, numeric, byte-vs-alnum), 8+11 and
    # 9+12 pairs under the witness's (3, 3) mask pair and under (0, 7),
    # the flip graph's level-L edge between symmetric masks at distance 3+3
    rng = random.Random(53)
    pairs = [seeded_short_pair(rng) for _ in range(30)]
    pairs += [seeded_alnum_pair(rng, la, lb) for la, lb in ((8, 11), (9, 12)) for _ in range(6)]
    witness = selected_formats()
    assert [word.mask_id for word in witness] == [3, 3]
    seen = {"pairs": 0, "covers": 0, "aux on both sides": 0, "admitted": 0}
    for pair in pairs:
        pa, pb = construction_payloads(*pair)
        for formats in (witness, (FormatWord("L", 0), FormatWord("L", 7))):
            partition, forced = construction_inputs(*pair, formats=formats)
            admits = admission(pa, pb, formats)
            seen["pairs"] += 1
            for alloc in mirror.enumerate_error_allocations(partition, conflicts=forced):
                args = (pa, pb, formats[0], alloc)
                assert (mirror.build_constraint_system(*args, mirrored_fmt=formats[1])
                        == scaffold_build_constraint_system(*args, mirrored_fmt=formats[1])), (
                    pair, formats, alloc)
                seen["covers"] += 1
                aux_sides = {side for side, _ in mirror._aux_bytes(alloc)}
                seen["aux on both sides"] += aux_sides == {0, 1}
                if admits(alloc):
                    seen["admitted"] += 1
                    break
    assert seen["pairs"] >= 80 and seen["admitted"] >= 40
    assert seen["covers"] > seen["admitted"] and seen["aux on both sides"]


def reference_int_form(matrix, rhs, la, lb, alloc):
    """The per-row reference's system in the int form: each side's
    declared-bit rows, unit rows, as its (columns, values) pins, and its
    check rows with the pins of both sides substituted (column c at bit
    mirror._WIDTH - c, the right-hand side at bit 0). A cell both sides
    pin is substituted with the or of their values, as the build does; a
    system with such a conflict has no solution either way."""
    ints = [int("".join(map(str, row)), 2) << 1 + mirror._WIDTH - matrix.shape[1] | b
            for row, b in zip(matrix.tolist(), rhs.tolist())]
    split = la + 8 * (rscode.PARITY_BYTES - sum(b >= rscode.DATA_BYTES for b in alloc.side_a_bytes))
    assert len(ints) - split >= lb
    pins, checks = [], []
    for rows, declared in ((ints[:split], la), (ints[split:], lb)):
        assert all((row >> 1).bit_count() == 1 for row in rows[:declared])
        pins.append((sum(row & ~1 for row in rows[:declared]),
                     sum(row & ~1 for row in rows[:declared] if row & 1)))
        checks += rows[declared:]
    pinned, values = pins[0][0] | pins[1][0], pins[0][1] | pins[1][1]
    return tuple(pins), tuple(row & ~pinned ^ (row & values).bit_count() & 1 for row in checks)


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


def reference_pin_conflict_cells(bits_a, bits_b, fmt, mirrored_fmt):
    """Cells both sides pin to different physical values: (cell index, a
    byte, b byte). A side's declared bit is xored with its own mask. These
    were the construction's conflicts before it took the forced cells."""
    k = transpose_permutation()[: bits_b.size]
    delta = data_mask(fmt.mask_id)[k] ^ data_mask(mirrored_fmt.mask_id)[: bits_b.size]
    j = np.flatnonzero(k < bits_a.size)
    j = j[bits_a[k[j]] ^ bits_b[j] != delta[j]]
    return list(zip(k[j].tolist(), (k[j] // 8).tolist(), (j // 8).tolist()))


def construction_inputs(msg_a, msg_b, formats=None):
    """The partition and forced cells construct_double_sided searches over,
    at the selected witness's masks or at the given (straight, mirrored)
    format words."""
    pa, pb = construction_payloads(msg_a, msg_b)
    return overlap_partition(pa.size, pb.size), quotient_test(pa, pb, formats)[1]


def pin_only_inputs(msg_a, msg_b):
    """construction_inputs with the pin conflicts in place of the forced
    cells."""
    pa, pb = construction_payloads(msg_a, msg_b)
    return (overlap_partition(pa.size, pb.size),
            reference_pin_conflict_cells(pa, pb, *selected_formats()))


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
        want = [alloc for alloc in reference_enumerate_error_allocations(partition)
                if reference_allocation_resolves_pins(conflicts, alloc)]
        assert list(mirror.enumerate_error_allocations(partition, conflicts)) == want, label

    rng = random.Random(47)
    pairs = [("HELLO", "HELLO"), ("", ""), ("12345", "abc"), ("h i", "HELLO")]
    pairs += [seeded_alnum_pair(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(3)]
    pairs += [seeded_alnum_pair(rng, la, lb)
              for la, lb in ((8, 11), (9, 12), (12, 12), (13, 13), (5, 14), (14, 5))]
    for pair in pairs:
        check(*construction_inputs(*pair), pair)
    # conflicts naming bytes outside the partition's candidates
    check(construction_inputs("AB", "CD")[0], construction_inputs(*pairs[-3])[1], "mixed")


def straight_subsets_scanned(monkeypatch):
    """Counts, by size, the subsets of the straight candidates that
    enumerate_error_allocations draws from itertools.combinations."""
    scanned = {}
    combinations = itertools.combinations

    def counting(iterable, r):
        for subset in combinations(iterable, r):
            if isinstance(iterable, tuple):  # the straight candidates; the mirrored rest is a list
                scanned[r] = scanned.get(r, 0) + 1
            yield subset

    monkeypatch.setattr(mirror, "itertools", SimpleNamespace(combinations=counting))
    return scanned


def test_the_first_cover_of_a_pair_without_forced_cells_scans_only_the_empty_subset(monkeypatch):
    scanned = straight_subsets_scanned(monkeypatch)
    partition, forced = construction_inputs("12", "34")
    assert forced == [] and len(partition.conflict_bytes_a()) >= 3
    stream = mirror.enumerate_error_allocations(partition, forced)
    assert next(stream) == mirror.ErrorAllocation(frozenset(), frozenset())
    assert scanned == {0: 1}
    list(stream)  # the whole stream scans every size
    assert sorted(scanned) == [0, 1, 2, 3]


def test_a_one_straight_byte_cover_scans_no_larger_straight_subset(monkeypatch):
    # the construction stops at its first admitted cover, 1+0 for this
    # pair: no straight subset of size 2 or 3 has been scanned by then
    scanned = straight_subsets_scanned(monkeypatch)
    _, report = mirror.construct_double_sided("XYF+", "D2$I$$K")
    assert report.allocation == {"side_a": [0], "side_b": []}
    assert scanned.get(1, 0) >= 2 and max(scanned) == 1


def test_uncoverable_conflicts_are_named():
    msg_a, msg_b = seeded_alnum_pair(random.Random(0), 13, 13)
    partition, conflicts = construction_inputs(msg_a, msg_b)
    assert not list(mirror.enumerate_error_allocations(partition, conflicts))
    with pytest.raises(mirror.ConstructionError) as excinfo:
        mirror.construct_double_sided(msg_a, msg_b, method="analytic")
    assert excinfo.value.stage == "system infeasible"
    message = str(excinfo.value)
    assert "at most 3 bytes per side" in message
    assert "viable allocations" not in message
    for _, ba, bb in conflicts:
        assert f"({ba}, {bb})" in message


def codeword_checks():
    """208 x 208 [I 0; P I] over a codeword's bits, P the parity matrix:
    row i < 152 picks data bit i, row 152 + j is the check of parity bit j."""
    checks = np.eye(TOTAL_BITS, dtype=np.uint8)
    checks[DATA_BITS:, :DATA_BITS] = rscode.parity_matrix()
    return checks


def test_forced_cells_hold_the_contradictory_pins_under_every_mask_pair():
    # for all 25 ordered pairs of the 5 transposition-symmetric masks, the
    # forced cells hold every variable the empty allocation's system pins
    # both ways, and on short and 9+12 pairs nothing else (near full length
    # they hold more); they are exactly the cells where the target g is 1
    # and every undeclared data bit's codeword on either side is 0, read
    # off the check matrix and the masks
    rng = random.Random(23)
    pairs = [seeded_short_pair(rng) for _ in range(6)]
    pairs += [seeded_alnum_pair(rng, 9, 12) for _ in range(3)]
    near_full = [("0" * 41, "0" * 41), ("0" * 40, "0" * 39), ("9" * 41, "0" * 40)]
    checks = codeword_checks()
    sigma = transpose_permutation()
    inverse = np.argsort(sigma)  # cell -> the mirrored codeword bit on it
    masks = sorted(symmetric_masks())
    assert len(masks) == 5
    supersets = 0
    for pair in pairs + near_full:
        pa, pb = construction_payloads(*pair)
        data = np.zeros((2, DATA_BITS), dtype=np.uint8)
        data[0, : pa.size], data[1, : pb.size] = pa, pb
        codewords = data.astype(int) @ checks[:, :DATA_BITS].T % 2
        untouched = ~checks[:, pa.size : DATA_BITS].any(axis=1)
        untouched &= ~checks[inverse, pb.size : DATA_BITS].any(axis=1)
        for straight, mirrored in itertools.product(masks, repeat=2):
            fmts = FormatWord("L", straight), FormatWord("L", mirrored)
            _, got = quotient_test(pa, pb, fmts)
            cells = sorted(cell for cell, _, _ in got)
            g = (codewords[0] ^ data_mask(straight)) ^ (codewords[1] ^ data_mask(mirrored))[inverse]
            assert cells == np.flatnonzero(g & untouched).tolist(), (pair, straight, mirrored)
            assert all((ba, bb) == (cell // 8, inverse[cell] // 8) for cell, ba, bb in got)
            system = mirror.build_constraint_system(pa, pb, fmts[0], EMPTY_ALLOCATION,
                                                    mirrored_fmt=fmts[1])
            pins = sorted(conflicting_pins(system))
            assert set(pins) <= set(cells), (pair, straight, mirrored)
            if pair in near_full:
                supersets += pins != cells
            else:
                assert pins == cells, (pair, straight, mirrored)
    assert supersets == 3 * 25  # every near-full pair, under every mask pair


def test_forced_cells_are_the_untouched_cells_at_every_length_pair():
    # with g 1 on every cell (as for all-zero payloads under masks 0 and
    # all ones) the forced cells are the cells no generator of V touches,
    # for every pair of declared lengths: those 0 in every straight
    # codeword of the data bits la..151 and in every mirrored one of
    # lb..151, read off the check matrix and placed through the
    # transposition
    straight = codeword_checks()[:, :DATA_BITS].T.astype(bool)  # bit -> its codeword
    mirrored = np.zeros_like(straight)
    mirrored[:, transpose_permutation()] = straight
    touched = [np.concatenate([np.logical_or.accumulate(codewords[::-1])[::-1],
                               np.zeros((1, TOTAL_BITS), dtype=bool)])  # row l: bits l..151
               for codewords in (straight, mirrored)]
    ones = np.ones(TOTAL_BITS, dtype=np.uint8)
    got = np.zeros((DATA_BITS + 1, DATA_BITS + 1, TOTAL_BITS), dtype=bool)
    for la, lb in itertools.product(range(DATA_BITS + 1), repeat=2):
        _, forced = mirror._admission(la, lb, ones)
        got[la, lb, [cell for cell, _, _ in forced]] = True
    want = ~(touched[0][:, None] | touched[1][None, :])
    assert np.array_equal(got, want)
    assert want[DATA_BITS, DATA_BITS].all() and not want[0, 0].any()


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
    # the 27 x 27 allocations over all 26 bytes gives the same verdict as
    # the stream's covers of at most one byte per side, which come among
    # its covers of at most two bytes in all
    def single_byte(alloc):
        return max(len(alloc.side_a_bytes), len(alloc.side_b_bytes)) <= 1

    verdicts = []
    for pair in exhaustive_search_pairs():
        pa, pb = construction_payloads(*pair)
        partition, conflicts = construction_inputs(*pair)
        covers = filter(single_byte, itertools.takewhile(
            lambda alloc: len(alloc.side_a_bytes) + len(alloc.side_b_bytes) <= 2,
            mirror.enumerate_error_allocations(partition, conflicts)))
        verdicts.append(any(solves(pa, pb, alloc) for alloc in covers))
        assert verdicts[-1] == any(solves(pa, pb, alloc)
                                   for alloc in SINGLE_BYTE_ALLOCATIONS), pair
    assert set(verdicts) == {True, False}


def quotient_test(pa, pb, formats=None):
    """mirror._admission's (admits, forced) for the declared payloads, its
    target the overlay of their ordinary codes, at the selected witness's
    masks or the given (straight, mirrored) format words."""
    g = overlay(pa, pb, *(formats or selected_formats()))
    return mirror._admission(pa.size, pb.size, g)


def admission(pa, pb, formats=None):
    return quotient_test(pa, pb, formats)[0]


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


def test_admission_verdicts_do_not_depend_on_the_order_covers_arrive():
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


def test_caches_are_bounded():
    # every lru_cache in the package has a finite size, and only the
    # quotient table, keyed by length pair, holds more than 8 entries; the
    # construction's other tables are keyed by the code alone, one entry
    # each, and the permutation as ints holds well under 100 KB
    large, per_code = [], []
    for info in pkgutil.iter_modules(qrmirror.__path__):
        module = importlib.import_module(f"qrmirror.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                maxsize = value.cache_parameters()["maxsize"]
                assert maxsize is not None, f"{info.name}.{name}"
                if maxsize > 8:
                    large.append(f"{info.name}.{name}")
                if info.name == "mirror" and maxsize == 1:
                    per_code.append(name)
    assert large == ["mirror._quotient"]
    assert per_code == ["_placed_checks", "_reach", "_sigma"]
    assert deep_size(mirror._sigma()) <= 100 * 1024


def reference_quotient(la, lb):
    """mirror._quotient as it eliminated rows with cell c at bit c, keeping
    its pivots in a dict keyed by each row's lowest bit."""
    checks = codeword_checks()
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
    # any allocation releases, so every one of the 112,104 covers of their
    # pin conflicts fails (their forced cells leave no cover at all)
    msg = "0" * 41
    partition, conflicts = pin_only_inputs(msg, msg)
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


def test_free_value_preference_is_the_ordinary_encoding():
    # the construction's preference equals what the GF(256) encoder gives:
    # msg_a's padded payload, its rs_encode parity, masked on the cells,
    # then each aux byte of the side's padded payload; seeded short and
    # 9+12 pairs under all 5 symmetric straight masks, with aux bytes on
    # neither side (none, or parity bytes only), on each side and on both
    rng = random.Random(53)
    pairs = [seeded_short_pair(rng) for _ in range(30)]
    pairs += [seeded_alnum_pair(rng, 9, 12) for _ in range(12)]
    allocations = [mirror.ErrorAllocation(frozenset(a), frozenset(b)) for a, b in (
        ((), ()), ((20,), (19, 25)), ((0, 7), ()), ((), (3, 18, 22)), ((1, 19), (4,)),
        ((2, 5, 11), (0, 9, 24)))]
    masks = sorted(symmetric_masks())
    assert len(masks) == 5
    for pair, mask_id, alloc in itertools.product(pairs, masks, allocations):
        payloads = [codec.assemble_payload(msg) for msg in pair]
        parity = np.unpackbits(np.frombuffer(rscode.rs_encode(np.packbits(payloads[0])), np.uint8))
        want = np.concatenate([np.concatenate([payloads[0], parity]) ^ data_mask(mask_id), *(
            payloads[side][8 * byte : 8 * byte + 8] for side, byte in mirror._aux_bytes(alloc))])
        word = FormatWord("L", mask_id)
        got = preference(*construction_payloads(*pair), word, word, alloc)
        assert got.dtype == np.uint8 and np.array_equal(got, want), (pair, mask_id, alloc)
    assert {frozenset(side for side, _ in mirror._aux_bytes(alloc))
            for alloc in allocations} == {frozenset(), frozenset({0}), frozenset({1}),
                                          frozenset({0, 1})}


def test_analytic_constructions_never_call_the_gf256_encoder(monkeypatch):
    # once P is cached, neither a construction nor encode_single runs
    # rscode.rs_encode: short pairs, 9+12 pairs and a 13+13 pair construct
    # (or end infeasible) with codeword_bits alone. No construction calls
    # encoder.standard_physical_bits: the fill preference reads the
    # straight code the quotient test's target was made from
    rng = random.Random(59)
    pairs = [("HARRY", "BOVIK")] + [seeded_short_pair(rng) for _ in range(8)]
    pairs += [seeded_alnum_pair(rng, 9, 12) for _ in range(3)]
    pairs += [("GI//B-E.9E-B8", "4YDI1R8/%0H95")]
    rscode.parity_matrix()  # its 152 columns are rs_encode's one use, cached
    calls = []
    for module, name in ((rscode, "rs_encode"), (encoder, "standard_physical_bits")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    outcomes = []
    for pair in pairs:
        calls.clear()
        try:
            mirror.construct_double_sided(*pair, method="analytic")
        except mirror.ConstructionError as exc:
            outcomes.append((exc.stage, calls[:]))
        else:
            outcomes.append(("solved", calls[:]))
    solved, infeasible = ("solved", []), ("system infeasible", [])
    assert outcomes[:9] == [solved] * 9 and outcomes[-1] == infeasible
    assert solved in outcomes[9:12]
    assert all(outcome in (solved, infeasible) for outcome in outcomes[9:12])
    calls.clear()
    encoder.encode_single("HELLO")
    assert calls == ["standard_physical_bits"]


def test_an_analytic_construction_parses_each_message_once(monkeypatch):
    # codec._segment_value parses a message's text: a construction calls it
    # once per message, solved or not, and never again for the preference.
    # Seeded short pairs whose admitted cover holds no aux byte, one on the
    # straight side, on the mirrored side and on both; 9+12 pairs of both
    # verdicts; a 13+13 pair whose pin conflicts leave no cover
    rng = random.Random(64)
    pairs = [("short", seeded_short_pair(rng)) for _ in range(40)]
    pairs += [("9+12", seeded_alnum_pair(rng, 9, 12)) for _ in range(6)]
    pairs += [("13+13", ("GI//B-E.9E-B8", "4YDI1R8/%0H95"))]
    calls = []
    segment_value = codec._segment_value

    def counted(*args):
        calls.append(args)
        return segment_value(*args)

    monkeypatch.setattr(codec, "_segment_value", counted)
    outcomes = set()
    for kind, pair in pairs:
        calls.clear()
        try:
            _, report = mirror.construct_double_sided(*pair, method="analytic")
        except mirror.ConstructionError as exc:
            outcomes.add((kind, exc.stage))
        else:
            aux = [side for side, bytes_ in sorted(report.allocation.items())
                   if min(bytes_, default=26) < rscode.DATA_BYTES]
            outcomes.add((kind, "solved", *(aux if kind == "short" else ())))
        assert calls == [(pair[0], "auto"), (pair[1], "auto")], pair
    assert {("short", "solved"), ("short", "solved", "side_a"), ("short", "solved", "side_b"),
            ("short", "solved", "side_a", "side_b"), ("9+12", "solved"),
            ("9+12", "system infeasible"), ("13+13", "system infeasible")} <= outcomes


def reference_construct_analytic(msg_a, msg_b):
    """The analytic construction that builds and solves every cover of the
    pin conflicts in stream order until one solves, as construct_double_sided
    did before it decided covers from the quotient table and took the
    forced cells."""
    payload_a, payload_b = construction_payloads(msg_a, msg_b)
    fmt = select_mirror_format()
    partition, conflicts = pin_only_inputs(msg_a, msg_b)
    attempted = 0
    for alloc in mirror.enumerate_error_allocations(partition, conflicts=conflicts):
        system = mirror.build_constraint_system(payload_a, payload_b, fmt.straight, alloc,
                                                mirrored_fmt=fmt.mirrored)
        attempted += 1
        solution = mirror.solve_gf2(system, free_values=preference(
            payload_a, payload_b, fmt.straight, fmt.mirrored, alloc))
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


def near_full_pairs():
    """Seeded numeric 25-41-digit pairs, and byte-mode 12-17-character
    pairs over the bytes 0 and 1, whose pin conflicts are few enough to
    leave covers."""
    rng = random.Random(5)
    return ([tuple("".join(rng.choice("0123456789") for _ in range(rng.randint(25, 41)))
                   for _ in "ab") for _ in range(30)]
            + [tuple("".join(rng.choice("\x00\x01") for _ in range(rng.randint(12, 17)))
                     for _ in "ab") for _ in range(30)])


def test_forced_cells_drop_only_unsolvable_covers_near_full_length():
    # near full length the forced cells reach parity cells no undeclared
    # bit touches, so they can outnumber the pin conflicts; every cover
    # they drop from the pin-only stream has no solution, so the outcome
    # is the pin-only build-every-cover reference's, and so is the message
    # wherever the forced cells are the pin conflicts
    strict = dropped = 0
    for pair in near_full_pairs():
        pa, pb = construction_payloads(*pair)
        partition, forced = construction_inputs(*pair)
        _, pins = pin_only_inputs(*pair)
        assert set(pins) <= set(forced), pair
        strict += set(pins) != set(forced)
        kept = set(mirror.enumerate_error_allocations(partition, conflicts=forced))
        for alloc in mirror.enumerate_error_allocations(partition, conflicts=pins):
            if alloc not in kept:
                dropped += 1
                assert not solves(pa, pb, alloc), (pair, alloc)
        want = construction_outcome(reference_construct_analytic, *pair)
        got = construction_outcome(mirror.construct_double_sided, *pair)
        assert got[0] == want[0], pair
        if not isinstance(want[0], str) or set(pins) == set(forced):
            assert got == want, pair
    assert strict >= 10 and dropped >= 100


class QuotientRead(Exception):
    pass


def test_pairs_without_a_cover_never_read_the_quotient_table(monkeypatch):
    # the target is reduced at the first verdict, so a pair whose forced
    # cells leave no cover ends without the quotient table: the all-zero
    # 41+41 pair and a seeded 13+13 one; a pair with a cover reads it
    def quotient(la, lb):
        raise QuotientRead(la, lb)

    monkeypatch.setattr(mirror, "_quotient", quotient)
    coverless = [("0" * 41, "0" * 41), seeded_alnum_pair(random.Random(0), 13, 13)]
    for pair in coverless:
        partition, conflicts = construction_inputs(*pair)
        assert not list(mirror.enumerate_error_allocations(partition, conflicts=conflicts))
        with pytest.raises(mirror.ConstructionError) as excinfo:
            mirror.construct_double_sided(*pair)
        assert excinfo.value.stage == "system infeasible"
        assert "no allocation of at most 3 bytes per side covers them" in str(excinfo.value)
    with pytest.raises(QuotientRead):
        mirror.construct_double_sided(*seeded_alnum_pair(random.Random(1), 13, 13))


@pytest.mark.parametrize("msg_a, msg_b", [("0" * 41, "0" * 41), ("0" * 40, "0" * 39)],
                         ids=["41+41", "40+39"])
def test_all_zero_near_full_pairs_have_no_cover(msg_a, msg_b):
    # V is empty or nearly so: the forced cells name more byte pairs than
    # 3+3 bytes can cover, so the stream is empty where the pin conflicts
    # alone leave over 100,000 covers that all fail
    partition, conflicts = construction_inputs(msg_a, msg_b)
    assert not list(mirror.enumerate_error_allocations(partition, conflicts=conflicts))
    assert len(conflicts) > len(pin_only_inputs(msg_a, msg_b)[1])
    with pytest.raises(mirror.ConstructionError) as excinfo:
        mirror.construct_double_sided(msg_a, msg_b)
    assert excinfo.value.stage == "system infeasible"
    message = str(excinfo.value)
    assert "at most 3 bytes per side" in message
    assert "viable allocations" not in message
    for _, ba, bb in conflicts:
        assert f"({ba}, {bb})" in message


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
    real_admission = mirror._admission
    monkeypatch.setattr(mirror, "_admission",
                        lambda *args: (lambda alloc: True, real_admission(*args)[1]))
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
