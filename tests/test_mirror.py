"""The double-sided constraint system, allocations, and construction."""

import numpy as np
import pytest

from qrmirror import codec, mirror, verify
from qrmirror.formatinfo import FormatWord, select_mirror_format
from qrmirror.grid import overlap_partition, transpose_permutation
from qrmirror.masks import symmetric_masks


def payload(text, mode="alphanumeric"):
    return codec.assemble_payload(codec.Segment(mode, text), pad=False)


FMT = FormatWord("L", 3)


def test_same_alphanumeric_messages_conflict_in_two_mode_bits():
    # both sides demand the 0010 indicator, which reads 0100 through the
    # mirror, so two of the four shared cells are pinned both ways
    system = mirror.build_constraint_system(
        payload("HELLO"), payload("HELLO"), FMT, mirror.EMPTY_ALLOCATION
    )
    conflicts = system.conflicting_pins()
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
    assert not system.conflicting_pins()
    assert mirror.solve_gf2(system) is not None


def test_numeric_pair_solvable_without_any_allocation():
    # the numeric indicator 0001 is symmetric in the contested middle bits
    system = mirror.build_constraint_system(
        payload("12345", "numeric"), payload("67890", "numeric"),
        FMT, mirror.EMPTY_ALLOCATION,
    )
    assert not system.conflicting_pins()
    solution = mirror.solve_gf2(system)
    assert solution is not None
    assert solution.satisfies(system)


def test_system_rejects_asymmetric_mask():
    with pytest.raises(ValueError):
        mirror.build_constraint_system(
            payload("A"), payload("B"), FormatWord("L", 2), mirror.EMPTY_ALLOCATION
        )


def test_provenance_covers_every_row():
    alloc = mirror.ErrorAllocation(frozenset({0}), frozenset({19}))
    pa, pb = payload("HI"), payload("YO")
    system = mirror.build_constraint_system(pa, pb, FMT, alloc)
    assert len(system.provenance) == system.matrix.shape[0]
    msg_rows = sum(1 for p in system.provenance if p[1] == "message")
    parity_rows = sum(1 for p in system.provenance if p[1] == "parity")
    assert msg_rows == len(pa.bits) + len(pb.bits)
    # side B dropped parity byte 19, side A keeps all seven
    assert parity_rows == 56 + 48


def test_allocated_data_byte_moves_pins_to_aux_variables():
    alloc = mirror.ErrorAllocation(frozenset({0}), frozenset())
    system = mirror.build_constraint_system(payload("HELLO"), payload("WORLD"),
                                            FMT, alloc)
    assert system.matrix.shape[1] == 208 + 8
    assert system.var_names[208] == "A.byte00.bit0"
    # side A's first 8 message rows now pin the aux byte, not the grid
    for row, prov in enumerate(system.provenance[:8]):
        assert prov == ("A", "message", row)
        col = int(np.nonzero(system.matrix[row])[0][0])
        assert col >= 208


def test_every_solution_satisfies_all_rows():
    rng = np.random.default_rng(2)
    for alloc in (mirror.EMPTY_ALLOCATION,
                  mirror.ErrorAllocation(frozenset({2}), frozenset({0, 21}))):
        system = mirror.build_constraint_system(payload("AB"), payload("XY"),
                                                FMT, alloc)
        solution = mirror.solve_gf2(system, rng=rng)
        if solution is not None:
            assert solution.satisfies(system)


def test_enumerate_allocations_ordering_and_bounds():
    part = overlap_partition(41, 41)
    allocations = list(mirror.enumerate_error_allocations(part))
    assert allocations[0] == mirror.EMPTY_ALLOCATION
    totals = [a.total for a in allocations]
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
    with pytest.raises(mirror.ConstructionError) as excinfo:
        mirror.construct_double_sided("ABCDEFGHIJKL", "MNOPQRSTUVWX",
                                      method="analytic")
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
    assert r1.found_at == r2.found_at
    assert r1.best_damage == r2.best_damage
    assert (r1.grid is None) == (r2.grid is None)
    r3 = mirror.brute_force_search(pa, pb, fmt, trials=3000, seed=43)
    assert r3.best_damage != r1.best_damage or r3.found_at == r1.found_at


def test_brute_force_damage_floor_documented():
    # the honest randomized search leaves the mirrored parity region to
    # chance; within a small budget the best trials stay well above the
    # 3-byte budget, which is why the analytic path exists
    fmt = select_mirror_format()
    result = mirror.brute_force_search(payload("A"), payload("B"), fmt,
                                       trials=20_000, seed=0)
    assert result.grid is None
    assert result.found_at == -1
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


def reference_build_constraint_system(payload_a, payload_b, fmt, alloc, mirrored_fmt=None):
    """The per-row loop construction the vectorized builder replaced."""
    from qrmirror import rscode
    from qrmirror.grid import DATA_BITS, TOTAL_BITS, data_placement_order
    from qrmirror.masks import mask_bit

    def mask_offsets(mask_id):
        return np.array([mask_bit(mask_id, cell) for cell in data_placement_order()],
                        dtype=np.uint8)

    def payload_bits(p):
        return np.array([int(ch) for ch in p.bits], dtype=np.uint8)

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
    var_names = [f"cell{i}" for i in range(TOTAL_BITS)]
    for (name, byte), base in sorted(aux_base.items(), key=lambda kv: kv[1]):
        var_names.extend(f"{name}.byte{byte:02d}.bit{j}" for j in range(8))

    rows, rhs, provenance = [], [], []
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
            provenance.append((name, "message", i))
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
                provenance.append((name, "parity", rscode.DATA_BYTES + pbyte))
    return mirror.LinearSystem(np.array(rows, dtype=np.uint8),
                               np.array(rhs, dtype=np.uint8),
                               tuple(provenance), tuple(var_names))


def test_constraint_system_matches_per_row_reference():
    import random

    rng = random.Random(31)
    symmetric = sorted(symmetric_masks())
    texts = [("", "alphanumeric"), ("HELLO", "alphanumeric"), ("0123456789", "numeric"),
             ("h i!", "byte"), ("ABCDEFGHIJKLM", "alphanumeric"), ("7", "numeric")]
    for trial in range(60):
        pa = payload(*rng.choice(texts))
        pb = payload(*rng.choice(texts))
        # data and parity bytes on both sides, 0 to 3 each
        alloc = mirror.ErrorAllocation(frozenset(rng.sample(range(26), rng.randint(0, 3))),
                                       frozenset(rng.sample(range(26), rng.randint(0, 3))))
        fmt = FormatWord("L", rng.choice(symmetric))
        kwargs = {"mirrored_fmt": FormatWord("L", rng.choice(symmetric))} if trial % 2 else {}
        got = mirror.build_constraint_system(pa, pb, fmt, alloc, **kwargs)
        want = reference_build_constraint_system(pa, pb, fmt, alloc, **kwargs)
        assert got.matrix.dtype == want.matrix.dtype == np.uint8
        assert got.rhs.dtype == want.rhs.dtype == np.uint8
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.rhs, want.rhs)
        assert got.provenance == want.provenance
        assert got.var_names == want.var_names
