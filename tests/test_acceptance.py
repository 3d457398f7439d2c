"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` (or the whole suite) to
see the per-criterion lines. Criterion 6 is reported rather than enforced:
the 8+11-symbol capacity was asserted in prose from a counting argument,
so the suite records what the solver actually achieves.
"""

import itertools
import json
import random
import time
from pathlib import Path

import numpy as np

from qrmirror import codec, encoder, mirror, render, rscode, verify
from qrmirror import formatinfo as fi
from qrmirror.grid import (
    data_placement_order,
    function_pattern_grid,
    overlap_partition,
    transpose_map,
)
from qrmirror.masks import mask_bit, symmetric_masks

from gf2_reference import conflicting_pins, int_system

EMPTY_ALLOCATION = mirror.ErrorAllocation(frozenset(), frozenset())
GOLDEN = Path(__file__).parent / "golden"


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_payload_bit_exactness():
    bits = "".join(map(str, codec.encode_segment("HELLO", "alphanumeric")))
    expected = "0010" + "000000101" + "01100001011" + "01111000110" + "011000"
    assert bits == expected
    assert len(bits) == 41
    report("criterion 1 PASS: HELLO encodes to the exact 41-bit string")


def test_criterion_2_flip_graph_facts():
    start = time.monotonic()
    graphs = {d: fi.build_flip_graph(d) for d in ("grid", "raw")}
    for graph in graphs.values():
        assert len(graph.nodes) == 32
        assert graph.candidate_shell_size == 14560
        assert graph.candidate_unique_size <= 14560
    a = int("100101010100001", 2)
    b = int("100001010101001", 2)
    assert fi.reverse_word(a) == b
    assert (a ^ b).bit_count() == 2
    assert a & fi.MIDDLE_BIT and b & fi.MIDDLE_BIT
    hits = [domain for domain, xor in (("grid", fi.FORMAT_XOR), ("raw", 0))
            if fi.bch_decode(a ^ xor) and fi.bch_decode(b ^ xor)]
    assert hits, "paper's witness pair found in neither domain"
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(
        f"criterion 2 PASS: 32 nodes, 14560-candidate shell, witness pair "
        f"present in domain(s) {hits} ({elapsed:.1f}s)"
    )


def test_criterion_3_symmetric_masks():
    sym = symmetric_masks()
    checked = set()
    for m in range(8):
        if all(
            mask_bit(m, (r, c)) == mask_bit(m, (c, r))
            for r in range(21)
            for c in range(21)
        ):
            checked.add(m)
    assert checked == sym
    assert len(sym) == 5
    report(f"criterion 3 PASS: exactly 5 transpose-invariant masks {sorted(sym)}")


def test_criterion_4_overlap_numbers():
    full = overlap_partition(152, 152)
    assert len(full.zones["a"]) == 100
    short = overlap_partition(41, 41)
    assert len(short.zones["a"]) == 4
    # the published numbers are for the 41-bit segments, without terminators
    system = mirror.build_constraint_system(
        codec.encode_segment("HELLO", "alphanumeric"),
        codec.encode_segment("WORLD", "alphanumeric"),
        fi.FormatWord("L", 3),
        EMPTY_ALLOCATION,
    )
    conflicts = conflicting_pins(system)
    assert len(conflicts) == 2
    order = data_placement_order()
    assert {order[v] for v in conflicts} <= short.zones["a"]
    report(
        "criterion 4 PASS: 100-cell data overlap, 4-cell payload "
        "intersection, 2 conflicting mode pins"
    )


def test_criterion_5_end_to_end_with_golden_and_external_record():
    start = time.monotonic()
    grid, construction = mirror.construct_double_sided("HARRY", "BOVIK")
    elapsed = time.monotonic() - start
    assert elapsed < 5
    a, b = verify.verify_double_sided(grid, "HARRY", "BOVIK")
    assert len(a.corrected_bytes) <= 3 and len(b.corrected_bytes) <= 3
    assert a.format_distance <= 3 and b.format_distance <= 3

    golden = (GOLDEN / "harry_bovik.pbm").read_bytes()
    assert render.to_pbm(grid, 1, 4) == golden, (
        "construction no longer matches the externally confirmed golden file"
    )
    golden_report = json.loads((GOLDEN / "harry_bovik_report.json").read_text())
    assert json.loads(construction.to_json()) == golden_report

    external = "golden file (recorded)"
    try:
        import cv2
    except ImportError:
        cv2 = None
    if cv2 is not None:
        def to_image(cells):
            img = np.pad(1 - cells, 4, constant_values=1)
            return np.kron(img, np.ones((16, 16), np.uint8)) * 255

        det = cv2.QRCodeDetector()
        straight = det.detectAndDecode(to_image(grid.cells))[0]
        mirrored = det.detectAndDecode(to_image(grid.cells.T))[0]
        assert (straight, mirrored) == ("HARRY", "BOVIK")
        external = "re-confirmed live by OpenCV"
    report(
        f"criterion 5 PASS: HARRY/BOVIK in {elapsed:.2f}s, "
        f"{len(a.corrected_bytes)}+{len(b.corrected_bytes)} corrections, "
        f"external decoder: {external}"
    )


def test_criterion_6_capacity_probe_reported():
    rng = random.Random(2024)
    outcomes = []
    for _ in range(20):
        msg8 = "".join(rng.choice(codec.ALPHANUMERIC) for _ in range(8))
        msg11 = "".join(rng.choice(codec.ALPHANUMERIC) for _ in range(11))
        try:
            _, rep = mirror.construct_double_sided(msg8, msg11,
                                                   method="analytic")
            outcomes.append((msg8, msg11, rep.allocation))
        except mirror.ConstructionError:
            outcomes.append((msg8, msg11, None))
    feasible = sum(1 for *_, alloc in outcomes if alloc is not None)
    if feasible == 0:
        # document the achieved maximum instead
        best = None
        for la, lb in ((8, 10), (8, 9), (7, 11), (7, 10), (6, 9), (5, 5)):
            msg_a = "".join(rng.choice(codec.ALPHANUMERIC) for _ in range(la))
            msg_b = "".join(rng.choice(codec.ALPHANUMERIC) for _ in range(lb))
            try:
                mirror.construct_double_sided(msg_a, msg_b, method="analytic")
                best = (la, lb)
                break
            except mirror.ConstructionError:
                continue
        report(f"criterion 6 REPORT: 8+11 infeasible for all 20 pairs; "
               f"achieved maximum in fallback probe: {best}")
    else:
        report(f"criterion 6 REPORT: 8+11 symbols feasible for "
               f"{feasible}/20 random pairs (analytic, <=3+3 allocations)")
    assert outcomes  # the probe ran; feasibility is reported, not enforced


def test_criterion_7_property_suites():
    start = time.monotonic()

    # RS encode/decode round trip under <= 3 byte errors, 1000 trials
    rng = random.Random(77)
    for _ in range(1000):
        data = bytes(rng.randrange(256) for _ in range(19))
        cw = bytearray(data + rscode.rs_encode(data))
        positions = rng.sample(range(26), rng.randrange(4))
        for p in positions:
            cw[p] ^= rng.randrange(1, 256)
        decoded, corrected = rscode.rs_decode(bytes(cw))
        assert decoded == data and corrected == frozenset(positions)

    # BCH exhaustive <= 3-bit correction: all 32 x 576 cases
    flips = [0]
    for w in range(1, 4):
        for pos in itertools.combinations(range(15), w):
            e = 0
            for p in pos:
                e |= 1 << p
            flips.append(e)
    assert len(flips) == 576
    for info in range(32):
        word = fi.bch_encode(info)
        for e in flips:
            assert fi.bch_decode(word ^ e) == (info, e.bit_count())

    # BCH minimum distance 7
    words = fi.codewords()
    assert min((x ^ y).bit_count()
               for i, x in enumerate(words) for y in words[i + 1:]) == 7

    # GF(2) solver vs exhaustive oracle, >= 500 systems of <= 20 variables
    nrng = np.random.default_rng(78)
    systems = 0
    for _ in range(500):
        n = int(nrng.integers(1, 13))
        rows = int(nrng.integers(1, n + 4))
        matrix = nrng.integers(0, 2, (rows, n), dtype=np.uint8)
        rhs = nrng.integers(0, 2, rows, dtype=np.uint8)
        sys_ = int_system(matrix, rhs)
        sol = mirror.solve_gf2(sys_)
        counts = np.arange(1 << n, dtype=np.uint32)
        bits = ((counts[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)
        ok = ((bits @ matrix.T.astype(np.int32)) % 2 == rhs).all(axis=1)
        if sol is None:
            assert not ok.any()
        else:
            assert ok.sum() == 1 << sol.free_variable_count
            assert ok[int(sum(int(v) << i for i, v in enumerate(sol.assignment)))]
        systems += 1
    for _ in range(4):  # a few at the full 20 variables
        matrix = nrng.integers(0, 2, (24, 20), dtype=np.uint8)
        rhs = nrng.integers(0, 2, 24, dtype=np.uint8)
        sys_ = int_system(matrix, rhs)
        sol = mirror.solve_gf2(sys_)
        counts = np.arange(1 << 20, dtype=np.uint32)
        bits = ((counts[:, None] >> np.arange(20, dtype=np.uint32)) & 1).astype(np.uint8)
        ok = ((bits @ matrix.T.astype(np.int32)) % 2 == rhs).all(axis=1)
        assert (sol is None) == (not ok.any())
        systems += 1
    assert systems >= 500

    # transpose involution over all cells
    for r in range(21):
        for c in range(21):
            assert transpose_map(transpose_map((r, c))) == (r, c)

    # placement bijection onto the data region
    template = function_pattern_grid()
    free = {(r, c) for r in range(21) for c in range(21)
            if not template.fixed[r, c]}
    order = data_placement_order()
    assert len(order) == 208 and set(order) == free

    # PBM round trip
    sample = encoder.encode_single("ROUND TRIP")
    for scale in (1, 3, 10):
        for quiet in (0, 4):
            assert render.parse_pbm(render.to_pbm(sample, scale, quiet)) == sample

    # single-sided encode/decode identity on 200 random messages
    for trial in range(200):
        mask = sorted(symmetric_masks())[trial % 5]
        if trial % 2:
            text = "".join(rng.choice(codec.ALPHANUMERIC)
                           for _ in range(rng.randrange(0, 19)))
            mode = "alphanumeric"
        else:
            text = "".join(chr(rng.randrange(32, 127))
                           for _ in range(rng.randrange(0, 18)))
            mode = "byte"
        assert verify.decode_grid(
            encoder.encode_single(text, mode=mode, mask_id=mask)
        ).text == text

    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(f"criterion 7 PASS: property suites green in {elapsed:.1f}s")


def test_criterion_8_determinism():
    runs = []
    for _ in range(2):
        grid, rep = mirror.construct_double_sided("HELLO", "WORLD", seed=11)
        runs.append((render.to_pbm(grid, 1, 4), rep.to_json()))
    assert runs[0] == runs[1]

    fmt = fi.select_mirror_format()
    pa, pb = codec.terminated_payload("A"), codec.terminated_payload("B")
    b1 = mirror.brute_force_search(pa, pb, fmt, trials=2000, seed=5)
    b2 = mirror.brute_force_search(pa, pb, fmt, trials=2000, seed=5)
    assert (b1.trials_run, b1.best_damage) == (b2.trials_run, b2.best_damage)
    assert type(b1.best_damage) is int  # the mirrored side's damage; the straight side's is 0
    report("criterion 8 PASS: identical seeds give byte-identical artifacts")
