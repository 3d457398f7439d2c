"""The GF(2) solver against an exhaustive-enumeration oracle."""

import random

import numpy as np
import pytest

from qrmirror import codec, mirror, rscode
from qrmirror.formatinfo import select_mirror_format
from qrmirror.grid import overlap_partition
from qrmirror.mirror import solve_gf2

from gf2_reference import dense_form, gf2_row_reduce, int_system, overlay, reference_solve_gf2


def satisfies(solution, matrix, rhs):
    lhs = (np.asarray(matrix, np.int32) @ solution.assignment.astype(np.int32)) % 2
    return bool(np.array_equal(lhs.astype(np.uint8), np.asarray(rhs, np.uint8)))


def oracle_solutions(matrix, rhs):
    """All satisfying assignments by enumerating every vector (n <= 20)."""
    m = np.array(matrix, dtype=np.uint8)
    b = np.array(rhs, dtype=np.uint8)
    n = m.shape[1]
    counts = np.arange(1 << n, dtype=np.uint32)
    bits = ((counts[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)
    ok = ((bits @ m.T.astype(np.int32)) % 2 == b).all(axis=1)
    return bits[ok]


def test_identity_system():
    matrix, rhs = np.eye(5, dtype=np.uint8), [1, 0, 1, 1, 0]
    sol = solve_gf2(int_system(matrix, rhs))
    assert sol is not None
    assert list(sol.assignment) == [1, 0, 1, 1, 0]
    assert sol.free_variable_count == 0
    assert satisfies(sol, matrix, rhs)


def test_contradiction():
    assert solve_gf2(int_system([[1, 1], [1, 1]], [0, 1])) is None


def test_underdetermined_uses_free_values():
    sol = solve_gf2(int_system([[1, 1, 0]], [1]), free_values=np.array([0, 1, 1], dtype=np.uint8))
    assert sol is not None
    assert sol.free_variable_count == 2
    assert satisfies(sol, [[1, 1, 0]], [1])
    # the non-pivot columns hold exactly their preferred values
    for c in sol.free_columns:
        assert sol.assignment[c] == [0, 1, 1][c]


def test_rref_pivot_columns_sorted_and_unit():
    rng = np.random.default_rng(11)
    m = rng.integers(0, 2, (12, 9), dtype=np.uint8)
    a, b, pivots = gf2_row_reduce(m, rng.integers(0, 2, 12, dtype=np.uint8))
    assert pivots == sorted(pivots)
    for i, c in enumerate(pivots):
        col = a[:, c]
        assert col[i] == 1 and col.sum() == 1


@pytest.mark.parametrize("seed", range(5))
def test_solver_matches_oracle_randomized(seed):
    rng = np.random.default_rng(seed)
    for case in range(100):
        n = int(rng.integers(1, 13))
        rows = int(rng.integers(1, n + 4))
        matrix = rng.integers(0, 2, (rows, n), dtype=np.uint8)
        rhs = rng.integers(0, 2, rows, dtype=np.uint8)
        sol = solve_gf2(int_system(matrix, rhs))
        solutions = oracle_solutions(matrix, rhs)
        if sol is None:
            assert solutions.shape[0] == 0
        else:
            assert solutions.shape[0] == 1 << sol.free_variable_count
            assert any(np.array_equal(sol.assignment, s) for s in solutions)


def test_solver_matches_oracle_at_20_variables():
    rng = np.random.default_rng(99)
    for _ in range(3):
        matrix = rng.integers(0, 2, (24, 20), dtype=np.uint8)
        rhs = rng.integers(0, 2, 24, dtype=np.uint8)
        sol = solve_gf2(int_system(matrix, rhs))
        solutions = oracle_solutions(matrix, rhs)
        if sol is None:
            assert solutions.shape[0] == 0
        else:
            assert any(np.array_equal(sol.assignment, s) for s in solutions)


def test_random_fill_policy_still_satisfies():
    rng = np.random.default_rng(5)
    matrix = rng.integers(0, 2, (6, 14), dtype=np.uint8)
    rhs = (matrix.astype(np.int32) @ rng.integers(0, 2, 14).astype(np.int32)) % 2
    sys_ = int_system(matrix, rhs)
    for seed in range(5):
        sol = solve_gf2(sys_, free_values=np.random.default_rng(seed).integers(0, 2, 14))
        assert sol is not None and satisfies(sol, matrix, rhs)


def reference_gf2_row_reduce(matrix, rhs):
    """The two-array elimination the augmented one replaced."""
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


def seeded_covers(rng, lengths):
    """A seeded alphanumeric pair's payloads and the covers of its forced
    cells."""
    fmt = select_mirror_format()
    pa, pb = (codec.terminated_payload("".join(rng.choice(codec.ALPHANUMERIC) for _ in range(n)))
              for n in lengths)
    g = overlay(pa, pb, fmt.straight, fmt.mirrored)
    covers = mirror.enumerate_error_allocations(
        overlap_partition(pa.size, pb.size), mirror._admission(pa.size, pb.size, g)[1])
    return pa, pb, list(covers)


def constraint_system(pa, pb, alloc):
    fmt = select_mirror_format()
    return mirror.build_constraint_system(pa, pb, fmt.straight, alloc, mirrored_fmt=fmt.mirrored)


def seeded_constraint_systems(count, seed=9, lengths=(9, 12)):
    """Systems of seeded alphanumeric pairs under their first covers."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        pa, pb, covers = seeded_covers(rng, lengths)
        systems += [constraint_system(pa, pb, alloc) for alloc in covers[:3]]
    return systems


def later_cover_systems(pairs=6, seed=10):
    """Systems of seeded 9+12 pairs under the first and the last cover past
    the first three that gives both sides aux columns and allocates a
    parity byte, and of two 13+13 pairs with covers under each cover."""
    rng = random.Random(seed)
    systems = []
    for _ in range(pairs):
        pa, pb, covers = seeded_covers(rng, (9, 12))
        deep = [alloc for alloc in covers[3:]
                if min(alloc.side_a_bytes, default=26) < rscode.DATA_BYTES
                and min(alloc.side_b_bytes, default=26) < rscode.DATA_BYTES
                and max(alloc.side_a_bytes | alloc.side_b_bytes) >= rscode.DATA_BYTES]
        systems += [constraint_system(pa, pb, alloc) for alloc in (deep[0], deep[-1])]
    with_covers = 0
    while with_covers < 2:
        pa, pb, covers = seeded_covers(rng, (13, 13))
        with_covers += bool(covers)
        systems += [constraint_system(pa, pb, alloc) for alloc in covers]
    return systems


def test_row_reduce_matches_two_array_reference():
    rng = np.random.default_rng(31)
    systems = []
    for _ in range(300):
        rows, cols = (int(n) for n in rng.integers(1, 40, 2))
        density = rng.uniform(0.05, 0.95)
        systems.append(((rng.random((rows, cols)) < density).astype(np.uint8),
                        rng.integers(0, 2, rows, dtype=np.uint8)))
    systems += [dense_form(system) for system in seeded_constraint_systems(24)]
    feasible = 0
    for matrix, rhs in systems:
        before = matrix.copy(), rhs.copy()
        a, b, pivots = gf2_row_reduce(matrix, rhs)
        ra, rb, rpivots = reference_gf2_row_reduce(matrix, rhs)
        assert pivots == rpivots
        assert a.dtype == b.dtype == np.uint8
        assert np.array_equal(a, ra) and np.array_equal(b, rb)
        assert np.array_equal(matrix, before[0]) and np.array_equal(rhs, before[1])
        feasible += not rb[len(rpivots):].any()
    assert 0 < feasible < len(systems)


def test_solver_matches_dense_reference():
    rng = np.random.default_rng(37)
    systems = []
    for _ in range(360):
        rows, cols = (int(n) for n in rng.integers(1, 48, 2))
        matrix = (rng.random((rows, cols)) < rng.uniform(0.02, 0.95)).astype(np.uint8)
        rhs = rng.integers(0, 2, rows, dtype=np.uint8)
        # unit rows, consistent duplicate pins, conflicting pins, 0 = 1 rows
        for _ in range(int(rng.integers(0, cols + 1))):
            matrix[int(rng.integers(rows))] = np.eye(cols, dtype=np.uint8)[rng.integers(cols)]
        if rng.random() < 0.3:
            pins = np.flatnonzero(matrix.sum(axis=1) == 1)
            if pins.size:
                i = int(rng.choice(pins))
                flip = int(rng.random() < 0.5)
                matrix = np.vstack([matrix, matrix[i]])
                rhs = np.append(rhs, rhs[i] ^ flip)
        if rng.random() < 0.1:
            matrix = np.vstack([matrix, np.zeros(cols, dtype=np.uint8)])
            rhs = np.append(rhs, np.uint8(1))
        systems.append((int_system(matrix, rhs), matrix, rhs))
    # built systems against the dense reference on their dense form
    built = seeded_constraint_systems(24)
    built += seeded_constraint_systems(12, seed=3, lengths=(3, 5))
    built += seeded_constraint_systems(12, seed=4, lengths=(6, 2))
    built += later_cover_systems()
    systems += [(system, *dense_form(system)) for system in built]
    feasible = 0
    for system, matrix, rhs in systems:
        fills = rng.integers(0, 2, matrix.shape[1], dtype=np.uint8)
        wide_fills = rng.integers(0, 2, matrix.shape[1])  # int64, as rng.integers gives
        for kwargs in ({}, {"free_values": fills}, {"free_values": wide_fills}):
            got = solve_gf2(system, **kwargs)
            want = reference_solve_gf2(matrix, rhs, **kwargs)
            assert (got is None) == (want is None)
            if want is None:
                continue
            assert got.assignment.dtype == np.uint8
            assert np.array_equal(got.assignment, want.assignment)
            assert got.free_columns == want.free_columns
            assert matrix.shape[1] - got.free_variable_count == want.rank
        feasible += want is not None
    assert 0 < feasible < len(systems)
