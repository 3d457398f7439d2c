"""How far the analytic method stretches: allocations and message length,
and the randomized baseline beside it.

Run: python demos/05_capacity_and_allocations.py
"""

from qrmirror import mirror

# The error allocation decides which codeword bytes each side's decoder
# will have to repair. The enumerator tries small allocations first.
cases = [
    ("12345", "67890"),        # numeric: mode indicator survives the mirror
    ("HELLO", "HELLO"),        # alphanumeric: 2-bit mode conflict
    ("HELLO", "WORLD"),
    ("ABCDEFGH", "IJKLMNOPQRS"),    # the 8+11 target
    ("ABCDEFGHI", "JKLMNOPQRSTU"),  # beyond it
    ("ABCDEFGHIJ", "KLMNOPQRSTUV"),  # infeasible among the offered allocations
]
rows = [(a, b, f"{len(a)}+{len(b)} {a}/{b}") for a, b in cases]
# full length: its forced cells leave no cover
rows.append(("0" * 41, "0" * 41, '41+41 "0"*41/"0"*41'))
width = max(len(label) for _, _, label in rows)
print(f"{'pair':{width}} result     allocation               corrections")
for a, b, label in rows:
    try:
        _, rep = mirror.construct_double_sided(a, b, method="analytic")
        alloc = rep.allocation
        print(f"{label:{width}} OK         A={alloc['side_a']!s:9} B={alloc['side_b']!s:9}"
              f"  {rep.side_a_corrections}+{rep.side_b_corrections}"
              f"  (free bits left: {rep.free_vars})")
    except mirror.ConstructionError as exc:
        print(f"{label:{width}} infeasible ({exc})")

# A forced cell is one both sides fix to different values where no
# undeclared bit reaches: a pin conflict, or near full length a parity
# cell. Every allocation must release each one, so the all-zero pair is
# refused in milliseconds, naming the byte pairs no 3+3 allocation covers.
# The enumerator offers only conflict-zone bytes; at 3 bytes per side a
# byte outside them can solve (tests/test_mirror.py::
# test_allocation_outside_the_candidates_can_solve builds this pair).
print("\n'infeasible' holds only among the conflict-zone allocations offered;")
print("ABCDEFGHIJ/KLMNOPQRSTUV solves with A {0, 5, 6}, B {2, 6, 25}.")

# The paper's other method, the randomized baseline, on the shortest pair:
# 2,000 random free fills leave the mirrored side well past the 3-byte
# correction budget, while the analytic method solves the pair outright.
print("\nthe two methods on A/B:")
for method in ("analytic", "brute"):
    try:
        _, rep = mirror.construct_double_sided("A", "B", method=method, trials=2000)
        print(f"  {method:8} OK       {rep.side_a_corrections}+{rep.side_b_corrections} corrections")
    except mirror.ConstructionError as exc:
        print(f"  {method:8} failed   ({exc})")
