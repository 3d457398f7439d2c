"""What transposition does to the code: placement, masks, format areas.

Run: python demos/02_mirror_geometry.py
"""

from qrmirror import masks
from qrmirror.grid import (
    DARK_MODULE,
    data_placement_order,
    format_positions,
    overlap_partition,
    transpose_map,
    transpose_permutation,
)

# The mirrored reading walks the same placement path on the transposed
# grid, so mirrored bit j lives in the cell of straight bit sigma[j].
sigma = transpose_permutation()
print("first placement cells:", data_placement_order()[:4])
print("sigma on the first bits:", sigma[:4].tolist())
print("=> the two middle bits of the mode indicator swap cells,")
print("   which is why 0010 reads as 0100 through the mirror.")

# Only masks that equal their own transpose survive; 5 of the 8 do.
print("\nsymmetric masks:", sorted(masks.symmetric_masks()))

# Format copies map onto themselves reversed; the one exception is the
# middle bit of copy 2, whose transposed image is the dark module.
copy1, copy2 = format_positions()
print("\ncopy 1 transposes onto itself reversed:",
      [transpose_map(p) for p in copy1] == copy1[::-1])
print("dark module:", DARK_MODULE, "-> lands on copy-2 bit index",
      copy2.index(transpose_map(DARK_MODULE)))

# The zones a..i classify each data cell by its role on both sides.
for la, lb, label in ((152, 152, "full payloads"), (41, 41, "5+5 characters")):
    part = overlap_partition(la, lb)
    sizes = {z: len(cells) for z, cells in sorted(part.zones.items())}
    print(f"\nzones at {label}: {sizes}")
    print("payload overlap:", len(part.zones["a"]),
          "| parity knot cells:", len(part.zones["i"]))
