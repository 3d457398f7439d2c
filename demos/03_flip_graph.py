"""The control-code flip graph and the witness the construction uses.

Run: python demos/03_flip_graph.py [out.dot]
"""

import sys

from qrmirror import formatinfo as fi

# 32 valid format codes; an edge means one 15-bit string decodes validly
# both straight and reversed. The on-grid domain (after the published XOR
# pattern) is what scanners actually see.
graph = fi.build_flip_graph("grid")
print("nodes:", len(graph.nodes))
print("directed edge entries:", len(graph.edges))
print("self-loops:", sum(1 for a, b in graph.edges if a == b))

sel = fi.select_mirror_format()
print("\nchosen witness:", sel.witness_bits)
print("  palindrome:", sel.witness_bits == sel.witness_bits[::-1])
print("  straight decode:", sel.straight, "at distance", sel.distance_straight)
print("  mirrored decode:", sel.mirrored, "at distance", sel.distance_mirrored)
print("  middle bit dark, so the dark-module collision costs nothing")

# The pair highlighted in the write-up exists as a witness too, but its
# decode is the M-level mask-7 code, so the selection prefers the L-level
# palindrome above.
a = int("100101010100001", 2)
info, dist = fi.bch_decode(a ^ fi.FORMAT_XOR)
print("\nwrite-up pair 100101010100001:",
      fi.FormatWord.from_info(info), "at distance", dist)

if len(sys.argv) > 1:
    with open(sys.argv[1], "w") as fh:
        fh.write(fi.flip_graph_dot(graph))
    print("\nDOT graph written to", sys.argv[1])
