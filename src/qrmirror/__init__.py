"""Double-sided QR Version 1-L codes.

A 21x21 code that carries one message read normally and another read
mirrored, built from a both-ways-decodable control code and a GF(2) linear
system over the shared data cells; a randomized search is kept as the
baseline it replaces.
"""

from .codec import CodecError, Payload, Segment, assemble_payload, parse_payload
from .encoder import encode_single
from .formatinfo import FormatWord, build_flip_graph, select_mirror_format
from .grid import ModuleGrid, function_pattern_grid, overlap_partition, transpose_map
from .masks import mask_bit, symmetric_masks
from .mirror import (
    ConstructionError,
    ErrorAllocation,
    brute_force_search,
    build_constraint_system,
    construct_double_sided,
    enumerate_error_allocations,
    solve_gf2,
)
from .render import parse_pbm, to_ascii, to_pbm, to_svg
from .rscode import rs_decode, rs_encode
from .verify import DecodeError, DecodeReport, decode_grid, verify_double_sided

__version__ = "0.1.0"
