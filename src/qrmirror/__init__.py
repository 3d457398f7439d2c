"""Double-sided QR Version 1-L codes.

A 21x21 code that carries one message read normally and another read
mirrored, built from a both-ways-decodable control code and a GF(2) linear
system over the shared data cells; a randomized search is kept as the
baseline it replaces.
"""

from . import codec, encoder, formatinfo, grid, masks, mirror, render, rscode, verify

__version__ = "0.1.0"
