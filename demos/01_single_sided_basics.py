"""A plain Version 1-L code from scratch: payload bits, parity, masking.

Run: python demos/01_single_sided_basics.py
"""

import numpy as np

from qrmirror import codec, encoder, render, rscode, verify

# A payload is mode indicator + length + characters. Alphanumeric packs
# two characters into eleven bits.
print("mode:", codec.pick_mode("HELLO"))
bits = codec.encode_segment("HELLO")
print(f"declared bits ({len(bits)}):", "".join(map(str, bits)))

# Padding fills the 152-bit data area: terminator, byte alignment, then
# the alternating fill bytes 11101100 / 00010001.
data = np.packbits(codec.assemble_payload("HELLO")).tobytes()
print("data bytes:", data.hex(" "))

# Seven Reed-Solomon parity bytes protect the block; any 3 bytes can fail.
parity = rscode.rs_encode(data)
print("parity bytes:", parity.hex(" "))
print("syndromes (all zero):", rscode.syndromes(data + parity))

# Mask, place, add the format word, and render.
grid = encoder.encode_single("HELLO", mask_id=0)
print(render.to_ascii(grid))

report = verify.decode_grid(grid)
print("decoded:", report)
