"""A standing fingerprint of the construction's outputs.

One SHA-256 over the grids and report JSON of seeded constructions, and
over the stage and message of each one that fails (every "among N"
count included). A change that claims byte-identical outputs keeps it;
a change that moves an output on purpose recomputes it and says why.
"""

import hashlib
import random

from qrmirror import codec, mirror

ALNUM = codec.ALPHANUMERIC
DIGITS = "0123456789"
LOWER = "abcdefghijklmnopqrstuvwxyz"

FINGERPRINT = "134429f2855d32df066d404413bdbc102d0a76e09ff2aea53645a65db85c181b"


def fingerprint_pairs():
    """The golden pair, then seeded pairs of every class the benchmark and
    the capacity edge exercise, then the all-zero 41-digit pair."""
    rng = random.Random(2019)

    def text(alphabet, low, high):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, high)))

    pairs = [("HARRY", "BOVIK")]
    pairs += [(text(ALNUM, 1, 6), text(ALNUM, 1, 6)) for _ in range(12)]
    pairs += [(text(DIGITS, 1, 9), text(DIGITS, 1, 9)) for _ in range(10)]
    pairs += [(text(LOWER, 1, 6), text(ALNUM, 1, 6)) for _ in range(8)]
    for length_a, length_b, count in ((8, 11, 8), (9, 12, 14), (13, 13, 8)):
        pairs += [(text(ALNUM, length_a, length_a), text(ALNUM, length_b, length_b))
                  for _ in range(count)]
    pairs.append(("0" * 41, "0" * 41))
    return pairs


def construction_fingerprint(pairs):
    """(SHA-256 hex digest, outcome kinds) over the constructions of pairs."""
    digest = hashlib.sha256()
    kinds = set()
    for msg_a, msg_b in pairs:
        try:
            grid, report = mirror.construct_double_sided(msg_a, msg_b)
        except mirror.ConstructionError as exc:
            digest.update(f"{exc.stage}\n{exc}\n".encode())
            kinds.add("among N" if "among" in str(exc) else exc.stage)
        else:
            digest.update(grid.cells.tobytes() + report.to_json().encode() + b"\n")
            kinds.add("solved")
    return digest.hexdigest(), kinds


def test_construction_outputs_keep_their_fingerprint():
    pairs = fingerprint_pairs()
    assert len(pairs) == 62
    digest, kinds = construction_fingerprint(pairs)
    assert kinds == {"solved", "among N", "system infeasible"}
    assert digest == FINGERPRINT
