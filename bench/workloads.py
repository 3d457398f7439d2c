"""The benchmark's workloads: inputs, the timed operation, and its check.

A workload yields an endless seeded stream of items. The runner times
``op(item)`` alone; ``check(item, outcome)`` runs afterwards, outside the
timed interval and with tracing paused, and returns whether the outcome is
correct and whether it was a constructed code.

The program is reached through module attributes (``qr.mirror.X``) so that
the tracer's wrappers see every call.
"""

import itertools
from pathlib import Path

import inputs

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN_PAIR = ("HARRY", "BOVIK")
MAX_CORRECTED = 3
SCAN_POOL = 160


class PairWorkload:
    """Closed-loop constructions of double-sided codes."""

    def __init__(self, qr, method):
        self.qr = qr
        self.method = method

    def prepare(self, seed):
        pass

    def op(self, item):
        _, msg_a, msg_b = item
        return self.qr.mirror.construct_double_sided(msg_a, msg_b, method=self.method)

    def check(self, item, outcome):
        """(correct, constructed) for one pair's outcome."""
        _, msg_a, msg_b = item
        if isinstance(outcome, BaseException):
            infeasible = (self.method == "analytic"
                          and isinstance(outcome, self.qr.mirror.ConstructionError)
                          and outcome.stage == "system infeasible")
            return infeasible, False
        grid, report = outcome
        try:
            reports = self.qr.verify.verify_double_sided(grid, msg_a, msg_b)
        except self.qr.verify.MirrorMismatch:
            return False, True
        if any(len(rep.corrected_bytes) > MAX_CORRECTED for rep in reports):
            return False, True
        if (msg_a, msg_b) == GOLDEN_PAIR:
            return self._matches_golden(grid, report), True
        return True, True

    def _matches_golden(self, grid, report):
        pbm = (GOLDEN_DIR / "harry_bovik.pbm").read_bytes()
        report_json = (GOLDEN_DIR / "harry_bovik_report.json").read_bytes()
        return (self.qr.render.to_pbm(grid, 1, 4) == pbm
                and (report.to_json() + "\n").encode() == report_json)


class ShortPairs(PairWorkload):
    """HARRY/BOVIK, then short pairs cycling alnum, numeric, byte-vs-alnum."""

    def __init__(self, qr):
        super().__init__(qr, "auto")

    def items(self, seed):
        rng = inputs.new_rng(seed, "short-pairs")
        yield ("golden",) + GOLDEN_PAIR
        for index in itertools.count():
            yield inputs.short_pair(rng, index)


class CapacityPairs(PairWorkload):
    """9+12 alphanumeric pairs: tens of systems built and eliminated each."""

    def __init__(self, qr):
        super().__init__(qr, "analytic")

    def items(self, seed):
        rng = inputs.new_rng(seed, "capacity-pairs")
        while True:
            yield inputs.alnum_pair(rng, *inputs.CAPACITY_LENGTHS)


class InfeasiblePairs(PairWorkload):
    """13+13 alphanumeric pairs; pin conflicts rule out nearly every allocation."""

    def __init__(self, qr):
        super().__init__(qr, "analytic")

    def items(self, seed):
        rng = inputs.new_rng(seed, "infeasible-pairs")
        while True:
            yield inputs.alnum_pair(rng, *inputs.INFEASIBLE_LENGTHS)


class DecodeScans:
    """PBM scans of double-sided and damaged single-sided codes.

    The pool is built in prepare(), untimed; items cycle through it. Even
    slots hold double-sided codes, odd slots single-sided ones with 0-3
    corrupted codeword bytes. Scale, quiet zone and the presence of the
    ``# qrmirror`` metadata line (without it the reader infers scale and
    quiet zone) follow a fixed balanced design, so that image sizes, which
    set most of the parse cost, do not vary with the seed.
    """

    def __init__(self, qr):
        self.qr = qr
        self.pool = []

    def prepare(self, seed):
        rng = inputs.new_rng(seed, "decode-scans")
        qr = self.qr
        for slot in range(SCAN_POOL):
            if slot % 2 == 0:
                _, msg_a, msg_b = inputs.short_pair(rng, slot // 2)
                grid, report = qr.mirror.construct_double_sided(msg_a, msg_b)
                expect = ("double", msg_a, msg_b,
                          (report.side_a_corrections, report.side_b_corrections))
            else:
                mode, text = inputs.single_message(rng)
                grid = qr.encoder.encode_single(text, mode, rng.randrange(8))
                damaged = frozenset(rng.sample(range(26), rng.randint(0, 3)))
                _corrupt(qr, grid, damaged, rng)
                expect = ("single", text, mode, damaged)
            # each of the 20 (scale, quiet) shapes twice per kind with and
            # twice without metadata
            shape = slot // 2
            pbm = qr.render.to_pbm(grid, 1 + shape % 4, (shape // 4) % 5)
            if (shape // 20) % 2:
                pbm = _drop_metadata(pbm)
            self.pool.append((pbm, expect))

    def items(self, seed):
        return itertools.cycle(self.pool)

    def op(self, item):
        pbm, expect = item
        grid = self.qr.render.parse_pbm(pbm)
        if expect[0] == "double":
            return self.qr.verify.verify_double_sided(grid, expect[1], expect[2])
        return (self.qr.verify.decode_grid(grid, "straight"),)

    def check(self, item, outcome):
        if isinstance(outcome, BaseException):
            return False, False
        kind, first, second, damage = item[1]
        if kind == "double":
            corrected = tuple(len(rep.corrected_bytes) for rep in outcome)
            return corrected == damage, False
        (rep,) = outcome
        return (rep.text, rep.mode, rep.corrected_bytes) == (first, second, damage), False


def _corrupt(qr, grid, damaged, rng):
    """Flip a random nonzero pattern of bits in each damaged codeword byte."""
    order = qr.grid.data_placement_order()
    for byte in damaged:
        pattern = rng.randrange(1, 256)
        for bit in range(8):
            if pattern >> (7 - bit) & 1:
                grid.cells[order[byte * 8 + bit]] ^= 1


def _drop_metadata(pbm):
    return b"".join(line for line in pbm.splitlines(keepends=True)
                    if not line.startswith(b"# qrmirror"))


WORKLOADS = {
    "short-pairs": ShortPairs,
    "capacity-pairs": CapacityPairs,
    "infeasible-pairs": InfeasiblePairs,
    "decode-scans": DecodeScans,
}
