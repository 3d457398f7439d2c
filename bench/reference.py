"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same Python code runs up to about 1.7 times slower
when neighbours are busy, in phases from milliseconds to minutes. The
benchmark runs ``reference()`` between operations, for a fixed share of the
measured time, and scales the operations' times by how much slower than
``NOMINAL_S`` the reference ran. The scaled times read as on an uncontended
core and no longer carry the host's drift.

The reference is the benchmark's own code and never calls the program, so a
change to the program moves the scaled times fully. It mixes the two kinds
of work the program does: small numpy row operations over GF(2) (as in the
constraint solver) and pure-Python combinations, frozensets and set lookups
(as in the allocation search and the readers).
"""

import itertools
import random
import statistics
import time

import numpy as np

# seconds one reference() call takes on an uncontended core of a 2.1 GHz
# Xeon vCPU (Python 3.11, numpy 2.4): the fastest calls seen there; the
# median there is about 1.2 ms
NOMINAL_S = 0.7e-3

_rng = random.Random(20190215)
_MATRIX = np.array([[_rng.getrandbits(1) for _ in range(96)] for _ in range(48)], dtype=np.uint8)
_ITEMS = tuple(range(14))
_PINNED = frozenset(_rng.sample(range(14), 5))


def _row_reduce(matrix):
    a = matrix.copy()
    rows, cols = a.shape
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
        sel = a[:, c].astype(bool)
        sel[r] = False
        if sel.any():
            a[sel] ^= a[r]
        r += 1
    return r


def _filter_subsets():
    kept = 0
    for k in (2, 3):
        for combo in itertools.combinations(_ITEMS, k):
            chosen = frozenset(combo)
            if not chosen & _PINNED:
                kept += len(chosen)
    return kept


def reference():
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    return _row_reduce(_MATRIX) + _filter_subsets()


class Speedometer:
    """Runs the reference for a share of the time spent elsewhere.

    ``after(busy)`` is called with the seconds an operation just took. It
    runs reference() until the reference's own time reaches ``share`` of
    all operation time so far, then appends to ``slowdowns`` the latest
    calls' mean time over NOMINAL_S. An operation shorter than a call often
    runs none and shares the slowdown of the calls after an earlier one.
    """

    def __init__(self, share):
        self.share = share
        self.owed = 0.0
        self.samples = []
        self.slowdowns = []
        self._latest = None

    def after(self, busy):
        self.owed += busy * self.share
        first = len(self.samples)
        while self.owed > 0 or not self.samples:
            t0 = time.perf_counter()
            reference()
            spent = time.perf_counter() - t0
            self.owed -= spent
            self.samples.append(spent)
        if len(self.samples) > first:
            self._latest = statistics.fmean(self.samples[first:]) / NOMINAL_S
        self.slowdowns.append(self._latest)

    def mean_slowdown(self):
        return statistics.fmean(self.samples) / NOMINAL_S
