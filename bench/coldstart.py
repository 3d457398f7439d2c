"""Cold start of the program: import qrmirror and fill its lazy caches.

Run as a script in a fresh interpreter, it prints the seconds that took
and the slowdown of the reference run right after (see reference.py); the
benchmark starts it several times and reports the median of their ratio as
setup_s.

    python3 bench/coldstart.py <directory holding the qrmirror package>
"""

import sys
import time


def fill_caches(formatinfo, grid, masks, rscode):
    """Call every lazily cached public function once."""
    formatinfo.select_mirror_format()
    formatinfo.codewords()
    rscode.parity_matrix()
    grid.function_pattern_grid()
    grid.transpose_permutation()
    masks.symmetric_masks()
    for mask_id in range(8):
        masks.mask_matrix(mask_id)


def main(src):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from qrmirror import formatinfo, grid, masks, rscode

    fill_caches(formatinfo, grid, masks, rscode)
    seconds = time.perf_counter() - t0
    from reference import Speedometer

    speedometer = Speedometer(share=1.0)
    speedometer.after(seconds)
    print(repr(seconds), repr(speedometer.slowdowns[-1]))


if __name__ == "__main__":
    main(sys.argv[1])
