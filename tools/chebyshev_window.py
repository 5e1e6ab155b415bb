"""Time the windowed Chebyshev route over candidate caps on its window length.

Run from the root of a starkprobe checkout:

    python3 tools/chebyshev_window.py [--gamma 0.02] [--repeat 3]

For each shape (L = 24, 32, 40 and h = 0.05, 0.35, 0.6, J = 1) it times
``lindblad.propagate`` from the middle site over the 100-point grid t = 1,
..., 100, every gap forced onto the Chebyshev route, once per candidate value
of ``lindblad.CHEBYSHEV_WINDOW_TERMS`` (best of ``--repeat`` runs, OpenBLAS
held at one thread as in a CLI run).  A cap of 0 makes every gap a window
of one, the route without windows of two or more gaps.  It prints one row per
shape, the times in ms and the ratio of each to the fastest cap of that
shape, then the geometric mean of those ratios per cap.  It takes about 12 s
on a 2-core Xeon, 4 s with ``--repeat 1``.  It exits with an error if
``lindblad`` no longer has the two names it sets, ``_dense_gaps`` and
``CHEBYSHEV_WINDOW_TERMS``, rather than time a route they no longer steer.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starkprobe import cli, lindblad  # noqa: E402
from starkprobe.lindblad import DensityMatrix, propagate  # noqa: E402
from starkprobe.model import LatticeSpec, middle_site, site_state  # noqa: E402

CAPS = [0, 32, 64, 96, 128, 192, 256, 384]
SHAPES = [(L, h) for L in (24, 32, 40) for h in (0.05, 0.35, 0.6)]
TIMES = np.arange(1.0, 101.0)


def best_time(rho0, spec, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        propagate(rho0, spec, TIMES)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gamma", type=float, default=0.02)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    missing = [name for name in ("_dense_gaps", "CHEBYSHEV_WINDOW_TERMS")
               if not hasattr(lindblad, name)]
    if missing:
        sys.exit(f"starkprobe.lindblad has no {' or '.join(missing)}: "
                 "this script cannot force the Chebyshev route or set its window cap")
    lindblad._dense_gaps = lambda blocks, width, uses: set()
    ratios = {cap: [] for cap in CAPS}
    print(f"gamma = {args.gamma}; ms per propagate (ratio to the best cap of the shape)")
    print("L   h     " + "".join(f"{cap:>15}" for cap in CAPS))
    with cli._single_threaded_blas():
        for L, h in SHAPES:
            spec = LatticeSpec(L, 1.0, h, args.gamma)
            rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
            times = {}
            for cap in CAPS:
                lindblad.CHEBYSHEV_WINDOW_TERMS = cap
                times[cap] = best_time(rho0, spec, args.repeat)
            fastest = min(times.values())
            for cap in CAPS:
                ratios[cap].append(times[cap] / fastest)
            print(f"{L:<3} {h:<5} " + "".join(
                f"{1e3 * times[cap]:8.1f} ({times[cap] / fastest:4.2f})" for cap in CAPS))
    print("geomean   " + "".join(
        f"{math.exp(np.mean(np.log(ratios[cap]))):15.3f}" for cap in CAPS))


if __name__ == "__main__":
    main()
