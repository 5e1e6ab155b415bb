"""Time the constants of the Lindblad route choice and the Chebyshev window cap.

Run from the root of a starkprobe checkout:

    python3 tools/chebyshev_window.py [--gamma 0.02] [--repeat 3]

First it times one term of the route's recurrence, the cost the route choice
prices as ``lindblad.TERM_S + lindblad.NNZ_S * nnz``.  At L = 8, 16, 24, 32,
40 and 60 (h = 0.35, J = 1) it advances a random state by one gap of width
z = rho g = 2000 through ``lindblad._chebyshev_route``, its coefficients
computed beforehand, and divides the best of ``--repeat`` runs by the s K
terms the cost model predicts for that gap.  It prints the time per term
against nnz, the nonzeros of both mirror sectors, and the least-squares line
through them, TERM_S and NNZ_S.

Then it times the products the dense route's price rests on.  For each
mirror sector of L = 16, 24 and 32 (h = 0.35, J = 1; n = 120-528) it takes
the dense sector block, scaled to ||A||_1 = 1.5 THETA_13, where the step
rule's s is 1, and times one square real product A @ A, one dense
matrix-vector product (a run of DENSE_MATVECS, divided) and one ``expm`` of
A, each the best of ``--repeat`` runs.  It prints them per n, with the
least-squares lines through the origin of the product times against n^3,
N3_S, and of the matrix-vector times against n^2, N2_S, and the cost of the
``expm`` in square products, which the price takes as PADE_PRODUCTS + 1,
each next to the module's value.

Then, for each shape (L = 24, 32, 40 and h = 0.05, 0.35, 0.6, J = 1), it
times ``lindblad.propagate`` from the middle site over the 100-point grid t =
1, ..., 100, every gap forced onto the Chebyshev route, once per candidate
value of ``lindblad.CHEBYSHEV_WINDOW_TERMS`` (best of ``--repeat`` runs).  A
cap of 0 makes every gap a window of one, the route without windows of two
or more gaps.  It prints one row per shape, the times in ms and the ratio of
each to the fastest cap of that shape, then the geometric mean of those
ratios per cap.

Last, with the cap back at its value, it checks the route choice.  For each
shape of a fixed table it records the route that ``lindblad._dense_wins``
picks for the whole ``propagate``, times ``propagate`` with that function
patched to force each route (best of ``--repeat`` runs, the two routes
taking turns), and prints the pick, both times in ms and the pick's time
over the better one.  The table holds shapes whose gaps a choice per gap
would split between the routes, 100-point grids at L = 12-24, t = 100 at L =
6-24, where the small sizes split the gap into 2^j applications of one
``expm``, and t = 1000 at L = 16, 24 and 32.

OpenBLAS is held at one thread throughout, as in a CLI run.  The script
takes about 13 s on a 2-core Xeon, 6-7 s with ``--repeat 1``.  It exits with
an error if ``lindblad`` no longer has the two names it sets,
``_dense_wins`` and ``CHEBYSHEV_WINDOW_TERMS``, rather than time a route
they no longer steer.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg as sla

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starkprobe import cli, lindblad  # noqa: E402
from starkprobe.lindblad import DensityMatrix, propagate  # noqa: E402
from starkprobe.model import LatticeSpec, middle_site, site_state  # noqa: E402

CAPS = [0, 32, 64, 96, 128, 192, 256, 384]
SHAPES = [(L, h) for L in (24, 32, 40) for h in (0.05, 0.35, 0.6)]
TIMES = np.arange(1.0, 101.0)
TERM_SIZES = (8, 16, 24, 32, 40, 60)
TERM_WIDTH = 2000.0
DENSE_SIZES = (16, 24, 32)
DENSE_MATVECS = 100
# (L, h, gamma, times) of the route-choice table; gamma None is --gamma.
# The first four are the traj-validate oracle and three small shapes whose
# gaps a choice per gap would split between the routes.
ROUTE_SHAPES = [
    (10, 0.05, 0.02, [10.0, 25.0, 50.0]),
    (8, 0.2, 0.0, [1.0, 3.0, 7.0]),
    (8, 0.3, 0.1, [0.0, 0.3, 2.0, 2.1, 9.5]),
    (8, 2.0, 0.1, [0.0, 0.3, 2.0, 2.1, 9.5, 60.0]),
    *[(L, 0.35, None, TIMES) for L in (12, 16, 20, 24)],
    *[(L, 0.35, None, [100.0]) for L in (6, 8, 12, 16, 20, 24)],
    (16, 0.35, None, [1000.0]),
    (24, 0.35, None, [1000.0]),
    (32, 0.8, None, [1000.0]),
]


def best_time(run, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def term_loop(L: int, gamma: float):
    """(nnz, predicted terms, one run) of the route at L over one lone gap."""
    spec = LatticeSpec(L, 1.0, 0.35, gamma)
    _, _, blocks = lindblad._sectors(spec)
    width = lindblad._width(spec)
    diagonal = np.concatenate([block.diagonal() for block in blocks])
    _, rho, eta = lindblad._chebyshev_shape(diagonal, width)
    gap = TERM_WIDTH / rho
    s, z = lindblad._chebyshev_plan(rho, eta, gap)
    advance = lindblad._chebyshev_route(blocks, width)
    x = np.random.default_rng(L).standard_normal(diagonal.size)
    out = np.empty((1, x.size))
    advance(x, [gap], out)  # computes the coefficients once
    return (sum(block.nnz for block in blocks), s * lindblad._term_count(z, eta),
            lambda: advance(x, [gap], out))


def term_times(gamma: float, repeat: int) -> list[tuple[int, float]]:
    """(nnz, seconds per predicted term) at each of TERM_SIZES.

    The sizes take turns within each of the ``repeat`` rounds, so that a
    slow spell of the machine does not fall on one size alone.
    """
    loops = [term_loop(L, gamma) for L in TERM_SIZES]
    best = [math.inf] * len(loops)
    for _ in range(repeat):
        for i, (_, terms, run) in enumerate(loops):
            best[i] = min(best[i], best_time(run, 1) / terms)
    return [(nnz, seconds) for (nnz, _, _), seconds in zip(loops, best)]


def dense_times(gamma: float, repeat: int) -> list[tuple[int, float, float, float]]:
    """(n, seconds per square product, matrix-vector product and expm) per sector of DENSE_SIZES."""
    out = []
    for L in DENSE_SIZES:
        _, _, blocks = lindblad._sectors(LatticeSpec(L, 1.0, 0.35, gamma))
        for block in blocks:
            A = block.toarray() * (1.5 * lindblad.THETA_13 / lindblad._norm1(block))
            x = np.random.default_rng(L).standard_normal(len(A))

            def matvecs():
                for _ in range(DENSE_MATVECS):
                    A @ x

            out.append((len(A), best_time(lambda: A @ A, repeat),
                        best_time(matvecs, repeat) / DENSE_MATVECS,
                        best_time(lambda: sla.expm(A), repeat)))
    return out


def through_origin(x: np.ndarray, y: np.ndarray) -> float:
    """The slope c of the least-squares line y = c x."""
    return float(x @ y / (x @ x))


def route_times(dense_wins, gamma: float, repeat: int):
    """(shape, pick, {route: seconds}) for each of ROUTE_SHAPES."""
    for L, h, shape_gamma, times in ROUTE_SHAPES:
        spec = LatticeSpec(L, 1.0, h, gamma if shape_gamma is None else shape_gamma)
        rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
        picks = []
        lindblad._dense_wins = lambda *args: picks.append(dense_wins(*args)) or picks[-1]
        propagate(rho0, spec, times)
        best = {"dense": math.inf, "chebyshev": math.inf}
        for _ in range(repeat):
            for route in best:
                lindblad._dense_wins = lambda *args, dense=route == "dense": dense
                best[route] = min(best[route], best_time(lambda: propagate(rho0, spec, times), 1))
        yield (L, h, spec.gamma, times), "dense" if picks[0] else "chebyshev", best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gamma", type=float, default=0.02)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    missing = [name for name in ("_dense_wins", "CHEBYSHEV_WINDOW_TERMS")
               if not hasattr(lindblad, name)]
    if missing:
        sys.exit(f"starkprobe.lindblad has no {' or '.join(missing)}: "
                 "this script cannot force the Chebyshev route or set its window cap")
    with cli._single_threaded_blas():
        print(f"gamma = {args.gamma}; one term of the recurrence, z = {TERM_WIDTH:g} per gap")
        print("L    nnz     us per term")
        fit = term_times(args.gamma, args.repeat)
        for L, (nnz, seconds) in zip(TERM_SIZES, fit):
            print(f"{L:<4} {nnz:<7} {1e6 * seconds:.2f}")
        slope, intercept = np.polyfit(*np.array(fit).T, 1)
        print(f"least squares: TERM_S = {intercept:.3g}, NNZ_S = {slope:.3g} "
              f"(now {lindblad.TERM_S:.3g} and {lindblad.NNZ_S:.3g})")
        print()

        print(f"gamma = {args.gamma}; dense products of the mirror sectors at L = "
              f"{', '.join(map(str, DENSE_SIZES))}, ||A||_1 = 1.5 THETA_13")
        print("n    product us  matvec us   expm us  expm/product")
        n, square, matvec, expm = np.array(dense_times(args.gamma, args.repeat)).T
        for size, product, vector, exponential in zip(n, square, matvec, expm):
            print(f"{size:<4.0f} {1e6 * product:10.1f} {1e6 * vector:10.2f} "
                  f"{1e6 * exponential:9.0f} {exponential / product:13.1f}")
        n3, n2 = through_origin(n ** 3, square), through_origin(n ** 2, matvec)
        print(f"least squares: N3_S = {n3:.3g}, N2_S = {n2:.3g}, expm = "
              f"{through_origin(square, expm):.3g} products (now {lindblad.N3_S:.3g}, "
              f"{lindblad.N2_S:.3g} and PADE_PRODUCTS + 1 = {lindblad.PADE_PRODUCTS + 1})")
        print()

        dense_wins, window_terms = lindblad._dense_wins, lindblad.CHEBYSHEV_WINDOW_TERMS
        lindblad._dense_wins = lambda blocks, width, uses: False
        ratios = {cap: [] for cap in CAPS}
        print(f"gamma = {args.gamma}; ms per propagate (ratio to the best cap of the shape)")
        print("L   h     " + "".join(f"{cap:>15}" for cap in CAPS))
        for L, h in SHAPES:
            spec = LatticeSpec(L, 1.0, h, args.gamma)
            rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
            times = {}
            for cap in CAPS:
                lindblad.CHEBYSHEV_WINDOW_TERMS = cap
                times[cap] = best_time(lambda: propagate(rho0, spec, TIMES), args.repeat)
            fastest = min(times.values())
            for cap in CAPS:
                ratios[cap].append(times[cap] / fastest)
            print(f"{L:<3} {h:<5} " + "".join(
                f"{1e3 * times[cap]:8.1f} ({times[cap] / fastest:4.2f})" for cap in CAPS))
        print("geomean   " + "".join(
            f"{math.exp(np.mean(np.log(ratios[cap]))):15.3f}" for cap in CAPS))
        print()

        lindblad.CHEBYSHEV_WINDOW_TERMS = window_terms
        print(f"gamma = {args.gamma} unless given; ms per propagate by each forced route "
              "and the model's pick")
        print(f"{'L   h     gamma  times':<41} pick          dense  chebyshev  pick/best")
        for (L, h, gamma, times), pick, best in route_times(dense_wins, args.gamma, args.repeat):
            label = (f"{len(times)}-point grid" if len(times) > 10
                     else ", ".join(f"{t:g}" for t in times))
            print(f"{L:<3} {h:<5} {gamma:<6} {label:<24} {pick:<9} {1e3 * best['dense']:10.1f} "
                  f"{1e3 * best['chebyshev']:10.1f} {best[pick] / min(best.values()):10.2f}")


if __name__ == "__main__":
    main()
