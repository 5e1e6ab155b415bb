"""Seeded workloads of the starkprobe benchmark.

Each workload is a list of experiment configs for
``starkprobe.cli.run_from_config``.  The seed only draws field values inside
fixed bands (and the trajectory RNG seed); sizes, grids and thread counts are
fixed, so the cost of one pass does not depend on the seed.  The program sees
nothing but the generated configs.

Why each workload exists, and which layer it is meant to expose, is written
next to its definition below.  ``WHY`` holds the one-line form that also goes
into BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random, int], list]
    # CSV column whose values must change with the seed (determinism check).
    seeded_column: str


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


# dephasing-grid: the shape of acceptance criterion 2.  Three Liouvillian
# propagations per series over a uniform 100-point grid, so the propagator
# cache is reused across the points and per-point work (matrix-vector
# products, positivity eigvalsh, SLD eigh) is a real share of the time next
# to the dense expm.  It writes the most CSV rows, so the cli write path
# shows here.  One weak field (extended phase) and one strong field.
def _dephasing_grid(rng, seed):
    hs = [_uniform(rng, 0.03, 0.08), _uniform(rng, 0.2, 0.5)]
    return [{"experiment": "lindblad-sweep", "seed": seed, "threads": 1,
             "params": {"L": [16, 24, 32], "gamma": [0.02], "h": hs,
                        "t_max": 100.0, "dt": 1.0}}]


# dephasing-point: the shape of acceptance criteria 3/4 (most of the
# acceptance time).  Each series is the single point t = 100: no propagator
# reuse and one large-norm expm per field value.  A Lindblad change that
# helps the grid use and costs this one (or the reverse) shows here.
def _dephasing_point(rng, seed):
    hs = sorted(_uniform(rng, 0.1, 1.1) for _ in range(4))
    return [{"experiment": "lindblad-sweep", "seed": seed, "threads": 1,
             "params": {"L": [16, 24], "gamma": [0.02], "h": hs,
                        "t_max": 100.0, "dt": 100.0}}]


# nonhermitian: eigensolve-bound work through spectral / nh / pure-state QFI
# with no Lindblad work at all.  threads = 2 (the core count of the reference
# box), so it is the one workload where the experiment thread pool and the
# BLAS threads compete; cpu_s against wall_s shows that contention.  The
# static grids are shifted by one seeded factor that keeps the hn-static
# maximum interior.
def _nonhermitian(rng, seed):
    shift = _uniform(rng, 0.7, 1.4)
    weak, strong = _uniform(rng, 5e-4, 2e-3), _uniform(rng, 0.05, 0.2)
    weak_u, strong_u = _uniform(rng, 5e-4, 2e-3), _uniform(rng, 0.05, 0.2)
    common = {"seed": seed, "threads": 2}
    return [
        {"experiment": "hn-static", **common,
         "params": {"L": [100], "gamma": [0.05],
                    "h_grid": {"lo": 3e-6 * shift, "hi": 1e-3 * shift, "n": 25,
                               "scale": "log"}}},
        {"experiment": "hn-dynamic", **common,
         "params": {"L": [100], "gamma": 0.05, "h": [weak, strong],
                    "t_max": 150.0, "dt": 0.5}},
        {"experiment": "uni-dynamic", **common,
         "params": {"L": [100], "h": [weak_u, strong_u], "sigma": 2.0,
                    "t_max": 120.0, "dt": 0.5}},
        {"experiment": "uni-static", **common,
         "params": {"L": [400], "states": ["ground", "mid"],
                    "h_grid": {"lo": 5e-4 * shift, "hi": 0.1 * shift, "n": 48,
                               "scale": "log"}}},
    ]


# trajectory: the MCWF ensemble does almost all the work.  Its Liouvillian
# oracle uses three distinct gaps at L = 10, so the lindblad layer costs
# little here.  The workload seed is the trajectory RNG seed; the field is
# fixed, so the seed moves only the sampled trace distances.
def _trajectory(rng, seed):
    return [{"experiment": "traj-validate", "seed": seed, "threads": 1,
             "params": {"L": 10, "gamma": 0.02, "h": 0.05, "n_traj": 4000,
                        "dt": 0.02, "times": [10.0, 25.0, 50.0]}}]


WORKLOADS = {w.name: w for w in (
    Workload("dephasing-grid",
             "Lindblad sweep on a 100-point grid (L 16-32): propagator reuse, "
             "per-point matvecs and SLD, most CSV rows",
             _dephasing_grid, "h"),
    Workload("dephasing-point",
             "Lindblad sweep at the single time t=100 (L 16, 24): one "
             "large-norm dense expm per field value, no propagator reuse",
             _dephasing_point, "h"),
    Workload("nonhermitian",
             "hn/uni static and dynamic at L 100-400, threads 2: eigensolve-bound "
             "spectral/nh/pure-QFI path, no Lindblad work, BLAS vs task threads",
             _nonhermitian, "h"),
    Workload("trajectory",
             "traj-validate at L 10 with 4000 trajectories: the MCWF ensemble "
             "dominates, the Liouvillian oracle is small",
             _trajectory, "trace_distance"),
)}


def configs(name: str, seed: int) -> list:
    """The configs of workload ``name`` drawn from ``seed``."""
    return WORKLOADS[name].make(random.Random(seed), seed)
