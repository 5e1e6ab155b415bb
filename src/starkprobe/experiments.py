"""Experiment pipelines and sweep drivers.

The pipelines produce quantum-Fisher-information series and static scans for
each dynamical formalism (exact Liouvillian propagation, trace-preserving
non-Hermitian evolution, closed-form eigenstate probes).  The drivers wrap
them into the named experiments the CLI exposes, whose work returns plain
row dicts ready for CSV serialization.

A driver ``run_*(params, seed, threads)`` takes params that
``resolve_params`` already checked, raises every ConfigError that ties keys
together (a time and dt, an index and L, a packet width), and builds a plan,
a list of cases: ``(formalism, spec, times, psi0)`` per QFI series, or
``(spec, state_index, extra columns)`` per static scan over a shared field
grid.  It runs nothing: it returns the work, a function of no arguments that
returns ``{table name: rows}``.  ``_run_series`` maps series cases through
one dispatch on the formalism on ``threads`` task threads, in plan order;
``_curve_rows``, ``_peak_rows`` and ``_table1_rows`` turn the series into
rows, and ``_static_tables`` runs and tabulates the static scans.

Field derivatives follow one mechanism, ``_tangent``: the full evolution at
h and h +/- delta, delta = default_step(h), differenced centrally, with
gauge alignment for state vectors, and returned as ``(states, dstates)``
for the QFI formulas of :mod:`starkprobe.metrology`.  The one exception is
the unidirectional eigenstate, whose QFI is closed-form and exact.
Each formalism has one propagation route; the closed chain is the
gamma = 0 Hatano-Nelson route.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .analysis import TimeSeries, _grid_peak, peak_qfi_over_t2
from .errors import ConfigError, PeakAtBoundary
from .lindblad import DensityMatrix, propagate, trace_distance
from .metrology import default_step, qfi_mixed, qfi_pure_batch, snr
from .model import (
    LatticeSpec,
    build_hatano_nelson,
    build_unidirectional,
    gaussian_packet,
    middle_site,
    site_state,
)
from .nh import evolve_nh_grid, evolve_nh_series
from .spectral import _unidirectional_qfi, eig_biorthogonal
from .trajectory import MAX_DP_PER_STEP, TrajectoryConfig, run_ensemble

__all__ = [
    "lindblad_qfi_series",
    "nh_qfi_series",
    "static_qfi_scan",
    "refine_peak",
    "EXPERIMENTS",
]


def _pmap(fn, items, threads):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# QFI pipelines
# ---------------------------------------------------------------------------

def _tangent(evolve, h: float):
    """``(states, dstates)``: ``evolve(h)`` and its central difference in h.

    The field derivative of every pipeline but the closed-form unidirectional
    eigenstate scan, with delta = default_step(h).  ``evolve`` returns either
    an (n, dim) stack of state vectors, whose rows at h +/- delta are
    phase-aligned with the rows at h before differencing, or a list of
    DensityMatrix.  For matrices ``dstates`` is an iterator that differences
    entrywise one time at a time, so no stack of derivatives is ever held.
    """
    delta = default_step(h)
    states, plus, minus = evolve(h), evolve(h + delta), evolve(h - delta)
    if isinstance(states, list):
        return states, ((p.entries - m.entries) / (2.0 * delta) for p, m in zip(plus, minus))
    states = np.asarray(states, dtype=complex)

    def aligned(block):
        block = np.asarray(block, dtype=complex)
        z = np.einsum("ij,ij->i", states.conj(), block)
        mag = np.abs(z)
        phase = np.where(mag > 0.0, np.conj(z) / np.where(mag > 0, mag, 1.0), 1.0)
        return block * phase[:, np.newaxis]

    return states, (aligned(plus) - aligned(minus)) / (2.0 * delta)


def lindblad_qfi_series(spec: LatticeSpec, times) -> TimeSeries:
    """QFI(t) of the dephasing master equation from the mid-lattice site.

    One Liouvillian propagation per field of ``_tangent``; the mixed-state
    QFI at each time comes from the symmetric logarithmic derivative.
    gamma = 0 is the closed chain and routes through the Hatano-Nelson
    pipeline, which is exact there.
    """
    times = np.asarray(times, dtype=float)
    if spec.gamma == 0.0:
        # mu = asinh(0) = 0, so build_hatano_nelson(spec) equals build_stark(spec).
        return nh_qfi_series("hatano-nelson", spec, times)

    rho0 = DensityMatrix.from_pure(site_state(spec.L, middle_site(spec.L)))
    rho, drho = _tangent(lambda h: propagate(rho0, spec.with_field(h), times), spec.h)
    values = np.array([qfi_mixed(r, d)[0].value for r, d in zip(rho, drho)])
    return TimeSeries(times, values)


_BUILDERS = {
    "hatano-nelson": build_hatano_nelson,
    "unidirectional": build_unidirectional,
}


def nh_qfi_series(kind: str, spec: LatticeSpec, times, psi0=None) -> TimeSeries:
    """QFI(t) of normalized non-Hermitian evolution from ``psi0``.

    ``psi0`` defaults to the mid-lattice site.  ``kind`` picks the generator
    and with it the route, run once per field of ``_tangent``.  The
    Hatano-Nelson chain ("hatano-nelson") goes spectral, reusing one
    biorthogonal decomposition per field value; at gamma = 0 it is the
    closed Stark chain.  The unidirectional chain ("unidirectional") steps a
    uniform time grid with one short-step exponential, because its
    eigenbasis is too ill-conditioned at small h.
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown generator kind {kind!r}")
    builder = _BUILDERS[kind]
    times = np.asarray(times, dtype=float)
    if psi0 is None:
        psi0 = site_state(spec.L, middle_site(spec.L))

    def evolve(h):
        H = builder(spec.with_field(h))
        if kind == "hatano-nelson":
            return evolve_nh_series(psi0, eig_biorthogonal(H), times)
        return evolve_nh_grid(psi0, H, times)

    return TimeSeries(times, qfi_pure_batch(*_tangent(evolve, spec.h)))


def _hn_qfi(n: int, spec: LatticeSpec) -> float:
    """QFI of Hatano-Nelson eigenstate ``n`` in h, through ``_tangent``."""
    def eigenstate(h):
        v = eig_biorthogonal(build_hatano_nelson(spec.with_field(h))).right_vectors[:, n]
        return (v / np.linalg.norm(v))[np.newaxis, :]
    return float(qfi_pure_batch(*_tangent(eigenstate, spec.h))[0])


# The eigenstate QFI of each static scan, as qfi(n, spec).  The unidirectional
# one is closed-form: exact at any h > 0, with no field step and no eigensolve.
_STATIC_QFI = {
    "hatano-nelson": _hn_qfi,
    "unidirectional": _unidirectional_qfi,
}


def static_qfi_scan(kind: str, spec: LatticeSpec, h_grid, *, state_index=None,
                    threads: int = 1):
    """Eigenstate QFI over a field grid, plus the refined maximum.

    Returns (values, h_max, fq_max, at_boundary); at_boundary flags a
    maximum on a grid end, where h_max is that grid field.  The probe at
    each field is eigenstate ``state_index`` of the chain ``kind``; its QFI
    is the exact closed form on the unidirectional chain and a gauge-aligned
    central difference across h +/- delta on the Hatano-Nelson chain.
    ``state_index`` defaults to L-1 for both chains: under the ascending
    1..L site gauge that is the spectral extremum where the gradient field
    competes with the skin effect (the bottom state has both mechanisms
    pulling to the same edge and shows no interior QFI maximum).  An index
    outside 0..L-1 raises ValueError.
    ``threads`` parallelizes the Hatano-Nelson fields; the closed form is
    evaluated serially.
    """
    if kind not in _STATIC_QFI:
        raise ValueError(f"unknown generator kind {kind!r}")
    qfi = _STATIC_QFI[kind]
    h_grid = np.asarray(h_grid, dtype=float)
    idx = spec.L - 1 if state_index is None else int(state_index)
    if not 0 <= idx < spec.L:
        raise ValueError(f"state_index {idx} is outside 0..{spec.L - 1} at L = {spec.L}")

    # The closed form takes microseconds per field, less than a pool hand-off:
    # only the Hatano-Nelson eigensolves are worth the threads.
    if kind == "unidirectional":
        threads = 1
    values = np.array(_pmap(lambda h: qfi(idx, spec.with_field(h)), h_grid, threads))
    return values, *refine_peak(h_grid, values)


def refine_peak(xs, ys):
    """Grid argmax of ys with local quadratic refinement in log x (``xs`` > 0).

    Returns (x_peak, y_peak, at_boundary).  At an endpoint the grid values
    come back with the flag set instead of raising, so a sweep can record it.
    """
    return _grid_peak(xs, ys, log=True)


# ---------------------------------------------------------------------------
# Config plumbing shared by the experiment drivers
# ---------------------------------------------------------------------------

# A check takes a value and its dotted name (``params.L``), raises ConfigError
# naming it, and returns the coerced value.  The CLI resolves its keys alike.

_FLOAT_MAX = np.finfo(float).max


def _scalar(kind, positive=False, least=None, most=None):
    """Check of a finite number (``kind`` float) or an integer (``kind`` int)."""
    def check(value, key: str):
        # abs(value) <= max also rejects inf, nan and integers too large for a float.
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int) \
                or not abs(value) <= _FLOAT_MAX:
            what = "a finite number" if kind is float else "an integer"
            raise ConfigError(f"{key}: expected {what}, got {value!r}")
        if positive and value <= 0:
            raise ConfigError(f"{key}: must be > 0, got {value}")
        if least is not None and value < least:
            raise ConfigError(f"{key}: must be >= {least}, got {value}")
        if most is not None and value > most:
            raise ConfigError(f"{key}: must be <= {most}, got {value}")
        return kind(value)
    return check


_number, _positive = _scalar(float), _scalar(float, positive=True)
_integer, _positive_int = _scalar(int), _scalar(int, positive=True)
_size, _nonnegative = _scalar(int, least=2), _scalar(float, least=0)


def _list_of(check):
    def checked(value, key: str) -> list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key}: expected a non-empty list, got {value!r}")
        return [check(v, key) for v in value]
    return checked


def _one_of(*choices):
    expected = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
    def check(value, key: str):
        if value not in choices:
            raise ConfigError(f"{key}: expected {expected}, got {value!r}")
        return value
    return check


def _state_label(value, key: str):
    if value not in ("ground", "mid") and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{key}: expected 'ground', 'mid' or an index, got {value!r}")
    return value


def _optional_int(value, key: str):
    return None if value is None else _integer(value, key)


def _h_grid(lo: float, hi: float, n: int) -> tuple:
    """``(default, check)`` of a field grid: an ascending list of fields, or a
    lo/hi/n/scale object whose left-out fields keep the default's."""
    table = {"lo": (lo, _positive), "hi": (hi, _positive), "n": (n, _positive_int),
             "scale": ("log", _one_of("log", "linear"))}

    def check(value, key: str):
        if isinstance(value, (list, tuple)):
            grid = _list_of(_positive)(value, key)
            # refine_peak fits a parabola through neighbouring grid points.
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{key}: must be strictly ascending, got {grid}")
            return grid
        if not isinstance(value, dict):
            raise ConfigError(f"{key}: expected a list or a lo/hi/n object, got {value!r}")
        grid = _resolve(value, table, key)
        if grid["hi"] <= grid["lo"]:
            raise ConfigError(f"{key}: hi must exceed lo")
        return grid
    return {field: default for field, (default, _) in table.items()}, check


_numbers, _nonnegatives, _sizes = _list_of(_number), _list_of(_nonnegative), _list_of(_size)

# Every params key of each experiment as (default, check); any other key is a
# config error.  The drivers check what ties keys together (an index and L, a
# time and dt).
PARAMS = {
    "lindblad-sweep": {"L": ([10, 20, 30, 40], _sizes), "gamma": ([0.0, 0.01], _nonnegatives),
                       "h": ([0.05, 0.1, 0.3], _nonnegatives), "t_max": (100.0, _positive),
                       "dt": (1.0, _positive)},
    "traj-validate": {"L": (10, _size), "gamma": (0.02, _nonnegative),
                      "h": (0.05, _nonnegative), "n_traj": (5000, _positive_int),
                      "dt": (0.05, _positive), "times": ([10.0, 25.0, 50.0], _numbers)},
    "hn-static": {"L": ([100], _sizes), "gamma": ([0.02, 0.05, 0.1], _nonnegatives),
                  "h_grid": _h_grid(3e-6, 1e-3, 25), "state_index": (None, _optional_int)},
    "hn-dynamic": {"L": ([100], _sizes), "gamma": (0.05, _nonnegative),
                   "h": ([0.001, 0.1], _nonnegatives), "t_max": (150.0, _positive),
                   "dt": (0.5, _positive)},
    "uni-static": {"L": ([400], _sizes), "states": (["ground", "mid"], _list_of(_state_label)),
                   "h_grid": _h_grid(5e-4, 0.1, 48)},
    "uni-dynamic": {"L": ([100], _sizes), "h": ([0.001, 0.1], _nonnegatives),
                    "sigma": (2.0, _positive), "t_max": (120.0, _positive),
                    "dt": (0.5, _positive)},
    "table1": {"M": (1000, _positive_int), "gamma": (0.01, _nonnegative),
               "L_lindblad": (40, _size), "L_nh": (100, _size),
               "t_fixed": (10.0, _positive), "t_max": (120.0, _positive),
               "dt_lindblad": (1.0, _positive), "dt_nh": (0.5, _positive),
               "lindblad_h": ([0.01, 0.05, 0.5], _nonnegatives),
               "hn_h": ([0.001, 0.01, 0.1], _nonnegatives),
               "uni_h": ([0.001, 0.01, 0.1], _nonnegatives)},
}


def _resolve(given: dict, table: dict, path: str) -> dict:
    """``given`` over the ``{key: (default, check)}`` of ``table``; the check of
    key k sees the name ``path.k``.  An unknown key raises ConfigError."""
    for key in given:
        if key not in table:
            raise ConfigError(f"{path}.{key}: unknown key, expected one of "
                              f"{', '.join(sorted(table))}")
    return {key: check(given.get(key, default), f"{path}.{key}")
            for key, (default, check) in table.items()}


def resolve_params(experiment: str, params: dict) -> dict:
    """``params`` over the defaults of ``experiment``, each value checked once.

    Every value, given or default, passes its check in ``PARAMS``.  The
    result holds plain JSON values, is what a run records in its manifest,
    and resolves to itself.  An unknown or malformed key raises ConfigError
    naming it.
    """
    return _resolve(params, PARAMS[experiment], "params")


def _grid_points(grid) -> np.ndarray:
    """The field values of a checked ``h_grid``."""
    if isinstance(grid, list):
        return np.asarray(grid)
    space = np.geomspace if grid["scale"] == "log" else np.linspace
    return space(grid["lo"], grid["hi"], grid["n"])


def _state_index(state, L: int, key: str) -> int:
    """Eigenstate index of a label, None or index at size L; it must lie in 0..L-1."""
    # Under the 1..L site gauge the structured extremal state ("ground", and
    # the default) carries the top closed-form index.
    index = {None: L - 1, "ground": L - 1, "mid": L // 2}.get(state, state)
    if not 0 <= index < L:
        raise ConfigError(f"params.{key}: index {index} is outside 0..{L - 1} at L = {L}")
    return index


def _steps(t: float, dt: float, key: str) -> int:
    """Number of dt steps to reach t; t must be a nonnegative multiple of dt."""
    n = round(t / dt)
    if t < 0 or abs(n * dt - t) > 1e-9 * max(1.0, t):
        raise ConfigError(f"params.{key}: {t} is not a nonnegative multiple of dt = {dt}")
    return n


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    n = _steps(t_max, dt, "t_max")
    if n == 0:
        raise ConfigError(f"params.t_max: {t_max} is below dt = {dt}, so the time grid "
                          f"is empty; raise t_max or lower dt")
    return dt * np.arange(1, n + 1)


def _tuple_row(formalism, spec, t, seed, **extra) -> dict:
    row = {"formalism": formalism, "L": spec.L, "J": spec.J, "h": spec.h,
           "gamma": spec.gamma, "t": t, "seed": seed}
    row.update(extra)
    return row


def _peak_times(times: np.ndarray) -> np.ndarray:
    """``times``, which must hold the three samples peak_qfi_over_t2 needs."""
    if times.size < 3:
        raise ConfigError(f"params.t_max: needs at least 3 time points, got "
                          f"{times.size}; raise t_max or lower the time step")
    return times


# ---------------------------------------------------------------------------
# Plan executors: series and static cases to rows
# ---------------------------------------------------------------------------

def _series(case) -> TimeSeries:
    """QFI series of one series case ``(formalism, spec, times, psi0)``."""
    formalism, spec, times, psi0 = case
    if formalism == "lindblad":
        return lindblad_qfi_series(spec, times)
    return nh_qfi_series(formalism, spec, times, psi0)


def _run_series(plan, threads: int) -> list:
    """``(case, series)`` pairs of a series plan, in plan order."""
    return list(zip(plan, _pmap(_series, plan, threads)))


def _curve_rows(runs, seed) -> list:
    """One row per case and time point: F and F/t^2."""
    return [_tuple_row(formalism, spec, float(t), seed,
                       fq=float(fq), fq_over_t2=float(fq / t**2))
            for (formalism, spec, _, _), series in runs
            for t, fq in zip(series.times, series.values)]


def _peak(series: TimeSeries):
    """(t_opt, peak of F/t^2, at_boundary): the refined interior peak, else
    the grid maximum with the flag set."""
    try:
        return (*peak_qfi_over_t2(series), False)
    except PeakAtBoundary:
        return _grid_peak(series.times, series.values / series.times**2)


def _peak_rows(runs, seed) -> list:
    """One row per case: where F/t^2 peaks and how high."""
    rows = []
    for (formalism, spec, _, _), series in runs:
        t_opt, peak, boundary = _peak(series)
        rows.append(_tuple_row(formalism, spec, t_opt, seed,
                               peak_fq_over_t2=peak, peak_at_boundary=boundary))
    return rows


def _table1_rows(runs, t_fixed: float, M: int, seed) -> list:
    """Signal-to-noise rows at t_opt and at t_fixed.

    With no interior peak of F/t^2, t_opt falls back to t_fixed and the row
    is flagged.
    """
    rows = []
    for (formalism, spec, _, _), series in runs:
        t_opt, peak, boundary = _peak(series)
        fq_fixed = float(np.interp(t_fixed, series.times, series.values))
        t_opt, fq_opt = (t_fixed, fq_fixed) if boundary else (t_opt, peak * t_opt**2)
        phase = "localized" if spec.h >= 8.0 * spec.J / spec.L else "extended"
        rows.append(_tuple_row(formalism, spec, t_opt, seed,
                               phase=phase, M=M,
                               t_opt=t_opt,
                               snr_topt=snr(spec.h, M, fq_opt),
                               snr_tfixed=snr(spec.h, M, fq_fixed),
                               fq_topt=fq_opt, fq_tfixed=fq_fixed,
                               no_interior_peak=boundary))
    return rows


def _static_tables(experiment: str, kind: str, plan, grid, seed, threads: int) -> dict:
    """Curve and maximum tables of a static plan over one field grid.

    Each case ``(spec, state_index, extra)`` runs one ``static_qfi_scan``;
    the ``extra`` columns go before ``state_index`` in its rows.
    """
    curves, maxima = [], []
    for spec, index, extra in plan:
        values, h_max, fq_max, boundary = static_qfi_scan(kind, spec, grid, state_index=index,
                                                          threads=threads)
        for h, fq in zip(grid, values):
            curves.append(_tuple_row(experiment, spec.with_field(float(h)), 0.0, seed,
                                     **extra, state_index=index, fq=float(fq)))
        maxima.append(_tuple_row(experiment, spec.with_field(h_max), 0.0, seed,
                                 **extra, state_index=index, fq_max=fq_max, h_max=h_max,
                                 peak_at_boundary=boundary))
    table = experiment.replace("-", "_")
    return {table: curves, f"{table}_maxima": maxima}


# ---------------------------------------------------------------------------
# Experiment drivers: resolved params to a plan, and the plan to its work
# ---------------------------------------------------------------------------

def _dynamic_tables(table: str, plan, seed, threads: int) -> dict:
    """Curve and peak tables of a dynamic series plan."""
    runs = _run_series(plan, threads)
    return {table: _curve_rows(runs, seed), f"{table}_maxima": _peak_rows(runs, seed)}


def run_lindblad_sweep(p: dict, seed: int, threads: int):
    """QFI(t) under dephasing over a (L, gamma, h) product grid."""
    times = _time_grid(p["t_max"], p["dt"])
    plan = [("lindblad", LatticeSpec(L, 1.0, h, g), times, None)
            for L in p["L"] for g in p["gamma"] for h in p["h"]]
    return lambda: {"lindblad_sweep": _curve_rows(_run_series(plan, threads), seed)}


def run_traj_validate(p: dict, seed: int, threads: int):
    """Trace distance between the trajectory ensemble and the exact propagation."""
    L, dt, n_traj = p["L"], p["dt"], p["n_traj"]
    times = np.asarray(p["times"])

    spec = LatticeSpec(L, 1.0, p["h"], p["gamma"])
    if spec.gamma * dt >= MAX_DP_PER_STEP:
        raise ConfigError(f"params.dt: gamma*dt = {spec.gamma * dt:.3g} must stay "
                          f"below {MAX_DP_PER_STEP}; reduce dt")
    for t in times:
        _steps(t, dt, "times")
    if np.any(np.diff(times) < 0):
        raise ConfigError(f"params.times: must be ascending, got {times.tolist()}")
    psi0 = site_state(L, middle_site(L))
    cfg = TrajectoryConfig(dt=dt, n_traj=n_traj, seed=seed)

    def work():
        ensemble = run_ensemble(psi0, spec, cfg, times)
        exact = propagate(DensityMatrix.from_pure(psi0), spec, times)
        return {"traj_validate": [_tuple_row("trajectory", spec, float(t), seed,
                                             n_traj=n_traj, dt=dt,
                                             trace_distance=trace_distance(est, ref))
                                  for t, est, ref in zip(times, ensemble, exact)]}
    return work


def run_hn_static(p: dict, seed: int, threads: int):
    """Eigenstate QFI of the nonreciprocal chain over a field grid.

    ``state_index`` defaults to the competition state L-1 (see
    :func:`static_qfi_scan`).
    """
    grid = _grid_points(p["h_grid"])
    specs = [LatticeSpec(L, 1.0, 0.0, g) for L in p["L"] for g in p["gamma"]]
    plan = [(spec, _state_index(p["state_index"], spec.L, "state_index"), {})
            for spec in specs]
    return lambda: _static_tables("hn-static", "hatano-nelson", plan, grid, seed, threads)


def run_uni_static(p: dict, seed: int, threads: int):
    """Closed-form eigenstate QFI of the unidirectional chain."""
    grid = _grid_points(p["h_grid"])
    specs = [LatticeSpec(L, 1.0, 0.0, 0.0) for L in p["L"]]
    plan = [(spec, _state_index(label, spec.L, "states"), {"state": str(label)})
            for spec in specs for label in p["states"]]
    return lambda: _static_tables("uni-static", "unidirectional", plan, grid, seed, threads)


def run_hn_dynamic(p: dict, seed: int, threads: int):
    """F/t^2 evolution of the nonreciprocal chain from a mid-lattice particle."""
    times = _peak_times(_time_grid(p["t_max"], p["dt"]))
    plan = [("hatano-nelson", LatticeSpec(L, 1.0, h, p["gamma"]), times, None)
            for L in p["L"] for h in p["h"]]
    return lambda: _dynamic_tables("hn_dynamic", plan, seed, threads)


def run_uni_dynamic(p: dict, seed: int, threads: int):
    """F/t^2 evolution of the unidirectional chain from a Gaussian packet."""
    times = _peak_times(_time_grid(p["t_max"], p["dt"]))
    specs = [LatticeSpec(L, 1.0, h, 0.0) for L in p["L"] for h in p["h"]]
    try:
        packets = {L: gaussian_packet(L, p["sigma"]) for L in p["L"]}
    except ValueError as exc:
        raise ConfigError(f"params.sigma: {exc}; raise sigma") from exc
    plan = [("unidirectional", spec, times, packets[spec.L]) for spec in specs]
    return lambda: _dynamic_tables("uni_dynamic", plan, seed, threads)


def _table1_times(dt: float, horizon: float, t_fixed: float) -> np.ndarray:
    """The dt grid to the search horizon, and on or past t_fixed, so that F(t_fixed)
    is never a last sample read for a later time; a multiple of dt ends on it."""
    n = max(int(np.floor(horizon / dt)), int(np.ceil(t_fixed / dt - 1e-9)))
    return _peak_times(dt * np.arange(1, n + 1))


def run_table1(p: dict, seed: int, threads: int):
    """Signal-to-noise table: three probes, three fields each, two report times.

    All rows start from a single particle at the mid-lattice site (the
    initialization that reproduces the reference values for every formalism).
    t_opt is the interior peak of F/t^2 within the search horizon t_max; for
    the unidirectional chain at h > 0 the horizon stays below the first
    revival half-period pi/h, where the sensitivity develops timing-precision
    singularities (h = 0 has no revival).  When no interior peak exists the
    fixed reporting time is used and the row is flagged.
    """
    t_fixed, t_max = p["t_fixed"], p["t_max"]
    # Each series starts at its dt, and np.interp would read F(dt) for any
    # earlier t_fixed.
    for key in ("dt_lindblad", "dt_nh"):
        if t_fixed < p[key]:
            raise ConfigError(f"params.t_fixed: {t_fixed} is below params.{key} = {p[key]}, "
                              "the first sample of its series")
    plan = [("lindblad", LatticeSpec(p["L_lindblad"], 1.0, h, p["gamma"]),
             _table1_times(p["dt_lindblad"], t_max, t_fixed), None) for h in p["lindblad_h"]]
    plan += [("hatano-nelson", LatticeSpec(p["L_nh"], 1.0, h, p["gamma"]),
              _table1_times(p["dt_nh"], t_max, t_fixed), None) for h in p["hn_h"]]
    plan += [("unidirectional", LatticeSpec(p["L_nh"], 1.0, h, 0.0),
              _table1_times(p["dt_nh"], min(t_max, 0.95 * np.pi / h) if h > 0 else t_max,
                            t_fixed), None) for h in p["uni_h"]]
    return lambda: {"table1": _table1_rows(_run_series(plan, threads), t_fixed, p["M"], seed)}


EXPERIMENTS = {
    "lindblad-sweep": run_lindblad_sweep,
    "traj-validate": run_traj_validate,
    "hn-static": run_hn_static,
    "hn-dynamic": run_hn_dynamic,
    "uni-static": run_uni_static,
    "uni-dynamic": run_uni_dynamic,
    "table1": run_table1,
}
