"""Experiment pipelines and sweep drivers.

The pipelines produce quantum-Fisher-information series and static scans for
each dynamical formalism (exact Liouvillian propagation, trace-preserving
non-Hermitian evolution, closed-form eigenstate probes).  The drivers wrap
them into the named experiments the CLI exposes and return plain row dicts
ready for CSV serialization.

Field derivatives follow one mechanism everywhere: central differences of
the full evolution at h +/- delta, delta = default_step(h), with gauge
alignment for state vectors (see :mod:`starkprobe.metrology`), and each
formalism has one propagation route.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .analysis import TimeSeries, peak_qfi_over_t2
from .errors import ConfigError, PeakAtBoundary
from .lindblad import DensityMatrix, propagate, trace_distance
from .metrology import default_step, qfi_mixed, qfi_pure_batch, snr
from .model import (
    LatticeSpec,
    build_hatano_nelson,
    build_stark,
    build_unidirectional,
    gaussian_packet,
    middle_site,
    site_state,
)
from .nh import evolve_nh_grid, evolve_nh_series
from .spectral import eig_biorthogonal, eig_hermitian, unidirectional_eigvec_normalized
from .trajectory import MAX_DP_PER_STEP, TrajectoryConfig, run_ensemble

__all__ = [
    "unitary_qfi_series",
    "lindblad_qfi_series",
    "nh_qfi_series",
    "hn_state_qfi",
    "unidirectional_state_qfi",
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

def unitary_qfi_series(spec: LatticeSpec, times, psi0=None) -> TimeSeries:
    """QFI(t) of the closed-system evolution from a pure initial state.

    Spectral propagation: one Hermitian eigendecomposition per field value
    (h and h +/- delta) yields the state at every requested time.
    """
    times = np.asarray(times, dtype=float)
    if psi0 is None:
        psi0 = site_state(spec.L, middle_site(spec.L))
    delta = default_step(spec.h)

    states = {}
    for hp in (spec.h - delta, spec.h, spec.h + delta):
        w, V = eig_hermitian(build_stark(spec.with_field(hp)))
        amps = V.conj().T @ psi0
        phases = np.exp(-1j * np.outer(w, times))
        states[hp] = (V @ (phases * amps[:, np.newaxis])).T

    values = qfi_pure_batch(
        states[spec.h], states[spec.h + delta], states[spec.h - delta], delta
    )
    meta = {"formalism": "unitary", "L": spec.L, "J": spec.J, "h": spec.h,
            "gamma": spec.gamma, "delta": delta}
    return TimeSeries(times, values, meta)


def lindblad_qfi_series(spec: LatticeSpec, times, site=None) -> TimeSeries:
    """QFI(t) of the dephasing master equation from a single-site state.

    Three Liouvillian propagations (h and h +/- delta); the mixed-state QFI
    at each time comes from the symmetric logarithmic derivative.  gamma = 0
    routes through the closed-system pipeline, which is exact there.
    """
    times = np.asarray(times, dtype=float)
    if site is None:
        site = middle_site(spec.L)
    if spec.gamma == 0.0:
        series = unitary_qfi_series(spec, times, site_state(spec.L, site))
        series.meta.update({"formalism": "lindblad", "site": site})
        return series

    rho0 = DensityMatrix.from_pure(site_state(spec.L, site))
    delta = default_step(spec.h)
    evolved = {}
    for hp in (spec.h - delta, spec.h, spec.h + delta):
        evolved[hp] = propagate(rho0, spec.with_field(hp), times)

    values = np.empty(times.size)
    for i in range(times.size):
        drho = (evolved[spec.h + delta][i].entries - evolved[spec.h - delta][i].entries) / (2.0 * delta)
        result, _ = qfi_mixed(evolved[spec.h][i], drho, derivative_step=delta)
        values[i] = result.value
    meta = {"formalism": "lindblad", "L": spec.L, "J": spec.J, "h": spec.h,
            "gamma": spec.gamma, "delta": delta, "site": site}
    return TimeSeries(times, values, meta)


_BUILDERS = {
    "hatano-nelson": build_hatano_nelson,
    "unidirectional": build_unidirectional,
}


def nh_qfi_series(kind: str, spec: LatticeSpec, times, psi0=None) -> TimeSeries:
    """QFI(t) of normalized non-Hermitian evolution.

    ``kind`` picks the generator and with it the route.  The Hatano-Nelson
    chain ("hatano-nelson") goes spectral, reusing one biorthogonal
    decomposition per field value.  The unidirectional chain
    ("unidirectional") steps a uniform time grid with one short-step
    exponential, because its eigenbasis is too ill-conditioned at small h.
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown generator kind {kind!r}")
    builder = _BUILDERS[kind]
    times = np.asarray(times, dtype=float)
    if psi0 is None:
        psi0 = site_state(spec.L, middle_site(spec.L))
    delta = default_step(spec.h)
    route = "spectral" if kind == "hatano-nelson" else "grid"

    states = {}
    for hp in (spec.h - delta, spec.h, spec.h + delta):
        H = builder(spec.with_field(hp))
        if route == "spectral":
            states[hp] = evolve_nh_series(psi0, eig_biorthogonal(H), times)
        else:
            states[hp] = evolve_nh_grid(psi0, H, times)

    values = qfi_pure_batch(
        states[spec.h], states[spec.h + delta], states[spec.h - delta], delta
    )
    meta = {"formalism": kind, "L": spec.L, "J": spec.J, "h": spec.h,
            "gamma": spec.gamma, "delta": delta, "route": route}
    return TimeSeries(times, values, meta)


def hn_state_qfi(spec: LatticeSpec, index: int = 0) -> float:
    """QFI of one Hatano-Nelson eigenstate probe (default: lowest real energy).

    The probe is the unit-normalized right eigenvector; its field derivative
    is a gauge-aligned central difference across h +/- delta.
    """
    delta = default_step(spec.h)

    def eigstate(hp):
        system = eig_biorthogonal(build_hatano_nelson(spec.with_field(hp)))
        v = system.right_vectors[:, index]
        return v / np.linalg.norm(v)

    h = spec.h
    vals = qfi_pure_batch(
        eigstate(h)[np.newaxis, :],
        eigstate(h + delta)[np.newaxis, :],
        eigstate(h - delta)[np.newaxis, :],
        delta,
    )
    return float(vals[0])


def unidirectional_state_qfi(spec: LatticeSpec, n: int) -> float:
    """QFI of a closed-form unidirectional eigenstate probe (0-based index n).

    Uses the log-space normalized eigenvector, which stays stable at the
    large J/h values where the general eigensolver becomes unusable.
    """
    delta = default_step(spec.h)
    h = spec.h
    vals = qfi_pure_batch(
        unidirectional_eigvec_normalized(n, spec)[np.newaxis, :],
        unidirectional_eigvec_normalized(n, spec.with_field(h + delta))[np.newaxis, :],
        unidirectional_eigvec_normalized(n, spec.with_field(h - delta))[np.newaxis, :],
        delta,
    )
    return float(vals[0])


def static_qfi_scan(kind: str, spec: LatticeSpec, h_grid, *, state_index=None,
                    threads: int = 1):
    """Eigenstate QFI over a field grid, plus the refined maximum.

    Returns (values, h_max, fq_max).  ``state_index`` defaults to L-1 for
    both chains: under the ascending 1..L site gauge that is the spectral
    extremum where the gradient field competes with the skin effect (the
    bottom state has both mechanisms pulling to the same edge and shows no
    interior QFI maximum).
    """
    h_grid = np.asarray(h_grid, dtype=float)
    idx = spec.L - 1 if state_index is None else int(state_index)
    if kind == "hatano-nelson":
        fn = lambda h: hn_state_qfi(spec.with_field(h), idx)
    elif kind == "unidirectional":
        fn = lambda h: unidirectional_state_qfi(spec.with_field(h), idx)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    values = np.array(_pmap(fn, h_grid, threads))
    h_max, fq_max, _ = refine_peak(h_grid, values, log_x=True)
    return values, h_max, fq_max


def refine_peak(xs, ys, log_x: bool = False):
    """Grid argmax with local quadratic refinement.

    Returns (x_peak, y_peak, at_boundary).  When the argmax is an endpoint
    the grid values are returned with the flag set instead of raising, which
    lets sweep drivers record the condition in their output.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    i = int(np.argmax(ys))
    if i == 0 or i == xs.size - 1:
        return float(xs[i]), float(ys[i]), True
    x3 = np.log(xs[i - 1 : i + 2]) if log_x else xs[i - 1 : i + 2]
    a, b, c = np.polyfit(x3, ys[i - 1 : i + 2], 2)
    if a >= 0.0:
        return float(xs[i]), float(ys[i]), False
    x_pk = -b / (2.0 * a)
    if not x3[0] <= x_pk <= x3[2]:
        return float(xs[i]), float(ys[i]), False
    y_pk = float(np.polyval([a, b, c], x_pk))
    x_out = float(np.exp(x_pk)) if log_x else float(x_pk)
    return x_out, max(y_pk, float(ys[i])), False


# ---------------------------------------------------------------------------
# Config plumbing shared by the experiment drivers
# ---------------------------------------------------------------------------

# Every params key of each experiment with its default.  Any other key is a
# config error; the merged values are what a run records in its manifest.
PARAMS = {
    "lindblad-sweep": {"L": [10, 20, 30, 40], "gamma": [0.0, 0.01],
                       "h": [0.05, 0.1, 0.3], "t_max": 100.0, "dt": 1.0},
    "traj-validate": {"L": 10, "gamma": 0.02, "h": 0.05, "n_traj": 5000,
                      "dt": 0.05, "times": [10.0, 25.0, 50.0]},
    "hn-static": {"L": [100], "gamma": [0.02, 0.05, 0.1],
                  "h_grid": {"lo": 3e-6, "hi": 1e-3, "n": 25, "scale": "log"},
                  "state_index": None},
    "hn-dynamic": {"L": [100], "gamma": 0.05, "h": [0.001, 0.1],
                   "t_max": 150.0, "dt": 0.5},
    "uni-static": {"L": [400], "states": ["ground", "mid"],
                   "h_grid": {"lo": 5e-4, "hi": 0.1, "n": 48, "scale": "log"}},
    "uni-dynamic": {"L": [100], "h": [0.001, 0.1], "sigma": 2.0,
                    "t_max": 120.0, "dt": 0.5},
    "table1": {"M": 1000, "gamma": 0.01, "L_lindblad": 40, "L_nh": 100,
               "t_fixed": 10.0, "t_max": 120.0, "dt_lindblad": 1.0, "dt_nh": 0.5,
               "lindblad_h": [0.01, 0.05, 0.5], "hn_h": [0.001, 0.01, 0.1],
               "uni_h": [0.001, 0.01, 0.1]},
}


def resolve_params(experiment: str, params: dict) -> dict:
    """``params`` over the defaults of ``experiment``; unknown keys raise ConfigError.

    An object-valued default (an h grid) is merged one level down, so a
    partial grid keeps the defaults of the fields it leaves out.
    """
    return _merge(copy.deepcopy(PARAMS[experiment]), params, "params")


def _merge(into: dict, given: dict, path: str) -> dict:
    for key, value in given.items():
        if key not in into:
            raise ConfigError(f"{path}.{key}: unknown key, expected one of "
                              f"{', '.join(sorted(into))}")
        if isinstance(into[key], dict) and isinstance(value, dict):
            value = _merge(into[key], value, f"{path}.{key}")
        into[key] = value
    return into


def _want(params: dict, key: str, kind, *, positive=False):
    value = params[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"params.{key}: expected a number, got {value!r}")
        value = float(value)
        if positive and value <= 0:
            raise ConfigError(f"params.{key}: must be > 0, got {value}")
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"params.{key}: expected an integer, got {value!r}")
        if positive and value <= 0:
            raise ConfigError(f"params.{key}: must be > 0, got {value}")
    elif kind is list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"params.{key}: expected a non-empty list, got {value!r}")
        value = list(value)
    elif kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"params.{key}: expected a string, got {value!r}")
    return value


def _number_list(params: dict, key: str) -> list[float]:
    values = _want(params, key, list)
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"params.{key}: expected numbers, got {v!r}")
        out.append(float(v))
    return out


def _int_list(params: dict, key: str) -> list[int]:
    values = _want(params, key, list)
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"params.{key}: expected integers, got {v!r}")
        out.append(v)
    return out


def _h_grid(params: dict, key: str) -> np.ndarray:
    raw = params[key]
    if isinstance(raw, (list, tuple)):
        return np.asarray(_number_list(params, key), dtype=float)
    if not isinstance(raw, dict):
        raise ConfigError(f"params.{key}: expected a list or a lo/hi/n object")
    # Dotted keys, so an error names params.<key>.lo and not params.lo.
    raw = {f"{key}.{k}": v for k, v in raw.items()}
    lo = _want(raw, f"{key}.lo", float, positive=True)
    hi = _want(raw, f"{key}.hi", float, positive=True)
    n = _want(raw, f"{key}.n", int, positive=True)
    scale = _want(raw, f"{key}.scale", str)
    if hi <= lo:
        raise ConfigError(f"params.{key}: hi must exceed lo")
    if scale == "log":
        return np.geomspace(lo, hi, n)
    if scale == "linear":
        return np.linspace(lo, hi, n)
    raise ConfigError(f"params.{key}.scale: expected 'log' or 'linear', got {scale!r}")


def _spec(L, h, gamma) -> LatticeSpec:
    """Probe lattice from config values; an out-of-range value is a config error."""
    try:
        return LatticeSpec(L, 1.0, h, gamma)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc


def _steps(t: float, dt: float, key: str) -> int:
    """Number of dt steps to reach t; t must be a nonnegative multiple of dt."""
    n = round(t / dt)
    if t < 0 or abs(n * dt - t) > 1e-9 * max(1.0, t):
        raise ConfigError(f"params.{key}: {t} is not a nonnegative multiple of dt = {dt}")
    return n


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    return dt * np.arange(1, _steps(t_max, dt, "t_max") + 1)


def _tuple_row(formalism, spec, t, seed, **extra) -> dict:
    row = {"formalism": formalism, "L": spec.L, "J": spec.J, "h": spec.h,
           "gamma": spec.gamma, "t": t, "seed": seed}
    row.update(extra)
    return row


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def run_lindblad_sweep(params: dict, seed: int, threads: int):
    """QFI(t) under dephasing over a (L, gamma, h) product grid."""
    params = resolve_params("lindblad-sweep", params)
    Ls = _int_list(params, "L")
    gammas = _number_list(params, "gamma")
    hs = _number_list(params, "h")
    t_max = _want(params, "t_max", float, positive=True)
    dt = _want(params, "dt", float, positive=True)
    times = _time_grid(t_max, dt)
    specs = [_spec(L, h, g) for L in Ls for g in gammas for h in hs]

    def one(spec):
        return lindblad_qfi_series(spec, times)

    rows = []
    for spec, series in zip(specs, _pmap(one, specs, threads)):
        for t, fq in zip(series.times, series.values):
            rows.append(_tuple_row("lindblad", spec, float(t), seed,
                                   fq=float(fq), fq_over_t2=float(fq / t**2)))
    return {"lindblad_sweep": rows}


def run_traj_validate(params: dict, seed: int, threads: int):
    """Trace distance between the trajectory ensemble and the exact propagation."""
    params = resolve_params("traj-validate", params)
    L = _want(params, "L", int, positive=True)
    gamma = _want(params, "gamma", float)
    h = _want(params, "h", float)
    n_traj = _want(params, "n_traj", int, positive=True)
    dt = _want(params, "dt", float, positive=True)
    times = np.asarray(_number_list(params, "times"), dtype=float)

    spec = _spec(L, h, gamma)
    if gamma * dt >= MAX_DP_PER_STEP:
        raise ConfigError(f"params.dt: gamma*dt = {gamma * dt:.3g} must stay "
                          f"below {MAX_DP_PER_STEP}; reduce dt")
    for t in times:
        _steps(t, dt, "times")
    if np.any(np.diff(times) < 0):
        raise ConfigError(f"params.times: must be ascending, got {times.tolist()}")
    psi0 = site_state(L, middle_site(L))
    cfg = TrajectoryConfig(dt=dt, t_final=float(times.max()), n_traj=n_traj, seed=seed)
    ensemble = run_ensemble(psi0, spec, cfg, times)
    exact = propagate(DensityMatrix.from_pure(psi0), spec, times)

    rows = []
    for t, est, ref in zip(times, ensemble, exact):
        rows.append(_tuple_row("trajectory", spec, float(t), seed,
                               n_traj=n_traj, dt=dt,
                               trace_distance=trace_distance(est, ref)))
    return {"traj_validate": rows}


def run_hn_static(params: dict, seed: int, threads: int):
    """Eigenstate QFI of the nonreciprocal chain over a field grid.

    ``state_index`` defaults to the competition state L-1 (see
    :func:`static_qfi_scan`).
    """
    params = resolve_params("hn-static", params)
    Ls = _int_list(params, "L")
    gammas = _number_list(params, "gamma")
    grid = _h_grid(params, "h_grid")
    index = params["state_index"]
    if index is not None and (isinstance(index, bool) or not isinstance(index, int)):
        raise ConfigError(f"params.state_index: expected an integer, got {index!r}")
    specs = [_spec(L, 0.0, g) for L in Ls for g in gammas]

    curves, maxima = [], []
    for spec in specs:
        idx = (spec.L - 1) if index is None else index
        values, h_max, fq_max = static_qfi_scan(
            "hatano-nelson", spec, grid, state_index=idx, threads=threads)
        for h, fq in zip(grid, values):
            curves.append(_tuple_row("hn-static", spec.with_field(float(h)), 0.0,
                                     seed, state_index=idx, fq=float(fq)))
        maxima.append(_tuple_row("hn-static", spec.with_field(h_max), 0.0, seed,
                                 state_index=idx, fq_max=fq_max, h_max=h_max))
    return {"hn_static": curves, "hn_static_maxima": maxima}


def run_uni_static(params: dict, seed: int, threads: int):
    """Closed-form eigenstate QFI of the unidirectional chain."""
    params = resolve_params("uni-static", params)
    Ls = _int_list(params, "L")
    states = _want(params, "states", list)
    grid = _h_grid(params, "h_grid")
    specs = [_spec(L, 0.0, 0.0) for L in Ls]

    curves, maxima = [], []
    for spec in specs:
        for label in states:
            if label == "ground":
                # Under the 1..L site gauge the structured extremal state
                # carries the top closed-form index.
                index = spec.L - 1
            elif label == "mid":
                index = spec.L // 2
            elif isinstance(label, int) and not isinstance(label, bool):
                index = label
            else:
                raise ConfigError(
                    f"params.states: expected 'ground', 'mid' or an index, got {label!r}")
            values, h_max, fq_max = static_qfi_scan(
                "unidirectional", spec, grid, state_index=index, threads=threads)
            for h, fq in zip(grid, values):
                curves.append(_tuple_row("uni-static", spec.with_field(float(h)), 0.0,
                                         seed, state=str(label), state_index=index,
                                         fq=float(fq)))
            maxima.append(_tuple_row("uni-static", spec.with_field(h_max), 0.0, seed,
                                     state=str(label), state_index=index,
                                     fq_max=fq_max, h_max=h_max))
    return {"uni_static": curves, "uni_static_maxima": maxima}


def _dynamic_rows(kind, specs, times, seed, threads, psi0_of):
    if times.size < 3:
        # peak_qfi_over_t2 needs three samples to find a peak.
        raise ConfigError(f"params.t_max: needs at least 3 time points, got "
                          f"{times.size}; raise t_max or lower dt")

    def one(spec):
        return nh_qfi_series(kind, spec, times, psi0_of(spec))

    curves, maxima = [], []
    for spec, series in zip(specs, _pmap(one, specs, threads)):
        for t, fq in zip(series.times, series.values):
            curves.append(_tuple_row(kind, spec, float(t), seed,
                                     fq=float(fq), fq_over_t2=float(fq / t**2)))
        try:
            t_opt, peak = peak_qfi_over_t2(series)
            boundary = False
        except PeakAtBoundary:
            ratio = series.values / series.times**2
            i = int(np.argmax(ratio))
            t_opt, peak, boundary = float(series.times[i]), float(ratio[i]), True
        maxima.append(_tuple_row(kind, spec, t_opt, seed,
                                 peak_fq_over_t2=peak, peak_at_boundary=boundary))
    return curves, maxima


def run_hn_dynamic(params: dict, seed: int, threads: int):
    """F/t^2 evolution of the nonreciprocal chain from a mid-lattice particle."""
    params = resolve_params("hn-dynamic", params)
    Ls = _int_list(params, "L")
    gamma = _want(params, "gamma", float)
    hs = _number_list(params, "h")
    t_max = _want(params, "t_max", float, positive=True)
    dt = _want(params, "dt", float, positive=True)
    times = _time_grid(t_max, dt)

    specs = [_spec(L, h, gamma) for L in Ls for h in hs]
    curves, maxima = _dynamic_rows(
        "hatano-nelson", specs, times, seed, threads,
        lambda spec: site_state(spec.L, middle_site(spec.L)))
    return {"hn_dynamic": curves, "hn_dynamic_maxima": maxima}


def run_uni_dynamic(params: dict, seed: int, threads: int):
    """F/t^2 evolution of the unidirectional chain from a Gaussian packet."""
    params = resolve_params("uni-dynamic", params)
    Ls = _int_list(params, "L")
    hs = _number_list(params, "h")
    sigma = _want(params, "sigma", float, positive=True)
    t_max = _want(params, "t_max", float, positive=True)
    dt = _want(params, "dt", float, positive=True)
    times = _time_grid(t_max, dt)

    specs = [_spec(L, h, 0.0) for L in Ls for h in hs]
    curves, maxima = _dynamic_rows(
        "unidirectional", specs, times, seed, threads,
        lambda spec: gaussian_packet(spec.L, sigma))
    return {"uni_dynamic": curves, "uni_dynamic_maxima": maxima}


def run_table1(params: dict, seed: int, threads: int):
    """Signal-to-noise table: three probes, three fields each, two report times.

    All rows start from a single particle at the mid-lattice site (the
    initialization that reproduces the reference values for every formalism).
    t_opt is the interior peak of F/t^2 within the search horizon; for the
    unidirectional chain the horizon stays below the first revival
    half-period pi/h, where the sensitivity develops timing-precision
    singularities.  When no interior peak exists the fixed reporting time is
    used and the row is flagged.
    """
    params = resolve_params("table1", params)
    M = _want(params, "M", int, positive=True)
    gamma = _want(params, "gamma", float)
    L_lind = _want(params, "L_lindblad", int, positive=True)
    L_nh = _want(params, "L_nh", int, positive=True)
    t_fixed = _want(params, "t_fixed", float, positive=True)
    t_max = _want(params, "t_max", float, positive=True)
    dt_lind = _want(params, "dt_lindblad", float, positive=True)
    dt_nh = _want(params, "dt_nh", float, positive=True)
    lind_h = _number_list(params, "lindblad_h")
    hn_h = _number_list(params, "hn_h")
    uni_h = _number_list(params, "uni_h")

    cases = []
    for h in lind_h:
        cases.append(("lindblad", _spec(L_lind, h, gamma), dt_lind, t_max))
    for h in hn_h:
        cases.append(("hatano-nelson", _spec(L_nh, h, gamma), dt_nh, t_max))
    for h in uni_h:
        horizon = min(t_max, 0.95 * np.pi / h)
        cases.append(("unidirectional", _spec(L_nh, h, 0.0), dt_nh, horizon))

    def one(case):
        kind, spec, dt, horizon = case
        n = max(int(np.floor(horizon / dt)), int(round(t_fixed / dt)))
        times = dt * np.arange(1, n + 1)
        if kind == "lindblad":
            series = lindblad_qfi_series(spec, times)
        else:
            series = nh_qfi_series(kind, spec, times,
                                   site_state(spec.L, middle_site(spec.L)))
        try:
            t_opt, peak = peak_qfi_over_t2(series)
            fq_opt = peak * t_opt**2
            boundary = False
        except PeakAtBoundary:
            t_opt, boundary = t_fixed, True
            fq_opt = float(np.interp(t_fixed, series.times, series.values))
        fq_fixed = float(np.interp(t_fixed, series.times, series.values))
        return t_opt, fq_opt, fq_fixed, boundary

    rows = []
    for case, (t_opt, fq_opt, fq_fixed, boundary) in zip(cases, _pmap(one, cases, threads)):
        kind, spec, _, _ = case
        phase = "localized" if spec.h >= 8.0 * spec.J / spec.L else "extended"
        rows.append(_tuple_row(kind, spec, t_opt, seed,
                               phase=phase, M=M,
                               t_opt=t_opt,
                               snr_topt=snr(spec.h, M, fq_opt),
                               snr_tfixed=snr(spec.h, M, fq_fixed),
                               fq_topt=fq_opt, fq_tfixed=fq_fixed,
                               no_interior_peak=boundary))
    return {"table1": rows}


EXPERIMENTS = {
    "lindblad-sweep": run_lindblad_sweep,
    "traj-validate": run_traj_validate,
    "hn-static": run_hn_static,
    "hn-dynamic": run_hn_dynamic,
    "uni-static": run_uni_static,
    "uni-dynamic": run_uni_dynamic,
    "table1": run_table1,
}
