"""Metric definitions: end-to-end names and the per-layer spans and counts.

Layers are the starkprobe modules below plus ``kernel``, the scipy/numpy
calls the layers make.  Which end-to-end metric each layer metric should move,
and on which workload:

- cli.run_from_config.self_s (CSV + manifest write): wall_s on dephasing-grid,
  which writes the most rows.
- experiments.*.self_s (finite-difference glue): wall_s on every workload but
  trajectory.
- lindblad.build_liouvillian: wall_s on both dephasing workloads.
- lindblad.propagate (matvecs, positivity checks): wall_s on dephasing-grid.
- trajectory.*: wall_s on trajectory only.
- spectral.*, nh.*: wall_s and cpu_s on nonhermitian.
- metrology.qfi_mixed: 100 calls per series on dephasing-grid, 1 on
  dephasing-point.
- kernel.expm (n3_sum = sum of n^3 over calls, a work proxy): wall_s and
  peak_rss_mb on dephasing-point, where it dominates, and on dephasing-grid.
- kernel.eig: dominates on nonhermitian.
"""

from __future__ import annotations

import importlib

from tracer import KERNELS, public_functions

LAYERS = ("cli", "experiments", "model", "lindblad", "trajectory", "spectral",
          "nh", "metrology", "analysis")

# (name, unit, better); work counts are "lower": less work for the same output.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _timed(span, *fields):
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{span}.{f}", units[f], "lower") for f in fields]


PER_LAYER = [
    *_timed("cli.run_from_config", "calls", "s", "self_s"),
    *_timed("experiments.lindblad_qfi_series", "calls", "s", "self_s"),
    *_timed("experiments.nh_qfi_series", "calls", "s", "self_s"),
    *_timed("experiments.static_qfi_scan", "calls", "s", "self_s"),
    *_timed("experiments.refine_peak", "calls", "s"),
    *_timed("model.build", "calls", "s"),
    *_timed("lindblad.build_liouvillian", "calls", "s"),
    *_timed("lindblad.propagate", "calls", "s", "self_s"),
    ("lindblad.states", "count", "lower"),
    ("lindblad.propagator_reuse", "ratio", "higher"),
    *_timed("lindblad.trace_distance", "calls", "s"),
    *_timed("trajectory.run_ensemble", "calls", "s"),
    ("trajectory.steps", "count", "lower"),
    ("trajectory.steps_per_s", "1/s", "higher"),
    *_timed("spectral.eig_biorthogonal", "calls", "s"),
    *_timed("spectral.eig_hermitian", "calls", "s"),
    *_timed("spectral.unidirectional_eigvec_normalized", "calls", "s"),
    *_timed("nh.evolve_nh_series", "calls", "s"),
    *_timed("nh.evolve_nh_grid", "calls", "s"),
    ("nh.grid_steps", "count", "lower"),
    *_timed("metrology.qfi_mixed", "calls", "s"),
    *_timed("metrology.qfi_pure_batch", "calls", "s"),
    ("metrology.rank_deficient_frac", "ratio", "lower"),
    *_timed("analysis.peak_qfi_over_t2", "calls", "s"),
    *_timed("kernel.expm", "calls", "s"),
    ("kernel.expm.n3_sum", "count", "lower"),
    *_timed("kernel.eig", "calls", "s"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def wrappers(tracer):
    """Original function -> traced wrapper, for every layer function and kernel."""
    def propagated(args, result):
        tracer.count("lindblad.states", len(result))

    def expm_done(args, result):
        n = args["A"].shape[0]
        tracer.count("kernel.expm.n3_sum", float(n) ** 3)
        if tracer.current() == "lindblad.propagate":
            tracer.count("lindblad.propagate.expm_calls")

    def ensemble_done(args, result):
        cfg, times = args["cfg"], args["times"]
        tracer.count("trajectory.steps",
                     cfg.n_traj * max(round(t / cfg.dt) for t in times))

    def grid_done(args, result):
        times = args["times"]
        if len(times):
            dt = times[0] if len(times) == 1 else times[1] - times[0]
            tracer.count("nh.grid_steps", round(times[-1] / dt))

    def sld_done(args, result):
        if "rank-deficient" in result[0].condition_flags:
            tracer.count("metrology.rank_deficient")

    after = {
        "lindblad.propagate": propagated,
        "trajectory.run_ensemble": ensemble_done,
        "nh.evolve_nh_grid": grid_done,
        "metrology.qfi_mixed": sld_done,
    }
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"starkprobe.{layer}")
        for name, fn in public_functions(module).items():
            span = f"{layer}.{name}"
            out[fn] = tracer.wrap(span, fn, after.get(span))
    for (module, attr), span in KERNELS.items():
        fn = getattr(module, attr)
        out[fn] = tracer.wrap(span, fn, expm_done if span == "kernel.expm" else None)
    return out


def per_layer(tracer):
    """Per-layer metric values from one traced pass (trace.overhead_s excluded)."""
    calls, seconds = dict(tracer.calls), dict(tracer.seconds)
    self_s, counts = tracer.self_seconds, tracer.counts
    # model.build sums every build_* generator.
    for table in (calls, seconds):
        table["model.build"] = sum(v for k, v in table.items()
                                   if k.startswith("model.build_"))
    values = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls.get(span, 0)
        elif field == "s":
            values[name] = seconds.get(span, 0.0)
        elif field == "self_s":
            values[name] = self_s.get(span, 0.0)
    expm_in_propagate = counts.get("lindblad.propagate.expm_calls", 0.0)
    run_s = seconds.get("trajectory.run_ensemble", 0.0)
    qfi_calls = calls.get("metrology.qfi_mixed", 0)
    values.update({
        "lindblad.states": counts.get("lindblad.states", 0.0),
        "lindblad.propagator_reuse": (counts.get("lindblad.states", 0.0) / expm_in_propagate
                                      if expm_in_propagate else 0.0),
        "trajectory.steps": counts.get("trajectory.steps", 0.0),
        "trajectory.steps_per_s": (counts.get("trajectory.steps", 0.0) / run_s
                                   if run_s else 0.0),
        "nh.grid_steps": counts.get("nh.grid_steps", 0.0),
        "metrology.rank_deficient_frac": (counts.get("metrology.rank_deficient", 0.0) / qfi_calls
                                          if qfi_calls else 0.0),
        "kernel.expm.n3_sum": counts.get("kernel.expm.n3_sum", 0.0),
    })
    return values


# Tracer self-test: tiny configs whose span counts are known analytically.
# S is the number of series, n_t the number of time points per series.
def selftest_cases():
    cases = []
    S, n_t = 2, 3
    cases.append(({"experiment": "lindblad-sweep", "seed": 0, "threads": 2,
                   "params": {"L": [4], "gamma": [0.02], "h": [0.1, 0.2],
                              "t_max": 3.0, "dt": 1.0}},
                  {"cli.run_from_config.calls": 1,
                   "experiments.lindblad_qfi_series.calls": S,
                   "lindblad.propagate.calls": 3 * S,
                   "lindblad.build_liouvillian.calls": 3 * S,
                   "model.build.calls": 2 * 3 * S,  # build_stark + build_dephasing_ops
                   "metrology.qfi_mixed.calls": S * n_t,
                   "lindblad.states": 3 * S * n_t,
                   "lindblad.propagator_reuse": n_t,
                   "kernel.expm.calls": 3 * S,
                   "kernel.expm.n3_sum": 3 * S * 16 ** 3}))
    n_h = 5
    cases.append(({"experiment": "hn-static", "seed": 0, "threads": 2,
                   "params": {"L": [6], "gamma": [0.05],
                              "h_grid": {"lo": 1e-3, "hi": 1e-1, "n": n_h}}},
                  {"experiments.static_qfi_scan.calls": 1,
                   "experiments.refine_peak.calls": 1,
                   "spectral.eig_biorthogonal.calls": 3 * n_h,
                   "model.build.calls": 3 * n_h,
                   "kernel.eig.calls": 3 * n_h}))
    n_t = 4
    cases.append(({"experiment": "hn-dynamic", "seed": 0, "threads": 1,
                   "params": {"L": [6], "gamma": 0.05, "h": [0.1], "t_max": 2.0, "dt": 0.5}},
                  {"experiments.nh_qfi_series.calls": 1,
                   "nh.evolve_nh_series.calls": 3,
                   "spectral.eig_biorthogonal.calls": 3,
                   "model.build.calls": 3,  # looked up through experiments._BUILDERS
                   "metrology.qfi_pure_batch.calls": 1,
                   "analysis.peak_qfi_over_t2.calls": 1}))
    cases.append(({"experiment": "uni-dynamic", "seed": 0, "threads": 1,
                   "params": {"L": [6], "h": [0.1], "t_max": 2.0, "dt": 0.5}},
                  {"nh.evolve_nh_grid.calls": 3,
                   "nh.grid_steps": 3 * n_t,
                   "kernel.expm.calls": 3}))
    n_traj, steps = 8, 20
    cases.append(({"experiment": "traj-validate", "seed": 0, "threads": 1,
                   "params": {"L": 4, "gamma": 0.02, "h": 0.05, "n_traj": n_traj,
                              "dt": 0.1, "times": [1.0, 2.0]}},
                  {"trajectory.run_ensemble.calls": 1,
                   "trajectory.steps": n_traj * steps,
                   "lindblad.propagate.calls": 1,
                   "lindblad.trace_distance.calls": 2,
                   "kernel.expm.calls": 2}))  # ensemble step + one Liouvillian gap
    return cases
