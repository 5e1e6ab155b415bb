"""starkprobe benchmark: time to a verified QFI table on four seeded workloads.

Run from the root of a starkprobe checkout:

    python3 perfbench/run.py --workload dephasing-grid --seed 1 --seconds 15 --trace 0

The program under test is ``src/starkprobe`` of that checkout, driven
in-process through ``starkprobe.cli.run_from_config``; outputs go to a
scratch directory under ``.bench_work/`` that is removed on exit.

``--trace 0`` measures the end-to-end metrics with tracing off:

- wall_s: seconds per workload pass, first config submitted to last manifest
  written (median over the passes of the run);
- cpu_s: process user+sys seconds per pass (median);
- setup_s: ``import starkprobe.cli`` in a fresh interpreter (median of
  several);
- peak_rss_mb: peak resident memory of the benchmark process after the
  passes;
- failed_frac (printed, and carried by ``failed``/``attempted``): runs that
  raised or failed a correctness check over runs attempted.

Passes repeat until ``--seconds`` have elapsed, and at least twice, so that
every run also checks that the same seed gives byte-identical CSVs.

``--trace 1`` runs the tracer self-test, then alternates untraced and traced
passes for ``--seconds``, then makes one pass with another seed (same row
counts, other field values), and reports the per-layer metrics (see
metrics.py, medians over the traced passes) with the tracing overhead
trace.overhead_s, the median traced-minus-untraced wall time of the pairs.

Every run checks the outputs against independent oracles (oracles.py)
outside the timed region, and checks that the oracles reject corrupted
results.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import metrics
import oracles
import tracer
import workloads

SETUP_SAMPLES = 3
SETUP_CODE = ("import time; t = time.perf_counter(); import starkprobe.cli; "
              "print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# Machine block
# ---------------------------------------------------------------------------

def _openblas_threads():
    """Thread count of each loaded OpenBLAS, as the library reports it."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return out
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def measure_setup(root):
    """Seconds to ``import starkprobe.cli`` in fresh interpreters (one warm-up)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples[1:]


def _value(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_tables(out_dir, manifest):
    tables = {}
    for filename in manifest["outputs"]:
        with open(out_dir / filename, newline="") as fh:
            tables[filename[:-4]] = [{k: _value(v) for k, v in row.items()}
                                     for row in csv.DictReader(fh)]
    return tables


def digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Pass:
    """One pass over a workload's configs: timings, digests and the first tables."""

    def __init__(self, cli, configs, work, keep_tables=False):
        out = Path(tempfile.mkdtemp(dir=work))
        results = []
        wall0, cpu0 = perf_counter(), process_time()
        for i, cfg in enumerate(configs):
            try:
                results.append(cli.run_from_config(json.loads(json.dumps(cfg)), out / str(i)))
            except Exception:  # a failed run is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                results.append(None)
        self.wall = perf_counter() - wall0
        self.cpu = process_time() - cpu0
        self.digests = [digest(out / str(i)) if m is not None else None
                        for i, m in enumerate(results)]
        self.tables = [read_tables(out / str(i), m) if m is not None and keep_tables else None
                       for i, m in enumerate(results)]
        shutil.rmtree(out)


def verify(configs, passes):
    """Failed-run count over all passes, and messages.

    A run fails when it raised, when its CSV bytes differ from the first
    pass, or when the first pass's tables fail the oracle for its config.
    Also checks that each oracle rejects corrupted copies of the tables.
    """
    failed, notes, selftest_ok = 0, [], True
    first = passes[0]
    for i, cfg in enumerate(configs):
        bad = first.tables[i] is None
        if bad:
            notes.append(f"config {i} ({cfg['experiment']}): raised")
        else:
            ref = oracles.reference(cfg)
            problems = oracles.check(cfg, first.tables[i], ref)
            for p in problems[:5]:
                notes.append(f"config {i} ({cfg['experiment']}): {p}")
            bad = bool(problems)
            for label, corrupted in oracles.perturbations(cfg, first.tables[i]):
                if not oracles.check(cfg, corrupted, ref):
                    selftest_ok = False
                    notes.append(f"oracle self-test: {cfg['experiment']} accepted "
                                 f"a corrupted result ({label})")
        for k, p in enumerate(passes):
            if bad or p.digests[i] is None or p.digests[i] != first.digests[i]:
                failed += 1
                if k and not bad:
                    notes.append(f"config {i} pass {k}: CSV bytes differ from pass 0")
    return failed, notes, selftest_ok


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _spread(values):
    return (f"median {statistics.median(values):.6g} (n={len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


def run_untraced(args, root, work, cli):
    setup = measure_setup(root)
    configs = workloads.configs(args.workload, args.seed)
    passes = []
    deadline = perf_counter() + args.seconds
    while len(passes) < 2 or perf_counter() < deadline:
        passes.append(Pass(cli, configs, work, keep_tables=not passes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, notes, selftest_ok = verify(configs, passes)
    attempted = len(configs) * len(passes)

    walls, cpus = [p.wall for p in passes], [p.cpu for p in passes]
    print(f"workload {args.workload} seed {args.seed}: {len(configs)} configs x "
          f"{len(passes)} passes")
    print(f"  wall_s       {_spread(walls)} s")
    print(f"  cpu_s        {_spread(cpus)} s")
    print(f"  setup_s      {_spread(setup)} s")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB (n=1)")
    print(f"  failed_frac  {failed / attempted:.6g} ({failed} of {attempted} runs)")
    values = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
              "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
    return attempted, failed, selftest_ok, notes, values


def tracer_selftest(cli):
    """Span counts on tiny configs against their analytic values."""
    notes = []
    spans = tracer.Tracer()
    wrapped = metrics.wrappers(spans)
    work = Path(tempfile.mkdtemp())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # frequent thread switches stress the shared totals
    try:
        for i, (cfg, expected) in enumerate(metrics.selftest_cases()):
            spans.reset()
            try:
                with spans.install(wrapped):
                    cli.run_from_config(cfg, work / str(i))
            except Exception as exc:  # reported as a failed self-test
                notes.append(f"tracer self-test {cfg['experiment']}: raised {exc!r}")
                continue
            got = metrics.per_layer(spans)
            for name, want in expected.items():
                if got[name] != want:
                    notes.append(f"tracer self-test {cfg['experiment']}: {name} = "
                                 f"{got[name]}, expected {want}")
    finally:
        sys.setswitchinterval(interval)
        shutil.rmtree(work)
    return notes


def run_traced(args, root, work, cli):
    notes = tracer_selftest(cli)
    configs = workloads.configs(args.workload, args.seed)

    # Untraced and traced passes alternate, so the overhead is a paired difference.
    spans = tracer.Tracer()
    wrapped = metrics.wrappers(spans)
    untraced, traced, layer_values = [], [], []
    deadline = perf_counter() + args.seconds
    while not traced or perf_counter() < deadline:
        untraced.append(Pass(cli, configs, work, keep_tables=not untraced))
        spans.reset()
        with spans.install(wrapped):
            traced.append(Pass(cli, configs, work))
        layer_values.append(metrics.per_layer(spans))

    # Another seed: other field values (or samples), same row counts.
    other_seed = args.seed + 1
    other_configs = workloads.configs(args.workload, other_seed)
    other = Pass(cli, other_configs, work, keep_tables=True)
    column = workloads.WORKLOADS[args.workload].seeded_column
    for i, (a, b) in enumerate(zip(untraced[0].tables, other.tables)):
        if a is None or b is None:
            continue
        if {k: len(v) for k, v in a.items()} != {k: len(v) for k, v in b.items()}:
            notes.append(f"config {i}: seed {other_seed} changed the row counts")
        if all(sorted(r.get(column) for r in a[t]) == sorted(r.get(column) for r in b[t])
               for t in a if column in a[t][0]):
            notes.append(f"config {i}: seed {other_seed} left column {column!r} unchanged")

    failed, check_notes, selftest_ok = verify(configs, untraced + traced)
    failed += sum(t is None for t in other.tables)
    attempted = len(configs) * (len(untraced) + len(traced)) + len(other_configs)
    notes += check_notes

    values = {name: statistics.median(v[name] for v in layer_values)
              for name in layer_values[0]}
    values["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in zip(untraced, traced))
    print(f"workload {args.workload} seed {args.seed} (traced): {len(traced)} pairs of "
          f"untraced/traced passes, wall {_spread([p.wall for p in untraced])} s untraced, "
          f"{_spread([p.wall for p in traced])} s traced")
    return attempted, failed, selftest_ok and not notes, notes, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "starkprobe" / "cli.py").is_file():
        print(f"no starkprobe source under {root / 'src'}; run from the root of a "
              "starkprobe checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from starkprobe import cli

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    tempfile.tempdir = str(work)
    try:
        print("machine " + json.dumps(machine(), sort_keys=True))
        mode = run_traced if args.trace else run_untraced
        attempted, failed, checks_ok, notes, values = mode(args, root, work, cli)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    for note in notes:
        print(f"  check: {note}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {metrics.UNITS[name]}")
    result = {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
