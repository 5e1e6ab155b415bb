"""Experiment runner.

``starkprobe run <config.json> [--out DIR] [--threads N] [--seed S]`` executes
one named experiment and writes one CSV per output table plus a manifest with
the fully resolved configuration, defaults included.  One resolver checks the
top-level keys and the params; an error names its key (``params.h_grid.lo``).
The config is resolved once and the experiment planned before the output
directory is touched, so a config error writes nothing.
Identical config and seed reproduce every CSV byte for byte; the manifest,
written last, marks completion.

``threads`` is the only parallelism: while a run executes, every loaded
OpenBLAS is held at one thread, so task threads do not compete with BLAS
threads for the cores, and CSV bytes do not depend on
``OPENBLAS_NUM_THREADS``.  The previous count is put back when the run ends,
and the manifest's ``blas_threads`` records what was capped.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (including
running out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import hashlib
import json
import sys
import threading
import time
from pathlib import Path

from . import __version__
from .errors import ConfigError, NumericalError
from .experiments import EXPERIMENTS, _one_of, _resolve, _scalar, resolve_params

__all__ = ["main", "run_from_config"]


def _load_config(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc.reason}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _instance(kind, what: str):
    def check(value, key: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{key}: expected {what}, got {value!r}")
        return value
    return check


# Every top-level key as (default, check), resolved like the params.  The
# experiment is checked first; the params are then resolved against its table.
_CONFIG = {
    "experiment": (None, _one_of(*sorted(EXPERIMENTS))),
    "params": ({}, _instance(dict, "an object")),
    "seed": (0, _scalar(int, least=0, most=2**64 - 1)),
    "threads": (1, _scalar(int, least=1)),
    "out": (None, _instance((str, type(None)), "a string path")),
}


def _validate(config: dict) -> dict:
    resolved = _resolve(config, _CONFIG, "config")
    resolved["params"] = resolve_params(resolved["experiment"], resolved["params"])
    return resolved


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, rows: list[dict]) -> str:
    fields = list(rows[0].keys()) if rows else []
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_value(row[k]) for k in fields])
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Thread-count entry points of the OpenBLAS that numpy and scipy each bundle,
# and of a plain OpenBLAS, looked up the way threadpoolctl does
# (https://github.com/joblib/threadpoolctl).
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads")
_blas_lock = threading.Lock()
_blas = {"entries": 0, "saved": {}}  # saved: {file name: (count before, set)}


@functools.cache
def _openblas_libraries() -> dict:
    """``{file name: (get, set)}`` of each loaded OpenBLAS with a known symbol pair.

    Cached: the memory map is read on the first call only.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        symbol = next((s for s in _OPENBLAS_SYMBOLS if hasattr(lib, s.format("get"))
                       and hasattr(lib, s.format("set"))), None)
        if symbol is not None:
            get, set_ = getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found[Path(path).name] = (get, set_)
    return found


@contextlib.contextmanager
def _single_threaded_blas():
    """Hold every loaded OpenBLAS at one thread; yield ``{name: count before}``.

    Nested and concurrent entries share one cap: the first entry saves the
    counts and caps them, and the last exit restores what the first saw.
    The libraries are looked up on the first run of the process, not at
    import, and reused by every later run: numpy and scipy load theirs when
    this module is imported, so a run does not load a new one.
    """
    with _blas_lock:
        if _blas["entries"] == 0:
            _blas["saved"] = {name: (get(), set_)
                              for name, (get, set_) in _openblas_libraries().items()}
            for _, set_ in _blas["saved"].values():
                set_(1)
        _blas["entries"] += 1
        before = {name: count for name, (count, _) in _blas["saved"].items()}
    try:
        yield before
    finally:
        with _blas_lock:
            _blas["entries"] -= 1
            if _blas["entries"] == 0:
                for count, set_ in _blas["saved"].values():
                    set_(count)


def run_from_config(config: dict, out_dir: Path | None) -> dict:
    """Resolve and plan ``config``, run it, write CSVs + manifest, return the manifest.

    The one place a config is resolved.  ``out_dir`` of None means the
    config's ``out``, or else ``runs/<experiment>``.  Every ConfigError, of
    one key or across keys, is raised while the experiment plans, before
    ``out_dir`` is created or its old manifest deleted.
    """
    resolved = _validate(config)
    out_dir = Path(out_dir or resolved["out"] or f"runs/{resolved['experiment']}")
    # Checked before the run, so a taken output name fails fast instead of
    # after the whole experiment.
    for path in [out_dir / "manifest.json", *sorted(out_dir.glob("*.csv"))]:
        if path.is_dir():
            raise ConfigError(f"cannot write output {path}: it is a directory")

    started = time.time()
    with _single_threaded_blas() as blas_before:
        work = EXPERIMENTS[resolved["experiment"]](resolved["params"], resolved["seed"],
                                                   resolved["threads"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {out_dir} as output directory: "
                              f"{exc.strerror}") from exc
        # A stale marker would make a rerun that fails midway look complete.
        (out_dir / "manifest.json").unlink(missing_ok=True)
        tables = work()
    runtime = time.time() - started

    outputs = {}
    for name, rows in tables.items():
        filename = f"{name}.csv"
        digest = _write_csv(out_dir / filename, rows)
        outputs[filename] = {"rows": len(rows), "sha256": digest}

    manifest = {
        "experiment": resolved["experiment"],
        "out": str(out_dir),
        "params": resolved["params"],
        "seed": resolved["seed"],
        "threads": resolved["threads"],
        "version": __version__,
        "runtime_seconds": runtime,
        "outputs": outputs,
        "blas_threads": ({name: {"before": count, "run": 1}
                          for name, count in blas_before.items()}
                         or "unchanged: no OpenBLAS with a known thread-count symbol is loaded"),
    }
    # Manifest lands last: its presence marks a completed run.
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="starkprobe",
        description="Gradient-field probe experiments: Fisher information under "
                    "dephasing and non-Hermitian dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("config", type=Path, help="path to the experiment config")
    run.add_argument("--out", type=Path, default=None, help="output directory")
    run.add_argument("--threads", type=int, default=None,
                     help="parallel workers (results are independent of this)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")

    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.threads is not None:
            config["threads"] = args.threads
        if args.seed is not None:
            config["seed"] = args.seed
        manifest = run_from_config(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, MemoryError, OverflowError, ValueError, ZeroDivisionError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    out_dir = manifest["out"]
    for filename, info in manifest["outputs"].items():
        print(f"wrote {out_dir}/{filename} ({info['rows']} rows)")
    print(f"wrote {out_dir}/manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
