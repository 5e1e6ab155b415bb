"""Experiment runner.

``starkprobe run <config.json> [--out DIR] [--threads N] [--seed S]`` executes
one named experiment and writes one CSV per output table plus a manifest with
the fully resolved configuration, defaults included.  Identical config and
seed reproduce every CSV byte for byte; the manifest, written last, marks
completion.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ConfigError, NumericalError
from .experiments import EXPERIMENTS, resolve_params

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


def _validate(config: dict) -> dict:
    experiment = config.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(
            f"config.experiment: expected one of {known}, got {experiment!r}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config.params: expected an object")
    params = resolve_params(experiment, params)
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("config.seed: expected an unsigned 64-bit integer")
    threads = config.get("threads", 1)
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError("config.threads: expected an integer >= 1")
    out = config.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("config.out: expected a string path")
    known_keys = {"experiment", "params", "seed", "threads", "out"}
    unknown = set(config) - known_keys
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {"experiment": experiment, "params": params, "seed": seed,
            "threads": threads, "out": out}


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


def run_from_config(config: dict, out_dir: Path) -> dict:
    """Execute a validated config, write CSVs + manifest, return the manifest."""
    resolved = _validate(config)
    runner = EXPERIMENTS[resolved["experiment"]]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out_dir} as output directory: {exc.strerror}") from exc
    # Checked before the run, so a taken output name fails fast instead of
    # after the whole experiment.
    for path in [out_dir / "manifest.json", *sorted(out_dir.glob("*.csv"))]:
        if path.is_dir():
            raise ConfigError(f"cannot write output {path}: it is a directory")
    # A stale marker would make a rerun that fails midway look complete.
    (out_dir / "manifest.json").unlink(missing_ok=True)

    started = time.time()
    tables = runner(resolved["params"], resolved["seed"], resolved["threads"])
    runtime = time.time() - started

    outputs = {}
    for name, rows in tables.items():
        filename = f"{name}.csv"
        digest = _write_csv(out_dir / filename, rows)
        outputs[filename] = {"rows": len(rows), "sha256": digest}

    manifest = {
        "experiment": resolved["experiment"],
        "params": resolved["params"],
        "seed": resolved["seed"],
        "threads": resolved["threads"],
        "version": __version__,
        "runtime_seconds": runtime,
        "outputs": outputs,
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
        resolved = _validate(config)
        out_dir = args.out or Path(resolved["out"] or f"runs/{resolved['experiment']}")
        manifest = run_from_config(config, Path(out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError, ValueError, ZeroDivisionError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for filename, info in manifest["outputs"].items():
        print(f"wrote {out_dir}/{filename} ({info['rows']} rows)")
    print(f"wrote {out_dir}/manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
