import json
import os
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from starkprobe import cli, lindblad
from starkprobe.cli import main, run_from_config
from starkprobe.errors import NumericalError
from starkprobe.experiments import EXPERIMENTS, PARAMS, nh_qfi_series, resolve_params
from starkprobe.model import LatticeSpec


def write_config(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def read_rows(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


TINY_CONFIGS = {
    "lindblad-sweep": {"L": [4, 6], "gamma": [0.0, 0.05], "h": [0.1],
                       "t_max": 4.0, "dt": 1.0},
    "traj-validate": {"L": 4, "gamma": 0.02, "h": 0.1, "n_traj": 50,
                      "dt": 0.1, "times": [1.0, 2.0]},
    "hn-static": {"L": [12], "gamma": [0.05],
                  "h_grid": {"lo": 0.005, "hi": 0.2, "n": 8}},
    "hn-dynamic": {"L": [10], "gamma": 0.05, "h": [0.01], "t_max": 10.0, "dt": 0.5},
    "uni-static": {"L": [16], "states": ["ground"],
                   "h_grid": {"lo": 0.05, "hi": 0.6, "n": 8}},
    "uni-dynamic": {"L": [12], "h": [0.2], "sigma": 1.5, "t_max": 8.0, "dt": 0.5},
    "table1": {"L_lindblad": 6, "L_nh": 10, "t_max": 12.0, "t_fixed": 4.0,
               "lindblad_h": [0.3], "hn_h": [0.05], "uni_h": [0.3],
               "dt_lindblad": 1.0, "dt_nh": 0.5},
}


@pytest.mark.parametrize("experiment", sorted(TINY_CONFIGS))
def test_each_experiment_runs_and_writes_artifacts(tmp_path, experiment):
    cfg = write_config(tmp_path, {"experiment": experiment, "seed": 1,
                                  "params": TINY_CONFIGS[experiment]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == experiment
    assert manifest["seed"] == 1
    assert manifest["version"]
    assert manifest["outputs"]
    for filename, info in manifest["outputs"].items():
        target = out / filename
        assert target.exists()
        rows = read_rows(target)
        assert len(rows) == info["rows"]
        for row in rows:
            for column in ("formalism", "L", "J", "h", "gamma", "t", "seed"):
                assert column in row


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "traj-validate", "seed": 9,
        "params": TINY_CONFIGS["traj-validate"],
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b)]) == 0
    name = "traj_validate.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    assert man_a["outputs"] == man_b["outputs"]


# Two fields give the single-field dynamic configs two plan cases, so that
# threads: 3 runs them in the pool.  traj-validate ignores threads until
# ROADMAP item 8; it stays in the test for its row order.
THREAD_FIELDS = {"hn-dynamic": [0.01, 0.02], "uni-dynamic": [0.2, 0.3]}


@pytest.mark.parametrize("experiment", sorted(TINY_CONFIGS))
def test_thread_count_does_not_change_results(tmp_path, experiment):
    # Also pins the row order the plan executor keeps for each driver.
    params = dict(TINY_CONFIGS[experiment])
    if experiment in THREAD_FIELDS:
        params["h"] = THREAD_FIELDS[experiment]
    cfg = write_config(tmp_path, {"experiment": experiment, "seed": 3, "params": params})
    tables = {}
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        assert main(["run", str(cfg), "--out", str(out), "--threads", str(threads)]) == 0
        tables[threads] = {path.name: path.read_bytes() for path in out.glob("*.csv")}
    assert tables[1]
    assert tables[1] == tables[3]


def test_seed_override_changes_stochastic_output(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "traj-validate", "seed": 1,
        "params": TINY_CONFIGS["traj-validate"],
    })
    out_a, out_b = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b), "--seed", "2"]) == 0
    name = "traj_validate.csv"
    assert (out_a / name).read_bytes() != (out_b / name).read_bytes()


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_json_array_config(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text('[{"experiment": "table1"}]')
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "config error: config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_names_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"experiment": "table1", "out": "caf\xe9"}')
        assert main(["run", str(path)]) == 2
        assert f"config error: config file {path}" in capsys.readouterr().err

    def test_deeply_nested_config_names_path(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"params": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["run", str(path)]) == 2
        assert f"config error: config file {path} is not valid JSON" in capsys.readouterr().err

    def test_directory_as_config_names_path(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert f"config error: cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_out_is_existing_file_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "table1", "params": TINY_CONFIGS["table1"]})
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(cfg), "--out", str(taken)]) == 2
        assert f"config error: cannot use {taken} as output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["uni_dynamic.csv", "manifest.json"])
    def test_output_name_taken_by_directory_names_path(self, tmp_path, capsys, monkeypatch, name):
        cfg = write_config(tmp_path, {"experiment": "uni-dynamic",
                                      "params": TINY_CONFIGS["uni-dynamic"]})
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)

        def must_not_run(*args):
            raise AssertionError("experiment ran before the output check")

        monkeypatch.setitem(EXPERIMENTS, "uni-dynamic", must_not_run)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert f"config error: cannot write output {out / name}: it is a directory" in \
            capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "not-a-thing"})
        assert main(["run", str(cfg)]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_bad_param_type_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "lindblad-sweep",
            "params": {"t_max": "long"},
        })
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "t_max" in capsys.readouterr().err

    def test_bad_grid_constraint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "hn-static",
            "params": {"h_grid": {"lo": 0.5, "hi": 0.1, "n": 5}},
        })
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "h_grid" in err

    @pytest.mark.parametrize("key", ["extra", "param"])
    def test_unknown_top_level_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {"experiment": "table1", key: 1})
        assert main(["run", str(cfg)]) == 2
        assert f"config error: config.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seed", -4), ("seed", 2**64), ("seed", 1.0), ("threads", 0), ("threads", True),
        ("out", 5), ("params", [1]),
    ])
    def test_bad_top_level_value(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"experiment": "table1", key: value})
        assert main(["run", str(cfg)]) == 2
        assert f"config error: config.{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("grid, key", [
        ({"lo": "x"}, "h_grid.lo"),
        ({"n": 2.5}, "h_grid.n"),
    ])
    def test_bad_grid_value_names_nested_key(self, tmp_path, capsys, grid, key):
        cfg = write_config(tmp_path, {"experiment": "hn-static",
                                      "params": {"h_grid": grid}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"params.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, params, key", [
        ("lindblad-sweep", {"tmax": 500, "Ls": [9]}, "tmax"),
        ("lindblad-sweep", {"delta": 1e-5}, "delta"),
        ("hn-static", {"h_grid": {"lo": 0.01, "hi": 0.1, "steps": 5}}, "h_grid.steps"),
    ])
    def test_unknown_param_key_names_key(self, tmp_path, capsys, experiment, params, key):
        cfg = write_config(tmp_path, {"experiment": experiment, "params": params})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"params.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, change, message", [
        ("lindblad-sweep", {"L": [1]}, "L must be >= 2"),
        ("lindblad-sweep", {"gamma": [-0.1]}, "gamma must be >= 0"),
        ("traj-validate", {"h": -0.5}, "h must be >= 0"),
        ("table1", {"L_nh": 1}, "L_nh must be >= 2"),
        ("table1", {"hn_h": [-0.1]}, "hn_h must be >= 0"),
    ])
    def test_out_of_range_physics(self, tmp_path, capsys, experiment, change, message):
        cfg = write_config(tmp_path, {"experiment": experiment,
                                      "params": {**TINY_CONFIGS[experiment], **change}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        key, _, bound = message.partition(" ")
        assert f"config error: params.{key}: {bound}" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, change, key", [
        ("traj-validate", {"times": [0.35]}, "times"),
        ("traj-validate", {"times": [-1.0]}, "times"),
        ("traj-validate", {"times": [2.0, 1.0]}, "times"),
        ("traj-validate", {"gamma": 0.5, "dt": 0.5, "times": [1.0]}, "dt"),
        ("hn-dynamic", {"t_max": 0.2, "dt": 0.5}, "t_max"),
        ("hn-dynamic", {"t_max": 1.0, "dt": 0.5}, "t_max"),
        ("uni-dynamic", {"t_max": 0.2, "dt": 0.5}, "t_max"),
        ("lindblad-sweep", {"t_max": 0.5, "dt": 1.0}, "t_max"),
        ("lindblad-sweep", {"t_max": 10.0, "dt": 3.0}, "t_max"),
        # t_max below dt rounds to a grid of zero points
        ("lindblad-sweep", {"t_max": 1e-12, "dt": 1.0}, "t_max"),
        ("hn-dynamic", {"t_max": 1e-12, "dt": 1.0}, "t_max"),
        ("uni-dynamic", {"t_max": 1e-12, "dt": 1.0}, "t_max"),
        ("table1", {"t_max": 1.0, "t_fixed": 1.0, "dt_nh": 0.5}, "t_max"),
    ])
    def test_bad_time_grid_names_key(self, tmp_path, capsys, experiment, change, key):
        cfg = write_config(tmp_path, {"experiment": experiment,
                                      "params": {**TINY_CONFIGS[experiment], **change}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: params.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, change, key", [
        ("hn-static", {"state_index": 40}, "state_index"),
        ("hn-static", {"state_index": -1}, "state_index"),
        ("uni-static", {"states": [20]}, "states"),
        ("uni-static", {"states": [-1]}, "states"),
        ("hn-static", {"h_grid": [-0.1, 0.2, 0.3]}, "h_grid"),
        ("hn-static", {"h_grid": [0.3, 0.2, 0.1]}, "h_grid"),
        ("uni-static", {"h_grid": [0.0, 0.1, 0.2]}, "h_grid"),
        # packets whose peak underflows: 2 sigma^2 is 0, and the nearest
        # site lies half a site from the center L/2 at odd L
        ("uni-dynamic", {"sigma": 1e-300}, "sigma"),
        ("uni-dynamic", {"L": [9], "sigma": 0.01}, "sigma"),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, experiment, change, key):
        cfg = write_config(tmp_path, {"experiment": experiment,
                                      "params": {**TINY_CONFIGS[experiment], **change}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: params.{key}:" in capsys.readouterr().err

    def test_overflowing_number_names_key(self, tmp_path, capsys):
        # JSON reads 1e400 as inf
        cfg = tmp_path / "config.json"
        cfg.write_text('{"experiment": "lindblad-sweep", "params": {"t_max": 1e400}}')
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: params.t_max:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key", [
        (experiment, key) for experiment in PARAMS for key in PARAMS[experiment]])
    def test_wrong_type_names_key(self, tmp_path, capsys, experiment, key):
        cfg = write_config(tmp_path, {"experiment": experiment, "params": {key: "x"}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: params.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", sorted(PARAMS))
    def test_resolved_params_resolve_to_themselves(self, experiment):
        # the CLI resolves a config, and the driver resolves the result again
        resolved = resolve_params(experiment, {})
        assert resolve_params(experiment, resolved) == resolved
        assert json.loads(json.dumps(resolved)) == resolved

    def test_manifest_records_resolved_params(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "hn-static", "seed": 1,
                                      "params": {"L": [8], "gamma": [0.05],
                                                 "h_grid": {"lo": 0.01, "hi": 0.2, "n": 4}}})
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"] == {
            "L": [8], "gamma": [0.05], "state_index": None,
            "h_grid": {"lo": 0.01, "hi": 0.2, "n": 4, "scale": "log"}}
        # the manifest reruns as a config with the same CSV bytes
        again = write_config(tmp_path, {"experiment": "hn-static", "seed": 1,
                                        "params": manifest["params"]})
        assert main(["run", str(again), "--out", str(tmp_path / "r")]) == 0
        rerun = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert rerun["outputs"] == manifest["outputs"]


# Strong nonreciprocity makes the Hatano-Nelson eigenbasis too ill-conditioned
# to trust (condition number ~1e18 at L = 10): the eigensolver raises mid-run.
ILL_CONDITIONED = {**TINY_CONFIGS["hn-dynamic"], "gamma": 50.0}


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "hn-dynamic", "seed": 0,
                                  "params": ILL_CONDITIONED})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: ExceptionalPointProximity" in capsys.readouterr().err


def test_failing_rerun_leaves_no_manifest(tmp_path):
    out = tmp_path / "o"
    good = write_config(tmp_path, {"experiment": "hn-dynamic", "seed": 0,
                                   "params": TINY_CONFIGS["hn-dynamic"]})
    assert main(["run", str(good), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    bad = write_config(tmp_path, {"experiment": "hn-dynamic", "seed": 0,
                                  "params": ILL_CONDITIONED})
    assert main(["run", str(bad), "--out", str(out)]) == 3
    assert not (out / "manifest.json").exists()


# One config per cross-key check of a driver, each breaking only that check.
CROSS_KEY_FAULTS = {
    "table1": {"t_fixed": 0.3},  # below dt_lindblad
    "lindblad-sweep": {"t_max": 4.5},  # not a multiple of dt
    "traj-validate": {"gamma": 1.0},  # gamma*dt reaches MAX_DP_PER_STEP
    "hn-static": {"state_index": 12},  # outside 0..L-1
    "uni-dynamic": {"L": [9], "sigma": 0.01},  # the packet underflows
    "hn-dynamic": {"t_max": 1.0},  # two time points
}


@pytest.mark.parametrize("experiment", sorted(CROSS_KEY_FAULTS))
def test_cross_key_fault_touches_no_output(tmp_path, capsys, experiment):
    out = tmp_path / "o"
    good = write_config(tmp_path, {"experiment": experiment, "seed": 0,
                                   "params": TINY_CONFIGS[experiment]})
    assert main(["run", str(good), "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert json.loads(before["manifest.json"])["out"] == str(out)
    bad = write_config(tmp_path, {"experiment": experiment, "seed": 0,
                                  "params": {**TINY_CONFIGS[experiment],
                                             **CROSS_KEY_FAULTS[experiment]}})
    capsys.readouterr()
    assert main(["run", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: params.")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    fresh = tmp_path / "fresh" / "o"
    assert main(["run", str(bad), "--out", str(fresh)]) == 2
    assert not (tmp_path / "fresh").exists()


def test_memory_error_exits_3_without_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, {"experiment": "uni-dynamic", "seed": 0,
                                  "params": TINY_CONFIGS["uni-dynamic"]})
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    def out_of_memory(*args):
        def work():
            raise MemoryError("Unable to allocate 121. GiB for an array")
        return work

    monkeypatch.setitem(EXPERIMENTS, "uni-dynamic", out_of_memory)
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "numerical failure: MemoryError: Unable to allocate 121. GiB for an array\n"
    assert not (out / "manifest.json").exists()


def test_table1_unidirectional_zero_field(tmp_path, capsys):
    # h = 0 has no Bloch revival, so the unidirectional search horizon is
    # t_max.  The run then stops at the finite-difference step below h = 0,
    # which ROADMAP item 7 removes.
    cfg = write_config(tmp_path, {"experiment": "table1",
                                  "params": {**TINY_CONFIGS["table1"], "uni_h": [0.0]}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "ZeroDivisionError" not in err
    assert "h must be >= 0, got -1e-06" in err


def test_table1_fixed_time_between_grid_points(tmp_path):
    # t_fixed = 10.2 lies past the unidirectional horizon 0.95 pi / 0.3 = 9.95
    # and between two samples, so F(t_fixed) is interpolated between F(10)
    # and F(10.5), not read off F(10).
    cfg = write_config(tmp_path, {"experiment": "table1",
                                  "params": {**TINY_CONFIGS["table1"], "t_fixed": 10.2}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    row, = [r for r in read_rows(tmp_path / "o" / "table1.csv")
            if r["formalism"] == "unidirectional"]
    times = 0.5 * np.arange(1, 22)
    series = nh_qfi_series("unidirectional", LatticeSpec(10, 1.0, 0.3, 0.0), times)
    assert float(row["fq_tfixed"]) == pytest.approx(np.interp(10.2, times, series.values),
                                                    rel=1e-12)


@pytest.mark.parametrize("change, dt_key", [
    ({"t_fixed": 0.3}, "dt_lindblad"),
    ({"t_fixed": 0.8}, "dt_lindblad"),
    ({"t_fixed": 0.8, "dt_lindblad": 0.5, "dt_nh": 1.0}, "dt_nh"),
])
def test_table1_fixed_time_below_first_sample_names_key(tmp_path, capsys, change, dt_key):
    # Every series starts at its dt; an earlier t_fixed would read F(dt).
    cfg = write_config(tmp_path, {"experiment": "table1",
                                  "params": {**TINY_CONFIGS["table1"], **change}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: params.t_fixed:" in err
    assert f"params.{dt_key}" in err
    assert not (tmp_path / "o" / "table1.csv").exists()


@pytest.mark.parametrize("experiment, boundary", [("hn-static", "true"),
                                                  ("uni-static", "false")])
def test_static_maxima_flag_a_peak_on_the_grid_end(tmp_path, experiment, boundary):
    # The tiny hn-static scan peaks at its lower grid end, h = 0.005; the tiny
    # uni-static scan peaks inside its grid.
    params = TINY_CONFIGS[experiment]
    cfg = write_config(tmp_path, {"experiment": experiment, "params": params})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    row, = read_rows(tmp_path / "o" / f"{experiment.replace('-', '_')}_maxima.csv")
    assert list(row)[-1] == "peak_at_boundary"
    assert row["peak_at_boundary"] == boundary
    on_end = float(row["h_max"]) in (params["h_grid"]["lo"], params["h_grid"]["hi"])
    assert on_end == (boundary == "true")


def test_uni_static_below_the_finite_difference_step(tmp_path):
    # The closed form needs no field step, so fields below 1e-6 run.
    cfg = write_config(tmp_path, {"experiment": "uni-static", "params": {
        **TINY_CONFIGS["uni-static"], "h_grid": [1e-9, 1e-8, 1e-7]}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_uni_static_where_h_squared_underflows(tmp_path):
    # Past h^2 = 0 the QFI of state n keeps its limit 4 n^2 / J^2, with no
    # overflow, NaN or warning on the way.
    done = run_capped(tmp_path, "uni-static", {"h_grid": [1e-300, 1e-200, 1e-100]})
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    rows = read_rows(tmp_path / "o" / "uni_static.csv")
    assert len(rows) == 3
    for row in rows:
        n = int(row["state_index"])
        assert float(row["fq"]) == pytest.approx(4.0 * n**2, rel=1e-10)


def _until(item: int):
    return pytest.mark.xfail(strict=True, reason=f"the central difference steps below "
                                                 f"h = 0 until ROADMAP item {item} lands")


@pytest.mark.parametrize("experiment, change", [
    pytest.param("lindblad-sweep", {"gamma": [0.05], "h": [0.0]}, marks=_until(5)),
    pytest.param("hn-dynamic", {"h": [0.0]}, marks=_until(6)),
    pytest.param("uni-dynamic", {"h": [0.0]}, marks=_until(7)),
    pytest.param("table1", {"uni_h": [0.0]}, marks=_until(7)),
])
def test_zero_field_runs(tmp_path, experiment, change):
    cfg = write_config(tmp_path, {"experiment": experiment,
                                  "params": {**TINY_CONFIGS[experiment], **change}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


def run_capped(tmp_path, experiment, change):
    """Run a tiny config with ``change`` in a child capped at 3 GiB of address space."""
    cfg = write_config(tmp_path, {"experiment": experiment,
                                  "params": {**TINY_CONFIGS[experiment], **change}})
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    # The child caps its own address space at 3 GiB before it imports
    # anything, so no Python code runs between fork and exec.
    limited = ("import resource, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
               "from starkprobe.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", limited, "run", str(cfg),
                           "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)


# Boundary-sweep cases that once ended in a MemoryError traceback (exit 1).
# Each reaches its large allocation within about a second.
@pytest.mark.parametrize("experiment, change", [
    ("lindblad-sweep", {"dt": 1e-12}),  # 4e12 time points
    ("lindblad-sweep", {"L": [20000], "gamma": [0.05]}),  # a 5.96 GiB dense initial state
    ("hn-static", {"L": [20000]}),
    ("uni-dynamic", {"dt": 1e-12}),
])
def test_out_of_memory_exits_3_without_traceback(tmp_path, experiment, change):
    done = run_capped(tmp_path, experiment, change)
    assert done.returncode == 3, done.stderr
    assert "numerical failure: MemoryError" in done.stderr
    assert "Traceback" not in done.stderr


# Boundary-sweep cases of the trajectory keys.  A rate of 1e-300 never jumps;
# a field of 1e300 makes the one-step exponential NaN, which the no-jump norm
# check reports before any arithmetic on it can warn.
@pytest.mark.parametrize("change, code, message", [
    ({"gamma": 1e-300}, 0, ""),
    ({"h": 1e300}, 3, "numerical failure: NormCollapse: trajectory no-jump norm^2 = nan "
                      "at step 1 is below 1e-24\n"),
])
def test_trajectory_boundary_exits_cleanly(tmp_path, change, code, message):
    done = run_capped(tmp_path, "traj-validate", change)
    assert done.returncode == code, done.stderr
    assert done.stderr == message


# ---------------------------------------------------------------------------
# BLAS thread policy: one level of parallelism inside a run
# ---------------------------------------------------------------------------

BLAS = cli._openblas_libraries()
needs_openblas = pytest.mark.skipif(
    not BLAS, reason="no loaded OpenBLAS exposes a known thread-count symbol")
# Dense expm of the two mirror sectors (120 and 136) of a 256 x 256
# Liouvillian: large enough that its bytes depend on the OpenBLAS thread count
# when nothing holds it fixed (at L = 12 the sectors of 66 and 78 are not).
# The single time is t = 1000, a gap long enough that it goes dense: at t =
# 100 it goes by the Chebyshev action.
BLAS_SENSITIVE = {"L": [16], "gamma": [0.05], "h": [0.1], "t_max": 1000.0, "dt": 1000.0}
# A 784 x 784 Liouvillian, which propagates by the sparse Chebyshev action.
SPARSE_ACTION = {**BLAS_SENSITIVE, "L": [28]}
# The same on a 20-point grid, whose runs of short gaps go by Chebyshev
# windows: one matrix product combines each window's terms into its states.
SPARSE_GRID = {**SPARSE_ACTION, "t_max": 20.0, "dt": 1.0}


@pytest.mark.parametrize("params, dense", [(BLAS_SENSITIVE, True), (SPARSE_ACTION, False),
                                           (SPARSE_GRID, False)],
                         ids=["dense-expm", "sparse-action", "sparse-grid"])
def test_blas_cases_take_the_route_they_name(params, dense):
    # the cost model's choice for the one distinct gap of each case, so that
    # a change of its constants cannot make the cases run the same route
    spec = LatticeSpec(params["L"][0], 1.0, params["h"][0], params["gamma"][0])
    _, _, blocks = lindblad._sectors(spec)
    gap, uses = params["dt"], round(params["t_max"] / params["dt"])
    assert lindblad._dense_wins(blocks, lindblad._width(spec), Counter({gap: uses})) is dense


def blas_counts() -> dict:
    return {name: get() for name, (get, _) in BLAS.items()}


def set_blas(count: int) -> None:
    for _, set_ in BLAS.values():
        set_(count)


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS at 2 threads, the caller's counts put back afterwards."""
    before = blas_counts()
    set_blas(2)
    yield
    for name, (_, set_) in BLAS.items():
        set_(before[name])


@needs_openblas
@pytest.mark.parametrize("params", [TINY_CONFIGS["lindblad-sweep"], BLAS_SENSITIVE,
                                    SPARSE_ACTION, SPARSE_GRID],
                         ids=["tiny", "dense-expm", "sparse-action", "sparse-grid"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, monkeypatch, blas_at_two, params):
    seen, sweep = [], EXPERIMENTS["lindblad-sweep"]

    def recording(params, seed, threads):
        seen.append(blas_counts())
        return sweep(params, seed, threads)

    monkeypatch.setitem(EXPERIMENTS, "lindblad-sweep", recording)
    config = {"experiment": "lindblad-sweep", "seed": 3, "params": params}
    csv_bytes = []
    for count in (1, 2):
        set_blas(count)
        run_from_config(json.loads(json.dumps(config)), tmp_path / str(count))
        assert blas_counts() == dict.fromkeys(BLAS, count)
        csv_bytes.append((tmp_path / str(count) / "lindblad_sweep.csv").read_bytes())
    assert seen == [dict.fromkeys(BLAS, 1)] * 2
    assert csv_bytes[0] == csv_bytes[1]


@needs_openblas
def test_manifest_records_blas_policy(tmp_path, blas_at_two):
    cfg = write_config(tmp_path, {"experiment": "uni-dynamic",
                                  "params": TINY_CONFIGS["uni-dynamic"]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["blas_threads"] == {name: {"before": 2, "run": 1} for name in BLAS}


def test_manifest_records_missing_blas(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_openblas_libraries", dict)
    cfg = write_config(tmp_path, {"experiment": "uni-dynamic",
                                  "params": TINY_CONFIGS["uni-dynamic"]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["blas_threads"] == \
        "unchanged: no OpenBLAS with a known thread-count symbol is loaded"


def test_blas_libraries_are_found_once(tmp_path, monkeypatch):
    reads = []

    def counting_open(file, *args, **kwargs):
        reads.append(file)
        return open(file, *args, **kwargs)

    cli._openblas_libraries.cache_clear()
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    config = {"experiment": "uni-dynamic", "params": TINY_CONFIGS["uni-dynamic"]}
    first = run_from_config(dict(config), tmp_path / "1")
    second = run_from_config(dict(config), tmp_path / "2")
    assert first["blas_threads"] == second["blas_threads"]
    assert reads == ["/proc/self/maps"]


@needs_openblas
def test_blas_threads_restored_after_failing_run(tmp_path, monkeypatch, blas_at_two):
    seen = []

    def failing(params, seed, threads):
        seen.append(blas_counts())
        raise NumericalError("diverged")

    monkeypatch.setitem(EXPERIMENTS, "lindblad-sweep", failing)
    with pytest.raises(NumericalError):
        run_from_config({"experiment": "lindblad-sweep"}, tmp_path)
    assert seen == [dict.fromkeys(BLAS, 1)]
    assert blas_counts() == dict.fromkeys(BLAS, 2)


@needs_openblas
def test_nested_run_keeps_the_cap(tmp_path, monkeypatch, blas_at_two):
    seen = []

    def outer(params, seed, threads):
        run_from_config({"experiment": "uni-dynamic", "params": TINY_CONFIGS["uni-dynamic"]},
                        tmp_path / "inner")
        seen.append(blas_counts())
        return lambda: {"rows": [{"seed": seed}]}

    monkeypatch.setitem(EXPERIMENTS, "lindblad-sweep", outer)
    manifest = run_from_config({"experiment": "lindblad-sweep"}, tmp_path / "outer")
    inner = json.loads((tmp_path / "inner" / "manifest.json").read_text())
    assert seen == [dict.fromkeys(BLAS, 1)]
    # the inner run reports the counts the outer run found, not its own cap
    assert inner["blas_threads"] == manifest["blas_threads"] == \
        {name: {"before": 2, "run": 1} for name in BLAS}
    assert blas_counts() == dict.fromkeys(BLAS, 2)


@needs_openblas
def test_concurrent_runs_share_one_cap(tmp_path, monkeypatch, blas_at_two):
    # Both runs enter, then seed 1 leaves first: seed 2 must still run at
    # one thread, and the counts come back only when the last run leaves.
    both_inside = threading.Barrier(2)
    first_left = threading.Event()
    seen = {}

    def runner(params, seed, threads):
        both_inside.wait(timeout=30)
        if seed == 2:
            assert first_left.wait(timeout=30)
        seen[seed] = blas_counts()
        return lambda: {"rows": [{"seed": seed}]}

    def run(seed):
        run_from_config({"experiment": "lindblad-sweep", "seed": seed}, tmp_path / str(seed))
        if seed == 1:
            seen["between"] = blas_counts()
            first_left.set()

    monkeypatch.setitem(EXPERIMENTS, "lindblad-sweep", runner)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(run, seed) for seed in (1, 2)]:
            future.result()
    capped = dict.fromkeys(BLAS, 1)
    assert seen == {1: capped, "between": capped, 2: capped}
    assert blas_counts() == dict.fromkeys(BLAS, 2)


@needs_openblas
def test_many_concurrent_runs_restore_once(tmp_path, monkeypatch, blas_at_two):
    # More threads than cores and frequent switches: a lost update of the
    # entry count would restore the counts mid-run or never.
    seen = []

    def runner(params, seed, threads):
        seen.append(blas_counts())
        return lambda: {"rows": [{"seed": seed}]}

    def runs(worker):
        for i in range(25):
            run_from_config({"experiment": "lindblad-sweep", "seed": i},
                            tmp_path / f"{worker}-{i}")

    monkeypatch.setitem(EXPERIMENTS, "lindblad-sweep", runner)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(runs, worker) for worker in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [dict.fromkeys(BLAS, 1)] * 200
    assert blas_counts() == dict.fromkeys(BLAS, 2)
