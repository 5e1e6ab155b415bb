import json
from pathlib import Path

import pytest

from starkprobe.cli import main
from starkprobe.experiments import PARAMS, resolve_params


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


def test_thread_count_does_not_change_results(tmp_path):
    base = {"experiment": "lindblad-sweep", "seed": 3,
            "params": TINY_CONFIGS["lindblad-sweep"]}
    cfg = write_config(tmp_path, base)
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert main(["run", str(cfg), "--out", str(out_serial), "--threads", "1"]) == 0
    assert main(["run", str(cfg), "--out", str(out_parallel), "--threads", "4"]) == 0
    name = "lindblad_sweep.csv"
    assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()


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

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "table1", "extra": 1})
        assert main(["run", str(cfg)]) == 2

    def test_bad_seed(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "table1", "seed": -4})
        assert main(["run", str(cfg)]) == 2

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
    ])
    def test_out_of_range_physics(self, tmp_path, capsys, experiment, change, message):
        cfg = write_config(tmp_path, {"experiment": experiment,
                                      "params": {**TINY_CONFIGS[experiment], **change}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

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
