"""Command-line surface: workflows, outputs, exit codes."""

import json

import numpy as np
import pytest

from shipems.cli import main
from shipems.io import save_scenario, synth_scenario


@pytest.fixture()
def small_scenario(tmp_path):
    doc = synth_scenario(seed=3, n_loads=3, n_generators=2, n_storage=2,
                         steps=16, outage_s=3.0, horizon_steps=8)
    path = tmp_path / "mission.yaml"
    save_scenario(doc, path)
    return path


def test_synth_then_validate(tmp_path, capsys):
    out = tmp_path / "synth.yaml"
    rc = main(["synth", "--seed", "9", "--loads", "4", "--gens", "2",
               "--storage", "2", "--steps", "20", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    rc = main(["validate", "--scenario", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "schema OK" in text
    assert "loads=4" in text


def test_validate_bad_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("""
loads:
  - {id: L1, rated_mw: 4.0, weight: 1.0}
storage:
  - {id: B1, class: battery, p_min_mw: -5.0, p_max_mw: 5.0,
     ramp_down_mw_s: -5.0, ramp_up_mw_s: 5.0, capacity_mj: 100.0,
     soc_min: 0.9, soc_max: 0.5}
demand:
  constant: {L1: 1.0}
steps: 4
""")
    rc = main(["validate", "--scenario", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "storage[0]" in err


def test_run_rho_writes_bundle(small_scenario, tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(["run", "--scenario", str(small_scenario), "--mode", "rho",
               "--np", "8", "--weights", "0.005,0.02,0.05",
               "--deadline-ms", "400", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "max_step=" in text
    summary = json.loads((out / "rho" / "summary.json").read_text())
    assert summary["mode"] == "rho"
    assert summary["horizon"] == 8
    assert (out / "rho" / "trajectory.csv").exists()


def test_run_fho_defaults_from_file(small_scenario, tmp_path):
    out = tmp_path / "results"
    rc = main(["run", "--scenario", str(small_scenario), "--mode", "fho",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "fho" / "summary.json").read_text())
    assert summary["steps"] == 16


def test_run_fho_honours_the_deadline(small_scenario, tmp_path, capsys):
    # the whole-mission solve is the one step the deadline budgets
    rc = main(["run", "--scenario", str(small_scenario), "--mode", "fho",
               "--deadline-ms", "0.001", "--out", str(tmp_path)])
    assert rc == 3
    assert "no incumbent" in capsys.readouterr().err


@pytest.mark.parametrize("deadline_ms, warned", [("5", True), ("40", False)])
def test_deadline_within_the_reserve_is_reported(tmp_path, capsys, deadline_ms, warned):
    # a budget the engine's decode reserve swallows is run, not refused,
    # but says that no window's solve gets any time
    mission = tmp_path / "mission.yaml"
    assert main(["synth", "--seed", "7", "--steps", "40", "--out", str(mission)]) == 0
    rc = main(["run", "--scenario", str(mission), "--np", "8",
               "--deadline-ms", deadline_ms, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "rho" / "summary.json").exists()
    assert ("no window's solve gets any time" in capsys.readouterr().err) is warned


def test_compare_full_horizon_matches(small_scenario, tmp_path, capsys):
    # with the window spanning the mission, the printed service error
    # vanishes (deterministic equivalence of the two modes)
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(small_scenario), "--np", "16",
               "--weights", "0.005,0.02,0.05", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "delta_f1" in text
    fho = json.loads((out / "fho" / "summary.json").read_text())
    rho = json.loads((out / "rho" / "summary.json").read_text())
    assert abs(fho["delta_f1"]) < 1e-6
    assert fho["delta_f1"] == rho["delta_f1"]
    assert abs(fho["terms"]["served"] - rho["terms"]["served"]) < 1e-5


def test_tune_writes_trace(small_scenario, tmp_path, capsys):
    out = tmp_path / "tune"
    rc = main(["tune", "--scenario", str(small_scenario), "--gamma", "0.2",
               "--eps", "1e-4", "--max-iters", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "tuner_trace.csv").read_text().strip().splitlines()
    assert lines[0].startswith("iteration,")
    assert len(lines) >= 2
    assert "tuned weights" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_deadline_must_be_positive(small_scenario, tmp_path, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(small_scenario), "--deadline-ms", value,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--deadline-ms" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare", "tune"])
@pytest.mark.parametrize("value", ["0", "-5", "nan"])
def test_np_must_be_positive(small_scenario, tmp_path, capsys, command, value):
    # --np 0 used to fall back to the file's horizon and exit 0
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(small_scenario), "--np", value,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--np" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_tune_iterations_must_be_positive(small_scenario, tmp_path, capsys, value):
    # --max-iters 0 returned the initial weights, unconverged
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--scenario", str(small_scenario), "--max-iters", value,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--max-iters" in capsys.readouterr().err


@pytest.mark.parametrize("initial", ["nan,0.02,0.02", "0.02,inf,0.02"])
def test_tune_initial_weights_must_be_finite(small_scenario, tmp_path, capsys, initial):
    # a NaN initial weight was reported as a solver error, exit 3
    rc = main(["tune", "--scenario", str(small_scenario), "--initial", initial,
               "--out", str(tmp_path)])
    assert rc == 2
    assert "initial weights" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--loads", "--gens", "--storage", "--steps", "--dt"])
@pytest.mark.parametrize("value", ["0", "-1", "inf"])
def test_synth_sizes_must_be_positive(tmp_path, capsys, option, value):
    # --dt -0.5 used to write a file that validate rejects, with exit 0;
    # --dt inf wrote an all-NaN demand
    out = tmp_path / "synth.yaml"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "1", option, value, "--out", str(out)])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("value", [".inf", ".nan"])
def test_non_finite_mission_length_is_a_schema_error(tmp_path, capsys, command, value):
    path = tmp_path / "mission.yaml"
    path.write_text(f"""
loads:
  - {{id: L1, rated_mw: 5.0, weight: 1.0}}
generators:
  - {{id: G1, p_max_mw: 10.0, ramp_down_mw_s: -1.0, ramp_up_mw_s: 1.0, initial_mw: 5.0}}
demand:
  constant: {{L1: 4.0}}
mission_s: {value}
""")
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    rc = main([command, "--scenario", str(path), *out])
    assert rc == 2
    assert "mission_s" in capsys.readouterr().err


def test_missing_scenario_file_is_scenario_error(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.yaml"), "--mode", "fho",
               "--out", str(tmp_path)])
    assert rc == 2


def test_env_var_output_dir(small_scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("SHIPEMS_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--scenario", str(small_scenario), "--mode", "fho"])
    assert rc == 0
    assert (tmp_path / "envout" / "fho" / "summary.json").exists()
