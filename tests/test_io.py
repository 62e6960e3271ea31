"""Scenario files, demand tables, synthetic missions, result bundles."""

import dataclasses

import numpy as np
import pytest
import yaml

from shipems.engine import run_fho, run_rho, validate_trajectory
from shipems.errors import (BundleInvariantError, DimensionError, ParseError,
                            SchemaError)
from shipems.io import (load_scenario, load_scenario_with_horizon,
                        parse_scenario, read_summary, save_scenario,
                        scenario_document, synth_scenario,
                        write_result_bundle, write_tuner_trace)
from shipems.model import (GeneratorSpec, LoadSpec, ObjectiveWeights,
                           ScenarioSpec, StorageClass, StorageSpec)

MINIMAL = """
loads:
  - {id: L1, rated_mw: 5.0, weight: 1.0}
generators:
  - {id: G1, p_max_mw: 10.0, ramp_down_mw_s: -1.0, ramp_up_mw_s: 1.0, initial_mw: 5.0}
demand:
  constant: {L1: 4.0}
"""

TABLE1_FLEET = """
name: table1-fleet
dt_s: 0.5
steps: 8
loads:
  - {id: L1, rated_mw: 20.0, weight: 1.0}
generators:
  - {id: G1, p_max_mw: 30.0, ramp_down_mw_s: -1.0, ramp_up_mw_s: 1.0, initial_mw: 10.0}
  - {id: G2, p_max_mw: 15.0, ramp_down_mw_s: -1.0, ramp_up_mw_s: 1.0, initial_mw: 5.0}
storage:
  - {id: B1, class: battery, p_min_mw: -10.0, p_max_mw: 10.0,
     ramp_down_mw_s: -5.0, ramp_up_mw_s: 5.0, capacity_mj: 1000.0, initial_soc: 0.5}
  - {id: B2, class: battery, p_min_mw: -10.0, p_max_mw: 10.0,
     ramp_down_mw_s: -5.0, ramp_up_mw_s: 5.0, capacity_mj: 1000.0, initial_soc: 0.6}
  - {id: S1, class: supercapacitor, p_min_mw: -10.0, p_max_mw: 10.0,
     ramp_down_mw_s: -100.0, ramp_up_mw_s: 100.0, capacity_mj: 200.0, initial_soc: 0.4}
  - {id: S2, class: supercapacitor, p_min_mw: -10.0, p_max_mw: 10.0,
     ramp_down_mw_s: -100.0, ramp_up_mw_s: 100.0, capacity_mj: 200.0, initial_soc: 0.7}
demand:
  constant: {L1: 12.0}
"""

ONE_OF_EACH = """
loads:
  - {id: L1, rated_mw: 5.0, weight: 1.0}
generators:
  - {id: G1, p_max_mw: 10.0, ramp_down_mw_s: -1.0, ramp_up_mw_s: 1.0, initial_mw: 4.0}
storage:
  - {id: B1, class: battery, p_min_mw: -2.0, p_max_mw: 2.0,
     ramp_down_mw_s: -1.0, ramp_up_mw_s: 1.0, capacity_mj: 50.0}
demand:
  inline: {L1: [4.0, 1.0, 5.0, 5.0, 1.0, 4.0]}
"""


def write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadScenario:
    def test_minimal_defaults(self, tmp_path):
        sc, horizon = load_scenario_with_horizon(write(tmp_path, MINIMAL))
        assert sc.dt_s == 0.5            # default control sample time
        assert horizon == 60             # default window length
        assert sc.steps == 1200          # 600 s mission at 0.5 s
        assert sc.n_loads == 1 and sc.n_generators == 1

    def test_table1_fleet_values(self, tmp_path):
        sc = load_scenario(write(tmp_path, TABLE1_FLEET))
        assert sc.n_storage == 4
        bats = [s for s in sc.storage if s.kind is StorageClass.BATTERY]
        caps = [s for s in sc.storage if s.kind is StorageClass.SUPERCAPACITOR]
        assert len(bats) == 2 and len(caps) == 2
        for b in bats:
            assert (b.p_min_mw, b.p_max_mw) == (-10.0, 10.0)
            assert (b.ramp_down_mw_s, b.ramp_up_mw_s) == (-5.0, 5.0)
            assert b.capacity_mj == 1000.0
            assert b.soc_max == 0.8
        for s in caps:
            assert (s.ramp_down_mw_s, s.ramp_up_mw_s) == (-100.0, 100.0)
            assert s.capacity_mj == 200.0
        for g in sc.generators:
            assert (g.ramp_down_mw_s, g.ramp_up_mw_s) == (-1.0, 1.0)
        # supercaps outrank batteries for terminal SoC by default
        assert caps[0].terminal_priority > bats[0].terminal_priority

    def test_demand_csv_roundtrip(self, tmp_path):
        (tmp_path / "demand.csv").write_text(
            "L1,L2\n1.0,2.0\n1.5,2.5\n2.0,3.0\n")
        text = """
loads:
  - {id: L1, rated_mw: 4.0, weight: 1.0}
  - {id: L2, rated_mw: 4.0, weight: 0.5}
generators:
  - {id: G1, p_max_mw: 10.0, ramp_down_mw_s: -1.0, ramp_up_mw_s: 1.0}
demand: {file: demand.csv}
"""
        sc = load_scenario(write(tmp_path, text))
        assert sc.steps == 3
        np.testing.assert_allclose(sc.demand_mw[1], [2.0, 2.5, 3.0])

    def test_demand_csv_wrong_columns(self, tmp_path):
        (tmp_path / "demand.csv").write_text("L1,LX\n1.0,2.0\n")
        text = MINIMAL.replace("constant: {L1: 4.0}", "").replace(
            "demand:", "demand: {file: demand.csv}")
        with pytest.raises(DimensionError) as err:
            load_scenario(write(tmp_path, text))
        assert "demand.csv" in str(err.value)

    @pytest.mark.parametrize("text, expected", [
        ("L1\n4.0\n4.0\n\n", 2),                  # blank line at the end
        ("L1\r\n4.0\r\n4.0\r\n\r\n", 2),
        ("\ufeffL1\n4.0\n4.0\n", 2),               # spreadsheet byte-order mark
        ("L1\n", "no demand rows"),
        ("", "no demand rows"),
        ("L1\n4.0\n\n4.0\n", "line 3 has 0 entries, expected 1"),
        ("L1\n4.0\n4.0,5.0\n", "line 3 has 2 entries, expected 1"),
    ], ids=["blank-end", "crlf-blank-end", "bom", "header-only", "empty",
            "blank-middle", "wide-row"])
    def test_demand_csv_rows(self, tmp_path, text, expected):
        # each problem row is named by its line, not by a numpy message
        (tmp_path / "demand.csv").write_text(text, encoding="utf-8", newline="")
        scenario = write(tmp_path, MINIMAL.replace("constant: {L1: 4.0}", "").replace(
            "demand:", "demand: {file: demand.csv}"))
        if isinstance(expected, int):
            assert load_scenario(scenario).steps == expected
        else:
            with pytest.raises(DimensionError, match=expected):
                load_scenario(scenario)

    def test_inline_length_mismatch(self, tmp_path):
        text = """
loads:
  - {id: L1, rated_mw: 4.0, weight: 1.0}
  - {id: L2, rated_mw: 4.0, weight: 0.5}
generators:
  - {id: G1, p_max_mw: 10.0, ramp_down_mw_s: -1.0, ramp_up_mw_s: 1.0}
demand:
  inline: {L1: [1.0, 2.0], L2: [1.0]}
"""
        with pytest.raises(DimensionError):
            load_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("mode, series", [("inline", [4.0]), ("constant", 4.0)])
    def test_demand_load_ids_must_match(self, mode, series):
        doc = yaml.safe_load(MINIMAL)
        doc["demand"] = {mode: {"LX": series}}
        with pytest.raises(DimensionError, match=rf"^demand\.{mode}: load ids mismatch "
                           r"\(missing \['L1'\], unknown \['LX'\]\)$"):
            parse_scenario(doc)

    def test_schema_error_carries_field_path(self, tmp_path):
        bad = MINIMAL.replace("rated_mw: 5.0", "rated_mw: -5.0")
        with pytest.raises(SchemaError) as err:
            load_scenario(write(tmp_path, bad))
        assert "loads[0]" in str(err.value)

    def test_soc_bounds_sanity(self, tmp_path):
        bad = TABLE1_FLEET.replace("initial_soc: 0.5",
                                   "initial_soc: 0.5, soc_min: 0.9")
        with pytest.raises(SchemaError) as err:
            load_scenario(write(tmp_path, bad))
        assert "storage[0]" in str(err.value)

    def test_percent_style_soc_rejected(self, tmp_path):
        bad = TABLE1_FLEET.replace("initial_soc: 0.5", "initial_soc: 50")
        with pytest.raises(SchemaError) as err:
            load_scenario(write(tmp_path, bad))
        assert "fraction" in str(err.value)

    @pytest.mark.parametrize("field", ["steps", "horizon_steps", "loads[0].steps"])
    def test_yaml_boolean_is_not_a_count(self, field):
        # YAML's true loads as a Python bool, which is an int equal to 1
        doc = yaml.safe_load("loads: [{id: L1, rated_mw: 5.0, weight: 1.0}]\n"
                             "demand: {inline: {L1: [4.0]}}")
        target = doc["loads"][0] if field.startswith("loads") else doc
        target[field.rsplit(".", 1)[-1]] = yaml.safe_load("true")
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert field in str(err.value)

    @pytest.mark.parametrize("field, value, path", [
        ("available", ["false", 1, 1, 1], "generators[0].available[0]"),
        ("available", [1, 0.5, 1, 1], "generators[0].available[1]"),
        ("available", [1, 1, 2, 1], "generators[0].available[2]"),
        ("weight_override", {"L1": True}, "weight_override.L1"),
        ("weight_override", {"L1": "abc"}, "weight_override.L1"),
        ("outages", [["a", 3]], "generators[0].outages[0][0]"),
        ("outages", [[True, 3.0]], "generators[0].outages[0][0]"),
        ("inline", {"L1": [4.0, True, 4.0, 4.0]}, "demand.inline.L1[1]"),
        ("inline", {"L1": [4.0, 4.0, "abc", 4.0]}, "demand.inline.L1[2]"),
        ("inline", {"L1": "4.0"}, "demand.inline.L1"),
        ("constant", {"L1": True}, "demand.constant.L1"),
        ("constant", {"L1": "abc"}, "demand.constant.L1"),
        ("weight_override", {"L1": -1}, "weight_override.L1"),
        ("weight_override", {"L1": float("inf")}, "weight_override.L1"),
        ("weight_override", {"L1": float("nan")}, "weight_override.L1"),
    ])
    def test_scenario_numbers_are_checked(self, field, value, path):
        # a bool or a string is no number, only booleans and 0/1 are
        # availability flags, and a weight is finite and >= 0; each
        # failure names its field
        doc = yaml.safe_load(MINIMAL)
        doc["steps"] = 4
        doc["demand"] = {"inline": {"L1": [4.0] * 4}}
        if field in ("available", "outages"):
            doc["generators"][0][field] = value
        elif field == "weight_override":
            doc[field] = value
        else:
            doc["demand"] = {field: value}
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert path in str(err.value)

    def test_availability_flags_parse(self):
        doc = yaml.safe_load(MINIMAL)
        doc["demand"] = {"inline": {"L1": [4.0] * 4}}
        doc["generators"][0]["available"] = [1, 0, True, False]
        sc, _ = parse_scenario(doc)
        assert sc.generator_available[0].tolist() == [True, False, True, False]

    def test_parse_error_on_bad_yaml(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(write(tmp_path, "loads: [}{"))
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "missing.yaml")

    def test_outage_windows_compile_to_availability(self, tmp_path):
        text = MINIMAL.replace(
            "initial_mw: 5.0}",
            "initial_mw: 5.0, outages: [[10.0, 20.0]]}")
        sc = load_scenario(write(tmp_path, text))
        avail = sc.generator_available[0]
        assert avail[:20].all()          # 10 s / 0.5 s = step 20
        assert not avail[20:40].any()
        assert avail[40:].all()

    @pytest.mark.parametrize("window, path", [
        ("[1.0, .inf]", "generators[0].outages[0][1]"),
        ("[-.inf, 1.0]", "generators[0].outages[0][0]"),
    ])
    def test_infinite_outage_bound_is_a_schema_error(self, tmp_path, window, path):
        # an infinite time has no step index; the error names the field
        text = MINIMAL.replace("initial_mw: 5.0}",
                               f"initial_mw: 5.0, outages: [{window}]}}")
        with pytest.raises(SchemaError) as err:
            load_scenario(write(tmp_path, text))
        assert path in str(err.value)

    @pytest.mark.parametrize("section, field, value", [
        ("loads", "rated_mw", ".inf"),
        ("generators", "p_max_mw", ".inf"),
        ("generators", "p_min_mw", "-.inf"),
        ("storage", "p_max_mw", ".inf"),
        ("storage", "p_min_mw", "-.inf"),
        ("storage", "capacity_mj", ".inf"),
        ("storage", "terminal_priority", ".inf"),
        (None, "dt_s", ".inf"),
    ])
    def test_infinite_box_is_a_schema_error(self, section, field, value):
        # an infinite box is no plant limit: the file is refused by field
        doc = yaml.safe_load(ONE_OF_EACH)
        target = doc if section is None else doc[section][0]
        target[field] = yaml.safe_load(value)
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert field in str(err.value)
        assert section is None or f"{section}[0]" in str(err.value)

    @pytest.mark.parametrize("value", ["5.0", ".inf", ".nan"])
    def test_storage_initial_power_outside_box_is_a_schema_error(self, value):
        doc = yaml.safe_load(ONE_OF_EACH)
        doc["storage"][0]["initial_mw"] = yaml.safe_load(value)
        with pytest.raises(SchemaError, match=r"storage\[0\].*initial power outside box"):
            parse_scenario(doc)

    @pytest.mark.parametrize("value", [".inf", ".nan", "0.0", "-3.0"])
    def test_mission_length_must_be_finite_and_positive(self, value):
        doc = yaml.safe_load(MINIMAL)
        doc["mission_s"] = yaml.safe_load(value)
        with pytest.raises(SchemaError, match="mission_s"):
            parse_scenario(doc)

    def test_infinite_ramps_mean_no_limit(self):
        doc = yaml.safe_load(ONE_OF_EACH)
        for unit in doc["generators"] + doc["storage"]:
            unit["ramp_down_mw_s"], unit["ramp_up_mw_s"] = -np.inf, np.inf
        spec, _ = parse_scenario(doc)
        weights = ObjectiveWeights(0.005, 0.02, 0.05)
        for res in (run_rho(spec, weights, horizon=3), run_fho(spec, weights)):
            assert validate_trajectory(res, spec) == []


class TestRoundTrip:
    def test_document_round_trip(self, tmp_path):
        doc = synth_scenario(seed=5, n_loads=4, n_generators=2, n_storage=2,
                             steps=30)
        spec, horizon = parse_scenario(doc)
        path = tmp_path / "rt.yaml"
        save_scenario(spec, path, horizon_steps=horizon)
        spec2, horizon2 = load_scenario_with_horizon(path)
        assert horizon2 == horizon
        assert spec == spec2

    def test_round_trip_preserves_overrides_and_trips(self, tmp_path):
        doc = synth_scenario(seed=9, n_loads=3, n_generators=2, n_storage=2,
                             steps=24)
        doc["weight_override"] = {"L0": 2.0, "L2": 0.1}
        kept = doc["loads"][1]["weight"]
        spec, _ = parse_scenario(doc)
        assert [ld.weight for ld in spec.loads] == [2.0, kept, 0.1]
        path = tmp_path / "rt.yaml"
        save_scenario(spec, path)
        assert spec == load_scenario(path)
        # the file carries the applied weights on its loads
        written = yaml.safe_load(path.read_text())
        assert "weight_override" not in written
        assert [ld["weight"] for ld in written["loads"]] == [2.0, kept, 0.1]

    def test_every_field_round_trips(self, tmp_path):
        # every spec field away from its default, so the writer and the
        # parser must both carry it
        loads = [LoadSpec("L1", 5.0, 0.7, steps=3, name="pump"),
                 LoadSpec("L2", 4.0, 0.2)]
        gens = [GeneratorSpec("G1", p_min_mw=1.5, p_max_mw=20.0,
                              ramp_down_mw_s=-2.0, ramp_up_mw_s=3.0,
                              initial_mw=4.0, name="main")]
        storage = [StorageSpec("B1", StorageClass.SUPERCAPACITOR, -8.0, 9.0,
                               -4.0, 6.0, 500.0, soc_min=0.2, soc_max=0.9,
                               initial_soc=0.6, terminal_priority=0.3,
                               initial_mw=1.0, name="aft")]
        avail = np.ones((1, 6), dtype=bool)
        avail[0, 2:4] = False
        spec = ScenarioSpec(dt_s=0.25, loads=loads, generators=gens,
                            storage=storage, demand_mw=np.arange(12.0).reshape(2, 6) / 4,
                            generator_available=avail, name="every-field")
        implied = {"p_min_mw": 0.0, "terminal_priority": 1.0}  # file, class
        for unit in (loads[0], gens[0], storage[0]):
            for f in dataclasses.fields(unit):
                default = implied.get(f.name, f.default)
                assert getattr(unit, f.name) != default, f.name
        path = tmp_path / "rt.yaml"
        save_scenario(spec, path, horizon_steps=4)
        spec2, horizon = load_scenario_with_horizon(path)
        assert horizon == 4
        assert spec == spec2

    def test_specs_differing_in_one_demand_entry_are_unequal(self):
        doc = synth_scenario(1, steps=10)
        spec, _ = parse_scenario(doc)
        assert spec == parse_scenario(synth_scenario(1, steps=10))[0]
        series = next(iter(doc["demand"]["inline"].values()))
        series[3] += 0.5
        other, _ = parse_scenario(doc)
        assert spec != other


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.yaml"
        b = tmp_path / "b.yaml"
        save_scenario(synth_scenario(seed=123, steps=40), a)
        save_scenario(synth_scenario(seed=123, steps=40), b)
        assert a.read_bytes() == b.read_bytes()
        save_scenario(synth_scenario(seed=124, steps=40), b)
        assert a.read_bytes() != b.read_bytes()

    def test_sizes_respected(self):
        doc = synth_scenario(seed=3, n_loads=8, n_generators=2, n_storage=4,
                             steps=50)
        spec, _ = parse_scenario(doc)
        assert spec.demand_mw.shape == (8, 50)
        assert spec.n_generators == 2
        assert spec.n_storage == 4
        # high-ramp block carries the top weight
        weights = np.array([ld.weight for ld in spec.loads])
        assert weights[-1] == weights.max() == 1.0
        # stepped loads sit among the lowest weights
        assert spec.loads[0].is_stepped and spec.loads[1].is_stepped

    def test_hrrl_outpaces_generator_ramping(self):
        doc = synth_scenario(seed=11, steps=60)
        spec, _ = parse_scenario(doc)
        hrrl = spec.demand_mw[-1]
        max_gen_ramp = sum(g.ramp_up_mw_s for g in spec.generators) * spec.dt_s
        assert np.max(np.abs(np.diff(hrrl))) > 3 * max_gen_ramp

    def test_shortfall_forces_shedding_when_solved(self):
        doc = synth_scenario(seed=2, n_loads=4, n_generators=2, n_storage=2,
                             steps=36)
        spec, _ = parse_scenario(doc)
        res = run_rho(spec, ObjectiveWeights(0.005, 0.02, 0.05), horizon=12)
        assert res.operability < 1.0
        assert (~spec.generator_available).any()

    def test_surplus_variant_serves_everything(self):
        doc = synth_scenario(seed=2, n_loads=4, n_generators=2, n_storage=2,
                             steps=36, shortfall=False, surplus_margin=1.6)
        spec, _ = parse_scenario(doc)
        res = run_fho(spec, ObjectiveWeights())
        assert res.operability == pytest.approx(1.0, abs=1e-9)


class TestResultBundle:
    def run_small(self):
        doc = synth_scenario(seed=7, n_loads=3, n_generators=2, n_storage=2,
                             steps=20)
        spec, _ = parse_scenario(doc)
        return spec, run_rho(spec, ObjectiveWeights(0.005, 0.02, 0.05), horizon=8)

    def test_bundle_contents(self, tmp_path):
        spec, res = self.run_small()
        out = write_result_bundle(res, spec, tmp_path / "bundle")
        summary = read_summary(out)
        assert summary["mode"] == "rho"
        assert summary["steps"] == 20
        assert 0 <= summary["operability"] <= 1
        assert list(summary["weights"]) == ["throughput", "imbalance", "terminal"]
        assert list(summary["terms"]) == ["served", "throughput", "imbalance",
                                          "terminal_soc"]
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 21  # header + one row per step
        header = lines[0].split(",")
        assert header[:2] == ["step", "time_s"]
        assert "o_L0" in header and "pe_B0" in header and "soc_B0" in header
        assert header[-3:] == ["solve_ms", "status", "fallback"]

    def test_violating_bundle_never_written(self, tmp_path):
        spec, res = self.run_small()
        res.load_fraction[:, 3] = 5.0  # corrupt: service fraction above 1
        with pytest.raises(BundleInvariantError):
            write_result_bundle(res, spec, tmp_path / "bad")
        assert not (tmp_path / "bad").exists()


def test_tuner_trace_csv(tmp_path):
    trace = [(np.array([0.1, 0.2, 0.3]), -0.5), (np.array([0.05, 0.1, 0.2]), -0.8)]
    path = tmp_path / "trace.csv"
    write_tuner_trace(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,w_throughput,w_imbalance,w_terminal,merit"
    assert lines[1].startswith("0,0.1,0.2,0.3")
    assert len(lines) == 3
