"""Tests of the benchmark's own code on a tiny mission (12 steps, window 4).

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Workload("tiny", "rho", 3, 4, 1e-4, steps=12, served_check=True)


def _declared(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def test_every_metric_is_emitted_with_its_unit():
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        outcome, metrics, _ = harness.measure(TINY, 1, 0, trace, setup_reps=1)
        assert outcome.failures == []
        assert outcome.attempted == (2 if trace else 1) * TINY.steps
        assert {k: unit for k, (_, unit) in metrics.items()} == _declared(key)
        assert all(np.isfinite(v) for v, _ in metrics.values())


def test_traced_counts_repeat_exactly():
    counts = [k for k, unit in layers.LAYER_UNITS.items() if unit == "count"]
    first, second = (harness.measure(TINY, 1, 0, True, setup_reps=1)[1] for _ in range(2))
    assert [first[k] for k in counts] == [second[k] for k in counts]
    assert first["lp.solves"][0] >= TINY.steps


def test_seed_sets_the_inputs():
    a, b = wl.make_scenario(TINY, 1), wl.make_scenario(TINY, 1)
    assert np.array_equal(a.demand_mw, b.demand_mw)
    assert not np.array_equal(a.demand_mw, wl.make_scenario(TINY, 2).demand_mw)
    exact = wl.make_scenario(dataclasses.replace(TINY, jitter=0.0), 1)
    assert np.allclose(a.demand_mw, exact.demand_mw, rtol=wl.JITTER, atol=1e-4)


def test_corrupted_soc_fails_the_gate():
    scenario = wl.make_scenario(TINY, 1)
    result, _ = harness.run_mission(TINY, scenario)
    assert gate.trajectory_failures(result, scenario) == []
    result.soc[0, 5] += 0.01
    assert gate.trajectory_failures(result, scenario)
