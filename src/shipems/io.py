"""Scenario ingestion, synthetic scenario generation, result persistence.

Scenario files are YAML documents mirroring :class:`ScenarioSpec`.  The
spec classes are the schema: a load, generator or storage entry has one
key per field of its class (a storage unit's ``kind`` is written
``class``), required where the class gives no default.  The one file
default a class does not declare is in ``_FILE_DEFAULTS``: a generator
without ``p_min_mw`` has a 0 MW floor.  The demand matrix is either
inline (per-load arrays), constant (per-load scalars plus a step
count), or a separate CSV table whose header row carries the load ids
and whose rows are mission steps.  All times are seconds, powers MW,
energy MJ, and SoC a fraction in [0, 1]; files using percent-style SoC
values are rejected outright to avoid the 80-vs-0.8 ambiguity.  An
optional ``weight_override`` mapping (load id to weight) replaces the
weights of the loads it names when the file is parsed, so the spec
carries each load's weight once, on its ``LoadSpec``; a written file
carries the applied weights on its loads.  Generator availability is
always a full (generators, steps) matrix on the spec; a written file
lists ``available`` only for a generator that trips.

Result bundles pair a ``summary.json`` with a ``trajectory.csv`` whose
columns are stable: step, time_s, one service column per load, one
power column per generator and storage unit, one SoC column per
storage unit, then solve_ms / status / fallback.  Trajectories are
re-audited against the model invariants at write time; a violating
bundle is never written silently.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .engine import MissionResult, validate_trajectory
from .errors import (BundleInvariantError, DimensionError, ParseError,
                     SchemaError)
from .model import (GeneratorSpec, LoadSpec, ScenarioSpec, StorageClass,
                    StorageSpec)

DEFAULT_DT_S = 0.5
DEFAULT_HORIZON_STEPS = 60
DEFAULT_MISSION_S = 600.0

#: File defaults that the spec classes do not declare (module docstring)
_FILE_DEFAULTS = {GeneratorSpec: {"p_min_mw": 0.0}}


def _require(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _is_number(val) -> bool:
    """An int or a float; YAML's ``true`` is an ``int`` but not a number."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _number(val, path) -> float:
    """The one checked converter of a scenario number."""
    _require(_is_number(val), path, f"expected a number, got {val!r}")
    return float(val)


def _numbers(seq, path) -> list:
    """A list of scenario numbers, each checked as ``_number`` does (a
    list of plain ints and floats passes on one look at its types)."""
    _require(isinstance(seq, list), path, "expected a list of numbers")
    if not set(map(type, seq)) <= {int, float}:
        for k, val in enumerate(seq):
            _number(val, f"{path}[{k}]")
    return [float(val) for val in seq]


def _string(val, path) -> str:
    _require(isinstance(val, str), path, "expected a string")
    return val


def _get(doc, key, path, default=None, required=False, convert=_number):
    """``doc[key]`` through ``convert``; a missing or null key gives
    ``default``, or a schema error when ``required``."""
    if key not in doc or doc[key] is None:
        if required:
            raise SchemaError(f"{path}.{key}: missing required field")
        return default
    return convert(doc[key], f"{path}.{key}")


def _is_count(val) -> bool:
    """A positive integer; YAML's ``true`` is an ``int`` but not a count."""
    return isinstance(val, int) and not isinstance(val, bool) and val >= 1


def _parse_spec(cls, doc, path, **given):
    """A ``cls`` spec from the same-named keys of the mapping ``doc``:
    ``given`` fields are taken as passed, ``str`` fields read as strings
    and the rest as numbers, required where no default is known."""
    defaults = _FILE_DEFAULTS.get(cls, {})
    for f in fields(cls):
        if f.name not in given:
            default = defaults.get(f.name, f.default)
            given[f.name] = _get(doc, f.name, path, default, default is MISSING,
                                 _string if f.type in ("str", str) else _number)
    try:
        return cls(**given)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}")


def _parse_load(doc, idx):
    path = f"loads[{idx}]"
    _require(isinstance(doc, dict), path, "expected a mapping")
    steps = doc.get("steps")
    if steps is not None:
        _require(_is_count(steps), f"{path}.steps",
                 "expected a positive integer step count")
    return _parse_spec(LoadSpec, doc, path, steps=steps)


def _parse_generator(doc, idx, dt, steps):
    path = f"generators[{idx}]"
    _require(isinstance(doc, dict), path, "expected a mapping")
    gen = _parse_spec(GeneratorSpec, doc, path)
    avail = np.ones(steps, dtype=bool)
    if "available" in doc and doc["available"] is not None:
        seq = doc["available"]
        _require(isinstance(seq, list), f"{path}.available", "expected a list")
        if len(seq) != steps:
            raise DimensionError(
                f"{path}.available: {len(seq)} entries for {steps} steps")
        for k, v in enumerate(seq):
            # booleans, or the 0/1 that scenario_document writes
            _require(isinstance(v, int) and v in (0, 1), f"{path}.available[{k}]",
                     f"expected true/false or 0/1, got {v!r}")
        avail = np.array([bool(v) for v in seq])
    for k, window in enumerate(doc.get("outages") or []):
        wpath = f"{path}.outages[{k}]"
        _require(isinstance(window, (list, tuple)) and len(window) == 2, wpath,
                 "expected [from_s, to_s]")
        t_from, t_to = (_number(t, f"{wpath}[{i}]") for i, t in enumerate(window))
        for i, t in enumerate((t_from, t_to)):
            _require(np.isfinite(t), f"{wpath}[{i}]", f"expected a finite time, got {t!r}")
        _require(t_from < t_to, wpath, "need from_s < to_s")
        idx_from = int(np.ceil(t_from / dt - 1e-9))
        idx_to = int(np.ceil(t_to / dt - 1e-9))
        avail[max(idx_from, 0):min(idx_to, steps)] = False
    return gen, avail


def _parse_storage(doc, idx):
    path = f"storage[{idx}]"
    _require(isinstance(doc, dict), path, "expected a mapping")
    kind_raw = _get(doc, "class", path, required=True, convert=_string)
    try:
        kind = StorageClass(kind_raw.lower())
    except ValueError:
        raise SchemaError(f"{path}.class: unknown storage class {kind_raw!r} "
                          f"(battery or supercapacitor)")
    for key in ("soc_min", "soc_max", "initial_soc"):
        val = _get(doc, key, path)
        if val is not None and val > 1.0:
            raise SchemaError(f"{path}.{key}: SoC values are fractions in "
                              f"[0, 1], got {val} (percent-style rejected)")
    return _parse_spec(StorageSpec, doc, path, kind=kind)


def _read_demand_csv(path: Path, load_ids):
    try:
        # utf-8-sig: a spreadsheet export may open with a byte-order mark
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"demand.file: cannot read {path}: {exc}")
    while rows and not "".join(rows[-1]).strip():
        rows.pop()
    if len(rows) < 2:
        raise DimensionError(f"demand.file {path.name}: no demand rows")
    header = [h.strip() for h in rows[0]]
    if header != list(load_ids):
        raise DimensionError(
            f"demand.file {path.name}: header {header} does not match "
            f"declared load ids {list(load_ids)}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DimensionError(f"demand.file {path.name}: line {line} has "
                                 f"{len(row)} entries, expected {len(header)}")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise ParseError(f"demand.file {path.name}: non-numeric entry: {exc}")
    return data.T  # (n_loads, steps)


def _parse_demand(doc, load_ids, dt, declared_steps, base_dir: Path):
    _require(isinstance(doc, dict), "demand", "expected a mapping")
    modes = [k for k in ("file", "inline", "constant") if doc.get(k) is not None]
    _require(len(modes) == 1, "demand",
             f"need exactly one of file/inline/constant, got {modes or 'none'}")
    mode = modes[0]
    if mode == "file":
        return _read_demand_csv(base_dir / doc["file"], load_ids)
    table = doc[mode]
    _require(isinstance(table, dict), f"demand.{mode}", "expected a mapping")
    missing = [i for i in load_ids if i not in table]
    extra = [i for i in table if i not in load_ids]
    if missing or extra:
        raise DimensionError(
            f"demand.{mode}: load ids mismatch (missing {missing}, unknown {extra})")
    if mode == "inline":
        series = [_numbers(table[i], f"demand.inline.{i}") for i in load_ids]
        lengths = {len(s) for s in series}
        if len(lengths) != 1:
            raise DimensionError(f"demand.inline: unequal series lengths {sorted(lengths)}")
        return np.array(series)
    # constant demand needs a step count from somewhere
    steps = declared_steps or int(round(DEFAULT_MISSION_S / dt))
    col = np.array([_number(table[i], f"demand.constant.{i}") for i in load_ids])
    return np.tile(col[:, None], (1, steps))


def parse_scenario(doc: dict, base_dir: Path = Path(".")):
    """Validate a scenario document and build the spec.

    Returns (ScenarioSpec, horizon_steps).  Defaults: dt 0.5 s, horizon
    60 steps, 600 s mission when constant demand gives no step count.
    """
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected a mapping")
    dt = _get(doc, "dt_s", "top level", default=DEFAULT_DT_S)
    _require(np.isfinite(dt) and dt > 0, "dt_s", "must be finite and > 0")
    horizon = doc.get("horizon_steps", DEFAULT_HORIZON_STEPS)
    _require(_is_count(horizon), "horizon_steps",
             "expected a positive integer")

    _require(isinstance(doc.get("loads"), list) and doc["loads"], "loads",
             "expected a non-empty list")
    loads = [_parse_load(d, i) for i, d in enumerate(doc["loads"])]
    load_ids = [ld.id for ld in loads]

    declared_steps = doc.get("steps")
    if declared_steps is None and doc.get("mission_s") is not None:
        mission_s = _get(doc, "mission_s", "top level")
        _require(np.isfinite(mission_s) and mission_s > 0, "mission_s",
                 "must be finite and > 0")
        declared_steps = int(round(mission_s / dt))
    if declared_steps is not None:
        _require(_is_count(declared_steps), "steps", "expected a positive integer")

    _require("demand" in doc, "demand", "missing required section")
    demand = _parse_demand(doc["demand"], load_ids, dt, declared_steps,
                           base_dir)
    steps = demand.shape[1]
    if declared_steps is not None and declared_steps != steps:
        raise DimensionError(
            f"steps: declared {declared_steps} but demand has {steps}")

    gens, avail_rows = [], []
    for i, d in enumerate(doc.get("generators") or []):
        gen, avail = _parse_generator(d, i, dt, steps)
        gens.append(gen)
        avail_rows.append(avail)

    storage = [_parse_storage(d, i) for i, d in enumerate(doc.get("storage") or [])]

    if doc.get("weight_override") is not None:
        table = doc["weight_override"]
        _require(isinstance(table, dict), "weight_override", "expected a mapping")
        extra = [i for i in table if i not in load_ids]
        if extra:
            raise DimensionError(f"weight_override: unknown load ids {extra}")
        for k, i in enumerate(load_ids):
            if i in table:
                path = f"weight_override.{i}"
                weight = _number(table[i], path)
                try:
                    loads[k] = replace(loads[k], weight=weight)
                except ValueError as exc:
                    raise SchemaError(f"{path}: {exc}")

    try:
        spec = ScenarioSpec(dt_s=dt, loads=loads, generators=gens,
                            storage=storage, demand_mw=demand,
                            generator_available=np.reshape(avail_rows, (len(gens), steps)),
                            name=_get(doc, "name", "top level", "", convert=_string))
    except ValueError as exc:
        raise SchemaError(str(exc))
    return spec, horizon


def load_scenario(path) -> ScenarioSpec:
    """Read, schema-check and materialize a scenario file."""
    spec, _ = load_scenario_with_horizon(path)
    return spec


def load_scenario_with_horizon(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path.name}: invalid YAML: {exc}")
    return parse_scenario(doc, base_dir=path.parent)


def _spec_entry(spec) -> dict:
    """The file entry of a load, generator or storage spec: its fields in
    order, ``kind`` written as ``class``, unset (None or "") ones left out."""
    entry = {}
    for f in fields(spec):
        val = getattr(spec, f.name)
        if isinstance(val, StorageClass):
            entry["class"] = val.value
        elif val is not None and val != "":
            entry[f.name] = val
    return entry


def scenario_document(spec: ScenarioSpec, horizon_steps: int = DEFAULT_HORIZON_STEPS) -> dict:
    """Round-trippable plain document for a spec (demand kept inline)."""
    doc = {"name": spec.name, "dt_s": spec.dt_s, "horizon_steps": horizon_steps,
           "steps": spec.steps, "loads": [_spec_entry(ld) for ld in spec.loads],
           "generators": [_spec_entry(gen) for gen in spec.generators],
           "storage": [_spec_entry(sto) for sto in spec.storage],
           "demand": {"inline": {ld.id: [float(v) for v in spec.demand_mw[i]]
                                 for i, ld in enumerate(spec.loads)}}}
    for entry, row in zip(doc["generators"], spec.generator_available):
        if not row.all():
            entry["available"] = [int(v) for v in row]
    return doc


def save_scenario(spec_or_doc, path, horizon_steps: int = DEFAULT_HORIZON_STEPS):
    doc = spec_or_doc if isinstance(spec_or_doc, dict) \
        else scenario_document(spec_or_doc, horizon_steps)
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False, width=100000))


def synth_scenario(seed: int, n_loads: int = 8, n_generators: int = 2,
                   n_storage: int = 4, steps: int = 240, dt_s: float = 0.5,
                   shortfall: bool = True, surplus_margin: float = 1.05,
                   trip_after: float = 0.3, outage_s: float = 35.0,
                   horizon_steps: int = DEFAULT_HORIZON_STEPS) -> dict:
    """Deterministic synthetic mission document.

    The last load is a high-ramp-rate block: largest weight, pulsed
    demand whose rate of change far exceeds generator ramping.  The two
    lowest-weight loads are stepped, small and coarse (fine-grained
    integer blocks at the shedding margin breed near-tie search trees
    with no physical payoff).  With ``shortfall`` the largest generator
    drops out mid-mission for ``outage_s`` seconds; demand is scaled so
    the surviving capacity plus full storage power cannot carry the
    peak, which forces shedding during the episode regardless of how
    much energy is banked; otherwise generation covers the peak
    throughout.
    """
    if min(n_loads, n_generators, n_storage) < 1:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(seed)
    mission_s = steps * dt_s

    n_base = n_loads - 1
    weights = np.round(np.linspace(0.05, 0.6, max(n_base, 1)), 4)
    rated = np.round(rng.uniform(6.0, 14.0, n_base), 3)
    rated[:2] = np.round(rng.uniform(2.5, 4.0, min(2, n_base)), 3)
    periods = rng.uniform(0.25, 0.9, n_base) * mission_s
    phases = rng.uniform(0, 1, n_base)

    t = np.arange(steps) * dt_s
    demand = {}
    loads = []
    for i in range(n_base):
        profile = rated[i] * (0.72 + 0.18 * np.sin(
            2 * np.pi * (t / periods[i] + phases[i])))
        profile = np.clip(profile, 0.4 * rated[i], rated[i])
        entry = {"id": f"L{i}", "rated_mw": float(rated[i]),
                 "weight": float(weights[i])}
        if i < 2:
            entry["steps"] = 2
        loads.append(entry)
        demand[f"L{i}"] = [float(round(v, 4)) for v in profile]

    # high ramp-rate block: pulsed square demand, top priority
    hrrl_rated = round(float(rng.uniform(0.8, 1.2)) * 20.0, 3)
    pulse = np.full(steps, 0.08 * hrrl_rated)
    period = max(int(steps * 0.18), 8)
    width = max(int(period * 0.45), 4)
    for start in range(int(steps * 0.1), steps, period):
        pulse[start:start + width] = hrrl_rated
    loads.append({"id": f"L{n_loads - 1}", "rated_mw": hrrl_rated,
                  "weight": 1.0, "name": "hrrl-block"})
    demand[f"L{n_loads - 1}"] = [float(round(v, 4)) for v in pulse]

    total = np.zeros(steps)
    for series in demand.values():
        total += np.asarray(series)
    peak = float(total.max())

    cap_total = surplus_margin * peak
    shares = np.full(n_generators, 1.0 / n_generators)
    if n_generators > 1:
        # the tripping unit carries most of the fleet so the outage bites
        shares = np.linspace(1.5, 0.5, n_generators)
        shares /= shares.sum()
    initial_total = min(float(total[0]), cap_total)
    gens = []
    for g in range(n_generators):
        p_max = round(float(cap_total * shares[g]), 3)
        gen = {"id": f"G{g}", "p_min_mw": 0.0, "p_max_mw": p_max,
               "ramp_down_mw_s": -1.0, "ramp_up_mw_s": 1.0,
               "initial_mw": round(float(initial_total * shares[g]), 3)}
        if shortfall and g == 0:
            trip_at = round(trip_after * mission_s, 3)
            trip_end = round(min(trip_at + outage_s, mission_s), 3)
            gen["outages"] = [[trip_at, trip_end]]
        gens.append(gen)

    socs = np.round(rng.permutation(np.linspace(0.3, 0.7, n_storage)), 3)
    storage = []
    for e in range(n_storage):
        if e % 2 == 0:
            storage.append({"id": f"B{e}", "class": "battery",
                            "p_min_mw": -10.0, "p_max_mw": 10.0,
                            "ramp_down_mw_s": -5.0, "ramp_up_mw_s": 5.0,
                            "capacity_mj": 1000.0, "soc_min": 0.1,
                            "soc_max": 0.8, "initial_soc": float(socs[e])})
        else:
            storage.append({"id": f"S{e}", "class": "supercapacitor",
                            "p_min_mw": -10.0, "p_max_mw": 10.0,
                            "ramp_down_mw_s": -100.0, "ramp_up_mw_s": 100.0,
                            "capacity_mj": 200.0, "soc_min": 0.1,
                            "soc_max": 0.8, "initial_soc": float(socs[e])})

    return {"name": f"synth-{seed}", "dt_s": dt_s, "horizon_steps": horizon_steps,
            "steps": steps, "loads": loads, "generators": gens,
            "storage": storage, "demand": {"inline": demand}}


def default_output_dir() -> Path:
    return Path(os.environ.get("SHIPEMS_OUT", "shipems-out"))


def write_result_bundle(result: MissionResult, scenario: ScenarioSpec,
                        out_dir, extras: dict | None = None) -> Path:
    """Persist summary + per-step trajectory; re-audits before writing."""
    violations = validate_trajectory(result, scenario)
    if violations:
        raise BundleInvariantError(
            f"refusing to write bundle: {len(violations)} trajectory "
            f"violations, first: {violations[0]}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    times_ms = result.solve_times * 1e3
    summary = {
        "scenario": result.scenario_name,
        "mode": result.mode,
        "horizon": result.horizon,
        "steps": result.steps,
        "dt_s": scenario.dt_s,
        "weights": asdict(result.weights),
        "operability": result.operability,
        "terms": asdict(result.terms),
        "objective": result.objective(),
        "solve_time": {"total_s": float(result.solve_times.sum()),
                       "max_ms": float(times_ms.max()),
                       "mean_ms": float(times_ms.mean())},
        "fallback_count": len(result.fallbacks),
        "fully_optimal": result.fully_optimal,
    }
    if extras:
        summary.update(extras)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    fallback_steps = {t: reason for t, reason in result.fallbacks}
    header = (["step", "time_s"]
              + [f"o_{ld.id}" for ld in scenario.loads]
              + [f"pg_{g.id}" for g in scenario.generators]
              + [f"pe_{s.id}" for s in scenario.storage]
              + [f"soc_{s.id}" for s in scenario.storage]
              + ["solve_ms", "status", "fallback"])
    with open(out_dir / "trajectory.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(result.steps):
            row = [k, round(k * scenario.dt_s, 6)]
            row += [f"{v:.9g}" for v in result.load_fraction[:, k]]
            row += [f"{v:.9g}" for v in result.gen_power[:, k]]
            row += [f"{v:.9g}" for v in result.storage_power[:, k]]
            row += [f"{v:.9g}" for v in result.soc[:, k]]
            row += [f"{times_ms[k]:.3f}", result.statuses[k],
                    fallback_steps.get(k, "")]
            writer.writerow(row)
    return out_dir


def read_summary(out_dir) -> dict:
    return json.loads((Path(out_dir) / "summary.json").read_text())


def write_tuner_trace(trace, path):
    """Tuning trace as CSV: iteration, the three weights, merit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "w_throughput", "w_imbalance",
                         "w_terminal", "merit"])
        for i, (w, m) in enumerate(trace):
            writer.writerow([i, f"{w[0]:.9g}", f"{w[1]:.9g}", f"{w[2]:.9g}",
                             f"{m:.9g}"])
