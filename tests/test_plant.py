"""The shared plant rules: unwind envelope vs. the builder's guard rows,
agreement of the trajectory audit with the degraded mode's step check,
and the degraded mode's hold-and-shed step."""

import re
from dataclasses import replace

import numpy as np
import pytest

from shipems.builder import build_window_milp
from shipems.engine import _fallback_actions, run_rho, validate_trajectory
from shipems.io import parse_scenario, synth_scenario
from shipems.milp import SolverConfig
from shipems.model import (DispatchPlan, GeneratorSpec, LoadSpec,
                           ObjectiveTerms, ObjectiveWeights, ScenarioSpec,
                           StorageClass, StorageSpec, SystemState)
from shipems.plant import soc_path, unwind_envelope, unwind_guards, violations


def guarded_power_ranges(unit, dt, socs):
    """Net-power range, from each SoC of ``socs``, of a one-step window's
    storage unit that every terminal guard row and the SoC box admit,
    read off the built LP."""
    sc = ScenarioSpec(dt_s=dt, loads=[LoadSpec("L0", 1.0, 1.0)],
                      generators=[], storage=[unit], demand_mw=[[0.0]])
    prob, layout = build_window_milp(sc, sc.initial_state(), ObjectiveWeights(), 1)
    lp = prob.lp
    dis, soc = layout.discharge_cols[0, 0], layout.soc_cols[0, 0]
    a = lp.a_rg.toarray()
    cap = unit.capacity_mj
    ranges = []
    for soc0 in socs:
        hi = min(lp.upper[dis], (soc0 - unit.soc_min) * cap / dt)
        lo = max(-lp.upper[layout.charge_cols[0, 0]], -(unit.soc_max - soc0) * cap / dt)
        # a guard row a_d (dis - chg) + a_s soc <= up, with soc = soc0 - dt P / cap
        for r in np.flatnonzero((a[:, soc] != 0) & np.isneginf(lp.rg_lower)):
            coef = a[r, dis] - a[r, soc] * dt / cap
            bound = (lp.rg_upper[r] - a[r, soc] * soc0) / coef
            if coef > 0:
                hi = min(hi, bound)
            else:
                lo = max(lo, bound)
        ranges.append((lo, hi))
    return ranges


def test_unwind_envelope_matches_builder_guard_rows():
    rng = np.random.default_rng(11)
    units, many = [], 0
    # the unit the old 64-bracket scan cut to 6.4 MW; stopping from
    # 10 MW takes 252.5 MJ of its 400 MJ headroom
    units.append((StorageSpec("B", StorageClass.BATTERY, -10.0, 10.0, -0.2, 0.2,
                              1000.0, soc_min=0.1, initial_soc=0.5), 0.5))
    for i in range(150):
        p_max, p_chg = rng.uniform(0.5, 20.0, 2)
        dt = float(rng.choice([0.1, 0.5, 1.0]))
        # per-step ramps down to 1/1000 of p_max: many breakpoints
        ramp_dn, ramp_up = 10.0 ** rng.uniform(-1.7, 1.0, 2) / dt
        soc_min = rng.uniform(0.0, 0.3)
        soc_max = rng.uniform(0.6, 1.0)
        units.append((StorageSpec(
            f"E{i}", StorageClass.BATTERY, -p_chg, p_max, -ramp_dn, ramp_up,
            rng.uniform(20.0, 5000.0), soc_min=soc_min, soc_max=soc_max,
            initial_soc=rng.uniform(soc_min, soc_max)), dt))
    for unit, dt in units:
        # discharge-side guard rows: one per breakpoint
        many += sum(a > 0 for a, _, _ in unwind_guards(unit, dt)) > 64
        # the initial SoC, the box edges, either side outside the box and
        # a draw inside it
        socs = [unit.initial_soc, unit.soc_min, unit.soc_max, unit.soc_min - 0.02,
                unit.soc_max + 0.02, rng.uniform(unit.soc_min, unit.soc_max)]
        for soc0, (lo, hi) in zip(socs, guarded_power_ranges(unit, dt, socs)):
            env_lo, env_hi = unwind_envelope(unit, dt, soc0)
            # the envelope is widened to contain 0 and leaves out the power box
            assert max(env_lo, unit.p_min_mw) == pytest.approx(
                min(lo, 0.0), rel=1e-9, abs=1e-9)
            assert min(env_hi, unit.p_max_mw) == pytest.approx(
                max(hi, 0.0), rel=1e-9, abs=1e-9)
    assert many > 30
    assert unwind_envelope(units[0][0], 0.5, 0.5)[1] >= 10.0


# --- audit vs. degraded-mode step check -------------------------------


def fault_scenario():
    rng = np.random.default_rng(7)
    steps = 16
    loads = [LoadSpec("L0", 10.0, 1.0), LoadSpec("L1", 8.0, 0.5),
             LoadSpec("L2", 4.0, 0.2, steps=4), LoadSpec("L3", 2.0, 0.1, steps=1)]
    gens = [GeneratorSpec("G0", 0.0, 12.0, -1.0, 1.0, initial_mw=6.0),
            GeneratorSpec("G1", 0.0, 8.0, -1.0, 1.0, initial_mw=4.0)]
    storage = [StorageSpec("B0", StorageClass.BATTERY, -3.0, 3.0, -1.0, 1.0,
                           5000.0, initial_soc=0.5),
               StorageSpec("S0", StorageClass.SUPERCAPACITOR, -3.0, 3.0,
                           -100.0, 100.0, 2000.0, initial_soc=0.5)]
    rated = np.array([ld.rated_mw for ld in loads])[:, None]
    demand = np.round(rated * rng.uniform(0.6, 1.0, (len(loads), steps)), 3)
    avail = np.ones((2, steps), dtype=bool)
    avail[0, 5:9] = False
    return ScenarioSpec(dt_s=0.5, loads=loads, generators=gens, storage=storage,
                        demand_mw=demand, generator_available=avail)


def test_audit_and_fallback_check_agree_on_each_fault():
    # each fault corrupts one step of a clean RHO trajectory; the audit
    # must flag that step for that reason alone, and the degraded mode
    # must refuse the corrupted step as a shifted plan
    sc = fault_scenario()
    res = run_rho(sc, ObjectiveWeights(0.005, 0.03, 0.05), 4)
    assert validate_trajectory(res, sc) == []
    frac, gen, sto = res.load_fraction, res.gen_power, res.storage_power
    dt = sc.dt_s
    t_partial = np.flatnonzero((frac[1] > 0.05) & (frac[1] < 0.95))[0]
    t_trip = np.flatnonzero(~sc.generator_available[0])[0]
    t_gen = np.flatnonzero(gen[1, :-1] < 8.0 - 2 * dt)[0] + 1
    t_sto = np.flatnonzero(sto[0, :-1] < 3.0 - 2 * dt)[0] + 1
    t_grid = [np.flatnonzero(frac[i] > 0.0)[0] for i in (2, 3)]

    def balance(c, state):
        c["load_fraction"][1, t_partial] += 0.02

    def trip(c, state):
        c["gen_power"][0, t_trip] = 1.0

    def gen_ramp(c, state):
        c["gen_power"][1, t_gen] = gen[1, t_gen - 1] + 2 * dt

    def sto_ramp(c, state):
        c["storage_power"][0, t_sto] = sto[0, t_sto - 1] + 2 * dt

    def sto_box(c, state):
        c["storage_power"][1, 3] = 3.1

    def soc_box(c, state):
        # SoC ends the step 1e-3 above soc_max in the record and, for
        # the step check, from the state it starts in
        c["soc"][0, 4] = 0.801
        state.soc[0] = 0.801 + dt * sto[0, 4] / 5000.0

    def grid(i):
        def corrupt(c, state):
            c["load_fraction"][i, t_grid[i - 2]] -= sc.loads[i].step_size / 2
        return corrupt

    faults = [(balance, t_partial, "balance"),
              (trip, t_trip, "tripped generator G0"),
              (gen_ramp, t_gen, "generator G1 ramp"),
              (sto_ramp, t_sto, "storage B0 ramp"),
              (sto_box, 3, "storage S0 power"),
              (soc_box, 4, "storage B0 SoC"),
              (grid(2), t_grid[0], r"load L2 service \S+ off its stepped grid"),
              (grid(3), t_grid[1], r"load L3 service \S+ off its stepped grid")]
    fields = ("load_fraction", "gen_power", "storage_power", "soc")
    clean = {f: getattr(res, f) for f in fields}

    def shifted_plan(c, t):
        return DispatchPlan(t, *(c[f][:, t:] for f in fields),
                            ObjectiveTerms(0.0, 0.0, 0.0, 0.0), 0.0)

    for corrupt, t, label in faults:
        before = (sc.initial_state() if t == 0 else
                  SystemState(res.soc[:, t - 1].copy(), sto[:, t - 1].copy(),
                              gen[:, t - 1].copy(), t))
        state = before.copy()
        cols = {f: a.copy() for f, a in clean.items()}
        corrupt(cols, state)

        bad = validate_trajectory(replace(res, **cols), sc)
        at_t = [v for v in bad if v.startswith(f"step {t}:")]
        assert at_t and all(re.search(label, v) for v in at_t), (label, bad)
        assert _fallback_actions(sc, before, shifted_plan(clean, t), t)[1] \
            == "shifted_previous_plan", label
        assert _fallback_actions(sc, state, shifted_plan(cols, t), t)[1] \
            == "hold_and_shed", label


def test_hold_and_shed_ramps_storage_toward_the_unwind_envelope():
    # battery B0 (ramp 0.5 MW per step) at soc_min + 3e-4 discharging
    # 3 MW: its unwind envelope is 1.5 MW, one ramp step reaches 2.5 MW
    sc = fault_scenario()
    b0 = sc.storage[0]
    t = 2
    state = SystemState(np.array([b0.soc_min + 3e-4, 0.5]), np.array([3.0, 0.0]),
                        np.array([6.0, 4.0]), t)
    (frac, pg, pe), reason = _fallback_actions(sc, state, None, t)
    assert reason == "hold_and_shed"
    assert pe[0] == pytest.approx(3.0 + b0.ramp_down_mw_s * sc.dt_s)
    soc = soc_path(sc, state.soc, pe[:, None])
    bad = violations(sc, state, frac[:, None], pg[:, None], pe[:, None], soc)
    assert not [v for v in bad if "ramp" in v], bad
    # from a state the envelope can reach in one step, the clamp is exact
    state.prev_storage_power[0] = 2.0
    assert _fallback_actions(sc, state, None, t)[0][2][0] == pytest.approx(
        unwind_envelope(b0, sc.dt_s, state.soc[0])[1])


def test_hold_and_shed_stops_charging_from_a_tripped_generator():
    # both units charging 3 MW from G0, which trips at step 5 with G1 at
    # 0 MW: held, the charging alone would leave supply at -6 MW.  B0 can
    # ramp 0.5 MW in the step, S0 all the way, so S0 stops charging and
    # discharges the 2.5 MW B0 still draws
    sc = fault_scenario()
    t = 5
    assert not sc.generator_available[0, t]
    state = SystemState(np.array([0.5, 0.5]), np.array([-3.0, -3.0]),
                        np.array([6.0, 0.0]), t)
    (frac, pg, pe), reason = _fallback_actions(sc, state, None, t)
    assert reason == "hold_and_shed"
    np.testing.assert_array_equal(pg, [0.0, 0.0])
    np.testing.assert_allclose(pe, [-2.5, 2.5], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(frac, 0.0)
    soc = soc_path(sc, state.soc, pe[:, None])
    assert violations(sc, state, frac[:, None], pg[:, None], pe[:, None], soc) == []


def test_hold_and_shed_serves_a_continuous_load_in_part():
    # 16 MW held: A in full, then stepped C floored to its quarter grid
    # (5 of 6 MW), then the 1 MW left to continuous B
    loads = [LoadSpec("A", 10.0, 1.0), LoadSpec("B", 10.0, 0.2),
             LoadSpec("C", 10.0, 0.5, steps=4)]
    sc = ScenarioSpec(dt_s=0.5, loads=loads,
                      generators=[GeneratorSpec("G", 0.0, 20.0, -1.0, 1.0,
                                                initial_mw=16.0)],
                      storage=[], demand_mw=np.full((3, 1), 10.0))
    state = sc.initial_state()
    (frac, pg, pe), reason = _fallback_actions(sc, state, None, 0)
    assert reason == "hold_and_shed"
    np.testing.assert_allclose(frac, [1.0, 0.1, 0.5], rtol=0, atol=1e-12)
    assert violations(sc, state, frac[:, None], pg[:, None], pe[:, None],
                      np.zeros((0, 1))) == []


@pytest.mark.parametrize("mission", ["fault_scenario", "synth_seed7"])
def test_hold_and_shed_from_every_state_of_a_clean_mission(mission):
    # the step the degraded mode takes from any state a clean mission
    # passes through satisfies every plant rule
    if mission == "fault_scenario":
        sc, horizon, cfg = fault_scenario(), 4, None
    else:
        sc, _ = parse_scenario(synth_scenario(7, steps=120))
        horizon, cfg = 8, SolverConfig(gap_tol=1e-6, rel_gap=1e-4)
    res = run_rho(sc, ObjectiveWeights(0.005, 0.03, 0.05), horizon, cfg=cfg)
    assert res.fully_optimal and validate_trajectory(res, sc) == []
    states = [sc.initial_state()] + [
        SystemState(res.soc[:, t].copy(), res.storage_power[:, t].copy(),
                    res.gen_power[:, t].copy(), t + 1) for t in range(res.steps - 1)]
    for state in states:
        t = state.step_index
        (frac, pg, pe), reason = _fallback_actions(sc, state, None, t)
        assert reason == "hold_and_shed"
        soc = soc_path(sc, state.soc, pe[:, None])
        assert violations(sc, state, frac[:, None], pg[:, None], pe[:, None],
                          soc) == [], t
