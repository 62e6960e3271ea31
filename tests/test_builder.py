"""Window construction, decode, and formulation-level invariants."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from shipems.builder import build_window_milp, decode_plan, window_variable_count
from shipems.errors import DecodeMismatch, InfeasibleWindow
from shipems.io import parse_scenario, synth_scenario
from shipems.lp import AT_UPPER, TOL, LpStatus, solve_lp
from shipems.milp import MilpStatus, SolverConfig, solve_milp
from shipems.model import (GeneratorSpec, LoadSpec, ObjectiveWeights,
                           ScenarioSpec, StorageClass, StorageSpec)


def load(i, rated=4.0, weight=1.0, steps=None):
    return LoadSpec(id=f"L{i}", rated_mw=rated, weight=weight, steps=steps)


def gen(i, p_max=20.0, ramp=1.0, initial=0.0, p_min=0.0):
    return GeneratorSpec(id=f"G{i}", p_min_mw=p_min, p_max_mw=p_max,
                         ramp_down_mw_s=-ramp, ramp_up_mw_s=ramp,
                         initial_mw=initial)


def battery(i, soc=0.5, cap=1000.0):
    return StorageSpec(id=f"B{i}", kind=StorageClass.BATTERY, p_min_mw=-10.0,
                       p_max_mw=10.0, ramp_down_mw_s=-5.0, ramp_up_mw_s=5.0,
                       capacity_mj=cap, initial_soc=soc)


def supercap(i, soc=0.5):
    return StorageSpec(id=f"S{i}", kind=StorageClass.SUPERCAPACITOR,
                       p_min_mw=-10.0, p_max_mw=10.0, ramp_down_mw_s=-100.0,
                       ramp_up_mw_s=100.0, capacity_mj=200.0, initial_soc=soc)


def scenario(loads, gens, storage, demand, dt=0.5, avail=None, **kw):
    return ScenarioSpec(dt_s=dt, loads=loads, generators=gens, storage=storage,
                        demand_mw=np.asarray(demand, dtype=float),
                        generator_available=avail, **kw)


def solve_window(sc, weights=None, horizon=None, state=None, gap=1e-9):
    weights = weights or ObjectiveWeights()
    state = state or sc.initial_state()
    prob, layout = build_window_milp(sc, state, weights, horizon or sc.steps)
    sol = solve_milp(prob, SolverConfig(gap_tol=gap))
    assert sol.status is MilpStatus.OPTIMAL
    return decode_plan(sol, layout, sc, state), sol, layout


def test_minimal_instance_shape():
    # one continuous load, one generator, no storage, single step:
    # two columns, one balance row, box bounds only
    sc = scenario([load(0)], [gen(0)], [], [[3.0]])
    prob, layout = build_window_milp(sc, sc.initial_state(), ObjectiveWeights(), 1)
    assert prob.lp.n_vars == 2
    assert layout.n_cols == 2
    assert prob.lp.n_rows == 1
    assert not prob.integrality.any()


def test_variable_count_formula():
    # Np*(nL + nG + 3nE + nE(nE-1)/2): counted per step as one service
    # level per load, one power per generator, a power plus a state of
    # charge plus an absolute-power auxiliary per storage unit, and one
    # gap auxiliary per pair
    assert window_variable_count(1, 1, 0, 1) == 2
    assert window_variable_count(2, 1, 2, 1) == 2 + 1 + 6 + 1
    assert window_variable_count(8, 3, 4, 60) == 60 * (8 + 3 + 12 + 6)

    units = [battery(0), battery(1), supercap(2), supercap(3)]
    sc = scenario([load(0), load(1)], [gen(0)], units, np.ones((2, 5)))
    prob, layout = build_window_milp(sc, sc.initial_state(), ObjectiveWeights(), 3)
    assert layout.soc_gap_cols.shape == (6, 3)          # 6 pairs per step
    assert layout.soc_gap_cols.size == 18               # 18 pair columns over Np=3
    assert prob.lp.n_vars == window_variable_count(2, 1, 4, 3)


def test_window_shrinks_at_mission_end():
    sc = scenario([load(0)], [gen(0)], [], np.ones((1, 4)))
    state = sc.initial_state()
    state.step_index = 3
    prob, layout = build_window_milp(sc, state, ObjectiveWeights(), 10)
    assert layout.horizon == 1


def test_ample_generation_serves_everything():
    sc = scenario([load(0, weight=1.0), load(1, weight=0.1)],
                  [gen(0, p_max=30.0, initial=10.0)], [], np.full((2, 6), 3.0))
    plan, sol, _ = solve_window(sc)
    np.testing.assert_allclose(plan.load_fraction, 1.0, atol=1e-9)
    # with zero penalty weights and ample generation f1 hits its ceiling
    assert plan.terms.served == pytest.approx(sc.normalized_weights().sum() * 6, abs=1e-7)
    assert plan.terms.throughput == 0.0
    assert plan.terms.imbalance == 0.0


def test_stepped_load_decodes_on_grid():
    # generation covers exactly half of the stepped load's demand
    sc = scenario([load(0, rated=4.0, steps=4)], [gen(0, p_max=2.0, initial=2.0)],
                  [], np.full((1, 3), 4.0))
    plan, _, _ = solve_window(sc)
    np.testing.assert_allclose(plan.load_fraction, 0.5, atol=1e-9)


def test_tripped_generator_forces_zero():
    avail = np.ones((1, 4), dtype=bool)
    avail[0, 2:] = False
    sc = scenario([load(0)], [gen(0, initial=4.0)], [], np.full((1, 4), 4.0),
                  avail=avail)
    plan, _, _ = solve_window(sc)
    np.testing.assert_allclose(plan.gen_power[0, 2:], 0.0, atol=1e-12)
    np.testing.assert_allclose(plan.load_fraction[0, 2:], 0.0, atol=1e-9)


def test_balance_holds_on_decoded_plan():
    rng = np.random.default_rng(3)
    demand = rng.uniform(0.5, 4.0, (3, 8))
    sc = scenario([load(0, weight=1.0), load(1, weight=0.4), load(2, weight=0.1, steps=2)],
                  [gen(0, p_max=6.0, initial=3.0)], [battery(0, soc=0.4)], demand)
    plan, _, _ = solve_window(sc, ObjectiveWeights(0.001, 0.0, 0.01))
    served = (demand * plan.load_fraction).sum(axis=0)
    supplied = plan.gen_power.sum(axis=0) + plan.storage_power.sum(axis=0)
    assert np.all(served <= supplied + 1e-9)


def test_ramp_limits_hold_including_seam():
    demand = np.concatenate([np.full(3, 1.0), np.full(5, 20.0)])[None, :]
    sc = scenario([load(0, rated=20.0)], [gen(0, p_max=25.0, ramp=1.0, initial=1.0)],
                  [], demand)
    plan, _, _ = solve_window(sc)
    dt = sc.dt_s
    steps = np.diff(np.concatenate([[1.0], plan.gen_power[0]]))
    assert np.all(steps <= 1.0 * dt + 1e-9)
    assert np.all(steps >= -1.0 * dt - 1e-9)


def test_soc_stays_in_box():
    # storage alone must serve; SoC floor caps how much it can give
    sc = scenario([load(0, rated=10.0)], [], [battery(0, soc=0.15, cap=100.0)],
                  np.full((1, 10), 8.0))
    plan, _, _ = solve_window(sc)
    assert np.all(plan.soc[0] >= 0.1 - 1e-9)
    assert np.all(plan.soc[0] <= 0.8 + 1e-9)
    # 5 MJ sits above the floor; serving the 8 MW load for one step
    # costs 4 MJ, so total service is capped at sum(o) = 1.25 and
    # f1 = w_hat * 1.25 = 12.5
    assert plan.terms.served == pytest.approx(12.5, abs=1e-6)


def test_abs_power_auxiliary_tight_under_penalty():
    # the discharge/charge split carries the |P| linearization: under a
    # positive throughput weight no optimum charges and discharges at
    # once, so the implied auxiliary (their sum) equals |net power|
    sc = scenario([load(0, rated=8.0)], [gen(0, p_max=4.0, initial=4.0)],
                  [battery(0, soc=0.5)], np.full((1, 4), 8.0))
    weights = ObjectiveWeights(throughput=0.01)
    state = sc.initial_state()
    prob, layout = build_window_milp(sc, state, weights, 4)
    sol = solve_milp(prob, SolverConfig(gap_tol=1e-9))
    assert sol.status is MilpStatus.OPTIMAL
    dis = sol.x[layout.discharge_cols]
    chg = sol.x[layout.charge_cols]
    u = dis + chg
    p = dis - chg
    assert np.all(u >= np.abs(p) - 1e-9)
    np.testing.assert_allclose(u, np.abs(p), atol=1e-6)


def test_zero_storage_scenario_zeroes_terms():
    sc = scenario([load(0)], [gen(0, initial=4.0)], [], np.full((1, 5), 2.0))
    plan, _, _ = solve_window(sc)
    assert plan.terms.throughput == 0.0
    assert plan.terms.imbalance == 0.0
    assert plan.terms.terminal_soc == 0.0


def test_decode_mismatch_detected():
    sc = scenario([load(0)], [gen(0, initial=4.0)], [], np.full((1, 3), 2.0))
    state = sc.initial_state()
    prob, layout = build_window_milp(sc, state, ObjectiveWeights(), 3)
    sol = solve_milp(prob)
    # corrupt the layout weights so recombination cannot match
    bad = layout.__class__(**{**layout.__dict__, "w_hat": layout.w_hat * 2.0})
    with pytest.raises(DecodeMismatch):
        decode_plan(sol, bad, sc, state)


def test_terminal_reward_charges_storage():
    # surplus generation, terminal weight on: the window should end
    # with more energy in the tank than it started with
    sc = scenario([load(0, rated=2.0)], [gen(0, p_max=20.0, initial=5.0)],
                  [battery(0, soc=0.4)], np.full((1, 20), 2.0))
    plan, _, _ = solve_window(sc, ObjectiveWeights(terminal=0.5))
    assert plan.soc[0, -1] > 0.4 + 1e-6
    assert np.all(plan.load_fraction >= 1.0 - 1e-9)


def test_imbalance_penalty_closes_gap():
    units = [battery(0, soc=0.3), battery(1, soc=0.7)]
    sc = scenario([load(0, rated=1.0)], [gen(0, p_max=10.0, initial=5.0)],
                  units, np.full((1, 40), 1.0))
    plan, _, _ = solve_window(sc, ObjectiveWeights(imbalance=0.05))
    gap_start = abs(plan.soc[0, 0] - plan.soc[1, 0])
    gap_end = abs(plan.soc[0, -1] - plan.soc[1, -1])
    assert gap_end < gap_start
    assert gap_end < 0.02


def test_crash_basis_solves_faster_than_cold():
    rng = np.random.default_rng(12)
    demand = rng.uniform(1.0, 5.0, (4, 30))
    sc = scenario([load(i, weight=w) for i, w in enumerate([1.0, 0.6, 0.3, 0.1])],
                  [gen(0, p_max=25.0, initial=10.0)],
                  [battery(0, soc=0.35), supercap(1, soc=0.6)], demand)
    state = sc.initial_state()
    prob, layout = build_window_milp(sc, state, ObjectiveWeights(0.005, 0.03, 0.05), 30)
    crash_lp = solve_lp(prob.lp, basis=prob.basis_hint)
    cold_lp = solve_lp(prob.lp)
    assert crash_lp.status is cold_lp.status is LpStatus.OPTIMAL
    assert crash_lp.iterations < cold_lp.iterations
    warm = solve_milp(prob, SolverConfig(gap_tol=1e-9))
    cold = solve_milp(MilpProblemNoHint(prob), SolverConfig(gap_tol=1e-9))
    assert warm.status is MilpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-6)


def MilpProblemNoHint(prob):
    from shipems.milp import MilpProblem
    return MilpProblem(lp=prob.lp, integrality=prob.integrality, basis_hint=None)


def test_crash_basis_starts_primal_feasible():
    # the synth whole-mission window from its initial state: every
    # storage unit starts at 0 MW, so idling satisfies its seam and the
    # crash point lies inside every box and row range
    sc, _ = parse_scenario(synth_scenario(42))
    weights = ObjectiveWeights(0.005, 0.03, 0.05)
    prob, _ = build_window_milp(sc, sc.initial_state(), weights, sc.steps)
    lp, basis = prob.lp, prob.basis_hint
    n, m = lp.n_vars, lp.n_rows
    lo = np.concatenate([lp.lower, lp.rg_lower])
    up = np.concatenate([lp.upper, lp.rg_upper])
    # columns and row activities: [A, -I] z = 0, the basics solved for
    z = np.where(basis.vstat == AT_UPPER, up, lo)
    z[basis.basic] = 0.0
    g = sp.hstack([lp.a_rg, -sp.identity(m)], format="csc")
    z[basis.basic] = splu(g[:, basis.basic]).solve(z[n:] - lp.a_rg @ z[:n])
    out = np.flatnonzero((z < lo - TOL) | (z > up + TOL))
    assert out.size == 0, f"basics out of bounds: {out.tolist()}"


def window_arrays(problem):
    lp, basis = problem.lp, problem.basis_hint
    return {"indptr": lp.a_rg.indptr, "indices": lp.a_rg.indices,
            "data": lp.a_rg.data, "rg_lower": lp.rg_lower,
            "rg_upper": lp.rg_upper, "lower": lp.lower, "upper": lp.upper,
            "objective": lp.objective, "integrality": problem.integrality,
            "vstat": basis.vstat, "basic": basis.basic}


def test_reused_template_builds_the_fresh_window():
    # one small mission through a generator trip and its recovery, a
    # stepped load, a battery with four unwind guard rows per side next
    # to a supercapacitor that stops within one step (one row per side),
    # and the shrinking windows at mission end; every window of one
    # length has one row structure.  A state whose generator power its
    # ramp cannot bring back into the box is a build error
    import copy
    from shipems.engine import run_rho

    T, horizon = 12, 5
    avail = np.ones((2, T), dtype=bool)
    avail[1, 4:7] = False
    rng = np.random.default_rng(6)
    demand = rng.uniform(2.0, 4.0, (3, T))
    sc = scenario([load(0, rated=6.0), load(1, rated=4.0, steps=4),
                   load(2, rated=4.0, weight=0.3)],
                  [gen(0, p_max=8.0, ramp=1.0, initial=4.0),
                   gen(1, p_max=6.0, ramp=0.5, initial=3.0)],
                  [battery(0, soc=0.4, cap=60.0), supercap(1, soc=0.7)],
                  demand, avail=avail)
    weights = ObjectiveWeights(0.005, 0.03, 0.05)
    states = [sc.initial_state()]
    run_rho(sc, weights, horizon,
            feedback=lambda s: states.append(copy.deepcopy(s)) or s)
    states.pop()                                  # step T is past the mission

    templates = {}
    structure = {}
    for state in states:
        shared, layout = build_window_milp(sc, state, weights, horizon,
                                           templates=templates)
        fresh, _ = build_window_milp(sc, state, weights, horizon)
        for name, value in window_arrays(fresh).items():
            np.testing.assert_array_equal(window_arrays(shared)[name], value,
                                          err_msg=f"{name} at step {state.step_index}")
        first = structure.setdefault(layout.horizon, shared.lp.a_rg)
        for name in ("indptr", "indices"):
            np.testing.assert_array_equal(getattr(shared.lp.a_rg, name),
                                          getattr(first, name),
                                          err_msg=f"{name} at step {state.step_index}")
        if 4 <= state.step_index <= 6:
            assert not shared.lp.upper[layout.gen_cols[1, 0]]
    assert sorted(templates) == [1, 2, 3, 4, 5]

    bad_seam = copy.deepcopy(states[2])
    bad_seam.prev_generator_power = np.array([4.0, 20.0])
    with pytest.raises(InfeasibleWindow, match="generator G1 at step 2"):
        build_window_milp(sc, bad_seam, weights, horizon, templates=templates)
