"""Mission runs: baseline vs. receding horizon, metrics, degraded modes."""

import itertools

import numpy as np
import pytest

from shipems.engine import (MissionResult, audit_shedding_order, compare_f1,
                            operability, run_fho, run_rho, validate_trajectory)
from shipems.errors import ZeroDenominator
from shipems.lp import LinearProgram, LpStatus, solve_lp
from shipems.milp import SolverConfig
from shipems.model import (GeneratorSpec, LoadSpec, ObjectiveTerms,
                           ObjectiveWeights, ScenarioSpec, StorageClass,
                           StorageSpec)
from shipems.plant import objective_terms


def load(i, rated=4.0, weight=1.0, steps=None):
    return LoadSpec(id=f"L{i}", rated_mw=rated, weight=weight, steps=steps)


def gen(i, p_max=20.0, ramp=1.0, initial=0.0):
    return GeneratorSpec(id=f"G{i}", p_min_mw=0.0, p_max_mw=p_max,
                         ramp_down_mw_s=-ramp, ramp_up_mw_s=ramp,
                         initial_mw=initial)


def battery(i, soc=0.5, cap=1000.0, p=10.0):
    return StorageSpec(id=f"B{i}", kind=StorageClass.BATTERY, p_min_mw=-p,
                       p_max_mw=p, ramp_down_mw_s=-5.0, ramp_up_mw_s=5.0,
                       capacity_mj=cap, initial_soc=soc)


def scenario(loads, gens, storage, demand, dt=0.5, **kw):
    return ScenarioSpec(dt_s=dt, loads=loads, generators=gens, storage=storage,
                        demand_mw=np.asarray(demand, dtype=float), **kw)


def fake_result(scenario, frac, weights=ObjectiveWeights()):
    """MissionResult wrapper around a hand-written trajectory."""
    T = frac.shape[1]
    ng, ne = scenario.n_generators, scenario.n_storage
    soc = np.tile([s.initial_soc for s in scenario.storage], (T, 1)).T \
        if ne else np.zeros((0, T))
    res = MissionResult(
        scenario_name=scenario.name, mode="fho", horizon=T, weights=weights,
        load_fraction=frac, gen_power=np.zeros((ng, T)),
        storage_power=np.zeros((ne, T)), soc=soc, operability=0.0,
        terms=objective_terms(scenario, scenario.normalized_weights(), frac,
                              np.zeros((ne, T)), soc),
        solve_times=np.zeros(T), statuses=["optimal"] * T)
    res.operability = operability(res, scenario)
    return res


class TestOperability:
    def sc(self):
        return scenario([load(0, rated=1.0, weight=1.0), load(1, rated=1.0, weight=3.0)],
                        [gen(0)], [], np.ones((2, 4)))

    def test_all_served_is_one(self):
        sc = self.sc()
        assert fake_result(sc, np.ones((2, 4))).operability == 1.0

    def test_half_mission_shed(self):
        sc = self.sc()
        frac = np.ones((2, 4))
        frac[:, 2:] = 0.0
        assert fake_result(sc, frac).operability == pytest.approx(0.5)

    def test_weighted_mean(self):
        # weights {1, 3}: only the heavy load served always gives 0.75
        sc = self.sc()
        frac = np.zeros((2, 4))
        frac[1, :] = 1.0
        assert fake_result(sc, frac).operability == pytest.approx(0.75)

    def test_scale_invariance(self):
        sc = self.sc()
        rng = np.random.default_rng(5)
        frac = rng.uniform(0, 1, (2, 4))
        base = fake_result(sc, frac).operability
        for lam in (3.7, 0.011, 250.0):
            scaled = scenario(sc.loads, sc.generators, sc.storage, sc.demand_mw,
                              weight_override=lam * np.array([1.0, 3.0]))
            val = fake_result(scaled, frac).operability
            assert abs(val - base) <= 1e-12 * abs(base)

    def test_zero_weights_raise(self):
        sc = scenario([load(0, weight=0.0)], [gen(0)], [], np.ones((1, 3)))
        with pytest.raises(ZeroDenominator):
            fake_result(sc, np.ones((1, 3)))


class TestCompareF1:
    def res(self, served):
        sc = scenario([load(0)], [gen(0)], [], np.ones((1, 2)))
        r = fake_result(sc, np.ones((1, 2)))
        r.terms = ObjectiveTerms(served=served, throughput=0, imbalance=0,
                                 terminal_soc=0)
        return r

    def test_identical_is_zero(self):
        assert compare_f1(self.res(5.0), self.res(5.0)) == 0.0

    def test_small_gap(self):
        assert compare_f1(self.res(200.0), self.res(199.0)) == pytest.approx(0.005)

    def test_zero_baseline_raises(self):
        with pytest.raises(ZeroDenominator):
            compare_f1(self.res(0.0), self.res(1.0))


def test_fho_ample_generation_serves_all():
    sc = scenario([load(0), load(1, weight=0.2)], [gen(0, p_max=30, initial=10)],
                  [], np.full((2, 8), 3.0))
    res = run_fho(sc, ObjectiveWeights())
    assert res.operability == pytest.approx(1.0, abs=1e-9)
    assert validate_trajectory(res, sc) == []


def test_fho_no_supply_sheds_everything():
    sc = scenario([load(0)], [], [], np.full((1, 5), 2.0))
    res = run_fho(sc, ObjectiveWeights())
    assert res.operability == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.load_fraction, 0.0, atol=1e-12)


def _oracle_scenario():
    loads = [load(0, rated=4.0, weight=1.0),
             load(1, rated=2.0, weight=0.3, steps=2)]
    gens = [gen(0, p_max=3.0, ramp=1.0, initial=2.0)]
    sto = [StorageSpec(id="B0", kind=StorageClass.BATTERY, p_min_mw=-2.0,
                       p_max_mw=2.0, ramp_down_mw_s=-5.0, ramp_up_mw_s=5.0,
                       capacity_mj=20.0, initial_soc=0.5)]
    demand = np.array([[2.3, 3.1, 4.0, 3.9, 2.7, 2.1],
                       [1.8, 1.8, 1.8, 1.8, 1.8, 1.8]])
    return scenario(loads, gens, sto, demand)


def _oracle_best(sc, weights):
    """Whole-mission optimum by enumerating the stepped-load grid and
    solving the continuous remainder as an LP (independent of the
    window builder)."""
    T = 6
    dt = sc.dt_s
    d0 = sc.demand_mw[0]
    d1 = sc.demand_mw[1]
    w0 = 1.0 * 4.0
    w1 = 0.3 * 2.0
    g = sc.generators[0]
    b = sc.storage[0]
    rate = dt / b.capacity_mj
    alpha = b.terminal_priority

    # continuous variables: o0[0:6], pg[6:12], pe[12:18], u[18:24]
    nv = 24
    lower = np.concatenate([np.zeros(6), np.full(6, g.p_min_mw),
                            np.full(6, b.p_min_mw), np.zeros(6)])
    upper = np.concatenate([np.ones(6), np.full(6, g.p_max_mw),
                            np.full(6, b.p_max_mw), np.full(6, b.p_max_mw)])
    c = np.zeros(nv)
    c[0:6] = w0
    c[12:18] = -weights.terminal * alpha * rate
    c[18:24] = -weights.throughput

    best = (-np.inf, None, None)
    for levels in itertools.product(range(3), repeat=T):
        frac1 = 0.5 * np.array(levels)
        rows, rhs = [], []
        for k in range(T):
            r = np.zeros(nv)
            r[k] = d0[k]
            r[6 + k] = -1.0
            r[12 + k] = -1.0
            rows.append(r)
            rhs.append(-d1[k] * frac1[k])
            for sign in (1.0, -1.0):
                r = np.zeros(nv)
                r[6 + k] = sign
                if k:
                    r[6 + k - 1] = -sign
                    rows.append(r)
                    rhs.append(g.ramp_up_mw_s * dt if sign > 0 else -g.ramp_down_mw_s * dt)
                else:
                    rows.append(r)
                    rhs.append(sign * g.initial_mw
                               + (g.ramp_up_mw_s * dt if sign > 0 else -g.ramp_down_mw_s * dt))
                r = np.zeros(nv)
                r[12 + k] = sign
                if k:
                    r[12 + k - 1] = -sign
                    rows.append(r)
                    rhs.append(b.ramp_up_mw_s * dt if sign > 0 else -b.ramp_down_mw_s * dt)
                else:
                    rows.append(r)
                    rhs.append(b.ramp_up_mw_s * dt if sign > 0 else -b.ramp_down_mw_s * dt)
            r = np.zeros(nv)
            r[12:12 + k + 1] = rate
            rows.append(r)
            rhs.append(b.initial_soc - b.soc_min)
            rows.append(-r)
            rhs.append(b.soc_max - b.initial_soc)
            r = np.zeros(nv)
            r[12 + k] = 1.0
            r[18 + k] = -1.0
            rows.append(r)
            rhs.append(0.0)
            r = np.zeros(nv)
            r[12 + k] = -1.0
            r[18 + k] = -1.0
            rows.append(r)
            rhs.append(0.0)
        sol = solve_lp(LinearProgram(objective=c, lower=lower, upper=upper,
                                     a_rg=np.array(rows), rg_upper=np.array(rhs),
                                     rg_lower=np.full(len(rhs), -np.inf)))
        if sol.status is not LpStatus.OPTIMAL:
            continue
        const = w1 * frac1.sum() + weights.terminal * alpha * b.initial_soc
        total = sol.objective_value + const
        if total > best[0]:
            served = w0 * sol.x[0:6].sum() + w1 * frac1.sum()
            best = (total, served, frac1)
    return best


def test_fho_matches_exhaustive_oracle():
    sc = _oracle_scenario()
    weights = ObjectiveWeights(throughput=0.01, imbalance=0.0, terminal=0.05)
    best_obj, best_served, _ = _oracle_best(sc, weights)
    res = run_fho(sc, weights)
    assert res.objective() == pytest.approx(best_obj, abs=1e-6)
    assert res.terms.served == pytest.approx(best_served, abs=1e-5)
    denom = sc.normalized_weights().sum() * 6
    assert res.operability == pytest.approx(best_served / denom, abs=1e-6)
    assert validate_trajectory(res, sc) == []


def test_rho_full_horizon_equals_fho():
    # with the window spanning the mission and exact propagation the
    # receding-horizon run reproduces the baseline objective
    rng = np.random.default_rng(42)
    for trial in range(3):
        demand = rng.uniform(0.5, 5.0, (3, 10))
        sc = scenario(
            [load(0, weight=1.0), load(1, weight=0.4), load(2, weight=0.15, steps=2)],
            [gen(0, p_max=8.0, ramp=2.0, initial=3.0)],
            [battery(0, soc=0.45, cap=50.0, p=3.0)],
            demand)
        weights = ObjectiveWeights(0.005, 0.0, 0.05)
        fho = run_fho(sc, weights)
        rho = run_rho(sc, weights, horizon=sc.steps)
        assert rho.objective() == pytest.approx(fho.objective(), abs=1e-6)
        assert validate_trajectory(rho, sc) == []
        assert rho.fallbacks == []


def test_rho_myopic_horizon_cannot_beat_lookahead():
    # shortfall at steps 4..7 needs pre-charging that a one-step
    # lookahead never does (idle storage is free, charging costs f1 now)
    demand = np.array([[1.0, 1.0, 1.0, 1.0, 6.0, 6.0, 6.0, 6.0]])
    sc = scenario([load(0, rated=6.0)],
                  [gen(0, p_max=2.0, ramp=4.0, initial=1.0)],
                  [battery(0, soc=0.1, cap=40.0, p=4.0)],
                  demand)
    weights = ObjectiveWeights()
    far = run_rho(sc, weights, horizon=sc.steps)
    near = run_rho(sc, weights, horizon=1)
    assert near.operability <= far.operability + 1e-9
    assert near.operability < far.operability - 1e-3
    for res in (near, far):
        assert validate_trajectory(res, sc) == []


def test_rho_records_wall_times():
    sc = scenario([load(0)], [gen(0, initial=4.0)], [], np.full((1, 6), 2.0))
    res = run_rho(sc, ObjectiveWeights(), horizon=3)
    assert res.solve_times.shape == (6,)
    assert np.all(res.solve_times > 0)
    assert res.solve_times.sum() <= res.total_wall_s + 1e-9
    assert res.fallbacks == []
    assert res.fully_optimal


def test_rho_deadline_fallback_bookkeeping():
    sc = scenario([load(0), load(1, weight=0.2)], [gen(0, p_max=10, initial=4.0)],
                  [battery(0)], np.full((2, 5), 2.0))
    res = run_rho(sc, ObjectiveWeights(), horizon=4,
                  cfg=SolverConfig(gap_tol=1e-9, deadline_s=0.0))
    # every step timed out before the root relaxation: degraded mode throughout
    assert len(res.fallbacks) == 5
    assert all(r == "hold_and_shed" for _, r in res.fallbacks)
    assert not res.fully_optimal
    assert validate_trajectory(res, sc) == []


def test_rho_step_deadline_counts_the_build(monkeypatch):
    # the build alone overruns the 20 ms step budget, so the solver gets
    # nothing left and every step takes a degraded-mode action
    import time
    from shipems import engine
    build = engine.build_window_milp

    def slow_build(*args, **kwargs):
        time.sleep(0.03)
        return build(*args, **kwargs)

    monkeypatch.setattr(engine, "build_window_milp", slow_build)
    sc = scenario([load(0), load(1, weight=0.2)], [gen(0, p_max=10, initial=4.0)],
                  [battery(0)], np.full((2, 5), 2.0))
    res = run_rho(sc, ObjectiveWeights(), horizon=4,
                  cfg=SolverConfig(deadline_s=0.02))
    assert [t for t, _ in res.fallbacks] == list(range(5))
    assert all(s == "timed_out" for s in res.statuses)
    assert validate_trajectory(res, sc) == []


def test_inconsistent_state_is_a_hard_error():
    # a measured previous power far outside the generator box makes the
    # ramp seam unsatisfiable; that is bad data, not a shedding problem
    from shipems.errors import InfeasibleWindow
    sc = scenario([load(0)], [gen(0, p_max=6.0, initial=2.0)], [],
                  np.full((1, 6), 2.0))

    def corrupt(state):
        state.prev_generator_power = np.array([1e6])
        return state

    with pytest.raises(InfeasibleWindow):
        run_rho(sc, ObjectiveWeights(), horizon=3, feedback=corrupt)


def test_unreachable_storage_state_aborts_the_mission():
    # a measured storage power three ramp steps above its box leaves the
    # window's ramp seam no feasible power; the builder lets it through
    # and the solve reports the window infeasible
    from shipems import io as sio
    from shipems.errors import InfeasibleWindow
    sc, _ = sio.parse_scenario(sio.synth_scenario(seed=3, n_loads=3, n_generators=2,
                                                  n_storage=2, steps=12))
    unit = sc.storage[0]

    def corrupt(state):
        if state.step_index == 5:
            state.prev_storage_power[0] = unit.p_max_mw + 3 * unit.ramp_up_mw_s * sc.dt_s
        return state

    with pytest.raises(InfeasibleWindow, match="window at step 5 infeasible"):
        run_rho(sc, ObjectiveWeights(0.005, 0.03, 0.05), horizon=4, feedback=corrupt)


def test_shifted_start_reaches_the_crash_optimum(monkeypatch):
    # every window after the first starts from the previous root basis
    # shifted one step; through a generator trip and its recovery, a
    # stepped load, a battery with four unwind guard rows per side next
    # to a supercapacitor whose guards are vacuous, and the shrinking
    # windows at mission end, that start (repaired where it is
    # structurally singular) reaches the crash basis's optimum
    from scipy.sparse.csgraph import structural_rank

    from shipems import engine
    from shipems.lp import _SimplexCore

    T, horizon = 12, 5
    avail = np.ones((2, T), dtype=bool)
    avail[1, 4:7] = False
    # demand that forces shedding: three of the shifted bases here are
    # structurally singular
    demand = np.random.default_rng(27).uniform(3.0, 8.0, (3, T))
    supercap = StorageSpec(id="S1", kind=StorageClass.SUPERCAPACITOR,
                           p_min_mw=-10.0, p_max_mw=10.0, ramp_down_mw_s=-100.0,
                           ramp_up_mw_s=100.0, capacity_mj=200.0, initial_soc=0.7)
    sc = scenario([load(0, rated=6.0), load(1, rated=4.0, steps=4),
                   load(2, rated=4.0, weight=0.3)],
                  [gen(0, p_max=8.0, ramp=1.0, initial=4.0),
                   gen(1, p_max=6.0, ramp=0.5, initial=3.0)],
                  [battery(0, soc=0.4, cap=60.0), supercap], demand,
                  generator_available=avail)
    windows = []
    build = engine.build_window_milp

    def spy(*args, **kwargs):
        problem, layout = build(*args, **kwargs)
        windows.append((problem, layout))
        return problem, layout

    monkeypatch.setattr(engine, "build_window_milp", spy)
    cores = []
    init = _SimplexCore.__init__

    def count(core, *args, **kwargs):
        cores.append(core)
        init(core, *args, **kwargs)

    monkeypatch.setattr(_SimplexCore, "__init__", count)
    res = run_rho(sc, ObjectiveWeights(0.005, 0.03, 0.05), horizon)
    monkeypatch.setattr(_SimplexCore, "__init__", init)
    # one core per window length: each window of the previous window's
    # length is patched into the core the previous window ran on
    assert len(cores) == 5
    assert [p.core for p, _ in windows[1:8]] == [cores[0]] * 7
    assert validate_trajectory(res, sc) == []
    assert [layout.horizon for _, layout in windows] == [5] * 8 + [4, 3, 2, 1]
    # a window of the previous window's length reuses its template; each
    # shorter window at mission end builds its own
    templates = [layout for _, layout in windows]
    assert all(a is b for a, b in zip(templates[:8], templates[1:8]))
    distinct = list({id(tpl): tpl for tpl in templates}.values())
    assert [tpl.horizon for tpl in distinct] == [5, 4, 3, 2, 1]
    assert windows[0][0].basis_hint is None      # nothing to shift
    repaired = 0
    for t, (problem, _) in enumerate(windows[1:], start=1):
        assert problem.basis_hint is not None, f"step {t} was not shifted"
        crash = _SimplexCore(problem.lp).solve(warm=problem.fallback_basis())
        core = _SimplexCore(problem.lp)
        lo = np.concatenate([core.col_lo, core.row_lo])
        up = np.concatenate([core.col_up, core.row_up])
        vstat, basic = core._initial_basis(lo, up, problem.basis_hint)
        mat = core._basis_matrix(basic)
        repaired += structural_rank(mat) < core.m
        assert structural_rank(core._repair(vstat, basic, lo, up, mat)) == core.m
        shifted = core.solve(warm=problem.basis_hint)
        assert crash[0] is shifted[0] is LpStatus.OPTIMAL
        assert shifted[2] == pytest.approx(crash[2], abs=1e-7), f"step {t}"
    assert repaired == 3


def test_zero_demand_window_builds_a_fresh_core(monkeypatch):
    # a zero demand entry is dropped from a fresh core's rows, so the
    # windows that hold it, and the one after, cannot patch the kept core
    from shipems import engine
    from shipems.lp import _SimplexCore

    T, horizon, zero_at = 12, 4, 6
    demand = np.random.default_rng(5).uniform(1.0, 6.0, (2, T))
    demand[0, zero_at] = 0.0
    sc = scenario([load(0, rated=6.0), load(1, rated=6.0, steps=2)],
                  [gen(0, p_max=8.0, ramp=1.0, initial=4.0)],
                  [battery(0, soc=0.5, cap=60.0)], demand)
    weights = ObjectiveWeights(0.005, 0.03, 0.05)
    cores = []
    solve = engine.solve_milp

    def spy(problem, cfg=None):
        sol = solve(problem, cfg)
        cores.append(sol.core)
        return sol

    monkeypatch.setattr(engine, "solve_milp", spy)
    kept = run_rho(sc, weights, horizon)
    fresh_at = [t for t in range(T) if t == 0 or cores[t] is not cores[t - 1]]
    assert fresh_at == [0, 3, 4, 5, 6, 7, 9, 10, 11]
    monkeypatch.setattr(_SimplexCore, "patch", lambda core, lp: False)
    fresh = run_rho(sc, weights, horizon)
    assert len(set(map(id, cores[T:]))) == T
    for name in ("load_fraction", "gen_power", "storage_power", "soc"):
        assert np.array_equal(getattr(kept, name), getattr(fresh, name)), name
    assert kept.statuses == fresh.statuses


def test_rho_feedback_hook_perturbs_state():
    sc = scenario([load(0)], [gen(0, p_max=6.0, initial=2.0)],
                  [battery(0, soc=0.5, cap=100.0)], np.full((1, 6), 2.0))

    def nudge(state):
        state.soc = np.clip(state.soc - 0.01, 0.1, 0.8)
        return state

    res = run_rho(sc, ObjectiveWeights(terminal=0.1), horizon=3, feedback=nudge)
    assert not res.exact_propagation
    assert res.steps == 6
    # recorded SoC is the measured path, not the model propagation
    assert validate_trajectory(res, sc) == []


def test_shedding_order_audit_clean_on_optimum():
    demand = np.vstack([np.full(8, 3.0), np.full(8, 3.0), np.full(8, 3.0)])
    sc = scenario([load(0, rated=3.0, weight=1.0), load(1, rated=3.0, weight=0.5),
                   load(2, rated=3.0, weight=0.1)],
                  [gen(0, p_max=5.0, ramp=10.0, initial=5.0)], [], demand)
    res = run_fho(sc, ObjectiveWeights())
    assert res.operability < 1.0
    assert audit_shedding_order(res, sc) == []


def test_shedding_order_audit_flags_inverted_priority():
    demand = np.full((2, 3), 2.0)
    sc = scenario([load(0, rated=2.0, weight=1.0), load(1, rated=2.0, weight=0.1)],
                  [gen(0, p_max=2.0, ramp=10.0, initial=2.0)], [], demand)
    frac = np.zeros((2, 3))
    frac[1, :] = 1.0  # serves the light load, sheds the heavy one
    bad = audit_shedding_order(fake_result(sc, frac), sc)
    assert bad and all(v[1] == "L0" and v[2] == "L1" for v in bad)
