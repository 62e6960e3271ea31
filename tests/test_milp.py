"""Branch-and-bound vs. exhaustive integer enumeration."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shipems import io as sio
from shipems.builder import build_window_milp, decode_plan
from shipems.engine import run_rho
from shipems.lp import Basis, LinearProgram, LpStatus, _SimplexCore, solve_lp
from shipems.milp import MilpProblem, MilpSolution, MilpStatus, SolverConfig, solve_milp
from shipems.model import ObjectiveWeights, SystemState
from shipems.plant import violations

from oracles import highs_milp, milp_enum_oracle, milp_vertex_lp


def le_lp(c, a_ub, b_ub, lower, upper):
    """``LinearProgram`` for ``a_ub x <= b_ub``: ranged rows with an open
    lower side (a pure box LP when ``a_ub`` is None)."""
    if a_ub is None:
        return LinearProgram(objective=c, lower=lower, upper=upper)
    b_ub = np.asarray(b_ub, dtype=float)
    return LinearProgram(objective=c, lower=lower, upper=upper, a_rg=a_ub,
                         rg_lower=np.full(b_ub.size, -np.inf), rg_upper=b_ub)


def lp_backend(c, a_ub, b_ub, lower, upper):
    """Residual-LP backend for the enumeration oracle (vetted in test_lp)."""
    if len(c) == 0:
        ok = b_ub is None or np.all(np.asarray(b_ub) >= -1e-9)
        return ("optimal", np.zeros(0), 0.0) if ok else ("infeasible", None, -np.inf)
    sol = solve_lp(le_lp(c, a_ub, b_ub, lower, upper))
    if sol.status is LpStatus.OPTIMAL:
        return "optimal", sol.x, sol.objective_value
    return "infeasible", None, -np.inf


def make_milp(c, a_ub, b_ub, lower, upper, is_int, hint=None):
    return MilpProblem(lp=le_lp(c, a_ub, b_ub, lower, upper), integrality=is_int,
                       basis_hint=hint)


def _pivot_spy(monkeypatch):
    """The pivot count of every simplex solve from now on, in order."""
    pivots = []
    solve = _SimplexCore.solve

    def spy(self, *args, **kwargs):
        out = solve(self, *args, **kwargs)
        pivots.append(out[3])
        return out

    monkeypatch.setattr(_SimplexCore, "solve", spy)
    return pivots


def test_fallback_starts_the_root_without_a_hint(monkeypatch):
    # max 3x + 2y, 2x + 2y <= 7, x + 3y <= 6 over the integers: the
    # root relaxation (3.5, 0) branches; the fallback is the LP's optimal
    # basis, so the root takes no pivot, and no other node asks for it
    lp = le_lp([3.0, 2.0], [[2.0, 2.0], [1.0, 3.0]], [7.0, 6.0], [0.0, 0.0], [10.0, 10.0])
    optimal = solve_lp(lp).basis
    calls = []

    def fallback():
        calls.append(1)
        return Basis(optimal.vstat.copy(), optimal.basic.copy())

    pivots = _pivot_spy(monkeypatch)
    cold = solve_milp(MilpProblem(lp=lp, integrality=[True, True]))
    assert pivots[0] > 0
    pivots.clear()
    sol = solve_milp(MilpProblem(lp=lp, integrality=[True, True], basis_hint=None,
                                 fallback_basis=fallback))
    for res in (cold, sol):
        assert res.status is MilpStatus.OPTIMAL
        assert res.objective_value == pytest.approx(9.0, abs=1e-9)
    assert sol.nodes_explored > 1
    assert calls == [1] and pivots[0] == 0


def test_malformed_hint_gives_way_to_the_fallback(monkeypatch):
    # the problem above with a hint of the wrong size: the root takes
    # the next start, the fallback (the LP's optimal basis), not slacks
    lp = le_lp([3.0, 2.0], [[2.0, 2.0], [1.0, 3.0]], [7.0, 6.0], [0.0, 0.0], [10.0, 10.0])
    optimal = solve_lp(lp).basis
    malformed = Basis(optimal.vstat[:-1], optimal.basic)
    pivots = _pivot_spy(monkeypatch)
    sol = solve_milp(MilpProblem(lp=lp, integrality=[True, True], basis_hint=malformed,
                                 fallback_basis=lambda: optimal))
    assert sol.status is MilpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(9.0, abs=1e-9)
    assert pivots[0] == 0


def test_zero_row_milp_solves_at_the_root():
    # no rows: the relaxation optimum is a box corner, integral on
    # integer bounds, and its 0 x 0 basis warm-starts the LP in 0 pivots
    lp = le_lp([2.0, -1.0, 0.5], None, None, [0.0, -2.0, 1.0], [3.0, 4.0, 5.0])
    sol = solve_milp(MilpProblem(lp=lp, integrality=[True, True, False]))
    assert sol.status is MilpStatus.OPTIMAL and sol.nodes_explored == 1
    np.testing.assert_array_equal(sol.x, [3.0, -2.0, 5.0])
    assert sol.objective_value == pytest.approx(10.5, abs=1e-12)
    assert sol.basis.basic.size == 0
    warm = solve_lp(lp, basis=sol.basis)
    assert warm.status is LpStatus.OPTIMAL and warm.iterations == 0
    assert warm.objective_value == sol.objective_value


def random_milp(rng, max_combos=1024):
    n_int = int(rng.integers(0, 9))
    n_cont = int(rng.integers(0, 7))
    if n_int + n_cont == 0:
        n_cont = 1
    n = n_int + n_cont
    perm = rng.permutation(n)
    is_int = np.zeros(n, dtype=bool)
    is_int[perm[:n_int]] = True

    lower = np.empty(n)
    upper = np.empty(n)
    int_idx = np.flatnonzero(is_int)
    cont_idx = np.flatnonzero(~is_int)
    lower[int_idx] = rng.integers(-2, 3, n_int)
    ranges = rng.integers(1, 4, n_int).astype(float)
    while n_int and np.prod(ranges + 1) > max_combos:
        k = int(np.argmax(ranges))
        ranges[k] = max(ranges[k] - 1, 0.0)
    upper[int_idx] = lower[int_idx] + ranges
    lower[cont_idx] = rng.uniform(-4, 0, n_cont)
    upper[cont_idx] = lower[cont_idx] + rng.uniform(0.5, 5.0, n_cont)

    c = rng.uniform(-5, 5, n)
    m = int(rng.integers(1, 7))
    a = rng.uniform(-3, 3, (m, n))
    a[rng.random((m, n)) < 0.25] = 0.0
    x0 = rng.uniform(lower, upper)
    x0[int_idx] = np.round(x0[int_idx])
    x0 = np.clip(x0, lower, upper)
    b = a @ x0 + rng.uniform(0.0, 1.5, m)
    return c, a, b, lower, upper, is_int


def test_empty_mask_equals_lp():
    c = [3.0, 2.0]
    a = [[1.0, 1.0], [1.0, 3.0]]
    b = [4.0, 6.0]
    lo = [0.0, 0.0]
    up = [100.0, 100.0]
    lp_sol = solve_lp(le_lp(c, a, b, lo, up))
    mip_sol = solve_milp(make_milp(c, a, b, lo, up, [False, False]))
    assert mip_sol.status is MilpStatus.OPTIMAL
    assert mip_sol.objective_value == pytest.approx(lp_sol.objective_value, abs=1e-9)


def test_two_integer_knapsack():
    # maximize 5a + 4b, 6a + 4b <= 10, a,b integer in [0,2].
    # Enumerating all 9 integer points leaves (1,1) best with objective 9.
    c = [5.0, 4.0]
    a = [[6.0, 4.0]]
    b = [10.0]
    lo = [0.0, 0.0]
    up = [2.0, 2.0]
    st, xo, obj = milp_enum_oracle(c, a, b, lo, up, [True, True], lp_backend)
    assert st == "optimal" and obj == pytest.approx(9.0, abs=1e-9)

    sol = solve_milp(make_milp(c, a, b, lo, up, [True, True]))
    assert sol.status is MilpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(9.0, abs=1e-9)
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-6)


def test_fixed_integer_reduces_to_lp():
    # integer variable pinned at [0,0]; remainder is a pure LP
    c = [7.0, 1.0]
    a = [[1.0, 1.0]]
    b = [3.0]
    sol = solve_milp(make_milp(c, a, b, [0.0, 0.0], [0.0, 5.0], [True, False]))
    assert sol.status is MilpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_infeasible_integer_program():
    # 2a = 1 impossible for integer a
    lp = LinearProgram(objective=[1.0], lower=[0.0], upper=[3.0],
                       a_rg=[[2.0]], rg_lower=[1.0], rg_upper=[1.0])
    sol = solve_milp(MilpProblem(lp=lp, integrality=[True]))
    assert sol.status is MilpStatus.INFEASIBLE
    assert not sol.has_incumbent


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(31415)
    for _ in range(60):
        c, a, b, lo, up, is_int = random_milp(rng)
        st, _, obj = milp_enum_oracle(c, a, b, lo, up, is_int, lp_backend)
        sol = solve_milp(make_milp(c, a, b, lo, up, is_int))
        assert st == "optimal"
        assert sol.status is MilpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(obj, abs=1e-6)
        # integer entries are integral within tolerance
        xi = sol.x[is_int]
        assert np.all(np.abs(xi - np.round(xi)) <= 1e-6)


def test_oracle_cross_check_with_vertex_backend():
    # validate the enumeration oracle itself against the slower
    # vertex-enumeration LP backend on a handful of instances
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 6:
        c, a, b, lo, up, is_int = random_milp(rng, max_combos=64)
        if (~is_int).sum() > 4:
            continue
        _, _, obj_fast = milp_enum_oracle(c, a, b, lo, up, is_int, lp_backend)
        _, _, obj_slow = milp_enum_oracle(c, a, b, lo, up, is_int, milp_vertex_lp)
        assert obj_fast == pytest.approx(obj_slow, abs=1e-7)
        checked += 1


def test_relaxation_bounds_milp():
    rng = np.random.default_rng(2718)
    for _ in range(25):
        c, a, b, lo, up, is_int = random_milp(rng)
        relax = solve_lp(le_lp(c, a, b, lo, up))
        sol = solve_milp(make_milp(c, a, b, lo, up, is_int))
        if sol.status is MilpStatus.OPTIMAL and relax.status is LpStatus.OPTIMAL:
            assert relax.objective_value >= sol.objective_value - 1e-7


def test_variable_permutation_invariance():
    rng = np.random.default_rng(5150)
    for _ in range(10):
        c, a, b, lo, up, is_int = random_milp(rng)
        base = solve_milp(make_milp(c, a, b, lo, up, is_int))
        perm = rng.permutation(len(c))
        sol = solve_milp(make_milp(c[perm], a[:, perm], b, lo[perm], up[perm], is_int[perm]))
        assert sol.status == base.status
        if base.status is MilpStatus.OPTIMAL:
            assert sol.objective_value == pytest.approx(base.objective_value, abs=1e-6)


def test_deterministic_replay():
    rng = np.random.default_rng(1234)
    c, a, b, lo, up, is_int = random_milp(rng)
    s1 = solve_milp(make_milp(c, a, b, lo, up, is_int))
    s2 = solve_milp(make_milp(c, a, b, lo, up, is_int))
    assert s1.objective_value == s2.objective_value
    assert np.array_equal(s1.x, s2.x)
    assert s1.nodes_explored == s2.nodes_explored


@pytest.mark.parametrize("field, value", [
    ("gap_tol", np.nan), ("gap_tol", np.inf), ("gap_tol", -1e-6),
    ("rel_gap", np.nan), ("rel_gap", np.inf), ("rel_gap", -1e-4),
    ("deadline_s", np.nan), ("deadline_s", np.inf), ("deadline_s", -0.1),
    ("node_limit", -1), ("node_limit", 2.0), ("node_limit", True),
])
def test_solver_config_refuses_values_outside_their_domain(field, value):
    # a NaN gap, say, disables the bound guard, and every integral node
    # then replaces the incumbent
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_takes_values_on_their_domain_edges():
    cfg = SolverConfig(gap_tol=0.0, rel_gap=0.0, node_limit=np.int64(0),
                       deadline_s=0.0)
    assert cfg.node_limit == 0 and cfg.deadline_s == 0.0


def test_expired_deadline_returns_timed_out():
    c = [5.0, 4.0]
    a = [[6.0, 4.0]]
    sol = solve_milp(make_milp(c, a, [10.0], [0, 0], [2, 2], [True, True]),
                     SolverConfig(deadline_s=0.0))
    assert sol.status is MilpStatus.TIMED_OUT
    assert not sol.has_incumbent
    assert sol.objective_value == -np.inf


def test_root_deadline_rounds_the_partial_iterate(monkeypatch):
    # the deadline stops the root relaxation at a feasible fractional
    # iterate; the one deadline exit floors it into an incumbent if the
    # floored point is feasible, and takes it as it is with no integers
    from shipems.lp import _SimplexCore

    def stopped(self, col_lo=None, col_up=None, warm=None, fallback=None,
                deadline=None):
        x = np.array([0.5, 1.75])
        return None, x, self.objective_of(x), 3, None

    monkeypatch.setattr(_SimplexCore, "solve", stopped)
    c, lo, up = [5.0, 4.0], [0, 0], [2, 2]

    sol = solve_milp(make_milp(c, [[6.0, 4.0]], [10.0], lo, up, [True, True]))
    assert sol.status is MilpStatus.TIMED_OUT
    assert np.array_equal(sol.x, [0.0, 1.0])
    assert sol.objective_value == 4.0
    assert sol.nodes_explored == 1

    # x + y >= 1.5 holds at the iterate but not at its floor [0, 1]
    sol = solve_milp(make_milp(c, [[6.0, 4.0], [-1.0, -1.0]], [10.0, -1.5],
                               lo, up, [True, True]))
    assert sol.status is MilpStatus.TIMED_OUT
    assert not sol.has_incumbent

    sol = solve_milp(make_milp(c, [[6.0, 4.0]], [10.0], lo, up, [False, False]))
    assert sol.status is MilpStatus.TIMED_OUT
    assert np.array_equal(sol.x, [0.5, 1.75])
    assert sol.objective_value == 9.5


def test_node_limit_keeps_incumbent_flagged():
    rng = np.random.default_rng(77)
    hit = False
    for _ in range(40):
        c, a, b, lo, up, is_int = random_milp(rng)
        if is_int.sum() < 4:
            continue
        sol = solve_milp(make_milp(c, a, b, lo, up, is_int), SolverConfig(node_limit=2))
        assert sol.status in (MilpStatus.OPTIMAL, MilpStatus.TIMED_OUT, MilpStatus.INFEASIBLE)
        if sol.status is MilpStatus.TIMED_OUT:
            hit = True
            break
    assert hit, "node limit never triggered on fractional instances"


@pytest.mark.parametrize("node_limit", [0, 1, None])
def test_node_limit_counts_the_root(node_limit):
    # maximize 5x + 4y, 6x + 4y <= 10, x, y in {0, 1, 2}: the root
    # relaxation (1/3, 2) floors to the incumbent (0, 2); limits 0 and 1
    # both stop right after the root, no limit branches to (1, 1)
    sol = solve_milp(make_milp([5.0, 4.0], [[6.0, 4.0]], [10.0], [0, 0], [2, 2],
                               [True, True]), SolverConfig(node_limit=node_limit))
    if node_limit is None:
        assert sol.status is MilpStatus.OPTIMAL
        assert np.array_equal(sol.x, [1.0, 1.0])
        assert sol.objective_value == pytest.approx(9.0, abs=1e-9)
    else:
        assert sol.status is MilpStatus.TIMED_OUT
        assert np.array_equal(sol.x, [0.0, 2.0])
        assert sol.objective_value == pytest.approx(8.0, abs=1e-9)
        assert sol.nodes_explored == 1


#: horizon-8 starts, from the initial state, whose windows branch (about
#: 10 to 90 nodes each); the other windows of the test close at the root or
#: within 3 nodes
BRANCHING_STARTS = {44: (104, 106, 108, 110, 114)}


@pytest.mark.parametrize("seed", [42, 5, 44])
def test_windows_match_highs(seed):
    # window-scale differential check: synth windows from the start,
    # across the generator trip, at the trip step and at the recovery
    # step, plus the branching windows above, each from the initial
    # powers and SoC
    sc, _ = sio.parse_scenario(sio.synth_scenario(seed))
    tripped = np.flatnonzero(~sc.generator_available.all(axis=0))
    trip, back = int(tripped[0]), int(tripped[-1]) + 1
    s0 = sc.initial_state()
    weights = ObjectiveWeights(0.005, 0.03, 0.05)
    windows = [(horizon, t) for horizon in (8, 60)
               for t in (0, trip - horizon // 2, trip, back)]
    windows += [(8, t) for t in BRANCHING_STARTS.get(seed, ())]
    for horizon, t in windows:
        state = SystemState(s0.soc.copy(), s0.prev_storage_power.copy(),
                            s0.prev_generator_power.copy(), t)
        problem, layout = build_window_milp(sc, state, weights, horizon)
        sol = solve_milp(problem, SolverConfig(gap_tol=1e-7, rel_gap=0.0))
        assert sol.status is MilpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(highs_milp(problem), abs=1e-6), \
            (horizon, t)
        plan = decode_plan(sol, layout, sc, state)
        assert violations(sc, state, plan.load_fraction, plan.gen_power,
                          plan.storage_power, plan.soc) == [], (horizon, t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n_loads=st.integers(1, 8),
       n_generators=st.integers(1, 3), n_storage=st.integers(1, 4),
       horizon=st.integers(2, 12), start=st.integers(0, 30),
       soc_at=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
# a battery at its SoC floor: HiGHS at its default feasibility tolerance
# overstated this optimum by 3e-5 (see ``oracles.highs_milp``)
@example(seed=0, n_loads=2, n_generators=1, n_storage=1, horizon=2, start=0,
         soc_at=[0.0] * 4)
def test_drawn_windows_match_highs(seed, n_loads, n_generators, n_storage,
                                   horizon, start, soc_at):
    # differential property: a drawn synth fleet, at the state an exact
    # receding-horizon run reaches at a drawn step, with each SoC then
    # moved to a drawn point of its box; the window ends the mission
    sc, _ = sio.parse_scenario(sio.synth_scenario(
        seed, n_loads, n_generators, n_storage, steps=start + horizon))
    weights = ObjectiveWeights(0.005, 0.03, 0.05)
    state = sc.initial_state()
    if start:
        run = run_rho(sc, weights, horizon)
        state = SystemState(run.soc[:, start - 1].copy(),
                            run.storage_power[:, start - 1].copy(),
                            run.gen_power[:, start - 1].copy(), start)
    box = np.array([(u.soc_min, u.soc_max) for u in sc.storage])
    state.soc = box[:, 0] + np.array(soc_at[:n_storage]) * (box[:, 1] - box[:, 0])
    problem, layout = build_window_milp(sc, state, weights, horizon)
    sol = solve_milp(problem, SolverConfig(gap_tol=1e-7, rel_gap=0.0))
    best = highs_milp(problem)
    if best is None:
        assert sol.status is MilpStatus.INFEASIBLE
        return
    assert sol.status is MilpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(best, abs=1e-6)
    plan = decode_plan(sol, layout, sc, state)
    assert violations(sc, state, plan.load_fraction, plan.gen_power,
                      plan.storage_power, plan.soc) == []
