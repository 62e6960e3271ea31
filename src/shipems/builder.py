"""Translate a scenario window into the linearized dispatch MILP.

Decision columns per window step: one service level per load (integer
for stepped loads), one power per generator, one power and one state of
charge per storage unit, one absolute-power auxiliary per storage unit,
and one SoC-difference auxiliary per unordered storage pair.  The SoC
columns follow the one-step kinematics through banded recurrence
equalities (soc_k - soc_{k-1} + (dt/E) P_k = 0), which keeps every row
a handful of nonzeros; the spec's derived-expression formulation (SoC
as cumulative sums of powers) was tried first and abandoned because the
dense cumulative columns destroy basis-LU sparsity and with it the
real-time per-step budget.

Single-variable constraints (the first-step ramp seams and first-step
SoC reachability) are folded into column bounds instead of rows; when
inconsistent input data would make such a fold empty, the constraint is
emitted as an explicit row so that infeasibility surfaces from the
solver rather than from the builder.

Each window also carries terminal unwind guards: piecewise-linear rows
bounding the final-step storage power by the energy needed to ramp it
to zero inside the SoC box.  Without them a window may legally end
discharging at the SoC floor and the next shifted window wakes up in a
dead end.  The guards are exact, cost a few rows per unit, and are
vacuous for units that can stop within one step.  The guard rows, the
generator trip/ramp rule and the objective terms come from `plant`,
which the engine's fallback and trajectory audit share.

The builder also produces a crash basis for the simplex: loads served
greedily by weight wherever the generator ceiling affords them,
generators at their reachability-tightened maxima, storage powers
basic and pinned to zero through their absolute-value rows, SoC columns
basic on their recurrence rows, and SoC-difference auxiliaries basic at
the current spread.  That starting point is primal feasible up to a
handful of ramp seams, which is what keeps per-step solves inside the
real-time budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import plant
from .errors import DecodeMismatch
from .lp import AT_LOWER, AT_UPPER, BASIC, Basis, LinearProgram
from .milp import MilpProblem, MilpSolution
from .model import DispatchPlan, ObjectiveWeights, ScenarioSpec, SystemState


@dataclass(frozen=True)
class WindowLayout:
    """Column/row map of one built window plus decode context.

    Storage power is carried as a discharge/charge split: the net power
    is ``x[discharge_cols] - x[charge_cols]`` and the absolute-power
    auxiliary of the linearized objective is their sum.
    """

    start_step: int
    horizon: int
    load_cols: np.ndarray      # (n_loads, h)
    gen_cols: np.ndarray       # (n_generators, h)
    discharge_cols: np.ndarray     # (n_storage, h)
    charge_cols: np.ndarray        # (n_storage, h)
    soc_cols: np.ndarray       # (n_storage, h)
    soc_gap_cols: np.ndarray       # (n_pairs, h)
    weights: ObjectiveWeights
    w_hat: np.ndarray          # per-load weight * rated power (unscaled)
    step_sizes: np.ndarray     # per-load decode granularity
    demand: np.ndarray         # (n_loads, h) raw MW

    @property
    def n_cols(self) -> int:
        return (self.load_cols.size + self.gen_cols.size
                + self.discharge_cols.size + self.charge_cols.size
                + self.soc_cols.size + self.soc_gap_cols.size)


def window_variable_count(n_loads: int, n_generators: int, n_storage: int,
                          horizon: int) -> int:
    """Columns of a built window: Np*(nL + nG + 3*nE + nE*(nE-1)/2).

    Per step: one service level per load, one power per generator,
    three columns per storage unit (discharge, charge, state of
    charge), and one gap auxiliary per unordered storage pair.
    """
    pairs = n_storage * (n_storage - 1) // 2
    return horizon * (n_loads + n_generators + 3 * n_storage + pairs)


class _RowBuffer:
    """Accumulates sparse ranged rows as triplets."""

    def __init__(self):
        self.cols = []
        self.vals = []
        self.rows = []
        self.lo = []
        self.up = []
        self.count = 0

    def add(self, cols, vals, lo, up):
        cols = np.asarray(cols, dtype=np.int64)
        self.cols.append(cols)
        self.vals.append(np.asarray(vals, dtype=np.float64))
        self.rows.append(np.full(cols.size, self.count, dtype=np.int64))
        self.lo.append(lo)
        self.up.append(up)
        self.count += 1
        return self.count - 1

    def matrix(self, n_cols):
        if not self.count:
            return (sp.csr_matrix((0, n_cols)), np.empty(0), np.empty(0))
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        mat = sp.coo_matrix((vals, (rows, cols)),
                            shape=(self.count, n_cols)).tocsr()
        return mat, np.asarray(self.lo, dtype=np.float64), np.asarray(self.up, dtype=np.float64)


def build_window_milp(scenario: ScenarioSpec, state: SystemState,
                      weights: ObjectiveWeights, horizon: int):
    """Build the dispatch MILP for the window starting at state.step_index.

    The window shrinks at mission end.  Returns (MilpProblem, WindowLayout);
    the problem carries a crash-basis hint for the root relaxation.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    t0 = int(state.step_index)
    if not 0 <= t0 < scenario.steps:
        raise ValueError(f"step_index {t0} outside mission of {scenario.steps} steps")
    h = min(horizon, scenario.steps - t0)

    nl, ng, ne = scenario.n_loads, scenario.n_generators, scenario.n_storage
    pairs = scenario.storage_pairs()
    npairs = len(pairs)
    stride = nl + ng + 3 * ne + npairs
    n = h * stride
    dt = scenario.dt_s

    base = np.arange(h, dtype=np.int64) * stride
    load_cols = base[None, :] + np.arange(nl)[:, None]
    gen_cols = base[None, :] + nl + np.arange(ng)[:, None]
    dis_cols = base[None, :] + nl + ng + np.arange(ne)[:, None]
    chg_cols = base[None, :] + nl + ng + ne + np.arange(ne)[:, None]
    soc_cols = base[None, :] + nl + ng + 2 * ne + np.arange(ne)[:, None]
    us_cols = base[None, :] + nl + ng + 3 * ne + np.arange(npairs)[:, None]

    w_hat = scenario.normalized_weights()
    step_sizes = np.array([ld.step_size for ld in scenario.loads])
    demand = scenario.demand_mw[:, t0:t0 + h].copy()
    avail = scenario.availability()[:, t0:t0 + h]

    lower = np.zeros(n)
    upper = np.zeros(n)
    objective = np.zeros(n)
    integrality = np.zeros(n, dtype=bool)

    # loads: a stepped load's service runs over the integers 0..steps,
    # so its weight and demand are scaled by the step size
    scaled_demand = demand.copy()
    for i, ld in enumerate(scenario.loads):
        cols = load_cols[i]
        if ld.is_stepped:
            scaled_demand[i] = demand[i] * ld.step_size
            upper[cols] = ld.steps
            integrality[cols] = True
            objective[cols] = w_hat[i] * ld.step_size
        else:
            upper[cols] = 1.0
            objective[cols] = w_hat[i]

    rows = _RowBuffer()
    soc0 = np.asarray(state.soc, dtype=float)
    caps = np.array([s.capacity_mj for s in scenario.storage])
    alphas = np.array([s.terminal_priority for s in scenario.storage])
    soc_rate = dt / caps if ne else np.empty(0)
    rec_rows = np.empty((ne, h), dtype=np.int64)

    # generators: boxes with trips forced to zero; ramp seam and
    # reachability folded into bounds along each available run.  Where
    # the ramp applies (plant.ramp_linked) must be the same inside a
    # window and on a window seam, or receding-horizon runs diverge from
    # the baseline.
    linked = plant.ramp_linked(scenario, t0, h)
    for g, gen in enumerate(scenario.generators):
        rdn, rup = gen.ramp_down_mw_s * dt, gen.ramp_up_mw_s * dt
        for k in range(h):
            col = gen_cols[g, k]
            if not avail[g, k]:
                lower[col] = upper[col] = 0.0
                continue
            lo_k, up_k = gen.p_min_mw, gen.p_max_mw
            if linked[g, k] and k == 0:
                seam_lo = state.prev_generator_power[g] + rdn
                seam_up = state.prev_generator_power[g] + rup
                if max(lo_k, seam_lo) <= min(up_k, seam_up) + 1e-12:
                    lo_k = max(lo_k, seam_lo)
                    up_k = min(up_k, seam_up)
                else:
                    # inconsistent prev power: keep the box, emit the
                    # seam row so the solver reports infeasibility
                    rows.add([col], [1.0], seam_lo, seam_up)
            elif linked[g, k]:
                prev = gen_cols[g, k - 1]
                lo_k = max(lo_k, lower[prev] + rdn)
                up_k = min(up_k, upper[prev] + rup)
                rows.add([prev, col], [-1.0, 1.0], rdn, rup)
            lower[col], upper[col] = lo_k, up_k

    # storage: net power split into discharge (>= 0) and charge (>= 0)
    # columns; the linearized objective penalizes their sum, which
    # equals |P| at any optimum with a positive throughput weight.  SoC
    # columns are boxed directly and tied to the net power through one
    # recurrence equality per step; ramp limits couple the net powers.
    for e, sto in enumerate(scenario.storage):
        rdn, rup = sto.ramp_down_mw_s * dt, sto.ramp_up_mw_s * dt
        upper[dis_cols[e]] = sto.p_max_mw
        upper[chg_cols[e]] = -sto.p_min_mw
        objective[dis_cols[e]] = -weights.throughput
        objective[chg_cols[e]] = -weights.throughput
        # ramp seam against the previous applied power
        rows.add([dis_cols[e, 0], chg_cols[e, 0]], [1.0, -1.0],
                 state.prev_storage_power[e] + rdn,
                 state.prev_storage_power[e] + rup)
        for k in range(1, h):
            cols = [dis_cols[e, k], chg_cols[e, k],
                    dis_cols[e, k - 1], chg_cols[e, k - 1]]
            rows.add(cols, [1.0, -1.0, -1.0, 1.0], rdn, rup)

        lower[soc_cols[e]] = sto.soc_min
        upper[soc_cols[e]] = sto.soc_max
        # kinematics: soc_k - soc_{k-1} + (dt/E)(dis_k - chg_k) = 0
        rate = soc_rate[e]
        rec0 = [soc_cols[e, 0], dis_cols[e, 0], chg_cols[e, 0]]
        rec_rows[e, 0] = rows.add(rec0, [1.0, rate, -rate], soc0[e], soc0[e])
        for k in range(1, h):
            cols = [soc_cols[e, k], soc_cols[e, k - 1],
                    dis_cols[e, k], chg_cols[e, k]]
            rec_rows[e, k] = rows.add(cols, [1.0, -1.0, rate, -rate], 0.0, 0.0)

        # terminal SoC reward lands directly on the final SoC column
        objective[soc_cols[e, h - 1]] += weights.terminal * alphas[e]

        last = [dis_cols[e, h - 1], chg_cols[e, h - 1], soc_cols[e, h - 1]]
        for a, b, rhs in plant.unwind_guards(sto, dt):
            rows.add(last, [a, -a, -b], -np.inf, rhs)

    # balance rows: served demand <= storage + generation supply
    bal_sign = np.concatenate([-np.ones(ne), np.ones(ne), -np.ones(ng)])
    balance_rows = np.empty(h, dtype=np.int64)
    for k in range(h):
        cols = np.concatenate([load_cols[:, k], dis_cols[:, k],
                               chg_cols[:, k], gen_cols[:, k]])
        vals = np.concatenate([scaled_demand[:, k], bal_sign])
        balance_rows[k] = rows.add(cols, vals, -np.inf, 0.0)

    # SoC-gap rows per unordered pair: u >= |SoC_l - SoC_m|
    us_plus_rows = np.empty((npairs, h), dtype=np.int64)
    us_minus_rows = np.empty((npairs, h), dtype=np.int64)
    for p, (l, m) in enumerate(pairs):
        cap = max(scenario.storage[l].soc_max, scenario.storage[m].soc_max)
        upper[us_cols[p]] = cap
        objective[us_cols[p]] = -weights.imbalance
        for k in range(h):
            cols = [soc_cols[l, k], soc_cols[m, k], us_cols[p, k]]
            us_plus_rows[p, k] = rows.add(cols, [1.0, -1.0, -1.0], -np.inf, 0.0)
            us_minus_rows[p, k] = rows.add(cols, [-1.0, 1.0, -1.0], -np.inf, 0.0)

    a_rg, rg_lo, rg_up = rows.matrix(n)
    lp = LinearProgram(objective=objective, lower=lower, upper=upper,
                       a_rg=a_rg, rg_lower=rg_lo, rg_upper=rg_up)

    # crash dispatch: generators at their reachable maxima always.  When
    # the generator ceiling cannot cover serve-everything somewhere in
    # the window, storage steps in: the highest-headroom unit becomes
    # the swing unit, following the residual deficit step by step (its
    # discharge columns sit basic on the tight balance rows), while the
    # remaining units discharge flat out for as many steps as their SoC
    # headroom affords.  Loads are served greedily by weight against the
    # resulting supply, so the crash point is a feasible vertex close to
    # the shedding optimum.
    gen_ceiling = upper[gen_cols].sum(axis=0) if ng else np.zeros(h)
    total_demand = demand.sum(axis=0)
    crash_dis = np.zeros((ne, h))
    swing = -1
    swing_active = np.zeros(h, dtype=bool)
    serve = np.zeros((nl, h), dtype=bool)
    order = np.argsort(-w_hat, kind="stable")
    if ne and np.any(total_demand > gen_ceiling + 1e-12):
        headrooms = (soc0 - np.array([s.soc_min for s in scenario.storage])) * caps
        swing = int(np.argmax(headrooms))
        for e, sto in enumerate(scenario.storage):
            if e == swing:
                continue
            lead = int(headrooms[e] / (sto.p_max_mw * dt) - 1e-9)
            crash_dis[e, :max(min(lead, h), 0)] = sto.p_max_mw
        p_swing = scenario.storage[swing].p_max_mw
        budget = headrooms[swing]
        others = gen_ceiling + crash_dis.sum(axis=0)
        for k in range(h):
            cap_k = others[k] + min(p_swing, budget / dt)
            used = 0.0
            for i in order:
                if used + demand[i, k] <= cap_k + 1e-12:
                    serve[i, k] = True
                    used += demand[i, k]
            need = max(0.0, used - others[k])
            if need > 1e-12:
                crash_dis[swing, k] = need
                swing_active[k] = True
                budget -= need * dt
    else:
        running = np.zeros(h)
        for i in order:
            fits = running + demand[i] <= gen_ceiling + 1e-12
            serve[i, fits] = True
            running[fits] += demand[i, fits]
    # predicted SoC path under the crash dispatch drives the choice of
    # which gap row carries each pair auxiliary
    crash_soc = soc0[:, None] - np.cumsum(crash_dis * soc_rate[:, None], axis=1) \
        if ne else np.zeros((0, h))
    basis = _crash_basis(n, rows.count, load_cols, gen_cols, serve,
                         dis_cols, crash_dis, swing, swing_active,
                         balance_rows, soc_cols, rec_rows, us_cols,
                         us_plus_rows, us_minus_rows, crash_soc, pairs)
    layout = WindowLayout(start_step=t0, horizon=h, load_cols=load_cols,
                          gen_cols=gen_cols, discharge_cols=dis_cols,
                          charge_cols=chg_cols, soc_cols=soc_cols,
                          soc_gap_cols=us_cols,
                          weights=weights, w_hat=w_hat,
                          step_sizes=step_sizes, demand=demand)
    problem = MilpProblem(lp=lp, integrality=integrality, basis_hint=basis)
    return problem, layout


def _crash_basis(n, m, load_cols, gen_cols, serve, dis_cols, crash_dis,
                 swing, swing_active, balance_rows, soc_cols, rec_rows,
                 us_cols, us_plus_rows, us_minus_rows, crash_soc, pairs):
    """Primal-feasible starting basis for the window LP (see module doc).

    Generators start at their reachability-tightened maxima (a
    ramp-feasible profile by construction); loads start fully served
    where the weight-greedy pattern says the supply ceiling affords
    them; non-swing discharge columns start at full power for the
    SoC-affordable lead; the swing unit's discharge columns sit basic
    on the balance rows they make tight; SoC columns sit basic on their
    recurrence rows; gap auxiliaries sit basic on whichever side the
    predicted spread makes tight.  A few ramp seams may start violated
    and are repaired by phase 1 in a handful of pivots.
    """
    vstat = np.full(n + m, AT_LOWER, dtype=np.int8)
    vstat[n:] = BASIC
    basic = list(range(n, n + m))
    vstat[gen_cols] = AT_UPPER
    if serve.any():
        vstat[load_cols[serve]] = AT_UPPER
    ne, h = soc_cols.shape if soc_cols.size else (0, 0)

    def swap_in(col, row, park):
        vstat[n + row] = park
        vstat[col] = BASIC
        basic[row] = col

    for e in range(ne):
        if e == swing:
            continue
        vstat[dis_cols[e][crash_dis[e] > 0]] = AT_UPPER
    if swing >= 0:
        for k in range(h):
            if swing_active[k]:
                swap_in(dis_cols[swing, k], balance_rows[k], AT_UPPER)
    for e in range(ne):
        for k in range(h):
            # recurrence slack is fixed (lo == up); either park is exact
            swap_in(soc_cols[e, k], rec_rows[e, k], AT_LOWER)
    for p, (l, mm) in enumerate(pairs):
        for k in range(h):
            gap = crash_soc[l, k] - crash_soc[mm, k]
            if abs(gap) <= 1e-12:
                continue
            row = us_plus_rows[p, k] if gap > 0 else us_minus_rows[p, k]
            swap_in(us_cols[p, k], row, AT_UPPER)
    return Basis(vstat=vstat, basic=np.asarray(basic, dtype=np.int64))


def decode_plan(solution: MilpSolution, layout: WindowLayout,
                scenario: ScenarioSpec, state: SystemState) -> DispatchPlan:
    """Decode a solver vector into a dispatch plan and re-audit it.

    Stepped-load integers are multiplied back by their step size; the
    SoC trajectory is recomputed through the one-step kinematics and
    must match the window's internal SoC columns; the objective
    recombined from the decoded terms must match the solver objective.
    Raises DecodeMismatch when the audit fails (a layout bug, not a
    data error).
    """
    if not solution.has_incumbent:
        raise ValueError("solution carries no incumbent to decode")
    x = solution.x
    h = layout.horizon

    # solve_milp hands back every integer column already snapped
    frac = np.clip(x[layout.load_cols] * layout.step_sizes[:, None], 0.0, 1.0)

    gen_power = x[layout.gen_cols] if layout.gen_cols.size else np.zeros((0, h))
    if layout.discharge_cols.size:
        sto_power = x[layout.discharge_cols] - x[layout.charge_cols]
    else:
        sto_power = np.zeros((0, h))

    soc = plant.soc_path(scenario, state.soc, sto_power)
    # cross-check against the window's internal SoC columns
    if soc.size and np.max(np.abs(soc - x[layout.soc_cols])) > 1e-7:
        raise DecodeMismatch("SoC recursion diverged from window columns")

    terms = plant.objective_terms(scenario, layout.w_hat, frac, sto_power, soc)
    recombined = terms.combined(layout.weights)
    if abs(recombined - solution.objective_value) > 1e-6:
        raise DecodeMismatch(
            f"recombined objective {recombined:.9g} deviates from solver "
            f"value {solution.objective_value:.9g}")
    return DispatchPlan(start_step=layout.start_step, load_fraction=frac,
                        gen_power=gen_power, storage_power=sto_power, soc=soc,
                        terms=terms, objective=solution.objective_value)

