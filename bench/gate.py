"""Correctness gate: the checks every run must pass for its figures to count.

* every applied trajectory passes ``validate_trajectory``;
* repeated and traced runs of a mission give bit-identical trajectories;
* the step-0 window objective matches HiGHS (``scipy.optimize.milp``,
  an independent solver) within ``OBJECTIVE_TOL``, at the workload's
  horizon and, for RHO, at the reference horizon;
* where the workload asks for it, the RHO served term lies within
  ``SERVED_GAP`` below the served term of the whole-mission optimum.

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from shipems.builder import build_window_milp
from shipems.engine import MissionResult, validate_trajectory
from shipems.milp import MilpProblem, solve_milp

TRAJECTORY = ("load_fraction", "gen_power", "storage_power", "soc")
OBJECTIVE_TOL = 1e-6
REFERENCE_HORIZON = 60      # the reference mission's window
SERVED_GAP = (0.0, 0.01)    # (fho - rho) / fho, the acceptance bound


def trajectory_failures(result: MissionResult, scenario) -> list[str]:
    return [f"validate_trajectory: {v}" for v in validate_trajectory(result, scenario)]


def same_trajectory(a: MissionResult, b: MissionResult) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in TRAJECTORY)


def highs(problem: MilpProblem):
    """Solve ``problem`` with HiGHS; returns (x, objective, seconds)."""
    lp = problem.lp
    blocks, lows, ups = [], [], []
    if lp.a_ub is not None:
        blocks.append(lp.a_ub)
        lows.append(np.full(lp.a_ub.shape[0], -np.inf))
        ups.append(lp.b_ub)
    if lp.a_eq is not None:
        blocks.append(lp.a_eq)
        lows.append(lp.b_eq)
        ups.append(lp.b_eq)
    if lp.a_rg is not None:
        blocks.append(lp.a_rg)
        lows.append(lp.rg_lower)
        ups.append(lp.rg_upper)
    rows = LinearConstraint(sp.vstack(blocks, format="csr"),
                            np.concatenate(lows), np.concatenate(ups))
    start = time.perf_counter()
    res = milp(-lp.objective, integrality=problem.integrality.astype(int),
               bounds=Bounds(lp.lower, lp.upper), constraints=rows,
               options={"mip_rel_gap": 0.0})
    seconds = time.perf_counter() - start
    if not res.success:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return res.x, -res.fun + lp.offset, seconds


def _served(x, layout) -> float:
    """Served term of a window solution (stepped loads snapped to their grid)."""
    frac = x[layout.load_cols] * layout.step_sizes[:, None]
    stepped = layout.step_sizes < 1.0
    frac[stepped] = np.round(x[layout.load_cols[stepped]]) * layout.step_sizes[stepped, None]
    return float(layout.w_hat @ np.clip(frac, 0.0, 1.0).sum(axis=1))


def reference_failures(workload, scenario, weights, mission: MissionResult):
    """Step-0 window and served-term checks against HiGHS.

    RHO workloads check the step-0 window at their own horizon and at
    the reference horizon.  For FHO the step-0 window is the whole
    mission, so the mission's own objective is compared rather than
    solving it a second time.  Returns (failures, HiGHS seconds summed
    over the reference solves).
    """
    failures = []
    seconds = 0.0
    state = scenario.initial_state()
    horizons = {workload.horizon}
    if workload.mode == "rho":
        horizons.add(min(REFERENCE_HORIZON, scenario.steps))
    for horizon in sorted(horizons):
        problem, _ = build_window_milp(scenario, state, weights, horizon)
        _, ref_obj, ref_seconds = highs(problem)
        seconds += ref_seconds
        if workload.mode == "fho":
            ours = mission.objective()
        else:
            ours = solve_milp(problem, workload.config()).objective_value
        if not abs(ours - ref_obj) <= OBJECTIVE_TOL:
            failures.append(f"step-0 objective at horizon {horizon}: {ours:.9f} "
                            f"vs HiGHS {ref_obj:.9f}")
    if workload.served_check:
        problem, layout = build_window_milp(scenario, state, weights, scenario.steps)
        x, _, fho_seconds = highs(problem)
        seconds += fho_seconds
        fho_served = _served(x, layout)
        gap = (fho_served - mission.terms.served) / fho_served
        if not SERVED_GAP[0] - 1e-9 <= gap <= SERVED_GAP[1]:
            failures.append(f"served gap to the FHO optimum {gap:+.4%} outside "
                            f"[{SERVED_GAP[0]:.0%}, {SERVED_GAP[1]:.0%}]")
    return failures, seconds
