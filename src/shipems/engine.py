"""Closed-loop receding-horizon control, the fixed-horizon baseline,
plant propagation, and the mission-level resilience metrics.

``run_rho`` solves a window at every step, applies only the first-step
actions, propagates the state through the storage kinematics, and
repeats, starting each window's simplex from the previous window's
optimal root basis shifted one step, on the simplex core of the
previous window of its length; ``run_fho`` solves one window
spanning the whole mission and applies it open loop.  With the horizon
equal to the mission length and no measurement perturbations the two
produce the same objective on deterministic scenarios, which the tests
pin down.

A window that times out without an incumbent triggers a degraded mode:
first reuse the previous plan shifted by one step, and if that is
infeasible against the current state, hold the previous powers and shed
load greedily by ascending weight until the balance holds.  Every such
event is recorded on the result; genuine infeasibility is a hard error
because a well-formed scenario can always shed to zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import plant
from .builder import build_window_milp, decode_plan
from .errors import InfeasibleWindow, ZeroDenominator
from .milp import MilpStatus, SolverConfig, solve_milp
from .model import (DispatchPlan, ObjectiveTerms, ObjectiveWeights,
                    ScenarioSpec, SystemState)

#: Engine-level solver defaults: the gap is far below the per-solve
#: default so per-step suboptimality cannot accumulate above the
#: mission-level comparison tolerances over a few hundred steps.
ENGINE_GAP = 1e-9


@dataclass
class MissionResult:
    """Applied (closed-loop) trajectory plus mission metrics."""

    scenario_name: str
    mode: str                       # "rho" | "fho"
    horizon: int
    weights: ObjectiveWeights
    load_fraction: np.ndarray       # (n_loads, T)
    gen_power: np.ndarray           # (n_generators, T)
    storage_power: np.ndarray       # (n_storage, T)
    soc: np.ndarray                 # (n_storage, T)
    operability: float
    terms: ObjectiveTerms
    solve_times: np.ndarray         # seconds per step (build+solve+decode)
    statuses: list                  # per-step solver status strings
    fallbacks: list = field(default_factory=list)   # (step, reason)
    total_wall_s: float = 0.0
    exact_propagation: bool = True

    @property
    def steps(self) -> int:
        return self.load_fraction.shape[1]

    @property
    def fully_optimal(self) -> bool:
        """True when every step was solved to optimality (no degraded modes)."""
        return not self.fallbacks and all(s == "optimal" for s in self.statuses)

    def objective(self) -> float:
        return self.terms.combined(self.weights)


def operability(result: MissionResult, scenario: ScenarioSpec) -> float:
    """Weighted fraction of commanded load served over the mission.

    O = sum_t sum_i w_hat_i o_i^t / sum_t sum_i w_hat_i (the commanded
    service level is one everywhere).
    """
    denom = scenario.w_hat.sum() * result.steps
    if denom <= 0.0:
        raise ZeroDenominator("all load weights are zero")
    return float(scenario.w_hat @ result.load_fraction.sum(axis=1)) / denom


def compare_f1(fho: MissionResult, rho: MissionResult) -> float:
    """Relative service loss of the receding-horizon run vs. the baseline."""
    if fho.terms.served == 0.0:
        raise ZeroDenominator("baseline served term is zero")
    return (fho.terms.served - rho.terms.served) / fho.terms.served


def _mission_result(scenario: ScenarioSpec, weights: ObjectiveWeights,
                    mode: str, horizon: int, frac, pgen, psto, soc, times,
                    statuses, t_start: float, **extra) -> MissionResult:
    """Assemble an applied trajectory with its objective terms and
    operability."""
    result = MissionResult(
        scenario_name=scenario.name, mode=mode, horizon=horizon,
        weights=weights, load_fraction=frac, gen_power=pgen,
        storage_power=psto, soc=soc, operability=0.0,
        terms=plant.objective_terms(scenario, frac, psto, soc),
        solve_times=times, statuses=statuses,
        total_wall_s=time.perf_counter() - t_start, **extra)
    result.operability = operability(result, scenario)
    return result


def _window_step(scenario: ScenarioSpec, state: SystemState,
                 weights: ObjectiveWeights, horizon: int, cfg: SolverConfig,
                 tick: float, what: str, previous: Optional[tuple] = None):
    """Build, solve and decode one window; returns (status, plan, root),
    with ``plan`` None when the solve stopped with no incumbent.

    ``cfg.deadline_s`` is the wall budget of the whole step, counted from
    ``tick``: the solver gets what the build left of it, less a 10 ms
    reserve for the decode and bookkeeping.  ``previous`` is the
    ``root`` of the step before (see ``build_window_milp``): ``root`` is
    this window's template, optimal root basis (None when the root
    relaxation stopped short of optimality) and simplex core.
    """
    problem, template = build_window_milp(scenario, state, weights, horizon,
                                          previous=previous)
    if cfg.deadline_s is not None:
        spent = time.perf_counter() - tick
        cfg = replace(cfg, deadline_s=max(cfg.deadline_s - spent - 0.01, 0.0))
    sol = solve_milp(problem, cfg)
    if sol.status is MilpStatus.INFEASIBLE:
        raise InfeasibleWindow(f"{what} infeasible: inconsistent ramp/initial data")
    plan = decode_plan(sol, template, scenario, state) if sol.has_incumbent else None
    return sol.status.value, plan, (template, sol.basis, sol.core)


def run_fho(scenario: ScenarioSpec, weights: ObjectiveWeights,
            cfg: Optional[SolverConfig] = None) -> MissionResult:
    """One MILP across the whole mission, applied open loop.

    ``cfg`` defaults to ``SolverConfig(gap_tol=ENGINE_GAP)``; its
    ``deadline_s``, when set, is the wall budget of the one step: build,
    solve and decode.
    """
    if cfg is None:
        cfg = SolverConfig(gap_tol=ENGINE_GAP)
    t_start = time.perf_counter()
    status, plan, _ = _window_step(scenario, scenario.initial_state(),
                                   weights, scenario.steps, cfg, t_start,
                                   "whole-mission problem")
    if plan is None:
        raise InfeasibleWindow("whole-mission solve timed out with no incumbent")
    times = np.zeros(scenario.steps)
    times[0] = time.perf_counter() - t_start
    return _mission_result(scenario, weights, "fho", scenario.steps,
                           plan.load_fraction, plan.gen_power,
                           plan.storage_power, plan.soc, times,
                           [status] * scenario.steps, t_start)


def run_rho(scenario: ScenarioSpec, weights: ObjectiveWeights, horizon: int, *,
            feedback: Optional[Callable[[SystemState], SystemState]] = None,
            cfg: Optional[SolverConfig] = None) -> MissionResult:
    """Receding-horizon mission run.

    At every step a window of ``horizon`` steps (clipped at mission
    end) is built from the current state and solved; only the first
    step of the plan is applied.  ``feedback``, when given, maps the
    propagated state to the measured one between steps (defaults to
    exact propagation).  ``cfg`` defaults to
    ``SolverConfig(gap_tol=ENGINE_GAP)``; its ``deadline_s``, when set,
    is the per-step wall budget: build, solve and decode.  A step that
    runs out of it with no incumbent takes a degraded-mode action.
    """
    if not 1 <= horizon <= scenario.steps:
        raise ValueError("need 1 <= horizon <= mission steps")
    if cfg is None:
        cfg = SolverConfig(gap_tol=ENGINE_GAP)
    T = scenario.steps
    nl, ng, ne = scenario.n_loads, scenario.n_generators, scenario.n_storage

    frac = np.zeros((nl, T))
    pgen = np.zeros((ng, T))
    psto = np.zeros((ne, T))
    soc = np.zeros((ne, T))
    times = np.zeros(T)
    statuses = []
    fallbacks = []

    state = scenario.initial_state()
    prev_plan: Optional[DispatchPlan] = None
    # the previous window's template, root basis and simplex core: the
    # next window of the same length reuses the template, starts from
    # the basis shifted one step and is patched into the core
    root = None
    t_start = time.perf_counter()

    for t in range(T):
        tick = time.perf_counter()
        status, plan, root = _window_step(scenario, state, weights, horizon,
                                          cfg, tick, f"window at step {t}", root)
        statuses.append(status)
        if plan is not None:
            actions = (plan.load_fraction[:, 0], plan.gen_power[:, 0],
                       plan.storage_power[:, 0])
            prev_plan = plan
        else:
            actions, reason = _fallback_actions(scenario, state, prev_plan, t)
            fallbacks.append((t, reason))

        o_t, pg_t, pe_t = actions
        frac[:, t] = o_t
        pgen[:, t] = pg_t
        psto[:, t] = pe_t
        new_soc = plant.soc_path(scenario, state.soc, pe_t[:, None])[:, 0]
        soc[:, t] = new_soc
        state = SystemState(soc=new_soc,
                            prev_storage_power=np.asarray(pe_t, dtype=float).copy(),
                            prev_generator_power=np.asarray(pg_t, dtype=float).copy(),
                            step_index=t + 1)
        if feedback is not None:
            state = feedback(state)
            state.step_index = t + 1
        times[t] = time.perf_counter() - tick

    return _mission_result(scenario, weights, "rho", horizon, frac, pgen,
                           psto, soc, times, statuses, t_start,
                           fallbacks=fallbacks,
                           exact_propagation=feedback is None)


def _fallback_actions(scenario: ScenarioSpec, state: SystemState,
                      prev_plan: Optional[DispatchPlan], t: int):
    """Degraded-mode actions when a window timed out with no incumbent."""
    if prev_plan is not None:
        offset = t - prev_plan.start_step
        if 0 <= offset < prev_plan.horizon:
            cand = (prev_plan.load_fraction[:, offset],
                    prev_plan.gen_power[:, offset],
                    prev_plan.storage_power[:, offset])
            column = [a[:, None] for a in cand]
            soc = plant.soc_path(scenario, state.soc, column[2])
            if not plant.violations(scenario, state, *column, soc, tol=1e-7):
                return cand, "shifted_previous_plan"
    return _greedy_shed(scenario, state, t), "hold_and_shed"


def _greedy_shed(scenario: ScenarioSpec, state: SystemState, t: int):
    """Hold previous powers, then serve loads in descending weight order."""
    dt = scenario.dt_s
    avail = scenario.generator_available[:, t]
    pg = np.zeros(scenario.n_generators)
    for g, gen in enumerate(scenario.generators):
        if avail[g]:
            pg[g] = np.clip(state.prev_generator_power[g], gen.p_min_mw, gen.p_max_mw)
    pe = np.zeros(scenario.n_storage)
    for e, sto in enumerate(scenario.storage):
        prev = state.prev_storage_power[e]
        # one ramp step from the previous power, inside the box
        lo = max(sto.p_min_mw, prev + sto.ramp_down_mw_s * dt)
        hi = min(sto.p_max_mw, prev + sto.ramp_up_mw_s * dt)
        v = min(max(prev, lo), hi)
        # clamp into the unwind-safe envelope as far as the ramp allows:
        # after applying v the unit must still be able to ramp to zero
        # inside the SoC box, or the next window wakes up in a dead end
        v = max(lo, min(v, plant.unwind_limit(
            (state.soc[e] - sto.soc_min) * sto.capacity_mj, dt,
            -sto.ramp_down_mw_s * dt, sto.p_max_mw)))
        v = min(hi, max(v, -plant.unwind_limit(
            (sto.soc_max - state.soc[e]) * sto.capacity_mj, dt,
            sto.ramp_up_mw_s * dt, -sto.p_min_mw)))
        pe[e] = v
    supply = pg.sum() + pe.sum()
    demand = scenario.demand_mw[:, t]
    o_t = np.zeros(scenario.n_loads)
    for i in np.argsort(-scenario.w_hat):
        d = demand[i]
        if d <= 1e-12:
            o_t[i] = 1.0
            continue
        step = scenario.loads[i].step_size
        frac = min(1.0, max(0.0, supply / d))
        frac = np.floor(frac / step + 1e-9) * step
        o_t[i] = frac
        supply -= frac * d
    return o_t, pg, pe


def validate_trajectory(result: MissionResult, scenario: ScenarioSpec,
                        tol: float = 1e-6):
    """Post-hoc invariant audit of an applied trajectory.

    Checks every plant limit (``plant.violations``, with the ramp seam
    against the initial state) and, for exact propagation, that the
    recorded SoC path matches the storage kinematics.  Returns a list
    of violation strings; empty means clean.  Independent of the solver.
    """
    bad = plant.violations(scenario, scenario.initial_state(),
                           result.load_fraction, result.gen_power,
                           result.storage_power, result.soc, tol)
    if result.exact_propagation:
        path = plant.soc_path(scenario, scenario.initial_state().soc,
                              result.storage_power)
        for e in np.flatnonzero(np.any(np.abs(path - result.soc) > 1e-7, axis=1)):
            bad.append(f"storage {scenario.storage[e].id}: recorded SoC "
                       f"diverges from kinematics")
    return bad


def audit_shedding_order(result: MissionResult, scenario: ScenarioSpec,
                         tol: float = 1e-6):
    """Exchange check on shedding priority.

    Flags a step where a higher-weight load is shed while a
    lower-weight load is fully served and moving supply from the
    latter to the former would be feasible and strictly increase the
    weighted service.  Optimal trajectories never trade this way; the
    improvement clause matters because weights score service fractions
    while the balance is in MW, so a raw weight comparison alone would
    flag legitimate optima.
    """
    w_hat = scenario.w_hat
    demand = scenario.demand_mw
    violations = []
    for t in range(result.steps):
        o = result.load_fraction[:, t]
        for i in range(scenario.n_loads):
            d_i = demand[i, t]
            short = (1.0 - o[i]) * d_i
            if short <= tol or d_i <= tol:
                continue
            ld_i = scenario.loads[i]
            for j in range(scenario.n_loads):
                d_j = demand[j, t]
                if j == i or w_hat[j] >= w_hat[i] - tol:
                    continue
                if o[j] < 1.0 - tol or d_j <= tol:
                    continue
                ld_j = scenario.loads[j]
                # extra MW load i could absorb, snapped to its grid
                x = min(short, d_j)
                if ld_i.is_stepped:
                    q = ld_i.step_size * d_i
                    x = np.floor(x / q + 1e-9) * q
                if x <= tol:
                    continue
                # MW that must be curtailed from j to free x (grid-aware)
                c = x
                if ld_j.is_stepped:
                    q = ld_j.step_size * d_j
                    c = np.ceil(x / q - 1e-9) * q
                if c > d_j + tol:
                    continue
                gain = w_hat[i] * (x / d_i) - w_hat[j] * (c / d_j)
                if gain > tol:
                    violations.append((t, ld_i.id, ld_j.id, float(gain)))
    return violations
