"""The plant rules, written once: limits, the SoC kinematics, terminal
unwind guards and the objective terms.

The window builder turns these rules into rows and bounds, the engine's
degraded mode checks a candidate step against them and derives its
storage step from the builder's terminal unwind rows, and the
trajectory audit checks a whole mission against them; all three take
them from here.

Arrays are (unit, step) and start at ``state.step_index``; the state
supplies the powers the first column ramps from.  A bound passes within
``1e-9 + tol``.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (ObjectiveTerms, ScenarioSpec, StorageSpec, SystemState,
                    soc_step)


def ramp_linked(scenario: ScenarioSpec, t0: int, h: int) -> np.ndarray:
    """(n_generators, h) mask: True where generator power at step t0+k is
    ramp-limited against the step before it (the state's power for k = 0).

    A trip overrides the ramp in both directions: the tripped step and
    the step after it carry no ramp limit, whether the recovery falls
    inside a window or on a window seam.
    """
    avail = scenario.generator_available
    before = (avail[:, t0 - 1:t0] if t0
              else np.ones((scenario.n_generators, 1), dtype=bool))
    return avail[:, t0:t0 + h] & np.concatenate(
        [before, avail[:, t0:t0 + h - 1]], axis=1)


def soc_path(scenario: ScenarioSpec, soc0, storage_power) -> np.ndarray:
    """(n_storage, h) SoC after each step of ``storage_power`` (n_storage,
    h), starting from ``soc0``: ``soc_step`` applied column by column.
    One ``soc_step`` call gives every step's change (so its capacity
    check runs once per path) and an accumulate adds them up in step
    order, which is the same arithmetic."""
    change = soc_step(0.0, np.asarray(storage_power, dtype=float), scenario.dt_s,
                      scenario.capacities[:, None])
    path = np.concatenate([np.reshape(np.asarray(soc0, dtype=float), (-1, 1)), change],
                          axis=1)
    return np.add.accumulate(path, axis=1)[:, 1:]


def unit_values(units, attr) -> np.ndarray:
    """The float ``attr`` of each of ``units``, in order."""
    return np.array([getattr(u, attr) for u in units], dtype=float)


def _outside(x, units, lo, up, slack):
    """Where ``x`` (unit, step) leaves the box that the ``units``
    attributes named ``lo`` and ``up`` give."""
    return ((x < unit_values(units, lo)[:, None] - slack)
            | (x > unit_values(units, up)[:, None] + slack))


def violations(scenario: ScenarioSpec, state: SystemState, frac, gen_power,
               storage_power, soc, tol: float = 1e-6) -> list:
    """Plant-limit violations of a trajectory that starts at ``state``.

    Checks power balance, generator trips, boxes and ramps, storage
    boxes and ramps, the SoC box, and load service in [0, 1] on each
    stepped load's grid.  ``soc`` is the end-of-step state of charge.
    Returns one message per violated (unit, step); empty means clean.
    """
    t0 = int(state.step_index)
    h = np.shape(frac)[1]
    dt = scenario.dt_s
    slack = 1e-9 + tol
    gens, stos, loads = scenario.generators, scenario.storage, scenario.loads
    bad = []

    served = (scenario.demand_mw[:, t0:t0 + h] * frac).sum(axis=0)
    supply = gen_power.sum(axis=0) + storage_power.sum(axis=0)
    for k in np.flatnonzero(served > supply + slack):
        bad.append(f"step {t0 + k}: balance violated "
                   f"({served[k]:.6f} > {supply[k]:.6f})")

    avail = scenario.generator_available[:, t0:t0 + h]
    gen_rate = np.diff(gen_power, axis=1,
                       prepend=np.reshape(state.prev_generator_power, (-1, 1))) / dt
    sto_rate = np.diff(storage_power, axis=1,
                       prepend=np.reshape(state.prev_storage_power, (-1, 1))) / dt
    level = frac / unit_values(loads, "step_size")[:, None]
    off_grid = (unit_values(loads, "is_stepped")[:, None] > 0) \
        & (np.abs(level - np.round(level)) > slack)
    checks = (
        (gens, ~avail & (np.abs(gen_power) > slack),
         "tripped generator {} at {:.4f} MW", gen_power),
        (gens, avail & _outside(gen_power, gens, "p_min_mw", "p_max_mw", slack),
         "generator {} power {:.4f} outside box", gen_power),
        (gens, ramp_linked(scenario, t0, h)
         & _outside(gen_rate, gens, "ramp_down_mw_s", "ramp_up_mw_s", slack),
         "generator {} ramp {:.4f} MW/s", gen_rate),
        (stos, _outside(storage_power, stos, "p_min_mw", "p_max_mw", slack),
         "storage {} power {:.4f} outside box", storage_power),
        (stos, _outside(sto_rate, stos, "ramp_down_mw_s", "ramp_up_mw_s", slack),
         "storage {} ramp {:.4f} MW/s", sto_rate),
        (stos, _outside(soc, stos, "soc_min", "soc_max", slack),
         "storage {} SoC {:.6f} outside box", soc),
        (loads, (frac < -slack) | (frac > 1.0 + slack),
         "load {} service {:.6f} outside [0, 1]", frac),
        (loads, off_grid, "load {} service {:.6f} off its stepped grid", frac),
    )
    for units, mask, text, values in checks:
        for u, k in np.argwhere(mask):
            bad.append(f"step {t0 + k}: " + text.format(units[u].id, values[u, k]))
    return bad


def unwind_guards(unit: StorageSpec, dt: float) -> list:
    """Terminal unwind guard rows of one storage unit, discharge side first.

    Each (a, b, rhs) reads a * P - b * soc <= rhs, with P the net power
    of the window's last step and soc its end-of-step SoC: the power
    must be rampable to zero after the window without leaving the SoC
    box.  The unwind energy of P decelerating by r per step is the
    convex piecewise-linear max_j dt * (j P - j(j+1)/2 r), one row per
    breakpoint (none for a unit that stops within one step).
    """
    cap = unit.capacity_mj
    sides = ((1.0, unit.p_max_mw, -unit.ramp_down_mw_s * dt, unit.soc_min),
             (-1.0, -unit.p_min_mw, unit.ramp_up_mw_s * dt, unit.soc_max))
    # breakpoints j = 1..J of ramping p_max down to zero by step per step
    return [(sign * dt * j, sign * cap,
             dt * j * (j + 1) / 2.0 * step - sign * cap * bound)
            for sign, p_max, step, bound in sides
            for j in range(1, math.ceil(p_max / step - 1e-9) + 1)]


def unwind_envelope(unit: StorageSpec, dt: float, soc: float) -> tuple:
    """Net-power range (lo, hi) of one step from ``soc`` that the SoC box
    and every ``unwind_guards`` row admit, widened to contain 0.

    The SoC box is the j = 0 row of each side.  With soc_end = soc -
    dt P / cap, a row a * P - b * soc_end <= rhs bounds P by
    (rhs + b * soc) / (a + b * dt / cap), from above where the divisor
    is positive (discharge side) and from below where it is negative.
    The unit's power box is not applied.
    """
    cap = unit.capacity_mj
    rows = [(0.0, cap, -cap * unit.soc_min), (0.0, -cap, cap * unit.soc_max),
            *unwind_guards(unit, dt)]
    a, b, rhs = np.array(rows).T
    coef = a + b * dt / cap
    bound = (rhs + b * soc) / coef
    return (min(float(bound[coef < 0].max()), 0.0),
            max(float(bound[coef > 0].min()), 0.0))


def objective_terms(scenario: ScenarioSpec, frac, storage_power,
                    soc) -> ObjectiveTerms:
    """The four raw objective terms of a trajectory (see ObjectiveTerms)."""
    served = float(scenario.w_hat @ frac.sum(axis=1))
    throughput = float(np.abs(storage_power).sum())
    imbalance = 0.0
    first, second = scenario.pair_index
    for gap in np.abs(soc[first] - soc[second]):
        imbalance += float(gap.sum())
    terminal = float(scenario.terminal_priorities @ soc[:, -1]) if soc.size else 0.0
    return ObjectiveTerms(served=served, throughput=throughput,
                          imbalance=imbalance, terminal_soc=terminal)
