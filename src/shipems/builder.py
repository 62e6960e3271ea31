"""Translate a scenario window into the linearized dispatch MILP.

Decision columns per window step: one service level per load (integer
for stepped loads), one power per generator, a discharge power, a
charge power and a state of charge per storage unit (the objective
penalizes the sum of the two powers, the absolute power), and one
SoC-difference auxiliary per unordered storage pair.  The SoC
columns follow the one-step kinematics through banded recurrence
equalities (soc_k - soc_{k-1} + (dt/E) P_k = 0), which keeps every row
a handful of nonzeros; the spec's derived-expression formulation (SoC
as cumulative sums of powers) was tried first and abandoned because the
dense cumulative columns destroy basis-LU sparsity and with it the
real-time per-step budget.

A generator's ramp seam against the previous applied power involves
one column, so it is folded into that column's bounds instead of a
row, and the reach it implies tightens the bounds along the rest of
the ramp-linked run.  Only inconsistent input data (a previous power
the ramp cannot bring back into the box) makes the fold empty; the
builder then raises InfeasibleWindow, naming the generator and the
step.

Each window also carries terminal unwind guards: piecewise-linear rows
bounding the final-step storage power by the energy needed to ramp it
to zero inside the SoC box.  Without them a window may legally end
discharging at the SoC floor and the next shifted window wakes up in a
dead end.  The guards are exact, cost a few rows per unit, and are
vacuous for units that can stop within one step.  The guard rows, the
generator trip/ramp rule and the objective terms come from `plant`,
which the engine's fallback and trajectory audit share.

The builder also produces a crash basis for the simplex: generators at
their reachability-tightened maxima, storage idle, loads served
greedily by weight against the generator ceiling, SoC columns basic on
their recurrence rows, and SoC-difference auxiliaries basic on the side
the initial SoC spread makes tight.  That starting point is primal
feasible whenever each storage unit can ramp from its previous power
to zero in one step; otherwise only that unit's seam row starts
violated.  Every window carries it as its fallback basis, built only
when the window has no shifted basis (a lone window, the whole-mission
solve among them, and the first window of a receding-horizon run,
which starts cold) or its shifted basis (see below) proves numerically
singular.

Windows of one length differ in little, so a window is a template plus
a per-step patch.  ``window_template`` builds, once per scenario,
weights and window length, the column maps, the static column bounds,
objective and integrality, and every row of the window, kept ready in
CSR order: one structure per window length.  Each step folds the
generator bounds (trips pin a column to zero, the seam and
reachability fold into the bounds) and patches in the demand on the
balance rows, the storage seam bounds and the first recurrence's
right-hand side (the state's powers and SoC), the generator ramp rows'
bounds, and the starting basis.  A generator's ramp row at steps
1..h-1 is in every window: where the ramp applies it holds the ramp,
and on a trip or recovery step (``plant.ramp_linked`` False) it widens
to one MW past any move the unit's box allows.  That is never tight,
so the widened row acts as no row, and finite, so a shifted basis may
leave its slack at a bound.  The template is also the window's layout:
``build_window_milp`` returns it with the problem, and the next step
of a receding-horizon run passes it back as ``previous`` with the root
basis and the simplex core the window ran on, so a run of windows of
one length builds one template and one core (the solver patches each
window's values into it), and each shorter window at mission end
builds its own.

The rows come in the order generator ramp rows unit by unit, then each
storage unit's rows, the balance rows and the pair rows.  The template
also records each row's family, unit and step (a storage unit's seam is
its ramp row at step 0, the guards belong to the last step) in
``WindowTemplate.row_at``.  ``shifted_basis`` moves the previous
window's optimal basis one step along, into the next window, with
index arithmetic on those maps: step k takes the statuses of the
previous window's step k + 1, or of its last step past that.  In a
window of the previous one's length the last step copies the previous
last step; in a window one step shorter at mission end every step has
its own counterpart.  The shift fixes no basic count: the simplex
completes the start into a basis (``lp`` module docstring).  A template
keeps the index maps of the shift into a window of its own length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import plant
from .errors import DecodeMismatch, InfeasibleWindow
from .lp import AT_LOWER, AT_UPPER, BASIC, Basis, LinearProgram
from .milp import MilpProblem, MilpSolution
from .model import DispatchPlan, ObjectiveWeights, ScenarioSpec, SystemState


def window_variable_count(n_loads: int, n_generators: int, n_storage: int,
                          horizon: int) -> int:
    """Columns of a built window: Np*(nL + nG + 3*nE + nE*(nE-1)/2).

    Per step: one service level per load, one power per generator,
    three columns per storage unit (discharge, charge, state of
    charge), and one gap auxiliary per unordered storage pair.
    """
    pairs = n_storage * (n_storage - 1) // 2
    return horizon * (n_loads + n_generators + 3 * n_storage + pairs)


def _triplets(rows, cols, vals):
    """COO triplets of the rows ``rows``: row ``rows[i]`` holds the
    columns ``cols[i]`` (last axis), coefficients ``vals`` broadcast."""
    cols = np.asarray(cols, dtype=np.int64)
    width = cols.shape[-1]
    return (np.repeat(np.ravel(rows), width), cols.ravel(),
            np.broadcast_to(vals, cols.shape).ravel())


@dataclass(frozen=True, eq=False)
class WindowTemplate:
    """Everything a window shares with the other windows of its length
    in the same mission (see the module docstring), and the column/row
    map that decodes and shifts each of them.

    Storage power is carried as a discharge/charge split: the net power
    is ``x[discharge_cols] - x[charge_cols]`` and the absolute-power
    auxiliary of the linearized objective is their sum.  The rows
    (generator ramp, storage, balance and SoC-gap pair blocks) are kept
    as CSR arrays that every window of the length shares.  ``demand_at``
    locates the balance rows' load entries, whose values (the demand)
    each window supplies.  ``row_at`` gives the row of each (family,
    unit) slot at each step, -1 where the slot has no row at that step:
    per generator the ramp rows (steps 1..h-1), per storage unit the
    seam (step 0) and ramp rows, then the SoC recurrences, one slot per
    unwind guard (last step only), the balance rows and the two rows of
    each SoC-gap pair.  The generator ramp rows come first and hold
    ``gen_ramp``; a window gives the rows off the ramp the bounds
    ``gen_free``.  The arrays are read-only: a window copies what it
    patches.
    """

    scenario: ScenarioSpec
    weights: ObjectiveWeights
    horizon: int
    load_cols: np.ndarray      # (n_loads, h)
    gen_cols: np.ndarray       # (n_generators, h)
    discharge_cols: np.ndarray  # (n_storage, h)
    charge_cols: np.ndarray    # (n_storage, h)
    soc_cols: np.ndarray       # (n_storage, h)
    soc_gap_cols: np.ndarray   # (n_pairs, h)
    step_sizes: np.ndarray     # per-load decode granularity
    lower: np.ndarray          # generator columns hold their boxes
    upper: np.ndarray
    objective: np.ndarray
    integrality: np.ndarray
    indptr: np.ndarray         # every row, CSR
    indices: np.ndarray
    data: np.ndarray
    demand_at: np.ndarray      # (n_loads, h) positions in data
    row_lo: np.ndarray         # generator ramps, storage seams and
    row_up: np.ndarray         # first recurrences patched per window
    patched: np.ndarray        # storage seams, then first recurrences
    rec_rows: np.ndarray       # (n_storage, h) SoC recurrence
    gap_rows: np.ndarray       # (2, n_pairs, h) u >= soc_l - soc_m, u >= soc_m - soc_l
    row_at: np.ndarray         # (row slots, h)
    gen_ramp: np.ndarray       # (2, n_generators) MW per step, down then up
    gen_free: np.ndarray       # (2, n_generators) ramp row bounds off the ramp
    sto_ramp: np.ndarray       # (2, n_storage)

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def n_cols(self) -> int:
        return self.lower.size

    @property
    def w_hat(self) -> np.ndarray:
        """The scenario's per-load weight * rated power (unscaled)."""
        return self.scenario.w_hat

    @cached_property
    def shift_maps(self):
        """``_shift_maps`` from a window of this template to the next."""
        return _shift_maps(self, self)


def window_template(scenario: ScenarioSpec, weights: ObjectiveWeights,
                    horizon: int) -> WindowTemplate:
    """The template of every ``horizon``-step window of ``scenario``
    under ``weights``; ``build_window_milp`` patches it per step."""
    h = horizon
    loads, gens, stos = scenario.loads, scenario.generators, scenario.storage
    nl, ng, ne = len(loads), len(gens), len(stos)
    first, second = scenario.pair_index
    npairs = first.size
    stride = nl + ng + 3 * ne + npairs
    n = h * stride
    dt = scenario.dt_s

    base = np.arange(h, dtype=np.int64) * stride

    def cols_of(first, count):
        return base[None, :] + first + np.arange(count)[:, None]

    load_cols = cols_of(0, nl)
    gen_cols = cols_of(nl, ng)
    dis_cols = cols_of(nl + ng, ne)
    chg_cols = cols_of(nl + ng + ne, ne)
    soc_cols = cols_of(nl + ng + 2 * ne, ne)
    us_cols = cols_of(nl + ng + 3 * ne, npairs)

    step_sizes = plant.unit_values(loads, "step_size")
    stepped = np.array([ld.is_stepped for ld in loads], dtype=bool)
    soc_max = plant.unit_values(stos, "soc_max")
    soc_rate = dt / scenario.capacities

    lower = np.zeros(n)
    upper = np.zeros(n)
    objective = np.zeros(n)
    integrality = np.zeros(n, dtype=bool)

    # loads: a stepped load's service runs over the integers 0..steps,
    # so its weight (and, per window, its demand) is scaled by the step
    # size, which is 1 for the other loads
    upper[load_cols] = np.array([ld.steps if ld.is_stepped else 1.0
                                 for ld in loads], dtype=float)[:, None]
    integrality[load_cols[stepped]] = True
    objective[load_cols] = (scenario.w_hat * step_sizes)[:, None]
    lower[gen_cols] = plant.unit_values(gens, "p_min_mw")[:, None]
    upper[gen_cols] = plant.unit_values(gens, "p_max_mw")[:, None]

    # storage: net power split into discharge (>= 0) and charge (>= 0)
    # columns; the linearized objective penalizes their sum, which
    # equals |P| at any optimum with a positive throughput weight.  SoC
    # columns are boxed directly and tied to the net power through one
    # recurrence equality per step; ramp limits couple the net powers.
    upper[dis_cols] = plant.unit_values(stos, "p_max_mw")[:, None]
    upper[chg_cols] = -plant.unit_values(stos, "p_min_mw")[:, None]
    objective[dis_cols] = -weights.throughput
    objective[chg_cols] = -weights.throughput
    lower[soc_cols] = plant.unit_values(stos, "soc_min")[:, None]
    upper[soc_cols] = soc_max[:, None]
    # terminal SoC reward lands directly on the final SoC column
    objective[soc_cols[:, h - 1]] += weights.terminal * scenario.terminal_priorities
    upper[us_cols] = np.maximum(soc_max[first], soc_max[second])[:, None]
    objective[us_cols] = -weights.imbalance

    # generator ramp rows p_k - p_{k-1}, unit by unit, at steps 1..h-1
    gen_end = ng * (h - 1)
    gen_rows = np.arange(gen_end).reshape(ng, h - 1)
    # storage rows, unit by unit: the ramp seam against the previous
    # applied power, ramps, the kinematics
    # soc_k - soc_{k-1} + (dt/E)(dis_k - chg_k) = 0, terminal guards
    guards = [plant.unwind_guards(sto, dt) for sto in stos]
    n_guards = np.array([len(g) for g in guards], dtype=np.int64)
    size = 2 * h + n_guards
    seam_rows = gen_end + np.cumsum(size) - size
    ramp_rows = seam_rows[:, None] + np.arange(1, h)
    rec_rows = seam_rows[:, None] + h + np.arange(h)
    guard_rows = np.arange(n_guards.sum()) + np.repeat(
        seam_rows + 2 * h - (np.cumsum(n_guards) - n_guards), n_guards)
    guard_abc = np.array([g for unit in guards for g in unit]).reshape(-1, 3)
    last = np.stack([dis_cols[:, h - 1], chg_cols[:, h - 1], soc_cols[:, h - 1]], -1)
    rate = soc_rate[:, None]
    sto_end = gen_end + int(size.sum())
    balance_rows = sto_end + np.arange(h)
    gap_rows = (sto_end + h + 2 * np.arange(npairs * h).reshape(npairs, h)
                + np.array([0, 1])[:, None, None])
    pair_cols = np.stack([soc_cols[first], soc_cols[second], us_cols], -1)
    bal_cols = np.concatenate([dis_cols, chg_cols, gen_cols]).T
    bal_sign = np.concatenate([-np.ones(ne), np.ones(ne), -np.ones(ng)])
    blocks = [
        _triplets(gen_rows, np.stack([gen_cols[:, :-1], gen_cols[:, 1:]], -1),
                  [-1.0, 1.0]),
        _triplets(seam_rows, np.stack([dis_cols[:, 0], chg_cols[:, 0]], -1),
                  [1.0, -1.0]),
        _triplets(ramp_rows,
                  np.stack([dis_cols[:, 1:], chg_cols[:, 1:],
                            dis_cols[:, :-1], chg_cols[:, :-1]], -1),
                  [1.0, -1.0, -1.0, 1.0]),
        _triplets(rec_rows[:, 0],
                  np.stack([soc_cols[:, 0], dis_cols[:, 0], chg_cols[:, 0]], -1),
                  np.stack([np.ones(ne), soc_rate, -soc_rate], -1)),
        _triplets(rec_rows[:, 1:],
                  np.stack([soc_cols[:, 1:], soc_cols[:, :-1],
                            dis_cols[:, 1:], chg_cols[:, 1:]], -1),
                  np.stack(np.broadcast_arrays(1.0, -1.0, rate, -rate), -1)),
        _triplets(guard_rows, last[np.repeat(np.arange(ne), n_guards)],
                  np.stack([guard_abc[:, 0], -guard_abc[:, 0], -guard_abc[:, 1]], -1)),
        # balance rows: served demand <= storage + generation supply
        _triplets(balance_rows, bal_cols, bal_sign),
        # SoC-gap rows per unordered pair: u >= |SoC_l - SoC_m|
        _triplets(gap_rows[0], pair_cols, [1.0, -1.0, -1.0]),
        _triplets(gap_rows[1], pair_cols, [-1.0, 1.0, -1.0]),
        # the balance rows' load entries go last: each window sets their
        # values, found through demand_at
        _triplets(np.broadcast_to(balance_rows, (nl, h)), load_cols[..., None], 0.0),
    ]
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    m = sto_end + h + 2 * npairs * h
    order = np.lexsort((cols, rows))       # CSR order: by row, then column
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    gen_ramp = np.stack([plant.unit_values(gens, "ramp_down_mw_s") * dt,
                         plant.unit_values(gens, "ramp_up_mw_s") * dt])
    sto_ramp = np.stack([plant.unit_values(stos, "ramp_down_mw_s") * dt,
                         plant.unit_values(stos, "ramp_up_mw_s") * dt])
    # off the ramp a generator row widens to one MW past any move its box
    # allows, a tripped step at zero included (see the module docstring)
    reach = (np.maximum(plant.unit_values(gens, "p_max_mw"), 0.0)
             - np.minimum(plant.unit_values(gens, "p_min_mw"), 0.0) + 1.0)
    # recurrences are equalities and seams are patched; balance and
    # pair rows are <= 0
    row_lo = np.full(m, -np.inf)
    row_up = np.zeros(m)
    row_lo[gen_rows] = gen_ramp[0][:, None]
    row_up[gen_rows] = gen_ramp[1][:, None]
    row_lo[gen_end:sto_end] = 0.0
    row_lo[ramp_rows] = sto_ramp[0][:, None]
    row_up[ramp_rows] = sto_ramp[1][:, None]
    row_lo[guard_rows] = -np.inf
    row_up[guard_rows] = guard_abc[:, 2]
    n_guard = guard_rows.size
    row_at = np.full((ng + 2 * ne + n_guard + 1 + 2 * npairs, h), -1, dtype=np.int64)
    row_at[:ng, 1:] = gen_rows
    sto_at = row_at[ng:]
    sto_at[:ne, 0] = seam_rows
    sto_at[:ne, 1:] = ramp_rows
    sto_at[ne:2 * ne] = rec_rows
    sto_at[2 * ne:2 * ne + n_guard, h - 1] = guard_rows
    sto_at[2 * ne + n_guard] = balance_rows
    sto_at[2 * ne + n_guard + 1:] = gap_rows.reshape(-1, h)
    return WindowTemplate(
        scenario=scenario, weights=weights, horizon=h, load_cols=load_cols,
        gen_cols=gen_cols, discharge_cols=dis_cols, charge_cols=chg_cols,
        soc_cols=soc_cols, soc_gap_cols=us_cols, step_sizes=step_sizes,
        lower=lower, upper=upper, objective=objective, integrality=integrality,
        indptr=np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))]
                              ).astype(np.int32),
        indices=cols[order].astype(np.int32), data=vals[order],
        demand_at=position[order.size - nl * h:].reshape(nl, h),
        row_lo=row_lo, row_up=row_up,
        patched=np.concatenate([seam_rows, rec_rows[:, 0]]),
        rec_rows=rec_rows, gap_rows=gap_rows, row_at=row_at,
        gen_ramp=gen_ramp, gen_free=np.stack([-reach, reach]), sto_ramp=sto_ramp)


def build_window_milp(scenario: ScenarioSpec, state: SystemState,
                      weights: ObjectiveWeights, horizon: int, *,
                      previous: Optional[tuple] = None):
    """Build the dispatch MILP for the window starting at state.step_index.

    The window shrinks at mission end.  ``previous`` is the
    (WindowTemplate, optimal root Basis or None, simplex core or None)
    of the step before, if any, built for the same scenario and
    weights.  A window of its length reuses its template and hands the
    core on as ``MilpProblem.core``, for the solver to patch; any other
    window (the first, each shrinking window at mission end, a lone
    window) builds its own template and gets a fresh core.  Returns
    (MilpProblem, WindowTemplate).  The window takes ``previous``'s
    basis shifted one step as its basis hint (``shifted_basis``), and
    None when there is no basis to shift, so that it starts cold.  The
    fallback basis builds the crash basis when a solve asks for it.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    t0 = int(state.step_index)
    if not 0 <= t0 < scenario.steps:
        raise ValueError(f"step_index {t0} outside mission of {scenario.steps} steps")
    h = min(horizon, scenario.steps - t0)
    prev, basis, core = previous or (None, None, None)
    if prev is not None and (prev.scenario is not scenario or prev.weights != weights):
        raise ValueError("previous window was built for another scenario or weights")
    reuse = prev is not None and prev.horizon == h
    tpl = prev if reuse else window_template(scenario, weights, h)

    demand = scenario.demand_mw[:, t0:t0 + h]
    soc0 = np.asarray(state.soc, dtype=float)
    lower, upper = tpl.lower.copy(), tpl.upper.copy()
    linked = _fold_generators(tpl, state, t0, lower, upper)
    data = tpl.data.copy()
    data[tpl.demand_at] = demand * tpl.step_sizes[:, None]
    prev_sto = np.asarray(state.prev_storage_power, dtype=float)
    row_lo, row_up = tpl.row_lo.copy(), tpl.row_up.copy()
    # the generator ramp rows lead, unit by unit: off the ramp they widen
    gen_lo, gen_up = np.where(linked[:, 1:], tpl.gen_ramp[..., None],
                              tpl.gen_free[..., None])
    row_lo[:gen_lo.size] = gen_lo.ravel()
    row_up[:gen_up.size] = gen_up.ravel()
    row_lo[tpl.patched] = np.concatenate([prev_sto + tpl.sto_ramp[0], soc0])
    row_up[tpl.patched] = np.concatenate([prev_sto + tpl.sto_ramp[1], soc0])

    lp = LinearProgram(objective=tpl.objective.copy(), lower=lower, upper=upper,
                       a_rg=sp.csr_matrix((data, tpl.indices, tpl.indptr),
                                          shape=(row_lo.size, tpl.n_cols)),
                       rg_lower=row_lo, rg_upper=row_up)
    problem = MilpProblem(
        lp=lp, integrality=tpl.integrality.copy(),
        basis_hint=None if basis is None else shifted_basis(prev, tpl, basis),
        fallback_basis=partial(_crash_basis, tpl, upper, demand, soc0),
        core=core if reuse else None)
    return problem, tpl


def _fold_generators(tpl: WindowTemplate, state: SystemState, t0: int,
                     lower: np.ndarray, upper: np.ndarray):
    """Fold trips and ramp seams into the generator bounds (in place).

    A tripped step is pinned to zero.  Where the ramp applies
    (``plant.ramp_linked``, which must be the same inside a window and
    on a window seam, or receding-horizon runs diverge from the
    baseline) the bounds shrink to what the ramp reaches from the step
    before; the ramp row between the two columns keeps its ramp
    bounds, while off the ramp the window widens it.  The first column
    folds its seam against the state's power.  Returns the
    (n_generators, h) ``plant.ramp_linked`` mask.  Raises
    InfeasibleWindow, naming the generator and the step, when the seam
    fold is empty: the state's power cannot reach the unit's box, which
    inconsistent input data alone brings about.
    """
    scenario, h, gc = tpl.scenario, tpl.horizon, tpl.gen_cols
    avail = scenario.generator_available[:, t0:t0 + h]
    linked = plant.ramp_linked(scenario, t0, h)
    prev = np.asarray(state.prev_generator_power, dtype=float)
    rdn, rup = tpl.gen_ramp.tolist()
    seam_lo, seam_up = (prev + tpl.gen_ramp).tolist()
    # a run of linked steps folds left to right: plain floats, one (g, k)
    # at a time, in the same operations as the rows they stand for
    lo = np.where(avail, tpl.lower[gc], 0.0).tolist()
    up = np.where(avail, tpl.upper[gc], 0.0).tolist()
    for g, k in zip(*(idx.tolist() for idx in np.nonzero(linked))):
        lo_g, up_g = lo[g], up[g]
        if k:
            lo_g[k] = max(lo_g[k], lo_g[k - 1] + rdn[g])
            up_g[k] = min(up_g[k], up_g[k - 1] + rup[g])
        elif max(lo_g[0], seam_lo[g]) <= min(up_g[0], seam_up[g]) + 1e-12:
            lo_g[0] = max(lo_g[0], seam_lo[g])
            up_g[0] = min(up_g[0], seam_up[g])
        else:
            raise InfeasibleWindow(
                f"generator {scenario.generators[g].id} at step {t0}: previous "
                f"power {prev[g]:.6g} MW cannot ramp into "
                f"[{lo_g[0]:.6g}, {up_g[0]:.6g}] MW")
    lower[gc] = np.reshape(lo, gc.shape)
    upper[gc] = np.reshape(up, gc.shape)
    return linked


def shifted_basis(prev: WindowTemplate, tpl: WindowTemplate,
                  prev_basis: Basis) -> Basis:
    """The basis of a window of ``prev`` moved one step along, for the
    next window, of template ``tpl``: ``prev`` itself, or one step
    shorter at mission end.

    Step k of the window takes the statuses of the columns and row
    slacks of the previous window's step k + 1, or of its last step
    past that.  A row with no counterpart gets a basic slack.  The
    basic count is left as it comes, and the basis may be structurally
    singular: the simplex completes it (``lp`` module docstring).
    """
    gather, order = tpl.shift_maps if prev is tpl else _shift_maps(prev, tpl)
    # the last entry stands for "no counterpart": a basic slack
    vstat = np.append(prev_basis.vstat, np.int8(BASIC))[gather]
    return Basis(vstat=vstat, basic=order[vstat[order] == BASIC])


def _shift_maps(prev: WindowTemplate, tpl: WindowTemplate):
    """Index maps of ``shifted_basis`` from a window of ``prev`` to the
    next one, of ``tpl``; they depend on the row maps and column counts
    alone.

    Returns where each column and row slack of the new window takes its
    status from (one past the previous basis for none), and every column
    and slack in basic-position order.
    """
    dst, n, m, h = tpl.row_at, tpl.n_cols, tpl.row_lo.size, tpl.horizon
    stride = n // h
    step = np.minimum(np.arange(h) + 1, prev.horizon - 1)
    src = prev.row_at[:, step]
    both = (src >= 0) & (dst >= 0)
    gather = np.full(n + m, prev.n_cols + prev.row_lo.size, dtype=np.int64)
    gather[:n] = (step[:, None] * stride + np.arange(stride)).ravel()
    gather[n + dst[both]] = prev.n_cols + src[both]
    # basic positions step by step, columns before row slacks: the
    # simplex pivots far less from the basis it completes (synth seed 42
    # at window 120: 5,655 pivots, against 16,188 in column index order)
    key = np.empty(n + m, dtype=np.int64)
    key[:n] = 2 * (np.arange(n) // stride)
    key[n + dst[dst >= 0]] = 2 * np.nonzero(dst >= 0)[1] + 1
    maps = gather, np.argsort(key, kind="stable")
    for a in maps:
        a.setflags(write=False)
    return maps


def _crash_basis(tpl: WindowTemplate, upper: np.ndarray, demand: np.ndarray,
                 soc0: np.ndarray) -> Basis:
    """Starting basis for the window LP (see the module docstring).

    Crash dispatch: generators at their reachable maxima, storage idle,
    and loads served greedily by weight against the generator ceiling,
    skipping a load that does not fit.  SoC columns sit basic on their
    recurrence rows and hold the initial SoC, so each gap auxiliary sits
    basic on the side that the initial spread makes tight.  The point is
    primal feasible whenever each storage unit can ramp from its
    previous power to zero in one step; otherwise only that unit's seam
    row starts violated.
    """
    ceiling = upper[tpl.gen_cols].sum(axis=0).tolist()
    by_step = demand.T.tolist()
    order = np.argsort(-tpl.w_hat, kind="stable").tolist()
    serve = np.zeros(demand.shape, dtype=bool)
    for k, cap in enumerate(ceiling):
        used = 0.0
        for i in order:
            if used + by_step[k][i] <= cap + 1e-12:
                serve[i, k] = True
                used += by_step[k][i]
    first, second = tpl.scenario.pair_index
    gap = soc0[first] - soc0[second]
    spread = np.abs(gap) > 1e-12

    n, m = tpl.lower.size, tpl.row_lo.size
    vstat = np.full(n + m, AT_LOWER, dtype=np.int8)
    vstat[n:] = BASIC
    basic = np.arange(n, n + m, dtype=np.int64)
    vstat[tpl.gen_cols] = AT_UPPER
    vstat[tpl.load_cols[serve]] = AT_UPPER
    # each crash basic replaces the slack of the row it makes tight;
    # a recurrence slack is fixed (lo == up), so either park is exact
    swaps = ((tpl.soc_cols, tpl.rec_rows, AT_LOWER),
             (tpl.soc_gap_cols[spread],
              np.where(gap[:, None] > 0, tpl.gap_rows[0], tpl.gap_rows[1])[spread],
              AT_UPPER))
    for cols, rows, park in swaps:
        vstat[n + rows] = park
        vstat[cols] = BASIC
        basic[rows] = cols
    return Basis(vstat=vstat, basic=basic)


def decode_plan(solution: MilpSolution, layout: WindowTemplate,
                state: SystemState) -> DispatchPlan:
    """Decode a solver vector into a dispatch plan and re-audit it.

    ``layout`` is the window's template, whose scenario the plan is
    audited against, and ``state`` the state it was built from, whose
    step index the plan starts at.  Stepped-load integers are multiplied
    back by their step size; the SoC trajectory is recomputed through
    the one-step kinematics and must match the window's internal SoC
    columns; the objective recombined from the decoded terms must match
    the solver objective.  Raises DecodeMismatch when the audit fails (a
    layout bug, not a data error).
    """
    if not solution.has_incumbent:
        raise ValueError("solution carries no incumbent to decode")
    x = solution.x

    # solve_milp hands back every integer column already snapped
    frac = np.clip(x[layout.load_cols] * layout.step_sizes[:, None], 0.0, 1.0)

    gen_power = x[layout.gen_cols]
    sto_power = x[layout.discharge_cols] - x[layout.charge_cols]

    scenario = layout.scenario
    soc = plant.soc_path(scenario, state.soc, sto_power)
    # cross-check against the window's internal SoC columns
    if soc.size and np.max(np.abs(soc - x[layout.soc_cols])) > 1e-7:
        raise DecodeMismatch("SoC recursion diverged from window columns")

    terms = plant.objective_terms(scenario, frac, sto_power, soc)
    recombined = terms.combined(layout.weights)
    if abs(recombined - solution.objective_value) > 1e-6:
        raise DecodeMismatch(
            f"recombined objective {recombined:.9g} deviates from solver "
            f"value {solution.objective_value:.9g}")
    return DispatchPlan(start_step=int(state.step_index), load_fraction=frac,
                        gen_power=gen_power, storage_power=sto_power, soc=soc,
                        terms=terms, objective=solution.objective_value)

