"""Branch-and-bound over bounded integer variables with LP relaxations.

One loop serves every node, the root included: it pops the open node
with the best bound, prunes it against the incumbent, solves its
relaxation, and either takes an integral point as the incumbent or
floors the point into a candidate incumbent and pushes both children.
Node selection is best-bound only; the floor rounding of the root's
relaxation supplies the early incumbent that the per-step deadline
needs (for the shedding models it is almost always feasible).
Branching picks the most-fractional relaxation value, ties broken by
lowest variable index, which keeps replays deterministic.  The root
starts from the problem's ``basis_hint`` and each child from its
parent's optimal basis; every node passes the problem's fallback, and
the simplex checks and completes whichever start it takes (one start
rule, ``lp`` module docstring).  The solution hands back the root
relaxation's optimal basis, which a receding-horizon caller shifts
into the next window.

The deadline is the one stop.  A relaxation it cuts short hands back
its iterate, which only the floor rounding judges (``point_feasible``).
A timed-out search returns the best incumbent found, flagged TIMED_OUT;
it is never passed off as OPTIMAL.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch
from .lp import AT_LOWER, AT_UPPER, Basis, LinearProgram, LpStatus, _SimplexCore


class MilpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


@dataclass
class MilpProblem:
    """An LP plus a per-variable integrality mask.

    Integer-masked variables must carry finite integer bounds.  The
    root relaxation starts from ``basis_hint`` when given (a receding-
    horizon builder shifts the previous window's basis into it).
    ``fallback_basis``, when given, builds the basis a node starts from
    when its warm basis is missing, malformed or numerically singular
    (model builders know a good crash basis); it is called only then.
    The slack basis comes last.  ``core``, when given, is the simplex
    core of an earlier problem with the same row pattern (a receding-
    horizon window of the same length): ``solve_milp`` patches this
    problem's values into it instead of building a core.
    """

    lp: LinearProgram
    integrality: np.ndarray
    basis_hint: Optional[Basis] = None
    fallback_basis: Optional[Callable[[], Basis]] = None
    core: Optional[_SimplexCore] = None

    def __post_init__(self):
        self.integrality = np.asarray(self.integrality, dtype=bool).ravel()

    def validate(self):
        self.lp.validate()
        if self.integrality.size != self.lp.n_vars:
            raise DimensionMismatch(
                f"integrality mask has {self.integrality.size} entries for "
                f"{self.lp.n_vars} variables")
        bounds = np.concatenate([self.lp.lower[self.integrality],
                                 self.lp.upper[self.integrality]])
        if (np.abs(bounds - np.round(bounds)) > 1e-9).any():
            raise DimensionMismatch("integer variables must have integer bounds")


@dataclass(frozen=True)
class MilpSolution:
    """Outcome of ``solve_milp``.

    ``basis`` is the optimal basis of the root relaxation, whichever
    node supplied the incumbent; it is None when the root relaxation
    did not reach optimality.  ``pivots`` and ``factorizations`` sum
    those of the node solves (``LpSolution``).  ``core`` is the simplex
    core the search ran on, which the next problem of the same row
    pattern may patch (``MilpProblem.core``).
    """

    status: MilpStatus
    x: Optional[np.ndarray]
    objective_value: float
    nodes_explored: int
    basis: Optional[Basis] = None
    pivots: int = 0
    factorizations: int = 0
    core: Optional[_SimplexCore] = field(default=None, repr=False, compare=False)

    @property
    def has_incumbent(self) -> bool:
        return self.x is not None


#: Distance from the nearest integer within which a relaxation value
#: counts as integral.
INTEGRALITY_TOL = 1e-6


@dataclass
class SolverConfig:
    """Knobs for solve_milp; defaults suit desk-scale dispatch windows.

    The effective bound-pruning gap is ``max(gap_tol, rel_gap * |best|)``;
    ``rel_gap`` stays zero by default so results are absolute-gap exact,
    and real-time callers can trade a relative sliver of objective for
    large search-tree savings.  ``deadline_s``, the one stop, is the wall
    budget of one ``solve_milp`` call (TIMED_OUT); the engine reads it as
    a whole step's, build and decode included (see ``engine.run_rho``),
    and 0 is a deadline already passed.  The LP tolerances are those of
    :mod:`shipems.lp`.  A value outside its domain raises ValueError
    (a NaN gap, say, would disable pruning against the incumbent).
    """

    gap_tol: float = 1e-6
    rel_gap: float = 0.0
    deadline_s: Optional[float] = None

    def __post_init__(self):
        for name in ("gap_tol", "rel_gap", "deadline_s"):
            value = getattr(self, name)
            if value is None and name == "deadline_s":
                continue
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _round_integers(x, int_idx, lower, upper):
    out = x.copy()
    snapped = np.round(out[int_idx])
    out[int_idx] = np.clip(snapped, lower[int_idx], upper[int_idx])
    return out


def solve_milp(problem: MilpProblem, cfg: Optional[SolverConfig] = None) -> MilpSolution:
    """Solve a mixed-integer LP (maximize orientation) by branch and bound.

    Returns OPTIMAL with the objective within the effective gap
    ``max(cfg.gap_tol, cfg.rel_gap * |best|)`` of the true
    mixed-integer optimum, INFEASIBLE when no integer-feasible point
    exists, or TIMED_OUT carrying the incumbent found so far
    (``x is None`` when the search stopped before any incumbent).
    """
    cfg = cfg or SolverConfig()
    problem.validate()
    deadline = None if cfg.deadline_s is None else time.perf_counter() + cfg.deadline_s

    lp = problem.lp
    int_idx = np.flatnonzero(problem.integrality)
    core = problem.core
    if core is None or not core.patch(lp):
        core = _SimplexCore(lp)

    def timed_out():
        return deadline is not None and time.perf_counter() > deadline

    def fractional(x):
        if int_idx.size == 0:
            return None
        vals = x[int_idx]
        dist = np.abs(vals - np.round(vals))
        k = int(np.argmax(dist))  # argmax takes the lowest index on ties
        if dist[k] <= INTEGRALITY_TOL:
            return None
        return int(int_idx[k])

    nodes = pivots = factorizations = 0
    root_lo = lp.lower.copy()
    root_up = lp.upper.copy()

    def solve_node(lo, up, warm):
        nonlocal nodes, pivots, factorizations
        nodes += 1
        # fold in globally fixed bounds (reduced-cost fixing); the core
        # reports an emptied box as INFEASIBLE
        sol = core.solve(col_lo=np.maximum(lo, root_lo), col_up=np.minimum(up, root_up),
                         warm=warm, fallback=problem.fallback_basis, deadline=deadline)
        pivots += sol.iterations
        factorizations += sol.factorizations
        return sol

    incumbent_x = None
    incumbent_obj = -np.inf
    # root relaxation data for reduced-cost fixing, and the basis the
    # solution hands back, set by the first optimal solve
    root_bound = root_d = root_basis = None

    def prune_gap():
        if incumbent_obj == -np.inf:
            return cfg.gap_tol
        return max(cfg.gap_tol, cfg.rel_gap * abs(incumbent_obj))

    def refix():
        """Reduced-cost bound fixing against the current incumbent: an
        integer move of one unit against a root reduced cost larger
        than the remaining bound slack can never beat the incumbent.
        Tightens the global bounds, which every node folds in."""
        if root_bound is None:
            return
        slack = root_bound - (incumbent_obj + prune_gap())
        d = root_d[int_idx]
        vs = root_basis.vstat[int_idx]
        fix_low = (vs == AT_LOWER) & (-d > slack)
        fix_up = (vs == AT_UPPER) & (d > slack)
        root_up[int_idx[fix_low]] = root_lo[int_idx[fix_low]]
        root_lo[int_idx[fix_up]] = root_up[int_idx[fix_up]]

    def try_round_down(x):
        """Floor the integer entries of a relaxation point; if the result
        is verifiably feasible it seeds/improves the incumbent.  For
        monotone shedding models flooring is almost always feasible, so
        this gives branch-and-bound a strong bound immediately.  With no
        integer columns a feasible point is taken as it is."""
        nonlocal incumbent_x, incumbent_obj
        cand = x.copy()
        cand[int_idx] = np.floor(cand[int_idx] + INTEGRALITY_TOL)
        np.clip(cand[int_idx], lp.lower[int_idx], lp.upper[int_idx],
                out=cand[int_idx])
        obj = float(core.c @ cand)
        if obj > incumbent_obj and core.point_feasible(cand):
            incumbent_x, incumbent_obj = cand, obj
            refix()

    def result(status_):
        # snap against the original problem bounds: the search bounds may
        # have been tightened past an older (still optimal) incumbent
        xr = None if incumbent_x is None else _round_integers(
            incumbent_x, int_idx, lp.lower, lp.upper)
        return MilpSolution(status_, xr, incumbent_obj, nodes, root_basis,
                            pivots, factorizations, core)

    # open nodes, best bound first: (-bound, tiebreak, lo, up, warm
    # basis); the root enters with an infinite bound
    heap = [(-np.inf, 0, root_lo, root_up, problem.basis_hint)]
    counter = 0
    while heap:
        neg_bound, _, lo, up, warm = heapq.heappop(heap)
        if -neg_bound <= incumbent_obj + prune_gap():
            continue  # pruned by bound
        if timed_out():
            return result(MilpStatus.TIMED_OUT)
        status, x, obj, _, basis, d, _ = solve_node(lo, up, warm)
        if status is None:
            try_round_down(x)   # the deadline's iterate, as it stands
            return result(MilpStatus.TIMED_OUT)
        if status is not LpStatus.OPTIMAL:
            continue
        if root_bound is None:
            root_bound, root_d, root_basis = obj, d, basis
        if obj <= incumbent_obj + prune_gap():
            continue
        j = fractional(x)
        if j is None:
            incumbent_x, incumbent_obj = x, obj
            refix()
            continue
        try_round_down(x)
        if obj <= incumbent_obj + prune_gap():
            continue  # the rounded incumbent closed this node
        down_up = up.copy()
        down_up[j] = np.floor(x[j])
        up_lo = lo.copy()
        up_lo[j] = np.ceil(x[j])
        for child_lo, child_up in ((lo, down_up), (up_lo, up)):
            counter += 1
            heapq.heappush(heap, (-obj, counter, child_lo, child_up, basis))

    if incumbent_x is None:
        return result(MilpStatus.INFEASIBLE)
    return result(MilpStatus.OPTIMAL)
