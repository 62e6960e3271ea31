"""Exact LP solving with a bounded-variable revised primal simplex.

Problems are stated in maximize orientation over box-bounded variables
with sparse constraint rows.  Bounds are handled implicitly (never as
rows), which keeps the basis small for models that are dense in boxes
and sparse in rows.  Every row is a ranged row
``rg_lower <= a_rg x <= rg_upper``, and the caller states it so: an
inequality leaves one side infinite (open), an equality has equal
sides.  Each row gets a logical slack variable, so all rows go through
one code path.  Phase 1 minimizes the total bound violation of the
logical/basic variables; the problem is reported infeasible when that
optimum stays above tolerance.

The basis is factored by SuperLU (``scipy.sparse.linalg.splu``) with a
COLAMD column order, relaxed supernodes switched off (``relax=1``) and
one-column panels (``panel_size=1``).  Simplex bases are very sparse
and the solves ask for very sparse results, so SuperLU's default
relaxed supernodes only turn each triangular solve into many small
dense-kernel calls, and wide panels only add work to the factorization.
Mean times against SuperLU's defaults (2-core Xeon VM), with nnz(L+U)
within 0.1 % and the same residuals:

=====================================  ==========  ==========  =============
bases                                  ftran (us)  btran (us)  factor (ms)
=====================================  ==========  ==========  =============
whole mission, 5,467 rows (5 bases)    332 -> 99   184 -> 84   2.6 -> 1.8
60-step window, 1,398 rows (9 bases)   113 -> 36   68 -> 32    0.76 -> 0.49
=====================================  ==========  ==========  =============

Between factorizations the basis inverse is kept in product form: each
pivot appends the sparse entering column ``B^-1 a_j`` as an eta vector.
The basis is factored afresh after a pivot element below 1e-8 in
magnitude, or once the etas hold more nonzeros than the factor itself
(``SuperLU.nnz``), past which they cost more per solve than it does.
The factor's fill sizes the rule to the basis: about 20,600 nonzeros on
whole-mission bases, about 690 on 8-step windows.  The unperturbed
benchmark missions call SuperLU 160 times in 2,763 pivots (whole
mission), 155 times in 1,004 pivots and 284 solves (window 8) and 352
times in 2,914 pivots and 240 solves (window 60).

Every factorization, at a start or at a refactor, takes one path, which
keeps the SuperLU object of the last basis the core factored, with its
column list (as completed) and the number of the load it was factored
under.  Each load (a patch) stamps every structural column one of whose
scaled entries changed, a row-scale change included.  A basis that
lists the same columns in the same positions as the one factored last,
none stamped since, has its matrix: it shares that SuperLU object with
an empty eta file, gathers nothing and is not completed (SuperLU
factored the matrix without a zero pivot, so the completion would
return it unchanged).  The match is on the columns, never on where the
basis came from, so a matching start still passes the start checks
below.  An equal matrix reached through another column list, or through
an entry written back to an earlier value, factors afresh.  A
receding-horizon window often starts from the very basis the window
before factored last: in steady stretches the shifted optimal basis
keeps its columns in their positions, and none of them holds an entry
the patch rewrote.  On the window-8 benchmark mission that spares 161
of 316 factorizations.

The pivot loop updates the basic values and phase-2 reduced costs
incrementally; one flag, ``stale``, marks a pivot or bound flip since
the basic values were last computed afresh (at the start and at each
refactor).  With no eligible column and ``stale`` set, a solve
recomputes them, re-prices once, and only then decides.  Beside
``vstat`` the loop keeps a sign vector ``sgn``: +1 for a nonbasic column
that may rise, -1 for one that may fall, 0 for a basic or fixed one.  A
bound flip negates one entry, a pivot rewrites two (the leaving and the
entering column), and pricing reads eligibility off ``sgn * d > TOL``
(never true at a NaN) instead of a mask over ``vstat`` and the column
ranges.  The basics' bounds are kept in basis order, and also widened
by ``TOL``, so the feasibility test and the phase-1 ratio test subtract
nothing.  On a feasible iterate, no basic outside its bounds by more
than ``TOL``, the ratio test has no phase-1 cases: each moving row
blocks at the bound it moves toward, and its ratio ``(x_i - bound) /
t_i`` is already +inf at an infinite bound, so the ratios, the leaving
row and its bound are the general test's, bit for bit, for finite basic
values.  The pivot row and the Devex update are written into work
arrays the core keeps.  None of this changes the arithmetic: a solve
takes the pivots and reaches the iterates the plain mask and the
general ratio test give.

Every solve takes one path, a problem without rows included (its basis
is 0 x 0).  It tries the warm basis if there is one, then the caller's
fallback basis if there is one, then the slack basis, and checks each
start the same way.  A start lists distinct columns, exactly those it
marks basic, in any number: a malformed one gives way to the next, and
so does one that leaves a column with no finite bound (a free row's
slack) nonbasic.  A nonbasic column on an infinite bound moves to its
finite one.  The start is then completed into a basis of full
structural rank before it is factored (Suhl & Suhl 1990): one maximum
matching of rows to basic positions (a maximum transversal, Duff 1981)
keeps the columns it matches, in their order, each column it leaves out
goes to the bound nearer zero, and the slack of each row it leaves out
takes a dropped position, or a new one after the last; dropped
positions left over close up.  A start with too few or too many basic
columns is completed the same way as a structurally singular one.
Without the completion a structurally singular basis reaches SuperLU,
and with ``relax=1, panel_size=1`` (scipy 1.17) SuperLU may crash the
process on it instead of raising, as it does with its default options.
A start that still proves numerically singular gives way to the next,
and so does one whose basis proves singular at a refactor while it
pivots (a basis of full structural rank may be numerically rank
deficient, and its pivots may then reach a structurally singular one).
The next start begins afresh; the pivots made so far count toward the
cap and the deadline runs on.  Only a failure of the slack start
raises.  The cap, ``_iteration_cap``, is a safety net against a stuck
loop, not a budget.

A simplex core prepares one problem for any number of solves: it
scales the rows into fresh arrays (the caller's matrix is only read),
and lays out the columns of G = [A, -I] as CSC arrays, A's columns then
one -1 per logical, with A^T as a CSR view of the same arrays.  A basis
matrix, whatever its mix of columns, is one gather over them.  A core
keeps no start basis, only its last factorization: a basis it returned
(branch and bound warm-starts each child from its parent's) starts the
next solve as any other basis does, checked, and completed unless it
is the one last factored, unchanged since.  A core also serves the next
problem with the same row pattern (the next receding-horizon window of
the same length): a patch rewrites its values in place and keeps what
depends on the pattern alone.

Every solve returns one record, an ``LpSolution``, however it ends;
it counts the pivots and the SuperLU factorizations the solve made.
``solve_lp`` returns a fresh core's record unchanged; it is a pure
function of its inputs, and independent problems may be solved at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, NumericalBreakdown

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

_INF = np.inf

#: Feasibility/optimality tolerance: reduced costs and bound violations
#: below it are treated as zero.
TOL = 1e-7
#: Length of the degenerate-pivot streak past which Bland's rule picks
#: the entering column; a nondegenerate pivot or a bound flip ends it.
BLAND_AFTER = 50


def _iteration_cap(n: int, m: int) -> int:
    """Pivots past which a solve over ``n`` columns and ``m`` rows raises
    NumericalBreakdown."""
    return 10_000 + 25 * (n + m)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Basis:
    """Resumable simplex basis: per-variable status plus basic column order.

    ``vstat`` has one entry per structural-plus-logical variable
    (AT_LOWER / AT_UPPER / BASIC); ``basic`` lists the basic columns in
    row order.
    """

    vstat: np.ndarray
    basic: np.ndarray


def _as_csr(mat, n_cols):
    if sp.issparse(mat):
        # no copy of a float64 CSR input: the simplex core copies the
        # rows once, into the matrix it scales
        out = mat.tocsr().astype(np.float64, copy=False)
    else:
        arr = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        out = sp.csr_matrix(arr)
    if out.shape[1] != n_cols:
        raise DimensionMismatch(f"a_rg has {out.shape[1]} columns, expected {n_cols}")
    return out


def _as_vec(v, n, name):
    arr = np.asarray(v, dtype=np.float64).ravel()
    if arr.size != n:
        raise DimensionMismatch(f"{name} has length {arr.size}, expected {n}")
    return arr


@dataclass
class LinearProgram:
    """Sparse LP in maximize orientation with finite variable boxes.

    Every row is a ranged row ``rg_lower <= a_rg x <= rg_upper``: an
    infinite side is open, so ``a x <= b`` has ``rg_lower = -inf`` and
    ``a x == b`` has equal sides.  An omitted side is open, as in
    scipy's ``LinearConstraint``.  ``a_rg = None`` states a pure box LP
    and becomes a 0-row block, whose sides must then be empty.
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_rg: Optional[sp.csr_matrix] = None
    rg_lower: Optional[np.ndarray] = None
    rg_upper: Optional[np.ndarray] = None

    # not fields: read by the benchmark until its next change drops them
    a_ub = a_eq = None
    offset = 0.0

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64).ravel()
        n = self.objective.size
        self.lower = _as_vec(self.lower, n, "lower")
        self.upper = _as_vec(self.upper, n, "upper")
        self.a_rg = _as_csr(sp.csr_matrix((0, n)) if self.a_rg is None else self.a_rg, n)
        m = self.a_rg.shape[0]
        self.rg_lower = _as_vec(np.full(m, -_INF) if self.rg_lower is None
                                else self.rg_lower, m, "rg_lower")
        self.rg_upper = _as_vec(np.full(m, _INF) if self.rg_upper is None
                                else self.rg_upper, m, "rg_upper")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.a_rg.shape[0]

    def validate(self):
        """Check invariants; raises DimensionMismatch on malformed input.

        One pass covers every entry that must be finite; which entry
        failed, for the message, is looked up only when one did.  A
        row side may be infinite on its open side (``rg_lower = -inf``,
        ``rg_upper = +inf``) but not NaN, nor infinite on the other."""
        ok = bool(np.isfinite(np.concatenate(
            [self.objective, self.lower, self.upper, self.a_rg.data])).all())
        if not ok and not np.isfinite(self.objective).all():
            raise DimensionMismatch("objective has non-finite coefficients")
        if not ok and not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise DimensionMismatch("variable bounds must be finite")
        crossed = self.lower > self.upper
        if crossed.any():
            raise DimensionMismatch(f"variable {int(np.argmax(crossed))} has lower > upper")
        if not ok:
            raise DimensionMismatch("a_rg has non-finite coefficients")   # all that is left
        sides = np.concatenate([self.rg_lower, -self.rg_upper])
        if not (sides < _INF).all():
            if np.isnan(sides).any():
                raise DimensionMismatch("ranged row bounds contain NaN")
            raise DimensionMismatch("ranged row closed at infinity "
                                    "(rg_lower = +inf or rg_upper = -inf)")
        if (self.rg_lower > self.rg_upper).any():
            raise DimensionMismatch("ranged row has lower > upper")


class LpSolution(NamedTuple):
    """One simplex solve: an empty box, the deadline (``status`` None,
    ``x`` the iterate as it stands), INFEASIBLE or OPTIMAL.  Only OPTIMAL
    sets a finite ``objective_value`` and the structural ``reduced_costs``
    (for bound fixing); ``basis`` is the final one.  ``iterations``
    counts pivots and bound flips, ``factorizations`` the fresh SuperLU
    factorizations (0 when the start shared the core's last factor and
    nothing was refactored; a matrix found singular makes none)."""

    status: Optional[LpStatus]
    x: Optional[np.ndarray]
    objective_value: float
    iterations: int
    basis: Optional[Basis] = None
    reduced_costs: Optional[np.ndarray] = None
    factorizations: int = 0


class _BasisFactor:
    """A basis matrix factored by SuperLU (``lu``, which other factors of
    the same matrix may share), and the eta file of the basis changes
    made since: per change its position, support, values on it and
    pivot element (sparse: the support is local on staircase bases)."""

    def __init__(self, lu):
        self.lu = lu
        self.etas: list = []
        self.eta_nnz = 0

    def ftran(self, v):
        """``B^-1 v`` for the current basis B."""
        u = self.lu.solve(v)
        for p, idx, vals, wp in self.etas:
            piv = u[p] / wp
            if piv != 0.0:
                u[idx] -= vals * piv
            u[p] = piv
        return u

    def btran(self, v):
        """``B^-T v`` for the current basis B (``v`` is only read)."""
        if not self.etas:
            return self.lu.solve(v, trans="T")
        y = v.copy()
        for p, idx, vals, wp in reversed(self.etas):
            y[p] = (y[p] - (vals @ y[idx] - wp * y[p])) / wp
        return self.lu.solve(y, trans="T")

    def update(self, r, w, abs_w=None) -> bool:
        """Record that the column ``w = B^-1 a_j`` replaced basis position
        ``r``; True when the basis should be factored afresh.  ``abs_w``
        is ``|w|`` when the caller has it already."""
        if abs_w is None:
            abs_w = np.abs(w)
        idx = (abs_w > 1e-12).nonzero()[0]
        self.etas.append((r, idx, w[idx], w[r]))
        self.eta_nnz += idx.size
        return bool(abs_w[r] < 1e-8 or self.eta_nnz > self.lu.nnz)


#: Entering rules of ``_entering``.
_BLAND, _PHASE1, _DEVEX = range(3)
#: The direction a nonbasic column may move in, by its ``vstat``: up from
#: its lower bound, down from its upper bound.
_SIGNS = np.array([1.0, -1.0, 0.0])


def _signs(vstat, lo, up):
    """The sign vector of a basis: +1 for a nonbasic column that may
    rise, -1 for one that may fall, 0 for a basic or fixed column."""
    return np.where(up > lo, _SIGNS.take(vstat), 0.0)


def _entering(t, d, gamma, rule):
    """The entering column for reduced costs ``d``, or -1 when no column
    is eligible.  ``t = sgn * d`` signs them by the direction each column
    may move in (``_signs``), so column j is eligible when
    ``t[j] > TOL``, and never when ``t[j]`` is NaN.
    ``rule`` picks among the eligible: ``_BLAND`` the first, ``_PHASE1``
    the largest ``t`` (which is ``|d|`` there), ``_DEVEX`` the largest
    ``d * d / gamma`` (``gamma`` None: every reference weight one); ties
    go to the first."""
    if rule == _BLAND:
        eligible = t > TOL
        j = int(eligible.argmax())
        return j if eligible[j] else -1
    if rule == _PHASE1:
        j = int(t.argmax())
        if t[j] > TOL:
            return j
        # none eligible, or argmax stopped at the first NaN
        score = np.where(t > TOL, t, -1.0)
    else:
        score = d * d
        if gamma is not None:
            score /= gamma
        score = np.where(t > TOL, score, -1.0)
    j = int(score.argmax())
    return j if score[j] != -1.0 else -1


def _row_ratios(idx, ti, xb, lob, upb, lot, upt, feasible):
    """Ratio test over the moving basic rows ``idx``, basic i moving as
    ``xb[i] - ti * step``: each row's ratio (the step at which it blocks,
    at least 0, +inf if never) and the bound it blocks at.  ``lob`` and
    ``upb`` are the basics' bounds, ``lot`` and ``upt`` the same widened
    by ``TOL``.  In general a basic outside its bounds by more than
    ``TOL`` blocks at the violated bound as it moves back and never as
    it moves further out, and an infinite bound never blocks.  On a
    ``feasible`` iterate, no basic that far out, each row blocks at the
    bound it moves toward, where ``(z - tgt) / ti`` is already +inf if
    that bound is infinite: the same ratios and bounds, for finite
    ``xb``."""
    zi, loi, upi = xb[idx], lob[idx], upb[idx]
    if feasible:
        tgt = np.where(ti > 0, loi, upi)
        rr = (zi - tgt) / ti
    else:
        loti, upti = lot[idx], upt[idx]
        tgt = np.where(ti > 0,
                       np.where(zi > upti, upi, loi),
                       np.where(zi < loti, loi, upi))
        # violated basics moving further out never block
        block = np.where(ti > 0, zi >= loti, zi <= upti)
        block &= np.isfinite(tgt)
        rr = np.where(block, (zi - tgt) / ti, _INF)
    return np.maximum(rr, 0.0, out=rr), tgt


def _leaving(ratios, min_ratio, abs_ti):
    """Position in ``ratios`` of the leaving row: among the ratios within
    1e-9 of ``min_ratio``, the one with the largest ``|w|``."""
    return int(np.argmax(np.where(ratios <= min_ratio + 1e-9, abs_ti, -1.0)))


def _row_runs(indptr):
    """Row lengths of a CSR pattern, its nonempty rows and where they
    start."""
    counts = indptr[1:] - indptr[:-1]
    rows = np.flatnonzero(counts)
    return counts, rows, indptr[rows]


def _row_scale(data, runs):
    """Power-of-two row equilibration, which keeps pivots well scaled
    without perturbing representable data: each row of the pattern
    ``runs`` (``_row_runs``) with entries ``data`` is scaled to a
    largest magnitude near one.  Empty or all-zero rows keep scale one."""
    counts, rows, starts = runs
    scale = np.ones(counts.size)
    if data.size:
        # reduceat segments end at the next nonempty row's start
        row_max = np.maximum.reduceat(np.abs(data), starts)
        pos = row_max > 0
        scale[rows[pos]] = np.exp2(-np.round(np.log2(row_max[pos])))
    return scale


class _SimplexCore:
    """Prepared simplex state reusable across bound overrides and, by
    ``patch``, across problems with one row pattern.

    Branch-and-bound runs each MILP on one core and re-solves with node
    bounds, a warm basis and a fallback; every solve checks its starting
    basis, and completes and factors it unless it is the basis the core
    factored last, unchanged since (``_factor``, module docstring).
    Nothing here mutates the owning problem, which the caller has
    validated.

    Kept for the core's life, as they depend on the row pattern alone:
    the row runs, the CSC order of A's entries, G = [A, -I]'s index
    arrays (``_gp``, ``_gi``, ``_glen``) and the pivot loop's work
    arrays.  Rewritten by each problem
    (``_load``): the scaled entries (``a_csr``'s data and ``_gd``, which
    the CSR view ``a_t_csr`` of A^T shares), the scaled row sides, the
    boxes and the costs, and ``_stamps``: per column of G, the number
    (``_loads``) of the last load that changed one of its scaled entries.
    Replaced by each fresh factorization: ``_factored``, the SuperLU
    object, the bytes of the basic list it factored and the load number
    then, which a patch leaves alone.
    """

    def __init__(self, lp: LinearProgram):
        self.n = n = lp.n_vars
        a = lp.a_rg
        self.m = m = a.shape[0]

        # scales from the caller's entries as given; the scaled rows keep
        # what a product with diag(scale) keeps, duplicates summed and
        # zeros dropped, in fresh arrays (the caller's are only read)
        self._runs = _row_runs(a.indptr)
        scale = _row_scale(a.data, self._runs)
        if not (a.has_canonical_format and a.data.all()):
            a = a.copy()
            a.sum_duplicates()
            a.eliminate_zeros()
            self._runs = _row_runs(a.indptr)
        counts = self._runs[0]
        # zeros until the first load, which then stamps every column
        self.a_csr = sp.csr_matrix((np.zeros(a.nnz), a.indices, a.indptr), shape=(m, n))
        # the columns of G = [A, -I]: A's CSC arrays, then one -1 per
        # logical, so the basis matrix of any mix of columns is one gather
        cols = a.indices
        self._by_col = np.argsort(cols, kind="stable")    # rows ascend in a column
        col_ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=col_ptr[1:])
        nnz = int(col_ptr[-1])
        logicals = np.arange(m, dtype=np.int32)
        self._gp = np.concatenate([col_ptr, nnz + 1 + logicals])
        self._gi = np.concatenate([np.repeat(logicals, counts)[self._by_col],
                                   logicals])
        self._gd = np.concatenate([np.empty(nnz), np.full(m, -1.0)])
        self._glen = self._gp[1:] - self._gp[:-1]
        # A^T as CSR is A's CSC, viewed from G's arrays; its data is set
        # after construction, which copies a view of a much larger array
        self.a_t_csr = sp.csr_matrix((self._gd[:nnz], self._gi[:nnz], col_ptr),
                                     shape=(n, m))
        self.a_t_csr.data = self._gd[:nnz]
        self._cobj = np.zeros(n + m)
        self.c = self._cobj[:n]
        self.row_lo, self.row_up = np.empty(m), np.empty(m)
        self.col_lo, self.col_up = np.empty(n), np.empty(n)
        self._stamps = np.zeros(n + m, dtype=np.int64)
        self._loads = 0
        # work arrays of the pivot loop, rewritten at every pivot: a
        # column of G, a unit vector (zero between uses), sgn * d, the
        # pivot row and one temporary
        self._gbuf, self._e_r = np.empty(m), np.zeros(m)
        self._t, self._alpha, self._tmp = np.empty(n + m), np.empty(n + m), np.empty(n + m)
        # the last factorization: SuperLU object, basic bytes, load number
        self._factored = None
        self._load(lp, a.data, scale)

    def patch(self, lp: LinearProgram) -> bool:
        """Load ``lp`` into this core and return True, or return False,
        the core untouched, when its rows differ from the core's in
        pattern (a zero entry, which a fresh core drops, included)."""
        a, mine = lp.a_rg, self.a_csr
        if not (a.shape == mine.shape and np.array_equal(a.indptr, mine.indptr)
                and np.array_equal(a.indices, mine.indices) and a.data.all()):
            return False
        self._load(lp, a.data, _row_scale(a.data, self._runs))
        return True

    def _load(self, lp, data, scale):
        """Write ``lp``'s values into the core's arrays: ``data`` are the
        entries of the core's pattern, unscaled.  Stamps every structural
        column one of whose scaled entries changed."""
        scaled = data * np.repeat(scale, self._runs[0])
        self._loads += 1
        self._stamps[self.a_csr.indices[scaled != self.a_csr.data]] = self._loads
        self.a_csr.data[:] = scaled
        np.take(self.a_csr.data, self._by_col, out=self._gd[:self.a_csr.nnz])
        np.multiply(lp.rg_lower, scale, out=self.row_lo)
        np.multiply(lp.rg_upper, scale, out=self.row_up)
        self.c[:] = lp.objective
        self.col_lo[:] = lp.lower
        self.col_up[:] = lp.upper

    # -- factorization -------------------------------------------------

    def _column(self, j, out):
        """Dense column j of G = [A, -I] into preallocated ``out``."""
        out.fill(0.0)
        s, e = self._gp[j], self._gp[j + 1]
        out[self._gi[s:e]] = self._gd[s:e]
        return out

    def _basis_matrix(self, basic):
        """CSC matrix G[:, basic], m x len(basic): one gather over G's
        arrays."""
        counts = self._glen[basic]
        indptr = np.zeros(basic.size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        src = np.repeat(self._gp[basic] - indptr[:-1], counts)
        src += np.arange(indptr[-1], dtype=np.int32)
        return sp.csc_matrix((self._gd[src], self._gi[src], indptr),
                             shape=(self.m, basic.size))

    def _factor(self, basic, repair=None):
        """Every factorization of the core: a ``_BasisFactor`` of the
        basis matrix of ``basic`` with an empty eta file, the number of
        fresh SuperLU factorizations that took (0 or 1), and the basic
        list factored.  A ``basic`` equal to the list this core factored
        last, none of its columns stamped since, shares that SuperLU
        object; any other list and its matrix are first passed through
        ``repair``, when given, and the result is factored afresh.
        Raises RuntimeError when SuperLU finds the matrix singular."""
        last = self._factored
        if last is not None and basic.tobytes() == last[1] \
                and self._stamps[basic].max(initial=0) <= last[2]:
            return _BasisFactor(last[0]), 0, basic
        mat = self._basis_matrix(basic)
        if repair is not None:
            basic, mat = repair(basic, mat)
        lu = splu(mat, permc_spec="COLAMD", relax=1, panel_size=1,
                  options={"SymmetricMode": False})
        self._factored = (lu, basic.tobytes(), self._loads)
        return _BasisFactor(lu), 1, basic

    def point_feasible(self, x) -> bool:
        """Explicit feasibility check of a candidate point against the
        problem's own boxes and (scaled) rows, within ``TOL``."""
        if np.any(x < self.col_lo - TOL) or np.any(x > self.col_up + TOL):
            return False
        act = self.a_csr @ x
        return bool(np.all(act >= self.row_lo - TOL)
                    and np.all(act <= self.row_up + TOL))

    # -- main solve ------------------------------------------------------

    def solve(self, col_lo=None, col_up=None, warm: Optional[Basis] = None,
              fallback: Optional[Callable[[], Basis]] = None,
              deadline: Optional[float] = None) -> LpSolution:
        """Solve with optional bound overrides and warm basis.

        ``deadline`` (absolute perf_counter time) aborts a long solve
        between pivots, with status None and the iterate as it stands.
        The start is ``warm``, else the basis ``fallback`` builds (called
        only then), else the slack basis (see the module docstring).
        """
        n, m = self.n, self.m
        nm = n + m
        tol = TOL
        lo = np.concatenate([self.col_lo if col_lo is None else col_lo, self.row_lo])
        up = np.concatenate([self.col_up if col_up is None else col_up, self.row_up])
        if np.count_nonzero(lo > up):
            # empty box: trivially infeasible
            return LpSolution(LpStatus.INFEASIBLE, None, -_INF, 0)
        cobj = self._cobj
        a_t = self.a_t_csr

        def starts():
            if warm is not None:
                yield warm
            if fallback is not None:
                yield fallback()
            yield None

        iters = factorizations = 0
        cap = _iteration_cap(n, m)
        for start in starts():
            begun = self._initial_basis(lo, up, start)
            if begun is None:
                continue
            vstat, basic = begun
            try:
                factor, fresh, basic = self._factor(
                    basic, lambda basic, mat: self._repair(vstat, basic, lo, up, mat))
            except RuntimeError:
                if start is None:
                    raise NumericalBreakdown("singular initial basis")
                continue
            factorizations += fresh
            # nonbasic values sit in z (0 at the basics); the basic values
            # and their bounds, also widened by TOL, are kept in basis
            # order, so a pivot patches one position instead of gathering
            # them through ``basic``
            z = np.where(vstat == AT_UPPER, up, lo)
            z[basic] = 0.0
            xb = factor.ftran(z[n:] - self.a_csr @ z[:n])
            lob = lo[basic]
            upb = up[basic]
            lot = lob - tol
            upt = upb + tol
            sgn = _signs(vstat, lo, up)

            def point():
                x = z.copy()
                x[basic] = xb
                return x[:n]

            def snapshot():
                return Basis(vstat.copy(), basic.copy())

            degen_streak = 0
            # phase-2 reduced costs maintained incrementally through the
            # pivotal row; Devex reference weights approximate steepest
            # edge, all one (None) until the first phase-2 pivot
            d_cache = None
            gamma = None
            # a pivot or bound flip since xb was last computed afresh
            stale = False

            def price(cb, cn):
                """Reduced costs ``cn - A^T y`` of the structurals and ``y``
                of the logicals, for basic costs ``cb`` (``y = B^-T cb``)."""
                y = factor.btran(cb)
                dd = np.empty(nm)
                np.subtract(cn, a_t @ y, out=dd[:n])
                dd[n:] = y
                return dd

            while True:
                if iters > cap:
                    raise NumericalBreakdown(f"simplex exceeded iteration cap {cap}")
                if deadline is not None and iters % 16 == 0 \
                        and time.perf_counter() > deadline:
                    return LpSolution(None, point(), -_INF, iters, snapshot(),
                                      factorizations=factorizations)

                below = xb < lot
                above = xb > upt
                infeasible = bool(np.count_nonzero(below) or np.count_nonzero(above))

                if infeasible:
                    # phase 1: the cost is the total bound violation
                    d = price(np.subtract(below, above, dtype=np.float64), 0.0)
                    d_cache = None
                else:
                    if d_cache is None:
                        d_cache = price(cobj[basic], cobj[:n])
                    d = d_cache

                t = np.multiply(sgn, d, out=self._t)
                j = _entering(t, d, gamma, _BLAND if degen_streak > BLAND_AFTER
                              else _PHASE1 if infeasible else _DEVEX)
                if j < 0:
                    if stale:
                        # incremental values can drift; confirm on freshly
                        # computed basics and prices before declaring
                        stale = False
                        d_cache = None
                        xb = factor.ftran(z[n:] - self.a_csr @ z[:n])
                        continue
                    if infeasible:
                        return LpSolution(LpStatus.INFEASIBLE, None, -_INF, iters,
                                          snapshot(), factorizations=factorizations)
                    x = point()
                    return LpSolution(LpStatus.OPTIMAL, x, float(cobj[:n] @ x), iters,
                                      snapshot(), d[:n], factorizations)

                sigma = 1.0 if sgn[j] > 0 else -1.0
                w = factor.ftran(self._column(j, self._gbuf))
                abs_w = np.abs(w)

                # ratio test over the rows that move: basic r moves as
                # xb_r - sigma * w_r * step
                idx = (abs_w > 1e-10).nonzero()[0]
                min_row_ratio = _INF
                if idx.size:
                    ti = sigma * w[idx]
                    ratios, tgt = _row_ratios(idx, ti, xb, lob, upb, lot, upt,
                                              not infeasible)
                    min_row_ratio = ratios.min()
                own_range = up[j] - lo[j]
                # every column is boxed, so only a blocking row dropped as
                # |w| <= 1e-10 (or a NaN ratio) leaves the ray unblocked
                if not np.isfinite(np.minimum(own_range, min_row_ratio)):
                    raise NumericalBreakdown(f"no bound blocks entering column {j}")

                if own_range <= min_row_ratio:
                    step = own_range
                    # bound flip: j runs to its opposite bound, basis (and
                    # with it every reduced cost) unchanged
                    xb -= w * (sigma * step)
                    vstat[j] = AT_UPPER if vstat[j] == AT_LOWER else AT_LOWER
                    z[j] = up[j] if vstat[j] == AT_UPPER else lo[j]
                    sgn[j] = -sgn[j]
                    iters += 1
                    degen_streak = 0
                    stale = True
                    continue

                k = _leaving(ratios, min_row_ratio, abs_w[idx])
                r = int(idx[k])
                step = ratios[k]
                leave = basic[r]

                # pivotal row: maintains phase-2 reduced costs without a full
                # re-pricing and feeds the Devex weight updates
                if not infeasible:
                    e_r, alpha, tmp = self._e_r, self._alpha, self._tmp
                    e_r[r] = 1.0
                    rho = factor.btran(e_r)
                    e_r[r] = 0.0
                    alpha[:n] = a_t @ rho
                    np.negative(rho, out=alpha[n:])
                    if gamma is None:
                        gamma = np.ones(nm)
                    aq = w[r]
                    dq = d_cache[j]
                    gq = max(gamma[j], 1.0)
                    np.divide(alpha, aq, out=tmp)
                    np.square(tmp, out=tmp)
                    tmp *= gq
                    np.maximum(gamma, tmp, out=gamma)
                    d_cache -= np.multiply(alpha, dq / aq, out=tmp)
                    d_cache[j] = 0.0
                    gamma[leave] = max(gq / (aq * aq), 1.0)
                    gamma[j] = gq
                    if gamma.max() > 1e10:
                        gamma[:] = 1.0   # reset the reference framework

                # snap the leaver exactly onto the bound it hit
                xb -= w * (sigma * step)
                z[leave] = tgt[k]
                vstat[leave] = AT_UPPER if tgt[k] == upb[r] else AT_LOWER
                sgn[leave] = _SIGNS[vstat[leave]] if up[leave] > lo[leave] else 0.0
                xb[r] = (lo[j] if sigma > 0 else up[j]) + sigma * step
                z[j] = 0.0
                vstat[j] = BASIC
                sgn[j] = 0.0
                basic[r] = j
                lob[r] = lo[j]
                upb[r] = up[j]
                lot[r] = lo[j] - tol
                upt[r] = up[j] + tol
                iters += 1
                stale = True
                degen_streak = degen_streak + 1 if step <= 1e-9 else 0

                if factor.update(r, w, abs_w):
                    try:
                        factor, fresh, _ = self._factor(basic)
                    except RuntimeError as exc:
                        if start is None:
                            raise NumericalBreakdown(
                                f"singular basis during pivoting: {exc}")
                        break   # this start ends; the next begins afresh
                    factorizations += fresh
                    xb = factor.ftran(z[n:] - self.a_csr @ z[:n])
                    d_cache = None
                    stale = False

    def _repair(self, vstat, basic, lo, up, mat):
        """Complete ``basic``, a list of any length with matrix ``mat``,
        into a basis of full structural rank: the columns of one maximum
        matching of rows to positions stay, in their order, every other
        column leaves for the bound nearer zero, and the slack of each
        row left unmatched takes a dropped position while there is one,
        and a new last position after that; dropped positions left over
        close up.  Updates ``vstat`` in place; returns the completed list
        and its basis matrix (``basic`` and ``mat`` when nothing
        changed).
        """
        row_of = maximum_bipartite_matching(mat.T, perm_type="column")
        # a column no bound holds (a free row's slack) keeps its one row,
        # and a position the matching gave that row to is dropped instead
        held = np.flatnonzero(np.isinf(lo[basic]) & np.isinf(up[basic]))
        if held.size:
            row_of[np.isin(row_of, basic[held] - self.n)] = -1
            row_of[held] = basic[held] - self.n
        dropped = np.flatnonzero(row_of < 0)
        unmatched = np.ones(self.m, dtype=bool)
        unmatched[row_of[row_of >= 0]] = False
        slacks = self.n + np.flatnonzero(unmatched)
        if not (dropped.size or slacks.size):
            return basic, mat
        cols = basic[dropped]
        vstat[cols] = np.where(np.abs(lo[cols]) <= np.abs(up[cols]),
                               AT_LOWER, AT_UPPER)
        vstat[slacks] = BASIC
        basic[dropped[:slacks.size]] = slacks[:dropped.size]
        basic = np.concatenate([np.delete(basic, dropped[slacks.size:]),
                                slacks[dropped.size:]])
        return basic, self._basis_matrix(basic)

    def _initial_basis(self, lo, up, start: Optional[Basis]):
        """Working copies of ``start``, or of the slack basis when
        ``start`` is None; None when ``start`` is malformed.  ``start``
        may list any number of basic columns (``_repair`` completes
        them).  A nonbasic column of ``start`` on an infinite bound moves
        to its other bound; one with no finite bound (the slack of a
        free row) makes ``start`` malformed."""
        n, nm = self.n, self.n + self.m
        if start is not None:
            vstat = np.array(start.vstat, dtype=np.int8)
            basic = np.array(start.basic, dtype=np.int64)
            # read as unsigned, a negative entry is out of range too
            if not (vstat.shape == (nm,) and basic.ndim == 1
                    and not np.count_nonzero(basic.view(np.uint64) >= nm)):
                return None
            # as many positions marked as listed, exactly the BASIC ones:
            # basic lists distinct columns, all BASIC, and no other column
            # is BASIC
            mark = np.zeros(nm, dtype=bool)
            mark[basic] = True
            is_basic = vstat == BASIC
            if np.count_nonzero(mark) != basic.size or np.count_nonzero(mark != is_basic):
                return None
            # nonbasic columns on an infinite bound
            at = np.where(vstat == AT_UPPER, up, lo)
            off = np.flatnonzero(~(np.isfinite(at) | is_basic))
            if off.size:
                to_upper = vstat[off] != AT_UPPER
                if not np.isfinite(np.where(to_upper, up[off], lo[off])).all():
                    return None
                vstat[off] = np.where(to_upper, AT_UPPER, AT_LOWER)
            return vstat, basic
        vstat = np.empty(nm, dtype=np.int8)
        nearer_low = np.abs(lo[:n]) <= np.abs(up[:n])
        vstat[:n] = np.where(nearer_low, AT_LOWER, AT_UPPER)
        vstat[n:] = BASIC
        basic = np.arange(n, nm, dtype=np.int64)
        return vstat, basic


def solve_lp(lp: LinearProgram, *, basis: Optional[Basis] = None) -> LpSolution:
    """Solve a box-bounded LP to optimality (maximize orientation).

    Parameters
    ----------
    lp : LinearProgram
        Problem with finite variable boxes; must pass ``lp.validate()``.
    basis : Basis, optional
        Warm-start basis from a previous solve of a problem with the
        same rows (bounds may differ).  It is checked and completed into
        a basis of full structural rank before it is factored, whatever
        the number of basic columns it lists; a malformed or numerically
        singular one gives way to the slack basis.

    Returns
    -------
    LpSolution
        The core's record.  ``status`` is OPTIMAL or INFEASIBLE; on
        OPTIMAL, ``x`` is feasible within ``TOL`` and no feasible point
        beats ``objective_value`` by more than ``TOL``.  Degenerate streaks
        longer than ``BLAND_AFTER`` pivots switch to Bland's rule.  A
        ray that no bound blocks, or more pivots than
        ``_iteration_cap``, raises :class:`NumericalBreakdown`.
    """
    lp.validate()
    return _SimplexCore(lp).solve(warm=basis)
