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
mission), 158 times in 1,075 pivots and 284 solves (window 8) and 353
times in 2,970 pivots and 240 solves (window 60).

Every factorization, at a start or at a refactor, takes one path, which
keeps the SuperLU object of the last basis the core factored, with its
column list (as repaired) and the number of the load it was factored
under.  Each load (a patch) stamps every structural column one of whose
scaled entries changed, a row-scale change included.  A basis that
lists the same columns in the same positions as the one factored last,
none stamped since, has its matrix: it shares that SuperLU object with
an empty eta file, gathers nothing and is not repaired (SuperLU
factored the matrix without a zero pivot, so the repair would return
it unchanged).  The match is on the columns, never on where the basis
came from, so a matching start still passes the start checks below.
An equal matrix reached through another column list, or through an
entry written back to an earlier value, factors afresh.  A
receding-horizon window often starts from the very basis the window
before factored last: in steady stretches the shifted optimal basis
keeps its columns in their positions, and none of them holds an entry
the patch rewrote.  On the window-8 benchmark mission that spares 161
of 319 factorizations.

The pivot loop updates the basic values and phase-2 reduced costs
incrementally; one flag, ``stale``, marks a pivot or bound flip since
the basic values were last computed afresh (at the start and at each
refactor).  With no eligible column and ``stale`` set, a solve
recomputes them, re-prices once, and only then decides.

Every solve takes one path, a problem without rows included (its
basis is 0 x 0).  It tries the warm basis if there is one, then the
caller's fallback basis if there is one, then the slack basis, and
checks each start the same way.  A malformed start gives way to the
next, and so does one that leaves a column with no finite bound (a
free row's slack) nonbasic.  A nonbasic column on an infinite bound
moves to its finite one.  The basis is then repaired structurally
before it is factored: a maximum bipartite matching pairs rows with
basic columns, and each column left unmatched is swapped for the slack
of a row left unmatched (Suhl & Suhl 1990).  The repaired basis matrix
has full structural rank.  Without the repair a structurally singular
basis reaches SuperLU, and with ``relax=1, panel_size=1`` (scipy 1.17)
SuperLU may crash the process on it instead of raising, as it does
with its default options.  A start that still proves numerically
singular gives way to the next, and so does one whose basis proves
singular at a refactor while it pivots (a basis of full structural rank
may be numerically rank deficient, and its pivots may then reach a
structurally singular one).  The next start begins afresh; the pivots
made so far count toward the cap and the deadline runs on.  Only a
failure of the slack start raises.

A simplex core prepares one problem for any number of solves: it
scales the rows into fresh arrays (the caller's matrix is only read),
and lays out the columns of G = [A, -I] as CSC arrays, A's columns then
one -1 per logical, with A^T as a CSR view of the same arrays.  A basis
matrix, whatever its mix of columns, is one gather over them.  A core
keeps no start basis, only its last factorization: a basis it returned
(branch and bound warm-starts each child from its parent's) starts the
next solve as any other basis does, checked, and repaired unless it is
the one last factored, unchanged since.  A core also serves the next
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
from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching
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
        """``B^-T v`` for the current basis B."""
        y = v.copy()
        for p, idx, vals, wp in reversed(self.etas):
            y[p] = (y[p] - (vals @ y[idx] - wp * y[p])) / wp
        return self.lu.solve(y, trans="T")

    def update(self, r, w) -> bool:
        """Record that the column ``w = B^-1 a_j`` replaced basis position
        ``r``; True when the basis should be factored afresh."""
        idx = np.flatnonzero(np.abs(w) > 1e-12)
        self.etas.append((r, idx, w[idx].copy(), w[r]))
        self.eta_nnz += idx.size
        return bool(abs(w[r]) < 1e-8 or self.eta_nnz > self.lu.nnz)


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
    basis, and repairs and factors it unless it is the basis the core
    factored last, unchanged since (``_factor``, module docstring).
    Nothing here mutates the owning problem, which the caller has
    validated.

    Kept for the core's life, as they depend on the row pattern alone:
    the row runs, the CSC order of A's entries and G = [A, -I]'s index
    arrays (``_gp``, ``_gi``, ``_glen``).  Rewritten by each problem
    (``_load``): the scaled entries (``a_csr``'s data and ``_gd``, which
    the CSR view ``a_t_csr`` of A^T shares), the scaled row sides, the
    boxes and the costs, and ``_stamps``: per column of G, the number
    (``_loads``) of the last load that changed one of its scaled entries.
    Replaced by each fresh factorization: ``_factored``, the SuperLU
    object, the bytes of the basic list it factored and the load number
    then, which a patch leaves alone.
    """

    def __init__(self, lp: LinearProgram, max_iter: Optional[int] = None):
        self.n = n = lp.n_vars
        a = lp.a_rg
        self.m = m = a.shape[0]
        default_cap = 10_000 + 25 * (n + m)
        self.max_iter = int(max_iter) if max_iter is not None else default_cap

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
        """CSC basis matrix G[:, basic]: one gather over G's arrays."""
        counts = self._glen[basic]
        indptr = np.zeros(self.m + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        src = np.repeat(self._gp[basic] - indptr[:-1], counts)
        src += np.arange(indptr[-1], dtype=np.int32)
        return sp.csc_matrix((self._gd[src], self._gi[src], indptr),
                             shape=(self.m, self.m))

    def _factor(self, basic, repair=None):
        """Every factorization of the core: a ``_BasisFactor`` of the
        basis matrix of ``basic`` with an empty eta file, and the number
        of fresh SuperLU factorizations that took (0 or 1).  A ``basic``
        equal to the list this core factored last, none of its columns
        stamped since, shares that SuperLU object; any other basis
        matrix is first passed through ``repair``, when given, and
        factored afresh.  Raises RuntimeError when SuperLU finds the
        matrix singular."""
        last = self._factored
        if last is not None and basic.tobytes() == last[1] \
                and self._stamps[basic].max(initial=0) <= last[2]:
            return _BasisFactor(last[0]), 0
        mat = self._basis_matrix(basic)
        if repair is not None:
            mat = repair(mat)
        lu = splu(mat, permc_spec="COLAMD", relax=1, panel_size=1,
                  options={"SymmetricMode": False})
        self._factored = (lu, basic.tobytes(), self._loads)
        return _BasisFactor(lu), 1

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
        if (lo > up).any():
            # empty box: trivially infeasible
            return LpSolution(LpStatus.INFEASIBLE, None, -_INF, 0)
        cobj = self._cobj
        gbuf = np.empty(m)

        def starts():
            if warm is not None:
                yield warm
            if fallback is not None:
                yield fallback()
            yield None

        iters = factorizations = 0
        free_range = up - lo > 0.0
        for start in starts():
            begun = self._initial_basis(lo, up, start)
            if begun is None:
                continue
            vstat, basic = begun
            try:
                factor, fresh = self._factor(
                    basic, lambda mat: self._repair(vstat, basic, lo, up, mat))
            except RuntimeError:
                if start is None:
                    raise NumericalBreakdown("singular initial basis")
                continue
            factorizations += fresh
            # nonbasic values sit in z (0 at the basics); the basic values
            # and their bounds are kept in basis order, so a pivot patches
            # one position instead of gathering them through ``basic``
            z = np.where(vstat == AT_UPPER, up, lo)
            z[basic] = 0.0
            xb = factor.ftran(z[n:] - self.a_csr @ z[:n])
            lob = lo[basic]
            upb = up[basic]

            def point():
                x = z.copy()
                x[basic] = xb
                return x[:n]

            def snapshot():
                return Basis(vstat.copy(), basic.copy())

            degen_streak = 0
            # phase-2 reduced costs maintained incrementally through the
            # pivotal row; Devex reference weights approximate steepest edge
            d_cache = None
            # a pivot or bound flip since xb was last computed afresh
            stale = False
            gamma = np.ones(nm)

            def price(cb, cn):
                """Reduced costs ``cn - A^T y`` of the structurals and ``y``
                of the logicals, for basic costs ``cb`` (``y = B^-T cb``)."""
                y = factor.btran(cb)
                dd = np.empty(nm)
                dd[:n] = cn - self.a_t_csr @ y
                dd[n:] = y
                return dd

            while True:
                if iters > self.max_iter:
                    raise NumericalBreakdown(
                        f"simplex exceeded iteration cap {self.max_iter}")
                if deadline is not None and iters % 16 == 0 \
                        and time.perf_counter() > deadline:
                    return LpSolution(None, point(), -_INF, iters, snapshot(),
                                      factorizations=factorizations)

                below = xb < lob - tol
                above = xb > upb + tol
                infeasible = bool(below.any() or above.any())

                if infeasible:
                    # phase 1: the cost is the total bound violation
                    d = price(below.astype(np.float64) - above, 0.0)
                    d_cache = None
                else:
                    if d_cache is None:
                        d_cache = price(cobj[basic], cobj[:n])
                    d = d_cache

                eligible = free_range & (
                    ((vstat == AT_LOWER) & (d > tol)) | ((vstat == AT_UPPER) & (d < -tol))
                )
                if not eligible.any():
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

                if degen_streak > BLAND_AFTER:
                    j = int(np.argmax(eligible))
                elif infeasible:
                    score = np.where(eligible, np.abs(d), -1.0)
                    j = int(np.argmax(score))
                else:
                    score = np.where(eligible, d * d / gamma, -1.0)
                    j = int(np.argmax(score))

                sigma = 1.0 if vstat[j] == AT_LOWER else -1.0
                w = factor.ftran(self._column(j, gbuf))

                # ratio test over the rows that move: basic r moves as
                # xb_r - sigma * w_r * step
                idx = np.flatnonzero(np.abs(w) > 1e-10)
                min_row_ratio = _INF
                if idx.size:
                    ti = sigma * w[idx]
                    zi = xb[idx]
                    loi = lob[idx]
                    upi = upb[idx]
                    tgt = np.where(ti > 0,
                                   np.where(zi > upi + tol, upi, loi),
                                   np.where(zi < loi - tol, loi, upi))
                    # violated basics moving further out never block
                    block = np.where(ti > 0, zi >= loi - tol, zi <= upi + tol)
                    block &= np.isfinite(tgt)
                    rr = np.where(block, (zi - tgt) / ti, _INF)
                    ratios = np.maximum(rr, 0.0)
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
                    iters += 1
                    degen_streak = 0
                    stale = True
                    continue

                # leaving choice: among near-minimal ratios take the largest |w|
                cand = ratios <= min_row_ratio + 1e-9
                k = int(np.argmax(np.where(cand, np.abs(ti), -1.0)))
                r = int(idx[k])
                step = ratios[k]
                leave = basic[r]

                # pivotal row: maintains phase-2 reduced costs without a full
                # re-pricing and feeds the Devex weight updates
                if not infeasible:
                    e_r = np.zeros(m)
                    e_r[r] = 1.0
                    rho = factor.btran(e_r)
                    alpha = np.empty(nm)
                    alpha[:n] = self.a_t_csr @ rho
                    alpha[n:] = -rho
                    aq = w[r]
                    dq = d_cache[j]
                    gq = max(gamma[j], 1.0)
                    np.maximum(gamma, (alpha / aq) ** 2 * gq, out=gamma)
                    d_cache -= (dq / aq) * alpha
                    d_cache[j] = 0.0
                    gamma[leave] = max(gq / (aq * aq), 1.0)
                    gamma[j] = gq
                    if gamma.max() > 1e10:
                        gamma[:] = 1.0   # reset the reference framework

                # snap the leaver exactly onto the bound it hit
                xb -= w * (sigma * step)
                z[leave] = tgt[k]
                vstat[leave] = AT_UPPER if tgt[k] == upb[r] else AT_LOWER
                xb[r] = (lo[j] if sigma > 0 else up[j]) + sigma * step
                z[j] = 0.0
                vstat[j] = BASIC
                basic[r] = j
                lob[r] = lo[j]
                upb[r] = up[j]
                iters += 1
                stale = True
                degen_streak = degen_streak + 1 if step <= 1e-9 else 0

                if factor.update(r, w):
                    try:
                        factor, fresh = self._factor(basic)
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
        """Make the basis structurally nonsingular, in place: every basic
        position a maximum matching of rows to positions leaves out takes
        the slack of an unmatched row, and its column leaves for the
        bound nearer zero.  Among the maximum matchings, the one taken
        leaves out the last positions it can, so a caller lists the
        basic columns it trusts least last.  Returns the basis matrix
        of the result (``mat``, the current one, when nothing changed).
        """
        graph = mat.T                  # positions x rows
        row_of = maximum_bipartite_matching(graph, perm_type="column")
        out = np.flatnonzero(row_of < 0)
        if not out.size:
            return mat
        owner = np.repeat(np.arange(self.m), np.diff(graph.indptr))
        for k, p in enumerate(out.tolist()):
            # a position reaches the positions matched to its rows; any
            # position p reaches can be left out instead of p, by moving
            # the matching one row along the path
            pos_of = np.full(self.m, -1)
            pos_of[row_of[row_of >= 0]] = np.flatnonzero(row_of >= 0)
            head = pos_of[graph.indices]
            edge = head >= 0
            reach = sp.csr_matrix((np.ones(int(edge.sum())),
                                   (owner[edge], head[edge])),
                                  shape=(self.m, self.m))
            order, pred = breadth_first_order(reach, p,
                                              return_predecessors=True)
            last = q = int(order.max())
            moved = row_of.copy()
            while q != p:
                moved[pred[q]] = row_of[q]
                q = pred[q]
            moved[last] = -1
            row_of = moved
            out[k] = last
        free = np.ones(self.m, dtype=bool)
        free[row_of[row_of >= 0]] = False
        cols = basic[out]
        vstat[cols] = np.where(np.abs(lo[cols]) <= np.abs(up[cols]),
                               AT_LOWER, AT_UPPER)
        basic[out] = self.n + np.flatnonzero(free)
        vstat[basic[out]] = BASIC
        return self._basis_matrix(basic)

    def _initial_basis(self, lo, up, start: Optional[Basis]):
        """Working copies of ``start``, or of the slack basis when
        ``start`` is None; None when ``start`` is malformed.  A nonbasic
        column of ``start`` on an infinite bound moves to its other
        bound; one with no finite bound (the slack of a free row) makes
        ``start`` malformed."""
        n, m, nm = self.n, self.m, self.n + self.m
        if start is not None:
            vstat = np.array(start.vstat, dtype=np.int8)
            basic = np.array(start.basic, dtype=np.int64)
            if not (vstat.size == nm and basic.size == m
                    and ((basic >= 0) & (basic < nm)).all()):
                return None
            # m distinct positions marked, exactly the BASIC ones: basic
            # lists m distinct columns, all BASIC, and no other column is
            # BASIC
            mark = np.zeros(nm, dtype=bool)
            mark[basic] = True
            is_basic = vstat == BASIC
            if not (np.count_nonzero(mark) == m and np.array_equal(mark, is_basic)):
                return None
            no_lo, no_up = ~is_basic & ~np.isfinite(lo), ~is_basic & ~np.isfinite(up)
            if (no_lo & no_up).any():
                return None
            vstat[no_lo & (vstat == AT_LOWER)] = AT_UPPER
            vstat[no_up & (vstat == AT_UPPER)] = AT_LOWER
            return vstat, basic
        vstat = np.empty(nm, dtype=np.int8)
        nearer_low = np.abs(lo[:n]) <= np.abs(up[:n])
        vstat[:n] = np.where(nearer_low, AT_LOWER, AT_UPPER)
        vstat[n:] = BASIC
        basic = np.arange(n, nm, dtype=np.int64)
        return vstat, basic


def solve_lp(lp: LinearProgram, *, max_iter: Optional[int] = None,
             basis: Optional[Basis] = None) -> LpSolution:
    """Solve a box-bounded LP to optimality (maximize orientation).

    Parameters
    ----------
    lp : LinearProgram
        Problem with finite variable boxes; must pass ``lp.validate()``.
    max_iter : int, optional
        Pivot cap; exceeding it raises :class:`NumericalBreakdown`.
        Defaults to ``10_000 + 25 * (variables + rows)``.
    basis : Basis, optional
        Warm-start basis from a previous solve of a problem with the
        same rows (bounds may differ).  It is checked and repaired
        structurally before it is factored; a malformed or numerically
        singular one gives way to the slack basis.

    Returns
    -------
    LpSolution
        The core's record.  ``status`` is OPTIMAL or INFEASIBLE; on
        OPTIMAL, ``x`` is feasible within ``TOL`` and no feasible point
        beats ``objective_value`` by more than ``TOL``.  Degenerate streaks
        longer than ``BLAND_AFTER`` pivots switch to Bland's rule.  A
        ray that no bound blocks raises :class:`NumericalBreakdown`.
    """
    lp.validate()
    return _SimplexCore(lp, max_iter=max_iter).solve(warm=basis)
