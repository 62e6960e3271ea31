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
The basis is factored afresh on any of three triggers: the eta file
reaches ``REFACTOR_EVERY`` vectors, a pivot element is below 1e-8 in
magnitude, or the etas hold more than ``max(4 m, 20_000)`` nonzeros
(m rows).  On the whole-mission problem the last one fires every ~16
pivots, because each eta there carries about 1,400 nonzeros.

A basis supplied from outside the simplex (``solve_lp(basis=)`` or a
MILP's ``basis_hint``) is repaired structurally before its first
factorization: a maximum bipartite matching pairs rows with basic
columns, and each column left unmatched is swapped for the slack of a
row left unmatched (Suhl & Suhl 1990).  The repaired basis matrix has
full structural rank.  Without the repair a structurally singular basis
reaches SuperLU, and with ``relax=1, panel_size=1`` (scipy 1.17) SuperLU
may crash the process on it instead of raising, as it does with its
default options.  A basis that is still numerically singular is
replaced by the caller's fallback basis, or by the slack basis.

A simplex core prepares one problem once for any number of solves: it
scales the rows into fresh arrays (the caller's matrix is only read),
and lays out the columns of G = [A, -I] as CSC arrays, A's columns then
one -1 per logical, with A^T as a CSR view of the same arrays.  A basis
matrix, whatever its mix of columns, is one gather over them.  A basis
the core returned itself (branch and bound warm-starts each child from
its parent's) was checked when its solve started and every pivot kept
it well formed, so it is neither checked again nor repaired.

``solve_lp`` is a pure function of its inputs; independent problems may
be solved concurrently.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

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
#: Length of the degenerate-pivot streak after which Bland's rule takes
#: over until a nondegenerate pivot occurs.
BLAND_AFTER = 50
#: Eta-file length that forces a fresh LU factorization (one of the
#: three refactor triggers listed in the module docstring).
REFACTOR_EVERY = 64


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


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
    ``a x == b`` has equal sides.  ``a_rg = None`` states a pure box LP
    and becomes a 0-row block.
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
        if self.a_rg is None:
            self.a_rg = sp.csr_matrix((0, n))
            self.rg_lower = self.rg_upper = np.empty(0)
        self.a_rg = _as_csr(self.a_rg, n)
        self.rg_lower = _as_vec(self.rg_lower, self.a_rg.shape[0], "rg_lower")
        self.rg_upper = _as_vec(self.rg_upper, self.a_rg.shape[0], "rg_upper")

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
        row side may be infinite (open) but not NaN."""
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
        if np.isnan(np.concatenate([self.rg_lower, self.rg_upper])).any():
            raise DimensionMismatch("ranged row bounds contain NaN")
        if (self.rg_lower > self.rg_upper).any():
            raise DimensionMismatch("ranged row has lower > upper")


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray]
    objective_value: float
    iterations: int
    basis: Optional[Basis] = None


class _SimplexCore:
    """Prepared simplex state reusable across bound overrides.

    Branch-and-bound creates one core per MILP and re-solves with node
    bounds and a warm basis; every solve factors its starting basis
    afresh, and nothing here mutates the owning problem, which the
    caller has validated.  ``fallback`` builds the basis that replaces
    a numerically singular warm basis (default: the slack basis).

    Built once per core: the scaled rows (``a_csr``), G = [A, -I] as CSC
    arrays (``_gp``, ``_gi``, ``_gd``; column lengths ``_glen``), the
    CSR view ``a_t_csr`` of A^T over them, and the cost vector over all
    ``n + m`` variables.  An outside warm basis is validated and
    repaired; one this core returned skips both (``_initial_basis``).
    """

    def __init__(self, lp: LinearProgram, max_iter: Optional[int] = None,
                 fallback: Optional[Callable[[], Basis]] = None):
        self.fallback = fallback
        # the bases this core returned, which need no checks and no repair
        self._returned = weakref.WeakValueDictionary()
        self.n = n = lp.n_vars
        a, row_lo, row_up = lp.a_rg, lp.rg_lower, lp.rg_upper
        self.m = m = a.shape[0]
        default_cap = 10_000 + 25 * (n + m)
        self.max_iter = int(max_iter) if max_iter is not None else default_cap

        # Row equilibration with powers of two keeps pivots well scaled
        # without perturbing representable data.  The scaled rows go into
        # fresh arrays (the caller's matrix is only read), with what a
        # product with diag(scale) drops: duplicates summed, explicit
        # zeros removed.
        scale = np.ones(m)
        counts = a.indptr[1:] - a.indptr[:-1]
        if a.nnz:
            row_max = np.zeros(m)
            nz_rows = np.flatnonzero(counts)
            # reduceat segments end at the next nonempty row's start
            row_max[nz_rows] = np.maximum.reduceat(np.abs(a.data), a.indptr[nz_rows])
            pos = row_max > 0
            scale[pos] = np.exp2(-np.round(np.log2(row_max[pos])))
            if not a.has_canonical_format:
                a = a.copy()
                a.sum_duplicates()
                counts = a.indptr[1:] - a.indptr[:-1]
            data = a.data * np.repeat(scale, counts)
            a = sp.csr_matrix((data, a.indices, a.indptr), shape=(m, n))
            if not data.all():
                a = a.copy()                # not the caller's structure
                a.eliminate_zeros()
                counts = a.indptr[1:] - a.indptr[:-1]
        self.a_csr = a
        self.row_lo = row_lo * scale
        self.row_up = row_up * scale
        # the columns of G = [A, -I]: A's CSC arrays, then one -1 per
        # logical, so the basis matrix of any mix of columns is one gather
        cols = a.indices
        by_col = np.argsort(cols, kind="stable")    # rows ascend in a column
        col_ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=col_ptr[1:])
        nnz = int(col_ptr[-1])
        logicals = np.arange(m, dtype=np.int32)
        self._gp = np.concatenate([col_ptr, nnz + 1 + logicals])
        self._gi = np.concatenate([np.repeat(logicals, counts)[by_col],
                                   logicals])
        self._gd = np.concatenate([a.data[by_col], np.full(m, -1.0)])
        self._glen = self._gp[1:] - self._gp[:-1]
        # A^T as CSR is A's CSC, viewed from G's arrays
        self.a_t_csr = sp.csr_matrix((self._gd[:nnz], self._gi[:nnz], col_ptr),
                                     shape=(n, m))

        self.c = lp.objective.copy()
        self.col_lo = lp.lower.copy()
        self.col_up = lp.upper.copy()
        self._cobj = np.concatenate([self.c, np.zeros(m)])
        # structural reduced costs of the last optimal solve (for
        # reduced-cost bound fixing in branch and bound)
        self.last_reduced_costs = None

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

    def point_feasible(self, x) -> bool:
        """Explicit feasibility check of a candidate point against the
        problem's own boxes and (scaled) rows, within ``TOL``."""
        if np.any(x < self.col_lo - TOL) or np.any(x > self.col_up + TOL):
            return False
        if self.m == 0:
            return True
        act = self.a_csr @ x
        return bool(np.all(act >= self.row_lo - TOL)
                    and np.all(act <= self.row_up + TOL))

    def objective_of(self, x) -> float:
        return float(self.c @ x)

    # -- main solve ------------------------------------------------------

    def solve(self, col_lo=None, col_up=None, warm: Optional[Basis] = None,
              deadline: Optional[float] = None):
        """Solve with optional bound overrides and warm basis.

        ``deadline`` (absolute perf_counter time) aborts a long solve
        between pivots; the caller receives status None to signal an
        unfinished relaxation.  A ``warm`` basis that this core did not
        return is repaired structurally before it is factored (see the
        module docstring); one it returned has been factored as it
        stands.  When ``warm`` turns out numerically singular the solve
        starts from the core's fallback basis instead.
        """
        n, m = self.n, self.m
        nm = n + m
        tol = TOL
        lo = np.concatenate([self.col_lo if col_lo is None else col_lo, self.row_lo])
        up = np.concatenate([self.col_up if col_up is None else col_up, self.row_up])
        if (lo > up).any():
            # empty box: trivially infeasible
            return LpStatus.INFEASIBLE, None, -_INF, 0, None
        cobj = self._cobj

        # product-form updates: eta vectors kept sparse (their support is
        # local for staircase bases), applied sequentially around splu
        etas: list = []   # (pivot_pos, idx array, vals array, w[pivot])
        eta_nnz = 0
        lu = None
        gbuf = np.empty(m)

        def refactor(mat=None):
            nonlocal lu, eta_nnz
            etas.clear()
            eta_nnz = 0
            if m == 0:
                return
            lu = splu(self._basis_matrix(basic) if mat is None else mat,
                      permc_spec="COLAMD", relax=1, panel_size=1,
                      options={"SymmetricMode": False})

        def ftran(v):
            u = lu.solve(v) if m else v.copy()
            for p, idx, vals, wp in etas:
                piv = u[p] / wp
                if piv != 0.0:
                    u[idx] -= vals * piv
                u[p] = piv
            return u

        def btran(v):
            y = v.copy()
            for p, idx, vals, wp in reversed(etas):
                y[p] = (y[p] - (vals @ y[idx] - wp * y[p])) / wp
            return lu.solve(y, trans="T") if m else y

        def push_eta(r, w):
            nonlocal eta_nnz
            idx = np.flatnonzero(np.abs(w) > 1e-12)
            etas.append((r, idx, w[idx].copy(), w[r]))
            eta_nnz += idx.size

        def recompute_basics():
            nonlocal xb
            if m:
                xb = ftran(z[n:] - self.a_csr @ z[:n])

        def starts():
            yield warm
            if warm is not None:
                if self.fallback is not None:
                    yield self.fallback()
                yield None

        for start in starts():
            vstat, basic = self._initial_basis(lo, up, start)
            mat = self._basis_matrix(basic) if m else None
            if m and start is not None and not self._trusts(start):
                mat = self._repair(vstat, basic, lo, up, mat)
            try:
                refactor(mat)
                break
            except RuntimeError:
                if start is None:
                    raise NumericalBreakdown("singular initial basis")
        # nonbasic values sit in z (0 at the basics); the basic values
        # and their bounds are kept in basis order, so a pivot patches
        # one position instead of gathering them through ``basic``
        z = np.where(vstat == AT_UPPER, up, lo)
        z[basic] = 0.0
        xb = np.empty(0)
        recompute_basics()
        lob = lo[basic]
        upb = up[basic]

        def point():
            x = z.copy()
            x[basic] = xb
            return x[:n]

        def snapshot():
            out = Basis(vstat.copy(), basic.copy())
            self._returned[id(out)] = out
            return out

        iters = 0
        degen_streak = 0
        bland = False
        verify_rounds = 0
        free_range = up - lo > 0.0
        # phase-2 reduced costs maintained incrementally through the
        # pivotal row; Devex reference weights approximate steepest edge
        d_cache = None
        d_stale = False
        z_stale = False
        gamma = np.ones(nm)

        def price(cb, cn):
            """Reduced costs ``cn - A^T y`` of the structurals and ``y``
            of the logicals, for basic costs ``cb`` (``y = B^-T cb``)."""
            y = btran(cb) if m else cb
            dd = np.empty(nm)
            dd[:n] = cn - (self.a_t_csr @ y if m else 0.0)
            dd[n:] = y
            return dd

        while True:
            if iters > self.max_iter:
                raise NumericalBreakdown(
                    f"simplex exceeded iteration cap {self.max_iter}")
            if deadline is not None and iters % 16 == 0 \
                    and time.perf_counter() > deadline:
                # hand back the current iterate: a phase-2 point is
                # primal feasible, which lets callers build an incumbent
                feas = not (np.any(xb < lob - tol) or np.any(xb > upb + tol))
                x_part = point() if feas else None
                obj_part = float(cobj[:n] @ x_part) if feas else -_INF
                return None, x_part, obj_part, iters, snapshot()

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
                    d_stale = False
                d = d_cache

            eligible = free_range & (
                ((vstat == AT_LOWER) & (d > tol)) | ((vstat == AT_UPPER) & (d < -tol))
            )
            if not eligible.any():
                if (d_stale or z_stale) and verify_rounds < 4:
                    # incremental values can drift; confirm on freshly
                    # priced/resolved quantities before declaring
                    verify_rounds += 1
                    d_cache = None
                    recompute_basics()
                    z_stale = False
                    continue
                if infeasible:
                    return LpStatus.INFEASIBLE, None, -_INF, iters, snapshot()
                x = point()
                objective = float(cobj[:n] @ x)
                self.last_reduced_costs = d[:n].copy()
                return LpStatus.OPTIMAL, x, objective, iters, snapshot()

            if bland:
                j = int(np.argmax(eligible))
            elif infeasible:
                score = np.where(eligible, np.abs(d), -1.0)
                j = int(np.argmax(score))
            else:
                score = np.where(eligible, d * d / gamma, -1.0)
                j = int(np.argmax(score))

            sigma = 1.0 if vstat[j] == AT_LOWER else -1.0
            w = ftran(self._column(j, gbuf))

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

            if own_range <= min_row_ratio:
                step = own_range
                if not np.isfinite(step):
                    if infeasible:
                        raise NumericalBreakdown(
                            "unbounded infeasibility direction; inconsistent rows")
                    return LpStatus.UNBOUNDED, None, _INF, iters, snapshot()
                # bound flip: j runs to its opposite bound, basis (and
                # with it every reduced cost) unchanged
                xb -= w * (sigma * step)
                vstat[j] = AT_UPPER if vstat[j] == AT_LOWER else AT_LOWER
                z[j] = up[j] if vstat[j] == AT_UPPER else lo[j]
                iters += 1
                degen_streak = 0
                bland = False
                verify_rounds = 0
                z_stale = True
                continue

            if not np.isfinite(min_row_ratio):
                if infeasible:
                    raise NumericalBreakdown(
                        "unblocked infeasibility direction; inconsistent rows")
                return LpStatus.UNBOUNDED, None, _INF, iters, snapshot()

            # leaving choice: among near-minimal ratios take the largest |w|
            cand = ratios <= min_row_ratio + 1e-9
            k = int(np.argmax(np.where(cand, np.abs(ti), -1.0)))
            r = int(idx[k])
            step = max(ratios[k], 0.0)
            leave = basic[r]

            # pivotal row: maintains phase-2 reduced costs without a full
            # re-pricing and feeds the Devex weight updates
            if not infeasible:
                e_r = np.zeros(m)
                e_r[r] = 1.0
                rho = btran(e_r)
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
                d_stale = True
                if gamma.max() > 1e10:
                    gamma[:] = 1.0   # reset the reference framework

            # snap the leaver exactly onto the bound it hit
            if sigma * w[r] > 0:
                tgt_bound = upb[r] if xb[r] > upb[r] + tol else lob[r]
            else:
                tgt_bound = lob[r] if xb[r] < lob[r] - tol else upb[r]
            xb -= w * (sigma * step)
            z[leave] = tgt_bound
            vstat[leave] = AT_UPPER if tgt_bound == upb[r] else AT_LOWER
            xb[r] = (lo[j] if sigma > 0 else up[j]) + sigma * step
            z[j] = 0.0
            vstat[j] = BASIC
            basic[r] = j
            lob[r] = lo[j]
            upb[r] = up[j]
            push_eta(r, w)
            iters += 1
            verify_rounds = 0
            z_stale = True

            if step <= 1e-9:
                degen_streak += 1
                if degen_streak > BLAND_AFTER:
                    bland = True
            else:
                degen_streak = 0
                bland = False

            if (len(etas) >= REFACTOR_EVERY or abs(w[r]) < 1e-8
                    or eta_nnz > max(4 * m, 20_000)):
                try:
                    refactor()
                except RuntimeError as exc:
                    raise NumericalBreakdown(f"singular basis during pivoting: {exc}")
                recompute_basics()
                d_cache = None
                z_stale = False

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

    def _trusts(self, basis: Basis) -> bool:
        """True for a basis this core returned."""
        return self._returned.get(id(basis)) is basis

    def _initial_basis(self, lo, up, warm: Optional[Basis]):
        """Working copies of the starting basis: ``warm``, or the slack
        basis when ``warm`` is None or malformed.  A basis this core
        returned is taken as it is: it passed these checks when its
        solve started, pivots keep it well formed, and its nonbasics sit
        on finite bounds (column bounds always are; row bounds do not
        change), so checking it again could only repeat itself."""
        n, m, nm = self.n, self.m, self.n + self.m
        if warm is not None:
            vstat = np.array(warm.vstat, dtype=np.int8)
            basic = np.array(warm.basic, dtype=np.int64)
            if self._trusts(warm):
                return vstat, basic
            ok = (vstat.size == nm and basic.size == m
                  and (m == 0 or (basic.min() >= 0 and basic.max() < nm)))
            if ok:
                # m distinct positions marked, exactly the BASIC ones:
                # basic lists m distinct columns, all BASIC, and no other
                # column is BASIC
                mark = np.zeros(nm, dtype=bool)
                mark[basic] = True
                is_basic = vstat == BASIC
                ok = (np.count_nonzero(mark) == m
                      and np.array_equal(mark, is_basic))
            if ok:
                # nonbasic entries must sit on a finite bound
                vstat[~is_basic & (vstat == AT_LOWER) & ~np.isfinite(lo)] = AT_UPPER
                vstat[~is_basic & (vstat == AT_UPPER) & ~np.isfinite(up)] = AT_LOWER
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
        same rows (bounds may differ).  It is repaired structurally
        before it is factored; a numerically singular one gives way to
        the slack basis.

    Returns
    -------
    LpSolution
        ``status`` is OPTIMAL / INFEASIBLE / UNBOUNDED; on OPTIMAL,
        ``x`` is feasible within ``TOL`` and no feasible point beats
        ``objective_value`` by more than ``TOL``.  Degenerate streaks
        longer than ``BLAND_AFTER`` pivots switch to Bland's rule.

    Notes
    -----
    The basis is factored with a COLAMD order and without relaxed
    supernodes, which makes each ftran/btran 2-4x cheaper on the
    sparse simplex bases than SuperLU's defaults (figures in the
    module docstring).  The factor is rebuilt when the eta file reaches
    ``REFACTOR_EVERY`` updates, after a pivot below 1e-8 in magnitude,
    and when the etas hold more than ``max(4 m, 20_000)`` nonzeros.
    """
    lp.validate()
    core = _SimplexCore(lp, max_iter=max_iter)
    status, x, obj, iters, fin = core.solve(warm=basis)
    return LpSolution(status=status, x=x, objective_value=obj,
                      iterations=iters, basis=fin)
