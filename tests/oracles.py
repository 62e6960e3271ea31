"""Independent oracles used to pin expected values.

Nothing here shares code with the solvers under test: LP optima come
from vertex enumeration, MILP optima from exhaustive integer
enumeration (with interval-arithmetic pruning so suites stay fast),
and window-scale MILP optima from HiGHS (``scipy.optimize.milp``).
"""

import itertools
import warnings

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


def lp_vertex_oracle(c, a_ub, b_ub, lower, upper, tol=1e-9):
    """Best vertex of {a_ub x <= b_ub, lower <= x <= upper}, maximize c.x.

    Enumerates candidate basic points: every choice of n active
    hyperplanes among constraint rows and variable bounds.  Returns
    (status, best_x, best_obj) with status in {"optimal", "infeasible"}.
    Only suitable for tiny problems (n <= 6 or so).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        for i in range(a_ub.shape[0]):
            rows.append(a_ub[i])
            rhs.append(float(b_ub[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(float(upper[j]))
        rows.append(-e)
        rhs.append(-float(lower[j]))
    rows = np.array(rows)
    rhs = np.array(rhs)

    best_x, best_obj = None, -np.inf
    for active in itertools.combinations(range(len(rows)), n):
        sub = rows[list(active)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(active)])
        if np.all(rows @ x <= rhs + tol):
            obj = float(c @ x)
            if obj > best_obj:
                best_obj, best_x = obj, x
    if best_x is None:
        return "infeasible", None, -np.inf
    return "optimal", best_x, best_obj


def _integer_grid(lower, upper):
    axes = [np.arange(int(round(lo)), int(round(up)) + 1)
            for lo, up in zip(lower, upper)]
    return itertools.product(*axes)


def milp_enum_oracle(c, a_ub, b_ub, lower, upper, is_int, lp_solver, tol=1e-9):
    """Exhaustive MILP oracle: fix every integer assignment, solve the
    residual LP with ``lp_solver``, keep the best.

    ``lp_solver(c, a_ub, b_ub, lower, upper)`` must return
    (status, x, objective) for a pure LP.  Enumeration order is by
    descending integer objective contribution so the incumbent prunes
    hopeless assignments via interval bounds on the continuous part.
    """
    c = np.asarray(c, dtype=float)
    is_int = np.asarray(is_int, dtype=bool)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    int_idx = np.flatnonzero(is_int)
    cont_idx = np.flatnonzero(~is_int)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float)) if a_ub is not None else np.zeros((0, c.size))
    b = np.asarray(b_ub, dtype=float) if a_ub is not None else np.zeros(0)

    combo_list = list(_integer_grid(lower[int_idx], upper[int_idx]))
    combos = np.array(combo_list, dtype=float).reshape(len(combo_list), len(int_idx))
    order = np.argsort(-(combos @ c[int_idx])) if len(combos) else []

    a_int = a[:, int_idx]
    a_cont = a[:, cont_idx]
    # loosest achievable contribution of the continuous part, per row / objective
    if len(cont_idx):
        row_min = np.where(a_cont > 0, a_cont * lower[cont_idx], a_cont * upper[cont_idx]).sum(axis=1)
        obj_max = np.where(c[cont_idx] > 0, c[cont_idx] * upper[cont_idx],
                           c[cont_idx] * lower[cont_idx]).sum()
    else:
        row_min = np.zeros(a.shape[0])
        obj_max = 0.0

    best_x, best_obj = None, -np.inf
    for k in order:
        z = combos[k]
        int_obj = float(c[int_idx] @ z)
        if int_obj + obj_max <= best_obj + tol:
            break  # ordered descending: nothing later can win
        resid = b - a_int @ z
        if np.any(resid - row_min < -tol):
            continue  # no continuous completion can satisfy these rows
        if len(cont_idx) == 0:
            if np.all(resid >= -tol):
                if int_obj > best_obj:
                    best_obj = int_obj
                    best_x = np.zeros(c.size)
                    best_x[int_idx] = z
            continue
        status, xc, obj = lp_solver(c[cont_idx], a_cont, resid,
                                    lower[cont_idx], upper[cont_idx])
        if status != "optimal":
            continue
        total = int_obj + obj
        if total > best_obj:
            best_obj = total
            best_x = np.zeros(c.size)
            best_x[int_idx] = z
            best_x[cont_idx] = xc
    if best_x is None:
        return "infeasible", None, -np.inf
    return "optimal", best_x, best_obj


def milp_vertex_lp(c, a_ub, b_ub, lower, upper):
    """LP backend for the MILP oracle built on the vertex enumerator."""
    if len(c) == 0:
        feasible = b_ub is None or np.all(np.asarray(b_ub) >= -1e-9)
        return ("optimal", np.zeros(0), 0.0) if feasible else ("infeasible", None, -np.inf)
    status, x, obj = lp_vertex_oracle(c, a_ub, b_ub, lower, upper)
    return status, x, obj


def highs_milp(problem):
    """Optimal objective of a ``MilpProblem`` (maximize orientation) from
    HiGHS at zero relative gap, or None when HiGHS proves it infeasible;
    raises if HiGHS fails otherwise.

    HiGHS runs at feasibility tolerance 1e-9: at its default 1e-7 it
    takes a SoC row of a 1,000 MJ battery 3e-8 past its bound, which buys
    6e-5 MW of discharge, and it overstates such a window's optimum by
    3e-5."""
    lp = problem.lp
    rows = LinearConstraint(lp.a_rg, lp.rg_lower, lp.rg_upper)
    with warnings.catch_warnings():
        # scipy passes the tolerances, which it does not check, to HiGHS
        # as given, and says so in a RuntimeWarning
        warnings.simplefilter("ignore", RuntimeWarning)
        res = milp(-lp.objective, integrality=problem.integrality.astype(int),
                   bounds=Bounds(lp.lower, lp.upper), constraints=rows,
                   options={"mip_rel_gap": 0.0, "primal_feasibility_tolerance": 1e-9,
                            "mip_feasibility_tolerance": 1e-9})
    if res.status == 2:     # infeasible
        return None
    if not res.success:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -res.fun
