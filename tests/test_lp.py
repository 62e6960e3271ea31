"""Bounded-variable simplex vs. an independent vertex-enumeration oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import structural_rank
from scipy.sparse.linalg import splu

from shipems.errors import DimensionMismatch
from shipems.lp import (AT_LOWER, AT_UPPER, BASIC, TOL, _BLAND, _DEVEX, _PHASE1,
                        Basis, LinearProgram, LpSolution, LpStatus, _BasisFactor,
                        _SimplexCore, _entering, _leaving, _row_ratios, _signs,
                        solve_lp)
from shipems.milp import MilpProblem

from oracles import highs_milp, lp_vertex_oracle


def make_lp(c, a_ub=None, b_ub=None, lower=None, upper=None, **kw):
    """LP with default boxes [0, 10]; ``a_ub x <= b_ub`` is stated as
    ranged rows with an open lower side."""
    c = np.asarray(c, dtype=float)
    n = c.size
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, 10.0) if upper is None else np.asarray(upper, dtype=float)
    if a_ub is not None:
        b_ub = np.asarray(b_ub, dtype=float)
        kw.update(a_rg=a_ub, rg_lower=np.full(b_ub.size, -np.inf), rg_upper=b_ub)
    return LinearProgram(objective=c, lower=lower, upper=upper, **kw)


def test_single_active_constraint():
    # maximize x subject to x <= 1, box [0, 10]
    sol = solve_lp(make_lp([1.0], a_ub=[[1.0]], b_ub=[1.0]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_symmetric_facet():
    # maximize x + y, x + y <= 1, boxes [0, 1]: any vertex on the facet scores 1
    sol = solve_lp(make_lp([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                           upper=[1.0, 1.0]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_two_row_polygon_vertex():
    # maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x, y >= 0.
    # Vertex enumeration over {(0,0), (4,0), (0,2), (3,1)} gives 12 at (4,0).
    c = [3.0, 2.0]
    a = [[1.0, 1.0], [1.0, 3.0]]
    b = [4.0, 6.0]
    status, xo, obj = lp_vertex_oracle(c, a, b, [0, 0], [100, 100])
    assert status == "optimal"
    assert obj == pytest.approx(12.0, abs=1e-9)

    sol = solve_lp(make_lp(c, a_ub=a, b_ub=b, upper=[100.0, 100.0]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(12.0, abs=1e-9)
    assert sol.x == pytest.approx([4.0, 0.0], abs=1e-7)


def test_pure_box_problem():
    sol = solve_lp(make_lp([2.0, -3.0, 0.0], lower=[-1, -2, -3], upper=[4, 5, 6]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(2 * 4 + (-3) * (-2), abs=1e-9)


def test_equality_rows():
    # maximize x + y with x + y = 1.5 exactly
    lp = make_lp([1.0, 1.0], a_rg=[[1.0, 1.0]], rg_lower=[1.5], rg_upper=[1.5],
                 upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x.sum() == pytest.approx(1.5, abs=1e-9)


def test_ranged_rows():
    # 1 <= x + y <= 2 while minimizing x + y (i.e. maximize the negative)
    lp = make_lp([-1.0, -1.0], a_rg=[[1.0, 1.0]], rg_lower=[1.0], rg_upper=[2.0],
                 upper=[5.0, 5.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_infeasible_row_vs_box():
    lp = make_lp([1.0], a_ub=[[1.0]], b_ub=[-5.0], lower=[0.0], upper=[10.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.x is None


def test_infeasible_between_rows():
    lp = make_lp([1.0, 0.0], a_ub=[[1.0, 1.0], [-1.0, -1.0]], b_ub=[1.0, -3.0],
                 upper=[5.0, 5.0])
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_rejects_infinite_bounds():
    with pytest.raises(DimensionMismatch):
        solve_lp(make_lp([1.0], upper=[np.inf]))


def test_rejects_crossed_bounds():
    with pytest.raises(DimensionMismatch):
        solve_lp(make_lp([1.0], lower=[2.0], upper=[1.0]))


def test_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        make_lp([1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(DimensionMismatch):
        make_lp([1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])


@pytest.mark.parametrize("field, index, value, message", [
    ("a_rg", 0, np.nan, "a_rg has non-finite"),
    ("a_rg", 1, np.inf, "a_rg has non-finite"),
    ("a_rg", 3, -np.inf, "a_rg has non-finite"),
    ("rg_lower", 1, np.nan, "NaN"),
    ("rg_upper", 0, np.nan, "NaN"),
    ("rg_lower", 0, 5.0, "lower > upper"),      # above its upper side of 1
    ("rg_lower", 1, np.inf, "closed at infinity"),    # upper side open too
    ("rg_upper", 0, -np.inf, "closed at infinity"),   # lower side open too
])
def test_rejects_bad_row_data(field, index, value, message):
    lp = make_lp([1.0, 1.0], a_rg=[[1.0, 2.0], [3.0, 4.0]],
                 rg_lower=[-np.inf, 0.0], rg_upper=[1.0, np.inf])
    solve_lp(lp)                    # infinite sides are open, not an error
    data = lp.a_rg.data if field == "a_rg" else getattr(lp, field)
    data[index] = value
    with pytest.raises(DimensionMismatch, match=message):
        solve_lp(lp)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("given, omitted, open_value, sense", [
    ("rg_upper", "rg_lower", -np.inf, 1.0),     # maximize against x <= 1
    ("rg_lower", "rg_upper", np.inf, -1.0),     # minimize against x >= 1
], ids=["upper_given", "lower_given"])
def test_omitted_row_side_is_open(rows, given, omitted, open_value, sense):
    # as in scipy's LinearConstraint, a side left out is open
    lp = make_lp(np.full(rows, sense), a_rg=np.eye(rows), **{given: np.ones(rows)})
    np.testing.assert_array_equal(getattr(lp, omitted), np.full(rows, open_value))
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, np.ones(rows), atol=1e-12)


@pytest.mark.parametrize("side", ["rg_lower", "rg_upper"])
def test_row_sides_without_rows_are_rejected(side):
    with pytest.raises(DimensionMismatch, match=f"{side} has length 1, expected 0"):
        make_lp([1.0], **{side: [1.0]})


def _random_lp(rng, force_tight=False):
    n = rng.integers(1, 7)
    m = rng.integers(0, 7)
    lower = rng.uniform(-5, 0, n)
    upper = lower + rng.uniform(0.0, 6.0, n)
    c = rng.uniform(-4, 4, n)
    if m:
        a = rng.uniform(-3, 3, (n, m)).T
        a[rng.random((m, n)) < 0.3] = 0.0
        x0 = rng.uniform(lower, upper)
        margin = rng.uniform(0.0 if force_tight else 0.1, 2.0, m)
        b = a @ x0 + margin
    else:
        a, b = None, None
    return c, a, b, lower, upper


def test_random_lps_match_vertex_oracle():
    rng = np.random.default_rng(20240611)
    solved = 0
    for trial in range(120):
        c, a, b, lower, upper = _random_lp(rng, force_tight=trial % 3 == 0)
        status, _, obj = lp_vertex_oracle(c, a, b, lower, upper)
        sol = solve_lp(make_lp(c, a_ub=a, b_ub=b, lower=lower, upper=upper))
        assert status == "optimal", "generator should produce feasible LPs"
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(obj, abs=1e-7)
        # returned point is feasible
        if a is not None:
            assert np.all(a @ sol.x <= np.asarray(b) + 1e-7)
        assert np.all(sol.x >= lower - 1e-9)
        assert np.all(sol.x <= upper + 1e-9)
        solved += 1
    assert solved == 120


@st.composite
def integer_lps(draw):
    """A small LP of integer data, so ties and degenerate vertices are
    common: integer boxes, entries in {-2..2}, and rows that are <=, >=,
    equality, ranged or free with integer sides; and one column to cut."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    ints = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    lower = np.array(draw(ints(-3, 3)), dtype=float)
    upper = lower + np.array(draw(ints(0, 4)), dtype=float)
    c = np.array(draw(ints(-3, 3)), dtype=float)
    a = np.array([draw(ints(-2, 2)) for _ in range(m)], dtype=float).reshape(m, n)
    rg_lower, rg_upper = np.full(m, -np.inf), np.full(m, np.inf)
    for i in range(m):
        sense = draw(st.sampled_from(["<=", ">=", "==", "range", "free"]))
        side = float(draw(st.integers(-6, 6)))
        if sense in ("<=", "==", "range"):
            rg_upper[i] = side
        if sense in (">=", "=="):
            rg_lower[i] = side
        if sense == "range":
            rg_lower[i] = side - draw(st.integers(1, 3))
    lp = LinearProgram(objective=c, lower=lower, upper=upper, a_rg=a,
                       rg_lower=rg_lower, rg_upper=rg_upper)
    return lp, draw(st.integers(0, n - 1))


def _highs_agrees(sol, lp):
    """``sol`` has HiGHS's verdict on ``lp`` and, when optimal, its
    objective within 1e-6 at a point feasible within ``TOL``."""
    best = highs_milp(MilpProblem(lp, np.zeros(lp.n_vars, dtype=bool)))
    if best is None:
        assert sol.status is LpStatus.INFEASIBLE
        return
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(best, abs=1e-6)
    assert _SimplexCore(lp).point_feasible(sol.x)


@given(integer_lps())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_degenerate_lps_match_highs_cold_and_warm(case):
    # differential property on the paths the vertex-oracle LPs (inequality
    # rows, continuous data) do not reach: equality, ranged and free rows,
    # degenerate vertices, and a warm re-solve from the returned basis
    # after branching cuts one column's upper bound below its value
    lp, j = case
    cold = solve_lp(lp)
    _highs_agrees(cold, lp)
    if cold.status is not LpStatus.OPTIMAL:
        return
    core = _SimplexCore(lp)
    root = core.solve()
    assert root.objective_value == cold.objective_value
    cut_up = lp.upper.copy()
    cut_up[j] = max(lp.lower[j], np.ceil(root.x[j] - 1e-6) - 1.0)
    cut = LinearProgram(objective=lp.objective, lower=lp.lower, upper=cut_up,
                        a_rg=lp.a_rg, rg_lower=lp.rg_lower, rg_upper=lp.rg_upper)
    _highs_agrees(core.solve(col_up=cut_up, warm=root.basis), cut)


def test_random_infeasible_detected():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c, a, b, lower, upper = _random_lp(rng)
        # pin variable 0 below its own lower bound via an extra row
        e = np.zeros((1, len(c)))
        e[0, 0] = 1.0
        a2 = e if a is None else np.vstack([a, e])
        b2 = np.concatenate([b if b is not None else [], [lower[0] - 1.0]])
        sol = solve_lp(make_lp(c, a_ub=a2, b_ub=b2, lower=lower, upper=upper))
        assert sol.status is LpStatus.INFEASIBLE


def test_objective_scaling_invariance():
    rng = np.random.default_rng(99)
    for _ in range(20):
        c, a, b, lower, upper = _random_lp(rng)
        lam = rng.uniform(0.1, 9.0)
        s1 = solve_lp(make_lp(c, a_ub=a, b_ub=b, lower=lower, upper=upper))
        s2 = solve_lp(make_lp(lam * c, a_ub=a, b_ub=b, lower=lower, upper=upper))
        assert s1.status == s2.status
        if s1.status is LpStatus.OPTIMAL:
            assert s2.objective_value == pytest.approx(lam * s1.objective_value,
                                                       rel=1e-9, abs=1e-9)


def test_redundant_row_changes_nothing():
    rng = np.random.default_rng(4242)
    for _ in range(20):
        c, a, b, lower, upper = _random_lp(rng)
        if a is None:
            continue
        base = solve_lp(make_lp(c, a_ub=a, b_ub=b, lower=lower, upper=upper))
        # dominated row: double an existing row, slacker rhs
        a2 = np.vstack([a, 2.0 * a[0]])
        b2 = np.concatenate([b, [2.0 * b[0] + 1.0]])
        red = solve_lp(make_lp(c, a_ub=a2, b_ub=b2, lower=lower, upper=upper))
        assert red.status == base.status
        if base.status is LpStatus.OPTIMAL:
            assert red.objective_value == pytest.approx(base.objective_value, abs=1e-7)


def test_warm_start_reaches_same_optimum():
    rng = np.random.default_rng(11)
    c, a, b, lower, upper = _random_lp(rng)
    while a is None:
        c, a, b, lower, upper = _random_lp(rng)
    lp = make_lp(c, a_ub=a, b_ub=b, lower=lower, upper=upper)
    cold = solve_lp(lp)
    warm = solve_lp(lp, basis=cold.basis)
    assert warm.status is LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
    assert warm.iterations <= 2

    # a structurally singular warm basis: x0 and x1 are basic, and their
    # only nonzeros share row 0, so row 1 has no basic entry; the repair
    # swaps the slack of row 1 in (SuperLU may crash the process on the
    # unrepaired matrix)
    lp = make_lp([1.0, 2.0, 3.0], a_ub=[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 b_ub=[4.0, 2.0], upper=[3.0, 3.0, 3.0])
    cold = solve_lp(lp)
    vstat = np.array([BASIC, BASIC, AT_LOWER, AT_LOWER, AT_LOWER], dtype=np.int8)
    warm = solve_lp(lp, basis=Basis(vstat=vstat, basic=np.array([0, 1])))
    assert cold.status is warm.status is LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
    assert cold.objective_value == pytest.approx(13.0, abs=1e-9)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       n=st.integers(1, 12), extra=st.integers(-3, 3),
       density=st.floats(0.05, 0.6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_structural_repair_keeps_the_matched_columns(seed, m, n, extra, density):
    # a start of k = m - 3 ... m + 3 basic positions is completed into a
    # square basis of full structural rank that keeps the columns of one
    # maximum matching, in their order and, short of a surplus, in their
    # positions
    rng = np.random.default_rng(seed)
    a = sp.random(m, n, density=density, random_state=rng, format="csr",
                  data_rvs=lambda k: rng.uniform(0.5, 2.0, k))
    # boxes around zero, nearer it on either side
    lp = LinearProgram(objective=np.ones(n), lower=-rng.uniform(0.0, 2.0, n),
                       upper=rng.uniform(0.0, 2.0, n), a_rg=a,
                       rg_lower=-rng.uniform(0.0, 2.0, m),
                       rg_upper=rng.uniform(0.0, 2.0, m))
    core = _SimplexCore(lp)
    k = min(max(m + extra, 0), n + m)
    basic = rng.choice(n + m, size=k, replace=False)
    vstat = np.where(rng.random(n + m) < 0.5, AT_LOWER, AT_UPPER).astype(np.int8)
    vstat[basic] = BASIC
    before = basic.copy()
    mat = core._basis_matrix(basic)
    assert mat.shape == (m, k)
    lo = np.concatenate([core.col_lo, core.row_lo])
    up = np.concatenate([core.col_up, core.row_up])
    done, repaired = core._repair(vstat, basic, lo, up, mat)
    assert repaired.shape == (m, m) and structural_rank(repaired) == m
    assert (repaired != core._basis_matrix(done)).nnz == 0
    assert np.unique(done).size == m
    assert np.array_equal(np.flatnonzero(vstat == BASIC), np.sort(done))
    # the columns kept are as many as a maximum matching has; they keep
    # their order, and every column added is a slack
    kept = np.isin(before, done)
    assert kept.sum() == structural_rank(mat)
    assert np.array_equal(done[np.isin(done, before)], before[kept])
    assert np.all(done[~np.isin(done, before)] >= n)
    if k <= m:
        assert np.array_equal(done[:k][kept], before[kept])
    # every other column leaves for the bound nearer zero
    left = before[~kept]
    assert np.array_equal(vstat[left], np.where(np.abs(lo[left]) <= np.abs(up[left]),
                                                AT_LOWER, AT_UPPER))


@st.composite
def raw_rows(draw):
    """A CSR matrix as stored, not canonical: repeated and unsorted
    columns within a row, explicit zeros and duplicates that cancel."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    value = st.sampled_from([0.0, 0.3, -1.5, 2.0, 7.0, -0.125, 96.0])
    indptr, indices, data = [0], [], []
    for _ in range(m):
        row = draw(st.lists(st.tuples(st.integers(0, n - 1), value), max_size=6))
        if row and draw(st.booleans()):
            col, val = row[0]
            row.append((col, -val))               # cancels to an explicit zero
        indices += [c for c, _ in row]
        data += [v for _, v in row]
        indptr.append(len(indices))
    a = sp.csr_matrix((np.array(data, dtype=float), np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int32)), shape=(m, n))
    basic = draw(st.permutations(range(n + m)))[:m]
    return a, np.array(basic, dtype=np.int64)


@given(raw_rows())
@settings(max_examples=150, deadline=None)
def test_basis_matrix_gathers_scaled_columns(case):
    a, basic = case
    m, n = a.shape
    stored = [np.abs(a.data[a.indptr[i]:a.indptr[i + 1]]) for i in range(m)]
    before = (a.data.copy(), a.indices.copy(), a.indptr.copy())
    core = _SimplexCore(LinearProgram(objective=np.ones(n), lower=np.zeros(n),
                                      upper=np.ones(n), a_rg=a,
                                      rg_lower=np.full(m, -1.0),
                                      rg_upper=np.full(m, 1.0)))
    # rows scale by a power of two from their largest stored magnitude,
    # duplicates are summed after scaling and zeros dropped
    row_max = np.array([r.max() if r.size else 0.0 for r in stored])
    scale = np.where(row_max > 0,
                     np.exp2(-np.round(np.log2(np.where(row_max > 0, row_max, 1.0)))),
                     1.0)
    assert np.array_equal(-core.row_lo, scale)
    dense = np.hstack([scale[:, None] * a.toarray(), -np.eye(m)])
    mat = core._basis_matrix(basic)
    assert np.array_equal(mat.toarray(), dense[:, basic])
    assert np.all(mat.data != 0.0)
    assert all(np.all(np.diff(mat.indices[mat.indptr[j]:mat.indptr[j + 1]]) > 0)
               for j in range(m))
    # the caller's matrix is only read
    for was, now in zip(before, (a.data, a.indices, a.indptr)):
        assert np.array_equal(was, now)


def _window_lp():
    """A 4-step dispatch window and its template (``demand_at``)."""
    from shipems.builder import build_window_milp
    from shipems.io import parse_scenario, synth_scenario
    from shipems.model import ObjectiveWeights

    spec, _ = parse_scenario(synth_scenario(seed=3, n_loads=3, n_generators=2,
                                            n_storage=2, steps=8))
    problem, tpl = build_window_milp(spec, spec.initial_state(),
                                     ObjectiveWeights(0.005, 0.03, 0.05), 4)
    return problem.lp, tpl


_WINDOW = _window_lp()
# demand around every power of two from 1/8 to 64 MW, so the balance
# rows' largest entries (and with them their scales) cross powers of
# two; and zero, which a patch must refuse
_DEMAND = st.one_of(
    st.just(0.0),
    st.builds(lambda e, f: f * 2.0 ** e, st.integers(-3, 6),
              st.floats(0.7, 1.45)))


@given(st.lists(_DEMAND, min_size=_WINDOW[1].demand_at.size,
                max_size=_WINDOW[1].demand_at.size),
       st.floats(-1.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_patched_core_equals_a_fresh_core(demand, shift):
    lp, tpl = _WINDOW
    data = lp.a_rg.data.copy()
    data[tpl.demand_at.ravel()] = demand
    patched = LinearProgram(objective=lp.objective, lower=lp.lower - shift,
                            upper=lp.upper + abs(shift),
                            a_rg=sp.csr_matrix((data, lp.a_rg.indices, lp.a_rg.indptr),
                                               shape=lp.a_rg.shape),
                            rg_lower=lp.rg_lower + shift, rg_upper=lp.rg_upper + shift)
    core = _SimplexCore(lp)
    kept = core.a_t_csr
    fresh = _SimplexCore(patched if all(demand) else lp)
    assert core.patch(patched) is all(demand)
    for mine, theirs in ((core.a_csr.data, fresh.a_csr.data),
                         (core.a_csr.indices, fresh.a_csr.indices),
                         (core.a_csr.indptr, fresh.a_csr.indptr),
                         (core._gd, fresh._gd), (core.row_lo, fresh.row_lo),
                         (core.row_up, fresh.row_up), (core.col_lo, fresh.col_lo),
                         (core.col_up, fresh.col_up), (core._cobj, fresh._cobj)):
        assert np.array_equal(mine, theirs)
    # A^T stays a view of G's arrays
    assert core.a_t_csr is kept
    assert np.array_equal(kept.toarray(), fresh.a_t_csr.toarray())


def test_patch_refuses_another_pattern():
    lp, tpl = _WINDOW
    core = _SimplexCore(lp)
    before = core._gd.copy()
    other = make_lp(np.ones(lp.n_vars), a_ub=sp.eye(3, lp.n_vars, format="csr"),
                    b_ub=np.ones(3))
    assert not core.patch(other)
    assert np.array_equal(core._gd, before)
    assert core.patch(lp)


def test_returned_basis_restarts_after_a_patch_opens_its_side():
    # max x + y over [0, 2]^2 with x + y <= 1 ends with the slack on its
    # upper side; the patch to x + y >= 0.5 opens that side, so the next
    # start moves the slack to the side left and reaches (2, 2)
    lp = make_lp([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], upper=[2.0, 2.0])
    core = _SimplexCore(lp)
    first = core.solve()
    assert first.status is LpStatus.OPTIMAL
    assert first.objective_value == pytest.approx(1.0, abs=1e-12)
    assert first.basis.vstat[2] == AT_UPPER
    assert core.patch(LinearProgram(objective=lp.objective, lower=lp.lower,
                                    upper=lp.upper, a_rg=lp.a_rg,
                                    rg_lower=[0.5], rg_upper=[np.inf]))
    again = core.solve(warm=first.basis)
    assert again.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(again.x, [2.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("vstat_basic, basic", [
    ([0], [0, 0]),              # a column listed twice
    ([0, 1], [0, 0]),
    ([0, 1], [0]),              # a basic column not listed
    ([0, 1], [0, 5]),           # a column out of range
    ([0, 3], [0, 4]),           # vstat and basic disagree
])
def test_malformed_outside_basis_starts_from_slacks(vstat_basic, basic):
    lp = make_lp([1.0, 2.0, 3.0], a_ub=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                 b_ub=[4.0, 2.0], upper=[3.0, 3.0, 3.0])
    cold = solve_lp(lp)
    vstat = np.full(5, AT_LOWER, dtype=np.int8)
    vstat[vstat_basic] = BASIC
    bad = Basis(vstat=vstat, basic=np.array(basic))
    core = _SimplexCore(lp)
    lo = np.concatenate([core.col_lo, core.row_lo])
    up = np.concatenate([core.col_up, core.row_up])
    assert core._initial_basis(lo, up, bad) is None
    warm = solve_lp(lp, basis=bad)
    assert warm.status is cold.status is LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
    assert warm.iterations == cold.iterations


@pytest.mark.parametrize("basic", [
    [0, 1, 2],                  # too many basic columns for two rows
    [2],                        # too few
    [],
])
def test_an_outside_basis_of_any_count_is_completed(basic):
    # a start that lists distinct basic columns, exactly those it marks
    # basic, is completed into a basis, whatever their number
    lp = make_lp([1.0, 2.0, 3.0], a_ub=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                 b_ub=[4.0, 2.0], upper=[3.0, 3.0, 3.0])
    cold = solve_lp(lp)
    vstat = np.full(5, AT_LOWER, dtype=np.int8)
    vstat[basic] = BASIC
    start = Basis(vstat=vstat, basic=np.array(basic, dtype=np.int64))
    core = _SimplexCore(lp)
    lo = np.concatenate([core.col_lo, core.row_lo])
    up = np.concatenate([core.col_up, core.row_up])
    assert core._initial_basis(lo, up, start)[1].tolist() == basic
    warm = core.solve(warm=start)
    assert warm.status is cold.status is LpStatus.OPTIMAL
    assert warm.basis.basic.size == 2
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)


def test_outside_basis_with_a_nonbasic_free_slack_gives_way():
    # max x0 + x1 over [0, 2]^2 with a free row x0 + x1 (both sides
    # open) and x0 - x1 <= 1: the start leaves the free row's slack
    # (column 2) nonbasic, on no finite bound, so it is malformed and
    # the slack basis takes over
    lp = LinearProgram(objective=[1.0, 1.0], lower=[0.0, 0.0], upper=[2.0, 2.0],
                       a_rg=[[1.0, 1.0], [1.0, -1.0]], rg_upper=[np.inf, 1.0])
    bad = Basis(vstat=np.array([BASIC, AT_LOWER, AT_LOWER, BASIC], dtype=np.int8),
                basic=np.array([0, 3]))
    core = _SimplexCore(lp)
    lo = np.concatenate([core.col_lo, core.row_lo])
    up = np.concatenate([core.col_up, core.row_up])
    assert core._initial_basis(lo, up, bad) is None
    warm = solve_lp(lp, basis=bad)
    assert warm.status is LpStatus.OPTIMAL
    assert warm.objective_value == solve_lp(lp).objective_value == 4.0


@pytest.mark.parametrize("basic", [[0, 1, 2], [2, 0, 1], [1, 3, 2], [3, 2, 0], [2]])
def test_a_completed_start_keeps_a_free_rows_slack(basic):
    # the free row's slack (column 2) has no finite bound to leave for:
    # completing the start keeps it on its row, whatever a maximum
    # matching of the start would drop
    lp = LinearProgram(objective=[1.0, 1.0], lower=[0.0, 0.0], upper=[2.0, 2.0],
                       a_rg=[[1.0, 1.0], [1.0, -1.0]], rg_upper=[np.inf, 1.0])
    vstat = np.full(4, AT_LOWER, dtype=np.int8)
    vstat[basic] = BASIC
    sol = solve_lp(lp, basis=Basis(vstat=vstat, basic=np.array(basic)))
    assert sol.status is LpStatus.OPTIMAL and sol.objective_value == 4.0
    assert 2 in sol.basis.basic


def test_basis_factor_solves_with_the_current_basis():
    # a sparse basis whose columns are replaced one by one: after each
    # change ftran and btran solve with the basis as it now stands
    rng = np.random.default_rng(3)
    m = 12
    basis = (sp.random(m, m, density=0.2, random_state=rng) + 4 * sp.eye(m)).toarray()
    factor = _BasisFactor(splu(sp.csc_matrix(basis)))
    for _ in range(20):
        col = sp.random(m, 1, density=0.3, random_state=rng).toarray().ravel()
        col[rng.integers(m)] += 1.0
        w = factor.ftran(col.copy())
        r = int(np.argmax(np.abs(w)))
        factor.update(r, w)
        basis[:, r] = col
        v = rng.standard_normal(m)
        assert np.allclose(factor.ftran(v.copy()), np.linalg.solve(basis, v),
                           rtol=0, atol=1e-10)
        assert np.allclose(factor.btran(v), np.linalg.solve(basis.T, v),
                           rtol=0, atol=1e-10)


def test_basis_factor_refactors_once_the_etas_outgrow_the_factor():
    # every eta here carries three nonzeros: the factor asks for a fresh
    # factorization at the first eta that takes their count past its own
    m = 10
    factor = _BasisFactor(splu(sp.identity(m, format="csc")))
    w = np.zeros(m)
    w[[0, 4, 7]] = (0.5, 2.0, -1.0)
    asks = [factor.update(4, w) for _ in range(m)]
    first = factor.lu.nnz // 3 + 1
    assert first <= m
    assert asks == [k >= first for k in range(1, m + 1)]
    assert factor.eta_nnz == 3 * m


@pytest.mark.parametrize("pivot, asks", [(1e-9, True), (-1e-9, True), (1e-7, False)])
def test_basis_factor_refactors_after_a_tiny_pivot(pivot, asks):
    factor = _BasisFactor(splu(sp.identity(4, format="csc")))
    w = np.array([0.0, pivot, 0.0, 0.0])
    assert factor.update(1, w) is asks


def _entering_as_masked(d, vstat, lo, up, gamma, rule):
    """Pricing as an eligibility mask over ``vstat`` and the column
    ranges, the reference the sign vector must reproduce."""
    free_range = up - lo > 0.0
    eligible = free_range & (((vstat == AT_LOWER) & (d > TOL))
                             | ((vstat == AT_UPPER) & (d < -TOL)))
    if not eligible.any():
        return -1, eligible
    if rule == _BLAND:
        return int(np.argmax(eligible)), eligible
    if rule == _PHASE1:
        score = np.where(eligible, np.abs(d), -1.0)
    else:
        weights = np.ones(d.size) if gamma is None else gamma
        score = np.where(eligible, d * d / weights, -1.0)
    return int(np.argmax(score)), eligible


# reduced costs around the tolerance, repeated values (ties), NaN and
# +-inf; column boxes that are open, fixed, or a free row's slack (both
# sides open)
_REDUCED = st.one_of(
    st.sampled_from([0.0, -0.0, TOL, -TOL, np.nextafter(TOL, 1.0),
                     -np.nextafter(TOL, 1.0), 0.5, -0.5, 2.0, -2.0,
                     np.inf, -np.inf, np.nan]),
    st.floats(-1e3, 1e3))
_BOXES = st.sampled_from([(0.0, 1.0), (-np.inf, 1.0), (0.0, np.inf), (2.0, 2.0),
                          (-np.inf, np.inf)])


@given(st.lists(st.tuples(_REDUCED, st.sampled_from([AT_LOWER, AT_UPPER, BASIC]),
                          _BOXES, st.sampled_from([1.0, 2.0, 1e10]) | st.floats(1.0, 1e10)),
                min_size=1, max_size=30),
       st.booleans(), st.sampled_from([_BLAND, _PHASE1, _DEVEX]))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_sign_vector_pricing_equals_the_masked_one(columns, unit_weights, rule):
    d, vstat, boxes, gamma = (np.array(v) for v in zip(*columns))
    vstat = vstat.astype(np.int8)
    lo, up = boxes[:, 0].copy(), boxes[:, 1].copy()
    gamma = None if unit_weights else gamma
    with np.errstate(invalid="ignore"):
        t = _signs(vstat, lo, up) * d
        want, eligible = _entering_as_masked(d, vstat, lo, up, gamma, rule)
        got = _entering(t, d, gamma, rule)
    np.testing.assert_array_equal(t > TOL, eligible)
    assert got == want


@st.composite
def feasible_iterates(draw):
    """Basics within ``TOL`` of their bounds, some of them by less than
    1e-9 apart (ties in the ratio test), some bounds infinite, and moving
    rows with ``|w|`` at and just above the 1e-10 cut."""
    size = draw(st.integers(1, 12))
    lob, upb, xb, w = [], [], [], []
    for _ in range(size):
        lo, up = draw(st.sampled_from([(-1.0, 2.0), (0.5, 0.5), (0.0, np.inf),
                                       (-np.inf, 1.0), (-np.inf, np.inf)]))
        ends = [b for b in (lo, up) if np.isfinite(b)]
        at = draw(st.sampled_from(ends)) if ends else draw(st.floats(-5.0, 5.0))
        gap = draw(st.sampled_from([0.0, 1e-10, 5e-10, 1e-9, 1.5e-9, 0.5 * TOL, TOL, 0.3]))
        x = draw(st.sampled_from([at - gap, at + gap]))
        x = min(max(x, lo - TOL), up + TOL)
        lob.append(lo)
        upb.append(up)
        xb.append(x)
        w.append(draw(st.sampled_from([0.0, 1e-10, -1e-10, np.nextafter(1e-10, 1.0),
                                       -np.nextafter(1e-10, 1.0), 1e-12, 1.0, -1.0, 0.5,
                                       -2.0]) | st.floats(-10.0, 10.0)))
    sigma = draw(st.sampled_from([1.0, -1.0]))
    return np.array(lob), np.array(upb), np.array(xb), np.array(w), sigma


@given(feasible_iterates())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_feasible_ratio_test_equals_the_general_one(case):
    lob, upb, xb, w, sigma = case
    lot, upt = lob - TOL, upb + TOL
    assert not (xb < lot).any() and not (xb > upt).any()
    abs_w = np.abs(w)
    idx = (abs_w > 1e-10).nonzero()[0]
    if not idx.size:
        return
    ti = sigma * w[idx]
    ratios, tgt = _row_ratios(idx, ti, xb, lob, upb, lot, upt, True)
    want_ratios, want_tgt = _row_ratios(idx, ti, xb, lob, upb, lot, upt, False)
    assert ratios.tobytes() == want_ratios.tobytes()
    assert tgt.tobytes() == want_tgt.tobytes()
    least = want_ratios.min()
    k = _leaving(ratios, least, abs_w[idx])
    assert k == _leaving(want_ratios, least, np.abs(ti))


def test_iteration_cap_raises_breakdown(monkeypatch):
    from shipems import lp as lp_module
    from shipems.errors import NumericalBreakdown
    rng = np.random.default_rng(13)
    c, a, b, lower, upper = _random_lp(rng)
    while a is None or len(c) < 4:
        c, a, b, lower, upper = _random_lp(rng)
    monkeypatch.setattr(lp_module, "_iteration_cap", lambda n, m: 1)
    with pytest.raises(NumericalBreakdown, match="iteration cap 1"):
        solve_lp(make_lp(c, a_ub=a, b_ub=b, lower=lower, upper=upper))


@pytest.fixture(scope="module")
def mission_window():
    """The 60-step window of synth seed 42 from its initial state: its
    crash basis is primal feasible and takes 60 pivots, the slack basis
    over 1,500, most of them in phase 1."""
    from shipems.builder import build_window_milp
    from shipems.io import parse_scenario, synth_scenario
    from shipems.model import ObjectiveWeights

    spec, _ = parse_scenario(synth_scenario(42))
    problem, _ = build_window_milp(spec, spec.initial_state(),
                                   ObjectiveWeights(0.005, 0.03, 0.05), 60)
    return problem


@pytest.mark.parametrize("start, iterations, factorizations, x_sha256", [
    ("slack", 1569, 90,
     "793e15bd4e62260490440f1404693c80f4d9b63d67eceb7feb8373606e10ff81"),
    ("crash", 60, 5,
     "9e0b0ea19b11b09cb354944d1d71fcb1e440348ce3ab043f72c6e0100cbc18b3"),
])
def test_mission_window_pivot_path_is_pinned(mission_window, start, iterations,
                                             factorizations, x_sha256):
    # the pivot path of the 60-step window, cold (mostly phase 1) and from
    # its crash basis (phase 2 throughout), pinned count for count and x
    # bit for bit: a rewrite of the pivot loop that is meant to do the
    # same arithmetic must leave all three as they are (numpy 2.4, scipy
    # 1.17, as the CI pins them)
    import hashlib
    warm = mission_window.fallback_basis() if start == "crash" else None
    sol = _SimplexCore(mission_window.lp).solve(warm=warm)
    assert sol.status is LpStatus.OPTIMAL
    assert (sol.iterations, sol.factorizations) == (iterations, factorizations)
    assert hashlib.sha256(sol.x.tobytes()).hexdigest() == x_sha256


def _clock_past_deadline_at_pivot_16(monkeypatch):
    """The simplex reads the clock every 16 pivots, from pivot 0; this
    clock reads 0 at pivot 0 and 1 at pivot 16, past a deadline of 0.5."""
    from types import SimpleNamespace
    ticks = iter(range(2))
    monkeypatch.setattr("shipems.lp.time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    return 0.5


def test_deadline_in_phase_2_returns_the_feasible_iterate(mission_window, monkeypatch):
    core = _SimplexCore(mission_window.lp)
    cold = core.solve()
    deadline = _clock_past_deadline_at_pivot_16(monkeypatch)
    cut = core.solve(warm=mission_window.fallback_basis(), deadline=deadline)
    assert cut.status is None and cut.iterations == 16
    assert core.point_feasible(cut.x)
    assert core.c @ cut.x <= cold.objective_value + 1e-7
    # only an optimum carries an objective value and reduced costs
    assert cut.objective_value == -np.inf and cut.reduced_costs is None
    resumed = core.solve(warm=cut.basis)
    assert resumed.status is LpStatus.OPTIMAL
    assert resumed.objective_value == pytest.approx(cold.objective_value, abs=1e-7)


def test_deadline_in_phase_1_returns_the_iterate(mission_window, monkeypatch):
    # the slack start violates rows, so pivot 16 is still in phase 1: the
    # iterate comes back as it stands, for the caller to judge
    core = _SimplexCore(mission_window.lp)
    deadline = _clock_past_deadline_at_pivot_16(monkeypatch)
    cut = core.solve(deadline=deadline)
    assert cut.status is None and cut.iterations == 16
    assert cut.x.shape == (core.n,) and not core.point_feasible(cut.x)
    assert cut.objective_value == -np.inf and cut.reduced_costs is None
    assert cut.basis is not None


def test_every_exit_returns_one_record():
    # the optimal, infeasible and empty-box exits of max 2x + y,
    # x + y <= 1 over [0, 2]^2, optimal at (1, 0), where y's reduced cost
    # is 1 - 2; the benchmark reads the pivot count as the fourth entry
    lp = make_lp([2.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], upper=[2.0, 2.0])
    core = _SimplexCore(lp)
    optimal = core.solve()
    assert isinstance(optimal, LpSolution)
    assert optimal[3] == optimal.iterations > 0
    np.testing.assert_allclose(optimal.x, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(optimal.reduced_costs, [0.0, -1.0], atol=1e-12)
    infeasible = core.solve(col_lo=np.array([1.0, 1.0]))
    assert infeasible.status is LpStatus.INFEASIBLE
    assert infeasible[3] == infeasible.iterations
    assert infeasible.x is None and infeasible.reduced_costs is None
    assert infeasible.objective_value == -np.inf and infeasible.basis is not None
    empty = core.solve(col_lo=np.array([3.0, 0.0]))
    assert empty == (LpStatus.INFEASIBLE, None, -np.inf, 0, None, None, 0)
    # solve_lp hands the core's record on as it is
    np.testing.assert_array_equal(solve_lp(lp).reduced_costs, optimal.reduced_costs)


def test_degenerate_cycling_guard():
    # classic highly degenerate instance; must terminate at the optimum
    c = [10.0, -57.0, -9.0, -24.0]
    a = [[0.5, -5.5, -2.5, 9.0],
         [0.5, -1.5, -0.5, 1.0],
         [1.0, 0.0, 0.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    sol = solve_lp(make_lp(c, a_ub=a, b_ub=b, upper=[100.0] * 4))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-7)


def _spy_splu(monkeypatch, singular_at=None):
    """The SuperLU calls the simplex core makes from here on, one entry
    per call; the ``singular_at``-th (from 1), if given, finds its
    matrix singular."""
    from shipems import lp as lp_module
    calls = []
    real = lp_module.splu

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        if len(calls) == singular_at:
            raise RuntimeError("Factor is exactly singular")
        return real(*args, **kwargs)

    monkeypatch.setattr(lp_module, "splu", spy)
    return calls


def _same_record(a, b):
    """Two solve records equal bit for bit."""
    return (a.status is b.status and np.array_equal(a.x, b.x)
            and a.objective_value == b.objective_value
            and a.iterations == b.iterations
            and np.array_equal(a.basis.vstat, b.basis.vstat)
            and np.array_equal(a.basis.basic, b.basis.basic)
            and np.array_equal(a.reduced_costs, b.reduced_costs)
            and a.factorizations == b.factorizations)


def _optimal_basis(core):
    """An optimal basis of ``core``, whose matrix is the last the core
    factored: the re-solve from it takes no pivot."""
    basis = core.solve().basis
    again = core.solve(warm=basis)
    assert again.status is LpStatus.OPTIMAL and again.iterations == 0
    return basis, again


def _patched(lp, data):
    """``lp`` with its row entries replaced by ``data``."""
    return LinearProgram(lp.objective, lp.lower, lp.upper,
                         sp.csr_matrix((data, lp.a_rg.indices, lp.a_rg.indptr),
                                       shape=lp.a_rg.shape),
                         lp.rg_lower, lp.rg_upper)


def test_a_resolve_from_the_factored_basis_reuses_its_factor(monkeypatch):
    lp, _ = _WINDOW
    core = _SimplexCore(lp)
    basis, first = _optimal_basis(core)
    calls = _spy_splu(monkeypatch)
    again = core.solve(warm=basis)
    assert calls == [] and again.factorizations == 0
    assert _same_record(again, first._replace(factorizations=0))


def test_a_patched_basic_column_is_factored_afresh(monkeypatch):
    # the same basis on a patched core: one entry of one of its
    # structural columns changed, so its matrix differs from the one
    # factored last
    lp, _ = _WINDOW
    core = _SimplexCore(lp)
    basis, _ = _optimal_basis(core)
    k = int(np.flatnonzero(np.isin(lp.a_rg.indices, basis.basic))[0])
    data = lp.a_rg.data.copy()
    data[k] *= 1.5
    patched = _patched(lp, data)
    assert core.patch(patched)
    calls = _spy_splu(monkeypatch)
    sol = core.solve(warm=basis)
    assert sol.factorizations >= 1 and len(calls) == sol.factorizations
    assert _same_record(sol, _SimplexCore(patched).solve(warm=basis))


def test_the_same_columns_in_another_order_are_factored_afresh(monkeypatch):
    lp, _ = _WINDOW
    core = _SimplexCore(lp)
    basis, first = _optimal_basis(core)
    calls = _spy_splu(monkeypatch)
    turned = core.solve(warm=Basis(basis.vstat, basis.basic[::-1]))
    assert len(calls) == turned.factorizations == 1
    assert turned.status is LpStatus.OPTIMAL
    assert turned.objective_value == pytest.approx(first.objective_value, abs=1e-9)


_WINDOW_BASIS = _SimplexCore(_WINDOW[0]).solve().basis


def _window_edits():
    """Edits of the window's row entries: (kind, which, factor).  ``basic``
    and ``nonbasic`` rescale one entry of a column in or out of the
    window's optimal basis, ``row_max`` rescales a row's largest entry,
    which moves the row's power-of-two scale when it crosses one, and
    ``row_pow2`` scales a whole row by a power of two, which changes its
    scale but none of its scaled entries."""
    kinds = st.sampled_from(["basic", "nonbasic", "row_max", "row_pow2"])
    return st.lists(st.tuples(kinds, st.integers(0, 10**6),
                              st.sampled_from([0.3, 0.75, 1.5, 3.0])), max_size=4)


@given(_window_edits(), st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_shared_start_is_exactly_an_unchanged_factored_basis(edits, reorder):
    # a core whose last factorization is the window's optimal basis is
    # patched and solved from that basis (``reorder``: with two of its
    # positions swapped); the record must equal a fresh core's, and the
    # start must share the last factor exactly when it lists the same
    # columns in the same positions and no scaled entry of them changed
    lp, _ = _WINDOW
    basis = _WINDOW_BASIS
    a = lp.a_rg
    data = a.data.copy()
    row_of = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    in_basis = np.isin(a.indices, basis.basic)
    for kind, which, factor in edits:
        if kind in ("basic", "nonbasic"):
            pool = np.flatnonzero(in_basis == (kind == "basic"))
            data[pool[which % pool.size]] *= factor
        else:
            rows = np.unique(row_of)
            r = rows[which % rows.size]
            entries = np.flatnonzero(row_of == r)
            if kind == "row_max":
                data[entries[np.argmax(np.abs(data[entries]))]] *= factor
            else:
                data[entries] *= 2.0 ** np.round(np.log2(factor))
    patched = _patched(lp, data)
    warm = basis
    if reorder:
        basic = basis.basic.copy()
        basic[[0, -1]] = basic[[-1, 0]]
        warm = Basis(basis.vstat, basic)

    core = _SimplexCore(lp)
    assert core.solve(warm=basis).factorizations == 1
    structural = basis.basic[basis.basic < lp.n_vars]
    before = _SimplexCore(lp).a_csr.toarray()[:, structural]
    after = _SimplexCore(patched).a_csr.toarray()[:, structural]
    shared = not reorder and np.array_equal(before, after)
    assert core.patch(patched)
    fresh = []
    factor = core._factor

    def spy(*args):
        out = factor(*args)
        fresh.append(out[1])
        return out

    core._factor = spy
    sol = core.solve(warm=warm)
    # the start's factorization, then any refactor while pivoting
    assert fresh[0] == (0 if shared else 1)
    assert sol.factorizations == sum(fresh)
    assert _same_record(sol, _SimplexCore(patched).solve(warm=warm)._replace(
        factorizations=sol.factorizations))


def test_a_value_written_back_is_factored_afresh(monkeypatch):
    # one entry of a basic column changed by one patch and restored by
    # the next: the matrix equals the one factored last, but the column
    # changed since, so the start factors afresh
    lp, _ = _WINDOW
    core = _SimplexCore(lp)
    basis, first = _optimal_basis(core)
    k = int(np.flatnonzero(np.isin(lp.a_rg.indices, basis.basic))[0])
    data = lp.a_rg.data.copy()
    data[k] *= 1.5
    assert core.patch(_patched(lp, data)) and core.patch(lp)
    calls = _spy_splu(monkeypatch)
    again = core.solve(warm=basis)
    assert len(calls) == again.factorizations == 1
    assert _same_record(again, first._replace(factorizations=1))


def test_a_singular_start_after_a_factored_one_is_repaired(monkeypatch):
    # the slack basis with the slack of row r swapped for a structural
    # column with no entry in row r: structurally singular
    lp, _ = _WINDOW
    core = _SimplexCore(lp)
    basis, first = _optimal_basis(core)
    n, m = core.n, core.m
    a = lp.a_rg.tocsc()
    j = int(np.flatnonzero(np.diff(a.indptr))[0])
    r = int(np.flatnonzero(~np.isin(np.arange(m), a.indices[a.indptr[j]:a.indptr[j + 1]])
                           & np.isfinite(core.row_lo))[0])
    lo = np.concatenate([core.col_lo, core.row_lo])
    up = np.concatenate([core.col_up, core.row_up])
    vstat, basic = core._initial_basis(lo, up, None)
    vstat[n + r], vstat[j], basic[r] = AT_LOWER, BASIC, j
    singular = Basis(vstat, basic)
    assert structural_rank(core._basis_matrix(basic)) == m - 1
    ranks = []
    repair = _SimplexCore._repair

    def spy(self, vstat, basic, lo, up, mat):
        out = repair(self, vstat, basic, lo, up, mat)
        ranks.append((structural_rank(mat), structural_rank(out[1])))
        return out

    monkeypatch.setattr(_SimplexCore, "_repair", spy)
    sol = core.solve(warm=singular)
    assert ranks[0] == (m - 1, m)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(first.objective_value, abs=1e-7)


def test_a_start_singular_at_a_refactor_gives_way_to_the_next(mission_window, monkeypatch):
    # the slack start of the 60-step window refactors while it pivots;
    # a refactor that proves singular ends that start and the fallback
    # begins afresh, with the pivots made so far counted
    lp = mission_window.lp
    crash = _SimplexCore(lp).solve(warm=mission_window.fallback_basis())
    core = _SimplexCore(lp)
    lo = np.concatenate([core.col_lo, core.row_lo])
    up = np.concatenate([core.col_up, core.row_up])
    slack = Basis(*core._initial_basis(lo, up, None))
    built = []

    def fallback():
        built.append(1)
        return mission_window.fallback_basis()

    calls = _spy_splu(monkeypatch, singular_at=2)
    sol = core.solve(warm=slack, fallback=fallback)
    assert built == [1] and len(calls) >= 3
    assert sol.factorizations == len(calls) - 1      # the failed call made none
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(crash.objective_value, abs=1e-7)
    assert sol.iterations > crash.iterations
    # the slack start has no next: there the singular refactor raises
    from shipems.errors import NumericalBreakdown
    _spy_splu(monkeypatch, singular_at=2)
    with pytest.raises(NumericalBreakdown, match="singular basis during pivoting"):
        _SimplexCore(lp).solve()
