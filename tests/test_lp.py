"""Bounded-variable simplex vs. an independent vertex-enumeration oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import structural_rank

from shipems.errors import DimensionMismatch
from shipems.lp import (AT_LOWER, AT_UPPER, BASIC, Basis, LinearProgram,
                        LpStatus, _BasisFactor, _SimplexCore, solve_lp)

from oracles import lp_vertex_oracle


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
       n=st.integers(1, 12), density=st.floats(0.05, 0.6))
@settings(max_examples=80, deadline=None)
def test_structural_repair_keeps_the_matched_columns(seed, m, n, density):
    rng = np.random.default_rng(seed)
    a = sp.random(m, n, density=density, random_state=rng, format="csr",
                  data_rvs=lambda k: rng.uniform(0.5, 2.0, k))
    lp = LinearProgram(objective=np.ones(n), lower=np.zeros(n),
                       upper=np.ones(n), a_rg=a, rg_lower=np.full(m, -1.0),
                       rg_upper=np.full(m, 1.0))
    core = _SimplexCore(lp)
    basic = rng.choice(n + m, size=m, replace=False)
    vstat = np.where(rng.random(n + m) < 0.5, AT_LOWER, AT_UPPER).astype(np.int8)
    vstat[basic] = BASIC
    before = basic.copy()
    mat = core._basis_matrix(basic)
    rank = structural_rank(mat)
    # positions that some maximum matching leaves out
    spare = [i for i in range(m)
             if structural_rank(mat[:, np.delete(np.arange(m), i)]) == rank]
    lo = np.concatenate([core.col_lo, core.row_lo])
    up = np.concatenate([core.col_up, core.row_up])
    repaired = core._repair(vstat, basic, lo, up, mat)
    kept = basic == before
    assert structural_rank(repaired) == m
    assert (repaired != core._basis_matrix(basic)).nnz == 0
    # every column of a maximum matching stays at its position, and
    # each of the others gave way to a slack
    assert kept.sum() == rank
    assert np.all(basic[~kept] >= n)
    assert np.unique(basic).size == m
    assert np.array_equal(np.flatnonzero(vstat == BASIC), np.sort(basic))
    if rank == m - 1:
        # the one position given up is the last one that can be
        assert np.flatnonzero(~kept).tolist() == [max(spare)]


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
    status, _, obj, _, basis = core.solve()
    assert status is LpStatus.OPTIMAL and obj == pytest.approx(1.0, abs=1e-12)
    assert basis.vstat[2] == AT_UPPER
    assert core.patch(LinearProgram(objective=lp.objective, lower=lp.lower,
                                    upper=lp.upper, a_rg=lp.a_rg,
                                    rg_lower=[0.5], rg_upper=[np.inf]))
    status, x, obj, _, _ = core.solve(warm=basis)
    assert status is LpStatus.OPTIMAL
    np.testing.assert_allclose(x, [2.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("vstat_basic, basic", [
    ([0], [0, 0]),              # a column listed twice
    ([0, 1], [0, 0]),
    ([0, 1], [0]),              # too few basic positions
    ([0, 1, 2], [0, 1, 2]),     # too many
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


def test_basis_factor_solves_with_the_current_basis():
    # a sparse basis whose columns are replaced one by one: after each
    # change ftran and btran solve with the basis as it now stands
    rng = np.random.default_rng(3)
    m = 12
    basis = (sp.random(m, m, density=0.2, random_state=rng) + 4 * sp.eye(m)).toarray()
    factor = _BasisFactor(sp.csc_matrix(basis))
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
    factor = _BasisFactor(sp.identity(m, format="csc"))
    w = np.zeros(m)
    w[[0, 4, 7]] = (0.5, 2.0, -1.0)
    asks = [factor.update(4, w) for _ in range(m)]
    first = factor.lu.nnz // 3 + 1
    assert first <= m
    assert asks == [k >= first for k in range(1, m + 1)]
    assert factor.eta_nnz == 3 * m


@pytest.mark.parametrize("pivot, asks", [(1e-9, True), (-1e-9, True), (1e-7, False)])
def test_basis_factor_refactors_after_a_tiny_pivot(pivot, asks):
    factor = _BasisFactor(sp.identity(4, format="csc"))
    w = np.array([0.0, pivot, 0.0, 0.0])
    assert factor.update(1, w) is asks


def test_iteration_cap_raises_breakdown():
    from shipems.errors import NumericalBreakdown
    rng = np.random.default_rng(13)
    c, a, b, lower, upper = _random_lp(rng)
    while a is None or len(c) < 4:
        c, a, b, lower, upper = _random_lp(rng)
    with pytest.raises(NumericalBreakdown):
        solve_lp(make_lp(c, a_ub=a, b_ub=b, lower=lower, upper=upper),
                 max_iter=1)


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
    status, x, obj, iters, basis = core.solve(warm=mission_window.fallback_basis(),
                                              deadline=deadline)
    assert status is None and iters == 16
    assert core.point_feasible(x)
    assert obj == core.c @ x
    assert obj <= cold[2] + 1e-7
    resumed = core.solve(warm=basis)
    assert resumed[0] is LpStatus.OPTIMAL
    assert resumed[2] == pytest.approx(cold[2], abs=1e-7)


def test_deadline_in_phase_1_returns_no_point(mission_window, monkeypatch):
    core = _SimplexCore(mission_window.lp)
    deadline = _clock_past_deadline_at_pivot_16(monkeypatch)
    status, x, obj, iters, _ = core.solve(deadline=deadline)
    assert status is None and iters == 16
    assert x is None and obj == -np.inf


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
