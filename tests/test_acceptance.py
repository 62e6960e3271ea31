"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured figures so a plain
``pytest -s tests/test_acceptance.py`` doubles as the acceptance
report.  Scenario scales are desk-sized but keep the production fleet
shape (two battery plus two supercapacitor units with the reference
power/energy/ramp ratings) wherever a criterion calls for it.
"""

import time

import numpy as np
import pytest

from shipems.engine import (audit_shedding_order, compare_f1, operability,
                            run_fho, run_rho, validate_trajectory)
from shipems.io import parse_scenario, synth_scenario
from shipems.milp import MilpStatus, SolverConfig, solve_milp
from shipems.model import ObjectiveWeights, StorageClass
from shipems.tuning import TunerConfig, make_mission_evaluator, tune_weights

from oracles import milp_enum_oracle
from test_engine import fake_result, gen, load, reweighted, scenario
from test_milp import lp_backend, make_milp, random_milp

REFERENCE_WEIGHTS = ObjectiveWeights(0.005, 0.03, 0.05)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS {text}")


# -- shared heavy runs -------------------------------------------------------

@pytest.fixture(scope="module")
def hrrl_mission():
    """Reference-fleet shortfall mission: T=240 steps, window 60."""
    doc = synth_scenario(seed=42, n_loads=8, n_generators=2, n_storage=4,
                         steps=240)
    spec, _ = parse_scenario(doc)
    return spec


@pytest.fixture(scope="module")
def hrrl_rho(hrrl_mission):
    cfg = SolverConfig(gap_tol=1e-6, rel_gap=1e-4, deadline_s=0.45)
    return run_rho(hrrl_mission, REFERENCE_WEIGHTS, horizon=60, cfg=cfg)


@pytest.fixture(scope="module")
def hrrl_fho(hrrl_mission):
    return run_fho(hrrl_mission, REFERENCE_WEIGHTS,
                   cfg=SolverConfig(gap_tol=1e-6, rel_gap=1e-5))


@pytest.fixture(scope="module")
def surplus_run():
    doc = synth_scenario(seed=7, n_loads=5, n_generators=2, n_storage=4,
                         steps=100, shortfall=False, surplus_margin=1.2)
    spec, _ = parse_scenario(doc)
    res = run_rho(spec, ObjectiveWeights(0.0, 0.03, 0.5), horizon=30,
                  cfg=SolverConfig(gap_tol=1e-6, rel_gap=1e-4))
    return spec, res


# -- criteria ----------------------------------------------------------------

def test_criterion_1_milp_oracle_equivalence():
    # 200 seeded random problems (<= 8 integer vars of range <= 3,
    # <= 6 continuous); objective must match exhaustive enumeration
    # within 1e-6 on every instance, full sweep in under 60 s
    rng = np.random.default_rng(20240601)
    t0 = time.monotonic()
    solved = 0
    for _ in range(200):
        c, a, b, lo, up, is_int = random_milp(rng)
        st, _, obj = milp_enum_oracle(c, a, b, lo, up, is_int, lp_backend)
        sol = solve_milp(make_milp(c, a, b, lo, up, is_int))
        assert st == "optimal"
        assert sol.status is MilpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(obj, abs=1e-6)
        solved += 1
    elapsed = time.monotonic() - t0
    assert solved == 200
    assert elapsed < 60.0
    report(1, f"200/200 instances match the enumeration oracle within "
              f"1e-6 in {elapsed:.1f}s")


def test_criterion_2_rho_fho_equivalence():
    # ten seeded desk scenarios (n_L <= 8, n_E = 4, T <= 120): a
    # receding-horizon run whose window spans the mission reproduces
    # the whole-mission objective within 1e-6
    weights = ObjectiveWeights(0.005, 0.02, 0.05)
    worst = 0.0
    for i, (seed, steps, n_loads, shortfall) in enumerate([
            (101, 24, 4, False), (102, 24, 5, True), (103, 30, 4, True),
            (104, 30, 6, False), (105, 36, 5, True), (106, 36, 4, False),
            (107, 42, 6, True), (108, 42, 4, False), (109, 48, 5, True),
            (110, 48, 6, False)]):
        doc = synth_scenario(seed=seed, n_loads=n_loads, n_generators=2,
                             n_storage=4, steps=steps, shortfall=shortfall,
                             outage_s=4.0)
        spec, _ = parse_scenario(doc)
        fho = run_fho(spec, weights)
        rho = run_rho(spec, weights, horizon=spec.steps)
        gap = abs(rho.objective() - fho.objective())
        worst = max(worst, gap)
        assert gap <= 1e-6, f"scenario {seed}: objective gap {gap}"
    report(2, f"10/10 full-horizon runs match the baseline objective; "
              f"worst gap {worst:.2e} (tolerance 1e-6)")


def test_criterion_3_rho_near_optimality(hrrl_mission, hrrl_rho, hrrl_fho):
    # reference-fleet shortfall mission: relative service loss of the
    # receding-horizon run within [0, 1%]
    assert hrrl_fho.fully_optimal
    delta = compare_f1(hrrl_fho, hrrl_rho)
    assert 0.0 <= delta <= 0.01, f"delta_f1 {delta:+.4%} outside [0, 1%]"
    report(3, f"delta_f1 = {delta:+.4%} within [0, 1%] "
              f"(O_rho={hrrl_rho.operability:.4f}, O_fho={hrrl_fho.operability:.4f})")


def test_criterion_4_real_time_bound(hrrl_rho):
    # every receding-horizon step (build + solve + decode) under 500 ms
    ms = hrrl_rho.solve_times * 1e3
    assert ms.max() < 500.0, f"max step {ms.max():.0f} ms"
    assert not hrrl_rho.fallbacks
    hist, edges = np.histogram(ms, bins=[0, 50, 100, 200, 300, 400, 500])
    dist = ", ".join(f"<{int(edges[i+1])}ms:{hist[i]}" for i in range(len(hist)))
    report(4, f"per-step solve time max={ms.max():.0f}ms mean={ms.mean():.0f}ms "
              f"p95={np.percentile(ms, 95):.0f}ms over {len(ms)} steps [{dist}]")


def _same_class_gaps(spec, res):
    classes = [s.kind for s in spec.storage]
    groups = [[e for e, c in enumerate(classes) if c is kind]
              for kind in (StorageClass.BATTERY, StorageClass.SUPERCAPACITOR)]
    gaps = np.zeros(res.steps)
    for k in range(res.steps):
        g = 0.0
        for idx in groups:
            for i, a in enumerate(idx):
                for b in idx[i + 1:]:
                    g = max(g, abs(res.soc[a, k] - res.soc[b, k]))
        gaps[k] = g
    return gaps


def test_criterion_5_soc_balancing(surplus_run):
    # distinct initial SoCs in a generation-surplus mission: the largest
    # same-class SoC gap drops below 0.01 before mission end
    spec, res = surplus_run
    gaps = _same_class_gaps(spec, res)
    assert gaps[0] > 0.05, "scenario must start imbalanced"
    hit = np.flatnonzero(gaps < 0.01)
    assert hit.size and hit[0] < res.steps - 1
    assert gaps[-1] < 0.01
    report(5, f"same-class SoC gap {gaps[0]:.3f} -> below 0.01 at step "
              f"{hit[0]} of {res.steps}, {gaps[-1]:.4f} at mission end")


def test_criterion_6_terminal_priority(surplus_run):
    # supercapacitors outrank batteries for terminal SoC and nothing
    # exceeds the 0.8 ceiling
    spec, res = surplus_run
    term = res.soc[:, -1]
    bess = [t for t, s in zip(term, spec.storage) if s.kind is StorageClass.BATTERY]
    scs = [t for t, s in zip(term, spec.storage) if s.kind is StorageClass.SUPERCAPACITOR]
    for s in spec.storage:
        assert s.terminal_priority is not None
    assert min(scs) >= max(bess) - 1e-9
    assert np.all(term <= 0.8 + 1e-9)
    report(6, f"terminal SoC: supercaps {np.round(scs, 4)} >= batteries "
              f"{np.round(bess, 4)}, all <= 0.8")


def test_criterion_7_shedding_order(hrrl_mission, hrrl_rho, hrrl_fho):
    # exchange check on the shortfall trajectories: no feasible,
    # strictly improving transfer from a served lighter load to a shed
    # heavier one exists anywhere
    assert hrrl_rho.operability < 1.0, "shortfall must force shedding"
    bad_fho = audit_shedding_order(hrrl_fho, hrrl_mission)
    bad_rho = audit_shedding_order(hrrl_rho, hrrl_mission)
    assert bad_fho == []
    assert bad_rho == []
    report(7, f"no priority-inverting exchanges on either trajectory "
              f"({hrrl_rho.steps} steps each, O_rho={hrrl_rho.operability:.3f})")


def test_criterion_8_weight_monotonicity():
    # literal weighted-sum exchange property on a fixed small mission:
    # optimal storage throughput is non-increasing in its penalty, and
    # optimal terminal SoC non-decreasing in its reward
    doc = synth_scenario(seed=5, n_loads=4, n_generators=1, n_storage=2,
                         steps=20, outage_s=4.0, trip_after=0.35)
    spec, _ = parse_scenario(doc)
    cfg = SolverConfig(gap_tol=1e-9)
    f2 = [run_fho(spec, ObjectiveWeights(w1, 0.02, 0.05), cfg=cfg).terms.throughput
          for w1 in (0.0, 0.005, 0.05, 0.5)]
    for a, b in zip(f2, f2[1:]):
        assert b <= a + 1e-6
    f4 = [run_fho(spec, ObjectiveWeights(0.005, 0.02, w3), cfg=cfg).terms.terminal_soc
          for w3 in (0.0, 0.05, 0.5)]
    for a, b in zip(f4, f4[1:]):
        assert b >= a - 1e-6
    report(8, f"f2 sweep {np.round(f2, 3)} non-increasing; "
              f"f4 sweep {np.round(f4, 4)} non-decreasing")


def test_criterion_9_tuner_sanity():
    # descent on the convex quadratic stops via the 1e-4 rule in well
    # under 500 iterations; on a desk mission the returned weights beat
    # the zero-weight baseline and stay inside (0, 1)
    quad = lambda w: float(np.sum((w - 0.05) ** 2))
    res_q = tune_weights(TunerConfig(initial=(0.5, 0.4, 0.3), gamma=0.3,
                                     eps=1e-4, max_iters=500), quad)
    assert res_q.converged
    assert res_q.iterations < 500

    doc = synth_scenario(seed=11, n_loads=4, n_generators=2, n_storage=2,
                         steps=24, outage_s=8.0, trip_after=0.25)
    spec, _ = parse_scenario(doc)
    evaluator = make_mission_evaluator(spec, mode="fho")
    res = tune_weights(TunerConfig(initial=(0.02, 0.02, 0.05), gamma=0.2,
                                   eps=1e-5, max_iters=15, probe=0.05),
                       evaluator)
    baseline = evaluator(np.zeros(3))
    assert res.merit <= baseline + 1e-12
    assert np.all(res.weights > 0.0) and np.all(res.weights < 1.0)
    report(9, f"quadratic stop in {res_q.iterations} iterations; mission tune "
              f"-> w={np.round(res.weights, 4)} merit {res.merit:.4f} vs "
              f"zero-weight baseline {baseline:.4f}")


def test_criterion_10_operability_metric():
    # unit identities of the service metric, then invariance of the
    # ratio under uniform weight scaling to 1e-12 relative
    sc = scenario([load(0, rated=1.0, weight=1.0), load(1, rated=1.0, weight=3.0)],
                  [gen(0)], [], np.ones((2, 4)))
    assert fake_result(sc, np.ones((2, 4))).operability == 1.0
    half = np.ones((2, 4))
    half[:, 2:] = 0.0
    assert fake_result(sc, half).operability == pytest.approx(0.5, abs=1e-15)
    onlyheavy = np.zeros((2, 4))
    onlyheavy[1] = 1.0
    assert fake_result(sc, onlyheavy).operability == pytest.approx(0.75, abs=1e-15)

    rng = np.random.default_rng(77)
    frac = rng.uniform(0, 1, (2, 4))
    base = fake_result(sc, frac).operability
    worst = 0.0
    for lam in (7.3, 0.0042, 1913.0):
        val = fake_result(reweighted(sc, lam), frac).operability
        worst = max(worst, abs(val - base) / base)
    assert worst <= 1e-12
    report(10, f"unit identities exact; weight-scaling drift {worst:.2e} "
               f"(tolerance 1e-12 relative)")
