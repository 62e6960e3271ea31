"""Weight-descent behaviour on analytic functions and a tiny mission."""

import numpy as np
import pytest

from shipems.errors import NonFiniteMerit, ZeroNorm
from shipems.model import (GeneratorSpec, LoadSpec, ObjectiveTerms,
                           ScenarioSpec, StorageClass, StorageSpec)
from shipems.tuning import (TunerConfig, default_norms, make_mission_evaluator,
                            normalized_merit, tune_weights)


class TestNormalizedMerit:
    def test_best_case(self):
        terms = ObjectiveTerms(served=10.0, throughput=0.0, imbalance=0.0,
                               terminal_soc=4.0)
        assert normalized_merit(terms, (10.0, 5.0, 5.0, 4.0)) == pytest.approx(-2.0)

    def test_worst_case(self):
        terms = ObjectiveTerms(served=0.0, throughput=5.0, imbalance=3.0,
                               terminal_soc=0.0)
        assert normalized_merit(terms, (10.0, 5.0, 3.0, 4.0)) == pytest.approx(2.0)

    def test_half_norms_cancel(self):
        terms = ObjectiveTerms(served=5.0, throughput=2.5, imbalance=1.5,
                               terminal_soc=2.0)
        assert normalized_merit(terms, (10.0, 5.0, 3.0, 4.0)) == pytest.approx(0.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNorm):
            normalized_merit(ObjectiveTerms(1, 1, 1, 1), (1.0, 0.0, 1.0, 1.0))


def quadratic(center=0.05):
    return lambda w: float(np.sum((w - center) ** 2))


class TestQuadraticDescent:
    def test_converges_near_center(self):
        cfg = TunerConfig(initial=(0.5, 0.4, 0.3), gamma=0.3, eps=1e-8,
                          max_iters=500)
        res = tune_weights(cfg, quadratic())
        assert res.converged
        assert np.all(np.abs(res.weights - 0.05) < 1e-3)

    def test_eps_stop_is_finite_and_small(self):
        cfg = TunerConfig(initial=(0.5, 0.5, 0.5), gamma=0.05, eps=1e-4,
                          max_iters=500)
        res = tune_weights(cfg, quadratic())
        assert res.converged
        assert res.iterations < 500
        # stopping rule: final accepted improvement below eps
        merits = [m for _, m in res.trace]
        assert merits[-2] - merits[-1] < 1e-4

    def test_oversized_step_is_guarded(self):
        # pathological gamma: backtracking halves it instead of diverging
        cfg = TunerConfig(initial=(0.9, 0.9, 0.9), gamma=500.0, eps=1e-6,
                          max_iters=50)
        res = tune_weights(cfg, quadratic())
        assert np.isfinite(res.merit)
        assert res.merit <= quadratic()(np.array([0.9, 0.9, 0.9]))
        assert np.all(res.weights >= 0)

    def test_best_seen_semantics(self):
        cfg = TunerConfig(initial=(0.3, 0.3, 0.3), gamma=0.2, eps=1e-9,
                          max_iters=200)
        res = tune_weights(cfg, quadratic())
        best_in_trace = min(m for _, m in res.trace)
        assert res.merit == best_in_trace

    def test_clamps_to_nonnegative(self):
        cfg = TunerConfig(initial=(0.01, 0.01, 0.01), gamma=1.0, eps=1e-10,
                          max_iters=100)
        res = tune_weights(cfg, quadratic(center=-0.5))
        assert np.all(res.weights >= 0.0)

    def test_nonfinite_aborts_with_trace(self):
        calls = {"n": 0}

        def bad(w):
            calls["n"] += 1
            return np.nan if calls["n"] > 3 else float(np.sum(w))

        with pytest.raises(NonFiniteMerit) as err:
            tune_weights(TunerConfig(initial=(0.1, 0.1, 0.1)), bad)
        assert err.value.trace  # partial trace preserved


@pytest.mark.parametrize("name, value", [
    ("probe", 0.0), ("probe", -1e-3), ("probe", np.nan), ("probe", np.inf),
    ("eps", np.nan), ("eps", np.inf), ("gamma", np.nan), ("gamma", np.inf)])
def test_step_settings_must_be_finite_and_positive(name, value):
    # probe 0 divided by zero in the gradient, eps NaN never converged
    # and gamma NaN reported convergence without moving
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        TunerConfig(**{name: value})


@pytest.mark.parametrize("initial", [
    (np.nan, 0.02, 0.02), (0.02, np.nan, 0.02), (0.02, 0.02, np.inf)])
def test_initial_weights_must_be_finite(initial):
    # NaN or inf passed the check and the first evaluation then raised
    # NonFiniteMerit, a solver error for what is an input error
    with pytest.raises(ValueError, match="three finite, nonnegative"):
        TunerConfig(initial=initial)


@pytest.mark.parametrize("value", [0, -3, True, 2.0])
def test_max_iters_must_be_a_positive_int(value):
    # 0 or -3 returned the initial weights after 0 iterations; True ran one
    with pytest.raises(ValueError, match="max_iters must be an int >= 1"):
        TunerConfig(max_iters=value)


def tiny_scenario():
    loads = [LoadSpec(id="L0", rated_mw=4.0, weight=1.0),
             LoadSpec(id="L1", rated_mw=3.0, weight=0.2)]
    gens = [GeneratorSpec(id="G0", p_min_mw=0.0, p_max_mw=5.0,
                          ramp_down_mw_s=-2.0, ramp_up_mw_s=2.0, initial_mw=3.0)]
    sto = [StorageSpec(id="B0", kind=StorageClass.BATTERY, p_min_mw=-3.0,
                       p_max_mw=3.0, ramp_down_mw_s=-5.0, ramp_up_mw_s=5.0,
                       capacity_mj=30.0, initial_soc=0.4),
           StorageSpec(id="S0", kind=StorageClass.SUPERCAPACITOR, p_min_mw=-3.0,
                       p_max_mw=3.0, ramp_down_mw_s=-50.0, ramp_up_mw_s=50.0,
                       capacity_mj=8.0, initial_soc=0.6)]
    rng = np.random.default_rng(17)
    demand = rng.uniform(1.0, 4.0, (2, 10))
    demand[:, 5:8] += 2.5  # mild shortfall window
    return ScenarioSpec(dt_s=0.5, loads=loads, generators=gens, storage=sto,
                        demand_mw=demand)


def test_default_norms_are_positive_and_bounding():
    sc = tiny_scenario()
    n1, n2, n3, n4 = default_norms(sc)
    assert min(n1, n2, n3, n4) > 0
    assert n1 == pytest.approx(sc.w_hat.sum() * sc.steps)
    assert n2 == pytest.approx(6.0 * sc.steps)
    assert n4 == pytest.approx(0.5 * 0.8 + 1.0 * 0.8)


def test_mission_descent_beats_probed_zero_baseline():
    sc = tiny_scenario()
    evaluator = make_mission_evaluator(sc, mode="fho")
    cfg = TunerConfig(initial=(0.02, 0.02, 0.05), gamma=0.05, eps=1e-5,
                      max_iters=8)
    res = tune_weights(cfg, evaluator)
    # grid probe around the zero vector: tuned weights must do at least
    # as well as a zero-weight run nudged by +1e-3 per coordinate
    probed = evaluator(np.array([1e-3, 1e-3, 1e-3]))
    assert res.merit <= probed + 1e-12
    assert np.all(res.weights >= 0)


def test_rho_evaluator_takes_horizon_zero_as_given():
    # only None means "unset": a zero horizon reaches run_rho and is
    # refused there instead of quietly becoming the 60-step default
    sc = tiny_scenario()
    with pytest.raises(ValueError, match="horizon"):
        make_mission_evaluator(sc, mode="rho", horizon=0)(np.full(3, 0.02))
    default = make_mission_evaluator(sc, mode="rho")(np.full(3, 0.02))
    assert default == make_mission_evaluator(sc, mode="rho", horizon=sc.steps)(
        np.full(3, 0.02))


def test_unknown_evaluator_mode_fails_when_made():
    # a bad mode fails before any tuning work is spent
    with pytest.raises(ValueError, match="bogus"):
        make_mission_evaluator(tiny_scenario(), mode="bogus")
