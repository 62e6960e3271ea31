"""Domain-type invariants and the small kinematic/scaling maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipems.model import (GeneratorSpec, LoadSpec, ObjectiveWeights,
                           ScenarioSpec, StorageClass, StorageSpec, soc_step)


def make_load(**kw):
    args = dict(id="L1", rated_mw=5.0, weight=1.0)
    args.update(kw)
    return LoadSpec(**args)


def make_gen(**kw):
    args = dict(id="G1", p_min_mw=0.0, p_max_mw=20.0,
                ramp_down_mw_s=-1.0, ramp_up_mw_s=1.0, initial_mw=5.0)
    args.update(kw)
    return GeneratorSpec(**args)


def make_storage(**kw):
    args = dict(id="B1", kind=StorageClass.BATTERY, p_min_mw=-10.0,
                p_max_mw=10.0, ramp_down_mw_s=-5.0, ramp_up_mw_s=5.0,
                capacity_mj=1000.0, initial_soc=0.5)
    args.update(kw)
    return StorageSpec(**args)


def w_hat_of(load):
    """A one-load scenario's w_hat entry for ``load``."""
    sc = ScenarioSpec(dt_s=0.5, loads=[load], generators=[], storage=[],
                      demand_mw=np.ones((1, 2)))
    return sc.w_hat[0]


class TestNormalizedWeight:
    def test_direct_product(self):
        assert w_hat_of(make_load(rated_mw=5.0, weight=1.0)) == 5.0

    def test_fractional_weight(self):
        assert w_hat_of(make_load(rated_mw=10.0, weight=0.1)) == pytest.approx(1.0)

    def test_zero_weight_annihilates(self):
        assert w_hat_of(make_load(rated_mw=123.0, weight=0.0)) == 0.0


class TestSocStep:
    def test_idle_is_identity(self):
        assert soc_step(0.5, 0.0, 7.0, 500.0) == 0.5

    def test_discharge_battery_sized(self):
        # 10 MW over 0.5 s draws 5 MJ from a 1000 MJ battery
        assert soc_step(0.5, 10.0, 0.5, 1000.0) == pytest.approx(0.495)

    def test_charge_supercap_sized(self):
        # charging pushes 5 MJ into a 200 MJ supercap
        assert soc_step(0.5, -10.0, 0.5, 200.0) == pytest.approx(0.525)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            soc_step(0.5, 1.0, 0.5, 0.0)

    @given(soc=st.floats(0, 1), p=st.floats(-10, 10), dt=st.floats(0.01, 10),
           cap=st.floats(1.0, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_sign_convention(self, soc, p, dt, cap):
        out = soc_step(soc, p, dt, cap)
        if p * dt / cap > 1e-12:
            assert out < soc  # discharging lowers SoC
        elif p * dt / cap < -1e-12:
            assert out > soc
        assert out == pytest.approx(soc - dt * p / cap, rel=1e-12, abs=1e-15)


class TestSpecInvariants:
    def test_load_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_load(rated_mw=0.0)
        with pytest.raises(ValueError):
            make_load(weight=-1.0)
        with pytest.raises(ValueError):
            make_load(steps=0)

    def test_generator_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_gen(p_min_mw=5.0, p_max_mw=1.0)
        with pytest.raises(ValueError):
            make_gen(ramp_down_mw_s=1.0)
        with pytest.raises(ValueError):
            make_gen(initial_mw=100.0)

    def test_storage_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_storage(p_min_mw=1.0)
        with pytest.raises(ValueError):
            make_storage(soc_min=0.9, soc_max=0.8)
        with pytest.raises(ValueError):
            make_storage(initial_soc=0.95)
        with pytest.raises(ValueError):
            make_storage(capacity_mj=-5.0)

    @pytest.mark.parametrize("initial_mw", [10.5, -10.5, np.inf, np.nan])
    def test_storage_initial_power_must_lie_in_box(self, initial_mw):
        # the previous step's power starts the ramp seam: outside the box
        # the first window has no feasible point
        with pytest.raises(ValueError, match="B1: initial power outside box"):
            make_storage(initial_mw=initial_mw)
        make_storage(initial_mw=10.0)
        make_storage(initial_mw=-10.0)

    def test_storage_class_priorities(self):
        bat = make_storage()
        sc = make_storage(id="S1", kind=StorageClass.SUPERCAPACITOR,
                          ramp_down_mw_s=-100.0, ramp_up_mw_s=100.0,
                          capacity_mj=200.0)
        assert sc.terminal_priority > bat.terminal_priority
        assert bat.terminal_priority == 0.5
        assert sc.terminal_priority == 1.0

    def test_weights_reject_negative(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(throughput=-0.1)


class TestScenarioSpec:
    def make(self, **kw):
        args = dict(
            dt_s=0.5,
            loads=[make_load(), make_load(id="L2", weight=0.2)],
            generators=[make_gen()],
            storage=[make_storage()],
            demand_mw=np.ones((2, 4)),
        )
        args.update(kw)
        return ScenarioSpec(**args)

    def test_basic_properties(self):
        sc = self.make()
        assert sc.steps == 4
        assert sc.n_loads == 2
        assert sc.pair_index.shape == (2, 0)
        np.testing.assert_allclose(sc.w_hat, [5.0, 1.0])
        assert sc.generator_available.shape == (1, 4) and sc.generator_available.all()

    def test_weight_override(self):
        # an override is applied to the loads (io does it at parse time):
        # the spec reads each load's weight from its LoadSpec alone
        sc = self.make(loads=[make_load(weight=0.5), make_load(id="L2", weight=0.5)])
        np.testing.assert_allclose(sc.w_hat, [2.5, 2.5])
        with pytest.raises(TypeError):
            self.make(weight_override=[0.5, 0.5])

    def test_pair_combinatorics(self):
        units = [make_storage(id=f"E{i}") for i in range(4)]
        sc = self.make(storage=units)
        assert sc.pair_index.T.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_arrays_are_read_only_copies(self):
        demand = np.ones((2, 4))
        avail = np.ones((1, 4), dtype=bool)
        sc = self.make(demand_mw=demand, generator_available=avail,
                       storage=[make_storage(id=f"E{i}") for i in range(3)])
        demand[0, 0] = 7.0
        avail[0, 0] = False
        assert sc.demand_mw[0, 0] == 1.0 and sc.generator_available.all()
        for name in ("demand_mw", "generator_available", "w_hat", "capacities",
                     "terminal_priorities", "pair_index"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sc, name)[0, ...] = 0

    def test_equal_specs_hash_equal(self):
        from shipems.io import parse_scenario, synth_scenario
        first, _ = parse_scenario(synth_scenario(1, steps=10))
        second, _ = parse_scenario(synth_scenario(1, steps=10))
        assert first is not second and first == second
        assert len({first: 1, second: 2}) == 1
        # -0.0 passes validation and equals 0.0, though its bytes differ
        zero = self.make(demand_mw=np.zeros((2, 4)))
        negative_zero = self.make(demand_mw=np.full((2, 4), -0.0))
        assert negative_zero == zero and hash(negative_zero) == hash(zero)

    def test_rejects_bad_demand(self):
        with pytest.raises(ValueError):
            self.make(demand_mw=np.ones((3, 4)))
        with pytest.raises(ValueError):
            self.make(demand_mw=-np.ones((2, 4)))

    @pytest.mark.parametrize("dt", [0.0, np.inf, np.nan])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt_s"):
            self.make(dt_s=dt)

    def test_rejects_bad_availability(self):
        with pytest.raises(ValueError):
            self.make(generator_available=np.ones((2, 4), dtype=bool))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            self.make(generators=[make_gen(id="L1")])

    def test_initial_state(self):
        st0 = self.make().initial_state()
        np.testing.assert_allclose(st0.soc, [0.5])
        np.testing.assert_allclose(st0.prev_generator_power, [5.0])
        assert st0.step_index == 0
