"""Build and inspect a single dispatch window.

A window is one mixed-integer program: serve-or-shed levels per load,
power per generator, discharge/charge splits and SoC per storage unit,
and the gap auxiliaries that linearize the SoC-balancing objective.
Here we assemble one by hand on a reference-style fleet (two 1000 MJ
batteries, two 200 MJ supercapacitors, all 10 MW) and a generator that
cannot keep up with total demand, then read the plan back.
"""

import numpy as np

from shipems import (GeneratorSpec, LoadSpec, ObjectiveWeights, ScenarioSpec,
                     StorageClass, StorageSpec, build_window_milp, decode_plan,
                     solve_milp)

loads = [
    LoadSpec(id="propulsion", rated_mw=12.0, weight=1.0),
    LoadSpec(id="radar", rated_mw=6.0, weight=0.8),
    LoadSpec(id="hotel", rated_mw=5.0, weight=0.3),
    LoadSpec(id="laundry", rated_mw=3.0, weight=0.05, steps=2),
]
gens = [GeneratorSpec(id="gt1", p_min_mw=0.0, p_max_mw=18.0,
                      ramp_down_mw_s=-1.0, ramp_up_mw_s=1.0, initial_mw=16.0)]
storage = [
    StorageSpec(id="bess1", kind=StorageClass.BATTERY, p_min_mw=-10, p_max_mw=10,
                ramp_down_mw_s=-5, ramp_up_mw_s=5, capacity_mj=1000.0,
                initial_soc=0.45),
    StorageSpec(id="bess2", kind=StorageClass.BATTERY, p_min_mw=-10, p_max_mw=10,
                ramp_down_mw_s=-5, ramp_up_mw_s=5, capacity_mj=1000.0,
                initial_soc=0.62),
    StorageSpec(id="sc1", kind=StorageClass.SUPERCAPACITOR, p_min_mw=-10,
                p_max_mw=10, ramp_down_mw_s=-100, ramp_up_mw_s=100,
                capacity_mj=200.0, initial_soc=0.3),
    StorageSpec(id="sc2", kind=StorageClass.SUPERCAPACITOR, p_min_mw=-10,
                p_max_mw=10, ramp_down_mw_s=-100, ramp_up_mw_s=100,
                capacity_mj=200.0, initial_soc=0.7),
]

# 20 steps of half a second; demand runs above the generator alone
steps = 20
rng = np.random.default_rng(1)
demand = np.vstack([
    np.full(steps, 12.0),
    6.0 * np.ones(steps),
    np.clip(5.0 * (0.8 + 0.2 * np.sin(np.linspace(0, 3, steps))), 0, 5),
    np.full(steps, 3.0),
])
scenario = ScenarioSpec(dt_s=0.5, loads=loads, generators=gens,
                        storage=storage, demand_mw=demand)

weights = ObjectiveWeights(throughput=0.005, imbalance=0.03, terminal=0.05)
problem, layout = build_window_milp(scenario, scenario.initial_state(),
                                    weights, horizon=steps)
print(f"window: {problem.lp.n_vars} columns, {problem.lp.n_rows} rows, "
      f"{int(problem.integrality.sum())} integer (the stepped load)")

solution = solve_milp(problem)
plan = decode_plan(solution, layout, scenario.initial_state())
print(f"solved: {solution.status.value}, {solution.nodes_explored} nodes, "
      f"objective {solution.objective_value:.4f}\n")

print("served fraction per load (first 10 steps):")
for i, ld in enumerate(loads):
    row = " ".join(f"{v:4.2f}" for v in plan.load_fraction[i, :10])
    print(f"  {ld.id:10s} w={ld.weight:4.2f}  {row}")

print("\nstorage power (MW, +discharge) and SoC at steps 0/10/19:")
for e, s in enumerate(storage):
    print(f"  {s.id:6s} P={plan.storage_power[e, [0, 10, 19]].round(2)}  "
          f"SoC={plan.soc[e, [0, 10, 19]].round(3)}")

served = (demand * plan.load_fraction).sum(axis=0)
supply = plan.gen_power.sum(axis=0) + plan.storage_power.sum(axis=0)
print(f"\npower balance slack per step (min {np.min(supply - served):.2e} MW);")
print("the lowest-weight load carries the shedding, the batteries cover")
print("the rest, and the supercapacitors hold charge for ramp events.")
print(f"window terms: served={plan.terms.served:.2f} "
      f"throughput={plan.terms.throughput:.2f} "
      f"imbalance={plan.terms.imbalance:.3f} "
      f"terminal={plan.terms.terminal_soc:.3f}")
