"""Receding-horizon control versus the whole-mission baseline.

The fixed-horizon baseline solves one program across the entire mission
and applies it open loop; the receding-horizon controller re-solves a
short window every half second and applies only the first step.  On a
deterministic mission with the window spanning the mission they agree
exactly; with a short window the controller gives up a sliver of
service in exchange for a few hundred milliseconds of work per step
instead of one monolithic solve.
"""

import numpy as np

from shipems import (ObjectiveWeights, SolverConfig, compare_f1, run_fho,
                     run_rho, validate_trajectory)
from shipems.io import parse_scenario, synth_scenario

doc = synth_scenario(seed=21, n_loads=6, n_generators=2, n_storage=4,
                     steps=120, outage_s=35.0)
scenario, _ = parse_scenario(doc)
weights = ObjectiveWeights(0.005, 0.03, 0.05)

print("mission: 120 steps of 0.5 s; the big generator drops out for 35 s")
print("fleet: 2 batteries + 2 supercapacitors, one pulsed high-ramp load\n")

fho = run_fho(scenario, weights, cfg=SolverConfig(gap_tol=1e-6, rel_gap=1e-5))
print(f"baseline (one {scenario.steps}-step solve): O={fho.operability:.4f} "
      f"objective={fho.objective():.2f} wall={fho.total_wall_s:.1f}s")

full = run_rho(scenario, weights, horizon=scenario.steps)
print(f"receding, window = mission:        O={full.operability:.4f} "
      f"objective={full.objective():.2f} (matches the baseline to "
      f"{abs(full.objective() - fho.objective()):.1e})")

short = run_rho(scenario, weights, horizon=40,
                cfg=SolverConfig(gap_tol=1e-6, rel_gap=1e-4, deadline_s=0.45))
ms = short.solve_times * 1e3
print(f"receding, 40-step window:          O={short.operability:.4f} "
      f"objective={short.objective():.2f}")
print(f"  per-step time: max={ms.max():.0f}ms mean={ms.mean():.0f}ms "
      f"(deadline 450ms, {len(short.fallbacks)} fallbacks)")

delta = compare_f1(fho, short)
print(f"\nservice error of the short window vs the baseline: {delta:+.4%}")
for name, res in (("baseline", fho), ("short-window", short)):
    bad = validate_trajectory(res, scenario)
    print(f"  {name} trajectory invariants: "
          f"{'clean' if not bad else bad[:2]}")
