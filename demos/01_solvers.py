"""Tour of the optimization layer: exact LPs, then branch and bound.

The dispatch engine sits on a bounded-variable primal simplex; this
script pokes it directly with textbook-sized problems so you can see
the raw interfaces before any power-system modeling enters the picture.
"""

import numpy as np

from shipems import (LinearProgram, MilpProblem, SolverConfig, solve_lp,
                     solve_milp)

print("=== a tiny LP ===")
# maximize 3x + 2y subject to x + y <= 4, x + 3y <= 6, x, y in [0, 100];
# every row is a ranged row, so an inequality leaves its lower side open
lp = LinearProgram(objective=[3.0, 2.0], lower=[0.0, 0.0], upper=[100.0, 100.0],
                   a_rg=[[1.0, 1.0], [1.0, 3.0]], rg_lower=[-np.inf, -np.inf],
                   rg_upper=[4.0, 6.0])
sol = solve_lp(lp)
print(f"status={sol.status.value}  x={np.round(sol.x, 6)}  "
      f"objective={sol.objective_value:.6f}  iterations={sol.iterations}")

print("\n=== one row form: lower <= a.x <= upper ===")
# keep x + y pinned between 1 and 2 while minimizing it
lp = LinearProgram(objective=[-1.0, -1.0], lower=[0.0, 0.0], upper=[5.0, 5.0],
                   a_rg=[[1.0, 1.0]], rg_lower=[1.0], rg_upper=[2.0])
sol = solve_lp(lp)
print(f"x + y settles at {sol.x.sum():.6f} (lower edge of the range)")

print("\n=== a small integer program ===")
# maximize 5a + 4b with 6a + 4b <= 10 and both variables integer in [0, 2];
# enumerating the nine grid points puts the optimum at (1, 1) -> 9
lp = LinearProgram(objective=[5.0, 4.0], lower=[0.0, 0.0], upper=[2.0, 2.0],
                   a_rg=[[6.0, 4.0]], rg_lower=[-np.inf], rg_upper=[10.0])
milp = MilpProblem(lp=lp, integrality=[True, True])
sol = solve_milp(milp)
print(f"status={sol.status.value}  x={sol.x}  objective={sol.objective_value}"
      f"  nodes={sol.nodes_explored}")

print("\n=== deadlines return honest partial results ===")
sol = solve_milp(milp, SolverConfig(deadline_s=0.0))
print(f"with an already-expired deadline: status={sol.status.value}, "
      f"incumbent={'yes' if sol.has_incumbent else 'no'}")
print("\nA timed-out search never masquerades as optimal; the dispatch")
print("engine relies on that flag when it runs against its per-step budget.")
