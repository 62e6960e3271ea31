"""Benchmark workloads: the missions, their solver settings, and the
seeded scenario each run solves.

Every workload uses the synth fleet shape (8 loads, 2 generators, 2
batteries plus 2 supercapacitors, 240 steps of 0.5 s) and the weights
(0.005, 0.03, 0.05).  No workload sets a wall-clock deadline: a
deadline stop would make the trajectory, the counts and the objective
depend on machine load.

The run seed does not pick a new synth mission.  Missions from
different synth seeds differ too much in work (at window 8, seed 44
explores 12,872 nodes where seed 42 explores 279), so figures from
different seeds could not be compared.  Instead the seed draws a
uniform relative jitter of +-0.2 % on every demand entry of the
workload's mission; the program only ever sees the resulting scenario.
The RHO workloads do nearly the same work under it (``rho_ref``:
62,525-62,865 pivots).  The whole-mission LP does not: its cold simplex
path changes with any perturbation of the data (3,601-5,036 pivots
over four seeds, at 0.2 % and at 0.02 % alike), so ``fho_ref`` keeps
the unperturbed mission on every seed.  ``jitter=0`` gives the
unperturbed mission.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shipems import io as sio
from shipems.milp import SolverConfig
from shipems.model import ObjectiveWeights, ScenarioSpec

WEIGHTS = ObjectiveWeights(throughput=0.005, imbalance=0.03, terminal=0.05)
JITTER = 0.002


@dataclass(frozen=True)
class Workload:
    """One mission run the same way on every repetition."""

    name: str
    mode: str            # "rho" or "fho"
    mission_seed: int    # synth_scenario seed of the mission
    horizon: int         # RHO window in steps; FHO spans the mission
    rel_gap: float
    steps: int = 240
    served_check: bool = False   # compare the served term with the FHO optimum
    jitter: float = JITTER       # relative demand jitter drawn from the seed

    def config(self) -> SolverConfig:
        return SolverConfig(gap_tol=1e-6, rel_gap=self.rel_gap)


#: ``rho_ref`` and ``rho_branch`` are runnable by name but are not in
#: BENCHMARK.json; bench/README.md says why they left the measured set.
WORKLOADS = {w.name: w for w in (
    Workload("rho_ref", "rho", 42, 60, 1e-4, served_check=True),
    Workload("rho_short", "rho", 42, 8, 1e-4),
    Workload("fho_ref", "fho", 42, 240, 1e-5, jitter=0.0),
    Workload("rho_branch", "rho", 44, 8, 1e-4),
)}


def scenario_doc(workload: Workload, seed: int) -> dict:
    """The workload's synth mission with seeded demand jitter applied."""
    doc = sio.synth_scenario(workload.mission_seed, steps=workload.steps)
    jitter = workload.jitter
    if jitter:
        rng = np.random.default_rng(seed)
        rated = {ld["id"]: ld["rated_mw"] for ld in doc["loads"]}
        inline = doc["demand"]["inline"]
        for load_id, series in inline.items():
            d = np.asarray(series) * (1.0 + jitter * rng.uniform(-1.0, 1.0, len(series)))
            inline[load_id] = [float(v) for v in np.round(np.clip(d, 0.0, rated[load_id]), 4)]
    return doc


def make_scenario(workload: Workload, seed: int) -> ScenarioSpec:
    spec, _ = sio.parse_scenario(scenario_doc(workload, seed))
    return spec
