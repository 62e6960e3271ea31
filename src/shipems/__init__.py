"""Receding-horizon energy management for shipboard power systems.

Layered library: an exact bounded-variable simplex (`lp`), branch and
bound on top of it (`milp`), the ship-system domain model (`model`),
the plant rules -- limits, unwind guards and objective terms -- that
the builder, fallback and audit share (`plant`), the window builder
(`builder`), the mission engines and metrics (`engine`), weight tuning
(`tuning`), and file/CLI plumbing (`io`, `cli`).
"""

from .builder import build_window_milp, decode_plan, window_variable_count
from .engine import (MissionResult, audit_shedding_order, compare_f1,
                     operability, run_fho, run_rho, validate_trajectory)
from .errors import (BundleInvariantError, DecodeMismatch, DimensionError,
                     DimensionMismatch, InfeasibleWindow, NonFiniteMerit,
                     NumericalBreakdown, ParseError, ScenarioError,
                     SchemaError, ZeroDenominator, ZeroNorm)
from .io import (load_scenario, load_scenario_with_horizon, read_summary,
                 save_scenario, scenario_document, scenarios_equal,
                 synth_scenario, write_result_bundle, write_tuner_trace)
from .lp import Basis, LinearProgram, LpSolution, LpStatus, solve_lp
from .milp import (MilpProblem, MilpSolution, MilpStatus, SolverConfig,
                   solve_milp)
from .model import (DispatchPlan, GeneratorSpec, LoadSpec, ObjectiveTerms,
                    ObjectiveWeights, ScenarioSpec, StorageClass, StorageSpec,
                    SystemState, soc_step)
from .tuning import (TunerConfig, TunerResult, default_norms,
                     make_mission_evaluator, normalized_merit, tune_weights)

__version__ = "0.1.0"
