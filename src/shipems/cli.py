"""Command-line surface: run, compare, tune, validate, synth.

Exit codes: 0 success; 2 scenario file problems (parse/schema/dimension);
3 solver failures (infeasible window, numerical breakdown, decode
mismatch); 4 validation findings; 1 unexpected errors.  The default
output directory comes from ``--out`` or the SHIPEMS_OUT environment
variable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as sio
from .engine import ENGINE_GAP, compare_f1, run_fho, run_rho, validate_trajectory
from .errors import (BundleInvariantError, DecodeMismatch, InfeasibleWindow,
                     NonFiniteMerit, NumericalBreakdown, ScenarioError)
from .milp import SolverConfig
from .model import ObjectiveWeights
from .tuning import TunerConfig, make_mission_evaluator, tune_weights

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_SCENARIO = 2
EXIT_SOLVER = 3
EXIT_INVALID = 4

#: Penalty weights used when --weights is omitted: gentle storage
#: penalties in the same regime a descent tune lands in at desk scale.
FALLBACK_WEIGHTS = (0.0056, 0.0321, 0.0541)


def _parse_weights(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated weights")
    return ObjectiveWeights(*(float(p) for p in parts))


def _positive_float(text):
    value = float(text)
    if not (value > 0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _positive_int(text):
    value = int(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _resolve_weights(args):
    if args.weights is not None:
        return args.weights
    return ObjectiveWeights(*FALLBACK_WEIGHTS)


def _rho_config(args):
    """The engine's default solver settings, with ``--deadline-ms`` as the
    per-step wall budget."""
    deadline = None if args.deadline_ms is None else args.deadline_ms / 1e3
    return SolverConfig(gap_tol=ENGINE_GAP, deadline_s=deadline)


def _out_dir(args):
    return Path(args.out) if args.out else sio.default_output_dir()


def _print_timing(label, result):
    ms = result.solve_times * 1e3
    print(f"  {label:4s}  objective={result.objective():.6f}  "
          f"O={result.operability:.6f}  total={result.solve_times.sum():.2f}s  "
          f"max_step={ms.max():.1f}ms  mean_step={ms.mean():.1f}ms  "
          f"fallbacks={len(result.fallbacks)}")


def cmd_run(args):
    scenario, file_horizon = sio.load_scenario_with_horizon(args.scenario)
    weights = _resolve_weights(args)
    horizon = file_horizon if args.np is None else args.np
    if args.mode == "rho":
        result = run_rho(scenario, weights, horizon, cfg=_rho_config(args))
    else:
        result = run_fho(scenario, weights)
    out = sio.write_result_bundle(result, scenario, _out_dir(args) / args.mode)
    print(f"{args.mode} run of {args.scenario}: steps={result.steps} "
          f"horizon={result.horizon}")
    _print_timing(args.mode, result)
    print(f"  bundle written to {out}")
    return EXIT_OK


def cmd_compare(args):
    scenario, file_horizon = sio.load_scenario_with_horizon(args.scenario)
    weights = _resolve_weights(args)
    horizon = file_horizon if args.np is None else args.np
    fho = run_fho(scenario, weights)
    rho = run_rho(scenario, weights, horizon, cfg=_rho_config(args))
    delta = compare_f1(fho, rho)
    base = _out_dir(args)
    sio.write_result_bundle(fho, scenario, base / "fho",
                            extras={"delta_f1": delta})
    sio.write_result_bundle(rho, scenario, base / "rho",
                            extras={"delta_f1": delta})
    print(f"comparison on {args.scenario} (horizon {horizon}):")
    _print_timing("fho", fho)
    _print_timing("rho", rho)
    print(f"  delta_f1 = (f1_fho - f1_rho)/f1_fho = {delta:+.6%}")
    print(f"  bundles written under {base}")
    return EXIT_OK


def cmd_tune(args):
    scenario, _ = sio.load_scenario_with_horizon(args.scenario)
    evaluator = make_mission_evaluator(scenario, mode=args.mode,
                                       horizon=args.np)
    cfg = TunerConfig(initial=tuple(float(v) for v in args.initial.split(",")),
                      gamma=args.gamma, eps=args.eps, max_iters=args.max_iters)
    result = tune_weights(cfg, evaluator)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    sio.write_tuner_trace(result.trace, out / "tuner_trace.csv")
    w = result.weights
    print(f"tuned weights: throughput={w[0]:.6g} imbalance={w[1]:.6g} "
          f"terminal={w[2]:.6g}")
    print(f"  merit={result.merit:.6g} iterations={result.iterations} "
          f"evaluations={result.evaluations} converged={result.converged}")
    print(f"  trace written to {out / 'tuner_trace.csv'}")
    return EXIT_OK


def cmd_validate(args):
    scenario, horizon = sio.load_scenario_with_horizon(args.scenario)
    print(f"{args.scenario}: schema OK")
    print(f"  loads={scenario.n_loads} generators={scenario.n_generators} "
          f"storage={scenario.n_storage} steps={scenario.steps} "
          f"dt={scenario.dt_s}s horizon={horizon}")
    trips = (~scenario.availability()).sum()
    if trips:
        print(f"  generator outage steps: {int(trips)}")
    return EXIT_OK


def cmd_synth(args):
    doc = sio.synth_scenario(seed=args.seed, n_loads=args.loads,
                             n_generators=args.gens, n_storage=args.storage,
                             steps=args.steps, dt_s=args.dt)
    sio.save_scenario(doc, args.out)
    print(f"wrote {args.out} (seed={args.seed}, loads={args.loads}, "
          f"gens={args.gens}, storage={args.storage}, steps={args.steps})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shipems",
        description="Receding-horizon energy management for ship power systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--out", default=None,
                       help="output directory (default $SHIPEMS_OUT)")

    p_run = sub.add_parser("run", help="run one dispatch mission")
    add_common(p_run)
    p_run.add_argument("--mode", choices=("rho", "fho"), default="rho")
    p_run.add_argument("--np", type=_positive_int, default=None,
                       help="window length in steps (default from file)")
    p_run.add_argument("--weights", type=_parse_weights, default=None,
                       help="w1,w2,w3 scalarization weights")
    p_run.add_argument("--deadline-ms", type=_positive_float, default=None,
                       help="per-step wall budget: build, solve and decode")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both modes and report delta_f1")
    add_common(p_cmp)
    p_cmp.add_argument("--np", type=_positive_int, default=None)
    p_cmp.add_argument("--weights", type=_parse_weights, default=None)
    p_cmp.add_argument("--deadline-ms", type=_positive_float, default=None,
                       help="per-step wall budget of the RHO run: build, "
                            "solve and decode")
    p_cmp.set_defaults(func=cmd_compare)

    p_tune = sub.add_parser("tune", help="descend on the scalarization weights")
    add_common(p_tune)
    p_tune.add_argument("--gamma", type=float, default=0.05)
    p_tune.add_argument("--eps", type=float, default=1e-4)
    p_tune.add_argument("--max-iters", type=_positive_int, default=50)
    p_tune.add_argument("--initial", default="0.02,0.02,0.02")
    p_tune.add_argument("--mode", choices=("fho", "rho"), default="fho")
    p_tune.add_argument("--np", type=_positive_int, default=None)
    p_tune.set_defaults(func=cmd_tune)

    p_val = sub.add_parser("validate", help="schema and invariant report")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_syn = sub.add_parser("synth", help="write a deterministic synthetic scenario")
    p_syn.add_argument("--seed", type=int, required=True)
    p_syn.add_argument("--loads", type=_positive_int, default=8)
    p_syn.add_argument("--gens", type=_positive_int, default=2)
    p_syn.add_argument("--storage", type=_positive_int, default=4)
    p_syn.add_argument("--steps", type=_positive_int, default=240)
    p_syn.add_argument("--dt", type=_positive_float, default=0.5)
    p_syn.add_argument("--out", required=True)
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (InfeasibleWindow, NumericalBreakdown, DecodeMismatch,
            NonFiniteMerit) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BundleInvariantError as exc:
        print(f"result rejected: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as exc:  # pragma: no cover
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
