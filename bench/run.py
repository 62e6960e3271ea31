#!/usr/bin/env python3
"""Benchmark of the shipems receding-horizon control loop.

Run from the root of a checkout:

    python3 bench/run.py --workload rho_short --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (and writes the spans to bench/out/).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
when every correctness check passed.  ``--jitter 0`` runs the
unperturbed mission, whose traced counts bench/README.md lists.
Workloads, metrics and their rationale: bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jitter", type=float, default=None,
                   help="relative demand jitter (default: the workload's; 0 = unperturbed mission)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # pin the BLAS pool before numpy loads; set-up probes inherit it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "shipems" / "__init__.py").is_file():
        print(f"error: no shipems sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shipems
    if SRC.resolve() not in Path(shipems.__file__).resolve().parents:
        print(f"error: shipems imported from {shipems.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.jitter is not None:
        workload = dataclasses.replace(workload, jitter=args.jitter)
    span_path = None
    if args.trace:
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        span_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"

    outcome, metrics, info = harness.measure(
        workload, args.seed, args.seconds, bool(args.trace), span_path=span_path)

    print("host " + json.dumps(harness.host_record()))
    print("reference " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:10s} {name:22s} {value:16.6f} {unit}")
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not outcome.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
