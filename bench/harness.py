"""One benchmark run: set-up, timed missions, correctness gate, metrics.

An untraced run (``trace=False``) repeats the workload's mission until
``seconds`` have passed (at least once) and reports the end-to-end
metrics as medians over the repetitions, times scaled to the reference
host's speed (hostspeed.py).  A traced run repeats pairs
of one untraced and one traced mission, checks that both give the
same trajectory, and reports the per-layer metrics.  The process is
single threaded: the harness starts no worker threads, and the set-up
probes are child processes run one at a time.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
import scipy

from shipems import engine
from shipems import io as sio

import gate
import layers
from hostspeed import HostSpeed
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> unit of every end-to-end metric an untraced run reports
E2E_UNITS = {
    "setup_s": "s", "mission_s": "s", "step_p50_ms": "ms",
    "step_p95_ms": "ms", "operability": "fraction", "objective": "score",
    "peak_rss_mb": "MB",
}

_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.make_scenario(workloads.Workload(**{fields!r}), {seed!r})
print(time.perf_counter() - start)
"""


class Outcome:
    """Steps attempted and failed, and the failure messages of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def mission(self, result, scenario):
        self.attempted += result.steps
        self.failed += len(result.fallbacks)
        self.failures += gate.trajectory_failures(result, scenario)

    def raised(self, exc, scenario):
        self.attempted += scenario.steps
        self.failed += scenario.steps
        self.failures.append(f"mission raised {type(exc).__name__}: {exc}")


def setup_seconds(workload, seed) -> float:
    """Import shipems, synthesize and parse the scenario in a fresh process."""
    code = _SETUP_PROBE.format(src=str(ROOT / "src"), bench=str(HERE),
                               fields=dataclasses.asdict(workload),
                               seed=seed)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def io_times(workload, seed, reps=5):
    """Median in-process synth and parse times (ms), and the scenario."""
    synth, parse = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        doc = wl.scenario_doc(workload, seed)
        t1 = time.perf_counter()
        scenario, _ = sio.parse_scenario(doc)
        synth.append(t1 - t0)
        parse.append(time.perf_counter() - t1)
    return 1e3 * median(synth), 1e3 * median(parse), scenario


def run_mission(workload, scenario):
    """One closed-loop (RHO) or whole-mission (FHO) run, timed.

    Garbage from an earlier mission is collected first, outside the
    timed region, so no mission pays for collecting another's.
    """
    gc.collect()
    start = time.perf_counter()
    if workload.mode == "rho":
        result = engine.run_rho(scenario, wl.WEIGHTS, workload.horizon,
                                cfg=workload.config())
    else:
        result = engine.run_fho(scenario, wl.WEIGHTS, cfg=workload.config())
    return result, time.perf_counter() - start


def _step_ms(result, q) -> float:
    # FHO plans once: its single step is the whole-mission solve
    if result.mode == "fho":
        return 1e3 * float(result.solve_times[0])
    return 1e3 * float(np.percentile(result.solve_times, q))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "shipems").glob("*.py")))


def host_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "src.lines": src_lines()}


def measure(workload, seed, seconds, trace, setup_reps=5, span_path=None):
    """Run one workload; returns (outcome, metrics, info).

    ``metrics`` holds every end-to-end metric (untraced) or every
    per-layer metric (traced) by name, as (value, unit); it is empty
    when a mission raised.  End-to-end times are scaled by the host
    speed factor (see hostspeed.py); per-layer times are as measured.
    ``info`` holds ungated figures: the HiGHS time, the host factor and
    the unscaled end-to-end times.
    """
    speed = HostSpeed()
    speed.sample()
    setup = [] if trace else [setup_seconds(workload, seed) for _ in range(setup_reps)]
    speed.sample()
    synth_ms, parse_ms, scenario = io_times(workload, seed)
    outcome = Outcome()
    plain, plain_s, traced_s, per_rep = [], [], [], []
    tracer = layers.Tracer()
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        try:
            result, secs = run_mission(workload, scenario)
            outcome.mission(result, scenario)
            plain.append(result)
            plain_s.append(secs)
            speed.sample(3)
            if len(plain) == 1:
                # the allocator keeps freed memory, so later repetitions
                # (whose number depends on host speed) would raise the peak
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace:
                first = len(tracer.spans)
                with tracer.installed():
                    traced, secs = tracer.wrap("engine.mission", run_mission)(
                        workload, scenario)
                outcome.mission(traced, scenario)
                traced_s.append(secs)
                if not gate.same_trajectory(result, traced):
                    outcome.failures.append("traced trajectory differs from untraced")
                per_rep.append(layers.mission_layers(tracer.spans[first:],
                                                     len(traced.fallbacks)))
        except Exception as exc:  # a raising mission fails the run, reported below
            outcome.raised(exc, scenario)
            return outcome, {}, {}
    if not all(gate.same_trajectory(plain[0], r) for r in plain[1:]):
        outcome.failures.append("repeated missions gave different trajectories")
    try:
        failures, highs_s = gate.reference_failures(workload, scenario, wl.WEIGHTS,
                                                    plain[0])
    except RuntimeError as exc:  # HiGHS found no solution
        failures, highs_s = [str(exc)], float("nan")
    outcome.failures += failures
    info = {"ref.highs_ms": 1e3 * highs_s, "repetitions": len(plain),
            "host_factor": speed.factor()}

    if not trace:
        raw = {"setup_s": median(setup), "mission_s": median(plain_s),
               "step_p50_ms": median(_step_ms(r, 50) for r in plain),
               "step_p95_ms": median(_step_ms(r, 95) for r in plain)}
        info["raw"] = raw
        values = {k: info["host_factor"] * v for k, v in raw.items()}
        values.update({"operability": plain[0].operability,
                       "objective": plain[0].objective(), "peak_rss_mb": peak_mb})
        return outcome, {k: (v, E2E_UNITS[k]) for k, v in values.items()}, info

    if span_path is not None:
        tracer.write(span_path)
    counts = [k for k, unit in layers.LAYER_UNITS.items() if unit == "count"]
    if any(rep[k] != per_rep[0][k] for rep in per_rep[1:] for k in counts if k in rep):
        outcome.failures.append("traced counts differ between repetitions")
    values = {k: median(rep[k] for rep in per_rep) for k in per_rep[0]}
    values.update({
        "io.synth_ms": synth_ms, "io.parse_ms": parse_ms,
        "ref.highs_ms": info["ref.highs_ms"],
        "trace.overhead_pct": 100.0 * (median(traced_s) / median(plain_s) - 1.0),
        "src.lines": src_lines(),
    })
    return outcome, {k: (values[k], unit) for k, unit in layers.LAYER_UNITS.items()}, info
