"""Descent-based selection of the objective scalarization weights.

The merit of a weight vector is the normalized combination
``-f1_bar + f2_bar + f3_bar - f4_bar`` of the four mission terms
(lower is better).  The driving update is the classic secant-style
descent; because the merit is a scalar field over three weights, the
gradient is estimated by coordinate-wise forward finite differences
(three extra mission evaluations per iteration), with step halving
whenever a move would increase the merit.  Iteration stops when the
merit improvement falls below ``eps`` or at the iteration cap; the
best-seen weights are returned either way, clamped elementwise to
nonnegative values.

Each coordinate probe is an independent evaluation and may run
concurrently; the outer descent loop is sequential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import run_fho, run_rho
from .errors import NonFiniteMerit, ZeroNorm
from .model import ObjectiveTerms, ObjectiveWeights, ScenarioSpec


#: Smallest step size the line search tries before it gives up.
MIN_GAMMA = 1e-7


@dataclass
class TunerConfig:
    initial: Sequence[float] = (0.02, 0.02, 0.02)
    gamma: float = 0.05
    eps: float = 1e-4
    max_iters: int = 200
    probe: float = 1e-3

    def __post_init__(self):
        for name in ("gamma", "eps", "probe"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        arr = np.asarray(self.initial, dtype=float)
        if arr.shape != (3,) or not (np.isfinite(arr) & (arr >= 0)).all():
            raise ValueError("initial weights must be three finite, nonnegative "
                             f"values, got {self.initial}")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an int >= 1, got {self.max_iters!r}")


@dataclass
class TunerResult:
    weights: np.ndarray
    merit: float
    trace: list = field(default_factory=list)   # (weights, merit) per accepted step
    converged: bool = False
    iterations: int = 0
    evaluations: int = 0


def normalized_merit(terms: ObjectiveTerms, norms: Sequence[float]) -> float:
    """Scalar merit of mission terms, each divided by its normalizer.

    Service and terminal SoC count negatively (more is better), storage
    throughput and SoC imbalance positively; lower merit is better.
    """
    n1, n2, n3, n4 = norms
    if min(n1, n2, n3, n4) <= 0:
        raise ZeroNorm("merit normalizers must be positive")
    return (-terms.served / n1 + terms.throughput / n2
            + terms.imbalance / n3 - terms.terminal_soc / n4)


def default_norms(scenario: ScenarioSpec):
    """Normalizers that put each mission term roughly in [0, 1].

    Service: everything served for the whole mission.  Throughput:
    every unit at full power every step.  Imbalance: every pair at the
    maximal gap every step.  Terminal SoC: every unit full at its cap.
    Empty fleets fall back to 1.0 so the merit stays defined.
    """
    T = scenario.steps
    n1 = scenario.normalized_weights().sum() * T
    n2 = sum(s.p_max_mw for s in scenario.storage) * T
    n3 = sum(max(scenario.storage[l].soc_max, scenario.storage[m].soc_max)
             for l, m in scenario.storage_pairs()) * T
    n4 = sum(s.terminal_priority * s.soc_max for s in scenario.storage)
    return (max(n1, 1e-12), n2 or 1.0, n3 or 1.0, n4 or 1.0)


def tune_weights(cfg: TunerConfig,
                 evaluator: Callable[[np.ndarray], float]) -> TunerResult:
    """Minimize ``evaluator`` over the three scalarization weights.

    ``evaluator`` must be deterministic for fixed weights (the mission
    solver is).  Raises NonFiniteMerit (with the trace so far attached)
    if an evaluation comes back NaN/inf.
    """
    def ev(w):
        val = float(evaluator(np.asarray(w, dtype=float)))
        if not np.isfinite(val):
            raise NonFiniteMerit(f"merit not finite at weights {w}", trace=trace)
        return val

    w = np.array(cfg.initial, dtype=float)
    trace: list = []
    merit = ev(w)
    evals = 1
    trace.append((w.copy(), merit))
    best_w, best_m = w.copy(), merit
    converged = False
    iters = 0

    for iters in range(1, cfg.max_iters + 1):
        grad = np.zeros(3)
        for k in range(3):
            probe = w.copy()
            probe[k] += cfg.probe
            grad[k] = (ev(probe) - merit) / cfg.probe
            evals += 1

        new_w, new_m = None, None
        gamma = cfg.gamma
        while gamma >= MIN_GAMMA:
            cand = np.clip(w - gamma * grad, 0.0, None)
            cand_m = ev(cand)
            evals += 1
            if cand_m <= merit + 1e-15:
                new_w, new_m = cand, cand_m
                break
            gamma *= 0.5  # halve on merit increase
        if new_w is None:
            # no step of any size improves: the merit step is zero,
            # which satisfies the eps stopping rule trivially
            converged = True
            break

        improvement = merit - new_m
        w, merit = new_w, new_m
        trace.append((w.copy(), merit))
        if merit < best_m:
            best_w, best_m = w.copy(), merit
        if improvement < cfg.eps:
            converged = True
            break

    return TunerResult(weights=best_w, merit=best_m, trace=trace,
                       converged=converged, iterations=iters,
                       evaluations=evals)


def make_mission_evaluator(scenario: ScenarioSpec, mode: str = "fho",
                           horizon: Optional[int] = None):
    """Evaluator mapping a weight vector to the mission merit.

    Runs the whole-mission solve (or a receding-horizon run when
    ``mode="rho"``) under the candidate weights and scores the applied
    trajectory with ``default_norms(scenario)``.  Tuning is expensive,
    so point it at a reduced scenario.
    """
    norms = default_norms(scenario)

    def evaluate(w):
        weights = ObjectiveWeights(*np.clip(w, 0.0, None))
        if mode == "fho":
            res = run_fho(scenario, weights)
        elif mode == "rho":
            res = run_rho(scenario, weights,
                          min(scenario.steps, 60) if horizon is None else horizon)
        else:
            raise ValueError(f"unknown evaluator mode {mode!r}")
        return normalized_merit(res.terms, norms)

    return evaluate
