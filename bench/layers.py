"""Spans at the layer boundaries of the control loop, and the per-layer
metrics computed from them.

The tracer wraps, for the duration of one traced mission:

* ``shipems.engine.build_window_milp``, ``solve_milp`` and
  ``decode_plan`` -- wrapped as attributes of the engine module, which
  is where the engine looks them up;
* ``shipems.lp._SimplexCore.__init__`` and ``.solve`` (the 4th element
  of the ``solve`` return value is the pivot count);
* ``shipems.lp.splu``, the LU refactorization.

``_SimplexCore`` is private; it is the only place pivots are visible
until the solver reports its own per-solve statistics.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from statistics import median

from shipems import engine, lp


class Tracer:
    """Records one span per wrapped call: name, start, end, parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        """``fn`` recorded as span ``name``; ``note(result)`` adds fields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span.update(note(out))
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries; restore the originals on exit."""
        targets = [
            (engine, "build_window_milp", "builder.build", _note_build),
            (engine, "solve_milp", "milp.solve", _note_milp),
            (engine, "decode_plan", "builder.decode", None),
            (lp._SimplexCore, "__init__", "lp.core_init", None),
            (lp._SimplexCore, "solve", "lp.solve", _note_lp),
            (lp, "splu", "lp.splu", None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, note in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _note_build(out):
    problem = out[0].lp
    nnz = sum(b.nnz for b in (problem.a_ub, problem.a_eq, problem.a_rg) if b is not None)
    return {"rows": problem.n_rows, "cols": problem.n_vars, "nnz": int(nnz)}


def _note_milp(out):
    return {"nodes": int(out.nodes_explored), "status": out.status.value}


def _note_lp(out):
    return {"pivots": int(out[3])}


#: name -> unit of every per-layer metric a traced run reports
LAYER_UNITS = {
    "io.synth_ms": "ms", "io.parse_ms": "ms",
    "builder.build_ms": "ms", "builder.build_p50_ms": "ms",
    "builder.decode_ms": "ms", "builder.rows": "count",
    "builder.cols": "count", "builder.nnz": "count",
    "milp.solve_ms": "ms", "milp.nodes": "count",
    "milp.timed_out": "count", "milp.self_ms": "ms",
    "lp.solves": "count", "lp.cores": "count", "lp.core_setup_ms": "ms",
    "lp.solve_ms": "ms", "lp.pivots": "count", "lp.pivots_p50": "count",
    "lp.us_per_pivot": "us", "lp.refactors": "count", "lp.refactor_ms": "ms",
    "engine.self_ms": "ms", "engine.fallbacks": "count",
    "ref.highs_ms": "ms", "trace.overhead_pct": "%", "src.lines": "lines",
}


def mission_layers(spans, fallbacks: int) -> dict:
    """Per-layer metrics of one traced mission.

    ``spans`` are that mission's spans, rooted at one ``engine.mission``
    span.  A span's self time is its duration minus its children's.
    """
    by_name: dict[str, list] = {}
    child_s: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]

    def ms(name):
        return 1e3 * sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_ms(name):
        return ms(name) - 1e3 * sum(child_s.get(s["id"], 0.0) for s in by_name.get(name, ()))

    builds = by_name.get("builder.build", [])
    milps = by_name.get("milp.solve", [])
    solves = by_name.get("lp.solve", [])
    pivots = [s["pivots"] for s in solves]
    first = builds[0] if builds else {"rows": 0, "cols": 0, "nnz": 0}
    lp_ms = ms("lp.solve")
    return {
        "builder.build_ms": ms("builder.build"),
        "builder.build_p50_ms": 1e3 * median(s["end"] - s["start"] for s in builds) if builds else 0.0,
        "builder.decode_ms": ms("builder.decode"),
        "builder.rows": first["rows"], "builder.cols": first["cols"], "builder.nnz": first["nnz"],
        "milp.solve_ms": ms("milp.solve"),
        "milp.nodes": sum(s["nodes"] for s in milps),
        "milp.timed_out": sum(s["status"] == "timed_out" for s in milps),
        "milp.self_ms": self_ms("milp.solve"),
        "lp.solves": len(solves),
        "lp.cores": len(by_name.get("lp.core_init", [])),
        "lp.core_setup_ms": ms("lp.core_init"),
        "lp.solve_ms": lp_ms,
        "lp.pivots": sum(pivots),
        "lp.pivots_p50": median(pivots) if pivots else 0,
        "lp.us_per_pivot": 1e3 * lp_ms / max(sum(pivots), 1),
        "lp.refactors": len(by_name.get("lp.splu", [])),
        "lp.refactor_ms": ms("lp.splu"),
        "engine.self_ms": self_ms("engine.mission"),
        "engine.fallbacks": fallbacks,
    }
