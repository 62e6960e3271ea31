"""Domain types for the ship power system.

Units are fixed across the package: powers in MW, energy in MJ, times
in seconds, state of charge as a fraction of capacity in [0, 1].
Positive storage power is discharge (supply side of the power balance),
so discharging lowers the state of charge.

Scenario objects are immutable after construction; builders treat them
as read-only, which makes concurrent window builds safe.  A
``ScenarioSpec`` holds each scenario fact once: it keeps read-only
copies of its demand and availability arrays and derives ``w_hat``,
``capacities``, ``terminal_priorities`` and ``pair_index`` from its
units when it is built.  A load's weight lives on its ``LoadSpec``
alone; a scenario file's ``weight_override`` section is applied to the
loads when the file is parsed (see ``io``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class StorageClass(Enum):
    BATTERY = "battery"
    SUPERCAPACITOR = "supercapacitor"


#: Default end-of-window SoC priorities per storage class.  Supercaps
#: are kept charged ahead of batteries so fast-ramp reserve survives the
#: mission; the ratio only fixes the ordering and scenario files may
#: override per unit.
DEFAULT_TERMINAL_PRIORITY = {
    StorageClass.BATTERY: 0.5,
    StorageClass.SUPERCAPACITOR: 1.0,
}

DEFAULT_SOC_MIN = 0.1
DEFAULT_SOC_MAX = 0.8


@dataclass(frozen=True)
class LoadSpec:
    """One shipboard load.

    ``steps`` is None for continuously modulatable loads; an integer
    n >= 1 means service levels are restricted to multiples of 1/n
    (n = 1 is a plain on/off load).
    """

    id: str
    rated_mw: float
    weight: float
    steps: Optional[int] = None
    name: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.rated_mw) and self.rated_mw > 0):
            raise ValueError(f"load {self.id}: rated_mw must be finite and > 0")
        if not (np.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"load {self.id}: weight must be finite and >= 0")
        if self.steps is not None and (int(self.steps) != self.steps or self.steps < 1):
            raise ValueError(f"load {self.id}: steps must be a positive integer")

    @property
    def is_stepped(self) -> bool:
        return self.steps is not None

    @property
    def step_size(self) -> float:
        """Service-fraction granularity (1/steps; 1.0 for continuous)."""
        return 1.0 / self.steps if self.steps else 1.0


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    p_min_mw: float
    p_max_mw: float
    ramp_down_mw_s: float
    ramp_up_mw_s: float
    initial_mw: float = 0.0
    name: str = ""

    def __post_init__(self):
        if not -np.inf < self.p_min_mw <= self.p_max_mw < np.inf:
            raise ValueError(f"generator {self.id}: need finite p_min_mw <= p_max_mw")
        if not (self.ramp_down_mw_s < 0 < self.ramp_up_mw_s):
            raise ValueError(
                f"generator {self.id}: need ramp_down < 0 < ramp_up")
        if not (self.p_min_mw <= self.initial_mw <= self.p_max_mw):
            raise ValueError(f"generator {self.id}: initial power outside box")


@dataclass(frozen=True)
class StorageSpec:
    """Storage unit; p_max_mw is the discharge limit, p_min_mw = -charge limit."""

    id: str
    kind: StorageClass
    p_min_mw: float
    p_max_mw: float
    ramp_down_mw_s: float
    ramp_up_mw_s: float
    capacity_mj: float
    soc_min: float = DEFAULT_SOC_MIN
    soc_max: float = DEFAULT_SOC_MAX
    initial_soc: float = 0.5
    terminal_priority: Optional[float] = None
    initial_mw: float = 0.0
    name: str = ""

    def __post_init__(self):
        if not -np.inf < self.p_min_mw < 0 < self.p_max_mw < np.inf:
            raise ValueError(f"storage {self.id}: need finite p_min_mw < 0 < p_max_mw")
        if not (self.ramp_down_mw_s < 0 < self.ramp_up_mw_s):
            raise ValueError(f"storage {self.id}: need ramp_down < 0 < ramp_up")
        if not (np.isfinite(self.capacity_mj) and self.capacity_mj > 0):
            raise ValueError(f"storage {self.id}: capacity_mj must be finite and > 0")
        if not (0 <= self.soc_min < self.soc_max <= 1):
            raise ValueError(f"storage {self.id}: need 0 <= soc_min < soc_max <= 1")
        if not (self.soc_min <= self.initial_soc <= self.soc_max):
            raise ValueError(f"storage {self.id}: initial_soc outside SoC box")
        if not (self.p_min_mw <= self.initial_mw <= self.p_max_mw):
            raise ValueError(f"storage {self.id}: initial power outside box")
        if self.terminal_priority is None:
            object.__setattr__(self, "terminal_priority",
                               DEFAULT_TERMINAL_PRIORITY[self.kind])
        if not (np.isfinite(self.terminal_priority) and self.terminal_priority >= 0):
            raise ValueError(f"storage {self.id}: terminal_priority must be finite and >= 0")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Scalarization weights of the dispatch objective.

    ``throughput`` penalizes total storage power movement,
    ``imbalance`` penalizes pairwise SoC spread, ``terminal`` rewards
    weighted SoC at the end of the optimization window.
    """

    throughput: float = 0.0
    imbalance: float = 0.0
    terminal: float = 0.0

    def __post_init__(self):
        vals = (self.throughput, self.imbalance, self.terminal)
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise ValueError("objective weights must be finite and >= 0")


@dataclass(frozen=True)
class ObjectiveTerms:
    """The four raw objective terms of a plan or mission.

    served          weighted load service        sum_t sum_i w_hat_i * o_i^t
    throughput      storage power movement       sum_t sum_e |P_e^t|
    imbalance       pairwise SoC spread          sum_t sum_{l<m} |SoC_l - SoC_m|
    terminal_soc    priority-weighted final SoC  sum_e alpha_e * SoC_e(end)
    """

    served: float
    throughput: float
    imbalance: float
    terminal_soc: float

    def combined(self, weights: ObjectiveWeights) -> float:
        return (self.served
                - weights.throughput * self.throughput
                - weights.imbalance * self.imbalance
                + weights.terminal * self.terminal_soc)


@dataclass(frozen=True)
class ScenarioSpec:
    """A full mission: fleet, per-step demand and trip events.

    ``demand_mw`` is (n_loads, steps).  ``generator_available`` is an
    (n_generators, steps) boolean matrix, all True when not given; a
    False entry trips the unit for that step (its power is forced to
    zero).  The commanded service level is 1 for every load at every
    step.  Both are kept as read-only copies of what the caller passed.
    Derived once at construction, also read-only: ``w_hat`` (per load,
    weight times rated power), ``capacities`` and
    ``terminal_priorities`` (per storage unit) and ``pair_index``, the
    (2, n_pairs) unit indices l < m of each unordered storage pair.
    """

    dt_s: float
    loads: tuple
    generators: tuple
    storage: tuple
    demand_mw: np.ndarray
    generator_available: Optional[np.ndarray] = None
    name: str = ""
    w_hat: np.ndarray = field(init=False, repr=False, compare=False)
    capacities: np.ndarray = field(init=False, repr=False, compare=False)
    terminal_priorities: np.ndarray = field(init=False, repr=False, compare=False)
    pair_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "storage", tuple(self.storage))
        demand = np.array(self.demand_mw, dtype=np.float64)
        if not (np.isfinite(self.dt_s) and self.dt_s > 0):
            raise ValueError("dt_s must be finite and > 0")
        if demand.ndim != 2 or demand.shape[0] != len(self.loads):
            raise ValueError(
                f"demand matrix is {demand.shape}, expected "
                f"({len(self.loads)}, steps)")
        if demand.shape[1] < 1:
            raise ValueError("mission must have at least one step")
        if np.any(demand < 0) or not np.all(np.isfinite(demand)):
            raise ValueError("demand entries must be finite and >= 0")
        shape = (len(self.generators), demand.shape[1])
        if self.generator_available is None:
            avail = np.ones(shape, dtype=bool)
        else:
            avail = np.array(self.generator_available, dtype=bool)
        if avail.shape != shape:
            raise ValueError(f"generator availability is {avail.shape}, expected {shape}")
        arrays = {
            "demand_mw": demand,
            "generator_available": avail,
            "w_hat": np.array([ld.weight * ld.rated_mw for ld in self.loads], dtype=float),
            "capacities": np.array([u.capacity_mj for u in self.storage], dtype=float),
            "terminal_priorities": np.array([u.terminal_priority for u in self.storage],
                                            dtype=float),
            "pair_index": np.array(np.triu_indices(len(self.storage), 1), dtype=np.int64)}
        for name, values in arrays.items():
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        ids = [u.id for u in self.loads] + [u.id for u in self.generators] \
            + [u.id for u in self.storage]
        if len(set(ids)) != len(ids):
            raise ValueError("unit ids must be unique across the scenario")

    def __eq__(self, other):
        """Field-wise equality; the demand and availability arrays are
        compared entry by entry (the derived arrays follow from the
        rest)."""
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return ((self.dt_s, self.loads, self.generators, self.storage, self.name)
                == (other.dt_s, other.loads, other.generators, other.storage, other.name)
                and np.array_equal(self.demand_mw, other.demand_mw)
                and np.array_equal(self.generator_available, other.generator_available))

    @property
    def steps(self) -> int:
        return self.demand_mw.shape[1]

    @property
    def n_loads(self) -> int:
        return len(self.loads)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @property
    def n_storage(self) -> int:
        return len(self.storage)

    def initial_state(self) -> "SystemState":
        return SystemState(
            soc=np.array([s.initial_soc for s in self.storage]),
            prev_storage_power=np.array([s.initial_mw for s in self.storage]),
            prev_generator_power=np.array([g.initial_mw for g in self.generators]),
            step_index=0,
        )


@dataclass
class SystemState:
    """Plant state fed into a window build: SoC plus previous powers."""

    soc: np.ndarray
    prev_storage_power: np.ndarray
    prev_generator_power: np.ndarray
    step_index: int = 0

    def copy(self) -> "SystemState":
        return SystemState(self.soc.copy(), self.prev_storage_power.copy(),
                           self.prev_generator_power.copy(), self.step_index)


@dataclass(frozen=True)
class DispatchPlan:
    """Decoded per-step decision trajectory over one window.

    ``load_fraction`` holds decoded service fractions in [0, 1] (stepped
    loads already multiplied back by their step size).  ``soc`` is the
    end-of-step state of charge per storage unit.
    """

    start_step: int
    load_fraction: np.ndarray      # (n_loads, horizon)
    gen_power: np.ndarray          # (n_generators, horizon)
    storage_power: np.ndarray      # (n_storage, horizon)
    soc: np.ndarray                # (n_storage, horizon)
    terms: ObjectiveTerms
    objective: float

    @property
    def horizon(self) -> int:
        return self.load_fraction.shape[1]


def soc_step(soc, power_mw, dt_s: float, capacity_mj: float):
    """One-step SoC kinematics: discharge (positive power) lowers SoC.

    Pure map; box enforcement lives in the window constraints, not here.
    Works elementwise on arrays.
    """
    if np.any(np.asarray(capacity_mj) <= 0):
        raise ValueError("capacity_mj must be > 0")
    return soc - (dt_s * power_mw) / capacity_mj
