"""Transport experiments: time-to-target, optimal-rate searches, 2D scans.

The two reproduced effects are the quantum bottleneck (time to fill the sink
is non-monotone in the output rate: past an optimum, faster runoff slows the
transfer) and dephasing-assisted transport (at a non-optimal output rate,
nonzero dephasing strength can raise the sink population reached by a fixed
time).  Sweep cells are independent pure computations, evaluated one after
another in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import CELL_ROUTES, DEFAULT_DT, CellSteps, cell_route, step_count
from .model import ChainConfig, DephasingModel, InitialState, assemble
from .modes import Sectors

SWEEPABLE_PARAMS = ("rate_in", "rate_out", "k", "mu", "g")

DEFAULT_TARGET = 0.995
DEFAULT_T_MAX = 400.0


def default_rate_grid() -> tuple[float, ...]:
    """Rate axis 0.1 .. 4.0 in steps of 0.1, decimally rounded."""
    return tuple(round(0.1 * i, 10) for i in range(1, 41))


def default_g_grid() -> tuple[float, ...]:
    """Dephasing axis 0.0 .. 2.0 in steps of 0.05, decimally rounded."""
    return tuple(round(0.05 * i, 10) for i in range(0, 41))


@dataclass(frozen=True)
class TimeToReach:
    """Objective: first time the sink population reaches ``target``."""

    target: float = DEFAULT_TARGET
    t_max: float = DEFAULT_T_MAX

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must lie in (0, 1), got {self.target}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")


@dataclass(frozen=True)
class SinkAtTime:
    """Objective: sink population at a fixed time."""

    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0):
            raise ValueError(
                f"observation time must be positive and finite, got {self.t}"
            )


@dataclass(frozen=True)
class SweepAxis:
    param: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.param not in SWEEPABLE_PARAMS:
            raise ValueError(
                f"cannot sweep {self.param!r}; choose one of {SWEEPABLE_PARAMS}"
            )
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError(f"axis {self.param} needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"axis {self.param} values must be finite, got {self.values}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"axis {self.param} values must be strictly increasing")


@dataclass(frozen=True)
class SweepSpec:
    base: ChainConfig
    axis1: SweepAxis
    objective: TimeToReach | SinkAtTime
    axis2: SweepAxis | None = None
    dt: float = DEFAULT_DT

    def __post_init__(self) -> None:
        if not isinstance(self.objective, (TimeToReach, SinkAtTime)):
            raise TypeError(f"unsupported objective {self.objective!r}")
        if self.axis2 is not None and self.axis2.param == self.axis1.param:
            raise ValueError(f"both axes sweep {self.axis1.param!r}")
        swept = [axis.param for axis in (self.axis1, self.axis2) if axis is not None]
        if "rate_in" in swept and self.base.rate_in == 0:
            # the base's window and start are resolved for an undriven chain,
            # and every cell would inherit them
            raise ValueError(
                f"rate_in: a rate_in sweep needs a pumped base (rate_in > 0), "
                f"got {self.base.rate_in}"
            )
        # a swept parameter the base chain ignores would write a flat grid
        if "g" in swept and self.base.dephasing is DephasingModel.NONE:
            raise ValueError("g: a g sweep needs a dephasing model, got dephasing=none")
        if "k" in swept and self.base.n_atoms < 2:
            raise ValueError(
                f"k: a k sweep needs n_atoms >= 2 for a photon hop, got {self.base.n_atoms}"
            )
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class ReachTime:
    """Result of one time-to-target run; capped means the cap value is carried."""

    time: float
    capped: bool


@dataclass(frozen=True)
class OptimalRate:
    rate: float
    time: float
    capped: bool


@dataclass
class SweepResult:
    """Objective values over the axis grid, row-major in (axis1, axis2).

    grid and cap_mask have shape (len(axis1), len(axis2) or 1).  Capped cells
    carry the cap value itself.  trace and positivity diagnostics are collected
    across all cells: trace is tracked every step, eigenvalues only on each
    cell's final state (a full spectrum per step would dwarf the sweep cost).
    cell_routes counts the cells each route of ``evolution.cell_route`` ran,
    ``{"chunked": n, "stepped": m}``.
    """

    spec: SweepSpec
    grid: np.ndarray
    cap_mask: np.ndarray
    max_trace_drift: float
    min_eigenvalue_seen: float
    cell_routes: dict[str, int]


@dataclass(frozen=True)
class _CellOutcome:
    value: float
    capped: bool
    trace_drift: float
    final_min_eig: float


def _cell_outcome(
    config: ChainConfig, objective: TimeToReach | SinkAtTime, dt: float
) -> tuple[str, _CellOutcome]:
    """(route, outcome) of one cell, on the route ``cell_route`` picks for it."""
    chain = assemble(config)
    sectors = chain.basis.sectors
    t_end = objective.t_max if isinstance(objective, TimeToReach) else objective.t
    n_steps = step_count(t_end, dt)
    route = cell_route(sectors.sizes, n_steps)
    return route, _read_cell(CELL_ROUTES[route](chain, dt, n_steps), sectors, objective, dt)


def _read_cell(
    steps: CellSteps, sectors: Sectors, objective: TimeToReach | SinkAtTime, dt: float
) -> _CellOutcome:
    """Read one cell's objective off its per-step values, tracking trace drift on every step.

    A TimeToReach cell stops at the first step whose sink population meets the
    target and interpolates the crossing time; a crossing past t_max (the last
    step may overshoot it) is capped.  A SinkAtTime cell reads the sink at its
    last step.  Only the state where the cell stops is built, for its minimum
    eigenvalue.
    """
    reach = isinstance(objective, TimeToReach)
    drift = 0.0
    for i, current, trace, state in steps:
        if abs(trace - 1.0) > drift:
            drift = abs(trace - 1.0)
        if reach:
            if current >= objective.target:
                crossing = 0.0 if i == 0 else (
                    (i - 1) * dt + dt * (objective.target - prev) / (current - prev)
                )
                if crossing <= objective.t_max + 1e-9 * dt:  # step_count's roundoff
                    return _CellOutcome(
                        crossing, False, drift, sectors.min_eigenvalue(state())
                    )
                break  # crossed only inside the step that overshoots t_max
            prev = current
    final_min_eig = sectors.min_eigenvalue(state())
    if reach:  # no crossing by t_max: the cell carries its cap
        return _CellOutcome(objective.t_max, True, drift, final_min_eig)
    return _CellOutcome(current, False, drift, final_min_eig)


def time_to_reach(
    config: ChainConfig,
    target: float = DEFAULT_TARGET,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
) -> ReachTime:
    """First time the sink population reaches target, capped at t_max."""
    _, outcome = _cell_outcome(config, TimeToReach(target, t_max), dt)
    return ReachTime(outcome.value, outcome.capped)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the objective over the full axis grid, cell by cell."""
    axis2_values = spec.axis2.values if spec.axis2 is not None else (None,)
    routes, outcomes = [], []
    for v1 in spec.axis1.values:
        for v2 in axis2_values:
            overrides = {spec.axis1.param: v1}
            if spec.axis2 is not None:
                overrides[spec.axis2.param] = v2
            config = replace(spec.base, **overrides)
            route, outcome = _cell_outcome(config, spec.objective, spec.dt)
            routes.append(route)
            outcomes.append(outcome)

    shape = (len(spec.axis1.values), len(axis2_values))
    grid = np.array([o.value for o in outcomes]).reshape(shape)
    cap_mask = np.array([o.capped for o in outcomes]).reshape(shape)
    return SweepResult(
        spec=spec,
        grid=grid,
        cap_mask=cap_mask,
        max_trace_drift=max(o.trace_drift for o in outcomes),
        min_eigenvalue_seen=min(o.final_min_eig for o in outcomes),
        cell_routes={route: routes.count(route) for route in CELL_ROUTES},
    )


def optimal_rate(
    base: ChainConfig,
    which: str,
    candidates,
    objective: TimeToReach | None = None,
    dt: float = DEFAULT_DT,
) -> OptimalRate:
    """Grid-search the rate minimizing time-to-target; ties go to the smaller rate."""
    if which not in ("rate_in", "rate_out"):
        raise ValueError(f"which must be rate_in or rate_out, got {which!r}")
    objective = objective if objective is not None else TimeToReach()
    spec = SweepSpec(
        base=base, axis1=SweepAxis(which, tuple(candidates)), objective=objective, dt=dt
    )
    result = run_sweep(spec)
    times = result.grid[:, 0]
    best = int(np.argmin(times))  # first minimum = smallest rate on the sorted axis
    return OptimalRate(
        rate=spec.axis1.values[best],
        time=float(times[best]),
        capped=bool(result.cap_mask[best, 0]),
    )


def bottleneck_scan(spec: SweepSpec) -> SweepResult:
    """Time-to-target over an input-rate times output-rate grid."""
    if spec.axis1.param != "rate_in" or spec.axis2 is None or spec.axis2.param != "rate_out":
        raise ValueError("bottleneck scan sweeps axis1=rate_in, axis2=rate_out")
    if not isinstance(spec.objective, TimeToReach):
        raise ValueError("bottleneck scan needs a TimeToReach objective")
    return run_sweep(spec)


def dat_scan(spec: SweepSpec) -> SweepResult:
    """Sink-at-fixed-time over an output-rate times dephasing-strength grid.

    The base must be an undriven chain started with the photon in the first
    cavity, and some dephasing model must be selected for the g axis to mean
    anything.
    """
    if spec.axis1.param != "rate_out" or spec.axis2 is None or spec.axis2.param != "g":
        raise ValueError("dephasing scan sweeps axis1=rate_out, axis2=g")
    if not isinstance(spec.objective, SinkAtTime):
        raise ValueError("dephasing scan needs a SinkAtTime objective")
    if spec.base.rate_in != 0:
        raise ValueError("dephasing scan expects an undriven chain (rate_in = 0)")
    if spec.base.initial_state is not InitialState.PHOTON_IN_FIRST_CAVITY:
        raise ValueError("dephasing scan starts with the photon in the first cavity")
    return run_sweep(spec)
