"""Transport experiments: time-to-target and 2D scans.

The two reproduced effects are the quantum bottleneck (time to fill the sink
is non-monotone in the output rate: past an optimum, faster runoff slows the
transfer) and dephasing-assisted transport (at a non-optimal output rate,
nonzero dephasing strength can raise the sink population reached by a fixed
time).  Each cell's outcome depends on its own config alone, but the cells
of a sweep share their basis, so all take one route, which
``evolution.cell_stacks`` picks and lays out as stacks of cells in grid
order: chunked cells in stacks of B, each product one stacked matmul over
their step maps, stepped cells as stacks of one.  One reader takes every
stack (``_read_stack``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .evolution import (
    CELL_ROUTES,
    DEFAULT_DT,
    TRACE_TOL,
    CellSteps,
    _quiet_overflow,
    cell_stacks,
    first_failure,
    step_count,
)
from .model import ChainConfig, DephasingModel, InitialState
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


@dataclass
class SweepResult:
    """Objective values over the axis grid, row-major in (axis1, axis2).

    grid and cap_mask have shape (len(axis1), len(axis2) or 1).  Capped cells
    carry the cap value itself.  trace and positivity diagnostics are collected
    across all cells: trace is tracked every step, eigenvalues only on the
    state where each cell stops (a full spectrum per step would dwarf the
    sweep cost), taken for a whole stack of cells at once.
    cell_routes counts the cells each route of ``evolution.cell_route`` ran,
    ``{"chunked": n, "stepped": m}``, and sectors are the (N, sink) blocks
    of the basis every cell shares.
    """

    spec: SweepSpec
    grid: np.ndarray
    cap_mask: np.ndarray
    max_trace_drift: float
    min_eigenvalue_seen: float
    cell_routes: dict[str, int]
    sectors: Sectors


@dataclass(frozen=True)
class _CellOutcome:
    value: float
    capped: bool
    trace_drift: float
    final_min_eig: float


def _cell_outcomes(
    configs: Sequence[ChainConfig], objective: TimeToReach | SinkAtTime, dt: float
) -> Iterator[tuple[str, Sectors, _CellOutcome]]:
    """(route, sectors, outcome) of each cell in grid order, read off ``evolution.cell_stacks``.

    Each stack is read with numpy's overflow and invalid-value warnings
    off, over its generator's step-map builds and products too, and the
    caller's error state holds again before any outcome is yielded.  The
    first cell in grid order that fails raises its ArithmeticError after
    the outcomes of the cells before it, once its stack has run; the stacks
    after it do not run.
    """
    t_end = objective.t_max if isinstance(objective, TimeToReach) else objective.t
    route, sectors, stacks = cell_stacks(configs, step_count(t_end, dt), dt)
    for steps in stacks:
        with _quiet_overflow():
            outcomes = _read_stack(steps, sectors, objective, dt)
        for outcome in outcomes:
            if isinstance(outcome, ArithmeticError):
                raise outcome
            yield route, sectors, outcome


def _read_stack(
    steps: CellSteps, sectors: Sectors, objective: TimeToReach | SinkAtTime, dt: float
) -> list[_CellOutcome | ArithmeticError]:
    """Each cell's outcome, or the error it failed with, read off its stack's items.

    An item holds the per-step values of every cell still in the stack: a
    block of chunks on the chunked route and one step on the stepped route.
    Each takes one crossing search and one trace check across the stack.
    A TimeToReach cell stops at the first step whose sink population meets
    the target and interpolates the crossing time from the step before it,
    which may end the previous item; a crossing past t_max (the last step
    may overshoot it) is capped.  A SinkAtTime cell reads the sink at its
    last step.  Trace drift is the largest |trace - 1| over the steps up to
    where the cell stops.  The first of those steps that breaks
    ``evolution.first_failure``, checked only where a bound on the whole
    item fails, fails the cell with its message, so every sink the
    objective reads is finite.  A cell that stops or fails leaves the
    stack at that item: the mask sent back keeps the others.  Only the
    states where cells stop are built, and their minimum eigenvalues come
    from one ``Sectors.min_eigenvalue`` call.
    """
    reach = isinstance(objective, TimeToReach)
    first, values, state = next(steps)
    n_cells = len(values)
    cells = np.arange(n_cells)  # the cell of each row still in the stack
    drift = np.zeros(n_cells)  # of each row
    prev = np.zeros(n_cells)  # of each row: its sink at the step before the item
    ends: list = [None] * n_cells  # of each cell: (value, capped, drift) or its error
    stopped, states = [], []  # the cells that stopped, and their states there

    def stop(rows: list[int], at: list[int]) -> None:
        if rows:
            stopped.extend(cells[rows].tolist())
            states.append(state(rows, at))

    while True:
        sinks, traces = values[..., 0], values[..., 1]
        deviation = np.abs(traces - 1.0)
        top = sinks.max() if reach else values.max()  # at least the largest sink
        crossings = ()
        if reach and not top < objective.target:  # a crossing, or a NaN
            met = sinks >= objective.target
            if met.any():
                crossings = np.flatnonzero(met.any(axis=1))
                hits = met.argmax(axis=1)
                for row in crossings:  # the steps past a crossing are never read
                    deviation[row, hits[row] + 1 :] = 0.0
        block_drift = deviation.max(axis=1)  # nan or inf if a trace read is
        np.maximum(drift, block_drift, out=drift)
        worst = block_drift.max()
        # with every trace within worst of 1, no sink past 1 - worst + TRACE_TOL
        # lies past its trace + TRACE_TOL; other sinks, even those past a
        # crossing, take the exact check below
        held = worst <= TRACE_TOL and top <= 1.0 - worst + TRACE_TOL
        held = held and values.min() >= -TRACE_TOL  # no sink below -TRACE_TOL
        keep = None
        if len(crossings) or not held:
            leaving = np.zeros(len(cells), dtype=bool)
            if not held:  # the rule, on each row's steps up to its crossing
                for row, (sink, trace) in enumerate(zip(sinks, traces)):
                    n = hits[row] + 1 if row in crossings else len(sink)
                    failure = first_failure(range(first, first + n), sink[:n], trace[:n])
                    if failure is not None:
                        leaving[row] = True
                        ends[cells[row]] = ArithmeticError(failure)
            stopping, at = [], []
            for row in crossings:
                if leaving[row]:
                    continue
                leaving[row] = True
                hit = int(hits[row])
                before = float(sinks[row, hit - 1] if hit else prev[row])
                i = first + hit
                value, capped = _crossing(objective, dt, i, float(sinks[row, hit]), before)
                ends[cells[row]] = (value, capped, drift[row])
                stopping.append(row)
                at.append(i)
            stop(stopping, at)
            keep = ~leaving
            cells, drift = cells[keep], drift[keep]
            if not len(cells):
                break
        if reach:
            prev = (sinks[:, -1] if keep is None else sinks[keep, -1]).copy()
        try:
            first, values, state = steps.send(keep)
        except StopIteration:
            break
    # the cells still in the stack ran to the last step; a TimeToReach cell
    # found no crossing by t_max and carries its cap
    last = first + values.shape[1] - 1
    for row, cell in enumerate(cells.tolist()):
        ends[cell] = (objective.t_max if reach else float(values[row, -1, 0]), reach, drift[row])
    stop(list(range(len(cells))), [last] * len(cells))
    if states:
        lowest = sectors.min_eigenvalue(states[0] if len(states) == 1 else np.concatenate(states))
        for cell, eigenvalue in zip(stopped, lowest):
            value, capped, cell_drift = ends[cell]
            ends[cell] = _CellOutcome(value, capped, float(cell_drift), float(eigenvalue))
    return ends


def _crossing(
    objective: TimeToReach, dt: float, i: int, current: float, before: float
) -> tuple[float, bool]:
    """(time, capped) of a crossing at step i, interpolated from the sink at the step before."""
    if i == 0:
        return 0.0, False
    crossing = (i - 1) * dt + dt * (objective.target - before) / (current - before)
    # crossed only inside the step that overshoots t_max (within step_count's
    # roundoff): the cell carries its cap
    capped = crossing > objective.t_max + 1e-9 * dt
    return (objective.t_max if capped else crossing), capped


def time_to_reach(
    config: ChainConfig,
    target: float = DEFAULT_TARGET,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
) -> ReachTime:
    """First time the sink population reaches target, capped at t_max."""
    [(_, _, outcome)] = _cell_outcomes([config], TimeToReach(target, t_max), dt)
    return ReachTime(outcome.value, outcome.capped)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the objective over the full axis grid, in stacks of cells.

    The cells run in grid order through one ``_cell_outcomes``, so chunked
    cells build the basis, the readout, the jump halves of their step maps
    and the first unitary half once, and a cell after one with the same
    Hamiltonian inputs (every swept jump rate, in any axis order) only sums
    them.  The first cell in grid order that fails raises ArithmeticError
    naming its axis values.
    """
    axis2_values = spec.axis2.values if spec.axis2 is not None else (None,)
    cells = []
    for v1 in spec.axis1.values:
        for v2 in axis2_values:
            overrides = {spec.axis1.param: v1}
            if spec.axis2 is not None:
                overrides[spec.axis2.param] = v2
            cells.append(overrides)
    configs = [replace(spec.base, **overrides) for overrides in cells]
    routes, outcomes = [], []
    try:
        for route, sectors, outcome in _cell_outcomes(configs, spec.objective, spec.dt):
            routes.append(route)
            outcomes.append(outcome)
    except ArithmeticError as exc:
        cell = " ".join(f"{param}={value!r}" for param, value in cells[len(outcomes)].items())
        raise ArithmeticError(f"cell {cell}: {exc}") from exc

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
        sectors=sectors,
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
