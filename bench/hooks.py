"""Per-layer tracing of cavitychain, installed from outside the program.

Each hook replaces a function where its caller looks it up: the global of the
importing module (``experiments`` binds ``assemble`` by name, so the hook
patches ``cavitychain.experiments.assemble``) or the class attribute for a
method.  A ``Tracer`` installs the hooks on entry and restores the originals
on exit, so untraced runs in the same process run the plain program.

Spans are aggregated per name into a call count, a total and a self time
(total minus the time of traced calls nested inside it).  The step, called
hundreds of thousands of times per run, feeds a log-spaced latency
histogram instead.  A hook whose target no longer exists is skipped, and the
metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter

from cavitychain.evolution import step_count

# span name -> (module, attribute path) of every place its function is bound
HOOKS = {
    "enumerate_basis": [("cavitychain.model", "enumerate_basis")],
    "operator_build": [
        ("cavitychain.model", "ladder_raise"),
        ("cavitychain.model", "ladder_lower"),
        ("cavitychain.model", "transfer_op"),
    ],
    "assemble": [
        ("cavitychain.experiments", "assemble"),
        ("cavitychain.evolution", "assemble"),
    ],
    "diagonalize": [
        ("cavitychain.experiments", "diagonalize"),
        ("cavitychain.evolution", "diagonalize"),
    ],
    "engine_build": [("cavitychain.evolution", "StepEngine.__init__")],
    "step": [("cavitychain.evolution", "StepEngine.step")],
    "evolve_assembled": [("cavitychain.evolution", "evolve_assembled")],
    "run_sweep": [
        ("cavitychain.experiments", "run_sweep"),
        ("cavitychain.cli", "run_sweep"),
    ],
    "parse": [("cavitychain.cli", "parse_config")],
    "write_csv": [
        ("cavitychain.cli", "write_sweep_csv"),
        ("cavitychain.cli", "write_trajectory_csv"),
    ],
}

# per-layer metric -> (unit, better, spans it needs)
METRICS = {
    "modes.basis_dim": ("count", "lower", ("enumerate_basis",)),
    "modes.enumerate_basis_s": ("s", "lower", ("enumerate_basis",)),
    "modes.operator_build_s": ("s", "lower", ("operator_build",)),
    "modes.operator_build_calls": ("count", "lower", ("operator_build",)),
    "model.assemble_calls": ("count", "lower", ("assemble",)),
    "model.assemble_s": ("s", "lower", ("assemble",)),
    "model.jump_terms": ("count", "lower", ("assemble",)),
    "evolution.diagonalize_calls": ("count", "lower", ("diagonalize",)),
    "evolution.diagonalize_s": ("s", "lower", ("diagonalize",)),
    "evolution.engine_build_s": ("s", "lower", ("engine_build",)),
    "evolution.step_calls": ("count", "lower", ("step",)),
    "evolution.step_s": ("s", "lower", ("step",)),
    "evolution.step_us_p50": ("us", "lower", ("step",)),
    "evolution.step_us_p99": ("us", "lower", ("step",)),
    "evolution.step_flops": ("flop", "lower", ("engine_build", "step")),
    "evolution.step_bytes": ("B", "lower", ("engine_build", "step")),
    "evolution.step_gflops": ("GFLOP/s", "higher", ("engine_build", "step")),
    "evolution.sample_s": ("s", "lower", ("evolve_assembled",)),
    "evolution.sample_share": ("ratio", "lower", ("evolve_assembled",)),
    "experiments.cells": ("count", "higher", ("run_sweep",)),
    "experiments.capped_cells": ("count", "lower", ("run_sweep",)),
    "experiments.sim_steps": ("count", "higher", ("run_sweep",)),
    "experiments.sweep_s": ("s", "lower", ("run_sweep",)),
    "experiments.loop_s": ("s", "lower", ("run_sweep",)),
    "cli.parse_s": ("s", "lower", ("parse",)),
    "cli.write_csv_s": ("s", "lower", ("write_csv",)),
    "cli.csv_bytes": ("B", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.overhead_share": ("ratio", "lower", ()),
}

# latency histogram: HIST_STEPS buckets per doubling of nanoseconds
HIST_STEPS = 64


def step_cost(dim: int, jumps: int) -> tuple[float, float]:
    """Computed flops and bytes moved by one dense step, from d and jump count.

    U rho U^dag is two d x d complex matmuls; each jump adds two (L rho L^dag)
    and the anticommutator two more in total.  A complex multiply-add is 8
    real flops; each matmul reads two d x d complex arrays and writes one.
    The elementwise sums add about (jumps + 4) d^2 complex additions.
    """
    matmuls = 2 + (2 * jumps + 2 if jumps else 0)
    adds = jumps + 4 if jumps else 0
    flops = 8.0 * dim**3 * matmuls + 2.0 * dim**2 * adds
    nbytes = 16.0 * dim**2 * (3 * matmuls + 3 * adds)
    return flops, nbytes


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _resolve(module: str, path: str):
    """(owner, attribute, original) for one binding, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Installs the hooks for one traced run and turns them into metrics."""

    def __init__(self) -> None:
        self.spans = {name: Span() for name in HOOKS}
        # child time of the innermost open traced call, with a root sentinel
        self._stack = [0.0]
        self._installed: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.basis_dim = 0
        self.jump_terms = 0
        self.cells = 0
        self.capped_cells = 0
        self.sim_steps = 0
        self.step_flops = 0.0
        self.step_bytes = 0.0
        self._engine_cost: dict[int, tuple[float, float]] = {}
        self._histogram: dict[int, int] = {}

    def __enter__(self) -> "Tracer":
        for name, targets in HOOKS.items():
            found = [t for t in (_resolve(*target) for target in targets) if t]
            if not found:
                self.absent.add(name)
            for owner, attr, original in found:
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, original):
        if name == "step":
            return self._wrap_step(original)
        span = self.spans[name]
        stack = self._stack
        on_call = getattr(self, f"_on_{name}", None)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children
            if on_call is not None and name not in self.absent:
                try:
                    on_call(args, result)
                except (AttributeError, TypeError, ValueError):
                    # the call's arguments or result changed shape
                    self.absent.add(name)
            return result

        return traced

    def _wrap_step(self, original):
        span = self.spans["step"]
        stack = self._stack
        histogram = self._histogram
        engine_cost = self._engine_cost
        log2 = math.log2

        def traced_step(engine, *args, **kwargs):
            start = perf_counter()
            result = original(engine, *args, **kwargs)
            elapsed = perf_counter() - start
            stack[-1] += elapsed
            span.calls += 1
            span.total += elapsed
            bucket = int(log2(max(elapsed, 1e-9) * 1e9) * HIST_STEPS)
            histogram[bucket] = histogram.get(bucket, 0) + 1
            cost = engine_cost.get(id(engine))
            if cost is not None:
                self.step_flops += cost[0]
                self.step_bytes += cost[1]
            return result

        return traced_step

    # per-span observers: (positional args, result) of each traced call

    def _on_enumerate_basis(self, args, basis) -> None:
        self.basis_dim = max(self.basis_dim, basis.dim)

    def _on_assemble(self, args, chain) -> None:
        self.jump_terms += len(chain.lindblad_terms)

    def _on_engine_build(self, args, result) -> None:
        if len(args) < 3:
            return
        engine, propagator, terms = args[:3]
        self._engine_cost[id(engine)] = step_cost(propagator.basis.dim, len(terms))

    def _on_run_sweep(self, args, result) -> None:
        spec = args[0]
        self.cells += result.grid.size
        self.capped_cells += int(result.cap_mask.sum())
        t_max = getattr(spec.objective, "t_max", None)
        for value, capped in zip(result.grid.flat, result.cap_mask.flat):
            if t_max is None:
                self.sim_steps += step_count(spec.objective.t, spec.dt)
            else:
                self.sim_steps += step_count(t_max if capped else float(value), spec.dt)

    def _step_percentile_us(self, q: float) -> float:
        total = sum(self._histogram.values())
        seen = 0
        for bucket in sorted(self._histogram):
            seen += self._histogram[bucket]
            if seen >= q * total:
                return 2.0 ** ((bucket + 0.5) / HIST_STEPS) / 1e3
        return 0.0

    def metrics(self, csv_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the traced run, without trace.* overhead."""
        s = self.spans
        steps = s["step"]
        evolve = s["evolve_assembled"]
        values = {
            "modes.basis_dim": self.basis_dim,
            "modes.enumerate_basis_s": s["enumerate_basis"].total,
            "modes.operator_build_s": s["operator_build"].total,
            "modes.operator_build_calls": s["operator_build"].calls,
            "model.assemble_calls": s["assemble"].calls,
            "model.assemble_s": s["assemble"].self_time,
            "model.jump_terms": self.jump_terms,
            "evolution.diagonalize_calls": s["diagonalize"].calls,
            "evolution.diagonalize_s": s["diagonalize"].total,
            "evolution.engine_build_s": s["engine_build"].total,
            "evolution.step_calls": steps.calls,
            "evolution.step_s": steps.total,
            "evolution.step_us_p50": self._step_percentile_us(0.50),
            "evolution.step_us_p99": self._step_percentile_us(0.99),
            "evolution.step_flops": self.step_flops / max(steps.calls, 1),
            "evolution.step_bytes": self.step_bytes / max(steps.calls, 1),
            "evolution.step_gflops": self.step_flops / steps.total / 1e9 if steps.total else 0.0,
            "evolution.sample_s": evolve.self_time,
            "evolution.sample_share": evolve.self_time / evolve.total if evolve.total else 0.0,
            "experiments.cells": self.cells,
            "experiments.capped_cells": self.capped_cells,
            "experiments.sim_steps": self.sim_steps,
            "experiments.sweep_s": s["run_sweep"].total,
            "experiments.loop_s": s["run_sweep"].self_time,
            "cli.parse_s": s["parse"].total,
            "cli.write_csv_s": s["write_csv"].total,
            "cli.csv_bytes": csv_bytes,
        }
        return {
            name: float(value)
            for name, value in values.items()
            if not self.absent.intersection(METRICS[name][2])
        }
