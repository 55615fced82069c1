"""The three benchmark workloads: seeded CLI inputs and the checks on outputs.

A workload turns a seed into the config text and arguments of one
``cavitychain`` CLI command.  Seed 0 is the reference seed: its grids are the
round values below and its outputs are committed under ``reference/``.  Any
other seed shifts the rate grids by a few hundredths, which keeps the work
per run within a fraction of a percent of the reference seed.

Every run is checked.  An operation (one sweep cell, or the one trajectory)
fails when the command exits non-zero, when a rerun is not byte-identical,
or when one of these checks fails:

* on the reference seed, every CSV value matches ``reference/`` within
  ``VALUE_ATOL`` and the capped and ``min_eig_flag`` columns match exactly;
  the manifest's config, trace drift and minimum eigenvalue match too;
* on every seed, trace drift stays within ``TRACE_DRIFT_MAX``, populations
  lie in [0, 1], and the workload's physics check holds;
* on ``dat_grid``, the cells with ``rate_out <= ORACLE_MAX_RATE`` agree with
  ``superoperator_oracle`` within ``ORACLE_ATOL``.

The program must be importable before this module is: ``run.py`` puts the
checkout's ``src`` first on the path.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from cavitychain.cli import parse_config
from cavitychain.evolution import superoperator_oracle
from cavitychain.model import assemble
from cavitychain.modes import ModeKind

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0

# Later changes (batched, blocked or power-route stepping) move values by
# about 1e-13; a physics or indexing error moves them by far more.
VALUE_ATOL = 1e-9
TRACE_DRIFT_MAX = 1e-8
# The stepper's first-order dissipator against the exact Liouvillian at
# dt=0.01 and t=50: at most 5.1e-4 over rate_out <= 1.1 on this grid.
ORACLE_ATOL = 2e-3
ORACLE_MAX_RATE = 1.1
DT = 0.01


def rate_offset(seed: int, stream: str) -> float:
    """Grid shift for one seed: 0 on the reference seed, else 0.01 .. 0.09."""
    if seed == REFERENCE_SEED:
        return 0.0
    return random.Random(f"{seed}:{stream}").randrange(1, 10) / 100


def _join(values) -> str:
    return ",".join(repr(round(v, 10)) for v in values)


@dataclass(frozen=True)
class Invocation:
    """One CLI command: its config text and the arguments after ``--out``."""

    command: str
    config: str
    args: tuple[str, ...]

    def argv(self, config_path: str, out_prefix: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_prefix,
                "--dt", repr(DT), *self.args]


@dataclass
class Outputs:
    """What one finished command left behind, parsed."""

    csv_bytes: bytes
    manifest: dict
    header: list[str] = field(init=False)
    rows: list[list[str]] = field(init=False)

    def __post_init__(self) -> None:
        table = list(csv.reader(io.StringIO(self.csv_bytes.decode())))
        self.header, self.rows = table[0], table[1:]

    def column(self, name: str) -> list[float]:
        i = self.header.index(name)
        return [float(row[i]) for row in self.rows]

    @classmethod
    def read(cls, prefix: Path) -> "Outputs":
        csv_path = prefix.with_name(prefix.name + ".csv")
        manifest_path = prefix.with_name(prefix.name + ".manifest.json")
        return cls(csv_path.read_bytes(), json.loads(manifest_path.read_text()))


class Failures:
    """Failed checks, each with the operations it condemns."""

    def __init__(self, n_ops: int) -> None:
        self.n_ops = n_ops
        self.failed_ops: set[int] = set()
        self.messages: list[str] = []

    def add(self, message: str, ops=None) -> None:
        self.messages.append(message)
        self.failed_ops.update(range(self.n_ops) if ops is None else ops)

    def expect(self, ok: bool, message: str, ops=None) -> None:
        if not ok:
            self.add(message, ops)


class Workload:
    name = ""
    why = ""
    # columns compared exactly against the reference; the rest within VALUE_ATOL
    exact_columns: tuple[str, ...] = ()

    def invocation(self, seed: int) -> Invocation:
        raise NotImplementedError

    def warmup(self, seed: int) -> Invocation:
        """A short run of the same command, to settle lazy set-up before timing."""
        raise NotImplementedError

    def n_ops(self, out: Outputs) -> int:
        return len(out.rows)

    def sim_time(self, out: Outputs) -> float:
        """Model time evolved over all operations of one command."""
        raise NotImplementedError

    def check(self, out: Outputs, seed: int) -> Failures:
        failures = Failures(self.n_ops(out))
        drift = out.manifest["max_trace_drift"]
        failures.expect(drift <= TRACE_DRIFT_MAX,
                        f"manifest trace drift {drift:.3e} > {TRACE_DRIFT_MAX}")
        self.check_invariants(out, seed, failures)
        if seed == REFERENCE_SEED:
            self.check_reference(out, failures)
        return failures

    def check_invariants(self, out: Outputs, seed: int, failures: Failures) -> None:
        raise NotImplementedError

    def op_of_row(self, row: int) -> int:
        return row

    def check_reference(self, out: Outputs, failures: Failures) -> None:
        ref = Outputs.read(REFERENCE_DIR / self.name)
        if out.header != ref.header or len(out.rows) != len(ref.rows):
            failures.add(f"CSV shape {out.header} x {len(out.rows)} differs from "
                         f"the reference {ref.header} x {len(ref.rows)}")
            return
        for r, (row, ref_row) in enumerate(zip(out.rows, ref.rows)):
            for name, got, want in zip(out.header, row, ref_row):
                if name in self.exact_columns:
                    ok = got == want
                else:
                    ok = abs(float(got) - float(want)) <= VALUE_ATOL
                if not ok:
                    failures.add(f"row {r} {name}: {got} vs reference {want}",
                                 [self.op_of_row(r)])
        for key in ("command", "config", "dt"):
            failures.expect(out.manifest[key] == ref.manifest[key],
                            f"manifest {key} differs from the reference")
        for key in ("max_trace_drift", "min_eigenvalue_seen"):
            got, want = out.manifest[key], ref.manifest[key]
            failures.expect(abs(got - want) <= VALUE_ATOL,
                            f"manifest {key} {got:.6e} vs reference {want:.6e}")


class DatGrid(Workload):
    name = "dat_grid"
    why = ("dat on 40 equal cells at dim 6: 200000 overhead-bound steps, "
           "where batching and propagator powers act")
    exact_columns = ("axis1", "axis2", "capped")
    objective_time = 50.0
    rates = (0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    g_values = (0.0, 0.3, 0.6, 0.9)
    # the physics check follows the second rate row (0.3 on the reference seed)
    rising_row = 1

    def _text(self, seed: int, objective_time: float) -> str:
        shift = rate_offset(seed, "rate_out")
        return (
            "n_atoms=2 k=0.8 mu=0.2 sink_coupling=exciton dephasing=lindblad\n"
            f"objective_time={objective_time!r}\n"
            f"axis1_param=rate_out axis1_values={_join(r + shift for r in self.rates)}\n"
            f"axis2_param=g axis2_values={_join(self.g_values)}\n"
        )

    def invocation(self, seed: int) -> Invocation:
        return Invocation("dat", self._text(seed, self.objective_time), ("--workers", "1"))

    def warmup(self, seed: int) -> Invocation:
        return Invocation("dat", self._text(seed, 5.0), ("--workers", "1"))

    def sim_time(self, out: Outputs) -> float:
        return self.objective_time * len(out.rows)

    def check_invariants(self, out: Outputs, seed: int, failures: Failures) -> None:
        values = out.column("value")
        for r, v in enumerate(values):
            failures.expect(0.0 <= v <= 1.0, f"cell {r}: sink {v} outside [0, 1]", [r])
        n_g = len(self.g_values)
        row = range(self.rising_row * n_g, (self.rising_row + 1) * n_g)
        sinks = [values[i] for i in row]
        failures.expect(
            all(a < b for a, b in zip(sinks, sinks[1:])),
            f"dephasing-assisted transport: sink at rate_out row {self.rising_row} "
            f"does not rise with g: {sinks}",
            row,
        )
        self._check_oracle(out, failures)

    def _check_oracle(self, out: Outputs, failures: Failures) -> None:
        base = parse_config(out.manifest["config"]).chain
        rates, gs, values = out.column("axis1"), out.column("axis2"), out.column("value")
        for r, (rate, g, value) in enumerate(zip(rates, gs, values)):
            if rate > ORACLE_MAX_RATE:
                continue
            config = replace(base, rate_out=rate, g=g)
            chain = assemble(config)
            layout = chain.basis.layout
            sink = chain.basis.occupations[:, layout.index(ModeKind.SINK, layout.n_sites)]
            rho = superoperator_oracle(config, self.objective_time).elements
            exact = float(np.diag(rho).real @ sink)
            failures.expect(
                abs(value - exact) <= ORACLE_ATOL,
                f"cell {r} (rate_out={rate}, g={g}): sink {value} vs oracle {exact}",
                [r],
            )


class BottleneckRow(Workload):
    name = "bottleneck_row"
    why = ("time-to-target over 36 output rates at dim 32: cells stop early "
           "at uneven crossings, so batches must shrink and powers must search")
    exact_columns = ("axis1", "axis2", "capped")
    t_max = 400.0
    # the quantum bottleneck: the fastest output rate lies inside the row
    optimum = 1.5
    optimum_atol = 0.25

    def _rates(self, seed: int, count: int = 36, start: float = 0.5) -> list[float]:
        shift = rate_offset(seed, "rate_out")
        return [start + 0.1 * i + shift for i in range(count)]

    def _invocation(self, rates) -> Invocation:
        text = (
            "n_atoms=2 k=1.0 mu=1.0 rate_in=1.5\n"
            "axis1_param=rate_in axis1_values=1.5\n"
            f"axis2_param=rate_out axis2_values={_join(rates)}\n"
        )
        args = ("--target", "0.995", "--t-max", repr(self.t_max), "--workers", "1")
        return Invocation("bottleneck", text, args)

    def invocation(self, seed: int) -> Invocation:
        return self._invocation(self._rates(seed))

    def warmup(self, seed: int) -> Invocation:
        return self._invocation(self._rates(seed, count=2, start=1.4))

    def sim_time(self, out: Outputs) -> float:
        return sum(out.column("value"))

    def check_invariants(self, out: Outputs, seed: int, failures: Failures) -> None:
        times, capped = out.column("value"), out.column("capped")
        for r, (t, cap) in enumerate(zip(times, capped)):
            failures.expect(cap == 0 and 0.0 < t < self.t_max,
                            f"cell {r}: time {t}, capped {cap:g}", [r])
        rates = out.column("axis2")
        best = min(range(len(times)), key=times.__getitem__)
        failures.expect(
            0 < best < len(times) - 1 and abs(rates[best] - self.optimum) <= self.optimum_atol,
            f"bottleneck: fastest rate_out {rates[best]} is not interior near {self.optimum}",
        )


class EvolveN3(Workload):
    name = "evolve_n3"
    why = ("one pumped 3-site trajectory at dim 128: flop-bound steps plus "
           "per-sample diagnostics and the 1001-row trajectory writer")
    exact_columns = ("min_eig_flag",)
    t_max = 10.0

    def _invocation(self, seed: int, t_max: float) -> Invocation:
        rate_in = 1.5 + rate_offset(seed, "rate_in")
        rate_out = 1.5 + rate_offset(seed, "rate_out")
        text = f"n_atoms=3 k=1.0 mu=1.0 rate_in={rate_in!r} rate_out={rate_out!r}\n"
        return Invocation("evolve", text, ("--t-max", repr(t_max), "--sample-every", "1"))

    def invocation(self, seed: int) -> Invocation:
        return self._invocation(seed, self.t_max)

    def warmup(self, seed: int) -> Invocation:
        return self._invocation(seed, 0.5)

    def n_ops(self, out: Outputs) -> int:
        return 1

    def op_of_row(self, row: int) -> int:
        return 0

    def sim_time(self, out: Outputs) -> float:
        return out.column("time")[-1]

    def check_invariants(self, out: Outputs, seed: int, failures: Failures) -> None:
        drift = max(abs(t - 1.0) for t in out.column("trace"))
        failures.expect(drift <= TRACE_DRIFT_MAX, f"trace column drifts {drift:.3e}")
        for name in out.header:
            if name.startswith(("sink", "photon_", "exciton_")):
                values = out.column(name)
                failures.expect(all(-VALUE_ATOL <= v <= 1.0 + VALUE_ATOL for v in values),
                                f"{name} leaves [0, 1]")
        sink = out.column("sink")
        failures.expect(all(b >= a - VALUE_ATOL for a, b in zip(sink, sink[1:])),
                        "sink population decreases")
        failures.expect(out.column("time")[-1] == self.t_max,
                        f"trajectory ends at {out.column('time')[-1]}, not {self.t_max}")


WORKLOADS = {w.name: w for w in (DatGrid(), BottleneckRow(), EvolveN3())}
