"""Command-line front end: flat key=value configs in, CSV plus a run manifest out.

Four commands share one config schema and one parser, which takes every
flag.  ``_COMMANDS`` gives each its help, objective, default axes and
runner: ``evolve`` integrates one trajectory; ``bottleneck`` (input rate
against output rate, time to reach a target sink population), ``dat``
(output rate against dephasing strength, sink population at a fixed time)
and ``sweep`` (the general two-axis scan the other two preset) run one scan.
A flag or config key the command does not read exits 2 with
``error: <name>: <command> does not read it`` and writes nothing.

Every CSV is written alongside exactly one ``<prefix>.manifest.json`` whose
``config`` field parses back to the same resolved run, so a finished run can
be rerun from its own manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time as _time
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import __version__
from .evolution import DEFAULT_DT, TrajectoryRecord, evolve
from .experiments import (
    DEFAULT_T_MAX,
    DEFAULT_TARGET,
    SinkAtTime,
    SweepAxis,
    SweepResult,
    SweepSpec,
    TimeToReach,
    bottleneck_scan,
    dat_scan,
    default_g_grid,
    default_rate_grid,
    run_sweep,
)
from .model import FIELD_KINDS, ChainConfig, DephasingModel


class ConfigError(ValueError):
    """Raised for malformed or contradictory configuration text."""


# long-form spellings tolerated on input, never emitted
_ENUM_ALIASES = {
    "dephasing": {"unitaryphonon": "unitary", "lindbladlike": "lindblad"},
}
_AXIS_KEYS = ("axis1_param", "axis1_values", "axis2_param", "axis2_values")
_OBJECTIVE_KINDS = ("time_to_reach", "sink_at_time")
_ALL_KEYS = frozenset((*FIELD_KINDS, *_AXIS_KEYS, "objective", "objective_time"))


@dataclass(frozen=True)
class RunSetup:
    """Everything a config file can say: the chain plus optional sweep parts."""

    chain: ChainConfig
    axis1: SweepAxis | None = None
    axis2: SweepAxis | None = None
    objective_kind: str | None = None
    objective_time: float | None = None


def _tokenize(text: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            if "=" not in token:
                raise ConfigError(
                    f"line {lineno}: expected key=value, got {token!r}"
                )
            key, value = token.split("=", 1)
            pairs.append((key, value))
    return pairs


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from None


def _parse_values(key: str, raw: str) -> tuple[float, ...]:
    parts = [part for part in raw.split(",") if part != ""]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_parse_float(key, part) for part in parts)


def parse_config(text: str) -> RunSetup:
    """Parse flat ``key=value`` text ('#' comments) into a resolved RunSetup.

    Errors name the offending key.  Keys may share a line; each may appear
    once.  ``n_atoms`` is required; everything else has a documented default.
    """
    values: dict[str, object] = {}
    for key, raw in _tokenize(text):
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key: {key}")
        if key in values:
            raise ConfigError(f"duplicate key: {key}")
        kind = FIELD_KINDS.get(key)
        if kind is float or key == "objective_time":  # the one non-chain float key
            values[key] = _parse_float(key, raw)
        elif kind is int:
            values[key] = _parse_int(key, raw)
        elif kind is not None:  # an enum: ChainConfig checks the token
            token = raw.lower()
            values[key] = _ENUM_ALIASES.get(key, {}).get(token, token)
        elif key in ("axis1_values", "axis2_values"):
            values[key] = _parse_values(key, raw)
        elif key == "objective":
            if raw not in _OBJECTIVE_KINDS:
                raise ConfigError(
                    f"objective: expected one of {'|'.join(_OBJECTIVE_KINDS)}, got {raw!r}"
                )
            values[key] = raw
        else:
            values[key] = raw

    if "n_atoms" not in values:
        raise ConfigError("n_atoms is required")

    try:
        chain = ChainConfig(**{key: values[key] for key in FIELD_KINDS if key in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    axes = []
    for prefix in ("axis1", "axis2"):
        param = values.get(f"{prefix}_param")
        axis_values = values.get(f"{prefix}_values")
        if param is None and axis_values is None:
            axes.append(None)
            continue
        if param is None or axis_values is None:
            raise ConfigError(
                f"{prefix}_param and {prefix}_values must be given together"
            )
        try:
            axes.append(SweepAxis(param, axis_values))
        except ValueError as exc:
            raise ConfigError(f"{prefix}: {exc}") from None
    if axes[0] is None and axes[1] is not None:
        raise ConfigError("axis2_param requires axis1_param")

    objective_kind = values.get("objective")
    objective_time = values.get("objective_time")
    if objective_kind == "sink_at_time" and objective_time is None:
        raise ConfigError("objective_time is required when objective=sink_at_time")
    if objective_time is not None and objective_time <= 0:
        raise ConfigError("objective_time: must be > 0")

    setup = RunSetup(
        chain=chain,
        axis1=axes[0],
        axis2=axes[1],
        objective_kind=objective_kind,
        objective_time=objective_time,
    )
    if chain.dephasing is DephasingModel.UNITARY_PHONON and chain.g == 0.0:
        warnings.warn(
            "dephasing=unitary with g=0: phonons are present but decoupled",
            UserWarning,
            stacklevel=2,
        )
    return setup


def serialize_run(setup: RunSetup) -> str:
    """Emit config text that parses back to an equal RunSetup."""
    lines = []
    # every ChainConfig field is a config key, written in declaration order
    for key in FIELD_KINDS:
        value = getattr(setup.chain, key)
        lines.append(f"{key}={value.value if isinstance(value, Enum) else value}")
    for prefix, axis in (("axis1", setup.axis1), ("axis2", setup.axis2)):
        if axis is not None:
            lines.append(f"{prefix}_param={axis.param}")
            joined = ",".join(repr(v) for v in axis.values)
            lines.append(f"{prefix}_values={joined}")
    if setup.objective_kind is not None:
        lines.append(f"objective={setup.objective_kind}")
    if setup.objective_time is not None:
        lines.append(f"objective_time={setup.objective_time!r}")
    return "\n".join(lines) + "\n"


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write the header and a row per entry: "%.12g" cells, as format(x, ".12g"), then a flag."""
    template = "%.12g," * (len(header) - 1) + "%d\n"
    rows = np.column_stack(columns).tolist()
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(template % tuple(row) for row in rows)


def write_trajectory_csv(record: TrajectoryRecord, path: str) -> None:
    n = record.n_sites
    header = (
        ["time", "sink"]
        + [f"photon_{i}" for i in range(1, n + 1)]
        + [f"exciton_{i}" for i in range(1, n + 1)]
        + ["trace", "min_eig_flag"]
    )
    _write_csv(path, header, [
        record.times, record.sink, record.photon, record.exciton, record.trace,
        record.positivity_flags,
    ])


def write_sweep_csv(result: SweepResult, path: str) -> None:
    spec = result.spec
    rows, cols = result.grid.shape
    columns = [np.repeat(spec.axis1.values, cols)]
    if spec.axis2 is not None:
        columns.append(np.tile(spec.axis2.values, rows))
    header = ["axis1", "axis2"][: len(columns)] + ["value", "capped"]
    _write_csv(path, header, [*columns, result.grid.reshape(-1), result.cap_mask.reshape(-1)])


def _write_manifest(args, setup: RunSetup, duration: float, result) -> None:
    """Write ``<out>.manifest.json``; result is a TrajectoryRecord or SweepResult.

    The basis dim and sectors are those the run built: the trajectory's, or
    the one basis every sweep cell shares.  A sweep also records how many
    cells each route ran.
    """
    manifest = {
        "command": args.command,
        "config": serialize_run(setup),
        "dt": args.dt,
        "version": __version__,
        "duration_seconds": duration,
        "max_trace_drift": result.max_trace_drift,
        "min_eigenvalue_seen": result.min_eigenvalue_seen,
    }
    if isinstance(result, SweepResult):
        manifest["cell_routes"] = result.cell_routes
    sectors = result.sectors
    manifest["basis_dim"] = sectors.dim
    manifest["sector_sizes"] = [
        [n, sink, size] for (n, sink), size in zip(sectors.keys, sectors.sizes)
    ]
    with open(f"{args.out}.manifest.json", "w", newline="\n") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def _load_setup(path: str) -> RunSetup:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def _reject_unread(reader: str, given: dict[str, object]) -> None:
    """Raise a ConfigError naming the first config key or flag ``reader`` ignores."""
    for name, value in given.items():
        if value is not None:
            raise ConfigError(f"{name}: {reader} does not read it")


# command -> (its one-line help; the objective it measures, or None where the
# config chooses or there is none; its default axis params, or None; the name
# of its runner, looked up when the command runs so that a runner patched on
# this module is the one called)
_COMMANDS = {
    "evolve": ("integrate one trajectory", None, None, "evolve"),
    "bottleneck": ("scan input rate x output rate for time-to-target", "time_to_reach",
                   ("rate_in", "rate_out"), "bottleneck_scan"),
    "dat": ("scan output rate x dephasing strength for sink population", "sink_at_time",
            ("rate_out", "g"), "dat_scan"),
    "sweep": ("general two-axis scan", None, None, "run_sweep"),
}


def _evolve_inputs(args) -> tuple[RunSetup, tuple]:
    """(setup, the runner's arguments) of ``evolve``: one trajectory."""
    setup = _load_setup(args.config)
    # axis2 needs axis1, so naming axis1 covers both
    _reject_unread("evolve", {
        "axis1_param": setup.axis1,
        "objective": setup.objective_kind,
        "objective_time": setup.objective_time,
        "--target": args.target,
        "--workers": args.workers,
    })
    t_end = DEFAULT_T_MAX if args.t_max is None else args.t_max
    return setup, (setup.chain, t_end, args.dt, args.sample_every or 1)


def _default_axis(param: str) -> SweepAxis:
    return SweepAxis(param, default_g_grid() if param == "g" else default_rate_grid())


def _sweep_inputs(args) -> tuple[RunSetup, tuple]:
    """(setup, the runner's arguments) of ``bottleneck``, ``dat`` or ``sweep``: one scan."""
    _, fixed_kind, default_params, _ = _COMMANDS[args.command]
    setup = _load_setup(args.config)
    kind = fixed_kind or setup.objective_kind or "time_to_reach"
    if setup.objective_kind not in (None, kind):
        raise ConfigError(
            f"objective: {args.command} measures {kind}, not {setup.objective_kind}"
        )
    unread = {"--sample-every": args.sample_every}
    if kind == "time_to_reach":
        if setup.objective_time is not None:
            raise ConfigError(
                "objective: objective_time is set but the objective is time_to_reach"
            )
        objective = TimeToReach(
            target=DEFAULT_TARGET if args.target is None else args.target,
            t_max=DEFAULT_T_MAX if args.t_max is None else args.t_max,
        )
    else:
        if setup.objective_time is None:
            raise ConfigError(f"objective_time is required for {args.command}")
        unread = {"--t-max": args.t_max, "--target": args.target, **unread}
        objective = SinkAtTime(setup.objective_time)
    _reject_unread(args.command, unread)
    axis1, axis2 = setup.axis1, setup.axis2
    if default_params is not None:
        axis1 = axis1 or _default_axis(default_params[0])
        axis2 = axis2 or _default_axis(default_params[1])
    elif axis1 is None:
        raise ConfigError(f"axis1_param/axis1_values are required for {args.command}")
    return setup, (SweepSpec(setup.chain, axis1, objective, axis2, args.dt),)


# one parser for every command, built once: argparse's help formatting costs
# more to build than a parse does; it lists the commands after the flags
_PARSER = argparse.ArgumentParser(
    prog="cavitychain",
    description="Excitation transport in dissipative cavity-atom chains.",
    epilog="commands (a flag the command does not read exits 2):\n"
    + "".join(f"  {c:<12}{row[0]}\n" for c, row in _COMMANDS.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
_PARSER.add_argument("--version", action="version", version=__version__)
_PARSER.add_argument("command", choices=_COMMANDS, metavar="command", help="see below")
_PARSER.add_argument("--config", required=True, help="key=value config file")
_PARSER.add_argument("--out", required=True, help="output path prefix")
_PARSER.add_argument("--dt", type=float, default=DEFAULT_DT, help=f"default {DEFAULT_DT:g}")
# read by some commands only: None where not given
_PARSER.add_argument("--t-max", type=float, help=f"end or cap; default {DEFAULT_T_MAX:g}")
_PARSER.add_argument("--target", type=float, help=f"sink to reach; default {DEFAULT_TARGET:g}")
_PARSER.add_argument("--sample-every", type=int, help="evolve; default 1")
_PARSER.add_argument("--workers", type=int, help="sweeps; no effect")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    for flag, value, high in (
        ("--dt", args.dt, math.inf),
        ("--t-max", args.t_max, math.inf),
        ("--target", args.target, 1.0),
        ("--sample-every", args.sample_every, math.inf),
        ("--workers", args.workers, math.inf),
    ):
        # an open interval also keeps out nan and inf; for an integer, > 0 is >= 1
        if value is not None and not 0.0 < value < high:
            _PARSER.error(f"{flag} must lie in (0, {high:g}), got {value}")
    _, _, _, runner = _COMMANDS[args.command]
    try:
        if not os.path.isdir(os.path.dirname(args.out) or "."):  # before any cell runs
            raise ConfigError(f"--out: no directory for {args.out!r}")
        setup, inputs = (_evolve_inputs if args.command == "evolve" else _sweep_inputs)(args)
        started = _time.perf_counter()
        result = globals()[runner](*inputs)
        duration = _time.perf_counter() - started
        write = write_sweep_csv if isinstance(result, SweepResult) else write_trajectory_csv
        write(result, f"{args.out}.csv")
        _write_manifest(args, setup, duration, result)
        return 0
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
