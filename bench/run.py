"""Benchmark of the cavitychain CLI: end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload dat_grid --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

One invocation measures one workload in this fresh process.  The workload's
seed makes the config text (see ``workloads.py``); the program sees only that
text, through ``cavitychain.cli.main`` called in process with ``--workers 1``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median seconds of the whole CLI command (parse, compute, CSV
  and manifest write) over the timed repetitions;
* ``sim_time_per_s``: model time evolved over all cells (fixed ``t``, the
  crossing time, or ``t_max`` if capped), per wall second, median;
* ``setup_s``: median seconds from config text to a diagonalized chain
  (``parse_config`` + ``assemble`` + ``diagonalize`` on the base config);
* ``peak_rss_mb``: peak resident memory of this process.

``failed_frac`` (failed over attempted operations; an operation is one sweep
cell or one trajectory) is printed and carried by the ``attempted`` and
``failed`` fields of the result line.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``hooks.py`` (medians over traced repetitions), plus
the tracing overhead: traced minus untraced median wall time.

Before timing, one untimed warm-up runs a short version of the same command.
Timed repetitions continue while the next one is expected to end within
``--seconds``.  Every repetition's outputs are checked (see
``workloads.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed, 1 when a check failed, and 2 when the program
cannot be found next to the benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = Path(__file__).resolve().parent / ".work"
WORKLOAD_NAMES = ("dat_grid", "bottleneck_row", "evolve_n3")
SETUP_BATCH_REPS = 3
SETUP_BATCH_SECONDS = 0.1

# ROADMAP "Recent" step costs (us per step) that the workloads cover, by dim
QUOTED_STEP_US = {6: 34.0, 32: 121.0, 128: 3900.0}
# ROADMAP "Recent": evolve at sample_every=1 took 0.42 s against 0.20 s
# without per-sample diagnostics, a diagnostic share of about 0.52
QUOTED_SAMPLE_SHARE = 0.52


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import cavitychain from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cavitychain" / "__init__.py").is_file():
        raise ProgramMissing(f"no cavitychain package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("cavitychain")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"cavitychain imported from {package.__file__}, not {SRC}")
    return package


def _blas_threads() -> tuple[str, int | None]:
    """OpenBLAS build string and thread count, read from the loaded library."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return get_config().decode(), get_threads()
    return "unknown", None


def machine_record(load_at_start) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints instead
        blas = {}
    try:
        blas_config, blas_threads = _blas_threads()
    except OSError:
        blas_config, blas_threads = "unknown", None
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": blas_config,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": load_at_start,
    }


def sample_setup(config_text: str, samples: list[float]) -> None:
    """Time config text to a diagonalized chain, a few times, into samples.

    Called between timed repetitions, so the median spans the whole run
    rather than one moment of it.
    """
    from cavitychain.cli import parse_config
    from cavitychain.evolution import diagonalize
    from cavitychain.model import assemble

    started = perf_counter()
    reps = 0
    while reps < SETUP_BATCH_REPS or perf_counter() - started < SETUP_BATCH_SECONDS:
        t0 = perf_counter()
        chain = assemble(parse_config(config_text).chain)
        diagonalize(chain.hamiltonian)
        samples.append(perf_counter() - t0)
        reps += 1


class Runner:
    """Runs one workload's CLI command repeatedly and checks every result."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        from cavitychain.cli import main

        self.main = main
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._first: tuple[bytes, dict] | None = None
        self._first_failed: set[int] = set()

    def _call(self, invocation, tag: str):
        config = self.work / f"{tag}.cfg"
        config.write_text(invocation.config)
        prefix = self.work / tag
        for suffix in (".csv", ".manifest.json"):
            prefix.with_name(tag + suffix).unlink(missing_ok=True)
        argv = invocation.argv(str(config), str(prefix))
        started = perf_counter()
        try:
            code = self.main(argv)
        except Exception:  # a crash is a failed run, reported with its traceback
            traceback.print_exc()
            code = "exception"
        return perf_counter() - started, code, prefix

    def warm_up(self) -> None:
        _, code, _ = self._call(self.workload.warmup(self.seed), "warmup")
        if code != 0:
            self.messages.append(f"warm-up exited with {code}")
            self.attempted += 1
            self.failed += 1

    def timed(self) -> tuple[float, float, int]:
        """One checked repetition: (wall seconds, sim time, csv bytes)."""
        from workloads import Outputs

        wall, code, prefix = self._call(self.workload.invocation(self.seed), "run")
        if code != 0:
            self.messages.append(f"command exited with {code}")
            self.attempted += 1
            self.failed += 1
            return wall, 0.0, 0
        out = Outputs.read(prefix)
        n_ops = self.workload.n_ops(out)
        self.attempted += n_ops
        manifest = {k: v for k, v in out.manifest.items() if k != "duration_seconds"}
        if self._first is None:
            self._first = (out.csv_bytes, manifest)
            verdict = self.workload.check(out, self.seed)
            self._first_failed = verdict.failed_ops
            self.messages += verdict.messages
            self.failed += len(verdict.failed_ops)
        elif (out.csv_bytes, manifest) != self._first:
            self.messages.append("a rerun is not byte-identical to the first run")
            self.failed += n_ops
        else:
            self.failed += len(self._first_failed)
        return wall, self.workload.sim_time(out), len(out.csv_bytes)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Runner, dict]:
    from hooks import Tracer

    runner = Runner(workload, seed, work)
    runner.warm_up()
    config_text = workload.invocation(seed).config
    walls, rates, setups, traced_walls, layer_samples = [], [], [], [], []
    absent: list[str] = []
    started = perf_counter()
    last = 0.0
    while True:
        if trace and len(walls) > len(traced_walls):
            with Tracer() as tracer:
                wall, sim_time, csv_bytes = runner.timed()
            traced_walls.append(wall)
            layer_samples.append(tracer.metrics(csv_bytes))
            absent = sorted(tracer.absent)
        else:
            wall, sim_time, csv_bytes = runner.timed()
            walls.append(wall)
            rates.append(sim_time / wall)
            if not trace:
                sample_setup(config_text, setups)
        elapsed = perf_counter() - started
        done_tracing = not trace or traced_walls
        if done_tracing and elapsed + (elapsed - last) > seconds:
            break
        last = elapsed

    metrics: dict[str, float] = {}
    if trace:
        for name in layer_samples[0]:
            metrics[name] = statistics.median(s[name] for s in layer_samples)
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_share"] = (traced - untraced) / untraced
        if absent:
            print(f"absent hooks (their metrics are not reported): {', '.join(absent)}")
    else:
        metrics["wall_s"] = statistics.median(walls)
        metrics["sim_time_per_s"] = statistics.median(rates)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"repetitions: {len(walls)}, wall_s each: "
              + ", ".join(f"{w:.3f}" for w in walls))
    return runner, metrics


def run_one(args) -> int:
    load_at_start = os.getloadavg()
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hooks import METRICS
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine_record(load_at_start)))
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner, metrics = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {"wall_s": "s", "sim_time_per_s": "t_model/s", "setup_s": "s",
             "peak_rss_mb": "MB"}
    units.update({name: unit for name, (unit, _, _) in METRICS.items()})
    for message in runner.messages:
        print(f"check failed: {message}")
    print(f"{workload.name} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_frac = {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    correct = runner.failed == 0 and not runner.messages
    result = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": max(runner.failed, 0 if correct else 1),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, then a summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 1

    print("\nsummary (seed %d, %s)" % (args.seed, "traced" if args.trace else "untraced"))
    for name, result in results.items():
        cells = ", ".join(f"{m}={v['value']:.4g} {v['unit']}"
                          for m, v in result["metrics"].items()
                          if args.trace == 0 or m.startswith(("evolution.step_us", "trace.",
                                                              "evolution.sample_share",
                                                              "modes.basis_dim")))
        frac = result["failed"] / result["attempted"]
        print(f"  {name}: {cells}, failed_frac={frac:.4g}")
    if args.trace:
        print("ROADMAP step costs reproduced (us/step, p50 traced vs quoted):")
        for name, result in results.items():
            m = result["metrics"]
            if "modes.basis_dim" in m and "evolution.step_us_p50" in m:
                dim = int(m["modes.basis_dim"]["value"])
                quoted = QUOTED_STEP_US.get(dim)
                print(f"  dim {dim} ({name}): {m['evolution.step_us_p50']['value']:.1f}"
                      f" vs {quoted}")
        if "evolution.sample_share" in results["evolve_n3"]["metrics"]:
            share = results["evolve_n3"]["metrics"]["evolution.sample_share"]["value"]
            print(f"  per-sample diagnostic share of evolve: {share:.2f} vs about "
                  f"{QUOTED_SAMPLE_SHARE} quoted (whose config is not stated)")
        print("  not covered: the dim-512 step (134 ms) and the 2-thread pool timing")
    total = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
