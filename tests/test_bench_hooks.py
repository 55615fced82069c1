"""The benchmark's per-layer hooks still find every function they trace.

``bench/hooks.py`` patches functions by module and name, and skips a target
that no longer exists, reporting its metrics as absent.  A rename in the
program would therefore drop per-layer metrics without failing the benchmark;
this test runs one small sweep and one short trajectory under the tracer and
requires every hook to be live.  The benchmark's ``setup_s`` path (parse,
assemble, diagonalize) is run on every workload's reference config as well.
"""

import sys
from pathlib import Path

from cavitychain.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import hooks  # noqa: E402
import run  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def test_every_hook_is_live_and_every_metric_reported(tmp_path):
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "n_atoms=1 mu=0.8 rate_out=0.5 axis1_param=rate_out axis1_values=0.5,1.0\n"
        "objective=sink_at_time objective_time=0.5\n"
    )
    evolve_cfg = tmp_path / "evolve.cfg"
    evolve_cfg.write_text("n_atoms=1 mu=0.8 rate_out=0.5\n")
    sweep = ["sweep", "--config", str(sweep_cfg), "--out", str(tmp_path / "s")]
    evolve = ["evolve", "--config", str(evolve_cfg), "--out", str(tmp_path / "e")]
    with hooks.Tracer() as tracer:
        assert main(sweep) == 0
        assert main(evolve + ["--t-max", "0.5"]) == 0
    assert tracer.absent == set()
    metrics = tracer.metrics(0)
    expected = {name for name in hooks.METRICS if not name.startswith("trace.")}
    assert expected - set(metrics) == set()
    assert metrics["evolution.step_flops"] > 0


def test_setup_path_runs_on_every_workload():
    for workload in WORKLOADS.values():
        samples: list[float] = []
        run.sample_setup(workload.invocation(REFERENCE_SEED).config, samples)
        assert len(samples) >= 3, workload.name
