"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one ``[criterion NN] PASS/FAIL`` line; run with ``pytest -v``
(add ``-s`` to see the lines for passing tests too).  Numerically heavy checks
carry their own runtime budgets and assert them.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from cavitychain import (
    ChainConfig,
    DephasingModel,
    SinkAtTime,
    SinkCoupling,
    SweepAxis,
    SweepSpec,
    TimeToReach,
    bottleneck_scan,
    dat_scan,
    default_g_grid,
    default_rate_grid,
    evolve,
    optimal_rate,
    superoperator_oracle,
    time_to_reach,
)
from cavitychain.cli import main


@contextmanager
def criterion(tag):
    note = {}
    try:
        yield note
    except BaseException:
        print(f"[criterion {tag}] FAIL", flush=True)
        raise
    suffix = f" ({note['text']})" if "text" in note else ""
    print(f"[criterion {tag}] PASS{suffix}", flush=True)


def sink_grid(base, outs, gs, t):
    spec = SweepSpec(
        base=base,
        axis1=SweepAxis("rate_out", tuple(outs)),
        axis2=SweepAxis("g", tuple(gs)),
        objective=SinkAtTime(t),
        dt=0.01,
    )
    return dat_scan(spec).grid


def test_criterion_01_tunnelling_oracle():
    with criterion("01 tunnelling oracle") as note:
        started = time.perf_counter()
        record = evolve(ChainConfig(n_atoms=2, k=1.0), t_end=20.0, dt=0.01)
        elapsed = time.perf_counter() - started
        error = np.max(np.abs(record.photon[:, 1] - np.sin(record.times) ** 2))
        assert error <= 1e-6, f"second-cavity population off by {error:.3e}"
        assert np.max(record.sink) == 0.0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"
        note["text"] = f"max err {error:.2e}, {elapsed:.2f} s"


def test_criterion_02_exchange_oracle():
    with criterion("02 exchange oracle") as note:
        record = evolve(ChainConfig(n_atoms=1, mu=0.8), t_end=20.0, dt=0.01)
        error = np.max(np.abs(record.exciton[:, 0] - np.sin(0.8 * record.times) ** 2))
        assert error <= 1e-6, f"exciton population off by {error:.3e}"
        note["text"] = f"max err {error:.2e}"


def test_criterion_03_superoperator_equivalence():
    with criterion("03 superoperator equivalence") as note:
        config = ChainConfig(n_atoms=2, k=0.8, mu=0.5, g=0.4, rate_out=1.2)
        started = time.perf_counter()
        exact = superoperator_oracle(config, 10.0).elements
        errors = {}
        for dt in (0.02, 0.01):
            final = evolve(config, t_end=10.0, dt=dt).final_state.elements
            errors[dt] = np.max(np.abs(final - exact))
        elapsed = time.perf_counter() - started
        ratio = errors[0.02] / errors[0.01]
        assert 1.7 <= ratio <= 2.3, f"halving dt scaled the error by {ratio:.3f}"
        assert elapsed < 10.0, f"took {elapsed:.2f} s"
        note["text"] = f"error ratio {ratio:.3f}, {elapsed:.2f} s"


def test_criterion_04_conservation_suite():
    with criterion("04 conservation suite") as note:
        config = ChainConfig(
            n_atoms=2, k=1.0, mu=1.0, rate_in=0.3, rate_out=0.3, g=0.2, cavity_loss=0.1
        )
        record = evolve(config, t_end=100.0, dt=0.01, sample_every=10)
        assert record.max_trace_drift <= 1e-8
        assert record.max_hermiticity_defect <= 1e-10
        assert record.min_eigenvalue_seen >= -1e-6
        # undriven chain: the sink+photon+exciton count must stay put
        undriven = ChainConfig(n_atoms=2, k=1.0, mu=0.8, g=0.3, rate_out=1.2)
        rec = evolve(undriven, t_end=100.0, dt=0.01, sample_every=10)
        count = rec.sink + rec.photon.sum(axis=1) + rec.exciton.sum(axis=1)
        drift = np.max(np.abs(count - count[0]))
        assert drift <= 1e-8, f"excitation count drifted by {drift:.3e}"
        note["text"] = (
            f"trace {record.max_trace_drift:.1e}, herm "
            f"{record.max_hermiticity_defect:.1e}, eig {record.min_eigenvalue_seen:.1e}, "
            f"count drift {drift:.1e}"
        )


def test_criterion_05_throughput_optimum():
    with criterion("05 throughput optimum") as note:
        outs = default_rate_grid()[4:]  # 0.5 .. 4.0
        spec = SweepSpec(
            base=ChainConfig(n_atoms=2, k=1.0, mu=1.0, rate_in=1.5, rate_out=0.5),
            axis1=SweepAxis("rate_in", (1.5,)),
            axis2=SweepAxis("rate_out", outs),
            objective=TimeToReach(0.995, 400.0),
            dt=0.01,
        )
        started = time.perf_counter()
        times = bottleneck_scan(spec).grid[0]
        elapsed = time.perf_counter() - started
        best = int(np.argmin(times))
        assert abs(outs[best] - 1.5) <= 0.1 + 1e-9, f"argmin at out={outs[best]}"
        assert 0 < best < len(outs) - 1, "minimum sits on the grid edge"
        assert times[-1] > times[best], "no penalty for over-draining"
        assert elapsed < 300.0, f"took {elapsed:.1f} s"
        note["text"] = (
            f"argmin out={outs[best]}, t={times[best]:.3f}, "
            f"t(4.0)={times[-1]:.3f}, {elapsed:.1f} s"
        )


def test_criterion_06_asymmetric_optimum():
    with criterion("06 asymmetric optimum") as note:
        base = ChainConfig(
            n_atoms=2,
            k=0.8,
            mu=0.5,
            rate_in=1.5,
            rate_out=1.0,
            sink_coupling=SinkCoupling.LAST_EXCITON,
        )
        grid = default_rate_grid()
        opt_in = optimal_rate(base, "rate_in", grid)
        opt_out = optimal_rate(replace(base, rate_in=1.9), "rate_out", grid)
        assert not opt_in.capped and not opt_out.capped
        assert abs(opt_in.rate - 1.9) <= 0.2 + 1e-9, f"optimal input {opt_in.rate}"
        assert abs(opt_out.rate - 1.0) <= 0.2 + 1e-9, f"optimal output {opt_out.rate}"
        note["text"] = f"opt in={opt_in.rate} (out=1.0), opt out={opt_out.rate} (in=1.9)"


def test_criterion_07_dephasing_assisted_transport():
    with criterion("07 dephasing assisted transport") as note:
        grid = default_rate_grid()
        slow = ChainConfig(
            n_atoms=2, k=0.8, mu=0.2, rate_out=0.5,
            sink_coupling=SinkCoupling.LAST_EXCITON,
        )
        row = sink_grid(slow, grid, (0.0,), 150.0)[:, 0]
        out_opt = grid[int(np.argmax(row))]
        witness_out, witness_g = 0.3, 0.9
        assert witness_out in grid and witness_g in default_g_grid()
        assert witness_out < out_opt, "witness must sit below the optimum"
        cells = sink_grid(slow, (witness_out,), (0.0, witness_g), 150.0)
        margin_below = float(cells[0, 1] - cells[0, 0])
        assert margin_below > 1e-3, f"margin {margin_below:.2e}"

        fast = ChainConfig(
            n_atoms=2, k=0.2, mu=0.8, rate_out=0.5,
            sink_coupling=SinkCoupling.LAST_EXCITON,
        )
        row = sink_grid(fast, grid, (0.0,), 60.0)[:, 0]
        out_opt_fast = grid[int(np.argmax(row))]
        witness_out, witness_g = 2.5, 0.8
        assert witness_out in grid and witness_g in default_g_grid()
        assert witness_out > out_opt_fast, "witness must sit above the optimum"
        cells = sink_grid(fast, (witness_out,), (0.0, witness_g), 60.0)
        margin_above = float(cells[0, 1] - cells[0, 0])
        assert margin_above > 1e-3, f"margin {margin_above:.2e}"
        note["text"] = (
            f"below-optimum margin {margin_below:.3f} (opt {out_opt}), "
            f"above-optimum margin {margin_above:.3f} (opt {out_opt_fast})"
        )


def test_criterion_08_unitary_dephasing_concordance():
    with criterion("08 unitary dephasing concordance") as note:
        started = time.perf_counter()
        grid = default_rate_grid()
        unitary = ChainConfig(
            n_atoms=2, k=0.8, mu=0.2, rate_out=0.5,
            sink_coupling=SinkCoupling.LAST_EXCITON,
            dephasing=DephasingModel.UNITARY_PHONON,
        )
        row = sink_grid(unitary, grid, (0.0,), 150.0)[:, 0]
        out_opt = grid[int(np.argmax(row))]
        witness_out, witness_g = 0.3, 0.35
        assert witness_out < out_opt and witness_g in default_g_grid()
        cells = sink_grid(unitary, (witness_out,), (0.0, witness_g), 150.0)
        margin_unitary = float(cells[0, 1] - cells[0, 0])
        assert margin_unitary > 1e-4, f"margin {margin_unitary:.2e}"

        jump_model = replace(unitary, dephasing=DephasingModel.LINDBLAD_LIKE)
        cells = sink_grid(jump_model, (witness_out,), (0.0, witness_g), 150.0)
        margin_jump = float(cells[0, 1] - cells[0, 0])
        assert margin_unitary < margin_jump, (
            f"unitary margin {margin_unitary:.3f} should trail {margin_jump:.3f}"
        )

        five = ChainConfig(
            n_atoms=5, k=0.8, mu=0.2, rate_out=0.5,
            sink_coupling=SinkCoupling.LAST_EXCITON,
        )
        row = sink_grid(five, grid, (0.0,), 150.0)[:, 0]
        out_opt_five = grid[int(np.argmax(row))]
        witness_out, witness_g = 0.5, 0.4
        assert witness_out < out_opt_five and witness_g in default_g_grid()
        cells = sink_grid(five, (witness_out,), (0.0, witness_g), 150.0)
        margin_five = float(cells[0, 1] - cells[0, 0])
        elapsed = time.perf_counter() - started
        assert margin_five > 1e-4, f"margin {margin_five:.2e}"
        assert elapsed < 600.0, f"took {elapsed:.1f} s"
        note["text"] = (
            f"unitary margin {margin_unitary:.3f} < jump margin {margin_jump:.3f}, "
            f"5-site margin {margin_five:.3f}, {elapsed:.1f} s"
        )


def test_criterion_09_short_long_divergence():
    with criterion("09 short/long divergence") as note:
        times = {}
        for target in (0.3, 0.995):
            for out in (1.5, 2.5):
                config = ChainConfig(
                    n_atoms=2, k=1.0, mu=1.0, rate_in=1.5, rate_out=out
                )
                result = time_to_reach(config, target=target, dt=0.05)
                assert not result.capped
                times[(target, out)] = result.time
        assert times[(0.3, 2.5)] < times[(0.3, 1.5)], (
            "faster drain should win the sprint"
        )
        assert times[(0.995, 1.5)] < times[(0.995, 2.5)], (
            "moderate drain should win the long haul"
        )
        note["text"] = (
            f"t(0.3): {times[(0.3, 2.5)]:.3f} < {times[(0.3, 1.5)]:.3f}; "
            f"t(0.995): {times[(0.995, 1.5)]:.3f} < {times[(0.995, 2.5)]:.3f}"
        )


def test_criterion_10_cli_determinism(tmp_path):
    with criterion("10 cli determinism") as note:
        configs = {
            "evolve": "n_atoms=1 mu=0.8 rate_out=0.5\n",
            "bottleneck": (
                "n_atoms=2 k=1.0 mu=1.0 rate_in=1.5\n"
                "axis1_param=rate_in axis1_values=1.5\n"
                "axis2_param=rate_out axis2_values=1.0,1.5\n"
            ),
            "dat": (
                "n_atoms=1 mu=0.8 rate_out=0.5\n"
                "axis1_param=rate_out axis1_values=0.5,1.0\n"
                "axis2_param=g axis2_values=0.0,0.5\nobjective_time=3\n"
            ),
            "sweep": (
                "n_atoms=1 mu=0.8 rate_out=0.5\n"
                "axis1_param=rate_out axis1_values=0.4,0.8\n"
                "objective=sink_at_time objective_time=3\n"
            ),
        }
        for command, text in configs.items():
            config = tmp_path / f"{command}.cfg"
            config.write_text(text)
            outputs = []
            for run, workers in (("a", "1"), ("b", "3"), ("c", "1")):
                out = tmp_path / f"{command}_{run}"
                argv = ["--config", str(config), "--out", str(out)]
                if command == "evolve":
                    argv += ["--t-max", "5"]
                    if run == "b":
                        continue  # no worker knob on trajectories
                else:
                    argv += ["--workers", workers]
                assert main([command] + argv) == 0
                assert (tmp_path / f"{command}_{run}.manifest.json").exists()
                outputs.append((tmp_path / f"{command}_{run}.csv").read_bytes())
            assert all(blob == outputs[0] for blob in outputs[1:]), (
                f"{command} reruns differ"
            )
        note["text"] = "4 commands, reruns and worker counts byte-identical"
