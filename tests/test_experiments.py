"""Sweep harness: time-to-target, optimal rates, bottleneck and dephasing scans."""

import numpy as np
import pytest

from cavitychain.evolution import evolve
from cavitychain.experiments import (
    OptimalRate,
    ReachTime,
    SinkAtTime,
    SweepAxis,
    SweepSpec,
    TimeToReach,
    bottleneck_scan,
    dat_scan,
    default_g_grid,
    default_rate_grid,
    optimal_rate,
    run_sweep,
    time_to_reach,
)
from cavitychain.model import ChainConfig, DephasingModel, SinkCoupling


def transport_config(**overrides):
    params = dict(n_atoms=2, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5)
    params.update(overrides)
    return ChainConfig(**params)


def test_objective_validation():
    with pytest.raises(ValueError):
        TimeToReach(target=0.0)
    with pytest.raises(ValueError):
        TimeToReach(target=1.0)
    with pytest.raises(ValueError):
        TimeToReach(target=0.9, t_max=0.0)
    with pytest.raises(ValueError):
        SinkAtTime(0.0)


def test_axis_validation():
    with pytest.raises(ValueError):
        SweepAxis("omega_a", (0.1, 0.2))
    with pytest.raises(ValueError):
        SweepAxis("rate_out", ())
    with pytest.raises(ValueError):
        SweepAxis("rate_out", (0.5, 0.5))
    with pytest.raises(ValueError):
        SweepAxis("rate_out", (1.0, 0.5))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^axis rate_out values must be finite"):
            SweepAxis("rate_out", (0.5, bad))


def test_spec_validation():
    axis = SweepAxis("rate_out", (0.5, 1.0))
    with pytest.raises(ValueError):
        SweepSpec(base=transport_config(), axis1=axis, axis2=axis, objective=TimeToReach())
    with pytest.raises(TypeError):
        SweepSpec(base=transport_config(), axis1=axis, objective="time")
    with pytest.raises(ValueError):
        SweepSpec(base=transport_config(), axis1=axis, objective=TimeToReach(), dt=0.0)
    # an undriven base resolves an undriven window and start for every cell
    with pytest.raises(ValueError, match="^rate_in: "):
        SweepSpec(
            base=transport_config(rate_in=0.0),
            axis1=SweepAxis("rate_in", (1.5,)),
            axis2=axis,
            objective=TimeToReach(),
        )
    # a swept parameter the base chain ignores would write a flat grid
    with pytest.raises(ValueError, match="^g: "):
        SweepSpec(
            base=ChainConfig(
                n_atoms=2, k=0.8, mu=0.2, rate_out=1.0, dephasing=DephasingModel.NONE
            ),
            axis1=SweepAxis("g", (0.0, 0.5, 1.0)),
            objective=SinkAtTime(5.0),
        )
    with pytest.raises(ValueError, match="^k: "):
        SweepSpec(
            base=ChainConfig(n_atoms=1, mu=0.8, rate_out=1.0),
            axis1=SweepAxis("k", (0.0, 0.5, 1.0)),
            objective=SinkAtTime(5.0),
        )


def test_default_grids():
    rates = default_rate_grid()
    assert len(rates) == 40
    assert rates[0] == 0.1 and rates[-1] == 4.0
    assert 0.3 in rates and 2.5 in rates
    np.testing.assert_allclose(np.diff(rates), 0.1, atol=1e-12)
    gs = default_g_grid()
    assert len(gs) == 41
    assert gs[0] == 0.0 and gs[-1] == 2.0
    assert 0.35 in gs and 0.9 in gs
    np.testing.assert_allclose(np.diff(gs), 0.05, atol=1e-12)


def test_time_to_reach_capped_without_output():
    result = time_to_reach(transport_config(rate_out=0.0), t_max=5.0)
    assert result == ReachTime(5.0, True)


def test_time_to_reach_caps_a_crossing_past_t_max():
    # 12 steps of 0.1 cover t_max=1.12, and the sink reaches 0.2 only after it
    config = ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5)
    result = time_to_reach(config, target=0.2, t_max=1.12, dt=0.1)
    assert result == ReachTime(1.12, True)


def test_time_to_reach_finite_for_transport_run():
    result = time_to_reach(transport_config())
    assert not result.capped
    assert 0.0 < result.time < 20.0


def test_time_to_reach_monotone_in_target():
    config = transport_config()
    low = time_to_reach(config, target=0.3)
    high = time_to_reach(config, target=0.995)
    assert low.time <= high.time


def test_time_to_reach_interpolates_decay():
    # single cavity, pure photon drain: sink(t) ~ 1 - exp(-rate_out**2 * t)
    config = ChainConfig(n_atoms=1, rate_out=1.0)
    result = time_to_reach(config, target=0.5, t_max=10.0)
    assert not result.capped
    assert result.time == pytest.approx(np.log(2.0), abs=5e-3)
    with pytest.raises(ValueError):
        time_to_reach(config, target=1.5)


def test_optimal_rate_single_candidate():
    result = optimal_rate(transport_config(), "rate_out", [1.5], TimeToReach(t_max=20.0))
    assert result.rate == 1.5
    assert not result.capped


def test_optimal_rate_all_capped_marks_and_prefers_smaller():
    # nothing moves without tunnelling: every candidate hits the cap
    base = transport_config(k=0.0, mu=0.0)
    result = optimal_rate(base, "rate_out", [0.5, 1.0], TimeToReach(t_max=2.0))
    assert result == OptimalRate(0.5, 2.0, True)


def test_optimal_rate_matches_transport_optimum():
    result = optimal_rate(
        transport_config(), "rate_out", [1.0, 1.5, 2.0], TimeToReach()
    )
    assert result.rate == 1.5
    with pytest.raises(ValueError):
        optimal_rate(transport_config(), "k", [0.5], TimeToReach())


def test_run_sweep_single_cell_matches_direct_call():
    spec = SweepSpec(
        base=transport_config(),
        axis1=SweepAxis("rate_out", (1.5,)),
        objective=TimeToReach(t_max=30.0),
    )
    result = run_sweep(spec)
    direct = time_to_reach(transport_config(), t_max=30.0)
    assert result.grid.shape == (1, 1)
    assert result.grid[0, 0] == direct.time
    assert not result.cap_mask[0, 0]


def test_run_sweep_grid_layout_and_cell_values():
    base = ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5)
    spec = SweepSpec(
        base=base,
        axis1=SweepAxis("rate_out", (0.5, 1.0)),
        axis2=SweepAxis("mu", (0.4, 0.8)),
        objective=SinkAtTime(3.0),
    )
    result = run_sweep(spec)
    assert result.grid.shape == (2, 2)
    assert not result.cap_mask.any()
    direct = evolve(ChainConfig(n_atoms=1, mu=0.8, rate_out=1.0), 3.0, spec.dt).sink[-1]
    # the chunked cell route sums the same step map in another order
    assert abs(result.grid[1, 1] - direct) <= 1e-12


def test_run_sweep_rerun_is_identical():
    spec = SweepSpec(
        base=ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5),
        axis1=SweepAxis("rate_out", (0.3, 0.6, 0.9)),
        axis2=SweepAxis("g", (0.0, 0.5)),
        objective=SinkAtTime(2.0),
    )
    first = run_sweep(spec)
    again = run_sweep(spec)
    np.testing.assert_array_equal(first.grid, again.grid)
    np.testing.assert_array_equal(first.cap_mask, again.cap_mask)


def test_bottleneck_scan_validates_axes():
    good = SweepSpec(
        base=transport_config(),
        axis1=SweepAxis("rate_in", (1.0, 1.5)),
        axis2=SweepAxis("rate_out", (1.0, 1.5)),
        objective=TimeToReach(),
    )
    bad_axis = SweepSpec(
        base=transport_config(),
        axis1=SweepAxis("rate_out", (1.0, 1.5)),
        axis2=SweepAxis("rate_in", (1.0, 1.5)),
        objective=TimeToReach(),
    )
    with pytest.raises(ValueError):
        bottleneck_scan(bad_axis)
    bad_objective = SweepSpec(
        base=transport_config(),
        axis1=SweepAxis("rate_in", (1.0, 1.5)),
        axis2=SweepAxis("rate_out", (1.0, 1.5)),
        objective=SinkAtTime(10.0),
    )
    with pytest.raises(ValueError):
        bottleneck_scan(bad_objective)
    result = bottleneck_scan(good)
    assert result.grid.shape == (2, 2)


def test_bottleneck_interior_minimum():
    # conductivity worsens past the optimal runoff rate
    spec = SweepSpec(
        base=transport_config(),
        axis1=SweepAxis("rate_in", (1.5,)),
        axis2=SweepAxis("rate_out", (0.5, 1.0, 1.5, 2.5, 4.0)),
        objective=TimeToReach(),
    )
    times = bottleneck_scan(spec).grid[0]
    best = int(np.argmin(times))
    assert 0 < best < len(times) - 1
    assert times[-1] > times[best]


def test_dat_scan_validates_base_and_axes():
    base = ChainConfig(
        n_atoms=2, k=0.8, mu=0.2, sink_coupling=SinkCoupling.LAST_EXCITON
    )
    good = SweepSpec(
        base=base,
        axis1=SweepAxis("rate_out", (0.3,)),
        axis2=SweepAxis("g", (0.0, 0.9)),
        objective=SinkAtTime(150.0),
    )
    with pytest.raises(ValueError):
        dat_scan(
            SweepSpec(
                base=base,
                axis1=SweepAxis("g", (0.0, 0.9)),
                axis2=SweepAxis("rate_out", (0.3,)),
                objective=SinkAtTime(150.0),
            )
        )
    with pytest.raises(ValueError):
        dat_scan(
            SweepSpec(
                base=base,
                axis1=SweepAxis("rate_out", (0.3,)),
                axis2=SweepAxis("g", (0.0, 0.9)),
                objective=TimeToReach(),
            )
        )
    with pytest.raises(ValueError):
        dat_scan(
            SweepSpec(
                base=ChainConfig(n_atoms=2, k=0.8, mu=0.2, rate_in=1.0),
                axis1=SweepAxis("rate_out", (0.3,)),
                axis2=SweepAxis("g", (0.0, 0.9)),
                objective=SinkAtTime(150.0),
            )
        )
    with pytest.raises(ValueError):
        dat_scan(
            SweepSpec(
                base=ChainConfig(
                    n_atoms=2, k=0.8, mu=0.2, dephasing=DephasingModel.NONE
                ),
                axis1=SweepAxis("rate_out", (0.3,)),
                axis2=SweepAxis("g", (0.0, 0.9)),
                objective=SinkAtTime(150.0),
            )
        )
    result = dat_scan(good)
    assert result.grid.shape == (1, 2)
    # dephasing helps at this far-below-optimal output rate
    assert result.grid[0, 1] - result.grid[0, 0] > 1e-4


def test_sweep_diagnostics_populated():
    spec = SweepSpec(
        base=ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5),
        axis1=SweepAxis("rate_out", (0.5, 1.0)),
        objective=SinkAtTime(2.0),
    )
    result = run_sweep(spec)
    assert result.max_trace_drift < 1e-8
    # Euler dissipator admits O(dt) negativity; the diagnostic must report it
    assert -1e-2 < result.min_eigenvalue_seen <= 1e-12
