"""Sweep harness: time-to-target, bottleneck and dephasing scans."""

from dataclasses import replace

import numpy as np
import pytest

from cavitychain import experiments
from cavitychain.evolution import TRACE_TOL, SampleReader, _quiet_overflow, evolve
from cavitychain.experiments import (
    ReachTime,
    SinkAtTime,
    SweepAxis,
    SweepSpec,
    TimeToReach,
    _CellOutcome,
    _cell_outcomes,
    _read_stack,
    bottleneck_scan,
    dat_scan,
    default_g_grid,
    default_rate_grid,
    run_sweep,
    time_to_reach,
)
from cavitychain.model import ChainConfig, DephasingModel, SinkCoupling, assemble


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


class StopStep:
    """Stands in for ``Sectors`` in ``_read_stack``: with each chunk's
    state(rows, steps) returning the steps, an outcome's minimum eigenvalue
    is minus the step whose state the reader built."""

    @staticmethod
    def min_eigenvalue(steps):
        return -np.asarray(steps, dtype=float)


def chunk_stream(*chunks):
    """A stack of one cell's stream from lists of (sink, trace) rows, from step 0 on."""
    first = 0
    for rows in chunks:
        yield first, np.array([rows], dtype=float), lambda rows, steps: np.array(steps)
        first += len(rows)


def read_cell(steps, objective):
    """The outcome of a stack of one, raising the error it failed with."""
    [outcome] = _read_stack(steps, StopStep, objective, 0.1)
    if isinstance(outcome, ArithmeticError):
        raise outcome
    return outcome


def test_reader_interpolates_from_the_chunk_before():
    # the crossing is row 0 of the third chunk, and its previous sink ends the second
    steps = chunk_stream([(0.0, 1.0)], [(0.2, 1.0), (0.4, 1.0)], [(0.8, 1.0), (0.9, 1.0)])
    outcome = read_cell(steps, TimeToReach(0.6, 10.0))
    crossing = (3 - 1) * 0.1 + 0.1 * (0.6 - 0.4) / (0.8 - 0.4)
    assert outcome == _CellOutcome(crossing, False, 0.0, -3.0)


def test_reader_drift_stops_at_the_crossing():
    # steps past the crossing in its chunk are never taken, whatever their trace
    steps = chunk_stream(
        [(0.0, 1.0)], [(0.2, 1.0 + 1e-10), (0.7, 1.0 - 2e-10), (0.9, 1.5), (0.95, 0.5)]
    )
    outcome = read_cell(steps, TimeToReach(0.6, 10.0))
    assert outcome.trace_drift == abs((1.0 - 2e-10) - 1.0)
    assert outcome.final_min_eig == -2.0


@pytest.mark.parametrize("t_max,capped", [(0.35, True), (0.4, False)])
def test_reader_caps_a_last_step_crossing_past_t_max(t_max, capped):
    # four steps of 0.1 cross 0.8 at t = 0.38: half a step short of t = 0.4
    # caps it, and t_max at the last step keeps it
    steps = chunk_stream([(0.0, 1.0)], [(0.1, 1.0), (0.2, 1.0), (0.3, 1.0), (0.9, 1.0)])
    outcome = read_cell(steps, TimeToReach(0.8, t_max))
    crossing = (4 - 1) * 0.1 + 0.1 * (0.8 - 0.3) / (0.9 - 0.3)
    assert outcome == _CellOutcome(t_max if capped else crossing, capped, 0.0, -4.0)


def test_reader_sink_at_time_reads_the_last_step():
    steps = chunk_stream([(0.0, 1.0)], [(0.3, 1.0 + 3e-12), (0.5, 1.0)], [(0.6, 1.0 - 1e-12)])
    outcome = read_cell(steps, SinkAtTime(0.3))
    assert outcome == _CellOutcome(0.6, False, abs((1.0 + 3e-12) - 1.0), -3.0)


@pytest.mark.parametrize("objective", [SinkAtTime(0.3), TimeToReach(0.8, 10.0)])
def test_reader_fails_on_a_non_finite_trace_naming_its_step(objective):
    steps = chunk_stream(
        [(0.0, 1.0)], [(0.1, 1.0), (0.2, float("nan")), (0.3, 1.0)], [(0.9, 1.0)]
    )
    with pytest.raises(ArithmeticError, match="^trace not within 1e-06 of 1 at step 2: nan$"):
        read_cell(steps, objective)


def test_reader_fails_on_a_non_finite_sink_it_reads():
    # a sink outside [0, trace], past either end by more than TRACE_TOL,
    # fails as a non-finite one does
    for sink, trace in (
        (float("inf"), 1.0), (float("nan"), 1.0), (1.5, 1.0), (-0.001, 1.0),
        (1.0000005, 0.9999991),
    ):
        steps = chunk_stream([(0.0, 1.0)], [(0.1, 1.0), (sink, trace)])
        failure = f"^sink not within \\[-1e-06, trace \\+ 1e-06\\] at step 2: {sink}$"
        with pytest.raises(ArithmeticError, match=failure):
            read_cell(steps, SinkAtTime(0.2))
    # within TRACE_TOL past its own trace, though past another step's
    steps = chunk_stream([(0.0, 1.0)], [(0.1, 0.9999992), (1.0000005, 1.0)])
    assert read_cell(steps, SinkAtTime(0.2)).value == 1.0000005


def read_failure(read):
    """The message of the ArithmeticError that read() raises, or None, run with
    numpy's overflow warnings off as each reader is in evolve and in a sweep."""
    try:
        with _quiet_overflow():
            read()
    except ArithmeticError as exc:
        return str(exc)
    return None


SINK_BOUND = "sink not within [-1e-06, trace + 1e-06] at step 1: "
TRACE_BOUND = "trace not within 1e-06 of 1 at step 1: "


@pytest.mark.parametrize(
    "sink,photon,failure",
    [
        # the trace at either end of 1 +- TRACE_TOL; 1 - 1e-6 itself rounds to
        # a double 1.0000000000287557e-06 below 1, so the lower end is the
        # next double above it
        (0.0, 1 + TRACE_TOL, None),
        (0.0, np.nextafter(1 - TRACE_TOL, 1.0), None),
        # the trace just beyond either end
        (0.0, 1 + 1.1e-6, TRACE_BOUND + "1.0000011"),
        (0.0, 1 - 1.1e-6, TRACE_BOUND + "0.9999989"),
        # the trace holds, and the sink lies just below -TRACE_TOL or just
        # above trace + TRACE_TOL
        (-1.1e-6, 1 + 1.1e-6, SINK_BOUND + "-1.1e-06"),
        (1 + 1.1e-6, -1.1e-6, SINK_BOUND + "1.0000011"),
        # half the population lost: the trace, where both fail
        (-2e-6, 0.5, TRACE_BOUND + "0.499998"),
        (0.0, np.nan, TRACE_BOUND + "nan"),
        (np.inf, 0.0, TRACE_BOUND + "inf"),
    ],
    ids=[
        "trace-upper-end", "trace-lower-end", "trace-past-upper-end", "trace-past-lower-end",
        "sink-below", "sink-above-trace", "sink-and-trace-fail", "nan", "inf",
    ],
)
def test_both_readers_apply_one_rule(sink, photon, failure):
    """A state of photon and sink populations alone, whose trace is their sum,
    fails with the same message, or holds, as step 1 of a trajectory's
    block (``SampleReader``) and as step 1 of a sweep cell (``_read_stack``)."""
    chain = assemble(ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5))
    basis, sectors = chain.basis, chain.basis.sectors
    packed = chain.initial
    state = packed.copy()
    state[sectors.diagonal[basis.state_index((1, 0, 0))]] = photon
    state[sectors.diagonal[basis.state_index((0, 0, 1))]] = sink
    reader = SampleReader(basis)
    stream = chunk_stream([(0.0, 1.0)], [(sink, sink + photon)])
    sampled = read_failure(lambda: reader.read([0, 1], np.stack([packed, state])))
    assert sampled == read_failure(lambda: read_cell(stream, SinkAtTime(0.1))) == failure


def test_sweep_cell_that_blows_up_fails_naming_the_cell():
    base = ChainConfig(n_atoms=1, mu=0.8)
    # a rate whose square overflows stops at the config boundary
    spec = SweepSpec(base=base, axis1=SweepAxis("rate_out", (1e160,)), objective=SinkAtTime(1.0))
    with pytest.raises(ValueError, match="^rate_out: must be at most"):
        run_sweep(spec)
    # 1e100 squares to a finite rate, and the Euler step is unstable: a
    # rate_out of 1e100 loses the whole trace at step 1 (a sink of 1e198), a
    # dephasing rate of 1e100 overflows by step 3; the cells of each sweep
    # share one stack, and the first cell to fail in grid order is named,
    # whether cells before or after it in the stack run to the end
    rows = (
        (
            SweepAxis("rate_out", (0.5, 1e100)),
            None,
            SinkAtTime(1.0),
            "rate_out=1e\\+100: trace not within 1e-06 of 1 at step 1: 0.0",
        ),
        # first in its stack; the cell after it fails too
        (
            SweepAxis("rate_out", (1e100,)),
            SweepAxis("g", (0.0, 0.3)),
            SinkAtTime(1.0),
            "rate_out=1e\\+100 g=0.0: trace not within 1e-06 of 1 at step 1: 0.0",
        ),
        # in the middle: g=0.3 rate_out=0.5 after it runs to the end
        (
            SweepAxis("g", (0.0, 0.3)),
            SweepAxis("rate_out", (0.5, 1e100)),
            SinkAtTime(1.0),
            "g=0.0 rate_out=1e\\+100: trace not within 1e-06 of 1 at step 1: 0.0",
        ),
        # a time-to-target row that overflows before any crossing
        (
            SweepAxis("rate_out", (0.5, 2.0)),
            SweepAxis("g", (0.0, 1e100)),
            TimeToReach(0.5, 2.0),
            "rate_out=0.5 g=1e\\+100: trace not within 1e-06 of 1 at step 3: nan",
        ),
        # a time-to-target cell whose blown-up sink passes the target at the
        # step that loses the trace fails there; it does not report a crossing
        (
            SweepAxis("rate_out", (0.5, 1e100)),
            None,
            TimeToReach(0.5, 1.0),
            "rate_out=1e\\+100: trace not within 1e-06 of 1 at step 1: 0.0",
        ),
        # an unstable step that keeps the trace (dt rate_out**2 = 9) drives
        # the sink past it at step 1, before it passes a target
        (
            SweepAxis("rate_out", (0.5, 30.0)),
            None,
            SinkAtTime(0.05),
            "rate_out=30.0: sink not within \\[-1e-06, trace \\+ 1e-06\\] at step 1: 9.0",
        ),
        (
            SweepAxis("rate_out", (0.5, 30.0)),
            None,
            TimeToReach(0.5, 1.0),
            "rate_out=30.0: sink not within \\[-1e-06, trace \\+ 1e-06\\] at step 1: 9.0",
        ),
    )
    for axis1, axis2, objective, failure in rows:
        spec = SweepSpec(base=base, axis1=axis1, axis2=axis2, objective=objective)
        with pytest.raises(ArithmeticError, match=f"^cell {failure}$"):
            run_sweep(spec)


def test_calm_sweeps_pay_only_the_bound_on_each_item(monkeypatch):
    """Every item of a calm cell passes ``_read_stack``'s bound on the whole
    item, so the exact rule never runs there."""

    def unreachable(*args):
        raise AssertionError("the exact rule ran on a calm sweep")

    monkeypatch.setattr(experiments, "first_failure", unreachable)
    dat = SweepSpec(
        base=ChainConfig(n_atoms=2, k=0.8, mu=0.2, sink_coupling=SinkCoupling.LAST_EXCITON),
        axis1=SweepAxis("rate_out", (0.5, 1.0)),
        axis2=SweepAxis("g", (0.0, 0.3)),
        objective=SinkAtTime(5.0),
    )
    assert run_sweep(dat).grid.shape == (2, 2)
    row = SweepSpec(
        base=transport_config(),
        axis1=SweepAxis("rate_out", (0.5, 1.5, 3.0)),
        objective=TimeToReach(0.5, 20.0),
    )
    assert not run_sweep(row).cap_mask.any()


def test_numpy_error_state_never_leaks():
    """The readers turn numpy's overflow warnings off only while they read:
    the caller's error state holds again once each entry point returns or
    raises, and while a sweep's outcome generator waits at a yield."""
    before = np.geterr()
    calm = ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5)
    blown = replace(calm, rate_out=1e100)
    axis = SweepAxis("rate_out", (0.5, 1e100))
    runs = (
        (lambda: evolve(calm, 1.0), None),
        (lambda: evolve(blown, 1.0), "^trace not within 1e-06 of 1 at step 1: "),
        (lambda: run_sweep(SweepSpec(calm, replace(axis, values=(0.5,)), SinkAtTime(1.0))), None),
        (lambda: run_sweep(SweepSpec(calm, axis, SinkAtTime(1.0))), "^cell rate_out=1e\\+100: "),
        (lambda: time_to_reach(calm, 0.5, 1.0), None),
        (lambda: time_to_reach(blown, 0.5, 1.0), "^trace not within 1e-06 of 1 at step 1: "),
    )
    for run, failure in runs:
        if failure is None:
            run()
        else:
            with pytest.raises(ArithmeticError, match=failure):
                run()
        assert np.geterr() == before
    outcomes = _cell_outcomes([calm, calm], SinkAtTime(1.0), 0.01)
    next(outcomes)
    assert np.geterr() == before
    outcomes.close()
    assert np.geterr() == before


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


# (base, objective) of a chunked 2 x 2 sweep over k and rate_out: a pumped
# time-to-target whose cells cross at 9.8 to 11.6 or run to the cap, and an
# undriven dephasing chain read at a fixed time
ORDER_SWEEPS = [
    (transport_config(), TimeToReach(0.99, 12.0)),
    (
        ChainConfig(n_atoms=2, k=0.8, mu=0.2, g=0.3, sink_coupling=SinkCoupling.LAST_EXCITON),
        SinkAtTime(5.0),
    ),
]


@pytest.mark.parametrize("base,objective", ORDER_SWEEPS, ids=["time_to_reach", "sink_at_time"])
def test_sweep_in_either_axis_order_matches_each_cell_alone(base, objective):
    """A sweep over (k, rate_out) rebuilds the unitary half per row, one over
    (rate_out, k) at every cell; both agree with each cell run on its own."""
    ks, rates = (0.8, 1.0), (1.0, 2.5)
    alone = {}
    for k in ks:
        for rate in rates:
            config = replace(base, k=k, rate_out=rate)
            if isinstance(objective, TimeToReach):
                alone[k, rate] = time_to_reach(config, objective.target, objective.t_max)
            else:
                spec = SweepSpec(config, SweepAxis("rate_out", (rate,)), objective)
                alone[k, rate] = ReachTime(float(run_sweep(spec).grid[0, 0]), False)
    bound = 1e-9 if isinstance(objective, TimeToReach) else 1e-12
    for axis1, axis2 in [(SweepAxis("k", ks), SweepAxis("rate_out", rates)),
                         (SweepAxis("rate_out", rates), SweepAxis("k", ks))]:
        result = run_sweep(SweepSpec(base, axis1, objective, axis2=axis2))
        assert result.cell_routes == {"chunked": 4, "stepped": 0}
        for i, v1 in enumerate(axis1.values):
            for j, v2 in enumerate(axis2.values):
                cell = alone[(v1, v2) if axis1.param == "k" else (v2, v1)]
                assert abs(result.grid[i, j] - cell.time) <= bound
                assert result.cap_mask[i, j] == cell.capped
    capped = [cell.capped for cell in alone.values()]
    assert isinstance(objective, SinkAtTime) or 0 < sum(capped) < len(capped)


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
