"""Properties of the one stepping core, over random small chains.

Trajectories and sweep cells consume the same step loop, so what a sweep cell
reports must agree with what ``evolve`` samples on the same chain, and every
sampled state must stay a trace-one Hermitian matrix.  Chains stay at
dimension <= 32 and runs at <= 300 steps.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from cavitychain.evolution import evolve
from cavitychain.experiments import SinkAtTime, SweepAxis, SweepSpec, run_sweep, time_to_reach
from cavitychain.model import (
    ChainConfig,
    DephasingModel,
    DephasingTarget,
    SinkCoupling,
    build_basis,
)

MAX_DIM = 32
# with run times up to 3.0, every dt here keeps a run at <= 300 steps
time_steps = st.sampled_from((0.01, 0.02, 0.05))
run_times = st.floats(0.05, 3.0)
strengths = st.floats(0.0, 1.5)


@st.composite
def chains(draw, driven=True):
    """A small chain; undriven chains also have no cavity loss."""
    config = ChainConfig(
        n_atoms=draw(st.integers(1, 2)),
        k=draw(strengths),
        mu=draw(strengths),
        g=draw(strengths),
        rate_in=draw(st.sampled_from((0.0, 0.5, 1.5))) if driven else 0.0,
        rate_out=draw(st.floats(0.2, 2.0)),
        cavity_loss=draw(st.sampled_from((0.0, 0.3))) if driven else 0.0,
        dephasing=draw(st.sampled_from(DephasingModel)),
        sink_coupling=draw(st.sampled_from(SinkCoupling)),
        dephasing_target=draw(st.sampled_from(DephasingTarget)),
    )
    assume(build_basis(config).dim <= MAX_DIM)
    return config


@given(chains(), time_steps, run_times, st.integers(1, 50))
def test_sink_at_time_cell_is_last_trajectory_sample(config, dt, t, sample_every):
    spec = SweepSpec(
        base=config,
        axis1=SweepAxis("rate_out", (config.rate_out,)),
        objective=SinkAtTime(t),
        dt=dt,
    )
    record = evolve(config, t, dt, sample_every=sample_every)
    assert run_sweep(spec).grid[0, 0] == record.sink[-1]


@given(chains(), time_steps, st.floats(0.5, 3.0), st.floats(0.05, 0.95))
def test_time_to_reach_interpolates_inside_its_sample_bracket(config, dt, t_max, fraction):
    record = evolve(config, t_max, dt)
    assume(record.sink[-1] > 1e-6)
    target = fraction * record.sink[-1]
    reach = time_to_reach(config, target, t_max, dt)
    assert not reach.capped
    crossed = int(np.argmax(record.sink >= target))  # first sample at or past target
    assert crossed > 0
    t0, t1 = record.times[crossed - 1], record.times[crossed]
    s0, s1 = record.sink[crossed - 1], record.sink[crossed]
    assert t0 <= reach.time <= t1
    assert abs(reach.time - (t0 + (t1 - t0) * (target - s0) / (s1 - s0))) <= 1e-12


@given(chains(driven=False), time_steps, run_times)
def test_undriven_excitation_count_is_conserved(config, dt, t):
    record = evolve(config, t, dt)
    count = record.sink + record.photon.sum(axis=1) + record.exciton.sum(axis=1)
    np.testing.assert_allclose(count, 1.0, rtol=0, atol=1e-8)


# Both are exact properties of the step map, so only roundoff may show.
TRACE_DRIFT_MAX = 1e-10
HERMITICITY_DEFECT_MAX = 1e-10


@given(chains(), time_steps, run_times)
def test_evolve_preserves_trace(config, dt, t):
    assert evolve(config, t, dt).max_trace_drift <= TRACE_DRIFT_MAX


@given(chains(), time_steps, run_times)
def test_evolve_preserves_hermiticity(config, dt, t):
    assert evolve(config, t, dt).max_hermiticity_defect <= HERMITICITY_DEFECT_MAX
