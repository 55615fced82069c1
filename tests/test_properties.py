"""Properties of the one stepping core, over random small chains.

Trajectories and sweep cells consume the same step loop, so what a sweep cell
reports must agree with what ``evolve`` samples on the same chain, and every
sampled state must stay a trace-one Hermitian matrix.  Chains stay at
dimension <= 32 and runs at <= 300 steps.  The blocked step itself is
checked against the dense step of ``operator_oracles`` on chains up to
dimension 128, and the chunked cell route against the stepped one on chains
with up to 300 packed coordinates.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavitychain.evolution import (
    CHUNK_STEPS,
    chunked_cell_steps,
    diagonalize,
    evolve,
    iter_steps,
    stepped_cell_steps,
)
from cavitychain.experiments import (
    ReachTime,
    SinkAtTime,
    SweepAxis,
    SweepSpec,
    TimeToReach,
    _read_cell,
    run_sweep,
    time_to_reach,
)
from cavitychain.model import (
    ChainConfig,
    DephasingModel,
    DephasingTarget,
    SinkCoupling,
    assemble,
    build_basis,
)
from operator_oracles import dense_step

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
    # the chunked cell route sums the same step map in another order
    assert abs(run_sweep(spec).grid[0, 0] - record.sink[-1]) <= 1e-12


@given(chains(), time_steps, st.floats(0.5, 3.0), st.floats(0.05, 0.95))
def test_time_to_reach_interpolates_inside_its_sample_bracket(config, dt, t_max, fraction):
    record = evolve(config, t_max, dt)
    assume(record.sink[-1] > 1e-6)
    target = fraction * record.sink[-1]
    reach = time_to_reach(config, target, t_max, dt)
    crossed = int(np.argmax(record.sink >= target))  # first sample at or past target
    assert crossed > 0
    t0, t1 = record.times[crossed - 1], record.times[crossed]
    s0, s1 = record.sink[crossed - 1], record.sink[crossed]
    assert t0 <= reach.time <= t1
    interpolated = t0 + (t1 - t0) * (target - s0) / (s1 - s0)
    if interpolated <= t_max:
        assert not reach.capped
        assert abs(reach.time - interpolated) <= 1e-12
    else:  # crossed only inside the last step, which overshoots t_max
        assert reach == ReachTime(t_max, True)


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


# The blocked and dense routes differ only in roundoff, and the dense route's
# leak out of the (N, sink) blocks is roundoff from its dense eigh.
BLOCKED_VS_DENSE_MAX = 1e-12
DENSE_SECTOR_LEAK_MAX = 1e-12


@st.composite
def sector_chains(draw):
    """A chain up to three sites and dimension 128, pumped or not, any dephasing."""
    pumped = draw(st.booleans())
    config = ChainConfig(
        n_atoms=draw(st.integers(1, 3)),
        k=draw(strengths),
        mu=draw(strengths),
        g=draw(strengths),
        rate_in=draw(st.sampled_from((0.7, 1.5))) if pumped else 0.0,
        rate_out=draw(st.floats(0.0, 2.0)),
        cavity_loss=draw(st.sampled_from((0.0, 0.2))),
        dephasing=draw(st.sampled_from(DephasingModel)),
        sink_coupling=draw(st.sampled_from(SinkCoupling)),
        dephasing_target=draw(st.sampled_from(DephasingTarget)),
        max_quanta=None if pumped else draw(st.integers(1, 3)),
    )
    assume(build_basis(config).dim <= 128)
    return config


@settings(max_examples=25)
@given(sector_chains(), time_steps, st.integers(1, 200))
# every kind of jump at dimension 128: pump, drain, dephasing and loss
@example(
    ChainConfig(
        n_atoms=3, k=1.0, mu=1.0, g=0.5, rate_in=1.5, rate_out=1.5, cavity_loss=0.2
    ),
    0.01,
    200,
)
def test_blocked_step_matches_dense_step(config, dt, n_steps):
    chain = assemble(config)
    sectors = chain.basis.sectors
    step = dense_step(diagonalize(chain.hamiltonian), list(chain.lindblad_terms), dt)
    rho = chain.initial.elements
    for i, blocks in iter_steps(chain, dt, n_steps):
        if i:
            rho = step(rho)
        assert np.abs(sectors.unpack(blocks) - rho).max() <= BLOCKED_VS_DENSE_MAX
        leak = rho.copy()
        leak[sectors.rows, sectors.cols] = 0
        assert np.abs(leak).max() <= DENSE_SECTOR_LEAK_MAX


# The chunked route sums the same step map in another order: values agree
# to roundoff, and a crossing time, which divides by the sink's rise over
# one step, to a looser bound.
ROUTE_VALUE_MAX = 1e-12
ROUTE_TIME_MAX = 1e-9
ROUTES = (chunked_cell_steps, stepped_cell_steps)


@st.composite
def route_chains(draw):
    """A chain with at most 300 packed coordinates: pumped or not, any jump kind.

    ``dephasing=unitary`` adds phonons; every chain drains into the sink and
    may lose photons from its cavities.
    """
    pumped = draw(st.booleans())
    config = ChainConfig(
        n_atoms=draw(st.integers(1, 3)),
        k=draw(strengths),
        mu=draw(strengths),
        g=draw(strengths),
        rate_in=draw(st.sampled_from((0.7, 1.5))) if pumped else 0.0,
        rate_out=draw(st.floats(0.2, 2.0)),
        cavity_loss=draw(st.sampled_from((0.0, 0.2))),
        dephasing=draw(st.sampled_from(DephasingModel)),
        sink_coupling=draw(st.sampled_from(SinkCoupling)),
        dephasing_target=draw(st.sampled_from(DephasingTarget)),
        max_quanta=None if pumped else draw(st.integers(1, 2)),
    )
    assume(sum(b * b for b in build_basis(config).sectors.sizes) <= 300)
    return config


@settings(max_examples=30)
@given(route_chains(), time_steps, st.integers(1, 5 * CHUNK_STEPS))
def test_chunked_route_matches_stepped_route_at_fixed_time(config, dt, n_steps):
    chain = assemble(config)
    sectors = chain.basis.sectors
    streams = [[values[:3] for values in route(chain, dt, n_steps)] for route in ROUTES]
    assert [i for i, *_ in streams[0]] == list(range(n_steps + 1))
    assert np.abs(np.subtract(*streams)).max() <= ROUTE_VALUE_MAX
    objective = SinkAtTime(n_steps * dt)
    chunked, stepped = (_read_cell(r(chain, dt, n_steps), sectors, objective, dt) for r in ROUTES)
    assert abs(chunked.value - stepped.value) <= ROUTE_VALUE_MAX
    assert abs(chunked.trace_drift - stepped.trace_drift) <= ROUTE_VALUE_MAX
    assert abs(chunked.final_min_eig - stepped.final_min_eig) <= ROUTE_VALUE_MAX


def first_crossing(steps, target):
    return next((i for i, sink, *_ in steps if sink >= target), None)


@settings(max_examples=30)
@given(
    route_chains(),
    time_steps,
    st.integers(1, 4),
    st.integers(0, 2 * CHUNK_STEPS),
    st.sampled_from(("chunk_first", "chunk_last", "run_end", "never")),
    st.sampled_from((0.0, 0.5)),
)
def test_chunked_route_matches_stepped_route_to_target(
    config, dt, chunks, extra, where, short
):
    """The sink crosses the target in the first or last step of a chunk, in
    the run's last step, or never.

    The target sits three quarters of the way up the sink's rise over the
    crossing step.  t_max is the last step's time or half a step before it,
    where a crossing in the last step is capped.
    """
    chain = assemble(config)
    sectors = chain.basis.sectors
    n_steps = chunks * CHUNK_STEPS + extra
    sinks = [sink for _, sink, *_ in stepped_cell_steps(chain, dt, n_steps)]
    if where == "never":
        target = (max(sinks) + 1.0) / 2
    else:
        step = {
            "chunk_first": 1 + (chunks - 1) * CHUNK_STEPS,
            "chunk_last": chunks * CHUNK_STEPS,
            "run_end": n_steps,
        }[where]
        rise = sinks[step] - sinks[step - 1]
        target = sinks[step - 1] + 0.75 * rise
        assume(rise > 1e-9 and max(sinks[:step]) < target < 1.0)
    objective = TimeToReach(target, (n_steps - short) * dt)
    crossings = [first_crossing(r(chain, dt, n_steps), target) for r in ROUTES]
    assert crossings[0] == crossings[1]
    chunked, stepped = (_read_cell(r(chain, dt, n_steps), sectors, objective, dt) for r in ROUTES)
    assert chunked.capped == stepped.capped
    assert abs(chunked.value - stepped.value) <= ROUTE_TIME_MAX
    assert abs(chunked.trace_drift - stepped.trace_drift) <= ROUTE_VALUE_MAX
    assert abs(chunked.final_min_eig - stepped.final_min_eig) <= ROUTE_VALUE_MAX
