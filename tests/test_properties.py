"""Properties of the one stepping core, over random small chains.

Trajectories and sweep cells consume the same step loop, so what a sweep cell
reports must agree with what ``evolve`` samples on the same chain, and every
sampled state must stay a trace-one Hermitian matrix.  Chains stay at
dimension <= 32 and runs at <= 300 steps.  The blocked step itself is
checked against the dense step of ``operator_oracles`` on chains up to
dimension 128, its packed unitary against a Taylor-series exp(-i*dt*H) on
the same chains, and the chunked cell route against the stepped one on chains
with up to 300 packed coordinates (and, in one explicit example, over the
600 steps that the chunks of 256 steps of a small chain need).  On the same
chains, the step maps that one ``StepMaps`` sums for the cells of a sweep
are checked against the step of each cell's own engine, the outcome of each
cell of a stack of cells against its outcome in a stack of one, and on two
rows of cells, the outcomes of cells that share its buffers against those
of cells with buffers of their own; on a four-site sweep, those of a short
last stack, run in views of the sweep's buffers, against each cell's stack
of one.  A stepped cell's sink and trace must be ``evolve``'s samples bit
for bit, in blocks of any number of rows.  On chains whose Euler step
blows up, ``evolve`` and a one-cell sweep must fail with the same message
on the stepped route, and with the same rule and step in one fixed run on
each route.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavitychain import evolution
from cavitychain.evolution import (
    CHUNK_STEPS,
    POSITIVITY_FLOOR,
    STACK_BYTES,
    StepEngine,
    StepMaps,
    _expm_taylor,
    _unitary_blocks,
    cell_route,
    chunked_cell_steps,
    evolve,
    evolve_assembled,
    iter_steps,
    stack_shape,
    step_count,
    stepped_cell_steps,
)
from cavitychain.experiments import (
    ReachTime,
    SinkAtTime,
    SweepAxis,
    SweepSpec,
    TimeToReach,
    _read_stack,
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
from cavitychain.modes import ModeKind, Sectors
from operator_oracles import (
    SECTOR_LEAK_TOL,
    dense_hamiltonian,
    dense_jumps,
    dense_step,
    engine_step_map,
    hermiticity_defect,
    numpy_sectors,
    pack,
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
    assert evolve(config, t, dt).hermiticity.max() <= HERMITICITY_DEFECT_MAX


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


def bits(matrix: np.ndarray) -> np.ndarray:
    """The bit patterns of a complex matrix's real and imaginary parts, sign bits included."""
    return np.ascontiguousarray(matrix).view(np.uint64)


signed_strengths = st.floats(-1.5, 1.5)


@st.composite
def operator_chains(draw):
    """A chain up to three sites and dimension 128 with signed couplings and
    energies, any dephasing (phonons holding up to two quanta), any sink
    coupling, and any of the pump, the drain and cavity loss."""
    config = ChainConfig(
        n_atoms=draw(st.integers(1, 3)),
        k=draw(signed_strengths),
        mu=draw(signed_strengths),
        g=draw(strengths),
        omega_a=draw(signed_strengths),
        omega_p=draw(signed_strengths),
        omega_g=draw(signed_strengths),
        rate_in=draw(st.sampled_from((0.0, 0.7, 1.5))),
        rate_out=draw(st.floats(0.0, 2.0)),
        cavity_loss=draw(st.sampled_from((0.0, 0.2))),
        dephasing=draw(st.sampled_from(DephasingModel)),
        sink_coupling=draw(st.sampled_from(SinkCoupling)),
        dephasing_target=draw(st.sampled_from(DephasingTarget)),
        phonon_cap=draw(st.integers(1, 2)),
    )
    assume(build_basis(config).dim <= 128)
    return config


@settings(max_examples=60)
@given(operator_chains())
# negative couplings and energies, and a zero of each sign, with phonons
@example(
    ChainConfig(
        n_atoms=2, k=-0.0, mu=-0.7, g=0.4, omega_a=-0.3, omega_p=0.0, omega_g=-0.0,
        rate_out=0.6, cavity_loss=0.2, dephasing=DephasingModel.UNITARY_PHONON,
        sink_coupling=SinkCoupling.LAST_EXCITON, phonon_cap=2,
    )
)
# every kind of jump at dimension 128
@example(
    ChainConfig(n_atoms=3, k=-1.0, mu=1.0, g=0.5, rate_in=1.5, rate_out=1.5, cavity_loss=0.2)
)
def test_column_maps_densify_to_the_dense_construction(config):
    """H, written packed from the couplings' column maps, unpacked, and every
    jump's map, densified, equal the sum of dense matrices bit for bit."""
    chain = assemble(config)
    basis = chain.basis
    h = basis.sectors.unpack(chain.hamiltonian.elements)
    assert np.array_equal(bits(h), bits(dense_hamiltonian(config, basis)))
    expected = dense_jumps(config, basis)
    assert [term.label for term in chain.lindblad_terms] == list(expected)
    for term in chain.lindblad_terms:
        assert np.array_equal(bits(term.operator.dense()), bits(expected[term.label])), term.label


# The derandomized draws rarely reach long runs on large chains, so the
# stepping properties also run the pumped two-site chain of the bottleneck
# benchmark (d = 32, M = 140: blocks of sizes 1, 4 and 6) over three chunks
# or more
PUMPED_PAIR = ChainConfig(n_atoms=2, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5)
# the dephasing chain of the dat benchmark (d = 6, M = 18), whose cells run
# chunks of 256 steps once there are 512 or more
DAT_PAIR = ChainConfig(
    n_atoms=2, k=0.8, mu=0.2, g=0.3, rate_out=0.5, sink_coupling=SinkCoupling.LAST_EXCITON
)


def stepped_states(chain, dt, n_steps):
    """The packed state of every step 0..n_steps of ``iter_steps``, one row each."""
    return np.concatenate([states.copy() for _, states in iter_steps(chain, dt, n_steps)])


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
@example(PUMPED_PAIR, 0.01, 3 * CHUNK_STEPS + 4)
def test_blocked_step_matches_dense_step(config, dt, n_steps):
    """Every state of ``iter_steps``, across its blocks, is the dense step's."""
    chain = assemble(config)
    sectors = chain.basis.sectors
    step = dense_step(chain.hamiltonian, chain.lindblad_terms, dt)
    rho = sectors.unpack(chain.initial)
    for i, blocks in enumerate(stepped_states(chain, dt, n_steps)):
        if i:
            rho = step(rho)
        assert np.abs(sectors.unpack(blocks) - rho).max() <= BLOCKED_VS_DENSE_MAX
        leak = rho.copy()
        leak[sectors.rows, sectors.cols] = 0
        assert np.abs(leak).max() <= DENSE_SECTOR_LEAK_MAX


# The engine's U comes from an eigendecomposition, the oracle's from a
# Taylor series of -i*dt*H: they differ by roundoff and the series' tail.
UNITARY_VS_TAYLOR_MAX = 1e-12


@settings(max_examples=25)
@given(sector_chains(), time_steps)
@example(PUMPED_PAIR, 0.01)
def test_packed_unitary_is_the_exponential_of_the_hamiltonian(config, dt):
    """Every size group of the engine's packed U, 1 x 1 blocks included, is
    the packed exp(-i*dt*H) of a route that shares no eigendecomposition."""
    h = assemble(config).hamiltonian
    sectors = h.basis.sectors
    expected = sectors.blocks(pack(sectors, _expm_taylor(-1j * dt * sectors.unpack(h.elements))))
    groups = _unitary_blocks(h, dt)
    assert [g.shape for g in groups] == [g.shape for g in expected]
    for (size, _), got, want in zip(sectors.groups, groups, expected):
        assert np.abs(got - want).max() <= UNITARY_VS_TAYLOR_MAX, size


@settings(max_examples=25)
@given(sector_chains(), st.integers(0, 2**32 - 1))
def test_packed_layout_groups_the_blocks_by_size(config, seed):
    """Each size group views the dense blocks of its size in (N, sink) order,
    unpack inverts pack on block-diagonal matrices, and pack refuses an
    off-block element past SECTOR_LEAK_TOL."""
    sectors = build_basis(config).sectors
    rng = np.random.default_rng(seed)
    dim = sectors.dim
    inside = sectors.block[:, None] == sectors.block[None, :]
    dense = np.where(inside, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 0)
    packed = pack(sectors, dense)
    views = sectors.blocks(packed)
    assert [size for size, _ in sectors.groups] == sorted(set(sectors.sizes))
    assert sum(view.size for view in views) == len(packed) == inside.sum()
    for (size, _), view in zip(sectors.groups, views):
        assert np.shares_memory(view, packed)
        states = [np.flatnonzero(sectors.block == b) for b, s in enumerate(sectors.sizes) if s == size]
        assert view.shape == (len(states), size, size)
        for block, members in zip(view, states):
            assert np.array_equal(block, dense[np.ix_(members, members)])
    assert np.array_equal(sectors.unpack(packed), dense)
    outside = np.argwhere(~inside)
    row, col = outside[rng.integers(len(outside))]
    dense[row, col] = SECTOR_LEAK_TOL
    pack(sectors, dense)
    dense[row, col] = 2 * SECTOR_LEAK_TOL
    with pytest.raises(ArithmeticError, match="leaks out of its"):
        pack(sectors, dense)


# U of each group against U of the unpacked H's own dense eigh: the two
# eigendecompositions differ by roundoff alone.
UNITARY_VS_DENSE_MAX = 1e-12


@settings(max_examples=40)
@given(operator_chains(), time_steps)
def test_group_unitary_is_the_dense_exponential(config, dt):
    """Every group of U = exp(-i*H*dt), built block by block, equals the
    packed exponential of the unpacked H by one dense eigh, phonons included."""
    h = assemble(config).hamiltonian
    sectors = h.basis.sectors
    w, v = np.linalg.eigh(sectors.unpack(h.elements))
    expected = sectors.blocks(pack(sectors, (v * np.exp(-1j * w * dt)) @ v.conj().T))
    for (size, _), got, want in zip(sectors.groups, _unitary_blocks(h, dt), expected):
        assert np.abs(got - want).max() <= UNITARY_VS_DENSE_MAX, size


@settings(max_examples=40)
@given(operator_chains())
# the largest of the benchmark chains: blocks of sizes 1 to 20
@example(ChainConfig(n_atoms=3, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5))
def test_partition_from_the_enumeration_is_the_numpy_partition(config):
    """Every field of ``Sectors``, counted from the enumeration's sector keys,
    the coordinate tables built on first use, equals the one derived with
    numpy from the occupation table."""
    basis = build_basis(config)
    sectors = Sectors(basis)
    for name, want in numpy_sectors(basis).items():
        got = getattr(sectors, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert got == want, name


# Readouts are the per-state products a sample took one at a time, and the
# screen only decides which states need no eigenvalues: flags and minimum
# are exact, so only the populations and the defect carry a tolerance.
SAMPLE_VALUE_MAX = 1e-15


@settings(max_examples=40)
@given(sector_chains(), time_steps, st.integers(1, 100), st.integers(1, 5))
# minima fall by roundoff-sized steps (about 1e-19) after the first chunk
@example(
    ChainConfig(
        n_atoms=3, k=0.04, mu=0.79, g=1.13, rate_in=0.7, rate_out=0.24, cavity_loss=0.2
    ),
    0.01,
    51,
    1,
)
# rate_out**2 * dt = 1.82 overshoots the exciton drain, and the 1 x 1 block of
# the photon-and-exciton state turns negative past the floor in the second chunk
@example(
    ChainConfig(
        n_atoms=1,
        mu=0.78,
        rate_in=1.8,
        rate_out=13.5,
        cavity_loss=5.0,
        dephasing=DephasingModel.NONE,
        sink_coupling=SinkCoupling.LAST_EXCITON,
    ),
    0.01,
    41,
    1,
)
def test_chunked_sample_diagnostics_match_exact_per_sample_ones(
    config, dt, n_steps, sample_every
):
    """Flags and minimum equal those of ``Sectors.min_eigenvalue`` on every
    sampled state, bit for bit, across block edges (up to 101 samples)."""
    chain = assemble(config)
    basis = chain.basis
    sectors = basis.sectors
    record = evolve_assembled(chain, n_steps * dt, dt, sample_every)
    lowest, populations, defects = [], [], []
    for i, rho in enumerate(stepped_states(chain, dt, n_steps)):
        if i % sample_every == 0 or i == n_steps:
            lowest.append(sectors.min_eigenvalue(rho))
            populations.append(rho[sectors.diagonal].real)
            defects.append(hermiticity_defect(sectors.unpack(rho)))
    assert record.positivity_flags.tolist() == [int(x < POSITIVITY_FLOOR) for x in lowest]
    assert record.min_eigenvalue_seen == min(lowest)
    sampled = np.array(populations)
    occupations = basis.occupations.astype(float)
    layout = basis.layout
    expected = {
        "sink": sampled @ occupations[:, layout.index(ModeKind.SINK, layout.n_sites)],
        "photon": sampled @ occupations[:, list(layout.indices(ModeKind.PHOTON))],
        "exciton": sampled @ occupations[:, list(layout.indices(ModeKind.EXCITON))],
        "trace": sampled.sum(axis=1),
    }
    for name, values in expected.items():
        assert np.abs(getattr(record, name) - values).max() <= SAMPLE_VALUE_MAX
    assert abs(record.hermiticity.max() - max(defects)) <= SAMPLE_VALUE_MAX


# The chunked route sums the same step map in another order: values agree
# to roundoff, and a crossing time, which divides by the sink's rise over
# one step, to a looser bound.
ROUTE_VALUE_MAX = 1e-12
ROUTE_TIME_MAX = 1e-9
# Output rates of the cells that share a chunked cell's stack, as multiples
# of its own: a nearly undrained one, whose sink rises far more slowly, and
# a faster and a slower drain.
NEIGHBOUR_RATES = (0.01, 2.0, 0.5)


def stack_of(config, cells):
    """The config and cells - 1 neighbours at other output rates, the config first."""
    return [config] + [
        replace(config, rate_out=config.rate_out * factor) for factor in NEIGHBOUR_RATES
    ][: cells - 1]


def any_stack():
    """STACK_BYTES lifted: ``stack_shape`` sizes every sweep as one stack, at the
    K and J of a stack that long, whatever the bytes of its work arrays."""
    return mock.patch.object(evolution, "STACK_BYTES", math.inf)


def stack_maps(configs, dt, n_steps):
    """A ``StepMaps`` of the configs' own that runs them all as one stack."""
    with any_stack():
        return StepMaps(assemble(configs[0]), configs[0], dt, n_steps, len(configs))


def chunked_cell(config, dt, n_steps, cells=1):
    """The chunked route of the config at the top of a stack of cells, at that stack's K."""
    configs = stack_of(config, cells)
    return chunked_cell_steps(stack_maps(configs, dt, n_steps), configs)


def stepped_cell(config, dt, n_steps, cells=1):
    return stepped_cell_steps(assemble(config), dt, n_steps)


ROUTES = (chunked_cell, stepped_cell)


def read_cell(steps, sectors, objective, dt):
    """The outcome of the cell at the top of a stack, raising the error it failed with."""
    outcome = _read_stack(steps, sectors, objective, dt)[0]
    if isinstance(outcome, ArithmeticError):
        raise outcome
    return outcome


def step_rows(steps):
    """(step, sink, trace) of every step of the top cell of a route's items, one row each."""
    return np.vstack([
        np.column_stack([first + np.arange(values.shape[1]), values[0]])
        for first, values, _ in steps
    ])


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


stack_sizes = st.integers(1, 1 + len(NEIGHBOUR_RATES))


@settings(max_examples=30)
@given(route_chains(), time_steps, st.integers(1, 5 * CHUNK_STEPS), stack_sizes)
@example(PUMPED_PAIR, 0.01, 3 * CHUNK_STEPS + 4, 1)
# stacks of several cells over several blocks: 5 blocks of 4 chunks of 32
# steps on the pumped pair, and 3 blocks of 8 chunks of 256 on the dat chain
@example(PUMPED_PAIR, 0.01, 600, 3)
@example(DAT_PAIR, 0.01, 5000, 4)
def test_chunked_route_matches_stepped_route_at_fixed_time(config, dt, n_steps, cells):
    chain = assemble(config)
    sectors = chain.basis.sectors
    streams = [step_rows(route(config, dt, n_steps, cells)) for route in ROUTES]
    assert streams[0][:, 0].tolist() == list(range(n_steps + 1))
    assert np.abs(np.subtract(*streams)).max() <= ROUTE_VALUE_MAX
    objective = SinkAtTime(n_steps * dt)
    chunked, stepped = (
        read_cell(r(config, dt, n_steps, cells), sectors, objective, dt) for r in ROUTES
    )
    assert abs(chunked.value - stepped.value) <= ROUTE_VALUE_MAX
    assert abs(chunked.trace_drift - stepped.trace_drift) <= ROUTE_VALUE_MAX
    assert abs(chunked.final_min_eig - stepped.final_min_eig) <= ROUTE_VALUE_MAX


def first_crossing(steps, target):
    rows = step_rows(steps)
    return next((int(i) for i, sink, _ in rows if sink >= target), None)


@settings(max_examples=30)
@given(
    route_chains(),
    time_steps,
    st.integers(1, 4),
    st.integers(0, 2 * CHUNK_STEPS),
    st.sampled_from(("chunk_first", "chunk_last", "run_end", "never")),
    st.sampled_from((0.0, 0.5)),
    stack_sizes,
)
@example(PUMPED_PAIR, 0.01, 3, 10, "chunk_last", 0.0, 1)
# stacks of several cells over several blocks, each with a nearly undrained
# neighbour that is capped: the pumped pair crosses in the last step of its
# 18th chunk (the fifth block of 4 chunks), and the dat chain in the first
# step of the last chunk of 256 (the third block of 8)
@example(PUMPED_PAIR, 0.01, 18, 10, "chunk_last", 0.0, 3)
@example(DAT_PAIR, 0.01, 160, 20, "chunk_first", 0.5, 4)
def test_chunked_route_matches_stepped_route_to_target(
    config, dt, chunks, extra, where, short, cells
):
    """The sink crosses the target in the first or last step of the run's
    last whole chunk, chunks of the K of a stack of ``cells``
    (``stack_shape``), in the run's last step, or never.

    The target sits three quarters of the way up the sink's rise over the
    crossing step.  t_max is the last step's time or half a step before it,
    where a crossing in the last step is capped.
    """
    chain = assemble(config)
    sectors = chain.basis.sectors
    n_steps = chunks * CHUNK_STEPS + extra
    with any_stack():
        _, k, _ = stack_shape(len(sectors.rows), n_steps, cells)
    last_chunk = n_steps // k
    sinks = step_rows(stepped_cell_steps(chain, dt, n_steps))[:, 1].tolist()
    if where == "never":
        target = (max(sinks) + 1.0) / 2
    else:
        step = {
            "chunk_first": 1 + (last_chunk - 1) * k,
            "chunk_last": last_chunk * k,
            "run_end": n_steps,
        }[where]
        rise = sinks[step] - sinks[step - 1]
        target = sinks[step - 1] + 0.75 * rise
        assume(rise > 1e-9 and max(sinks[:step]) < target < 1.0)
    objective = TimeToReach(target, (n_steps - short) * dt)
    crossings = [first_crossing(r(config, dt, n_steps, cells), target) for r in ROUTES]
    assert crossings[0] == crossings[1]
    chunked, stepped = (
        read_cell(r(config, dt, n_steps, cells), sectors, objective, dt) for r in ROUTES
    )
    assert chunked.capped == stepped.capped
    assert abs(chunked.value - stepped.value) <= ROUTE_TIME_MAX
    assert abs(chunked.trace_drift - stepped.trace_drift) <= ROUTE_VALUE_MAX
    assert abs(chunked.final_min_eig - stepped.final_min_eig) <= ROUTE_VALUE_MAX


@settings(max_examples=30)
@given(route_chains(), time_steps, st.integers(1, 3 * CHUNK_STEPS), stack_sizes)
@example(PUMPED_PAIR, 0.01, 3 * CHUNK_STEPS + 4, 1)
@example(DAT_PAIR, 0.01, 600, 1)
def test_chunked_route_rebuilds_every_state_of_a_chunk(config, dt, n_steps, cells):
    """state(rows, steps), rebuilt from the powers of the step map, at every
    offset of every chunk is the stepped state at that step, for the top
    cell of a stack and for all its cells at once."""
    chain = assemble(config)
    stepped = stepped_states(chain, dt, n_steps)
    seen = 0
    for first, values, state in chunked_cell(config, dt, n_steps, cells):
        for i in range(first, first + values.shape[1]):
            assert np.abs(state([0], [i])[0] - stepped[i]).max() <= ROUTE_VALUE_MAX
            seen += 1
        # every cell at once, each at its own step of the item
        rows = np.arange(len(values))
        at = first + rows % values.shape[1]
        assert np.array_equal(state(rows[:1], at[:1]), state(rows, at)[:1])
    assert seen == n_steps + 1


def test_chunked_state_outside_the_item_yielded_last_raises():
    """Items of the pumped pair are step 0, then blocks of 8 chunks of 32
    steps; a state is built only inside the item yielded last, and only while
    no other stack holds the buffers of the ``StepMaps``."""
    n_steps = 600
    chain = assemble(PUMPED_PAIR)
    stepped = stepped_states(chain, 0.01, n_steps)
    maps = StepMaps(chain, PUMPED_PAIR, 0.01, n_steps, 1)
    steps = chunked_cell_steps(maps, [PUMPED_PAIR])
    items = [next(steps)[:2] for _ in range(2)]
    first, values, state = next(steps)
    items.append((first, values))
    shapes = [(f, v.shape) for f, v in items]
    assert shapes == [(0, (1, 1, 2)), (1, (1, 256, 2)), (257, (1, 256, 2))]
    for i in (257, 300, 512):
        assert np.abs(state([0], [i])[0] - stepped[i]).max() <= ROUTE_VALUE_MAX
    for i in (0, 10, 256, 513):
        with pytest.raises(ValueError, match=f"^no state at step {i}: .* steps 257..512$"):
            state([0], [i])
    [(first, values, state)] = list(steps)
    assert (first, values.shape) == (513, (1, 88, 2))
    assert np.abs(state([0], [n_steps])[0] - stepped[n_steps]).max() <= ROUTE_VALUE_MAX
    # the next stack takes the buffers: the finished stack's states are gone,
    # and a stack still running fails at its next block
    running = chunked_cell_steps(maps, [PUMPED_PAIR])
    next(running)
    with pytest.raises(ValueError, match="^no state at step 600: another cell holds"):
        state([0], [n_steps])
    next(chunked_cell_steps(maps, [PUMPED_PAIR]))
    with pytest.raises(RuntimeError, match="another cell took"):
        next(running)


def test_stepped_state_outside_the_block_yielded_last_raises():
    """Items of a stepped cell are the blocks of ``iter_steps``: steps 0..31,
    then 32..37.  A state is built only inside the item yielded last, and it
    is a copy that the next block does not overwrite."""
    n_steps = CHUNK_STEPS + 5
    chain = assemble(PUMPED_PAIR)
    stepped = stepped_states(chain, 0.01, n_steps)
    steps = stepped_cell_steps(chain, 0.01, n_steps)
    first, values, state = next(steps)
    assert (first, values.shape) == (0, (1, CHUNK_STEPS, 2))
    kept = state([0], [CHUNK_STEPS - 1])
    first, values, state = next(steps)
    assert (first, values.shape) == (CHUNK_STEPS, (1, 6, 2))
    assert np.array_equal(kept[0], stepped[CHUNK_STEPS - 1])
    # several rows at once, each at its own step of the block
    at = [n_steps, CHUNK_STEPS, 35]
    assert np.array_equal(state([0, 0, 0], at), stepped[at])
    for stale in (0, CHUNK_STEPS - 1, n_steps + 1):
        with pytest.raises(ValueError, match=f"^no state at step {stale}: .* steps 32..37$"):
            state([0], [stale])
    assert next(steps, None) is None


@settings(max_examples=30)
@given(route_chains(), time_steps, st.integers(0, 3 * CHUNK_STEPS), st.integers(1, CHUNK_STEPS))
@example(PUMPED_PAIR, 0.01, 3 * CHUNK_STEPS + 4, 1)
@example(PUMPED_PAIR, 0.01, 3 * CHUNK_STEPS + 4, 5)
def test_stepped_cell_values_are_evolve_samples_bit_for_bit(config, dt, n_steps, rows):
    """A stepped cell's sink and trace at every step are, bit for bit, the
    sink and trace that ``evolve`` samples there, even in blocks of
    another number of rows."""
    chain = assemble(config)
    m = len(chain.basis.sectors.rows)
    with mock.patch.object(evolution, "BLOCK_BYTES", rows * 16 * m):
        stepped = step_rows(stepped_cell_steps(chain, dt, n_steps))
    record = evolve_assembled(chain, n_steps * dt, dt)
    assert stepped[:, 0].tolist() == list(range(n_steps + 1)) and len(record.times) == n_steps + 1
    assert stepped[:, 1].tobytes() == record.sink.tobytes()
    assert stepped[:, 2].tobytes() == record.trace.tobytes()


def objective_steps(objective, dt):
    return step_count(objective.t_max if isinstance(objective, TimeToReach) else objective.t, dt)


def read_stack(maps, configs, objective, dt):
    """Each cell's outcome from one stack of the configs on maps."""
    return _read_stack(chunked_cell_steps(maps, configs), maps.sectors, objective, dt)


@settings(max_examples=25)
@given(
    route_chains(),
    time_steps,
    st.integers(2, 1 + len(NEIGHBOUR_RATES)),
    st.one_of(
        st.builds(TimeToReach, st.floats(0.001, 0.6), st.floats(0.5, 6.0)),
        st.builds(SinkAtTime, st.floats(0.05, 6.0)),
    ),
)
# a pumped-pair row whose cells cross at steps 1 598, 915 and 1 029, in the
# 25th, 15th and 17th blocks of 2 chunks of 32 steps, a late crossing before
# early ones, while its first cell runs to its cap at t = 20
@example(PUMPED_PAIR, 0.01, 1 + len(NEIGHBOUR_RATES), TimeToReach(0.995, 20.0))
def test_stacked_cell_has_its_outcome_in_a_stack_of_one(config, dt, cells, objective):
    """A cell's outcome in a stack of cells equals, bit for bit, its outcome
    in a stack of one on the same ``StepMaps``, so at the same K and J, in
    views of the first rows of its buffers: the stacked products are each
    cell's own, and cells that stop leave the stack without moving the
    others."""
    row = config is PUMPED_PAIR  # the example: rates of the bottleneck benchmark's row
    if row:
        configs = [replace(config, rate_out=rate) for rate in (0.5, 3.0, 1.5, 2.0)]
    else:
        configs = stack_of(config, cells)
    maps = stack_maps(configs, dt, objective_steps(objective, dt))
    stacked = read_stack(maps, configs, objective, dt)
    for cell, outcome in zip(configs, stacked):
        assert read_stack(maps, [cell], objective, dt) == [outcome], cell
    if row:
        assert [o.capped for o in stacked] == [True, False, False, False]


@pytest.mark.parametrize(
    "base,axis,objective",
    [
        (PUMPED_PAIR, (0.5, 1.0, 1.5, 2.0, 3.0), TimeToReach(0.995, 400.0)),
        (DAT_PAIR, (0.3, 0.5, 1.0, 2.0), SinkAtTime(50.0)),
    ],
    ids=["pumped_pair", "dat_pair"],
)
def test_shared_buffers_give_each_cell_the_outcome_of_fresh_ones(base, axis, objective):
    """One ``StepMaps`` serving a sweep's cells in turn, each as a stack of
    one, gives each cell, bit for bit, the outcome of a ``StepMaps`` of its
    own.  The pumped pair's crossings fall in different chunks of their
    blocks, a late crossing before early ones."""
    dt = 0.01
    configs = [replace(base, rate_out=rate) for rate in axis]
    last = assemble(configs[-1])
    n_steps = objective_steps(objective, dt)
    shared = StepMaps(last, configs[-1], dt, n_steps, 1)
    _, k, j = shared.shape
    chunks_in_block = set()
    for config in configs:
        outcomes = [
            read_stack(maps, [config], objective, dt)
            for maps in (shared, StepMaps(last, configs[-1], dt, n_steps, 1))
        ]
        assert outcomes[0] == outcomes[1], config
        step = math.ceil(outcomes[0][0].value / dt - 1e-9)
        chunks_in_block.add((step - 1) // k % j)
    if isinstance(objective, TimeToReach):
        assert len(chunks_in_block) >= 3


# a four-site chain (d = 10, M = 66), whose sweeps run in stacks of six
FOUR_SITES = ChainConfig(n_atoms=4, k=0.8, mu=0.2, rate_out=0.5)


@pytest.mark.parametrize("objective", [TimeToReach(0.5, 20.0), SinkAtTime(5.0)])
def test_short_last_stack_gives_each_cell_its_outcome_in_a_stack_of_one(objective):
    """A sweep of nine cells in stacks of six ends in a stack of three,
    which runs in views of the first rows of the sweep's buffers: each of
    its cells has, bit for bit, its outcome as a stack of one on the same
    ``StepMaps``, and ``run_sweep``'s too.  The buffers stay those that
    the ``StepMaps`` allocated."""
    dt = 0.01
    rates = (0.2, 0.3, 0.5, 0.7, 1.0, 1.4, 2.0, 2.5, 3.0)
    configs = [replace(FOUR_SITES, rate_out=rate) for rate in rates]
    maps = StepMaps(assemble(configs[-1]), configs[-1], dt, objective_steps(objective, dt), 9)
    buffers = maps.buffers
    assert maps.shape[0] == 6 and sum(buffer.nbytes for buffer in buffers) <= STACK_BYTES
    outcomes = read_stack(maps, configs[:6], objective, dt)
    outcomes += read_stack(maps, configs[6:], objective, dt)
    if isinstance(objective, SinkAtTime):
        # no cell left the short stack, so its step maps still fill the
        # first rows of the sweep's buffer
        for row, cell in zip(buffers[0], configs[6:]):
            assert np.array_equal(row, maps.step_map(cell, np.empty_like(row)))
    for cell, outcome in zip(configs[6:], outcomes[6:]):
        assert read_stack(maps, [cell], objective, dt) == [outcome], cell
    assert maps.buffers is buffers
    with pytest.raises(ValueError, match="^a stack of 7 cells on step maps for stacks of 6$"):
        next(chunked_cell_steps(maps, configs[:7]))
    result = run_sweep(SweepSpec(FOUR_SITES, SweepAxis("rate_out", rates), objective))
    assert result.grid[:, 0].tolist() == [o.value for o in outcomes]
    assert result.cell_routes == {"chunked": 9, "stepped": 0}


# The halves of a sweep's step maps sum the terms of a cell's own step in
# another order: each entry agrees to roundoff of the largest.
STEP_MAP_MAX = 1e-14


@settings(max_examples=30)
@given(route_chains(), time_steps)
@example(PUMPED_PAIR, 0.01)
@example(replace(DAT_PAIR, cavity_loss=0.2), 0.01)
def test_shared_halves_give_each_cell_its_own_step_map(config, dt):
    """Over the cells of one sweep, ``StepMaps.step_map`` is the step map of
    each cell's own assembled chain and StepEngine.

    The first cell has every rate of the sweep; the others change k, then
    mu, which rebuild the unitary half, and set each rate to zero in turn,
    whose term the cell's own chain then omits.
    """
    cells = [
        config,
        replace(config, k=config.k + 0.5),
        replace(config, k=config.k + 0.5, rate_out=0.0),
        replace(config, mu=config.mu + 0.5, g=0.0),
        replace(config, rate_in=0.0, cavity_loss=0.0),
        config,
    ]
    maps = StepMaps(assemble(config), config, dt, n_steps=1, n_cells=1)
    for cell in cells:
        chain = assemble(cell)
        engine = StepEngine(chain.hamiltonian, chain.lindblad_terms, dt)
        own = engine_step_map(engine)
        shared = maps.step_map(cell, np.empty_like(own))
        assert np.abs(shared - own).max() <= STEP_MAP_MAX * np.abs(own).max(), cell


@st.composite
def unstable_chains(draw):
    """(config, dt, n_steps): a route chain whose rate_out, or Lindblad g, is
    set so that dt times its square is at least 4, an Euler step that blows up."""
    config, dt = draw(route_chains()), draw(time_steps)
    param = draw(st.sampled_from(("rate_out", "g")))
    if param == "g":
        config = replace(config, dephasing=DephasingModel.LINDBLAD_LIKE)
    rate = math.sqrt(draw(st.floats(4.0, 1e4)) / dt)
    return replace(config, **{param: rate}), dt, draw(st.integers(30, 300))


def failures(config, dt, n_steps):
    """The messages that evolve and a one-cell sweep of the run fail with
    (without the sweep's cell), None for a run that holds."""
    axis = SweepAxis("rate_out", (config.rate_out,))
    spec = SweepSpec(base=config, axis1=axis, objective=SinkAtTime(n_steps * dt), dt=dt)
    runs = (lambda: evolve(config, n_steps * dt, dt, sample_every=1), lambda: run_sweep(spec))
    messages = []
    for run in runs:
        try:
            run()
            messages.append(None)
        except ArithmeticError as exc:
            messages.append(str(exc).removeprefix(f"cell rate_out={config.rate_out!r}: "))
    return messages


@settings(max_examples=30)
@given(unstable_chains())
def test_evolve_and_a_stepped_sweep_cell_fail_with_one_message(unstable):
    """On the stepped route a cell's values are those of ``evolve``'s samples,
    bit for bit, so the two readers name the same first step, rule and value.
    The chunked route is not compared here: where the failure comes from
    roundoff alone it can name another step, and its powers of S can
    overflow against a coordinate that stays zero and fail a run that
    ``evolve`` completes."""
    with mock.patch.object(evolution, "cell_route", lambda sizes, n_steps: "stepped"):
        sampled, swept = failures(*unstable)
    assert sampled == swept


# one unstable run on each cell route, where the sink rule fails each at a
# step the two routes agree on
UNSTABLE_RUNS = {
    "stepped": (replace(PUMPED_PAIR, rate_out=30.0), 0.01, 20),
    "chunked": (replace(DAT_PAIR, g=30.0), 0.01, 300),
}


@pytest.mark.parametrize("route", sorted(UNSTABLE_RUNS))
def test_evolve_and_a_sweep_cell_fail_at_the_same_first_step(route):
    config, dt, n_steps = UNSTABLE_RUNS[route]
    assert cell_route(assemble(config).basis.sectors.sizes, n_steps) == route
    # the value's last bits may differ between the routes
    sampled, swept = (message.rpartition(": ")[0] for message in failures(config, dt, n_steps))
    assert sampled == swept
    assert sampled.startswith("sink not within ")
