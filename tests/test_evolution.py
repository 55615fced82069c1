"""Step scheme, unitary, observables, and the superoperator oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavitychain import evolution
from cavitychain.evolution import (
    BLOCK_BYTES,
    CHUNK_STEPS,
    POSITIVITY_FLOOR,
    STACK_BYTES,
    SampleReader,
    StepEngine,
    TrajectoryRecord,
    _expm_taylor,
    _real_map,
    _unitary_blocks,
    cell_route,
    diagonalize,
    evolve,
    evolve_assembled,
    iter_steps,
    jump_map,
    stack_shape,
    step_count,
    superoperator_oracle,
    unitary_map,
)
from cavitychain.experiments import (
    SinkAtTime,
    SweepAxis,
    SweepSpec,
    TimeToReach,
    run_sweep,
    time_to_reach,
)
from cavitychain.model import (
    ChainConfig,
    DephasingModel,
    DephasingTarget,
    LindbladTerm,
    SinkCoupling,
    assemble,
    build_basis,
)
from cavitychain.modes import (
    ColumnMap,
    DensityMatrix,
    ModeKind,
    ModeLayout,
    Operator,
    Sectors,
    enumerate_basis,
    transfer_op,
)
from operator_oracles import (
    dense,
    final_matrix,
    hermitian_coordinates,
    hermitian_unit_states,
    hermiticity_defect,
    identity_op,
    initial_matrix,
    number_op,
    observable,
    pack,
    total_quanta_op,
    trace,
)


def two_site_basis():
    return enumerate_basis(ModeLayout(2), 1)


def eigenvalues_of(pairs):
    """All eigenvalues of ``diagonalize``'s per-group pairs, sorted."""
    return np.sort(np.concatenate([w.reshape(-1) for w, _ in pairs]))


def test_diagonalize_diagonal_hamiltonian():
    config = ChainConfig(n_atoms=1)
    pairs = diagonalize(assemble(config).hamiltonian)
    np.testing.assert_allclose(eigenvalues_of(pairs), [0.0, 0.0, 0.1, 0.1])
    # one pair per size group: the vacuum and the sink, then the (1, 0) block
    assert [(w.shape, v.shape) for w, v in pairs] == [((2, 1), (2, 1, 1)), ((1, 2), (1, 2, 2))]


def test_diagonalize_coupling_block_spectrum():
    config = ChainConfig(n_atoms=2, k=0.7, omega_p=0.0, max_quanta=1)
    eigenvalues = eigenvalues_of(diagonalize(assemble(config).hamiltonian))
    # photon hopping block contributes a +-k pair
    assert eigenvalues.min() == pytest.approx(-0.7, abs=1e-12)
    assert eigenvalues.max() == pytest.approx(0.7, abs=1e-12)


def test_diagonalize_reconstructs_random_hermitian():
    rng = np.random.default_rng(3)
    basis = two_site_basis()
    sectors = basis.sectors
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    inside = sectors.block[:, None] == sectors.block[None, :]
    h = Operator(basis, pack(sectors, np.where(inside, a + a.conj().T, 0)))
    for block, (eigenvalues, eigenvectors) in zip(sectors.blocks(h.elements), diagonalize(h)):
        rebuilt = (eigenvectors * eigenvalues[:, None, :]) @ eigenvectors.conj().swapaxes(-1, -2)
        np.testing.assert_allclose(rebuilt, block, atol=1e-9)
    expected = np.linalg.eigvalsh(dense(h))
    np.testing.assert_allclose(eigenvalues_of(diagonalize(h)), expected, atol=1e-12)


def test_diagonalize_rejects_non_hermitian():
    basis = two_site_basis()
    skew = np.zeros(basis.sectors.length, dtype=complex)
    skew[basis.sectors.index(np.array([2]), np.array([3]))] = 1.0
    with pytest.raises(ValueError):
        diagonalize(Operator(basis, skew))


def test_diagonalize_rejects_bad_eigenvectors(monkeypatch):
    # an eigensolver whose columns rebuild H = 0 but are not orthonormal
    def eigh(a):
        return np.zeros(a.shape[:-1]), np.broadcast_to(2.0 * np.eye(a.shape[-1]), a.shape)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    basis = two_site_basis()
    with pytest.raises(ValueError, match="not orthonormal"):
        diagonalize(Operator(basis, np.zeros(basis.sectors.length)))


# OpenBLAS 0.3.31's eigh does not converge on this chain's dense Hamiltonian
# read by its lower triangle (numpy's default), and does by its upper one; it
# converges on each of its blocks (sizes 6 and 15) either way
EIGH_FAILURE_CHAIN = ChainConfig(
    n_atoms=3, k=0.5425841069070236, mu=1.192092896e-07, rate_out=1.0, max_quanta=2
)


def test_diagonalize_reads_the_upper_triangle_where_eigh_fails(monkeypatch):
    h = assemble(EIGH_FAILURE_CHAIN).hamiltonian
    expected = np.linalg.eigvalsh(dense(h))
    np.testing.assert_allclose(eigenvalues_of(diagonalize(h)), expected, atol=1e-12)
    # the same on any LAPACK: an eigh that fails by the lower triangle, group
    # by group
    eigh = np.linalg.eigh
    calls = []

    def lower_fails(a, UPLO="L"):
        calls.append((a.shape, UPLO))
        if UPLO == "L":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, UPLO)

    monkeypatch.setattr(np.linalg, "eigh", lower_fails)
    np.testing.assert_allclose(eigenvalues_of(diagonalize(h)), expected, atol=1e-12)
    groups = [(size, span.stop - span.start) for size, span in h.basis.sectors.groups if size > 1]
    assert calls == [
        ((area // size**2, size, size), uplo) for size, area in groups for uplo in "LU"
    ]


def test_unitary_blocks_are_unitary():
    chain = assemble(ChainConfig(n_atoms=2, k=1.0, mu=0.5))
    for group in _unitary_blocks(chain.hamiltonian, 0.01):
        identity = np.eye(group.shape[-1])
        assert np.abs(group @ group.conj().swapaxes(-1, -2) - identity).max() <= 1e-10


def test_unitary_step_preserves_spectrum():
    chain = assemble(ChainConfig(n_atoms=2, k=1.0, mu=0.7))
    rho = initial_matrix(chain)
    engine = StepEngine(chain.hamiltonian, [], 0.05)
    sectors = rho.basis.sectors
    before = np.linalg.eigvalsh(rho.elements)
    for _ in range(50):
        stepped = engine.step(pack(sectors, rho.elements))
        rho = DensityMatrix(rho.basis, sectors.unpack(stepped))
    after = np.linalg.eigvalsh(rho.elements)
    np.testing.assert_allclose(after, before, atol=1e-10)
    assert trace(rho) == pytest.approx(1.0, abs=1e-12)


def test_single_jump_hand_computed_step():
    # H = 0, L = 0.8 * (sink-raise times exciton-lower), start in the exciton:
    # one Euler step moves dt * 0.8**2 of population onto the sink
    config = ChainConfig(
        n_atoms=1,
        omega_a=0.0,
        omega_p=0.0,
        rate_out=0.8,
        sink_coupling=SinkCoupling.LAST_EXCITON,
    )
    chain = assemble(config)
    basis = chain.basis
    exciton_idx = basis.state_index((0, 1, 0))
    sink_idx = basis.state_index((0, 0, 1))
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[exciton_idx, exciton_idx] = 1.0
    engine = StepEngine(chain.hamiltonian, chain.lindblad_terms, 0.01)
    stepped = DensityMatrix(
        basis, basis.sectors.unpack(engine.step(pack(basis.sectors, rho)))
    )
    assert stepped.elements[sink_idx, sink_idx].real == pytest.approx(0.0064, abs=1e-15)
    assert stepped.elements[exciton_idx, exciton_idx].real == pytest.approx(
        1 - 0.0064, abs=1e-15
    )
    assert trace(stepped) == pytest.approx(1.0, abs=1e-14)


def test_step_convergence_under_dt_halving():
    config = ChainConfig(n_atoms=2, k=0.8, mu=0.5, g=0.4, rate_out=1.2)
    t_end = 2.0
    coarse = final_matrix(evolve(config, t_end, dt=0.02))
    fine = final_matrix(evolve(config, t_end, dt=0.01))
    finest = final_matrix(evolve(config, t_end, dt=0.005))
    err_coarse = np.abs(coarse - finest).max()
    err_fine = np.abs(fine - finest).max()
    assert err_coarse / err_fine >= 1.8


def test_step_engine_validates_dt():
    chain = assemble(ChainConfig(n_atoms=1))
    with pytest.raises(ValueError):
        StepEngine(chain.hamiltonian, [], 0.0)


# mode positions on the two-site layout: photon_1, exciton_1, photon_2, exciton_2, sink
PHOTON_1, EXCITON_1, PHOTON_2, EXCITON_2 = 0, 1, 2, 3


@pytest.mark.parametrize(
    "moves,match",
    [
        # photon_1 hops and is absorbed at once: two nonzeros in one column
        (((PHOTON_1, PHOTON_2), (PHOTON_1, EXCITON_1)), "not monomial"),
        # the one-excitation block goes partly to N = 1, partly to the vacuum
        (((PHOTON_1, PHOTON_2), (EXCITON_2, None)), "into several"),
    ],
)
def test_step_engine_rejects_jump_leaving_its_sector_map(moves, match):
    basis = two_site_basis()
    # the sum of the moves, whose nonzeros lie in distinct places
    parts = [transfer_op(basis, a, b) for a, b in moves]
    mixer = ColumnMap(basis.dim, *(
        np.concatenate([getattr(part, name) for part in parts])
        for name in ("sources", "targets", "amplitudes")
    ))
    term = LindbladTerm("mixer", mixer, "rate_out")
    h = Operator(basis, np.zeros(basis.sectors.length))
    with pytest.raises(ValueError, match=f"^mixer: .*{match}"):
        StepEngine(h, [term], 0.01)


# Pumped with loss and photon or exciton dephasing: the pump, the drain and
# the losses are transfers, the dephasing jumps diagonal.  Then criterion
# 08's undriven phonon chain (M = 288).
STEP_MAP_CHAINS = [
    ChainConfig(
        n_atoms=2, k=1.0, mu=1.0, g=0.5, rate_in=1.5, rate_out=1.5, cavity_loss=0.2,
        dephasing=DephasingModel.LINDBLAD_LIKE,
    ),
    ChainConfig(
        n_atoms=2, k=0.8, mu=0.2, g=0.35, rate_in=0.7, rate_out=0.4, cavity_loss=0.2,
        dephasing=DephasingModel.LINDBLAD_LIKE, sink_coupling=SinkCoupling.LAST_EXCITON,
        dephasing_target=DephasingTarget.EXCITON_NUMBER,
    ),
    ChainConfig(
        n_atoms=2, k=0.8, mu=0.2, g=0.35, rate_out=0.3,
        sink_coupling=SinkCoupling.LAST_EXCITON, dephasing=DephasingModel.UNITARY_PHONON,
    ),
]


@pytest.mark.parametrize("config", STEP_MAP_CHAINS, ids=["pumped", "pumped_exciton", "phonons"])
def test_step_map_is_the_blocked_step(config):
    """The unitary half plus the jump half of a chain's terms is its step."""
    chain = assemble(config)
    sectors = chain.basis.sectors
    engine = StepEngine(chain.hamiltonian, chain.lindblad_terms, 0.01)
    step = unitary_map(chain.hamiltonian, 0.01) + jump_map(sectors, chain.lindblad_terms, 0.01)
    m = sum(b * b for b in sectors.sizes)
    assert step.shape == (m, m) and step.dtype == float
    for j, rho in enumerate(hermitian_unit_states(sectors)):
        stepped = engine.step(rho)
        assert hermiticity_defect(sectors.unpack(stepped)) <= 1e-15
        assert np.abs(step[:, j] - hermitian_coordinates(sectors, stepped)).max() <= 1e-15
    # the step keeps the trace: the trace row is a left fixed point of S
    trace_row = (sectors.rows == sectors.cols).astype(float)
    assert np.abs(trace_row @ step - trace_row).max() <= 1e-14


def test_step_map_refuses_a_step_that_breaks_hermiticity(monkeypatch):
    chain = assemble(STEP_MAP_CHAINS[0])
    sectors = chain.basis.sectors
    dissipator = evolution._dissipator

    def broken(*args):
        weight, transfers = dissipator(*args)
        destination, source, coefficient = transfers[0]
        # the transfer of one off-diagonal element takes a phase that the
        # transfer of its transpose does not
        coefficient = coefficient.copy()
        coefficient[np.argmax(sectors.rows[source] < sectors.cols[source])] *= 1j
        return weight, [(destination, source, coefficient)] + transfers[1:]

    monkeypatch.setattr(evolution, "_dissipator", broken)
    with pytest.raises(ArithmeticError, match="does not keep states Hermitian"):
        jump_map(sectors, chain.lindblad_terms, 0.01)
    # the change of coordinates refuses any complex map that turns element
    # (r, c) by a phase and leaves its transpose (c, r)
    m = len(sectors.rows)
    upper = sectors.pairs[0][0]
    step = np.eye(m, dtype=complex)
    step[upper, upper] = 1j
    with pytest.raises(ArithmeticError, match="does not keep states Hermitian"):
        _real_map(step, sectors)


def test_step_map_allocates_about_one_map():
    """Each half holds under about three complex maps while it is built."""
    chain = assemble(STEP_MAP_CHAINS[-1])
    sectors = chain.basis.sectors
    for build in (
        lambda: unitary_map(chain.hamiltonian, 0.01),
        lambda: jump_map(sectors, chain.lindblad_terms, 0.01),
    ):
        tracemalloc.start()
        try:
            half = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert half.shape == (288, 288)
        # the complex map, one block's Kronecker product, the column and row
        # pairs of the coordinate change and index temporaries; a batch of M
        # unit states would take several times the complex map
        assert peak <= 3 * 16 * 288**2


def test_pumped_five_site_setup_holds_no_dense_matrix():
    """Assembling and diagonalizing a pumped five-site chain (d = 2 048,
    M = 369 512) stays under 40 MB of traced peak: one dense d x d complex
    matrix alone would take 67 MB."""
    config = ChainConfig(n_atoms=5, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5)
    tracemalloc.start()
    try:
        chain = assemble(config)
        pairs = diagonalize(chain.hamiltonian)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.basis.dim == 2048 and chain.basis.sectors.length == 369_512
    assert max(v.shape[-1] for _, v in pairs) == 252
    assert peak <= 40_000_000 < 16 * 2048**2


def test_pumped_five_site_evolve_returns_its_state_packed():
    """evolve on the same chain to t = 0.05 returns its last state packed
    (M = 369 512), and once it returns holds under half of one dense d x d
    complex matrix: the record, the basis and its sectors, about 15 MB."""
    config = ChainConfig(n_atoms=5, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5)
    tracemalloc.start()
    try:
        record = evolve(config, 0.05)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 16 * 2048**2 // 2
    assert record.final_state.shape == (369_512,)


# A lone cell of the benchmark's two sweeps: K grows on small maps, J
# shrinks on large products.
@pytest.mark.parametrize(
    "m,n_steps,k",
    [(18, 5000, 1024), (140, 40000, CHUNK_STEPS)],
    ids=["dat_grid", "bottleneck_row"],
)
def test_chunk_length_grows_on_small_maps(m, n_steps, k):
    assert stack_shape(m, n_steps, 1)[1] == k


@pytest.mark.parametrize(
    "m,n_steps,j",
    [(18, 5000, 8), (140, 40000, 8)],
    ids=["dat_grid", "bottleneck_row"],
)
def test_block_length_shrinks_on_large_products(m, n_steps, j):
    assert stack_shape(m, n_steps, 1)[2] == j


@pytest.mark.parametrize(
    "m,n_steps,n_cells,shape",
    [
        # a lone cell, beyond the two above
        (18, 100, 1, (1, 64, 128)),
        (18, 1, 1, (1, CHUNK_STEPS, 256)),
        (288, 40000, 1, (1, CHUNK_STEPS, 2)),
        (1848, 40000, 1, (1, CHUNK_STEPS, 1)),
        # the sweeps: the benchmark's two and dat's default grid
        (18, 5000, 40, (40, CHUNK_STEPS, 4)),
        (140, 40000, 36, (1, CHUNK_STEPS, 8)),
        (18, 5000, 1640, (53, CHUNK_STEPS, 4)),
    ],
    ids=[
        "dat_cell_100_steps", "one_step", "m_288", "pumped_n3",
        "dat_grid", "bottleneck_row", "dat_default_grid",
    ],
)
def test_stack_shape(m, n_steps, n_cells, shape):
    assert stack_shape(m, n_steps, n_cells) == shape


def is_power_of_two(n):
    return n > 0 and n & (n - 1) == 0


@given(st.integers(1, 2000), st.integers(0, 100_000), st.integers(1, 2000))
def test_stack_shape_fits_its_budget(m, n_steps, n_cells):
    """B cells at K steps per chunk and J chunks per block: a stack of one,
    or one whose work arrays (those of ``StepMaps``) fit in STACK_BYTES."""
    b, k, j = stack_shape(m, n_steps, n_cells)
    assert 1 <= b <= n_cells
    elements = (k.bit_length() - 1) * m * m + (2 * k + m) * m + (j + 1) * (2 * k + m)
    assert b == 1 or 8 * b * elements <= STACK_BYTES
    assert is_power_of_two(k) and k >= CHUNK_STEPS
    assert is_power_of_two(j)


def sweep_chain(**overrides):
    return ChainConfig(**{
        "n_atoms": 2, "k": 0.8, "mu": 0.2, "rate_out": 0.5,
        "sink_coupling": SinkCoupling.LAST_EXCITON, **overrides,
    })


@pytest.mark.parametrize(
    "config,t_end",
    [
        (sweep_chain(g=0.3), 50.0),
        (ChainConfig(n_atoms=2, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5), 400.0),
        (sweep_chain(g=0.35, dephasing=DephasingModel.UNITARY_PHONON), 150.0),
        (sweep_chain(n_atoms=5, g=0.4), 150.0),
    ],
    ids=["dat_grid", "bottleneck_row", "criterion_08_phonons", "criterion_08_five_sites"],
)
def test_route_rule_chunks_the_sweep_cells(config, t_end):
    sizes = build_basis(config).sectors.sizes
    assert cell_route(sizes, step_count(t_end, 0.01)) == "chunked"


@pytest.mark.parametrize("n_atoms", [3, 4])
def test_route_rule_steps_large_pumped_cells(n_atoms):
    config = ChainConfig(n_atoms=n_atoms, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5)
    sizes = build_basis(config).sectors.sizes
    assert sum(b * b for b in sizes) == {3: 1848, 4: 25740}[n_atoms]
    assert cell_route(sizes, step_count(400.0, 0.01)) == "stepped"


def test_stepped_cell_never_builds_the_step_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("a half of the step map was built")

    for name in ("unitary_map", "jump_map", "StepMaps"):
        monkeypatch.setattr(evolution, name, refuse)
    config = ChainConfig(n_atoms=3, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5)
    spec = SweepSpec(
        base=config,
        axis1=SweepAxis("rate_out", (1.5,)),
        objective=TimeToReach(0.5, 400.0),
    )
    result = run_sweep(spec)
    assert not result.cap_mask.any()
    assert result.cell_routes == {"chunked": 0, "stepped": 1}


def test_step_count():
    assert step_count(10.0, 0.01) == 1000
    assert step_count(20.0, 0.01) == 2000
    assert step_count(400.0, 0.01) == 40000
    assert step_count(0.015, 0.01) == 2
    assert step_count(0.0, 0.01) == 0
    with pytest.raises(ValueError):
        step_count(1.0, 0.0)


NAN, INF = float("nan"), float("inf")


def _hamiltonian():
    return assemble(ChainConfig(n_atoms=1, mu=0.8)).hamiltonian


def _diagonalize_with_nan_at(*pairs):
    # past the Hermiticity check of construction, so diagonalize meets the NaN
    # in H = I; the pairs lie in the one-excitation block of states 2 .. 5
    h = identity_op(two_site_basis())
    for row, col in pairs:
        h.elements[h.basis.sectors.index(np.array([row]), np.array([col]))] = NAN
    return diagonalize(h)


def _nan_eigenvectors():
    # eigh returns NaN columns for the coupled pair
    return _diagonalize_with_nan_at((2, 3), (3, 2))


def _nan_diagonal():
    # eigh returns a NaN eigenvalue with orthonormal (unit) columns
    return _diagonalize_with_nan_at((3, 3))


def _nan_off_diagonal():
    basis = two_site_basis()
    h = np.zeros(basis.sectors.length, dtype=complex)
    h[basis.sectors.index(np.array([2]), np.array([3]))] = NAN
    return Operator(basis, h)


def _oracle_at(t):
    return superoperator_oracle(ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5), t)


def _sweep_with_dt(dt):
    return SweepSpec(
        base=ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5),
        axis1=SweepAxis("rate_out", (0.5,)),
        objective=SinkAtTime(3.0),
        dt=dt,
    )


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(
            lambda: _sweep_with_dt(INF), ValueError, "^dt must", id="SweepSpec-dt-inf"
        ),
        pytest.param(
            lambda: StepEngine(_hamiltonian(), [], INF),
            ValueError,
            "^dt must",
            id="StepEngine-dt-inf",
        ),
        pytest.param(
            lambda: step_count(INF, 0.01), ValueError, "^t_end must", id="step_count-t-inf"
        ),
        pytest.param(
            lambda: step_count(1.0, NAN), ValueError, "^dt must", id="step_count-dt-nan"
        ),
        pytest.param(
            lambda: time_to_reach(ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5), t_max=INF),
            ValueError,
            "^t_max must",
            id="TimeToReach-t_max-inf",
        ),
        pytest.param(
            lambda: SinkAtTime(NAN), ValueError, "^observation time", id="SinkAtTime-nan"
        ),
        pytest.param(
            lambda: unitary_map(_hamiltonian(), NAN),
            ArithmeticError,
            "not unitary",
            id="unitarity-nan",
        ),
        pytest.param(
            _nan_eigenvectors, ValueError, "not orthonormal", id="orthonormality-nan"
        ),
        pytest.param(_nan_diagonal, ArithmeticError, "reconstruction", id="reconstruction-nan"),
        pytest.param(_nan_off_diagonal, ValueError, "not Hermitian", id="hermiticity-nan"),
        pytest.param(lambda: _oracle_at(-1.0), ValueError, "^t must", id="oracle-t-negative"),
        pytest.param(lambda: _oracle_at(INF), ValueError, "^t must", id="oracle-t-inf"),
        pytest.param(lambda: _oracle_at(NAN), ValueError, "^t must", id="oracle-t-nan"),
    ],
)
def test_non_finite_time_or_defect_is_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_evolve_constant_without_couplings():
    config = ChainConfig(n_atoms=2, omega_a=0.0, omega_p=0.0)
    record = evolve(config, 1.0, dt=0.05)
    np.testing.assert_allclose(record.photon[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(record.sink, 0.0, atol=1e-12)
    np.testing.assert_allclose(record.trace, 1.0, atol=1e-12)


def test_evolve_rabi_oscillation():
    config = ChainConfig(n_atoms=2, k=1.0)
    record = evolve(config, 5.0, dt=0.01)
    expected = np.sin(record.times) ** 2
    np.testing.assert_allclose(record.photon[:, 1], expected, atol=1e-6)


def test_evolve_exchange_oscillation():
    config = ChainConfig(n_atoms=1, mu=0.4)
    record = evolve(config, 5.0, dt=0.01)
    expected = np.sin(0.4 * record.times) ** 2
    np.testing.assert_allclose(record.exciton[:, 0], expected, atol=1e-6)


def test_evolve_sink_monotone_for_transport_run():
    config = ChainConfig(n_atoms=2, k=1.0, mu=1.0, rate_out=1.5)
    record = evolve(config, 30.0, dt=0.01, sample_every=10)
    # monotone up to the first-order scheme error (tiny negative populations)
    assert np.all(np.diff(record.sink) >= -1e-5)
    assert record.sink[-1] > 0.99
    assert record.max_trace_drift < 1e-8


def test_evolve_sampling_grid():
    config = ChainConfig(n_atoms=1, mu=0.3)
    record = evolve(config, 1.0, dt=0.01, sample_every=30)
    # samples at steps 0, 30, 60, 90 plus the forced final step 100
    np.testing.assert_allclose(record.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
    assert record.photon.shape == (5, 1)
    with pytest.raises(ValueError):
        evolve(config, 1.0, dt=0.01, sample_every=0)
    # a non-integer step count is rejected, not rounded into another grid
    for bad in (1.5, "2", None):
        with pytest.raises(ValueError, match="^sample_every must be an integer"):
            evolve(config, 1.0, dt=0.01, sample_every=bad)
    record = evolve(config, 1.0, dt=0.01, sample_every=np.int64(30))
    np.testing.assert_allclose(record.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


def test_trajectory_record_summaries():
    record = TrajectoryRecord(
        times=np.array([0.0, 1.0]),
        sink=np.array([0.0, 0.5]),
        photon=np.array([[1.0], [0.4]]),
        exciton=np.array([[0.0], [0.1]]),
        trace=np.array([1.0, 1.0 + 3e-9]),
        positivity_flags=np.array([0, 1]),
        min_eigenvalue_seen=-2e-6,
        hermiticity=np.array([0.0, 1e-12]),
        final_state=None,
        sectors=None,
    )
    assert record.max_trace_drift == pytest.approx(3e-9)
    assert record.hermiticity.max() == pytest.approx(1e-12)
    with pytest.raises(ValueError):
        TrajectoryRecord(
            times=np.array([1.0, 0.0]),
            sink=np.zeros(2),
            photon=np.zeros((2, 1)),
            exciton=np.zeros((2, 1)),
            trace=np.ones(2),
            positivity_flags=np.zeros(2, dtype=np.int64),
            min_eigenvalue_seen=0.0,
            hermiticity=np.zeros(2),
            final_state=None,
            sectors=None,
        )


def test_positivity_flags_and_minimum_of_criterion_10_config():
    # every chunk after the first lowers the minimum, so every sample is exact;
    # the README quotes these figures
    record = evolve(ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5), 2.0)
    assert len(record.times) == 201
    assert record.positivity_flags.sum() == 197
    assert record.min_eigenvalue_seen == pytest.approx(-8.8336e-4, abs=5e-9)


def test_positivity_screen_leaves_few_samples_exact(monkeypatch):
    """On the benchmark's n=3 trajectory the running minimum stops falling by
    step 84, so three chunks of 32 take exact eigenvalues and the screen
    clears the other 29.  Of those three, only the first solves every block:
    in the other two only the four 15 x 15 blocks fail the screen."""
    exact = []  # blocks solved, per eigenvalue call
    eigvalsh = np.linalg.eigvalsh

    def counted(blocks, *args, **kwargs):
        exact.append(int(np.prod(blocks.shape[:-2])))
        return eigvalsh(blocks, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    config = ChainConfig(n_atoms=3, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5)
    sizes = assemble(config).basis.sectors.sizes
    record = evolve(config, 10.0)
    assert len(record.times) == 1001
    assert sum(exact) <= CHUNK_STEPS * len(sizes) + 2 * CHUNK_STEPS * sizes.count(15)
    assert record.positivity_flags.sum() == 0
    assert POSITIVITY_FLOOR < record.min_eigenvalue_seen < 0


# the criterion 10 chain, whose samples are flagged, and the pumped pair,
# with phonons, whose running minimum takes the screen: 500 steps each
BLOCK_CHAINS = {
    "criterion_10": ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5),
    "pumped_phonons": ChainConfig(
        n_atoms=2, k=1.0, mu=1.0, g=0.3, rate_in=1.5, rate_out=1.5,
        dephasing=DephasingModel.UNITARY_PHONON,
    ),
}


def block_lengths(chain, n_steps, every):
    return [len(steps) for steps, _ in iter_steps(chain, 0.01, n_steps, every)]


@pytest.mark.parametrize("sample_every", [1, 7])
@pytest.mark.parametrize("name", sorted(BLOCK_CHAINS))
def test_evolve_record_does_not_depend_on_the_rows_of_a_block(monkeypatch, name, sample_every):
    """Every field of the record, flags, minimum and final state included,
    is the same bit for bit in blocks of one row and of CHUNK_STEPS rows;
    at sample_every 7 the last step, 500, is not a multiple of it."""
    chain = assemble(BLOCK_CHAINS[name])
    samples = len(range(0, 500, sample_every)) + 1
    assert block_lengths(chain, 500, sample_every)[:2] == [CHUNK_STEPS] * 2
    records = [evolve_assembled(chain, 5.0, 0.01, sample_every)]
    monkeypatch.setattr(evolution, "BLOCK_BYTES", 0)
    assert block_lengths(chain, 500, sample_every) == [1] * samples
    records.append(evolve_assembled(chain, 5.0, 0.01, sample_every))
    fields = [field.name for field in dataclasses.fields(TrajectoryRecord)]
    one, full = ([np.asarray(getattr(r, f)).tobytes() for f in fields[:-1]] for r in records)
    assert one == full
    assert len(records[0].times) == samples and records[0].times[-1] == 5.0
    assert np.array_equal(final_matrix(records[0]), final_matrix(records[1]))
    if name == "criterion_10":
        assert records[0].positivity_flags.sum() > 0


@pytest.mark.parametrize("rows", [1, 3, CHUNK_STEPS])
@pytest.mark.parametrize("n_steps,every", [(0, 1), (1, 1), (64, 1), (100, 7), (98, 7), (40, 50)])
def test_iter_steps_yields_each_sampled_step_once(monkeypatch, rows, n_steps, every):
    """Steps 0, every, 2 every, ... and n_steps, each once and in order, in
    blocks of ``rows`` states but the last, each state the one at its step."""
    chain = assemble(BLOCK_CHAINS["criterion_10"])
    m = len(chain.basis.sectors.rows)
    every_step = np.concatenate([s.copy() for _, s in iter_steps(chain, 0.01, n_steps)])
    monkeypatch.setattr(evolution, "BLOCK_BYTES", rows * 16 * m)
    blocks = [(steps, states.copy()) for steps, states in iter_steps(chain, 0.01, n_steps, every)]
    sampled = [i for steps, _ in blocks for i in steps]
    assert sampled == sorted(set(range(0, n_steps + 1, every)) | {n_steps})
    assert all(len(steps) == rows for steps, _ in blocks[:-1]) and len(blocks[-1][0]) <= rows
    for steps, states in blocks:
        assert np.array_equal(states, every_step[steps])


def test_iter_steps_refuses_a_sampling_interval_below_one():
    chain = assemble(BLOCK_CHAINS["criterion_10"])
    for every in (0, -1):
        with pytest.raises(ValueError, match=f"^every must be >= 1, got {every}$"):
            next(iter_steps(chain, 0.01, 5, every))


def test_block_rows_follow_the_bytes_of_a_state():
    """A pumped four-site chain keeps blocks of CHUNK_STEPS states, and a
    pumped five-site one, whose CHUNK_STEPS states would take 189 MB, two."""
    pumped = {"k": 1.0, "mu": 1.0, "rate_in": 1.5, "rate_out": 1.5}
    four = assemble(ChainConfig(n_atoms=4, **pumped))
    assert block_lengths(four, CHUNK_STEPS, 1) == [CHUNK_STEPS, 1]
    m = sum(b * b for b in build_basis(ChainConfig(n_atoms=5, **pumped)).sectors.sizes)
    assert m == 369_512 and BLOCK_BYTES // (16 * m) == 2


@pytest.mark.parametrize(
    "element,value",
    [
        # (basis row, basis column): states 2 and 3 are the exciton and the photon
        ((2, 3), np.nan),  # an upper off-diagonal element
        ((3, 2), np.inf),  # a lower one
        ((2, 2), np.nan),  # a population
        ((3, 3), 1j * np.inf),  # the imaginary part of a population
    ],
)
def test_sample_reader_fails_on_a_non_finite_state_before_its_screen(
    monkeypatch, element, value
):
    chain = assemble(ChainConfig(n_atoms=1, mu=0.8, rate_out=0.5))
    assert chain.basis.sectors.block[2:].tolist() == [1, 1]  # the (1, 0) block
    reader = SampleReader(chain.basis)
    reader.seen = -1e-3  # so a block is screened, not read exactly

    def unreachable(*args):
        raise AssertionError("the screen ran on a non-finite block")

    monkeypatch.setattr(SampleReader, "_screen", unreachable)
    monkeypatch.setattr(Sectors, "min_eigenvalue", unreachable)
    sectors = chain.basis.sectors
    packed = chain.initial
    bad = packed.copy()
    bad[sectors.index(*element)] = value
    states = np.stack([packed, packed, bad, packed])
    # a population reaches the trace, which names it; an off-diagonal
    # element reaches the Hermiticity defect alone
    if element[0] == element[1]:
        failure = "^trace not within 1e-06 of 1 at step 10: nan$"
    else:
        failure = "^state not finite at step 10: Hermiticity defect "
    with pytest.raises(ArithmeticError, match=failure):
        reader.read([0, 5, 10, 15], states)


def test_observable_basics():
    chain = assemble(ChainConfig(n_atoms=2))
    basis = chain.basis
    sink_number = number_op(basis, basis.layout.index(ModeKind.SINK, 2))
    photon_number = number_op(basis, basis.layout.index(ModeKind.PHOTON, 1))
    rho = initial_matrix(chain)
    assert observable(rho, sink_number) == 0.0
    assert observable(rho, identity_op(basis)) == pytest.approx(1.0)
    assert observable(rho, photon_number) == pytest.approx(1.0)


def test_observable_flags_imaginary_expectation():
    basis = two_site_basis()
    # states 2 and 3 share the one-excitation block
    rho = np.zeros((6, 6), dtype=complex)
    rho[2, 3] = 1j
    rho[3, 3] = 1.0
    op = np.zeros((6, 6), dtype=complex)
    op[2, 3] = 1.0
    op[3, 2] = 1.0
    with pytest.raises(ArithmeticError):
        observable(DensityMatrix(basis, rho), Operator(basis, pack(basis.sectors, op)))


def test_oracle_identity_map_when_everything_off():
    config = ChainConfig(n_atoms=1, omega_a=0.0, omega_p=0.0)
    out = superoperator_oracle(config, 7.0)
    chain = assemble(config)
    np.testing.assert_allclose(out.elements, initial_matrix(chain).elements, atol=1e-12)


def test_oracle_matches_unitary_path():
    # two independent code paths for a dissipation-free run
    config = ChainConfig(n_atoms=1, mu=0.4)
    t = 3.0
    via_steps = final_matrix(evolve(config, t, dt=0.01))
    via_oracle = superoperator_oracle(config, t).elements
    # both treat the unitary part exactly
    np.testing.assert_allclose(via_steps, via_oracle, atol=1e-9)


def test_oracle_first_order_agreement_with_stepper():
    drain_and_photon_dephasing = ChainConfig(n_atoms=2, k=0.8, mu=0.5, g=0.4, rate_out=1.2)
    # d = 8 with the pump, the exciton drain, exciton dephasing and cavity loss
    every_jump_kind = ChainConfig(
        n_atoms=1, mu=0.8, g=0.4, rate_in=0.7, rate_out=0.5, cavity_loss=0.3,
        sink_coupling=SinkCoupling.LAST_EXCITON,
        dephasing_target=DephasingTarget.EXCITON_NUMBER,
    )
    assert [t.label for t in assemble(every_jump_kind).lindblad_terms] == [
        "input", "output", "dephasing_1", "loss_1"
    ]
    t = 2.0
    for config in (drain_and_photon_dephasing, every_jump_kind):
        reference = superoperator_oracle(config, t).elements
        err = {
            dt: np.abs(final_matrix(evolve(config, t, dt=dt)) - reference).max()
            for dt in (0.02, 0.01)
        }
        assert 1.7 <= err[0.02] / err[0.01] <= 2.3


def test_oracle_dimension_guard():
    config = ChainConfig(n_atoms=2, rate_in=1.5)  # 32 states
    with pytest.raises(ValueError):
        superoperator_oracle(config, 1.0)


def test_expm_taylor_against_analytic_cases():
    # diagonal
    d = np.diag([0.3, -1.2, 2.5]).astype(complex)
    np.testing.assert_allclose(
        _expm_taylor(d), np.diag(np.exp([0.3, -1.2, 2.5])), atol=1e-12
    )
    # nilpotent: series terminates exactly
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(_expm_taylor(n), np.eye(2) + n, atol=1e-15)
    # rotation generator, large angle to force squaring
    theta = 9.7
    r = np.array([[0.0, -theta], [theta, 0.0]], dtype=complex)
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    np.testing.assert_allclose(_expm_taylor(r), expected, atol=1e-11)


def test_expm_taylor_inverse_property():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    prod = _expm_taylor(m) @ _expm_taylor(-m)
    np.testing.assert_allclose(prod, np.eye(5), atol=1e-10)


def test_conservation_short_run_all_terms():
    config = ChainConfig(
        n_atoms=2, k=1.0, mu=0.8, g=0.3, rate_in=1.0, rate_out=1.2, cavity_loss=0.2
    )
    record = evolve(config, 20.0, dt=0.01, sample_every=50)
    assert record.max_trace_drift <= 1e-8
    assert record.hermiticity.max() <= 1e-10
    assert record.min_eigenvalue_seen >= -1e-6


def test_quanta_conserved_without_input():
    config = ChainConfig(n_atoms=2, k=1.0, mu=0.8, g=0.3, rate_out=1.2)
    chain = assemble(config)
    engine = StepEngine(chain.hamiltonian, chain.lindblad_terms, 0.01)
    n_quanta = total_quanta_op(chain.basis)
    rho = initial_matrix(chain)
    sectors = rho.basis.sectors
    values = [observable(rho, n_quanta)]
    for _ in range(200):
        stepped = engine.step(pack(sectors, rho.elements))
        rho = DensityMatrix(rho.basis, sectors.unpack(stepped))
        values.append(observable(rho, n_quanta))
    np.testing.assert_allclose(values, 1.0, atol=1e-8)
