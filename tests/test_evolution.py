"""Step scheme, propagator, observables, and the superoperator oracle."""

import numpy as np
import pytest

from cavitychain import evolution
from cavitychain.evolution import (
    Propagator,
    StepEngine,
    TrajectoryRecord,
    _expm_taylor,
    cell_route,
    diagonalize,
    evolve,
    step_count,
    step_map,
    superoperator_oracle,
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
    DensityMatrix,
    ModeKind,
    ModeLayout,
    Operator,
    enumerate_basis,
    transfer_op,
)
from operator_oracles import identity_op, number_op, observable, total_quanta_op, trace


def two_site_basis():
    return enumerate_basis(ModeLayout(2), 1)


def test_diagonalize_diagonal_hamiltonian():
    config = ChainConfig(n_atoms=1)
    prop = diagonalize(assemble(config).hamiltonian)
    np.testing.assert_allclose(sorted(prop.eigenvalues), [0.0, 0.0, 0.1, 0.1])


def test_diagonalize_coupling_block_spectrum():
    config = ChainConfig(n_atoms=2, k=0.7, omega_p=0.0, max_quanta=1)
    prop = diagonalize(assemble(config).hamiltonian)
    # photon hopping block contributes a +-k pair
    assert prop.eigenvalues.min() == pytest.approx(-0.7, abs=1e-12)
    assert prop.eigenvalues.max() == pytest.approx(0.7, abs=1e-12)


def test_diagonalize_reconstructs_random_hermitian():
    rng = np.random.default_rng(3)
    basis = two_site_basis()
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = Operator(basis, a + a.conj().T)
    prop = diagonalize(h)
    rebuilt = (prop.eigenvectors * prop.eigenvalues) @ prop.eigenvectors.conj().T
    np.testing.assert_allclose(rebuilt, h.elements, atol=1e-9)


def test_diagonalize_rejects_non_hermitian():
    basis = two_site_basis()
    skew = np.zeros((6, 6), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        diagonalize(Operator(basis, skew))


def test_propagator_rejects_bad_eigenvectors():
    basis = two_site_basis()
    with pytest.raises(ValueError):
        Propagator(basis, np.zeros(6), 2.0 * np.eye(6))


def test_propagator_unitary_cached_and_unitary():
    config = ChainConfig(n_atoms=2, k=1.0, mu=0.5)
    basis = build_basis(config)
    prop = diagonalize(assemble(config).hamiltonian)
    u1 = prop.unitary(0.01)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(basis.dim), atol=1e-10)


def test_unitary_step_preserves_spectrum():
    chain = assemble(ChainConfig(n_atoms=2, k=1.0, mu=0.7))
    prop = diagonalize(chain.hamiltonian)
    rho = chain.initial
    engine = StepEngine(prop, [], 0.05)
    sectors = rho.basis.sectors
    before = np.linalg.eigvalsh(rho.elements)
    for _ in range(50):
        stepped = engine.step(sectors.pack(rho.elements))
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
    engine = StepEngine(diagonalize(chain.hamiltonian), list(chain.lindblad_terms), 0.01)
    stepped = DensityMatrix(
        basis, basis.sectors.unpack(engine.step(basis.sectors.pack(rho)))
    )
    assert stepped.elements[sink_idx, sink_idx].real == pytest.approx(0.0064, abs=1e-15)
    assert stepped.elements[exciton_idx, exciton_idx].real == pytest.approx(
        1 - 0.0064, abs=1e-15
    )
    assert trace(stepped) == pytest.approx(1.0, abs=1e-14)


def test_step_convergence_under_dt_halving():
    config = ChainConfig(n_atoms=2, k=0.8, mu=0.5, g=0.4, rate_out=1.2)
    t_end = 2.0
    coarse = evolve(config, t_end, dt=0.02).final_state.elements
    fine = evolve(config, t_end, dt=0.01).final_state.elements
    finest = evolve(config, t_end, dt=0.005).final_state.elements
    err_coarse = np.abs(coarse - finest).max()
    err_fine = np.abs(fine - finest).max()
    assert err_coarse / err_fine >= 1.8


def test_step_engine_validates_dt():
    chain = assemble(ChainConfig(n_atoms=1))
    prop = diagonalize(chain.hamiltonian)
    with pytest.raises(ValueError):
        StepEngine(prop, [], 0.0)


def test_step_engine_rejects_hamiltonian_coupling_sectors():
    rng = np.random.default_rng(3)
    basis = two_site_basis()
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    prop = diagonalize(Operator(basis, a + a.conj().T))
    with pytest.raises(ArithmeticError, match="sectors"):
        StepEngine(prop, [], 0.01)


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
    term = LindbladTerm("mixer", sum(transfer_op(basis, a, b) for a, b in moves))
    prop = diagonalize(Operator(basis, np.zeros((basis.dim, basis.dim))))
    with pytest.raises(ValueError, match=f"^mixer: .*{match}"):
        StepEngine(prop, [term], 0.01)


# pumped with loss and dephasing (every jump kind), and an undriven phonon chain
STEP_MAP_CHAINS = [
    ChainConfig(n_atoms=2, k=1.0, mu=1.0, g=0.5, rate_in=1.5, rate_out=1.5, cavity_loss=0.2),
    ChainConfig(
        n_atoms=2, k=0.8, mu=0.2, g=0.35, rate_out=0.3,
        sink_coupling=SinkCoupling.LAST_EXCITON, dephasing=DephasingModel.UNITARY_PHONON,
    ),
]


@pytest.mark.parametrize("config", STEP_MAP_CHAINS, ids=["pumped", "phonons"])
def test_step_map_is_the_blocked_step(config):
    chain = assemble(config)
    sectors = chain.basis.sectors
    engine = StepEngine(diagonalize(chain.hamiltonian), list(chain.lindblad_terms), 0.01)
    step = step_map(engine, sectors)
    m = len(sectors.packed)
    assert step.shape == (m, m)
    for j in range(m):
        unit = np.zeros(sectors.shape, dtype=complex)
        unit.reshape(-1)[sectors.packed[j]] = 1.0
        stepped = engine.step(unit).reshape(-1)[sectors.packed]
        assert np.abs(step[:, j] - stepped).max() <= 1e-15
    # the step keeps the trace: the trace row is a left fixed point of S
    trace_row = (sectors.rows == sectors.cols).astype(float)
    assert np.abs(trace_row @ step - trace_row).max() <= 1e-14


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
        raise AssertionError("the step map was built")

    monkeypatch.setattr(evolution, "step_map", refuse)
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


def _propagator():
    return diagonalize(assemble(ChainConfig(n_atoms=1, mu=0.8)).hamiltonian)


def _nan_eigenvectors():
    basis = two_site_basis()
    return Propagator(basis, np.zeros(6), np.full((6, 6), NAN))


def _nan_diagonal():
    # past the Hermiticity check of construction, so diagonalize meets the NaN
    h = Operator(two_site_basis(), np.eye(6, dtype=complex))
    h.elements[1, 1] = NAN
    return diagonalize(h)


def _nan_off_diagonal():
    h = np.eye(6, dtype=complex)
    h[0, 1] = NAN
    return Operator(two_site_basis(), h)


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
            lambda: StepEngine(_propagator(), [], INF),
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
            lambda: _propagator().unitary(NAN),
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
        min_eigenvalue=np.array([0.0, -2e-6]),
        hermiticity=np.array([0.0, 1e-12]),
        final_state=None,
    )
    assert record.max_trace_drift == pytest.approx(3e-9)
    assert record.min_eigenvalue_seen == pytest.approx(-2e-6)
    np.testing.assert_array_equal(record.positivity_flags(), [0, 1])
    with pytest.raises(ValueError):
        TrajectoryRecord(
            times=np.array([1.0, 0.0]),
            sink=np.zeros(2),
            photon=np.zeros((2, 1)),
            exciton=np.zeros((2, 1)),
            trace=np.ones(2),
            min_eigenvalue=np.zeros(2),
            hermiticity=np.zeros(2),
            final_state=None,
        )


def test_observable_basics():
    chain = assemble(ChainConfig(n_atoms=2))
    basis = chain.basis
    sink_number = number_op(basis, basis.layout.index(ModeKind.SINK, 2))
    photon_number = number_op(basis, basis.layout.index(ModeKind.PHOTON, 1))
    assert observable(chain.initial, sink_number) == 0.0
    assert observable(chain.initial, identity_op(basis)) == pytest.approx(1.0)
    assert observable(chain.initial, photon_number) == pytest.approx(1.0)


def test_observable_flags_imaginary_expectation():
    basis = two_site_basis()
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 1] = 1j
    rho[1, 1] = 1.0
    op = np.zeros((6, 6), dtype=complex)
    op[0, 1] = 1.0
    op[1, 0] = 1.0
    with pytest.raises(ArithmeticError):
        observable(DensityMatrix(basis, rho), Operator(basis, op))


def test_oracle_identity_map_when_everything_off():
    config = ChainConfig(n_atoms=1, omega_a=0.0, omega_p=0.0)
    out = superoperator_oracle(config, 7.0)
    chain = assemble(config)
    np.testing.assert_allclose(out.elements, chain.initial.elements, atol=1e-12)


def test_oracle_matches_unitary_path():
    # two independent code paths for a dissipation-free run
    config = ChainConfig(n_atoms=1, mu=0.4)
    t = 3.0
    via_steps = evolve(config, t, dt=0.01).final_state.elements
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
            dt: np.abs(evolve(config, t, dt=dt).final_state.elements - reference).max()
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
    assert record.max_hermiticity_defect <= 1e-10
    assert record.min_eigenvalue_seen >= -1e-6


def test_quanta_conserved_without_input():
    config = ChainConfig(n_atoms=2, k=1.0, mu=0.8, g=0.3, rate_out=1.2)
    chain = assemble(config)
    engine = StepEngine(diagonalize(chain.hamiltonian), list(chain.lindblad_terms), 0.01)
    n_quanta = total_quanta_op(chain.basis)
    rho = chain.initial
    sectors = rho.basis.sectors
    values = [observable(rho, n_quanta)]
    for _ in range(200):
        stepped = engine.step(sectors.pack(rho.elements))
        rho = DensityMatrix(rho.basis, sectors.unpack(stepped))
        values.append(observable(rho, n_quanta))
    np.testing.assert_allclose(values, 1.0, atol=1e-8)
