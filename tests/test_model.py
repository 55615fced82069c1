"""Chain assembly: Hamiltonian structure, jump-operator lists, initial states."""

import numpy as np
import pytest

from cavitychain.model import (
    AssembledChain,
    ChainConfig,
    DephasingModel,
    DephasingTarget,
    InitialState,
    SinkCoupling,
    assemble,
    build_basis,
)
from cavitychain.modes import (
    ModeKind,
    hermiticity_defect,
)
from operator_oracles import total_quanta_op, trace


def test_layout_mode_counts():
    assert len(build_basis(ChainConfig(n_atoms=2)).layout.modes) == 5
    phonons = ChainConfig(n_atoms=2, dephasing=DephasingModel.UNITARY_PHONON)
    assert len(build_basis(phonons).layout.modes) == 7
    no_dephasing = ChainConfig(n_atoms=1, dephasing=DephasingModel.NONE)
    assert len(build_basis(no_dephasing).layout.modes) == 3


def test_window_and_initial_defaults():
    undriven = ChainConfig(n_atoms=2)
    assert (undriven.max_quanta, undriven.phonon_cap) == (1, 1)
    assert undriven.initial_state is InitialState.PHOTON_IN_FIRST_CAVITY

    pumped = ChainConfig(n_atoms=2, rate_in=1.5)
    assert (pumped.max_quanta, pumped.phonon_cap) == (5, 1)
    assert pumped.initial_state is InitialState.VACUUM
    # widest window: every two-level occupation vector survives
    assert build_basis(pumped).dim == 2 ** 5


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(n_atoms=0)
    with pytest.raises(ValueError):
        ChainConfig(n_atoms=1, rate_in=-0.5)
    with pytest.raises(ValueError):
        ChainConfig(n_atoms=1, g=-1.0)
    floats = (
        "k", "mu", "g", "omega_a", "omega_p", "omega_g", "rate_in", "rate_out", "cavity_loss"
    )
    for name in floats:
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{name}: must be finite"):
                ChainConfig(n_atoms=1, **{name: value})
    with pytest.raises(ValueError):
        ChainConfig(
            n_atoms=1,
            max_quanta=0,
            initial_state=InitialState.PHOTON_IN_FIRST_CAVITY,
        )
    with pytest.raises(ValueError, match="^n_atoms: must be an integer"):
        ChainConfig(n_atoms=1.5)
    with pytest.raises(ValueError, match="^max_quanta: must be an integer"):
        ChainConfig(n_atoms=1, max_quanta=1.5)
    with pytest.raises(ValueError, match="^phonon_cap: must be an integer"):
        ChainConfig(n_atoms=1, phonon_cap=0.5, dephasing=DephasingModel.UNITARY_PHONON)


def test_hamiltonian_diagonal_when_uncoupled():
    config = ChainConfig(
        n_atoms=2, dephasing=DephasingModel.UNITARY_PHONON, max_quanta=1
    )
    basis = build_basis(config)
    h = assemble(config).hamiltonian.elements
    layout = basis.layout
    occ = basis.occupations
    expected = np.zeros(basis.dim)
    for i in layout.indices(ModeKind.PHOTON):
        expected += config.omega_p * occ[:, i]
    for i in layout.indices(ModeKind.EXCITON):
        expected += config.omega_a * occ[:, i]
    for i in layout.indices(ModeKind.PHONON):
        expected += config.omega_g * occ[:, i]
    np.testing.assert_allclose(h, np.diag(expected), atol=1e-12)


def test_tunnelling_block_two_by_two():
    config = ChainConfig(n_atoms=2, k=0.7, max_quanta=1)
    basis = build_basis(config)
    h = assemble(config).hamiltonian.elements
    p1 = basis.state_index((1, 0, 0, 0, 0))
    p2 = basis.state_index((0, 0, 1, 0, 0))
    block = h[np.ix_([p1, p2], [p1, p2])]
    np.testing.assert_allclose(
        block, [[config.omega_p, 0.7], [0.7, config.omega_p]], atol=1e-12
    )


def test_single_site_matrix_exact():
    config = ChainConfig(n_atoms=1, mu=0.4)
    h = assemble(config).hamiltonian.elements
    # lexicographic states: vacuum, sink, exciton, photon
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.1, 0.4],
            [0.0, 0.0, 0.4, 0.1],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(h, expected, atol=1e-12)


def test_phonon_coupling_doubles_real_g():
    config = ChainConfig(
        n_atoms=1, g=0.3, dephasing=DephasingModel.UNITARY_PHONON
    )
    basis = build_basis(config)
    h = assemble(config).hamiltonian.elements
    # modes: photon, exciton, phonon, sink
    src = basis.state_index((0, 1, 0, 0))
    dst = basis.state_index((0, 1, 1, 0))
    assert h[dst, src] == pytest.approx(0.6, abs=1e-12)
    # no phonon coupling without the excitation
    vac = basis.state_index((0, 0, 0, 0))
    lifted = basis.state_index((0, 0, 1, 0))
    assert h[lifted, vac] == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_hamiltonian_hermitian_and_conserves_quanta(seed):
    rng = np.random.default_rng(seed)
    config = ChainConfig(
        n_atoms=int(rng.integers(1, 4)),
        k=float(rng.uniform(0, 2)),
        mu=float(rng.uniform(0, 2)),
        g=float(rng.uniform(0, 1)),
        rate_in=float(rng.choice([0.0, 1.5])),
        dephasing=rng.choice(list(DephasingModel)),
    )
    basis = build_basis(config)
    op = assemble(config).hamiltonian
    assert hermiticity_defect(op.elements) <= 1e-12
    n_quanta = total_quanta_op(basis).elements
    comm = op.elements @ n_quanta - n_quanta @ op.elements
    assert np.abs(comm).max() <= 1e-12


def test_single_output_term():
    config = ChainConfig(n_atoms=2, rate_out=1.5)
    basis = build_basis(config)
    terms = assemble(config).lindblad_terms
    assert [t.label for t in terms] == ["output"]
    op = terms[0].operator
    # moves the last-cavity photon onto the sink with the rate folded in
    src = basis.state_index((0, 0, 1, 0, 0))
    dst = basis.state_index((0, 0, 0, 0, 1))
    assert op[dst, src] == pytest.approx(1.5)
    assert np.count_nonzero(op) == 1


def test_no_terms_when_everything_off():
    config = ChainConfig(n_atoms=2, dephasing=DephasingModel.NONE)
    assert assemble(config).lindblad_terms == ()


def test_dephasing_term_count():
    config = ChainConfig(n_atoms=2, g=0.3, rate_out=0.6)
    terms = assemble(config).lindblad_terms
    assert [t.label for t in terms] == ["output", "dephasing_1", "dephasing_2"]


def test_full_term_order_and_rate_folding():
    config = ChainConfig(
        n_atoms=2, g=0.3, rate_in=1.0, rate_out=0.6, cavity_loss=0.2
    )
    basis = build_basis(config)
    terms = assemble(config).lindblad_terms
    assert [t.label for t in terms] == [
        "input",
        "output",
        "dephasing_1",
        "dephasing_2",
        "loss_1",
        "loss_2",
    ]
    by_label = {t.label: t.operator for t in terms}
    vac = basis.state_index((0, 0, 0, 0, 0))
    p1 = basis.state_index((1, 0, 0, 0, 0))
    assert by_label["input"][p1, vac] == pytest.approx(1.0)
    assert by_label["loss_1"][vac, p1] == pytest.approx(0.2)
    np.testing.assert_allclose(
        np.diag(by_label["dephasing_1"]).real, 0.3 * basis.occupations[:, 0], atol=1e-12
    )


def test_unitary_model_has_no_dephasing_jumps():
    config = ChainConfig(
        n_atoms=2, g=0.5, rate_out=1.0, dephasing=DephasingModel.UNITARY_PHONON
    )
    terms = assemble(config).lindblad_terms
    assert [t.label for t in terms] == ["output"]


def test_exciton_sink_coupling():
    config = ChainConfig(
        n_atoms=2, rate_out=2.0, sink_coupling=SinkCoupling.LAST_EXCITON
    )
    basis = build_basis(config)
    op = assemble(config).lindblad_terms[0].operator
    src = basis.state_index((0, 0, 0, 1, 0))
    dst = basis.state_index((0, 0, 0, 0, 1))
    assert op[dst, src] == pytest.approx(2.0)


def test_exciton_dephasing_target():
    config = ChainConfig(
        n_atoms=1, g=0.4, dephasing_target=DephasingTarget.EXCITON_NUMBER
    )
    basis = build_basis(config)
    op = assemble(config).lindblad_terms[0].operator
    np.testing.assert_allclose(
        np.diag(op).real, 0.4 * basis.occupations[:, 1], atol=1e-12
    )


def test_term_quanta_bookkeeping():
    # input raises the conserved count by one, loss lowers it, the rest keep it
    config = ChainConfig(
        n_atoms=2, g=0.3, rate_in=1.0, rate_out=0.6, cavity_loss=0.2
    )
    basis = build_basis(config)
    n_quanta = total_quanta_op(basis).elements
    shifts = {"input": 1, "output": 0, "dephasing_1": 0, "dephasing_2": 0, "loss_1": -1, "loss_2": -1}
    for term in assemble(config).lindblad_terms:
        l = term.operator
        comm = n_quanta @ l - l @ n_quanta
        np.testing.assert_allclose(
            comm, shifts[term.label] * l, atol=1e-12, err_msg=term.label
        )


def test_saturated_window_pump_warns():
    config = ChainConfig(
        n_atoms=1,
        rate_in=1.0,
        max_quanta=1,
        initial_state=InitialState.PHOTON_IN_FIRST_CAVITY,
    )
    with pytest.warns(UserWarning, match="saturated"):
        assemble(config)


def test_initial_density_matrix_photon_first():
    config = ChainConfig(n_atoms=2)
    basis = build_basis(config)
    rho = assemble(config).initial
    idx = basis.state_index((1, 0, 0, 0, 0))
    assert trace(rho) == pytest.approx(1.0)
    assert rho.elements[idx, idx] == 1.0
    assert np.count_nonzero(rho.elements) == 1


def test_initial_density_matrix_vacuum():
    config = ChainConfig(n_atoms=2, rate_in=1.5)
    rho = assemble(config).initial
    assert rho.elements[0, 0] == 1.0
    assert trace(rho) == pytest.approx(1.0)


def test_assemble_bundle():
    chain = assemble(ChainConfig(n_atoms=2, k=1.0, mu=1.0, rate_out=1.5))
    assert isinstance(chain, AssembledChain)
    assert chain.basis.dim == 6
    assert hermiticity_defect(chain.hamiltonian.elements) <= 1e-12
    assert [t.label for t in chain.lindblad_terms] == ["output"]
    assert trace(chain.initial) == pytest.approx(1.0)
