"""Chain assembly: Hamiltonian structure, jump-operator lists, initial states."""

import numpy as np
import pytest

from cavitychain.model import (
    SQUARED_FIELDS,
    SQUARED_MAX,
    AssembledChain,
    ChainConfig,
    DephasingModel,
    DephasingTarget,
    InitialState,
    SinkCoupling,
    assemble,
    build_basis,
)
from cavitychain import model
from cavitychain.modes import ModeKind
from operator_oracles import dense, hermiticity_defect, initial_matrix, total_quanta_op, trace


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


def test_enum_value_strings_become_members():
    by_string = ChainConfig(n_atoms=2, g=0.3, rate_out=0.6, dephasing="lindblad")
    by_member = ChainConfig(
        n_atoms=2, g=0.3, rate_out=0.6, dephasing=DephasingModel.LINDBLAD_LIKE
    )
    assert by_string.dephasing is DephasingModel.LINDBLAD_LIKE
    assert by_string == by_member
    labels = [t.label for t in assemble(by_string).lindblad_terms]
    assert labels == [t.label for t in assemble(by_member).lindblad_terms]
    assert labels == ["output", "dephasing_1", "dephasing_2"]
    phonons = ChainConfig(n_atoms=2, g=0.5, dephasing="unitary")
    assert build_basis(phonons).dim == 24
    exciton = ChainConfig(
        n_atoms=1, sink_coupling="exciton", dephasing_target="exciton",
        initial_state="vacuum",
    )
    assert exciton.sink_coupling is SinkCoupling.LAST_EXCITON
    assert exciton.dephasing_target is DephasingTarget.EXCITON_NUMBER
    assert exciton.initial_state is InitialState.VACUUM


@pytest.mark.parametrize(
    "field,value",
    [
        ("dephasing", "sometimes"),
        ("initial_state", "bogus"),
        ("sink_coupling", DephasingTarget.PHOTON_NUMBER),
        ("k", "0.5"),
        ("rate_out", None),
        ("g", 0.5j),
        ("dephasing", None),
    ],
)
def test_bad_field_value_names_the_field(field, value):
    kwargs = {"n_atoms": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field}: "):
        ChainConfig(**kwargs)


@pytest.mark.parametrize("field", SQUARED_FIELDS)
def test_rate_or_coupling_whose_square_overflows_names_the_field(field):
    for value in (1.5e154, 1e160, 1e300):
        with pytest.raises(ValueError, match=f"^{field}: must be at most 1.34e\\+154"):
            ChainConfig(n_atoms=1, **{field: value})
    assert getattr(ChainConfig(n_atoms=1, **{field: SQUARED_MAX}), field) == SQUARED_MAX


def test_real_numbers_are_stored_as_float():
    config = ChainConfig(n_atoms=np.int64(1), k=np.float64(0.7), mu=1, g=np.int32(2))
    assert (config.k, config.mu, config.g) == (0.7, 1.0, 2.0)
    assert all(type(v) is float for v in (config.k, config.mu, config.g))
    assert type(config.n_atoms) is int


def test_hamiltonian_diagonal_when_uncoupled():
    config = ChainConfig(
        n_atoms=2, dephasing=DephasingModel.UNITARY_PHONON, max_quanta=1
    )
    basis = build_basis(config)
    h = dense(assemble(config).hamiltonian)
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
    h = dense(assemble(config).hamiltonian)
    p1 = basis.state_index((1, 0, 0, 0, 0))
    p2 = basis.state_index((0, 0, 1, 0, 0))
    block = h[np.ix_([p1, p2], [p1, p2])]
    np.testing.assert_allclose(
        block, [[config.omega_p, 0.7], [0.7, config.omega_p]], atol=1e-12
    )


def test_single_site_matrix_exact():
    config = ChainConfig(n_atoms=1, mu=0.4)
    h = dense(assemble(config).hamiltonian)
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
    h = dense(assemble(config).hamiltonian)
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
    h = dense(assemble(config).hamiltonian)
    assert hermiticity_defect(h) <= 1e-12
    n_quanta = dense(total_quanta_op(basis))
    comm = h @ n_quanta - n_quanta @ h
    assert np.abs(comm).max() <= 1e-12


def test_single_output_term():
    config = ChainConfig(n_atoms=2, rate_out=1.5)
    basis = build_basis(config)
    terms = assemble(config).lindblad_terms
    assert [t.label for t in terms] == ["output"]
    op = terms[0].operator.dense()
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
    by_label = {t.label: t.operator.dense() for t in terms}
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
    op = assemble(config).lindblad_terms[0].operator.dense()
    src = basis.state_index((0, 0, 0, 1, 0))
    dst = basis.state_index((0, 0, 0, 0, 1))
    assert op[dst, src] == pytest.approx(2.0)


def test_exciton_dephasing_target():
    config = ChainConfig(
        n_atoms=1, g=0.4, dephasing_target=DephasingTarget.EXCITON_NUMBER
    )
    basis = build_basis(config)
    op = assemble(config).lindblad_terms[0].operator.dense()
    np.testing.assert_allclose(
        np.diag(op).real, 0.4 * basis.occupations[:, 1], atol=1e-12
    )


def test_term_quanta_bookkeeping():
    # input raises the conserved count by one, loss lowers it, the rest keep it
    config = ChainConfig(
        n_atoms=2, g=0.3, rate_in=1.0, rate_out=0.6, cavity_loss=0.2
    )
    basis = build_basis(config)
    n_quanta = dense(total_quanta_op(basis))
    shifts = {"input": 1, "output": 0, "dephasing_1": 0, "dephasing_2": 0, "loss_1": -1, "loss_2": -1}
    for term in assemble(config).lindblad_terms:
        l = term.operator.dense()
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
    rho = initial_matrix(assemble(config))
    idx = basis.state_index((1, 0, 0, 0, 0))
    assert trace(rho) == pytest.approx(1.0)
    assert rho.elements[idx, idx] == 1.0
    assert np.count_nonzero(rho.elements) == 1


def test_initial_density_matrix_vacuum():
    config = ChainConfig(n_atoms=2, rate_in=1.5)
    chain = assemble(config)
    assert np.count_nonzero(chain.initial) == 1
    rho = initial_matrix(chain)
    assert rho.elements[0, 0] == 1.0
    assert trace(rho) == pytest.approx(1.0)


def test_assemble_bundle():
    chain = assemble(ChainConfig(n_atoms=2, k=1.0, mu=1.0, rate_out=1.5))
    assert isinstance(chain, AssembledChain)
    assert chain.basis.dim == 6
    assert hermiticity_defect(dense(chain.hamiltonian)) <= 1e-12
    assert [t.label for t in chain.lindblad_terms] == ["output"]
    assert trace(initial_matrix(chain)) == pytest.approx(1.0)


def test_assemble_leaves_the_coordinate_tables_unbuilt():
    # assembly packs H and the initial state by the (N, sink) blocks, so it
    # builds the partition; the tables over packed coordinates wait for the
    # first engine or step map
    chain = assemble(ChainConfig(n_atoms=2, k=1.0, mu=1.0, g=0.3, rate_in=1.5, rate_out=1.5))
    sectors = chain.basis.sectors
    assert "_coordinates" not in vars(sectors) and "pairs" not in vars(sectors)


@pytest.mark.parametrize(
    "moved, name",
    [
        # the hop photon_1 -> photon_2 lands in the sink: N kept, the sink filled
        (((ModeKind.PHOTON, 1), (ModeKind.PHOTON, 2), (ModeKind.SINK, 2)), "k photon_1-photon_2"),
        # the lowering of phonon_2 lands in photon_1: N raised
        (((ModeKind.PHONON, 2), None, (ModeKind.PHOTON, 1)), "g phonon_2-exciton_2"),
    ],
    ids=["tunnelling", "phonon"],
)
def test_hamiltonian_rejects_a_coupling_that_joins_sectors(monkeypatch, moved, name):
    """A coupling's column map whose targets lie in another (N, sink) sector
    raises, naming the coupling."""
    config = ChainConfig(n_atoms=2, k=0.7, mu=0.4, g=0.3, dephasing=DephasingModel.UNITARY_PHONON)
    basis = build_basis(config)
    src, dst, into = (None if mode is None else basis.layout.index(*mode) for mode in moved)
    transfer = model.transfer_op

    def leaking(basis, a, b):
        return transfer(basis, a, into if (a, b) == (src, dst) else b)

    monkeypatch.setattr(model, "transfer_op", leaking)
    with pytest.raises(ArithmeticError, match=f"^coupling {name} joins two"):
        model.hamiltonian(config, basis)
