"""Basis enumeration and projected-operator algebra."""

import itertools

import numpy as np
import pytest

from cavitychain.modes import (
    ColumnMap,
    DensityMatrix,
    ModeKind,
    ModeLayout,
    Operator,
    enumerate_basis,
    transfer_op,
)
from operator_oracles import (
    dense,
    hermiticity_defect,
    number_op,
    pack,
    quanta_weights,
    total_quanta_op,
    validate_state,
)


def brute_force_states(layout, max_quanta, phonon_cap):
    """Independent enumeration oracle: filter the full product space."""
    ranges = [
        range(phonon_cap + 1 if m.kind is ModeKind.PHONON else 2)
        for m in layout.modes
    ]
    weights = quanta_weights(layout)
    kept = []
    for occ in itertools.product(*ranges):
        q = sum(int(w) * n for w, n in zip(weights, occ))
        if q <= max_quanta:
            kept.append(occ)
    return kept


def test_two_site_window_0_1():
    layout = ModeLayout(2)
    basis = enumerate_basis(layout, 1)
    expected = [
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
    ]
    assert list(basis.states) == expected
    assert basis.dim == 6
    assert basis.state_index((1, 0, 0, 0, 0)) == 5


@pytest.mark.parametrize(
    "occupation",
    [
        (1, 1, 0, 0, 0),  # two quanta in a one-quantum window
        (3, 0, 0, 0, 0),  # a digit past its place: the key of (0, 1, 0, 0, 0)
        (-1, 1, 0, 0, 0),  # a borrow: the key of (2, 0, 0, 0, 0)
        (0, 0, 0, 0),  # too short
    ],
)
def test_state_index_refuses_states_outside_the_basis(occupation):
    basis = enumerate_basis(ModeLayout(2), 1)
    with pytest.raises(KeyError):
        basis.state_index(occupation)


def test_vacuum_only_window():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, 0)
    assert basis.states == ((0, 0, 0),)


def test_two_site_with_phonons():
    layout = ModeLayout(2, phonons=True)
    basis = enumerate_basis(layout, 1, phonon_cap=1)
    # 6 excitation states times 2^2 phonon configurations
    assert basis.dim == 24
    weights = quanta_weights(layout)
    for state in basis.states:
        assert sum(int(w) * n for w, n in zip(weights, state)) <= 1


@pytest.mark.parametrize("seed", range(5))
def test_enumeration_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_sites = int(rng.integers(1, 3))
    layout = ModeLayout(n_sites, phonons=bool(rng.integers(0, 2)))
    max_quanta, phonon_cap = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    basis = enumerate_basis(layout, max_quanta, phonon_cap=phonon_cap)
    assert list(basis.states) == brute_force_states(layout, max_quanta, phonon_cap)
    # state_index round-trips
    for j, s in enumerate(basis.states):
        assert basis.state_index(s) == j


def test_enumeration_deterministic():
    layout = ModeLayout(2, phonons=True)
    first = enumerate_basis(layout, 2, phonon_cap=1)
    assert first.states == enumerate_basis(layout, 2, phonon_cap=1).states


def full_window(layout, phonon_cap=1):
    """Caps wide enough to keep every occupation vector of the layout."""
    return int(quanta_weights(layout).sum()), phonon_cap


def single_mode_raise(levels):
    mat = np.zeros((levels, levels), dtype=complex)
    for n in range(levels - 1):
        mat[n + 1, n] = np.sqrt(n + 1)
    return mat


def test_ladder_matches_kron_construction():
    # Untruncated basis: projected construction must equal the tensor product.
    layout = ModeLayout(1, phonons=True)
    basis = enumerate_basis(layout, *full_window(layout, phonon_cap=2))
    assert basis.dim == 2 * 2 * 3 * 2
    dims = [3 if m.kind is ModeKind.PHONON else 2 for m in layout.modes]
    for mode in range(len(dims)):
        factors = [np.eye(d, dtype=complex) for d in dims]
        factors[mode] = single_mode_raise(dims[mode])
        expected = factors[0]
        for f in factors[1:]:
            expected = np.kron(expected, f)
        got = transfer_op(basis, None, mode).dense()
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_projected_ladder_agrees_with_full_space_restriction():
    layout = ModeLayout(2)
    small = enumerate_basis(layout, 1)
    full = enumerate_basis(layout, *full_window(layout))
    for mode in range(len(layout.modes)):
        op_small = transfer_op(small, None, mode).dense()
        op_full = transfer_op(full, None, mode).dense()
        for i, src in enumerate(small.states):
            for j, dst in enumerate(small.states):
                fi = full.state_index(src)
                fj = full.state_index(dst)
                assert op_small[j, i] == op_full[fj, fi]


def test_transfer_equals_product_on_full_window():
    layout = ModeLayout(2, phonons=True)
    basis = enumerate_basis(layout, *full_window(layout, phonon_cap=2))
    pairs = [(0, 3), (3, 0), (0, 1), (4, 6), (1, 4), (2, 5), (5, 2)]
    for src, dst in pairs:
        direct = transfer_op(basis, src, dst).dense()
        lower = transfer_op(basis, src, None).dense()
        lower_then_raise = transfer_op(basis, None, dst).dense() @ lower
        np.testing.assert_allclose(direct, lower_then_raise, atol=1e-12)


def test_transfer_survives_tight_window():
    # raise-then-lower through a projected intermediate loses the element;
    # the direct construction keeps it
    layout = ModeLayout(2)
    basis = enumerate_basis(layout, 1)
    full = enumerate_basis(layout, *full_window(layout))
    hop_small = transfer_op(basis, 0, 2).dense()
    hop_full = transfer_op(full, 0, 2).dense()
    for i, src in enumerate(basis.states):
        for j, dst in enumerate(basis.states):
            assert hop_small[j, i] == hop_full[full.state_index(dst), full.state_index(src)]
    p1 = basis.state_index((1, 0, 0, 0, 0))
    p2 = basis.state_index((0, 0, 1, 0, 0))
    assert hop_small[p2, p1] == 1.0
    # the naive product is zero here: raising first leaves the window
    product = transfer_op(basis, 0, None).dense() @ transfer_op(basis, None, 2).dense()
    assert np.abs(product).max() == 0.0


def test_transfer_validation():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, 1)
    with pytest.raises(ValueError):
        transfer_op(basis, 1, 1)
    with pytest.raises(ValueError):
        transfer_op(basis, None, None)
    with pytest.raises(IndexError):
        transfer_op(basis, 0, 9)


def test_raise_out_of_window_projects_to_zero():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, 0)
    op = transfer_op(basis, None, 0).dense()
    np.testing.assert_array_equal(op, np.zeros((1, 1)))


def test_three_level_matrix_element():
    layout = ModeLayout(1, phonons=True)
    basis = enumerate_basis(layout, *full_window(layout, phonon_cap=2))
    op = transfer_op(basis, None, layout.index(ModeKind.PHONON, 1)).dense()
    one = basis.state_index((0, 0, 1, 0))
    two = basis.state_index((0, 0, 2, 0))
    assert op[two, one] == pytest.approx(np.sqrt(2))


def test_lower_is_adjoint_of_raise():
    bases = [
        enumerate_basis(ModeLayout(2, phonons=True), 2, phonon_cap=1),
        enumerate_basis(ModeLayout(2, phonons=True), 3, phonon_cap=2),
    ]
    for basis in bases:
        for mode in range(len(basis.layout.modes)):
            lo = transfer_op(basis, mode, None).dense()
            ra = transfer_op(basis, None, mode).dense()
            np.testing.assert_allclose(lo, ra.conj().T, atol=1e-12)


def test_raise_lower_product_is_number_op():
    layout = ModeLayout(2, phonons=True)
    basis = enumerate_basis(layout, 3, phonon_cap=2)
    for mode in range(len(layout.modes)):
        lower = transfer_op(basis, mode, None).dense()
        prod = transfer_op(basis, None, mode).dense() @ lower
        np.testing.assert_allclose(prod, dense(number_op(basis, mode)), atol=1e-12)


def test_number_op_diagonal_reads_occupations():
    layout = ModeLayout(2)
    basis = enumerate_basis(layout, 1)
    for mode in range(len(layout.modes)):
        op = dense(number_op(basis, mode))
        assert hermiticity_defect(op) <= 1e-12
        np.testing.assert_array_equal(np.diag(op).real, basis.occupations[:, mode])


def test_total_quanta_op_skips_phonons():
    layout = ModeLayout(1, phonons=True)
    basis = enumerate_basis(layout, 1, phonon_cap=1)
    diag = np.diag(dense(total_quanta_op(basis))).real
    for i, state in enumerate(basis.states):
        # modes: photon, exciton, phonon, sink
        assert diag[i] == state[0] + state[1] + state[3]


def test_two_level_anticommutator_is_identity():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, *full_window(layout))
    mode = layout.index(ModeKind.EXCITON, 1)
    ra, lo = transfer_op(basis, None, mode).dense(), transfer_op(basis, mode, None).dense()
    anti = lo @ ra + ra @ lo
    np.testing.assert_allclose(anti, np.eye(basis.dim), atol=1e-12)


def test_operator_algebra_flags():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, 1)
    assert hermiticity_defect(dense(number_op(basis, 0))) <= 1e-12
    assert isinstance(transfer_op(basis, 0, 1), ColumnMap)


def test_hermitian_tag_verified():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, 1)
    bad = np.zeros(basis.sectors.length, dtype=complex)
    # off the diagonal of the one-excitation block, without its transpose
    bad[basis.sectors.index(np.array([2]), np.array([3]))] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        Operator(basis, bad)
    bad = np.zeros(basis.sectors.length, dtype=complex)
    bad[basis.sectors.diagonal[0]] = 1j  # a 1 x 1 block
    with pytest.raises(ValueError, match="not Hermitian"):
        Operator(basis, bad)


def test_random_symmetrized_matrix_passes_hermitian_tag():
    layout = ModeLayout(2)
    basis = enumerate_basis(layout, 1)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    inside = basis.sectors.block[:, None] == basis.sectors.block[None, :]
    Operator(basis, pack(basis.sectors, np.where(inside, a + a.conj().T, 0)))


def test_operator_shape_checked():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, 1)
    with pytest.raises(ValueError, match="packed length"):
        Operator(basis, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="packed length"):
        Operator(basis, np.zeros((basis.dim, basis.dim)))


def test_ladder_mode_index_range():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, 1)
    with pytest.raises(IndexError):
        transfer_op(basis, None, 99)
    with pytest.raises(IndexError):
        transfer_op(basis, 99, None)


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout(0)


def test_layout_helpers():
    layout = ModeLayout(3, phonons=True)
    assert layout.n_sites == 3
    assert layout.indices(ModeKind.PHONON) == (2, 5, 8)
    assert layout.index(ModeKind.SINK, 3) == len(layout.modes) - 1
    assert layout.indices(ModeKind.PHOTON) == (0, 3, 6)
    with pytest.raises(KeyError):
        layout.index(ModeKind.PHOTON, 4)


def test_enumerate_basis_validation():
    with pytest.raises(ValueError, match="^max_quanta:"):
        enumerate_basis(ModeLayout(1), -1)
    with pytest.raises(ValueError, match="^phonon_cap:"):
        enumerate_basis(ModeLayout(1), 1, phonon_cap=-1)


def test_density_matrix_validate():
    layout = ModeLayout(1)
    basis = enumerate_basis(layout, 1)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[0, 0] = 1.0
    validate_state(DensityMatrix(basis, rho))

    bad_trace = DensityMatrix(basis, 2 * rho)
    with pytest.raises(ValueError):
        validate_state(bad_trace)

    skewed = rho.copy()
    skewed[0, 1] = 1e-3
    with pytest.raises(ValueError):
        validate_state(DensityMatrix(basis, skewed))

    negative = rho.copy()
    negative[1, 1] = -1e-3
    negative[0, 0] = 1.0 + 1e-3
    with pytest.raises(ValueError):
        validate_state(DensityMatrix(basis, negative))
