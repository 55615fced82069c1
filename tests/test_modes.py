"""Basis enumeration and projected-operator algebra."""

import itertools

import numpy as np
import pytest

from cavitychain.modes import (
    DensityMatrix,
    EmptyBasisError,
    ModeKind,
    ModeLayout,
    ModeSpec,
    Operator,
    QuantaWindow,
    enumerate_basis,
    transfer_op,
)
from operator_oracles import (
    number_op,
    op_mul,
    quanta_weights,
    total_quanta_op,
    validate_state,
)


def brute_force_states(layout, window):
    """Independent enumeration oracle: filter the full product space."""
    ranges = []
    for m in layout.modes:
        cap = m.levels - 1
        if m.kind is ModeKind.PHONON:
            cap = min(cap, window.phonon_cap)
        ranges.append(range(cap + 1))
    weights = quanta_weights(layout)
    kept = []
    for occ in itertools.product(*ranges):
        q = sum(int(w) * n for w, n in zip(weights, occ))
        if window.min_quanta <= q <= window.max_quanta:
            kept.append(occ)
    return kept


def test_two_site_window_0_1():
    layout = ModeLayout.chain(2)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
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


def test_vacuum_only_window():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, QuantaWindow(0, 0))
    assert basis.states == ((0, 0, 0),)


def test_two_site_with_phonons():
    layout = ModeLayout.chain(2, phonons=True)
    basis = enumerate_basis(layout, QuantaWindow(0, 1, phonon_cap=1))
    # 6 excitation states times 2^2 phonon configurations
    assert basis.dim == 24
    weights = quanta_weights(layout)
    for state in basis.states:
        assert sum(int(w) * n for w, n in zip(weights, state)) <= 1


def test_min_quanta_excludes_vacuum():
    layout = ModeLayout.chain(2)
    basis = enumerate_basis(layout, QuantaWindow(1, 1))
    assert basis.dim == 5
    assert (0, 0, 0, 0, 0) not in basis.index_of


def test_empty_window_raises():
    layout = ModeLayout.chain(1)
    with pytest.raises(EmptyBasisError):
        enumerate_basis(layout, QuantaWindow(5, 5))


@pytest.mark.parametrize("seed", range(5))
def test_enumeration_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_sites = int(rng.integers(1, 3))
    layout = ModeLayout.chain(
        n_sites,
        phonons=bool(rng.integers(0, 2)),
        photon_levels=int(rng.integers(2, 4)),
        phonon_levels=3,
    )
    window = QuantaWindow(
        int(rng.integers(0, 2)), int(rng.integers(2, 5)), phonon_cap=int(rng.integers(0, 3))
    )
    basis = enumerate_basis(layout, window)
    assert list(basis.states) == brute_force_states(layout, window)
    # index_of round-trips
    for j, s in enumerate(basis.states):
        assert basis.index_of[s] == j


def test_enumeration_deterministic():
    layout = ModeLayout.chain(2, phonons=True)
    w = QuantaWindow(0, 2, phonon_cap=1)
    assert enumerate_basis(layout, w).states == enumerate_basis(layout, w).states


def full_window(layout):
    """Window wide enough to keep every occupation vector of the layout."""
    total = sum(m.levels - 1 for m in layout.modes if m.kind in (ModeKind.PHOTON, ModeKind.EXCITON, ModeKind.SINK))
    phonon_caps = [m.levels - 1 for m in layout.modes if m.kind is ModeKind.PHONON]
    return QuantaWindow(0, total, phonon_cap=max(phonon_caps, default=0))


def single_mode_raise(levels):
    mat = np.zeros((levels, levels), dtype=complex)
    for n in range(levels - 1):
        mat[n + 1, n] = np.sqrt(n + 1)
    return mat


def test_ladder_matches_kron_construction():
    # Untruncated basis: projected construction must equal the tensor product.
    layout = ModeLayout.chain(1, phonons=True, photon_levels=3, phonon_levels=3)
    basis = enumerate_basis(layout, full_window(layout))
    assert basis.dim == 3 * 2 * 3 * 2
    dims = [m.levels for m in layout.modes]
    for mode in range(len(dims)):
        factors = [np.eye(d, dtype=complex) for d in dims]
        factors[mode] = single_mode_raise(dims[mode])
        expected = factors[0]
        for f in factors[1:]:
            expected = np.kron(expected, f)
        got = transfer_op(basis, None, mode).elements
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_projected_ladder_agrees_with_full_space_restriction():
    layout = ModeLayout.chain(2)
    window = QuantaWindow(0, 1)
    small = enumerate_basis(layout, window)
    full = enumerate_basis(layout, full_window(layout))
    for mode in range(len(layout.modes)):
        op_small = transfer_op(small, None, mode).elements
        op_full = transfer_op(full, None, mode).elements
        for i, src in enumerate(small.states):
            for j, dst in enumerate(small.states):
                fi = full.state_index(src)
                fj = full.state_index(dst)
                assert op_small[j, i] == op_full[fj, fi]


def test_transfer_equals_product_on_full_window():
    layout = ModeLayout.chain(2, photon_levels=3)
    basis = enumerate_basis(layout, full_window(layout))
    pairs = [(0, 2), (2, 0), (0, 1), (3, 4), (1, 3)]
    for src, dst in pairs:
        direct = transfer_op(basis, src, dst).elements
        lower_then_raise = op_mul(transfer_op(basis, None, dst), transfer_op(basis, src, None))
        np.testing.assert_allclose(direct, lower_then_raise.elements, atol=1e-12)


def test_transfer_survives_tight_window():
    # raise-then-lower through a projected intermediate loses the element;
    # the direct construction keeps it
    layout = ModeLayout.chain(2)
    basis = enumerate_basis(layout, QuantaWindow(1, 1))
    full = enumerate_basis(layout, full_window(layout))
    hop_small = transfer_op(basis, 0, 2).elements
    hop_full = transfer_op(full, 0, 2).elements
    for i, src in enumerate(basis.states):
        for j, dst in enumerate(basis.states):
            assert hop_small[j, i] == hop_full[full.state_index(dst), full.state_index(src)]
    p1 = basis.state_index((1, 0, 0, 0, 0))
    p2 = basis.state_index((0, 0, 1, 0, 0))
    assert hop_small[p2, p1] == 1.0
    # the naive product is zero here: lowering first leaves the window
    product = op_mul(transfer_op(basis, None, 2), transfer_op(basis, 0, None)).elements
    assert np.abs(product).max() == 0.0


def test_transfer_validation():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
    with pytest.raises(ValueError):
        transfer_op(basis, 1, 1)
    with pytest.raises(ValueError):
        transfer_op(basis, None, None)
    with pytest.raises(IndexError):
        transfer_op(basis, 0, 9)


def test_raise_out_of_window_projects_to_zero():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, QuantaWindow(0, 0))
    op = transfer_op(basis, None, 0)
    np.testing.assert_array_equal(op.elements, np.zeros((1, 1)))


def test_three_level_matrix_element():
    layout = ModeLayout.chain(1, photon_levels=3)
    basis = enumerate_basis(layout, full_window(layout))
    op = transfer_op(basis, None, 0)
    one = basis.state_index((1, 0, 0))
    two = basis.state_index((2, 0, 0))
    assert op.elements[two, one] == pytest.approx(np.sqrt(2))


def test_lower_is_adjoint_of_raise():
    bases = [
        enumerate_basis(ModeLayout.chain(2, phonons=True), QuantaWindow(0, 2, phonon_cap=1)),
        enumerate_basis(ModeLayout.chain(2, photon_levels=3), QuantaWindow(0, 3)),
    ]
    for basis in bases:
        for mode in range(len(basis.layout.modes)):
            lo = transfer_op(basis, mode, None).elements
            ra = transfer_op(basis, None, mode).elements
            np.testing.assert_allclose(lo, ra.conj().T, atol=1e-12)


def test_raise_lower_product_is_number_op():
    layout = ModeLayout.chain(2, photon_levels=3)
    basis = enumerate_basis(layout, QuantaWindow(0, 3))
    for mode in range(len(layout.modes)):
        prod = op_mul(transfer_op(basis, None, mode), transfer_op(basis, mode, None))
        np.testing.assert_allclose(
            prod.elements, number_op(basis, mode).elements, atol=1e-12
        )


def test_number_op_diagonal_reads_occupations():
    layout = ModeLayout.chain(2)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
    for mode in range(len(layout.modes)):
        op = number_op(basis, mode)
        assert op.hermitian
        np.testing.assert_array_equal(
            np.diag(op.elements).real, basis.occupations[:, mode]
        )


def test_total_quanta_op_skips_phonons():
    layout = ModeLayout.chain(1, phonons=True)
    basis = enumerate_basis(layout, QuantaWindow(0, 1, phonon_cap=1))
    diag = np.diag(total_quanta_op(basis).elements).real
    for i, state in enumerate(basis.states):
        # modes: photon, exciton, phonon, sink
        assert diag[i] == state[0] + state[1] + state[3]


def test_two_level_anticommutator_is_identity():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, full_window(layout))
    mode = layout.index(ModeKind.EXCITON, 1)
    ra, lo = transfer_op(basis, None, mode), transfer_op(basis, mode, None)
    anti = op_mul(lo, ra).elements + op_mul(ra, lo).elements
    np.testing.assert_allclose(anti, np.eye(basis.dim), atol=1e-12)


def test_operator_algebra_flags():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
    assert number_op(basis, 0).hermitian
    assert not transfer_op(basis, 0, 1).hermitian


def test_hermitian_tag_verified():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
    bad = np.zeros((basis.dim, basis.dim), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        Operator(basis, bad, hermitian=True)


def test_random_symmetrized_matrix_passes_hermitian_tag():
    layout = ModeLayout.chain(2)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    Operator(basis, a + a.conj().T, hermitian=True)


def test_operator_shape_checked():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
    with pytest.raises(ValueError):
        Operator(basis, np.zeros((2, 3)))


def test_ladder_mode_index_range():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
    with pytest.raises(IndexError):
        transfer_op(basis, None, 99)
    with pytest.raises(IndexError):
        transfer_op(basis, 99, None)


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout((ModeSpec(ModeKind.PHOTON, 1),))  # no sink
    with pytest.raises(ValueError):
        ModeLayout(
            (
                ModeSpec(ModeKind.EXCITON, 1),
                ModeSpec(ModeKind.PHOTON, 1),
                ModeSpec(ModeKind.SINK, 1),
            )
        )  # wrong order
    with pytest.raises(ValueError):
        ModeSpec(ModeKind.EXCITON, 1, levels=3)
    with pytest.raises(ValueError):
        ModeSpec(ModeKind.PHOTON, 0)
    with pytest.raises(ValueError):
        ModeSpec(ModeKind.PHOTON, 1, levels=1)


def test_layout_helpers():
    layout = ModeLayout.chain(3, phonons=True)
    assert layout.n_sites == 3
    assert layout.indices(ModeKind.PHONON) == (2, 5, 8)
    assert layout.index(ModeKind.SINK, 3) == len(layout.modes) - 1
    assert layout.indices(ModeKind.PHOTON) == (0, 3, 6)
    with pytest.raises(KeyError):
        layout.index(ModeKind.PHOTON, 4)


def test_window_validation():
    with pytest.raises(ValueError):
        QuantaWindow(-1, 2)
    with pytest.raises(ValueError):
        QuantaWindow(3, 2)
    with pytest.raises(ValueError):
        QuantaWindow(0, 1, phonon_cap=-1)


def test_density_matrix_validate():
    layout = ModeLayout.chain(1)
    basis = enumerate_basis(layout, QuantaWindow(0, 1))
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
