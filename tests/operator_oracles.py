"""Operators, state checks and a dense step that tests use as oracles.

Each operator is built straight from the basis occupation table, not from
``transfer_op``, the operator builder under test.  ``dense_hamiltonian`` and
``dense_jumps`` are the chain's couplings and jumps built as dense d x d
arrays, one full matrix per move, the construction that the column maps of
``model`` replaced.  ``dense_step`` steps a
full d x d density matrix with one matmul per jump, the route the blocked
``StepEngine`` replaced, with a unitary from its own eigendecomposition.
``engine_step_map`` writes a step map column by column, from the engine's
step of each Hermitian unit state, the oracle of the step-map halves.
``pack`` is the inverse of ``Sectors.unpack`` that refuses a matrix leaking
out of the sectors, and ``numpy_sectors`` the partition of a basis derived
from its occupation table alone, the construction that the counting pass
over the enumeration's sector keys replaced.
"""

import math

import numpy as np

from cavitychain.model import (
    ChainConfig,
    DephasingModel,
    DephasingTarget,
    SinkCoupling,
)
from cavitychain.modes import (
    COUNTED_KINDS,
    DensityMatrix,
    ModeKind,
    ModeLayout,
    Operator,
    ProjectedBasis,
    Sectors,
)

OBSERVABLE_IMAG_TOL = 1e-9
# largest off-sector element a matrix may carry and still be packed
SECTOR_LEAK_TOL = 1e-12


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max element of |A - A^dag| of a square matrix."""
    return float(np.abs(matrix - matrix.conj().T).max())


def pack(sectors: Sectors, dense: np.ndarray) -> np.ndarray:
    """Packed vector of a dense d x d matrix that stays inside the sectors.

    Raises ArithmeticError if an element outside the blocks exceeds
    SECTOR_LEAK_TOL, rather than dropping it.
    """
    outside = dense.copy()
    outside[sectors.rows, sectors.cols] = 0
    leak = float(np.abs(outside).max(initial=0.0))
    if not leak <= SECTOR_LEAK_TOL:
        raise ArithmeticError(
            f"matrix leaks out of its (N, sink) sectors: max off-block |element| "
            f"{leak:.3e} > {SECTOR_LEAK_TOL:g}"
        )
    return dense[sectors.rows, sectors.cols].astype(complex, copy=False)


def dense(op: Operator) -> np.ndarray:
    """The d x d matrix of a packed operator."""
    return op.basis.sectors.unpack(op.elements)


def final_matrix(record) -> np.ndarray:
    """The dense d x d end-of-run state of a TrajectoryRecord."""
    return record.sectors.unpack(record.final_state)


def initial_matrix(chain) -> DensityMatrix:
    """The dense initial state of an assembled chain."""
    return DensityMatrix(chain.basis, chain.basis.sectors.unpack(chain.initial))


def numpy_sectors(basis: ProjectedBasis) -> dict:
    """Every field of ``Sectors``, derived with numpy from the occupation table.

    Blocks by 2N + sink from the summed occupations, positions by a stable
    sort, first coordinates by (size, key), and the coordinate tables from
    the d x d same-block mask.
    """
    layout = basis.layout
    counted = [i for i, m in enumerate(layout.modes) if m.kind in COUNTED_KINDS]
    occ = basis.occupations
    sink = occ[:, layout.index(ModeKind.SINK, layout.n_sites)]
    key = 2 * occ[:, counted].sum(axis=1) + sink
    counts = np.bincount(key)
    keys = np.flatnonzero(counts)
    sizes = counts[keys]
    block = np.searchsorted(keys, key)
    dim = basis.dim
    order = np.argsort(block, kind="stable")
    position = np.empty(dim, dtype=np.int64)
    position[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    by_size = np.argsort(sizes, kind="stable")
    areas = sizes[by_size] ** 2
    first = np.empty(len(sizes), dtype=np.int64)
    first[by_size] = np.cumsum(areas) - areas
    width, start = sizes[block], first[block]
    groups, stop = [], 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        groups.append((int(size), slice(stop, stop + int(count * size * size))))
        stop += int(count * size * size)

    def index(r, c):
        return start[r] + position[r] * width[r] + position[c]

    rows, cols = np.nonzero(block[:, None] == block[None, :])
    coordinate = index(rows, cols)
    packed_rows, packed_cols = np.empty_like(rows), np.empty_like(cols)
    packed_rows[coordinate], packed_cols[coordinate] = rows, cols
    upper = np.flatnonzero(packed_rows < packed_cols)
    return {
        "dim": dim,
        "block": block,
        "keys": tuple((int(k) // 2, int(k) % 2) for k in keys),
        "sizes": tuple(int(size) for size in sizes),
        "position": position,
        "width": width,
        "start": start,
        "groups": groups,
        "length": stop,
        "rows": packed_rows,
        "cols": packed_cols,
        "diagonal": index(np.arange(dim), np.arange(dim)),
        "pairs": np.stack([upper, index(packed_cols[upper], packed_rows[upper])]),
    }


def quanta_weights(layout: ModeLayout) -> np.ndarray:
    """1 for modes counted by the quanta window, 0 for phonons."""
    return np.array(
        [1 if m.kind in COUNTED_KINDS else 0 for m in layout.modes], dtype=np.int64
    )


def diagonal_op(basis: ProjectedBasis, diagonal: np.ndarray) -> Operator:
    """The packed operator of a diagonal matrix."""
    packed = np.zeros(basis.sectors.length, dtype=complex)
    packed[basis.sectors.diagonal] = diagonal
    return Operator(basis, packed)


def number_op(basis: ProjectedBasis, mode: int) -> Operator:
    """Diagonal occupation-number operator of one mode."""
    return diagonal_op(basis, basis.occupations[:, mode])


def total_quanta_op(basis: ProjectedBasis) -> Operator:
    """Summed number operator over photon, exciton and sink modes."""
    return diagonal_op(basis, basis.occupations @ quanta_weights(basis.layout))


def identity_op(basis: ProjectedBasis) -> Operator:
    return diagonal_op(basis, np.ones(basis.dim))


def dense_transfer(basis: ProjectedBasis, from_mode, to_mode) -> np.ndarray:
    """``transfer_op`` as a dense complex matrix, written element by element."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    index_of = {state: i for i, state in enumerate(basis.states)}
    for i, state in enumerate(basis.states):
        target = list(state)
        amplitude = 1.0
        if from_mode is not None:
            # an empty from-mode gives occupation -1, which no basis state has
            target[from_mode] -= 1
            amplitude *= math.sqrt(state[from_mode])
        if to_mode is not None:
            target[to_mode] += 1
            amplitude *= math.sqrt(state[to_mode] + 1)
        j = index_of.get(tuple(target))
        if j is not None:
            mat[j, i] = amplitude
    return mat


def dense_hamiltonian(config: ChainConfig, basis: ProjectedBasis) -> np.ndarray:
    """The chain Hamiltonian summed from one dense matrix per coupling."""
    layout = basis.layout
    dim = basis.dim
    h = np.zeros((dim, dim), dtype=complex)
    occ = basis.occupations
    for i in layout.indices(ModeKind.PHOTON):
        h[np.diag_indices(dim)] += config.omega_p * occ[:, i]
    for i in layout.indices(ModeKind.EXCITON):
        h[np.diag_indices(dim)] += config.omega_a * occ[:, i]
    for i in layout.indices(ModeKind.PHONON):
        h[np.diag_indices(dim)] += config.omega_g * occ[:, i]
    photon, exciton = layout.indices(ModeKind.PHOTON), layout.indices(ModeKind.EXCITON)
    couplings = [(config.k, p, q) for p, q in zip(photon, photon[1:])]
    couplings += [(config.mu, p, x) for p, x in zip(photon, exciton)]
    for strength, src, dst in couplings:
        move = dense_transfer(basis, src, dst)
        h += strength * move + np.conj(strength) * move.conj().T
    if config.dephasing is DephasingModel.UNITARY_PHONON:
        strength = config.g + np.conj(config.g)
        for site in range(1, config.n_atoms + 1):
            b = layout.index(ModeKind.PHONON, site)
            displacement = dense_transfer(basis, b, None) + dense_transfer(basis, None, b)
            n_exc = np.diag(occ[:, layout.index(ModeKind.EXCITON, site)].astype(complex))
            h += strength * (displacement @ n_exc)
    return h


def dense_jumps(config: ChainConfig, basis: ProjectedBasis) -> dict[str, np.ndarray]:
    """Each jump operator L = rate * A by its label, as a dense matrix."""
    layout = basis.layout
    n = config.n_atoms
    jumps = {}
    if config.rate_in > 0:
        pump = dense_transfer(basis, None, layout.index(ModeKind.PHOTON, 1))
        jumps["input"] = config.rate_in * pump
    if config.rate_out > 0:
        source_kind = (
            ModeKind.PHOTON
            if config.sink_coupling is SinkCoupling.LAST_PHOTON
            else ModeKind.EXCITON
        )
        drain = dense_transfer(
            basis, layout.index(source_kind, n), layout.index(ModeKind.SINK, n)
        )
        jumps["output"] = config.rate_out * drain
    if config.dephasing is DephasingModel.LINDBLAD_LIKE and config.g > 0:
        target_kind = (
            ModeKind.PHOTON
            if config.dephasing_target is DephasingTarget.PHOTON_NUMBER
            else ModeKind.EXCITON
        )
        for site in range(1, n + 1):
            mode = layout.index(target_kind, site)
            jumps[f"dephasing_{site}"] = config.g * dense(number_op(basis, mode))
    if config.cavity_loss > 0:
        for site in range(1, n + 1):
            leak = dense_transfer(basis, layout.index(ModeKind.PHOTON, site), None)
            jumps[f"loss_{site}"] = config.cavity_loss * leak
    return jumps


def observable(rho: DensityMatrix, op: Operator) -> float:
    """Re tr(op * rho); complains if a Hermitian observable turns complex."""
    assert rho.basis is op.basis, "state and operator live on different bases"
    value = complex(np.einsum("ij,ji->", dense(op), rho.elements))
    if abs(value.imag) > OBSERVABLE_IMAG_TOL:
        raise ArithmeticError(
            f"Hermitian observable returned imaginary part {value.imag:.3e}"
        )
    return value.real


def dense_step(hamiltonian: Operator, terms, dt: float):
    """The step map rho -> U rho U^dag + dt * D(rho) on dense d x d arrays.

    U = exp(-i*H*dt) comes from a plain ``np.linalg.eigh`` of the unpacked H,
    so no unitary code is shared with ``StepEngine``.  Every jump is a dense
    matmul, so this costs about (4 + 2J) d^3 per step and makes no use of
    sectors or of the jumps' monomial shape.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(dense(hamiltonian))
    unitary = (eigenvectors * np.exp(-1j * dt * eigenvalues)) @ eigenvectors.conj().T
    unitary_dag = unitary.conj().T.copy()
    dim = hamiltonian.basis.dim
    if terms:
        jumps = np.stack([t.operator.dense() for t in terms])
        jumps_dag = jumps.conj().transpose(0, 2, 1).copy()
        # 0.5 * sum of L^dag L, shared by both anticommutator halves
        half_rate = 0.5 * np.einsum("aij,ajk->ik", jumps_dag, jumps)
    else:
        jumps = None
        jumps_dag = None
        half_rate = np.zeros((dim, dim), dtype=complex)

    def step(rho: np.ndarray) -> np.ndarray:
        out = unitary @ rho @ unitary_dag
        if jumps is not None:
            gained = np.matmul(np.matmul(jumps, rho), jumps_dag).sum(axis=0)
            out += dt * (gained - (half_rate @ rho + rho @ half_rate))
        return out

    return step


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(matrix)[0])


def trace(rho: DensityMatrix) -> float:
    return float(np.trace(rho.elements).real)


def validate_state(
    rho: DensityMatrix,
    trace_tol: float = 1e-8,
    herm_tol: float = 1e-10,
    eig_floor: float = -1e-6,
) -> None:
    """Raise ValueError if the state drifted outside physical tolerances."""
    if abs(trace(rho) - 1.0) > trace_tol:
        raise ValueError(f"trace drifted to {trace(rho)!r}")
    defect = hermiticity_defect(rho.elements)
    if defect > herm_tol:
        raise ValueError(f"hermiticity defect {defect:.3e} > {herm_tol}")
    lowest = min_eigenvalue(rho.elements)
    if lowest < eig_floor:
        raise ValueError(f"min eigenvalue {lowest:.3e} below {eig_floor}")


def hermitian_unit_states(sectors):
    """The packed state of each unit vector of the M real Hermitian coordinates:
    Re rho_rc on r <= c and Im rho_rc in the (c, r) slot."""
    upper, lower = sectors.pairs
    for unit in np.eye(len(sectors.rows)):
        rho = unit.astype(complex)
        rho[upper] += 1j * unit[lower]
        rho[lower] = rho[upper].conj()
        yield rho


def hermitian_coordinates(sectors, rho):
    upper, lower = sectors.pairs
    real = rho.real.copy()
    real[lower] = rho[upper].imag
    return real


def engine_step_map(engine) -> np.ndarray:
    """The real M x M map of ``engine.step`` on Hermitian coordinates, one
    column per Hermitian unit state."""
    sectors = engine.sectors
    return np.column_stack([
        hermitian_coordinates(sectors, engine.step(rho))
        for rho in hermitian_unit_states(sectors)
    ])
