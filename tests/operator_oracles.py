"""Operators, state checks and a dense step that tests use as oracles.

Each operator is built straight from the basis occupation table, not from
``transfer_op``, the operator builder under test.  ``dense_step`` steps a
full d x d density matrix with one matmul per jump, the route the blocked
``StepEngine`` replaced, with a unitary from its own eigendecomposition.
``engine_step_map`` writes a step map column by column, from the engine's
step of each Hermitian unit state, the oracle of the step-map halves.
"""

import numpy as np

from cavitychain.modes import (
    COUNTED_KINDS,
    DensityMatrix,
    ModeLayout,
    Operator,
    ProjectedBasis,
    hermiticity_defect,
)

OBSERVABLE_IMAG_TOL = 1e-9


def quanta_weights(layout: ModeLayout) -> np.ndarray:
    """1 for modes counted by the quanta window, 0 for phonons."""
    return np.array(
        [1 if m.kind in COUNTED_KINDS else 0 for m in layout.modes], dtype=np.int64
    )


def number_op(basis: ProjectedBasis, mode: int) -> Operator:
    """Diagonal occupation-number operator of one mode."""
    return Operator(basis, np.diag(basis.occupations[:, mode].astype(complex)))


def total_quanta_op(basis: ProjectedBasis) -> Operator:
    """Summed number operator over photon, exciton and sink modes."""
    counts = basis.occupations @ quanta_weights(basis.layout)
    return Operator(basis, np.diag(counts.astype(complex)))


def identity_op(basis: ProjectedBasis) -> Operator:
    return Operator(basis, np.eye(basis.dim, dtype=complex))


def observable(rho: DensityMatrix, op: Operator) -> float:
    """Re tr(op * rho); complains if a Hermitian observable turns complex."""
    assert rho.basis is op.basis, "state and operator live on different bases"
    value = complex(np.einsum("ij,ji->", op.elements, rho.elements))
    if abs(value.imag) > OBSERVABLE_IMAG_TOL:
        raise ArithmeticError(
            f"Hermitian observable returned imaginary part {value.imag:.3e}"
        )
    return value.real


def dense_step(hamiltonian: Operator, terms, dt: float):
    """The step map rho -> U rho U^dag + dt * D(rho) on dense d x d arrays.

    U = exp(-i*H*dt) comes from a plain ``np.linalg.eigh`` of the dense H,
    so no unitary code is shared with ``StepEngine``.  Every jump is a dense
    matmul, so this costs about (4 + 2J) d^3 per step and makes no use of
    sectors or of the jumps' monomial shape.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(hamiltonian.elements)
    unitary = (eigenvectors * np.exp(-1j * dt * eigenvalues)) @ eigenvectors.conj().T
    unitary_dag = unitary.conj().T.copy()
    dim = hamiltonian.basis.dim
    if terms:
        jumps = np.stack([t.operator for t in terms])
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
