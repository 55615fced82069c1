"""Density-matrix time evolution: exact unitary step plus Euler dissipator.

Each step conjugates the state with U = exp(-i*dt*H), computed once from the
Hamiltonian eigendecomposition, then adds dt times the standard dissipator
sum(L rho L^dag - (L^dag L rho + rho L^dag L)/2) over all jump operators.
The scheme is first order in dt through the dissipator; the unitary half is
exact.  A vectorized-Liouvillian oracle with a hand-rolled matrix exponential
provides an independent second route for convergence testing.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import AssembledChain, ChainConfig, LindbladTerm, assemble
from .modes import (
    DensityMatrix,
    ModeKind,
    Operator,
    ProjectedBasis,
    hermiticity_defect,
    min_eigenvalue,
)

ORTHONORMALITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
POSITIVITY_FLOOR = -1e-6
ORACLE_MAX_DIM = 16
TAYLOR_TOL = 1e-12
TAYLOR_MAX_TERMS = 300
DEFAULT_DT = 0.01


class Propagator:
    """Eigendecomposition of a Hamiltonian, the source of unitary steps."""

    def __init__(
        self, basis: ProjectedBasis, eigenvalues: np.ndarray, eigenvectors: np.ndarray
    ) -> None:
        self.basis = basis
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.ascontiguousarray(eigenvectors, dtype=complex)
        gram = self.eigenvectors.conj().T @ self.eigenvectors
        defect = np.abs(gram - np.eye(basis.dim)).max()
        if not defect <= ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: defect {defect:.3e}")

    def unitary(self, dt: float) -> np.ndarray:
        """U = V diag(exp(-i*lambda*dt)) V^dag, checked for unitarity."""
        phases = np.exp(-1j * self.eigenvalues * float(dt))
        unitary = (self.eigenvectors * phases) @ self.eigenvectors.conj().T
        check = unitary @ unitary.conj().T
        defect = np.abs(check - np.eye(self.basis.dim)).max()
        if not defect <= UNITARITY_TOL:
            raise ArithmeticError(f"propagator not unitary: defect {defect:.3e}")
        return unitary


def diagonalize(hamiltonian: Operator) -> Propagator:
    """Eigendecompose a Hamiltonian into a step propagator."""
    w, v = np.linalg.eigh(hamiltonian.elements)
    rebuilt = (v * w) @ v.conj().T
    scale = max(1.0, float(np.abs(hamiltonian.elements).max()))
    err = np.abs(rebuilt - hamiltonian.elements).max() / scale
    if not err <= RECONSTRUCTION_TOL:
        raise ArithmeticError(f"eigendecomposition reconstruction error {err:.3e}")
    return Propagator(hamiltonian.basis, w, v)


class StepEngine:
    """Precomputed arrays for repeated steps at one fixed dt."""

    def __init__(self, propagator: Propagator, terms: list[LindbladTerm], dt: float) -> None:
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        self.dt = float(dt)
        self.unitary = propagator.unitary(dt)
        self.unitary_dag = self.unitary.conj().T.copy()
        dim = propagator.basis.dim
        if terms:
            self.jumps = np.stack([t.operator for t in terms])
            self.jumps_dag = self.jumps.conj().transpose(0, 2, 1).copy()
            # 0.5 * sum of L^dag L, shared by both anticommutator halves
            self.half_rate = 0.5 * np.einsum(
                "aij,ajk->ik", self.jumps_dag, self.jumps
            )
        else:
            self.jumps = None
            self.jumps_dag = None
            self.half_rate = np.zeros((dim, dim), dtype=complex)

    def step(self, rho: np.ndarray) -> np.ndarray:
        out = self.unitary @ rho @ self.unitary_dag
        if self.jumps is not None:
            gained = np.matmul(np.matmul(self.jumps, rho), self.jumps_dag).sum(axis=0)
            out += self.dt * (
                gained - (self.half_rate @ rho + rho @ self.half_rate)
            )
        return out


def step_count(t_end: float, dt: float) -> int:
    """Number of steps covering [0, t_end]; tolerant of t_end/dt roundoff."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be >= 0 and finite, got {t_end}")
    return max(0, math.ceil(t_end / dt - 1e-9))


@dataclass
class TrajectoryRecord:
    """Sampled observables of one evolution run.

    photon and exciton are (n_samples, n_sites) population arrays in site
    order; min_eigenvalue and hermiticity are validation columns sampled at
    the same instants.  final_state is the exact end-of-run density matrix.
    """

    times: np.ndarray
    sink: np.ndarray
    photon: np.ndarray
    exciton: np.ndarray
    trace: np.ndarray
    min_eigenvalue: np.ndarray
    hermiticity: np.ndarray
    final_state: DensityMatrix

    def __post_init__(self) -> None:
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def n_sites(self) -> int:
        return self.photon.shape[1]

    @property
    def max_trace_drift(self) -> float:
        return float(np.abs(self.trace - 1.0).max())

    @property
    def min_eigenvalue_seen(self) -> float:
        return float(self.min_eigenvalue.min())

    @property
    def max_hermiticity_defect(self) -> float:
        return float(self.hermiticity.max())

    def positivity_flags(self) -> np.ndarray:
        """1 where the sampled state dipped below POSITIVITY_FLOOR."""
        return (self.min_eigenvalue < POSITIVITY_FLOOR).astype(np.int64)


def iter_steps(
    chain: AssembledChain, dt: float, n_steps: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (step index, state) for steps 0..n_steps from the chain's initial state.

    The one place that steps a density matrix: trajectories and sweep cells
    all consume this loop, which diagonalizes the Hamiltonian of the chain it
    steps.  Each yielded state is a fresh array that later steps never write
    to.
    """
    engine = StepEngine(diagonalize(chain.hamiltonian), list(chain.lindblad_terms), dt)
    rho = chain.initial.elements.copy()
    yield 0, rho
    for i in range(1, n_steps + 1):
        rho = engine.step(rho)
        yield i, rho


def sink_column(basis: ProjectedBasis) -> np.ndarray:
    """Sink occupation of every basis state, as weights over the populations."""
    layout = basis.layout
    return basis.occupations[:, layout.index(ModeKind.SINK, layout.n_sites)].astype(float)


def evolve_assembled(
    chain: AssembledChain, t_end: float, dt: float, sample_every: int = 1
) -> TrajectoryRecord:
    """Run the step loop on a prebuilt chain, sampling every few steps."""
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    n_steps = step_count(t_end, dt)
    basis = chain.basis
    layout = basis.layout
    occ = basis.occupations
    sink_col = sink_column(basis)
    photon_cols = occ[:, list(layout.indices(ModeKind.PHOTON))].astype(float)
    exciton_cols = occ[:, list(layout.indices(ModeKind.EXCITON))].astype(float)

    times, sink, photon, exciton = [], [], [], []
    trace, min_eig, herm = [], [], []
    for i, rho in iter_steps(chain, dt, n_steps):
        if i % sample_every == 0 or i == n_steps:
            populations = np.diag(rho).real
            times.append(i * dt)
            sink.append(float(populations @ sink_col))
            photon.append(populations @ photon_cols)
            exciton.append(populations @ exciton_cols)
            trace.append(float(populations.sum()))
            min_eig.append(min_eigenvalue(rho))
            herm.append(hermiticity_defect(rho))

    return TrajectoryRecord(
        times=np.array(times),
        sink=np.array(sink),
        photon=np.array(photon),
        exciton=np.array(exciton),
        trace=np.array(trace),
        min_eigenvalue=np.array(min_eig),
        hermiticity=np.array(herm),
        final_state=DensityMatrix(basis, rho),
    )


def evolve(
    config: ChainConfig, t_end: float, dt: float = DEFAULT_DT, sample_every: int = 1
) -> TrajectoryRecord:
    """Assemble the chain from its config and evolve to t_end."""
    return evolve_assembled(assemble(config), t_end, dt, sample_every)


def superoperator_oracle(config: ChainConfig, t: float) -> DensityMatrix:
    """Evolve by exponentiating the full Liouvillian acting on vec(rho).

    Independent verification route: no step discretization, no reuse of the
    eigendecomposition path.  Cost scales as dim**4, hence the small-dimension
    guard.  Vectorization is row-major: vec(A X B) = (A kron B^T) vec(X).
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    chain = assemble(config)
    dim = chain.basis.dim
    if dim > ORACLE_MAX_DIM:
        raise ValueError(f"oracle limited to dimension {ORACLE_MAX_DIM}, got {dim}")
    eye = np.eye(dim)
    h = chain.hamiltonian.elements
    liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for term in chain.lindblad_terms:
        jump = term.operator
        absorbed = jump.conj().T @ jump
        liouvillian += np.kron(jump, jump.conj()) - 0.5 * (
            np.kron(absorbed, eye) + np.kron(eye, absorbed.T)
        )
    propagated = _expm_taylor(liouvillian * t) @ chain.initial.elements.reshape(-1)
    return DensityMatrix(chain.basis, propagated.reshape(dim, dim))


def _expm_taylor(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a plain Taylor sum."""
    norm = float(np.abs(matrix).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    scaled = matrix / (2.0 ** squarings)
    dim = matrix.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, TAYLOR_MAX_TERMS + 1):
        term = term @ scaled / k
        result += term
        if np.abs(term).max() < TAYLOR_TOL:
            break
    else:
        raise ArithmeticError("Taylor series for the matrix exponential did not converge")
    for _ in range(squarings):
        result = result @ result
    return result
