"""Density-matrix time evolution: exact unitary step plus Euler dissipator.

Each step conjugates the state with U = exp(-i*dt*H), computed once from the
Hamiltonian eigendecomposition, then adds dt times the standard dissipator
sum(L rho L^dag - (L^dag L rho + rho L^dag L)/2) over all jump operators.
The scheme is first order in dt through the dissipator; the unitary half is
exact.  The state is stepped as one block per (excitation count, sink)
sector of the basis, a structure the Hamiltonian and every jump preserve.
A sweep cell needs only the sink and trace at each step, so where
``cell_route`` finds it cheaper, it reads them off powers of the step's
matrix on packed block coordinates, CHUNK_STEPS steps per product.
A vectorized-Liouvillian oracle with a hand-rolled matrix exponential
provides an independent second route for convergence testing.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .model import AssembledChain, ChainConfig, LindbladTerm, assemble
from .modes import (
    DensityMatrix,
    ModeKind,
    Operator,
    ProjectedBasis,
    Sectors,
    hermiticity_defect,
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
    """Precomputed sector-blocked arrays for repeated steps at one fixed dt.

    States are block stacks of the basis's ``sectors``.  The unitary is
    packed once, and must not leak out of the sectors.  Every jump must be
    monomial (one nonzero per row and column) and send each block into a
    single block, so sum(L^dag L) is diagonal: the anticommutator and the
    diagonal (dephasing) jumps fold into one elementwise weight, and each
    other jump is a (destination, source, coefficient) map over the
    flattened stack.
    """

    def __init__(self, propagator: Propagator, terms: list[LindbladTerm], dt: float) -> None:
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        self.dt = float(dt)
        sectors = propagator.basis.sectors
        self.unitary = sectors.pack(propagator.unitary(dt))
        self.unitary_dag = self.unitary.conj().swapaxes(-1, -2).copy()
        rows, cols = sectors.rows, sectors.cols
        rates = np.zeros(sectors.dim)  # diagonal of sum(L^dag L)
        gained = np.zeros(rows.shape, dtype=complex)  # diagonal jumps, in-block pairs
        self.transfers: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for term in terms:
            sources, targets = _monomial_map(sectors, term)
            amplitude = np.zeros(sectors.dim, dtype=complex)
            amplitude[sources] = term.operator[targets, sources]
            rates += np.abs(amplitude) ** 2
            if np.array_equal(sources, targets):
                gained += amplitude[rows] * amplitude[cols].conj()
                continue
            target = np.full(sectors.dim, -1)
            target[sources] = targets
            kept = (target[rows] >= 0) & (target[cols] >= 0)
            self.transfers.append((
                sectors.flat(target[rows[kept]], target[cols[kept]]),
                sectors.packed[kept],
                self.dt * amplitude[rows[kept]] * amplitude[cols[kept]].conj(),
            ))
        self.weight = np.zeros(sectors.shape, dtype=complex)
        self.weight.reshape(-1)[sectors.packed] = self.dt * (
            gained - 0.5 * (rates[rows] + rates[cols])
        )

    def step(self, rho: np.ndarray) -> np.ndarray:
        """One step of a block stack, or of a stack of them along leading batch axes."""
        out = self.unitary @ rho @ self.unitary_dag
        out += rho * self.weight
        flat_out, flat_rho = out.reshape(-1), rho.reshape(-1)
        transfers = self.transfers
        if rho.ndim > 3:  # each stack of a batch takes every transfer at its offset
            offsets = np.arange(0, rho.size, self.weight.size)[:, None]
            transfers = [(offsets + d, offsets + s, c) for d, s, c in transfers]
        for destination, source, coefficient in transfers:
            flat_out[destination] += coefficient * flat_rho[source]
        return out


def _monomial_map(sectors: Sectors, term: LindbladTerm) -> tuple[np.ndarray, np.ndarray]:
    """(source states, target states) of a jump's nonzeros, checked block to block."""
    targets, sources = np.nonzero(term.operator)
    for states in (targets, sources):
        if np.bincount(states, minlength=1).max() > 1:
            raise ValueError(
                f"{term.label}: jump is not monomial "
                "(more than one nonzero in a row or column)"
            )
    from_block, to_block = sectors.block[sources], sectors.block[targets]
    destination = np.full(len(sectors.sizes), -1)
    destination[from_block] = to_block
    if np.any(destination[from_block] != to_block):
        raise ValueError(f"{term.label}: jump sends one (N, sink) sector into several")
    return sources, targets


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

    The one loop that steps a density matrix state by state, which
    diagonalizes the Hamiltonian of the chain it steps: trajectories consume
    it, and so do sweep cells on the stepped route (``cell_route`` sends the
    others through the step map of ``chunked_cell_steps``).  Each yielded
    state is a fresh block stack of ``chain.basis.sectors`` that later steps
    never write to.
    """
    engine = StepEngine(diagonalize(chain.hamiltonian), list(chain.lindblad_terms), dt)
    rho = chain.basis.sectors.pack(chain.initial.elements)
    yield 0, rho
    for i in range(1, n_steps + 1):
        rho = engine.step(rho)
        yield i, rho


def sink_column(basis: ProjectedBasis) -> np.ndarray:
    """Sink occupation of every basis state, as weights over the populations."""
    layout = basis.layout
    return basis.occupations[:, layout.index(ModeKind.SINK, layout.n_sites)].astype(float)


def step_map(engine: StepEngine, sectors: Sectors) -> np.ndarray:
    """The step as an M x M matrix S on packed block coordinates, M = sum of size**2.

    A packed state is ``blocks.reshape(-1)[sectors.packed]``.  Column j of S
    is the step of the j-th packed unit state, all of them pushed through
    ``engine.step`` as one batch, so S is the blocked step by construction.
    """
    m = len(sectors.packed)
    units = np.zeros((m, *sectors.shape), dtype=complex)
    units.reshape(m, -1)[np.arange(m), sectors.packed] = 1.0
    return np.ascontiguousarray(engine.step(units).reshape(m, -1)[:, sectors.packed].T)


# The chunked route reads CHUNK_STEPS steps per product; S**CHUNK_STEPS
# takes CHUNK_SQUARINGS squarings of S.
CHUNK_SQUARINGS = 5
CHUNK_STEPS = 2**CHUNK_SQUARINGS
# Fixed cost of one numpy product or step call from Python (dispatch,
# temporaries, the loop around it), in complex multiply-adds.  A blocked
# step at dim 6 counts 384 of them yet takes about 15 us, the time of some
# 150 000 in a large zgemm; 100 000 puts the rule's crossover within about
# 2x of the measured one on the chains of the sweep benchmarks and of the
# acceptance tests (timed on a 2-core Xeon VM).
STEP_OVERHEAD_MACS = 100_000

# (step index, sink population, trace, state): state() returns the block
# state at the step yielded last, built only when called
CellSteps = Iterator[tuple[int, float, float, Callable[[], np.ndarray]]]


def cell_route(sizes: tuple[int, ...], n_steps: int) -> str:
    """``"chunked"`` or ``"stepped"``: the cheaper route for n_steps on these sectors.

    Costs are counted in complex multiply-adds from the sector sizes alone,
    so the rule runs before S is allocated, and every product or step call
    adds STEP_OVERHEAD_MACS.  A blocked step is two batched matmuls over the
    padded stack.  The chunked route builds S as one batched step of the M
    unit states, squares it CHUNK_SQUARINGS times, forms the CHUNK_STEPS
    readout rows R S^j, and then takes one (2 CHUNK_STEPS + M) x M product
    per chunk.
    """
    m = sum(b * b for b in sizes)
    step = 2 * len(sizes) * max(sizes) ** 3
    chunks = -(-n_steps // CHUNK_STEPS)
    chunked = (
        m * step
        + CHUNK_SQUARINGS * m**3
        + CHUNK_STEPS * 2 * m * m
        + chunks * (2 * CHUNK_STEPS + m) * m
        + (1 + CHUNK_SQUARINGS + CHUNK_STEPS + chunks) * STEP_OVERHEAD_MACS
    )
    return "chunked" if chunked < n_steps * (step + STEP_OVERHEAD_MACS) else "stepped"


def stepped_cell_steps(chain: AssembledChain, dt: float, n_steps: int) -> CellSteps:
    """Sink and trace at steps 0..n_steps, stepping every state through ``iter_steps``."""
    sectors = chain.basis.sectors
    sink_col = sink_column(chain.basis)

    def state() -> np.ndarray:
        return rho

    for i, rho in iter_steps(chain, dt, n_steps):
        populations = sectors.populations(rho)
        yield i, float(populations @ sink_col), float(populations.sum()), state


def chunked_cell_steps(chain: AssembledChain, dt: float, n_steps: int) -> CellSteps:
    """Sink and trace at steps 0..n_steps, CHUNK_STEPS steps per product.

    With S the ``step_map`` and R the sink and trace rows over packed
    coordinates, one product of the stacked rows R S^1 .. R S^CHUNK_STEPS
    and S^CHUNK_STEPS with the packed state at a chunk's start gives every
    value inside the chunk and the state at the next start.  A state is
    rebuilt, by fewer than CHUNK_STEPS products with S, only when asked for.
    """
    sectors = chain.basis.sectors
    engine = StepEngine(diagonalize(chain.hamiltonian), list(chain.lindblad_terms), dt)
    step = step_map(engine, sectors)
    diagonal = sectors.rows == sectors.cols
    readout = np.zeros((2, len(sectors.packed)))
    readout[0, diagonal] = sink_column(chain.basis)[sectors.rows[diagonal]]
    readout[1, diagonal] = 1.0
    rows = [readout]
    for _ in range(CHUNK_STEPS):
        rows.append(rows[-1] @ step)
    power = step
    for _ in range(CHUNK_SQUARINGS):
        power = power @ power
    chunk = np.vstack([*rows[1:], power])
    n_values = 2 * CHUNK_STEPS

    def state() -> np.ndarray:  # offset steps past the chunk's start state
        packed = start_state
        for _ in range(offset):
            packed = step @ packed
        blocks = np.zeros(sectors.shape, dtype=complex)
        blocks.reshape(-1)[sectors.packed] = packed
        return blocks

    next_state = sectors.pack(chain.initial.elements).reshape(-1)[sectors.packed]
    start_state, offset = next_state, 0
    sink, trace = (readout @ start_state).real.tolist()
    yield 0, sink, trace, state
    for start in range(0, n_steps, CHUNK_STEPS):
        start_state = next_state
        out = chunk @ start_state
        next_state = out[n_values:]
        values = out[:n_values].real.reshape(CHUNK_STEPS, 2).tolist()
        for offset, (sink, trace) in enumerate(values[: n_steps - start], 1):
            yield start + offset, sink, trace, state


CELL_ROUTES = {"chunked": chunked_cell_steps, "stepped": stepped_cell_steps}


def evolve_assembled(
    chain: AssembledChain, t_end: float, dt: float, sample_every: int = 1
) -> TrajectoryRecord:
    """Run the step loop on a prebuilt chain, sampling every few steps."""
    try:
        sample_every = operator.index(sample_every)
    except TypeError:
        raise ValueError(f"sample_every must be an integer, got {sample_every!r}") from None
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    n_steps = step_count(t_end, dt)
    basis = chain.basis
    sectors = basis.sectors
    layout = basis.layout
    occ = basis.occupations
    sink_col = sink_column(basis)
    photon_cols = occ[:, list(layout.indices(ModeKind.PHOTON))].astype(float)
    exciton_cols = occ[:, list(layout.indices(ModeKind.EXCITON))].astype(float)

    times, sink, photon, exciton = [], [], [], []
    trace, min_eig, herm = [], [], []
    for i, rho in iter_steps(chain, dt, n_steps):
        if i % sample_every == 0 or i == n_steps:
            populations = sectors.populations(rho)
            times.append(i * dt)
            sink.append(float(populations @ sink_col))
            photon.append(populations @ photon_cols)
            exciton.append(populations @ exciton_cols)
            trace.append(float(populations.sum()))
            min_eig.append(sectors.min_eigenvalue(rho))
            herm.append(hermiticity_defect(rho))

    return TrajectoryRecord(
        times=np.array(times),
        sink=np.array(sink),
        photon=np.array(photon),
        exciton=np.array(exciton),
        trace=np.array(trace),
        min_eigenvalue=np.array(min_eig),
        hermiticity=np.array(herm),
        final_state=DensityMatrix(basis, sectors.unpack(rho)),
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
