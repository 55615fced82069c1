"""Density-matrix time evolution: exact unitary step plus Euler dissipator.

Each step conjugates the state with U = exp(-i*dt*H), computed once from
one eigh per group of equal-size blocks of the packed H, then adds dt times
the standard dissipator sum(L rho L^dag - (L^dag L rho + rho L^dag L)/2)
over all jump operators.  The scheme is first order in dt through the
dissipator; the unitary half is exact.  H and the state are kept as one
block per (excitation count, sink) sector, which H and every jump preserve.
A sweep cell needs only the sink and trace at each step, so where
``cell_route`` finds it cheaper, it reads them off powers of the step's
real matrix S on the Hermitian coordinates of packed states, K steps per
product, a block of J products at a time.  Cells run in stacks of B, each
product one stacked matmul over the stack, so K and J weigh a product's
fixed overhead shared by B cells, and B is sized from the bytes of their
work arrays: one ``stack_shape`` per sweep.  ``cell_stacks`` picks a
sweep's route and lays out its stacks.
Every jump carries its rate as a prefactor, so S is a unitary half plus
the squared rates times one jump half per rate: ``StepMaps`` builds the
halves once per sweep, the unitary one again only when the Hamiltonian
changes, and sums them per cell into the stack; it also keeps the route's
work arrays for the whole sweep.
A trajectory reads each block of ``iter_steps`` in one pass (``SampleReader``):
populations, as a stepped sweep cell reads them, Hermiticity and positivity,
by a shifted Cholesky screen that leaves the exact eigenvalues to the blocks
where a state could be flagged or lower the minimum seen so far.
A vectorized-Liouvillian oracle with a hand-rolled matrix exponential
provides an independent second route for convergence testing.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Generator, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    FIELD_KINDS,
    AssembledChain,
    ChainConfig,
    LindbladTerm,
    assemble,
    hamiltonian,
    unit_terms,
)
from .modes import (
    HERMITIAN_TOL,
    DensityMatrix,
    ModeKind,
    Operator,
    ProjectedBasis,
    Sectors,
    lowest_eigenvalue,
)

ORTHONORMALITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
POSITIVITY_FLOOR = -1e-6
# Margin of the positivity screen over its shift c.  A Cholesky factorization
# of a block less c*I that succeeds proves every eigenvalue of the block
# above c less the factorization's backward error, about n*eps*||rho||, some
# 2e-15 for blocks of up to 20 states and a state of norm about 1 (unit
# trace, nearly positive); the error of eigvalsh is of the same size.  1e-12
# is far above both, so the exact eigenvalues of a screened state stay above
# the base of the shift.
SCREEN_MARGIN = 1e-12
# The tolerance of ``first_failure``.  The Euler dissipator keeps the trace,
# so a stable run drifts by roundoff (about 2e-12 on a dat grid); an
# unstable step loses it (a trace of 0 after one step at rate_out 1e100) or,
# keeping it, drives the sink past it (9.0 at step 1 at rate_out 30, dt 0.01).
TRACE_TOL = 1e-6
ORACLE_MAX_DIM = 16
TAYLOR_TOL = 1e-12
TAYLOR_MAX_TERMS = 300
DEFAULT_DT = 0.01


def _quiet_overflow() -> np.errstate:
    """No numpy warning on overflow or invalid values, for stepping and readouts.

    An unstable Euler step (a rate far too large for dt) grows the state
    until it overflows.  The steps, the chunked route's products and the
    readouts of their states then give non-finite values, which the readers
    raise on, naming the step, so a warning would only say the same thing
    first.  It is entered in two places, each around a reader and what it
    drives, neither across a ``yield``: ``evolve_assembled``'s sample loop
    and each stack's ``_read_stack`` in ``experiments._cell_outcomes``.
    """
    return np.errstate(over="ignore", invalid="ignore")


def first_failure(
    steps: Sequence[int], sinks: np.ndarray, traces: np.ndarray, defects: np.ndarray | None = None
) -> str | None:
    """The message of the first step, in step order, that breaks the rule, or None.

    The rule of both readers, ``SampleReader.read`` and a sweep's
    ``experiments._read_stack``: a step holds when its trace lies within
    TRACE_TOL of 1 and its sink within [-TRACE_TOL, trace + TRACE_TOL], NaN
    and inf failing either bound.  The message names the step and its
    trace, or its sink where the trace holds.  Given each step's Hermiticity
    ``defects``, a step whose defect is not finite fails too, as not finite.
    """
    deviation = np.abs(traces - 1.0)
    sink_holds = np.maximum(sinks - traces, -sinks) <= TRACE_TOL
    holds = (deviation <= TRACE_TOL) & sink_holds
    if defects is not None:
        holds &= np.isfinite(defects)
    if holds.all():
        return None
    row = int(holds.argmin())
    at = f"at step {steps[row]}"
    if not deviation[row] <= TRACE_TOL:  # the trace, where both fail
        return f"trace not within {TRACE_TOL:g} of 1 {at}: {traces[row]}"
    if not sink_holds[row]:
        return f"sink not within [-{TRACE_TOL:g}, trace + {TRACE_TOL:g}] {at}: {sinks[row]}"
    return f"state not finite {at}: Hermiticity defect {defects[row]}"


def diagonalize(hamiltonian: Operator) -> list[tuple[np.ndarray, np.ndarray]]:
    """(eigenvalues, eigenvectors) of a packed Hamiltonian, checked, as (count,
    size) and (count, size, size) arrays for each group of ``sectors.groups``.

    A 1 x 1 group's are its real diagonal and ones (construction bounds the
    imaginary part).  Each larger group takes one batched eigh, whose columns
    must be orthonormal (ValueError) and rebuild the blocks (ArithmeticError)
    to their tolerances, relative to the largest |element| of H (at least 1);
    a NaN fails either check.  Where eigh does not converge on a group read by
    its lower triangle (as OpenBLAS 0.3.31 did on one dense H), it reads the upper.
    """
    pairs = []
    for size, span in hamiltonian.basis.sectors.groups:
        if size == 1:  # copied, not a view of H
            w = hamiltonian.elements[span].real.reshape(-1, 1).copy()
            pairs.append((w, np.ones((len(w), 1, 1))))
            continue
        block = hamiltonian.elements[span].reshape(-1, size, size)
        try:
            w, v = np.linalg.eigh(block)
        except np.linalg.LinAlgError:
            w, v = np.linalg.eigh(block, UPLO="U")
        v_dag = v.conj().swapaxes(-1, -2)
        defect = np.abs(v_dag @ v - np.eye(size)).max()
        if not defect <= ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: defect {defect:.3e}")
        err = np.abs((v * w[..., None, :]) @ v_dag - block).max()
        if not err <= RECONSTRUCTION_TOL:  # the scale, at least 1, is needed past it only
            err /= max(1.0, float(np.abs(hamiltonian.elements).max()))
            if not err <= RECONSTRUCTION_TOL:
                raise ArithmeticError(f"eigendecomposition reconstruction error {err:.3e}")
        pairs.append((w, v))
    return pairs


class StepEngine:
    """Precomputed sector-blocked arrays for repeated steps at one fixed dt.

    The Hamiltonian and states are packed vectors of the basis's ``sectors``,
    and ``_unitary_blocks`` builds U block by block, once.  Every jump must be
    monomial (one nonzero per row and column) and send each block into a
    single block, so sum(L^dag L) is diagonal: the anticommutator and the
    diagonal (dephasing) jumps fold into one packed weight, and each other
    jump is a (destination, source, coefficient) map over packed coordinates.
    The unitary part of a 1 x 1 block, u rho conj(u) = |u|**2 rho, folds into
    the weight too; ``unitary`` holds (packed span, U, U^dag) for each group
    of larger blocks, U and U^dag as (count, size, size) stacks.
    """

    def __init__(self, hamiltonian: Operator, terms: Sequence[LindbladTerm], dt: float) -> None:
        self.dt = _checked_dt(dt)
        sectors = self.sectors = hamiltonian.basis.sectors
        unitary = _unitary_blocks(hamiltonian, self.dt)
        self.weight, self.transfers = _dissipator(sectors, terms, self.dt)
        self.unitary: list[tuple[slice, np.ndarray, np.ndarray]] = []
        for (size, span), u in zip(sectors.groups, unitary):
            if size == 1:  # |u|**2 as Re(u conj(u)): abs(u)**2 rounds twice more
                self.weight[span] += (u * u.conj()).real.reshape(-1)
            else:
                self.unitary.append((span, u, u.conj().swapaxes(-1, -2).copy()))

    def step(self, rho: np.ndarray) -> np.ndarray:
        """One step of a packed state, as a fresh vector.

        ``unitary_map`` and ``jump_map`` write the same terms as matrices.
        """
        out = rho * self.weight
        for span, u, u_dag in self.unitary:
            size = u.shape[-1]
            out[span] += (u @ rho[span].reshape(-1, size, size) @ u_dag).reshape(-1)
        for destination, source, coefficient in self.transfers:
            out[destination] += coefficient * rho[source]
        return out


def _checked_dt(dt: float) -> float:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return float(dt)


def _unitary_blocks(hamiltonian: Operator, dt: float) -> list[np.ndarray]:
    """U = exp(-i*H*dt) packed, as one (count, size, size) stack per block size.

    U = V diag(exp(-i*lambda*dt)) V^dag of each group of ``diagonalize``.
    It raises ArithmeticError if a group is not unitary to UNITARITY_TOL (a
    NaN included).
    """
    groups = []
    for eigenvalues, v in diagonalize(hamiltonian):
        phases = np.exp(-1j * eigenvalues * float(dt))[..., None, :]
        unitary = (v * phases) @ v.conj().swapaxes(-1, -2)
        defect = np.abs(unitary @ unitary.conj().swapaxes(-1, -2) - np.eye(v.shape[-1])).max()
        if not defect <= UNITARITY_TOL:
            raise ArithmeticError(f"propagator not unitary: defect {defect:.3e}")
        groups.append(unitary)
    return groups


Transfer = tuple[np.ndarray, np.ndarray, np.ndarray]


def _dissipator(
    sectors: Sectors, terms: Sequence[LindbladTerm], dt: float
) -> tuple[np.ndarray, list[Transfer]]:
    """(weight, transfers): dt times the terms' dissipator on packed states.

    Every jump must be monomial and send each block into a single block
    (``_monomial_map``), so sum(L^dag L) is diagonal: the anticommutator and
    the diagonal (dephasing) jumps fold into the packed weight, and each
    other jump's L rho L^dag is a (destination, source, coefficient) map
    over packed coordinates.
    """
    rows, cols = sectors.rows, sectors.cols
    rates = np.zeros(sectors.dim)  # diagonal of sum(L^dag L)
    gained = np.zeros(rows.shape, dtype=complex)  # diagonal jumps, in-block pairs
    transfers: list[Transfer] = []
    for term in terms:
        sources, targets = _monomial_map(sectors, term)
        amplitude = np.zeros(sectors.dim, dtype=complex)
        amplitude[sources] = term.operator.amplitudes
        rates += np.abs(amplitude) ** 2
        if np.array_equal(sources, targets):
            gained += amplitude[rows] * amplitude[cols].conj()
            continue
        target = np.full(sectors.dim, -1)
        target[sources] = targets
        kept = (target[rows] >= 0) & (target[cols] >= 0)
        transfers.append((
            sectors.index(target[rows[kept]], target[cols[kept]]),
            np.flatnonzero(kept),
            dt * amplitude[rows[kept]] * amplitude[cols[kept]].conj(),
        ))
    return dt * (gained - 0.5 * (rates[rows] + rates[cols])), transfers


def _monomial_map(sectors: Sectors, term: LindbladTerm) -> tuple[np.ndarray, np.ndarray]:
    """(source states, target states) of a jump's column map, checked block to block."""
    sources, targets = term.operator.sources, term.operator.targets
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
    _checked_dt(dt)
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be >= 0 and finite, got {t_end}")
    return max(0, math.ceil(t_end / dt - 1e-9))


@dataclass
class TrajectoryRecord:
    """Sampled observables of one evolution run.

    photon and exciton are (n_samples, n_sites) population arrays in site
    order; positivity_flags (1 where a sampled state's smallest eigenvalue
    lies below POSITIVITY_FLOOR) and hermiticity are validation columns
    sampled at the same instants, and min_eigenvalue_seen is the smallest
    eigenvalue over all samples.  Flags and minimum are exact, though a
    sample that ``SampleReader``'s screen clears has no eigenvalue of its
    own.  final_state is the end-of-run density matrix as the packed vector
    of sectors, the (N, sink) blocks of the run's basis; ``sectors.unpack``
    gives its dense d x d matrix.
    """

    times: np.ndarray
    sink: np.ndarray
    photon: np.ndarray
    exciton: np.ndarray
    trace: np.ndarray
    positivity_flags: np.ndarray
    min_eigenvalue_seen: float
    hermiticity: np.ndarray
    final_state: np.ndarray
    sectors: Sectors

    def __post_init__(self) -> None:
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def n_sites(self) -> int:
        return self.photon.shape[1]

    @property
    def max_trace_drift(self) -> float:
        return float(np.abs(self.trace - 1.0).max())


def iter_steps(
    chain: AssembledChain, dt: float, n_steps: int, every: int = 1
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Yield (steps, states): the states at steps 0, every, 2 every, ... and n_steps, in blocks.

    The one step loop, which diagonalizes the Hamiltonian of the chain it
    steps; trajectories and stepped sweep cells read its blocks.  states
    holds the packed states of the listed steps, one row each, up to
    CHUNK_STEPS rows or as many as fit in BLOCK_BYTES; it is a view of one
    array that every block overwrites.
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    engine = StepEngine(chain.hamiltonian, chain.lindblad_terms, dt)
    rho = chain.initial
    rows = max(1, min(CHUNK_STEPS, BLOCK_BYTES // rho.nbytes))
    block = np.empty((rows, len(rho)), dtype=complex)
    sampled, step = range(0, n_steps + every, every), 0  # its last, at or past n_steps, is n_steps
    for head in range(0, len(sampled), rows):
        steps = [min(i, n_steps) for i in sampled[head : head + rows]]
        for row, i in enumerate(steps):
            for step in range(step + 1, i + 1):  # up to the state at step i
                rho = engine.step(rho)
            block[row] = rho
        yield steps, block[: len(steps)]


def sink_column(basis: ProjectedBasis) -> np.ndarray:
    """Sink occupation of every basis state, as weights over the populations."""
    layout = basis.layout
    return basis.occupations[:, layout.index(ModeKind.SINK, layout.n_sites)].astype(float)


def _readout(
    sectors: Sectors, weights: Sequence[np.ndarray], states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, values) of packed states: each one's diagonal, and one row of values.

    A row holds the state's populations times each of the weights, the
    ``sink_column`` first, then its trace.  It is the readout of every
    stepped state, a sweep cell's and a trajectory sample's: each row is its
    own vector products and sum, so no value depends on the other rows.
    """
    diagonal = np.take(states, sectors.diagonal, axis=1)
    populations = diagonal.real
    columns = [(populations[:, None, :] @ weight)[:, 0] for weight in weights]
    return diagonal, np.column_stack([*columns, populations.sum(axis=1)])


def unitary_map(hamiltonian: Operator, dt: float) -> np.ndarray:
    """S_H, the unitary half of the step, as a real M x M matrix on Hermitian coordinates.

    Each block's packed coordinates are one contiguous range, its size**2
    entries in row-major order, on which u rho u^dag acts as U_b kron
    conj(U_b); a 1 x 1 block's is |u|**2 on the diagonal.  ``_real_map``
    takes the real matrix from this complex one.
    """
    sectors = hamiltonian.basis.sectors
    m = len(sectors.rows)
    step = np.zeros((m, m), dtype=complex)
    diagonal = step.reshape(-1)[:: m + 1]
    for (size, span), group in zip(sectors.groups, _unitary_blocks(hamiltonian, dt)):
        if size == 1:  # as StepEngine folds it into its weight
            diagonal[span] = (group * group.conj()).real.reshape(-1)
            continue
        start = span.start
        for u in group:
            stop = start + u.size
            step[start:stop, start:stop] = np.kron(u, u.conj())
            start = stop
    return _real_map(step, sectors)


def jump_map(sectors: Sectors, terms: Sequence[LindbladTerm], dt: float) -> np.ndarray:
    """dt times the terms' dissipator as a real M x M matrix on Hermitian coordinates.

    The packed weight of ``_dissipator`` on the diagonal and each transfer's
    coefficients at its (destination, source) pairs, then ``_real_map``.
    With ``unitary_map``, these are the terms of ``StepEngine.step``: the
    step map of a chain is ``unitary_map`` plus ``jump_map`` of its terms.
    """
    weight, transfers = _dissipator(sectors, terms, dt)
    m = len(weight)
    step = np.zeros((m, m), dtype=complex)
    step.reshape(-1)[:: m + 1] = weight
    for destination, source, coefficient in transfers:
        step[destination, source] += coefficient  # a monomial jump's pairs are distinct
    return _real_map(step, sectors)


def _hermitian_coordinates(sectors: Sectors, packed: np.ndarray) -> np.ndarray:
    """The M real coordinates of a Hermitian packed state.

    Re rho_rc on the coordinates with r <= c, and Im rho_rc in the slot of
    its transpose (c, r); ``_packed_state`` is the inverse.
    """
    upper, lower = sectors.pairs
    real = packed.real.copy()
    real[lower] = packed.imag[upper]
    return real


def _packed_state(sectors: Sectors, real: np.ndarray) -> np.ndarray:
    """The Hermitian packed state of its real coordinates, or of each of a stack of them."""
    upper, lower = sectors.pairs
    packed = real.astype(complex)
    packed[..., upper] += 1j * real[..., lower]
    packed[..., lower] = packed[..., upper].conj()
    return packed


def _real_map(step: np.ndarray, sectors: Sectors) -> np.ndarray:
    """The real matrix on Hermitian coordinates of a complex map S on packed ones.

    With rho = T x the packed state of coordinates x, this is T^-1 S T.
    Columns: the coordinates (u, l) of a pair, (r, c) and (c, r) with r < c,
    take S_u + S_l and i (S_u - S_l).  Rows: the real part of each row with
    r <= c, and the imaginary part of row (r, c) in the slot (c, r).  That
    drops the imaginary part of the diagonal rows and row (c, r) - conj(row
    (r, c)), which vanish for a map that keeps every state Hermitian; if
    either exceeds HERMITIAN_TOL times the largest |S|, ArithmeticError.
    S is overwritten.
    """
    upper, lower = sectors.pairs
    scale = max(1.0, float(np.abs(step).max(initial=0.0)))
    high, low = step[:, upper], step[:, lower]
    step[:, upper] = high + low
    high -= low
    high *= 1j
    step[:, lower] = high
    del high, low
    high, low = step[upper], step[lower]
    low -= high.conj()
    defect = max(
        float(np.abs(low).max(initial=0.0)),
        float(np.abs(step[sectors.diagonal].imag).max(initial=0.0)),
    )
    if not defect <= HERMITIAN_TOL * scale:
        raise ArithmeticError(
            f"step map does not keep states Hermitian: defect {defect:.3e} "
            f"against a largest |entry| of {scale:.3e}"
        )
    real = step.real.copy()
    real[lower] = high.imag
    return real


# ``iter_steps`` yields at most CHUNK_STEPS stepped states per block, and a
# chunked sweep cell reads at least that many steps per product.
CHUNK_STEPS = 32
# Bytes of one block of stepped states, which caps its rows: a pumped
# four-site chain (M = 25 740, 412 kB a state) keeps CHUNK_STEPS rows, 13 MB,
# and a pumped five-site one (M = 369 512, 5.9 MB a state) takes 2, where
# CHUNK_STEPS rows would hold 189 MB.  Each row is read on its own, so no
# value, flag or minimum depends on the number of rows.
BLOCK_BYTES = 16_000_000
# Fixed cost of one numpy product or step call from Python (dispatch,
# temporaries, the loop around it), in complex multiply-adds.  A blocked
# step at dim 6 counts 384 of them yet takes about 15 us, the time of some
# 150 000 in a large zgemm; 100 000 puts the rule's crossover within about
# 2x of the measured one on the chains of the sweep benchmarks and of the
# acceptance tests (timed on a 2-core Xeon VM).
STEP_OVERHEAD_MACS = 100_000

# Bytes of the work arrays of one stack of chunked cells (``stack_shape``).
# Stacking shares each product's fixed overhead among the cells, which pays
# while the stack's arrays stay in one core's cache.  Measured on a 2-core
# Xeon VM (2 MiB of L2 per core), in-process sweeps of dat's 1 640-cell
# grid at M = 18 took 71-77 us per cell for stacks of 0.47 to 1.68 MB
# (B = 10 to 60) and 77, 85 and 97 us at 2.1, 3.2 and 4.2 MB.  1.5 MB sits
# inside that flat range.  At M = 140 it keeps one cell, 1.03 MB, per
# stack: a bottleneck row ran two to a stack (2.04 MB) 1% slower per cell
# in one session and 7% faster in another, and four to a stack slower in
# both.
STACK_BYTES = 1_500_000

# (first step, values, state) items, each for the cells of one stack still
# running: values is a (B, n, 2) array holding each cell's sink population
# and trace at steps first .. first + n - 1, one block of ``iter_steps`` on
# the stepped route and a block of chunks of steps on the chunked one, and
# state(rows, steps) builds the packed states of the cells at those rows of
# the stack, each at its own step of the item yielded last, only when
# called; it raises ValueError for any other step.  values may be a view
# that the next item overwrites.  Sending the generator a boolean mask over
# the rows keeps only the cells it marks for the items after.
CellSteps = Generator[
    tuple[int, np.ndarray, Callable[[Sequence[int], Sequence[int]], np.ndarray]],
    np.ndarray | None,
    None,
]


def stack_shape(m: int, n_steps: int, n_cells: int) -> tuple[int, int, int]:
    """(B, K, J) of a sweep's n_cells chunked cells on M packed coordinates.

    Cells run in stacks of B, each cell in chunks of K steps per product,
    and J chunk products per block, which is read in one pass (a cell that
    stops at a crossing may have run up to J - 1 products past it).  For a
    stack of b cells, K starts at CHUNK_STEPS and doubles while one more
    doubling, a squaring of each step map (M**3 real multiply-adds) and a
    doubling of its 2K readout rows (2K M**2), costs no more than the fixed
    overhead of one product, STEP_OVERHEAD_MACS, which the stack shares, and
    while the 2K steps fit in n_steps; J starts at 1 and doubles while a
    block of 2J products, (2K + M) x M real multiply-adds per cell, costs no
    more than that overhead.  As in ``cell_route``, a real multiply-add
    counts as a quarter of a complex one.  B is the largest b, at least one
    and at most n_cells, whose work arrays at its K and J fit in
    STACK_BYTES; a cell's arrays are smallest at K = CHUNK_STEPS and J = 1,
    which bounds B from above.
    """

    def chunks(b: int) -> tuple[int, int]:
        k = CHUNK_STEPS
        while 2 * k <= n_steps and b * (m**3 + 2 * k * m * m) / 4 <= STEP_OVERHEAD_MACS:
            k *= 2
        j = 1
        while b * 2 * j * (2 * k + m) * m / 4 <= STEP_OVERHEAD_MACS:
            j *= 2
        return k, j

    def cell_bytes(k: int, j: int) -> int:
        # S to S^(K/2), the chunk stack with S^K, and the block with its start row
        return 8 * ((k.bit_length() - 1) * m * m + (2 * k + m) * m + (j + 1) * (2 * k + m))

    b = max(1, min(n_cells, STACK_BYTES // cell_bytes(CHUNK_STEPS, 1)))
    while b > 1 and b * cell_bytes(*chunks(b)) > STACK_BYTES:
        b -= 1
    return (b, *chunks(b))


def cell_route(sizes: tuple[int, ...], n_steps: int) -> str:
    """``"chunked"`` or ``"stepped"``: the cheaper route for n_steps on these sectors.

    Costs are counted in complex multiply-adds from the sector sizes alone,
    a real multiply-add as a quarter of one, so the rule runs before S is
    allocated, and every product, step or per-block call adds
    STEP_OVERHEAD_MACS.  A blocked step is two matmuls per block of size 2 or
    more, 2 sum(size**3); 1 x 1 blocks are in its weight.  The chunked route
    writes S (sum of size**4 unitary entries, M weights and the transfer
    entries, at most M per jump; the rule sees no jumps and counts them as
    one M) and changes its coordinates (M**2).  The rest is real, with the
    K of a lone cell (``stack_shape``): log2 K squarings (M**3 each), the
    2K readout rows from one product and log2 K doublings (2K M**2 in all),
    one (2K + M) x M product per chunk, and the stopping state rebuilt by
    at most log2 K products with powers of S (M**2 each).  That prices a cell
    that builds its own S, as the first chunked cell of a sweep does; later
    cells only sum the halves of ``StepMaps``, so the rule errs toward
    stepping.
    """
    m = sum(b * b for b in sizes)
    blocks = [b for b in sizes if b > 1]
    step = 2 * sum(b**3 for b in blocks)
    _, k, _ = stack_shape(m, n_steps, 1)
    squarings = k.bit_length() - 1
    chunks = -(-n_steps // k)
    real = (
        squarings * m**3 + 2 * k * m * m + chunks * (2 * k + m) * m + squarings * m * m
    )
    chunked = (
        sum(b**4 for b in blocks) + 2 * m + m * m + real / 4
        + (len(blocks) + 3 + 3 * squarings + chunks) * STEP_OVERHEAD_MACS
    )
    return "chunked" if chunked < n_steps * (step + STEP_OVERHEAD_MACS) else "stepped"


def stepped_cell_steps(chain: AssembledChain, dt: float, n_steps: int) -> CellSteps:
    """Sink and trace at steps 0..n_steps through ``iter_steps``, as a stack of one.

    Each item is one block of ``iter_steps``, read by ``_readout``, so each
    value is bit for bit the one that ``evolve`` samples at its step.
    """
    sectors, weights = chain.basis.sectors, [sink_column(chain.basis)]

    def state(rows: Sequence[int], steps: Sequence[int]) -> np.ndarray:
        _check_in_item(steps, first, last)
        return states[np.subtract(steps, first)]

    for steps, states in iter_steps(chain, dt, n_steps):
        first, last = steps[0], steps[-1]
        yield first, _readout(sectors, weights, states)[1][None], state


def _check_in_item(steps: Sequence[int], first: int, last: int) -> None:
    """ValueError for the first of the steps outside first..last, the item yielded last."""
    for i in steps:
        if not first <= i <= last:
            held = f"the item yielded last holds steps {first}..{last}"
            raise ValueError(f"no state at step {i}: {held}")


class StepMaps:
    """The step maps of a sweep's chunked cells, S = S_H + sum_f rate_f**2 D_f.

    Every jump is L = rate * A, so a cell's step is affine in its squared
    rates.  The cells of a sweep share their basis, initial state and dt and
    differ only in swept config values, so what does not depend on those
    values is built once, at the first chunked cell: the sink and trace
    readout rows, the initial state's Hermitian coordinates, and for each
    rate field f (``LindbladTerm.rate``), D_f, the ``jump_map`` of the
    field's terms at unit rate.  Those are the ``unit_terms`` of ``widest``,
    a cell that sets positive every rate that any cell does (the last cell
    of a grid, whose axes increase).  S_H, the ``unitary_map`` of a cell's
    Hamiltonian (``model.hamiltonian``), is built at the first
    ``step_map``, kept for the cells after it and rebuilt only when a
    cell's Hamiltonian inputs, its config fields other than the rate
    fields, change.  Each half passes its checks when it is
    built: those of ``_unitary_blocks`` (``diagonalize``'s among them), of
    ``_monomial_map`` and of ``_real_map``.

    The sweep's n_cells cells run n_steps steps each, in stacks of B at K
    steps per chunk and J chunks per block, ``shape`` = (B, K, J) of
    ``stack_shape``.  The work arrays of ``chunked_cell_steps`` are
    allocated here once, at B rows, and each stack writes its cells into
    their first rows: ``buffers`` holds maps, each cell's S (written by
    ``step_map``), chunk, each cell's (2K + M) x M stack of readout rows
    over S^K, squares, the log2 K - 1 powers S^2 .. S^(K/2) of every cell,
    one (B, M, M) stack per power, and block, each cell's coordinates at
    the block's first step, in the last M entries of its row 0, and the
    rows of its J chunk products after it.
    """

    def __init__(
        self, chain: AssembledChain, widest: ChainConfig, dt: float, n_steps: int, n_cells: int
    ) -> None:
        """``chain`` is assembled from ``widest``."""
        self.dt = _checked_dt(dt)
        self.n_steps = n_steps
        basis = chain.basis
        sectors = self.sectors = basis.sectors
        m = len(sectors.rows)
        self.readout = np.zeros((2, m))
        self.readout[0, sectors.diagonal] = sink_column(basis)
        self.readout[1, sectors.diagonal] = 1.0
        self.start = _hermitian_coordinates(sectors, chain.initial)
        terms = unit_terms(widest, basis)
        self.rates = list(dict.fromkeys(term.rate for term in terms))
        self.jumps = np.empty((len(self.rates), m * m))  # D_f, one flat row per field
        for row, field in zip(self.jumps, self.rates):
            field_terms = [term for term in terms if term.rate == field]
            row[:] = jump_map(sectors, field_terms, self.dt).reshape(-1)
        self._inputs = [name for name in FIELD_KINDS if name not in self.rates]
        self._basis = basis
        self._key: tuple | None = None  # of the cell whose S_H is held
        self._unitary: np.ndarray | None = None
        b, k, j = self.shape = stack_shape(m, n_steps, n_cells)
        shapes = (b, m, m), (b, 2 * k + m, m), (k.bit_length() - 2, b, m, m), (b, j + 1, 2 * k + m)
        self.buffers = tuple(_aligned_empty(shape) for shape in shapes)
        self._stack: object | None = None  # the token of the stack the buffers serve

    def step_map(self, config: ChainConfig, out: np.ndarray) -> np.ndarray:
        """S of one cell, a real M x M matrix summed into out."""
        key = tuple(getattr(config, name) for name in self._inputs)
        if key != self._key:
            self._key = key
            self._unitary = unitary_map(hamiltonian(config, self._basis), self.dt)
        squares = np.array([getattr(config, field) for field in self.rates]) ** 2
        np.matmul(squares, self.jumps, out=out.reshape(-1))
        out += self._unitary
        return out


# Alignment of the work arrays of a stack, a cache line.  numpy's allocations
# are aligned to 16 bytes only, and the bottleneck benchmark ran 32.0 and
# 32.4 ms on 16-byte-aligned arrays against 29.3 to 30.5 ms on arrays aligned
# to 32, 64, 128 or 4 096 bytes (2-core Xeon VM, OpenBLAS 0.3.31).
BUFFER_ALIGN = 64


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float array whose data start on a BUFFER_ALIGN boundary."""
    size = math.prod(shape)
    raw = np.empty(size + BUFFER_ALIGN // 8)
    start = -raw.ctypes.data % BUFFER_ALIGN // 8
    return raw[start : start + size].reshape(shape)


def chunked_cell_steps(maps: StepMaps, configs: Sequence[ChainConfig]) -> CellSteps:
    """Sink and trace at steps 0..n_steps of a stack of cells, J chunks of K steps per item.

    n_steps and (B, K, J) are those of ``maps``, and the stack holds at most
    B cells (ValueError otherwise).  Each cell's state runs in
    Hermitian coordinates, where its step map S (``StepMaps.step_map``) is
    real; the readout rows R and the initial state come from ``maps``.  One
    product of the stacked rows R S^1 .. R S^K and S^K with the state at a
    chunk's start gives every value inside the chunk and the state at the
    next start.  The rows come by doubling alongside the squarings: with
    R S^1 .. R S^n stacked, one product with S^n appends R S^(n+1) ..
    R S^2n.  Every product runs once for the whole stack, a (B, ., M)
    stacked matmul, whose per-cell products are those of a stack of one.
    A block runs its J products back to back into the rows of one array,
    and is yielded as one item of J K steps, trimmed to n_steps; step 0
    comes as its own one-step item.  Its reader turns numpy's overflow
    warnings off while it reads the items.  A mask sent back keeps only the
    cells it marks: the others leave the stack, and the later products run
    without them.  Every array is a buffer of ``maps``, or a view of its
    first rows for a stack of fewer than B cells, written in place.
    States are rebuilt only when asked for, each from its chunk's start by
    the powers S^(2^j) of the binary digits of its offset, at most log2 K
    stacked products, and returned as packed states.  Each must lie in the
    item yielded last, and the stack must still hold the buffers of
    ``maps``: ``state`` raises ValueError otherwise, and the generator
    RuntimeError if another stack took the buffers before it ended.
    """
    sectors, readout, n_steps = maps.sectors, maps.readout, maps.n_steps
    m = len(maps.start)
    cells = len(configs)
    b, k, _ = maps.shape
    if cells > b:
        raise ValueError(f"a stack of {cells} cells on step maps for stacks of {b}")
    token = maps._stack = object()
    step_maps, chunk, squares, block = maps.buffers
    step_maps, chunk, block = step_maps[:cells], chunk[:cells], block[:cells]
    squares = squares[:, :cells]
    for config, step in zip(configs, step_maps):
        maps.step_map(config, out=step)
    # R S^1 .. R S^K, two rows per step, over S^K, for every cell
    np.matmul(readout, step_maps, out=chunk[:, :2])
    powers = [step_maps, *squares, chunk[:, 2 * k :]]  # S^(2^j) for j = 0 .. log2 K
    n = 1
    for power, square in zip(powers, powers[1:]):  # chunk holds R S^1 .. R S^n
        np.matmul(chunk[:, : 2 * n], power, out=chunk[:, 2 * n : 4 * n])
        np.matmul(power, power, out=square)
        n *= 2

    def state(rows: Sequence[int], steps: Sequence[int]) -> np.ndarray:
        rows, steps = [int(r) for r in rows], [int(i) for i in steps]
        if maps._stack is not token:
            raise ValueError(
                f"no state at step {steps[0]}: another cell holds the step map's buffers"
            )
        _check_in_item(steps, first, last)
        if last == 0:
            return _packed_state(sectors, maps.start[None].repeat(len(rows), axis=0))
        groups = {}  # the rows at each step of the block
        for n, i in enumerate(steps):
            groups.setdefault(i - first, []).append(n)
        real = np.empty((len(rows), m)) if len(groups) > 1 else None
        for into, group in groups.items():
            members = [rows[n] for n in group]
            if members == list(range(members[0], members[0] + len(members))):
                members = slice(members[0], members[0] + len(members))  # views, not copies
            row, past = divmod(into, k)  # its chunk, and 1 .. K steps past its start
            x = block[members, row, 2 * k :, None]
            for j, square in enumerate(powers):
                if past + 1 >> j & 1:
                    x = square[members] @ x
            if real is None:
                real = x[..., 0]
            else:
                real[group] = x[..., 0]
        return _packed_state(sectors, real)

    first = last = 0
    block[:cells, 0, 2 * k :] = maps.start
    values = (readout @ maps.start)[None, None].repeat(cells, axis=0)
    chunks = -(-n_steps // k)
    heads = iter(range(0, chunks, block.shape[1] - 1))
    rows = None
    while True:
        keep = yield first, values, state
        if maps._stack is not token:
            raise RuntimeError("another cell took the step map's buffers")
        if keep is not None:  # the cells kept move to the front of every buffer
            kept = np.flatnonzero(keep)
            cells = len(kept)
            for array in (step_maps, chunk, block, *squares):
                array[:cells] = array[kept]
            rows = None
        head = next(heads, None)
        if head is None:
            return
        if rows is None:
            # row r + 1 of the block holds the product with the state that row
            # r ends in, row 0's the state at the block's start
            products = chunk[:cells]
            rows = [(r[..., None], r[:, 2 * k :, None]) for r in block[:cells].swapaxes(0, 1)]
        count = min(len(rows) - 1, chunks - head)
        if head:
            rows[0][1][:] = rows[-1][1]  # the state the last block ended in
        for (_, real), (out, _) in zip(rows, rows[1 : count + 1]):
            np.matmul(products, real, out=out)
        first = head * k + 1
        last = min((head + count) * k, n_steps)
        values = block[:cells, 1 : count + 1, : 2 * k].reshape(cells, -1, 2)
        values = values[:, : last - first + 1]


CELL_ROUTES = ("chunked", "stepped")


def cell_stacks(
    configs: Sequence[ChainConfig], n_steps: int, dt: float
) -> tuple[str, Sectors, Iterator[CellSteps]]:
    """(route, sectors, stacks): sweep cells of n_steps each, as stacks in grid order.

    The cells share their basis, so the route, which depends on the sector
    sizes and the step count alone (``cell_route``), is the same for all.
    It is read off the chain of the last cell, whose rates are the largest
    (a grid's axes increase).  Stepped cells each assemble their own chain
    and run as stacks of one.  Chunked cells run in stacks of B cells in
    grid order, the last stack holding what remains, and sum their step
    maps from one ``StepMaps``, built from the last cell's chain and sized
    (``stack_shape``) for the sweep.
    """
    last = assemble(configs[-1])
    sectors = last.basis.sectors
    route = cell_route(sectors.sizes, n_steps)
    if route == "stepped":
        stacks = (stepped_cell_steps(assemble(config), dt, n_steps) for config in configs)
    else:
        maps = StepMaps(last, configs[-1], dt, n_steps, len(configs))
        b = maps.shape[0]
        heads = range(0, len(configs), b)
        stacks = (chunked_cell_steps(maps, configs[head : head + b]) for head in heads)
    return route, sectors, stacks


class SampleReader:
    """Diagnostics of sampled states, read a block of ``iter_steps`` at a time in one pass.

    * ``_readout``, the readout of a stepped sweep cell, gives the sink,
      photon and exciton columns and the trace, so no value depends on the
      block it is read in.
    * Each state's Hermiticity defect is the largest of max |a_rc -
      conj(a_cr)| over the off-diagonal pairs and 2 |Im a_ii| over the
      diagonal, one pass over the block each.
    * Positivity is screened.  With ``seen`` the exact minimum eigenvalue
      of the states read before, every sector block of every state less
      c*I, where c = max(seen, POSITIVITY_FLOOR) + SCREEN_MARGIN, goes
      through a batched Cholesky factorization per block size (1 x 1
      blocks are compared with c directly).  The blocks of a size whose
      factorization succeeds lie above c in every state, so they can
      neither flag a state nor lower ``seen``; only the sizes that fail
      take exact smallest eigenvalues, and a read where none fails takes
      none.  The first read takes them for every block
      (``Sectors.min_eigenvalue``).
    """

    def __init__(self, basis: ProjectedBasis) -> None:
        self.sectors = basis.sectors
        layout = basis.layout
        self.weights = [sink_column(basis)] + [
            basis.occupations[:, list(layout.indices(kind))].astype(float)
            for kind in (ModeKind.PHOTON, ModeKind.EXCITON)
        ]
        self.seen = math.inf  # the exact minimum eigenvalue of every state read

    def read(self, steps: Sequence[int], states: np.ndarray) -> tuple[np.ndarray, ...]:
        """(values, hermiticity, flags) of the packed states at these steps, one row each.

        values holds the sink, photon, exciton and trace columns.  The first
        state that fails ``first_failure``, given the defects too (which see,
        with the trace, every element), raises ArithmeticError before the screen.
        """
        diagonal, values = _readout(self.sectors, self.weights, states)
        upper, lower = self.sectors.pairs
        pairs = np.abs(states[:, upper] - states[:, lower].conj()).max(axis=1, initial=0.0)
        hermiticity = np.maximum(pairs, 2 * np.abs(diagonal.imag).max(axis=1))
        failure = first_failure(steps, values[:, 0], values[:, -1], hermiticity)
        if failure is not None:
            raise ArithmeticError(failure)
        views = self.sectors.blocks(states)
        if self.seen < math.inf:
            views = self._screen(views, max(self.seen, POSITIVITY_FLOOR) + SCREEN_MARGIN)
            if not views:
                return values, hermiticity, np.zeros(len(steps), dtype=np.int64)
        lowest = lowest_eigenvalue(views)
        self.seen = min(self.seen, float(lowest.min()))
        return values, hermiticity, (lowest < POSITIVITY_FLOOR).astype(np.int64)

    @staticmethod
    def _screen(views: list[np.ndarray], shift: float) -> list[np.ndarray]:
        """The stacks of blocks, one per size, in which some block less shift * I
        is not positive definite."""
        failed = []
        for blocks in views:
            size = blocks.shape[-1]
            if size == 1:  # the eigenvalue of a 1 x 1 block is its real part
                if not (blocks.real > shift).all():
                    failed.append(blocks)
                continue
            try:
                np.linalg.cholesky(blocks - shift * np.eye(size))
            except np.linalg.LinAlgError:
                failed.append(blocks)
        return failed


def evolve_assembled(
    chain: AssembledChain, t_end: float, dt: float, sample_every: int = 1
) -> TrajectoryRecord:
    """Run the step loop on a prebuilt chain, sampling every few steps.

    Steps 0, sample_every, 2 sample_every, ... and the last step are
    sampled.  ``iter_steps`` yields their states in blocks, and
    ``SampleReader`` reads each block in one pass.
    """
    try:
        sample_every = operator.index(sample_every)
    except TypeError:
        raise ValueError(f"sample_every must be an integer, got {sample_every!r}") from None
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    basis = chain.basis
    reader = SampleReader(basis)
    times, reads = [], []
    with _quiet_overflow():
        for steps, states in iter_steps(chain, dt, step_count(t_end, dt), sample_every):
            times += [i * dt for i in steps]
            reads.append(reader.read(steps, states))

    values, hermiticity, flags = (np.concatenate(column) for column in zip(*reads))
    n = basis.layout.n_sites
    return TrajectoryRecord(
        times=np.array(times),
        sink=values[:, 0],
        photon=values[:, 1 : n + 1],
        exciton=values[:, n + 1 : 2 * n + 1],
        trace=values[:, -1],
        positivity_flags=flags,
        min_eigenvalue_seen=reader.seen,
        hermiticity=hermiticity,
        final_state=states[-1].copy(),  # not a view that keeps the block alive
        sectors=basis.sectors,
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
    unpack = chain.basis.sectors.unpack
    h = unpack(chain.hamiltonian.elements)
    liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for term in chain.lindblad_terms:
        jump = term.operator.dense()
        absorbed = jump.conj().T @ jump
        liouvillian += np.kron(jump, jump.conj()) - 0.5 * (
            np.kron(absorbed, eye) + np.kron(eye, absorbed.T)
        )
    propagated = _expm_taylor(liouvillian * t) @ unpack(chain.initial).reshape(-1)
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
