"""Occupation-number bases for chains of quantum modes, truncated by quanta caps.

A chain is an ordered list of modes (photon and exciton per site, optionally a
phonon per site, one sink at the end).  Photon, exciton and sink modes are
two-level.  The basis keeps only those occupation vectors whose excitation
count -- photons + excitons + sink, the number conserved by the chain
Hamiltonian -- is at most ``max_quanta``; phonon occupations are capped
separately, at ``phonon_cap``, because phonon number is not conserved.
Every coupling and jump of the chain moves one excitation, so one builder,
``transfer_op``, makes them all directly in the projected basis: moving out
of the kept set projects to zero rather than erroring.  Each is monomial, so
it is kept as a ``ColumnMap``, its nonzero columns' (source, target,
amplitude); only ``ColumnMap.dense`` writes one as a d x d array.

The Hamiltonian keeps the excitation count N and the sink occupation, and
each jump moves a whole (N, sink) block into one other block (the pump
raises N, loss lowers it, the drain fills the sink), so
``ProjectedBasis.sectors`` groups the basis into these blocks and a state is
stored as the packed elements of its blocks.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-12
# largest off-sector element a matrix may carry and still be packed
SECTOR_LEAK_TOL = 1e-12


class ModeKind(Enum):
    PHOTON = "photon"
    EXCITON = "exciton"
    PHONON = "phonon"
    SINK = "sink"


# Modes whose occupation counts toward the conserved excitation number.
COUNTED_KINDS = (ModeKind.PHOTON, ModeKind.EXCITON, ModeKind.SINK)


@dataclass(frozen=True)
class ModeSpec:
    """One mode of the chain: what it is and which site it sits on."""

    kind: ModeKind
    site: int


@dataclass(frozen=True)
class ModeLayout:
    """Ordered mode list: (photon_i, exciton_i[, phonon_i]) per site, sink last."""

    n_sites: int
    phonons: bool = False
    modes: tuple[ModeSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"need at least one site, got {self.n_sites}")
        kinds = (ModeKind.PHOTON, ModeKind.EXCITON)
        if self.phonons:
            kinds += (ModeKind.PHONON,)
        modes = [ModeSpec(k, site) for site in range(1, self.n_sites + 1) for k in kinds]
        modes.append(ModeSpec(ModeKind.SINK, self.n_sites))
        object.__setattr__(self, "modes", tuple(modes))

    def index(self, kind: ModeKind, site: int) -> int:
        """Dense position of the (kind, site) mode."""
        for i, m in enumerate(self.modes):
            if m.kind is kind and m.site == site:
                return i
        raise KeyError(f"no {kind.value} mode at site {site}")

    def indices(self, kind: ModeKind) -> tuple[int, ...]:
        """All mode positions of the given kind, in site order."""
        return tuple(i for i, m in enumerate(self.modes) if m.kind is kind)


class ProjectedBasis:
    """Enumerated occupation vectors surviving the quanta caps.

    States are kept in lexicographic order over occupation vectors so that
    basis construction, and every matrix built on top of it, is reproducible
    bit for bit.  ``index_of`` maps each state's integer key (``keys``,
    below) to its index, the lookup that ``transfer_op`` makes once per
    state and ``state_index`` once per call.
    """

    def __init__(self, layout: ModeLayout, states: list[tuple[int, ...]]) -> None:
        self.layout = layout
        self.states: tuple[tuple[int, ...], ...] = tuple(states)
        self.occupations = np.array(self.states, dtype=np.int64)
        # Each state is also one integer key whose digits are its occupations,
        # each mode's place value the product of (largest occupation + 2) over
        # the modes before it.  A move shifts the key by place values: a
        # quantum more in a mode is still a digit of its own, and a quantum
        # less in an empty mode borrows, leaving that digit at its largest
        # occupation + 1, so a target outside the basis matches no key.
        radix = (self.occupations.max(axis=0, initial=0) + 2).tolist()
        *place, span = itertools.accumulate(radix, operator.mul, initial=1)
        if span > 2**62:
            raise ValueError(f"too many modes for integer state keys: {len(radix)}")
        self.place: list[int] = place
        self.keys: list[int] = (self.occupations @ self.place).tolist()
        self.index_of: dict[int, int] = dict(zip(self.keys, range(len(self.keys))))

    @property
    def dim(self) -> int:
        return len(self.states)

    def state_index(self, occupation) -> int:
        """Dense index of an occupation vector; KeyError if projected out."""
        occupation = tuple(occupation)
        # an occupation outside the digits' range may share a state's key
        i = self.index_of.get(sum(map(operator.mul, occupation, self.place)))
        if i is None or self.states[i] != occupation:
            raise KeyError(occupation)
        return i

    @cached_property
    def sectors(self) -> Sectors:
        """The (N, sink) blocks of this basis, derived on first use."""
        return Sectors(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProjectedBasis(dim={self.dim}, sites={self.layout.n_sites})"


class Sectors:
    """The basis grouped into blocks of equal (excitation count N, sink occupation).

    Blocks are sorted by (N, sink), and a state is packed: the vector of its
    M = sum(size**2) in-block elements, ordered by (block size, block, row,
    column), rows and columns in basis order.  ``rows`` and ``cols`` give the
    basis pair of each packed coordinate.  The blocks of one size fill one
    contiguous slice of the vector (``groups``), which ``blocks`` views as a
    ``(count, size, size)`` stack.  ``pairs`` pairs each off-diagonal
    coordinate above the diagonal with its transpose's, the elements that
    Hermiticity ties together.
    """

    def __init__(self, basis: ProjectedBasis) -> None:
        layout = basis.layout
        counted = [i for i, m in enumerate(layout.modes) if m.kind in COUNTED_KINDS]
        occ = basis.occupations
        sink = occ[:, layout.index(ModeKind.SINK, layout.n_sites)]
        # sink is two-level, so 2N + sink sorts as (N, sink)
        key = 2 * occ[:, counted].sum(axis=1) + sink
        counts = np.bincount(key)
        keys = np.flatnonzero(counts)
        sizes = counts[keys]
        self.block = np.searchsorted(keys, key)
        self.keys = tuple((int(k) // 2, int(k) % 2) for k in keys)
        self.sizes = tuple(int(size) for size in sizes)
        dim = self.dim = basis.dim
        order = np.argsort(self.block, kind="stable")
        self.position = np.empty(dim, dtype=np.int64)
        self.position[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # first packed coordinate of each block, the blocks taken by (size, key)
        by_size = np.argsort(sizes, kind="stable")
        areas = sizes[by_size] ** 2
        start = np.empty(len(sizes), dtype=np.int64)
        start[by_size] = np.cumsum(areas) - areas
        # size and first packed coordinate of each basis state's block
        self.width, self.start = sizes[self.block], start[self.block]
        self.groups: list[tuple[int, slice]] = []  # (size, packed span), sizes ascending
        stop = 0
        for size, count in zip(*np.unique(sizes, return_counts=True)):
            self.groups.append((int(size), slice(stop, stop + int(count * size * size))))
            stop += int(count * size * size)
        # every (row, col) pair of basis states inside one block, in packed order
        rows, cols = np.nonzero(self.block[:, None] == self.block[None, :])
        coordinate = self.index(rows, cols)
        self.rows, self.cols = np.empty_like(rows), np.empty_like(cols)
        self.rows[coordinate], self.cols[coordinate] = rows, cols
        # population of every basis state, in basis order
        self.diagonal = self.index(np.arange(dim), np.arange(dim))
        # (2, P): the packed coordinates of the (r, c) elements with r < c,
        # over those of their transposes (c, r)
        upper = np.flatnonzero(self.rows < self.cols)
        self.pairs = np.stack([upper, self.index(self.cols[upper], self.rows[upper])])

    def index(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Packed coordinate of each (row, col) pair of same-block basis states."""
        return self.start[rows] + self.position[rows] * self.width[rows] + self.position[cols]

    def blocks(self, packed: np.ndarray) -> list[np.ndarray]:
        """Views of packed states (the last axis) as each group's (count, size, size) blocks."""
        lead = packed.shape[:-1]
        return [packed[..., span].reshape(*lead, -1, size, size) for size, span in self.groups]

    def pack(self, dense: np.ndarray) -> np.ndarray:
        """Packed vector of a dense d x d matrix that stays inside the sectors.

        Raises ArithmeticError if an element outside the blocks exceeds
        SECTOR_LEAK_TOL, rather than dropping it.
        """
        outside = dense.copy()
        outside[self.rows, self.cols] = 0
        leak = float(np.abs(outside).max(initial=0.0))
        if not leak <= SECTOR_LEAK_TOL:
            raise ArithmeticError(
                f"matrix leaks out of its (N, sink) sectors: max off-block |element| "
                f"{leak:.3e} > {SECTOR_LEAK_TOL:g}"
            )
        return dense[self.rows, self.cols].astype(complex, copy=False)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Dense d x d matrix of a packed state."""
        dense = np.zeros((self.dim, self.dim), dtype=complex)
        dense[self.rows, self.cols] = packed
        return dense

    def min_eigenvalue(self, packed: np.ndarray) -> float | np.ndarray:
        """Smallest eigenvalue of a Hermitian packed state, or of each of a stack of them."""
        return lowest_eigenvalue(self.blocks(packed))


def lowest_eigenvalue(views: list[np.ndarray]) -> float | np.ndarray:
    """Smallest eigenvalue over (..., count, size, size) stacks of Hermitian blocks,
    one per leading index: one ``eigvalsh`` call per stack."""
    return np.min([np.linalg.eigvalsh(view)[..., 0].min(axis=-1) for view in views], axis=0)


def enumerate_basis(
    layout: ModeLayout, max_quanta: int, phonon_cap: int = 1
) -> ProjectedBasis:
    """Enumerate all occupation vectors within the caps, in canonical order.

    Photon, exciton and sink modes are two-level and each phonon holds 0 to
    ``phonon_cap`` quanta; the summed occupation of photon, exciton and sink
    modes is at most ``max_quanta``.  The vacuum always fits.
    """
    for name, value in (("max_quanta", max_quanta), ("phonon_cap", phonon_cap)):
        if value < 0:
            raise ValueError(f"{name}: must be >= 0, got {value}")
    caps = [phonon_cap if m.kind is ModeKind.PHONON else 1 for m in layout.modes]
    weights = [1 if m.kind in COUNTED_KINDS else 0 for m in layout.modes]
    n_modes = len(caps)
    states: list[tuple[int, ...]] = []
    occ = [0] * n_modes

    def fill(m: int, quanta: int) -> None:
        if m == n_modes:
            states.append(tuple(occ))
            return
        for n in range(caps[m] + 1):
            q = quanta + n * weights[m]
            if q > max_quanta:
                break
            occ[m] = n
            fill(m + 1, q)
        occ[m] = 0

    fill(0, 0)
    return ProjectedBasis(layout, states)


@dataclass
class Operator:
    """Hermitian matrix over a ProjectedBasis: the chain Hamiltonian.

    Construction is the one Hermiticity check; jump operators, which need not
    be Hermitian, are column maps (``ColumnMap``).
    """

    basis: ProjectedBasis
    elements: np.ndarray

    def __post_init__(self) -> None:
        self.elements = np.ascontiguousarray(self.elements, dtype=complex)
        dim = self.basis.dim
        if self.elements.shape != (dim, dim):
            raise ValueError(
                f"operator shape {self.elements.shape} does not match basis dim {dim}"
            )
        defect = hermiticity_defect(self.elements)
        if not defect <= HERMITIAN_TOL:
            raise ValueError(f"operator not Hermitian: max|A - A^dag| = {defect:.3e}")


@dataclass
class DensityMatrix:
    """State of the chain over a basis.  Only the matrix shape is checked, not
    Hermiticity, trace or positivity (Euler steps can dip below zero)."""

    basis: ProjectedBasis
    elements: np.ndarray

    def __post_init__(self) -> None:
        self.elements = np.ascontiguousarray(self.elements, dtype=complex)
        dim = self.basis.dim
        if self.elements.shape != (dim, dim):
            raise ValueError(
                f"density matrix shape {self.elements.shape} does not match "
                f"basis dim {dim}"
            )


@dataclass
class ColumnMap:
    """A monomial matrix over a basis, stored by its nonzero columns.

    Column ``sources[i]`` holds ``amplitudes[i]`` in row ``targets[i]``; every
    other element is zero.  Couplings and jumps move one excitation, so each
    is one such map, built in O(d) rather than as a dense d x d array.
    """

    dim: int
    sources: np.ndarray
    targets: np.ndarray
    amplitudes: np.ndarray

    def scaled(self, factor: float) -> ColumnMap:
        """The map times a scalar factor."""
        return ColumnMap(self.dim, self.sources, self.targets, factor * self.amplitudes)

    def dense(self) -> np.ndarray:
        """The d x d complex matrix of the map."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[self.targets, self.sources] = self.amplitudes
        return mat


def transfer_op(
    basis: ProjectedBasis, from_mode: int | None, to_mode: int | None
) -> ColumnMap:
    """Move one excitation from ``from_mode`` to ``to_mode``, projected to the basis.

    ``None`` stands for the outside of the chain: ``transfer_op(b, None, m)``
    raises mode m (a pump), ``transfer_op(b, m, None)`` lowers it (a loss).
    The element sqrt(n_from)·sqrt(n_to+1), each factor present only with its
    mode, is written directly between kept states.  That is the restriction of
    the full-space operator: targets outside the basis contribute nothing, and
    no intermediate state can be projected out on the way, as it would be in a
    product of a projected lowering and raising.  Each state's target is
    found by its key (``ProjectedBasis.keys``), and the result is the map of
    the operator's nonzero columns, in basis order of their sources.
    """
    n_modes = len(basis.layout.modes)
    for mode in (from_mode, to_mode):
        if mode is not None and not 0 <= mode < n_modes:
            raise IndexError(f"mode index out of range: {from_mode}, {to_mode}")
    if from_mode == to_mode:
        raise ValueError("transfer needs two distinct ends, at most one of them None")
    sources: list[int] = []
    targets: list[int] = []
    amplitudes: list[float] = []
    index_of = basis.index_of
    # from a state's key to its target's: a quantum less in from_mode, one
    # more in to_mode; an empty from_mode or a full to_mode finds no key
    place = basis.place
    shift = (place[to_mode] if to_mode is not None else 0) - (
        place[from_mode] if from_mode is not None else 0
    )
    for i, key in enumerate(basis.keys):
        j = index_of.get(key + shift)
        if j is not None:
            state = basis.states[i]
            amplitude = 1.0
            if from_mode is not None:
                amplitude *= math.sqrt(state[from_mode])
            if to_mode is not None:
                amplitude *= math.sqrt(state[to_mode] + 1)
            sources.append(i)
            targets.append(j)
            amplitudes.append(amplitude)
    return ColumnMap(
        basis.dim,
        np.array(sources, dtype=np.int64),
        np.array(targets, dtype=np.int64),
        np.array(amplitudes, dtype=float),
    )


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max element of |A - A^dag| of a square matrix."""
    difference = matrix.T.copy()  # contiguous, so the subtraction reads in order
    np.conjugate(difference, out=difference)
    np.subtract(matrix, difference, out=difference)
    return float(np.abs(difference).max())
