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
``ProjectedBasis.sectors`` groups the basis into these blocks, and a state
or the Hamiltonian (``Operator``) is stored as the packed elements of its
blocks; only ``Sectors.unpack`` writes one as a d x d array.
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
    _by_kind: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"need at least one site, got {self.n_sites}")
        kinds = (ModeKind.PHOTON, ModeKind.EXCITON)
        if self.phonons:
            kinds += (ModeKind.PHONON,)
        modes = [ModeSpec(k, site) for site in range(1, self.n_sites + 1) for k in kinds]
        modes.append(ModeSpec(ModeKind.SINK, self.n_sites))
        object.__setattr__(self, "modes", tuple(modes))
        # (kind, positions): each at every len(kinds)-th mode from its first, the sink last
        sink = len(modes) - 1
        by_kind = [(kind, tuple(range(k, sink, len(kinds)))) for k, kind in enumerate(kinds)]
        object.__setattr__(self, "_by_kind", (*by_kind, (ModeKind.SINK, (sink,))))

    def index(self, kind: ModeKind, site: int) -> int:
        """Dense position of the (kind, site) mode."""
        for i, m in enumerate(self.modes):
            if m.kind is kind and m.site == site:
                return i
        raise KeyError(f"no {kind.value} mode at site {site}")

    def indices(self, kind: ModeKind) -> tuple[int, ...]:
        """All mode positions of the given kind, in site order."""
        for each, positions in self._by_kind:  # no hashing: an Enum hashes in Python
            if each is kind:
                return positions
        return ()


class ProjectedBasis:
    """Enumerated occupation vectors surviving the quanta caps.

    States are kept in lexicographic order over occupation vectors so that
    basis construction, and every matrix built on top of it, is reproducible
    bit for bit.  Each state has two integer keys from the enumeration.  The
    digits of its key are its occupations, each mode's place value the
    product of (its cap + 2) over the modes before it, so a move shifts the
    key by place values, and a quantum less in an empty mode borrows, which
    no state's key matches (``transfer_op``'s lookup in ``index_of``).  Its
    sector key is 2N + sink, N its excitation count: its block of ``sectors``.
    """

    def __init__(self, layout: ModeLayout, states: list[tuple[int, ...]], place: list[int],
                 keys: list[int], sector_keys: list[int]) -> None:
        self.layout = layout
        self.states: tuple[tuple[int, ...], ...] = tuple(states)
        self.occupations = np.array(self.states, dtype=np.int64)
        self.place = place
        self.keys = keys
        self.sector_keys = sector_keys
        self.index_of: dict[int, int] = dict(zip(keys, range(len(keys))))
        self.sectors = Sectors(self)

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


class Sectors:
    """The basis grouped into blocks of equal (excitation count N, sink occupation).

    Blocks are sorted by (N, sink), and a state is packed: the vector of its
    M = sum(size**2) in-block elements (``length``), ordered by (block size,
    block, row, column), rows and columns in basis order.  The blocks of one
    size fill one contiguous slice of the vector (``groups``), which
    ``blocks`` views as a ``(count, size, size)`` stack.  The per-state
    tables come from one counting pass over the basis's sector keys; those
    over packed coordinates are built on first use: ``rows`` and ``cols``,
    the basis pair of each, and ``pairs``, each off-diagonal coordinate
    above the diagonal over its transpose's, which Hermiticity ties together.
    """

    def __init__(self, basis: ProjectedBasis) -> None:
        self.dim = basis.dim
        counts: dict[int, int] = {}  # states of each key so far
        position = []
        for key in basis.sector_keys:
            position.append(counts.get(key, 0))
            counts[key] = position[-1] + 1
        keys = sorted(counts)  # sink is two-level, so 2N + sink sorts as (N, sink)
        self.keys = tuple([divmod(key, 2) for key in keys])
        self.sizes = tuple(map(counts.get, keys))
        # by (size, key): each block's first packed coordinate, each size's span
        blocks, spans, stop = {}, {}, 0
        for size, b in sorted(zip(self.sizes, range(len(keys)))):
            blocks[keys[b]] = (b, size, stop)
            stop += size * size
            spans.setdefault(size, [stop - size * size, stop])[1] = stop
        self.groups = [(size, slice(*span)) for size, span in spans.items()]  # sizes ascending
        self.length = stop
        # each basis state's block, its size and first coordinate, and position
        table = [*zip(*map(blocks.get, basis.sector_keys)), position]
        self.block, self.width, self.start, self.position = np.array(table, dtype=np.int64)
        # packed coordinate of each basis state's first row element, and population
        self._row_start = self.start + self.position * self.width
        self.diagonal = self._row_start + self.position

    def index(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Packed coordinate of each (row, col) pair of same-block basis states."""
        return self._row_start[rows] + self.position[cols]

    @cached_property
    def _coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        # each row, the basis states in packed order, takes its block's as columns
        members = np.lexsort((self.position, self.start))
        width = self.width[members]
        ends = np.cumsum(width)
        offset = np.arange(self.length) - np.repeat(ends - width, width)
        first = np.arange(self.dim) - self.position[members]  # of its block, in members
        return np.repeat(members, width), members[np.repeat(first, width) + offset]

    # the basis row and column of every packed coordinate
    rows = property(lambda self: self._coordinates[0])
    cols = property(lambda self: self._coordinates[1])

    @cached_property
    def pairs(self) -> np.ndarray:
        """(2, P): the packed coordinates of the (r, c) elements with r < c,
        over those of their transposes (c, r)."""
        rows, cols = self._coordinates
        upper = np.flatnonzero(rows < cols)
        return np.stack([upper, self.index(cols[upper], rows[upper])])

    def blocks(self, packed: np.ndarray) -> list[np.ndarray]:
        """Views of packed states (the last axis) as each group's (count, size, size) blocks."""
        lead = packed.shape[:-1]
        return [packed[..., span].reshape(*lead, -1, size, size) for size, span in self.groups]

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Dense d x d matrix of a packed state."""
        dense = np.zeros((self.dim, self.dim), dtype=complex)
        dense[self._coordinates] = packed
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
    modes is at most ``max_quanta``.  The vacuum always fits.  Each state's
    key and sector key, 2N + sink with N its summed occupation, are recorded
    with it (``ProjectedBasis``).
    """
    for name, value in (("max_quanta", max_quanta), ("phonon_cap", phonon_cap)):
        if value < 0:
            raise ValueError(f"{name}: must be >= 0, got {value}")
    caps = [phonon_cap if m.kind is ModeKind.PHONON else 1 for m in layout.modes]
    weights = [1 if m.kind in COUNTED_KINDS else 0 for m in layout.modes]
    *place, _ = itertools.accumulate([cap + 2 for cap in caps], operator.mul, initial=1)
    n_modes = len(caps)
    sink = n_modes - 1  # the last mode
    states: list[tuple[int, ...]] = []
    keys: list[int] = []
    sector_keys: list[int] = []
    occ = [0] * n_modes

    def fill(m: int, quanta: int, key: int) -> None:
        if m == n_modes:
            states.append(tuple(occ))
            keys.append(key)
            sector_keys.append(2 * quanta + occ[sink])
            return
        for n in range(caps[m] + 1):
            q = quanta + n * weights[m]
            if q > max_quanta:
                break
            occ[m] = n
            fill(m + 1, q, key + n * place[m])
        occ[m] = 0

    fill(0, 0, 0)
    return ProjectedBasis(layout, states, place, keys, sector_keys)


@dataclass
class Operator:
    """Hermitian matrix over a ProjectedBasis, packed by its sectors: the chain Hamiltonian.

    Construction is the one Hermiticity check, block by block; jumps, which
    need not be Hermitian, are column maps (``ColumnMap``)."""

    basis: ProjectedBasis
    elements: np.ndarray

    def __post_init__(self) -> None:
        self.elements = np.ascontiguousarray(self.elements, dtype=complex)
        sectors = self.basis.sectors
        if self.elements.shape != (sectors.length,):
            raise ValueError(f"operator shape {self.elements.shape} is not the packed "
                             f"length {sectors.length} of its basis")
        for size, span in sectors.groups:
            if size == 1:  # |a - conj(a)| = 2 |Im a|
                defect = 2 * np.abs(self.elements[span].imag).max()
            else:
                view = self.elements[span].reshape(-1, size, size)
                defect = np.abs(view - view.conj().swapaxes(-1, -2)).max()
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
