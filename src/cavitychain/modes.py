"""Occupation-number bases for chains of quantum modes, truncated by quanta caps.

A chain is an ordered list of modes (photon and exciton per site, optionally a
phonon per site, one sink at the end).  Photon, exciton and sink modes are
two-level.  The basis keeps only those occupation vectors whose excitation
count -- photons + excitons + sink, the number conserved by the chain
Hamiltonian -- is at most ``max_quanta``; phonon occupations are capped
separately, at ``phonon_cap``, because phonon number is not conserved.
Every coupling and jump of the chain moves one excitation, so one builder,
``transfer_op``, makes them all directly in the projected basis: moving out
of the kept set projects to zero rather than erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

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
    bit for bit.
    """

    def __init__(self, layout: ModeLayout, states: list[tuple[int, ...]]) -> None:
        self.layout = layout
        self.states: tuple[tuple[int, ...], ...] = tuple(states)
        self.index_of: dict[tuple[int, ...], int] = {
            s: i for i, s in enumerate(self.states)
        }
        self.occupations = np.array(self.states, dtype=np.int64)

    @property
    def dim(self) -> int:
        return len(self.states)

    def state_index(self, occupation) -> int:
        """Dense index of an occupation vector; KeyError if projected out."""
        return self.index_of[tuple(occupation)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProjectedBasis(dim={self.dim}, sites={self.layout.n_sites})"


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
    be Hermitian, are plain complex arrays.
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
    """State of the chain: Hermitian, trace-one, positive matrix over a basis."""

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


def transfer_op(
    basis: ProjectedBasis, from_mode: int | None, to_mode: int | None
) -> np.ndarray:
    """Move one excitation from ``from_mode`` to ``to_mode``, projected to the basis.

    ``None`` stands for the outside of the chain: ``transfer_op(b, None, m)``
    raises mode m (a pump), ``transfer_op(b, m, None)`` lowers it (a loss).
    The element sqrt(n_from)·sqrt(n_to+1), each factor present only with its
    mode, is written directly between kept states.  That is the restriction of
    the full-space operator: targets outside the basis contribute nothing, and
    no intermediate state can be projected out on the way, as it would be in a
    product of a projected lowering and raising.
    """
    n_modes = len(basis.layout.modes)
    for mode in (from_mode, to_mode):
        if mode is not None and not 0 <= mode < n_modes:
            raise IndexError(f"mode index out of range: {from_mode}, {to_mode}")
    if from_mode == to_mode:
        raise ValueError("transfer needs two distinct ends, at most one of them None")
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
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
        j = basis.index_of.get(tuple(target))
        if j is not None:
            mat[j, i] = amplitude
    return mat


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max element of |A - A^dag|."""
    return float(np.abs(matrix - matrix.conj().T).max())


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(matrix)[0])
