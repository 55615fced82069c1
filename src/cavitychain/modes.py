"""Occupation-number bases for chains of quantum modes, truncated by a quanta window.

A chain is an ordered list of modes (photon and exciton per site, optionally a
phonon per site, one sink at the end).  The basis keeps only those occupation
vectors whose excitation count -- photons + excitons + sink, the number
conserved by the chain Hamiltonian -- lies inside a configurable window;
phonon occupations are capped separately because phonon number is not
conserved.  Every coupling and jump of the chain moves one excitation, so one
builder, ``transfer_op``, makes them all directly in the projected basis:
moving out of the kept set projects to zero rather than erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

HERMITIAN_TOL = 1e-12


class EmptyBasisError(ValueError):
    """The quanta window excludes every occupation vector."""


class ModeKind(Enum):
    PHOTON = "photon"
    EXCITON = "exciton"
    PHONON = "phonon"
    SINK = "sink"


# Modes whose occupation counts toward the conserved excitation number.
COUNTED_KINDS = (ModeKind.PHOTON, ModeKind.EXCITON, ModeKind.SINK)
# Strictly two-level modes.
TWO_LEVEL_KINDS = (ModeKind.EXCITON, ModeKind.SINK)


@dataclass(frozen=True)
class ModeSpec:
    """One mode of the chain: what it is, which site it sits on, how many levels."""

    kind: ModeKind
    site: int
    levels: int = 2

    def __post_init__(self) -> None:
        if self.site < 1:
            raise ValueError(f"mode site must be >= 1, got {self.site}")
        if self.levels < 2:
            raise ValueError(f"mode must have >= 2 levels, got {self.levels}")
        if self.kind in TWO_LEVEL_KINDS and self.levels != 2:
            raise ValueError(f"{self.kind.value} modes are strictly two-level")


@dataclass(frozen=True)
class ModeLayout:
    """Ordered mode list: (photon_i, exciton_i[, phonon_i]) per site, sink last."""

    modes: tuple[ModeSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        sinks = [m for m in self.modes if m.kind is ModeKind.SINK]
        if len(sinks) != 1 or self.modes[-1].kind is not ModeKind.SINK:
            raise ValueError("layout needs exactly one sink mode, ordered last")
        has_phonons = any(m.kind is ModeKind.PHONON for m in self.modes)
        n_sites = sinks[0].site
        expected: list[tuple[ModeKind, int]] = []
        for site in range(1, n_sites + 1):
            expected.append((ModeKind.PHOTON, site))
            expected.append((ModeKind.EXCITON, site))
            if has_phonons:
                expected.append((ModeKind.PHONON, site))
        expected.append((ModeKind.SINK, n_sites))
        actual = [(m.kind, m.site) for m in self.modes]
        if actual != expected:
            raise ValueError(
                "layout must list (photon, exciton[, phonon]) per site in order, "
                "then the sink"
            )

    @classmethod
    def chain(
        cls,
        n_sites: int,
        *,
        phonons: bool = False,
        photon_levels: int = 2,
        phonon_levels: int = 2,
    ) -> "ModeLayout":
        """Canonical layout for a chain of ``n_sites`` cavities plus one sink."""
        if n_sites < 1:
            raise ValueError(f"need at least one site, got {n_sites}")
        modes: list[ModeSpec] = []
        for site in range(1, n_sites + 1):
            modes.append(ModeSpec(ModeKind.PHOTON, site, photon_levels))
            modes.append(ModeSpec(ModeKind.EXCITON, site))
            if phonons:
                modes.append(ModeSpec(ModeKind.PHONON, site, phonon_levels))
        modes.append(ModeSpec(ModeKind.SINK, n_sites))
        return cls(tuple(modes))

    @property
    def n_sites(self) -> int:
        return self.modes[-1].site

    def index(self, kind: ModeKind, site: int) -> int:
        """Dense position of the (kind, site) mode."""
        for i, m in enumerate(self.modes):
            if m.kind is kind and m.site == site:
                return i
        raise KeyError(f"no {kind.value} mode at site {site}")

    def indices(self, kind: ModeKind) -> tuple[int, ...]:
        """All mode positions of the given kind, in site order."""
        return tuple(i for i, m in enumerate(self.modes) if m.kind is kind)


@dataclass(frozen=True)
class QuantaWindow:
    """Bounds on the conserved excitation count, plus a per-site phonon cap."""

    min_quanta: int
    max_quanta: int
    phonon_cap: int = 1

    def __post_init__(self) -> None:
        if self.min_quanta < 0:
            raise ValueError(f"min_quanta must be >= 0, got {self.min_quanta}")
        if self.max_quanta < self.min_quanta:
            raise ValueError("max_quanta must be >= min_quanta")
        if self.phonon_cap < 0:
            raise ValueError(f"phonon_cap must be >= 0, got {self.phonon_cap}")


class ProjectedBasis:
    """Enumerated occupation vectors surviving a quanta window.

    States are kept in lexicographic order over occupation vectors so that
    basis construction, and every matrix built on top of it, is reproducible
    bit for bit.
    """

    def __init__(
        self,
        layout: ModeLayout,
        window: QuantaWindow,
        states: list[tuple[int, ...]],
    ) -> None:
        self.layout = layout
        self.window = window
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
        return (
            f"ProjectedBasis(dim={self.dim}, sites={self.layout.n_sites}, "
            f"window=[{self.window.min_quanta},{self.window.max_quanta}])"
        )


def enumerate_basis(layout: ModeLayout, window: QuantaWindow) -> ProjectedBasis:
    """Enumerate all occupation vectors allowed by the window, in canonical order.

    Phonon occupations are bounded by ``min(levels - 1, phonon_cap)``; the
    window bounds apply to the summed occupation of photon, exciton and sink
    modes only.  Raises EmptyBasisError when nothing survives.
    """
    caps: list[int] = []
    weights: list[int] = []
    for spec in layout.modes:
        cap = spec.levels - 1
        if spec.kind is ModeKind.PHONON:
            if window.phonon_cap > cap:
                raise ValueError(
                    f"phonon_cap {window.phonon_cap} exceeds phonon levels-1 ({cap})"
                )
            cap = window.phonon_cap
        caps.append(cap)
        weights.append(1 if spec.kind in COUNTED_KINDS else 0)

    n_modes = len(caps)
    # Max countable quanta still reachable from mode m onward, for pruning.
    tail = [0] * (n_modes + 1)
    for m in reversed(range(n_modes)):
        tail[m] = tail[m + 1] + caps[m] * weights[m]

    states: list[tuple[int, ...]] = []
    occ = [0] * n_modes

    def fill(m: int, quanta: int) -> None:
        if m == n_modes:
            if quanta >= window.min_quanta:
                states.append(tuple(occ))
            return
        for n in range(caps[m] + 1):
            q = quanta + n * weights[m]
            if q > window.max_quanta:
                break
            if q + tail[m + 1] < window.min_quanta:
                continue
            occ[m] = n
            fill(m + 1, q)
        occ[m] = 0

    fill(0, 0)
    if not states:
        raise EmptyBasisError(
            f"window [{window.min_quanta},{window.max_quanta}] keeps no state "
            f"of the {len(layout.modes)}-mode layout"
        )
    return ProjectedBasis(layout, window, states)


@dataclass
class Operator:
    """Dense complex matrix over a ProjectedBasis, with a Hermitian tag."""

    basis: ProjectedBasis
    elements: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        self.elements = np.ascontiguousarray(self.elements, dtype=complex)
        dim = self.basis.dim
        if self.elements.shape != (dim, dim):
            raise ValueError(
                f"operator shape {self.elements.shape} does not match basis dim {dim}"
            )
        if self.hermitian:
            defect = hermiticity_defect(self.elements)
            if defect > HERMITIAN_TOL:
                raise ValueError(
                    f"operator tagged hermitian but max|A - A^dag| = {defect:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.basis.dim


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
) -> Operator:
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
    return Operator(basis, mat)


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max element of |A - A^dag|."""
    return float(np.abs(matrix - matrix.conj().T).max())


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(matrix)[0])
