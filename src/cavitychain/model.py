"""Chain assembly: Hamiltonian, jump operators and initial state from a config.

The model is a row of optical cavities, each holding one two-level atom.
Photons tunnel between neighbouring cavities (rate ``k``), exchange excitation
with the local atom (strength ``mu``), and the last site drains into a sink
mode through a jump operator.  Dephasing comes in two flavours: Lindblad-like
number-operator jumps of strength ``g``, or explicit phonon modes coupled to
the atomic excitation inside the Hamiltonian.

Two conventions worth knowing before reading numbers off the output:

* Jump operators carry their rate as a plain prefactor, L = rate * A, so the
  effective transition rate in the master equation is rate**2.
* The phonon coupling enters the Hamiltonian as (g + conj(g)), i.e. real g
  contributes 2*g.  Both follow the model definition this code reproduces and
  are kept literal on purpose.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from types import NoneType
from typing import get_args, get_type_hints

import numpy as np

from .modes import (
    ColumnMap,
    ModeKind,
    ModeLayout,
    Operator,
    ProjectedBasis,
    enumerate_basis,
    transfer_op,
)


class DephasingModel(Enum):
    NONE = "none"
    LINDBLAD_LIKE = "lindblad"
    UNITARY_PHONON = "unitary"


class SinkCoupling(Enum):
    """Which mode of the last site feeds the sink."""

    LAST_PHOTON = "photon"
    LAST_EXCITON = "exciton"


class DephasingTarget(Enum):
    """Which number operator the Lindblad-like dephasing jumps use."""

    PHOTON_NUMBER = "photon"
    EXCITON_NUMBER = "exciton"


class InitialState(Enum):
    VACUUM = "vacuum"
    PHOTON_IN_FIRST_CAVITY = "photon1"


@dataclass(frozen=True)
class ChainConfig:
    """Full parameter set of one chain model; its fields are the config keys.

    Each field is normalized to its type in ``FIELD_KINDS``, and a value
    that does not fit raises ``ValueError`` naming the field.

    ``initial_state`` and ``max_quanta`` may be left as None: pumped chains
    (rate_in > 0) default to a vacuum start and the widest window the
    two-level modes allow (2*n_atoms + 1 quanta), undriven chains to the
    photon in the first cavity and a single-excitation window.
    """

    n_atoms: int
    k: float = 0.0
    mu: float = 0.0
    g: float = 0.0
    omega_a: float = 0.1
    omega_p: float = 0.1
    omega_g: float = 0.01
    rate_in: float = 0.0
    rate_out: float = 0.0
    cavity_loss: float = 0.0
    dephasing: DephasingModel = DephasingModel.LINDBLAD_LIKE
    sink_coupling: SinkCoupling = SinkCoupling.LAST_PHOTON
    dephasing_target: DephasingTarget = DephasingTarget.PHOTON_NUMBER
    initial_state: InitialState | None = None
    max_quanta: int | None = None
    phonon_cap: int = 1

    def __post_init__(self) -> None:
        for name, kind in FIELD_KINDS.items():
            value = getattr(self, name)
            if type(value) is not kind and not (value is None and name in _OPTIONAL):
                value = _normalized(name, kind, value)
                object.__setattr__(self, name, value)
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms: must be >= 1, got {self.n_atoms}")
        pumped = self.rate_in > 0
        if self.initial_state is None:
            default = InitialState.VACUUM if pumped else InitialState.PHOTON_IN_FIRST_CAVITY
            object.__setattr__(self, "initial_state", default)
        if self.max_quanta is None:
            object.__setattr__(self, "max_quanta", 2 * self.n_atoms + 1 if pumped else 1)
        for name in ("g", "rate_in", "rate_out", "cavity_loss", "max_quanta", "phonon_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)}")
        for name in SQUARED_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value * value):
                raise ValueError(
                    f"{name}: must be at most {SQUARED_MAX:.3g} in magnitude "
                    f"(its square overflows), got {value}"
                )
        if (
            self.initial_state is InitialState.PHOTON_IN_FIRST_CAVITY
            and self.max_quanta < 1
        ):
            raise ValueError("max_quanta: must be >= 1 to hold the initial photon")


# The rates and couplings, bounded by the largest float whose square is
# finite.  A jump's rate enters the master equation squared (L = rate * A),
# so past the bound the step overflows; a coupling that large turns each
# step's phase into rounding noise long before.
SQUARED_FIELDS = ("k", "mu", "g", "rate_in", "rate_out", "cavity_loss")
SQUARED_MAX = math.sqrt(sys.float_info.max)

_HINTS = get_type_hints(ChainConfig)
# each config key's type, read off its annotation with `X | None` taken as X;
# the keys in _OPTIONAL may be left as None for ChainConfig to resolve
FIELD_KINDS = {
    name: next(arg for arg in get_args(hint) or (hint,) if arg is not NoneType)
    for name, hint in _HINTS.items()
}
_OPTIONAL = frozenset(name for name, hint in _HINTS.items() if NoneType in get_args(hint))


def _normalized(name: str, kind: type, value: object) -> object:
    """``value`` as an instance of ``kind``, or a ValueError naming the field."""
    if kind is int:
        try:
            return operator.index(value)
        except TypeError:
            raise ValueError(f"{name}: must be an integer, got {value!r}") from None
    if kind is float:
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{name}: must be a number, got {value!r}")
        return float(value)
    try:
        return kind(value)
    except ValueError:
        options = "|".join(member.value for member in kind)
        raise ValueError(f"{name}: expected one of {options}, got {value!r}") from None


@dataclass(frozen=True)
class LindbladTerm:
    """One jump operator, rate already folded in (L = rate * A).

    ``operator`` is L as the column map of its nonzeros, and ``rate`` names
    the config field whose value is that rate.
    """

    label: str
    operator: ColumnMap
    rate: str


def build_basis(config: ChainConfig) -> ProjectedBasis:
    """The config's basis: phonon modes present iff unitary dephasing.

    Every mode but the phonons is two-level (each cavity holds at most one
    photon, the natural cap of the chain being modelled); each phonon is
    capped at ``config.phonon_cap``, and the excitation count at
    ``config.max_quanta``.
    """
    layout = ModeLayout(
        config.n_atoms, phonons=config.dephasing is DephasingModel.UNITARY_PHONON
    )
    return enumerate_basis(layout, config.max_quanta, config.phonon_cap)


def hamiltonian(config: ChainConfig, basis: ProjectedBasis) -> Operator:
    """Chain Hamiltonian, packed by ``basis.sectors``: mode energies, photon
    tunnelling, photon-atom exchange, and (unitary dephasing only)
    phonon-excitation coupling.  A coupling that joins two (N, sink)
    sectors raises ArithmeticError naming it."""
    layout = basis.layout
    sectors = basis.sectors
    occ = basis.occupations
    energy = np.zeros(basis.dim)
    energies = (config.omega_p, config.omega_a, config.omega_g)
    for omega, kind in zip(energies, (ModeKind.PHOTON, ModeKind.EXCITON, ModeKind.PHONON)):
        for i in layout.indices(kind):
            energy += omega * occ[:, i]

    # photon tunnelling between neighbours, then photon-atom exchange per site
    photon, exciton = layout.indices(ModeKind.PHOTON), layout.indices(ModeKind.EXCITON)
    couplings = [("k", p, q) for p, q in zip(photon, photon[1:])]
    couplings += [("mu", p, x) for p, x in zip(photon, exciton)]
    if config.dephasing is DephasingModel.UNITARY_PHONON:
        couplings += [("g", b, x) for b, x in zip(layout.indices(ModeKind.PHONON), exciton)]
    targets, sources, values = [], [], []
    for field, src, dst in couplings:
        if field == "g":  # (b + b^dag) n_exc, (g + g*) doubling real g, kept literal:
            # the lowering of b times the source's excitons; b^dag n_exc is its transpose
            move = transfer_op(basis, src, None)
            values.append((config.g + config.g) * (move.amplitudes * occ[move.sources, dst]))
        else:
            move = transfer_op(basis, src, dst)
            values.append(getattr(config, field) * move.amplitudes)
        targets.append(move.targets)
        sources.append(move.sources)
    # every coupling's elements, then their transposes
    rows, cols = np.concatenate(targets + sources), np.concatenate(sources + targets)
    crossing = sectors.block[rows] != sectors.block[cols]
    if crossing.any():
        ends = np.cumsum(list(map(len, targets)))
        field, *pair = couplings[np.searchsorted(ends, crossing.argmax() % ends[-1], "right")]
        name = "-".join("{0.kind.value}_{0.site}".format(layout.modes[m]) for m in pair)
        raise ArithmeticError(f"coupling {field} {name} joins two (N, sink) sectors")
    # No two coupling elements, transposes included, share a place or lie on the
    # diagonal, and strengths are real: added onto zeros, H is the dense sum's bits.
    h = np.zeros(sectors.length, dtype=complex)
    h[sectors.diagonal] = energy
    h[sectors.index(rows, cols)] += np.concatenate(values + values)
    return Operator(basis, h)


def _lindblad_terms(
    config: ChainConfig, basis: ProjectedBasis, unit: bool = False
) -> list[LindbladTerm]:
    """Jump operators in deterministic order: input, output, dephasing, loss.

    Terms with zero rate are omitted.  Rates are folded into the operators
    (L = rate * A), so the effective jump rate is rate**2; with ``unit``,
    every term kept carries rate 1 (L = A) instead, and a pump into a
    saturated window does not warn, as the assembly of ``config`` itself
    does.  Each term names the config field of its rate, the one table from
    jump to field.
    """
    layout = basis.layout
    n = config.n_atoms
    terms: list[LindbladTerm] = []

    def add(label: str, field: str, jump: ColumnMap) -> None:
        rate = 1.0 if unit else getattr(config, field)
        terms.append(LindbladTerm(label, jump.scaled(rate), field))

    if config.rate_in > 0:
        initial_quanta = (
            1 if config.initial_state is InitialState.PHOTON_IN_FIRST_CAVITY else 0
        )
        if initial_quanta >= config.max_quanta and not unit:
            warnings.warn(
                "max_quanta is saturated by the initial state; "
                "the pump acts as a projected-out zero on saturated states",
                stacklevel=3,
            )
        pump = transfer_op(basis, None, layout.index(ModeKind.PHOTON, 1))
        add("input", "rate_in", pump)

    if config.rate_out > 0:
        source_kind = (
            ModeKind.PHOTON
            if config.sink_coupling is SinkCoupling.LAST_PHOTON
            else ModeKind.EXCITON
        )
        drain = transfer_op(
            basis, layout.index(source_kind, n), layout.index(ModeKind.SINK, n)
        )
        add("output", "rate_out", drain)

    if config.dephasing is DephasingModel.LINDBLAD_LIKE and config.g > 0:
        target_kind = (
            ModeKind.PHOTON
            if config.dephasing_target is DephasingTarget.PHOTON_NUMBER
            else ModeKind.EXCITON
        )
        for site in range(1, n + 1):
            # the number operator, as the diagonal map of its nonzeros
            occupation = basis.occupations[:, layout.index(target_kind, site)]
            occupied = np.flatnonzero(occupation)
            number = ColumnMap(basis.dim, occupied, occupied, occupation[occupied].astype(float))
            add(f"dephasing_{site}", "g", number)

    if config.cavity_loss > 0:
        for site in range(1, n + 1):
            leak = transfer_op(basis, layout.index(ModeKind.PHOTON, site), None)
            add(f"loss_{site}", "cavity_loss", leak)

    return terms


def unit_terms(config: ChainConfig, basis: ProjectedBasis) -> tuple[LindbladTerm, ...]:
    """The jump terms of ``config`` at unit rate: L = A for every rate it sets positive.

    A cell of a sweep has the terms of these whose rates it sets positive,
    each A scaled by the value of its ``rate`` field.
    """
    return tuple(_lindblad_terms(config, basis, unit=True))


def _initial_state(config: ChainConfig, basis: ProjectedBasis) -> np.ndarray:
    """Packed pure-state projector onto the configured starting occupation vector."""
    occupation = [0] * len(basis.layout.modes)
    if config.initial_state is InitialState.PHOTON_IN_FIRST_CAVITY:
        occupation[basis.layout.index(ModeKind.PHOTON, 1)] = 1
    sectors = basis.sectors
    rho = np.zeros(sectors.length, dtype=complex)
    rho[sectors.diagonal[basis.state_index(occupation)]] = 1.0
    return rho


@dataclass(frozen=True)
class AssembledChain:
    """Everything the evolution engine needs, built once from a config; the
    Hamiltonian and the initial state are packed by ``basis.sectors``."""

    basis: ProjectedBasis
    hamiltonian: Operator
    lindblad_terms: tuple[LindbladTerm, ...]
    initial: np.ndarray


def assemble(config: ChainConfig) -> AssembledChain:
    """Build the basis, its sectors, the Hamiltonian, jump terms and initial state of a config."""
    basis = build_basis(config)
    return AssembledChain(
        basis=basis,
        hamiltonian=hamiltonian(config, basis),
        lindblad_terms=tuple(_lindblad_terms(config, basis)),
        initial=_initial_state(config, basis),
    )
