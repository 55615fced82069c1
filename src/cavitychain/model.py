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
import operator
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .modes import (
    DensityMatrix,
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


# ChainConfig float and integer fields, in declaration order
FLOAT_FIELDS = (
    "k", "mu", "g", "omega_a", "omega_p", "omega_g", "rate_in", "rate_out", "cavity_loss"
)
INT_FIELDS = ("n_atoms", "max_quanta", "phonon_cap")


@dataclass(frozen=True)
class ChainConfig:
    """Full parameter set of one chain model; its fields are the config keys.

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
        for name in INT_FIELDS:
            value = getattr(self, name)
            if name == "max_quanta" and value is None:
                continue  # resolved below
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name}: must be an integer, got {value!r}") from None
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms: must be >= 1, got {self.n_atoms}")
        for name in FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")
        pumped = self.rate_in > 0
        if self.initial_state is None:
            default = InitialState.VACUUM if pumped else InitialState.PHOTON_IN_FIRST_CAVITY
            object.__setattr__(self, "initial_state", default)
        if self.max_quanta is None:
            object.__setattr__(self, "max_quanta", 2 * self.n_atoms + 1 if pumped else 1)
        for name in ("g", "rate_in", "rate_out", "cavity_loss", "max_quanta", "phonon_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)}")
        if (
            self.initial_state is InitialState.PHOTON_IN_FIRST_CAVITY
            and self.max_quanta < 1
        ):
            raise ValueError("max_quanta: must be >= 1 to hold the initial photon")


@dataclass(frozen=True)
class LindbladTerm:
    """One jump operator, rate already folded in (L = rate * A)."""

    label: str
    operator: np.ndarray


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


def _hamiltonian(config: ChainConfig, basis: ProjectedBasis) -> Operator:
    """Chain Hamiltonian: mode energies, photon tunnelling, photon-atom
    exchange, and (unitary dephasing only) phonon-excitation coupling."""
    layout = basis.layout
    n = config.n_atoms
    dim = basis.dim
    h = np.zeros((dim, dim), dtype=complex)

    occ = basis.occupations
    for i in layout.indices(ModeKind.PHOTON):
        h[np.diag_indices(dim)] += config.omega_p * occ[:, i]
    for i in layout.indices(ModeKind.EXCITON):
        h[np.diag_indices(dim)] += config.omega_a * occ[:, i]
    for i in layout.indices(ModeKind.PHONON):
        h[np.diag_indices(dim)] += config.omega_g * occ[:, i]

    # photon tunnelling between neighbours, then photon-atom exchange per site
    photon, exciton = layout.indices(ModeKind.PHOTON), layout.indices(ModeKind.EXCITON)
    couplings = [(config.k, p, q) for p, q in zip(photon, photon[1:])]
    couplings += [(config.mu, p, x) for p, x in zip(photon, exciton)]
    for strength, src, dst in couplings:
        move = transfer_op(basis, src, dst)
        h += strength * move + np.conj(strength) * move.conj().T

    if config.dephasing is DephasingModel.UNITARY_PHONON:
        # (g + g*) doubles real coupling strengths; kept literal.
        strength = config.g + np.conj(config.g)
        for site in range(1, n + 1):
            b = layout.index(ModeKind.PHONON, site)
            displacement = transfer_op(basis, b, None) + transfer_op(basis, None, b)
            n_exc = np.diag(occ[:, layout.index(ModeKind.EXCITON, site)].astype(complex))
            h += strength * (displacement @ n_exc)

    return Operator(basis, h)


def _lindblad_terms(config: ChainConfig, basis: ProjectedBasis) -> list[LindbladTerm]:
    """Jump operators in deterministic order: input, output, dephasing, loss.

    Terms with zero rate are omitted.  Rates are folded into the operators
    (L = rate * A), so the effective jump rate is rate**2.
    """
    layout = basis.layout
    n = config.n_atoms
    terms: list[LindbladTerm] = []

    if config.rate_in > 0:
        initial_quanta = (
            1 if config.initial_state is InitialState.PHOTON_IN_FIRST_CAVITY else 0
        )
        if initial_quanta >= config.max_quanta:
            warnings.warn(
                "max_quanta is saturated by the initial state; "
                "the pump acts as a projected-out zero on saturated states",
                stacklevel=3,
            )
        pump = transfer_op(basis, None, layout.index(ModeKind.PHOTON, 1))
        terms.append(LindbladTerm("input", config.rate_in * pump))

    if config.rate_out > 0:
        source_kind = (
            ModeKind.PHOTON
            if config.sink_coupling is SinkCoupling.LAST_PHOTON
            else ModeKind.EXCITON
        )
        drain = transfer_op(
            basis, layout.index(source_kind, n), layout.index(ModeKind.SINK, n)
        )
        terms.append(LindbladTerm("output", config.rate_out * drain))

    if config.dephasing is DephasingModel.LINDBLAD_LIKE and config.g > 0:
        target_kind = (
            ModeKind.PHOTON
            if config.dephasing_target is DephasingTarget.PHOTON_NUMBER
            else ModeKind.EXCITON
        )
        for site in range(1, n + 1):
            num = np.diag(
                basis.occupations[:, layout.index(target_kind, site)].astype(complex)
            )
            terms.append(LindbladTerm(f"dephasing_{site}", config.g * num))

    if config.cavity_loss > 0:
        for site in range(1, n + 1):
            leak = transfer_op(basis, layout.index(ModeKind.PHOTON, site), None)
            terms.append(LindbladTerm(f"loss_{site}", config.cavity_loss * leak))

    return terms


def _initial_state(config: ChainConfig, basis: ProjectedBasis) -> DensityMatrix:
    """Pure-state projector onto the configured starting occupation vector."""
    occupation = [0] * len(basis.layout.modes)
    if config.initial_state is InitialState.PHOTON_IN_FIRST_CAVITY:
        occupation[basis.layout.index(ModeKind.PHOTON, 1)] = 1
    idx = basis.state_index(occupation)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[idx, idx] = 1.0
    return DensityMatrix(basis, rho)


@dataclass(frozen=True)
class AssembledChain:
    """Everything the evolution engine needs, built once from a config."""

    basis: ProjectedBasis
    hamiltonian: Operator
    lindblad_terms: tuple[LindbladTerm, ...]
    initial: DensityMatrix


def assemble(config: ChainConfig) -> AssembledChain:
    """Build the basis, Hamiltonian, jump terms and initial state of a config."""
    basis = build_basis(config)
    return AssembledChain(
        basis=basis,
        hamiltonian=_hamiltonian(config, basis),
        lindblad_terms=tuple(_lindblad_terms(config, basis)),
        initial=_initial_state(config, basis),
    )
