"""Operators that tests use as independent oracles; the package itself needs none.

Each is built straight from the basis occupation table, not from
``transfer_op``, the operator builder under test.
"""

import numpy as np

from cavitychain.modes import Operator, ProjectedBasis


def number_op(basis: ProjectedBasis, mode: int) -> Operator:
    """Diagonal occupation-number operator of one mode."""
    return Operator(
        basis,
        np.diag(basis.occupations[:, mode].astype(complex)),
        hermitian=True,
    )


def total_quanta_op(basis: ProjectedBasis) -> Operator:
    """Summed number operator over photon, exciton and sink modes."""
    counts = basis.occupations @ basis.layout.quanta_weights()
    return Operator(basis, np.diag(counts.astype(complex)), hermitian=True)


def identity_op(basis: ProjectedBasis) -> Operator:
    return Operator(basis, np.eye(basis.dim, dtype=complex), hermitian=True)


def op_mul(a: Operator, b: Operator) -> Operator:
    assert a.basis is b.basis, "operands live on different bases"
    return Operator(a.basis, a.elements @ b.elements)
