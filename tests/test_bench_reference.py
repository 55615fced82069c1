"""The benchmark's reference contract, checked by the test suite.

Each workload in ``bench/workloads.py`` runs its reference-seed CLI command
into a temporary directory, and the workload's own checks must find nothing:
the outputs match ``bench/reference/`` and every invariant holds.
"""

import sys
from pathlib import Path

import pytest

from cavitychain.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import REFERENCE_SEED, WORKLOADS, Outputs  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_seed_passes_workload_checks(tmp_path, name):
    workload = WORKLOADS[name]
    invocation = workload.invocation(REFERENCE_SEED)
    config = tmp_path / f"{name}.cfg"
    config.write_text(invocation.config)
    prefix = tmp_path / name
    assert main(invocation.argv(str(config), str(prefix))) == 0
    assert workload.check(Outputs.read(prefix), REFERENCE_SEED).messages == []
