"""Excitation transport in dissipative cavity-atom chains."""

__version__ = "0.1.0"

from .evolution import (
    StepEngine,
    TrajectoryRecord,
    diagonalize,
    evolve,
    evolve_assembled,
    step_count,
    superoperator_oracle,
)
from .experiments import (
    ReachTime,
    SinkAtTime,
    SweepAxis,
    SweepResult,
    SweepSpec,
    TimeToReach,
    bottleneck_scan,
    dat_scan,
    default_g_grid,
    default_rate_grid,
    run_sweep,
    time_to_reach,
)
from .model import (
    ChainConfig,
    DephasingModel,
    DephasingTarget,
    InitialState,
    LindbladTerm,
    SinkCoupling,
    assemble,
    build_basis,
)
from .modes import (
    ColumnMap,
    ModeKind,
    ModeLayout,
    Operator,
    enumerate_basis,
    transfer_op,
)
