"""Excitation transport in dissipative cavity-atom chains."""

__version__ = "0.1.0"

from .evolution import (
    Propagator,
    StepEngine,
    TrajectoryRecord,
    diagonalize,
    evolve,
    evolve_assembled,
    step_count,
    superoperator_oracle,
)
from .experiments import (
    OptimalRate,
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
    optimal_rate,
    run_sweep,
    time_to_reach,
)
from .model import (
    AssembledChain,
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
    DensityMatrix,
    ModeKind,
    ModeLayout,
    ModeSpec,
    Operator,
    ProjectedBasis,
    enumerate_basis,
    transfer_op,
)
