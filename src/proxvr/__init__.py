"""proxvr: sequential and asynchronous proximal stochastic solvers with
variance reduction, plus executable convergence theory and a benchmark CLI."""

from .errors import (
    ContractViolation,
    ConvergenceFailure,
    ParseError,
    RateDomainError,
)
from .linalg import BlockPartition, DenseVec, SparseVec, sparse_dot
from .problem import (
    Dataset,
    LossKind,
    Problem,
    Regularizer,
    SparseExample,
    VRAnchor,
    full_grad,
    minibatch_grad,
    objective_value,
    prox_elastic,
    vr_gradient,
)
from .seq_solvers import (
    RunTrace,
    SolverConfig,
    StageRecord,
    prox_scd_run,
    prox_sgd_run,
    prox_svrcd_run,
    prox_svrg_run,
)
from .async_engine import (
    AsyncReport,
    DelaySchedule,
    MasterState,
    SimulateMode,
    ThreadsMode,
    async_svrcd_run,
    async_svrg_run,
    read_consistent,
    read_inconsistent,
    sample_delay_schedule,
)
from .theory import (
    ProblemConstants,
    Speedup,
    data_sparsity_delta,
    estimate_lipschitz,
    svrcd_rate,
    svrcd_speedup_condition,
    svrcd_stepsize_admissible,
    svrg_rate,
    svrg_speedup_condition,
    svrg_stepsize_admissible,
)

__version__ = "0.1.0"
