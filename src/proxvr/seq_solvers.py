"""Sequential proximal solvers: ProxSGD, ProxSCD, ProxSVRG, ProxSVRCD.

These single-threaded runs are the deterministic references. All four run
the stage loop ``run_stages``, as does the asynchronous engine. ProxSGD is
ProxSCD's one-block case on a sampled mini-batch, and both run one plain
proximal loop; ProxSVRG is ProxSVRCD's one-block case, and both run replay
with no delay schedule, so a zero-delay simulation reproduces them
bit-for-bit. Every solver in every mode draws each stage at once
(``_stage_draws``) from two RNG streams derived from the seed (mini-batch
sampling, block sampling). ``config.eta_decay`` is read by ProxSGD only,
and ``config.m`` by ProxSCD and ProxSVRCD.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, check_int
from .linalg import BlockPartition, DenseVec
from .problem import Problem, prox_elastic


def make_streams(seed: int):
    """(batch_rng, block_rng) pair derived independently from one seed; every
    mode of a run draws from this one pair."""
    children = np.random.SeedSequence(seed).spawn(2)
    return tuple(np.random.Generator(np.random.PCG64(ss)) for ss in children)


def draw_batch(rng, n: int, B: int, with_replacement: bool = True) -> np.ndarray:
    """Sample a mini-batch of indices, i.i.d. or without replacement (then
    sorted). A batch is a multiset: ``minibatch_grad`` sums its distinct
    rows in row order, each weighted by its multiplicity, so under either
    law the FP mean does not depend on the draw order."""
    if with_replacement:
        return rng.integers(0, n, size=B)
    return np.sort(rng.choice(n, size=B, replace=False))


def _stage_draws(streams, n: int, B: int, m: int, K: int, with_replacement: bool):
    """A stage's K updates' draws from the run's ``(batch_rng, block_rng)``:
    the rows as one (K, B) array and the blocks as one ``integers(0, m,
    size=K)`` list (all 0 for m = 1, which draws nothing). Under either
    sampling law these are the values of K draws of one update each."""
    batch_rng, block_rng = streams
    if with_replacement:
        rows = batch_rng.integers(0, n, size=(K, B))
    else:
        rows = np.array([draw_batch(batch_rng, n, B, False) for _ in range(K)],
                        dtype=np.int64).reshape(K, B)
    blocks = block_rng.integers(0, m, size=K).tolist() if m > 1 else [0] * K
    return rows, blocks


@dataclass
class SolverConfig:
    """Shared solver knobs.

    eta        -- step size (> 0)
    B          -- mini-batch size, 1 <= B <= n
    K          -- inner updates per stage (trace period for SGD/SCD)
    S          -- number of stages (= max stages under early stopping)
    m          -- coordinate block count, 1 <= m <= d; read by ProxSCD,
                  ProxSVRCD and Async-ProxSVRCD only
    eta_decay  -- optional (eta0, sigma0), read by ProxSGD only, which then
                  uses eta_k = eta0 * sqrt(sigma0 / (k + sigma0))
    seed       -- RNG seed for the batch/block streams
    with_replacement -- mini-batch sampling law (i.i.d. draws by default)
    last_iterate     -- advance stages from the last inner iterate instead of
                        the inner-iterate average (excluded from rate checks)
    """

    eta: float
    B: int
    K: int
    S: int
    m: int = 1
    eta_decay: tuple[float, float] | None = None
    seed: int = 0
    with_replacement: bool = True
    last_iterate: bool = False

    def __post_init__(self):
        """Checks that need no data: NaN fails every range; B and m are
        integers >= 1, and K, S and seed integers >= 0 (K = 0 or S = 0 is an
        explicit no-op run), numpy's too but never bools."""
        if not all(math.isfinite(v) and v > 0 for v in (self.eta, *(self.eta_decay or ()))):
            raise ContractViolation(f"eta and eta_decay must be finite and > 0, got "
                                    f"eta={self.eta}, eta_decay={self.eta_decay}")
        for key, low in (("B", 1), ("m", 1), ("K", 0), ("S", 0), ("seed", 0)):
            check_int(getattr(self, key), key, low)

    def validate(self, n: int, d: int) -> None:
        if self.B > n:
            raise ContractViolation(f"need 1 <= B <= n, got B={self.B}, n={n}")
        if self.m > d:
            raise ContractViolation(f"need 1 <= m <= d, got m={self.m}, d={d}")


@dataclass
class StageRecord:
    stage: int
    objective: float
    seconds: float
    updates: int


@dataclass
class RunTrace:
    records: list[StageRecord] = field(default_factory=list)
    x_final: DenseVec | None = None
    iterates: list[DenseVec] | None = None

    @property
    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]


def run_stages(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    inner,
    *,
    stop_below: float | None = None,
    record_iterates: bool = False,
) -> RunTrace:
    """Stage loop of every solver, in every mode.

    Per stage: ``inner(stage, x_tilde, iterates)`` runs the K inner updates
    (the variance-reduced loops compute their anchor first) and returns the
    last iterate and the sum of the K iterates, or None to advance to the
    last iterate. Then advance to the average, record the stage (the clock
    stops before the objective pass), and stop once the objective reaches
    ``stop_below`` or is not finite (the run diverged). ``x0`` is d finite
    numbers in a 1-D array; the run starts from a float64 copy of it.
    """
    config.validate(problem.n, problem.d)
    x0 = np.asarray(x0)
    if x0.shape != (problem.d,) or x0.dtype.kind not in "iuf" or not np.isfinite(x0).all():
        raise ContractViolation(f"x0 must be a 1-D array of d = {problem.d} finite values, got "
                                f"shape {x0.shape}, dtype {x0.dtype}")
    x_tilde = x0.astype(np.float64)  # a copy; float64 callers keep their bytes
    trace = RunTrace(iterates=[] if record_iterates else None)
    for s in range(1, config.S + 1):
        t0 = time.perf_counter()
        x_last, x_sum = inner(s, x_tilde, trace.iterates)
        average = x_sum is not None and config.K > 0 and not config.last_iterate
        x_tilde = x_sum / config.K if average else x_last
        seconds = time.perf_counter() - t0
        objective = problem.objective(x_tilde)
        trace.records.append(StageRecord(s, objective, seconds, config.K))
        if not math.isfinite(objective) or (stop_below is not None and objective <= stop_below):
            break
    trace.x_final = x_tilde
    return trace


def _plain_run(problem: Problem, config: SolverConfig, x0: DenseVec, sgd: bool,
               stop_below: float | None, record_iterates: bool) -> RunTrace:
    """The plain proximal loop of ProxSGD (``sgd``) and ProxSCD. Each update
    proxes block j of the run's iterate in place: ProxSCD takes the exact
    gradient on ``config.m`` blocks with the constant step; ProxSGD, its
    one-block case, a sampled mini-batch gradient with the ``eta_decay``
    step. Each stage advances to its last iterate."""
    B, m = (config.B, 1) if sgd else (0, config.m)  # ProxSCD draws no rows
    bounds = BlockPartition.equal(problem.d, m).bounds.tolist()
    streams = make_streams(config.seed)
    decay = config.eta_decay if sgd else None

    def inner(s, x, iterates):
        rows, blocks = _stage_draws(streams, problem.n, B, m, config.K, config.with_replacement)
        for k, (batch, j) in enumerate(zip(rows, blocks), (s - 1) * config.K):
            eta = config.eta if decay is None else decay[0] * np.sqrt(decay[1] / (k + decay[1]))
            g = problem.minibatch_grad(batch, x) if sgd else problem.full_grad(x)
            lo, hi = bounds[j], bounds[j + 1]
            x[lo:hi] = prox_elastic(x[lo:hi] - eta * g[lo:hi], eta, problem.reg)
            if iterates is not None:
                iterates.append(x.copy())
        return x, None

    return run_stages(problem, config, x0, inner, stop_below=stop_below,
                      record_iterates=record_iterates)


def prox_sgd_run(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    *,
    stop_below: float | None = None,
    record_iterates: bool = False,
) -> RunTrace:
    """Proximal SGD: x <- prox_{eta_k R}(x - eta_k * grad f_B(x)).

    Runs S*K updates with a trace record every K; the step decays per
    ``config.eta_decay`` when set, else stays constant.
    """
    return _plain_run(problem, config, x0, True, stop_below, record_iterates)


def prox_scd_run(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    *,
    stop_below: float | None = None,
    record_iterates: bool = False,
) -> RunTrace:
    """Proximal stochastic coordinate descent on the full-data gradient.

    Each update samples one block uniformly, takes a prox step on that block
    using the exact partial gradient of F at the current iterate, and leaves
    every other coordinate bitwise unchanged. ``config.eta_decay`` is unused.
    """
    return _plain_run(problem, config, x0, False, stop_below, record_iterates)


def prox_svrg_run(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    *,
    stop_below: float | None = None,
    record_iterates: bool = False,
) -> RunTrace:
    """Stage-based variance-reduced proximal SGD.

    Each inner update is x <- prox_{eta R}(x - eta * v), with the
    variance-corrected gradient v evaluated at the current iterate; stages
    advance to the average of the K inner iterates. ``config.m`` is unused,
    but must lie in [1, d], and ``config.eta_decay`` is unused."""
    from .async_engine import replay

    return replay(problem, config, x0, True, None, stop_below, record_iterates).trace


def prox_svrcd_run(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    *,
    stop_below: float | None = None,
    record_iterates: bool = False,
) -> RunTrace:
    """Variance-reduced proximal coordinate descent.

    Same stage structure as ``prox_svrg_run``; each inner update additionally
    samples one of ``config.m`` coordinate blocks and applies the prox step on
    that block only. With m = 1 the trajectories coincide bitwise.
    ``config.eta_decay`` is unused.
    """
    from .async_engine import replay

    return replay(problem, config, x0, False, None, stop_below, record_iterates).trace
