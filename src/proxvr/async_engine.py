"""Asynchronous execution of the variance-reduced solvers.

Both algorithms run the sequential stage loop (``run_stages``) on a
delayed, perturbed read of the iterate:

* consistent read (SVRG): one atomic snapshot of the parameter vector,
  possibly ``tau_k`` commits stale; the commit is a whole-vector prox step;
* inconsistent read (SVRCD): blocks from different clocks -- the old iterate
  plus exactly the updates in an applied subset J(k) of the pending window;
  the commit touches one block.

A consistent read is an inconsistent read with J(k) empty, and SVRG is SVRCD
with one block (logged as block -1), so each execution mode has one loop:

* simulate (``replay``): one logical thread replays a pre-drawn delay
  schedule against a master state that updates the iterate in place and
  keeps an undo log of its last tau commits; fully deterministic. With no
  schedule every read is current: that is the sequential ProxSVRG/ProxSVRCD
  solver, which a zero-delay simulation therefore reproduces bit-for-bit.
  A one-row update reads the iterate on the row's support only, computes
  the gradient on the committed block only and commits that block, so it
  costs O(nnz + d/m + tau * nnz) besides the O(d) stage sum; a larger batch
  reads the whole vector and takes its rows and anchor term from the stage's
  batch plan, gathered a chunk of updates at a time, so what is left per
  update is one pass over its rows at the read, O(nnz(batch) + d). A
  stage's rows and blocks are drawn at once, under either sampling law;
* threads: P workers against a block-locked master (one block for SVRG, m
  for SVRCD). Lock order is always block lock -> clock lock; a worker takes
  its clock stamp inside block 0's lock, so one block gives an atomic
  snapshot. Delays are measured from commit-clock stamps.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import BlockPartition, DenseVec
from .problem import Problem, prox_elastic, stage_batches
from .seq_solvers import (RunTrace, SolverConfig, draw_batch, draw_batches, draw_block,
                          make_streams, run_stages)


@dataclass
class DelaySchedule:
    """Pre-drawn per-update delays, plus applied-update subsets for the
    inconsistent read model.

    ``taus[k]`` is the delay of update k (0-based global position); it never
    exceeds ``tau_bound`` nor k itself. ``applied`` is a boolean array of
    shape (length, tau_bound): ``applied[k, o-1]`` means "the update
    committed o clocks before k is already visible", for o in {1..taus[k]}.
    None means empty subsets everywhere.
    """

    taus: np.ndarray
    tau_bound: int
    applied: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.taus, dtype=np.int64)
        object.__setattr__(self, "taus", t)
        if self.tau_bound < 0:
            raise ContractViolation("tau_bound must be >= 0")
        if t.size and (t.min() < 0 or t.max() > self.tau_bound):
            raise ContractViolation("delays must lie in [0, tau_bound]")
        if t.size and np.any(t > np.arange(t.size)):
            raise ContractViolation("delay tau_k cannot exceed the clock k")
        if self.applied is not None:
            applied = np.asarray(self.applied, dtype=bool)
            if applied.shape != (t.size, self.tau_bound):
                raise ContractViolation("applied must have shape (length, tau_bound)")
            if np.any(applied & ~(np.arange(self.tau_bound) < t[:, None])):
                raise ContractViolation("an applied set lies outside its window {1..tau_k}")
            object.__setattr__(self, "applied", applied)

    def __len__(self) -> int:
        return int(self.taus.size)

    @property
    def applied_offsets(self) -> list | None:
        """The offsets o in each applied set J(k), one ascending array per
        update; None when the subsets are empty everywhere."""
        if self.applied is None:
            return None
        return [np.flatnonzero(row) + 1 for row in self.applied]


def sample_delay_schedule(
    kind: str,
    tau: int,
    length: int,
    seed: int,
    *,
    inconsistent: bool = False,
    include_prob: float = 0.5,
) -> DelaySchedule:
    """Draw i.i.d. delays, clipped so tau_k <= k.

    ``kind`` is "constant" (always tau) or "uniform" (uniform on {0..tau}).
    For the inconsistent model each pending update enters J(k) independently
    with probability ``include_prob``; the inclusion uniforms are drawn in
    update order, then offset order.
    """
    if min(tau, length, seed) < 0:
        raise ContractViolation(f"need tau, length, seed >= 0, got {tau}, {length}, {seed}")
    if kind not in ("constant", "uniform"):
        raise ContractViolation(f"unknown delay law {kind!r}")
    if not 0.0 <= include_prob <= 1.0:
        raise ContractViolation(f"include_prob must lie in [0, 1], got {include_prob}")
    rng = np.random.default_rng(seed)
    if kind == "constant":
        raw = np.full(length, tau, dtype=np.int64)
    else:
        raw = rng.integers(0, tau + 1, size=length)
    taus = np.minimum(raw, np.arange(length, dtype=np.int64))
    applied = None
    if inconsistent:
        window = np.arange(tau) < taus[:, None]
        applied = np.zeros_like(window)
        applied[window] = rng.random(int(taus.sum())) < include_prob
    return DelaySchedule(taus, tau, applied)


class MasterState:
    """Simulation-mode master: the current iterate ``x``, updated in place,
    the global clock, the sum of the stage's iterates, and an undo log of the
    last ``tau_bound`` commits for delayed reads.

    A log entry ``(lo, hi, before, after)`` holds the span [lo, hi) a commit
    changed and that span's values before and after it. Writing back the
    ``before`` values of the newer commits rebuilds any retained iterate
    exactly, so a commit costs O(span) and no whole iterate is stored.
    Committed span values are kept by reference and must not be modified
    afterwards."""

    def __init__(self, x0: DenseVec, tau_bound: int):
        self.x = np.array(x0, dtype=np.float64, copy=True)
        self.clock = 0
        self.stage_sum = np.zeros_like(self.x)
        self._log = deque(maxlen=tau_bound)
        self._x_view = self.x.view()  # what a current whole read returns
        self._x_view.flags.writeable = False

    def commit(self, values: DenseVec, span: tuple[int, int] | None = None) -> None:
        """Apply one update. ``span = (lo, hi)`` promises that only [lo, hi)
        changes; ``values`` is either that span's new values or a whole new
        iterate, equal to the current one outside the span. None means the
        whole vector may have changed."""
        lo, hi = (0, self.x.size) if span is None else span
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != hi - lo:
            values = values[lo:hi].copy()
        if self._log.maxlen:
            self._log.append((lo, hi, self.x[lo:hi].copy(), values))
        self.x[lo:hi] = values
        self.clock += 1
        self.stage_sum += self.x

    def iterate_at(self, clock_idx: int) -> DenseVec:
        """The iterate as of clock ``clock_idx`` (0 = stage start), as
        ``read`` returns it."""
        return self.read(self.clock - clock_idx, ())

    def read(self, tau_k: int, applied, coords=None) -> DenseVec:
        """The iterate from ``tau_k`` commits ago plus exactly the updates in
        ``applied`` (absolute update indices inside the window
        {clock - tau_k .. clock - 1}).

        The old iterate is rebuilt from the undo log; then the updates are
        applied in order, each on the span its commit changed only. Where the
        running view still bitwise-equals the pre-update iterate the update
        lands by substitution, which keeps the all-applied case exactly equal
        to the current iterate. This equals the same substitution over the
        whole vector except, possibly, in the sign of zero coordinates, which
        no gradient can see.

        ``coords``, sorted coordinate indices, restricts the read to those
        coordinates and returns their values in that order; None reads every
        coordinate. Each span's share of ``coords`` is found by
        ``searchsorted``, so reading a row's support costs
        O(nnz + tau_k * nnz), not O(d). Only the oldest log entry of each
        span is written back, and none newer than a whole-vector entry, so
        over block commits a whole-vector read costs one copy of ``x`` and at
        most one write per coordinate.

        The result is a new array unless one stored array already holds it:
        ``x`` for ``tau_k = 0``, or the pre-image of a whole-vector commit.
        That array comes back as a read-only view, without copying; a view
        of ``x`` changes at the next commit.
        """
        if tau_k < 0:
            raise ContractViolation("tau_k must be >= 0")
        start = self.clock - tau_k
        if tau_k > len(self._log):
            raise ContractViolation(
                f"clock {start} not retained (clock={self.clock}, "
                f"history={len(self._log) + 1})"
            )
        applied = sorted(map(int, applied))
        if applied and (applied[0] < start or applied[-1] >= self.clock):
            raise ContractViolation(
                f"applied updates {applied} outside window [{start}, {self.clock - 1}]"
            )
        if not tau_k:
            return self._x_view if coords is None else self.x[coords]
        window = list(self._log)[-tau_k:]  # oldest first
        # a coordinate takes the pre-value of the oldest commit that changed
        # it: write back the oldest entry of each span, newest first, and
        # none newer than one that spans all of x
        rebuild, spans = [], set()
        for i, (lo, hi, before, _) in enumerate(window):
            if (lo, hi) not in spans:
                spans.add((lo, hi))
                rebuild.append(i)
                if hi - lo == self.x.size:
                    break
        if coords is None and hi - lo == self.x.size:  # the loop stopped there
            rebuild.pop()
            if not (rebuild or applied):
                view = before.view()
                view.flags.writeable = False
                return view
            xhat = before.copy()
        else:
            xhat = self.x.copy() if coords is None else self.x[coords]
        # (positions in xhat, offsets into the entry's arrays) of each span
        if coords is None:
            where = [(slice(lo, hi), slice(None)) for lo, hi, _, _ in window]
        else:
            cuts = coords.searchsorted([entry[:2] for entry in window]).tolist()
            where = [(slice(p, q), coords[p:q] - entry[0])
                     for (p, q), entry in zip(cuts, window)]
        for i in reversed(rebuild):
            pos, off = where[i]
            xhat[pos] = window[i][2][off]
        for h in applied:
            _, _, before, after = window[h - start]
            pos, off = where[h - start]
            before, after, view = before[off], after[off], xhat[pos]
            landed = view == before
            view += after - before
            np.copyto(view, after, where=landed)
        return xhat


def read_consistent(state: MasterState, tau_k: int) -> DenseVec:
    """Atomic snapshot of the full iterate from ``tau_k`` commits ago: the
    inconsistent read with no applied updates."""
    return state.read(tau_k, ())


def read_inconsistent(state: MasterState, tau_k: int, applied, coords=None) -> DenseVec:
    """Block-mixed view: the iterate from ``tau_k`` commits ago plus exactly
    the updates in ``applied``, on ``coords`` (sorted) or on every
    coordinate; see ``MasterState.read``."""
    return state.read(tau_k, applied, coords)


@dataclass(frozen=True)
class SimulateMode:
    schedule: DelaySchedule


@dataclass(frozen=True)
class ThreadsMode:
    workers: int
    declared_tau: int | None = None  # the tau used to pick eta, if any


@dataclass
class CommitRecord:
    stage: int
    clock: int
    worker: int
    block: int  # -1 for whole-vector commits
    delay: int
    block_values: np.ndarray | None = None


@dataclass
class AsyncReport:
    """RunTrace plus the observed delay of every commit, its statistics, and
    per-worker update counts."""

    trace: RunTrace
    delays: np.ndarray  # one per commit, in commit order
    worker_updates: list
    declared_tau: int | None = None
    commit_log: list | None = None

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=np.int64)

    @property
    def total_commits(self) -> int:
        return int(self.delays.size)

    @property
    def delay_mean(self) -> float:
        return float(self.delays.mean()) if self.delays.size else 0.0

    @property
    def delay_max(self) -> int:
        return int(self.delays.max()) if self.delays.size else 0

    @property
    def delay_histogram(self) -> np.ndarray:
        return np.bincount(self.delays, minlength=1)

    @property
    def stage_mean_delays(self) -> list:
        """Mean delay of each recorded stage's commits (0.0 for K = 0)."""
        ends = np.cumsum([r.updates for r in self.trace.records], dtype=np.int64)
        return [float(d.mean()) if d.size else 0.0 for d in np.split(self.delays, ends)[:-1]]

    @property
    def mean_delay_exceeded(self) -> bool:
        return self.declared_tau is not None and self.delay_mean > self.declared_tau


def format_commit_log(log) -> str:
    """Line-oriented `clock,worker_id,block_id_or_-1,delay` records."""
    return "\n".join(f"{r.clock},{r.worker},{r.block},{r.delay}" for r in log)


def async_svrg_run(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    mode,
    *,
    stop_below: float | None = None,
    record_iterates: bool = False,
    debug: bool = False,
) -> AsyncReport:
    """Asynchronous SVRG under the consistent (whole-vector) read model;
    ``config.m`` is ignored."""
    return _run(problem, config, x0, mode, True, stop_below, record_iterates, debug)


def async_svrcd_run(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    mode,
    *,
    stop_below: float | None = None,
    record_iterates: bool = False,
    debug: bool = False,
) -> AsyncReport:
    """Asynchronous SVRCD under the inconsistent (block-level) read model."""
    return _run(problem, config, x0, mode, False, stop_below, record_iterates, debug)


def _run(problem, config, x0, mode, svrg, stop_below, record_iterates, debug):
    if isinstance(mode, SimulateMode):
        need = config.S * config.K
        if len(mode.schedule) < need:
            raise ContractViolation(f"schedule length {len(mode.schedule)} < S*K = {need}")
        return replay(problem, config, x0, svrg, mode.schedule, stop_below, record_iterates,
                      debug)
    if isinstance(mode, ThreadsMode):
        if mode.workers < 1:
            raise ContractViolation("need at least one worker")
        return _threads(problem, config, x0, svrg, mode, stop_below, debug)
    raise ContractViolation(f"unknown mode {mode!r}")


# --------------------------------------------------------------------------
# single-thread replay (simulate mode; sequential solvers with no schedule)
# --------------------------------------------------------------------------

def replay(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    svrg: bool,
    schedule: DelaySchedule | None,
    stop_below: float | None = None,
    record_iterates: bool = False,
    debug: bool = False,
) -> AsyncReport:
    """One logical thread replays ``schedule`` against a MasterState: SVRG
    (``svrg``) with one block, else SVRCD with ``config.m`` blocks; with
    ``schedule=None`` every read is current and this is the sequential
    ProxSVRG/ProxSVRCD solver.

    A one-row update reads the iterate on the row's support only and
    computes the gradient on the committed block only, so it costs
    O(nnz + d/m + tau * nnz) plus the O(d) stage sum. A larger batch reads
    the whole vector and passes ``vr_grad`` its entry of the stage's batch
    plan (``problem.stage_batches``): its rows, gathered with those of a
    chunk of consecutive updates, and its anchor term, from the stage's
    cached coefficients. The update computes the dot products at the read,
    one scatter and the substitution rule: O(nnz(batch) + d).

    A stage's rows come from one ``draw_batches`` call and its blocks from
    one ``integers(0, m, size=K)``; under either sampling law these give the
    values of K draws of one update each."""
    m = 1 if svrg else config.m  # SVRG is the one-block case of SVRCD
    part = BlockPartition.equal(problem.d, m)
    bounds = [part.block_bounds(j) for j in range(m)]
    batch_rng, block_rng = make_streams(config.seed)
    tau_bound = 0 if schedule is None else schedule.tau_bound
    # SVRG reads consistently: its applied sets are empty whatever the schedule
    applied_sets = None if schedule is None or svrg else schedule.applied
    eta, B, K, n = config.eta, config.B, config.K, problem.n
    indptr, indices = problem.dataset.indptr, problem.dataset.indices
    delays, log = [], ([] if debug else None)
    g = 0  # global update index into the schedule

    def inner(s, x_tilde, iterates):
        nonlocal g
        anchor = problem.make_anchor(x_tilde)
        state = MasterState(x_tilde, tau_bound)
        blocks = block_rng.integers(0, m, size=K).tolist() if m > 1 else [0] * K
        rows = draw_batches(batch_rng, n, B, K, config.with_replacement)
        batches = stage_batches(problem.dataset, anchor, rows)
        for k, (j, (batch, planned)) in enumerate(zip(blocks, batches)):
            # full-gradient phase is a barrier: delays never reach past the
            # stage start
            tau = 0 if schedule is None else min(int(schedule.taus[g]), k)
            applied = ()
            if applied_sets is not None:
                # offset o is column o - 1 and names the commit at clock - o
                applied = [k - o for o in range(1, tau + 1) if applied_sets[g, o - 1]]
            lo, hi = bounds[j]
            if planned is None:  # one row: support read, block gradient
                i = int(batch[0])
                x_read = read_inconsistent(state, tau, applied, indices[indptr[i]:indptr[i + 1]])
                u = problem.vr_grad(batch, x_read, anchor, (lo, hi))
            else:
                x_read = read_inconsistent(state, tau, applied)
                u = problem.vr_grad(batch, x_read, anchor, None, planned)[lo:hi]
            state.commit(prox_elastic(state.x[lo:hi] - eta * u, eta, problem.reg), (lo, hi))
            delays.append(tau)
            if iterates is not None:
                iterates.append(state.x.copy())
            if log is not None:
                log.append(CommitRecord(s, state.clock, 0, -1 if svrg else j, tau))
            g += 1
        return state.x, state.stage_sum

    trace = run_stages(problem, config, x0, inner, stop_below=stop_below,
                       record_iterates=record_iterates)
    return AsyncReport(trace, delays, [len(delays)], tau_bound, log)


# --------------------------------------------------------------------------
# threads mode
# --------------------------------------------------------------------------

def _threads(problem, config, x0, svrg, mode, stop_below, debug):
    P = mode.workers
    streams = [make_streams(child) for child in np.random.SeedSequence(config.seed).spawn(P)]
    m = 1 if svrg else config.m
    part = BlockPartition.equal(problem.d, m)
    bounds = [part.block_bounds(j) for j in range(m)]
    eta = config.eta
    delays, worker_updates = [], [0] * P
    log = [] if debug else None

    def inner(s, x_tilde, iterates):
        anchor = problem.make_anchor(x_tilde)
        x = x_tilde.copy()
        stage_sum = np.zeros_like(x)
        # lock order block -> clock; the ticket and clock stamp are taken
        # inside block 0's lock, so a one-block pull is an atomic snapshot
        block_locks = [threading.Lock() for _ in range(m)]
        clock_lock = threading.Lock()
        shared = {"clock": 0, "tickets": config.K}
        # first iterate (clock >= 1) at which each block's value is current
        since = [1] * m

        def run_worker(wid):
            batch_rng, block_rng = streams[wid]
            while True:
                x_hat = np.empty(problem.d)
                for jj, (lo, hi) in enumerate(bounds):
                    with block_locks[jj]:
                        if jj == 0:
                            with clock_lock:
                                if shared["tickets"] == 0:
                                    return
                                shared["tickets"] -= 1
                                pulled_at = shared["clock"]
                        x_hat[lo:hi] = x[lo:hi]
                batch = draw_batch(batch_rng, problem.n, config.B, config.with_replacement)
                jk = draw_block(block_rng, m) if m > 1 else 0
                u = problem.vr_grad(batch, x_hat, anchor)
                lo, hi = bounds[jk]
                with block_locks[jk]:
                    new_block = prox_elastic(x[lo:hi] - eta * u[lo:hi], eta, problem.reg)
                    with clock_lock:
                        shared["clock"] += 1
                        t_commit = shared["clock"]
                        delay = (t_commit - 1) - pulled_at
                        delays.append(delay)
                        worker_updates[wid] += 1
                    # lazy stage sum: the old block value was current in
                    # the iterates since[jk] .. t_commit - 1
                    stage_sum[lo:hi] += x[lo:hi] * (t_commit - since[jk])
                    x[lo:hi] = new_block
                    since[jk] = t_commit
                    if log is not None:
                        log.append(CommitRecord(s, t_commit, wid, -1 if svrg else jk, delay,
                                                new_block))

        threads = [threading.Thread(target=run_worker, args=(w,)) for w in range(P)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for jj, (lo, hi) in enumerate(bounds):
            stage_sum[lo:hi] += x[lo:hi] * (config.K + 1 - since[jj])
        return x, stage_sum

    trace = run_stages(problem, config, x0, inner, stop_below=stop_below)
    return AsyncReport(trace, delays, worker_updates, mode.declared_tau, log)
