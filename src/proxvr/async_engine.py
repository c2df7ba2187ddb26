"""Asynchronous execution of the variance-reduced solvers.

Both algorithms run the sequential stage loop (``run_stages``) on a
delayed, perturbed read of the iterate:

* consistent read (SVRG): one atomic snapshot of the parameter vector,
  possibly ``tau_k`` commits stale; the commit is a whole-vector prox step;
* inconsistent read (SVRCD): blocks from different clocks -- the old iterate
  plus exactly the updates in an applied subset J(k) of the pending window;
  the commit touches one block.

A consistent read is an inconsistent read with J(k) empty, and SVRG is SVRCD
with one block (logged as block -1). Every mode is one run (``replay``). Per
stage it sets up one update rule (``_stage_rule``), one ``MasterState`` over
the run's partition, one draw of the rows and blocks from the run's two
streams (``seq_solvers._stage_draws``, through which every solver draws a
stage) and one batch plan (``stage_batches``). Every commit replaces one
block, advances the clock and adds the block's old values, times the commits
they were held for, to the stage sum, in O(d/m), through one function that
also records it. Only the driver of a stage's K updates differs:

* serial (sequential and simulate): one logical thread replays a pre-drawn
  delay schedule against the master's undo log of its last tau commits;
  fully deterministic. With no schedule every read is current: that is the
  sequential ProxSVRG/ProxSVRCD solver, which a zero-delay simulation
  therefore reproduces bit-for-bit. Every delayed read, of the whole vector
  or of a row's support, follows one rule per block (``MasterState.read``);
* threads (``_run_workers``): P workers, with no undo log, started once per
  run as a thread pool, with the block, clock and plan locks made once; each
  stage submits P tasks and waits for them. A worker's ticket k is its
  update's index: it takes the stage's draws and plan entry k. It pulls the
  whole iterate (one row: its support, each block under its lock),
  computes its gradient outside any lock, then steps and commits its block
  holding the block's lock and then the clock lock: the lock order is
  always block -> clock. The ticket and pull clock are taken inside block
  0's lock, so one block gives an atomic snapshot; a commit's delay is the
  commits between its pull and itself. The plan is advanced under its own
  leaf lock, never held with another lock.

So P workers commit the sequential solver's multiset of (batch, block) in
every stage, and one worker walks its trajectory bit for bit.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ContractViolation, check_int
from .linalg import BlockPartition, DenseVec
from .problem import (Problem, RowBlocks, _prox, _prox_weights, _vr_row, entry_terms,
                      stage_batches, vr_gradient)
from .problem import prox_elastic  # noqa: F401  perfbench spans async_engine.prox_elastic
from .seq_solvers import RunTrace, SolverConfig, _stage_draws, make_streams, run_stages


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
        object.__setattr__(self, "tau_bound", check_int(self.tau_bound, "tau_bound"))
        if t.ndim != 1:
            raise ContractViolation(f"taus must be 1-D, got shape {t.shape}")
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
    include_prob: float | None = None,
) -> DelaySchedule:
    """Draw i.i.d. delays, clipped so tau_k <= k.

    ``kind`` is "constant" (always tau) or "uniform" (uniform on {0..tau}).
    For the inconsistent model each pending update enters J(k) independently
    with probability ``include_prob`` (None is 0.5); the inclusion uniforms
    are drawn in update order, then offset order.
    """
    for key, value in (("tau", tau), ("length", length), ("seed", seed)):
        check_int(value, key)
    if kind not in ("constant", "uniform"):
        raise ContractViolation(f"unknown delay law {kind!r}")
    if include_prob is None:
        include_prob = 0.5
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
    """Master over the blocks of one ``BlockPartition``
    (``part``; None is one block, the whole vector): the current iterate
    ``x``, updated in place, the global clock, the sum of the stage's
    iterates, and an undo log of the last ``tau_bound`` commits for delayed
    reads.

    A commit replaces one block, and its log entry ``(block, before,
    after)`` holds that block's values before and after it, so a commit
    costs O(d/m) and no whole iterate is stored. Committed values are kept
    by reference and must not be modified afterwards, so ``before`` is the
    block's last committed values where they are held, else a copy.
    ``rows``, a ``RowBlocks`` over the same partition, lets ``read`` read
    one row's support.

    The stage sum is kept per block: before a block is overwritten, its
    values times the commits they were held for go into a partial sum (a
    plain add for one commit: with one block, the running sum of the
    iterates, bit for bit)."""

    def __init__(self, x0: DenseVec, tau_bound: int, part: BlockPartition | None = None,
                 rows: RowBlocks | None = None):
        tau_bound = check_int(tau_bound, "tau_bound")
        self.x = np.array(x0, dtype=np.float64, copy=True)
        bounds = [0, self.x.size] if part is None else part.edges  # listed once per run
        if bounds[-1] != self.x.size or not (rows is None or rows.bounds is getattr(
                part, "bounds", None) or np.array_equal(rows.bounds, bounds)):
            raise ContractViolation(f"the blocks (and rows) must partition [0, {self.x.size})")
        self._bounds = bounds
        self._widths = np.diff(bounds if part is None else part.bounds)
        self._rows = rows
        self.clock = 0
        self._partial = np.zeros_like(self.x)
        self._since = [0] * (len(bounds) - 1)  # the clock of each block's values
        self._log = deque(maxlen=tau_bound)
        self._held = {}  # block -> its last committed values, for at most tau blocks
        self._x_view = self.x.view()  # what a current whole read returns
        self._x_view.flags.writeable = False

    @property
    def stage_sum(self) -> DenseVec:
        """The sum of the iterates after each commit so far, in a new array;
        reading it changes no state."""
        total = np.repeat(self.clock - np.array(self._since, dtype=np.float64), self._widths)
        return np.add(np.multiply(total, self.x, out=total), self._partial, out=total)

    def _settle(self, block: int) -> DenseVec:
        """Add block ``block``'s values, times the commits they were held
        for, to the partial sum; return ``x``'s view of the block, free to overwrite."""
        lo, hi = self._bounds[block], self._bounds[block + 1]
        held = self.clock - self._since[block]
        if held:
            self._partial[lo:hi] += self.x[lo:hi] if held == 1 else held * self.x[lo:hi]
            self._since[block] = self.clock
        return self.x[lo:hi]

    def commit(self, values: DenseVec, block: int = 0) -> None:
        """Apply one update to block ``block``: ``values`` are the block's
        new values. Any other length is refused before anything changes."""
        block = check_int(block, "block", 0, len(self._bounds) - 1)
        lo, hi = self._bounds[block], self._bounds[block + 1]
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (hi - lo,):
            raise ContractViolation(f"a commit to block {block} takes {hi - lo} values, "
                                    f"got shape {values.shape}")
        self._commit(values, block)

    def _commit(self, values: np.ndarray, block: int) -> None:
        """``commit`` without its checks."""
        lo, hi = self._bounds[block], self._bounds[block + 1]
        log, held = self._log, self._held
        if log.maxlen:
            before = held.pop(block, None)
            if len(held) >= log.maxlen:
                held.clear()
            log.append((block, self.x[lo:hi].copy() if before is None else before, values))
            held[block] = values
        self._settle(block)
        self.x[lo:hi] = values
        self.clock += 1

    def read(self, tau_k: int, applied, row: int | None = None) -> DenseVec:
        """The iterate from ``tau_k`` commits ago plus exactly the updates in
        ``applied`` (distinct absolute update indices in the window {clock -
        tau_k .. clock - 1}), on every coordinate or on row ``row``'s
        support, in index order (a state built with ``rows``).

        Each block is read on its own, from its commits in the window,
        oldest first: while they are all applied the read keeps the current
        values; the first one that is not applied writes back its before
        values, and only the applied commits after it are substituted (the
        after value where the read still equals the before value, else the
        difference added). Wherever no before value is NaN, this gives the
        bits of substituting every applied update into the old iterate over
        the whole vector, except possibly the sign of a zero, which no
        gradient can see; with one block, every bit. A row read takes each
        commit's share of the row from ``rows``' spans, in O(nnz(row) * (1 +
        tau_k)).

        A current whole read returns ``x`` as a read-only view, which
        changes at the next commit. With one block, a whole read whose
        oldest unapplied commit has no applied commit after it returns that
        commit's logged before values, read-only. Every other read is a new
        array."""
        if type(tau_k) is not int or not 0 <= tau_k <= len(self._log):
            tau_k = check_int(tau_k, "tau_k (commits retained)", 0, len(self._log) + 1)
        start = self.clock - tau_k
        applied = [h if type(h) is int else check_int(h, "an applied update", 0, self.clock)
                   for h in applied]
        applied.sort()
        if applied and (applied[0] < start or applied[-1] >= self.clock
                        or len(set(applied)) < len(applied)):
            raise ContractViolation(f"applied updates {applied} must lie in the window "
                                    f"[{start}, {self.clock - 1}] without a repeat")
        if row is not None and self._rows is None:
            raise ContractViolation("a row read needs a state built with rows")
        if row is not None and (type(row) is not int or not 0 <= row < self._rows.indptr.size - 1):
            row = check_int(row, "row", 0, self._rows.indptr.size - 1)
        return self._read(tau_k, [self.clock - o in applied for o in range(1, tau_k + 1)], row)

    def _read(self, tau_k: int, flags, row: int | None) -> DenseVec:
        """``read`` without its checks: ``flags[o - 1]`` says whether the
        commit ``o`` clocks ago is applied, for o in 1..tau_k."""
        rows, log = self._rows, self._log
        if row is None:
            if not tau_k:
                return self._x_view
            if len(self._bounds) == 2:
                o = tau_k  # the oldest unapplied commit
                while o and flags[o - 1]:
                    o -= 1
                if o and not any(flags[:o - 1]):  # none after it applied: its before values
                    before = log[-o][1].view()
                    before.setflags(write=False)
                    return before
            xhat = self.x.copy()
        else:
            cut = None if rows.cuts is None else rows.cuts[row]
            first, end = rows.indptr[row:row + 2].tolist() if cut is None else (cut[0], cut[-1])
            xhat = self.x[rows.indices[first:end]]
            if not tau_k:
                return xhat
        bounds, behind = self._bounds, set()  # blocks whose first unapplied commit was undone
        for o in range(tau_k, 0, -1):
            j, before, after = log[-o]
            if row is None:
                view, off = xhat[bounds[j]:bounds[j + 1]], slice(None)
            else:
                p, q = rows.span(row, j) if cut is None else (cut[j], cut[j + 1])
                if p == q:
                    continue
                view, off = xhat[p - first:q - first], rows.offsets[p:q]
            if not flags[o - 1]:
                if j not in behind:
                    behind.add(j)
                    view[...] = before[off]
            elif j in behind:
                before, after = before[off], after[off]
                landed = view == before
                view += after - before
                np.copyto(view, after, where=landed)
        return xhat


def read_consistent(state: MasterState, tau_k: int) -> DenseVec:
    """Atomic snapshot of the full iterate from ``tau_k`` commits ago: the
    inconsistent read with no applied updates."""
    return state.read(tau_k, ())


def read_inconsistent(state: MasterState, tau_k: int, applied, row=None) -> DenseVec:
    """Block-mixed view: the iterate from ``tau_k`` commits ago plus exactly
    the updates in ``applied``, on every coordinate or on row ``row``'s
    support; see ``MasterState.read``."""
    return state.read(tau_k, applied, row)


@dataclass(frozen=True)
class SimulateMode:
    schedule: DelaySchedule


@dataclass(frozen=True)
class ThreadsMode:
    """P = ``workers`` OS threads, an integer in [1, ``MAX_WORKERS``] (numpy
    integers too), stored as an int."""

    workers: int

    MAX_WORKERS: ClassVar[int] = 64

    def __post_init__(self):
        object.__setattr__(self, "workers", check_int(self.workers, "workers", 1,
                                                      self.MAX_WORKERS + 1))


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
    ``config.m`` is unused, but must lie in [1, d], and ``config.eta_decay``
    is unused."""
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
    """Asynchronous SVRCD under the inconsistent (block-level) read model;
    ``config.eta_decay`` is unused."""
    return _run(problem, config, x0, mode, False, stop_below, record_iterates, debug)


def _run(problem, config, x0, mode, svrg, stop_below, record_iterates, debug):
    if isinstance(mode, SimulateMode):
        mode = mode.schedule
    elif not isinstance(mode, ThreadsMode):
        raise ContractViolation(f"unknown mode {mode!r}")
    return replay(problem, config, x0, svrg, mode, stop_below, record_iterates, debug)


def _stage_rule(problem: Problem, eta: float, x_tilde: DenseVec, bounds: list,
                rows: RowBlocks | None, settle=None):
    """A stage's anchor at ``x_tilde`` and its update rule ``(anchor, grad,
    step)`` over the partition ``bounds`` (a list). ``grad(batch, j, read,
    planned)`` is eta times the variance-corrected gradient on block j:
    with ``rows`` (the run's ``RowBlocks``; one-row batches) from the read
    on the row's support, on the row's entries in the block only, as ``(p,
    q, values)`` for the stored entries p..q-1; else from a whole read and
    the batch's stage-plan entry. ``step(x, j, g)`` proxes block j's ``x -
    g`` (``x - eta * anchor.base`` off a row's entries), from the current
    ``x``, in a new buffer or, given ``settle`` (``MasterState._settle``),
    in place in ``x``. The entry terms, ``eta * anchor.base``, the prox
    weights and the rows' pointers and labels (lists) are made once per stage."""
    anchor = problem.make_anchor(x_tilde)
    kind, dataset = problem.loss, problem.dataset
    shrink, scale = _prox_weights(eta, problem.reg)
    if rows is not None:
        terms = entry_terms(dataset, anchor)
        step_base = eta * anchor.base
        indices, offsets, span = rows.indices, rows.offsets, rows.span
        data, ptr, labels = dataset.data, dataset.indptr.tolist(), dataset.labels.tolist()

    def grad(batch, j, read, planned):
        if rows is None:
            u = vr_gradient(kind, dataset, batch, read, anchor, planned)[bounds[j]:bounds[j + 1]]
        else:
            i = batch[0]
            p, q = span(i, j)
            u = _vr_row(kind, data, ptr[i], ptr[i + 1], labels[i], read, p, q, terms)
        u *= eta
        return u if rows is None else (p, q, u)

    def step(x, j, g):
        lo, hi = bounds[j], bounds[j + 1]
        out = None if settle is None else settle(j)  # x[lo:hi], once the stage sum has it
        if rows is None:
            # a buffer of the block's size for the undo log: g views the gradient
            y = np.subtract(x[lo:hi], g, out=out)
        else:
            p, q, u = g
            on_row = x[indices[p:q]] - u  # read before an in-place step writes x
            y = np.subtract(x[lo:hi], step_base[lo:hi], out=out)
            y[offsets[p:q]] = on_row
        return _prox(y, shrink, scale, y)

    return anchor, grad, step


# --------------------------------------------------------------------------
# the run of every mode, with its two drivers
# --------------------------------------------------------------------------

def replay(
    problem: Problem,
    config: SolverConfig,
    x0: DenseVec,
    svrg: bool,
    mode: DelaySchedule | ThreadsMode | None,
    stop_below: float | None = None,
    record_iterates: bool = False,
    debug: bool = False,
) -> AsyncReport:
    """The run of every mode, against a MasterState over the run's
    partition: SVRG (``svrg``) with one block, else SVRCD with ``config.m``
    blocks. ``mode`` is None (every read is current: the sequential
    ProxSVRG/ProxSVRCD solver), a ``DelaySchedule`` (one logical thread
    replays it; at least S*K delays) or a ``ThreadsMode`` (P workers,
    started once per run; ``_run_workers``).

    A one-row update reads the iterate on the row's support and steps its
    block by the row-block index (``RowBlocks``, built once per run): O(nnz
    + d/m + tau * nnz), the stage sum included. A larger batch reads the
    whole vector and steps with its entry of the stage's batch plan
    (``problem.stage_batches``), gathered a chunk of updates at a time or,
    for a batch of at least n rows, every stored row weighted by its
    multiplicity: O(nnz(batch) + d), or O(nnz + d) for a wide batch. The
    serial driver reads through ``MasterState._read``, since the schedule
    was checked when it was made; both commit through ``MasterState._commit``,
    since ``step`` makes the block's values. With no undo log and no
    ``debug`` log the serial driver keeps no commit's values, so it proxes in
    place, adding the block's old values to the stage sum first; a threads
    worker never does, because its commit adds them at the clock it commits at."""
    if not (mode is None or isinstance(mode, (DelaySchedule, ThreadsMode))):
        raise ContractViolation(f"unknown mode {mode!r}")
    threads = isinstance(mode, ThreadsMode)
    schedule = None if threads else mode
    if schedule is not None and len(schedule) < config.S * config.K:
        raise ContractViolation(f"schedule length {len(schedule)} < S*K = "
                                f"{config.S * config.K}")
    m = 1 if svrg else config.m  # SVRG is the one-block case of SVRCD
    part = BlockPartition.equal(problem.d, m)
    bounds = part.edges
    streams = make_streams(config.seed)
    tau_bound = 0 if schedule is None else schedule.tau_bound
    # SVRG reads consistently: its applied sets are empty whatever the schedule
    applied_sets = None if schedule is None or svrg else schedule.applied
    B, K = config.B, config.K
    row_blocks = RowBlocks.build(problem.dataset, part) if B == 1 else None
    in_place = not (threads or tau_bound or debug)
    delays, worker_updates = [], [0] * (mode.workers if threads else 1)
    log = [] if debug else None

    def inner(s, x_tilde, iterates):
        state = MasterState(x_tilde, tau_bound, part, row_blocks)
        anchor, grad, step = _stage_rule(problem, config.eta, x_tilde, bounds, row_blocks,
                                         state._settle if in_place else None)
        x = state.x
        rows, blocks = _stage_draws(streams, problem.n, B, m, K, config.with_replacement)
        batches = stage_batches(problem.dataset, anchor, rows)

        def commit(new, j, delay, worker=0):
            state._commit(new, j)
            delays.append(delay)
            worker_updates[worker] += 1
            if iterates is not None:
                iterates.append(x.copy())
            if log is not None:
                log.append(CommitRecord(s, state.clock, worker, -1 if svrg else j, delay, new))

        if threads:
            _run_workers(pool, mode.workers, locks, state, bounds, row_blocks, grad, step,
                         blocks, rows, batches, commit)
            return x, state.stage_sum
        read = state._read
        g = (s - 1) * K  # the stage's first update in the schedule
        taus = [0] * K if schedule is None else schedule.taus[g:g + K].tolist()
        # update k's flags: offset o is column o - 1 and names the commit at clock - o
        included = ([(False,) * tau_bound] * K if applied_sets is None
                    else applied_sets[g:g + K].tolist())
        for k, (j, (batch, planned)) in enumerate(zip(blocks, batches)):
            # full-gradient phase is a barrier: delays never reach past the
            # stage start
            tau = min(taus[k], k)
            # one row reads its support
            x_read = read(tau, included[k], None if row_blocks is None else batch[0])
            commit(step(x, j, grad(batch, j, x_read, planned)), j, tau)
        return x, state.stage_sum

    if threads:  # imported here only: concurrent.futures loads logging, ~0.4 MB of RSS
        from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(mode.workers) if threads else nullcontext()
    locks = [threading.Lock() for _ in range(m + 2)] if threads else None
    with pool:
        trace = run_stages(problem, config, x0, inner, stop_below=stop_below,
                           record_iterates=record_iterates)
    return AsyncReport(trace, delays, worker_updates, log)


def _run_workers(pool, P, locks, state, bounds, row_blocks, grad, step, blocks, rows, batches,
                 commit):
    """A stage's K updates (``blocks``, ``rows`` and their plan ``batches``)
    by P tasks on the run's ``pool`` against ``state``, with the run's
    ``locks`` (per block, then clock and plan), as the module docstring sets
    out. The first error a worker raises stops the remaining tickets, and is
    raised here once every worker has returned."""
    x, K = state.x, len(blocks)
    *block_locks, clock_lock, plan_lock = locks
    tickets, plan, failed = [0], [], []
    one_rows = None if row_blocks is None else rows.tolist()

    def take():
        """(ticket, pull clock), taken in block 0's lock; None once every
        ticket is taken or a worker has failed."""
        with clock_lock:
            k = tickets[0]
            if k == K or failed:
                return None
            tickets[0] = k + 1
            return k, state.clock

    def pull_whole():
        x_hat = np.empty(x.size)
        for jj, lock in enumerate(block_locks):
            with lock:
                if jj == 0 and (taken := take()) is None:
                    return None
                x_hat[bounds[jj]:bounds[jj + 1]] = x[bounds[jj]:bounds[jj + 1]]
        with plan_lock:
            while len(plan) <= taken[0]:
                plan.append(next(batches))
            (batch, planned), plan[taken[0]] = plan[taken[0]], None
        return taken, batch, planned, x_hat

    def pull_row():
        with block_locks[0]:
            if (taken := take()) is None:
                return None
            batch = one_rows[taken[0]]
            met = row_blocks.meets(batch[0])
            first = met[0][1] if met else 0
            x_hat = np.empty(met[-1][2] - first if met else 0)
            if met and met[0][0] == 0:
                _, p, q = met.pop(0)
                x_hat[:q - first] = x[row_blocks.indices[p:q]]
        for jj, p, q in met:
            with block_locks[jj]:
                x_hat[p - first:q - first] = x[row_blocks.indices[p:q]]
        return taken, batch, None, x_hat

    pull = pull_whole if one_rows is None else pull_row

    def work(wid):
        try:
            while (pulled := pull()) is not None:
                (k, pulled_at), batch, planned, x_hat = pulled
                j = blocks[k]
                g = grad(batch, j, x_hat, planned)
                with block_locks[j]:
                    new = step(x, j, g)
                    with clock_lock:
                        commit(new, j, state.clock - pulled_at, wid)
        except BaseException as err:  # raised by the run once all have returned
            failed.append(err)

    list(pool.map(work, range(P)))  # waits for every worker and reads its result
    if failed:
        raise failed[0]
