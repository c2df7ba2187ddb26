import concurrent.futures
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_block, make_problem, two_pass_vr
from proxvr.async_engine import (
    CommitRecord,
    DelaySchedule,
    MasterState,
    SimulateMode,
    ThreadsMode,
    async_svrcd_run,
    async_svrg_run,
    read_consistent,
    read_inconsistent,
    replay,
    sample_delay_schedule,
)
from proxvr.errors import ContractViolation
from proxvr.linalg import BlockPartition
from proxvr.problem import (
    Dataset,
    LossKind,
    Problem,
    Regularizer,
    RowBlocks,
    _vr_row,
    entry_terms,
    prox_elastic,
)
from proxvr.seq_solvers import (
    SolverConfig,
    _stage_draws,
    draw_batch,
    make_streams,
    prox_svrcd_run,
    prox_svrg_run,
    run_stages,
)


def format_commit_log(log) -> str:
    """Line-oriented `clock,worker_id,block_id_or_-1,delay` records."""
    return "\n".join(f"{r.clock},{r.worker},{r.block},{r.delay}" for r in log)


def _iterate_at(state, clock_idx, _read=MasterState.read):
    """The iterate as of clock ``clock_idx`` (0 = stage start), as
    ``MasterState.read`` returns it."""
    return _read(state, state.clock - clock_idx, ())


def _hold_sum(x0, iterates, blocks, bounds):
    """The sum of a stage's iterates by the hold-length rule, stated without
    ``MasterState``: coordinate by coordinate, in clock order, every value
    it held times the number of commits it held it for. A coordinate starts
    at ``x0`` and takes a new value at each commit to its block (commit c
    wrote block ``blocks[c]`` and made ``iterates[c]``), whether or not the
    value changes; its last value is held to the end of ``blocks``."""
    total = np.zeros(len(x0))
    for i, value in enumerate(np.asarray(x0, dtype=np.float64).tolist()):
        j = int(np.searchsorted(bounds, i, side="right")) - 1
        acc, since = 0.0, 0
        for c in [c for c, b in enumerate(blocks) if b == j] + [len(blocks)]:
            if c > since:
                acc += (c - since) * value
            if c < len(blocks):
                value, since = float(iterates[c][i]), c
        total[i] = acc
    return total


def _random_block_walk(rng, d=6, m=3, steps=12, tau_bound=12):
    """MasterState driven by random single-block updates; returns the state
    plus the full iterate history for oracle checks."""
    part = BlockPartition.equal(d, m)
    state = MasterState(rng.standard_normal(d), tau_bound, part)
    history = [state.x.copy()]
    blocks = []
    for _ in range(steps):
        j = int(rng.integers(0, m))
        lo, hi = part.edges[j:j + 2]
        state.commit(state.x[lo:hi] + rng.standard_normal(hi - lo), j)
        history.append(state.x.copy())
        blocks.append((j, lo, hi))
    return state, history, blocks


# ------------------------------------------------------------- reads


def test_read_consistent_zero_delay_is_current(rng):
    state, history, _ = _random_block_walk(rng)
    got = read_consistent(state, 0)
    assert np.array_equal(got, state.x)


def test_read_consistent_max_delay_is_initial(rng):
    state, history, _ = _random_block_walk(rng, steps=5, tau_bound=5)
    assert np.array_equal(read_consistent(state, state.clock), history[0])


def test_read_consistent_replay_bookkeeping(rng):
    state, history, _ = _random_block_walk(rng, steps=3, tau_bound=3)
    # after 3 commits, delay 2 lands on the iterate committed at clock 1
    assert np.array_equal(read_consistent(state, 2), history[1])


def test_read_consistent_errors(rng):
    state, _, _ = _random_block_walk(rng, steps=4, tau_bound=2)
    with pytest.raises(ContractViolation):
        read_consistent(state, 3)  # beyond retained history
    with pytest.raises(ContractViolation):
        read_consistent(state, -1)


def test_read_inconsistent_full_set_is_current(rng):
    state, history, _ = _random_block_walk(rng, steps=10, tau_bound=10)
    k = state.clock
    for tau in (1, 3, 7, 10):
        got = read_inconsistent(state, tau, range(k - tau, k))
        assert np.array_equal(got, state.x)


def test_read_inconsistent_empty_set_is_old_iterate(rng):
    state, history, _ = _random_block_walk(rng, steps=8, tau_bound=8)
    for tau in (0, 2, 5, 8):
        got = read_inconsistent(state, tau, ())
        assert np.array_equal(got, history[state.clock - tau])


def test_read_inconsistent_missing_update_localizes_difference(rng):
    state, history, blocks = _random_block_walk(rng, steps=6, tau_bound=6)
    k = state.clock
    # window {k-2, k-1}, apply only k-1: the difference from x_k lives on the
    # block touched by update k-2
    got = read_inconsistent(state, 2, [k - 1])
    j, lo, hi = blocks[k - 2]
    outside = np.r_[0:lo, hi : state.x.size]
    assert np.array_equal(got[outside], state.x[outside])
    assert not np.array_equal(got[lo:hi], state.x[lo:hi])


def test_read_inconsistent_rejects_out_of_window(rng):
    state, _, _ = _random_block_walk(rng, steps=6, tau_bound=6)
    k = state.clock
    with pytest.raises(ContractViolation):
        read_inconsistent(state, 2, [k - 3])
    with pytest.raises(ContractViolation):
        read_inconsistent(state, 2, [k])


def _tiny_rows_state():
    """A one-block state over 3 coordinates with the rows of a 2-row
    dataset, after the commits [1, 1, 1] and [2, 2, 2]."""
    ds = Dataset([0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], [1.0, -1.0], 3)
    part = BlockPartition.equal(3, 1)
    state = MasterState(np.zeros(3), 2, part, RowBlocks.build(ds, part))
    state.commit(np.ones(3))
    state.commit(np.full(3, 2.0))
    return state


def test_read_rejects_a_repeated_applied_update():
    # an update listed twice in J(k) would land twice: after the commits
    # [1, 1, 1] and [2, 2, 2], J = {clock-2, clock-2} read [2, 2, 2], not the
    # [1, 1, 1] that J = {clock-2} reads. Whole-vector and row reads both
    # refuse it
    state = _tiny_rows_state()
    assert read_inconsistent(state, 2, [0]).tolist() == [1.0, 1.0, 1.0]
    assert read_inconsistent(state, 2, [0], 0).tolist() == [1.0, 1.0]
    for applied in ([0, 0], [1, 0, 1], np.array([1, 1])):
        for row in (None, 0):
            with pytest.raises(ContractViolation, match="repeat"):
                read_inconsistent(state, 2, applied, row)


def test_read_refuses_non_integer_updates_and_rows():
    # int() would read 0.7 as update 0 and True as update 1, row -1 as the
    # last row and an index array as something else; all are refused, on
    # whole and row reads, current and delayed
    state = _tiny_rows_state()
    assert read_inconsistent(state, 2, np.array([0, 1])).tolist() == [2.0, 2.0, 2.0]
    for applied in ([0.7], [True], [np.True_], np.array([1.0]), [1, 0.0], ["1"]):
        for row in (None, 1):
            with pytest.raises(ContractViolation, match="integer"):
                read_inconsistent(state, 2, applied, row)
    for tau in (0, 2):
        for row in (-1, 2, 0.0, True, np.array([0, 2]), np.array(0)):
            with pytest.raises(ContractViolation):
                read_inconsistent(state, tau, (), row)
        want = [2.0] if tau == 0 else [0.0]  # row 1 is coordinate 1
        assert read_inconsistent(state, tau, (), np.int64(1)).tolist() == want
    for tau in (1.0, True):
        with pytest.raises(ContractViolation, match="integer"):
            read_inconsistent(state, tau, ())


@pytest.mark.parametrize("m, tau_bound", [(3, 6), (5, 2)])
def test_undo_log_takes_the_last_committed_values_as_before(rng, m, tau_bound):
    # committed values are kept by reference, so a commit's before values
    # are the block's last committed array itself, not a copy, while the
    # state holds it; it holds at most tau_bound blocks' values
    part = BlockPartition.equal(10, m)
    state = MasterState(rng.standard_normal(10), tau_bound, part)
    committed, reused = {}, 0
    for _ in range(40):
        j = int(rng.integers(0, m))
        lo, hi = part.edges[j:j + 2]
        held = state.x[lo:hi].copy()
        values = held + rng.standard_normal(hi - lo)
        state.commit(values, j)
        _, before, after = state._log[-1]
        assert after is values and before.tobytes() == held.tobytes()
        reused += before is committed.get(j)
        committed[j] = values
        assert len(state._held) <= tau_bound
    # with m <= tau_bound every commit but a block's first reuses its array
    assert reused == 40 - m if m <= tau_bound else reused > 0


def test_commit_refuses_values_of_another_length():
    # a block commit takes the block's values only; two values for a block
    # of three used to be broadcast across it, and logged as is
    state = MasterState(np.zeros(6), 3, BlockPartition(np.array([0, 1, 4, 6])))
    state.commit(np.array([7.0, 8.0, 9.0]), 1)
    state.commit(np.arange(4.0, 6.0), 2)
    assert state.x.tolist() == [0.0, 7.0, 8.0, 9.0, 4.0, 5.0]
    log, x, total = [id(e) for e in state._log], state.x.copy(), state.stage_sum.copy()
    for values, block in ((np.array([7.0, 9.0]), 1), (np.ones(5), 2), (np.ones(7), 0),
                          (np.arange(6.0), 2), (np.ones(6), 1), (np.ones((2, 3)), 1),
                          (np.ones(6), 3), (np.ones(1), -1), (np.ones(1), (0, 1))):
        with pytest.raises(ContractViolation):
            state.commit(values, block)
        assert state.clock == 2 and state.x.tobytes() == x.tobytes()
        assert state.stage_sum.tobytes() == total.tobytes()
        assert [id(e) for e in state._log] == log
    with pytest.raises(ContractViolation):
        MasterState(np.zeros(5), 1, BlockPartition(np.array([0, 1, 4, 6])))
    for tau_bound in (-1, 2.0, True):
        with pytest.raises(ContractViolation, match="tau_bound"):
            MasterState(np.zeros(6), tau_bound)


@pytest.mark.parametrize("tau_bound", [0, 1, 3, 6])
def test_undo_log_rebuilds_every_retained_iterate(rng, tau_bound):
    d, steps = 11, 14
    part = BlockPartition(np.array([0, 1, 5, 6, 11]))  # uneven blocks
    state = MasterState(rng.standard_normal(d), tau_bound, part)
    history, blocks = [state.x.copy()], []
    for _ in range(steps):
        j = int(rng.integers(0, part.m))
        lo, hi = part.edges[j:j + 2]
        state.commit(state.x[lo:hi] + rng.standard_normal(hi - lo), j)
        history.append(state.x.copy())
        blocks.append(j)
        assert len(state._log) == min(state.clock, tau_bound)
        for block, before, after in state._log:
            lo, hi = part.edges[block:block + 2]
            for arr in (before, after):
                assert arr.shape == (hi - lo,)
                assert arr.base is None or arr.base.size == hi - lo
        for c in range(state.clock + 1):
            if state.clock - c <= tau_bound:
                assert _iterate_at(state, c).tobytes() == history[c].tobytes()
            else:
                with pytest.raises(ContractViolation):
                    _iterate_at(state, c)
        with pytest.raises(ContractViolation):
            _iterate_at(state, state.clock + 1)
        # a current whole read is a view of x that callers cannot write
        assert not state.read(0, ()).flags.writeable
        # the stage sum holds each block's values for the commits they lasted
        total = _hold_sum(history[0], history[1:], blocks, part.bounds)
        assert state.stage_sum.tobytes() == total.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.sampled_from(["1", "2", "3", "d"]),
       svrg=st.booleans(), K=st.integers(1, 25), S=st.integers(1, 3), tau=st.integers(0, 4),
       B=st.sampled_from([1, 4]), threads=st.booleans(),
       reads=st.sets(st.integers(1, 25), max_size=6))
def test_stage_sum_is_the_hold_length_sum(seed, blocks, svrg, K, S, tau, B, threads, reads):
    # the run's stage sums against the hold-length oracle, with the stage sum
    # also read after some commits mid-stage: every read matches the oracle,
    # and the reads change no bit of the run. With one block the stage sum is
    # the running sum of the recorded iterates, bit for bit
    d = 7
    m = d if blocks == "d" else int(blocks)
    svrg = svrg and m == 1
    prob = make_problem(np.random.default_rng(seed), 12, d, lambda1=1e-2, lambda2=0.05)
    cfg = SolverConfig(eta=0.2, B=B, K=K, S=S, m=m, seed=seed % 997)
    mode = ThreadsMode(1) if threads else sample_delay_schedule(
        "uniform", tau, S * K, seed % 991, inconsistent=not svrg)
    x0 = np.zeros(d)
    plain = replay(prob, cfg, x0, svrg, mode, record_iterates=True)
    events, real = [], MasterState._commit  # the unchecked commit both drivers call

    def commit(state, values, block):
        real(state, values, block)
        events.append((block, state.stage_sum if state.clock in reads else None))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MasterState, "_commit", commit)
        got = replay(prob, cfg, x0, svrg, mode, record_iterates=True)
    assert [o.hex() for o in got.trace.objectives] == [o.hex() for o in plain.trace.objectives]
    assert [x.tobytes() for x in got.trace.iterates] == [
        x.tobytes() for x in plain.trace.iterates]
    bounds = BlockPartition.equal(d, m).bounds
    x_tilde = x0
    for s, objective in enumerate(got.trace.objectives):
        xs, stage = got.trace.iterates[s * K:(s + 1) * K], events[s * K:(s + 1) * K]
        drawn = [j for j, _ in stage]
        for c, (_, mid) in enumerate(stage, 1):
            if mid is not None:
                assert mid.tobytes() == _hold_sum(x_tilde, xs[:c], drawn[:c], bounds).tobytes()
        total = _hold_sum(x_tilde, xs, drawn, bounds)
        if m == 1:
            running = np.zeros(d)
            for x in xs:
                running += x
            assert running.tobytes() == total.tobytes()
        x_tilde = total / K
        assert prob.objective(x_tilde).hex() == objective.hex()
    assert x_tilde.tobytes() == got.trace.x_final.tobytes() == plain.trace.x_final.tobytes()


def _whole_vector_read(state, tau_k, applied, iterate_at=_iterate_at):
    """The substitution read over the whole vector, one O(d) pass per applied
    update: the reference for the block-only read."""
    lo = state.clock - tau_k
    xhat = iterate_at(state, lo)
    for h in sorted(int(h) for h in applied):
        before, after = iterate_at(state, h), iterate_at(state, h + 1)
        xhat = np.where(xhat == before, after, xhat + (after - before))
    return xhat


@pytest.mark.parametrize("m", [1, 3, 7])
def test_block_only_read_matches_whole_vector_read(rng, m):
    d, steps = 14, 10
    part = BlockPartition.equal(d, m)
    reg = Regularizer(0.3, 0.0)
    neg_zeros = 0
    for _ in range(30):
        state = MasterState(prox_elastic(rng.standard_normal(d), 1.0, reg), steps, part)
        for _ in range(steps):
            j = int(rng.integers(0, m))
            lo, hi = part.edges[j:j + 2]
            x_new = state.x.copy()
            # lambda1 > 0: the prox emits -0.0 for thresholded negatives
            x_new[lo:hi] = prox_elastic(state.x[lo:hi] + 0.4 * rng.standard_normal(hi - lo),
                                        1.0, reg)
            state.commit(x_new[lo:hi], j)
            neg_zeros += int(np.sum(np.signbit(x_new) & (x_new == 0.0)))
        k = state.clock
        for tau in range(steps + 1):
            for p in (0.0, 0.5, 1.0):
                applied = [h for h in range(k - tau, k) if rng.random() < p]
                got = read_inconsistent(state, tau, applied)
                want = _whole_vector_read(state, tau, applied)
                assert np.array_equal(got, want)
                # bytes agree except possibly the sign of a zero
                nonzero = want != 0.0
                assert got[nonzero].tobytes() == want[nonzero].tobytes()
                if m == 1:
                    assert got.tobytes() == want.tobytes()
    assert neg_zeros > 0


def test_one_block_delayed_read_is_the_logged_iterate(rng):
    # with one block, a whole read whose oldest unapplied commit has no
    # applied commit after it is that commit's logged before values: the
    # iterate of the history and of _iterate_at, no copy, read-only, and
    # left as it was by later commits. A read with an applied commit after
    # an unapplied one, or with every commit applied, is a new array
    d, tau_bound = 6, 4
    state = MasterState(rng.standard_normal(d), tau_bound)
    history, kept = [state.x.copy()], []
    for _ in range(10):
        state.commit(state.x + rng.standard_normal(d))
        history.append(state.x.copy())
        k = state.clock
        for tau in range(1, min(k, tau_bound) + 1):
            got = read_consistent(state, tau)
            assert got.tobytes() == history[k - tau].tobytes()
            assert got.tobytes() == _iterate_at(state, k - tau).tobytes()
            assert np.shares_memory(got, state._log[-tau][1])
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0
            kept.append((got, history[k - tau]))
            # the oldest a commits applied, the newer ones not
            for a in range(1, tau + 1):
                got = read_inconsistent(state, tau, range(k - tau, k - tau + a))
                assert got.tobytes() == history[k - tau + a].tobytes()
                assert got.flags.writeable == (a == tau)
            if tau >= 2:
                got = read_inconsistent(state, tau, [k - 1])
                assert got.flags.writeable and not np.shares_memory(got, state.x)
                assert got.tobytes() == _whole_vector_read(state, tau, [k - 1]).tobytes()
    for got, want in kept:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lambda1", [0.0, 1e-3, 5e-2])
def test_block_only_read_leaves_simulate_runs_bitwise_unchanged(monkeypatch, lambda1):
    # the sign of a zero in the read cannot reach a gradient, so a whole run
    # with the whole-vector read is byte-identical
    whole_reads, block_read = [], MasterState._read

    def whole(state, tau_k, flags, row):
        # the serial driver's unchecked read: flags[o - 1] applies the
        # commit o clocks ago
        assert row is None
        whole_reads.append(tau_k)
        applied = [state.clock - o for o in range(1, tau_k + 1) if flags[o - 1]]
        return _whole_vector_read(state, tau_k, applied,
                                  lambda st, c: block_read(st, st.clock - c,
                                                           [False] * (st.clock - c), None))

    for seed, (m, tau, p) in enumerate(((4, 4, 0.5), (7, 3, 1.0), (3, 6, 0.3))):
        prob = make_problem(np.random.default_rng(seed), 30, 14, lambda1=lambda1, lambda2=0.05)
        cfg = SolverConfig(eta=0.1, B=2, K=40, S=3, m=m, seed=seed)
        sched = sample_delay_schedule("uniform", tau, cfg.S * cfg.K, seed, inconsistent=True,
                                      include_prob=p)
        runs = []
        for read in (block_read, whole):
            monkeypatch.setattr(MasterState, "_read", read)
            tr = async_svrcd_run(prob, cfg, np.zeros(14), SimulateMode(sched),
                                 record_iterates=True).trace
            runs.append([o.hex() for o in tr.objectives] + [x.tobytes() for x in tr.iterates])
        assert runs[0] == runs[1]
    # every update of the second runs read through the whole-vector rule
    assert len(whole_reads) == 3 * 3 * 40 and max(whole_reads) > 0


# ------------------------------------------------------------- schedules


def test_schedule_constant_zero():
    s = sample_delay_schedule("constant", 0, 20, seed=0, inconsistent=True)
    assert s.taus.tolist() == [0] * 20
    assert all(off.size == 0 for off in s.applied_offsets)


def test_schedule_clips_to_clock():
    s = sample_delay_schedule("constant", 5, 10, seed=0)
    assert s.taus.tolist() == [0, 1, 2, 3, 4, 5, 5, 5, 5, 5]


def test_schedule_uniform_mean_lln():
    n = 100_000
    s = sample_delay_schedule("uniform", 4, n, seed=123)
    mean = s.taus.mean()
    se = np.sqrt(2.0 / n)  # Var of U{0..4} is 2
    assert abs(mean - 2.0) < 3 * se


def test_schedule_offsets_inside_window():
    s = sample_delay_schedule("uniform", 6, 500, seed=5, inconsistent=True, include_prob=0.5)
    for k, offs in enumerate(s.applied_offsets):
        assert np.all(offs >= 1) and np.all(offs <= s.taus[k])
    full = sample_delay_schedule("constant", 3, 50, seed=5, inconsistent=True, include_prob=1.0)
    for offs in full.applied_offsets[4:]:
        assert offs.tolist() == [1, 2, 3]


def test_schedule_validation():
    with pytest.raises(ContractViolation):
        DelaySchedule(np.array([0, 5]), 3)  # above the bound
    with pytest.raises(ContractViolation):
        DelaySchedule(np.array([1, 0]), 3)  # tau_0 > 0
    with pytest.raises(ContractViolation):
        sample_delay_schedule("weird", 1, 5, seed=0)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ContractViolation):
            sample_delay_schedule("uniform", 2, 5, seed=0, inconsistent=True, include_prob=p)
    with pytest.raises(ContractViolation):
        DelaySchedule(np.array([0, 1]), 2, np.zeros((2, 1), dtype=bool))  # wrong shape
    # tau, length and seed are integers >= 0: floats and bools used to fail
    # inside numpy as a TypeError, or pass
    for tau, length, seed in ((2, 2.5, 0), (2, 10, 1.5), (2.0, 10, 0), (True, 10, 0),
                              (2, 10, False), (-1, 10, 0), (2, 10, "0")):
        with pytest.raises(ContractViolation):
            sample_delay_schedule("uniform", tau, length, seed)
    assert sample_delay_schedule("uniform", np.int64(2), np.int32(10), np.uint8(0)).taus.tolist() \
        == sample_delay_schedule("uniform", 2, 10, 0).taus.tolist()


def test_schedule_refuses_malformed_input():
    # taus must be 1-D (a 2-D array used to fail in numpy's broadcast) and
    # tau_bound an integer (True used to be accepted as 1)
    for taus in (np.zeros((2, 2), dtype=np.int64), np.zeros((1, 3), dtype=np.int64), np.int64(0)):
        with pytest.raises(ContractViolation, match="1-D"):
            DelaySchedule(taus, 1)
    for bound in (True, False, 1.0, 2.5, -1, "2", None):
        with pytest.raises(ContractViolation, match="tau_bound"):
            DelaySchedule(np.array([0, 1]), bound)
    s = DelaySchedule(np.array([0, 1]), np.int64(2))
    assert type(s.tau_bound) is int and s.tau_bound == 2


def _per_update_draw(kind, tau, length, seed, include_prob):
    """Per-update draw of (taus, applied offsets): the reference for the
    vectorised draw in ``sample_delay_schedule``."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        raw = np.full(length, tau, dtype=np.int64)
    else:
        raw = rng.integers(0, tau + 1, size=length)
    taus = np.minimum(raw, np.arange(length, dtype=np.int64))
    offsets = []
    for k in range(length):
        win = int(taus[k])
        if win == 0 or include_prob <= 0.0:
            offsets.append(np.empty(0, dtype=np.int64))
        elif include_prob >= 1.0:
            offsets.append(np.arange(1, win + 1, dtype=np.int64))
        else:
            mask = rng.random(win) < include_prob
            offsets.append((np.flatnonzero(mask) + 1).astype(np.int64))
    return taus, offsets


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["constant", "uniform"]),
    tau=st.sampled_from([0, 1, 2, 4, 7]),
    length=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
    include_prob=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_schedule_draw_matches_per_update_oracle(kind, tau, length, seed, include_prob):
    s = sample_delay_schedule(kind, tau, length, seed, inconsistent=True,
                              include_prob=include_prob)
    taus, offsets = _per_update_draw(kind, tau, length, seed, include_prob)
    assert s.taus.tobytes() == taus.tobytes()
    assert [o.tobytes() for o in s.applied_offsets] == [o.tobytes() for o in offsets]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), tau_bound=st.integers(0, 5), length=st.integers(0, 12))
def test_schedule_rejects_exactly_applied_sets_outside_window(data, tau_bound, length):
    taus = np.array([data.draw(st.integers(0, min(k, tau_bound))) for k in range(length)],
                    dtype=np.int64)
    applied = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=tau_bound, max_size=tau_bound),
        min_size=length, max_size=length)), dtype=bool).reshape(length, tau_bound)
    outside = any(applied[k, o] for k in range(length) for o in range(taus[k], tau_bound))
    if outside:
        with pytest.raises(ContractViolation):
            DelaySchedule(taus, tau_bound, applied)
    else:
        assert DelaySchedule(taus, tau_bound, applied).applied.tobytes() == applied.tobytes()


# ------------------------------------------------------------- simulate mode


def _dense_replay(problem, config, x0, svrg, schedule, stop_below=None):
    """The update on whole vectors, one draw per update: whole-vector read,
    the two-``minibatch_grad`` VR gradient, prox on the block, whole-vector
    commit. The reference for replay's support read and block gradient
    (B = 1) and for its stage batch plan (B > 1)."""
    m = 1 if svrg else config.m
    part = BlockPartition.equal(problem.d, m)
    batch_rng, block_rng = make_streams(config.seed)
    delays, log = [], []
    g = 0

    def inner(s, x_tilde, iterates):
        nonlocal g
        anchor = problem.make_anchor(x_tilde)
        state = MasterState(x_tilde, schedule.tau_bound)
        stage, blocks = [], []
        for _ in range(config.K):
            tau = min(int(schedule.taus[g]), state.clock)
            offsets = [] if svrg else np.flatnonzero(schedule.applied[g, :tau]) + 1
            x_read = read_inconsistent(state, tau, [state.clock - o for o in offsets])
            batch = draw_batch(batch_rng, problem.n, config.B, config.with_replacement)
            j = draw_block(block_rng, m) if m > 1 else 0
            u = two_pass_vr(problem.loss, problem.dataset, batch, x_read, anchor)
            lo, hi = part.edges[j:j + 2]
            x_new = state.x.copy()
            x_new[lo:hi] = prox_elastic(x_new[lo:hi] - config.eta * u[lo:hi], config.eta,
                                        problem.reg)
            state.commit(x_new)
            delays.append(tau)
            iterates.append(state.x.copy())
            stage.append(iterates[-1])
            blocks.append(j)
            log.append(CommitRecord(s, state.clock, 0, -1 if svrg else j, tau))
            g += 1
        return state.x, _hold_sum(x_tilde, stage, blocks, part.bounds)

    trace = run_stages(problem, config, x0, inner, stop_below=stop_below, record_iterates=True)
    return trace, delays, format_commit_log(log)


def _gappy_problem(rng, kind, lambda1=0.0, n=30, d=14, widths=(1, 5)):
    """Rows of ``widths[0]`` to ``widths[1] - 1`` entries (0-4 by default),
    every fifth row empty, so many rows miss the sampled block."""
    indptr, indices, data = [0], [], []
    for i in range(n):
        k = 0 if i % 5 == 2 else int(rng.integers(*widths))
        idx = np.sort(rng.choice(d, size=k, replace=False))
        indices += idx.tolist()
        data += (rng.standard_normal(k) + 2.0 * np.sign(rng.standard_normal(k))).tolist()
        indptr.append(len(indices))
    labels = rng.choice([-1.0, 1.0], size=n)
    return Problem(Dataset(indptr, indices, data, labels, d), kind,
                   Regularizer(lambda1, 0.05))


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("lambda1", [0.0, 5e-2])
def test_one_row_replay_matches_dense_step(kind, lambda1):
    # rows of 0-4 entries: the row-block index is tabulated at m = 1 and
    # searched at m = 3 and 7
    prob = _gappy_problem(np.random.default_rng(61), kind, lambda1)
    assert [RowBlocks.build(prob.dataset, BlockPartition.equal(prob.d, m)).cuts is not None
            for m in (1, 3, 7)] == [True, False, False]
    neg_zeros = 0
    for m in (1, 3, 7):
        for tau in (0, 4):
            for p in (0.0, 0.5, 1.0):
                for svrg in (False, True) if m == 1 else (False,):
                    for wr in (True, False):
                        cfg = SolverConfig(eta=0.4, B=1, K=30, S=3, m=m, seed=m + 10 * tau,
                                           with_replacement=wr)
                        sched = sample_delay_schedule("uniform", tau, cfg.S * cfg.K, 5,
                                                      inconsistent=True, include_prob=p)
                        want, delays, log = _dense_replay(prob, cfg, np.zeros(prob.d), svrg,
                                                          sched)
                        got = replay(prob, cfg, np.zeros(prob.d), svrg, sched,
                                     record_iterates=True, debug=True)
                        assert [o.hex() for o in got.trace.objectives] == [
                            o.hex() for o in want.objectives]
                        assert [x.tobytes() for x in got.trace.iterates] == [
                            x.tobytes() for x in want.iterates]
                        assert got.trace.x_final.tobytes() == want.x_final.tobytes()
                        assert got.delays.tolist() == delays
                        assert format_commit_log(got.commit_log) == log
                        neg_zeros += sum(int(np.sum(np.signbit(x) & (x == 0.0)))
                                         for x in want.iterates)
    # lambda1 > 0: the prox emits -0.0, and the runs must carry it bit for bit
    assert (neg_zeros > 0) == (lambda1 > 0)


def _block_from_entries(prob, i, entries, anchor, lo, hi):
    """The dense block [lo, hi) that a one-row block gradient stands for: its
    values on row i's stored entries inside the block, ``anchor.base`` on
    the rest."""
    support = prob.dataset.indices[prob.dataset.indptr[i]:prob.dataset.indptr[i + 1]]
    cols = support[(support >= lo) & (support < hi)]
    assert entries.shape == cols.shape
    out = anchor.base[lo:hi].copy()
    out[cols - lo] = entries
    return out


def _row_block(prob, i, x_row, p, q, terms):
    """Row i's VR gradient on its stored entries p..q-1 through ``_vr_row``,
    from the read on its support, ``x_row``, as a replay update calls it."""
    ds = prob.dataset
    start, end = ds.indptr[i:i + 2].tolist()
    return _vr_row(prob.loss, ds.data, start, end, float(ds.labels[i]), x_row, p, q, terms)


def test_block_gradient_matches_dense_slice(rng):
    # planted -0.0 and zero entries in the anchor gradient: off the support
    # the block gradient stands for full_grad + 0.0, as the dense rule gives
    prob = _gappy_problem(rng, LossKind.LOGISTIC)
    d = prob.d
    index = RowBlocks.build(prob.dataset, BlockPartition([0, 3, 4, 9, d - 1, d]))
    whole = RowBlocks.build(prob.dataset, BlockPartition.equal(d, 1))
    planted = 0
    for trial in range(200):
        i = int(rng.integers(0, prob.n))
        start, end = prob.dataset.indptr[i:i + 2].tolist()
        support = prob.dataset.indices[start:end]
        full_grad = rng.standard_normal(d)
        full_grad[rng.random(d) < 0.3] = -0.0
        full_grad[rng.random(d) < 0.2] = 0.0
        anchor = prob.make_anchor(rng.standard_normal(d))
        if trial % 3 == 1:
            # anchor terms equal to the full gradient: the rule keeps the
            # read's gradient there, which (g - a) + a need not equal
            hit = rng.random(support.size) < 0.5
            full_grad[support[hit]] = 0.0 + anchor.coefs[i] * prob.dataset.data[start:end][hit]
        anchor = replace(anchor, full_grad=full_grad)
        terms = entry_terms(prob.dataset, anchor)
        planted += terms.same is not None
        x = anchor.x_tilde if trial % 4 == 0 else rng.standard_normal(d)
        dense = two_pass_vr(prob.loss, prob.dataset, [i], x, anchor)
        assert prob.vr_grad([i], x, anchor).tobytes() == dense.tobytes()
        for j, (lo, hi) in enumerate(((0, 3), (3, 4), (4, 9), (9, d - 1), (d - 1, d))):
            got = _row_block(prob, i, x[support], *index.span(i, j), terms)
            block = _block_from_entries(prob, i, got, anchor, lo, hi)
            assert block.tobytes() == dense[lo:hi].tobytes()
        got = _row_block(prob, i, x[support], *whole.span(i, 0), terms)
        assert _block_from_entries(prob, i, got, anchor, 0, d).tobytes() == dense.tobytes()
    assert planted > 20
    # a least-squares read with a_i^T x = b_i exactly: c = 0, c * a_i is -0.0
    # where a_i < 0, and the dense path adds it to +0.0
    ls = Problem(Dataset([0, 2], [1, 3], [-2.0, 4.0], [1.0], 5), LossKind.LEAST_SQUARES,
                 Regularizer())
    x = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    anchor = replace(ls.make_anchor(x), full_grad=np.zeros(5))
    dense = two_pass_vr(ls.loss, ls.dataset, [0], x, anchor)
    assert ls.vr_grad([0], x, anchor).tobytes() == dense.tobytes()
    assert not np.signbit(dense).any()
    got = _row_block(ls, 0, x[[1, 3]], 0, 2, entry_terms(ls.dataset, anchor))
    assert _block_from_entries(ls, 0, got, anchor, 0, 5).tobytes() == dense.tobytes()
    assert got.tobytes() == dense[[1, 3]].tobytes()


@pytest.mark.parametrize("widths", [(3, 15), (1, 4)])
def test_row_blocks_meets_lists_the_blocks_a_row_has_entries_in(widths):
    # a one-row threads worker pulls the blocks ``meets`` lists, in order:
    # from the table (m = 1, 3, 5 on rows of 3-14 entries) or by search
    prob = _gappy_problem(np.random.default_rng(67), LossKind.LOGISTIC, widths=widths)
    searched = 0
    for m in (1, 3, 5, prob.d):
        rows = RowBlocks.build(prob.dataset, BlockPartition.equal(prob.d, m))
        searched += rows.cuts is None
        for i in range(prob.n):
            spans = [(j, *rows.span(i, j)) for j in range(m)]
            assert rows.meets(i) == [(j, p, q) for j, p, q in spans if p < q]
    assert 0 < searched < 4 if widths == (3, 15) else searched == 4


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("lambda1", [0.0, 5e-2])
@pytest.mark.parametrize("indexed", [True, False])
def test_one_row_benchmark_path_matches_dense_step(monkeypatch, kind, lambda1, indexed):
    # the path the benchmark takes: no recorded iterates and no commit log,
    # so nothing copies the step's buffers out. d = 14 leaves a remainder
    # block at m = 3 and 5; rows of 0-4 entries, every fifth one empty,
    # leave many updates with no entry in the drawn block. Rows of 3-14
    # entries make the row-block index a table at every m, rows of 1-3
    # entries a search
    from proxvr import async_engine

    prob = _gappy_problem(np.random.default_rng(64), kind, lambda1,
                          widths=(3, 15) if indexed else (1, 4))
    seen = {"empty row": 0, "empty share": 0}

    def record(kind, data, start, end, b, x_read, p, q, terms, _real=async_engine._vr_row):
        out = _real(kind, data, start, end, b, x_read, p, q, terms)
        seen["empty row" if x_read.size == 0 else "empty share"] += out.size == 0
        return out

    monkeypatch.setattr(async_engine, "_vr_row", record)
    for m, svrg in ((1, True), (3, False), (5, False)):
        assert m == 1 or prob.d % m
        part = BlockPartition.equal(prob.d, m)
        assert (RowBlocks.build(prob.dataset, part).cuts is not None) == indexed
        for tau in (0, 4):
            for p in (0.0, 0.5, 1.0):
                for wr in (True, False):
                    cfg = SolverConfig(eta=0.4, B=1, K=40, S=3, m=m, seed=m + 10 * tau,
                                       with_replacement=wr)
                    sched = sample_delay_schedule("uniform", tau, cfg.S * cfg.K, 9,
                                                  inconsistent=True, include_prob=p)
                    want, delays, _ = _dense_replay(prob, cfg, np.zeros(prob.d), svrg, sched)
                    got = replay(prob, cfg, np.zeros(prob.d), svrg, sched)
                    assert got.trace.iterates is None and got.commit_log is None
                    assert [o.hex() for o in got.trace.objectives] == [
                        o.hex() for o in want.objectives]
                    assert got.trace.x_final.tobytes() == want.x_final.tobytes()
                    assert got.delays.tolist() == delays
    assert seen["empty row"] > 0 and seen["empty share"] > 0


def _full_rows_problem(rng, kind, n=12, d=9):
    """Every row stores all d entries: the row-block index fits up to m = d - 1."""
    data = rng.standard_normal(n * d) + 2.0 * np.sign(rng.standard_normal(n * d))
    return Problem(Dataset(np.arange(n + 1) * d, np.tile(np.arange(d), n), data,
                           rng.choice([-1.0, 1.0], size=n), d), kind, Regularizer(5e-2, 0.05))


@pytest.mark.parametrize("kind", list(LossKind))
def test_one_row_replay_with_m_near_d(monkeypatch, kind):
    # coordinate-wise blocks: the index's n * (m + 1) spans are tabulated
    # only while they do not outnumber the stored entries, so full rows take
    # the table up to m = d - 1 and sparse rows the search already at m = 3;
    # every run equals the dense step bit for bit
    forms = []
    monkeypatch.setattr(RowBlocks, "build", staticmethod(
        lambda dataset, part, _real=RowBlocks.build:
        forms.append(_real(dataset, part)) or forms[-1]))
    rng = np.random.default_rng(66)
    for prob, ms, tabulated in ((_full_rows_problem(rng, kind), (8, 9), (True, False)),
                                (_gappy_problem(rng, kind, 5e-2), (13, 14), (False, False))):
        for m, want_table in zip(ms, tabulated):
            for tau, p in ((0, 0.0), (4, 0.5), (4, 1.0)):
                forms.clear()
                cfg = SolverConfig(eta=0.4, B=1, K=40, S=2, m=m, seed=m + tau)
                sched = sample_delay_schedule("uniform", tau, cfg.S * cfg.K, 3,
                                              inconsistent=True, include_prob=p)
                want, delays, _ = _dense_replay(prob, cfg, np.zeros(prob.d), False, sched)
                got = replay(prob, cfg, np.zeros(prob.d), False, sched)
                assert [f.cuts is not None for f in forms] == [want_table]
                assert [o.hex() for o in got.trace.objectives] == [
                    o.hex() for o in want.objectives]
                assert got.trace.x_final.tobytes() == want.x_final.tobytes()
                assert got.delays.tolist() == delays


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), d=st.integers(1, 40),
       m=st.integers(1, 8))
def test_row_blocks_match_per_row_searchsorted(seed, n, d, m):
    # the table and the search give the spans of a per-row searchsorted, and
    # the offsets are each entry's coordinate minus its block's bound; the
    # table is built exactly where its n * (m + 1) spans do not outnumber
    # the stored entries
    rng = np.random.default_rng(seed)
    m = min(m, d)
    bounds = np.concatenate([[0], np.sort(rng.choice(np.arange(1, d), m - 1, replace=False)),
                             [d]]).astype(np.int64)
    rows = [np.sort(rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False))
            for _ in range(n)]
    indptr = np.cumsum([0] + [r.size for r in rows])
    indices = np.concatenate(rows + [np.empty(0, dtype=np.int64)])
    ds = Dataset(indptr, indices, rng.random(indices.size) + 1.0, np.ones(n), d)
    index = RowBlocks.build(ds, BlockPartition(bounds))
    assert (index.cuts is not None) == (n * (m + 1) <= indices.size)
    assert index.offsets.shape == (indices.size,)
    for form in (index, replace(index, cuts=None)):
        for i in range(n):
            start, end = ds.indptr[i], ds.indptr[i + 1]
            want = (start + ds.indices[start:end].searchsorted(bounds)).tolist()
            for j in range(m):
                p, q = form.span(i, j)
                assert (p, q) == (want[j], want[j + 1])
                assert form.offsets[p:q].tolist() == (ds.indices[p:q] - bounds[j]).tolist()
    for other_d in (d - 1, d + 1) if d > 1 else (d + 1,):
        with pytest.raises(ContractViolation):
            RowBlocks.build(ds, BlockPartition([0, other_d]))


@pytest.mark.parametrize("m", [1, 3, 5])
@pytest.mark.parametrize("whole_values", [False, True])
def test_row_read_matches_generic_read(rng, m, whole_values):
    # the row read must give the bytes of the whole read on the row's
    # support, over block commits given as the block's own array or, with
    # ``whole_values``, as the block's slice of a whole new iterate; the undo
    # log must rebuild every retained iterate
    prob = _gappy_problem(rng, LossKind.LOGISTIC)
    ds, d, steps = prob.dataset, prob.d, 6
    part = BlockPartition.equal(d, m)
    rows = RowBlocks.build(ds, part)
    reg = Regularizer(0.3, 0.0)
    neg_zeros = 0
    for _ in range(2):
        state = MasterState(prox_elastic(rng.standard_normal(d), 1.0, reg), steps, part, rows)
        history = [state.x.copy()]
        for k in range(3 * steps):
            j = int(rng.integers(0, m))
            lo, hi = part.edges[j:j + 2]
            # lambda1 > 0: the prox emits -0.0 for thresholded negatives
            new = prox_elastic(state.x[lo:hi] + 0.4 * rng.standard_normal(hi - lo), 1.0, reg)
            if whole_values:
                new = np.concatenate((state.x[:lo], new, state.x[hi:]))[lo:hi]
            state.commit(new, j)
            history.append(state.x.copy())
            neg_zeros += int(np.sum(np.signbit(state.x) & (state.x == 0.0)))
            for tau in range(min(state.clock, steps) + 1):
                assert _iterate_at(state, state.clock - tau).tobytes() == (
                    history[state.clock - tau].tobytes())
                for p in (0.0, 0.5, 1.0):
                    applied = [h for h in range(state.clock - tau, state.clock)
                               if rng.random() < p]
                    whole = state.read(tau, applied)
                    for i in range(ds.n):
                        support = ds.indices[ds.indptr[i]:ds.indptr[i + 1]]
                        got = read_inconsistent(state, tau, applied, i)
                        assert got.tobytes() == whole[support].tobytes()
    assert neg_zeros > 0


def test_row_read_needs_an_index(rng):
    # a state built without rows reads whole vectors only: a row read is
    # refused, as is a coordinate array passed as the row
    prob = _gappy_problem(rng, LossKind.LOGISTIC)
    support = prob.dataset.indices[prob.dataset.indptr[0]:prob.dataset.indptr[1]]
    part = BlockPartition.equal(prob.d, 3)
    state = MasterState(rng.standard_normal(prob.d), 2, part)
    state.commit(rng.standard_normal(4), 0)
    for tau in (0, 1):
        for row in (0, support):
            with pytest.raises(ContractViolation):
                read_inconsistent(state, tau, (), row)
    # rows over another partition are refused
    other = RowBlocks.build(prob.dataset, BlockPartition.equal(prob.d, 2))
    with pytest.raises(ContractViolation):
        MasterState(state.x, 2, part, other)


def _substitution_oracle(history, clock, tau, applied):
    """The read from the recorded whole iterates: the iterate at ``clock -
    tau``, then each applied update substituted over the whole vector."""
    xhat = history[clock - tau].copy()
    for h in sorted(applied):
        before, after = history[h], history[h + 1]
        xhat = np.where(xhat == before, after, xhat + (after - before))
    return xhat


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), m=st.integers(1, 12),
       n=st.integers(1, 5), dense_rows=st.booleans(), tau_bound=st.integers(0, 6),
       steps=st.integers(0, 14), lambda1=st.sampled_from([0.0, 0.3]))
def test_read_rule_matches_whole_iterate_oracle(seed, d, m, n, dense_rows, tau_bound, steps,
                                                lambda1):
    # the read rule against the recorded history of whole iterates and the
    # substitution rule on whole vectors: on uneven partitions, block
    # commits carrying -0.0 (the prox with lambda1 > 0), every delay up to
    # tau_bound and random applied sets. Whole reads equal the oracle on
    # nonzeros, and byte for byte with one block; row reads equal the whole
    # read on the row's support byte for byte, through the table or the
    # search, whichever the dataset's shape gives
    rng = np.random.default_rng(seed)
    m = min(m, d)
    bounds = np.concatenate([[0], np.sort(rng.choice(np.arange(1, d), m - 1, replace=False)),
                             [d]]).astype(np.int64)
    part = BlockPartition(bounds)
    # rows of at least m + 1 entries tabulate; rows of at most m search
    sizes = rng.integers(m + 1, d + 1, size=n) if dense_rows and m < d else (
        rng.integers(0, m + 1, size=n))
    cols = [np.sort(rng.choice(d, size=int(k), replace=False)) for k in sizes]
    ds = Dataset(np.cumsum([0, *sizes]), np.concatenate(cols + [np.empty(0, dtype=np.int64)]),
                 np.ones(int(sizes.sum())), np.ones(n), d)
    rows = RowBlocks.build(ds, part)
    assert (rows.cuts is not None) == (dense_rows and m < d)
    reg = Regularizer(lambda1, 0.0)
    state = MasterState(prox_elastic(rng.standard_normal(d), 1.0, reg), tau_bound, part, rows)
    history = [state.x.copy()]
    for _ in range(steps):
        j = int(rng.integers(0, m))
        lo, hi = part.edges[j:j + 2]
        step = state.x[lo:hi] + 0.5 * rng.standard_normal(hi - lo)
        state.commit(prox_elastic(step, 1.0, reg), j)
        history.append(state.x.copy())
    clock = state.clock
    for tau in range(min(clock, tau_bound) + 1):
        for p in (0.0, 0.5, 1.0):
            applied = [h for h in range(clock - tau, clock) if rng.random() < p]
            want = _substitution_oracle(history, clock, tau, applied)
            got = state.read(tau, applied)
            assert np.array_equal(got, want)
            nonzero = want != 0.0
            assert got[nonzero].tobytes() == want[nonzero].tobytes()
            if m == 1:
                assert got.tobytes() == want.tobytes()
            for i in range(n):
                support = ds.indices[ds.indptr[i]:ds.indptr[i + 1]]
                assert state.read(tau, applied, i).tobytes() == got[support].tobytes()


def test_batched_replay_update_gathers_once(monkeypatch, rng):
    # a call-count guard, not a bound: B > 1 updates read their batches from
    # the stage plan. A narrow batch's chunk is gathered once; a wide batch
    # (B >= n) gathers nothing, its plan and its update each passing once
    # over the stored rows. An update takes dot products at the read only,
    # and the anchor pass is one pass over the data that gathers nothing
    from proxvr import async_engine
    from proxvr import problem as problem_mod

    names = ("_gather", "_dots", "minibatch_grad")
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(problem_mod, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(problem_mod, name, counted)
    chunks = []

    def plan_chunk(dataset, anchor, rows, _real=problem_mod._plan_chunk):
        chunks.append(len(rows))
        return _real(dataset, anchor, rows)

    monkeypatch.setattr(problem_mod, "_plan_chunk", plan_chunk)
    calls = {"vr_grad": [], "make_anchor": []}

    def delta(real, record):
        def counted(*args):
            before = dict(counts)
            out = real(*args)
            record.append({k: counts[k] - before[k] for k in names})
            return out
        return counted

    # replay's rule calls vr_gradient directly, not Problem.vr_grad
    monkeypatch.setattr(async_engine, "vr_gradient",
                        delta(async_engine.vr_gradient, calls["vr_grad"]))
    monkeypatch.setattr(Problem, "make_anchor", delta(Problem.make_anchor, calls["make_anchor"]))
    prob = make_problem(rng, 30, 8)
    # 64 entries per chunk: chunks of one batch (B = 7) and of several (B = 2)
    monkeypatch.setattr(problem_mod, "_PLAN_ENTRIES", 64)
    x0 = np.zeros(prob.d)
    sched = sample_delay_schedule("uniform", 3, 40, 2, inconsistent=True)
    gathers = []
    # B = n = 30 is wide, drawn with and without replacement
    for B, with_replacement in ((2, True), (7, True), (30, True), (30, False)):
        before = counts["_gather"]
        cfg = SolverConfig(eta=0.05, B=B, K=10, S=2, m=3, seed=B,
                           with_replacement=with_replacement)
        prox_svrcd_run(prob, cfg, x0)
        async_svrg_run(prob, cfg, x0, SimulateMode(sched))
        async_svrcd_run(prob, cfg, x0, SimulateMode(sched))
        gathers.append(counts["_gather"] - before)
    assert len(calls["vr_grad"]) == 4 * 3 * 20 and len(calls["make_anchor"]) == 4 * 3 * 2
    # only the narrow batches (B = 2, 7) are planned by chunks, which gather
    assert sum(chunks) == 2 * 3 * 20 and min(chunks) == 1 < max(chunks)
    assert gathers[0] + gathers[1] == len(chunks) and gathers[2] == gathers[3] == 0
    assert all(c == {"_gather": 0, "_dots": 1, "minibatch_grad": 0} for c in calls["vr_grad"])
    assert all(c == {"_gather": 0, "_dots": 1, "minibatch_grad": 0}
               for c in calls["make_anchor"])


def _sparse_rows_problem(rng, kind, n=30, d=14):
    """Four rows in five empty, so whole batches and chunks gather nothing."""
    indptr, indices, data = [0], [], []
    for i in range(n):
        k = int(rng.integers(1, 5)) if i % 5 == 0 else 0
        indices += np.sort(rng.choice(d, size=k, replace=False)).tolist()
        data += (rng.standard_normal(k) + 2.0).tolist()
        indptr.append(len(indices))
    labels = rng.choice([-1.0, 1.0], size=n)
    return Problem(Dataset(indptr, indices, data, labels, d), kind, Regularizer(0.05, 0.05))


@pytest.mark.parametrize("kind", list(LossKind))
def test_batched_replay_matches_dense_step(monkeypatch, kind):
    # B > 1 updates read the stage plan: batches gathered a chunk at a time,
    # anchor terms from one keyed bincount per chunk. Every run
    # must equal the per-update whole-vector path byte for byte, for K below
    # the chunk, equal to it and not a multiple of it, and when it stops
    # early; rows with no entries, whole batches of them, and chunks of them
    from proxvr import problem as problem_mod

    rng = np.random.default_rng(62)
    B, chunk = 3, 4
    chunks, empty = [], {"batches": 0, "chunks": 0}

    def plan_chunk(dataset, anchor, rows, _real=problem_mod._plan_chunk):
        chunks.append(len(rows))
        per_batch = dataset.row_nnz[rows].sum(axis=1)
        empty["batches"] += int(np.count_nonzero(per_batch == 0))
        empty["chunks"] += int(not per_batch.any())
        return _real(dataset, anchor, rows)

    monkeypatch.setattr(problem_mod, "_plan_chunk", plan_chunk)
    for prob in (_gappy_problem(rng, kind, 0.05), _sparse_rows_problem(rng, kind)):
        # chunks of exactly ``chunk`` batches at this problem's widest row
        width = B * int(prob.dataset.row_nnz.max())
        monkeypatch.setattr(problem_mod, "_PLAN_ENTRIES", chunk * width)
        for K in (3, 4, 10):
            for m, svrg in ((1, True), (1, False), (3, False)):
                for tau in (0, 3):
                    for wr in (True, False):
                        cfg = SolverConfig(eta=0.3, B=B, K=K, S=4, m=m, seed=K + 10 * tau,
                                           with_replacement=wr)
                        sched = sample_delay_schedule("uniform", tau, cfg.S * cfg.K, 7,
                                                      inconsistent=True)
                        want, delays, log = _dense_replay(prob, cfg, np.zeros(prob.d), svrg,
                                                          sched)
                        stops = [None, want.objectives[1]] if K == 10 else [None]
                        for stop in stops:
                            if stop is not None:
                                want, delays, log = _dense_replay(
                                    prob, cfg, np.zeros(prob.d), svrg, sched, stop)
                                assert len(want.records) < cfg.S
                            chunks.clear()
                            got = replay(prob, cfg, np.zeros(prob.d), svrg, sched, stop,
                                         record_iterates=True, debug=True)
                            assert [o.hex() for o in got.trace.objectives] == [
                                o.hex() for o in want.objectives]
                            assert [x.tobytes() for x in got.trace.iterates] == [
                                x.tobytes() for x in want.iterates]
                            assert got.trace.x_final.tobytes() == want.x_final.tobytes()
                            assert got.delays.tolist() == delays
                            assert format_commit_log(got.commit_log) == log
                            stage = [min(chunk, K - k) for k in range(0, K, chunk)]
                            assert chunks == stage * len(want.records)
    assert empty["chunks"] > 0 and empty["batches"] > empty["chunks"]


def _substitution_problems(rng):
    """(problem, what) pairs for the stage plan's rare substitution cases:
    column 5 stored by no row, so the full gradient is exactly 0 there,
    with every fourth row empty; and least-squares rows of label 0, whose
    anchor coefficient at x = 0 is exactly 0, next to rows of label -1
    (coefficient 1) that all store 1.0 in column 0, so the anchor term of a
    batch of one row of each equals the full gradient there, 0.5."""
    n, d = 12, 6
    indptr, indices, data = [0], [], []
    for i in range(n):
        k = 0 if i % 4 == 1 else int(rng.integers(1, 4))
        indices += np.sort(rng.choice(5, size=k, replace=False)).tolist()
        data += (rng.standard_normal(k) + 2.0 * np.sign(rng.standard_normal(k))).tolist()
        indptr.append(len(indices))
    labels = rng.choice([-1.0, 1.0], size=n)
    column = Dataset(indptr, indices, data, labels, d)
    indptr, indices, data = [0], [], []
    for i in range(n):
        cols = [0, 1 + i % 5] if i < 6 else [0, *rng.choice(np.arange(1, d), 2, replace=False)]
        indices += sorted(cols)
        data += [1.0, *(rng.standard_normal(len(cols) - 1) + 2.0)]
        indptr.append(len(indices))
    zero_coef = Dataset(indptr, indices, data, [-1.0] * 6 + [0.0] * 6, d)
    reg = Regularizer(0.05, 0.05)
    return [(Problem(column, kind, reg), "zero") for kind in LossKind] + [
        (Problem(zero_coef, LossKind.LEAST_SQUARES, reg), "keyed")]


def test_gathered_plan_substitution_cases_match_dense_step(monkeypatch):
    # the gathered plan compares anchor terms with the full gradient on the
    # batches' stored entries only, and compares all c x d terms only where
    # the full gradient has a zero or a stored entry's term equals it. Each
    # rare case must equal the two-minibatch_grad gradient and the
    # per-update whole-vector path byte for byte, in chunks with empty and
    # repeated rows too
    from proxvr import problem as problem_mod

    rng = np.random.default_rng(66)
    seen = {"zero": 0, "keyed": 0, "empty and repeated rows": 0}

    def anchor_terms(anchor, keys, cols, weights, c, B, _real=problem_mod._anchor_terms):
        terms, same = _real(anchor, keys, cols, weights, c, B)
        if any(u is not None for u in same):
            seen["zero" if anchor.has_zero else "keyed"] += 1
        return terms, same

    def plan_chunk(dataset, anchor, rows, _real=problem_mod._plan_chunk):
        repeated = any(len(set(batch)) < len(batch) for batch in rows.tolist())
        seen["empty and repeated rows"] += repeated and not dataset.row_nnz[rows].all()
        return _real(dataset, anchor, rows)

    monkeypatch.setattr(problem_mod, "_anchor_terms", anchor_terms)
    monkeypatch.setattr(problem_mod, "_plan_chunk", plan_chunk)
    monkeypatch.setattr(problem_mod, "_PLAN_ENTRIES", 16)
    for prob, case in _substitution_problems(rng):
        ds, B = prob.dataset, 2 if case == "keyed" else 3
        anchor = prob.make_anchor(np.zeros(prob.d))
        assert anchor.has_zero == (case == "zero")
        before = dict(seen)
        rows = rng.integers(0, prob.n, size=(40, B))
        for batch, planned in problem_mod.stage_batches(ds, anchor, rows):
            for x in (rng.standard_normal(prob.d), anchor.x_tilde):
                got = prob.vr_grad(batch, x, anchor, planned)
                assert got.tobytes() == two_pass_vr(prob.loss, ds, batch, x, anchor).tobytes()
        assert seen[case] > before[case]
        for m, svrg in ((1, True), (3, False)):
            for tau in (0, 3):
                for wr in (True, False):
                    cfg = SolverConfig(eta=0.3, B=B, K=10, S=3, m=m, seed=tau + 2 * m,
                                       with_replacement=wr)
                    sched = sample_delay_schedule("uniform", tau, cfg.S * cfg.K, 3,
                                                  inconsistent=True)
                    want, delays, log = _dense_replay(prob, cfg, np.zeros(prob.d), svrg, sched)
                    for mode in (sched, None) if tau == 0 else (sched,):
                        got = replay(prob, cfg, np.zeros(prob.d), svrg, mode,
                                     record_iterates=True, debug=mode is not None)
                        assert [o.hex() for o in got.trace.objectives] == [
                            o.hex() for o in want.objectives]
                        assert [x.tobytes() for x in got.trace.iterates] == [
                            x.tobytes() for x in want.iterates]
                        assert got.trace.x_final.tobytes() == want.x_final.tobytes()
                        assert got.delays.tolist() == delays
                        if mode is not None:
                            assert format_commit_log(got.commit_log) == log
    assert min(seen.values()) > 0


@pytest.mark.parametrize("kind", list(LossKind))
def test_wide_batched_replay_matches_dense_step(monkeypatch, kind):
    # batches of B >= n rows take the all-rows form: multiplicities counted
    # for the whole stage, anchor terms summed a chunk at a time over every
    # stored entry, or through the (n, d) view where every row is full. Every
    # run must equal the per-update whole-vector path byte for byte, under
    # both sampling laws, for chunks of one and of several batches, K not a
    # multiple of the chunk, and an early stop
    from proxvr import problem as problem_mod

    rng = np.random.default_rng(64)
    neg_zeros = 0
    for prob in (_gappy_problem(rng, kind, 0.05), _sparse_rows_problem(rng, kind),
                 _full_rows_problem(rng, kind)):
        # a chunk weighs every row, or sums every stored entry, per batch
        full = prob.dataset._matrix is not None
        width = prob.n if full else prob.dataset.indices.size
        for chunk in (1, 3):
            monkeypatch.setattr(problem_mod, "_PLAN_ENTRIES", chunk * width)
            for m, svrg in ((1, True), (3, False)):
                for tau in (0, 3):
                    for wr in (True, False):
                        cfg = SolverConfig(eta=0.3, B=prob.n, K=7, S=3, m=m, seed=tau + chunk,
                                           with_replacement=wr)
                        sched = sample_delay_schedule("uniform", tau, cfg.S * cfg.K, 5,
                                                      inconsistent=True)
                        want, delays, log = _dense_replay(prob, cfg, np.zeros(prob.d), svrg,
                                                          sched)
                        for stop in (None, want.objectives[0]):
                            if stop is not None:
                                want, delays, log = _dense_replay(
                                    prob, cfg, np.zeros(prob.d), svrg, sched, stop)
                            got = replay(prob, cfg, np.zeros(prob.d), svrg, sched, stop,
                                         record_iterates=True, debug=True)
                            assert [o.hex() for o in got.trace.objectives] == [
                                o.hex() for o in want.objectives]
                            assert [x.tobytes() for x in got.trace.iterates] == [
                                x.tobytes() for x in want.iterates]
                            assert got.trace.x_final.tobytes() == want.x_final.tobytes()
                            assert got.delays.tolist() == delays
                            assert format_commit_log(got.commit_log) == log
                            if full:
                                neg_zeros += sum(int(np.signbit(x[x == 0.0]).sum())
                                                 for x in want.iterates)
    assert neg_zeros > 0


@pytest.mark.parametrize("B", [1, 3, 30])
def test_undo_log_keeps_block_sized_values(monkeypatch, rng, B):
    # the undo log keeps every commit's values by reference: on blocks of
    # m > 1, each must be an array of the block's size that owns its data,
    # not a view that keeps a whole d-vector alive (B = 30 = n is wide)
    kept = []

    def commit(self, values, block, _real=MasterState._commit):
        _real(self, values, block)
        j, _, new = self._log[-1]
        lo, hi = BlockPartition.equal(self.x.size, 3).edges[j:j + 2]
        kept.append((new.size == hi - lo < self.x.size, new.base is None))

    monkeypatch.setattr(MasterState, "_commit", commit)
    prob = make_problem(rng, 30, 12)
    cfg = SolverConfig(eta=0.05, B=B, K=10, S=2, m=3, seed=B)
    sched = sample_delay_schedule("uniform", 3, cfg.S * cfg.K, 2, inconsistent=True)
    async_svrcd_run(prob, cfg, np.zeros(prob.d), SimulateMode(sched))
    assert kept and set(kept) == {(True, True)}


def test_stage_plan_memory_budget(monkeypatch):
    # every chunk of the plan stays inside the entry and anchor-term budgets,
    # whatever K * B * nnz or d is, and holds at least one batch
    from proxvr import problem as problem_mod

    chunks = []

    def plan_chunk(dataset, anchor, rows, _real=problem_mod._plan_chunk):
        chunks.append((len(rows), int(dataset.row_nnz[rows].sum()), len(rows) * dataset.d))
        return _real(dataset, anchor, rows)

    monkeypatch.setattr(problem_mod, "_plan_chunk", plan_chunk)
    rng = np.random.default_rng(63)
    # K * B * nnz far above the entry budget; then d above the value budget
    for n, d, nnz, B, K, largest in ((200, 1000, 100, 10, 200, 8), (40, 200_000, 3, 5, 30, 1)):
        cols = np.sort([rng.choice(d, size=nnz, replace=False) for _ in range(n)], axis=1)
        ds = Dataset(np.arange(0, n * nnz + 1, nnz), cols.ravel(), rng.random(n * nnz) + 1.0,
                     np.ones(n), d)
        anchor = Problem(ds, LossKind.LEAST_SQUARES, Regularizer()).make_anchor(np.zeros(d))
        chunks.clear()
        rows = np.random.default_rng(K).integers(0, n, size=(K, B))
        batches = list(problem_mod.stage_batches(ds, anchor, rows))
        assert len(batches) == K and sum(c for c, _, _ in chunks) == K
        assert all(c == 1 or (e <= problem_mod._PLAN_ENTRIES and v <= problem_mod._PLAN_VALUES)
                   for c, e, v in chunks)
        assert max(c for c, _, _ in chunks) == largest
        assert K * B * nnz > 8 * problem_mod._PLAN_ENTRIES or d > problem_mod._PLAN_VALUES


def test_matrix_view_plan_memory_budget(monkeypatch):
    # a wide chunk summed through the rows' matrix view holds c batches'
    # (c, n) row weights, at most the entry budget, and (c, d) anchor
    # terms, at most the value budget; a chunk holds at least one batch
    from proxvr import problem as problem_mod

    chunks = []

    def wide_plans(dataset, anchor, rows, chunk, _real=problem_mod._wide_plans):
        chunks.append(chunk)
        return _real(dataset, anchor, rows, chunk)

    monkeypatch.setattr(problem_mod, "_wide_plans", wide_plans)
    rng = np.random.default_rng(65)
    for n, d, largest in ((200, 20, 40), (300, 40, 27), (20, 3000, 10), (3, 40_000, 1)):
        ds = Dataset(np.arange(n + 1) * d, np.tile(np.arange(d), n), rng.random(n * d) + 1.0,
                     np.ones(n), d)
        assert ds._matrix is not None
        anchor = Problem(ds, LossKind.LEAST_SQUARES, Regularizer()).make_anchor(np.zeros(d))
        chunks.clear()
        rows = np.random.default_rng(n).integers(0, n, size=(50, n))
        assert len(list(problem_mod.stage_batches(ds, anchor, rows))) == 50
        assert chunks == [largest]
        assert largest == 1 or (largest * n <= problem_mod._PLAN_ENTRIES
                                and largest * d <= problem_mod._PLAN_VALUES)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2**40), B=st.sampled_from([1, 3, 200]),
       m=st.integers(2, 64), K=st.integers(0, 12), stop=st.integers(1, 3))
def test_stage_draws_equal_per_update_draws(seed, n, B, m, K, stop):
    # every solver draws a stage's rows and blocks at once; they must be the
    # values of K draws of one update each and leave each generator where
    # those leave it, so a run that stops early after ``stop`` stages
    # consumed the same prefix of both streams
    stage_rows, stage_blocks = streams = make_streams(seed)
    update_rows, update_blocks = make_streams(seed)
    for _ in range(stop):
        rows, blocks = _stage_draws(streams, n, B, m, K, True)
        assert rows.shape == (K, B)
        assert rows.tolist() == [draw_batch(update_rows, n, B).tolist() for _ in range(K)]
        assert blocks == [draw_block(update_blocks, m) for _ in range(K)]
        assert stage_rows.bit_generator.state == update_rows.bit_generator.state
        assert stage_blocks.bit_generator.state == update_blocks.bit_generator.state


@pytest.mark.parametrize("B", [1, 3, 7])
@pytest.mark.parametrize("with_replacement", [True, False])
def test_replay_draws_are_per_update_draws(monkeypatch, rng, B, with_replacement):
    # whatever replay draws at once, its batches and blocks are those of one
    # draw_batch and one draw_block per update, in a run stopped early too
    from proxvr import async_engine

    seen = []

    def rule(*args, _real=async_engine._stage_rule):
        anchor, grad, step = _real(*args)

        def recorded(batch, *rest):
            seen.append(np.asarray(batch).tolist())
            return grad(batch, *rest)

        return anchor, recorded, step

    monkeypatch.setattr(async_engine, "_stage_rule", rule)
    prob = make_problem(rng, 30, 8)
    x0 = np.zeros(prob.d)
    cfg = SolverConfig(eta=0.05, B=B, K=10, S=6, m=3, seed=11,
                       with_replacement=with_replacement)
    objectives = replay(prob, cfg, x0, False, None).trace.objectives
    stages = next(s for s, o in enumerate(objectives, 1) if o <= objectives[2])
    seen.clear()
    rep = replay(prob, cfg, x0, False, None, stop_below=objectives[2], debug=True)
    assert len(rep.trace.records) == stages < cfg.S
    batch_rng, block_rng = make_streams(cfg.seed)
    updates = stages * cfg.K
    want_batches = [draw_batch(batch_rng, prob.n, B, with_replacement).tolist()
                    for _ in range(cfg.S * cfg.K)]
    want_blocks = [draw_block(block_rng, 3) for _ in range(cfg.S * cfg.K)]
    assert seen == want_batches[:updates]
    assert [r.block for r in rep.commit_log] == want_blocks[:updates]
    # threads workers take the same draws by ticket: each stage's batches
    # and blocks, in whatever order the workers commit them
    for workers in (1, 3):
        seen.clear()
        rep = async_svrcd_run(prob, cfg, x0, ThreadsMode(workers), stop_below=objectives[2],
                              debug=True)
        done = len(rep.trace.records) * cfg.K
        blocks = [r.block for r in rep.commit_log]  # in clock order, stage by stage
        if workers == 1:  # one worker takes them in order
            assert (seen, blocks) == (want_batches[:updates], want_blocks[:updates])
        assert len(seen) == len(blocks) == done
        for k in range(0, done, cfg.K):
            assert sorted(seen[k:k + cfg.K]) == sorted(want_batches[k:k + cfg.K]), workers
            assert sorted(blocks[k:k + cfg.K]) == sorted(want_blocks[k:k + cfg.K]), workers


def test_zero_delay_svrg_matches_sequential(rng):
    prob = make_problem(rng, 40, 10)
    cfg = SolverConfig(eta=0.2, B=2, K=40, S=3, seed=21)
    seq = prox_svrg_run(prob, cfg, np.zeros(10), record_iterates=True)
    sched = sample_delay_schedule("constant", 0, cfg.S * cfg.K, seed=1)
    rep = async_svrg_run(prob, cfg, np.zeros(10), SimulateMode(sched), record_iterates=True)
    assert seq.objectives == rep.trace.objectives
    assert np.array_equal(seq.x_final, rep.trace.x_final)
    assert all(np.array_equal(a, b) for a, b in zip(seq.iterates, rep.trace.iterates))


def test_zero_delay_svrcd_matches_sequential(rng):
    prob = make_problem(rng, 40, 9)
    cfg = SolverConfig(eta=0.15, B=2, K=40, S=3, m=3, seed=22)
    seq = prox_svrcd_run(prob, cfg, np.zeros(9), record_iterates=True)
    sched = sample_delay_schedule("constant", 0, cfg.S * cfg.K, seed=1,
                                  inconsistent=True, include_prob=1.0)
    rep = async_svrcd_run(prob, cfg, np.zeros(9), SimulateMode(sched), record_iterates=True)
    assert seq.objectives == rep.trace.objectives
    assert all(np.array_equal(a, b) for a, b in zip(seq.iterates, rep.trace.iterates))


def test_simulate_replay_deterministic(rng):
    prob = make_problem(rng, 30, 8)
    cfg = SolverConfig(eta=0.1, B=2, K=30, S=2, m=4, seed=3)
    sched = sample_delay_schedule("uniform", 4, 60, seed=8, inconsistent=True)
    a = async_svrcd_run(prob, cfg, np.zeros(8), SimulateMode(sched), record_iterates=True)
    b = async_svrcd_run(prob, cfg, np.zeros(8), SimulateMode(sched), record_iterates=True)
    assert a.trace.objectives == b.trace.objectives
    assert all(np.array_equal(u, v) for u, v in zip(a.trace.iterates, b.trace.iterates))
    assert a.delay_mean == b.delay_mean and a.delay_max == b.delay_max


def test_simulate_commit_count_and_delay_bound(rng):
    prob = make_problem(rng, 30, 8)
    cfg = SolverConfig(eta=0.1, B=1, K=25, S=4, seed=5)
    sched = sample_delay_schedule("uniform", 3, 100, seed=2)
    rep = async_svrg_run(prob, cfg, np.zeros(8), SimulateMode(sched))
    assert rep.total_commits == 100
    assert rep.delay_max <= 3
    assert rep.delay_mean <= 3
    assert len(rep.stage_mean_delays) == 4


def test_simulate_schedule_too_short_rejected(rng):
    prob = make_problem(rng, 20, 6)
    cfg = SolverConfig(eta=0.1, B=1, K=50, S=2, seed=5)
    sched = sample_delay_schedule("constant", 0, 99, seed=0)
    with pytest.raises(ContractViolation):
        async_svrg_run(prob, cfg, np.zeros(6), SimulateMode(sched))
    # the run itself checks the length, whoever calls it
    for svrg in (True, False):
        with pytest.raises(ContractViolation, match="schedule length"):
            replay(prob, cfg, np.zeros(6), svrg, sched)


def test_simulate_svrcd_singleton_blocks_contracts_within_rate(rng):
    # m = d (one coordinate per block), delay bound 4, admissible step
    from proxvr import theory
    from proxvr.data_io import synth_dataset
    from proxvr.problem import LossKind, Problem, Regularizer

    ds = synth_dataset(60, 12, 1.0, seed=51)  # unit-norm rows keep T at 1/4
    prob = Problem(ds, LossKind.LOGISTIC, Regularizer(1e-3, 0.1))
    L, T = theory.estimate_lipschitz(prob.dataset, prob.loss)
    mu = prob.reg.lambda2
    eta = 1.0 / (24.0 * T)
    K = int(216 * 12 * T / mu)
    consts = theory.ProblemConstants(
        mu=mu, L=L, T=T, Delta=theory.data_sparsity_delta(prob.dataset),
        tau=4, B=1, K=K, m=12, eta=eta,
    )
    assert theory.svrcd_stepsize_admissible(consts)
    rho = theory.svrcd_rate(consts)
    assert rho < 1.0
    from proxvr.bench_cli import compute_reference_optimum

    ref = compute_reference_optimum(prob, 1e-12)
    sub0 = prob.objective(np.zeros(12)) - ref.p_star
    ratios = []
    for seed in range(5):
        cfg = SolverConfig(eta=eta, B=1, K=K, S=2, m=12, seed=seed)
        sched = sample_delay_schedule("uniform", 4, 2 * K, seed=500 + seed, inconsistent=True)
        rep = async_svrcd_run(prob, cfg, np.zeros(12), SimulateMode(sched))
        subs = [sub0] + [o - ref.p_star for o in rep.trace.objectives]
        ratios.extend(subs[s] / subs[s - 1] for s in range(1, 3) if subs[s - 1] > 1e-9)
    assert float(np.median(ratios)) <= rho


def test_simulate_one_block_svrcd_equals_svrg_under_delay(rng):
    prob = make_problem(rng, 30, 6)
    cfg = SolverConfig(eta=0.1, B=2, K=40, S=3, m=1, seed=4)
    sched = sample_delay_schedule("uniform", 3, cfg.S * cfg.K, seed=6)
    assert sched.applied_offsets is None
    a = async_svrg_run(prob, cfg, np.zeros(6), SimulateMode(sched), record_iterates=True)
    b = async_svrcd_run(prob, cfg, np.zeros(6), SimulateMode(sched), record_iterates=True)
    assert a.delay_max == 3  # the schedule really delays the reads
    assert a.trace.objectives == b.trace.objectives
    assert np.array_equal(a.trace.x_final, b.trace.x_final)
    assert len(a.trace.iterates) == len(b.trace.iterates) == cfg.S * cfg.K
    assert all(np.array_equal(u, v) for u, v in zip(a.trace.iterates, b.trace.iterates))
    assert (a.delay_mean, a.delay_max, a.stage_mean_delays) == (
        b.delay_mean, b.delay_max, b.stage_mean_delays
    )
    assert np.array_equal(a.delay_histogram, b.delay_histogram)
    # SVRG reads consistently: applied sets in the schedule change nothing
    mixed = sample_delay_schedule("uniform", 3, cfg.S * cfg.K, seed=6, inconsistent=True)
    assert np.array_equal(mixed.taus, sched.taus)
    c = async_svrg_run(prob, cfg, np.zeros(6), SimulateMode(mixed), record_iterates=True)
    assert c.trace.objectives == a.trace.objectives
    assert all(np.array_equal(u, v) for u, v in zip(a.trace.iterates, c.trace.iterates))


@pytest.mark.parametrize("threads", [False, True], ids=["simulate", "threads"])
def test_commit_log_block_label_follows_algorithm(rng, threads):
    prob = make_problem(rng, 20, 6)
    cfg = SolverConfig(eta=0.1, B=1, K=30, S=2, m=1, seed=8)

    def mode():
        if threads:
            return ThreadsMode(2)
        return SimulateMode(sample_delay_schedule("uniform", 2, 60, seed=3))

    for m in (1, 3):
        c = replace(cfg, m=m)
        svrg = async_svrg_run(prob, c, np.zeros(6), mode(), debug=True)
        assert [r.block for r in svrg.commit_log] == [-1] * 60  # SVRG ignores m
        assert format_commit_log(svrg.commit_log).splitlines()[0].split(",")[2] == "-1"
        svrcd = async_svrcd_run(prob, c, np.zeros(6), mode(), debug=True)
        blocks = [r.block for r in svrcd.commit_log]
        if m == 1:
            assert blocks == [0] * 60
        else:
            assert set(blocks) == {0, 1, 2}


def test_simulate_objectives_decrease_under_delay(rng):
    prob = make_problem(rng, 60, 10, lambda2=0.1)
    cfg = SolverConfig(eta=0.1, B=2, K=150, S=4, seed=9)
    sched = sample_delay_schedule("uniform", 4, 600, seed=4)
    rep = async_svrg_run(prob, cfg, np.zeros(10), SimulateMode(sched))
    objs = rep.trace.objectives
    assert objs[-1] < objs[0]


# ------------------------------------------------------------- threads mode


def test_threads_svrg_commit_integrity(rng):
    prob = make_problem(rng, 40, 8, lambda2=0.1)
    cfg = SolverConfig(eta=0.1, B=2, K=120, S=2, seed=31)
    rep = async_svrg_run(prob, cfg, np.zeros(8), ThreadsMode(3))
    assert rep.total_commits == 240
    assert sum(rep.worker_updates) == 240
    assert rep.trace.objectives[-1] < prob.objective(np.zeros(8))
    assert rep.delay_max >= 0 and len(rep.stage_mean_delays) == 2


def test_threads_svrcd_block_isolation_fold(rng):
    prob = make_problem(rng, 30, 8, lambda2=0.1)
    cfg = SolverConfig(eta=0.1, B=1, K=400, S=1, m=4, seed=17, last_iterate=True)
    part = BlockPartition.equal(8, 4)
    rep = async_svrcd_run(prob, cfg, np.zeros(8), ThreadsMode(4), debug=True)
    assert rep.total_commits == 400
    # fold the commit log in clock order; no write may be lost
    fold = np.zeros(8)
    for rec in sorted(rep.commit_log, key=lambda r: r.clock):
        lo, hi = part.edges[rec.block:rec.block + 2]
        fold[lo:hi] = rec.block_values
    assert np.array_equal(fold, rep.trace.x_final)
    clocks = sorted(r.clock for r in rep.commit_log)
    assert clocks == list(range(1, 401))
    lines = format_commit_log(rep.commit_log).splitlines()
    assert len(lines) == 400
    clock, worker, block, delay = lines[0].split(",")
    assert int(clock) >= 1 and 0 <= int(worker) < 4 and 0 <= int(block) < 4
    assert int(delay) >= 0


@pytest.mark.parametrize("algo", ["svrg", "svrcd"])
def test_threads_stress_commit_log_rebuilds_stage_averages(rng, algo):
    # more workers than cores and frequent thread switches; a lost block
    # write or a stage sum out of clock order breaks the rebuilt stage
    # average, which equals the run's bit for bit. At B = 4 the workers also
    # take their entries of the stage's batch plan under its own lock
    prob = make_problem(rng, 30, 8, lambda2=0.1)
    m = 4 if algo == "svrcd" else 1
    part = BlockPartition.equal(8, m)
    runner = async_svrcd_run if algo == "svrcd" else async_svrg_run
    for B in (1, 4):
        cfg = SolverConfig(eta=0.1, B=B, K=150, S=2, m=m, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = runner(prob, cfg, np.zeros(8), ThreadsMode(6), debug=True)
        finally:
            sys.setswitchinterval(interval)
        x_tilde = np.zeros(8)
        for s in (1, 2):
            commits = sorted((r for r in rep.commit_log if r.stage == s), key=lambda r: r.clock)
            assert [r.clock for r in commits] == list(range(1, cfg.K + 1))
            x, xs = x_tilde.copy(), []
            for r in commits:
                assert 0 <= r.delay < r.clock
                j = max(r.block, 0)
                lo, hi = part.edges[j:j + 2]
                x[lo:hi] = r.block_values
                xs.append(x.copy())
            blocks = [max(r.block, 0) for r in commits]
            x_tilde = _hold_sum(x_tilde, xs, blocks, part.bounds) / cfg.K
            assert prob.objective(x_tilde).hex() == rep.trace.objectives[s - 1].hex()
        assert x_tilde.tobytes() == rep.trace.x_final.tobytes()


def test_threads_record_iterates_in_clock_order(rng):
    # every commit records the iterate it made under the clock lock, so the
    # recorded iterates are the commit log folded in clock order
    prob = make_problem(rng, 30, 8, lambda2=0.1)
    for svrg, m, B in ((True, 1, 1), (True, 1, 4), (False, 4, 1), (False, 4, 4)):
        cfg = SolverConfig(eta=0.1, B=B, K=80, S=2, m=m, seed=7)
        part = BlockPartition.equal(8, m)
        runner = async_svrg_run if svrg else async_svrcd_run
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = runner(prob, cfg, np.zeros(8), ThreadsMode(3), record_iterates=True,
                         debug=True)
        finally:
            sys.setswitchinterval(interval)
        assert len(rep.trace.iterates) == cfg.S * cfg.K
        x_tilde, k = np.zeros(8), 0
        for s in (1, 2):
            commits = [r for r in rep.commit_log if r.stage == s]
            assert [r.clock for r in commits] == list(range(1, cfg.K + 1))
            x = x_tilde.copy()
            for r in commits:
                j = max(r.block, 0)
                lo, hi = part.edges[j:j + 2]
                x[lo:hi] = r.block_values
                assert x.tobytes() == rep.trace.iterates[k].tobytes()
                k += 1
            blocks = [max(r.block, 0) for r in commits]
            x_tilde = _hold_sum(x_tilde, rep.trace.iterates[k - cfg.K:k], blocks,
                                part.bounds) / cfg.K
        assert x_tilde.tobytes() == rep.trace.x_final.tobytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_threads_worker_error_is_raised_by_the_run(monkeypatch, workers):
    # a worker's error stops the remaining tickets, and the run raises it
    # once every worker has joined, instead of returning a short stage
    from proxvr import async_engine

    calls = []

    def rule(*args, _real=async_engine._stage_rule):
        anchor, grad, step = _real(*args)

        def failing(*rest):
            calls.append(None)
            if len(calls) == 7:
                raise FloatingPointError("the seventh gradient")
            return grad(*rest)

        return anchor, failing, step

    monkeypatch.setattr(async_engine, "_stage_rule", rule)
    prob = make_problem(np.random.default_rng(3), 30, 8, lambda2=0.1)
    running = set(threading.enumerate())
    for B in (1, 4):
        calls.clear()
        cfg = SolverConfig(eta=0.1, B=B, K=50, S=2, m=4, seed=1)
        with pytest.raises(FloatingPointError, match="seventh"):
            async_svrcd_run(prob, cfg, np.zeros(8), ThreadsMode(workers))
        assert len(calls) < cfg.K  # the first stage stopped short; no second one ran
        assert set(threading.enumerate()) == running


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("lambda1", [0.0, 5e-2])
def test_one_worker_threads_equals_sequential_solver(kind, lambda1):
    # one worker always reads the current iterate and takes the stage's
    # draws in order, so it walks the sequential solver's trajectory: the
    # same samples, update rule, commits and stage sum, bit for bit
    prob = _gappy_problem(np.random.default_rng(71), kind, lambda1)
    x0 = np.zeros(prob.d)
    for svrg, m in ((True, 1), (False, 3), (False, 7)):
        runner = async_svrg_run if svrg else async_svrcd_run
        part = BlockPartition.equal(prob.d, m)
        for B in (1, 4):
            for wr in (True, False):
                cfg = SolverConfig(eta=0.4, B=B, K=30, S=3, m=m, seed=m + 10 * B,
                                   with_replacement=wr)
                want = replay(prob, cfg, x0, svrg, None, record_iterates=True)
                got = runner(prob, cfg, x0, ThreadsMode(1), record_iterates=True, debug=True)
                assert [o.hex() for o in got.trace.objectives] == [
                    o.hex() for o in want.trace.objectives]
                assert got.trace.x_final.tobytes() == want.trace.x_final.tobytes()
                assert got.delays.tolist() == [0] * (cfg.S * cfg.K)
                assert [x.tobytes() for x in got.trace.iterates] == [
                    x.tobytes() for x in want.trace.iterates]
                # the logged block values, folded in clock order from each
                # stage's average, give every iterate
                x_tilde, k = x0, 0
                for s in range(1, cfg.S + 1):
                    commits = [r for r in got.commit_log if r.stage == s]
                    assert [r.clock for r in commits] == list(range(1, cfg.K + 1))
                    x = x_tilde.copy()
                    for r in commits:
                        j = max(r.block, 0)
                        lo, hi = part.edges[j:j + 2]
                        x[lo:hi] = r.block_values
                        assert x.tobytes() == want.trace.iterates[k].tobytes()
                        k += 1
                    blocks = [max(r.block, 0) for r in commits]
                    x_tilde = _hold_sum(x_tilde, want.trace.iterates[k - cfg.K:k], blocks,
                                        part.bounds) / cfg.K


@pytest.mark.parametrize("kind", list(LossKind))
def test_one_worker_threads_equals_sequential_on_full_rows(kind):
    # at B = n on rows that store every coordinate, a worker's batches take
    # the all-rows form through the (n, d) view, planned a chunk at a time
    # under the plan lock; one worker walks the sequential run bit for bit
    prob = _full_rows_problem(np.random.default_rng(72), kind)
    assert prob.dataset._matrix is not None
    x0 = np.zeros(prob.d)
    for svrg, m in ((True, 1), (False, 3)):
        runner = async_svrg_run if svrg else async_svrcd_run
        for wr in (True, False):
            cfg = SolverConfig(eta=0.4, B=prob.n, K=30, S=3, m=m, seed=m + 2 * wr,
                               with_replacement=wr)
            want = replay(prob, cfg, x0, svrg, None, record_iterates=True)
            got = runner(prob, cfg, x0, ThreadsMode(1), record_iterates=True)
            assert [o.hex() for o in got.trace.objectives] == [
                o.hex() for o in want.trace.objectives]
            assert [x.tobytes() for x in got.trace.iterates] == [
                x.tobytes() for x in want.trace.iterates]
            assert got.trace.x_final.tobytes() == want.trace.x_final.tobytes()


@pytest.mark.parametrize("workers", [2, 4])
def test_threads_commit_the_sequential_stage_draws(monkeypatch, workers):
    # whatever the interleaving, P workers step with each stage's (batch,
    # block) multiset of the sequential solver: every update index is taken
    # once, and each update's gradient is the one its commit steps with
    from proxvr import async_engine

    stages = []

    def rule(*args, _real=async_engine._stage_rule):
        anchor, grad, step = _real(*args)
        drawn = []
        stages.append(drawn)

        def recorded(batch, j, *rest):
            drawn.append((np.asarray(batch).tolist(), j))
            return grad(batch, j, *rest)

        return anchor, recorded, step

    monkeypatch.setattr(async_engine, "_stage_rule", rule)
    prob = _gappy_problem(np.random.default_rng(73), LossKind.LOGISTIC)
    x0 = np.zeros(prob.d)
    interval = sys.getswitchinterval()
    for B, m, wr in ((1, 3, True), (1, 7, False), (4, 3, True), (4, 1, False)):
        cfg = SolverConfig(eta=0.4, B=B, K=40, S=3, m=m, seed=B + m, with_replacement=wr)
        stages.clear()
        sys.setswitchinterval(1e-6)
        try:
            rep = async_svrcd_run(prob, cfg, x0, ThreadsMode(workers))
        finally:
            sys.setswitchinterval(interval)
        assert sum(rep.worker_updates) == rep.total_commits == cfg.S * cfg.K
        batch_rng, block_rng = make_streams(cfg.seed)
        assert len(stages) == cfg.S
        for drawn in stages:
            want = [(draw_batch(batch_rng, prob.n, B, wr).tolist(),
                     draw_block(block_rng, m) if m > 1 else 0) for _ in range(cfg.K)]
            assert sorted(drawn) == sorted(want)


def test_threads_run_starts_its_workers_and_locks_once(monkeypatch):
    # P workers and the block, clock and plan locks are made once per run,
    # not once per stage; sequential and simulate runs make neither
    from proxvr import async_engine

    ran_on, pools, locks = [], [], []

    def rule(*args, _real=async_engine._stage_rule):
        anchor, grad, step = _real(*args)

        def recorded(*rest):
            ran_on.append(threading.current_thread())  # a kept reference: no id reuse
            time.sleep(1e-4)  # lets every worker take tickets
            return grad(*rest)

        return anchor, recorded, step

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    def lock():
        locks.append(threading.Lock())
        return locks[-1]

    monkeypatch.setattr(async_engine, "_stage_rule", rule)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(async_engine, "threading", SimpleNamespace(Lock=lock))
    prob = make_problem(np.random.default_rng(5), 30, 8, lambda2=0.1)
    for B, m in ((1, 3), (4, 2)):
        cfg = SolverConfig(eta=0.1, B=B, K=30, S=4, m=m, seed=1)
        ran_on.clear(), pools.clear(), locks.clear()
        rep = async_svrcd_run(prob, cfg, np.zeros(8), ThreadsMode(3))
        assert rep.total_commits == len(ran_on) == cfg.S * cfg.K
        assert len(set(ran_on)) == 3 and threading.current_thread() not in ran_on
        assert len(pools) == 1 and len(locks) == m + 2
        ran_on.clear(), pools.clear(), locks.clear()
        sched = sample_delay_schedule("uniform", 2, cfg.S * cfg.K, seed=3, inconsistent=True)
        for mode in (None, sched):
            replay(prob, cfg, np.zeros(8), False, mode)
        assert set(ran_on) == {threading.current_thread()}
        assert not pools and not locks


def test_threads_single_worker_svrcd_matches_objective_trend(rng):
    prob = make_problem(rng, 30, 6, lambda2=0.1)
    cfg = SolverConfig(eta=0.1, B=1, K=80, S=2, m=3, seed=2)
    rep = async_svrcd_run(prob, cfg, np.zeros(6), ThreadsMode(1))
    assert rep.total_commits == 160
    assert rep.delay_max == 0  # one worker never sees interleaved commits
    assert rep.trace.objectives[-1] < prob.objective(np.zeros(6))


def test_mode_validation(rng):
    prob = make_problem(rng, 20, 6)
    cfg = SolverConfig(eta=0.1, B=1, K=5, S=1, seed=0)
    with pytest.raises(ContractViolation):
        async_svrg_run(prob, cfg, np.zeros(6), ThreadsMode(0))
    # the worker bound is refused at construction, before any thread starts
    for workers in (ThreadsMode.MAX_WORKERS + 1, 10**9, 2.0, True):
        with pytest.raises(ContractViolation, match="workers"):
            ThreadsMode(workers)
    assert ThreadsMode(ThreadsMode.MAX_WORKERS).workers == ThreadsMode.MAX_WORKERS
    # numpy integers pass, as SolverConfig's counts do, and are stored as int
    assert type(ThreadsMode(np.int64(2)).workers) is int and ThreadsMode(np.int64(2)).workers == 2
    with pytest.raises(ContractViolation):
        async_svrg_run(prob, cfg, np.zeros(6), "not-a-mode")
