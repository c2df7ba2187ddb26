import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_block, make_problem, one_dim_problem, separable_quadratic
from proxvr.async_engine import (
    SimulateMode,
    ThreadsMode,
    async_svrcd_run,
    async_svrg_run,
    sample_delay_schedule,
)
from proxvr.bench_cli import compute_reference_optimum
from proxvr.errors import ContractViolation
from proxvr.linalg import BlockPartition
from proxvr.problem import LossKind, Problem, Regularizer, prox_elastic
from proxvr.seq_solvers import (
    SolverConfig,
    draw_batch,
    make_streams,
    prox_scd_run,
    prox_sgd_run,
    prox_svrcd_run,
    prox_svrg_run,
    run_stages,
)


def _traces_equal(a, b):
    if [r.objective for r in a.records] != [r.objective for r in b.records]:
        return False
    if not np.array_equal(a.x_final, b.x_final):
        return False
    if (a.iterates is None) != (b.iterates is None):
        return False
    if a.iterates is not None:
        return all(np.array_equal(u, v) for u, v in zip(a.iterates, b.iterates))
    return True


# ---------------------------------------------------------------- ProxSGD


def test_sgd_zero_iterations_returns_x0(rng):
    prob = make_problem(rng, 10, 4)
    x0 = rng.standard_normal(4)
    tr = prox_sgd_run(prob, SolverConfig(eta=0.1, B=1, K=0, S=0), x0)
    assert np.array_equal(tr.x_final, x0)
    assert tr.records == []


def test_sgd_converges_on_soft_threshold_problem():
    # minimizer of (x-1)^2/2 + 0.3 |x| is 0.7
    prob = one_dim_problem(0.3)
    cfg = SolverConfig(eta=0.5, B=1, K=1000, S=20, eta_decay=(0.5, 100.0), seed=3)
    tr = prox_sgd_run(prob, cfg, np.zeros(1))
    assert abs(tr.x_final[0] - 0.7) < 1e-3


def test_sgd_full_batch_no_reg_is_plain_gd(rng):
    prob = make_problem(rng, 12, 4, kind=LossKind.LEAST_SQUARES, lambda1=0.0, lambda2=0.0)
    eta = 0.05
    cfg = SolverConfig(eta=eta, B=prob.n, K=7, S=2, seed=5, with_replacement=False)
    tr = prox_sgd_run(prob, cfg, np.zeros(4), record_iterates=True)
    x = np.zeros(4)
    for k, got in enumerate(tr.iterates):
        x = x - eta * prob.full_grad(x)
        assert np.array_equal(got, x), f"diverged from hand GD at update {k}"


def test_sgd_decay_formula_starts_at_eta0(rng):
    prob = one_dim_problem(0.0)
    cfg = SolverConfig(eta=1.0, B=1, K=1, S=1, eta_decay=(0.25, 50.0))
    tr = prox_sgd_run(prob, cfg, np.zeros(1), record_iterates=True)
    # first step: x1 = x0 - eta0 * (x0 - 1) = 0.25
    assert tr.iterates[0][0] == pytest.approx(0.25, abs=1e-15)


def test_invalid_configs_rejected(rng):
    prob = make_problem(rng, 10, 4)
    with pytest.raises(ContractViolation):
        prox_sgd_run(prob, SolverConfig(eta=-1.0, B=1, K=1, S=1), np.zeros(4))
    with pytest.raises(ContractViolation):
        prox_sgd_run(prob, SolverConfig(eta=0.1, B=99, K=1, S=1), np.zeros(4))
    with pytest.raises(ContractViolation):
        prox_svrcd_run(prob, SolverConfig(eta=0.1, B=1, K=1, S=1, m=9), np.zeros(4))
    # x0 must be d finite numbers in a 1-D array: (d, 1) used to pass the
    # length check and fail later in numpy
    for x0 in (np.zeros(5), np.zeros((4, 1)), np.array([0.0, np.nan, 0.0, 0.0]),
               np.array([0.0, 0.0, np.inf, 0.0])):
        with pytest.raises(ContractViolation, match="x0"):
            prox_sgd_run(prob, SolverConfig(eta=0.1, B=1, K=1, S=1), x0)
    # ranges that need no data fail when the config is built
    nan, inf = float("nan"), float("inf")
    for bad in (dict(eta=nan), dict(eta=inf), dict(eta=0.0), dict(B=0), dict(m=0),
                dict(K=-1), dict(S=-2), dict(seed=-1), dict(eta_decay=(nan, 1.0)),
                dict(eta_decay=(1.0, inf)), dict(eta_decay=(0.5, -1.0))):
        with pytest.raises(ContractViolation):
            SolverConfig(**{**dict(eta=0.1, B=1, K=1, S=1), **bad})
    # the counts and the seed must be integers: floats and bools used to fail
    # later, as a TypeError from the draws or inside SeedSequence
    for key in ("B", "K", "S", "m", "seed"):
        for bad in (2.0, 2.5, True, False, np.float64(2.0), "2", None):
            with pytest.raises(ContractViolation, match=key):
                SolverConfig(**{**dict(eta=0.1, B=1, K=2, S=2), key: bad})
    cfg = SolverConfig(eta=0.1, B=np.int64(1), K=np.int32(2), S=np.int64(2), m=np.int64(2),
                       seed=np.uint8(3))
    assert prox_svrcd_run(prob, cfg, np.zeros(4)).objectives == prox_svrcd_run(
        prob, SolverConfig(eta=0.1, B=1, K=2, S=2, m=2, seed=3), np.zeros(4)).objectives
    for length, seed in ((-3, 0), (5, -1)):
        with pytest.raises(ContractViolation):
            sample_delay_schedule("uniform", 2, length, seed)
    for tol in (-1.0, 0.0, nan):
        with pytest.raises(ContractViolation):
            compute_reference_optimum(prob, tol, max_iter=1)
    for bad in (0, -5, 2.5, True, "5"):
        with pytest.raises(ContractViolation):
            compute_reference_optimum(prob, 1e-12, max_iter=bad)


@pytest.mark.parametrize("runner", [prox_sgd_run, prox_scd_run, prox_svrg_run, prox_svrcd_run])
def test_integer_x0_runs_as_float(rng, runner):
    # an int x0 used to be the run's own iterate, truncated in place by
    # ProxSCD's block step; every run now starts from a float64 copy
    prob = make_problem(rng, 12, 6, lambda2=0.1)
    cfg = SolverConfig(eta=0.2, B=2, K=10, S=3, m=3, seed=4)
    want = runner(prob, cfg, np.zeros(6), record_iterates=True)
    x0 = np.zeros(6, dtype=int)
    got = runner(prob, cfg, x0, record_iterates=True)
    assert [o.hex() for o in got.objectives] == [o.hex() for o in want.objectives]
    assert [x.tobytes() for x in got.iterates] == [x.tobytes() for x in want.iterates]
    assert got.x_final.tobytes() == want.x_final.tobytes() and not x0.any()


def _per_update_plain(problem, config, x0, sgd, stop_below=None):
    """ProxSGD (``sgd``) or ProxSCD as two hand-written loops that draw one
    update at a time (``draw_batch``, ``draw_block``): the per-update
    reference for their shared plain loop, which draws a stage at once."""
    batch_rng, block_rng = make_streams(config.seed)
    k_global = 0

    def sgd_inner(s, x, iterates):
        nonlocal k_global
        for _ in range(config.K):
            if config.eta_decay is not None:
                eta0, sigma0 = config.eta_decay
                eta_k = eta0 * np.sqrt(sigma0 / (k_global + sigma0))
            else:
                eta_k = config.eta
            batch = draw_batch(batch_rng, problem.n, config.B, config.with_replacement)
            g = problem.minibatch_grad(batch, x)
            x = prox_elastic(x - eta_k * g, eta_k, problem.reg)
            k_global += 1
            iterates.append(x.copy())
        return x, None

    def scd_inner(s, x, iterates):
        part = BlockPartition.equal(problem.d, config.m)
        for _ in range(config.K):
            j = draw_block(block_rng, config.m)
            g = problem.full_grad(x)
            lo, hi = part.edges[j:j + 2]
            x[lo:hi] = prox_elastic(x[lo:hi] - config.eta * g[lo:hi], config.eta, problem.reg)
            iterates.append(x.copy())
        return x, None

    return run_stages(problem, config, x0, sgd_inner if sgd else scd_inner,
                      stop_below=stop_below, record_iterates=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sgd=st.booleans(),
       kind=st.sampled_from([LossKind.LOGISTIC, LossKind.LEAST_SQUARES]),
       lambda1=st.sampled_from([0.0, 0.05]), B=st.sampled_from([1, 3, "n"]),
       m=st.sampled_from([1, 3, "d"]), with_replacement=st.booleans(), decay=st.booleans(),
       empty=st.sampled_from([None, "K", "S"]), stop=st.booleans())
def test_plain_loop_equals_per_update_loops(seed, sgd, kind, lambda1, B, m, with_replacement,
                                            decay, empty, stop):
    # ProxSGD and ProxSCD share one loop that draws each stage at once; it
    # must give the per-update loops' objectives, iterates and x_final, byte
    # for byte, in a run stopped early at stage 2 too
    rng = np.random.default_rng(seed)
    prob = make_problem(rng, 9, 7, kind=kind, lambda1=lambda1)
    cfg = SolverConfig(eta=0.1, B=prob.n if B == "n" else B, m=prob.d if m == "d" else m,
                       K=0 if empty == "K" else 4, S=0 if empty == "S" else 3, seed=seed,
                       eta_decay=(0.3, 5.0) if decay else None,
                       with_replacement=with_replacement)
    x0 = rng.standard_normal(prob.d)
    runner = prox_sgd_run if sgd else prox_scd_run
    stop_below = None
    if stop and cfg.S:
        stop_below = runner(prob, cfg, x0).objectives[1]
    got = runner(prob, cfg, x0, stop_below=stop_below, record_iterates=True)
    want = _per_update_plain(prob, cfg, x0, sgd, stop_below)
    assert len(got.records) == len(want.records) <= (2 if stop_below is not None else cfg.S)
    assert [o.hex() for o in got.objectives] == [o.hex() for o in want.objectives]
    assert len(got.iterates) == len(want.iterates) == len(got.records) * cfg.K
    assert [x.tobytes() for x in got.iterates] == [x.tobytes() for x in want.iterates]
    assert got.x_final.tobytes() == want.x_final.tobytes()


# ---------------------------------------------------------------- ProxSCD


def test_scd_single_block_is_prox_full_gradient_descent(rng):
    prob = make_problem(rng, 15, 5, lambda1=0.05, lambda2=0.1)
    eta = 0.3
    cfg = SolverConfig(eta=eta, B=1, K=9, S=1, m=1, seed=2)
    tr = prox_scd_run(prob, cfg, np.zeros(5), record_iterates=True)
    x = np.zeros(5)
    for got in tr.iterates:
        x = prox_elastic(x - eta * prob.full_grad(x), eta, prob.reg)
        assert np.array_equal(got, x)


def test_scd_updates_touch_only_sampled_block(rng):
    prob = make_problem(rng, 15, 6, lambda1=0.05, lambda2=0.1)
    cfg = SolverConfig(eta=0.3, B=1, K=30, S=1, m=3, seed=7)
    tr = prox_scd_run(prob, cfg, rng.standard_normal(6), record_iterates=True)
    # replay the block stream to know which block each update touched
    _, block_rng = make_streams(cfg.seed)
    blocks = [int(block_rng.integers(0, cfg.m)) for _ in range(30)]
    x_prev = None
    for x_now, j in zip(tr.iterates, blocks):
        if x_prev is not None:
            lo, hi = 2 * j, 2 * j + 2
            outside = np.r_[0:lo, hi:6]
            assert np.array_equal(x_now[outside], x_prev[outside])
        x_prev = x_now


def test_scd_separable_quadratic_jumps_to_target():
    c = np.array([1.5, -2.0, 0.5, 3.0])
    prob = separable_quadratic(c)
    cfg = SolverConfig(eta=1.0, B=1, K=40, S=1, m=4, seed=11)
    tr = prox_scd_run(prob, cfg, np.zeros(4), record_iterates=True)
    _, block_rng = make_streams(cfg.seed)
    seen = set()
    for it, x_now in enumerate(tr.iterates):
        j = int(block_rng.integers(0, 4))
        seen.add(j)
        assert x_now[j] == pytest.approx(c[j], abs=1e-12)
        for j2 in seen:
            assert x_now[j2] == pytest.approx(c[j2], abs=1e-12)


# ---------------------------------------------------------------- ProxSVRG


def test_svrg_single_inner_step_uses_exact_full_gradient(rng):
    prob = make_problem(rng, 20, 5)
    eta = 0.2
    cfg = SolverConfig(eta=eta, B=2, K=1, S=4, seed=1)
    tr = prox_svrg_run(prob, cfg, np.zeros(5))
    x = np.zeros(5)
    for rec in tr.records:
        x = prox_elastic(x - eta * prob.full_grad(x), eta, prob.reg)
        assert rec.objective == prob.objective(x)
    assert np.array_equal(tr.x_final, x)


def test_svrg_full_batch_matches_prox_gd_bitwise(rng):
    prob = make_problem(rng, 30, 6, lambda1=0.01, lambda2=0.05)
    eta = 0.25
    cfg = SolverConfig(eta=eta, B=prob.n, K=12, S=1, seed=4, with_replacement=False)
    tr = prox_svrg_run(prob, cfg, np.zeros(6), record_iterates=True)
    x = np.zeros(6)
    for got in tr.iterates:
        x = prox_elastic(x - eta * prob.full_grad(x), eta, prob.reg)
        assert np.array_equal(got, x)


def test_svrg_deterministic(rng):
    prob = make_problem(rng, 25, 5)
    cfg = SolverConfig(eta=0.2, B=2, K=20, S=3, seed=123)
    a = prox_svrg_run(prob, cfg, np.zeros(5), record_iterates=True)
    b = prox_svrg_run(prob, cfg, np.zeros(5), record_iterates=True)
    assert _traces_equal(a, b)


def test_svrg_stage_records_are_consecutive(rng):
    prob = make_problem(rng, 25, 5)
    tr = prox_svrg_run(prob, SolverConfig(eta=0.2, B=2, K=10, S=5, seed=0), np.zeros(5))
    assert [r.stage for r in tr.records] == [1, 2, 3, 4, 5]
    assert all(r.updates == 10 for r in tr.records)


def test_svrg_median_trace_monotone(rng):
    prob = make_problem(rng, 40, 8, lambda2=0.1)
    objs = []
    for seed in range(9):
        tr = prox_svrg_run(prob, SolverConfig(eta=0.2, B=1, K=60, S=5, seed=seed), np.zeros(8))
        objs.append(tr.objectives)
    med = np.median(np.array(objs), axis=0)
    assert all(a >= b - 1e-12 for a, b in zip(med, med[1:]))


def test_svrg_early_stop(rng):
    prob = make_problem(rng, 30, 5, lambda2=0.2)
    cfg = SolverConfig(eta=0.2, B=1, K=100, S=50, seed=6)
    full = prox_svrg_run(prob, cfg, np.zeros(5))
    target = full.objectives[-1] + 1e-4
    stopped = prox_svrg_run(prob, cfg, np.zeros(5), stop_below=target)
    assert len(stopped.records) < len(full.records)
    assert stopped.objectives[-1] <= target


# ---------------------------------------------------------------- ProxSVRCD


def test_svrcd_single_block_degenerates_to_svrg(rng):
    prob = make_problem(rng, 30, 6)
    svrg = prox_svrg_run(prob, SolverConfig(eta=0.15, B=2, K=25, S=3, seed=9), np.zeros(6),
                         record_iterates=True)
    svrcd = prox_svrcd_run(prob, SolverConfig(eta=0.15, B=2, K=25, S=3, m=1, seed=9),
                           np.zeros(6), record_iterates=True)
    assert _traces_equal(svrg, svrcd)


def test_svrcd_updates_touch_only_sampled_block(rng):
    prob = make_problem(rng, 20, 8)
    cfg = SolverConfig(eta=0.1, B=2, K=40, S=1, m=4, seed=13)
    tr = prox_svrcd_run(prob, cfg, rng.standard_normal(8), record_iterates=True)
    _, block_rng = make_streams(cfg.seed)
    x_prev = None
    for x_now in tr.iterates:
        j = int(block_rng.integers(0, cfg.m))
        if x_prev is not None:
            lo, hi = 2 * j, 2 * j + 2
            outside = np.r_[0:lo, hi:8]
            assert np.array_equal(x_now[outside], x_prev[outside])
        x_prev = x_now


def test_svrcd_deterministic(rng):
    prob = make_problem(rng, 25, 6)
    cfg = SolverConfig(eta=0.1, B=2, K=30, S=2, m=3, seed=77)
    a = prox_svrcd_run(prob, cfg, np.zeros(6))
    b = prox_svrcd_run(prob, cfg, np.zeros(6))
    assert _traces_equal(a, b)


# ---------------------------------------------------------------- stage records


def _simulate(runner):
    def run(prob, cfg, x0):
        sched = sample_delay_schedule("uniform", 2, cfg.S * cfg.K, seed=0, inconsistent=True)
        return runner(prob, cfg, x0, SimulateMode(sched)).trace

    return run


_RUNS = {
    "prox_sgd": prox_sgd_run,
    "prox_scd": prox_scd_run,
    "prox_svrg": prox_svrg_run,
    "prox_svrcd": prox_svrcd_run,
    "async_svrg_simulate": _simulate(async_svrg_run),
    "async_svrcd_simulate": _simulate(async_svrcd_run),
    "async_svrg_threads": lambda p, c, x0: async_svrg_run(p, c, x0, ThreadsMode(2)).trace,
    "async_svrcd_threads": lambda p, c, x0: async_svrcd_run(p, c, x0, ThreadsMode(2)).trace,
}


@pytest.mark.parametrize("name", list(_RUNS))
def test_stage_seconds_exclude_objective_evaluation(rng, monkeypatch, name):
    prob = make_problem(rng, 8, 4)
    objective = Problem.objective

    def slow_objective(self, x):
        time.sleep(0.05)
        return objective(self, x)

    monkeypatch.setattr(Problem, "objective", slow_objective)
    cfg = SolverConfig(eta=0.1, B=2, K=5, S=3, m=2, seed=1)
    trace = _RUNS[name](prob, cfg, np.zeros(4))
    assert len(trace.records) == 3
    assert all(r.seconds < 0.05 for r in trace.records)


@pytest.mark.parametrize("name", list(_RUNS))
def test_stage_seconds_include_anchor(rng, monkeypatch, name):
    prob = make_problem(rng, 8, 4)
    make_anchor = Problem.make_anchor
    calls = []

    def slow_anchor(self, x_tilde):
        calls.append(1)
        time.sleep(0.05)
        return make_anchor(self, x_tilde)

    monkeypatch.setattr(Problem, "make_anchor", slow_anchor)
    cfg = SolverConfig(eta=0.1, B=2, K=5, S=3, m=2, seed=1)
    trace = _RUNS[name](prob, cfg, np.zeros(4))
    assert len(trace.records) == 3
    if name in ("prox_sgd", "prox_scd"):
        assert calls == []  # no anchor: no variance reduction
    else:
        assert len(calls) == 3
        assert all(r.seconds >= 0.05 for r in trace.records)


# ---------------------------------------------------------------- sampling


def test_draw_batch_without_replacement_sorted_full():
    rng = np.random.default_rng(0)
    batch = draw_batch(rng, 10, 10, with_replacement=False)
    assert batch.tolist() == list(range(10))


def test_make_streams_independent_of_each_other():
    b1, j1 = make_streams(42)
    b2, j2 = make_streams(42)
    assert b1.integers(0, 1000, 5).tolist() == b2.integers(0, 1000, 5).tolist()
    assert j1.integers(0, 1000, 5).tolist() == j2.integers(0, 1000, 5).tolist()
