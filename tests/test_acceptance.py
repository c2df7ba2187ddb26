"""Acceptance suite: one test per criterion, each printing its own pass line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

The empirical-contraction checks compare measured per-stage suboptimality
ratios against the contraction factors produced by the theory module; the
speedup check is machine-dependent by design and reports a warning instead of
failing the suite.
"""

import itertools
import math
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import proxvr as pv
from conftest import build_dataset, prox_ternary_oracle, random_dataset, random_sparse_vec
from proxvr import theory
from proxvr.async_engine import MasterState, read_inconsistent
from proxvr.bench_cli import (
    build_experiment,
    compute_reference_optimum,
    parse_config_file,
    run_experiment,
)
from proxvr.data_io import synth_dataset
from proxvr.linalg import BlockPartition
from proxvr.problem import (
    LossKind,
    Problem,
    Regularizer,
    SparseExample,
    minibatch_grad,
    objective_value,
    prox_elastic,
    vr_gradient,
)
from proxvr.seq_solvers import SolverConfig, prox_svrcd_run, prox_svrg_run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _ok(criterion, detail):
    print(f"\n[PASS] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def suite():
    """The strongly convex synthetic problem used by criteria 6 and 10."""
    ds = synth_dataset(200, 20, 1.0, seed=42)
    prob = Problem(ds, LossKind.LOGISTIC, Regularizer(1e-3, 0.1))
    ref = compute_reference_optimum(prob, 1e-12)
    L, T = theory.estimate_lipschitz(ds, LossKind.LOGISTIC)
    return SimpleNamespace(
        prob=prob,
        ref=ref,
        L=L,
        T=T,
        delta=theory.data_sparsity_delta(ds),
        mu=prob.reg.lambda2,
        sub0=prob.objective(np.zeros(prob.d)) - ref.p_star,
    )


# -------------------------------------------------------------------------
# 1. prox oracle equivalence
# -------------------------------------------------------------------------


def test_c01_prox_matches_ternary_search_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        y = rng.uniform(-10, 10, d)
        step = float(rng.uniform(0.05, 5.0))
        l1 = float(rng.uniform(0, 2))
        l2 = float(rng.uniform(0, 2))
        got = prox_elastic(y, step, Regularizer(l1, l2))
        for j in range(d):
            want = prox_ternary_oracle(float(y[j]), step, l1, l2)
            worst = max(worst, abs(got[j] - want))
            assert abs(got[j] - want) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(1, f"1000 cases, worst deviation {worst:.2e}, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 2. VR unbiasedness
# -------------------------------------------------------------------------


def test_c02_vr_gradient_unbiased_over_all_batches():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    ds = random_dataset(rng, 6, 5)
    prob = Problem(ds, LossKind.LOGISTIC, Regularizer())
    anchor = prob.make_anchor(rng.standard_normal(5))
    batches = list(itertools.combinations(range(6), 2))
    assert len(batches) == 15
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(5)
        mean = sum(
            vr_gradient(LossKind.LOGISTIC, ds, b, x, anchor) for b in batches
        ) / len(batches)
        err = float(np.max(np.abs(mean - prob.full_grad(x))))
        worst = max(worst, err)
        assert err < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(2, f"15-batch average vs full gradient, worst gap {worst:.2e}, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 3. gradient correctness (finite differences)
# -------------------------------------------------------------------------


def test_c03_gradients_match_central_differences():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for kind in (LossKind.LOGISTIC, LossKind.LEAST_SQUARES):
        for _ in range(100):
            d = int(rng.integers(2, 12))
            ex = SparseExample(
                random_sparse_vec(rng, d, 0.7), float(rng.choice([-1.0, 1.0]))
            )
            # one example's loss and gradient through the solvers' kernels
            ds1 = build_dataset([ex], d)
            x = rng.standard_normal(d)
            g = minibatch_grad(kind, ds1, [0], x)
            fd = np.zeros(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (objective_value(kind, ds1, Regularizer(), x + e)
                         - objective_value(kind, ds1, Regularizer(), x - e)) / (2 * h)
            rel = float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8))
            worst = max(worst, rel)
            assert rel < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(3, f"200 evaluation points, worst relative error {worst:.2e}, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 4. zero-delay equivalence
# -------------------------------------------------------------------------


def test_c04_zero_delay_reproduces_sequential_bitwise():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    prob = Problem(
        random_dataset(rng, 40, 12), LossKind.LOGISTIC, Regularizer(1e-3, 0.1)
    )
    x0 = np.zeros(12)
    for seed in range(5):
        cfg = SolverConfig(eta=0.2, B=2, K=40, S=3, seed=seed)
        seq = prox_svrg_run(prob, cfg, x0, record_iterates=True)
        sched = pv.sample_delay_schedule("constant", 0, cfg.S * cfg.K, seed=seed)
        rep = pv.async_svrg_run(
            prob, cfg, x0, pv.SimulateMode(sched), record_iterates=True
        )
        assert seq.objectives == rep.trace.objectives
        assert len(seq.iterates) == len(rep.trace.iterates)
        assert all(np.array_equal(a, b) for a, b in zip(seq.iterates, rep.trace.iterates))

        cfg_cd = SolverConfig(eta=0.15, B=2, K=40, S=3, m=3, seed=seed)
        seq_cd = prox_svrcd_run(prob, cfg_cd, x0, record_iterates=True)
        sched_cd = pv.sample_delay_schedule(
            "constant", 0, cfg_cd.S * cfg_cd.K, seed=seed,
            inconsistent=True, include_prob=1.0,
        )
        rep_cd = pv.async_svrcd_run(
            prob, cfg_cd, x0, pv.SimulateMode(sched_cd), record_iterates=True
        )
        assert seq_cd.objectives == rep_cd.trace.objectives
        assert all(
            np.array_equal(a, b) for a, b in zip(seq_cd.iterates, rep_cd.trace.iterates)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(4, f"5 seeds, both algorithms, every inner iterate identical, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 5. theoretical rate constant
# -------------------------------------------------------------------------


def test_c05_rate_formula_reproduces_five_sixths():
    c = theory.ProblemConstants(
        mu=0.1, L=1.0, T=1.0, Delta=1.0, tau=0, B=1, K=2000, m=1, eta=0.05
    )
    rho = theory.svrg_rate(c)
    assert abs(rho - 5.0 / 6.0) < 1e-12
    _ok(5, f"rho({{B=1, eta=0.05, K=2000}}) = {rho!r} = 5/6 to 1e-12")


# -------------------------------------------------------------------------
# 6. empirical contraction vs theory + protocol configs
# -------------------------------------------------------------------------


def _stage_ratio_medians(objectives_per_seed, p_star, sub0, floor=1e-9):
    """Median over seeds of the per-stage suboptimality ratio, skipping stages
    whose previous suboptimality already sits at the numerical floor."""
    per_stage = {}
    for objs in objectives_per_seed:
        subs = [sub0] + [o - p_star for o in objs]
        for s in range(1, len(subs)):
            if subs[s - 1] > floor:
                per_stage.setdefault(s, []).append(subs[s] / subs[s - 1])
    return {s: float(np.median(v)) for s, v in per_stage.items() if len(v) >= 10}


def _run_seeds(runner, prob, cfg_fn, seeds=20, mode_fn=None):
    out = []
    for seed in range(seeds):
        cfg = cfg_fn(seed)
        if mode_fn is None:
            out.append(runner(prob, cfg, np.zeros(prob.d)).objectives)
        else:
            rep = runner(prob, cfg, np.zeros(prob.d), mode_fn(seed, cfg))
            out.append(rep.trace.objectives)
    return out


def test_c06_empirical_contraction_bounded_by_theory(suite):
    t0 = time.perf_counter()
    prob, ref = suite.prob, suite.ref
    mu, L, T, delta = suite.mu, suite.L, suite.T, suite.delta
    checked = []

    def check(name, medians, rho):
        assert medians, f"{name}: no stage had enough seeds above the floor"
        worst = max(medians.values())
        assert worst <= rho, f"{name}: median ratio {worst:.4f} exceeds rho {rho:.4f}"
        checked.append(f"{name} {worst:.3f}<={rho:.3f}")

    # sequential SVRG at the 5/6-rate configuration
    c = theory.ProblemConstants(mu=mu, L=L, T=T, Delta=delta, tau=0, B=1, K=500, m=1, eta=0.2)
    assert theory.svrg_stepsize_admissible(c)
    objs = _run_seeds(prox_svrg_run, prob, lambda s: SolverConfig(eta=0.2, B=1, K=500, S=4, seed=s))
    check("seq-svrg", _stage_ratio_medians(objs, ref.p_star, suite.sub0), theory.svrg_rate(c))

    # sequential SVRCD, m = 5
    eta_cd = 1.0 / (24.0 * T)
    K_cd = int(216 * 5 * T / mu)
    c = theory.ProblemConstants(mu=mu, L=L, T=T, Delta=delta, tau=0, B=1, K=K_cd, m=5, eta=eta_cd)
    assert theory.svrcd_stepsize_admissible(c)
    objs = _run_seeds(
        prox_svrcd_run, prob,
        lambda s: SolverConfig(eta=eta_cd, B=1, K=K_cd, S=4, m=5, seed=s),
    )
    check("seq-svrcd", _stage_ratio_medians(objs, ref.p_star, suite.sub0), theory.svrcd_rate(c))

    # delayed runs with delay-admissible step sizes
    for tau, eta, K in ((2, 0.2, 500), (4, 0.08, 1000)):
        c = theory.ProblemConstants(mu=mu, L=L, T=T, Delta=delta, tau=tau, B=1, K=K, m=1, eta=eta)
        assert theory.svrg_stepsize_admissible(c)
        objs = _run_seeds(
            pv.async_svrg_run, prob,
            lambda s, eta=eta, K=K: SolverConfig(eta=eta, B=1, K=K, S=4, seed=s),
            mode_fn=lambda s, cfg, tau=tau: pv.SimulateMode(
                pv.sample_delay_schedule("uniform", tau, cfg.S * cfg.K, seed=1000 + s)
            ),
        )
        check(f"async-svrg-tau{tau}",
              _stage_ratio_medians(objs, ref.p_star, suite.sub0), theory.svrg_rate(c))

    for tau, eta in ((2, eta_cd), (4, 0.1)):
        c = theory.ProblemConstants(mu=mu, L=L, T=T, Delta=delta, tau=tau, B=1, K=K_cd, m=5, eta=eta)
        assert theory.svrcd_stepsize_admissible(c)
        objs = _run_seeds(
            pv.async_svrcd_run, prob,
            lambda s, eta=eta: SolverConfig(eta=eta, B=1, K=K_cd, S=4, m=5, seed=s),
            mode_fn=lambda s, cfg, tau=tau: pv.SimulateMode(
                pv.sample_delay_schedule(
                    "uniform", tau, cfg.S * cfg.K, seed=1000 + s, inconsistent=True
                )
            ),
        )
        check(f"async-svrcd-tau{tau}",
              _stage_ratio_medians(objs, ref.p_star, suite.sub0), theory.svrcd_rate(c))

    # the benchmark-protocol configs terminate below 1e-10 on the synthetic suite
    for name in ("synth_protocol_svrg.cfg", "synth_protocol_svrcd.cfg"):
        cfg = build_experiment(parse_config_file(CONFIG_DIR / name))
        with warnings.catch_warnings():
            # the protocol step size fails the step-size bound on this dense
            # desk-scale stand-in; the run proceeds by design
            warnings.simplefilter("ignore", UserWarning)
            summary = run_experiment(cfg, Path("/tmp/proxvr_acceptance") / name)
        assert summary["status"] == "OK", f"{name}: {summary['status']}"
        assert summary["final_suboptimality"] <= 1e-10
        checked.append(f"{name} -> {summary['final_suboptimality']:.2e}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok(6, f"{'; '.join(checked)}; {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 7. delay model semantics
# -------------------------------------------------------------------------


def test_c07_inconsistent_read_telescoping_identities():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    for trial in range(1000):
        d = int(rng.integers(2, 17))
        m = int(rng.integers(1, min(d, 6) + 1))
        steps = int(rng.integers(1, 21))
        part = BlockPartition.equal(d, m)
        state = MasterState(rng.standard_normal(d), tau_bound=steps)
        history = [state.x.copy()]
        for _ in range(steps):
            j = int(rng.integers(0, m))
            lo, hi = part.edges[j:j + 2]
            x_new = state.x.copy()
            x_new[lo:hi] += rng.standard_normal(hi - lo)
            state.commit(x_new)
            history.append(state.x.copy())
        tau = int(rng.integers(0, steps + 1))
        k = state.clock
        full = read_inconsistent(state, tau, range(k - tau, k))
        assert np.array_equal(full, state.x)
        empty = read_inconsistent(state, tau, ())
        assert np.array_equal(empty, history[k - tau])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(7, f"1000 replayed prefixes, both identities exact, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 8. sparsity statistic
# -------------------------------------------------------------------------


def test_c08_sparsity_statistic_and_exact_synth_target():
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 15))
        ds = random_dataset(rng, n, d, density=float(rng.uniform(0.15, 1.0)))
        brute = max(
            sum(1 for ex in ds.examples if j in ex.a.indices) for j in range(d)
        ) / n
        assert theory.data_sparsity_delta(ds) == brute
    for n, target in ((100, 0.05), (30, 0.07), (50, 1.0), (64, 0.5)):
        ds = synth_dataset(n, 9, target, seed=3)
        assert theory.data_sparsity_delta(ds) == math.ceil(target * n) / n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(8, f"100 brute-force recounts and 4 exact synthetic targets, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 9. speedup (informational, machine-dependent, soft)
# -------------------------------------------------------------------------


def _throughput(runner, prob, cfg, P):
    t0 = time.perf_counter()
    rep = runner(prob, cfg, np.zeros(prob.d), pv.ThreadsMode(P))
    return rep.total_commits / (time.perf_counter() - t0)


def test_c09_threads_speedup_soft_check():
    sparse = synth_dataset(1200, 240, 0.01, seed=5)
    prob = Problem(sparse, LossKind.LOGISTIC, Regularizer(1e-4, 1e-2))
    cfg = SolverConfig(eta=0.1, B=20, K=300, S=2, seed=3)
    tp1 = _throughput(pv.async_svrg_run, prob, cfg, 1)
    tp4 = _throughput(pv.async_svrg_run, prob, cfg, 4)
    ratio = tp4 / tp1

    dense = synth_dataset(300, 200, 1.0, seed=6)
    prob2 = Problem(dense, LossKind.LOGISTIC, Regularizer(1e-4, 1e-2))
    speed = {}
    for name, runner, m in (("svrg", pv.async_svrg_run, 1), ("svrcd", pv.async_svrcd_run, 2)):
        cfg2 = SolverConfig(eta=0.05, B=10, K=250, S=2, m=m, seed=3)
        speed[name] = _throughput(runner, prob2, cfg2, 4) / _throughput(runner, prob2, cfg2, 1)

    problems = []
    if ratio < 2.0:
        problems.append(
            f"P=4 vs P=1 throughput ratio {ratio:.2f} < 2.0 (GIL-bound interpreter, "
            "2 CPU cores)"
        )
    if speed["svrcd"] <= speed["svrg"]:
        problems.append(
            f"block-level locking speedup {speed['svrcd']:.2f} did not beat "
            f"whole-vector locking {speed['svrg']:.2f} on the dense dataset"
        )
    if problems:
        warnings.warn("speedup criterion (soft): " + "; ".join(problems))
        print(f"\n[SOFT-WARN] criterion 9: {'; '.join(problems)}")
    else:
        _ok(9, f"P4/P1 ratio {ratio:.2f}, svrcd {speed['svrcd']:.2f} > svrg {speed['svrg']:.2f}")


# -------------------------------------------------------------------------
# 10. determinism of emitted traces
# -------------------------------------------------------------------------


def _subopt_column(path):
    lines = Path(path).read_text().splitlines()[1:]
    return [line.split(",")[1] for line in lines]


def test_c10_repeated_runs_emit_identical_csv_columns(tmp_path):
    t0 = time.perf_counter()
    base = dict(
        dataset="synth:n=200,d=20,delta=1.0,seed=42",
        loss="logistic",
        lambda1="0.001",
        lambda2="0.1",
        eta="0.2",
        B="1",
        K="150",
        max_stages="6",
        stop_tol="inf",
        seed="9",
    )
    for tag, extra in (
        ("seq", {"algorithm": "prox_svrg"}),
        ("sim", {"algorithm": "async_svrcd", "mode": "simulate:uniform:3",
                 "m": "5", "eta": "0.1"}),
    ):
        cfg = build_experiment(dict(base, **extra))
        run_experiment(cfg, tmp_path / f"{tag}_a")
        run_experiment(cfg, tmp_path / f"{tag}_b")
        col_a = _subopt_column(tmp_path / f"{tag}_a" / "trace.csv")
        col_b = _subopt_column(tmp_path / f"{tag}_b" / "trace.csv")
        assert col_a == col_b and len(col_a) == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(10, f"sequential and simulate reruns byte-identical, {elapsed:.2f}s")
