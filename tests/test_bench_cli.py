import csv
import json
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import build_dataset, make_problem, one_dim_problem, sparse_from_pairs
from proxvr import bench_cli, seq_solvers
from proxvr.async_engine import ThreadsMode
from proxvr.bench_cli import (
    ExperimentConfig,
    build_experiment,
    compute_reference_optimum,
    load_dataset,
    main,
    parse_config_file,
    run_experiment,
    speedup_report,
)
from proxvr.errors import ContractViolation, ConvergenceFailure
from proxvr.problem import (
    LossKind,
    Problem,
    Regularizer,
    SparseExample,
    prox_elastic,
)
from proxvr.theory import (
    ProblemConstants,
    data_sparsity_delta,
    estimate_lipschitz,
    smoothness_bound,
    svrg_rate,
)

SYNTH = "synth:n=120,d=12,delta=1.0,seed=11"
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _cfg(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return p


def _base_cfg(**over):
    base = dict(
        dataset=SYNTH,
        algorithm="prox_svrg",
        eta=0.2,
        K=150,
        B=1,
        max_stages=10,
        lambda1=1e-3,
        lambda2=0.1,
        stop_tol=1e-10,
        seed=5,
    )
    base.update(over)
    return ExperimentConfig(**base)


def _read_subopt_column(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [row["suboptimality"] for row in rows]


# ---------------------------------------------------------- reference optimum


def test_reference_optimum_soft_threshold_problem():
    ref = compute_reference_optimum(one_dim_problem(0.3), 1e-12)
    assert ref.x_star[0] == pytest.approx(0.7, abs=1e-10)
    assert ref.p_star == pytest.approx(0.255, abs=1e-12)
    assert ref.certificate <= 1e-12


def test_reference_optimum_matches_normal_equations(rng):
    # unregularized least squares with an invertible square design
    d = 3
    A = rng.standard_normal((d, d)) + 3 * np.eye(d)
    b = rng.standard_normal(d)
    exs = [
        SparseExample(sparse_from_pairs(list(enumerate(A[i])), d), float(b[i]))
        for i in range(d)
    ]
    prob = Problem(build_dataset(exs, d), LossKind.LEAST_SQUARES, Regularizer(0.0, 0.0))
    ref = compute_reference_optimum(prob, 1e-12)
    oracle = np.linalg.solve(A, b)
    assert np.allclose(ref.x_star, oracle, atol=1e-8)


def test_reference_optimum_stable_under_tolerance():
    prob = one_dim_problem(0.3)
    tight = compute_reference_optimum(prob, 1e-12)
    loose = compute_reference_optimum(prob, 1e-11)
    assert abs(tight.p_star - loose.p_star) < 1e-10


def test_reference_optimum_budget_failure():
    # two iterations at the step 1/L_F certify this problem; one does not
    with pytest.raises(ConvergenceFailure) as err:
        compute_reference_optimum(one_dim_problem(0.3), 1e-12, max_iter=1)
    assert err.value.best_certificate == pytest.approx(0.7)
    assert compute_reference_optimum(one_dim_problem(0.3), 1e-12, max_iter=2).iterations == 2


def _dense(dataset):
    A = np.zeros((dataset.n, dataset.d))
    for i, ex in enumerate(dataset.examples):
        A[i, ex.a.indices] = ex.a.values
    return A


def _mapping_norm(problem, x, eta):
    """||G_eta(x)|| = ||x - prox_{eta R}(x - eta grad F(x))|| / eta."""
    x_next = prox_elastic(x - eta * problem.full_grad(x), eta, problem.reg)
    return float(np.linalg.norm(x - x_next)) / eta


def _pgd_oracle(problem, eta, tol):
    """Plain proximal gradient descent from 0 until ||G_eta|| <= tol."""
    x = np.zeros(problem.d)
    for _ in range(100_000):
        x_next = prox_elastic(x - eta * problem.full_grad(x), eta, problem.reg)
        if np.linalg.norm(x - x_next) / eta <= tol:
            return x_next
        x = x_next
    raise AssertionError("the PGD oracle did not converge")


def _eta(problem):
    return 1.0 / estimate_lipschitz(problem.dataset, problem.loss)[0]


def test_reference_optimum_matches_ridge_closed_form(rng):
    # lambda1 = 0: the optimum solves (A^T A / n + lambda2 I) x = A^T b / n
    for n, d, lam2 in ((40, 8, 1e-2), (25, 30, 1e-3), (60, 12, 0.5)):
        prob = make_problem(rng, n, d, kind=LossKind.LEAST_SQUARES, lambda1=0.0, lambda2=lam2)
        A, b = _dense(prob.dataset), prob.dataset.labels
        oracle = np.linalg.solve(A.T @ A / n + lam2 * np.eye(d), A.T @ b / n)
        ref = compute_reference_optimum(prob, 1e-12)
        assert ref.certificate <= 1e-12
        assert np.max(np.abs(ref.x_star - oracle)) <= 1e-10
        assert ref.p_star == pytest.approx(prob.objective(oracle), rel=1e-14, abs=1e-15)


def test_reference_optimum_matches_pgd_oracle_with_l1(rng):
    for lam1, lam2 in ((0.02, 0.05), (0.1, 0.01)):
        prob = make_problem(rng, 60, 15, lambda1=lam1, lambda2=lam2)
        oracle = _pgd_oracle(prob, _eta(prob), 1e-12)
        ref = compute_reference_optimum(prob, 1e-12)
        assert np.max(np.abs(ref.x_star - oracle)) <= 1e-10
        # the soft threshold zeroes the same coordinates exactly
        assert np.array_equal(ref.x_star == 0.0, oracle == 0.0) and (oracle == 0.0).any()
        assert ref.p_star == pytest.approx(prob.objective(oracle), rel=1e-14)


# rounding in recomputing G at x_star: a few ulps of x_star and of eta*grad, over eta
_MAPPING_SLACK = 64 * np.finfo(float).eps


@pytest.mark.parametrize("kind,lam1,lam2,n,d", [
    (LossKind.LOGISTIC, 0.0, 1e-2, 50, 10),
    (LossKind.LOGISTIC, 1e-2, 1e-2, 50, 10),
    (LossKind.LOGISTIC, 5e-2, 1e-3, 80, 40),
    (LossKind.LEAST_SQUARES, 0.0, 1e-3, 30, 20),
    (LossKind.LEAST_SQUARES, 1e-2, 1e-1, 30, 20),
    (LossKind.LEAST_SQUARES, 1e-3, 1e-4, 100, 5),
    (LossKind.LOGISTIC, 1e-3, 1e-4, 100, 50),
])
def test_reference_certificate_is_mapping_at_certified_point(rng, monkeypatch, kind, lam1, lam2,
                                                             n, d):
    prob = make_problem(rng, n, d, kind=kind, lambda1=lam1, lambda2=lam2)
    seen = []
    full_grad = Problem.full_grad

    def recording(self, x):
        seen.append(x.copy())
        return full_grad(self, x)

    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        seen.clear()
        monkeypatch.setattr(Problem, "full_grad", recording)
        ref = compute_reference_optimum(prob, tol)
        monkeypatch.undo()
        # the default step is 1/L_F, the smoothness bound of the average loss
        eta = ref.step
        assert eta == 1.0 / smoothness_bound(prob.dataset, prob.loss)
        # one gradient per iteration; the last was taken at the certified point
        # y, x_star is y's prox step T(y) and the certificate is ||G(y)||
        y, x = seen[-1], ref.x_star
        assert len(seen) == ref.iterations
        assert np.array_equal(x, prox_elastic(y - eta * prob.full_grad(y), eta, prob.reg)), tol
        assert ref.certificate == float(np.linalg.norm(y - x)) / eta <= tol, tol
        assert ref.p_star == prob.objective(x)
        # T is nonexpansive for eta <= 1/L: ||G(x_star)|| = ||T(y) - T(x_star)|| / eta <= ||G(y)||
        slack = _MAPPING_SLACK * (np.linalg.norm(x) + eta * np.linalg.norm(prob.full_grad(x))) / eta
        assert _mapping_norm(prob, x, eta) <= ref.certificate + slack, tol


def test_reference_certifies_ill_conditioned_case():
    # kappa = L / mu = 0.25 / 1e-4 = 2,500 with the per-example L (rows
    # normalized): at the step 1/L_F restarted FISTA certifies 1e-12 in 194
    # iterations (about 1,150 at 1/L); plain PGD at 1/L did not in 20,000
    prob = Problem(load_dataset("synth:n=2000,d=400,delta=0.05,seed=1"), LossKind.LOGISTIC,
                   Regularizer(0.0, 1e-4))
    ref = compute_reference_optimum(prob, 1e-12, max_iter=2000)
    assert ref.certificate <= 1e-12


# ---------------------------------------------------------- config parsing


def test_parse_config_file_and_overrides(tmp_path):
    p = _cfg(
        tmp_path,
        "# comment\ndataset = synth:n=50,d=5,delta=1.0,seed=1\n"
        "algorithm = prox_sgd\neta = 0.1  # inline\nK = 10\nseed = 3\n",
    )
    mapping = parse_config_file(p)
    cfg = build_experiment(mapping)
    assert cfg.eta == 0.1 and cfg.seed == 3
    mapping["eta"] = "0.25"
    assert build_experiment(mapping).eta == 0.25
    mapping["eta_decay"] = "0.5,100"
    assert build_experiment(mapping).eta_decay == (0.5, 100.0)


def test_build_experiment_validation():
    with pytest.raises(ContractViolation):
        build_experiment({"dataset": SYNTH, "algorithm": "nope", "eta": "0.1", "K": "5"})
    with pytest.raises(ContractViolation):
        build_experiment({"dataset": SYNTH, "algorithm": "async_svrg", "eta": "0.1", "K": "5"})
    with pytest.raises(ContractViolation):
        build_experiment(
            {"dataset": SYNTH, "algorithm": "prox_svrg", "eta": "0.1", "K": "5", "mode": "threads:2"}
        )
    with pytest.raises(ContractViolation):
        build_experiment({"dataset": SYNTH, "algorithm": "prox_svrg", "eta": "0.1"})
    with pytest.raises(ContractViolation):
        build_experiment(
            {"dataset": SYNTH, "algorithm": "prox_svrg", "eta": "0.1", "K": "5", "bogus": "1"}
        )
    # tau, schedule_seed and ref_max_iter are integers, as the CLI parses
    # them: a float or a bool from the library used to be accepted
    for mode, bad in (("simulate:uniform:2", dict(schedule_seed=1.5)),
                      ("threads:1", dict(tau=True)), ("threads:1", dict(ref_max_iter=2.5)),
                      ("threads:1", dict(tau=2.0)),
                      ("simulate:uniform:2", dict(schedule_seed=False)),
                      ("threads:1", dict(ref_max_iter=0))):
        with pytest.raises(ContractViolation, match="must be an integer"):
            _base_cfg(algorithm="async_svrg", mode=mode, **bad)
    # only threads:P reads tau and only simulate reads schedule_seed: a
    # sequential run given tau=50 used to be judged as delayed by 50
    for algorithm, mode, key in (("prox_svrg", "seq", "tau"),
                                 ("async_svrg", "simulate:uniform:2", "tau"),
                                 ("prox_svrg", "seq", "schedule_seed"),
                                 ("async_svrg", "threads:1", "schedule_seed")):
        with pytest.raises(ContractViolation, match=f"{key} is read by"):
            _base_cfg(algorithm=algorithm, mode=mode, **{key: 0})
    # include_prob is read by simulated async_svrcd only, and synth rows are
    # unit-norm whatever normalize says: a run given either used to ignore it
    for algorithm, mode in (("prox_svrcd", "seq"), ("async_svrg", "simulate:uniform:2"),
                            ("async_svrcd", "threads:2")):
        with pytest.raises(ContractViolation, match="include_prob is read by"):
            _base_cfg(algorithm=algorithm, mode=mode, include_prob=0.5)
    with pytest.raises(ContractViolation, match="normalize"):
        _base_cfg(normalize=False)
    assert _base_cfg(algorithm="async_svrg", mode="simulate:uniform:2",
                     schedule_seed=np.int64(3)).schedule_seed == 3
    # only prox_sgd reads eta_decay; every other algorithm refuses it
    for algorithm, mode in (("prox_scd", "seq"), ("prox_svrg", "seq"), ("prox_svrcd", "seq"),
                            ("async_svrg", "threads:1"), ("async_svrcd", "simulate:uniform:2")):
        with pytest.raises(ContractViolation, match="eta_decay"):
            _base_cfg(algorithm=algorithm, mode=mode, eta_decay=(0.5, 100.0))
    assert _base_cfg(algorithm="prox_sgd", eta_decay=(0.5, 100.0)).eta_decay == (0.5, 100.0)
    assert _base_cfg(algorithm="async_svrg", mode="threads:1", tau=np.int64(2)).tau == 2


def test_named_dataset_lambda_defaults():
    cfg = build_experiment(
        {"dataset": "data/rcv1_train.binary", "algorithm": "prox_svrg", "eta": "0.1", "K": "5"}
    )
    assert (cfg.lambda1, cfg.lambda2) == (1e-5, 1e-4)
    explicit = build_experiment(
        {
            "dataset": "data/rcv1_train.binary",
            "algorithm": "prox_svrg",
            "eta": "0.1",
            "K": "5",
            "lambda1": "0.5",
            "lambda2": "0.5",
        }
    )
    assert explicit.lambda1 == 0.5


# ---------------------------------------------------------- run_experiment


def test_run_experiment_csv_and_summary(tmp_path):
    summary = run_experiment(_base_cfg(), tmp_path / "out")
    assert summary["status"] == "OK"
    assert summary["final_suboptimality"] <= 1e-10
    assert summary["ref_certificate"] <= 1e-12 and summary["ref_iterations"] >= 1
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert f"ref_iterations={summary['ref_iterations']}" in lines
    # the reference ran at its default step, 1/L_F
    step = 1.0 / smoothness_bound(load_dataset(SYNTH), LossKind.LOGISTIC)
    assert summary["ref_step"] == step and f"ref_step={step:.17g}" in lines
    with open(tmp_path / "out" / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == [
        "stage", "suboptimality", "seconds", "updates", "observed_mean_delay",
    ]
    assert len(rows) == summary["stages_used"]
    # printed rho must match an independent recomputation
    consts = ProblemConstants(
        mu=0.1,
        L=summary["L"],
        T=summary["T"],
        Delta=summary["delta"],
        tau=0,
        B=1,
        K=150,
        m=1,
        eta=0.2,
    )
    assert float(summary["rho"]) == pytest.approx(svrg_rate(consts), rel=1e-12)


def test_summary_worst_stage_ratio_matches_trace(tmp_path):
    # worst_stage_ratio, next to rho, is the largest sub_s / sub_{s-1} over
    # consecutive stages of trace.csv whose suboptimalities are positive;
    # n/a when fewer than two stages have one
    summary = run_experiment(_base_cfg(), tmp_path / "out")
    subs = [float(v) for v in _read_subopt_column(tmp_path / "out" / "trace.csv")]
    ratios = [b / a for a, b in zip(subs, subs[1:]) if a > 0 and b > 0]
    assert len(ratios) >= 2 and summary["worst_stage_ratio"] == max(ratios)
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    at = lines.index(f"rho={summary['rho']}")
    assert lines[at + 1] == f"worst_stage_ratio={max(ratios):.17g}"
    one = run_experiment(_base_cfg(max_stages=1, K=5), tmp_path / "one")
    assert one["worst_stage_ratio"] == "n/a"
    assert "worst_stage_ratio=n/a" in (tmp_path / "one" / "summary.txt").read_text().splitlines()


def test_run_experiment_deterministic_subopt_column(tmp_path):
    a = run_experiment(_base_cfg(), tmp_path / "a")
    b = run_experiment(_base_cfg(), tmp_path / "b")
    assert _read_subopt_column(tmp_path / "a" / "trace.csv") == _read_subopt_column(
        tmp_path / "b" / "trace.csv"
    )
    assert a["final_suboptimality"] == b["final_suboptimality"]


def test_run_experiment_infinite_stop_runs_max_stages(tmp_path):
    summary = run_experiment(
        _base_cfg(stop_tol=math.inf, max_stages=4), tmp_path / "out"
    )
    assert summary["status"] == "OK"
    assert summary["stages_used"] == 4


def test_run_experiment_async_zero_delay_matches_seq(tmp_path):
    seq = run_experiment(_base_cfg(), tmp_path / "seq")
    asy = run_experiment(
        _base_cfg(algorithm="async_svrg", mode="simulate:constant:0"), tmp_path / "asy"
    )
    assert _read_subopt_column(tmp_path / "seq" / "trace.csv") == _read_subopt_column(
        tmp_path / "asy" / "trace.csv"
    )
    assert asy["observed_max_delay"] == 0


def test_run_experiment_dnf_exit(tmp_path):
    summary = run_experiment(_base_cfg(max_stages=1, K=5), tmp_path / "out")
    assert summary["status"] == "DNF"


def test_run_experiment_detects_loose_reference(tmp_path):
    # a deliberately wrong (too high) reference value makes suboptimality
    # negative beyond the floor
    true_ref = run_experiment(_base_cfg(), tmp_path / "ref")["p_star"]
    bad = run_experiment(_base_cfg(p_star=true_ref + 1e-6), tmp_path / "bad")
    assert bad["status"] == "FAILED"


def test_cli_diverged_run_stops_and_exits_2(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        "dataset = synth:n=50,d=10,delta=1.0,seed=1,label=regression\n"
        "loss = least-squares\nalgorithm = prox_svrg\neta = 1e6\nB = 50\nK = 50\n"
        "max_stages = 40\np_star = 0\n",
    )
    with pytest.warns(UserWarning, match="not admissible"), np.errstate(all="ignore"):
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert "status=DIVERGED" in capsys.readouterr().out
    summary = dict(
        line.split("=", 1) for line in (tmp_path / "out" / "summary.txt").read_text().splitlines()
    )
    assert summary["status"] == "DIVERGED"
    assert int(summary["stages_used"]) < int(summary["max_stages"])


def test_run_experiment_inadmissible_eta_warns(tmp_path):
    with pytest.warns(UserWarning):
        summary = run_experiment(_base_cfg(eta=5.0, K=400, max_stages=25), tmp_path / "out")
    assert summary["eta_admissible"] == "false"


def test_run_experiment_sgd_and_scd_paths(tmp_path):
    sgd = run_experiment(
        _base_cfg(algorithm="prox_sgd", eta=0.5, eta_decay=(0.5, 100.0), K=400,
                  max_stages=6, stop_tol=math.inf),
        tmp_path / "sgd",
    )
    assert sgd["stages_used"] == 6
    assert sgd["rho"] == "n/a"  # no stage-rate formula for plain SGD
    scd = run_experiment(
        _base_cfg(algorithm="prox_scd", eta=0.3, m=3, K=60, max_stages=4,
                  stop_tol=math.inf),
        tmp_path / "scd",
    )
    assert scd["stages_used"] == 4
    assert scd["final_suboptimality"] < sgd["final_suboptimality"] * 10 + 1.0


def test_run_experiment_simulated_delays(tmp_path):
    summary = run_experiment(
        _base_cfg(algorithm="async_svrcd", mode="simulate:uniform:3", eta=0.1, m=3,
                  K=300, max_stages=25),
        tmp_path / "out",
    )
    assert summary["status"] == "OK"
    assert summary["eta_admissible"] == "true"
    assert 0 < summary["observed_mean_delay"] <= 3
    assert summary["observed_max_delay"] <= 3


@pytest.mark.parametrize("mode,tau", [("threads:2", 0), ("threads:2", 10**9),
                                      ("threads:2", None), ("simulate:uniform:2", None)])
def test_summary_mean_delay_exceeded_judges_the_declared_tau(tmp_path, mode, tau):
    # the CLI judges the tau the config declares: `tau` for threads:P (no
    # verdict when unset) and the schedule's own tau for simulate
    over = {} if tau is None else {"tau": tau}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tau = 10**9 makes eta inadmissible, by design
        run_experiment(_base_cfg(algorithm="async_svrg", mode=mode, K=60, max_stages=2,
                                 p_star=0.0, stop_tol=math.inf, **over), tmp_path / "out")
    summary = dict(line.split("=", 1)
                   for line in (tmp_path / "out" / "summary.txt").read_text().splitlines())
    mean = float(summary["observed_mean_delay"])
    declared = 2 if mode.startswith("simulate") else tau
    want = declared is not None and mean > declared
    assert summary["mean_delay_exceeded"] == str(want).lower()
    if tau != 0:
        assert summary["mean_delay_exceeded"] == "false"


_SOLVER_VALUES = st.fixed_dictionaries({
    "eta": st.floats(1e-6, 10.0),
    "B": st.integers(1, 120),
    "K": st.integers(0, 10**6),
    "max_stages": st.integers(0, 10**4),
    "m": st.integers(1, 12),
    "eta_decay": st.none() | st.tuples(st.floats(1e-6, 10.0), st.floats(1e-3, 1e4)),
    "seed": st.integers(0, 2**32 - 1),
    "with_replacement": st.booleans(),
    "last_iterate": st.booleans(),
})


@settings(max_examples=50, deadline=None)
@given(values=_SOLVER_VALUES)
def test_solver_config_is_derived_from_the_experiment_fields(values):
    cfg = _base_cfg(algorithm="prox_sgd", **values)
    want = seq_solvers.SolverConfig(
        eta=values["eta"], B=values["B"], K=values["K"], S=values["max_stages"],
        m=values["m"], eta_decay=values["eta_decay"], seed=values["seed"],
        with_replacement=values["with_replacement"], last_iterate=values["last_iterate"])
    got = bench_cli._solver_config(cfg)
    for f in fields(seq_solvers.SolverConfig):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


# ---------------------------------------------------------- speedup


def test_speedup_report_p1_baseline(tmp_path):
    cfg = _base_cfg(
        algorithm="async_svrg",
        mode="threads:1",
        K=80,
        max_stages=12,
        speedup_target=1e-3,
    )
    rows = speedup_report(cfg, [1, 2], tmp_path / "out")
    assert rows[0]["P"] == 1
    assert not rows[0]["dnf"]
    assert rows[0]["speedup_vs_P1"] == pytest.approx(1.0)
    with open(tmp_path / "out" / "speedup.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "P", "seconds", "updates_per_sec", "speedup_vs_P1",
        "observed_mean_delay", "observed_max_delay",
    ]


@pytest.mark.parametrize("over", [dict(mode="threads:1", tau=3),
                                  dict(mode="simulate:uniform:2", schedule_seed=4),
                                  dict(algorithm="async_svrcd", mode="simulate:uniform:2",
                                       include_prob=0.9)])
def test_speedup_drops_keys_its_runs_do_not_read(tmp_path, over):
    # the sequential baseline and the threads rows are configs of their own,
    # checked again: a threads tau, a simulate schedule_seed or include_prob
    # is dropped where the run does not read it
    cfg = _base_cfg(**{"algorithm": "async_svrg", **over}, K=20, max_stages=2, p_star=0.0)
    rows = speedup_report(cfg, [1], tmp_path / "out")
    assert [row["P"] for row in rows] == [1]


def test_speedup_rejects_sequential_algorithm(tmp_path):
    with pytest.raises(ContractViolation):
        speedup_report(_base_cfg(), [1], tmp_path / "out")


def test_speedup_dnf_rows_and_exit_code(tmp_path):
    cfg = _cfg(
        tmp_path,
        f"dataset = {SYNTH}\nalgorithm = async_svrg\nmode = threads:1\n"
        "eta = 0.2\nK = 5\nB = 1\nlambda2 = 0.1\nmax_stages = 1\n"
        "speedup_target = 1e-14\nseed = 5\n",
    )
    assert main(["speedup", str(cfg), "--workers", "1,2", "-o", str(tmp_path / "out")]) == 2
    body = (tmp_path / "out" / "speedup.csv").read_text()
    assert "DNF" in body


# ---------------------------------------------------------- CLI surface


def test_cli_synth_stats_roundtrip(tmp_path, capsys):
    out = tmp_path / "synth.txt"
    assert main(["synth", "n=60,d=8,delta=0.25,seed=2", "-o", str(out)]) == 0
    assert main(["stats", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=60" in text and "delta=0.25" in text
    assert main(["stats", str(out), "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["n"] == 60 and rec["delta"] == 0.25


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        f"dataset = {SYNTH}\nalgorithm = prox_svrg\neta = 0.2\nK = 150\n"
        "B = 1\nlambda1 = 1e-3\nlambda2 = 0.1\nmax_stages = 10\nseed = 5\n",
    )
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 0
    text = capsys.readouterr().out
    assert "status=OK" in text
    # DNF through --set override -> exit 2
    assert main(["run", str(cfg), "-o", str(tmp_path / "out2"), "--set", "max_stages=1",
                 "--set", "K=5"]) == 2


def test_cli_run_computes_row_norms_once_per_dataset(tmp_path, monkeypatch):
    # normalization, dataset statistics, the theory verdict and the
    # reference step all read the row norms; the per-row loop runs once per
    # dataset, and the cached array is read-only
    from proxvr import problem as problem_mod

    seen = []

    def row_norms_sq(dataset, _real=problem_mod._row_norms_sq):
        seen.append(dataset)
        return _real(dataset)

    monkeypatch.setattr(problem_mod, "_row_norms_sq", row_norms_sq)
    cfg = _cfg(
        tmp_path,
        f"dataset = {SYNTH}\nalgorithm = prox_svrg\neta = 0.2\nK = 20\nB = 1\n"
        "lambda2 = 0.1\nmax_stages = 2\nstop_tol = inf\nseed = 5\n",
    )
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 0
    assert len(seen) >= 2 and len({id(ds) for ds in seen}) == len(seen)
    for ds in seen:
        assert ds.row_norms_sq() is ds.row_norms_sq()
        assert not ds.row_norms_sq().flags.writeable


def test_cli_ref_outputs(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        f"dataset = {SYNTH}\nalgorithm = prox_svrg\neta = 0.2\nK = 10\nlambda2 = 0.1\n",
    )
    assert main(["ref", str(cfg), "-o", str(tmp_path / "out")]) == 0
    ref_text = (tmp_path / "out" / "reference.txt").read_text()
    assert ref_text.startswith("p_star=")
    assert (tmp_path / "out" / "x_star.txt").exists()
    # the step is reported in the file and on the printed line
    step = 1.0 / smoothness_bound(load_dataset(SYNTH), LossKind.LOGISTIC)
    assert f"step={step:.17g}" in ref_text.splitlines()
    assert capsys.readouterr().out.rstrip().endswith(f"step={step:.17g}")


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing config argument
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err2:
        main(["definitely-not-a-command"])
    assert err2.value.code == 1


def test_cli_bad_config_value_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference optimum was computed before the config was checked")

    monkeypatch.setattr("proxvr.bench_cli.compute_reference_optimum", no_reference)
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("1 1:x\n")
    svrg = "algorithm = prox_svrg\neta = 0.1\nK = 5\n"
    async_svrg = "algorithm = async_svrg\neta = 0.1\nK = 5\n"
    simulate = async_svrg + "mode = simulate:uniform:2\n"
    svrcd_simulate = simulate.replace("async_svrg", "async_svrcd")
    cases = [
        ("dataset = nope.txt\n" + svrg, []),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "K=abc"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "K=1.5"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "ref_max_iter=1e6.5"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "eta_decay=0.5"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "eta_decay=nan,1"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "eta=nan"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "stop_tol=nan"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "lambda2=nan"]),
        (f"dataset = {SYNTH}\n" + svrcd_simulate, ["--set", "include_prob=1.5"]),
        (f"dataset = {SYNTH}\n" + svrcd_simulate, ["--set", "include_prob=-0.5"]),
        (f"dataset = {SYNTH}\n" + svrcd_simulate, ["--set", "include_prob=nan"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "eta=inf"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "eta_decay=inf,1"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "eta_decay=0.5,100"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "seed=-1"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "max_stages=-2"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "B=0"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "m=0"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "ref_tol=-1"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "ref_max_iter=0"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "include_prob=0.9"]),
        (f"dataset = {SYNTH}\n" + simulate, ["--set", "include_prob=0.5"]),
        (f"dataset = {SYNTH}\n" + svrcd_simulate, ["--set", "mode=threads:2",
                                                    "--set", "include_prob=0.5"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "normalize=false"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "B=1000"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "m=1000"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "lambda1=inf"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "lambda2=inf"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "lambda1=-1"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "p_star=inf"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "p_star=-inf"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "speedup_target=-1"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "speedup_target=0"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "loss=bogus"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "normalize=maybe"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "mu=-1"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "mu=0"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "mu=inf"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "L_const=inf"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "L_const=0"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "T_const=inf"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "T_const=-1"]),
        (f"dataset = {SYNTH}\n" + simulate, ["--set", "schedule_seed=-1"]),
        (f"dataset = {SYNTH}\n" + simulate, ["--set", "seed=-1"]),
        (f"dataset = {SYNTH}\n" + async_svrg, ["--set", "mode=simulate:uniform:-1"]),
        (f"dataset = {SYNTH}\n" + async_svrg, ["--set", "mode=threads:1", "--set", "tau=-1"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "tau=50"]),
        (f"dataset = {SYNTH}\n" + simulate, ["--set", "tau=2"]),
        (f"dataset = {SYNTH}\n" + svrg, ["--set", "schedule_seed=1"]),
        (f"dataset = {SYNTH}\n" + async_svrg, ["--set", "mode=threads:1",
                                               "--set", "schedule_seed=1"]),
        (f"dataset = {SYNTH}\n" + async_svrg, ["--set", "mode=threads:0"]),
        (f"dataset = {SYNTH}\n" + async_svrg + "mode = threads:x\n", []),
        (f"dataset = {SYNTH}\n" + async_svrg + "mode = simulate:uniform\n", []),
        (f"dataset = {SYNTH}\n" + async_svrg + "mode = simulate:uniform:x\n", []),
        (f"dataset = {SYNTH}\n" + async_svrg + "mode = simulate:weird:2\n", []),
        ("dataset = synth:n=x,d=3,delta=0.5\n" + svrg, []),
        (f"dataset = {malformed}\n" + svrg, []),
    ]
    for text, extra in cases:
        cfg = _cfg(tmp_path, text)
        assert main(["run", str(cfg), "-o", str(tmp_path / "out"), *extra]) == 1, (text, extra)
        assert "proxvr: error:" in capsys.readouterr().err
    # the reference step is 1/L_F, not a key
    cfg = _cfg(tmp_path, f"dataset = {SYNTH}\n" + svrg)
    assert main(["run", str(cfg), "-o", str(tmp_path / "out"), "--set", "ref_eta=0.1"]) == 1
    assert "unknown config key: 'ref_eta'" in capsys.readouterr().err
    assert main(["stats", str(malformed)]) == 1
    assert "malformed.txt:1" in capsys.readouterr().err
    bare = tmp_path / "bare.txt"  # no features: no index can exceed the dimension
    bare.write_text("1\n-1\n")
    assert main(["stats", str(bare), "--expected-dim", "-5"]) == 1
    assert "expected_dim must be an integer in [0, inf), got -5" in capsys.readouterr().err
    assert main(["synth", "n=5,d=3,delta=1,seed=-1", "-o", str(tmp_path / "s.txt")]) == 1
    assert "proxvr: error:" in capsys.readouterr().err


def test_cli_theory_constants_checked_before_reference(tmp_path, capsys, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference optimum was computed before the theory verdict")

    monkeypatch.setattr("proxvr.bench_cli.compute_reference_optimum", no_reference)
    protocol = str(CONFIG_DIR / "synth_protocol_svrg.cfg")
    # mu above the estimated L: ProblemConstants rejects it, before any reference
    assert main(["run", protocol, "-o", str(tmp_path / "mu"), "--set", "mu=2"]) == 1
    assert "mu <= L" in capsys.readouterr().err
    # K = 0 is a documented no-op run: no rate, and no error from the theory
    out = tmp_path / "k0"
    code = main(["run", protocol, "-o", str(out), "--set", "K=0", "--set", "p_star=0",
                 "--set", "stop_tol=inf", "--set", "max_stages=2"])
    assert code == 0, capsys.readouterr().err
    summary = (out / "summary.txt").read_text().splitlines()
    assert "rho=n/a" in summary and "eta_admissible=n/a" in summary
    assert "total_updates=0" in summary and "ref_iterations=0" in summary
    assert "ref_step=n/a" in summary


def test_cli_speedup_bad_workers_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference optimum was computed before --workers was checked")

    monkeypatch.setattr("proxvr.bench_cli.compute_reference_optimum", no_reference)
    cfg = _cfg(tmp_path, f"dataset = {SYNTH}\nalgorithm = async_svrg\nmode = threads:1\n"
                         "eta = 0.1\nK = 5\n")
    # above the worker bound: refused before any thread starts
    over = str(ThreadsMode.MAX_WORKERS + 1)
    for raw in ("abc", ",", "0", "1.5", "1,-2", over, "1,1e9"):
        assert main(["speedup", str(cfg), "--workers", raw, "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "proxvr: error:" in err and "workers" in err, raw
    for command in ("run", "speedup"):
        code = main([command, str(cfg), "-o", str(tmp_path / "out"), "--set",
                     f"mode=threads:{over}"])
        assert code == 1
        assert "bad value for mode" in capsys.readouterr().err


def test_cli_speedup_data_ranges_checked_before_reference(tmp_path, capsys, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference optimum was computed before the config was checked")

    monkeypatch.setattr("proxvr.bench_cli.compute_reference_optimum", no_reference)
    cfg = _cfg(tmp_path, "dataset = synth:n=50,d=5,delta=1.0,seed=1\nalgorithm = async_svrg\n"
                         "mode = threads:1\neta = 0.1\nK = 5\nB = 60\n")
    out = ["-o", str(tmp_path / "out")]
    for extra in ([], ["--set", "B=1", "--set", "m=6"],
                  ["--set", "B=1", "--set", "speedup_target=-1"]):
        assert main(["speedup", str(cfg), "--workers", "1", *out, *extra]) == 1, extra
        assert "proxvr: error:" in capsys.readouterr().err
    assert main(["ref", str(cfg), *out]) == 1
    assert "B <= n" in capsys.readouterr().err


_FUZZ_KEYS = sorted(f.name for f in fields(ExperimentConfig)) + ["S", "no_such_key"]
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e400", "0.5", "2e0", "50", "", "abc", "1,2",
                     "1,2,3"]),
)
_FUZZ_MODES = st.sampled_from(["seq", "simulate:uniform:-1", "simulate:constant:3", "threads:0",
                               "threads:1", "threads:2", "bogus"])
_FUZZ_BASE = {
    "prox_sgd": "seq", "prox_scd": "seq", "prox_svrg": "seq", "prox_svrcd": "seq",
    "async_svrg": "simulate:uniform:2", "async_svrcd": "threads:2",
}


# "50" exceeds n = 20 and d = 8, so B > n and m > d occur; K, S <= 50 and P <= 2 keep runs small
@example(algorithm="prox_svrcd", pairs=[("B", "50")])
@example(algorithm="async_svrcd", pairs=[("m", "50")])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    algorithm=st.sampled_from(sorted(_FUZZ_BASE)),
    pairs=st.lists(
        st.sampled_from(_FUZZ_KEYS).flatmap(
            lambda key: st.tuples(st.just(key), _FUZZ_MODES if key == "mode" else _FUZZ_VALUES)
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_cli_run_config_fuzz_exit_codes(tmp_path, monkeypatch, algorithm, pairs):
    cfg = _cfg(tmp_path, "dataset = synth:n=20,d=8,delta=0.5,seed=3\n"
                         f"algorithm = {algorithm}\nmode = {_FUZZ_BASE[algorithm]}\n"
                         "eta = 0.1\nK = 4\nmax_stages = 2\np_star = 0\nstop_tol = inf\n")
    execute, reference, calls = bench_cli._execute, bench_cli._reference, []

    def recording_execute(*args):
        calls.append("execute")
        return execute(*args)

    def recording_reference(*args):
        calls.append("reference")
        return reference(*args)

    monkeypatch.setattr(bench_cli, "_execute", recording_execute)
    monkeypatch.setattr(bench_cli, "_reference", recording_reference)
    argv = ["run", str(cfg), "-o", str(tmp_path / "out")]
    for key, value in pairs:
        argv += ["--set", f"{key}={value}"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # inadmissible step sizes warn by design
        code = main(argv)
    assert code in (0, 1, 2), pairs
    if code == 1:
        assert not calls, f"usage error raised after the {calls[-1]} step: {pairs}"


def test_int_keys_accept_integral_float_literals():
    cfg = build_experiment(
        {"dataset": SYNTH, "algorithm": "prox_svrg", "eta": "0.1", "K": "1e2",
         "ref_max_iter": "1e6"}
    )
    assert cfg.K == 100 and cfg.ref_max_iter == 1_000_000
    assert isinstance(cfg.ref_max_iter, int)


def test_every_config_key_parses_by_its_annotation(tmp_path):
    # a config-file value per annotation (first arm of "float | None" etc.) and its parse
    by_type = {"int": ("1e6", 1_000_000), "float": ("0.5", 0.5), "bool": ("off", False),
               "tuple": ("0.5, 100", (0.5, 100.0))}
    by_key = {"dataset": ("synth:n=9,d=3,delta=1", "synth:n=9,d=3,delta=1"),
              "algorithm": ("prox_svrcd", "prox_svrcd"),
              "loss": ("least-squares", "least-squares"), "mode": ("seq", "seq")}
    base = f"dataset = {SYNTH}\neta = 0.1\nK = 5\n"
    # the algorithm, mode and data that read the key: prox_sgd reads
    # eta_decay, threads:P reads tau, simulate reads schedule_seed, simulated
    # async_svrcd reads include_prob and file data read normalize (a config
    # is built without loading its data)
    reader = {"tau": "algorithm = async_svrg\nmode = threads:2\n",
              "schedule_seed": "algorithm = async_svrg\nmode = simulate:uniform:2\n",
              "include_prob": "algorithm = async_svrcd\nmode = simulate:uniform:2\n",
              "normalize": "algorithm = prox_sgd\ndataset = data.txt\n"}

    def parsed(key, raw, attr=None):
        head = reader.get(key, "algorithm = prox_sgd\n")
        path = _cfg(tmp_path, f"{base}{head}{key} = {raw}\n")
        return getattr(build_experiment(parse_config_file(path)), attr or key)

    for f in fields(ExperimentConfig):
        raw, want = by_key.get(f.name) or by_type[f.type.split(" | ")[0]]
        got = parsed(f.name, raw)
        assert type(got) is type(want) and got == want, (f.name, f.type, got)
    assert parsed("S", "7", "max_stages") == 7
    assert parsed("stop_tol", "inf") == math.inf
    assert parsed("tau", "3") == 3 and parsed("p_star", "-2") == -2.0
    for spelling in ("1", "true", "yes", "on", "TRUE", "On"):
        assert parsed("normalize", spelling) is True
    for spelling in ("0", "false", "no", "off", "False", "NO"):
        assert parsed("last_iterate", spelling) is False
    with pytest.raises(ContractViolation, match="with_replacement"):
        parsed("with_replacement", "maybe")


def test_load_dataset_synth_spec_errors():
    with pytest.raises(ContractViolation):
        load_dataset("synth:n=10,delta=0.5")  # missing d
    with pytest.raises(ContractViolation):
        load_dataset("synth:n=10,d=3,delta=0.5,bogus=1")
