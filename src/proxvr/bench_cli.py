"""Benchmark driver: reference-optimum computation, suboptimality traces down
to a configured stopping tolerance, and speedup measurement across worker
counts.

Experiments are described by flat key=value config files; command-line
``--set key=value`` flags override file values, which override defaults.

Subcommands:
    stats <dataset>                     dataset statistics (key=value or JSON)
    synth <spec> -o <path>              generate a synthetic LIBSVM file
    ref <config>                        compute and store the reference optimum
    run <config>                        one experiment; per-stage CSV + summary
    speedup <config> --workers 1,2,4    threads-mode speedup table

Exit codes: 0 success, 1 usage errors, 2 DNF, diverged or fatally
inadmissible runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import async_engine, data_io, seq_solvers, theory
from .errors import ContractViolation, ConvergenceFailure, ParseError, check_int
from .linalg import DenseVec
from .problem import Dataset, LossKind, Problem, Regularizer, prox_elastic

SEQ_ALGOS = ("prox_sgd", "prox_scd", "prox_svrg", "prox_svrcd")
ASYNC_ALGOS = ("async_svrg", "async_svrcd")

# default regularizer weights for the standard benchmark files
_DATASET_LAMBDAS = {
    "rcv1": (1e-5, 1e-4),
    "real-sim": (1e-4, 1e-4),
    "news20": (1e-6, 1e-4),
}


@dataclass
class ExperimentConfig:
    """One experiment. Each key's type is its annotation; every range that
    needs no data is checked on construction, however the config is made,
    and so is every key set where no run reads it. ``B <= n`` and
    ``m <= d`` are checked by ``build_problem``."""

    dataset: str
    algorithm: str
    eta: float
    K: int
    loss: str = "logistic"
    lambda1: float = 0.0
    lambda2: float = 1e-4
    normalize: bool = True
    B: int = 1
    m: int = 1
    max_stages: int = 20
    eta_decay: tuple | None = None
    mode: str = "seq"
    include_prob: float | None = None
    schedule_seed: int | None = None
    tau: int | None = None
    stop_tol: float = 1e-10
    seed: int = 0
    ref_tol: float = 1e-12
    ref_max_iter: int = 1_000_000
    p_star: float | None = None
    mu: float | None = None
    L_const: float | None = None
    T_const: float | None = None
    speedup_target: float = 1e-4
    with_replacement: bool = True
    last_iterate: bool = False

    def __post_init__(self):
        """NaN fails every check; the solver keys and the regularizer weights
        are checked by ``SolverConfig`` and ``Regularizer``. ``eta_decay`` is
        refused for every algorithm but prox_sgd, the only one that reads it,
        ``tau`` for every mode but threads:P, ``schedule_seed`` for every
        mode but simulate, ``include_prob`` for every run but async_svrcd's
        simulated inconsistent reads and ``normalize = false`` for synth data,
        whose rows are always unit-norm, for the same reason."""
        if self.algorithm not in SEQ_ALGOS + ASYNC_ALGOS:
            raise ContractViolation(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm in ASYNC_ALGOS and self.mode == "seq":
            raise ContractViolation("async algorithms need mode=simulate:... or threads:P")
        if self.algorithm in SEQ_ALGOS and self.mode != "seq":
            raise ContractViolation("sequential algorithms use mode=seq")
        kind = _mode_parts(self.mode)[0]
        _solver_config(self)
        if self.eta_decay is not None and self.algorithm != "prox_sgd":
            raise ContractViolation(f"eta_decay is read by prox_sgd only, not {self.algorithm}")
        Regularizer(self.lambda1, self.lambda2)
        LossKind.parse(self.loss)
        if not (self.stop_tol > 0 and self.ref_tol > 0 and self.speedup_target > 0):
            raise ContractViolation(f"stop_tol, ref_tol and speedup_target must be > 0, got "
                                    f"{self.stop_tol}, {self.ref_tol}, {self.speedup_target}")
        if self.include_prob is not None:
            if not 0.0 <= self.include_prob <= 1.0:
                raise ContractViolation(f"include_prob must lie in [0, 1], got {self.include_prob}")
            if self.algorithm != "async_svrcd" or kind != "simulate":
                raise ContractViolation(f"include_prob is read by async_svrcd in mode=simulate:... "
                                        f"only, not {self.algorithm} in mode={self.mode}")
        if not self.normalize and self.dataset.startswith("synth:"):
            raise ContractViolation("normalize = false does not apply to synth: data, whose "
                                    "rows are always unit-norm")
        for key, reader in (("schedule_seed", "simulate"), ("tau", "threads")):
            if getattr(self, key) is not None:
                check_int(getattr(self, key), key)
                if kind != reader:
                    raise ContractViolation(f"{key} is read by mode={reader}:... only, "
                                            f"not mode={self.mode}")
        check_int(self.ref_max_iter, "ref_max_iter", 1)
        if self.p_star is not None and not math.isfinite(self.p_star):
            raise ContractViolation(f"p_star must be finite, got {self.p_star}")
        for key in ("mu", "L_const", "T_const"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ContractViolation(f"{key} must be finite and > 0, got {value}")


def _bool(raw: str) -> bool:
    if raw.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(raw)
    return raw.lower() in ("1", "true", "yes", "on")


def _int(raw: str) -> int:
    """Integer literal, or a float literal with an integral value (``1e6``)."""
    try:
        return int(raw)
    except ValueError:
        val = float(raw)
        if not val.is_integer():
            raise
        return int(val)


def _float(raw: str) -> float:
    """Float literal other than NaN; ``inf`` stays valid (``stop_tol = inf``)."""
    val = float(raw)
    if math.isnan(val):
        raise ValueError(raw)
    return val


def _pair(raw: str) -> tuple:
    eta0, sigma0 = (_float(tok) for tok in raw.split(","))
    return (eta0, sigma0)


def _number(key: str, raw: str, kind):
    """``kind(raw)``, with a failure reported as a usage error naming the key."""
    try:
        return kind(raw.strip())
    except ValueError:
        raise ContractViolation(f"bad value for {key}: {raw!r}") from None


# each key's parser, from the first arm of its annotation ("float | None" -> _float)
_PARSERS = {
    f.name: {"str": str, "bool": _bool, "int": _int, "float": _float, "tuple": _pair}[
        f.type.split(" | ")[0]]
    for f in fields(ExperimentConfig)
}
_REQUIRED = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
_ALIASES = {"S": "max_stages"}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ContractViolation(f"{path}:{lineno}: expected key=value")
            key, raw = line.split("=", 1)
            out[key.strip()] = raw.strip()
    return out


def build_experiment(mapping: dict) -> ExperimentConfig:
    kwargs = {}
    for key, raw in mapping.items():
        key = _ALIASES.get(key, key)
        if key not in _PARSERS:
            raise ContractViolation(f"unknown config key: {key!r}")
        kwargs[key] = _number(key, raw, _PARSERS[key]) if isinstance(raw, str) else raw
    for required in _REQUIRED:
        if required not in kwargs:
            raise ContractViolation(f"missing required config key: {required!r}")
    # Table-defaults for the standard benchmark files when lambdas were not given
    if "lambda1" not in kwargs and "lambda2" not in kwargs:
        name = Path(kwargs["dataset"]).name.lower()
        for tag, lambdas in _DATASET_LAMBDAS.items():
            if tag in name:
                kwargs["lambda1"], kwargs["lambda2"] = lambdas
                break
    return ExperimentConfig(**kwargs)


def _parse_synth_spec(spec: str) -> dict:
    out = {"seed": 0, "label": "logistic"}
    for tok in spec.split(","):
        if not tok:
            continue
        key, _, raw = tok.partition("=")
        key = key.strip()
        if key in ("n", "d", "seed", "delta"):
            out[key] = _number(key, raw, float if key == "delta" else _int)
        elif key == "label":
            out[key] = raw.strip()
        else:
            raise ContractViolation(f"unknown synth key {key!r}")
    for required in ("n", "d", "delta"):
        if required not in out:
            raise ContractViolation(f"synth spec needs {required}=...")
    return out


def load_dataset(source: str, normalize: bool = True, expected_dim: int | None = None) -> Dataset:
    """`path/to/file[.gz]` or `synth:n=..,d=..,delta=..[,seed=..][,label=..]`."""
    if source.startswith("synth:"):
        spec = _parse_synth_spec(source[len("synth:"):])
        ds = data_io.synth_dataset(
            spec["n"], spec["d"], spec["delta"], label_rule=spec["label"], seed=spec["seed"]
        )
        return ds  # synth_dataset already normalizes
    ds = data_io.read_libsvm(source, expected_dim)
    if normalize:
        ds = data_io.normalize_rows(ds)
    return ds


def build_problem(cfg: ExperimentConfig) -> Problem:
    """The configured problem; ``B > n`` or ``m > d`` is a usage error here,
    before any reference optimum is computed."""
    dataset = load_dataset(cfg.dataset, cfg.normalize)
    _solver_config(cfg).validate(dataset.n, dataset.d)
    return Problem(dataset, LossKind.parse(cfg.loss), Regularizer(cfg.lambda1, cfg.lambda2))


@dataclass
class ReferenceOptimum:
    """The certified optimum and how it was reached; ``step`` is the FISTA
    step, None when ``p_star`` was given instead."""

    x_star: DenseVec
    p_star: float
    certificate: float
    iterations: int
    step: float | None


def compute_reference_optimum(
    problem: Problem, ref_tol: float = 1e-12, *, max_iter: int = 1_000_000
) -> ReferenceOptimum:
    """FISTA (Beck & Teboulle 2009) with gradient-based adaptive restart
    (O'Donoghue & Candes 2015), until the prox-gradient mapping
    G_eta(y) = (y - x+) / eta, x+ = prox_{eta R}(y - eta grad F(y)), at the
    extrapolated point y has norm at most ``ref_tol``; x+ is returned.

    Momentum restarts (t = 1, y = x+) whenever <y - x+, x+ - x> > 0, i.e.
    when the step from the previous iterate x runs against the mapping. The
    step is 1/L_F, L_F from ``theory.smoothness_bound`` bounding the
    smoothness of the average loss, or 1 when no entries are stored. Needs a
    unique minimizer (lambda2 > 0 suffices)."""
    if not ref_tol > 0:
        raise ContractViolation(f"ref_tol must be > 0, got {ref_tol}")
    check_int(max_iter, "max_iter", 1)
    L = theory.smoothness_bound(problem.dataset, problem.loss)
    eta = 1.0 / L if L > 0 else 1.0
    x = np.zeros(problem.d)
    y, t = x, 1.0
    best = math.inf
    for it in range(1, max_iter + 1):
        x_next = prox_elastic(y - eta * problem.full_grad(y), eta, problem.reg)
        step = y - x_next
        cert = float(np.linalg.norm(step)) / eta
        best = min(best, cert)
        if cert <= ref_tol:
            return ReferenceOptimum(x_next, problem.objective(x_next), cert, it, eta)
        if float(step @ (x_next - x)) > 0:
            y, t = x_next, 1.0
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            t = t_next
        x = x_next
    raise ConvergenceFailure(
        f"reference optimum did not reach {ref_tol:g} in {max_iter} iterations "
        f"(best certificate {best:g})",
        best_certificate=best,
    )


def _mode_parts(mode: str) -> tuple:
    """Split a mode string into ("seq",), ("threads", P) or
    ("simulate", law, tau); anything else is a usage error."""
    parts = mode.split(":")
    try:
        if parts == ["seq"]:
            return ("seq",)
        if parts[0] == "threads" and len(parts) == 2:
            return ("threads", async_engine.ThreadsMode(_int(parts[1])).workers)
        if (parts[0] == "simulate" and len(parts) == 3 and parts[1] in ("constant", "uniform")
                and (tau := _int(parts[2])) >= 0):
            return ("simulate", parts[1], tau)
    except (ValueError, ContractViolation):
        pass
    raise ContractViolation(
        f"bad value for mode: {mode!r} (expected seq, threads:<P> with 1 <= P <= "
        f"{async_engine.ThreadsMode.MAX_WORKERS} or simulate:<law>:<tau> with tau >= 0)"
    )


def _theory_verdict(cfg: ExperimentConfig, problem: Problem, tau_for_theory: float):
    """(constants, admissible, rho) for the configured run; rho may be nan.
    A run with no inner updates (K = 0) has no rate."""
    delta = theory.data_sparsity_delta(problem.dataset)
    L_est, T_est = theory.estimate_lipschitz(problem.dataset, problem.loss)
    L = cfg.L_const if cfg.L_const is not None else L_est
    T = cfg.T_const if cfg.T_const is not None else T_est
    mu = cfg.mu if cfg.mu is not None else problem.reg.lambda2
    if mu <= 0 or delta <= 0 or cfg.K == 0:
        return None, None, None
    consts = theory.ProblemConstants(
        mu=mu, L=L, T=T, Delta=delta, tau=tau_for_theory,
        B=cfg.B, K=cfg.K, m=cfg.m, eta=cfg.eta,
    )
    if cfg.algorithm.endswith("svrcd"):
        admissible = theory.svrcd_stepsize_admissible(consts)
        rate_fn = theory.svrcd_rate
    elif cfg.algorithm.endswith("svrg"):
        admissible = theory.svrg_stepsize_admissible(consts)
        rate_fn = theory.svrg_rate
    else:
        return consts, None, None  # no stage-rate result for SGD/SCD
    try:
        rho = rate_fn(consts)
    except theory.RateDomainError:
        rho = math.nan
    return consts, admissible, rho


def _solver_config(cfg: ExperimentConfig) -> seq_solvers.SolverConfig:
    """Each ``SolverConfig`` field from the config key of its name or alias."""
    return seq_solvers.SolverConfig(**{f.name: getattr(cfg, _ALIASES.get(f.name, f.name))
                                       for f in fields(seq_solvers.SolverConfig)})


_RUNNERS = {
    "prox_sgd": seq_solvers.prox_sgd_run,
    "prox_scd": seq_solvers.prox_scd_run,
    "prox_svrg": seq_solvers.prox_svrg_run,
    "prox_svrcd": seq_solvers.prox_svrcd_run,
    "async_svrg": async_engine.async_svrg_run,
    "async_svrcd": async_engine.async_svrcd_run,
}


def _reference(cfg: ExperimentConfig, problem: Problem) -> ReferenceOptimum:
    """The configured ``p_star`` if given, else the certified optimum."""
    if cfg.p_star is not None:
        return ReferenceOptimum(np.zeros(problem.d), cfg.p_star, math.nan, 0, None)
    return compute_reference_optimum(problem, cfg.ref_tol, max_iter=cfg.ref_max_iter)


def _execute(cfg: ExperimentConfig, problem: Problem, stop_below: float | None):
    """Run the configured solver; returns (RunTrace, AsyncReport | None)."""
    sc = _solver_config(cfg)
    x0 = np.zeros(problem.d)
    kind, *args = _mode_parts(cfg.mode)
    if kind == "seq":
        return _RUNNERS[cfg.algorithm](problem, sc, x0, stop_below=stop_below), None
    if kind == "threads":
        mode = async_engine.ThreadsMode(args[0])
    else:
        law, tau = args
        schedule = async_engine.sample_delay_schedule(
            law,
            tau,
            sc.S * sc.K,
            cfg.schedule_seed if cfg.schedule_seed is not None else cfg.seed,
            inconsistent=cfg.algorithm.endswith("svrcd"),
            include_prob=cfg.include_prob,
        )
        mode = async_engine.SimulateMode(schedule)
    report = _RUNNERS[cfg.algorithm](problem, sc, x0, mode, stop_below=stop_below)
    return report.trace, report


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Execute one experiment; write trace.csv and summary.txt.

    Returns the summary mapping (status OK/DIVERGED/FAILED/DNF included). An
    inadmissible step size is a warning, not an error; the theory fields in
    the summary record the verdict either way.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    stats = data_io.dataset_stats(problem.dataset)

    kind, *args = _mode_parts(cfg.mode)
    declared_tau = args[1] if kind == "simulate" else cfg.tau  # None: no tau declared
    tau_for_theory = float(declared_tau or 0)
    # before the reference: bad theory constants (mu > L) are a config error
    consts, admissible, rho = _theory_verdict(cfg, problem, tau_for_theory)
    ref = _reference(cfg, problem)
    if admissible is False:
        warnings.warn(
            f"step size eta={cfg.eta:g} is not admissible for {cfg.algorithm}; "
            "the run proceeds with the theory fields marked inadmissible"
        )

    stopping = None if math.isinf(cfg.stop_tol) else ref.p_star + cfg.stop_tol
    t_start = time.perf_counter()
    trace, report = _execute(cfg, problem, stopping)
    wall = time.perf_counter() - t_start

    subopts = [rec.objective - ref.p_star for rec in trace.records]
    status = "OK"
    if not all(math.isfinite(rec.objective) for rec in trace.records):
        status = "DIVERGED"  # the run stopped at its first non-finite objective
    elif any(s < -1e-12 for s in subopts):
        status = "FAILED"  # reference optimum too loose for this run
    elif not math.isinf(cfg.stop_tol) and (not subopts or subopts[-1] > cfg.stop_tol):
        status = "DNF"

    trace_path = out / "trace.csv"
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "suboptimality", "seconds", "updates", "observed_mean_delay"])
        mean_delays = report.stage_mean_delays if report is not None else [0.0] * len(subopts)
        for rec, subopt, mean_delay in zip(trace.records, subopts, mean_delays):
            writer.writerow(
                [rec.stage, f"{subopt:.17g}", f"{rec.seconds:.6f}", rec.updates,
                 f"{mean_delay:.6g}"]
            )

    summary = {
        "status": status,
        "algorithm": cfg.algorithm,
        "mode": cfg.mode,
        "dataset": cfg.dataset,
        "loss": cfg.loss,
        "n": stats.n,
        "d": stats.d,
        "nnz": stats.nnz,
        "lambda1": cfg.lambda1,
        "lambda2": cfg.lambda2,
        "seed": cfg.seed,
        "eta": cfg.eta,
        "B": cfg.B,
        "K": cfg.K,
        "m": cfg.m,
        "max_stages": cfg.max_stages,
        "stop_tol": cfg.stop_tol,
        "stages_used": len(trace.records),
        "total_updates": sum(r.updates for r in trace.records),
        "final_suboptimality": subopts[-1] if subopts else math.nan,
        "seconds": wall,
        "p_star": ref.p_star,
        "ref_certificate": ref.certificate,
        "ref_iterations": ref.iterations,
        "ref_step": "n/a" if ref.step is None else ref.step,
        "delta": stats.delta,
        "mu": consts.mu if consts else math.nan,
        "L": consts.L if consts else math.nan,
        "T": consts.T if consts else math.nan,
        "tau_theory": tau_for_theory,
        "eta_admissible": "n/a" if admissible is None else str(bool(admissible)).lower(),
        "rho": "n/a" if rho is None else f"{rho:.17g}",
        "worst_stage_ratio": _worst_stage_ratio(subopts),
    }
    if report is not None:
        summary["observed_mean_delay"] = report.delay_mean
        summary["observed_max_delay"] = report.delay_max
        exceeded = declared_tau is not None and report.delay_mean > declared_tau
        summary["mean_delay_exceeded"] = str(exceeded).lower()
    _write_summary(out / "summary.txt", summary)
    return summary


def _worst_stage_ratio(subopts) -> float | str:
    """The largest sub_s / sub_{s-1} over consecutive recorded stages whose
    suboptimalities are both positive, the measured counterpart of rho;
    "n/a" when no two such stages follow each other."""
    ratios = [b / a for a, b in zip(subopts, subopts[1:]) if a > 0 and b > 0]
    return max(ratios) if ratios else "n/a"


def _write_summary(path, summary: dict) -> None:
    with open(path, "w") as fh:
        for key, val in summary.items():
            if isinstance(val, float):
                fh.write(f"{key}={val:.17g}\n")
            else:
                fh.write(f"{key}={val}\n")


def speedup_report(cfg: ExperimentConfig, worker_counts, out_dir) -> list:
    """Threads-mode wall-clock to a fixed target suboptimality across worker
    counts; writes speedup.csv. Rows that never reach the target within the
    stage budget are marked DNF."""
    if cfg.algorithm not in ASYNC_ALGOS:
        raise ContractViolation("speedup needs an async algorithm")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    ref = _reference(cfg, problem)
    target = ref.p_star + cfg.speedup_target

    # sequential-solver baseline for the summary record
    # replace() checks the config again: drop the keys the new mode does not read
    seq_cfg = replace(cfg, algorithm=cfg.algorithm.replace("async_", "prox_"), mode="seq",
                      tau=None, schedule_seed=None, include_prob=None)
    t0 = time.perf_counter()
    seq_trace, _ = _execute(seq_cfg, problem, target)
    seq_seconds = time.perf_counter() - t0
    seq_reached = seq_trace.records and seq_trace.records[-1].objective <= target

    rows = []
    base_seconds = None
    for P in worker_counts:
        t0 = time.perf_counter()
        threads_cfg = replace(cfg, mode=f"threads:{int(P)}", schedule_seed=None,
                              include_prob=None)
        _, report = _execute(threads_cfg, problem, target)
        seconds = time.perf_counter() - t0
        reached = report.trace.records[-1].objective <= target if report.trace.records else False
        row = {
            "P": int(P),
            "seconds": seconds if reached else None,
            "updates_per_sec": report.total_commits / seconds if seconds > 0 else 0.0,
            "observed_mean_delay": report.delay_mean,
            "observed_max_delay": report.delay_max,
            "dnf": not reached,
        }
        if reached and base_seconds is None and int(P) == int(worker_counts[0]):
            base_seconds = seconds
        row["speedup_vs_P1"] = (
            base_seconds / seconds if (reached and base_seconds) else None
        )
        rows.append(row)

    path = out / "speedup.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["P", "seconds", "updates_per_sec", "speedup_vs_P1",
             "observed_mean_delay", "observed_max_delay"]
        )
        for row in rows:
            writer.writerow([
                row["P"],
                "DNF" if row["dnf"] else f"{row['seconds']:.6f}",
                f"{row['updates_per_sec']:.3f}",
                "" if row["speedup_vs_P1"] is None else f"{row['speedup_vs_P1']:.3f}",
                f"{row['observed_mean_delay']:.6g}",
                row["observed_max_delay"],
            ])
    _write_summary(
        out / "speedup_summary.txt",
        {
            "algorithm": cfg.algorithm,
            "target_suboptimality": cfg.speedup_target,
            "p_star": ref.p_star,
            "seq_seconds": seq_seconds if seq_reached else math.nan,
            "seq_reached": str(bool(seq_reached)).lower(),
            "worker_counts": ",".join(str(int(P)) for P in worker_counts),
        },
    )
    return rows


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(args) -> ExperimentConfig:
    mapping = parse_config_file(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ContractViolation(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        mapping[key.strip()] = raw.strip()
    return build_experiment(mapping)


def _worker_counts(raw: str) -> list:
    """``--workers``: comma-separated worker counts, each one ``ThreadsMode``
    accepts."""
    counts = [_number("workers", tok, _int) for tok in raw.split(",")]
    try:
        return [async_engine.ThreadsMode(count).workers for count in counts]
    except ContractViolation as exc:
        raise ContractViolation(f"bad value for workers: {raw!r} ({exc})") from None


def main(argv=None) -> int:
    parser = _Parser(prog="proxvr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset statistics")
    p_stats.add_argument("dataset")
    p_stats.add_argument("--expected-dim", type=int, default=None)
    p_stats.add_argument("--normalize", action="store_true")
    p_stats.add_argument("--json", action="store_true")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("spec", help="n=..,d=..,delta=..[,seed=..][,label=..]")
    p_synth.add_argument("-o", "--output", required=True)

    for name in ("ref", "run", "speedup"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("-o", "--out", default="proxvr_out")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        if name == "speedup":
            p.add_argument("--workers", default="1,2,4")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ContractViolation, ParseError, FileNotFoundError) as exc:
        print(f"proxvr: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceFailure as exc:
        print(f"proxvr: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "stats":
        stats = data_io.dataset_stats(
            load_dataset(args.dataset, args.normalize, args.expected_dim)
        )
        if args.json:
            print(json.dumps(data_io.stats_record(stats), indent=2))
        else:
            print(data_io.format_stats(stats))
        return 0

    if args.command == "synth":
        ds = load_dataset("synth:" + args.spec)
        data_io.write_libsvm(ds, args.output)
        print(data_io.format_stats(data_io.dataset_stats(ds)))
        return 0

    cfg = _load_config(args)

    if args.command == "ref":
        problem = build_problem(cfg)
        ref = compute_reference_optimum(problem, cfg.ref_tol, max_iter=cfg.ref_max_iter)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_summary(
            out / "reference.txt",
            {
                "p_star": ref.p_star,
                "certificate": ref.certificate,
                "iterations": ref.iterations,
                "step": ref.step,
            },
        )
        np.savetxt(out / "x_star.txt", ref.x_star)
        print(f"p_star={ref.p_star:.17g} certificate={ref.certificate:.3g} "
              f"iterations={ref.iterations} step={ref.step:.17g}")
        return 0

    if args.command == "run":
        summary = run_experiment(cfg, args.out)
        for key in ("status", "final_suboptimality", "stages_used", "rho", "eta_admissible"):
            val = summary[key]
            print(f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}")
        return 0 if summary["status"] == "OK" else 2

    if args.command == "speedup":
        counts = _worker_counts(args.workers)
        rows = speedup_report(cfg, counts, args.out)
        for row in rows:
            mark = "DNF" if row["dnf"] else f"{row['seconds']:.3f}s"
            print(f"P={row['P']} {mark} updates/s={row['updates_per_sec']:.1f}")
        return 2 if any(row["dnf"] for row in rows) else 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
