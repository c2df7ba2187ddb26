"""The four benchmark workloads and the correctness gate for their outputs.

Each workload is split into the operations a user of proxvr pays for:

* ``setup``     -- data synthesis or LIBSVM parsing, row normalization,
                   dataset statistics, the Problem, and the theory constants;
* ``reference`` -- certification of the reference optimum (``proxvr ref``);
* ``jobs``      -- solver runs, each timed from x0 until suboptimality
                   1e-10 (or over a fixed stage budget in threads mode),
                   including the delay-schedule draw and the per-stage
                   objective evaluations the solvers perform.

Only public functions of the package are called, so the timings are taken
around the same calls a user makes. Why each workload exists, and which
layers it stresses and bypasses, is written up in README.md.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from proxvr import async_engine, bench_cli, data_io, seq_solvers, theory
from proxvr.errors import ContractViolation, ConvergenceFailure
from proxvr.problem import LossKind, Problem, Regularizer

REF_TOL = 1e-12
STOP_TOL = 1e-10
NEG_TOL = -1e-12
# threads mode is not deterministic, so it runs a fixed stage budget and must
# end below this suboptimality (about 4x above what two stages reach)
THREADS_STAGES = 2
THREADS_TOL = 1e-4


@dataclass
class Instance:
    """One problem ready to solve, plus what set-up computed about it."""

    problem: Problem
    stats: data_io.DatasetStats
    delta: float
    lipschitz: tuple
    cfg: bench_cli.ExperimentConfig | None = None


@dataclass
class Job:
    """One solver run of a workload.

    ``group`` is "solve" for the runs that make up ``solve_s``, "p1" for the
    one-worker threads runs and "seq" for the sequential baseline.
    """

    label: str
    instance: int
    run: object  # (problem, stop_below) -> (RunTrace, AsyncReport | None, schedule length)
    deterministic: bool
    threshold: float
    to_tol: bool
    group: str = "solve"


@dataclass
class SolverRun:
    label: str
    group: str
    seconds: float
    updates: int
    stages: int
    subopts: list
    schedule_len: int
    report: object  # AsyncReport | None
    kind: str  # "async" | "seq"
    to_tol: bool


def _zeros(problem):
    return np.zeros(problem.d)


def _simulate(algorithm, sc, law, tau, schedule_seed, include_prob=0.5):
    """Async run in simulate mode; the schedule is drawn inside the timing,
    for S*K updates, as ``proxvr run`` does."""
    runner = async_engine.async_svrg_run if algorithm == "svrg" else async_engine.async_svrcd_run

    def run(problem, stop_below):
        schedule = async_engine.sample_delay_schedule(
            law, tau, sc.S * sc.K, schedule_seed,
            inconsistent=algorithm == "svrcd", include_prob=include_prob,
        )
        report = runner(
            problem, sc, _zeros(problem), async_engine.SimulateMode(schedule),
            stop_below=stop_below,
        )
        return report.trace, report, len(schedule)

    return run


def _threads(algorithm, sc, workers):
    runner = async_engine.async_svrg_run if algorithm == "svrg" else async_engine.async_svrcd_run

    def run(problem, stop_below):
        report = runner(
            problem, sc, _zeros(problem), async_engine.ThreadsMode(workers),
            stop_below=stop_below,
        )
        return report.trace, report, 0

    return run


def _sequential(runner, sc):
    def run(problem, stop_below):
        return runner(problem, sc, _zeros(problem), stop_below=stop_below), None, 0

    return run


def _instance(problem: Problem, cfg=None) -> Instance:
    stats = data_io.dataset_stats(problem.dataset)
    delta = theory.data_sparsity_delta(problem.dataset)
    lipschitz = theory.estimate_lipschitz(problem.dataset, problem.loss)
    return Instance(problem, stats, delta, lipschitz, cfg)


class Workload:
    name = ""
    # shapes for the kernel table: delay law used for the read kernels
    read_law = ("uniform", 2)

    def __init__(self, root: Path, out_dir: Path, seed: int):
        self.root = root
        self.out_dir = out_dir
        self.seed = seed
        # independent data / solver / schedule seeds from the one argument
        self.data_seed, self.solver_seed, self.schedule_seed = (
            int(v) for v in np.random.SeedSequence(seed).generate_state(3)
        )

    def prepare(self) -> None:
        """Untimed input generation."""

    def setup(self) -> list[Instance]:
        raise NotImplementedError

    def jobs(self, instances) -> list[Job]:
        raise NotImplementedError

    def kernel_shapes(self, instances) -> dict:
        """Mini-batch size and prox length the workload's solvers use."""
        raise NotImplementedError

    def libsvm_file(self, instances) -> Path:
        """The workload's data as a gzip LIBSVM file, for the parse kernel."""
        path = self.out_dir / f"kernel-{self.name}-seed{self.seed}.svm.gz"
        data_io.write_libsvm(instances[0].problem.dataset, path)
        return path


class Protocol(Workload):
    """The two committed protocol configs, with seeds taken from the
    benchmark seed and every other value unchanged."""

    name = "protocol"
    configs = ("configs/synth_protocol_svrg.cfg", "configs/synth_protocol_svrcd.cfg")

    def prepare(self):
        for rel in self.configs:
            if not (self.root / rel).is_file():
                raise FileNotFoundError(f"missing config {rel}")

    def setup(self):
        out = []
        for rel in self.configs:
            mapping = bench_cli.parse_config_file(self.root / rel)
            mapping["dataset"] = re.sub(
                r"seed=\d+", f"seed={self.data_seed}", mapping["dataset"]
            )
            mapping["seed"] = str(self.solver_seed)
            cfg = bench_cli.build_experiment(mapping)
            out.append(_instance(bench_cli.build_problem(cfg), cfg))
        return out

    def jobs(self, instances):
        out = []
        for idx, inst in enumerate(instances):
            cfg = inst.cfg
            law, tau = cfg.mode.split(":")[1:]
            sc = seq_solvers.SolverConfig(
                eta=cfg.eta, B=cfg.B, K=cfg.K, S=cfg.max_stages, m=cfg.m,
                eta_decay=cfg.eta_decay, seed=cfg.seed,
                with_replacement=cfg.with_replacement, last_iterate=cfg.last_iterate,
            )
            algorithm = "svrcd" if cfg.algorithm.endswith("svrcd") else "svrg"
            sched_seed = cfg.schedule_seed if cfg.schedule_seed is not None else cfg.seed
            run = _simulate(algorithm, sc, law, int(tau), sched_seed, cfg.include_prob)
            out.append(Job(cfg.algorithm, idx, run, True, cfg.stop_tol, True))
        return out

    def kernel_shapes(self, instances):
        cfg = instances[0].cfg
        return {"B": cfg.B, "prox_len": instances[0].problem.d // cfg.m}


class SparseHighDim(Workload):
    name = "sparse-highdim"
    read_law = ("uniform", 4)
    n, d, delta, m = 500, 20000, 0.01, 4

    def setup(self):
        ds = data_io.synth_dataset(self.n, self.d, self.delta, seed=self.data_seed)
        return [_instance(Problem(ds, LossKind.LOGISTIC, Regularizer(1e-4, 1e-2)))]

    def jobs(self, instances):
        sc = seq_solvers.SolverConfig(
            eta=0.4, B=1, K=2 * self.n * self.m, S=15, m=self.m, seed=self.solver_seed
        )
        run = _simulate("svrcd", sc, "uniform", 4, self.schedule_seed)
        return [Job("async_svrcd simulate:uniform:4", 0, run, True, STOP_TOL, True)]

    def kernel_shapes(self, instances):
        return {"B": 1, "prox_len": self.d // self.m}


class LibsvmRef(Workload):
    name = "libsvm-ref"
    n, d, delta, B = 2000, 2000, 0.01, 10

    @property
    def path(self) -> Path:
        return self.out_dir / f"libsvm-ref-seed{self.seed}.svm.gz"

    def prepare(self):
        ds = data_io.synth_dataset(
            self.n, self.d, self.delta, label_rule="regression", seed=self.data_seed
        )
        data_io.write_libsvm(ds, self.path)

    def setup(self):
        ds = data_io.normalize_rows(data_io.read_libsvm(self.path))
        return [_instance(Problem(ds, LossKind.LEAST_SQUARES, Regularizer(1e-4, 5e-2)))]

    def jobs(self, instances):
        sc = seq_solvers.SolverConfig(
            eta=0.05, B=self.B, K=2 * self.n // self.B, S=40, seed=self.solver_seed
        )
        run = _sequential(seq_solvers.prox_svrg_run, sc)
        return [Job("prox_svrg seq", 0, run, True, STOP_TOL, True)]

    def kernel_shapes(self, instances):
        return {"B": self.B, "prox_len": self.d}

    def libsvm_file(self, instances):
        return self.path


class Threads(SparseHighDim):
    """The sparse-highdim problem in threads mode over a fixed budget."""

    name = "threads"
    read_law = ("uniform", 2)
    workers = 2

    def jobs(self, instances):
        n, m = self.n, self.m
        cfgs = {
            "svrg": seq_solvers.SolverConfig(
                eta=0.4, B=1, K=2 * n, S=THREADS_STAGES, m=1, seed=self.solver_seed
            ),
            "svrcd": seq_solvers.SolverConfig(
                eta=0.4, B=1, K=2 * n * m, S=THREADS_STAGES, m=m, seed=self.solver_seed
            ),
        }
        seq_runners = {"svrg": seq_solvers.prox_svrg_run, "svrcd": seq_solvers.prox_svrcd_run}
        out = []
        for group, workers in (("solve", self.workers), ("p1", 1)):
            for algo, sc in cfgs.items():
                out.append(Job(
                    f"async_{algo} threads:{workers}", 0, _threads(algo, sc, workers),
                    False, THREADS_TOL, False, group,
                ))
        for algo, sc in cfgs.items():
            out.append(Job(
                f"prox_{algo} seq baseline", 0, _sequential(seq_runners[algo], sc),
                True, THREADS_TOL, False, "seq",
            ))
        return out

    def kernel_shapes(self, instances):
        return {"B": 1, "prox_len": self.d}


WORKLOADS = {cls.name: cls for cls in (Protocol, SparseHighDim, LibsvmRef, Threads)}


# --------------------------------------------------------------------------
# correctness gate
# --------------------------------------------------------------------------

class Gate:
    """Counts operations and records every failed check without aborting.

    An operation is one reference certification or one solver run.
    Deterministic operations must repeat the first result bit for bit.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0  # deterministic results that did not repeat
        self.messages: list[str] = []
        self._first: dict = {}

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.messages.append(f"{what}: {why}")

    def _repeat(self, key, value, what: str) -> bool:
        first = self._first.setdefault(key, value)
        if first != value:
            self.mismatches += 1
            self._fail(what, "result differs from the first run of the same input")
            return False
        return True

    def reference(self, instances):
        """Certify every instance; returns the optima (None where it failed)."""
        refs = []
        for idx, inst in enumerate(instances):
            self.attempted += 1
            what = f"reference[{idx}]"
            try:
                ref = bench_cli.compute_reference_optimum(inst.problem, REF_TOL)
            except (ConvergenceFailure, ContractViolation) as exc:
                self._fail(what, str(exc))
                refs.append(None)
                continue
            if not (ref.certificate <= REF_TOL and math.isfinite(ref.p_star)):
                self._fail(what, f"certificate {ref.certificate:g} > {REF_TOL:g}")
                refs.append(None)
                continue
            if self._repeat(("ref", idx), (ref.iterations, ref.p_star.hex()), what):
                refs.append(ref)
            else:
                refs.append(None)
        return refs

    def solve(self, job: Job, problem, ref) -> SolverRun | None:
        """Run and time one job, and check what it returns."""
        self.attempted += 1
        if ref is None:
            self._fail(job.label, "no certified reference optimum to check against")
            return None
        stop_below = ref.p_star + job.threshold if job.to_tol else None
        try:
            t0 = time.perf_counter()
            trace, report, sched_len = job.run(problem, stop_below)
            seconds = time.perf_counter() - t0
        except (ConvergenceFailure, ContractViolation) as exc:
            self._fail(job.label, str(exc))
            return None
        objectives = trace.objectives
        subopts = [obj - ref.p_star for obj in objectives]
        if not objectives or not all(math.isfinite(v) for v in objectives):
            self._fail(job.label, "non-finite or missing objective")
            return None
        if min(subopts) < NEG_TOL:
            self._fail(job.label, f"suboptimality {min(subopts):.3g} below {NEG_TOL:g}")
            return None
        if subopts[-1] > job.threshold:
            self._fail(job.label, f"final suboptimality {subopts[-1]:.3g} > {job.threshold:g}")
            return None
        if job.deterministic and not self._repeat(
            ("solve", job.label), tuple(v.hex() for v in subopts), job.label
        ):
            return None
        updates = report.total_commits if report is not None else sum(
            r.updates for r in trace.records
        )
        return SolverRun(
            job.label, job.group, seconds, updates, len(objectives), subopts, sched_len,
            report, "async" if report is not None else "seq", job.to_tol,
        )
