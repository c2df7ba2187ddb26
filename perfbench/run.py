"""proxvr benchmark command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``. Workloads: protocol, sparse-highdim, libsvm-ref, threads (see
README.md next to this file).

``--trace 0`` measures the end-to-end metrics: set-up, certification of the
reference and the solver runs take turns for ``--seconds``, each sample is
scaled by the machine's pace while it ran (pace.py), and medians are
reported, with the wall-clock medians next to them.

``--trace 1`` runs the same operations once each with spans recorded around
the package's layer boundaries, next to one untraced solve, and reports the
per-layer metrics and the kernel table.

Every solver output and reference certificate is checked; failures are
counted, not fatal. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Full results
and traced spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the load must come from the solvers' own threads only
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import Pace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_MIN_REPS = 3
# Share of a run's time that each timed operation gets. The operations take
# turns, the one furthest below its share going next, so the samples of each
# spread over the whole run instead of one stretch of it: on a shared machine
# the speed changes within seconds, by up to a factor of two.
TIME_SHARE = {"setup": 1.0, "ref": 3.0, "solve": 2.0}


def _solve(gate, jobs, instances, refs, groups=None):
    runs = []
    for job in jobs:
        if groups is not None and job.group not in groups:
            continue
        run = gate.solve(job, instances[job.instance].problem, refs[job.instance])
        if run is not None:
            runs.append(run)
    return runs


def _group_rate(runs, group):
    sel = [r for r in runs if r.group == group]
    seconds = sum(r.seconds for r in sel)
    return (sum(r.updates for r in sel) / seconds if seconds > 0 else 0.0), seconds


def _environment(args) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _counts(runs, refs) -> dict:
    """Exact counts recorded with every result."""
    sched = [r for r in runs if r.schedule_len]
    return {
        "ref_iters": sum(ref.iterations for ref in refs if ref is not None),
        "stages_to_tol": {r.label: r.stages for r in runs if r.to_tol},
        "schedule_used_frac": (
            sum(r.updates for r in sched) / sum(r.schedule_len for r in sched)
            if sched else None
        ),
    }


def measure_end_to_end(wl, gate, seconds) -> tuple[dict, dict]:
    """Time set-up, certification and solves; report their paced medians
    (see pace.py), with the wall-clock medians next to them."""
    deadline = time.perf_counter() + seconds
    spans = {op: [] for op in TIME_SHARE}  # (start, end, seconds, updates)
    state = {}
    pace = Pace()

    def set_up():
        state["instances"] = None  # one copy of the data at a time, so peak RSS holds one
        state["instances"] = wl.setup()

    def certify():
        state["refs"] = gate.reference(state["instances"])

    def solve(groups=None):
        t0 = time.perf_counter()
        state["runs"] = _solve(gate, jobs, state["instances"], state["refs"], groups)
        solve_s = sum(r.seconds for r in state["runs"] if r.group == "solve")
        if solve_s > 0:
            updates = sum(r.updates for r in state["runs"] if r.group == "solve")
            spans["solve"].append((t0, time.perf_counter(), solve_s, updates))

    def timed(op, fn):
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        spans[op].append((t0, t1, t1 - t0, 0))

    def wall(op):
        return [sp[2] for sp in spans[op]]

    # warm-up, not timed: the first set-up pays for lazy imports and first
    # allocations
    set_up()
    jobs = wl.jobs(state["instances"])
    ops = {
        "setup": lambda: timed("setup", set_up),
        "ref": lambda: timed("ref", certify),
        "solve": lambda: solve({"solve"}),
    }
    with pace.installed():
        timed("ref", certify)
        # the one-worker and sequential baseline jobs are checked in this
        # first pass only; the repetitions run the "solve" group behind solve_s
        solve()
        ops["setup"]()
        while True:
            now = time.perf_counter()
            fits = [op for op in ops if now + _median(wall(op)) <= deadline]
            if not fits:
                break
            ops[min(fits, key=lambda op: sum(wall(op)) / TIME_SHARE[op])]()
        # at least SETUP_MIN_REPS set-ups, even when --seconds is too short
        while len(spans["setup"]) < SETUP_MIN_REPS:
            ops["setup"]()

    def paced(op):
        # the solver runs' own seconds, scaled by the pace around the call
        return [sec * pace.paced(t0, t1) / (t1 - t0) for t0, t1, sec, _ in spans[op]]

    solve_paced = paced("solve")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (_median(paced("setup")), "s"),
        "ref_s": (_median(paced("ref")), "s"),
        "solve_s": (_median(solve_paced), "s"),
        "updates_per_s": (
            _median([sp[3] / sec for sp, sec in zip(spans["solve"], solve_paced)]), "1/s"
        ),
        "peak_rss_mb": (rss_mb, "MB"),
        "wall.setup_s": (_median(wall("setup")), "s"),
        "wall.ref_s": (_median(wall("ref")), "s"),
        "wall.solve_s": (_median(wall("solve")), "s"),
        "wall.updates_per_s": (
            _median([sp[3] / sp[2] for sp in spans["solve"]]), "1/s"
        ),
        "pace.probe_ms": (pace.median_ms(), "ms"),
    }
    counts = _counts(state["runs"], state["refs"])
    # two mini-batch gradients of B rows per update; measured in the traced run
    counts["sparse_dot_calls_per_update_computed"] = (
        2 * wl.kernel_shapes(state["instances"])["B"]
    )
    counts["samples"] = {op: len(v) for op, v in spans.items()}
    counts["samples"]["pace_probes"] = len(pace.durations)
    return metrics, counts


def _layer_targets():
    """Layer-boundary callables wrapped in the traced run."""
    from proxvr import async_engine, bench_cli, data_io, problem, seq_solvers, theory

    spanned = [
        (problem.Problem, "vr_grad", "problem.vr_grad"),
        (problem.Problem, "make_anchor", "problem.make_anchor"),
        (problem.Problem, "full_grad", "problem.full_grad"),
        (problem.Problem, "objective", "problem.objective"),
        (problem, "minibatch_grad", "problem.minibatch_grad"),
        (seq_solvers, "prox_elastic", "problem.prox_elastic"),
        (async_engine, "prox_elastic", "problem.prox_elastic"),
        (async_engine, "read_consistent", "async_engine.read_consistent"),
        (async_engine, "read_inconsistent", "async_engine.read_inconsistent"),
        (async_engine.MasterState, "commit", "async_engine.MasterState.commit"),
        (async_engine, "sample_delay_schedule", "async_engine.sample_delay_schedule"),
        (data_io, "read_libsvm", "data_io.read_libsvm"),
        (data_io, "normalize_rows", "data_io.normalize_rows"),
        (data_io, "synth_dataset", "data_io.synth_dataset"),
        (data_io, "dataset_stats", "data_io.dataset_stats"),
        (data_io, "data_sparsity_delta", "theory.data_sparsity_delta"),
        (theory, "data_sparsity_delta", "theory.data_sparsity_delta"),
        (theory, "estimate_lipschitz", "theory.estimate_lipschitz"),
        (bench_cli, "compute_reference_optimum", "bench_cli.compute_reference_optimum"),
    ]
    counted = [(problem, "sparse_dot", "linalg.sparse_dot")]
    return spanned, counted


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_layers(wl, gate) -> tuple[dict, dict, dict]:
    from kernels import format_table, kernel_table
    from spans import SpanRecorder

    rec = SpanRecorder()
    spanned, counted = _layer_targets()
    n_setup = SETUP_MIN_REPS
    with rec.installed(spanned, counted):
        for i in range(n_setup):
            rec.run_id = f"setup#{i}"
            with rec.span("bench.setup"):
                instances = wl.setup()
        rec.run_id = "ref"
        refs = gate.reference(instances)
    jobs = wl.jobs(instances)
    rec.run_id = "untraced"
    plain = _solve(gate, jobs, instances, refs)
    with rec.installed(spanned, counted):
        rec.run_id = "solve"
        traced = _solve(gate, jobs, instances, refs, groups={"solve"})
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.csv.gz")

    setup_totals = [rec.totals(f"setup#{i}")[0] for i in range(n_setup)]

    def per_setup(name):
        return _median([totals[name] for totals in setup_totals])

    counts = _counts(plain, refs)
    total, self_t = rec.totals("solve")
    ref_total, _ = rec.totals("ref")
    stats = instances[0].stats
    ref_iters = sum(ref.iterations for ref in refs if ref is not None)
    parse_s = per_setup("data_io.read_libsvm")
    full_grad_s = _median(rec.durations("problem.full_grad"))
    plain_rate, plain_s = _group_rate(plain, "solve")
    _, traced_s = _group_rate(traced, "solve")
    updates = sum(r.updates for r in traced)
    dot_calls = sum(
        c for (run, parent, _), c in rec.counts.items()
        if run == "solve" and parent == "problem.minibatch_grad"
    )
    async_runs = [r for r in plain if r.group == "solve" and r.kind == "async"]
    commits = sum(r.report.total_commits for r in async_runs)
    threaded = wl.name == "threads"
    p1_rate, _ = _group_rate(plain, "p1")
    seq_rate, _ = _group_rate(plain, "seq")
    layers = {
        "data_io.parse_s": (parse_s, "s"),
        "data_io.parse_nnz_per_s": (stats.nnz / parse_s if parse_s > 0 else 0.0, "1/s"),
        "data_io.normalize_s": (per_setup("data_io.normalize_rows"), "s"),
        "data_io.stats_s": (per_setup("data_io.dataset_stats"), "s"),
        "data_io.synth_s": (per_setup("data_io.synth_dataset"), "s"),
        "theory.delta_s": (per_setup("theory.data_sparsity_delta"), "s"),
        "bench_cli.ref_iters": (ref_iters, "count"),
        "bench_cli.ref_per_iter_ms": (
            ref_total["bench_cli.compute_reference_optimum"] / ref_iters * 1e3
            if ref_iters else 0.0, "ms",
        ),
        "problem.full_grad_ms": (full_grad_s * 1e3, "ms"),
        "problem.full_grad_nnz_per_s": (
            stats.nnz / full_grad_s if full_grad_s > 0 else 0.0, "1/s"
        ),
        "problem.anchor_s": (total["problem.make_anchor"], "s"),
        "problem.eval_s": (total["problem.objective"], "s"),
        "problem.objective_ms": (_median(rec.durations("problem.objective")) * 1e3, "ms"),
        "problem.minibatch_grad_us": (
            _median(rec.durations("problem.minibatch_grad", "solve")) * 1e6, "us"
        ),
        "linalg.sparse_dot_calls_per_update": (dot_calls / updates if updates else 0.0, "count"),
        "problem.vr_grad_self_s": (self_t["problem.vr_grad"], "s"),
        "problem.prox_s": (total["problem.prox_elastic"], "s"),
        "async_engine.read_self_s": (
            self_t["async_engine.read_consistent"] + self_t["async_engine.read_inconsistent"], "s"
        ),
        "async_engine.commit_self_s": (self_t["async_engine.MasterState.commit"], "s"),
        "async_engine.schedule_s": (total["async_engine.sample_delay_schedule"], "s"),
        "async_engine.schedule_used_frac": (counts["schedule_used_frac"] or 0.0, "ratio"),
        "async_engine.stages_to_tol": (
            sum(r.stages for r in plain if r.to_tol and r.kind == "async"), "count"
        ),
        "seq_solvers.stages_to_tol": (
            sum(r.stages for r in plain if r.to_tol and r.kind == "seq"), "count"
        ),
        "async_engine.delay_mean": (
            sum(r.report.delay_mean * r.report.total_commits for r in async_runs) / commits
            if commits else 0.0, "count",
        ),
        "async_engine.delay_max": (
            max((r.report.delay_max for r in async_runs), default=0), "count"
        ),
        "async_engine.worker_balance": (
            min(min(r.report.worker_updates) / max(r.report.worker_updates)
                for r in async_runs) if threaded and async_runs else 0.0, "ratio",
        ),
        "async_engine.threads_p1_updates_per_s": (p1_rate if threaded else 0.0, "1/s"),
        "async_engine.threads_speedup_p2": (
            plain_rate / p1_rate if threaded and p1_rate > 0 else 0.0, "ratio"
        ),
        "seq_solvers.baseline_updates_per_s": (seq_rate if threaded else 0.0, "1/s"),
        "bench.trace_overhead": (traced_s / plain_s if plain_s > 0 else 0.0, "ratio"),
    }

    shapes = wl.kernel_shapes(instances)
    table = kernel_table(
        instances[0].problem, shapes["B"], shapes["prox_len"], wl.read_law,
        wl.libsvm_file(instances), wl.solver_seed,
    )
    for name, row in table.items():
        layers[f"kernel.{name}_us"] = (row["median_us"], "us")
    counts["sparse_dot_calls_per_update"] = layers["linalg.sparse_dot_calls_per_update"][0]
    counts["traced_solve_repeats_untraced"] = gate.mismatches == 0
    for line in format_table(table):
        print(line)
    return layers, counts, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="proxvr benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "proxvr" / "__init__.py").is_file():
        print(f"perfbench: no proxvr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Gate

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, OUT_DIR, args.seed)
    try:
        wl.prepare()
    except OSError as exc:
        print(f"perfbench: cannot prepare inputs: {exc}", file=sys.stderr)
        return 2
    env = _environment(args)
    for key, val in env.items():
        print(f"env.{key} = {val}")

    gate = Gate()
    if args.trace:
        metrics, counts, table = measure_layers(wl, gate)
    else:
        metrics, counts = measure_end_to_end(wl, gate, args.seconds)
        table = None

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    fail_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"fail_rate = {fail_rate:.6g} ratio ({gate.failed}/{gate.attempted})")
    for key, val in counts.items():
        print(f"count.{key} = {val}")
    for msg in gate.messages:
        print(f"FAILED {msg}")

    # the result line carries the metrics BENCHMARK.json lists for this mode;
    # the record file keeps all of them
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names
        },
    }
    record = dict(result, env=env, counts=counts, fail_rate=fail_rate,
                  failures=gate.messages, kernel_table=table,
                  all_metrics={name: value for name, (value, _) in metrics.items()})
    out = OUT_DIR / f"result-{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
