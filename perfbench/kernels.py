"""Kernel table: per-call timings of the eight kernels at a workload's shapes.

Each kernel is called on its own, outside any solver, with the data and
vector lengths of the workload: the dataset's rows, the solvers' mini-batch
size, the prox length of one committed block, and the workload's delay law
for the reads. Every call is timed individually.

``nnz`` and ``bytes`` are computed, not measured: stored nonzeros the call
reads, and the compulsory memory traffic of its inputs and outputs (8-byte
values and indices), ignoring temporaries.
"""

from __future__ import annotations

import time

import numpy as np

from proxvr import async_engine, data_io, linalg
from proxvr import problem as problem_mod

MIN_SAMPLES = 20
MAX_SAMPLES = 2000
SECONDS_PER_KERNEL = 0.5
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten samples beyond it."""
    for p in _PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def summarize(samples) -> dict:
    arr = np.asarray(samples, dtype=np.float64)
    p = tail_percentile(arr.size)
    return {
        "samples": int(arr.size),
        "median_us": float(np.median(arr)) * 1e6,
        "tail": None if p is None else f"p{p:g}",
        "tail_us": None if p is None else float(np.percentile(arr, p)) * 1e6,
    }


def _time_calls(call):
    """Call ``call(i)`` for i = 0, 1, ... until the sample or time budget is
    spent; returns per-call seconds."""
    out = []
    clock = time.perf_counter
    stop = clock() + SECONDS_PER_KERNEL
    while len(out) < MIN_SAMPLES or (len(out) < MAX_SAMPLES and clock() < stop):
        i = len(out)
        t0 = clock()
        call(i)
        out.append(clock() - t0)
    return out


def _filled_state(x0, tau_bound, rng):
    state = async_engine.MasterState(x0, tau_bound)
    for _ in range(tau_bound + 1):
        state.commit(x0 + rng.standard_normal(x0.size) * 1e-3)
    return state


def kernel_table(problem, B: int, prox_len: int, read_law, libsvm_path, seed: int) -> dict:
    """Rows keyed by kernel name; ``libsvm_path`` holds the workload's data
    in LIBSVM form."""
    rng = np.random.default_rng(seed)
    ds = problem.dataset
    n, d = problem.n, problem.d
    row_nnz = np.array([ex.a.nnz for ex in ds.examples])
    total_nnz = int(row_nnz.sum())
    x = rng.standard_normal(d) * 0.1
    anchor = problem.make_anchor(rng.standard_normal(d) * 0.1)
    rows = rng.integers(0, n, size=MAX_SAMPLES)
    batches = rng.integers(0, n, size=(MAX_SAMPLES, B))
    batch_nnz = float(row_nnz[batches].sum(axis=1).mean())
    y = rng.standard_normal(prox_len)
    kind, tau = read_law
    schedule = async_engine.sample_delay_schedule(
        kind, tau, MAX_SAMPLES + tau, seed, inconsistent=True
    )
    state = _filled_state(x, tau, rng)
    taus = schedule.taus[tau:]
    applied = [
        (state.clock - np.asarray(offs)).tolist() for offs in schedule.applied_offsets[tau:]
    ]
    mean_applied = float(np.mean([len(a) for a in applied]))
    file_bytes = libsvm_path.stat().st_size

    calls = {
        "sparse_dot": (
            lambda i: linalg.sparse_dot(ds.examples[rows[i]].a, x),
            float(row_nnz[rows].mean()), 24.0 * row_nnz[rows].mean(),
        ),
        "minibatch_grad": (
            lambda i: problem.minibatch_grad(batches[i], x),
            batch_nnz, 56.0 * batch_nnz + 8.0 * d,
        ),
        "vr_grad": (
            lambda i: problem.vr_grad(batches[i], x, anchor),
            2 * batch_nnz, 112.0 * batch_nnz + 48.0 * d,
        ),
        "prox_elastic": (
            lambda i: problem_mod.prox_elastic(y, 0.1, problem.reg),
            0.0, 16.0 * prox_len,
        ),
        "read_consistent": (
            lambda i: async_engine.read_consistent(state, int(taus[i])),
            0.0, 16.0 * d,
        ),
        "read_inconsistent": (
            lambda i: async_engine.read_inconsistent(state, int(taus[i]), applied[i]),
            0.0, 16.0 * d + 32.0 * d * mean_applied,
        ),
        "full_grad": (
            lambda i: problem.full_grad(x), total_nnz, 56.0 * total_nnz + 16.0 * d,
        ),
        "objective": (
            lambda i: problem.objective(x), total_nnz, 24.0 * total_nnz + 8.0 * d,
        ),
        "read_libsvm": (
            lambda i: data_io.read_libsvm(libsvm_path), total_nnz, float(file_bytes),
        ),
    }
    table = {}
    for name, (call, nnz, nbytes) in calls.items():
        row = summarize(_time_calls(call))
        row["nnz_computed"] = float(nnz)
        row["bytes_computed"] = float(nbytes)
        table[name] = row
    return table


def format_table(table: dict) -> list[str]:
    lines = [
        f"{'kernel':<18} {'samples':>7} {'median_us':>11} {'tail':>6} {'tail_us':>11} "
        f"{'nnz(computed)':>14} {'bytes(computed)':>16}"
    ]
    for name, row in table.items():
        tail = "-" if row["tail"] is None else row["tail"]
        tail_us = "-" if row["tail_us"] is None else f"{row['tail_us']:.2f}"
        lines.append(
            f"{name:<18} {row['samples']:>7} {row['median_us']:>11.2f} {tail:>6} "
            f"{tail_us:>11} {row['nnz_computed']:>14.1f} {row['bytes_computed']:>16.0f}"
        )
    return lines
