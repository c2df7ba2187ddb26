"""The names and shapes that the benchmark under ``perfbench/`` relies on.

``perfbench/run.py --trace 1`` wraps package callables it looks up in their
owners' ``__dict__`` and times the kernels of ``perfbench/kernels.py``; a
refactor that breaks either passes the rest of the suite and fails only
there. These tests import the benchmark modules and change nothing in them.
"""

import os
import sys
from pathlib import Path

import pytest

from proxvr import data_io
from proxvr.problem import LossKind, Problem, Regularizer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # run.py pins the BLAS thread counts on import; restore them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import kernels
    import run

    yield run, kernels
    for name in ("run", "kernels", "pace", "spans"):
        sys.modules.pop(name, None)


def test_layer_targets_exist_in_their_owners(perfbench):
    run, _ = perfbench
    spanned, counted = run._layer_targets()
    missing = [label for owner, attr, label in spanned + counted if attr not in owner.__dict__]
    assert not missing


def test_kernel_table_runs_at_small_shapes(perfbench, monkeypatch, tmp_path):
    _, kernels = perfbench
    monkeypatch.setattr(kernels, "SECONDS_PER_KERNEL", 0.0)
    ds = data_io.synth_dataset(30, 8, 0.5, seed=3)
    path = tmp_path / "data.txt"
    data_io.write_libsvm(ds, path)
    problem = Problem(ds, LossKind.LOGISTIC, Regularizer(1e-3, 1e-2))
    table = kernels.kernel_table(problem, 2, 4, ("uniform", 3), path, seed=1)
    assert table
    assert all(row["samples"] >= 20 for row in table.values())
