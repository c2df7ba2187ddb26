"""Dataset ingestion (LIBSVM text format, gzip accepted), row normalization,
synthetic data with an exact target sparsity, and one-pass statistics."""

from __future__ import annotations

import gzip
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParseError, check_int
from .problem import Dataset
from .theory import data_sparsity_delta

log = logging.getLogger(__name__)


@dataclass
class DatasetStats:
    n: int
    d: int
    nnz: int
    delta: float
    label_counts: dict
    max_row_norm: float
    zero_rows: int


def _open_text(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt")
    return open(path, "r")


_INDEX_MAX = int(np.iinfo(np.int64).max)


def _parse_error(toks, path, lineno) -> ParseError:
    """The error for the first bad entry of a line, checked token by token."""
    for tok in toks[1:]:
        try:
            raw_idx, raw_val = tok.split(":", 1)
            idx = int(raw_idx)
            val = float(raw_val)
        except ValueError:
            return ParseError(f"bad entry {tok!r}", path, lineno)
        if idx < 1:
            return ParseError(f"index {idx} is not 1-based", path, lineno)
        if idx > _INDEX_MAX:
            return ParseError(f"index {idx} does not fit in 64 bits", path, lineno)
        if not math.isfinite(val):
            return ParseError(f"non-finite value {tok!r}", path, lineno)
    raise AssertionError("no bad entry on the line")


def read_libsvm(path, expected_dim: int | None = None) -> Dataset:
    """Parse `label idx:val ...` lines with 1-based indices into a Dataset.

    Explicit zero values are dropped (canonical sparse form), duplicate
    indices and non-finite labels or values on a line are errors, and {0,1}
    label files are mapped to {-1,+1} with a logged notice.
    """
    if expected_dim is not None:
        check_int(expected_dim, "expected_dim")
    labels, indices, values, lens = [], [], [], []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks or toks[0].startswith("#"):
                continue
            try:
                label = float(toks[0])
            except ValueError:
                raise ParseError(f"bad label {toks[0]!r}", path, lineno) from None
            if not math.isfinite(label):
                raise ParseError(f"non-finite label {toks[0]!r}", path, lineno)
            try:
                pairs = [tok.split(":", 1) for tok in toks[1:]]
                idx = [int(i) for i, _ in pairs]
                val = [float(v) for _, v in pairs]
            except ValueError:
                raise _parse_error(toks, path, lineno) from None
            if idx and (min(idx) < 1 or max(idx) > _INDEX_MAX
                        or not all(map(math.isfinite, val))):
                raise _parse_error(toks, path, lineno)
            if len(set(idx)) != len(idx):
                dup = min(i for i in idx if idx.count(i) > 1)
                raise ParseError(f"duplicate index {dup}", path, lineno)
            labels.append(label)
            indices += idx
            values += val
            lens.append(len(idx))
    if not labels:
        raise ParseError("empty dataset (need n >= 1)", path)
    indices = np.array(indices, dtype=np.int64) - 1
    data = np.array(values, dtype=np.float64)
    rows = np.repeat(np.arange(len(lens)), lens)
    order = np.lexsort((indices, rows))
    keep = order[data[order] != 0.0]
    indices, data, rows = indices[keep], data[keep], rows[keep]
    max_idx = int(indices.max()) if indices.size else -1
    if expected_dim is not None:
        if max_idx >= expected_dim:
            raise ParseError(
                f"index {max_idx + 1} exceeds expected_dim={expected_dim}", path
            )
        d = expected_dim
    else:
        d = max_idx + 1
    labels = np.array(labels, dtype=np.float64)
    if np.all((labels == 0.0) | (labels == 1.0)) and np.any(labels == 0.0):
        log.info("mapping {0,1} labels to {-1,+1}")
        labels = np.where(labels == 1.0, 1.0, -1.0)
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=labels.size), out=indptr[1:])
    return Dataset(indptr, indices, data, labels, d)


def write_libsvm(dataset: Dataset, path) -> None:
    """Write in the same `label idx:val` 1-based format (gzip by extension)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    ptr = dataset.indptr.tolist()
    cols = (dataset.indices + 1).tolist()
    vals = dataset.data.tolist()
    with opener(path, "wt") as fh:
        for lo, hi, b in zip(ptr[:-1], ptr[1:], dataset.labels.tolist()):
            parts = [f"{b:.17g}"]
            parts += [f"{j}:{v:.17g}" for j, v in zip(cols[lo:hi], vals[lo:hi])]
            fh.write(" ".join(parts) + "\n")


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale each feature vector to unit L2 norm. All-zero rows are left
    untouched and reported through a warning."""
    nsq = dataset.row_norms_sq()
    zero = nsq == 0.0
    norms = np.sqrt(np.where(zero, 1.0, nsq))
    data = dataset.data / np.repeat(norms, dataset.row_nnz)
    zero_rows = int(zero.sum())
    if zero_rows:
        warnings.warn(f"{zero_rows} all-zero rows left unnormalized")
    return Dataset(dataset.indptr, dataset.indices, data, dataset.labels, dataset.d)


def synth_dataset(
    n: int,
    d: int,
    target_delta: float,
    label_rule: str = "logistic",
    seed: int = 0,
) -> Dataset:
    """Synthetic classification/regression data with exact sparsity.

    Every feature is planted in exactly ceil(target_delta * n) distinct,
    uniformly chosen rows with standard-normal values, so the achieved
    sparsity statistic equals ceil(target_delta * n) / n. Labels come from a
    planted linear model (with logistic noise for the "logistic" rule); rows
    are then normalized to unit norm.
    """
    if not (0.0 < target_delta <= 1.0):
        raise ContractViolation("need 0 < target_delta <= 1")
    for key, value, low in (("n", n, 1), ("d", d, 1), ("seed", seed, 0)):
        check_int(value, key, low)
    if label_rule not in ("logistic", "regression"):
        raise ContractViolation(f"unknown label_rule {label_rule!r}")
    rng = np.random.default_rng(seed)
    c = math.ceil(target_delta * n)
    rows = np.empty((d, c), dtype=np.int64)
    vals = np.empty((d, c))
    for j in range(d):  # one draw pair per feature, in feature order
        rows[j] = rng.choice(n, size=c, replace=False)
        vals[j] = rng.standard_normal(c)
    w_star = rng.standard_normal(d)
    # feature-major draws to row-major CSR; a stable sort keeps each row's
    # features in increasing order
    rows, vals = rows.ravel(), vals.ravel()
    order = np.argsort(rows, kind="stable")
    order = order[vals[order] != 0.0]
    indices, data = order // c, vals[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[order], minlength=n), out=indptr[1:])
    ptr = indptr.tolist()
    # per-row np.dot, the summation order of the planted model's margins
    t = [float(np.dot(data[lo:hi], w_star[indices[lo:hi]])) for lo, hi in zip(ptr[:-1], ptr[1:])]
    if label_rule == "logistic":
        draws = rng.random(n).tolist()
        labels = [1.0 if u < _sigmoid(ti) else -1.0 for u, ti in zip(draws, t)]
    else:
        labels = np.array(t) + 0.1 * rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse draws may leave rows empty
        return normalize_rows(Dataset(indptr, indices, data, labels, d))


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    return math.exp(t) / (1.0 + math.exp(t))


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """All summary fields from the CSR arrays."""
    values, counts = np.unique(dataset.labels, return_counts=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        delta = data_sparsity_delta(dataset)
    return DatasetStats(
        n=dataset.n,
        d=dataset.d,
        nnz=int(dataset.indices.size),
        delta=delta,
        label_counts=dict(zip(values.tolist(), counts.tolist())),
        max_row_norm=float(np.sqrt(dataset.row_norms_sq().max())),
        zero_rows=int(np.count_nonzero(dataset.row_nnz == 0)),
    )


def format_stats(stats: DatasetStats) -> str:
    """Flat key=value text block."""
    labels = " ".join(f"{k:g}:{v}" for k, v in sorted(stats.label_counts.items()))
    lines = [
        f"n={stats.n}",
        f"d={stats.d}",
        f"nnz={stats.nnz}",
        f"delta={stats.delta:.12g}",
        f"labels={labels}",
        f"max_row_norm={stats.max_row_norm:.12g}",
        f"zero_rows={stats.zero_rows}",
    ]
    return "\n".join(lines)


def stats_record(stats: DatasetStats) -> dict:
    """Machine-readable form of the same fields."""
    return {
        "n": stats.n,
        "d": stats.d,
        "nnz": stats.nnz,
        "delta": stats.delta,
        "labels": {f"{k:g}": v for k, v in sorted(stats.label_counts.items())},
        "max_row_norm": stats.max_row_norm,
        "zero_rows": stats.zero_rows,
    }
