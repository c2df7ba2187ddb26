"""Dataset ingestion (LIBSVM text format, gzip accepted), row normalization,
synthetic data with an exact target sparsity, and one-pass statistics."""

from __future__ import annotations

import gzip
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParseError
from .linalg import SparseVec
from .problem import Dataset, SparseExample
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


def read_libsvm(path, expected_dim: int | None = None) -> Dataset:
    """Parse `label idx:val ...` lines with 1-based indices into a Dataset.

    Explicit zero values are dropped (canonical sparse form), duplicate
    indices and non-finite labels or values on a line are errors, and {0,1}
    label files are mapped to {-1,+1} with a logged notice.
    """
    examples = []
    labels = []
    max_idx = -1
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            try:
                label = float(toks[0])
            except ValueError:
                raise ParseError(f"bad label {toks[0]!r}", path, lineno) from None
            if not math.isfinite(label):
                raise ParseError(f"non-finite label {toks[0]!r}", path, lineno)
            pairs = []
            for tok in toks[1:]:
                try:
                    raw_idx, raw_val = tok.split(":", 1)
                    idx = int(raw_idx)
                    val = float(raw_val)
                except ValueError:
                    raise ParseError(f"bad entry {tok!r}", path, lineno) from None
                if idx < 1:
                    raise ParseError(f"index {idx} is not 1-based", path, lineno)
                if not math.isfinite(val):
                    raise ParseError(f"non-finite value {tok!r}", path, lineno)
                pairs.append((idx - 1, val))
            pairs.sort(key=lambda p: p[0])
            for (i1, _), (i2, _) in zip(pairs, pairs[1:]):
                if i1 == i2:
                    raise ParseError(f"duplicate index {i1 + 1}", path, lineno)
            pairs = [(i, v) for i, v in pairs if v != 0.0]
            if pairs:
                max_idx = max(max_idx, pairs[-1][0])
            labels.append(label)
            examples.append(pairs)
    if not examples:
        raise ParseError("empty dataset (need n >= 1)", path)
    if expected_dim is not None:
        if max_idx >= expected_dim:
            raise ParseError(
                f"index {max_idx + 1} exceeds expected_dim={expected_dim}", path
            )
        d = expected_dim
    else:
        d = max_idx + 1
    label_set = set(labels)
    if label_set <= {0.0, 1.0} and 0.0 in label_set:
        log.info("mapping {0,1} labels to {-1,+1}")
        labels = [1.0 if b == 1.0 else -1.0 for b in labels]
    built = [
        SparseExample(SparseVec.from_pairs(pairs, d), b)
        for pairs, b in zip(examples, labels)
    ]
    return Dataset.build(built, d)


def write_libsvm(dataset: Dataset, path) -> None:
    """Write in the same `label idx:val` 1-based format (gzip by extension)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        for ex in dataset.examples:
            parts = [f"{ex.b:g}"]
            parts += [
                f"{int(i) + 1}:{v:.17g}" for i, v in zip(ex.a.indices, ex.a.values)
            ]
            fh.write(" ".join(parts) + "\n")


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale each feature vector to unit L2 norm. All-zero rows are left
    untouched and reported through a warning."""
    out = []
    zero_rows = 0
    for ex in dataset.examples:
        nsq = ex.a.norm_sq()
        if nsq == 0.0:
            zero_rows += 1
            out.append(ex)
            continue
        norm = math.sqrt(nsq)
        out.append(
            SparseExample(
                SparseVec(ex.a.indices, ex.a.values / norm, ex.a.dim), ex.b
            )
        )
    if zero_rows:
        warnings.warn(f"{zero_rows} all-zero rows left unnormalized")
    return Dataset.build(out, dataset.d)


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
    if n < 1 or d < 1:
        raise ContractViolation("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    c = math.ceil(target_delta * n)
    row_entries = [[] for _ in range(n)]
    for j in range(d):
        rows = rng.choice(n, size=c, replace=False)
        vals = rng.standard_normal(c)
        for r, v in zip(rows, vals):
            row_entries[int(r)].append((j, float(v)))
    w_star = rng.standard_normal(d)
    examples = []
    for i in range(n):
        a = SparseVec.from_pairs(row_entries[i], d)
        t = float(np.dot(a.values, w_star[a.indices]))
        if label_rule == "logistic":
            p = 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))
            b = 1.0 if rng.random() < p else -1.0
        elif label_rule == "regression":
            b = t + 0.1 * float(rng.standard_normal())
        else:
            raise ContractViolation(f"unknown label_rule {label_rule!r}")
        examples.append(SparseExample(a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse draws may leave rows empty
        return normalize_rows(Dataset.build(examples, d))


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """All summary fields in one pass over the examples."""
    nnz = 0
    max_norm = 0.0
    zero_rows = 0
    label_counts: dict = {}
    for ex in dataset.examples:
        nnz += ex.a.nnz
        max_norm = max(max_norm, math.sqrt(ex.a.norm_sq()))
        if ex.a.nnz == 0:
            zero_rows += 1
        label_counts[ex.b] = label_counts.get(ex.b, 0) + 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        delta = data_sparsity_delta(dataset)
    return DatasetStats(
        n=dataset.n,
        d=dataset.d,
        nnz=nnz,
        delta=delta,
        label_counts=label_counts,
        max_row_norm=max_norm,
        zero_rows=zero_rows,
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
