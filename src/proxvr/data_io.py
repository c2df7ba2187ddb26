"""Dataset ingestion (LIBSVM text format, gzip accepted), row normalization,
synthetic data with an exact target sparsity, and one-pass statistics."""

from __future__ import annotations

import gzip
import logging
import math
import warnings
import zlib
from dataclasses import dataclass
from itertools import repeat

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


def _open_text(path, mode="rt", errors="strict"):
    opener = gzip.open if str(path).endswith(".gz") else open
    return opener(path, mode, encoding="utf-8", errors=errors)


_INDEX_MAX = int(np.iinfo(np.int64).max)
# Characters read per block of whole lines: the parse holds one block's
# strings at a time, so its transient memory does not grow with the file.
_BLOCK_CHARS = 1 << 18


def read_libsvm(path, expected_dim: int | None = None) -> Dataset:
    """Parse `label idx:val ...` lines with 1-based indices into a Dataset.

    Explicit zero values are dropped (canonical sparse form), duplicate
    indices and non-finite labels or values on a line are errors, and {0,1}
    label files are mapped to {-1,+1} with a logged notice. The file is read
    as UTF-8 a block of lines at a time; a file that cannot be read or
    decoded raises ParseError.
    """
    if expected_dim is not None:
        check_int(expected_dim, "expected_dim")
    blocks = []
    try:
        with _open_text(path) as fh:
            first = 1
            while lines := fh.readlines(_BLOCK_CHARS):
                blocks.append(_parse_block(lines, path, first))
                first += len(lines)
    except FileNotFoundError:
        raise  # the CLI reports a missing file as such
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise ParseError(f"not UTF-8 text ({bad!r}: {exc.reason})", path,
                         _undecodable_line(path)) from None
    except (OSError, EOFError, zlib.error) as exc:
        raise ParseError(f"cannot read: {getattr(exc, 'strerror', None) or exc}", path) from None
    if not sum(block[0].size for block in blocks):
        raise ParseError("empty dataset (need n >= 1)", path)
    labels, indices, data, lens = map(np.concatenate, zip(*blocks))
    max_idx = int(indices.max()) if indices.size else -1
    if expected_dim is not None:
        if max_idx >= expected_dim:
            raise ParseError(
                f"index {max_idx + 1} exceeds expected_dim={expected_dim}", path
            )
        d = expected_dim
    else:
        d = max_idx + 1
    if np.all((labels == 0.0) | (labels == 1.0)) and np.any(labels == 0.0):
        log.info("mapping {0,1} labels to {-1,+1}")
        labels = np.where(labels == 1.0, 1.0, -1.0)
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return Dataset(indptr, indices, data, labels, d)


def _parse_block(lines, path, first):
    """Labels, 0-based indices, values and row lengths of a block of lines,
    each row sorted by index with explicit zeros dropped. Tokens are
    converted by numpy, which calls Python's int() and float(); a block
    that fails any check raises the error of its first bad line."""
    labels, rests = [], []
    for line in lines:
        head = line.split(None, 1)
        if head and not head[0].startswith("#"):
            labels.append(head[0])
            rests.append(head[1] if len(head) > 1 else "")
    text = " ".join(" ".join(rests).split())
    pieces = text.replace(":", " ").split()
    try:
        if not _is_pairs(pieces, text):
            raise ValueError
        labels = np.array(labels, dtype=np.float64)
        idx = np.array(pieces[0::2], dtype=np.int64)
        val = np.array(pieces[1::2], dtype=np.float64)
    except (ValueError, OverflowError):
        raise _first_error(lines, path, first) from None
    if not (np.isfinite(labels).all() and np.isfinite(val).all()
            and (idx.size == 0 or idx.min() >= 1)):
        raise _first_error(lines, path, first)
    idx -= 1
    # every pair holds one colon, so a row's colons count its entries
    lens = np.fromiter(map(str.count, rests, repeat(":")), np.int64, len(rests))
    rows = np.repeat(np.arange(lens.size), lens)
    if not ((idx[1:] > idx[:-1]) | (rows[1:] != rows[:-1])).all():
        order = np.lexsort((idx, rows))
        idx, val, rows = idx[order], val[order], rows[order]
        if ((idx[1:] == idx[:-1]) & (rows[1:] == rows[:-1])).any():
            raise _first_error(lines, path, first)
    nonzero = val != 0.0
    if not nonzero.all():
        idx, val = idx[nonzero], val[nonzero]
        lens = np.bincount(rows[nonzero], minlength=lens.size)
    return labels, idx, val, lens


def _is_pairs(pieces, text) -> bool:
    """Whether ``text`` is ``pieces`` joined as ``p0:p1 p2:p3 ...``: every
    space-separated token of ``text`` holds exactly one colon, between
    ``pieces[2k]`` and ``pieces[2k + 1]``."""
    if len(pieces) % 2:
        return False
    glued = [":"] * (2 * len(pieces) - 1)
    glued[::2] = pieces
    glued[3::4] = [" "] * len(range(3, len(glued), 4))
    return "".join(glued) == text


def _first_error(lines, path, first) -> ParseError:
    """The error of the first bad line, checked line by line and token by
    token: the label, then each entry in order, then duplicate indices."""
    for lineno, line in enumerate(lines, start=first):
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        try:
            label = float(toks[0])
        except ValueError:
            return ParseError(f"bad label {toks[0]!r}", path, lineno)
        if not math.isfinite(label):
            return ParseError(f"non-finite label {toks[0]!r}", path, lineno)
        seen = []
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
            seen.append(idx)
        if len(set(seen)) != len(seen):
            dup = min(i for i in seen if seen.count(i) > 1)
            return ParseError(f"duplicate index {dup}", path, lineno)
    raise AssertionError("a block failed its checks with no bad line")


def _undecodable_line(path) -> int | None:
    """The first line holding bytes that are not UTF-8, numbered as
    read_libsvm numbers lines; None when the file fails to read before it."""
    try:
        with _open_text(path, errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    return lineno
    except (OSError, EOFError, zlib.error):
        pass
    return None


def write_libsvm(dataset: Dataset, path) -> None:
    """Write in the same `label idx:val` 1-based format (UTF-8; gzip by
    extension)."""
    ptr = dataset.indptr.tolist()
    cols = (dataset.indices + 1).tolist()
    vals = dataset.data.tolist()
    with _open_text(path, "wt") as fh:
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
