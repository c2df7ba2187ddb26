import gzip
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from proxvr.errors import ParseError, check_int
from proxvr.linalg import SparseVec
from proxvr.problem import Dataset, LossKind, Problem, Regularizer, SparseExample, minibatch_grad


def prox_ternary_oracle(y, step, l1, l2):
    """Ternary-search minimizer of 0.5 (z-y)^2 + step (l1 |z| + l2 z^2 / 2).

    Float comparisons go blind once the interval is ~sqrt(eps), so the last
    digits are resolved with 40-digit decimal arithmetic.
    """

    def f_float(z):
        return 0.5 * (z - y) ** 2 + step * (l1 * abs(z) + 0.5 * l2 * z * z)

    lo, hi = min(0.0, y) - 1.0, max(0.0, y) + 1.0
    while hi - lo > 1e-6:
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f_float(m1) <= f_float(m2):
            hi = m2
        else:
            lo = m1
    getcontext().prec = 40
    yd, sd, l1d, l2d = Decimal(y), Decimal(step), Decimal(l1), Decimal(l2)

    def f_dec(z):
        return (z - yd) ** 2 / 2 + sd * (l1d * abs(z) + l2d * z * z / 2)

    lo_d, hi_d = Decimal(lo), Decimal(hi)
    width = Decimal("1e-12")
    while hi_d - lo_d > width:
        third = (hi_d - lo_d) / 3
        m1 = lo_d + third
        m2 = hi_d - third
        if f_dec(m1) <= f_dec(m2):
            hi_d = m2
        else:
            lo_d = m1
    return float((lo_d + hi_d) / 2)


def two_pass_vr(kind, ds, batch, x, anchor):
    """The whole-vector VR gradient as two ``minibatch_grad`` calls, one at
    the read and one at the anchor, under the substitution rule: the bitwise
    reference for ``vr_gradient``, which computes no dot products at the
    anchor."""
    g_read = minibatch_grad(kind, ds, batch, x)
    g_anchor = minibatch_grad(kind, ds, batch, anchor.x_tilde)
    raw = g_read - g_anchor + anchor.full_grad
    return np.where(g_anchor == anchor.full_grad, g_read, raw)


def draw_block(rng, m):
    """One update's block, drawn on its own: the per-update reference for the
    blocks that ``seq_solvers._stage_draws`` draws a stage at a time."""
    return int(rng.integers(0, m))


def sparse_from_pairs(pairs, dim):
    """Canonical sparse vector from (index, value) pairs; zeros dropped,
    order normalized."""
    pairs = sorted((int(i), float(v)) for i, v in pairs if float(v) != 0.0)
    idx = np.array([i for i, _ in pairs], dtype=np.int64)
    val = np.array([v for _, v in pairs], dtype=np.float64)
    return SparseVec(idx, val, dim)


def to_dense(v):
    """A ``SparseVec`` as a dense vector."""
    out = np.zeros(v.dim)
    out[v.indices] = v.values
    return out


def build_dataset(examples, d=None):
    """CSR dataset from a sequence of ``SparseExample`` rows of dimension
    ``d`` (the first row's by default)."""
    examples = tuple(examples)
    if d is None:
        d = examples[0].a.dim
    indptr = np.zeros(len(examples) + 1, dtype=np.int64)
    np.cumsum([ex.a.nnz for ex in examples], out=indptr[1:])
    return Dataset(
        indptr,
        np.concatenate([ex.a.indices for ex in examples]),
        np.concatenate([ex.a.values for ex in examples]),
        [ex.b for ex in examples],
        d,
    )


def random_sparse_vec(rng, d, density=0.6):
    """Random canonical sparse vector with at least one entry."""
    nnz = max(1, int(round(density * d)))
    idx = np.sort(rng.choice(d, size=nnz, replace=False))
    vals = rng.standard_normal(nnz)
    vals[vals == 0.0] = 1.0
    return SparseVec(idx, vals, d)


def random_dataset(rng, n, d, density=0.6):
    """Random +-1 labelled dataset; every row non-empty."""
    examples = [
        SparseExample(random_sparse_vec(rng, d, density), float(rng.choice([-1.0, 1.0])))
        for _ in range(n)
    ]
    return build_dataset(examples, d)


def make_problem(rng, n, d, kind=LossKind.LOGISTIC, lambda1=1e-3, lambda2=0.1, density=0.6):
    return Problem(random_dataset(rng, n, d, density), kind, Regularizer(lambda1, lambda2))


def one_dim_problem(lambda1=0.3):
    """P(x) = (x - 1)^2 / 2 + lambda1 |x|; minimizer soft(1, lambda1)."""
    ex = SparseExample(SparseVec(np.array([0]), np.array([1.0]), 1), 1.0)
    return Problem(build_dataset([ex], 1), LossKind.LEAST_SQUARES, Regularizer(lambda1, 0.0))


def separable_quadratic(c):
    """P(x) = sum_j (x_j - c_j)^2 / 2 built from d scaled unit-vector rows."""
    c = np.asarray(c, dtype=float)
    d = c.size
    s = np.sqrt(float(d))
    examples = [
        SparseExample(SparseVec(np.array([j]), np.array([s]), d), s * c[j])
        for j in range(d)
    ]
    return Problem(build_dataset(examples, d), LossKind.LEAST_SQUARES, Regularizer(0.0, 0.0))


_INDEX_MAX = int(np.iinfo(np.int64).max)


def _oracle_parse_error(toks, path, lineno):
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


def read_libsvm_oracle(path, expected_dim=None):
    """Reference LIBSVM reader: every line and every token in Python, in file
    order, the first bad line raising its ParseError. ``data_io.read_libsvm``
    must give the same Dataset bytes or the same error."""
    if expected_dim is not None:
        check_int(expected_dim, "expected_dim")
    labels, indices, values, lens = [], [], [], []
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
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
                raise _oracle_parse_error(toks, path, lineno) from None
            if idx and (min(idx) < 1 or max(idx) > _INDEX_MAX
                        or not all(map(math.isfinite, val))):
                raise _oracle_parse_error(toks, path, lineno)
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
        labels = np.where(labels == 1.0, 1.0, -1.0)
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=labels.size), out=indptr[1:])
    return Dataset(indptr, indices, data, labels, d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
