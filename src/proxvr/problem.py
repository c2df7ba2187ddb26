"""Composite objective: average of smooth per-example losses plus an
elastic-net regularizer, with its proximal operators and gradient oracles.

    P(x) = (1/n) sum_i f_i(x) + lambda1 * ||x||_1 + (lambda2 / 2) * ||x||_2^2

Losses are the logistic loss log(1 + exp(-b * a^T x)) and the least-squares
loss (a^T x - b)^2 / 2. Gradients of f_i have support inside support(a_i).

A Dataset is one CSR layout (``indptr``, ``indices``, ``data``, ``labels``).
The kernels compute every row's dot product and gradient coefficient in one
vector operation and scatter with ``np.bincount``, which adds each
coordinate's terms in row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ContractViolation, check_int
from .linalg import BlockPartition, DenseVec, SparseVec
from .linalg import sparse_dot  # noqa: F401  perfbench counts calls through problem.sparse_dot

_FIRST = np.zeros(1, dtype=np.intp)  # reduceat offsets of a one-segment sum


class LossKind(str, Enum):
    LOGISTIC = "logistic"
    LEAST_SQUARES = "least-squares"

    @staticmethod
    def parse(tag: str) -> "LossKind":
        tag = tag.strip().lower().replace("_", "-")
        if tag in ("logistic", "log"):
            return LossKind.LOGISTIC
        if tag in ("least-squares", "ls", "squared"):
            return LossKind.LEAST_SQUARES
        raise ContractViolation(f"unknown loss kind: {tag!r}")


@dataclass(frozen=True)
class Regularizer:
    """Elastic-net weights; both coordinate-separable, hence block-separable."""

    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if not (0 <= self.lambda1 < np.inf and 0 <= self.lambda2 < np.inf):
            raise ContractViolation(f"regularizer weights must be finite and >= 0, got "
                                    f"lambda1={self.lambda1}, lambda2={self.lambda2}")

    def value(self, x: DenseVec) -> float:
        # einsum, not np.dot: a BLAS dot at large d leaves a BLAS thread spinning
        return float(self.lambda1 * np.abs(x).sum() + 0.5 * self.lambda2 * np.einsum("i,i->", x, x))


@dataclass(frozen=True)
class SparseExample:
    """One training pair: sparse feature vector and scalar label."""

    a: SparseVec
    b: float


def _read_only(values, dtype, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).view()
    if arr.ndim != 1:
        raise ContractViolation(f"{name} must be 1-D")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """n examples in CSR form: row i stores the features
    ``indices[indptr[i]:indptr[i+1]]`` with values ``data[...]`` and has the
    label ``labels[i]``. Every row is in canonical sparse form (strictly
    increasing indices in [0, d), no stored zeros), every value and label is
    finite, and the arrays are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    labels: np.ndarray
    d: int
    row_nnz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        fields = {
            "indptr": _read_only(self.indptr, np.int64, "indptr"),
            "indices": _read_only(self.indices, np.int64, "indices"),
            "data": _read_only(self.data, np.float64, "data"),
            "labels": _read_only(self.labels, np.float64, "labels"),
            "d": check_int(self.d, "d"),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        indptr, indices, data, d = self.indptr, self.indices, self.data, self.d
        if self.labels.size < 1:
            raise ContractViolation("dataset must contain at least one example")
        if indptr.size != self.labels.size + 1:
            raise ContractViolation("indptr must have n + 1 entries")
        if indices.size != data.size:
            raise ContractViolation("indices and data must have the same length")
        if indptr[0] != 0 or indptr[-1] != data.size:
            raise ContractViolation("indptr must run from 0 to the number of stored entries")
        if not (np.isfinite(data).all() and np.isfinite(self.labels).all()):
            raise ContractViolation("data and labels must be finite")
        row_nnz = np.diff(indptr)
        if np.any(row_nnz < 0):
            raise ContractViolation("indptr must be non-decreasing")
        object.__setattr__(self, "row_nnz", row_nnz)
        if data.size:
            if indices.min() < 0 or indices.max() >= d:
                raise ContractViolation(f"index out of range for dim={d}")
            if np.any(data == 0.0):
                raise ContractViolation("canonical form forbids stored zeros")
            # each index must exceed its predecessor unless a row starts there
            rising = np.diff(indices) > 0
            starts = indptr[1:-1]
            rising[starts[(starts > 0) & (starts < data.size)] - 1] = True
            if not rising.all():
                raise ContractViolation("indices must be strictly increasing within a row")

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @cached_property
    def examples(self) -> tuple:
        """Per-row SparseExample views of the arrays, built on first access.

        No solver reads them: the solvers and the set-up code read the
        arrays. The benchmark's kernel table times ``sparse_dot`` over them."""
        ptr = self.indptr.tolist()
        return tuple(
            SparseExample(SparseVec(self.indices[lo:hi], self.data[lo:hi], self.d), b)
            for lo, hi, b in zip(ptr[:-1], ptr[1:], self.labels.tolist())
        )

    def row_norms_sq(self) -> np.ndarray:
        """Squared L2 norm of every row, computed on the first call and kept
        as a read-only array."""
        return self._row_norms

    @cached_property
    def _row_norms(self) -> np.ndarray:
        return _read_only(_row_norms_sq(self), np.float64, "row norms")

    @cached_property
    def _all_rows(self) -> tuple:
        """Every row, laid out as ``_gather`` lays out a batch's rows."""
        return self.indices, self.data, self.row_nnz, self.labels, _segments(self.row_nnz)


def _row_norms_sq(dataset: Dataset) -> np.ndarray:
    """Every row's squared norm, each summed by ``np.dot`` over the row's
    stored values. ``np.dot`` and a ufunc reduction round differently, and
    row normalization and the Lipschitz estimate keep the bits of the
    per-row ``np.dot`` sum."""
    ptr = dataset.indptr.tolist()
    data = dataset.data
    return np.array(
        [np.dot(data[lo:hi], data[lo:hi]) for lo, hi in zip(ptr[:-1], ptr[1:])],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class VRAnchor:
    """Stage anchor: snapshot iterate, the exact full gradient there, and
    every row's gradient coefficient there, grad f_i(x_tilde) = coefs[i] a_i.
    The stage's batches read their anchor terms from ``coefs`` instead of
    recomputing them."""

    x_tilde: DenseVec
    full_grad: DenseVec
    coefs: np.ndarray

    @cached_property
    def base(self) -> DenseVec:
        """``full_grad + 0.0``: the variance-corrected one-row gradient off
        the row's support (the substitution rule turns -0.0 into +0.0)."""
        return self.full_grad + 0.0

    @cached_property
    def has_zero(self) -> bool:
        """Whether ``full_grad`` has an exact zero, of either sign."""
        return not self.full_grad.all()


@dataclass(frozen=True, eq=False)
class RowBlocks:
    """Where each row's stored entries fall among the blocks of a
    ``BlockPartition`` (``bounds``): ``span(i, j) = (p, q)`` says that row
    i's entries in block j are the stored entries p..q-1, and ``offsets[e]``
    is entry e's coordinate minus its block's lower bound.

    The spans are tabulated in ``cuts`` (``cuts[i][j]:cuts[i][j + 1]``, as
    lists, so that a span is two list reads) where its n * (m + 1) values do
    not outnumber the stored entries; else (m near d on sparse rows)
    ``cuts`` is None and ``span`` searches row i at block j's bounds, so
    memory stays O(nnz) either way."""

    indptr: np.ndarray
    indices: np.ndarray
    bounds: np.ndarray
    offsets: np.ndarray
    cuts: list | None

    @staticmethod
    def build(dataset: Dataset, part: BlockPartition) -> "RowBlocks":
        """The offsets from one table of each coordinate's block lower
        bound; the table of spans, where it fits, by one ``searchsorted`` of
        every (row, bound) key into the stored entries' keys row * d +
        column, which ascend in storage order."""
        bounds = part.bounds
        if bounds[-1] != dataset.d:
            raise ContractViolation(f"the blocks cover [0, {bounds[-1]}), not [0, {dataset.d})")
        indices = dataset.indices
        offsets = indices - bounds[:-1].repeat(np.diff(bounds))[indices]
        cuts = None
        if dataset.n * bounds.size <= indices.size:
            rows = np.arange(dataset.n, dtype=np.int64) * dataset.d
            keys = rows.repeat(dataset.row_nnz)
            keys += indices
            cuts = keys.searchsorted(rows[:, None] + bounds).tolist()
        return RowBlocks(dataset.indptr, indices, bounds, offsets, cuts)

    def span(self, i: int, j: int) -> tuple[int, int]:
        """(p, q): row ``i``'s entries in block ``j`` are the stored entries
        p..q-1."""
        if self.cuts is not None:
            cut = self.cuts[i]
            return cut[j], cut[j + 1]
        start, end = self.indptr[i:i + 2].tolist()
        cuts = start + self.indices[start:end].searchsorted(self.bounds[j:j + 2])
        return tuple(cuts.tolist())

    def meets(self, i: int) -> list:
        """``(j, *span(i, j))`` for every block j that row ``i`` has entries
        in, ascending."""
        if self.cuts is not None:
            return [(j, p, q) for j, (p, q) in enumerate(zip(self.cuts[i], self.cuts[i][1:]))
                    if p < q]
        start, end = self.indptr[i:i + 2].tolist()
        met = np.unique(self.bounds.searchsorted(self.indices[start:end], side="right") - 1)
        return [(j, *self.span(i, j)) for j in met.tolist()]


@dataclass(frozen=True)
class EntryTerms:
    """An anchor's one-row terms on stored entries: ``grad[e] = 0.0 +
    coefs[i] * data[e]`` for entry e of row i, the one-row anchor gradient
    at coordinate ``indices[e]``, ``full[e]``, the anchor full gradient
    there, and ``same``, where the two are bitwise equal, so the
    substitution rule keeps the read's gradient; None where it never does."""

    grad: np.ndarray
    full: np.ndarray
    same: np.ndarray | None


def entry_terms(dataset: Dataset, anchor: VRAnchor) -> EntryTerms:
    """Every stored entry's ``EntryTerms`` at ``anchor``, in O(nnz): the
    anchor side of a stage's one-row updates."""
    products = anchor.coefs.repeat(dataset.row_nnz)
    products *= dataset.data
    products += 0.0
    full = anchor.full_grad[dataset.indices]
    same = products == full
    return EntryTerms(products, full, same if same.any() else None)


def _check_labels(kind: LossKind, dataset: Dataset) -> None:
    if kind is LossKind.LOGISTIC:
        bad = np.flatnonzero(np.abs(dataset.labels) != 1.0)
        if bad.size:
            raise ContractViolation(
                f"logistic loss needs labels in {{-1,+1}}, got {dataset.labels[bad[0]]}"
            )


def _losses(kind: LossKind, t, b):
    """f_i from the dot products ``t = a_i^T x``; never overflows."""
    if kind is LossKind.LOGISTIC:
        return np.logaddexp(0.0, -b * t)
    r = t - b
    return 0.5 * r * r


def _coefs(kind: LossKind, t, b):
    """Scalars c_i with grad f_i(x) = c_i a_i, from ``t = a_i^T x``."""
    if kind is LossKind.LOGISTIC:
        # -b sigmoid(-b t) = -b q' / (1 + q) with q = exp(-|b t|), and q' = q
        # where b t >= 0, else 1; exp() never sees a positive argument
        m = b * t
        q = np.exp(-np.abs(m))
        return -b * np.where(m >= 0.0, q, 1.0) / (1.0 + q)
    return t - b


def _coef(kind: LossKind, t: float, b: float) -> float:
    """``_coefs`` of one row in Python floats: the same operations in the
    same order, and np.exp gives a scalar the bits it gives an array."""
    if kind is LossKind.LOGISTIC:
        m = b * t
        q = float(np.exp(-abs(m)))
        return -b * (q if m >= 0.0 else 1.0) / (1.0 + q)
    return t - b


def _row_coef(kind: LossKind, vals, x_row, b: float) -> float:
    """c of one row from its stored values and ``x`` on its support, the dot
    product summed in the order a batch sums it."""
    t = float(np.add.reduceat(vals * x_row, _FIRST)[0]) if vals.size else 0.0
    return _coef(kind, t, b)


def _segments(lens) -> tuple:
    """(starts, full) for consecutive rows of ``lens`` entries: the
    ``np.add.reduceat`` offsets of the non-empty rows, and the mask of those
    rows, None when no row is empty. ``np.add.reduceat`` returns the start
    element for an empty segment and rejects a start at the end, so empty
    rows are left out of it."""
    starts = lens.cumsum() - lens
    if np.count_nonzero(lens) == lens.size:
        return starts, None
    full = lens > 0
    return starts[full], full


def _dots(idx, vals, x: DenseVec, segments) -> np.ndarray:
    """a_i^T x for consecutive rows of ``idx``/``vals``, laid out as
    ``segments`` (from ``_segments``) says."""
    starts, full = segments
    t = np.add.reduceat(vals * x[idx], starts)
    if full is None:
        return t
    out = np.zeros(full.size)
    out[full] = t
    return out


def _scatter(d: int, idx, vals, lens, c) -> DenseVec:
    """sum_i c_i a_i over consecutive rows laid out as in ``_dots``; every
    coordinate adds its terms in row order."""
    if not idx.size:
        return np.zeros(d)  # np.bincount of nothing is an integer array
    return np.bincount(idx, weights=c.repeat(lens) * vals, minlength=d)


def _weigh(c, weights) -> np.ndarray:
    """m_i c_i for ``weights`` = (m, outside): the rows' multiplicities, as
    floats, and the mask of those of multiplicity 0 (None when there are
    none), where the product is +0.0, so a row outside the batch adds
    nothing to a sum, even where its coefficient is not finite."""
    mult, outside = weights
    if outside is None:
        return c * mult
    w = np.where(outside, 0.0, c)
    w *= mult
    return w


def _grad_sum(kind: LossKind, d: int, rows, x: DenseVec, weights=None):
    """(c, sum_i (m_i c_i) a_i) of ``rows`` = (indices, values, row lengths,
    labels, segments): every row's coefficient at ``x`` and their sum
    weighted as ``_weigh`` weights them (m_i = 1 where ``weights`` is None),
    each coordinate adding its terms in row order."""
    idx, vals, lens, b, segments = rows
    c = _coefs(kind, _dots(idx, vals, x, segments), b)
    return c, _scatter(d, idx, vals, lens, c if weights is None else _weigh(c, weights))


def _gather(dataset: Dataset, rows: np.ndarray):
    """The listed rows, in order, as (indices, values, row lengths, labels)."""
    starts = dataset.indptr[rows]
    lens = dataset.row_nnz[rows]
    ends = lens.cumsum()
    pos = np.arange(ends[-1]) + (starts - (ends - lens)).repeat(lens)
    return dataset.indices[pos], dataset.data[pos], lens, dataset.labels[rows]


def _fold(rows: np.ndarray):
    """The batches of ``rows``, a (c, B) array, as a multiset each: (every
    batch's distinct rows, ascending, one batch after another; their
    multiplicities as floats and each batch's count of distinct rows, both
    None when no batch repeats a row)."""
    rows = np.sort(rows, axis=1)
    new = rows[:, 1:] != rows[:, :-1]
    if new.all():
        return rows.ravel(), None, None
    new = np.concatenate((np.ones((len(rows), 1), dtype=bool), new), axis=1)
    first = np.flatnonzero(new)
    mult = np.empty(first.size)
    np.subtract(first[1:], first[:-1], out=mult[:-1])
    mult[-1] = rows.size - first[-1]
    return rows.ravel()[first], mult, np.count_nonzero(new, axis=1)


def _is_wide(dataset: Dataset, B: int) -> bool:
    """Whether a stage plan's batches of ``B`` rows take the all-rows form:
    one pass over every stored entry, rows weighted by their
    multiplicities, instead of a gather of their distinct rows. Measured per
    batch, the all-rows form wins or ties from B = n up and loses below
    n / 2, dense or sparse; between the two the winner depends on the shape
    (README). ``SolverConfig.validate`` refuses B > n, so a solver's batches
    take this form at exactly B = n; larger B reach it only from a direct
    ``stage_batches`` call."""
    return B >= dataset.n


# One chunk of a stage's batch plan holds at most this many entries in its
# anchor terms' keyed sum (the gathered entries, or every stored entry once
# per batch in the all-rows form) and this many anchor-term values (batches
# times d), and at least one batch.
_PLAN_ENTRIES = 8192
_PLAN_VALUES = 1 << 15


def _anchor_terms(anchor: VRAnchor, keys, cols, weights, c: int, B: int) -> tuple:
    """(terms, same) of c batches: (1/B) times the sums of ``weights`` at
    ``keys`` = batch * d + coordinate (``cols``), as a (c, d) array, and
    for each batch where its term equals the anchor full gradient, None
    where it never does. One ``np.bincount`` adds each key's terms in order,
    as a bincount per batch does. Off the keys a term is +0.0, which can
    equal only a zero of the full gradient; so where the keys are fewer,
    only keyed terms are divided and compared, and the (c, d) comparison
    runs only if the full gradient has a zero or a keyed term equals it."""
    d = anchor.full_grad.size
    if keys.size:
        terms = np.bincount(keys, weights=weights, minlength=c * d)
    else:
        terms = np.zeros(c * d)  # np.bincount of nothing is an integer array
    if keys.size < terms.size:
        keyed = terms[keys]
        keyed /= B
        terms[keys] = keyed
        if not (anchor.has_zero or (keyed == anchor.full_grad[cols]).any()):
            return terms.reshape(c, d), [None] * c
    else:
        terms /= B
    terms = terms.reshape(c, d)
    same = terms == anchor.full_grad
    return terms, [u if hit else None for u, hit in zip(same, same.any(axis=1).tolist())]


def _plan_chunk(dataset: Dataset, anchor: VRAnchor, rows: np.ndarray) -> list:
    """Every batch of ``rows``, a (c, B) array, as the ``planned`` argument
    of ``vr_gradient`` in the gathered form: (its distinct rows as
    ``_gather`` lays them out, with their ``_segments``, their ``_weigh``
    weights or None, B, anchor term, same), ``same`` marking where the
    anchor term equals the anchor full gradient (None where it never does).
    The c batches' distinct rows are gathered, their anchor terms (1/B)
    sum_i (m_i coefs[i]) a_i summed and their rows' segments found at once."""
    c, B = rows.shape
    flat, mult, counts = _fold(rows)
    idx, vals, lens, labels = _gather(dataset, flat)
    w = anchor.coefs[flat]
    if mult is None:
        row_cuts, per = range(0, c * B + 1, B), lens.reshape(c, B).sum(axis=1)
    else:
        w *= mult
        row_cuts = [0, *counts.cumsum().tolist()]
        per = np.add.reduceat(lens, row_cuts[:-1])
    ends = [0, *per.cumsum().tolist()]
    keys = idx if c == 1 else idx + np.arange(0, c * dataset.d, dataset.d).repeat(per)
    terms, same = _anchor_terms(anchor, keys, idx, w.repeat(lens) * vals, c, B)
    # every row's reduceat start inside its batch, as _segments finds it
    starts = lens.cumsum() - lens - np.repeat(ends[:-1], B if mult is None else counts)
    ne = lens > 0  # the rows reduceat can take
    filled = ne.all()
    # a batch without repeats takes no weights
    return [
        ((idx[e:f], vals[e:f], lens[r:s], labels[r:s],
          (starts[r:s], None) if filled or ne[r:s].all() else (starts[r:s][ne[r:s]], ne[r:s])),
         None if s - r == B else (mult[r:s], None), B, terms[u], same[u])
        for u, (r, s, e, f) in enumerate(zip(row_cuts, row_cuts[1:], ends, ends[1:]))
    ]


def _multisets(n: int, rows: np.ndarray) -> np.ndarray:
    """Each batch of ``rows``, a (c, B) array, as every row's multiplicity
    in it: a (c, n) float array."""
    c = len(rows)
    counts = np.bincount((rows + np.arange(0, c * n, n)[:, None]).ravel(), minlength=c * n)
    return counts.reshape(c, n).astype(np.float64)


def _wide_plans(dataset: Dataset, anchor: VRAnchor, rows: np.ndarray, chunk: int):
    """Yield every batch of ``rows``, a (K, B) array, as the ``planned``
    argument of ``vr_gradient`` in the all-rows form: (every row, its
    ``_weigh`` weights, B, anchor term, same). Nothing is gathered: the
    multiplicities of ``chunk`` batches at a time are counted at once, and
    their anchor terms (1/B) sum_i (m_i coefs[i]) a_i summed at once over
    the stored entries. At n=200, d=20 dense, B = n (chunks of two), this
    measured 0.97 times the paced solve time of one batch at a time."""
    K, B = rows.shape
    idx, d = dataset.indices, dataset.d
    keys = idx if chunk == 1 else (idx + np.arange(0, min(chunk, K) * d, d)[:, None]).ravel()
    cols = np.tile(idx, min(chunk, K))
    for k in range(0, K, chunk):
        part = _multisets(dataset.n, rows[k:k + chunk])
        c, outside = len(part), part == 0
        w = _weigh(anchor.coefs, (part, outside)).repeat(dataset.row_nnz, axis=1)
        w *= dataset.data
        e = c * idx.size
        terms, same = _anchor_terms(anchor, keys[:e], cols[:e], w.ravel(), c, B)
        for u in range(c):
            yield dataset._all_rows, (part[u], outside[u]), B, terms[u], same[u]


def stage_batches(dataset: Dataset, anchor: VRAnchor, rows: np.ndarray):
    """Yield a stage's mini-batches, the rows of ``rows`` (K, B), in order,
    each with its ``planned`` argument of ``vr_gradient``.

    One-row batches come without a plan (``planned`` None), since their
    updates run ``_vr_row``. Larger ones are planned a chunk at a time, in
    the all-rows form (``_wide_plans``) if they are wide (``_is_wide``),
    else in the gathered form (``_plan_chunk``). A chunk's anchor terms sum
    at most ``_PLAN_ENTRIES`` entries and hold at most ``_PLAN_VALUES``
    values, and a chunk holds at least one batch."""
    K, B = rows.shape
    if B == 1:
        yield from ((batch, None) for batch in rows.tolist())
        return
    rows = _batch_rows(dataset, rows) if K else rows
    wide = _is_wide(dataset, B)
    width = dataset.indices.size if wide else B * int(dataset.row_nnz.max())
    chunk = max(1, min(_PLAN_ENTRIES // max(width, 1), _PLAN_VALUES // dataset.d))
    if wide:
        yield from zip(rows, _wide_plans(dataset, anchor, rows, chunk))
        return
    for k in range(0, K, chunk):
        part = rows[k:k + chunk]
        yield from zip(part, _plan_chunk(dataset, anchor, part))


def _batch_rows(dataset: Dataset, batch) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ContractViolation("mini-batch must be non-empty")
    if batch.min() < 0 or batch.max() >= dataset.n:
        raise ContractViolation("batch index out of range")
    return batch


def minibatch_grad(kind: LossKind, dataset: Dataset, batch, x: DenseVec) -> DenseVec:
    """Mean of member gradients over an index multiset, in row order:
    (1/B) sum over the distinct rows i, ascending, of (m_i c_i) a_i, with
    m_i the row's multiplicity and grad f_i(x) = c_i a_i. The mean does not
    depend on the order the rows were drawn in. The distinct rows are
    gathered; a batch of every row once gives ``full_grad``'s bytes, and a
    stage plan's all-rows form (``_wide_plans``) gives these bytes too."""
    batch = _batch_rows(dataset, batch)
    if batch.size > 1:
        flat, mult, _ = _fold(batch.reshape(1, -1))
        weights = None if mult is None else (mult, None)
        idx, vals, lens, labels = _gather(dataset, flat)
        rows = (idx, vals, lens, labels, _segments(lens))
        _, out = _grad_sum(kind, dataset.d, rows, x, weights)
        out /= batch.size
        return out
    # one row: the batch arithmetic on slices, without the gather
    i = int(batch.flat[0])
    lo, hi = dataset.indptr[i], dataset.indptr[i + 1]
    idx, vals = dataset.indices[lo:hi], dataset.data[lo:hi]
    out = np.zeros(dataset.d)
    out[idx] += _row_coef(kind, vals, x[idx], float(dataset.labels[i])) * vals
    return out


def _full_pass(kind: LossKind, dataset: Dataset, x: DenseVec):
    """(every row's coefficient c_i, (1/n) sum_i c_i a_i) at ``x``, from one
    pass over every row in row order."""
    c, out = _grad_sum(kind, dataset.d, dataset._all_rows, x)
    out /= dataset.n
    return c, out


def full_grad(kind: LossKind, dataset: Dataset, x: DenseVec) -> DenseVec:
    """(1/n) sum_i grad f_i(x): one pass over every row in row order, the
    arithmetic ``minibatch_grad`` uses for a batch of every row, so the two
    agree bit for bit."""
    return _full_pass(kind, dataset, x)[1]


def vr_gradient(
    kind: LossKind,
    dataset: Dataset,
    batch,
    x_read: DenseVec,
    anchor: VRAnchor,
    planned: tuple | None = None,
) -> DenseVec:
    """Variance-corrected mini-batch gradient

        grad f_B(x_read) - grad f_B(x_tilde) + full_grad(x_tilde),

    both batch terms the row-order multiset mean of ``minibatch_grad``.
    Coordinates where grad f_B(x_tilde) bitwise-equals the anchor full
    gradient are resolved by substitution, so the degenerate configurations
    (full batch; reading at the anchor) reproduce their deterministic
    counterparts exactly instead of up to rounding.

    The anchor term of row i is ``anchor.coefs[i] * a_i``, so only the read
    needs dot products. A batch comes with its rows and anchor term in
    ``planned``, the batch's entry of a stage plan (``stage_batches``), in
    the gathered or the all-rows form; without one it is gathered by
    ``_plan_chunk`` as a chunk of one batch. What is left is the read's dot
    products and coefficients, one scatter and the substitution rule:
    O(nnz(batch) + d) gathered, O(nnz + d) in the all-rows form, with no
    gather. Both terms equal the two ``minibatch_grad`` results (at the
    read and at the anchor) bit for bit. The one-row form, on one block of
    the row's entries, is ``_vr_row``.
    """
    if planned is None:
        planned = _plan_chunk(dataset, anchor, _batch_rows(dataset, batch).reshape(1, -1))[0]
    rows, weights, size, g_anchor, same = planned
    _, g_read = _grad_sum(kind, dataset.d, rows, x_read, weights)
    g_read /= size
    # g_read is needed again only where the substitution rule keeps it
    out = np.subtract(g_read, g_anchor, out=g_read if same is None else None)
    out += anchor.full_grad
    if same is not None:
        np.copyto(out, g_read, where=same)
    return out


def _vr_row(kind, data, start, end, b, x_row, p, q, terms) -> np.ndarray:
    """``vr_gradient`` of the row stored at entries start..end-1, label
    ``b``, on its entries p..q-1 (start <= p <= q <= end, unchecked), from
    ``x_row``, the read on its support, and the stage's ``EntryTerms``. A
    one-row ``minibatch_grad`` is ``0.0 + c * a_i`` on the support and +0.0
    elsewhere, so the substitution rule runs on these entries' values and
    yields ``anchor.base`` on the rest of the block."""
    c_read = _row_coef(kind, data[start:end], x_row, b)
    g_read = c_read * data[p:q]
    g_read += 0.0
    out = g_read - terms.grad[p:q]
    out += terms.full[p:q]
    if terms.same is not None:
        np.copyto(out, g_read, where=terms.same[p:q])
    return out


def prox_elastic(y: DenseVec, step: float, reg: Regularizer, out=None) -> DenseVec:
    """Closed-form elastic-net prox: soft-threshold by step*lambda1, then
    divide by (1 + step*lambda2). Exact; zero regularizer is the identity.

    ``copysign(max(|y| - t, 0), y + 0.0)`` equals ``sign(y) * max(|y| - t,
    0)`` bit for bit: ``y + 0.0`` turns -0.0 into +0.0, the zero that
    ``np.sign`` multiplies by. The result is written to ``out`` (float64,
    shaped as ``y``; it may be ``y`` itself) or to a new array."""
    if not (math.isfinite(step) and step > 0):
        raise ContractViolation("prox step must be finite and > 0")
    y = np.asarray(y)
    if reg.lambda1 == 0.0 and reg.lambda2 == 0.0:
        if out is None:
            return y.copy()
        out[...] = y
        return out
    sign = y + 0.0
    out = np.abs(sign, out=out)
    out -= step * reg.lambda1
    np.maximum(out, 0.0, out=out)
    np.copysign(out, sign, out=out)
    if reg.lambda2 != 0.0:
        out /= 1.0 + step * reg.lambda2
    return out


def objective_value(kind: LossKind, dataset: Dataset, reg: Regularizer, x: DenseVec) -> float:
    """P(x) = mean loss + regularizer."""
    idx, vals, _, _, segments = dataset._all_rows
    t = _dots(idx, vals, x, segments)
    return float(np.sum(_losses(kind, t, dataset.labels)) / dataset.n + reg.value(x))


@dataclass(frozen=True)
class Problem:
    """Dataset + loss + regularizer bundle used by the solvers."""

    dataset: Dataset
    loss: LossKind
    reg: Regularizer

    def __post_init__(self):
        _check_labels(self.loss, self.dataset)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    def objective(self, x: DenseVec) -> float:
        return objective_value(self.loss, self.dataset, self.reg, x)

    def full_grad(self, x: DenseVec) -> DenseVec:
        return full_grad(self.loss, self.dataset, x)

    def minibatch_grad(self, batch, x: DenseVec) -> DenseVec:
        return minibatch_grad(self.loss, self.dataset, batch, x)

    def vr_grad(self, batch, x_read: DenseVec, anchor: VRAnchor, planned=None) -> DenseVec:
        return vr_gradient(self.loss, self.dataset, batch, x_read, anchor, planned)

    def make_anchor(self, x_tilde: DenseVec) -> VRAnchor:
        x_tilde = x_tilde.copy()
        coefs, grad = _full_pass(self.loss, self.dataset, x_tilde)
        return VRAnchor(x_tilde, grad, coefs)
