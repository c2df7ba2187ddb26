"""Composite objective: average of smooth per-example losses plus an
elastic-net regularizer, with its proximal operators and gradient oracles.

    P(x) = (1/n) sum_i f_i(x) + lambda1 * ||x||_1 + (lambda2 / 2) * ||x||_2^2

Losses are the logistic loss log(1 + exp(-b * a^T x)) and the least-squares
loss (a^T x - b)^2 / 2. Gradients of f_i have support inside support(a_i).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolation
from .linalg import DenseVec, SparseVec, sparse_dot

# Fixed shard size for full-gradient reduction. Shard boundaries must not
# depend on the worker count, or the FP reduction order (and thus the bits of
# the result) would change with parallelism.
_SHARD = 256


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
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ContractViolation("regularizer weights must be >= 0")

    def value(self, x: DenseVec) -> float:
        return float(self.lambda1 * np.abs(x).sum() + 0.5 * self.lambda2 * np.dot(x, x))


@dataclass(frozen=True)
class SparseExample:
    """One training pair: sparse feature vector and scalar label."""

    a: SparseVec
    b: float


@dataclass(frozen=True)
class Dataset:
    examples: tuple
    d: int

    def __post_init__(self):
        if len(self.examples) < 1:
            raise ContractViolation("dataset must contain at least one example")
        for ex in self.examples:
            if ex.a.dim != self.d:
                raise ContractViolation("all examples must share dimension d")

    @staticmethod
    def build(examples, d: int | None = None) -> "Dataset":
        examples = tuple(examples)
        if d is None and examples:
            d = examples[0].a.dim
        return Dataset(examples, d)

    @property
    def n(self) -> int:
        return len(self.examples)


@dataclass(frozen=True)
class VRAnchor:
    """Stage anchor: snapshot iterate and the exact full gradient there."""

    x_tilde: DenseVec
    full_grad: DenseVec


def _sigmoid(s: float) -> float:
    # branch keeps exp() argument non-positive
    if s >= 0.0:
        return 1.0 / (1.0 + math.exp(-s))
    e = math.exp(s)
    return e / (1.0 + e)


def _check_labels(kind: LossKind, dataset: Dataset) -> None:
    if kind is LossKind.LOGISTIC:
        for ex in dataset.examples:
            if ex.b not in (-1.0, 1.0):
                raise ContractViolation(
                    f"logistic loss needs labels in {{-1,+1}}, got {ex.b}"
                )


def loss_value(kind: LossKind, example: SparseExample, x: DenseVec) -> float:
    """f_i(x) for one example; the logistic branch never overflows."""
    t = sparse_dot(example.a, x)
    if kind is LossKind.LOGISTIC:
        margin = example.b * t
        if margin >= 0.0:
            return math.log1p(math.exp(-margin))
        return -margin + math.log1p(math.exp(margin))
    r = t - example.b
    return 0.5 * r * r


def _grad_coef(kind: LossKind, example: SparseExample, x: DenseVec) -> float:
    """Scalar c with grad f_i(x) = c * a_i."""
    t = sparse_dot(example.a, x)
    if kind is LossKind.LOGISTIC:
        return -example.b * _sigmoid(-example.b * t)
    return t - example.b


def loss_grad(kind: LossKind, example: SparseExample, x: DenseVec) -> SparseVec:
    """Gradient of one example's loss, supported on support(a_i)."""
    c = _grad_coef(kind, example, x)
    if c == 0.0:
        return SparseVec(np.empty(0, dtype=np.int64), np.empty(0), example.a.dim)
    return SparseVec(example.a.indices, c * example.a.values, example.a.dim)


def minibatch_grad(kind: LossKind, dataset: Dataset, batch, x: DenseVec) -> DenseVec:
    """Arithmetic mean of member gradients over an index multiset."""
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ContractViolation("mini-batch must be non-empty")
    if batch.min() < 0 or batch.max() >= dataset.n:
        raise ContractViolation("batch index out of range")
    return _grad_sum(kind, dataset, batch, x) / batch.size


def _grad_sum(kind: LossKind, dataset: Dataset, rows, x: DenseVec) -> DenseVec:
    """Sum of the member gradients of ``rows``, added in the given order."""
    out = np.zeros(dataset.d)
    for i in rows:
        ex = dataset.examples[i]
        c = _grad_coef(kind, ex, x)
        out[ex.a.indices] += c * ex.a.values
    return out


def full_grad(kind: LossKind, dataset: Dataset, x: DenseVec, workers: int = 1) -> DenseVec:
    """(1/n) sum_i grad f_i(x), reduced over fixed-size shards.

    Shard boundaries are independent of ``workers``, and shard partials are
    added in shard order, so the result is bit-identical for any worker count;
    ``workers`` only parallelizes shard evaluation.
    """
    if workers < 1:
        raise ContractViolation("workers must be >= 1")
    n = dataset.n
    spans = [(lo, min(lo + _SHARD, n)) for lo in range(0, n, _SHARD)]
    if workers == 1 or len(spans) == 1:
        partials = [_grad_sum(kind, dataset, range(lo, hi), x) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(
                pool.map(lambda sp: _grad_sum(kind, dataset, range(*sp), x), spans)
            )
    total = partials[0].copy()
    for part in partials[1:]:
        total += part
    total /= n
    return total


def vr_gradient(
    kind: LossKind,
    dataset: Dataset,
    batch,
    x_read: DenseVec,
    anchor: VRAnchor,
) -> DenseVec:
    """Variance-corrected mini-batch gradient

        grad f_B(x_read) - grad f_B(x_tilde) + full_grad(x_tilde).

    Coordinates where grad f_B(x_tilde) bitwise-equals the anchor full
    gradient are resolved by substitution, so the degenerate configurations
    (full batch; reading at the anchor) reproduce their deterministic
    counterparts exactly instead of up to rounding.
    """
    g_read = minibatch_grad(kind, dataset, batch, x_read)
    g_anchor = minibatch_grad(kind, dataset, batch, anchor.x_tilde)
    raw = g_read - g_anchor + anchor.full_grad
    return np.where(g_anchor == anchor.full_grad, g_read, raw)


def prox_elastic(y: DenseVec, step: float, reg: Regularizer) -> DenseVec:
    """Closed-form elastic-net prox: soft-threshold by step*lambda1, then
    divide by (1 + step*lambda2). Exact; zero regularizer is the identity."""
    if step <= 0:
        raise ContractViolation("prox step must be > 0")
    y = np.asarray(y)
    if reg.lambda1 == 0.0 and reg.lambda2 == 0.0:
        return y.copy()
    t1 = step * reg.lambda1
    out = np.sign(y) * np.maximum(np.abs(y) - t1, 0.0)
    if reg.lambda2 != 0.0:
        out = out / (1.0 + step * reg.lambda2)
    return out


def objective_value(kind: LossKind, dataset: Dataset, reg: Regularizer, x: DenseVec) -> float:
    """P(x) = mean loss + regularizer."""
    acc = 0.0
    for ex in dataset.examples:
        acc += loss_value(kind, ex, x)
    return acc / dataset.n + reg.value(x)


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

    def full_grad(self, x: DenseVec, workers: int = 1) -> DenseVec:
        return full_grad(self.loss, self.dataset, x, workers)

    def minibatch_grad(self, batch, x: DenseVec) -> DenseVec:
        return minibatch_grad(self.loss, self.dataset, batch, x)

    def vr_grad(self, batch, x_read: DenseVec, anchor: VRAnchor) -> DenseVec:
        return vr_gradient(self.loss, self.dataset, batch, x_read, anchor)

    def make_anchor(self, x_tilde: DenseVec, workers: int = 1) -> VRAnchor:
        return VRAnchor(x_tilde.copy(), self.full_grad(x_tilde, workers))
