"""Sparse/dense vector primitives and contiguous block partitions.

Dense vectors are plain 1-D float64 numpy arrays (aliased ``DenseVec``).
Sparse vectors are kept in canonical form: strictly increasing indices and no
stored zeros, so sparsity statistics read straight off the stored entries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation

DenseVec = np.ndarray


@dataclass(frozen=True)
class SparseVec:
    """Canonical sparse vector in an ambient space of dimension ``dim``."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ContractViolation("indices and values must be 1-D and same length")
        if idx.size:
            if np.any(np.diff(idx) <= 0):
                raise ContractViolation("indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ContractViolation(f"index out of range for dim={self.dim}")
            if np.any(val == 0.0):
                raise ContractViolation("canonical form forbids stored zeros")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def sparse_dot(a: SparseVec, x: DenseVec) -> float:
    """Inner product of a sparse and a dense vector."""
    if a.dim != x.shape[0]:
        raise ContractViolation(f"dimension mismatch: {a.dim} vs {x.shape[0]}")
    return float(np.dot(a.values, x[a.indices]))


@dataclass(frozen=True)
class BlockPartition:
    """Partition of {0..d-1} into m contiguous, non-empty coordinate blocks."""

    bounds: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=np.int64)
        object.__setattr__(self, "bounds", b)
        if b.ndim != 1 or b.size < 2 or b[0] != 0:
            raise ContractViolation("bounds must start at 0")
        if np.any(np.diff(b) <= 0):
            raise ContractViolation("blocks must be non-empty and ordered")

    @staticmethod
    def equal(d: int, m: int) -> "BlockPartition":
        """Equal-size contiguous blocks; the last block absorbs the remainder."""
        if not (1 <= m <= d):
            raise ContractViolation(f"need 1 <= m <= d, got m={m}, d={d}")
        cuts = np.arange(operator.index(m) + 1, dtype=np.int64) * (d // m)
        cuts[-1] = d
        return BlockPartition(cuts)

    @property
    def m(self) -> int:
        return int(self.bounds.size - 1)

    @cached_property
    def edges(self) -> list:
        """``bounds`` as a list of ints, made on the first call."""
        return self.bounds.tolist()
