import numpy as np
import pytest

from conftest import sparse_from_pairs, to_dense
from proxvr.errors import ContractViolation
from proxvr.linalg import BlockPartition, SparseVec, sparse_dot


def test_sparse_vec_canonical_form():
    with pytest.raises(ContractViolation):
        SparseVec(np.array([2, 1]), np.array([1.0, 1.0]), 4)  # not increasing
    with pytest.raises(ContractViolation):
        SparseVec(np.array([0, 0]), np.array([1.0, 1.0]), 4)  # duplicate
    with pytest.raises(ContractViolation):
        SparseVec(np.array([0, 5]), np.array([1.0, 1.0]), 4)  # out of range
    with pytest.raises(ContractViolation):
        SparseVec(np.array([0]), np.array([0.0]), 4)  # stored zero


def test_sparse_dot_hand_cases():
    x = np.array([1.0, 5.0, 7.0, 4.0])
    empty = SparseVec(np.empty(0, dtype=np.int64), np.empty(0), 4)
    assert sparse_dot(empty, x) == 0.0
    a = sparse_from_pairs([(0, 2.0), (3, -1.0)], 4)
    assert sparse_dot(a, x) == -2.0
    e2 = sparse_from_pairs([(2, 1.0)], 4)
    assert sparse_dot(e2, x) == x[2]


def test_sparse_dot_dimension_mismatch():
    a = sparse_from_pairs([(0, 1.0)], 3)
    with pytest.raises(ContractViolation):
        sparse_dot(a, np.zeros(4))


def test_sparse_dot_matches_dense(rng):
    for _ in range(200):
        d = int(rng.integers(1, 33))
        nnz = int(rng.integers(0, d + 1))
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        vals = rng.standard_normal(nnz)
        vals[vals == 0.0] = 0.5
        a = SparseVec(idx, vals, d)
        x = rng.standard_normal(d)
        assert sparse_dot(a, x) == pytest.approx(float(np.dot(to_dense(a), x)), abs=1e-12)


def test_block_partition_hand_case():
    p = BlockPartition.equal(6, 3)
    assert p.edges[1:3] == [2, 4]  # second block covers {2, 3}
    whole = BlockPartition.equal(5, 1)
    assert whole.edges == [0, 5]
    singles = BlockPartition.equal(4, 4)
    assert singles.edges == [0, 1, 2, 3, 4]
    with pytest.raises(ContractViolation):
        BlockPartition.equal(4, 5)


def test_block_partition_covers_everything():
    for d in (1, 2, 5, 7, 16, 31):
        for m in range(1, d + 1):
            p = BlockPartition.equal(d, m)
            covered = []
            for j in range(m):
                lo, hi = p.edges[j:j + 2]
                assert hi > lo
                covered.extend(range(lo, hi))
            assert covered == list(range(d))


def test_block_partition_bounds_equal_the_list_formula():
    # the numpy bounds are the list [base * j for j < m] + [d], m = 1 and m = d included
    for d in (1, 2, 3, 7, 16, 31, 100, 1000):
        for m in sorted({1, 2, 3, d // 3, d // 2, d - 1, d} & set(range(1, d + 1))):
            base = d // m
            want = [base * j for j in range(m)] + [d]
            got = BlockPartition.equal(d, m).bounds
            assert got.dtype == np.int64 and got.tolist() == want
    for m in (2.0, 1.5):
        with pytest.raises(TypeError):
            BlockPartition.equal(6, m)
