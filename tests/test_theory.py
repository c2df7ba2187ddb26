import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_dataset, random_dataset, sparse_from_pairs
from proxvr.bench_cli import compute_reference_optimum
from proxvr.errors import ContractViolation, RateDomainError
from proxvr.linalg import SparseVec
from proxvr.problem import Dataset, LossKind, Problem, Regularizer, SparseExample
from proxvr.theory import (
    ProblemConstants,
    data_sparsity_delta,
    estimate_lipschitz,
    smoothness_bound,
    svrcd_rate,
    svrcd_speedup_condition,
    svrcd_stepsize_admissible,
    svrg_rate,
    svrg_speedup_condition,
    svrg_stepsize_admissible,
)


def _c(**kw):
    base = dict(mu=0.1, L=1.0, T=1.0, Delta=1.0, tau=0, B=1, K=1000, m=1, eta=0.05)
    base.update(kw)
    return ProblemConstants(**base)


def _ex(pairs, d, b=1.0):
    return SparseExample(sparse_from_pairs(pairs, d), b)


# ------------------------------------------------------------- sparsity


def test_delta_dense_is_one():
    ds = build_dataset([_ex([(0, 1.0), (1, 1.0)], 2) for _ in range(5)], 2)
    assert data_sparsity_delta(ds) == 1.0


def test_delta_hand_count():
    ds = build_dataset(
        [
            _ex([(0, 1.0)], 2),
            _ex([(1, 1.0)], 2),
            _ex([(0, 2.0)], 2),
            _ex([(1, -1.0)], 2),
        ],
        2,
    )
    # feature 0 hits rows {0, 2}: 2/4
    assert data_sparsity_delta(ds) == 0.5


def test_delta_degenerate_warns():
    empty = SparseVec(np.empty(0, dtype=np.int64), np.empty(0), 3)
    ds = build_dataset([SparseExample(empty, 1.0)], 3)
    with pytest.warns(UserWarning):
        assert data_sparsity_delta(ds) == 0.0


def test_delta_matches_brute_force(rng):
    for _ in range(30):
        n = int(rng.integers(1, 25))
        d = int(rng.integers(1, 12))
        ds = random_dataset(rng, n, d, density=float(rng.uniform(0.2, 1.0)))
        counts = [sum(1 for ex in ds.examples if j in ex.a.indices) for j in range(d)]
        assert data_sparsity_delta(ds) == max(counts) / n


# ------------------------------------------------------------- SVRG formulas


def test_svrg_admissible_examples():
    assert svrg_stepsize_admissible(_c(tau=0, eta=0.05)) is True
    assert svrg_stepsize_admissible(_c(tau=2, eta=0.05)) is True  # min{0.1, 0.0625}
    boundary = _c(eta=1.0 / 16.0)  # exactly B/(16L)
    assert svrg_stepsize_admissible(boundary) is False


def test_svrg_rate_five_sixths_config():
    rho = svrg_rate(_c(K=2000, eta=0.05))
    assert abs(rho - 5.0 / 6.0) < 1e-12


def test_svrg_rate_limits():
    # large K leaves only the second term
    rho = svrg_rate(_c(K=10**9, eta=0.05))
    assert rho == pytest.approx(0.4 / 0.6, rel=1e-6)
    # eta -> 0 blows up the first term
    assert svrg_rate(_c(eta=1e-9)) > 1e6
    with pytest.raises(RateDomainError):
        svrg_rate(_c(eta=0.2))  # B - 8 eta L = -0.6


def test_svrg_speedup_cases():
    assert svrg_speedup_condition(_c(Delta=1e-2, tau=5)).kind == "linear"
    assert svrg_speedup_condition(_c(Delta=1.0, B=10, tau=10)).kind == "none"
    assert svrg_speedup_condition(_c(tau=0)).kind == "linear"
    # tau above the linear bound sqrt(8/(B^2 Delta)) ~ 28.3 but B^2 Delta tau < 1
    part = svrg_speedup_condition(_c(Delta=0.01, B=1, tau=50))
    assert part.kind == "partial"
    assert part.factor == pytest.approx(1.0 / (0.01 * 50))


# ------------------------------------------------------------- SVRCD formulas


def test_svrcd_admissible_examples():
    ok = ProblemConstants(mu=1.0, L=1.0, T=1.0, Delta=1.0, tau=0, B=1, K=10, m=64, eta=1 / 24)
    assert svrcd_stepsize_admissible(ok) is True
    boundary = ProblemConstants(mu=1.0, L=1.0, T=1.0, Delta=1.0, tau=0, B=1, K=10, m=64, eta=1 / 8)
    assert svrcd_stepsize_admissible(boundary) is False
    # m^{3/2} <= T tau forces the first bound non-positive
    forced = ProblemConstants(mu=1.0, L=1.0, T=1.0, Delta=1.0, tau=10, B=1, K=10, m=4, eta=1e-6)
    assert svrcd_stepsize_admissible(forced) is False
    # side condition B >= L/T
    side = ProblemConstants(mu=0.1, L=4.0, T=1.0, Delta=1.0, tau=0, B=2, K=10, m=64, eta=1e-3)
    assert svrcd_stepsize_admissible(side) is False


def test_svrcd_rate_reference_setup():
    T, mu, m = 1.0, 0.1, 8
    K = int(216 * m * T / mu)
    c = ProblemConstants(mu=mu, L=1.0, T=T, Delta=1.0, tau=0, B=1, K=K, m=m, eta=1 / (24 * T))
    rho = svrcd_rate(c)
    expected = 2.0 / 15.0 + (K + 1) / (5.0 * K)
    assert rho == pytest.approx(expected, rel=1e-12)
    assert rho < 5.0 / 6.0


def test_svrcd_rate_limit_and_domain():
    c = ProblemConstants(mu=0.5, L=1.0, T=1.0, Delta=1.0, tau=0, B=1, K=10**9, m=4, eta=1 / 24)
    assert svrcd_rate(c) == pytest.approx((4 / 24) / (1 - 4 / 24), rel=1e-5)
    bad = ProblemConstants(mu=0.5, L=1.0, T=1.0, Delta=1.0, tau=0, B=1, K=10, m=4, eta=0.3)
    with pytest.raises(RateDomainError):
        svrcd_rate(bad)


def test_svrcd_speedup_cases():
    lin = ProblemConstants(mu=1.0, L=1.0, T=1.0, Delta=1.0, tau=50, B=1, K=1, m=10**4, eta=0.01)
    assert svrcd_speedup_condition(lin).kind == "linear"
    zero = ProblemConstants(mu=1.0, L=1.0, T=1.0, Delta=1.0, tau=0, B=1, K=1, m=4, eta=0.01)
    assert svrcd_speedup_condition(zero).kind == "linear"
    small_mu = ProblemConstants(
        mu=1e-3, L=1.0, T=1.0, Delta=1.0, tau=5, B=1, K=1, m=100, eta=0.01
    )
    # 4 mu sqrt(m) = 0.04 < 5 so not linear
    assert svrcd_speedup_condition(small_mu).kind == "none"
    part = svrcd_speedup_condition(small_mu, n=10**4)
    assert part.kind == "partial"
    assert part.factor == pytest.approx(10.0 / (2 * 5 * 100.0))


# ------------------------------------------------------------- constants


def test_estimate_lipschitz_cases(rng):
    ds = build_dataset([_ex([(0, 1.0)], 2)], 2)
    assert estimate_lipschitz(ds, LossKind.LEAST_SQUARES) == (1.0, 1.0)
    two = build_dataset([_ex([(0, 1.0)], 2), _ex([(1, 2.0)], 2)], 2)
    assert estimate_lipschitz(two, LossKind.LEAST_SQUARES) == (4.0, 4.0)
    from proxvr.data_io import synth_dataset

    norm = synth_dataset(40, 6, 1.0, seed=2)
    L, T = estimate_lipschitz(norm, LossKind.LOGISTIC)
    assert L == pytest.approx(0.25, abs=1e-12)
    assert T == L


def _csr(A) -> Dataset:
    """The dense matrix ``A`` as a Dataset with labels +-1."""
    rows, cols = np.nonzero(A)
    indptr = np.zeros(A.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(A, axis=1), out=indptr[1:])
    labels = np.where(np.arange(A.shape[0]) % 2, 1.0, -1.0)
    return Dataset(indptr, cols, A[rows, cols], labels, A.shape[1])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), d=st.integers(1, 12),
       density=st.sampled_from([0.05, 0.2, 0.5, 1.0]), shift=st.sampled_from([0.0, 1.0]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), blank=st.booleans())
@example(seed=0, n=1, d=5, density=1.0, shift=0.0, scale=1.0, blank=False)
@example(seed=1, n=6, d=4, density=1.0, shift=1.0, scale=1.0, blank=True)
@example(seed=2, n=5, d=7, density=1.0, shift=-1.0, scale=1.0, blank=False)
def test_smoothness_bound_brackets_the_average_curvature(seed, n, d, density, shift, scale,
                                                        blank):
    # c lambda_max(A^T A / n) <= smoothness_bound <= c max_i ||a_i||^2, for
    # sparse and dense data, either sign, empty rows and columns, and n = 1
    rng = np.random.default_rng(seed)
    A = scale * (rng.standard_normal((n, d)) + shift)
    A[rng.random((n, d)) >= density] = 0.0
    if blank:  # an empty first row and last column
        A[0], A[:, -1] = 0.0, 0.0
    ds = _csr(A)
    for kind, c in ((LossKind.LEAST_SQUARES, 1.0), (LossKind.LOGISTIC, 0.25)):
        bound = smoothness_bound(ds, kind)
        exact = c * np.linalg.eigvalsh(A.T @ A / n).max()
        assert bound >= exact * (1.0 - 1e-12), (kind, bound, exact)
        L, _ = estimate_lipschitz(ds, kind)
        assert bound <= L == pytest.approx(c * (A * A).sum(axis=1).max(), rel=1e-14)


def test_smoothness_bound_without_entries_keeps_the_unit_step():
    # no stored entry: F is constant, L_F = 0, and the reference steps at 1.0
    ds = _csr(np.zeros((3, 4)))
    for kind in LossKind:
        assert smoothness_bound(ds, kind) == 0.0
        ref = compute_reference_optimum(Problem(ds, kind, Regularizer(0.1, 0.1)), 1e-12)
        assert ref.step == 1.0 and ref.iterations == 1 and not ref.x_star.any()


def test_smoothness_bound_is_exact_on_uniform_rows_and_columns():
    # every entry equal: |A|^T |A| has equal row sums, so the column term is
    # ||A||^2 / n = d exactly, as is the row term
    assert smoothness_bound(_csr(np.ones((4, 3))), LossKind.LEAST_SQUARES) == 3.0
    # one entry per row and per column: the column term is ||A||^2 / n = 1/n,
    # n times below the row term
    assert smoothness_bound(_csr(np.eye(8)), LossKind.LEAST_SQUARES) == 1.0 / 8


def test_constants_validation():
    with pytest.raises(ContractViolation):
        ProblemConstants(mu=0.0, L=1.0, T=1.0, Delta=1.0, tau=0)
    with pytest.raises(ContractViolation):
        ProblemConstants(mu=2.0, L=1.0, T=1.0, Delta=1.0, tau=0)
    with pytest.raises(ContractViolation):
        ProblemConstants(mu=0.1, L=1.0, T=1.0, Delta=1.5, tau=0)
    with pytest.raises(ContractViolation):
        ProblemConstants(mu=0.1, L=1.0, T=1.0, Delta=1.0, tau=-1)
    # 0 < inf <= inf, and T = inf > 0: only a finiteness check rejects these
    for bad in ({"mu": math.inf, "L": math.inf}, {"L": math.inf}, {"T": math.inf},
                {"mu": math.nan}, {"T": math.nan}):
        with pytest.raises(ContractViolation, match="finite"):
            ProblemConstants(**{"mu": 0.1, "L": 1.0, "T": 1.0, "Delta": 1.0, "tau": 0, **bad})


def test_svrg_rate_monotone_in_K():
    rhos = [svrg_rate(_c(K=K, eta=0.05)) for K in (100, 500, 2000, 10000)]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))
